"""Command-line front end.

Subcommands: spectrum (baseline sweep to CSV), scenario (defect suite with
report and overlay plots), diff (compare two spectrum CSVs), fano (fit
lineshape windows of a spectrum CSV). All artifacts are deterministic.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import csvio, svgplot
from .config import ConfigError, parse_config, build_setup
from .fano import fit_fano
from .scattering import NetworkValidationError, PoleError, sweep_spectrum
from .scenarios import ScenarioError, run_scenario_suite, spectral_difference


def cmd_spectrum(args) -> int:
    cfg = parse_config(args.config)
    net, wg, grid = build_setup(cfg)
    spec = sweep_spectrum(net, wg, grid, solver=cfg.solver)
    csv_path = os.path.join(cfg.output_dir, "baseline.csv")
    csvio.write_spectrum_csv(csv_path, spec)
    print(f"wrote {csv_path}")
    if args.svg or cfg.emit_svg:
        svg_path = os.path.join(cfg.output_dir, "baseline.svg")
        svgplot.write_overlay(svg_path, spec, title="baseline transmission")
        print(f"wrote {svg_path}")
    return 0


def cmd_scenario(args) -> int:
    cfg = parse_config(args.config)
    net, wg, grid = build_setup(cfg)

    def write_files(entry, spec, base_spec):
        csv_path = os.path.join(cfg.output_dir, f"{entry['label']}.csv")
        csvio.write_spectrum_csv(csv_path, spec)
        entry["csv"] = csv_path
        if cfg.emit_svg and spec is not base_spec:
            svg_path = os.path.join(cfg.output_dir, f"{entry['label']}.svg")
            svgplot.write_overlay(svg_path, base_spec, spec,
                                  base_label="baseline", defect_label=entry["label"],
                                  title=entry["label"])
            entry["svg"] = svg_path

    report = run_scenario_suite(net, wg, grid, cfg.scenarios, solver=cfg.solver,
                                prominence=cfg.prominence, on_spectrum=write_files)

    report_path = os.path.join(cfg.output_dir, "report.json")
    csvio.write_text(report_path,
                     json.dumps(report, indent=2, sort_keys=True, default=list) + "\n")

    print(f"baseline: {report['baseline']['dip_count']} dips")
    for entry in report["scenarios"]:
        if entry.get("ok"):
            diff = entry["diff"]
            print(f"{entry['label']}: l_inf={diff['l_inf']:.6f} "
                  f"l2={diff['l2']:.6f} extrema_delta={diff['extrema_delta']:+d}")
        else:
            print(f"{entry['label']}: FAILED ({entry['error']})")
    print(f"report: {report_path}")
    return 0


def cmd_diff(args) -> int:
    base = csvio.read_spectrum_csv(args.base)
    mod = csvio.read_spectrum_csv(args.mod)
    diff = spectral_difference(base, mod, prominence=args.prominence)
    print(json.dumps(diff.as_dict(), indent=2, sort_keys=True))
    return 0


def _parse_window(raw: str):
    parts = raw.split(",")
    if len(parts) != 2:
        raise ValueError(f"window must be LO,HI; got {raw!r}")
    lo, hi = float(parts[0]), float(parts[1])
    if not lo < hi:
        raise ValueError(f"empty window {raw!r}")
    return lo, hi


def cmd_fano(args) -> int:
    spec = csvio.read_spectrum_csv(args.spectrum)
    windows = [_parse_window(w) for w in args.window or []]
    if not windows and args.config:
        windows = list(parse_config(args.config).fit_windows)
    if not windows:
        raise ValueError("no fit windows: pass --window LO,HI or a config with fit_windows")

    if args.label and len(windows) > 1:
        raise ValueError(f"--label names a single window, but {len(windows)} windows were given")

    rows = [(args.label or f"window-{i + 1}", fit_fano(spec, window))
            for i, window in enumerate(windows)]
    print(csvio.format_fano_table(rows), end="")
    if args.out:
        csvio.write_fano_csv(args.out, rows)
        print(f"wrote {args.out}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="excitonprobe",
        description="Single-photon transmission spectra of lossy exciton networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="sweep the baseline and write a CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--svg", action="store_true", help="also render an SVG plot")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("scenario", help="run the defect-scenario suite")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_scenario)

    p = sub.add_parser("diff", help="compare two spectrum CSVs")
    p.add_argument("--base", required=True)
    p.add_argument("--mod", required=True)
    p.add_argument("--prominence", type=float, default=0.01)
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser("fano", help="fit Fano lineshapes to spectrum windows")
    p.add_argument("--spectrum", required=True)
    p.add_argument("--window", action="append", metavar="LO,HI")
    p.add_argument("--config", help="config supplying fit_windows when --window is absent")
    p.add_argument("--label", help="row label (single window only)")
    p.add_argument("--out", help="also write the fit table to this CSV path")
    p.set_defaults(func=cmd_fano)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ScenarioError, NetworkValidationError, PoleError,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
