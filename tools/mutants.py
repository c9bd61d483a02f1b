"""Mutation check: does the tier-1 suite fail for each listed one-line edit of src/?

    python3 tools/mutants.py              # every mutant, about 5-15 s each

The repository's working tree is copied once to a temporary directory. The
unmutated suite must pass there first. Then each mutant's edit is applied to
the copy, the tier-1 suite runs with `-x`, with acceptance check 8
deselected (it fails on unmutated code, see ROADMAP.md) and without
`tests/test_mutant_list.py`, and the file is restored. A mutant is killed
when the suite fails or times out. The script prints killed or survived per
mutant, with the first test that failed, and exits 1 when a mutant not
marked equivalent survives. It is not part of tier-1;
`tests/test_mutant_list.py` only checks that each old text still occurs
exactly once in its file.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
CHECK_8 = "tests/test_acceptance.py::test_criterion_08_port_asymmetry_amplifies_near_side"
TIMEOUT_S = 600


class Mutant(NamedTuple):
    file: str          # relative to the repository root
    old: str           # must occur exactly once in the file
    new: str
    reason: str
    equivalent: bool = False  # True: no output may change, so surviving is expected


PKG = "src/excitonprobe/"

MUTANTS = [
    # physics and validation
    Mutant(PKG + "scattering.py", "np.fill_diagonal(H, net.epsilon - 0.5j * net.loss)",
           "np.fill_diagonal(H, net.epsilon - 0.5j * (1 - 1e-6) * net.loss)",
           "loss in H_eff scaled by 1 - 1e-6"),
    Mutant(PKG + "model.py", "bad = J != J.T", "bad = np.zeros_like(J, dtype=bool)",
           "coupling symmetry check dropped"),
    Mutant(PKG + "model.py", "np.flatnonzero(arr < 0)", "np.flatnonzero(arr < -1)",
           "negative channel losses down to -1 accepted"),
    Mutant(PKG + "model.py", "    sink[3 - 1] = gamma_s\n",
           "    sink[3 - 1] = gamma_s\n    sink[4 - 1] = 1e-9\n",
           "an extra 1e-9 sink on site 4"),
    Mutant(PKG + "model.py", 'if data.get("units", "cm-1") != "cm-1":', "if False:",
           "a site-data file's units ignored"),
    Mutant(PKG + "model.py", "if self.spacing < np.finfo(float).tiny:", "if False:",
           "a grid with a subnormal spacing accepted"),
    Mutant(PKG + "model.py", "        k[last] = self.e_max\n", "",
           "grid energies without their e_max end point"),
    Mutant(PKG + "model.py", "        violations = validate_network(self)\n        if violations:",
           "        violations = validate_network(self)\n        if False:",
           "SiteNetwork built without its validation"),
    Mutant(PKG + "scenarios.py", "        J[j, i] = 0.0\n", "",
           "an inhibit that cuts only J[i, j]"),
    # scoring
    Mutant(PKG + "scenarios.py", "DEFAULT_PROMINENCE = 0.01", "DEFAULT_PROMINENCE = 0.012",
           "default prominence 0.01 -> 0.012"),
    Mutant(PKG + "scenarios.py", '_real_number(prominence, "prominence")', "float(prominence)",
           "prominence taken by float(), so True counts as 1.0"),
    Mutant(PKG + "scenarios.py", ">= prominence]]", "> prominence]]",
           "prominence >= -> >"),
    Mutant(PKG + "scenarios.py", "up[:-1] & ~up[1:], [False]))", "up[:-1] & ~up[1:], up[-1:]))",
           "a leaving step < 0 -> <= 0 in the peak walk: a rising last run counts as a peak"),
    Mutant(PKG + "scenarios.py", "moving = up | fall[start] ", "moving = up | ~up ",
           "runs of flat steps kept among the moving runs, as falling ones"),
    Mutant(PKG + "scenarios.py", "return (float(np.sqrt(np.sum(dT ** 2) * h)),",
           "return (float(1.005 * np.sqrt(np.sum(dT ** 2) * h)),",
           "l2 scaled by 1.005"),
    Mutant(PKG + "scenarios.py", "float(_trapezoid(np.abs(dT), base.energies)))",
           "float(np.sum(np.abs(dT)) * h))",
           "area by the rectangle rule instead of the trapezoid"),
    Mutant(PKG + "scenarios.py", "grid=asdict(grid)),", "),",
           "the report's grid block dropped"),
    # kernel
    Mutant(PKG + "scattering.py", "solve(at[pole] + nudge)", "solve(at[pole] - nudge)",
           "pole nudge pointed down"),
    Mutant(PKG + "scattering.py", "            if still.any():", "            if False:",
           "no PoleError after a failed nudge"),
    Mutant(PKG + "scattering.py", "i = start + np.flatnonzero(pole)[still][0]",
           "i = np.flatnonzero(pole)[still][0]", "pole's grid index without its chunk's start"),
    Mutant(PKG + "scattering.py", "raise PoleError(at[pole][0])",
           "raise PoleError(at[pole][0], grid_index=start)",
           "a grid index on a single-energy pole"),
    Mutant(PKG + "scattering.py", "if net.n_sites >= _SCHUR_MIN_SITES",
           "if net.n_sites > _SCHUR_MIN_SITES", "Schur threshold >= -> >"),
    Mutant(PKG + "scattering.py", "(b[k] + _dot_rows(T[k, k + 1:], z[:, k + 1:]))",
           "(b[k] + z[:, k + 1:] @ T[k, k + 1:])", "Schur back substitution in gemv form"),
    Mutant(PKG + "scattering.py", "b = Z.conj().T @ w", "b = Z.T @ w",
           "missing conjugate in the Schur right-hand side"),
    Mutant(PKG + "scattering.py",
           "if np.linalg.norm(np.tril(T, -1)) > n * np.finfo(float).eps * np.linalg.norm(H):",
           "if False:", "Schur form kept without its backward-error test"),
    Mutant(PKG + "scattering.py", "Z = np.linalg.qr(V)[0]", "Z = V",
           "eigenvectors taken as the Schur basis: every form falls back to LU"),
    Mutant(PKG + "scattering.py", '        "port_widths": wg.port_widths(),\n', "",
           "port_widths metadata dropped"),
    Mutant(PKG + "scattering.py", "_SCHUR_CHUNK_BYTES = 2 ** 20", "_SCHUR_CHUNK_BYTES = 2 ** 18",
           "chunk budget / 4: a point's value does not depend on its chunk", equivalent=True),
    Mutant(PKG + "scattering.py", "_LU_CHUNK_BYTES = 2 ** 18", "_LU_CHUNK_BYTES = 2 ** 20",
           "LU chunk cap back to 1 MiB"),
    Mutant(PKG + "scattering.py",
           "        stack = np.repeat(minus_H[None], energies.size, axis=0)\n"
           "        stack[:, diag, diag] += energies[:, None]\n"
           "        return _solve_rows(stack, rhs)\n",
           "        return _solve_rows(energies[:, None, None] * np.eye(n, dtype=complex) - H, rhs)\n",
           "LU stack built as E*I - H, two stacks at once"),
    Mutant(PKG + "scattering.py", "grid.n_points, grid.energies, solver",
           "grid.n_points, grid.energies().__getitem__, solver",
           "the sweep's chunks sliced from a full energy column"),
    # Fano fits
    Mutant(PKG + "fano.py", "MAX_ITERATIONS = 500", "MAX_ITERATIONS = 50",
           "Fano iteration cap 500 -> 50"),
    Mutant(PKG + "fano.py", "GRADIENT_TOL = 1e-10", "GRADIENT_TOL = 1e-6",
           "Fano gradient tolerance 1e-10 -> 1e-6"),
    Mutant(PKG + "fano.py", '    e_lo, e_hi = _fit_window(window, "fit window")',
           "    e_lo, e_hi = window", "fit_fano skips the window rule"),
    # CSV and CLI
    Mutant(PKG + "csvio.py", "_CSV_FORMAT_ROWS = 1024", "_CSV_FORMAT_ROWS = 7",
           "7-row CSV blocks: the block size changes no byte", equivalent=True),
    Mutant(PKG + "csvio.py", "        read(text)\n", "",
           "metadata writer skips the key's reader"),
    Mutant(PKG + "csvio.py", "name != key or ", "",
           "metadata writer allows a key that is not text"),
    Mutant(PKG + "csvio.py", "_split_meta(line) != (name, text) or ", "",
           "metadata writer allows '=' in a key or surrounding whitespace"),
    Mutant(PKG + "csvio.py", r'any(c in line for c in "\r\n")', "False",
           "metadata writer allows a line break"),
    Mutant(PKG + "csvio.py", 'if "," in label or "".join(label.splitlines()) != label:',
           "if False:", "Fano table label with a comma or a line break accepted"),
    Mutant(PKG + "csvio.py", "slice(start, start + _CSV_FORMAT_ROWS)",
           "slice(start, start + _CSV_FORMAT_ROWS + 1)",
           "each block of rows one row too long"),
    Mutant(PKG + "csvio.py", 'return count + (last != b"\\n")', "return count",
           "line count drops an unterminated last line"),
    Mutant(PKG + "csvio.py", "np.diff(energies, prepend=self.last)", "np.diff(energies)",
           "the reader's energy carry across blocks dropped"),
    Mutant(PKG + "csvio.py", 'if line != "\\n":', "if True:",
           "blank lines left to numpy, so a file with one goes to the line parser"),
    Mutant(PKG + "svgplot.py", "if b - a <= 4:", "if b - a <= 3:",
           "a pixel column of 4 points reduced to its first, lowest, highest and last"),
    Mutant(PKG + "svgplot.py", "// step) + 1", "// step)", "one tick too few"),
    Mutant(PKG + "svgplot.py", "    values = list(dict.fromkeys(values))\n", "",
           "ticks repeated where the step is below the float spacing"),
    Mutant(PKG + "svgplot.py", "decimals = max(0, -math.floor(math.log10(step) + 1e-9))",
           "decimals = max(0, -math.floor(math.log10(step) + 1e-9) - 1)",
           "tick labels one decimal short"),
    Mutant(PKG + "svgplot.py",
           'text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")',
           'text.replace("<", "&lt;").replace(">", "&gt;").replace("&", "&amp;")',
           "'&' escaped last, so '<' comes out as '&amp;lt;'"),
    Mutant(PKG + "svgplot.py", "import math\n", "import math\nimport xml.sax.saxutils\n",
           "svgplot imports the XML stack, and with it ssl and http"),
    Mutant(PKG + "cli.py", "        return 1\n", "        return 2\n",
           "CLI error exit 1 -> 2"),
    Mutant(PKG + "cli.py", "    if args.window and args.config:", "    if False:",
           "fano --window with --config accepted, --window ignored"),
    Mutant(PKG + "cli.py", "OSError, MemoryError)", "OSError)",
           "MemoryError left out of main's catch"),
    Mutant(PKG + "cli.py", "PresetDataError, OSError", "OSError",
           "PresetDataError left out of main's catch"),
    Mutant(PKG + "config.py", "            if key in obj:\n", "            if False:\n",
           "a repeated JSON key accepted, its last value kept"),
]


def _tier1(copy: Path) -> tuple[bool, str]:
    """(passed, summary) of tier-1 in copy, stopping at the first failure; the
    summary names the failed test, or is pytest's last line."""
    # the list check fails for every applied edit, so it cannot judge a mutant
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           "--deselect", CHECK_8, "--ignore", "tests/test_mutant_list.py"]
    try:
        proc = subprocess.run(cmd, cwd=copy, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False, f"timed out after {TIMEOUT_S} s"
    lines = proc.stdout.strip().splitlines()
    failed = [line for line in lines if line.startswith(("FAILED", "ERROR"))]
    return proc.returncode == 0, (failed or lines or [proc.stderr.strip()[-200:]])[-1]


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info", "results"))
        passed, summary = _tier1(copy)
        if not passed:
            print(f"unmutated tier-1 fails, so no mutant can be judged: {summary}")
            return 2
        missed = []
        for m in MUTANTS:
            path = copy / m.file
            original = path.read_text(encoding="utf-8")
            if original.count(m.old) != 1:
                print(f"error: {m.file}: old text of {m.reason!r} does not occur exactly once")
                return 2
            path.write_text(original.replace(m.old, m.new), encoding="utf-8")
            start = time.perf_counter()
            try:
                passed, summary = _tier1(copy)
            finally:
                path.write_text(original, encoding="utf-8")
            verdict = "survived" if passed else "killed"
            note = " (equivalent)" if m.equivalent else ""
            print(f"{verdict:8s} {m.file}: {m.reason}{note} "
                  f"[{time.perf_counter() - start:.0f} s; {summary}]", flush=True)
            if passed and not m.equivalent:
                missed.append(m)

    print(f"{len(MUTANTS) - len(missed)} of {len(MUTANTS)} mutants killed or equivalent; "
          f"{len(missed)} non-equivalent survived")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
