"""Correctness gate applied to every workload pass.

Every program operation and every check is one attempted operation; a
scenario entry with ok=False, an escaped PoleError, a non-zero CLI exit or a
failed check is one failed operation. Checks compare values within
tolerances, never file bytes, so a last-digit change in the solver's
arithmetic stays legal.
"""

from __future__ import annotations

import numpy as np

FLUX_TOL = 1e-10      # |1 - T - R - A_total| at every point
ORACLE_TOL = 1e-9     # |T_closed - T_direct| at the oracle points
REFERENCE_TOL = 1e-9  # |T - T_reference| at the recorded sample points
PRESET_DIPS = 7       # transmission dips of the FMO preset baseline
# A value printed with %.12e keeps 13 significant digits (relative error
# <= 5e-13). The tolerance leaves room for a last-digit change in the solver's
# arithmetic; the absolute floor covers values near zero.
CSV_REL_TOL = 1e-12
CSV_ABS_TOL = 1e-15


class Gate:
    """Counts attempted and failed operations and keeps the failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.oracle_residual = 0.0

    def check(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok

    def flux_balance(self, label, spec):
        residual = float(np.max(np.abs(1.0 - spec.T - spec.R - spec.A_total)))
        return self.check(f"{label}: flux balance", residual <= FLUX_TOL,
                          f"max |1 - T - R - A| = {residual:.3e}")

    def oracle(self, label, t_closed, t_direct):
        residual = float(np.max(np.abs(np.asarray(t_closed) - np.asarray(t_direct))))
        self.oracle_residual = max(self.oracle_residual, residual)
        return self.check(f"{label}: closed form vs direct", residual <= ORACLE_TOL,
                          f"max |T_closed - T_direct| = {residual:.3e}")

    def dips(self, label, count):
        return self.check(f"{label}: dip count", count == PRESET_DIPS,
                          f"{count} dips, expected {PRESET_DIPS}")

    def reference(self, label, extrema_delta, T_samples, ref):
        self.check(f"{label}: extrema_delta", extrema_delta == ref["extrema_delta"],
                   f"{extrema_delta} vs reference {ref['extrema_delta']}")
        dev = float(np.max(np.abs(np.asarray(T_samples) - np.asarray(ref["T"]))))
        return self.check(f"{label}: T vs reference", dev <= REFERENCE_TOL,
                          f"max |T - T_ref| = {dev:.3e}")

    def csv_round_trip(self, label, read_back, solution, energy):
        """Values read from the CSV equal the solver's values to %.12e precision."""
        flux = solution.flux
        written = np.array([energy, flux.transmitted, flux.reflected, flux.absorbed_total,
                            flux.absorbed_per_channel["sink"],
                            flux.absorbed_per_channel["dephasing"],
                            flux.absorbed_per_channel["ohmic"]])
        got = np.asarray(read_back, dtype=float)
        excess = np.abs(got - written) - (CSV_REL_TOL * np.abs(written) + CSV_ABS_TOL)
        worst = int(np.argmax(excess))
        return self.check(f"{label}: CSV round trip", excess[worst] <= 0.0,
                          f"column {worst} read {got[worst]!r}, solver gave "
                          f"{written[worst]!r} at E = {energy!r}")


def csv_row(spec, i):
    """Row i of a spectrum in CSV column order: E, T, R, A_total, sink, dephasing, ohmic."""
    ch = spec.A_channels
    return [spec.energies[i], spec.T[i], spec.R[i], spec.A_total[i],
            ch["sink"][i], ch["dephasing"][i], ch["ohmic"][i]]
