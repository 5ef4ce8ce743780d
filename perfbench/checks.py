"""Correctness checks on workload outputs.

Every check returns a list of failure messages; an empty list means the
output passed.  The bars are the ones the acceptance suite uses.
"""

from __future__ import annotations

import numpy as np

LAW_FIELDS = ("P", "Theta1", "Theta2", "xhat", "phi")
LAW_TOL = 1e-9
PHI_CROSS_TOL = 1e-6
LAMBDA_RTOL = 1e-9


def check_law(law: dict, reference) -> list[str]:
    """P, Theta1, Theta2, xhat and phi within LAW_TOL of the stored reference."""
    out = []
    for name in LAW_FIELDS:
        got, want = np.asarray(law[name]), np.asarray(reference[name])
        if got.shape != want.shape:
            out.append(f"law {name}: shape {got.shape} != reference {want.shape}")
            continue
        err = float(np.max(np.abs(got - want)))
        if not err <= LAW_TOL:
            out.append(f"law {name}: max deviation {err:.3e} from reference > {LAW_TOL:g}")
    return out


def check_diagnostics(diag: dict) -> list[str]:
    out = []
    cross = diag.get("phi_cross_max_err", float("nan"))
    if not cross <= PHI_CROSS_TOL:
        out.append(f"phi_cross_max_err {cross:.3e} > {PHI_CROSS_TOL:g}")
    if not diag.get("condition37", {}).get("holds", False):
        out.append(f"condition 37 does not hold: {diag.get('condition37')}")
    return out


def check_certify(statuses: dict, sup1, sup2, dominated: bool, reference) -> list[str]:
    """Convexity verdicts and Lyapunov sup norms equal the reference."""
    out = []
    want = dict(zip(reference["certify_names"].tolist(), reference["certify_status"].tolist()))
    if statuses != want:
        out.append(f"convexity verdicts {statuses} != reference {want}")
    for name, got, ref in (("sup1", sup1, reference["lambda_sup1"]),
                           ("sup2", sup2, reference["lambda_sup2"])):
        got = np.asarray(got, dtype=float)
        if got.shape != ref.shape or not np.allclose(got, ref, rtol=LAMBDA_RTOL, atol=0.0):
            out.append(f"lambda {name} {got.tolist()} != reference {ref.tolist()}")
    if not dominated:
        out.append("lambda kernels not dominated by the bound pair")
    return out


def check_gap_row(row) -> list[str]:
    """The oracle dominates up to Monte Carlo noise: gap >= -2 se."""
    N, _, _, gap, se = row
    if not gap >= -2.0 * se:
        return [f"N={N}: gap {gap:.4e} < -2 se ({-2.0 * se:.4e})"]
    return []


def check_digests(untraced: str, traced: str) -> list[str]:
    if untraced != traced:
        return [f"traced output digest {traced[:12]} != untraced {untraced[:12]}"]
    return []
