"""Low-dimensional sufficient criteria for convexity of the social cost.

The social objective is a quadratic functional of the stacked control; for
large populations its convexity cannot be checked head-on, but three
low-dimensional certificates cover the practical cases:

* all weights positive semidefinite (uniformly convex when R is strictly
  positive);
* decoupled dynamics (F = Ftilde = 0) with indefinite weights, reduced to a
  single-agent problem with shifted weights whose own Riccati solvability
  certifies uniform convexity;
* coupled dynamics with indefinite running weight, handled through a
  Gronwall growth constant: K e^{2KT} lam_min(Q - dQ) + lam_min(R)/2 >= 0.

Every check returns a verdict; "not verified" never asserts non-convexity,
the criteria are sufficient only.  :func:`report_all` alone picks the coupled
or the decoupled certificate, with or without the weight shifts dQ and dG;
the gap study and ``mflqg convexity`` take their verdicts from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, CouplingPresentError, NonFiniteError, RegularityLostError
from .model import ModelParams, mean_weight
from .ode import eig_min, eigvals_sym, symmetrize
from .riccati import solve_P

UNIFORM_TOL = 1e-10

CONVEX = "Convex"
UNIFORMLY_CONVEX = "UniformlyConvex"
NOT_VERIFIED = "NotVerified"


@dataclass
class ConvexityVerdict:
    status: str
    criterion: str
    witness: dict = field(default_factory=dict)

    @property
    def is_uniformly_convex(self) -> bool:
        return self.status == UNIFORMLY_CONVEX


def check_psd_case(params: ModelParams) -> ConvexityVerdict:
    """Semidefinite-weight certificate: Q, R, G >= 0 gives convexity, and
    additionally R strictly positive definite gives uniform convexity."""
    lam_q = eig_min(params.node_table("Q"))
    lam_r = eig_min(params.node_table("R"))
    lam_g = eig_min(params.G)
    witness = {"lambda_min_Q": lam_q, "lambda_min_R": lam_r, "lambda_min_G": lam_g}
    for name, lam in (("Q", lam_q), ("R", lam_r), ("G", lam_g)):
        if lam < -UNIFORM_TOL:
            witness["failed"] = f"{name} >= 0"
            return ConvexityVerdict(NOT_VERIFIED, "psd-weights", witness)
    if lam_r > UNIFORM_TOL:
        witness["margin"] = lam_r
        return ConvexityVerdict(UNIFORMLY_CONVEX, "psd-weights", witness)
    return ConvexityVerdict(CONVEX, "psd-weights", witness)


def is_coupled(params: ModelParams) -> bool:
    """Whether the population average enters the dynamics: F or Ftilde is
    nonzero at some node."""
    return any(np.max(np.abs(params.node_table(k))) > 0 for k in ("F", "Ftilde"))


def _shift(delta, tight: np.ndarray, name: str) -> np.ndarray:
    """The weight shift ``delta``, or the tightest one when it is None.

    ``tight`` is Q - Qhat per node or the constant G - Ghat; a per-node shift
    may also be one constant n x n matrix.  Any other shape, or a NaN or
    infinite entry, raises ConfigError.
    """
    if delta is None:
        return tight
    arr = np.asarray(delta, dtype=float)
    shapes = sorted({tight.shape, tight.shape[-2:]}, key=len)
    if arr.shape not in shapes:
        raise ConfigError(f"{name}: expected shape {' or '.join(map(str, shapes))}, "
                          f"got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ConfigError(f"{name}: entries must be finite")
    return np.broadcast_to(arr, tight.shape)


def _first_failed(witness: dict, hypotheses) -> bool:
    """Judge the hypotheses "M >= 0" in order, each a triple (statement,
    witness key, M): record lambda_min(M) under its key, and at the first
    below -UNIFORM_TOL name its statement as witness["failed"] and stop.
    Whether one failed."""
    for failed, key, M in hypotheses:
        witness[key] = eig_min(M)
        if witness[key] < -UNIFORM_TOL:
            witness["failed"] = failed
            return True
    return False


def check_decoupled_indefinite(params: ModelParams, dQ=None, dG=None) -> ConvexityVerdict:
    """Indefinite-weight certificate for decoupled dynamics (F = Ftilde = 0).

    Requires Q - Qhat >= 0, G - Ghat >= 0 and shifts dQ >= Q - Qhat,
    dG >= G - Ghat (defaults: the tightest choice, dQ = Q - Qhat and
    dG = G - Ghat).  Uniform convexity of the shifted single-agent problem is
    certified by integrating its Riccati equation with weights
    (Q - dQ, R, G - dG) and watching R + D'PD stay strictly positive;
    solve_P reads no coefficient but A, B, C, D, Q, R and G.
    """
    if is_coupled(params):
        raise CouplingPresentError("this certificate requires F = Ftilde = 0")
    Qt = params.node_table("Q")
    q_tight = Qt - mean_weight(Qt, params.node_table("Gamma"))
    g_tight = params.G - mean_weight(params.G, params.GammaBar)
    dQt, dGm = _shift(dQ, q_tight, "dQ"), _shift(dG, g_tight, "dG")
    witness = {}
    if _first_failed(witness, (("Q - Qhat >= 0", "lambda_min_Q_minus_Qhat", q_tight),
                               ("G - Ghat >= 0", "lambda_min_G_minus_Ghat", g_tight),
                               ("dQ >= Q - Qhat", "lambda_min_dQ_gap", dQt - q_tight),
                               ("dG >= G - Ghat", "lambda_min_dG_gap", dGm - g_tight))):
        return ConvexityVerdict(NOT_VERIFIED, "decoupled-indefinite", witness)

    shifted = replace(params, Q=Qt - dQt, G=symmetrize(params.G - dGm))
    try:
        _, margin = solve_P(shifted)
    except (NonFiniteError, RegularityLostError) as exc:
        witness["riccati"] = f"failed: {exc}"
        witness["failed"] = "shifted Riccati regular on [0, T]"
        return ConvexityVerdict(NOT_VERIFIED, "decoupled-indefinite", witness)
    witness["margin"] = margin
    return ConvexityVerdict(UNIFORMLY_CONVEX, "decoupled-indefinite", witness)


def growth_constant(params: ModelParams) -> float:
    """Gronwall growth constant of the stacked second moment.

    K = max of: lam_max(A' + A) + lam_max(F' + F);
                lam_max(C'C + (Ftilde + C)'(Ftilde + C));
                sqrt(lam_max(B'B));
                sqrt(lam_max(D'(Ftilde Ftilde' + C Ftilde' + Ftilde C')D)
                     + lam_max(D'C C'D));
                lam_max(D'D).
    Time-varying coefficients take the max over grid nodes; every term is
    formed on all nodes at once.
    """
    A, B, C, D, F, Ft = (params.node_table(k) for k in ("A", "B", "C", "D", "F", "Ftilde"))

    def T(X):
        return X.swapaxes(-1, -2)

    def lam_max(S):
        return eigvals_sym(S)[:, -1]

    terms = (
        lam_max(T(A) + A) + lam_max(T(F) + F),
        lam_max(T(C) @ C + T(Ft + C) @ (Ft + C)),
        np.sqrt(np.maximum(lam_max(T(B) @ B), 0.0)),
        np.sqrt(np.maximum(lam_max(T(D) @ (Ft @ T(Ft) + C @ T(Ft) + Ft @ T(C)) @ D), 0.0)
                + np.maximum(lam_max(T(D) @ (C @ T(C)) @ D), 0.0)),
        lam_max(T(D) @ D),
    )
    return float(max(0.0, *(term.max() for term in terms)))


def check_coupled_indefinite(params: ModelParams, dQ=None) -> ConvexityVerdict:
    """Indefinite-running-weight certificate for coupled dynamics.

    Hypotheses checked in order: G >= 0; Q - Qhat >= 0; dQ >= Q - Qhat;
    lam_min(Q - dQ) <= 0.  Then with K the growth constant the certificate is

        K e^{2KT} lam_min(Q - dQ) + lam_min(R)/2 >= 0   (convex;
        uniformly convex when strictly positive).
    """
    Qt = params.node_table("Q")
    q_tight = Qt - mean_weight(Qt, params.node_table("Gamma"))
    dQt = _shift(dQ, q_tight, "dQ")
    witness = {}
    if _first_failed(witness, (("G >= 0", "lambda_min_G", params.G),
                               ("Q - Qhat >= 0", "lambda_min_Q_minus_Qhat", q_tight),
                               ("dQ >= Q - Qhat", "lambda_min_dQ_gap", dQt - q_tight))):
        return ConvexityVerdict(NOT_VERIFIED, "coupled-indefinite", witness)
    lam_qd = eig_min(Qt - dQt)
    witness["lambda_min_Q_minus_dQ"] = lam_qd
    if lam_qd > UNIFORM_TOL:
        witness["failed"] = "lam_min(Q - dQ) <= 0"
        return ConvexityVerdict(NOT_VERIFIED, "coupled-indefinite", witness)
    K = growth_constant(params)
    lam_r = eig_min(params.node_table("R"))
    with np.errstate(over="ignore"):   # lam_qd >= 0 adds 0, also where e^{2KT} overflows
        lhs = (K * np.exp(2.0 * K * params.T) * lam_qd if lam_qd < 0.0 else 0.0) + 0.5 * lam_r
    witness.update({"K": K, "lambda_min_R": lam_r, "lhs": float(lhs)})
    if lhs > UNIFORM_TOL:
        witness["margin"] = float(lhs)
        return ConvexityVerdict(UNIFORMLY_CONVEX, "coupled-indefinite", witness)
    if lhs >= 0.0:
        return ConvexityVerdict(CONVEX, "coupled-indefinite", witness)
    witness["failed"] = "K e^{2KT} lam_min(Q - dQ) + lam_min(R)/2 >= 0"
    return ConvexityVerdict(NOT_VERIFIED, "coupled-indefinite", witness)


def report_all(params: ModelParams, dQ=None, dG=None) -> dict:
    """The psd verdict, which no shift changes, and the coupled or the
    decoupled indefinite verdict under the shifts dQ and dG (the tightest
    ones when None).  The coupled certificate takes no dG: ConfigError."""
    out = {"psd": check_psd_case(params)}
    if not is_coupled(params):
        out["decoupled_indefinite"] = check_decoupled_indefinite(params, dQ, dG)
    elif dG is not None:
        raise ConfigError("dG: the coupled certificate takes no dG shift")
    else:
        out["coupled_indefinite"] = check_coupled_indefinite(params, dQ)
    return out
