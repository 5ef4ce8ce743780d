"""Backward Riccati solves and feedback-law synthesis.

Two layers live here:

* the n-dimensional auxiliary problem behind the decentralized law: the
  symmetric Riccati equation for P with the multiplicative-noise correction
  C'PC and gain denominators R + D'PD, the affine adjoint phi driven by the
  mean-field trajectories, and the node-wise gains Theta1, Theta2;

* the nN-dimensional brute-force oracle for small populations: the
  multi-noise Riccati for the stacked system plus its affine adjoint.  Agent
  i's noise drives only block row i of the stacked diffusion matrices C and
  D, so each sum over the N noises is one product through bd(P), the agent
  blocks of P: sum_i Ci'P Ci = C' bd(P) C.  The agents are exchangeable, so
  the stacked equation is solved, and its law held, as two n x n modes,
  deviation and mean, at a cost that does not depend on N.  The oracle's
  affine term is validated at runtime by a pathwise stationarity test, on
  derivative and curvature, under common random numbers (the law and its
  tangents along perturbed affines run as planes of one Monte Carlo pass
  over one noise bank), so a bookkeeping mistake cannot silently corrupt
  the optimality-gap experiments.

Regularity (R + D'PD strictly positive definite along the whole horizon) is
always measured and enforced, at every node and at every RK4 stage of the
sweep, by one rule (:func:`_regularity_margin`); the decentralized law is
meaningless without it.

R + D'PD and B'P + D'PC are formed as values by one kernel,
:func:`gain_terms`, which broadcasts over time axes: the margin
(ode.eig_min_at) and the gains Theta1, Theta2 take it on all nodes at once,
and the phi sweep on the RK4 stage times of a chunk of steps.  P is a
nonlinear Riccati equation and steps stage by stage in its own RK4 loop
(:func:`_riccati_sweep`, on the chunks of ode.sweep_chunks), but
everything in its right-hand side except the gain solve is linear in P: on
y = (vec P, 1) it is one operator product per stage (:func:`p_operator`,
the linear maps of those terms by the Kronecker rule ode.kron_vec), built
for each chunk of stage times from the coefficients' node tables, as every
sweep reads them.  That product is a stage's one numpy call; y, the gain
and the RK4 update are Python floats.  phi is linear and is an
ode.integrate_linear sweep.
The oracle's two modes step as P does, on y = (vec P_dev, vec P_mean, 1)
with one product and one m x m gain per stage (:func:`_riccati_sweep`), and
its adjoint is the mean mode's linear one.  Its node-wise margin, mode gains
and affine are one batched pass over the nodes, bit-identical to a loop over
them.  The auxiliary problem is always solved on the master grid of the
model; the oracle may take another grid, on which model's grid rule decides
whether its coefficients can be read.  Whether a driving trajectory lies on
P's grid, and a law's fields on the law's, is ode.check_grid's one rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import RegularityLostError, StationarityError
from .model import TIME_VARYING, AugmentedCoeffs, ModelParams, mean_offset, mean_weight
from .ode import (
    TimeGrid,
    Trajectory,
    check_boundary,
    check_grid,
    check_nodes,
    eig_min_at,
    integrate_linear,
    kron_vec,
    matvec,
    quadrature,
    stage_samples,
    sweep_chunks,
    symmetrize,
)

REGULARITY_TOL = 1e-10


def _regularity_margin(S: np.ndarray, grid: TimeGrid, what: str,
                       stage: tuple[float, float]) -> float:
    """ode.eig_min_at of the node-wise gain denominators S; unless it is
    above REGULARITY_TOL, RegularityLostError names ``what`` and the node
    where it is smallest.  Then the sweep's smallest stage value and its
    time, ``stage`` = (value, t), are judged by the same rule, so a sweep
    that stepped over a pole between two nodes is refused too."""
    margin, k = eig_min_at(S)
    if not margin > REGULARITY_TOL:
        raise RegularityLostError(f"{what} {margin:.3e} <= {REGULARITY_TOL} at node {k} "
                                  f"(t = {grid.nodes[k]:.6g})")
    low, t = stage
    if not low > REGULARITY_TOL:
        raise RegularityLostError(f"{what} {low:.3e} <= {REGULARITY_TOL} at an RK4 stage "
                                  f"(t = {t:.6g})")
    return margin


class PTrajectory(Trajectory):
    """P at every node, with the smallest lambda_min(R + D'PD) its sweep met
    at an RK4 stage (``stage_margin``) and that stage's time (``stage_t``)."""

    def __init__(self, grid: TimeGrid, values: np.ndarray, stage_margin: float, stage_t: float):
        super().__init__(grid, values)
        self.stage_margin = stage_margin
        self.stage_t = stage_t


def gain_terms(P: np.ndarray, B, C, D, R, Pd=None) -> tuple[np.ndarray, np.ndarray]:
    """The gain denominator S = R + D'Pd D and numerator B'P + D'Pd C, with
    the noise-side matrix Pd = P by default (bd(P) for the oracle).

    Works on one matrix P or on a stack of them along leading (time) axes, the
    coefficients broadcasting against it; every regularity measure and gain
    of the auxiliary problem and of the oracle is formed here.
    """
    DtP = D.swapaxes(-1, -2) @ (P if Pd is None else Pd)
    return R + DtP @ D, B.swapaxes(-1, -2) @ P + DtP @ C


def node_gain_terms(P: Trajectory, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """:func:`gain_terms` at every node of P, which lives on the master grid."""
    return gain_terms(P.values, *(params.node_table(k) for k in ("B", "C", "D", "R")))


def node_solve(S: np.ndarray, rhs: np.ndarray, nodes=None) -> np.ndarray:
    """Solve S[k] x[k] = rhs[k] over the leading axes of S; a singular S[k]
    is named by its node, ``nodes[k]`` (by default its index k along a single
    leading axis; a half-integer names the midpoint between two nodes)."""
    try:
        return np.linalg.solve(S, rhs)
    except np.linalg.LinAlgError as exc:
        # slogdet factors the same matrices by the same LU; sign 0 is a zero pivot
        singular = np.flatnonzero(np.linalg.slogdet(S)[0] == 0)
        if not singular.size:
            raise
        k = singular[0]
        label = k if nodes is None else np.ravel(nodes)[k]
        raise RegularityLostError(f"R + D'PD singular at node {label:g}") from exc


def p_operator(A, B, C, D, Q, R) -> np.ndarray:
    """The P right-hand side as one linear map of y = (vec P, 1), row-major vec.

    Its rows give, in order: the linear part -(PA + A'P + C'PC + Q) (n^2
    rows), a zero row that keeps the trailing 1, R + D'PD (m^2 rows) and
    B'P + D'PC (mn rows).  By vec(XPY) = (X (x) Y') vec P
    (:func:`ode.kron_vec`), their first n^2 columns are
    (-(I (x) A' + A' (x) I + C' (x) C'), D' (x) D', B' (x) I + D' (x) C'),
    and the last column holds the offsets -vec Q and vec R.  The
    coefficients share any leading (time) axes, which the map carries in
    front of its (n^2 + 1 + m^2 + mn, n^2 + 1) matrix.
    """
    n, m = B.shape[-2:]
    lead = A.shape[:-2]
    eye = np.eye(n)
    At, Bt, Ct, Dt = (X.swapaxes(-1, -2) for X in (A, B, C, D))
    maps = [-(kron_vec(eye, A) + kron_vec(At, eye) + kron_vec(Ct, C)),
            np.zeros(lead + (1, n * n)), kron_vec(Dt, D), kron_vec(Bt, eye) + kron_vec(Dt, C)]
    offsets = [-Q, np.zeros(lead + (1, 1)), R, np.zeros(lead + (m * n, 1))]
    return np.concatenate([np.concatenate(maps, axis=-2),
                           np.concatenate([X.reshape(lead + (-1, 1)) for X in offsets],
                                          axis=-2)], axis=-1)


def _riccati_sweep(params: ModelParams, grid: TimeGrid, operator, names, terminals,
                   what: str) -> tuple[np.ndarray, tuple[float, float]]:
    """Backward RK4 sweep of k Riccati equations that share one gain
    denominator S, on y = (vec P_1, ..., vec P_k, 1), P_i(T) = terminals[i].

    ``operator(*coefficients)`` gives their right-hand side as one linear map
    of y, in :func:`p_operator`'s row layout with k linear parts and k
    numerators; it is built for each chunk of stage times (ode.sweep_chunks)
    from the ode.stage_samples of the node tables of ``names``.  A stage is
    one product z = ops y, gain_i = S^{-1} num_i over the k numerators, and
    dP_i/dt = z_i + num_i' gain_i.  y and z are lists of Python floats: the
    product is the stage's one numpy call, and for m <= 2 the gain, formed in
    closed form from S's entries (num_i / s or adj(S) num_i / det S), the
    RK4 update and the re-symmetrization of each P_i after every step are
    float arithmetic, because numpy calls on so small a state cost mostly
    their overhead.  m >= 3 solves by LAPACK.  An exactly singular S (s or
    det S = 0.0, or a zero pivot of the solve) raises RegularityLostError
    naming ``what`` and the stage time.  Blow-up is checked as
    ode.integrate_rk4 checks it: the boundary value, then each chunk's
    stepped nodes, also those before a stage that raised.  Every stage's S
    is kept, and once the sweep is done one ode.eig_min_at call gives the
    smallest lambda_min(S) over the stages and the stage that holds it; the
    sweep does not judge it, its caller does (:func:`_regularity_margin`).
    Returns the (steps + 1, k, n, n) nodes and (the smallest stage value,
    its time).
    """
    k, n, m = len(terminals), params.n, params.m
    kn2, m2, mn = k * n * n, m * m, m * n
    at = kn2 + 1 + m2    # z = (the k linear parts, the zero row, S, the k numerators)
    # entry (a, b) of num_i' gain_i pairs column a of num_i with column b of
    # gain_i, the columns of the k numerators counted in a row
    pairs = [(i * n + a, i * n + b) for i in range(k) for a in range(n) for b in range(n)]
    # at m = 2, where each column's two entries sit in z
    cols = [(at + i * mn + c, at + i * mn + n + c) for i in range(k) for c in range(n)]

    stage_t, stage_S = [], []    # every stage's time, and its S's entries in a row

    def singular(t):
        return RegularityLostError(f"{what} singular at t={t:.6g}")

    def rhs(t, ops, y):
        z = ops.dot(y).tolist()
        stage_t.append(t)
        stage_S.extend(z[kn2 + 1:at])
        # S is shared by the k numerators; corr is the vec of each num_i' gain_i
        if m == 1:
            s = z[kn2 + 1]
            if s == 0.0:
                raise singular(t)
            num = z[at:]
            gain = [x / s for x in num]
            corr = [num[p] * gain[q] for p, q in pairs]
        elif m == 2:
            a, b, c, d = z[kn2 + 1:at]
            det = a * d - b * c
            if det == 0.0:
                raise singular(t)
            i0, i1, i2, i3 = d / det, -b / det, -c / det, a / det
            num = [(z[p], z[q]) for p, q in cols]
            gain = [(i0 * x + i1 * w, i2 * x + i3 * w) for x, w in num]   # adj(S) num / det S
            corr = [num[p][0] * gain[q][0] + num[p][1] * gain[q][1] for p, q in pairs]
        else:
            num = np.reshape(z[at:], (k, m, n))
            try:
                gain = np.linalg.solve(np.reshape(z[kn2 + 1:at], (m, m)), num)
            except np.linalg.LinAlgError as exc:
                raise singular(t) from exc
            corr = (num.transpose(0, 2, 1) @ gain).ravel().tolist()
        # dP_i/dt = z_i + num_i' gain_i; the zero row keeps the trailing 1
        return [x + w for x, w in zip(z, corr)] + [z[kn2]]

    # symmetrize on the vec: entry (i, j) of each P_i meets entry (j, i), the 1 itself
    swap = np.arange(kn2).reshape(k, n, n).swapaxes(1, 2).ravel().tolist() + [kn2]
    y0 = np.append(symmetrize(np.stack(terminals)).ravel(), 1.0)
    check_boundary(y0)
    h, chunks = sweep_chunks(grid, "backward")
    half, sixth = 0.5 * h, h / 6.0
    out = np.empty((grid.steps + 1, kn2 + 1))
    out[grid.steps] = y0
    y = y0.tolist()
    for ks, ts in chunks:
        ops = operator(*(stage_samples(params.node_table(name, grid), ts) for name in names))
        stages = list(zip(ts.tolist(), ops))
        stepped = []
        try:
            with np.errstate(all="ignore"):
                for s1, s2, s4 in zip(stages[:-1:2], stages[1::2], stages[2::2]):
                    k1 = rhs(*s1, y)
                    k2 = rhs(*s2, [x + half * w for x, w in zip(y, k1)])
                    k3 = rhs(*s2, [x + half * w for x, w in zip(y, k2)])
                    k4 = rhs(*s4, [x + h * w for x, w in zip(y, k3)])
                    y = [x + sixth * (w1 + 2.0 * w2 + 2.0 * w3 + w4)
                         for x, w1, w2, w3, w4 in zip(y, k1, k2, k3, k4)]
                    y = [0.5 * (x + y[j]) for x, j in zip(y, swap)]
                    stepped.append(y)
        finally:    # the nodes stepped, also before a stage that raised
            ends = ks[:len(stepped)] - 1
            if stepped:
                out[ends] = stepped
            check_nodes(out, ends)
    low, j = eig_min_at(np.reshape(stage_S, (-1, m, m)))
    return np.ascontiguousarray(out[:, :kn2]).reshape(-1, k, n, n), (low, stage_t[j])


def solve_P(params: ModelParams) -> tuple[PTrajectory, float]:
    """Backward solve of the regular Riccati equation for P, P(T) = G, on the
    master grid.

    dP/dt = -[PA + A'P + C'PC + Q - (PB + C'PD)(R + D'PD)^{-1}(B'P + D'PC)]

    A stage is one product z = ops y of the :func:`p_operator` map with
    y = (vec P, 1), one m x m gain = S^{-1} num with S and num read off z
    (in closed form for m <= 2), and dP/dt = z_lin + num' gain
    (:func:`_riccati_sweep`, with k = 1).
    The map is built for each chunk of stage times (ode.sweep_chunks), from
    the coefficients' node tables, constant or not.  The product costs
    O(n^4) flops per stage against O(n^3) for the matrix form; at the small
    n solved here a stage costs its one numpy call, the product, and float
    arithmetic on the n^2 + 1 entries of y, against about thirty numpy calls
    for the matrix form.

    P is re-symmetrized after every step.  Returns (P, margin) where margin is
    the minimal node-wise lambda_min(R + D'PD), and P carries the smallest
    one at an RK4 stage and its time; RegularityLostError if either falls
    to the tolerance or R + D'PD is singular at a stage, NonFiniteError on
    blow-up.
    """
    grid = params.grid()
    values, stage = _riccati_sweep(params, grid, p_operator, ("A", "B", "C", "D", "Q", "R"),
                                   [params.G], "R + D'PD")
    P = PTrajectory(grid, values[:, 0], *stage)
    return P, _regularity_margin(node_gain_terms(P, params)[0], grid, "regularity margin", stage)


def theta1(P: Trajectory, params: ModelParams) -> Trajectory:
    """State-feedback gain Theta1 = -(R + D'PD)^{-1}(B'P + D'PC), node-wise."""
    S, num = node_gain_terms(P, params)
    return Trajectory(P.grid, -node_solve(S, num))


def solve_phi(P: Trajectory, params: ModelParams, xhat: Trajectory,
              yhat1: Trajectory, yhat2: Trajectory, betahat1: Trajectory) -> Trajectory:
    """Backward affine adjoint driven by the mean-field trajectories.

    dphi/dt = -(A + B Theta1)' phi
              + [(PB + C'PD)(R + D'PD)^{-1} D' - C'] P Ftilde xhat
              - P F xhat - q1(t)

    with q1 = -Q(Gamma xhat + eta) - Gamma'Q[(I - Gamma) xhat - eta]
              + F' yhat2 + F' yhat1 + Ftilde' betahat1
    and phi(T) = -G(GammaBar xhat(T) + etaBar)
                 - GammaBar'G[(I - GammaBar) xhat(T) - etaBar].

    R + D'PD is solved at every RK4 stage time; if it is singular there, the
    stage is named by its node (a half-integer at a step's midpoint).
    """
    grid = P.grid
    check_grid(grid, "P", {"xhat": xhat, "yhat1": yhat1, "yhat2": yhat2, "betahat1": betahat1})
    n = params.n
    eye = np.eye(n)
    names = ("A", "B", "C", "D", "R", "F", "Ftilde", "Q", "Gamma", "eta")
    fields = np.stack([xhat.values, yhat1.values, yhat2.values, betahat1.values], axis=1)

    def T(X):
        return X.swapaxes(-1, -2)

    def coeffs(ts):
        A, B, C, D, R, F, Ft, Q, Gamma, eta = (stage_samples(params.node_table(k), ts)
                                               for k in names)
        Pt = stage_samples(P.values, ts)
        xh, y1, y2, b1 = np.moveaxis(stage_samples(fields, ts), -2, 0)
        S, num = gain_terms(Pt, B, C, D, R)
        W = T(num)                            # PB + C'PD, P symmetric
        PFx = matvec(Pt, matvec(Ft, xh))
        # S^{-1} [B', D'P Ftilde xhat], each stage time named by its (half-)node
        rhs = np.concatenate([np.broadcast_to(T(B), ts.shape + (params.m, n)),
                              matvec(T(D), PFx)[..., None]], axis=-1)
        gain = node_solve(S, rhs, nodes=np.round(2.0 * ts / grid.dt) / 2.0)
        drive = (matvec(W, gain[..., n]) - matvec(T(C), PFx)) - matvec(Pt, matvec(F, xh))
        q1 = (-matvec(Q, matvec(Gamma, xh) + eta)
              - matvec(T(Gamma), matvec(Q, matvec(eye - Gamma, xh) - eta))
              + matvec(T(F), y2) + matvec(T(F), y1) + matvec(T(Ft), b1))
        # dphi/dt = -(A - B S^{-1} W')' phi + drive - q1
        return W @ gain[..., :n] - T(A), drive - q1

    xT = xhat.terminal
    G, Gb, eb = params.G, params.GammaBar, params.etaBar
    q2 = -G @ (Gb @ xT + eb) - Gb.T @ (G @ ((eye - Gb) @ xT - eb))
    return integrate_linear(coeffs, q2, grid, "backward")


def theta2(P: Trajectory, phi: Trajectory, xhat: Trajectory, params: ModelParams) -> Trajectory:
    """Affine gain Theta2 = -(R + D'PD)^{-1}(B'phi + D'P Ftilde xhat), node-wise."""
    check_grid(P.grid, "P", {"phi": phi, "xhat": xhat})
    S, _ = node_gain_terms(P, params)
    Dt = params.node_table("D").swapaxes(-1, -2)
    Bt = params.node_table("B").swapaxes(-1, -2)
    PFx = P.values @ (params.node_table("Ftilde") @ xhat.values[..., None])
    rhs = Bt @ phi.values[..., None] + Dt @ PFx
    return Trajectory(P.grid, -node_solve(S, rhs)[..., 0])


@dataclass
class FeedbackLaw:
    """Decentralized law u_i = Theta1 x_i + Theta2 with its backing P, phi,
    every one sampled on ``grid`` (GridMismatchError names the field), whose
    margin and P symmetry it alone admits (RegularityLostError, likewise)."""

    grid: TimeGrid
    P: Trajectory
    phi: Trajectory
    Theta1: Trajectory
    Theta2: Trajectory
    regularity_margin: float

    def __post_init__(self):
        check_grid(self.grid, "the law", {f"law field {name!r}": getattr(self, name)
                                          for name in ("P", "phi", "Theta1", "Theta2")})
        if not (np.isfinite(self.regularity_margin) and self.regularity_margin > REGULARITY_TOL):
            raise RegularityLostError(f"law field 'regularity_margin': {self.regularity_margin:.3e}"
                                      f" is not a finite number above {REGULARITY_TOL}")
        # absolute on purpose: ode.asymmetry's rule, relative to |P|, would loosen it
        asym = np.max(np.abs(self.P.values - np.swapaxes(self.P.values, -1, -2)))
        if asym > 1e-9:
            raise RegularityLostError(f"law field 'P': asymmetry {asym:.3e} exceeds 1e-9")


# ---------------------------------------------------------------------------
# Brute-force centralized oracle (small N only)
# ---------------------------------------------------------------------------

@dataclass
class OracleLaw:
    """Centralized law u = gain x + affine of N exchangeable agents as its
    modes: gain = I (x) K_dev + 11'/N (x) (K_mean - K_dev), P likewise, and
    affine and phi the same in every agent block.  No table grows with N.
    Its trajectories are admitted as :class:`FeedbackLaw`'s are."""

    grid: TimeGrid
    N: int
    P_dev: Trajectory    # (n, n)
    P_mean: Trajectory   # (n, n)
    phi: Trajectory      # (n,), the mean mode's adjoint
    K_dev: Trajectory    # (m, n)
    K_mean: Trajectory   # (m, n)
    affine: Trajectory   # (m,), every agent's
    regularity_margin: float  # the smallest lambda_min(R + D'bd(P)D) at a node,
    stage_margin: float       # at an RK4 stage of the sweep,
    stage_t: float            # and that stage's time
    validation: dict = field(default_factory=dict)

    def __post_init__(self):
        check_grid(self.grid, "the law", {f"law field {name!r}": getattr(self, name) for name in
                                          ("P_dev", "P_mean", "phi", "K_dev", "K_mean", "affine")})


def oracle_operator(N: int, A, B, C, D, F, Ftilde, Q, R, Gamma) -> np.ndarray:
    """The oracle's P right-hand side on its two exchangeable modes, as one
    map of y = (vec P_dev, vec P_mean, 1) for :func:`_riccati_sweep`.

    The deviation mode has drift A, noise C and weight Q; the mean mode has
    A + F, C + Ftilde and Qhat = (Gamma - I)'Q(Gamma - I).  Each mode's rows
    are :func:`p_operator`'s, the drift and weight pieces applied to the
    mode's own P and the noise pieces to the agent block P_d = P_dev +
    (P_mean - P_dev)/N, so both share the denominator R + D'P_d D.  At N = 1
    no deviation mode exists: the map is p_operator's for the mean mode alone.
    """
    n, m = B.shape[-2:]
    n2, m2 = n * n, m * m
    mean = (A + F, C + Ftilde, mean_weight(Q, Gamma))
    if N == 1:
        return p_operator(mean[0], B, mean[1], D, mean[2], R)
    zero = np.zeros_like
    rows = []
    for i, (Ai, Ci, Qi) in enumerate(((A, C, Q), mean)):
        drift = p_operator(Ai, B, zero(Ci), zero(D), Qi, R)
        noise = p_operator(zero(Ai), zero(B), Ci, D, zero(Qi), zero(R))
        cols = [w * noise[..., :n2] for w in (1.0 - 1.0 / N, 1.0 / N)]
        cols[i] = cols[i] + drift[..., :n2]
        rows.append(np.concatenate(cols + [drift[..., n2:]], axis=-1))
    # both linear parts, the zero row and the shared S, both numerators
    return np.concatenate([rows[0][..., :n2, :], rows[1][..., :n2, :],
                           rows[0][..., n2:n2 + 1 + m2, :],
                           rows[0][..., n2 + 1 + m2:, :], rows[1][..., n2 + 1 + m2:, :]],
                          axis=-2)


def solve_oracle(aug: AugmentedCoeffs, grid: TimeGrid | None = None, *, validate: bool = True,
                 validation_paths: int = 2048, validation_seed: int = 424242,
                 fd_tol: float = 1e-2) -> OracleLaw:
    """Solve the stacked problem's multi-noise Riccati and affine adjoint on
    its two exchangeable modes.

    With bd(P) the block diagonal of P (its n x n agent blocks), the noise
    sums are sum_i Ci'P Ci = C' bd(P) C, sum_i Di'P Di = D' bd(P) D and
    sum_i Di'P Ci = D' bd(P) C for the stacked diffusion matrices C and D:

    dP/dt = -[PA + A'P + C' bd(P) C + Q
              - (PB + C' bd(P) D)(R + D' bd(P) D)^{-1}(PB + C' bd(P) D)'],
    P(T) = G;   dphi/dt = -(A + B gain)' phi - S1,  phi(T) = S2,

    with gain = -(R + D' bd(P) D)^{-1}(B'P + D' bd(P) C) and control
    u = gain x - (R + D' bd(P) D)^{-1} B' phi.

    The agents are exchangeable, so P = I (x) P_dev + 11'/N (x) (P_mean -
    P_dev) and gain = I (x) K_dev + 11'/N (x) (K_mean - K_dev): the stacked
    equation is two n x n modes coupled only through the agent block P_d
    (:func:`oracle_operator`), swept as :func:`solve_P` sweeps P at a cost per
    stage that does not depend on N.  S1 and S2 repeat one block s1, s2, so
    phi repeats the mean mode's adjoint dphi_a/dt = -(A + F + B K_mean)'phi_a
    - s1, an ode.integrate_linear sweep reading the node gain K_mean at
    the stage times.  The law keeps these modes and the sweep's stage
    margin; no module forms the stacked gain.  The stacked sweeps are the
    tests' reference.  Margin, mode gains and affine are formed at all nodes
    at once; a coefficient sampled on another grid than ``grid`` raises
    GridMismatchError before any sweep.

    With validate=True the resulting law must pass a stationarity self-check:
    for FD_DIRECTIONS random bounded perturbations delta of the agents'
    affines, the mean pathwise derivative of J along delta, under common
    random numbers, stays below fd_tol * ||delta||_{L2} * (1 + |J|), and the
    mean curvature along delta is not negative beyond 2 standard errors
    (:func:`_validate_stationarity`).  validation_paths below 2 raise
    SettingError before any draw.
    """
    params, N, n = aug.params, aug.N, aug.params.n
    grid = params.grid() if grid is None else grid
    # every coefficient is read on grid before any sweep: GridMismatchError
    nodes = {name: params.node_table(name, grid) for name in TIME_VARYING}
    Ghat = mean_weight(params.G, params.GammaBar)
    Ps, stage = _riccati_sweep(params, grid, lambda *c: oracle_operator(N, *c),
                               ("A", "B", "C", "D", "F", "Ftilde", "Q", "R", "Gamma"),
                               [Ghat] if N == 1 else [params.G, Ghat], "oracle R + D'bd(P)D")
    P_dev, P_mean = Ps[:, 0], Ps[:, -1]
    Pd = P_dev + (P_mean - P_dev) / N
    # margin, mode gains and affine at every node in one batched pass
    B, C, D, R = (nodes[name] for name in ("B", "C", "D", "R"))
    S, num_dev = gain_terms(P_dev, B, C, D, R, Pd)
    _, num_mean = gain_terms(P_mean, B, C + nodes["Ftilde"], D, R, Pd)
    margin = _regularity_margin(S, grid, f"oracle regularity margin at N = {N}:", stage)
    K = -node_solve(S, np.concatenate([num_dev, num_mean], axis=-1))
    K_mean = K[..., n:]

    def phi_coeffs(ts):
        A, B, F, Q, Gamma, eta = (stage_samples(nodes[name], ts)
                                  for name in ("A", "B", "F", "Q", "Gamma", "eta"))
        Acl = A + F + B @ stage_samples(K_mean, ts)
        return -Acl.swapaxes(-1, -2), -np.broadcast_to(mean_offset(Q, Gamma, eta), ts.shape + (n,))

    phi = integrate_linear(phi_coeffs, mean_offset(params.G, params.GammaBar, params.etaBar),
                           grid, "backward")
    affine = -node_solve(S, B.swapaxes(-1, -2) @ phi.values[..., None])[..., 0]
    law = OracleLaw(grid=grid, N=N, P_dev=Trajectory(grid, P_dev), P_mean=Trajectory(grid, P_mean),
                    phi=phi, K_dev=Trajectory(grid, K[..., :n]), K_mean=Trajectory(grid, K_mean),
                    affine=Trajectory(grid, affine), regularity_margin=margin,
                    stage_margin=stage[0], stage_t=stage[1])
    if validate:
        law.validation = _validate_stationarity(
            aug, law, paths=validation_paths, seed=validation_seed, tol=fd_tol)
    return law


MAX_VALIDATION_PATHS = 16384
FD_DIRECTIONS = 5   # the stationarity check's directions


def _validate_stationarity(aug: AugmentedCoeffs, law: OracleLaw, *, paths: int,
                           seed: int, tol: float) -> dict:
    """Pathwise stationarity check under common random numbers.

    Along affine + h delta, with the noise fixed, the stacked state is
    affine in h and the cost quadratic, so on every path
    J(h) = J + h g + h^2 c / 2 exactly.  The law and its tangent along each
    of FD_DIRECTIONS perturbations of the agent-tiled affine run as one pass
    of 1 + FD_DIRECTIONS planes on one keyed bank, which regenerates its
    increments one plane chunk at a time: the pass never holds the whole
    bank, even at MAX_VALIDATION_PATHS.  Each direction is judged once, on
    the means of g and c, whose only error is Monte Carlo: c must not fall
    below zero by more than 2 standard errors, and |g| must stay within
    tol ||delta||_{L2} (1 + |J|), which also absorbs the O(dt) bias of
    Euler-Maruyama.  A derivative over its threshold that 3 standard
    errors could explain is re-measured once with MAX_VALIDATION_PATHS paths
    before it counts as a failure.  A failure names N and the direction.
    Fewer than 2 paths give no standard error and raise SettingError before
    any draw.
    """
    from .montecarlo import (NoiseBank, centralized_tangents, check_estimate_paths, check_seed,
                             standard_error)

    check_seed(seed)
    check_estimate_paths(paths, "the stationarity check")
    grid = law.grid
    rng = np.random.default_rng(seed ^ 0x5EED)
    dim_u = aug.N * aug.params.m
    deltas = rng.uniform(-1.0, 1.0, size=(FD_DIRECTIONS, grid.steps + 1, dim_u))
    norms = np.array([np.sqrt(quadrature(Trajectory(grid, (d**2).sum(axis=1)))) for d in deltas])

    def measure(n_paths: int) -> dict:
        noise = NoiseBank(seed=seed, n_paths=n_paths, n_agents=aug.N, grid=grid).materialized()
        J, g, c = centralized_tangents(aug, law, deltas, noise)
        J0, ses = float(J.mean()), [standard_error(x) for x in (J, g, c)]
        return {"J": J0, "J_se": float(ses[0]), "paths": n_paths,
                "derivatives": g.mean(axis=1), "derivative_ses": ses[1],
                "thresholds": tol * norms * (1.0 + abs(J0)),
                "curvatures": c.mean(axis=1), "curvature_ses": ses[2]}

    report = measure(paths)
    d, se, threshold = (report[k] for k in ("derivatives", "derivative_ses", "thresholds"))
    inconclusive = (abs(d) > threshold) & (abs(d) - 3.0 * se <= threshold)
    if inconclusive.any() and paths < MAX_VALIDATION_PATHS:
        report = measure(MAX_VALIDATION_PATHS)
    report = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in report.items()}
    for i, (d, se, threshold, c, c_se) in enumerate(zip(*(report[k] for k in (
            "derivatives", "derivative_ses", "thresholds", "curvatures", "curvature_ses"))), 1):
        where = f"oracle failed stationarity: N = {aug.N}, direction {i} of {FD_DIRECTIONS}"
        if c < -2.0 * c_se:
            raise StationarityError(f"{where}: mean curvature {c:.3e} < -2 se = {-2.0 * c_se:.3e} "
                                    f"({report['paths']} paths)")
        if abs(d) > threshold:
            raise StationarityError(f"{where}: |dJ| = {abs(d):.3e} > {threshold:.3e} "
                                    f"(se {se:.1e}, {report['paths']} paths)")
    return report
