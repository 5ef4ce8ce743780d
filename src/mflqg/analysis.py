"""Quantitative experiments: mean-field convergence rate, per-capita
optimality gap against the brute-force oracle, and the Lyapunov-pair
boundedness check behind the adjoint-averaging estimates.

The convergence study measures E sup_t ||xavg - xhat||^2 across population
sizes and fits a log-log slope (the mean-field approximation error is
expected to scale like 1/N).  The gap study simulates the decentralized and
centralized laws under common random numbers and reports the per-capita cost
gap with its standard error; the gap must be nonnegative up to Monte Carlo
noise (the oracle is the minimizer) and shrink as N grows.

The Lyapunov kernels and their N-free bound pair are linear matrix equations
with products on both sides of the state.  On the row-major vec of the pair,
vec(X Lam Y) = (X (x) Y') vec Lam, so each becomes a 2n^2-dimensional
equation with a generator that multiplies from the left, and both run as RK4
step maps through ode.integrate_linear.  The kernels of every N share one
sweep on a leading batch axis; it does per N exactly the operations of a
sweep of its own, so each N's kernels are bit-identical to a single-N run.
The bound pair is the same call with constant coefficients.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .consistency import solve_cc
from .convexity import check_psd_case
from .model import AugmentedCoeffs, ModelParams, check_population_size
from .errors import NonFiniteError
from .ode import Trajectory, integrate_linear, interp
from .riccati import FeedbackLaw, solve_oracle
from .montecarlo import NoiseBank, simulate_centralized, simulate_decentralized


@dataclass
class ConvergenceTable:
    rows: list  # (N, replications, estimate, standard error)
    slope: float
    intercept: float

    def estimates(self) -> np.ndarray:
        return np.array([r[2] for r in self.rows])


def convergence_study(params: ModelParams, law: FeedbackLaw, xhat: Trajectory,
                      N_list, replications: int, seed: int) -> ConvergenceTable:
    """Estimate E sup_t ||xavg - xhat||^2 for each N and fit the decay slope.

    Each replication is one independent N-agent simulation; the per-N noise
    banks are seeded as seed + N so the table is reproducible entry by entry.
    """
    rows = []
    for N in N_list:
        noise = NoiseBank(seed=seed + N, n_paths=replications, n_agents=N,
                          grid=law.grid)
        res = simulate_decentralized(params, law, N, noise, store=False)
        sup = np.max(np.sum((res.xavg - xhat.values) ** 2, axis=2), axis=1)
        est = float(sup.mean())
        se = float(sup.std(ddof=1) / np.sqrt(replications)) if replications > 1 else 0.0
        rows.append((N, replications, est, se))
    ests = np.array([r[2] for r in rows])
    if np.all(ests > 0.0) and len(rows) >= 2:
        slope, intercept = np.polyfit(np.log(np.array(N_list, dtype=float)), np.log(ests), 1)
    else:
        slope, intercept = float("nan"), float("nan")
    return ConvergenceTable(rows=rows, slope=float(slope), intercept=float(intercept))


@dataclass
class GapTable:
    rows: list  # (N, per-capita J decentralized, per-capita J oracle, gap, se)
    warnings: list = field(default_factory=list)


def gap_study(params: ModelParams, N_list, paths: int, seed: int, *,
              law: FeedbackLaw | None = None, validate_oracle: bool = True) -> GapTable:
    """Per-capita optimality gap of the decentralized law for small N.

    For each N the stacked problem is solved exactly (with its stationarity
    self-check), both laws are simulated under one noise bank, and the gap
    (J_dec - J_oracle)/N is reported with the standard error of the pathwise
    difference (common random numbers).
    """
    notes = []
    verdict = check_psd_case(params)
    if not verdict.is_uniformly_convex:
        notes.append("uniform convexity not verified by the psd certificate; "
                     "gap interpretation requires convexity")
        warnings.warn(notes[-1])
    if law is None:
        _, law = solve_cc(params)
    rows = []
    for N in N_list:
        aug = AugmentedCoeffs(params, N)
        oracle = solve_oracle(aug, law.grid, validate=validate_oracle,
                              validation_seed=seed ^ 0xACE1, validation_paths=1024)
        noise = NoiseBank(seed=seed + N, n_paths=paths, n_agents=N, grid=law.grid)
        dec = simulate_decentralized(params, law, N, noise, store=False)
        cen = simulate_centralized(aug, oracle, noise, store=False)
        diff = (dec.J_soc - cen.J_soc) / N
        se = float(diff.std(ddof=1) / np.sqrt(paths)) if paths > 1 else 0.0
        rows.append((N, float(dec.J_soc.mean() / N), float(cen.J_soc.mean() / N),
                     float(diff.mean()), se))
    return GapTable(rows=rows, warnings=notes)


# ---------------------------------------------------------------------------
# Lyapunov boundedness of the adjoint-averaging kernels
# ---------------------------------------------------------------------------

@dataclass
class LambdaPair:
    N: int
    lam1: Trajectory
    lam2: Trajectory
    sup1: float
    sup2: float


@dataclass
class LambdaReport:
    pairs: list
    bound1: Trajectory | None   # None when the bound sweep overflowed
    bound2: Trajectory | None
    L: float
    dominated: bool
    uniform: bool
    max_spread1: float
    max_spread2: float


def _coeff_maxnorm(table: np.ndarray) -> float:
    return float(np.max(np.abs(table)))


def _spread(sups) -> float:
    """(max - min) / max of a list of sup norms; 0 for an empty list."""
    if not sups:
        return 0.0
    sups = np.array(sups)
    return float((sups.max() - sups.min()) / max(sups.max(), 1e-30))


def _T(X):
    return np.swapaxes(X, -1, -2)


def _kron(X, Y):
    """X (x) Y of stacked n x n matrices; leading axes broadcast.

    On the row-major vec of an n x n state, vec(X Lam Y) = (X (x) Y') vec Lam.
    """
    n = X.shape[-1]
    prod = X[..., :, None, :, None] * Y[..., None, :, None, :]
    return prod.reshape(prod.shape[:-4] + (n * n, n * n))


def _right(X):
    """Generator of Lam -> Lam X on the row-major vec of Lam."""
    return _kron(np.eye(X.shape[-1]), _T(X))


def _left(X):
    """Generator of Lam -> X Lam on the row-major vec of Lam."""
    return _kron(X, np.eye(X.shape[-1]))


def _vec_pair(X1, X2):
    """The vectorized state (vec X1, vec X2) of a pair of n x n matrices."""
    return np.concatenate([X1.ravel(), X2.ravel()])


def _unvec_pair(values, n):
    """Inverse of _vec_pair along the last axis: (..., 2n^2) -> (..., 2, n, n)."""
    return values.reshape(values.shape[:-1] + (2, n, n))


def lambda_boundedness(params: ModelParams, law: FeedbackLaw, N_list) -> LambdaReport:
    """Integrate the coupled adjoint kernels and their N-free bound pair.

    For each N (backward, terminal (G, 0)):

        dLam1/dt = -[Lam1 (A + B Th1 + F/N) + A'Lam1
                     - C'Lam1 (C + D Th1 + Ftilde/N) + (Lam2/N) F + Q]
        dLam2/dt = -[Lam2 (A + B Th1 + (N-1)/N F) + A'Lam2
                     + (N-1)/N (Lam1 F - C'Lam1 Ftilde)]

    The bound pair replaces every coefficient by the scalar L (the max of the
    coefficient max-norms) times the all-ones matrix E and takes absolute
    values, so |X M| <= |X| L E bounds each product element-wise:

        dB1/dt = -[3L B1 E + L E B1 + 3L^2 E B1 E + L B2 E + L E],  B1(T) = |G|
        dB2/dt = -[3L B2 E + L E B2 + L B1 E + L^2 E B1 E],         B2(T) = 0.

    All coefficients are nonnegative, so the pair is a majorant:
    |Lam1| <= B1 and |Lam2| <= B2 element-wise for every N.  It grows like
    exp(c L^2 T) and passes BLOWUP_NORM (for n = 2, T = 1 from about
    L = 1.3).  That overflow is not an error of the kernels: the report then
    carries bound1 = bound2 = None and dominated = False, and keeps the
    kernels, their spreads and `uniform`.  An overflow of a kernel sweep
    still raises NonFiniteError.

    `dominated` checks the majorant element-wise at every node and every N.
    `uniform` asks that the sup norms vary by less than 10% across N, with
    spread = (max - min) / max.  The first kernel's spread is that of
    sup_t |Lam1^N|.  The second kernel is linear with zero terminal value and
    its only source carries the explicit weight (N-1)/N, so
    Lam2^N = (N-1)/N M^N exactly, where M^N solves the same equation (with
    Lam1^N as its input) with that weight set to 1.  The weight lies in
    [1/2, 1) and cannot break uniform boundedness, yet over N in
    {10, 100, 1000} it alone moves sup_t |Lam2^N| by 9.9%; so `max_spread2`
    is the spread of sup_t |Lam2^N| * N/(N-1) = sup_t |M^N|.  N = 1 is left
    out of that spread: there Lam2 is identically zero and the weight
    vanishes.
    `LambdaPair.sup1` and `sup2` hold the raw sup norms.

    Both sweeps are RK4 step maps of the vectorized pair (vec Lam1, vec Lam2),
    with generator blocks Lam X -> I (x) X', X Lam -> X (x) I and
    X Lam Y -> X (x) Y'.  Building a step map costs O(n^6) against O(n^3) for
    a stagewise step.  Over 1000 steps with N in {10, 100, 1000}, on one core
    of a 2-core x86 host, the call was 11x faster than stagewise sweeps at
    n = 1, 9x at n = 2, 1.5x at n = 4, and 3x slower at n = 6.  Every N
    entry must be a positive integer (InvalidNError, raised before any
    sweep).
    """
    N_list = list(N_list)
    for N in N_list:
        check_population_size(N)
    grid = law.grid
    n = params.n
    tabs = {k: params.node_table(k) for k in ("A", "B", "C", "D", "F", "Ftilde", "Q")}
    Th1 = law.Theta1.values

    bth = np.einsum("kij,kjl->kil", tabs["B"], Th1)
    dth = np.einsum("kij,kjl->kil", tabs["D"], Th1)
    L = max(_coeff_maxnorm(tabs[k]) for k in ("A", "F", "C", "Ftilde", "Q"))
    L = max(L, _coeff_maxnorm(bth), _coeff_maxnorm(dth))
    coeffs = np.stack([tabs["A"], tabs["F"], tabs["C"], tabs["Ftilde"], tabs["Q"], bth, dth],
                      axis=1)

    # every N in one sweep, on a leading batch axis of the state; s = 1/N and
    # w = (N-1)/N enter the generator elementwise as (N, 1, 1) arrays, so each
    # N's kernels are the same floating-point operations as in a sweep alone
    Ns = np.array(N_list, dtype=float).reshape(-1, 1, 1)
    s, w = 1.0 / Ns, (Ns - 1) / Ns

    def kernel_tables(ts):
        # each coefficient as (steps, 3, 1, n, n): a batch axis of size 1
        A, F, C, Ft, Q, BTh, DTh = np.moveaxis(interp(coeffs, grid.dt, ts), 2, 0)[:, :, :, None]
        base = _right(A + BTh) + _left(_T(A))
        cross = _kron(_T(C), _T(C + DTh))
        right_F = _right(F)
        coupling = right_F - _kron(_T(C), _T(Ft))
        gen = -np.block([[base - cross + s * coupling, s * right_F],
                         [w * coupling, base + w * right_F]])
        src = np.concatenate([-Q.reshape(ts.shape + (1, n * n)),
                              np.zeros(ts.shape + (1, n * n))], axis=-1)
        return gen, src

    pairs = []
    if N_list:
        terminal = np.broadcast_to(_vec_pair(params.G, np.zeros((n, n))), (len(N_list), 2 * n * n))
        lam = _unvec_pair(integrate_linear(kernel_tables, terminal, grid, "backward").values, n)
        for j, N in enumerate(N_list):
            lam1 = Trajectory(grid, lam[:, j, 0])
            lam2 = Trajectory(grid, lam[:, j, 1])
            pairs.append(LambdaPair(N=N, lam1=lam1, lam2=lam2,
                                    sup1=float(np.max(np.abs(lam1.values))),
                                    sup2=float(np.max(np.abs(lam2.values)))))

    E = np.ones((n, n))
    right_E, left_E, EE = _right(E), _left(E), _kron(E, E)
    bound_gen = -np.block([[3 * L * right_E + L * left_E + 3 * L**2 * EE, L * right_E],
                           [L * right_E + L**2 * EE, 3 * L * right_E + L * left_E]])
    bound_src = _vec_pair(-L * E, np.zeros((n, n)))

    def bound_tables(ts):
        return (np.broadcast_to(bound_gen, ts.shape + bound_gen.shape),
                np.broadcast_to(bound_src, ts.shape + bound_src.shape))

    try:
        bounds = integrate_linear(bound_tables, _vec_pair(np.abs(params.G), np.zeros((n, n))),
                                  grid, "backward")
    except NonFiniteError:
        bound1 = bound2 = None
    else:
        bvals = _unvec_pair(bounds.values, n)
        bound1 = Trajectory(grid, bvals[:, 0])
        bound2 = Trajectory(grid, bvals[:, 1])

    slack = 1e-12
    dominated = bound1 is not None and all(
        np.all(np.abs(p.lam1.values) <= bound1.values + slack)
        and np.all(np.abs(p.lam2.values) <= bound2.values + slack)
        for p in pairs
    )
    spread1 = _spread([p.sup1 for p in pairs])
    spread2 = _spread([p.sup2 * p.N / (p.N - 1) for p in pairs if p.N > 1])
    return LambdaReport(pairs=pairs, bound1=bound1, bound2=bound2, L=float(L),
                        dominated=dominated, uniform=(spread1 < 0.10 and spread2 < 0.10),
                        max_spread1=spread1, max_spread2=spread2)
