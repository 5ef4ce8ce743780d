"""Quantitative experiments: mean-field convergence rate, per-capita
optimality gap against the brute-force oracle, and the Lyapunov-pair
boundedness check behind the adjoint-averaging estimates.

The convergence study measures E sup_t ||xavg - xhat||^2 across population
sizes and fits a log-log slope (the mean-field approximation error is
expected to scale like 1/N).  The gap study simulates the decentralized and
centralized laws under common random numbers and reports the per-capita cost
gap with its standard error; the gap must be nonnegative up to Monte Carlo
noise (the oracle is the minimizer) and shrink as N grows.

The Lyapunov kernels are linear matrix equations with products on both
sides of the state.  On the row-major vec of the kernel pair each product
Lam -> X Lam Y is the matrix X (x) Y' of the Kronecker rule ode.kron_vec,
so they become one 2n^2-dimensional equation with a generator that
multiplies from the left, run as RK4 step maps through
ode.integrate_linear.  The kernels of every N share one sweep on
a leading batch axis; it does per N exactly the operations of a sweep of its
own, so each N's kernels are bit-identical to a single-N run.  Their N-free
bound is a Gronwall recurrence on the max-norm logarithmic norm of the same
generator at s = 1/N = 0 and 1, read off the kernel sweep's samples.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .consistency import solve_cc
from .convexity import report_all
from .errors import GridMismatchError
from .model import AugmentedCoeffs, ModelParams, check_population_size
from .ode import Trajectory, integrate_linear, kron_vec, stage_samples
from .riccati import FeedbackLaw, solve_oracle
from .montecarlo import (NoiseBank, check_counts, check_seed, simulate_centralized,
                         simulate_decentralized)


def check_study_counts(paths: int, N_list) -> None:
    """Refuse each population size of N_list and the path count as the noise
    banks would; a study calls it before any solve or simulation."""
    for N in N_list:
        check_population_size(N)
        check_counts(paths, N)


def _bank_seed(seed: int, N: int) -> int:
    """A study's noise-bank seed at population size N: seed + N, wrapped into
    the bank's 64-bit key word, so every seed in [0, 2**64) is usable."""
    return (int(seed) + int(N)) % 2**64


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
    banks are seeded by :func:`_bank_seed` so the table is reproducible entry
    by entry.
    The slope is fitted only over two or more distinct N (NaN otherwise).
    Every N, the replication count and xhat's grid, which must be the law's
    (GridMismatchError), are checked before any simulation.
    """
    check_seed(seed)
    check_study_counts(replications, N_list)
    if xhat.grid != law.grid:
        raise GridMismatchError(f"xhat is sampled on {xhat.grid}, the law on {law.grid}")
    rows = []
    for N in N_list:
        noise = NoiseBank(seed=_bank_seed(seed, N), n_paths=replications, n_agents=N,
                          grid=law.grid)
        res = simulate_decentralized(params, law, N, noise, store=False)
        sup = np.max(np.sum((res.xavg - xhat.values) ** 2, axis=2), axis=1)
        est = float(sup.mean())
        se = float(sup.std(ddof=1) / np.sqrt(replications)) if replications > 1 else 0.0
        rows.append((N, replications, est, se))
    ests = np.array([r[2] for r in rows])
    if np.all(ests > 0.0) and len(set(N_list)) >= 2:
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
    difference (common random numbers), each N's bank seeded by
    :func:`_bank_seed`.  The bank is drawn once, one noise chunk at a time,
    and both simulations read each chunk.  Every N, its stacked system and
    the path count are checked before anything is solved.  It warns, noted in ``warnings``,
    unless a verdict of ``convexity.report_all`` is UniformlyConvex.
    """
    check_seed(seed)
    check_study_counts(paths, N_list)
    augs = [AugmentedCoeffs(params, N) for N in N_list]
    notes = []
    if not any(v.is_uniformly_convex for v in report_all(params).values()):
        notes.append("uniform convexity not verified by any certificate; "
                     "gap interpretation requires convexity")
        warnings.warn(notes[-1])
    if law is None:
        _, law = solve_cc(params)
    rows = []
    for N, aug in zip(N_list, augs):
        oracle = solve_oracle(aug, law.grid, validate=validate_oracle,
                              validation_seed=seed ^ 0xACE1, validation_paths=1024)
        noise = NoiseBank(seed=_bank_seed(seed, N), n_paths=paths, n_agents=N, grid=law.grid)
        dec, cen = [], []
        for chunk in noise.drawn_chunks():
            dec.append(simulate_decentralized(params, law, N, chunk, store=False).J_soc)
            cen.append(simulate_centralized(aug, oracle, chunk, store=False).J_soc)
            del chunk   # freed before the next chunk is drawn
        dec, cen = np.concatenate(dec), np.concatenate(cen)
        diff = (dec - cen) / N
        se = float(diff.std(ddof=1) / np.sqrt(paths)) if paths > 1 else 0.0
        rows.append((N, float(dec.mean() / N), float(cen.mean() / N), float(diff.mean()), se))
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
    bound: np.ndarray  # b(t_k) at every node: an N-free majorant, inf past overflow
    dominated: bool
    uniform: bool
    max_spread1: float
    max_spread2: float


def _spread(sups) -> float:
    """(max - min) / max of a list of sup norms; NaN for fewer than two,
    which back no verdict on uniformity."""
    if len(sups) < 2:
        return float("nan")
    sups = np.array(sups)
    return float((sups.max() - sups.min()) / max(sups.max(), 1e-30))


def _T(X):
    return np.swapaxes(X, -1, -2)


def _log_norm_inf(M):
    """mu_inf(M) = max_i (m_ii + sum_{j != i} |m_ij|) over the last two axes."""
    diag = np.diagonal(M, axis1=-2, axis2=-1)
    return np.max(np.sum(np.abs(M), axis=-1) - np.abs(diag) + diag, axis=-1)


def lambda_boundedness(params: ModelParams, law: FeedbackLaw, N_list) -> LambdaReport:
    """Integrate the coupled adjoint kernels and bound them for every N at once.

    For each N (backward, terminal (G, 0)):

        dLam1/dt = -[Lam1 (A + B Th1 + F/N) + A'Lam1
                     - C'Lam1 (C + D Th1 + Ftilde/N) + (Lam2/N) F + Q]
        dLam2/dt = -[Lam2 (A + B Th1 + (N-1)/N F) + A'Lam2
                     + (N-1)/N (Lam1 F - C'Lam1 Ftilde)]

    On the row-major vec y = (vec Lam1, vec Lam2) this is
    dy/dt = -M_s(t) y - (vec Q, 0) with s = 1/N and a 2n^2 x 2n^2 generator
    M_s affine in s (the weight (N-1)/N is 1 - s).  The kernels of every N
    run as one RK4 step-map sweep of y through ode.integrate_linear (O(n^6)
    per step map, against O(n^3) per stagewise step).

    The bound b(t) majorizes max|Lam1^N(t)| and max|Lam2^N(t)| for every
    N >= 1.  The max-norm logarithmic norm mu(M) = max_i (m_ii +
    sum_{j != i} |m_ij|) (Dahlquist 1958; Soederlind, BIT 46, 2006) is
    convex, so mu(M_s) <= max(mu(M_0), mu(M_1)) for s in [0, 1], and
    Gronwall backward in time gives, with mu_k and q_k the maxima of that
    bound and of max|Q| over the RK4 stage times of the step k -> k-1,

        b(T) = max|G|,
        b(t_{k-1}) = e^{dt mu_k} b(t_k) + dt q_k max(1, e^{dt mu_k}).

    The stage samples bound the whole step when the generator is affine in t
    on it, as it is when B, C and D are constant.  The kernel sweep samples
    them with the kernels' rows, and b does not depend on N_list; it is inf
    (or NaN) once it overflows, as it can on strongly non-normal generators
    whose kernels stay small.

    `dominated` asks max|Lam1^N| and max|Lam2^N| to stay within b, with a
    slack of 1e-12 (1 + b), at every node and every N, and b to be finite.
    `uniform` asks that the sup norms vary by less than 10% across N, with
    spread = (max - min) / max: of sup_t |Lam1^N| for the first kernel, and
    of sup_t |Lam2^N| * N/(N-1) over N > 1 for the second.  A spread of
    fewer than two sup norms is NaN, and `uniform` is then False.  Lam2 is
    linear with zero terminal value and its only source carries the weight
    (N-1)/N, so Lam2^N = (N-1)/N M^N exactly, with M^N the solution under
    weight 1.  That weight lies in [1/2, 1) and cannot break uniform
    boundedness, yet over N in {10, 100, 1000} it alone moves sup_t |Lam2^N|
    by 9.9%.
    `LambdaPair.sup1` and `sup2` hold the raw sup norms.  Every N entry must
    be a positive integer (InvalidNError, raised before any sweep).
    """
    N_list = list(N_list)
    for N in N_list:
        check_population_size(N)
    grid = law.grid
    n = params.n
    eye = np.eye(n)
    tabs = {k: params.node_table(k, grid) for k in ("A", "B", "C", "D", "F", "Ftilde", "Q")}
    Th1 = law.Theta1.values

    bth = np.einsum("kij,kjl->kil", tabs["B"], Th1)
    dth = np.einsum("kij,kjl->kil", tabs["D"], Th1)
    coeffs = np.stack([tabs["A"], tabs["F"], tabs["C"], tabs["Ftilde"], tabs["Q"], bth, dth],
                      axis=1)

    def kernel_tables(ts, s, w):
        # s and w = 1 - s (1/N and (N-1)/N for the kernels) enter the
        # generator elementwise as (batch, 1, 1) arrays; each coefficient is
        # (times, 1, n, n), a batch axis of size 1
        A, F, C, Ft, Q, BTh, DTh = np.moveaxis(stage_samples(coeffs, ts), 1, 0)[:, :, None]
        base = kron_vec(eye, A + BTh) + kron_vec(_T(A), eye)
        cross = kron_vec(_T(C), C + DTh)
        right_F = kron_vec(eye, F)
        coupling = right_F - kron_vec(_T(C), Ft)
        gen = -np.block([[base - cross + s * coupling, s * right_F],
                         [w * coupling, base + w * right_F]])
        src = np.concatenate([-Q.reshape(ts.shape + (1, n * n)),
                              np.zeros(ts.shape + (1, n * n))], axis=-1)
        return gen, src

    # every N in one sweep, on a leading batch axis of the state, so each N's
    # kernels are the same floating-point operations as in a sweep alone; the
    # generator's last two rows, s = 0 and 1, give mu and q, the bound's
    # maxima over each backward step k -> k-1, in sweep order (k = steps first)
    Ns = np.array(N_list, dtype=float)
    s = np.append(1.0 / Ns, [0.0, 1.0]).reshape(-1, 1, 1)
    w = np.append((Ns - 1) / Ns, [1.0, 0.0]).reshape(-1, 1, 1)
    mu, q = [], []

    def step_max(v):
        return np.maximum(np.maximum(v[:-1:2], v[1::2]), v[2::2])

    def tables(ts):
        gen, src = kernel_tables(ts, s, w)
        mu.append(step_max(np.max(_log_norm_inf(-gen[:, -2:]), axis=1)))
        q.append(step_max(np.max(np.abs(src), axis=(1, 2))))
        return gen[:, :-2], src

    terminal = np.broadcast_to(np.concatenate([params.G.ravel(), np.zeros(n * n)]),
                               (len(N_list), 2 * n * n))
    lam = integrate_linear(tables, terminal, grid, "backward").values.reshape(
        grid.steps + 1, len(N_list), 2, n, n)
    pairs = []
    for j, N in enumerate(N_list):
        lam1 = Trajectory(grid, lam[:, j, 0])
        lam2 = Trajectory(grid, lam[:, j, 1])
        pairs.append(LambdaPair(N=N, lam1=lam1, lam2=lam2,
                                sup1=float(np.max(np.abs(lam1.values))),
                                sup2=float(np.max(np.abs(lam2.values)))))

    with np.errstate(over="ignore"):
        growth = np.exp(grid.dt * np.concatenate(mu))
    # Python floats overflow to inf (and inf * 0 to NaN) without warnings
    bound = [float(np.max(np.abs(params.G)))]
    for g, qk in zip(growth.tolist(), (grid.dt * np.concatenate(q)).tolist()):
        bound.append(g * bound[-1] + qk * max(1.0, g))
    bound = np.array(bound[::-1])

    ceiling = bound + 1e-12 * (1.0 + bound)
    dominated = bool(np.all(np.isfinite(bound))) and all(
        np.all(np.max(np.abs(v), axis=(1, 2)) <= ceiling)
        for p in pairs for v in (p.lam1.values, p.lam2.values))
    spread1 = _spread([p.sup1 for p in pairs])
    spread2 = _spread([p.sup2 * p.N / (p.N - 1) for p in pairs if p.N > 1])
    return LambdaReport(pairs=pairs, bound=bound, dominated=dominated,
                        uniform=(spread1 < 0.10 and spread2 < 0.10),
                        max_spread1=spread1, max_spread2=spread2)
