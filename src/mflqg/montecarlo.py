"""Euler-Maruyama Monte Carlo for the N-agent system, with reproducible
counter-based noise and cost evaluation.

Brownian increments come from one Philox stream per (seed, path, agent), so
any increment regenerates bit-identically however work is chunked.  Chunk
boundaries depend on sizes alone and each chunk writes its own slice of the
output, so results are bit-identical under any MFLQG_THREADS.

One kernel, :func:`_em`, steps every simulation on state planes, one
(..., paths, agents) array per coordinate, with the n x n and n x m products
unrolled into multiply-adds.  Each agent follows its own dynamics
x_i += (A x_i + B u_i + F xavg) dt + (C x_i + D u_i + Ftilde xavg) dW_i, the
same-step state-average in drift and diffusion, and its trapezoid cost
accumulates online on the same planes.  Callers pass only the control: the
decentralized u_i = Theta1 x_i + Theta2, or the centralized u = gain x +
affine of the stacked system (the same agents in nN coordinates).  Leading
plane axes carry variants, so the oracle's stationarity check runs a law and
its perturbations as one pass over one bank.  Full trajectories are kept
only within the storage budget; :func:`social_cost` recomputes costs from them.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .errors import (GridMismatchError, MissingTrajectoriesError, NonFiniteError,
                     SettingError, StorageBudgetError)
from .model import AugmentedCoeffs, ModelParams, build_augmented
from .ode import TimeGrid, trapezoid_nodes
from .riccati import FeedbackLaw, OracleLaw

# full trajectory storage cap, in scalars (states + controls combined)
STORE_BUDGET = 2**28
# chunk caps in scalars: the noise of one chunk, and one state plane of a
# multi-variant pass (small enough to stay in cache)
NOISE_CHUNK_SCALARS = 2**24
PLANE_CHUNK_SCALARS = 2**14


def worker_count() -> int:
    env = os.environ.get("MFLQG_THREADS")
    try:
        return max(1, int(env)) if env else os.cpu_count() or 1
    except ValueError:
        raise SettingError(f"MFLQG_THREADS must be an integer, got {env!r}") from None


@dataclass(frozen=True)
class NoiseBank:
    """Reproducible Brownian increments keyed by (seed, path, agent).

    Each (path, agent) pair owns an independent Philox stream keyed by the
    64-bit words (seed, path << 32 | agent); increments are N(0, dt) along
    the grid steps.
    """

    seed: int
    n_paths: int
    n_agents: int
    grid: TimeGrid

    def __post_init__(self):
        if self.n_paths < 1 or self.n_agents < 1:
            raise SettingError(f"need at least one path and one agent, got "
                               f"{self.n_paths} paths and {self.n_agents} agents")
        if self.n_paths >= 2**32 or self.n_agents >= 2**32:
            raise SettingError("path/agent indices must fit in 32 bits")

    def increments(self, path: int) -> np.ndarray:
        """(n_agents, steps) array of Brownian increments for one path."""
        return self.increments_block(range(path, path + 1))[0]

    def increments_block(self, paths) -> np.ndarray:
        """(paths, n_agents, steps) increments.  One bit generator serves the
        call: rewound to counter 0 under a stream's key, it is that stream."""
        bits = np.random.Philox(key=0)
        gen = np.random.Generator(bits)
        key = np.array([self.seed & (2**64 - 1), 0], dtype=np.uint64)
        state = {**bits.state, "state": {"counter": np.zeros(4, np.uint64), "key": key}}
        out = np.empty((len(paths), self.n_agents, self.grid.steps))
        for j, path in enumerate(paths):
            for agent in range(self.n_agents):
                key[1] = ((path << 32) | agent) & (2**64 - 1)
                bits.state = state
                gen.standard_normal(out=out[j, agent])
        out *= np.sqrt(self.grid.dt)
        return out

    def materialized(self) -> "MaterializedNoise":
        return MaterializedNoise(self)


class MaterializedNoise:
    """Noise bank facade that generates all increments once and serves slices.

    Pays off when the same bank drives many simulations (common-random-number
    comparisons); falls back to identical values because the underlying
    streams are keyed, not stateful.
    """

    def __init__(self, bank: NoiseBank):
        scalars = bank.n_paths * bank.n_agents * bank.grid.steps
        if scalars > STORE_BUDGET:
            raise StorageBudgetError(f"refusing to materialize {scalars} noise scalars "
                                     f"(budget {STORE_BUDGET})")
        self.seed = bank.seed
        self.n_paths = bank.n_paths
        self.n_agents = bank.n_agents
        self.grid = bank.grid
        self._all = bank.increments_block(range(bank.n_paths))

    def increments_block(self, paths) -> np.ndarray:
        return self._all[paths.start:paths.stop]


@dataclass
class SimResult:
    """Monte Carlo output: state-average paths, costs, optional trajectories."""

    grid: TimeGrid
    N: int
    n_paths: int
    seed: int
    xavg: np.ndarray                 # (paths, steps+1, n)
    J_i: np.ndarray                  # (paths, N)
    J_soc: np.ndarray                # (paths,)
    xs: np.ndarray | None = None     # (paths, N, steps+1, n)
    us: np.ndarray | None = None     # (paths, N, steps+1, m)
    meta: dict = field(default_factory=dict)


@dataclass
class CostSummary:
    j_soc_mean: float
    j_soc_se: float
    j_i_mean: np.ndarray
    j_soc_paths: np.ndarray
    j_i_paths: np.ndarray


def _quad(dev: np.ndarray, M: np.ndarray) -> np.ndarray:
    # dev: (..., d), M: (d, d) -> (...)
    return ((dev @ M) * dev).sum(axis=-1)


def _chunks(n_paths: int, per_path_scalars: int, cap: int | None = None) -> list[range]:
    # Chunk boundaries depend only on sizes, never on the worker count: BLAS
    # kernels are not bit-stable across batch shapes, so the shapes must be
    # pinned for thread-count-independent output.
    size = max(1, min(n_paths, (cap or NOISE_CHUNK_SCALARS) // max(1, per_path_scalars)))
    return [range(a, min(a + size, n_paths)) for a in range(0, n_paths, size)]


def _run_chunks(fn, chunks):
    workers = worker_count()
    if workers == 1 or len(chunks) == 1:
        return [fn(c) for c in chunks]
    with ThreadPoolExecutor(max_workers=workers) as ex:
        list(ex.map(fn, chunks))


def _bank_paths(noise, grid: TimeGrid, N: int, paths: int | None) -> int:
    if grid.steps != noise.grid.steps or grid.T != noise.grid.T:
        raise GridMismatchError("law grid does not match the noise grid")
    if noise.n_agents < N:
        raise GridMismatchError(f"noise bank holds {noise.n_agents} agents, need {N}")
    n_paths = noise.n_paths if paths is None else paths
    if n_paths > noise.n_paths:
        raise GridMismatchError(f"noise bank holds {noise.n_paths} paths, need {n_paths}")
    return n_paths


def _apply(M: np.ndarray, planes: list) -> list:
    """M x on planes: row r is sum_c M[r, c] planes[c], as unrolled axpys."""
    return [reduce(np.add, [coef * plane for coef, plane in zip(row, planes)]) for row in M]


def _form(M: np.ndarray, planes: list) -> np.ndarray:
    """The quadratic form x'Mx on planes."""
    return reduce(np.add, [p * q for p, q in zip(planes, _apply(M, planes))])


def _em(params: ModelParams, grid: TimeGrid, dW: np.ndarray, lead: tuple, control,
        kind: str, record=None) -> np.ndarray:
    """The Euler-Maruyama kernel: the costs J_i, shape (*lead, P, N), of one chunk.

    dW is the chunk's (P, N, steps) increments; every agent starts at xi0.
    control(k, X) gives the m control planes at node k from the n state
    planes; record(k, X, U, xavg) sees every node.  A non-finite state shows
    in its agent mean, which is checked at every node.
    """
    M, dt = grid.steps, grid.dt
    A, B, C, D, F, Ft, Q, R, Gam, eta = (params.node_table(name) for name in (
        "A", "B", "C", "D", "F", "Ftilde", "Q", "R", "Gamma", "eta"))
    w = np.full(M + 1, dt)
    w[[0, -1]] *= 0.5
    X = [np.full(lead + dW.shape[:2], v) for v in params.xi0]
    run = 0.0
    for k in range(M + 1):
        xb = [x.mean(axis=-1, keepdims=True) for x in X]
        if not all(np.isfinite(v).all() for v in xb):
            raise NonFiniteError(f"{kind} simulation blew up at step {k}")
        U = control(k, X)
        if record is not None:
            record(k, X, U, xb)
        dev = [x - (g + e) for x, g, e in zip(X, _apply(Gam[k], xb), eta[k])]
        run = run + w[k] * (_form(Q[k], dev) + _form(R[k], U))
        if k == M:
            break
        dWk = dW[..., k]
        X = [x + dt * (ax + bu + fx) + (cx + du + ftx) * dWk
             for x, ax, bu, fx, cx, du, ftx in zip(
                 X, _apply(A[k], X), _apply(B[k], U), _apply(F[k], xb),
                 _apply(C[k], X), _apply(D[k], U), _apply(Ft[k], xb))]
    devT = [x - (g + e) for x, g, e in zip(X, _apply(params.GammaBar, xb), params.etaBar)]
    return 0.5 * (run + _form(params.G, devT))


def _run(params, noise, N, chunks, control, kind, lead=(), recorder=None) -> np.ndarray:
    """J_i, shape (*lead, paths, N), of the kernel over the bank's chunks."""
    J_i = np.empty(lead + (chunks[-1].stop, N))

    def run(chunk: range):
        sl = slice(chunk.start, chunk.stop)
        J_i[..., sl, :] = _em(params, noise.grid, noise.increments_block(chunk)[:, :N, :],
                              lead, control, kind, recorder and recorder(sl))

    _run_chunks(run, chunks)
    return J_i


def _simulate(params, noise, N, n_paths, store, kind, control) -> SimResult:
    n, m, M = params.n, params.m, noise.grid.steps
    storing = n_paths * N * (M + 1) * (n + m) <= STORE_BUDGET if store is None else bool(store)
    xavg = np.empty((n_paths, M + 1, n))
    xs = np.empty((n_paths, N, M + 1, n)) if storing else None
    us = np.empty((n_paths, N, M + 1, m)) if storing else None

    def recorder(sl):
        def record(k, X, U, xb):
            xavg[sl, k] = np.concatenate(xb, axis=-1)
            if storing:
                xs[sl, :, k] = np.stack(X, axis=-1)
                us[sl, :, k] = np.stack(U, axis=-1)
        return record

    J_i = _run(params, noise, N, _chunks(n_paths, N * M), control, kind, recorder=recorder)
    return SimResult(grid=noise.grid, N=N, n_paths=n_paths, seed=noise.seed, xavg=xavg,
                     J_i=J_i, J_soc=J_i.sum(axis=1), xs=xs, us=us, meta={"kind": kind})


def simulate_decentralized(params: ModelParams, law: FeedbackLaw, N: int,
                           noise: NoiseBank, paths: int | None = None,
                           store: bool | None = None) -> SimResult:
    """Simulate all N agents under u_i = Theta1 x_i + Theta2, common start xi0.

    The state-average is recomputed from the current states at every step and
    feeds both drift and diffusion.
    """
    n_paths = _bank_paths(noise, law.grid, N, paths)
    Th1, Th2 = law.Theta1.values, law.Theta2.values

    def control(k, X):
        return [u + th for u, th in zip(_apply(Th1[k], X), Th2[k])]

    return _simulate(params, noise, N, n_paths, store, "decentralized", control)


def _centralized_control(aug: AugmentedCoeffs, gain: np.ndarray, affine: np.ndarray):
    """u = gain x + affine on planes; affine is (*variants, steps+1, Nm).

    Block (r, c) of the gain, the weight of coordinate c of agent j in
    control r of agent i, is one (paths, N) @ (N, N) product per node.
    """
    N, n, m = aug.N, aug.params.n, aug.params.m
    blocks = np.ascontiguousarray(gain.reshape(len(gain), N, m, N, n).transpose(0, 2, 4, 3, 1))
    aff = np.moveaxis(affine.reshape(affine.shape[:-1] + (N, m)), (-3, -1), (0, 1))[..., None, :]

    def control(k, Y):
        flat = [y.reshape(-1, N) for y in Y]
        return [reduce(np.add, [f @ blocks[k, r, c] for c, f in enumerate(flat)]).reshape(
            Y[0].shape) + aff[k, r] for r in range(m)]

    return control


def simulate_centralized(aug: AugmentedCoeffs, law: OracleLaw, noise: NoiseBank,
                         paths: int | None = None, store: bool | None = None) -> SimResult:
    """Simulate the stacked system under the centralized law u = gain x + affine.

    The stacked state is the per-agent state in nN coordinates, so the
    per-agent kernel runs it, and its costs are directly comparable with the
    decentralized run under the same noise bank.
    """
    n_paths = _bank_paths(noise, law.grid, aug.N, paths)
    control = _centralized_control(aug, law.gain.values, law.affine.values)
    return _simulate(aug.params, noise, aug.N, n_paths, store, "centralized", control)


def centralized_variant_costs(aug: AugmentedCoeffs, law: OracleLaw,
                              affines: np.ndarray, noise) -> np.ndarray:
    """J_soc, shape (V, paths), under u = gain x + affines[v] for each variant.

    affines is (V, steps+1, Nm).  The variants share every increment of the
    bank and run as one pass, which equals V simulate_centralized calls.
    """
    n_paths = _bank_paths(noise, law.grid, aug.N, None)
    V = len(affines)
    return _run(aug.params, noise, aug.N, _chunks(n_paths, V * aug.N, PLANE_CHUNK_SCALARS),
                _centralized_control(aug, law.gain.values, affines), "centralized",
                lead=(V,)).sum(axis=-1)


def social_cost(result: SimResult, params: ModelParams) -> CostSummary:
    """Recompute the social cost from stored trajectories (trapezoid rule).

    J_i = 1/2 [ int ||x_i - Gamma xavg - eta||_Q^2 + ||u_i||_R^2 dt
                + ||x_i(T) - GammaBar xavg(T) - etaBar||_G^2 ],
    J_soc = sum_i J_i; expectations are path averages with standard error
    sample-std / sqrt(paths).
    """
    if result.xs is None or result.us is None:
        raise MissingTrajectoriesError("full trajectories were not stored for this run")
    grid = result.grid
    Qt, Rt = params.node_table("Q"), params.node_table("R")
    Gt, et = params.node_table("Gamma"), params.node_table("eta")
    # tracking deviation x_i - Gamma xavg - eta, per (path, agent, node)
    gx = np.einsum("kij,pkj->pki", Gt, result.xavg)
    dev = result.xs - gx[:, None] - et[None, None]
    cq = np.einsum("pnki,kij,pnkj->pnk", dev, Qt, dev)
    cr = np.einsum("pnki,kij,pnkj->pnk", result.us, Rt, result.us)
    run = trapezoid_nodes(np.moveaxis(cq + cr, -1, 0), grid)
    devT = (result.xs[:, :, -1] - (result.xavg[:, -1] @ params.GammaBar.T)[:, None]
            - params.etaBar)
    term = _quad(devT, params.G)
    j_i = 0.5 * (run + term)
    j_soc = j_i.sum(axis=1)
    se = float(j_soc.std(ddof=1) / np.sqrt(len(j_soc))) if len(j_soc) > 1 else 0.0
    return CostSummary(j_soc_mean=float(j_soc.mean()), j_soc_se=se,
                       j_i_mean=j_i.mean(axis=0), j_soc_paths=j_soc, j_i_paths=j_i)


def stacked_social_cost(params: ModelParams, N: int, xs: np.ndarray,
                        us: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Social cost per path evaluated through the stacked quadratic form.

    1/2 [ int x'Qx + 2 S1'x + N eta'Q eta + u'Ru dt
          + x(T)'G x(T) + 2 S2'x(T) + N etaBar'G etaBar ]

    with the stacked weight matrices; used as the cross-check that the lifted
    cost really is the sum of the per-agent costs.
    """
    P, _, nodes, n = xs.shape
    x_st = np.swapaxes(xs, 1, 2).reshape(P, nodes, N * n)
    u_st = np.swapaxes(us, 1, 2).reshape(P, nodes, N * us.shape[-1])
    etat = params.node_table("eta")
    Qt = params.node_table("Q")
    integ = np.empty((nodes, P))
    for k in range(nodes):
        s = build_augmented(params, N, k)
        xk, uk = x_st[:, k], u_st[:, k]
        integ[k] = (_quad(xk, s.Q) + 2.0 * xk @ s.S1 + N * etat[k] @ Qt[k] @ etat[k]
                    + _quad(uk, s.R))
    xT = x_st[:, -1]
    terminal = (_quad(xT, s.G) + 2.0 * xT @ s.S2
                + N * params.etaBar @ params.G @ params.etaBar)
    return 0.5 * (trapezoid_nodes(integ, grid) + terminal)
