"""Euler-Maruyama Monte Carlo for the N-agent system, with reproducible
counter-based noise and cost evaluation.

Brownian increments come from one Philox stream per (seed, path, agent), so
any increment regenerates bit-identically however work is chunked.  Chunk
boundaries depend on sizes alone and each chunk writes its own slice of the
output, so results are bit-identical under any MFLQG_THREADS.  A plain
simulation that spans several noise-capped chunks hands them to a pool of
MFLQG_THREADS workers.  The multi-plane pass of the oracle's tangents cuts
its paths into cache-sized chunks and runs them in order on the calling
thread: each numpy call on such a chunk lasts microseconds, so pool workers
would mostly hand the interpreter lock back and forth rather than compute
at once (inferred, not traced).  On a 2-core host with one BLAS thread, the
tangent pass of gap-scalar's 1024 validation paths at N = 8 (2 chunks)
took, in the median of 7 interleaved runs, 167.3 ms serial and 177.4 ms on
two workers (191.4 and 192.1 ms in a second set), with bit-identical costs;
at N = 4 it is one chunk.  The gap study draws each bank once, chunk by
chunk, and runs both of its simulations on each chunk before drawing the
next (:meth:`NoiseBank.drawn_chunks`).

Every control law here is u_i = Ga x_i + Gb xavg + a_i, so one kernel,
:func:`_em`, steps a law folded into per-node tables before the loop: the
drift increment map dt(A + B Ga), the diffusion map C + D Ga, their xavg
parts dt(F + B Gb) and Ftilde + D Gb, the offsets dt B a and D a, and the
cost as one quadratic form z'Hz + 2 l'z + c in z = (x_i, xavg) (half of
ode.trapezoid_weights and the terminal cost folded in).  The state lives on
coordinate-major planes, paths innermost; at each node one product of the
maps table with the state gives all of that, and a few plane-wide
multiply-adds finish the step
x_i += (A x_i + B u_i + F xavg) dt + (C x_i + D u_i + Ftilde xavg) dW_i and
the cost.  Two folds share the loop, and only the first derives tables:

* the agent fold, per agent (the decentralized law has Gb = 0): n x n maps
  on the agents' planes, the xavg terms acting on the agent means, one
  column per path, and the costs per agent;
* the stacked fold lays the agent fold's tables of the oracle's law out on
  the nN stacked coordinates and gives the social cost.  A leading plane
  axis carries the law's tangents along per-agent directions of its
  affine: the oracle's stationarity check runs
  the law and its FD_DIRECTIONS tangents as one pass over one bank and
  reads each path's derivative and curvature off them, with no finite
  difference.

An offset that is the same on every path is added to the dt-scale drift
increment, never to the state: a path-constant addend rounds alike on every
path, and at the state's scale that bias would move differences between
runs.  Controls are formed only for stored trajectories, by _simulate
from the stored states and the per-agent law both folds keep, and a
centralized run's per-agent costs only from them; full trajectories are
kept within the storage budget, and :func:`social_cost` recomputes costs
from them.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import (GridMismatchError, InvalidNError, MissingTrajectoriesError, NonFiniteError,
                     SettingError)
from .model import (TIME_VARYING, AugmentedCoeffs, ModelParams, build_augmented,
                    check_population_size, is_int, kron_eye, kron_mean)
from .ode import TimeGrid, blown_up, check_grid, matvec, trapezoid_nodes, trapezoid_weights
from .riccati import FeedbackLaw, OracleLaw

# full trajectory storage cap, in scalars (states + controls combined)
STORE_BUDGET = 2**28
# chunk caps in scalars: the noise of one chunk, and one state plane of a
# multi-plane pass (small enough to stay in cache, so run on the calling
# thread; see the module docstring)
NOISE_CHUNK_SCALARS = 2**24
PLANE_CHUNK_SCALARS = 2**15


def worker_count() -> int:
    env = os.environ.get("MFLQG_THREADS")
    try:
        count = int(env) if env else os.cpu_count() or 1
    except ValueError:
        count = 0
    if count < 1:
        raise SettingError(f"MFLQG_THREADS must be an integer >= 1, got {env!r}")
    return count


def check_seed(seed) -> None:
    """Raise SettingError unless seed is an integer in [0, 2**64), one key word."""
    if not (is_int(seed) and 0 <= seed < 2**64):
        raise SettingError(f"seed must be an integer in [0, 2**64), got {seed}")


def check_counts(n_paths: int, n_agents: int) -> None:
    """Raise SettingError unless both counts are integers of at least 1 that
    index within the 32 bits of a bank's key word."""
    if not (is_int(n_paths) and is_int(n_agents) and n_paths >= 1 and n_agents >= 1):
        raise SettingError(f"need at least one path and one agent, as integers, got "
                           f"{n_paths!r} paths and {n_agents!r} agents")
    if n_paths >= 2**32 or n_agents >= 2**32:
        raise SettingError("path/agent indices must fit in 32 bits")


def check_estimate_paths(n_paths: int, what: str) -> None:
    """Raise SettingError, naming ``what``, unless n_paths is an integer of at
    least 2: fewer paths give a Monte Carlo estimate no standard error."""
    if not (is_int(n_paths) and n_paths >= 2):
        raise SettingError(f"{what} needs at least 2 paths, got {n_paths!r}")


def standard_error(x: np.ndarray) -> np.ndarray:
    """The standard error of the mean of x over its last axis, one path per
    entry: the sample standard deviation (ddof 1) over the square root of the
    count.  Every Monte Carlo estimate of the package states this error."""
    return x.std(ddof=1, axis=-1) / np.sqrt(x.shape[-1])


@dataclass(frozen=True)
class NoiseBank:
    """Reproducible Brownian increments keyed by (seed, path, agent).

    Each (path, agent) pair owns an independent Philox stream keyed by the
    64-bit words (seed, path << 32 | agent), so a seed outside [0, 2**64)
    is refused, and so is a path outside [0, n_paths) when drawn;
    increments are N(0, dt) along the grid steps.
    """

    seed: int
    n_paths: int
    n_agents: int
    grid: TimeGrid

    def __post_init__(self):
        check_seed(self.seed)
        check_counts(self.n_paths, self.n_agents)

    def increments(self, path: int) -> np.ndarray:
        """(n_agents, steps) array of Brownian increments for one path."""
        return self.increments_block(range(path, path + 1))[0]

    def _check_paths(self, paths: range) -> None:
        """Raise SettingError unless every path of the range is one of the
        bank's, in [0, n_paths)."""
        if paths and not (0 <= min(paths) and max(paths) < self.n_paths):
            raise SettingError(f"paths {paths.start} to {paths.stop - 1} lie outside the "
                               f"bank's [0, {self.n_paths})")

    def increments_block(self, paths: range) -> np.ndarray:
        """(paths, n_agents, steps) increments of a range of the bank's paths.
        One bit generator serves the call: rewound to counter 0 under a
        stream's key, it is that stream."""
        self._check_paths(paths)
        bits = np.random.Philox(key=0)
        draw = np.random.Generator(bits).standard_normal
        key = [self.seed, 0]    # Python ints: the state setter reads them faster than arrays
        state = {**bits.state, "state": {"counter": [0] * 4, "key": key}, "buffer": [0] * 4}
        out = np.empty((len(paths), self.n_agents, self.grid.steps))
        words = [(path << 32) | agent for path in paths for agent in range(self.n_agents)]
        for word, row in zip(words, out.reshape(-1, self.grid.steps)):
            key[1] = word
            bits.state = state
            draw(out=row)
        out *= np.sqrt(self.grid.dt)
        return out

    def drawn_chunks(self):
        """The bank cut into noise chunks, in path order, each a bank of its
        own paths drawn once when the iteration reaches it: every simulation
        handed a chunk reads its increments in place.  Chunk boundaries are
        those of a simulation of all n_agents agents over the bank, so each
        simulation of a chunk runs the same operations as over the bank.
        """
        for paths in _chunks(self.n_paths, self.n_agents * self.grid.steps):
            yield _DrawnChunk(self.seed, len(paths), self.n_agents, self.grid,
                              self.increments_block(paths))

    def materialized(self) -> "NoiseBank":
        """The bank itself: its keyed streams regenerate any block bit for
        bit, so a pass that reads each chunk once holds only that chunk.
        The oracle's stationarity check draws its bank through this call,
        which perfbench patches to count the paths drawn.
        """
        return self


@dataclass(frozen=True, eq=False)
class _DrawnChunk(NoiseBank):
    """Paths of a bank, drawn: path j of the chunk is its first path + j,
    and its increments are read from dW without a copy."""

    dW: np.ndarray

    def increments_block(self, paths: range) -> np.ndarray:
        self._check_paths(paths)
        return self.dW[paths.start:paths.stop]


@dataclass
class SimResult:
    """Monte Carlo output: state-average paths, costs, optional trajectories."""

    grid: TimeGrid
    N: int
    n_paths: int
    seed: int
    xavg: np.ndarray                 # (paths, steps+1, n)
    J_i: np.ndarray | None           # (paths, N); centralized: only with xs stored
    J_soc: np.ndarray                # (paths,)
    xs: np.ndarray | None = None     # (paths, N, steps+1, n)
    us: np.ndarray | None = None     # (paths, N, steps+1, m)


@dataclass
class CostSummary:
    j_soc_paths: np.ndarray
    j_i_paths: np.ndarray


def _quad(dev: np.ndarray, M: np.ndarray) -> np.ndarray:
    # dev: (..., r, d), M: (d, d) or (..., d, d) -> (..., r)
    return ((dev @ M) * dev).sum(axis=-1)


def _chunks(n_paths: int, per_path_scalars: int, cap: int | None = None) -> list[range]:
    # Chunk boundaries depend only on sizes, never on the worker count: BLAS
    # kernels are not bit-stable across batch shapes, so the shapes must be
    # pinned for thread-count-independent output.  Plain simulations run
    # their chunks on the pool, a multi-plane pass in order on the calling thread.
    size = max(1, min(n_paths, (cap or NOISE_CHUNK_SCALARS) // max(1, per_path_scalars)))
    return [range(a, min(a + size, n_paths)) for a in range(0, n_paths, size)]


def _run_chunks(fn, chunks):
    workers = worker_count()
    if workers == 1 or len(chunks) == 1:
        return [fn(c) for c in chunks]
    with ThreadPoolExecutor(max_workers=workers) as ex:
        list(ex.map(fn, chunks))


def _check_bank(noise, grid: TimeGrid, N: int) -> None:
    check_population_size(N)
    check_grid(grid, "the law", {"the noise bank": noise})
    if noise.n_agents < N:
        raise GridMismatchError(f"noise bank holds {noise.n_agents} agents, need {N}")


def _quadratic(E, eta, W, K=None, a=None, R=None):
    """(H, l, c) with ||E z - eta||_W^2 + ||K z + a||_R^2 = z'Hz + 2 l'z + c,
    broadcast over leading axes."""
    Et, We = E.swapaxes(-1, -2), matvec(W, eta)
    H, l, c = Et @ W @ E, -matvec(Et, We), (eta * We).sum(axis=-1)
    if K is not None:
        Kt, Ra = K.swapaxes(-1, -2), matvec(R, a)
        H, l, c = H + Kt @ R @ K, l + matvec(Kt, Ra), c + (a * Ra).sum(axis=-1)
    return H, l, c


class _AgentFold:
    """A law u_i = Ga x_i + Gb xavg + a_i as per-agent tables; the
    decentralized law is Ga = Theta1, Gb = 0 and a = Theta2.

    The state is n planes of shape (N, P), one per coordinate.  maps[k]
    holds dt(A + B Ga), C + D Ga and the x block of the cost's H in
    z = (x_i, xavg), whose control part has K = [Ga, Gb]; the xavg terms act
    on the agent means, one column per path: mean_maps[k] =
    [dt(F + B Gb); Ftilde + D Gb; 2 H_x,avg; H_avg,avg] and offsets[k] =
    [dt B a; D a; 2 l].  Axes of a between its node and control axes (the
    stacked fold's agents, and its tangents' directions and agents) carry
    into offsets and c.  Ga, Gb and a are kept for stored controls.

    With ``base``, the law's affine broadcast against a, the fold is the
    law's tangent along the directions a: its cost has zero targets, and
    cross holds the node-weighted 2 base'R a, the constant of the cost's
    bilinear form between the law and its tangent.
    """

    def __init__(self, params: ModelParams, grid: TimeGrid, N: int, Ga, Gb, a, base=None):
        K, n, lead = len(Ga), Ga.shape[-1], a.shape[1:-1]
        A, B, C, D, F, Ft, Q, R, Gam, eta = (params.node_table(k, grid) for k in TIME_VARYING)
        targets = 1.0 if base is None else 0.0

        def wide(X):     # node tables against the lead axes of a
            return X.reshape((K,) + (1,) * len(lead) + X.shape[1:])

        # half the trapezoid-weighted running cost, plus half the terminal cost at the last node
        def weighted(run):
            return 0.5 * trapezoid_weights(grid).reshape((-1,) + (1,) * (run.ndim - 1)) * run

        E = np.concatenate([np.broadcast_to(np.eye(n), Gam.shape), -Gam], -1)
        running = _quadratic(wide(E), targets * wide(eta), wide(Q),
                             wide(np.concatenate([Ga, Gb], -1)), a, wide(R))
        H, l, self.c = (weighted(run) for run in running)
        for run, end in zip((H, l, self.c), _quadratic(
                np.hstack([np.eye(n), -params.GammaBar]), targets * params.etaBar, params.G)):
            run[-1] += 0.5 * end
        if base is not None:
            self.cross = weighted(2.0 * (base * matvec(wide(R), a)).sum(axis=-1))
        H = H.reshape(K, 2 * n, 2 * n)
        self.maps = np.concatenate([grid.dt * (A + B @ Ga), C + D @ Ga, H[:, :n, :n]], axis=1)
        self.mean_maps = np.concatenate([grid.dt * (F + B @ Gb), Ft + D @ Gb,
                                         2.0 * H[:, :n, n:], H[:, n:, n:]], axis=1)
        self.offsets = np.concatenate([grid.dt * matvec(wide(B), a), matvec(wide(D), a),
                                       2.0 * l], axis=-1)[..., None]
        self.Ga, self.Gb, self.a, self.xi0, self.N = Ga, Gb, a, params.xi0, N
        self.cost_shape = (N,)

    def diffuse(self, kick, dW):
        """kick *= dW_i, with dW the step's (N, P) increments."""
        kick *= dW

    def initial(self, P: int) -> np.ndarray:
        return np.repeat(self.xi0, self.N * P).reshape(-1, self.N, P)

    def node(self, k: int, X, Z):
        n = len(X)
        xb = X.mean(axis=1)
        Zb = self.mean_maps[k] @ xb + self.offsets[k]
        cost = np.einsum("j...,j...->...", Z[2 * n:] + Zb[2 * n:3 * n, None], X)
        cost += np.einsum("jp,jp->p", Zb[3 * n:], xb) + self.c[k]
        return xb, Zb[:n, None], Zb[n:2 * n, None], cost

    def states(self, X):
        return X.transpose(2, 1, 0)


class _StackedFold:
    """The oracle's law on the stacked state, laid out from one agent fold
    of Ga = K_dev, Gb = K_mean - K_dev and the law's affine in every agent,
    whose Ga, Gb and a it keeps.  An agent block X with its xavg block Y
    becomes I (x) X + 11'/N (x) Y: so do the drift and diffusion maps and
    the social cost's H, whose xavg block is 2 H_x,avg + H_avg,avg; maps[k]
    also sums each coordinate over the agents.  Agent i's offsets fill block
    i, the xavg part of 2 l is averaged over the agents, and c is summed.

    With ``directions`` (V, steps+1, Nm) the state's planes carry a lead
    axis: the law's plane and, after it, its tangent along each direction,
    the state's derivative along affine + h direction, which starts at zero
    and takes its offsets from the agent fold's tangent.  With the noise
    fixed the state is affine in h and the cost quadratic, so
    J(h) = J + h g + h^2 c / 2 on every path, and the costs are
    (J, g_1..g_V, c_1/2..c_V/2), each c/2 the tangent's own cost.
    """

    def __init__(self, aug: AugmentedCoeffs, law: OracleLaw, directions=None):
        N, n, m, K = aug.N, aug.params.n, aug.params.m, law.grid.steps + 1
        if law.N != N:
            raise InvalidNError(f"law solved for N = {law.N}, simulated with N = {N}")
        a = np.broadcast_to(law.affine.values[:, None], (K, N, m))
        K_dev = law.K_dev.values
        agent = _AgentFold(aug.params, law.grid, N, K_dev, law.K_mean.values - K_dev, a)
        own, avg = agent.maps.reshape(K, 3, n, n), agent.mean_maps.reshape(K, 4, n, n)

        def lay(X, Y):   # an agent block and its xavg block on the stacked coordinates
            return kron_eye(X, N) + kron_mean(Y, N)

        self.maps = np.concatenate([lay(own[:, 0], avg[:, 0]), lay(own[:, 1], avg[:, 1]),
                                    np.broadcast_to(np.tile(np.eye(n), N), (K, n, N * n)),
                                    lay(own[:, 2], avg[:, 2] + avg[:, 3])], axis=1)

        def planes(x):   # (K, *lead, N, r) -> (K, Nr, *lead, 1), a copy: the agent fold is freed
            return np.moveaxis(x.reshape(x.shape[:-2] + (-1,)), -1, 1).copy()[..., None]

        off, c = agent.offsets[..., 0], agent.c.sum(axis=-1)
        self.start = np.tile(agent.xi0, N)[:, None]
        self.tangents = directions is not None
        if self.tangents:
            tangent = _AgentFold(aug.params, law.grid, N, K_dev, agent.Gb,
                                 np.moveaxis(directions, 0, 1).reshape(K, -1, N, m), a[:, None])
            off = np.concatenate([off[:, None], tangent.offsets[..., 0]], axis=1)
            c = np.concatenate([c[:, None], tangent.cross.sum(axis=-1), tangent.c.sum(axis=-1)],
                               axis=1)
            zero = np.zeros((N * n, len(directions), 1))   # the tangents' start
            self.start = np.concatenate([self.start[:, None], zero], axis=1)
        self.lead = off.shape[1:-2]
        self.cost_shape = c.shape[1:]
        self.drift, self.diff = planes(off[..., :n]), planes(off[..., n:2 * n])
        self.lin = planes(off[..., 2 * n:3 * n] + off[..., 3 * n:].mean(axis=-2, keepdims=True))
        self.c = c[..., None]
        self.Ga, self.Gb, self.a, self.N, self.n = agent.Ga, agent.Gb, a, N, n

    def diffuse(self, kick, dW):
        """kick *= dW_i on agent i's n coordinates of every plane, with dW the
        step's (N, P) increments."""
        kick = kick.reshape((self.N, self.n) + kick.shape[1:])
        kick *= dW.reshape((self.N, 1) + (1,) * len(self.lead) + dW.shape[1:])

    def initial(self, P: int) -> np.ndarray:
        return np.broadcast_to(self.start, self.start.shape[:1] + self.lead + (P,)).copy()

    def node(self, k: int, X, Z):
        d = len(X)
        xb = Z[2 * d:2 * d + self.n] / self.N
        HX, lin = Z[2 * d + self.n:], self.lin[k]
        if not self.tangents:
            # x'Hx and 2 l'x as separate sums: adding the path-constant l to Hx
            # would round alike on every path
            cost = np.einsum("j...,j...->...", HX, X)
            cost += np.einsum("j...,j...->...", lin, X)
            return xb, self.drift[k], self.diff[k], cost + self.c[k]
        # H is not symmetric, so with W = HX + lin on every plane the law x
        # and its tangents Y give J = W_x'x, g = W_x'Y + W_Y'x and c/2 = W_Y'Y,
        # each before its node constant; _em reads no cost row of Z after this
        HX += lin
        x, Y, Wx, WY = X[:, 0], X[:, 1:], HX[:, 0], HX[:, 1:]
        V = Y.shape[1]
        cost = np.empty(self.cost_shape + x.shape[-1:])
        np.einsum("jp,jp->p", Wx, x, out=cost[0])
        np.einsum("jp,jvp->vp", Wx, Y, out=cost[1:V + 1])
        cost[1:V + 1] += np.einsum("jvp,jp->vp", WY, x)
        np.einsum("jvp,jvp->vp", WY, Y, out=cost[V + 1:])
        cost += self.c[k]
        return xb, self.drift[k], self.diff[k], cost

    def states(self, X):
        return X.reshape(self.N, self.n, -1).transpose(2, 0, 1)


def _em(fold, dW: np.ndarray, kind: str, record=None) -> np.ndarray:
    """The Euler-Maruyama kernel: the costs, shape (*fold.cost_shape, P), of one chunk.

    dW is the chunk's (P, N, steps) increments; every agent starts at xi0 (a
    tangent plane at zero).  Each step gathers its (N, P) increments once:
    broadcast over the kick straight from dW, whose paths lie N * steps
    apart, they took twice as long as the gather over the 6 planes of the
    oracle's stationarity check, and no less on one plane.
    At node k the product Z = maps[k] X, written into one buffer for the
    chunk, holds the drift increments, the diffusion coefficients and the
    cost forms without their offsets; fold.node(k, X, Z) gives the agent
    means, the two offsets and the node's cost.  record(k, X, xavg) sees
    every node.  Each node's peak |agent mean| is kept, and once the chunk
    is stepped ``ode.blown_up`` judges them all: the first node past its
    bound, or NaN or Inf, is named, and the overflow that may follow it in
    the chunk's later steps warns of nothing.
    """
    X = fold.initial(len(dW))
    d, steps = len(X), dW.shape[-1]
    run = np.zeros(fold.cost_shape + X.shape[-1:])
    Z = np.empty((len(fold.maps[0]),) + X.shape[1:])
    product, state = Z.reshape(len(Z), -1), X.reshape(d, -1)
    peak = np.empty(steps + 1)
    with np.errstate(all="ignore"):
        for k in range(steps + 1):
            np.matmul(fold.maps[k], state, out=product)
            xb, drift, diff, cost = fold.node(k, X, Z)
            peak[k] = np.abs(xb).max()
            if record is not None:
                record(k, X, xb)
            run += cost
            if k < steps:
                inc, kick = Z[:d], Z[d:2 * d]
                inc += drift
                kick += diff
                fold.diffuse(kick, np.ascontiguousarray(dW[..., k].T))
                inc += kick
                X += inc
        bad = np.flatnonzero(blown_up(peak[:, None], axis=1))
    if bad.size:
        raise NonFiniteError(f"{kind} simulation blew up at step {bad[0]}")
    return run


def _simulate(params, noise, N, store, kind, fold) -> tuple[SimResult, np.ndarray]:
    """The run's result, its costs left unset, and the kernel's costs."""
    n, m, M, n_paths = params.n, params.m, noise.grid.steps, noise.n_paths
    storing = n_paths * N * (M + 1) * (n + m) <= STORE_BUDGET if store is None else bool(store)
    xavg = np.empty((n_paths, M + 1, n))
    xs = np.empty((n_paths, N, M + 1, n)) if storing else None
    us = np.empty((n_paths, N, M + 1, m)) if storing else None

    J = np.empty(fold.cost_shape + (n_paths,))

    def run(chunk: range):
        sl = slice(chunk.start, chunk.stop)

        def record(k, X, xb):
            xavg[sl, k] = xb.T
            if storing:   # u_i = Ga x_i + Gb xavg + a_i: the one control rule
                x = xs[sl, :, k] = fold.states(X)
                u = np.tensordot(fold.Ga[k], x.T, 1) + (fold.Gb[k] @ xb)[:, None]
                us[sl, :, k] = u.T + fold.a[k]

        J[..., sl] = _em(fold, noise.increments_block(chunk)[:, :N, :], kind, record)

    _run_chunks(run, _chunks(n_paths, N * M))
    return SimResult(grid=noise.grid, N=N, n_paths=n_paths, seed=noise.seed, xavg=xavg,
                     J_i=None, J_soc=None, xs=xs, us=us), J


def simulate_decentralized(params: ModelParams, law: FeedbackLaw, N: int,
                           noise: NoiseBank, store: bool | None = None) -> SimResult:
    """Simulate all N agents under u_i = Theta1 x_i + Theta2, common start xi0.

    The state-average is recomputed from the current states at every step and
    feeds both drift and diffusion.
    """
    _check_bank(noise, law.grid, N)
    Th1 = law.Theta1.values
    fold = _AgentFold(params, law.grid, N, Th1, np.zeros_like(Th1), law.Theta2.values)
    res, J = _simulate(params, noise, N, store, "decentralized", fold)
    res.J_i = np.ascontiguousarray(J.T)
    res.J_soc = res.J_i.sum(axis=1)
    return res


def simulate_centralized(aug: AugmentedCoeffs, law: OracleLaw, noise: NoiseBank,
                         store: bool | None = None) -> SimResult:
    """Simulate the stacked system under the centralized law u = gain x + affine.

    The stacked state is the per-agent state in nN coordinates, so its social
    cost is directly comparable with the decentralized run under the same
    noise bank.  Per-agent costs J_i are recomputed from stored trajectories.
    """
    _check_bank(noise, law.grid, aug.N)
    fold = _StackedFold(aug, law)
    res, J_soc = _simulate(aug.params, noise, aug.N, store, "centralized", fold)
    res.J_soc = J_soc
    if res.xs is not None:
        res.J_i = social_cost(res, aug.params).j_i_paths
    return res


def centralized_tangents(aug: AugmentedCoeffs, law: OracleLaw, directions: np.ndarray,
                         noise: NoiseBank) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The law's J_soc (paths,) with its derivative g and curvature c (V, paths)
    along each per-agent direction: J_soc(h) = J_soc + h g + h^2 c / 2 exactly
    on every path under u = gain x + affine + h directions[v].

    directions is (V, steps+1, Nm); any other shape raises SettingError.  The
    law and its V tangents run as one pass of 1 + V planes over the bank, cut
    into PLANE_CHUNK_SCALARS chunks that run in order on the calling thread,
    never the pool: see the module docstring.  The tests' reference is the
    Euler-Maruyama loop written from the model equations, run at h = +-1.
    """
    _check_bank(noise, law.grid, aug.N)
    want = (law.grid.steps + 1, aug.N * aug.params.m)
    if np.ndim(directions) != 3 or np.shape(directions)[1:] != want:
        raise SettingError(f"directions must be (V, steps+1, Nm) = (V, {want[0]}, {want[1]}), "
                           f"got shape {np.shape(directions)}")
    V = len(directions)
    fold = _StackedFold(aug, law, directions)
    costs = np.concatenate([
        _em(fold, noise.increments_block(chunk)[:, :aug.N, :], "centralized")
        for chunk in _chunks(noise.n_paths, (1 + V) * aug.N, PLANE_CHUNK_SCALARS)
    ], axis=-1)
    return costs[0], costs[1:1 + V], 2.0 * costs[1 + V:]


def social_cost(result: SimResult, params: ModelParams) -> CostSummary:
    """Recompute the social cost from stored trajectories (trapezoid rule).

    J_i = 1/2 [ int ||x_i - Gamma xavg - eta||_Q^2 + ||u_i||_R^2 dt
                + ||x_i(T) - GammaBar xavg(T) - etaBar||_G^2 ],
    J_soc = sum_i J_i, both per path: j_soc_paths (paths,) and j_i_paths
    (paths, N).  The weights are read at the run's nodes; time-varying ones
    sampled on another grid raise GridMismatchError.
    """
    if result.xs is None or result.us is None:
        raise MissingTrajectoriesError("full trajectories were not stored for this run")
    grid = result.grid
    Qt, Rt, Gt, et = (params.node_table(k, grid) for k in ("Q", "R", "Gamma", "eta"))
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
    return CostSummary(j_soc_paths=j_i.sum(axis=1), j_i_paths=j_i)


def stacked_social_cost(params: ModelParams, N: int, xs: np.ndarray,
                        us: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Social cost per path evaluated through the stacked quadratic form.

    1/2 [ int x'Qx + 2 S1'x + N eta'Q eta + u'Ru dt
          + x(T)'G x(T) + 2 S2'x(T) + N etaBar'G etaBar ]

    with the stacked weight matrices; used as the cross-check that the lifted
    cost really is the sum of the per-agent costs.
    """
    P, _, nodes, n = xs.shape
    # node axis first, so a weight sampled per node meets its own node's rows
    x_st = xs.transpose(2, 0, 1, 3).reshape(nodes, P, N * n)
    u_st = us.transpose(2, 0, 1, 3).reshape(nodes, P, N * us.shape[-1])
    s = build_augmented(params, N, grid)
    eta, Q = params.node_table("eta", grid), params.node_table("Q", grid)
    integ = (_quad(x_st, s.Q) + 2.0 * (x_st * s.S1[..., None, :]).sum(axis=-1)
             + N * np.einsum("ki,kij,kj->k", eta, Q, eta)[:, None] + _quad(u_st, s.R))
    xT = x_st[-1]
    terminal = (_quad(xT, s.G) + 2.0 * xT @ s.S2
                + N * params.etaBar @ params.G @ params.etaBar)
    return 0.5 * (trapezoid_nodes(integ, grid) + terminal)
