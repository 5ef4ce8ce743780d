"""Fixed-step ODE kernel and symmetric linear-algebra helpers.

Everything downstream (Riccati solves, consistency-condition decoupling,
mean-field extraction) runs on one uniform time grid, integrated with
classical fourth-order Runge-Kutta in either direction.  The step is fixed on
purpose: reproducibility and exact node alignment with the Euler-Maruyama
simulator matter more here than adaptive efficiency.

Every sweep walks the grid through :func:`sweep_chunks`, LINEAR_CHUNK_STEPS
steps at a time, and samples the equation once at each of a chunk's 2c+1
distinct stage times (:class:`StageTimes`): step j of the chunk reads its
stages t_k, t_k + h/2 (taken by both middle stages) and t_{k+1} from rows
2j, 2j+1 and 2j+2.  RK4 stages are only nodes and midpoints (Hairer, Norsett
& Wanner, Solving ODEs I, sec. II.1), so a sampler reads any node table
(trajectories, time-varying coefficients, the consistency-condition blocks,
several of one shape stacked on an axis after time) through the one stage
reader :func:`stage_samples`: the chunk's node rows, and their means at the
midpoints.  :func:`interp` reads that piecewise-linear interpolant at other
times: AugmentedCoeffs.at and the quarter points of the consistency
condition's half-step sweep.

* :func:`integrate_rk4` calls a right-hand side at every stage time.  It
  serves acceptance 01 and the tests' reference sweeps; the nonlinear
  Riccati equations of P and of the oracle's two modes step their own loop
  on Python floats (riccati._riccati_sweep), on the same chunks, stage
  times and blow-up checks.
* :func:`integrate_linear` takes a linear equation dy/dt = M(t) y + s(t) as a
  function that samples M and s on many times at once, optionally for a
  batch of equations on leading axes of the state.  One RK4 step of a linear
  equation is an affine map y -> (I + D) y + g, so the maps are built in
  batched chunks and the step loop does one matrix product per step.  The
  affine kappa, the condition-37 transition matrix, the mean path X1, the phi
  cross-check, the closed-form K of the reduced case, the adjoints phi of
  the auxiliary problem and of the oracle's mean mode, and the Lyapunov
  kernels of every N run on it.  The Lyapunov equations multiply their
  matrix state from both sides; written on its row-major vec by the one
  Kronecker rule :func:`kron_vec`, vec(X U Y) = (X (x) Y') vec U, they
  multiply from the left only, as does the P right-hand side.
  :func:`linear_chunk` steps one chunk of such maps from a given state: the
  non-symmetric Riccati equation of the consistency condition's K runs on it
  as the image V U^-1 of a linear pair [U; V], which its caller re-anchors
  at U = I after every chunk.

Blow-up (NaN/Inf or max-norm past BLOWUP_NORM) raises NonFiniteError instead
of being clipped; a diverging backward Riccati solve is how non-solvability
on [0, T] manifests and callers need to see it.  Both sweeps check it by
:func:`check_nodes` once a chunk is stepped.  :func:`blown_up` and
:func:`asymmetry` are the package's only blow-up and symmetry rules, and
only this module calls the symmetric eigensolver: :func:`eig_min_at` gives
every positivity verdict its number, at the nodes and RK4 stages of the
Riccati sweeps and in the convexity certificates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError, NotSymmetricError

BLOWUP_NORM = 1e12
SYM_TOL_SCALE = 1e-8
# steps per chunk of every sweep (sweep_chunks): bounds the tables of stage
# samples and step maps, while each chunk pays its sampling and batched
# assembly once
LINEAR_CHUNK_STEPS = 128


def is_int(value) -> bool:
    """An int or a numpy integer, never a bool: the one rule by which a
    count, a size or a seed is an integer."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_0 = 0 < ... < t_M = T with step dt = T/M."""

    T: float
    steps: int

    def __post_init__(self):
        if not (is_int(self.steps) and self.steps >= 2):
            raise ValueError(f"need an integer of at least 2 steps, got {self.steps!r}")
        if not (np.isfinite(self.T) and self.T > 0):
            raise ValueError(f"horizon must be positive and finite, got {self.T}")

    @property
    def dt(self) -> float:
        return self.T / self.steps

    @property
    def nodes(self) -> np.ndarray:
        # linspace pins the endpoint to T exactly
        return np.linspace(0.0, self.T, self.steps + 1)


def interp(table: np.ndarray, dt: float, t) -> np.ndarray:
    """Piecewise-linear interpolant at time t of node samples ``table[k]``.

    ``table`` holds the samples at t_k = k dt along axis 0; every other axis is
    carried along.  The interval and its weight come from u = t / dt.  Where
    u is an exact integer k the result is the sample ``table[k]`` itself (a
    view of it, for a single time).  A node time need not give one: the node
    t_k is k dt rounded, and t_k / dt can miss k by an ulp (it does at 17 of
    the 201 nodes of T = 1 at 200 steps); the result then mixes the two
    neighbouring samples with a weight of order 1e-16.  t outside [0, T]
    extrapolates from the first or last interval.  An array of times gives
    the interpolants stacked on the leading axes of the result, in the shape
    of t.
    """
    u = t / dt
    last = table.shape[0] - 2
    if np.ndim(u) == 0:
        i = min(max(math.floor(u), 0), last)
        w = u - i
        if w == 0.0:
            return table[i]
    else:
        i = np.clip(np.floor(u).astype(np.intp), 0, last)
        w = (u - i).reshape(u.shape + (1,) * (table.ndim - 1))
    return (1.0 - w) * table[i] + w * table[i + 1]


class Trajectory:
    """Values sampled at every grid node.

    ``values[k]`` is the sample at node k; shape is (steps+1, *shape).
    :func:`stage_samples` reads them at a sweep's stage times and
    :func:`interp` at any other time.
    """

    def __init__(self, grid: TimeGrid, values, check: bool = True):
        values = np.asarray(values, dtype=float)
        if values.shape[:1] != (grid.steps + 1,):
            raise ValueError(f"expected {grid.steps + 1} samples, got shape {values.shape}")
        if check and not np.all(np.isfinite(values)):
            raise NonFiniteError("trajectory contains non-finite samples")
        self.grid = grid
        self.values = values

    @property
    def shape(self):
        return self.values.shape[1:]

    @property
    def initial(self) -> np.ndarray:
        return self.values[0]

    @property
    def terminal(self) -> np.ndarray:
        return self.values[-1]


def blown_up(y: np.ndarray, axis=None):
    """Whether y holds a NaN, an Inf or an entry past BLOWUP_NORM (one bool),
    or each slice of y over ``axis`` does."""
    # a NaN or Inf entry makes the max NaN or Inf, which fails the comparison
    return ~(np.abs(y).max(axis=axis, initial=0.0) <= BLOWUP_NORM)


def check_boundary(y: np.ndarray):
    """NonFiniteError if a sweep's boundary value y has blown up."""
    if blown_up(y):
        raise NonFiniteError("blow-up detected in the boundary value")


def check_nodes(out: np.ndarray, ks: np.ndarray):
    """NonFiniteError naming the first of the nodes ks (in their order) whose
    sample in ``out`` blew up."""
    bad = np.flatnonzero(blown_up(out[ks], axis=tuple(range(1, out.ndim))))
    if bad.size:
        raise NonFiniteError(f"blow-up detected at node {ks[bad[0]]}")


def sweep_chunks(grid: TimeGrid, direction: str):
    """The step h of a sweep (dt, or -dt backward) and an iterator over its
    chunks of LINEAR_CHUNK_STEPS steps (read at call time), in sweep order.

    Each chunk is a pair (ks, ts): the start nodes ks of its c steps, and
    their 2c+1 distinct stage times ts (:func:`distinct_stage_times`).  The
    sweep starts from node 0 forward and from node ``grid.steps`` backward,
    and step k ends at node k + 1 forward and k - 1 backward.
    """
    if direction not in ("forward", "backward"):
        raise ValueError(f"unknown direction {direction!r}")
    steps, nodes, chunk = grid.steps, grid.nodes, LINEAR_CHUNK_STEPS
    h = grid.dt if direction == "forward" else -grid.dt
    order = np.arange(steps) if h > 0 else np.arange(steps, 0, -1)
    ks_all = (order[start:start + chunk] for start in range(0, steps, chunk))
    return h, ((ks, distinct_stage_times(nodes, ks, h)) for ks in ks_all)


def integrate_rk4(rhs, boundary_value, grid: TimeGrid, direction: str = "forward",
                  project=None) -> Trajectory:
    """Classical RK4 sweep over the grid, storing the value at every node.

    rhs(t, y) -> dy/dt at the stage time t: t_k, t_k + h/2 or t_{k+1}, the
    distinct stage times of :func:`sweep_chunks`.
    ``direction='backward'`` anchors the boundary value at t_M and fills
    nodes down to t_0.  ``project`` is applied after each step (the tests'
    matrix-form Riccati references re-symmetrize their iterates with it).
    Blow-up is checked once a chunk is stepped; a stage that raises past a
    blown-up node raises its error.
    """
    h, chunks = sweep_chunks(grid, direction)
    y0 = np.asarray(boundary_value, dtype=float)
    check_boundary(y0)
    half, sixth = 0.5 * h, h / 6.0
    shift = 1 if h > 0 else -1
    out = np.empty((grid.steps + 1,) + y0.shape)
    out[0 if h > 0 else grid.steps] = y0
    y = y0
    for ks, ts in chunks:
        ts, ends, done = ts.tolist(), ks + shift, 0
        try:
            with np.errstate(all="ignore"):
                for k, t1, t2, t4 in zip(ends.tolist(), ts[:-1:2], ts[1::2], ts[2::2]):
                    k1 = rhs(t1, y)
                    k2 = rhs(t2, y + half * k1)
                    k3 = rhs(t2, y + half * k2)
                    k4 = rhs(t4, y + h * k3)
                    y = y + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                    if project is not None:
                        y = project(y)
                    out[k] = y
                    done += 1
        finally:    # the nodes stepped, also before a step that raised
            check_nodes(out, ends[:done])
    return Trajectory(grid, out, check=False)


def _step_maps(M: np.ndarray, s: np.ndarray | None, h: float):
    """Increment maps of RK4 steps of dy/dt = M y + s: y_next = y + D y + g.

    M is (2c+1, ..., d, d) and s (2c+1, ..., d, c) or None, sampled at the
    distinct stage times of c steps in step order (node, midpoint, node, ...),
    with any batch axes in between; step j reads its stages t_k, t_k + h/2
    (taken by both middle stages) and t_{k+1} from rows 2j, 2j+1 and 2j+2.
    """
    M1, M2, M4 = M[:-1:2], M[1::2], M[2::2]
    K2 = M2 + (0.5 * h) * (M2 @ M1)
    K3 = M2 + (0.5 * h) * (M2 @ K2)
    K4 = M4 + h * (M4 @ K3)
    D = (h / 6.0) * (M1 + 2.0 * K2 + 2.0 * K3 + K4)
    if s is None:
        return D, None
    s1, s2, s4 = s[:-1:2], s[1::2], s[2::2]
    g2 = M2 @ ((0.5 * h) * s1) + s2
    g3 = M2 @ ((0.5 * h) * g2) + s2
    g4 = M4 @ (h * g3) + s4
    return D, (h / 6.0) * (s1 + 2.0 * g2 + 2.0 * g3 + g4)


class StageTimes(np.ndarray):
    """A chunk's stage times, with ``rows``, the slice of its nodes in step order."""


def distinct_stage_times(nodes: np.ndarray, ks: np.ndarray, h: float) -> StageTimes:
    """(2c+1,) distinct stage times of the c consecutive steps of size h from
    the nodes ks, in step order: t_k0, t_k0 + h/2, t_k1, ..., the end node.
    Node times are the grid's nodes themselves."""
    first, end = int(ks[0]), int(ks[-1]) + (1 if h > 0 else -1)
    ts = np.empty(2 * ks.size + 1).view(StageTimes)
    ts.rows = slice(first, end + 1) if h > 0 else slice(first, end - 1 if end else None, -1)
    ts[0::2] = nodes[ts.rows]
    ts[1::2] = nodes[ks] + 0.5 * h
    return ts


def stage_samples(table: np.ndarray, ts: StageTimes) -> np.ndarray:
    """A node table's samples (``table[k]`` at node k, other axes carried
    along) at a chunk's stage times ts: its node rows, one slice, and their
    means at the midpoints, which :func:`interp` gives up to rounding."""
    rows = table[ts.rows]
    out = np.empty((ts.size,) + rows.shape[1:])
    out[0::2] = rows
    out[1::2] = 0.5 * (rows[:-1] + rows[1:])
    return out


def _chunk_states(D: np.ndarray, g: np.ndarray | None, y: np.ndarray) -> np.ndarray:
    """The states after each step y -> (I + D_j) y + g_j of a chunk (no g_j
    where g is None), from y, one product per step; D is overwritten by
    I + D.  Nothing is checked."""
    d = np.arange(D.shape[-1])
    D[..., d, d] += 1.0
    out = np.empty((len(D),) + y.shape)
    with np.errstate(all="ignore"):
        for j in range(len(D)):
            y = np.matmul(D[j], y, out=out[j])
            if g is not None:
                y += g[j]
    return out


def linear_chunk(M: np.ndarray, y0: np.ndarray, h: float) -> np.ndarray:
    """States after each RK4 step of one chunk of dy/dt = M(t) y from y0.

    M (2c+1, d, d) samples the equation at the distinct stage times of c
    steps of size h (:func:`distinct_stage_times`), and y0 is (d,) or (d, q).
    Returns the c states at the steps' end nodes, (c,) + y0.shape, stepped
    as :func:`integrate_linear` steps them.  Nothing is checked: the caller
    reads the states and names where they fail.
    """
    with np.errstate(all="ignore"):
        D, _ = _step_maps(M, None, h)
    return _chunk_states(D, None, y0)


def integrate_linear(coeffs, boundary_value, grid: TimeGrid,
                     direction: str = "forward") -> Trajectory:
    """Classical RK4 sweep of the linear equation dy/dt = M(t) y + s(t).

    ``coeffs(ts)`` samples the equation at a 1-D array ``ts`` of times and
    returns ``(M, s)``: M of shape ts.shape + batch + (d, d), and s of shape
    ts.shape + y.shape, or None when the equation has no source.  It is
    called once per chunk of steps, with the chunk's distinct stage times
    (:func:`distinct_stage_times`).  The state y has shape batch + (d,) or
    batch + (d, c): a vector or a matrix that M multiplies from the left, for
    each entry of the leading batch axes.  ``batch`` is read off M and may be
    empty; a batch axis of s may be 1 where every entry shares the source.

    One RK4 step of a linear equation is exactly an affine map
    y -> (I + D_k) y + g_k, D_k a degree-4 polynomial in h M at the step's
    stage times.  The maps are built LINEAR_CHUNK_STEPS steps at a time with
    batched products, so the step loop makes one (batched) matrix product
    per step and holds coefficient tables for one chunk only.  Building a map costs
    O(d^3) against O(d^2 c) for one stage of :func:`integrate_rk4`.  The
    result equals :func:`integrate_rk4` on the same equation up to rounding,
    does not depend on the chunk size, and gives each batch entry exactly the
    operations of a sweep of its own.  Blow-up (over all batch entries) is
    checked at every node once a chunk is stepped, and named by the first
    failing node in step order; stepping past it inside the chunk warns of
    nothing.
    """
    h, chunks = sweep_chunks(grid, direction)
    y0 = np.asarray(boundary_value, dtype=float)
    check_boundary(y0)
    shift = 1 if h > 0 else -1
    out = np.empty((grid.steps + 1,) + y0.shape)
    first = 0 if h > 0 else grid.steps
    out[first] = y0
    cols = None
    for ks, ts in chunks:
        M, s = coeffs(ts)
        if cols is None:
            # node axis, then M's batch axes, then the state as (d, c); a
            # vector state is a single column
            cols = out.reshape(out.shape[:M.ndim - 2] + (y0.shape[M.ndim - 3:] + (1,))[:2])
            y = cols[first]
        if s is not None:
            s = np.reshape(s, s.shape[:M.ndim - 2] + y.shape[-2:])
        cols[ks + shift] = _chunk_states(*_step_maps(M, s, h), y)
        y = cols[ks[-1] + shift]
        check_nodes(out, ks + shift)
    return Trajectory(grid, out, check=False)


def quadrature(traj: Trajectory) -> float:
    """Composite trapezoid rule over the trajectory's grid.

    Works on scalar samples and on arrays (integrates along the time axis).
    """
    v = traj.values
    if not np.all(np.isfinite(v)):
        raise NonFiniteError("quadrature input contains non-finite samples")
    return trapezoid_nodes(v, traj.grid)


def trapezoid_nodes(values: np.ndarray, grid: TimeGrid):
    """Trapezoid rule on node samples (time along axis 0)."""
    v = np.asarray(values, dtype=float)
    return grid.dt * (v.sum(axis=0) - 0.5 * (v[0] + v[-1]))


def matvec(M: np.ndarray, x: np.ndarray) -> np.ndarray:
    """M x over leading axes: matrices (..., d, c) times vectors (..., c)."""
    return (M @ x[..., None])[..., 0]


def kron_vec(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """X (x) Y', the matrix of U -> X U Y on the row-major vec of U (Magnus &
    Neudecker, ch. 2): X is (..., p, q), Y (..., r, s), U q x r and the
    result (..., p s, q r), the leading axes broadcasting.  Each entry is
    one product of an entry of X and one of Y."""
    prod = X[..., :, None, :, None] * np.swapaxes(Y, -1, -2)[..., None, :, None, :]
    p, s, q, r = prod.shape[-4:]
    return prod.reshape(prod.shape[:-4] + (p * s, q * r))


def symmetrize(S: np.ndarray) -> np.ndarray:
    """(S + S')/2 of a matrix or of a stack of matrices (last two axes)."""
    return 0.5 * (S + np.swapaxes(S, -1, -2))


def asymmetry(S: np.ndarray) -> str | None:
    """None when each square matrix S_k of S (a stack on the leading axes)
    has max|S_k - S_k'| within SYM_TOL_SCALE (1 + max|S_k|), its own scale,
    which no larger matrix beside it loosens; else the first failure, naming
    node k (flat over the leading axes) in a stack."""
    tol = SYM_TOL_SCALE * (1.0 + np.abs(S).max(axis=(-2, -1), initial=0.0))
    asym = np.abs(S - np.swapaxes(S, -1, -2)).max(axis=(-2, -1), initial=0.0)
    bad = np.flatnonzero(asym > tol)
    if not bad.size:
        return None
    k, where = bad[0], f" at node {bad[0]}" if S.ndim > 2 else ""
    return f"asymmetry {asym.flat[k]:.3e} exceeds tolerance {tol.flat[k]:.3e}{where}"


def eigvals_sym(S: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a (nearly) symmetric matrix, or of each matrix
    of a stack (last two axes).

    The input is symmetrized after :func:`asymmetry`'s check; the contract is
    the Rayleigh bound lam_min ||x||^2 <= x'Sx <= lam_max ||x||^2.
    """
    S = np.asarray(S, dtype=float)
    if S.ndim < 2 or S.shape[-1] != S.shape[-2]:
        raise NotSymmetricError(f"expected a square matrix, got shape {S.shape}")
    if (fault := asymmetry(S)) is not None:
        raise NotSymmetricError(fault)
    return np.linalg.eigvalsh(symmetrize(S))


def eig_min_at(S: np.ndarray) -> tuple[float, int]:
    """Smallest eigenvalue of a nearly symmetric matrix, or the smallest over
    a stack of them (last two axes), after symmetrizing without a check, and
    the flat index over the leading axes of the matrix that holds it (0 for
    one matrix, the first on a tie): every regularity margin, at a node or at
    an RK4 stage, and every convexity witness is this number."""
    lams = np.linalg.eigvalsh(symmetrize(S))[..., 0]
    k = int(np.argmin(lams))
    return float(lams.flat[k]), k


def eig_min(S: np.ndarray) -> float:
    """The value of :func:`eig_min_at`."""
    return eig_min_at(S)[0]
