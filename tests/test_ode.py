"""Kernel tests: RK4 against closed forms, trapezoid rule, symmetric eigs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mflqg import ode
from mflqg.errors import NonFiniteError, NotSymmetricError, RegularityLostError
from mflqg.ode import (
    TimeGrid,
    Trajectory,
    eig_min,
    eig_min_at,
    eigvals_sym,
    integrate_linear,
    integrate_rk4,
    interp,
    kron_vec,
    quadrature,
    stage_samples,
    sweep_chunks,
    trapezoid_nodes,
)


def test_grid_nodes_hit_endpoint_exactly():
    g = TimeGrid(1.0, 1000)
    assert g.nodes[0] == 0.0
    assert g.nodes[-1] - 1.0 == 0.0
    assert np.all(np.diff(g.nodes) > 0)


def test_grid_rejects_tiny_step_counts():
    with pytest.raises(ValueError):
        TimeGrid(1.0, 1)


@pytest.mark.parametrize("steps", [2.5, 3.0, True, np.float64(4.0)])
def test_grid_rejects_a_step_count_that_is_not_an_integer(steps):
    with pytest.raises(ValueError, match="need an integer of at least 2 steps"):
        TimeGrid(1.0, steps)


def test_grid_takes_a_numpy_integer_step_count():
    assert np.array_equal(TimeGrid(1.0, np.int64(5)).nodes, TimeGrid(1.0, 5).nodes)


def test_zero_rhs_gives_constant_trajectory():
    g = TimeGrid(2.0, 10)
    X0 = np.array([[1.0, 2.0], [3.0, 4.0]])
    traj = integrate_rk4(lambda t, y: np.zeros_like(y), X0, g)
    assert np.allclose(traj.values, X0, atol=0.0)


def test_exponential_forward():
    g = TimeGrid(1.0, 1000)
    traj = integrate_rk4(lambda t, y: y, np.array(1.0), g)
    assert abs(traj.terminal - np.e) < 1e-9


def test_linear_backward():
    # p' = -(2p + 1), p(1) = 0  ->  p(0) = (e^2 - 1)/2
    g = TimeGrid(1.0, 1000)
    traj = integrate_rk4(lambda t, p: -(2.0 * p + 1.0), np.array(0.0), g, "backward")
    assert traj.terminal == 0.0
    assert abs(traj.initial - (np.e**2 - 1.0) / 2.0) < 1e-8


def test_rk4_order_on_exponential():
    errs = []
    for M in (100, 200):
        traj = integrate_rk4(lambda t, y: y, np.array(1.0), TimeGrid(1.0, M))
        errs.append(abs(traj.terminal - np.e))
    assert errs[0] / errs[1] >= 12.0


def test_backward_forward_round_trip():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((3, 3)) * 0.5
    g = TimeGrid(1.0, 500)
    terminal = rng.standard_normal(3)
    back = integrate_rk4(lambda t, y: A @ y, terminal, g, "backward")
    fwd = integrate_rk4(lambda t, y: A @ y, back.initial, g, "forward")
    assert np.max(np.abs(fwd.terminal - terminal)) < 1e-8


def test_blowup_raises_nonfinite():
    g = TimeGrid(1.0, 100)
    with pytest.raises(NonFiniteError):
        integrate_rk4(lambda t, y: y * y, np.array(3.0), g)


def test_interpolation_exact_at_nodes_and_linear_between():
    g = TimeGrid(1.0, 4)
    table = np.array([0.0, 1.0, 4.0, 9.0, 16.0])
    assert interp(table, g.dt, 0.25) == 1.0
    assert interp(table, g.dt, 0.375) == pytest.approx(2.5)
    assert interp(table, g.dt, 1.0) == 16.0


def test_interp_array_of_times_equals_scalar_calls():
    rng = np.random.default_rng(11)
    g = TimeGrid(1.5, 30)
    table = rng.standard_normal((g.steps + 1, 3, 2))
    ts = np.concatenate([g.nodes[::4], rng.uniform(-0.2, 1.7, 40)]).reshape(2, -1)
    got = interp(table, g.dt, ts)
    assert got.shape == ts.shape + (3, 2)
    want = np.stack([[interp(table, g.dt, t) for t in row] for row in ts])
    assert np.array_equal(got, want)


def _linear_system(rng, d, cols, source):
    """Random smooth time-varying dy/dt = M(t) y + s(t), callable on a time or
    on an array of times; cols = None gives a vector state."""
    M0, M1, M2 = (rng.standard_normal((d, d)) for _ in range(3))
    shape = (d,) if cols is None else (d, cols)
    s0, s1 = (rng.standard_normal(shape) for _ in range(2))

    def M(t):
        t = np.asarray(t)[..., None, None]
        return M0 + t * M1 + np.sin(3.0 * t) * M2

    def s(t):
        t = np.asarray(t).reshape(np.shape(t) + (1,) * len(shape))
        return np.cos(2.0 * t) * s0 + t * s1

    def rhs(t, y):
        dy = M(t) @ y
        return dy + s(t) if source else dy

    def coeffs(ts):
        return M(ts), (s(ts) if source else None)

    return rhs, coeffs, rng.standard_normal(shape)


@pytest.mark.parametrize("source", [True, False], ids=["source", "homogeneous"])
@pytest.mark.parametrize("direction", ["forward", "backward"])
@pytest.mark.parametrize("cols", [None, 3], ids=["vector", "matrix"])
def test_integrate_linear_matches_stagewise_rk4(cols, direction, source):
    rng = np.random.default_rng(17)
    g = TimeGrid(1.3, 300)
    for d in (1, 4):
        rhs, coeffs, y0 = _linear_system(rng, d, cols, source)
        old = integrate_rk4(rhs, y0, g, direction).values
        new = integrate_linear(coeffs, y0, g, direction).values
        assert new.shape == old.shape
        assert np.max(np.abs(new - old)) <= 1e-12 * (1.0 + np.max(np.abs(old)))


@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_integrate_linear_blowup_names_the_same_node(direction):
    g = TimeGrid(1.0, 100)
    rate = 40.0 if direction == "forward" else -40.0
    y0 = np.array([1.0, 0.5])

    def coeffs(ts):
        return np.broadcast_to(rate * np.eye(2), ts.shape + (2, 2)), None

    with pytest.raises(NonFiniteError) as old:
        integrate_rk4(lambda t, y: rate * y, y0, g, direction)
    with pytest.raises(NonFiniteError) as new:
        integrate_linear(coeffs, y0, g, direction)
    assert str(new.value) == str(old.value)
    assert "blow-up detected at node" in str(new.value)


def _chunked_grid(T=1.0):
    """The shipped chunk size c and a grid of 3c + c/8 steps on [0, T]:
    three whole chunks and a last partial one, in either direction."""
    c = ode.LINEAR_CHUNK_STEPS
    assert c >= 24   # so the last chunk holds node 2 and node steps - 2
    return c, TimeGrid(T, 3 * c + c // 8)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", ["nan_source", "overflow"])
@pytest.mark.parametrize("direction, where", [
    ("forward", "mid"), ("forward", "last"), ("backward", "mid"), ("backward", "last")],
    ids=["forward-mid_chunk", "forward-last_chunk", "backward-mid_chunk", "backward-last_chunk"])
def test_integrate_linear_blowup_inside_a_chunk_names_its_node(direction, where, kind):
    # forward, node c + c/2 - 3 lies inside the second chunk (steps c..2c-1,
    # nodes c+1..2c) and node steps - 2 inside the last, partial one; the
    # backward nodes mirror them (steps minus each).  From a quarter step
    # before the node (in the sweep's direction) on, the source turns NaN,
    # or the generator grows the state to about 1e39 in one step and by
    # about 1e158 in each step after, which overflows to inf and NaN two
    # steps on, inside the chunk; the step into the node samples it first
    c, g = _chunked_grid()
    forward = direction == "forward"
    node = c + c // 2 - 3 if where == "mid" else g.steps - 2
    if not forward:
        node = g.steps - node
    edge = g.nodes[node] - 0.25 * g.dt if forward else g.nodes[node] + 0.25 * g.dt
    rate = (1e40 if forward else -1e40) / g.dt

    def hot(t):
        return np.asarray(t > edge if forward else t < edge, dtype=float)

    def coeffs(ts):
        h = hot(ts)[:, None]
        if kind == "nan_source":
            src = np.where(h > 0, np.nan, np.zeros(2))
            return np.broadcast_to(-np.eye(2), ts.shape + (2, 2)), src
        return rate * h[..., None] * np.eye(2), None

    def rhs(t, y):
        M, s = coeffs(np.array([t]))
        return M[0] @ y + (0.0 if s is None else s[0])

    y0 = np.array([1.0, 0.5])
    with pytest.raises(NonFiniteError, match=rf"^blow-up detected at node {node}$") as new:
        integrate_linear(coeffs, y0, g, direction)
    with pytest.raises(NonFiniteError) as old:
        integrate_rk4(rhs, y0, g, direction)
    assert str(new.value) == str(old.value)


@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_integrate_linear_samples_each_distinct_stage_time_once(direction):
    # three whole chunks and a partial one: each chunk of c steps is sampled
    # once, at its 2c+1 stage times in step order, node times bit-equal to
    # the grid's
    c, g = _chunked_grid(1.3)
    rng = np.random.default_rng(5)
    _, coeffs, y0 = _linear_system(rng, 2, None, source=True)
    seen = []

    def spy(ts):
        seen.append(ts.copy())
        return coeffs(ts)

    integrate_linear(spy, y0, g, direction)
    _assert_chunk_stage_times(seen, c, g, direction)


def _assert_chunk_stage_times(seen, c, g, direction):
    """seen holds the stage times of a sweep's chunks in order: c steps a
    chunk over the grid of :func:`_chunked_grid`, node times bit-equal to
    the grid's."""
    forward = direction == "forward"
    h = g.dt if forward else -g.dt
    order = np.arange(g.steps + 1) if forward else np.arange(g.steps, -1, -1)
    assert [ts.shape for ts in seen] == [(2 * c + 1,)] * 3 + [(2 * (c // 8) + 1,)]
    for i, ts in enumerate(seen):
        nodes = order[c * i:c * (i + 1) + 1]
        assert np.array_equal(ts[0::2], g.nodes[nodes])
        assert np.array_equal(ts[1::2], g.nodes[nodes[:-1]] + 0.5 * h)
        assert np.all(np.diff(ts) > 0) if forward else np.all(np.diff(ts) < 0)


@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_integrate_rk4_samples_each_distinct_stage_time_once(direction):
    # the right-hand side is called at each chunk's 2c+1 stage times
    # (sweep_chunks), node times bit-equal to the grid's, step j at rows 2j,
    # 2j+1 (twice) and 2j+2
    c, g = _chunked_grid(1.3)
    rng = np.random.default_rng(5)
    rhs, _, y0 = _linear_system(rng, 2, None, source=True)
    called = []

    def recorded(t, y):
        called.append(t)
        return rhs(t, y)

    integrate_rk4(recorded, y0, g, direction)
    seen = [ts for _, ts in sweep_chunks(g, direction)[1]]
    _assert_chunk_stage_times(seen, c, g, direction)
    assert called == [t for ts in seen for j in range(ts.size // 2)
                      for t in ts[[2 * j, 2 * j + 1, 2 * j + 1, 2 * j + 2]]]


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_integrate_rk4_blowup_names_the_node(direction, bad):
    # the right-hand side turns non-finite at the stage times past 0.555 in
    # the sweep's direction: forward the step 55 -> 56 is the first to reach
    # t = 0.56, backward the step 56 -> 55 the first to reach t = 0.55
    g = TimeGrid(1.0, 100)
    forward = direction == "forward"

    def rhs(t, y):
        past = t > 0.555 if forward else t < 0.555
        return np.full_like(y, bad) if past else -y

    node = 56 if forward else 55
    with pytest.raises(NonFiniteError, match=rf"^blow-up detected at node {node}$"):
        integrate_rk4(rhs, np.array([1.0, 2.0]), g, direction)


@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_stage_samples_are_node_rows_and_midpoint_means(direction):
    # every chunk, the short last one included: rows 2j and 2j+2 are the
    # nodes' rows of the table (batch axes carried along) and row 2j+1
    # exactly their mean, which interp gives up to the rounding of its
    # weight t/dt - k (about k ulp(1), so 1e-13 late in this grid); a
    # constant broadcast over the nodes comes back as that constant
    c, g = _chunked_grid(1.3)
    rng = np.random.default_rng(2)
    table = rng.standard_normal((g.steps + 1, 2, 3, 3))
    const = np.broadcast_to(table[0], table.shape)
    h, chunks = sweep_chunks(g, direction)
    stepped = []
    for ks, ts in chunks:
        ends = ks + (1 if h > 0 else -1)
        got = stage_samples(table, ts)
        assert got.shape == (2 * ks.size + 1, 2, 3, 3)
        assert np.array_equal(got[:-1:2], table[ks]) and np.array_equal(got[2::2], table[ends])
        assert np.array_equal(got[1::2], 0.5 * (table[ks] + table[ends]))
        assert np.max(np.abs(got - interp(table, g.dt, ts))) <= 1e-12
        assert np.array_equal(stage_samples(const, ts), np.broadcast_to(table[0], got.shape))
        stepped.append(ks.size)
    assert stepped == [c] * 3 + [c // 8]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("later", [False, True], ids=["alone", "singular_after"])
@pytest.mark.parametrize("direction, where", [
    ("forward", "mid"), ("forward", "last"), ("backward", "mid"), ("backward", "last")],
    ids=["forward-mid_chunk", "forward-last_chunk", "backward-mid_chunk", "backward-last_chunk"])
def test_integrate_rk4_blowup_inside_a_chunk_names_its_node(direction, where, later):
    # the nodes of the linear test above: the step into the node grows the
    # state to about 1e39, and the steps after it overflow inside the chunk,
    # which warns of nothing; with later, a stage of the next step raises as
    # a singular gain denominator does, and the blow-up is still what is named
    c, g = _chunked_grid()
    forward = direction == "forward"
    node = c + c // 2 - 3 if where == "mid" else g.steps - 2
    if not forward:
        node = g.steps - node
    h = g.dt if forward else -g.dt
    edge, after = g.nodes[node] - 0.25 * h, g.nodes[node] + 0.25 * h
    rate = 1e40 / h

    def rhs(t, y):
        if later and (t > after if forward else t < after):
            raise RegularityLostError(f"singular at t={t:.6g}")
        return rate * y if (t > edge if forward else t < edge) else -y

    with pytest.raises(NonFiniteError, match=rf"^blow-up detected at node {node}$"):
        integrate_rk4(rhs, np.array([1.0, 0.5]), g, direction)


@pytest.mark.parametrize("cols", [None, 2], ids=["vector", "matrix"])
@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_integrate_linear_batch_axes_equal_per_entry_sweeps(direction, cols):
    # a (2, 3) batch of equations in one sweep: each entry's trajectory must
    # be bit-equal to a sweep of that entry alone; the source is shared by
    # the second batch axis (size 1 there)
    rng = np.random.default_rng(11)
    g = TimeGrid(1.0, 100)
    d = 3
    shape = (d,) if cols is None else (d, cols)
    M0 = rng.standard_normal((2, 3, d, d))
    M1 = rng.standard_normal((2, 3, d, d))
    s0 = rng.standard_normal((2, 1) + shape)
    y0 = rng.standard_normal((2, 3) + shape)

    def tables(ts, M0, M1, s0):
        def times(x):
            return ts.reshape(ts.shape + (1,) * x.ndim)
        return M0 + np.sin(times(M0)) * M1, np.cos(times(s0)) * s0

    batched = integrate_linear(lambda ts: tables(ts, M0, M1, s0), y0, g, direction).values
    assert batched.shape == (g.steps + 1, 2, 3) + shape
    for i in range(2):
        for j in range(3):
            alone = integrate_linear(lambda ts: tables(ts, M0[i, j], M1[i, j], s0[i, 0]),
                                     y0[i, j], g, direction).values
            assert np.array_equal(batched[:, i, j], alone)


@pytest.mark.parametrize("cols", [None, 2], ids=["vector", "matrix"])
def test_integrate_linear_independent_of_chunk_size(monkeypatch, cols):
    rng = np.random.default_rng(3)
    _, g = _chunked_grid()   # the default chunk splits this into 4 chunks
    _, coeffs, y0 = _linear_system(rng, 3, cols, source=True)
    for direction in ("forward", "backward"):
        ref = integrate_linear(coeffs, y0, g, direction).values
        for chunk in (1, 7):
            monkeypatch.setattr(ode, "LINEAR_CHUNK_STEPS", chunk)
            got = integrate_linear(coeffs, y0, g, direction).values
            assert np.array_equal(got, ref)
        monkeypatch.undo()


def test_quadrature_constant_and_linear_exact():
    g = TimeGrid(1.0, 1000)
    ones = Trajectory(g, np.ones(g.steps + 1))
    lin = Trajectory(g, g.nodes)
    assert quadrature(ones) == pytest.approx(1.0, abs=1e-14)
    assert quadrature(lin) == pytest.approx(0.5, abs=1e-14)


def test_quadrature_quadratic():
    g = TimeGrid(1.0, 1000)
    sq = Trajectory(g, g.nodes**2)
    assert abs(quadrature(sq) - 1.0 / 3.0) < 1e-6


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(-5, 5), st.floats(-5, 5))
def test_quadrature_linearity(seed, a, b):
    rng = np.random.default_rng(seed)
    g = TimeGrid(1.0, 64)
    f = rng.standard_normal(g.steps + 1)
    h = rng.standard_normal(g.steps + 1)
    lhs = trapezoid_nodes(a * f + b * h, g)
    rhs = a * trapezoid_nodes(f, g) + b * trapezoid_nodes(h, g)
    assert abs(lhs - rhs) < 1e-10 * (1.0 + abs(lhs))


def test_eig_simple_cases():
    assert np.allclose(eigvals_sym(np.eye(2)), [1.0, 1.0])
    assert np.allclose(eigvals_sym(np.diag([-3.0, 5.0])), [-3.0, 5.0])
    # characteristic polynomial of [[2,1],[1,2]] is (l-1)(l-3)
    assert np.allclose(eigvals_sym(np.array([[2.0, 1.0], [1.0, 2.0]])), [1.0, 3.0])


def test_eig_rejects_asymmetric():
    with pytest.raises(NotSymmetricError):
        eigvals_sym(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eigvals_sym_on_a_stack_equals_each_matrix():
    rng = np.random.default_rng(21)
    X = rng.standard_normal((50, 3, 3)) * np.logspace(-3, 3, 50)[:, None, None]
    S = X + X.swapaxes(-1, -2)
    assert np.array_equal(eigvals_sym(S), np.stack([eigvals_sym(M) for M in S]))
    bad = S.copy()
    bad[17, 0, 1] += 1e-3 * np.abs(S[17]).max()
    with pytest.raises(NotSymmetricError):
        eigvals_sym(bad[17])
    with pytest.raises(NotSymmetricError):
        eigvals_sym(bad)
    # each matrix keeps its own tolerance: a large one beside it does not
    # loosen that of a small one
    small = np.array([[1.0, 1e-6], [0.0, 1.0]])
    with pytest.raises(NotSymmetricError):
        eigvals_sym(small)
    with pytest.raises(NotSymmetricError):
        eigvals_sym(np.stack([small, 1e6 * np.eye(2)]))


def test_rayleigh_bounds_hold_on_random_matrices():
    rng = np.random.default_rng(123)
    for _ in range(100):
        n = rng.integers(1, 6)
        S = rng.standard_normal((n, n))
        S = 0.5 * (S + S.T)
        lam = eigvals_sym(S)
        x = rng.standard_normal(n)
        quad = x @ S @ x
        nrm = x @ x
        slack = 1e-10 * (1.0 + abs(quad))
        assert lam[0] * nrm - slack <= quad <= lam[-1] * nrm + slack


def test_kron_vec_is_the_kronecker_product_with_the_transpose():
    rng = np.random.default_rng(31)
    for shape_x, shape_y in (((2, 3), (4, 5)), ((3, 3), (3, 3)), ((1, 2), (2, 1))):
        X, Y = rng.standard_normal(shape_x), rng.standard_normal(shape_y)
        assert np.array_equal(kron_vec(X, Y), np.kron(X, Y.T))


def test_kron_vec_maps_vec_U_to_vec_XUY_over_leading_axes():
    # rectangular factors on a time axis and a batch axis, U without them
    rng = np.random.default_rng(32)
    X = rng.standard_normal((7, 1, 2, 3))
    Y = rng.standard_normal((1, 4, 5, 6))
    U = rng.standard_normal((3, 5))
    M = kron_vec(X, Y)
    assert M.shape == (7, 4, 2 * 6, 3 * 5)
    want = (X @ U @ Y).reshape(7, 4, -1)
    assert np.allclose(M @ U.ravel(), want, rtol=1e-14, atol=1e-14)


def test_eig_min_is_the_smallest_over_a_symmetrized_stack():
    rng = np.random.default_rng(33)
    S = rng.standard_normal((9, 3, 3))
    # no tolerance check: an asymmetric stack is symmetrized as it is
    want = min(np.linalg.eigvalsh(0.5 * (M + M.T))[0] for M in S)
    assert eig_min(S) == want
    assert eig_min(S[4]) == np.linalg.eigvalsh(0.5 * (S[4] + S[4].T))[0]
    assert isinstance(eig_min(S), float)


def test_eig_min_at_names_the_matrix_that_holds_the_smallest_eigenvalue():
    # the flat index over the leading axes, the first on a tie, and 0 for a
    # single matrix: the node a lost regularity margin names
    rng = np.random.default_rng(34)
    S = rng.standard_normal((4, 5, 2, 2))
    lams = [np.linalg.eigvalsh(0.5 * (M + M.T))[0] for M in S.reshape(-1, 2, 2)]
    assert eig_min_at(S) == (min(lams), int(np.argmin(lams)))
    assert eig_min_at(S[1, 3]) == (eig_min(S[1, 3]), 0)
    tie = np.stack([np.eye(2), -np.eye(2), -np.eye(2)])
    assert eig_min_at(tie) == (-1.0, 1)


def test_is_psd_cases():
    # a psd verdict is eig_min(S) >= -tol, for one matrix or over a stack
    assert eig_min(np.zeros((3, 3))) >= -1e-10
    assert not eig_min(np.diag([1.0, -1e-3])) >= -1e-10
    assert not eig_min(np.stack([np.eye(2), -np.eye(2)])) >= -1e-10


def test_psd_preserved_under_congruence():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = rng.integers(1, 5)
        M = rng.standard_normal((n, n))
        Q = M @ M.T
        Gamma = rng.standard_normal((n, n))
        Qhat = (Gamma - np.eye(n)).T @ Q @ (Gamma - np.eye(n))
        assert eig_min(Qhat) >= -1e-9
