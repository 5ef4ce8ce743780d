"""Riccati solves against closed forms, gain formulas, and the oracle."""

import numpy as np
import pytest

from mflqg import riccati
from mflqg.consistency import solve_cc
from mflqg.errors import GridMismatchError, RegularityLostError, SettingError, StationarityError
from mflqg.model import AugmentedCoeffs, build_augmented, kron_eye, kron_mean
from mflqg.ode import TimeGrid, Trajectory, integrate_rk4, symmetrize
from mflqg.riccati import (
    FeedbackLaw,
    OracleLaw,
    gain_terms,
    node_solve,
    solve_P,
    solve_oracle,
    solve_phi,
    theta1,
    theta2,
)
from mflqg.montecarlo import NoiseBank, centralized_tangents, simulate_centralized
from mflqg.presets import repro_instance

from conftest import rand_params
from test_montecarlo import gap_scalar_params, mode_law, stacked_tables, time_varying_params


def scalar_params(rng=None, steps=1000, **over):
    p = rand_params(np.random.default_rng(0), n=1, m=1, steps=steps)
    for name, val in over.items():
        setattr(p, name, np.asarray(val, dtype=float))
    return p


def test_zero_weights_give_zero_P_and_gain(rng):
    p = rand_params(rng, n=2, m=2, psd_weights=True)
    p.Q = np.zeros((2, 2))
    p.G = np.zeros((2, 2))
    P, margin = solve_P(p)
    assert np.max(np.abs(P.values)) == 0.0
    assert margin > 0
    Th1 = theta1(P, p)
    assert np.max(np.abs(Th1.values)) == 0.0


def test_scalar_riccati_closed_form():
    # B = C = D = 0 turns the equation into dp/dt = -(2 a p + q), p(T) = g
    a, q, g = 0.7, 0.9, 0.4
    p = scalar_params(steps=1000, A=[[a]], B=[[0.0]], C=[[0.0]], D=[[0.0]],
                      Q=[[q]], G=[[g]], R=[[1.0]])
    P, _ = solve_P(p)
    t = p.grid().nodes
    exact = np.exp(2 * a * (1.0 - t)) * g + q * (np.exp(2 * a * (1.0 - t)) - 1.0) / (2 * a)
    assert np.max(np.abs(P.values[:, 0, 0] - exact)) < 1e-7


def test_repro_instance_solve_succeeds():
    p = repro_instance()
    P, margin = solve_P(p)
    assert margin > 0
    assert np.max(np.abs(P.terminal)) == 0.0  # G = 0 anchored exactly
    asym = np.max(np.abs(P.values - np.swapaxes(P.values, -1, -2)))
    assert asym <= 1e-9


def test_regularity_lost_raises():
    p = scalar_params(R=[[-1.0]], D=[[0.0]])
    with pytest.raises(RegularityLostError):
        solve_P(p)


def feedback_law_fields(grid, off=None):
    """Zero P, phi, Theta1 and Theta2 (n = m = 1) on grid; field ``off`` on
    twice its steps."""
    fields = {}
    for name, shape in (("P", (1, 1)), ("phi", (1,)), ("Theta1", (1, 1)), ("Theta2", (1,))):
        g = TimeGrid(grid.T, 2 * grid.steps) if name == off else grid
        fields[name] = Trajectory(g, np.zeros((g.steps + 1,) + shape))
    return fields


@pytest.mark.parametrize("off", ["P", "phi", "Theta1", "Theta2"])
def test_feedback_law_refuses_a_trajectory_off_its_grid(off):
    # the simulators read every field at the law's nodes, so a field on 400
    # steps in a law on 200 is refused when the law is built
    grid = TimeGrid(1.0, 200)
    with pytest.raises(GridMismatchError, match=f"law field '{off}' is sampled on"):
        FeedbackLaw(grid=grid, regularity_margin=1.0, **feedback_law_fields(grid, off))


@pytest.mark.parametrize("margin", [np.inf, np.nan, 0.0, -1.0])
def test_feedback_law_refuses_a_margin_that_is_not_finite_and_positive(margin):
    grid = TimeGrid(1.0, 20)
    with pytest.raises(RegularityLostError, match="not a finite number above"):
        FeedbackLaw(grid=grid, regularity_margin=margin, **feedback_law_fields(grid))


def _matrix_form_P(p):
    """Stagewise RK4 of the matrix-form P equation, re-symmetrized per step."""
    grid = p.grid()
    h = -grid.dt

    def rhs(t, P):
        A, B, C, D, Q, R = (p.coeff_at(k, t) for k in ("A", "B", "C", "D", "Q", "R"))
        S = R + D.T @ P @ D
        num = B.T @ P + D.T @ P @ C
        return -(P @ A + A.T @ P + C.T @ P @ C + Q - num.T @ np.linalg.solve(S, num))

    out = np.empty((grid.steps + 1, p.n, p.n))
    P = out[-1] = symmetrize(p.G)
    for k in range(grid.steps, 0, -1):
        t = grid.nodes[k]
        k1 = rhs(t, P)
        k2 = rhs(t + h / 2, P + h / 2 * k1)
        k3 = rhs(t + h / 2, P + h / 2 * k2)
        k4 = rhs(t + h, P + h * k3)
        P = out[k - 1] = symmetrize(P + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4))
    return out


@pytest.mark.parametrize("instance", ["repro", "random_n3_m2", "time_varying"])
def test_solve_P_operator_form_matches_matrix_form(instance):
    p = {"repro": lambda: repro_instance(),
         "random_n3_m2": lambda: rand_params(np.random.default_rng(5), n=3, m=2, steps=300),
         "time_varying": lambda: time_varying_params(np.random.default_rng(7), steps=300),
         }[instance]()
    P, _ = solve_P(p)
    ref = _matrix_form_P(p)
    err = np.abs(P.values - ref).max(axis=(1, 2))
    assert np.all(err <= 1e-13 * np.abs(ref).max(axis=(1, 2)))
    # re-symmetrized after every step, so exactly symmetric at every node
    assert np.array_equal(P.values, P.values.swapaxes(-1, -2))


@pytest.mark.parametrize("n, m", [(1, 1), (2, 1), (3, 2)])
@pytest.mark.parametrize("time_varying", [False, True], ids=["constant", "time_varying"])
def test_p_operator_rows_are_the_linear_part_S_and_numerator(time_varying, n, m):
    # on y = (vec P, 1) the map gives -(PA + A'P + C'PC + Q), the kept 1's
    # zero, R + D'PD and B'P + D'PC: for constant coefficients, and at every
    # time of a time axis for coefficients that each move in time
    rng = np.random.default_rng(40 + 3 * n + m)
    p = rand_params(rng, n=n, m=m, steps=6)
    times = p.grid().nodes if time_varying else np.array([0.0])
    A, B, C, D, Q, R = (getattr(p, k) * (1.0 + 0.1 * i * times)[:, None, None]
                        for i, k in enumerate(P_NAMES, start=1))
    if not time_varying:
        A, B, C, D, Q, R = A[0], B[0], C[0], D[0], Q[0], R[0]
    X = rng.standard_normal((n, n))
    P = X + X.T

    def T(M):
        return M.swapaxes(-1, -2)

    z = riccati.p_operator(A, B, C, D, Q, R) @ np.append(P.ravel(), 1.0)
    parts = [-(P @ A + T(A) @ P + T(C) @ P @ C + Q), np.zeros(Q.shape[:-2] + (1, 1)),
             R + T(D) @ P @ D, T(B) @ P + T(D) @ P @ C]
    want = np.concatenate([M.reshape(M.shape[:-2] + (-1,)) for M in parts], axis=-1)
    assert z.shape == A.shape[:-2] + (n * n + 1 + m * m + m * n,)
    assert np.all(np.abs(z - want) <= 1e-13 * np.abs(want).max())


@pytest.mark.parametrize("time_varying", [False, True], ids=["constant", "time_varying"])
def test_singular_gain_denominator_in_the_P_sweep_raises(time_varying):
    p = scalar_params(steps=20, R=[[0.0]], D=[[0.0]])
    if time_varying:
        p.A = p.A * (1.0 + p.grid().nodes)[:, None, None]
    with pytest.raises(RegularityLostError, match="singular"):
        solve_P(p)


@pytest.mark.parametrize("N", [1, 2])
@pytest.mark.parametrize("time_varying", [False, True], ids=["constant", "time_varying"])
def test_singular_gain_denominator_in_the_oracle_sweep_names_its_stage_time(time_varying, N):
    # R + D'P_d D = 0 at the first stage of the backward sweep, t = T = 1
    p = scalar_params(steps=20, R=[[0.0]], D=[[0.0]])
    if time_varying:
        p.A = p.A * (1.0 + p.grid().nodes)[:, None, None]
    with pytest.raises(RegularityLostError, match=r"^oracle R \+ D'bd\(P\)D singular at t=1$"):
        solve_oracle(AugmentedCoeffs(p, N), validate=False)


P_NAMES = ("A", "B", "C", "D", "Q", "R")
ORACLE_NAMES = ("A", "B", "C", "D", "F", "Ftilde", "Q", "R", "Gamma")


def lapack_sweep(params, grid, operator, names, terminals, what):
    """riccati._riccati_sweep on constant coefficients with a LAPACK solve
    for every stage's gain: the reference for its closed-form m <= 2 gains."""
    assert not any(params.is_time_varying(name) for name in names)
    k, n, m = len(terminals), params.n, params.m
    kn2, m2 = k * n * n, m * m
    ops = operator(*(getattr(params, name) for name in names))

    def rhs(t, y):
        z = ops @ y
        num = z[kn2 + 1 + m2:].reshape(k, m, n)
        try:
            gain = np.linalg.solve(z[kn2 + 1:kn2 + 1 + m2].reshape(m, m), num)
        except np.linalg.LinAlgError as exc:
            raise RegularityLostError(f"{what} singular at t={t:.6g}") from exc
        dy = z[:kn2 + 1]
        dy[:kn2] += (num.transpose(0, 2, 1) @ gain).ravel()
        return dy

    swap = np.append(np.arange(kn2).reshape(k, n, n).swapaxes(1, 2).ravel(), kn2)
    y0 = np.append(symmetrize(np.stack(terminals)).ravel(), 1.0)
    y = integrate_rk4(rhs, y0, grid, "backward", project=lambda y: 0.5 * (y + y[swap]))
    return np.ascontiguousarray(y.values[:, :kn2]).reshape(-1, k, n, n)


def both_sweeps(p, N=3):
    """(operator, names, terminals) of solve_P's sweep and of the oracle's
    two-mode sweep at N."""
    Gbm = p.GammaBar - np.eye(p.n)
    return [(riccati.p_operator, P_NAMES, [p.G]),
            (lambda *c: riccati.oracle_operator(N, *c), ORACLE_NAMES,
             [p.G, Gbm.T @ p.G @ Gbm])]


@pytest.mark.parametrize("weights", ["psd_R", "indefinite_R"])
@pytest.mark.parametrize("m", [1, 2])
def test_closed_form_gain_matches_lapack_sweep(m, weights):
    # random instances with n <= 3, for P and for the oracle's modes.  An
    # indefinite R has eigenvalues of both signs (negative at m = 1), each at
    # least 1 in size, on a control channel weakened fourfold: R + D'PD then
    # stays far from singular (smallest singular value 0.58) and P finite,
    # where the full channel drives it through zero or to finite escape
    rng = np.random.default_rng(100 + m)
    for n in (1, 2, 3):
        for _ in range(8):
            p = rand_params(rng, n=n, m=m, steps=40)
            if weights == "indefinite_R":
                U, _ = np.linalg.qr(rng.standard_normal((m, m)))
                eig = (1.0 + rng.random(m)) * np.array([-1.0, 1.0][:m])
                p.R = symmetrize(U @ np.diag(eig) @ U.T)
                p.B, p.D = 0.25 * p.B, 0.25 * p.D
            for operator, names, terminals in both_sweeps(p):
                got = riccati._riccati_sweep(p, p.grid(), operator, names, terminals, "S")
                ref = lapack_sweep(p, p.grid(), operator, names, terminals, "S")
                assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("m", [1, 2, 3])
def test_only_m_above_2_solves_in_the_riccati_sweep(monkeypatch, m):
    p = rand_params(np.random.default_rng(3), n=2, m=m, steps=20)
    solve, shapes = np.linalg.solve, []

    def spy(a, b):
        shapes.append(a.shape)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", spy)
    for operator, names, terminals in both_sweeps(p):
        riccati._riccati_sweep(p, p.grid(), operator, names, terminals, "S")
    # four stages a step, two sweeps
    assert shapes == ([] if m <= 2 else [(3, 3)] * (2 * 4 * 20))


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("sweep", ["P", "oracle"])
def test_exactly_singular_gain_denominator_names_its_stage_time(sweep, m):
    # D = 0 and R = diag(0, 1, ...): S = R, exactly singular at the first
    # stage of the backward sweep, t = T = 1
    p = rand_params(np.random.default_rng(4), n=2, m=m, steps=20)
    p.D = np.zeros((2, m))
    p.R = np.diag([0.0] + [1.0] * (m - 1))
    if sweep == "P":
        with pytest.raises(RegularityLostError, match=r"^R \+ D'PD singular at t=1$"):
            solve_P(p)
    else:
        with pytest.raises(RegularityLostError,
                           match=r"^oracle R \+ D'bd\(P\)D singular at t=1$"):
            solve_oracle(AugmentedCoeffs(p, 2), validate=False)


def test_gap_scalar_law_and_oracle_modes_bit_equal_to_lapack_sweep(monkeypatch):
    # at m = n = 1 the closed-form gain num / s is what the solve computes
    p = gap_scalar_params()

    def run():
        _, law = solve_cc(p)
        tables = [law.Theta1.values, law.Theta2.values]
        for N in (2, 4, 8):
            o = solve_oracle(AugmentedCoeffs(p, N), validate=False)
            tables += [o.P_dev.values, o.P_mean.values, o.K_dev.values, o.K_mean.values,
                       o.affine.values]
        return tables

    got = run()
    monkeypatch.setattr(riccati, "_riccati_sweep", lapack_sweep)
    for a, b in zip(got, run(), strict=True):
        assert np.array_equal(a, b)


def test_theta1_hand_cases():
    # R=1, D=1, P=1, B=1, C=0 -> Theta1 = -(1+1)^{-1} (1) = -1/2
    p = scalar_params(steps=10, B=[[1.0]], C=[[0.0]], D=[[1.0]], R=[[1.0]])
    grid = p.grid()
    P = Trajectory(grid, np.ones((grid.steps + 1, 1, 1)))
    Th1 = theta1(P, p)
    assert np.allclose(Th1.values, -0.5)
    # no control channel: B = D = 0 gives zero gain regardless of P
    p2 = scalar_params(steps=10, B=[[0.0]], D=[[0.0]])
    assert np.max(np.abs(theta1(P, p2).values)) == 0.0


@pytest.mark.parametrize("gain", ["theta1", "theta2", "solve_phi"])
def test_singular_gain_denominator_names_its_node(gain):
    # R = I, D = I and P(t_7) = -diag(1, 1/2) make R + D'PD = diag(0, 1/2)
    # singular at node 7 only; solve_phi meets it at the RK4 stages there
    p = rand_params(np.random.default_rng(0), n=2, m=2, steps=10)
    p.R = np.eye(2)
    p.D = np.eye(2)
    grid = p.grid()
    Pv = np.zeros((grid.steps + 1, 2, 2))
    Pv[7] = -np.diag([1.0, 0.5])
    P = Trajectory(grid, Pv)
    z = zero_traj(grid, (2,))
    with pytest.raises(RegularityLostError, match=r"singular at node 7$"):
        if gain == "theta1":
            theta1(P, p)
        elif gain == "theta2":
            theta2(P, z, z, p)
        else:
            solve_phi(P, p, z, z, z, z)


def zero_traj(grid, shape):
    return Trajectory(grid, np.zeros((grid.steps + 1,) + shape))


def test_phi_homogeneous_is_zero(rng):
    p = rand_params(rng, n=2, m=1)
    p.eta = np.zeros(2)
    p.etaBar = np.zeros(2)
    grid = p.grid()
    P, _ = solve_P(p)
    z = zero_traj(grid, (2,))
    phi = solve_phi(P, p, z, z, z, z)
    assert np.max(np.abs(phi.values)) == 0.0


def test_phi_terminal_condition_exact(rng):
    p = rand_params(rng, n=2, m=2)
    grid = p.grid()
    P, _ = solve_P(p)
    xhat = Trajectory(grid, np.tile(rng.standard_normal(2), (grid.steps + 1, 1)))
    z = zero_traj(grid, (2,))
    phi = solve_phi(P, p, xhat, z, z, z)
    eye = np.eye(2)
    xT = xhat.terminal
    q2 = (-p.G @ (p.GammaBar @ xT + p.etaBar)
          - p.GammaBar.T @ (p.G @ ((eye - p.GammaBar) @ xT - p.etaBar)))
    assert np.array_equal(phi.terminal, q2)


def test_phi_constant_forcing_closed_form():
    # all coefficient matrices zero, Gamma = 0, Q = 1, eta = -1 force the
    # running drive to the constant 1, so phi(t) = T - t
    p = scalar_params(steps=500, A=[[0.0]], B=[[0.0]], C=[[0.0]], D=[[0.0]],
                      F=[[0.0]], Ftilde=[[0.0]], Q=[[1.0]], G=[[0.0]],
                      Gamma=[[0.0]], GammaBar=[[0.0]], eta=[-1.0], etaBar=[0.0])
    grid = p.grid()
    P, _ = solve_P(p)
    z = zero_traj(grid, (1,))
    phi = solve_phi(P, p, z, z, z, z)
    assert np.max(np.abs(phi.values[:, 0] - (1.0 - grid.nodes))) < 1e-12


def test_theta2_hand_cases():
    p = scalar_params(steps=10, B=[[1.0]], D=[[0.0]], R=[[1.0]])
    grid = p.grid()
    P = Trajectory(grid, np.ones((grid.steps + 1, 1, 1)))
    phi = Trajectory(grid, np.full((grid.steps + 1, 1), 2.0))
    xhat = zero_traj(grid, (1,))
    Th2 = theta2(P, phi, xhat, p)
    assert np.allclose(Th2.values, -2.0)
    # B = 0 isolates the diffusion feedthrough term
    p2 = scalar_params(steps=10, B=[[0.0]], D=[[1.0]], R=[[1.0]], Ftilde=[[0.5]])
    xh = Trajectory(grid, np.full((grid.steps + 1, 1), 3.0))
    Th2b = theta2(P, phi, xh, p2)
    assert np.allclose(Th2b.values, -(1.0 / 2.0) * 1.0 * 0.5 * 3.0)
    z = zero_traj(grid, (1,))
    assert np.max(np.abs(theta2(P, z, z, p).values)) == 0.0


def _riccati_residual(p, M):
    q = repro_instance(steps=M) if p is None else p
    P, _ = solve_P(q)
    grid = q.grid()
    dt = grid.dt
    A, B, C, D = q.A, q.B, q.C, q.D
    Q, R = q.Q, q.R
    res = 0.0
    for k in range(1, grid.steps):
        Pk = P.values[k]
        S = R + D.T @ Pk @ D
        W = Pk @ B + C.T @ Pk @ D
        rhs = -(Pk @ A + A.T @ Pk + C.T @ Pk @ C + Q - W @ np.linalg.solve(S, W.T))
        dnum = (P.values[k + 1] - P.values[k - 1]) / (2 * dt)
        res = max(res, np.max(np.abs(dnum - rhs)))
    return res


def test_riccati_residual_second_order():
    r1 = _riccati_residual(None, 250)
    r2 = _riccati_residual(None, 500)
    slope = np.log2(r1 / r2)
    assert 1.7 <= slope <= 2.3


def test_terminal_weight_monotonicity(rng):
    # growing G cannot shrink the value matrix anywhere (psd weights)
    for _ in range(3):
        p = rand_params(rng, n=2, m=1, steps=300)
        P0, _ = solve_P(p)
        p2 = rand_params(rng, n=2, m=1, steps=300)
        for name in ("A", "B", "C", "D", "F", "Ftilde", "Q", "R", "Gamma",
                     "GammaBar", "eta", "etaBar", "xi0"):
            setattr(p2, name, getattr(p, name))
        p2.G = p.G + 0.5 * np.eye(2)
        P1, _ = solve_P(p2)
        diff = P1.values - P0.values
        lam = min(np.linalg.eigvalsh(0.5 * (d + d.T))[0] for d in diff)
        assert lam >= -1e-9


# ---------------------------------------------------------------------------
# centralized oracle
# ---------------------------------------------------------------------------

def test_oracle_single_agent_collapse(rng):
    # N=1, F = Ftilde = 0, Gamma = GammaBar = 0: the stacked problem IS the
    # auxiliary problem, so both pipelines must produce the same law.
    p = rand_params(rng, n=1, m=1, steps=400, coupled=False)
    p.Gamma = np.zeros((1, 1))
    p.GammaBar = np.zeros((1, 1))
    _, dlaw = solve_cc(p)
    olaw = solve_oracle(AugmentedCoeffs(p, 1), validate=False)
    gain, affine = stacked_tables(olaw)
    assert np.max(np.abs(gain[:, 0, 0] - dlaw.Theta1.values[:, 0, 0])) < 1e-8
    assert np.max(np.abs(affine[:, 0] - dlaw.Theta2.values[:, 0])) < 1e-8


def test_oracle_zero_data_gives_zero_law(rng):
    p = rand_params(rng, n=1, m=1, steps=100)
    p.Q = np.zeros((1, 1))
    p.G = np.zeros((1, 1))
    p.eta = np.zeros(1)
    p.etaBar = np.zeros(1)
    olaw = solve_oracle(AugmentedCoeffs(p, 2), validate=False)
    for name in ("P_dev", "P_mean", "phi", "K_dev", "K_mean", "affine"):
        assert np.max(np.abs(getattr(olaw, name).values)) == 0.0, name


def test_oracle_stationarity_validation_passes(rng):
    p = rand_params(rng, n=1, m=1, steps=400)
    law = solve_oracle(AugmentedCoeffs(p, 2), validate=True, validation_paths=512)
    assert law.validation["ascent_ok"]
    assert all(abs(d) <= t for d, t in
               zip(law.validation["derivatives"], law.validation["thresholds"]))


def test_oracle_validation_refuses_its_seed_before_drawing(rng, monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("a direction was drawn")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    aug = AugmentedCoeffs(rand_params(rng, n=1, m=1, steps=40), 2)
    for seed in (-1, 2**64):
        with pytest.raises(SettingError, match=f"got {seed}$"):
            solve_oracle(aug, validate=True, validation_seed=seed)


@pytest.mark.parametrize("paths", [1, 0, 2.0])
def test_oracle_validation_refuses_fewer_than_two_paths_before_drawing(monkeypatch, paths):
    # one path has no standard error, so no reading could count as
    # inconclusive: on gap-scalar at N = 2 it would fail on that one path
    def no_draw(*args, **kwargs):
        raise AssertionError("a direction or noise was drawn")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    monkeypatch.setattr(NoiseBank, "increments_block", no_draw)
    aug = AugmentedCoeffs(gap_scalar_params(), 2)
    with pytest.raises(SettingError, match=f"at least 2 paths, got {paths!r}$"):
        solve_oracle(aug, validate=True, validation_paths=paths)


def test_oracle_dominates_random_laws(rng):
    # random exchangeable gains, each with its own constant affine per agent
    p = rand_params(rng, n=1, m=1, steps=300)
    aug = AugmentedCoeffs(p, 2)
    law = solve_oracle(aug, validate=False)
    grid = p.grid()
    nodes = grid.steps + 1
    noise = NoiseBank(seed=5, n_paths=1500, n_agents=2, grid=grid).materialized()
    base = simulate_centralized(aug, law, noise, store=False)
    for _ in range(20):
        K_dev, K_mean = 0.3 * rng.standard_normal((2, 1, 1))
        other = mode_law(grid, 2, K_dev, K_mean, np.zeros(1))
        affine = 0.5 * rng.standard_normal(2) * np.ones((1, nodes, 2))
        J, g, c = centralized_tangents(aug, other, affine, noise)
        diff = J + g[0] + 0.5 * c[0] - base.J_soc   # the cost at h = 1
        se = diff.std(ddof=1) / np.sqrt(len(diff))
        assert diff.mean() >= -2.0 * se


def stacked_reference(aug):
    """The oracle from the stacked Nn x Nn sweeps, stagewise RK4 on the system
    aug.at assembles at every stage time: the reference the mode solve must
    equal.  Returns the stacked node tables P, phi, gain and affine, and the
    margin; margin, gain and affine are formed at the nodes of the stacked
    system."""
    grid = aug.params.grid()
    nodes = build_augmented(aug.params, aug.N, grid)
    blocks = kron_eye(np.ones((aug.params.n, aug.params.n)), aug.N)

    def rhs(t, P):
        s = aug.at(t)
        Pb = P * blocks
        S, num = gain_terms(P, s.B, s.C, s.D, s.R, Pb)
        return -(P @ s.A + s.A.T @ P + s.C.T @ (Pb @ s.C) + s.Q - num.T @ np.linalg.solve(S, num))

    P = integrate_rk4(rhs, symmetrize(nodes.G), grid, "backward", project=symmetrize)
    S, num = gain_terms(P.values, nodes.B, nodes.C, nodes.D, nodes.R, P.values * blocks)
    gain = Trajectory(grid, -node_solve(S, num))

    def phi_rhs(t, phi):
        s = aug.at(t)
        return -((s.A + s.B @ gain(t)).T @ phi + s.S1)

    phi = integrate_rk4(phi_rhs, nodes.S2, grid, "backward")
    affine = -node_solve(S, nodes.B.swapaxes(-1, -2) @ phi.values[..., None])[..., 0]
    tables = {"P": P.values, "phi": phi.values, "gain": gain.values, "affine": affine}
    return tables, float(np.linalg.eigvalsh(symmetrize(S))[:, 0].min())


def read_modes(M, N, rows, cols):
    """(dev, mean) of a stack of I (x) dev + 11'/N (x) (mean - dev), read off
    its first block row: a diagonal block less an off-diagonal one, and the
    row's sum (at N = 1 both are the one block)."""
    row = M[..., :rows, :].reshape(M.shape[:-2] + (rows, N, cols))
    return row[..., 0, :] - (row[..., 1, :] if N > 1 else 0.0), row.sum(axis=-2)


def stacked_oracle(aug):
    """The stacked reference as an OracleLaw, its modes read off its blocks."""
    ref, margin = stacked_reference(aug)
    grid, N, n, m = aug.params.grid(), aug.N, aug.params.n, aug.params.m
    modes = read_modes(ref["P"], N, n, n) + read_modes(ref["gain"], N, m, n)
    P_dev, P_mean, K_dev, K_mean = (Trajectory(grid, X) for X in modes)
    return OracleLaw(grid=grid, N=N, P_dev=P_dev, P_mean=P_mean,
                     phi=Trajectory(grid, ref["phi"][:, :n]), K_dev=K_dev, K_mean=K_mean,
                     affine=Trajectory(grid, ref["affine"][:, :m]), regularity_margin=margin)


def stacked_P(law):
    P_dev, P_mean = law.P_dev.values, law.P_mean.values
    return kron_eye(P_dev, law.N) + kron_mean(P_mean - P_dev, law.N)


@pytest.mark.parametrize("N", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("instance", ["gap_scalar", "repro", "time_varying"])
def test_oracle_modes_match_stacked_reference(instance, N):
    # the law's modes, expanded to stacked tables, against the stacked sweeps
    p = {"gap_scalar": lambda: gap_scalar_params(),
         "repro": lambda: repro_instance(steps=200),
         "time_varying": lambda: time_varying_params(np.random.default_rng(3), steps=40),
         }[instance]()
    aug = AugmentedCoeffs(p, N)
    law, (ref, margin) = solve_oracle(aug, validate=False), stacked_reference(aug)
    gain, affine = stacked_tables(law)
    got = {"P": stacked_P(law), "gain": gain, "affine": affine, "phi": np.tile(law.phi.values, N)}
    for name, want in ref.items():
        assert got[name].shape == want.shape
        assert np.max(np.abs(got[name] - want)) <= 1e-10 * np.max(np.abs(want)), name
    assert abs(law.regularity_margin - margin) <= 1e-12
    for P in (law.P_dev.values, law.P_mean.values):
        assert np.array_equal(P, P.swapaxes(-1, -2))


def test_oracle_law_size_does_not_depend_on_N():
    p = repro_instance(steps=200)
    shapes = [{name: value.values.shape for name, value in
               vars(solve_oracle(AugmentedCoeffs(p, N), validate=False)).items()
               if isinstance(value, Trajectory)} for N in (2, 32)]
    assert set(shapes[0]) == {"P_dev", "P_mean", "phi", "K_dev", "K_mean", "affine"}
    assert shapes[0] == shapes[1]


@pytest.mark.parametrize("N", [2, 4, 8])
def test_oracle_stationarity_verdict_matches_stacked_reference(N):
    # the validation of gap_study (1024 paths) gives the mode-solved law and
    # the stacked reference the same verdict, and the same derivatives
    aug = AugmentedCoeffs(gap_scalar_params(), N)
    laws = (solve_oracle(aug, validate=False), stacked_oracle(aug))
    for seed in (1, 2, 3):
        verdicts = []
        for law in laws:
            try:
                report = riccati._validate_stationarity(aug, law, paths=1024, seed=seed, tol=1e-2)
                verdicts.append(("passed", np.array(report["derivatives"])))
            except StationarityError as exc:
                # the failing check: "oracle failed stationarity" or "... ascent check"
                verdicts.append((str(exc).split(":")[0], None))
        (got, d_got), (want, d_want) = verdicts
        assert got == want, seed
        if d_want is not None:
            assert np.all(np.abs(d_got - d_want) <= 1e-8 * np.abs(d_want)), seed


@pytest.mark.parametrize("chunk", [None, 2], ids=["one_chunk", "chunks_of_2_nodes"])
def test_oracle_node_solves_bit_equal_to_node_loop(rng, monkeypatch, chunk):
    # the batched node-wise margin, mode gains and affine equal a node-by-node
    # loop bit for bit on a time-varying instance; the loop reads the swept
    # modes (P_dev, P_mean), which the law must hold, the mean-mode adjoint
    # phi_a off the law, and the coefficient node tables over all nodes at
    # once or over chunks of nodes
    p, N = time_varying_params(rng, steps=30), 3
    swept = []
    sweep = riccati._riccati_sweep

    def recorded(*args):
        swept.append(sweep(*args))
        return swept[-1]

    monkeypatch.setattr(riccati, "_riccati_sweep", recorded)
    law = solve_oracle(AugmentedCoeffs(p, N), validate=False)
    (modes,) = swept
    n, nodes = p.n, law.grid.steps + 1
    size = chunk or nodes
    margins = []
    for a in range(0, nodes, size):
        tables = [p.node_table(name)[a:a + size] for name in ("B", "C", "D", "R", "Ftilde")]
        for j in range(len(tables[0])):
            k = a + j
            B, C, D, R, Ft = (X[j] for X in tables)
            P_dev, P_mean = modes[k]
            DtPd = D.T @ (P_dev + (P_mean - P_dev) / N)
            S = R + DtPd @ D
            margins.append(np.linalg.eigvalsh(symmetrize(S))[0])
            K = -np.linalg.solve(S, np.concatenate([B.T @ P_dev + DtPd @ C,
                                                    B.T @ P_mean + DtPd @ (C + Ft)], axis=-1))
            assert np.array_equal(law.K_dev.values[k], K[:, :n])
            assert np.array_equal(law.K_mean.values[k], K[:, n:])
            affine = -np.linalg.solve(S, B.T @ law.phi.values[k])
            assert np.array_equal(law.affine.values[k], affine)
    assert len(margins) == nodes
    assert np.array_equal(law.P_dev.values, modes[:, 0])
    assert np.array_equal(law.P_mean.values, modes[:, 1])
    assert law.regularity_margin == min(margins)


def per_agent_noise(p, N):
    """The stacked diffusion as N per-agent slices: noise i drives block row i,
    Ftilde/N in every block of it and C added on block (i, i), D on (i, i)."""
    n, m = p.n, p.m
    Cs, Ds = np.zeros((N, N * n, N * n)), np.zeros((N, N * n, N * m))
    for i in range(N):
        rows = slice(i * n, (i + 1) * n)
        Cs[i, rows] = np.tile(p.Ftilde / N, N)
        Cs[i, rows, rows] += p.C
        Ds[i, rows, i * m:(i + 1) * m] = p.D
    return Cs, Ds


def test_noise_sums_equal_block_diagonal_forms(rng):
    # sum_i Ci'P Ci, sum_i Di'P Di and sum_i Di'P Ci over the per-agent noise
    # slices equal the products through bd(P), P with everything outside its
    # agent blocks set to zero
    N, n = 3, 2
    p = rand_params(rng, n=n, m=2, steps=10)
    s = AugmentedCoeffs(p, N).at(0.0)
    Cs, Ds = per_agent_noise(p, N)
    P = symmetrize(rng.standard_normal((N * n, N * n)))
    Pb = P * np.kron(np.eye(N), np.ones((n, n)))
    for X, Y, x, y in ((Cs, Cs, s.C, s.C), (Ds, Ds, s.D, s.D), (Ds, Cs, s.D, s.C)):
        full = sum(Xi.T @ P @ Yi for Xi, Yi in zip(X, Y))
        assert np.max(np.abs(full - x.T @ Pb @ y)) < 1e-12 * np.max(np.abs(full))


def test_oracle_P_matches_per_agent_noise_sums(rng):
    # the oracle Riccati written with the per-agent noise sums, swept by the
    # same RK4 kernel, gives the oracle's P
    N = 3
    p = rand_params(rng, n=2, m=1, steps=60)
    aug = AugmentedCoeffs(p, N)
    s = aug.at(0.0)
    Cs, Ds = per_agent_noise(p, N)

    def rhs(t, P):
        CtPC, CtPD, DtPC, DtPD = (sum(Xi.T @ P @ Yi for Xi, Yi in zip(X, Y))
                                  for X, Y in ((Cs, Cs), (Cs, Ds), (Ds, Cs), (Ds, Ds)))
        sol = np.linalg.solve(s.R + DtPD, s.B.T @ P + DtPC)
        return -(P @ s.A + s.A.T @ P + CtPC + s.Q - (P @ s.B + CtPD) @ sol)

    ref = integrate_rk4(rhs, symmetrize(s.G), p.grid(), "backward", project=symmetrize)
    P = stacked_P(solve_oracle(aug, validate=False))
    assert np.max(np.abs(P - ref.values)) < 1e-12 * np.max(np.abs(ref.values))


def block_spreads(M, N):
    """Largest spread among the diagonal and among the off-diagonal blocks of
    an N x N block matrix stack, relative to max |M|."""
    blocks = M.reshape(M.shape[0], N, M.shape[1] // N, N, M.shape[2] // N)
    diag = np.stack([blocks[:, i, :, i] for i in range(N)])
    off = np.stack([blocks[:, i, :, j] for i in range(N) for j in range(N) if i != j])
    scale = np.max(np.abs(M))
    return (np.max(np.abs(diag - diag[0])) / scale, np.max(np.abs(off - off[0])) / scale)


@pytest.mark.parametrize("instance", ["time_varying_N3", "repro_N32_cap"])
def test_oracle_is_permutation_invariant(rng, instance):
    # the agents are exchangeable, so P and gain are I (x) a + 11' (x) b: all
    # diagonal blocks equal and all off-diagonal blocks equal.  The mode solve
    # assumes it and holds it by construction; the stacked reference, which
    # does not, must show it
    if instance == "time_varying_N3":
        p, N = time_varying_params(rng, steps=30), 3
    else:
        p, N = repro_instance(steps=50), 32
    ref, _ = stacked_reference(AugmentedCoeffs(p, N))
    for M in (ref["P"], ref["gain"]):
        assert max(block_spreads(M, N)) < 1e-12
