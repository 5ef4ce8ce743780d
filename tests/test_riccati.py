"""Riccati solves against closed forms, gain formulas, and the oracle."""

import re
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from mflqg import ode, riccati
from mflqg.consistency import solve_cc
from mflqg.errors import (
    GridMismatchError,
    NonFiniteError,
    RegularityLostError,
    SettingError,
    StationarityError,
)
from mflqg.model import AugmentedCoeffs, build_augmented, kron_eye, kron_mean, load_config
from mflqg.ode import TimeGrid, Trajectory, integrate_rk4, interp, symmetrize
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

import reference_law
from conftest import rand_params, scanned_instance
from test_montecarlo import gap_scalar_params, mode_law, stacked_tables, time_varying_params

REPO = Path(__file__).resolve().parents[1]


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


def test_markowitz_mean_variance_closed_forms():
    # Markowitz mean-variance (Zhou & Li, Appl. Math. Optim. 42, 2000): wealth
    # at rate r with excess return mu - r and volatility sigma on the control,
    # terminal target gamma, no coupling.  With rho = (mu - r)/sigma,
    # P(t) = e^{(2r - rho^2)(T - t)} and phi(t) = -gamma e^{(r - rho^2)(T - t)}
    # (measured 1.4e-15 and 5.4e-14 relative at 1000 steps, the phi cross
    # check 0.0); the independent reference's limit law matches them too
    r, mu, sigma, gamma = 0.03, 0.08, 0.2, 1.5
    zero = [[0.0]]
    p = scalar_params(steps=1000, A=[[r]], B=[[mu - r]], C=zero, D=[[sigma]], F=zero,
                      Ftilde=zero, Q=zero, R=zero, G=[[1.0]], Gamma=zero, GammaBar=zero,
                      eta=[0.0], etaBar=[gamma])
    rho2 = ((mu - r) / sigma) ** 2
    tau = p.T - p.grid().nodes
    P, phi = np.exp((2 * r - rho2) * tau), -gamma * np.exp((r - rho2) * tau)
    sol, law = solve_cc(p)
    assert relative_error(law.P.values[:, 0, 0], P) <= 1e-12
    assert relative_error(law.phi.values[:, 0], phi) <= 1e-12
    assert sol.diagnostics["phi_cross_max_err"] <= 1e-12
    Pi, _, ref_phi, _ = reference_law.limit_law(p.A, p.B, p.C, p.D, p.F, p.Ftilde, p.Q, p.R,
                                                p.G, p.Gamma, p.GammaBar, p.eta, p.etaBar,
                                                p.xi0, p.T, p.grid().nodes)
    assert relative_error(Pi[:, 0, 0], P) <= 1e-12
    assert relative_error(ref_phi[:, 0], phi) <= 1e-12


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


@pytest.mark.parametrize("solver, R, message", [
    (solve_P, -0.3, r"^regularity margin -4\.960e-02 <= 1e-10 at node 164 \(t = 0\.82\)$"),
    (lambda p: solve_oracle(AugmentedCoeffs(p, 1), validate=False), -0.1,
     r"^oracle regularity margin at N = 1: -2\.442e\+00 <= 1e-10 at node 87 \(t = 0\.435\)$"),
], ids=["solve_P", "oracle"])
def test_a_lost_margin_names_the_node_where_it_is_smallest(solver, R, message):
    # gap-scalar with D = 1 and a negative R: R + D'PD stays nonsingular at
    # every stage but turns negative, least at the named node
    p = replace(gap_scalar_params(), D=np.ones((1, 1)), R=np.full((1, 1), R))
    with pytest.raises(RegularityLostError, match=message):
        solver(p)


def feedback_law_fields(grid, off=None):
    """Zero P, phi, Theta1 and Theta2 (n = m = 1) on grid; field ``off`` on
    twice its steps."""
    fields = {}
    for name, shape in (("P", (1, 1)), ("phi", (1,)), ("Theta1", (1, 1)), ("Theta2", (1,))):
        g = TimeGrid(grid.T, 2 * grid.steps) if name == off else grid
        fields[name] = Trajectory(g, np.zeros((g.steps + 1,) + shape))
    return fields


@pytest.mark.parametrize("off", ["xhat", "yhat1", "yhat2", "betahat1", "phi"])
def test_phi_and_theta2_refuse_a_trajectory_off_the_grid_of_P(off):
    # both read every trajectory at P's nodes; the refusal names the one off them
    p = gap_scalar_params(steps=20)
    P, _ = solve_P(p)

    def traj(name):
        grid = TimeGrid(p.T, 40) if name == off else P.grid
        return Trajectory(grid, np.zeros((grid.steps + 1, 1)))

    with pytest.raises(GridMismatchError, match=rf"^{off} is sampled on TimeGrid\(T=1.0, steps=40\), "
                                                rf"P on TimeGrid\(T=1.0, steps=20\)$"):
        if off == "phi":
            theta2(P, traj("phi"), traj("xhat"), p)
        else:
            solve_phi(P, p, *(traj(name) for name in ("xhat", "yhat1", "yhat2", "betahat1")))


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


def test_feedback_law_refusals_name_the_field():
    # FeedbackLaw alone admits a law, so a stored law's refusal needs only
    # the file in front of its message
    grid = TimeGrid(1.0, 20)
    with pytest.raises(RegularityLostError, match="^law field 'regularity_margin': 0.000e"):
        FeedbackLaw(grid=grid, regularity_margin=0.0, **feedback_law_fields(grid))
    P = np.zeros((grid.steps + 1, 2, 2))
    P[5, 0, 1] = 1e-6
    fields = {**feedback_law_fields(grid), "P": Trajectory(grid, P)}
    with pytest.raises(RegularityLostError, match=r"^law field 'P': asymmetry 1\.000e-06 exceeds"):
        FeedbackLaw(grid=grid, regularity_margin=1.0, **fields)


def _matrix_form_P(p):
    """Stagewise RK4 of the matrix-form P equation, re-symmetrized per step."""
    grid = p.grid()
    h = -grid.dt

    def rhs(t, P):
        A, B, C, D, Q, R = (interp(p.node_table(k), grid.dt, t)
                            for k in ("A", "B", "C", "D", "Q", "R"))
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


@pytest.mark.parametrize("instance", ["repro", "gap_scalar"])
def test_P_and_theta1_match_an_independent_reference(instance):
    # reference_law shares no code with the package: its adaptive DOP853
    # solve of the P equation, read at the nodes, and the gain formed from
    # it bound solve_P's and theta1's error at every node (repro at 1000
    # steps was off by about 1.4e-12 relative)
    p = repro_instance(steps=1000) if instance == "repro" else gap_scalar_params(steps=200)
    P, _ = solve_P(p)
    ref = reference_law.riccati_P(p.A, p.B, p.C, p.D, p.Q, p.R, p.G, p.T, p.grid().nodes)
    assert np.max(np.abs(P.values - ref)) <= 1e-9 * np.max(np.abs(ref))
    gain = reference_law.theta1(ref, p.B, p.C, p.D, p.R)
    assert np.max(np.abs(theta1(P, p).values - gain)) <= 1e-9 * np.max(np.abs(gain))


@pytest.mark.parametrize("instance", ["gap_scalar", "repro"])
def test_oracle_modes_match_an_independent_reference(instance):
    # reference_law's DOP853 solve of the two modes, read at the nodes,
    # bounds the oracle's at every N; at N = 1 it has no deviation mode
    p = repro_instance(steps=1000) if instance == "repro" else gap_scalar_params(steps=200)
    for N in (1, 2, 8):
        law = solve_oracle(AugmentedCoeffs(p, N), validate=False)
        dev, mean = reference_law.oracle_modes(p.A, p.B, p.C, p.D, p.F, p.Ftilde, p.Q, p.R,
                                               p.G, p.Gamma, p.GammaBar, N, p.T,
                                               p.grid().nodes)
        assert np.max(np.abs(law.P_mean.values - mean)) <= 1e-9 * np.max(np.abs(mean))
        if N > 1:
            assert np.max(np.abs(law.P_dev.values - dev)) <= 1e-9 * np.max(np.abs(dev))


def limit_reference(instance, steps=None):
    """The instance (repro at 1000 steps, gap-scalar at 200, or at ``steps``)
    and reference_law's limit law (Pi, theta_inf, phi, affine) at its nodes."""
    if instance == "repro":
        p = repro_instance(steps=steps or 1000)
    else:
        p = gap_scalar_params(steps=steps or 200)
    return p, reference_law.limit_law(p.A, p.B, p.C, p.D, p.F, p.Ftilde, p.Q, p.R, p.G,
                                      p.Gamma, p.GammaBar, p.eta, p.etaBar, p.xi0, p.T,
                                      p.grid().nodes)


def relative_error(got, want) -> float:
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@pytest.mark.parametrize("instance", ["repro", "gap_scalar"])
def test_limit_oracle_matches_an_independent_reference(instance):
    # the oracle at N = infinity has P_d = P_dev, and its mean mode is the
    # limit law's Pi (measured 8.1e-12 relative on repro, 5.0e-12 on
    # gap-scalar); its adjoint phi and affine, swept at second order, match
    # the reference's within 1e-6 (measured 2.4e-8 and 2.7e-8 on repro,
    # 1.36e-7 on gap-scalar)
    p, (Pi, _, phi, affine) = limit_reference(instance)
    law = solve_oracle(SimpleNamespace(params=p, N=np.inf), validate=False)
    assert relative_error(law.P_mean.values, Pi) <= 1e-9
    assert relative_error(law.phi.values, phi) <= 1e-6
    assert relative_error(law.affine.values, affine) <= 1e-6


def test_limit_oracle_adjoint_converges_at_second_order():
    # on gap-scalar the errors of phi and the affine against the reference
    # fall fourfold per step doubling: 1.36e-7, 3.40e-8 and 8.50e-9 at 200,
    # 400 and 800 steps (ROADMAP item 4 asks for fourth order)
    errors = []
    for steps in (200, 400, 800):
        p, (_, _, phi, affine) = limit_reference("gap_scalar", steps)
        law = solve_oracle(SimpleNamespace(params=p, N=np.inf), validate=False)
        errors.append([relative_error(law.phi.values, phi),
                       relative_error(law.affine.values, affine)])
    ratios = np.array(errors[:-1]) / np.array(errors[1:])
    assert np.all((3.8 <= ratios) & (ratios <= 4.2)), ratios


@pytest.mark.xfail(strict=True, reason="the consistency condition's E Z term is off "
                                       "(ROADMAP item 1): Theta2 misses theta_inf by "
                                       "4.10e-2 relative on repro, 7.14e-4 on gap-scalar")
@pytest.mark.parametrize("instance", ["repro", "gap_scalar"])
def test_theta2_matches_the_limit_law_of_an_independent_reference(instance):
    p, (_, theta, _, _) = limit_reference(instance)
    _, law = solve_cc(p)
    assert np.max(np.abs(law.Theta2.values - theta)) <= 1e-6 * np.max(np.abs(theta))


def test_P_matches_the_symmetrized_reference_on_a_random_instance():
    # scan instance 20 (n = m = 2, T = 2.49): a reference stepping the full
    # matrix state without symmetrizing it let its antisymmetric part grow to
    # 17.5 and missed the library's P by 0.41 relative.  Symmetrized, it
    # agrees to 1.08e-8 relative, about the library's own step-doubling
    # difference (1.01e-8 from 200 to 400 steps)
    p = scanned_instance(20)
    P, _ = solve_P(p)
    fine, _ = solve_P(replace(p, steps=2 * p.steps))
    ref = reference_law.riccati_P(p.A, p.B, p.C, p.D, p.Q, p.R, p.G, p.T, p.grid().nodes)
    assert relative_error(P.values, ref) <= 2.0 * relative_error(P.values, fine.values[::2])


def test_coupled_mean_variance_closed_forms():
    # configs/meanvariance.json at R = 0: wealth at rate r with excess return
    # mu - r and volatility sigma on the control, terminal target gamma
    # relative to the population mean (GammaBar = g).  With rho = (mu - r)/sigma,
    # tau = T - t and u0 = 1/(g - 1)^2, the N = infinity oracle has
    # P = e^{(2r - rho^2) tau}, Pi = e^{2r tau}/(u0 - 1 + e^{rho^2 tau}) and
    # phi = (g - 1) gamma e^{r tau} u0/(u0 - 1 + e^{rho^2 tau}) (measured
    # 1.4e-15, 1.7e-15 and 1.9e-12 relative at 1000 steps); the independent
    # reference's limit law matches Pi and phi too (4e-16 and 3e-16)
    p = replace(load_config(REPO / "configs" / "meanvariance.json"), R=np.zeros((1, 1)))
    r, excess, sigma = p.A[0, 0], p.B[0, 0], p.D[0, 0]
    gamma, g = p.etaBar[0], p.GammaBar[0, 0]
    rho2, tau, u0 = (excess / sigma) ** 2, p.T - p.grid().nodes, 1.0 / (g - 1.0) ** 2
    denominator = u0 - 1.0 + np.exp(rho2 * tau)
    P = np.exp((2.0 * r - rho2) * tau)
    Pi = np.exp(2.0 * r * tau) / denominator
    phi = (g - 1.0) * gamma * np.exp(r * tau) * u0 / denominator
    law = solve_oracle(SimpleNamespace(params=p, N=np.inf), validate=False)
    assert relative_error(law.P_dev.values[:, 0, 0], P) <= 1e-12
    assert relative_error(law.P_mean.values[:, 0, 0], Pi) <= 1e-12
    assert relative_error(law.phi.values[:, 0], phi) <= 1e-11
    ref_Pi, _, ref_phi, _ = reference_law.limit_law(p.A, p.B, p.C, p.D, p.F, p.Ftilde, p.Q, p.R,
                                                    p.G, p.Gamma, p.GammaBar, p.eta, p.etaBar,
                                                    p.xi0, p.T, p.grid().nodes)
    assert relative_error(ref_Pi[:, 0, 0], Pi) <= 1e-12
    assert relative_error(ref_phi[:, 0], phi) <= 1e-12


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
    for every stage's gain, stepped on arrays by ode.integrate_rk4: the
    reference for its closed-form m <= 2 gains, its float loop and its
    smallest stage eigenvalue, here by eigvalsh, with that stage's time."""
    assert not any(params.is_time_varying(name) for name in names)
    k, n, m = len(terminals), params.n, params.m
    kn2, m2 = k * n * n, m * m
    ops = operator(*(getattr(params, name) for name in names))
    stages = []

    def rhs(t, y):
        z = ops @ y
        S, num = z[kn2 + 1:kn2 + 1 + m2].reshape(m, m), z[kn2 + 1 + m2:].reshape(k, m, n)
        try:
            gain = np.linalg.solve(S, num)
        except np.linalg.LinAlgError as exc:
            raise RegularityLostError(f"{what} singular at t={t:.6g}") from exc
        stages.append((np.linalg.eigvalsh(symmetrize(S))[0], t))
        dy = z[:kn2 + 1]
        dy[:kn2] += (num.transpose(0, 2, 1) @ gain).ravel()
        return dy

    swap = np.append(np.arange(kn2).reshape(k, n, n).swapaxes(1, 2).ravel(), kn2)
    y0 = np.append(symmetrize(np.stack(terminals)).ravel(), 1.0)
    y = integrate_rk4(rhs, y0, grid, "backward", project=lambda y: 0.5 * (y + y[swap]))
    low, t = min(stages, key=lambda stage: stage[0])
    return np.ascontiguousarray(y.values[:, :kn2]).reshape(-1, k, n, n), (float(low), t)


@pytest.mark.parametrize("later", [False, True], ids=["alone", "singular_after"])
@pytest.mark.parametrize("m", [1, 2])
def test_blowup_inside_a_chunk_of_the_P_sweep_names_its_node(m, later):
    # A = C = D = 0, B = e_1', R = I, Q = -q and G = 0 give dP/dt = q + P^2,
    # whose P(t) = -sqrt(q) tan(sqrt(q) (T - t)) escapes at T - t = 0.521,
    # inside a chunk of the 400-step sweep.  lapack_sweep, on integrate_rk4,
    # names the node.  With later, R's node values make S exactly singular
    # at the midpoint of the step after that node, a stage in the same
    # chunk, and the blow-up is still what is named
    q = (np.pi / (2 * 0.521)) ** 2
    p = rand_params(np.random.default_rng(0), n=1, m=m, steps=400)
    p.A, p.C, p.D, p.G = np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, m)), np.zeros((1, 1))
    p.B, p.Q, p.R = np.eye(1, m), np.array([[-q]]), np.eye(m)
    with pytest.raises(NonFiniteError) as ref:
        lapack_sweep(p, p.grid(), riccati.p_operator, P_NAMES, [p.G], "R + D'PD")
    node = int(str(ref.value).rsplit(" ", 1)[1])
    ends = next(ks - 1 for ks, _ in ode.sweep_chunks(p.grid(), "backward")[1] if node in ks - 1)
    assert ends[-1] < node < ends[0]
    if later:
        p.R = np.broadcast_to(np.eye(m), (p.steps + 1, m, m)).copy()
        p.R[node - 1] = -np.eye(m)
    with pytest.raises(NonFiniteError, match=rf"^blow-up detected at node {node}$"):
        solve_P(p)


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
                got, _ = riccati._riccati_sweep(p, p.grid(), operator, names, terminals, "S")
                ref, _ = lapack_sweep(p, p.grid(), operator, names, terminals, "S")
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


STAGE_REFUSAL = r"^regularity margin (\S+) <= 1e-10 at an RK4 stage \(t = (\S+)\)$"


def node_margin(p):
    """The smallest node-wise lambda_min(R + D'PD) of P's sweep, not judged."""
    values, _ = riccati._riccati_sweep(p, p.grid(), riccati.p_operator, P_NAMES, [p.G], "S")
    return ode.eig_min(riccati.node_gain_terms(Trajectory(p.grid(), values[:, 0]), p)[0])


@pytest.mark.parametrize("index, m, t, value", [
    (3, None, 1.0665, -2.16e-2), (269, None, 1.2981, -5.17e-2), (418, 3, 2.2012, -5.86e-3),
], ids=["instance_3", "instance_269", "m3_instance_418"])
def test_a_pole_between_nodes_is_refused_at_its_rk4_stage(index, m, t, value):
    # every node of the 200-step sweep has lambda_min(R + D'PD) above 0.19,
    # yet an RK4 stage between two nodes stepped over a pole, where
    # lambda_min was measured at ``value`` near ``t``; 800 and 3200 steps
    # refuse the instance at a node.  418 is one of two instances with a
    # stage below the tolerance and every node above it in a scan of 600
    # random instances with m = 3
    p = scanned_instance(index, m)
    assert p.m == (m or 1) and node_margin(p) > 0.19
    with pytest.raises(RegularityLostError, match=STAGE_REFUSAL) as refused:
        solve_P(p)
    got_value, got_t = map(float, re.match(STAGE_REFUSAL, str(refused.value)).groups())
    assert abs(got_t - t) <= p.grid().dt
    assert got_value == pytest.approx(value, rel=1e-2)


@pytest.mark.parametrize("index, steps", [(38, 800), (179, 800), (149, 3200)])
def test_pole_instances_are_refused_at_every_step_count(index, steps):
    # on each of these scan instances P has a pole in (0, T), and the node
    # margin alone accepted this one step count (179 is the one with m = 2);
    # the other step counts refuse it at a node.  Instances 3 and 269, which
    # the node margin accepted at 200 steps, are the stage-time test's cases
    p = replace(scanned_instance(index), steps=steps)
    assert p.m == (2 if index == 179 else 1)
    with pytest.raises((RegularityLostError, NonFiniteError)):
        solve_P(p)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_smallest_stage_value_matches_lapack_sweep(m):
    # the sweep's smallest stage lambda_min(S), from one batched eigvalsh,
    # and its time match the reference's eigvalsh at every stage, for P and
    # the oracle's modes, on random instances with an indefinite R built as
    # in test_closed_form_gain_matches_lapack_sweep, so the values are negative
    rng = np.random.default_rng(200 + m)
    for n in (1, 2, 3):
        for _ in range(4):
            p = rand_params(rng, n=n, m=m, steps=40)
            U, _ = np.linalg.qr(rng.standard_normal((m, m)))
            eig = (1.0 + rng.random(m)) * np.array([-1.0, 1.0, 1.0][:m])
            p.R = symmetrize(U @ np.diag(eig) @ U.T)
            p.B, p.D = 0.25 * p.B, 0.25 * p.D
            for operator, names, terminals in both_sweeps(p):
                _, (low, t) = riccati._riccati_sweep(p, p.grid(), operator, names, terminals, "S")
                _, (ref_low, ref_t) = lapack_sweep(p, p.grid(), operator, names, terminals, "S")
                assert low == pytest.approx(ref_low, rel=1e-10, abs=1e-12)
                assert t == ref_t


@pytest.mark.parametrize("instance", ["repro", "gap_scalar"])
def test_stage_margin_is_the_node_margin_on_repro_and_gap_scalar(instance):
    # the smallest stage value is R + D'GD at t = T, the node margin, so the
    # stage rule refuses neither: 0.6587 on repro, 1.0200 on gap-scalar
    p = repro_instance() if instance == "repro" else gap_scalar_params()
    sol, law = solve_cc(p)
    d = sol.diagnostics
    assert d["stage_margin_t"] == p.T and law.P.stage_t == p.T
    assert d["stage_margin"] == law.P.stage_margin == pytest.approx(d["regularity_margin"],
                                                                    rel=1e-15)
    assert d["regularity_margin"] == pytest.approx(0.6587 if instance == "repro" else 1.02,
                                                   rel=1e-12)


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
    report = law.validation
    assert all(abs(d) <= t for d, t in zip(report["derivatives"], report["thresholds"]))
    assert all(c >= -2.0 * se for c, se in zip(report["curvatures"], report["curvature_ses"]))


def test_oracle_validation_refuses_a_shifted_affine_and_negative_curvature():
    # the law's affine moved by 0.3 is no longer stationary: at 1024 paths
    # its mean derivative along the first direction is over the threshold
    # beyond 3 standard errors, so the verdict needs no re-measurement
    aug = AugmentedCoeffs(gap_scalar_params(), 2)
    law = solve_oracle(aug, validate=False)
    shifted = replace(law, affine=Trajectory(law.grid, law.affine.values + 0.3))
    where = r"^oracle failed stationarity: N = 2, direction 1 of 5: "
    with pytest.raises(StationarityError, match=where + r"\|dJ\| = .* \(se .*, 1024 paths\)$"):
        riccati._validate_stationarity(aug, shifted, paths=1024, seed=7, tol=1e-2)
    # with R = -1 and Q = G = 0 the cost is concave in the affine: the mean
    # curvature along a direction is about -||delta||^2, far below -2 se
    zero = np.zeros((1, 1))
    concave = AugmentedCoeffs(replace(aug.params, R=-np.ones((1, 1)), Q=zero, G=zero), 2)
    with pytest.raises(StationarityError, match=where + r"mean curvature -6\.\d*e-01 < -2 se"):
        riccati._validate_stationarity(concave, shifted, paths=1024, seed=7, tol=1e-2)


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
    gain = -node_solve(S, num)

    def phi_rhs(t, phi):
        s = aug.at(t)
        return -((s.A + s.B @ interp(gain, grid.dt, t)).T @ phi + s.S1)

    phi = integrate_rk4(phi_rhs, nodes.S2, grid, "backward")
    affine = -node_solve(S, nodes.B.swapaxes(-1, -2) @ phi.values[..., None])[..., 0]
    tables = {"P": P.values, "phi": phi.values, "gain": gain, "affine": affine}
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
                # the failing check and where: "oracle failed stationarity: N = .., direction .."
                verdicts.append((str(exc).split(":")[:2], None))
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
    ((modes, _),) = swept
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
