"""Consistency-condition assembly, decoupling Riccati, extraction."""

import re

import numpy as np
import pytest

from mflqg.consistency import (
    A1,
    A1P,
    A2,
    B1,
    B1P,
    B2,
    C2,
    C2BAR,
    build_cc,
    check_condition_37,
    explicit_K_reduced,
    extract_mean_fields,
    solve_K,
    solve_cc,
    solve_kappa,
)
from mflqg import consistency
from mflqg.errors import NearSingularError, NonFiniteError, NotReducedCaseError
from mflqg.model import TIME_VARYING
from mflqg.ode import BLOWUP_NORM, TimeGrid, Trajectory, integrate_rk4, interp
from mflqg.presets import repro_instance
from mflqg.riccati import gain_terms, solve_P, solve_phi, theta1

from conftest import rand_params


def reduced_params(rng, n=1, m=1, steps=300, scale=0.35):
    """Random instance with C = Ftilde = 0 and G = 0 (closed-form regime)."""
    p = rand_params(rng, n=n, m=m, steps=steps, scale=scale, terminal=False)
    p.C = np.zeros((n, n))
    p.Ftilde = np.zeros((n, n))
    return p


def test_control_channel_off_blocks(rng):
    p = rand_params(rng, n=2, m=2)
    p.B = np.zeros((2, 2))
    p.D = np.zeros((2, 2))
    P, _ = solve_P(p)
    cc = build_cc(p, P)
    # pi1, pi3, pi1' sit in the (0, 0) n-block of the 3n blocks a1, b1, b1p,
    # the lower-right blocks of tilde
    pieces = cc.tilde[:, :, 6:8, 6:8]
    assert np.allclose(pieces[:, A1], p.A)
    assert np.max(np.abs(pieces[:, B1])) == 0.0
    assert np.max(np.abs(pieces[:, B1P])) == 0.0


def test_decoupled_blocks(rng):
    p = rand_params(rng, n=2, m=1, coupled=False)
    P, _ = solve_P(p)
    cc = build_cc(p, P)
    n = 2
    n3 = 3 * n
    # pi2 = pi2' = 0: the mean blocks a1 + a1bar and a1p + a1pbar of tilde
    # equal the fluctuation blocks a1 and a1p exactly
    tl = cc.tilde
    assert np.array_equal(tl[:, A1, :n3, :n3], tl[:, A1, n3:, n3:])
    assert np.array_equal(tl[:, A1P, n3:, :n3], tl[:, A1P, n3:, n3:])
    # with Ftilde = 0 the mean-coupled diffusion feedthrough keeps only the
    # adjoint diffusion block, so the quadratic term of the K equation sees
    # just the (1,1)-embedded -C' pattern
    csum = tl[:, C2] + tl[:, C2BAR]
    expect = np.zeros_like(csum[0])
    expect[n:2 * n, 3 * n + n:3 * n + 2 * n] = -p.C.T
    assert np.allclose(csum[0], expect)


def test_tilde_assembly_matches_hand_composition(rng):
    # the 6n blocks at one node, composed from n x n pieces computed here
    # with n = 1: pi1 = A + B Th1, pi1' = C + D Th1, pi2 = F - B S^-1 D'P Ft,
    # pi2' = Ft - D S^-1 D'P Ft, pi3 = -B S^-1 B', pi3' = -D S^-1 B' and pi4
    p = rand_params(rng, n=1, m=1, steps=50)
    P, _ = solve_P(p)
    cc = build_cc(p, P)
    k = 17
    A, B, C, D, F, Ft, Q, R, Gam, eta = (p.node_table(name)[k] for name in TIME_VARYING)
    Pk, th1, I = P.values[k], theta1(P, p).values[k], np.eye(1)
    S, _ = gain_terms(Pk, B, C, D, R)
    PFt = Pk @ Ft
    Sinv_DtPFt, Sinv_Bt = np.linalg.solve(S, D.T) @ PFt, np.linalg.solve(S, B.T)
    pi1, pi1p = A + B @ th1, C + D @ th1
    pi2, pi2p = F - B @ Sinv_DtPFt, Ft - D @ Sinv_DtPFt
    pi3, pi3p = -B @ Sinv_Bt, -D @ Sinv_Bt
    qg, gqig = Q @ Gam, Gam.T @ Q @ (I - Gam)
    pi4 = (Pk @ B + C.T @ Pk @ D) @ Sinv_DtPFt - C.T @ PFt - Pk @ F + qg + gqig

    z = np.zeros((3, 3))

    def at(*entries):                     # 3n block from ((i, j), piece)
        out = z.copy()
        for (i, j), piece in entries:
            out[i, j] = piece.item()
        return out

    a1, b1, a1p, b1p = (at(((0, 0), pi)) for pi in (pi1, pi3, pi1p, pi3p))
    a1bar, a1pbar = at(((0, 0), pi2)), at(((0, 0), pi2p))
    a2, a2bar = at(((1, 0), -Q)), at(((0, 0), pi4), ((1, 0), qg), ((2, 0), gqig))
    b2 = at(((0, 0), -pi1), ((0, 2), -F), ((1, 1), -A), ((2, 2), -(A + F)))
    b2bar = at(((0, 1), -F), ((2, 1), -F))
    c2, c2bar = at(((1, 1), -C)), at(((0, 1), -Ft), ((2, 1), -Ft))
    tl = cc.tilde[k]
    assert np.array_equal(tl[A1], np.block([[a1 + a1bar, z], [z, a1]]))
    assert np.array_equal(tl[B1], np.block([[b1, z], [z, b1]]))
    assert np.array_equal(tl[A1P], np.block([[z, z], [a1p + a1pbar, a1p]]))
    assert np.array_equal(tl[B1P], np.block([[z, z], [b1p, b1p]]))
    assert np.array_equal(tl[A2], np.block([[a2 + a2bar, z], [z, a2]]))
    assert np.array_equal(tl[B2], np.block([[b2 + b2bar, z], [z, b2]]))
    assert np.array_equal(tl[C2], np.block([[z, z], [z, c2]]))
    assert np.array_equal(tl[C2BAR], np.block([[z, c2 + c2bar], [z, -c2]]))
    # the diagonal layout the readers rely on
    assert np.array_equal(tl[B1, :3, :3], tl[B1, 3:, 3:])
    assert np.array_equal(tl[B1P, 3:, :3], tl[B1P, 3:, 3:])
    assert np.array_equal(tl[C2BAR, 3:, 3:], -tl[C2, 3:, 3:])

    G, Gb, eb = p.G, p.GammaBar, p.etaBar
    GGb, GbtGIGb, Geb = G @ Gb, Gb.T @ G @ (I - Gb), G @ eb
    Gbar = at(((1, 0), G))
    Gbar_prime = at(((0, 0), -GGb - GbtGIGb), ((1, 0), -GGb), ((2, 0), -GbtGIGb))
    assert np.array_equal(cc.K_terminal, np.block([[Gbar + Gbar_prime, z], [z, Gbar]]))
    Qeta = Q @ eta
    GtQeta = Gam.T @ Qeta
    f_vec = np.concatenate([Qeta - GtQeta, Qeta, -GtQeta])
    assert np.array_equal(cc.f_t[k], f_vec)
    g_vec = np.concatenate([Gb.T @ Geb - Geb, -Geb, Gb.T @ Geb])
    assert np.array_equal(cc.kappa_terminal, g_vec)


def test_solve_K_zero_case(rng):
    p = rand_params(rng, n=1, m=1, steps=100)
    p.Q = np.zeros((1, 1))
    p.G = np.zeros((1, 1))
    p.Gamma = np.zeros((1, 1))
    p.GammaBar = np.zeros((1, 1))
    P, _ = solve_P(p)
    cc = build_cc(p, P)
    # Q = 0 and Gamma = 0 empty every source block of the K equation
    assert np.max(np.abs(cc.tilde[:, A2])) == 0.0
    K = solve_K(cc)
    assert np.max(np.abs(K.values)) == 0.0


def test_explicit_K_matches_backward_solve(rng):
    hits = 0
    while hits < 3:
        p = reduced_params(rng, n=1, m=1)
        P, _ = solve_P(p)
        cc = build_cc(p, P)
        if not check_condition_37(cc)["holds"]:
            continue
        K = solve_K(cc)
        Kx = explicit_K_reduced(cc)
        assert np.max(np.abs(K.values - Kx.values)) < 1e-5
        assert np.max(np.abs(Kx.terminal)) < 1e-12
        hits += 1


def test_explicit_K_names_first_nearly_singular_node(rng, monkeypatch):
    # a reference loop over the nodes of a stagewise transition-matrix sweep
    # picks the first node under a raised tolerance; the batched check must
    # name the same one
    p = reduced_params(rng, n=1, m=1, steps=120)
    P, _ = solve_P(p)
    cc = build_cc(p, P)
    n6 = 6 * cc.n

    def rhs(t, Psi):
        a1t, b1t, _, _, a2t, b2t, _, _ = interp(cc.tilde, cc.grid.dt, t)
        return -Psi @ np.block([[a1t, b1t], [a2t, b2t]])

    Psi = integrate_rk4(rhs, np.eye(2 * n6), cc.grid, "backward").values
    sv = np.array([np.linalg.svd(Pk[n6:, n6:], compute_uv=False)[-1] for Pk in Psi])
    ranked = np.sort(sv)
    tol = float(0.5 * (ranked[40] + ranked[41]))
    first = next(k for k, s in enumerate(sv) if s < tol)
    assert np.min(np.abs(sv / tol - 1.0)) > 1e-9
    monkeypatch.setattr(consistency, "REDUCED_SV_TOL", tol)
    with pytest.raises(NearSingularError, match=rf"at node {first}: "):
        explicit_K_reduced(cc)


def test_explicit_K_rejects_unreduced(rng):
    p = rand_params(rng, n=1, m=1)
    P, _ = solve_P(p)
    cc = build_cc(p, P)
    with pytest.raises(NotReducedCaseError):
        explicit_K_reduced(cc)


def _instance(name):
    from test_montecarlo import time_varying_params

    if name == "repro":
        return repro_instance()
    if name == "time_varying":
        return time_varying_params(np.random.default_rng(7), steps=300)
    n = int(name[1:])          # "n1", "n2", "n3": a random instance of that size
    return rand_params(np.random.default_rng(100 + n), n=n, m=n, steps=300)


def _K_matrix_form(cc):
    """The stagewise RK4 sweep of K's Riccati equation in matrix form."""
    def rhs(t, K):
        a1t, b1t, a1pt, b1pt, a2t, b2t, c2t, c2bart = interp(cc.tilde, cc.grid.dt, t)
        return (a2t + b2t @ K - K @ (a1t + b1t @ K)
                + (c2t + c2bart) @ (K @ (a1pt + b1pt @ K)))

    return integrate_rk4(rhs, cc.K_terminal, cc.grid, "backward").values


@pytest.mark.parametrize("instance", ["repro", "time_varying", "n1", "n2", "n3"])
def test_build_cc_layout_leaves_K_two_live_columns(instance):
    # the facts the linear sweeps of solve_K rest on, exactly: every block
    # that multiplies K from the right, and K_terminal, vanishes outside the
    # x-columns 0:n and 3n:4n; C2 + C2BAR vanishes in its first 3n columns;
    # and the fluctuation rows are closed (A1, B1, A2, B2 vanish in their
    # lower-left 3n blocks, C2 + C2BAR in its lower 3n rows).  So for any K
    # whose lower-left block is zero, kappa's bracket B2 + (C2 + C2BAR) K B1P
    # - K B1 has no lower-left block either: kappa's fluctuation half, with
    # zero forcing and terminal data, stays 0
    p = _instance(instance)
    n, n3 = p.n, 3 * p.n
    cc = build_cc(p, solve_P(p)[0])
    tl = cc.tilde
    dead = np.ones(2 * n3, bool)
    dead[:n] = dead[n3:n3 + n] = False
    for b in (A1, B1, A1P, B1P):
        assert np.max(np.abs(tl[:, b][..., dead])) == 0.0
        assert np.max(np.abs(tl[:, b][..., ~dead])) > 0.0
    assert np.max(np.abs(cc.K_terminal[:, dead])) == 0.0
    csum = tl[:, C2] + tl[:, C2BAR]
    assert np.max(np.abs(csum[..., :n3])) == 0.0
    assert np.max(np.abs(csum[:, n3:])) == 0.0
    for b in (A1, B1, A2, B2):
        assert np.max(np.abs(tl[:, b, n3:, :n3])) == 0.0
    K = np.random.default_rng(1).standard_normal(tl[:, 0].shape)
    K[:, n3:, :n3] = 0.0
    bracket = tl[:, B2] + csum @ K @ tl[:, B1P] - K @ tl[:, B1]
    assert np.max(np.abs(bracket[:, n3:, :n3])) == 0.0
    assert np.max(np.abs(bracket[:, :n3, :n3])) > 0.0


@pytest.mark.parametrize("instance", ["repro", "time_varying", "n1", "n2", "n3"])
def test_solve_K_matches_matrix_form(instance):
    p = _instance(instance)
    cc = build_cc(p, solve_P(p)[0])
    ref = _K_matrix_form(cc)
    assert np.max(np.abs(solve_K(cc).values - ref)) <= 1e-10 * np.max(np.abs(ref))


def test_solve_K_makes_no_rk4_call(monkeypatch):
    # K is the image of linear sweeps, with no stagewise Riccati sweep
    from mflqg import ode

    def forbidden(*args, **kwargs):
        raise AssertionError("solve_K called integrate_rk4")

    monkeypatch.setattr(ode, "integrate_rk4", forbidden)
    monkeypatch.setattr(consistency, "integrate_rk4", forbidden, raising=False)
    p = repro_instance(steps=200)
    cc = build_cc(p, solve_P(p)[0])
    assert np.max(np.abs(solve_K(cc).values)) > 0.0


def _scaled_repro(factor):
    p = repro_instance()
    p.A = factor * p.A
    return build_cc(p, solve_P(p)[0])


def test_solve_K_at_ten_times_repro_A_matches_matrix_form():
    # K grows to max|K| ~ 912 but stays finite on [0, T]
    cc = _scaled_repro(10.0)
    ref = _K_matrix_form(cc)
    assert 900.0 < np.max(np.abs(ref)) < 925.0
    assert np.max(np.abs(solve_K(cc).values - ref)) <= 1e-6 * np.max(np.abs(ref))


@pytest.mark.parametrize("factor", [20.0, 40.0])
def test_solve_K_blowup_names_the_stagewise_node(factor):
    # at 40 x A, K22 alone blows up near t = 0.14, while the mean columns of K
    # meet their pole near t = 0.6: the sweeps advance chunk by chunk together,
    # so the first failing node in backward time is named
    cc = _scaled_repro(factor)
    with pytest.raises(NonFiniteError, match=r"at node (\d+)") as stagewise:
        _K_matrix_form(cc)
    with pytest.raises(NonFiniteError, match=r"at node (\d+)") as linear:
        solve_K(cc)
    want = int(re.search(r"at node (\d+)", str(stagewise.value)).group(1))
    got = int(re.search(r"at node (\d+)", str(linear.value)).group(1))
    assert want == {20.0: 303, 40.0: 599}[factor]
    assert abs(got - want) <= 1


@pytest.mark.parametrize("block", [0, 3], ids=["mean", "fluctuation"])
def test_solve_K_pole_between_nodes_raises(block):
    # K[block, block] = tan(T - t) from K(T) = 0 (A2 = -1, B1 = 1 there), with
    # its pole at t = T - pi/2 = 0.429 between nodes 4 and 5 of a 0.1 grid:
    # |K| stays below 35 at every node, but det U changes sign in the step
    grid = TimeGrid(2.0, 20)
    tilde = np.zeros((21, 8, 6, 6))
    tilde[:, A2, block, block] = -1.0
    tilde[:, B1, block, block] = 1.0
    cc = consistency.CCMatrices(grid=grid, n=1, tilde=tilde, f_t=np.zeros((21, 6)),
                                K_terminal=np.zeros((6, 6)), kappa_terminal=np.zeros(6),
                                xi_bar=np.zeros(3))
    assert np.max(np.abs(np.tan(grid.T - grid.nodes))) < 35.0 < BLOWUP_NORM
    with pytest.raises(NonFiniteError, match=r"at node 4$"):
        solve_K(cc)


def test_solve_cc_reports_K_health():
    p = repro_instance(steps=300)
    sol, _ = solve_cc(p)
    d = sol.diagnostics
    assert d["k_max_abs"] == np.max(np.abs(sol.K.values)) > 0.0
    assert 0.0 < d["k_det_u_min"] <= 1.0
    assert 0 <= d["k_det_u_min_node"] <= p.steps


@pytest.mark.parametrize("instance", ["repro", "time_varying"])
def test_K_lower_left_block_stays_exactly_zero(instance):
    # the equation is homogeneous in K's lower-left 3n x 3n block, which
    # starts from 0, so any block-order slip in the right-hand side shows
    p = _instance(instance)
    n3 = 3 * p.n
    K = solve_K(build_cc(p, solve_P(p)[0])).values
    assert np.max(np.abs(K[:, n3:, :n3])) == 0.0
    assert np.max(np.abs(K[:, :n3, :n3])) > 0.0


def _K_residual(steps):
    p = repro_instance(steps=steps)
    P, _ = solve_P(p)
    cc = build_cc(p, P)
    K = solve_K(cc)
    dt = p.grid().dt
    res = 0.0
    for k in range(1, steps, max(1, steps // 100)):
        Kk, tl = K.values[k], cc.tilde[k]
        rhs = (tl[A2] + tl[B2] @ Kk - Kk @ (tl[A1] + tl[B1] @ Kk)
               + (tl[C2] + tl[C2BAR]) @ Kk @ (tl[A1P] + tl[B1P] @ Kk))
        dnum = (K.values[k + 1] - K.values[k - 1]) / (2 * dt)
        res = max(res, np.max(np.abs(dnum - rhs)))
    return res


def test_K_residual_second_order():
    r1, r2 = _K_residual(250), _K_residual(500)
    assert 1.7 <= np.log2(r1 / r2) <= 2.3


def test_kappa_zero_forcing(rng):
    p = rand_params(rng, n=1, m=1, steps=100)
    p.eta = np.zeros(1)
    p.etaBar = np.zeros(1)
    P, _ = solve_P(p)
    cc = build_cc(p, P)
    K = solve_K(cc)
    kap = solve_kappa(cc, K)
    assert np.max(np.abs(kap.values)) == 0.0


def test_kappa_constant_forcing_closed_form():
    # zero dynamics kill the bracket, so dkappa/dt = f and the backward sweep
    # gives kappa(t) = g - f (T - t); here g = 0
    p = rand_params(np.random.default_rng(3), n=1, m=1, steps=400)
    for name in ("A", "B", "C", "D", "F", "Ftilde", "Gamma", "GammaBar", "G"):
        setattr(p, name, np.zeros((1, 1)))
    p.eta = np.array([1.0])
    p.etaBar = np.zeros(1)
    p.Q = np.array([[1.0]])
    P, _ = solve_P(p)
    cc = build_cc(p, P)
    K = solve_K(cc)
    kap = solve_kappa(cc, K)
    assert np.array_equal(kap.terminal, cc.kappa_terminal)
    t = p.grid().nodes
    f = cc.f_t[0]
    expect = cc.kappa_terminal[None, :] - np.outer(1.0 - t, f)
    assert np.max(np.abs(kap.values - expect)) < 1e-10


def test_condition37_identity_case(rng):
    p = rand_params(rng, n=1, m=1, steps=100)
    for name in ("A", "B", "C", "D", "F", "Ftilde", "Gamma", "GammaBar", "G", "Q"):
        setattr(p, name, np.zeros((1, 1)))
    p.R = np.array([[1.0]])
    P, _ = solve_P(p)
    cc = build_cc(p, P)
    out = check_condition_37(cc)
    assert out["holds"]
    assert out["determinant"] == pytest.approx(1.0, abs=1e-12)


def test_condition37_diagonal_exponential(rng):
    # Q = 0 kills A2; G = 0 kills Gbar; B = 0 makes B2 block diagonal, so the
    # lower-right transition block is exp(B2 T) with known trace
    p = rand_params(rng, n=1, m=1, steps=400, terminal=False)
    p.Q = np.zeros((1, 1))
    p.B = np.zeros((1, 1))
    P, _ = solve_P(p)
    cc = build_cc(p, P)
    out = check_condition_37(cc)
    a, f = p.A[0, 0], p.F[0, 0]
    expect = np.exp((-a - a - (a + f)) * p.T)
    assert out["determinant"] == pytest.approx(expect, rel=1e-8)


def test_condition37_repro_regression_value():
    # no closed form exists for this determinant; the first validated run is
    # pinned as a regression golden
    p = repro_instance(steps=1000)
    P, _ = solve_P(p)
    out = check_condition_37(build_cc(p, P))
    assert out["holds"]
    assert out["determinant"] == pytest.approx(0.06168704267298761, rel=1e-9)


def test_extraction_zero_data(rng):
    p = rand_params(rng, n=2, m=1, steps=150)
    p.eta = np.zeros(2)
    p.etaBar = np.zeros(2)
    p.xi0 = np.zeros(2)
    sol, law = solve_cc(p)
    for traj in (sol.xhat, sol.y1hat, sol.y2hat, sol.beta1hat, sol.phi):
        assert np.max(np.abs(traj.values)) == 0.0
    assert np.max(np.abs(law.Theta2.values)) == 0.0


def test_extraction_initial_and_terminal_conditions(rng):
    p = rand_params(rng, n=2, m=2, steps=200)
    sol, _ = solve_cc(p)
    assert np.array_equal(sol.xhat.initial, p.xi0)
    # terminal adjoint: Y1(T) = (Gbar + Gbar')X1(T) + g, the upper-left 3n
    # blocks of the decoupling pair's terminal data
    P, _ = solve_P(p)
    cc = build_cc(p, P)
    n3 = 3 * p.n
    want = cc.K_terminal[:n3, :n3] @ sol.X1.terminal + cc.kappa_terminal[:n3]
    got = np.concatenate([sol.phi.terminal, sol.y1hat.terminal, sol.y2hat.terminal])
    assert np.max(np.abs(got - want)) < 1e-8


def test_fluctuation_mean_vanishes(rng):
    p = rand_params(rng, n=2, m=2, steps=200)
    sol, _ = solve_cc(p)
    # the fluctuation-mean adjoint K21 X1 is exactly 0: K21 stays exactly 0
    n3 = 3 * p.n
    assert not np.any(np.einsum("kij,kj->ki", sol.K.values[:, n3:, :n3], sol.X1.values))
    assert sol.diagnostics["k_terminal_err"] == 0.0
    assert sol.diagnostics["kappa_terminal_err"] == 0.0


def test_phi_dual_route_on_repro():
    sol, _ = solve_cc(repro_instance(steps=500))
    assert sol.diagnostics["phi_cross_max_err"] < 1e-5


def test_phi_dual_route_on_random_instances(rng):
    for _ in range(3):
        p = rand_params(rng, n=2, m=1, steps=800)
        sol, _ = solve_cc(p)
        assert sol.diagnostics["phi_cross_max_err"] < 1e-5


def test_extraction_consistent_with_mean_ode(rng):
    # xhat must solve d xhat = (A + F + B Th1) xhat + B Th2; integrate the
    # right side with the extracted Th2 and compare, on a constant instance
    # and on the same instance with A(t) = A (1 + t)
    import copy

    from mflqg.ode import integrate_rk4

    p = rand_params(rng, n=2, m=2, steps=300)
    varying = copy.copy(p)
    varying.A = p.A[None] * (1.0 + p.grid().nodes)[:, None, None]
    for q in (p, varying):
        sol, law = solve_cc(q)
        grid = law.grid

        def rhs(t, x):
            A, F, B, Th1, Th2 = (interp(table, grid.dt, t) for table in (
                q.node_table("A"), q.node_table("F"), q.node_table("B"),
                law.Theta1.values, law.Theta2.values))
            return (A + F) @ x + B @ (Th1 @ x + Th2)

        xx = integrate_rk4(rhs, q.xi0, grid, "forward")
        assert np.max(np.abs(xx.values - sol.xhat.values)) < 1e-5


def test_constant_copies_as_time_varying_tables_match_constant_instance():
    # the time-varying branch (every capable coefficient sampled per node)
    # must reproduce the constant instance through solve_cc and the Lyapunov
    # kernels and their bound
    from mflqg.analysis import lambda_boundedness
    from mflqg.model import COEFF_SPEC

    const = repro_instance(steps=200)
    tv = repro_instance(steps=200)
    nodes = tv.steps + 1
    for name, (_, tv_ok, _) in COEFF_SPEC.items():
        if tv_ok:
            arr = getattr(tv, name)
            setattr(tv, name, np.broadcast_to(arr, (nodes,) + arr.shape).copy())
            assert tv.is_time_varying(name)

    def close(old, new):
        return np.max(np.abs(new - old)) <= 1e-12 * (1.0 + np.max(np.abs(old)))

    (s0, l0), (s1, l1) = solve_cc(const), solve_cc(tv)
    for f in ("K", "kappa", "X1", "xhat", "y1hat", "y2hat", "beta1hat", "phi"):
        assert close(getattr(s0, f).values, getattr(s1, f).values), f
    for f in ("P", "phi", "Theta1", "Theta2"):
        assert close(getattr(l0, f).values, getattr(l1, f).values), f
    for key, val in s0.diagnostics.items():
        if isinstance(val, float):
            assert close(val, s1.diagnostics[key]), key
    r0, r1 = lambda_boundedness(const, l0, [10, 100]), lambda_boundedness(tv, l1, [10, 100])
    for a, b in zip(r0.pairs, r1.pairs):
        assert close(a.lam1.values, b.lam1.values) and close(a.lam2.values, b.lam2.values)
    assert close(r0.bound, r1.bound)
    assert (r0.dominated, r0.uniform) == (r1.dominated, r1.uniform)
