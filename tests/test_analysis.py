"""Convergence table, gap study plumbing, Lyapunov-pair boundedness."""

import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from mflqg import analysis, montecarlo, ode
from mflqg.analysis import convergence_study, gap_study, lambda_boundedness
from mflqg.consistency import solve_cc
from mflqg.errors import GridMismatchError, InvalidNError, SettingError
from mflqg.model import AugmentedCoeffs, ModelParams, load_config
from mflqg.montecarlo import NoiseBank, simulate_centralized, simulate_decentralized
from mflqg.ode import Trajectory, integrate_rk4, interp
from mflqg.presets import repro_instance
from mflqg.riccati import FeedbackLaw, solve_oracle

from conftest import rand_params

REPO = Path(__file__).resolve().parents[1]


def test_noiseless_convergence_estimates_vanish(rng):
    # no diffusion at all: the realized average IS the mean field up to the
    # deterministic Euler-vs-RK4 gap, identically across replications
    p = rand_params(rng, n=1, m=1, steps=1000)
    p.C = np.zeros((1, 1))
    p.D = np.zeros((1, 1))
    p.Ftilde = np.zeros((1, 1))
    sol, law = solve_cc(p)
    tab = convergence_study(p, law, sol.xhat, [5, 10], replications=3, seed=0)
    for _, _, est, se in tab.rows:
        assert est < 1e-7
        assert se == 0.0


def test_convergence_slope_scale_free(rng):
    p = repro_instance(steps=250)
    sol, law = solve_cc(p)
    tab1 = convergence_study(p, law, sol.xhat, [25, 50, 100], replications=40, seed=3)
    p2 = repro_instance(steps=250)
    p2.eta = 2.5 * p2.eta
    sol2, law2 = solve_cc(p2)
    tab2 = convergence_study(p2, law2, sol2.xhat, [25, 50, 100], replications=40, seed=3)
    assert abs(tab1.slope - tab2.slope) < 0.15
    assert not np.allclose([r[2] for r in tab1.rows], [r[2] for r in tab2.rows])


def test_convergence_slope_needs_two_distinct_N(rng):
    # the same N twice gives two equal rows and no slope, rather than one
    # fitted from a rank-deficient system
    p = rand_params(rng, n=1, m=1, steps=100)
    sol, law = solve_cc(p)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tab = convergence_study(p, law, sol.xhat, [5, 5], replications=3, seed=0)
    assert tab.rows[0] == tab.rows[1]
    assert np.isnan(tab.slope) and np.isnan(tab.intercept)


def test_gap_study_reproducible(rng):
    p = rand_params(rng, n=1, m=1, steps=150)
    g1 = gap_study(p, [2, 3], paths=100, seed=4, validate_oracle=False)
    g2 = gap_study(p, [2, 3], paths=100, seed=4, validate_oracle=False)
    assert g1.rows == g2.rows


def test_gap_exactly_zero_in_collapse_case(rng):
    # N=1 with no coupling and no average weighting: the decentralized law IS
    # the optimal law, bit for bit, so the pathwise gap vanishes identically
    p = rand_params(rng, n=1, m=1, steps=200, coupled=False)
    p.Gamma = np.zeros((1, 1))
    p.GammaBar = np.zeros((1, 1))
    table = gap_study(p, [1], paths=60, seed=2, validate_oracle=False)
    N, j_dec, j_orc, gap, se = table.rows[0]
    # the two laws agree to the last ulp (different but algebraically equal
    # matmul groupings), so the gap is roundoff, not statistics
    assert abs(gap) <= max(2.0 * se, 1e-12)
    assert se <= 1e-12


def test_gap_study_warns_without_certificate(rng):
    p = rand_params(rng, n=1, m=1, steps=100)
    p.Q = np.array([[-0.5]])
    with pytest.warns(UserWarning):
        g = gap_study(p, [2], paths=50, seed=1, validate_oracle=False)
    assert g.warnings


def test_gap_study_takes_the_decoupled_certificate():
    # F = Ftilde = 0, R = 0 and D = 1 on the gap-scalar instance: the psd
    # certificate says only Convex, the decoupled one UniformlyConvex with
    # margin 0.245, so the study has nothing to warn about
    p = load_config(REPO / "perfbench" / "gap_scalar.json")
    p.F, p.Ftilde, p.R, p.D = (np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)),
                               np.ones((1, 1)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = gap_study(p, [2], paths=20, seed=1, validate_oracle=False)
    assert g.warnings == []


def test_gap_study_on_gap_scalar_validates_every_oracle():
    # the stationarity verdict judges each direction once on the mean g and
    # c, so at seed 0 every N's oracle passes, and no decentralized cost
    # undercuts the oracle's by more than 2 standard errors
    p = load_config(REPO / "perfbench" / "gap_scalar.json")
    table = gap_study(p, [2, 4, 8], paths=50, seed=0)
    assert [row[0] for row in table.rows] == [2, 4, 8]
    assert all(gap >= -2.0 * se for _, _, _, gap, se in table.rows)


@pytest.mark.parametrize("cap", [2**24, 2**10], ids=["one-chunk", "four-chunks"])
def test_gap_study_draws_each_bank_once_one_chunk_at_a_time(monkeypatch, cap):
    # both simulations of a population size read one draw of its bank, chunk
    # by chunk, each chunk freed before the next is drawn; the rows are those
    # of the two simulations run over the whole bank
    monkeypatch.setattr(montecarlo, "NOISE_CHUNK_SCALARS", cap)
    p = load_config(REPO / "perfbench" / "gap_scalar.json")
    _, law = solve_cc(p)
    paths, seed = 7, 5
    drawn, held = {}, []
    block = NoiseBank.increments_block

    def recorded(bank, chunk):
        assert all(ref() is None for ref in held), "a drawn chunk outlived its simulations"
        out = block(bank, chunk)
        drawn.setdefault(bank.seed, []).append(len(chunk))
        held.append(weakref.ref(out))
        return out

    with monkeypatch.context() as m:
        m.setattr(NoiseBank, "increments_block", recorded)
        table = gap_study(p, [2, 3], paths=paths, seed=seed, law=law, validate_oracle=False)
    assert {s: sum(sizes) for s, sizes in drawn.items()} == {seed + 2: paths, seed + 3: paths}
    assert len(drawn[seed + 2]) == (4 if cap == 2**10 else 1)
    for N, row in zip([2, 3], table.rows):
        aug = AugmentedCoeffs(p, N)
        noise = NoiseBank(seed=seed + N, n_paths=paths, n_agents=N, grid=law.grid)
        dec = simulate_decentralized(p, law, N, noise, store=False).J_soc
        cen = simulate_centralized(aug, solve_oracle(aug, law.grid, validate=False), noise,
                                   store=False).J_soc
        diff = (dec - cen) / N
        assert row == (N, float(dec.mean() / N), float(cen.mean() / N), float(diff.mean()),
                       float(diff.std(ddof=1) / np.sqrt(paths)))


def test_studies_wrap_their_bank_seeds_at_the_top_of_the_key_range(rng):
    # the bank of population size N is seeded (seed + N) mod 2**64, so at
    # seed 2**64 - 1 it is the bank seeded N - 1
    p = rand_params(rng, n=1, m=1, steps=60)
    sol, law = solve_cc(p)
    top = 2**64 - 1
    conv = convergence_study(p, law, sol.xhat, [2, 3], replications=3, seed=top)
    gap = gap_study(p, [2, 3], paths=4, seed=top, law=law, validate_oracle=False)
    for N, row_c, row_g in zip([2, 3], conv.rows, gap.rows):
        noise = NoiseBank(seed=N - 1, n_paths=3, n_agents=N, grid=law.grid)
        res = simulate_decentralized(p, law, N, noise, store=False)
        sup = np.max(np.sum((res.xavg - sol.xhat.values) ** 2, axis=2), axis=1)
        assert row_c[:3] == (N, 3, float(sup.mean()))
        assert row_g[0] == N and np.all(np.isfinite(row_g[1:]))


@pytest.mark.parametrize("study, N_list, paths, error", [
    ("gap", [2, 40], 4, InvalidNError),
    ("gap", [2], 0, SettingError),
    ("convergence", [50, 0], 2, InvalidNError),
    ("convergence", [5], 0, SettingError),
    ("gap", [2], 10.0, SettingError),
    ("gap", [2], True, SettingError),
    ("gap", [True], 4, InvalidNError),
    ("convergence", [5], 3.0, SettingError),
    ("convergence", [5.0], 2, InvalidNError),
    ("gap", [2], 1, SettingError),
    ("convergence", [5], 1, SettingError),
], ids=["gap-stacked-N", "gap-paths", "convergence-N", "convergence-reps", "gap-fractional-paths",
        "gap-boolean-paths", "gap-boolean-N", "convergence-fractional-reps",
        "convergence-fractional-N", "gap-one-path", "convergence-one-rep"])
def test_a_study_refuses_bad_counts_before_any_solve_or_simulation(monkeypatch, study, N_list,
                                                                    paths, error):
    # n = 2: N = 40 is an 80-dimensional stacked system, past MAX_AUGMENTED_DIM
    p = rand_params(np.random.default_rng(11), n=2, m=1, steps=40)
    sol, law = solve_cc(p)
    calls = []
    for name in ("solve_cc", "solve_oracle", "simulate_decentralized", "simulate_centralized"):
        def spy(*args, _name=name, _run=getattr(analysis, name), **kwargs):
            calls.append(_name)
            return _run(*args, **kwargs)
        monkeypatch.setattr(analysis, name, spy)
    with pytest.raises(error):
        if study == "gap":
            gap_study(p, N_list, paths=paths, seed=1, validate_oracle=False)
        else:
            convergence_study(p, law, sol.xhat, N_list, replications=paths, seed=1)
    assert calls == []


def test_convergence_study_refuses_xhat_off_the_law_grid_before_any_simulation(monkeypatch):
    # xhat is compared with the average at the law's nodes, so one on another
    # grid is refused by name before any simulation, not by a broadcast
    p = rand_params(np.random.default_rng(11), n=1, m=1, steps=40)
    _, law = solve_cc(p)
    xhat = Trajectory(ode.TimeGrid(p.T, 80), np.zeros((81, 1)))

    def no_run(*args, **kwargs):
        raise AssertionError("a simulation ran")

    monkeypatch.setattr(analysis, "simulate_decentralized", no_run)
    with pytest.raises(GridMismatchError, match="xhat is sampled on"):
        convergence_study(p, law, xhat, [2, 4], replications=3, seed=1)


def test_lambda_zero_case(rng):
    p = rand_params(rng, n=2, m=1, steps=100)
    for name in ("A", "B", "C", "D", "F", "Ftilde", "Gamma", "GammaBar", "G", "Q"):
        setattr(p, name, np.zeros(getattr(p, name).shape))
    p.R = np.eye(1)
    sol, law = solve_cc(p)
    rep = lambda_boundedness(p, law, [3, 7])
    for pair in rep.pairs:
        assert pair.sup1 == 0.0
        assert pair.sup2 == 0.0
    assert rep.dominated


def test_lambda_no_coupling_kills_second_kernel(rng):
    # zero coupling empties the second kernel's forcing (Lam1 F - C'Lam1 Ft)
    # and terminal, so it vanishes identically and Lam1 loses its N dependence
    p = rand_params(rng, n=2, m=2, steps=150, coupled=False)
    sol, law = solve_cc(p)
    rep = lambda_boundedness(p, law, [4, 9])
    for pair in rep.pairs:
        assert pair.sup2 == 0.0
    assert np.array_equal(rep.pairs[0].lam1.values, rep.pairs[1].lam1.values)


def test_lambda_against_independent_integrator(rng):
    # cross-check the coupled pair with scipy's adaptive solver
    from scipy.integrate import solve_ivp

    p = repro_instance(steps=400)
    sol, law = solve_cc(p)
    N = 10
    rep = lambda_boundedness(p, law, [N])
    pair = rep.pairs[0]
    grid = law.grid

    def Th1(t):
        return interp(law.Theta1.values, grid.dt, t)

    def rhs(t, y):
        lam1 = y[:4].reshape(2, 2)
        lam2 = y[4:].reshape(2, 2)
        A, B, C, D = p.A, p.B, p.C, p.D
        F, Ft, Q = p.F, p.Ftilde, p.Q
        closed = A + B @ Th1(t)
        d1 = -(lam1 @ (closed + F / N) + A.T @ lam1
               - C.T @ lam1 @ (C + D @ Th1(t) + Ft / N) + (lam2 / N) @ F + Q)
        d2 = -(lam2 @ (closed + (N - 1) / N * F) + A.T @ lam2
               + (N - 1) / N * (lam1 @ F - C.T @ lam1 @ Ft))
        return np.concatenate([d1.ravel(), d2.ravel()])

    yT = np.concatenate([p.G.ravel(), np.zeros(4)])
    out = solve_ivp(rhs, [1.0, 0.0], yT, rtol=1e-10, atol=1e-12, dense_output=True)
    y0 = out.sol(0.0)
    assert np.max(np.abs(pair.lam1.initial - y0[:4].reshape(2, 2))) < 1e-6
    assert np.max(np.abs(pair.lam2.initial - y0[4:].reshape(2, 2))) < 1e-6


def test_lambda_standalone_lyapunov_when_decoupled(rng):
    p = rand_params(rng, n=2, m=2, steps=200, coupled=False)
    sol, law = solve_cc(p)
    rep = lambda_boundedness(p, law, [5])

    def Th1(t):
        return interp(law.Theta1.values, law.grid.dt, t)

    def rhs(t, lam):
        A, B, C, D, Q = p.A, p.B, p.C, p.D, p.Q
        return -(lam @ (A + B @ Th1(t)) + A.T @ lam - C.T @ lam @ (C + D @ Th1(t)) + Q)

    ref = integrate_rk4(rhs, p.G, law.grid, "backward")
    assert np.max(np.abs(ref.values - rep.pairs[0].lam1.values)) < 1e-9


def test_lambda_domination_on_repro():
    p = repro_instance(steps=300)
    sol, law = solve_cc(p)
    rep = lambda_boundedness(p, law, [10, 100, 1000])
    assert rep.dominated
    assert rep.max_spread1 < 0.10
    assert rep.max_spread2 < 0.10


def test_lambda_batch_over_N_is_bit_equal_to_single_N_sweeps():
    # the kernels of every N run as one sweep with a leading N axis; each N's
    # kernels must be exactly those of a sweep of its own, in any order
    p = repro_instance(steps=200)
    p.A = p.A * (1.0 + p.grid().nodes / 4.0)[:, None, None]
    _, law = solve_cc(p)
    Ns = [10, 100, 1000]
    for order in (Ns, Ns[::-1]):
        rep = lambda_boundedness(p, law, order)
        for pair in rep.pairs:
            alone = lambda_boundedness(p, law, [pair.N]).pairs[0]
            assert alone.N == pair.N
            assert np.array_equal(pair.lam1.values, alone.lam1.values)
            assert np.array_equal(pair.lam2.values, alone.lam2.values)
            assert (pair.sup1, pair.sup2) == (alone.sup1, alone.sup2)


def _stagewise_lambda(params, law, N_list):
    """Reference: the kernels of every N as stagewise RK4 sweeps of the
    matrix equations (two-sided products, no vectorization), as
    (nodes, N, 2, n, n)."""
    grid = law.grid
    tabs = {k: params.node_table(k) for k in ("A", "B", "C", "D", "F", "Ftilde", "Q")}
    bth = np.einsum("kij,kjl->kil", tabs["B"], law.Theta1.values)
    dth = np.einsum("kij,kjl->kil", tabs["D"], law.Theta1.values)
    coeffs = np.stack([tabs["A"], tabs["F"], tabs["C"], tabs["Ftilde"], tabs["Q"], bth, dth],
                      axis=1)
    Ns = np.array(N_list, dtype=float).reshape(-1, 1, 1)
    weight = (Ns - 1) / Ns

    def rhs(t, lam):
        lam1, lam2 = lam[:, 0], lam[:, 1]
        A, F, C, Ft, Q, BTh, DTh = interp(coeffs, grid.dt, t)
        closed = A + BTh
        d1 = -(lam1 @ (closed + F / Ns) + A.T @ lam1
               - C.T @ lam1 @ (C + DTh + Ft / Ns) + (lam2 / Ns) @ F + Q)
        d2 = -(lam2 @ (closed + weight * F) + A.T @ lam2
               + weight * (lam1 @ F - C.T @ lam1 @ Ft))
        return np.stack([d1, d2], axis=1)

    n = params.n
    terminal = np.broadcast_to(np.stack([params.G, np.zeros((n, n))]), (len(Ns), 2, n, n))
    return integrate_rk4(rhs, terminal, grid, "backward").values


def _time_varying_repro(steps):
    p = repro_instance(steps=steps)
    t = p.grid().nodes
    p.A = p.A * (1.0 + t / 4.0)[:, None, None]
    p.B = p.B * (1.0 - t / 5.0)[:, None, None]
    p.Q = p.Q * (1.0 + t)[:, None, None]
    p.Ftilde = p.Ftilde * (1.0 - 0.3 * t)[:, None, None]
    p.eta = p.eta * np.cos(t)[:, None]
    return p


def test_lambda_reads_coefficients_on_the_law_grid():
    # constants broadcast to the law's 400 steps whatever the config's steps;
    # coefficients sampled on 200 steps cannot be read there
    p200, p400 = repro_instance(steps=200), repro_instance(steps=400)
    _, law = solve_cc(p400)
    a, b = lambda_boundedness(p200, law, [10, 100]), lambda_boundedness(p400, law, [10, 100])
    assert np.array_equal(a.bound, b.bound)
    for x, y in zip(a.pairs, b.pairs):
        assert np.array_equal(x.lam1.values, y.lam1.values)
        assert np.array_equal(x.lam2.values, y.lam2.values)
    with pytest.raises(GridMismatchError, match="sampled on 200 steps, the law on 400"):
        lambda_boundedness(_time_varying_repro(200), law, [10])


@pytest.mark.parametrize("instance", ["repro", "time_varying", "random_n3"])
def test_lambda_step_maps_match_stagewise_reference(instance):
    # the vectorized step-map sweep must reproduce the stagewise matrix
    # equations to rounding: every kernel at every node
    if instance == "repro":
        p = repro_instance(steps=300)
    elif instance == "time_varying":
        p = _time_varying_repro(300)
    else:
        p = rand_params(np.random.default_rng(31), n=3, m=2, T=0.2, steps=200)
    _, law = solve_cc(p)
    Ns = [1, 10, 100, 1000]
    rep = lambda_boundedness(p, law, Ns)
    lam = _stagewise_lambda(p, law, Ns)

    def close(ref, got):
        return np.max(np.abs(got - ref)) <= 1e-12 * (1.0 + np.max(np.abs(ref)))

    for j, pair in enumerate(rep.pairs):
        assert close(lam[:, j, 0], pair.lam1.values)
        assert close(lam[:, j, 1], pair.lam2.values)


@pytest.mark.parametrize("bad", [0, -3, 2.5, 2.0, True])
def test_lambda_rejects_bad_population_before_sweeping(bad, monkeypatch):
    from mflqg import analysis

    p = repro_instance(steps=100)
    _, law = solve_cc(p)

    def no_sweep(*args, **kwargs):
        raise AssertionError("a sweep ran before the N list was validated")

    monkeypatch.setattr(analysis, "integrate_linear", no_sweep)
    with pytest.raises(InvalidNError, match="population size must be a positive integer"):
        lambda_boundedness(p, law, [10, bad])


def _scalar(v):
    return np.array([[float(v)]])


def test_lambda_second_spread_drops_source_weight(rng):
    # max_spread2 is the spread of sup|Lam2^N| * N/(N-1); N = 1 (Lam2 = 0)
    # is left out of it rather than divided by zero
    p = rand_params(rng, n=2, m=2, steps=150)
    sol, law = solve_cc(p)
    rep = lambda_boundedness(p, law, [1, 3, 20, 400])
    assert rep.pairs[0].sup2 == 0.0
    scaled = np.array([pr.sup2 * pr.N / (pr.N - 1) for pr in rep.pairs[1:]])
    want = (scaled.max() - scaled.min()) / scaled.max()
    assert rep.max_spread2 == pytest.approx(want, rel=1e-12)
    raw = np.array([pr.sup2 for pr in rep.pairs[1:]])
    assert rep.max_spread2 < (raw.max() - raw.min()) / raw.max()


def test_lambda_second_kernel_is_weighted_unit_source_solution():
    # Lam2^N = (N-1)/N M^N, where M^N solves Lam2's equation (with Lam1^N as
    # input) under source weight 1: the scaled sup is sup|M^N|
    p = repro_instance(steps=300)
    sol, law = solve_cc(p)
    N = 10
    pair = lambda_boundedness(p, law, [N]).pairs[0]
    w = (N - 1) / N

    def rhs(t, lam):
        lam1, m = lam[0], lam[1]
        Th1 = interp(law.Theta1.values, law.grid.dt, t)
        closed = p.A + p.B @ Th1
        d1 = -(lam1 @ (closed + p.F / N) + p.A.T @ lam1
               - p.C.T @ lam1 @ (p.C + p.D @ Th1 + p.Ftilde / N)
               + (w * m / N) @ p.F + p.Q)
        dm = -(m @ (closed + w * p.F) + p.A.T @ m
               + lam1 @ p.F - p.C.T @ lam1 @ p.Ftilde)
        return np.stack([d1, dm])

    M = integrate_rk4(rhs, np.stack([p.G, np.zeros((2, 2))]), law.grid, "backward").values[:, 1]
    assert np.max(np.abs(w * M - pair.lam2.values)) < 1e-9
    assert pair.sup2 / w == pytest.approx(np.max(np.abs(M)), rel=1e-9)


def test_lambda_not_uniform_under_strong_coupling():
    # the acceptance-06 scalar instance with F raised to 2: the first
    # kernel's sup moves by 26% across N, so the verdict is not uniform
    p = ModelParams(
        n=1, m=1, T=1.0, steps=200,
        A=_scalar(0.5), B=_scalar(1.0), C=_scalar(0.3), D=_scalar(0.2),
        F=_scalar(2.0), Ftilde=_scalar(0.1), Q=_scalar(1.0), R=_scalar(1.0),
        G=_scalar(0.5), Gamma=_scalar(0.5), GammaBar=_scalar(0.3),
        eta=np.array([0.5]), etaBar=np.array([0.2]), xi0=np.array([1.0]))
    sol, law = solve_cc(p)
    rep = lambda_boundedness(p, law, [10, 100, 1000])
    assert rep.dominated
    assert rep.max_spread1 > 0.20
    assert not rep.uniform


def _kernel_max(pair):
    """max(max|Lam1|, max|Lam2|) at every node."""
    return np.maximum(np.max(np.abs(pair.lam1.values), axis=(1, 2)),
                      np.max(np.abs(pair.lam2.values), axis=(1, 2)))


def _majorant_instance(name):
    if name == "repro_varying_C":
        p = _time_varying_repro(300)
        p.C = p.C * (1.0 + p.grid().nodes)[:, None, None]
        return p
    n = int(name[-1])
    return rand_params(np.random.default_rng(40 + n), n=n, m=2, steps=200)


@pytest.mark.parametrize("instance", ["random_n1", "random_n2", "random_n3", "repro_varying_C"])
def test_lambda_bound_majorizes_kernels_for_every_N(instance):
    # b is one N-free bound: every kernel of every N sits at or below it at
    # every node, and it is bit-equal whatever N list the call carries
    p = _majorant_instance(instance)
    _, law = solve_cc(p)
    rep = lambda_boundedness(p, law, [1, 2, 10, 10**4])
    assert np.all(np.isfinite(rep.bound))
    for pair in rep.pairs:
        assert np.all(_kernel_max(pair) <= rep.bound + 1e-12 * (1.0 + rep.bound)), pair.N
    assert rep.dominated
    for Ns in ([], [10**4], [7, 3]):
        assert np.array_equal(lambda_boundedness(p, law, Ns).bound, rep.bound)


def test_lambda_bound_terminal_is_abs_G():
    # an indefinite-sign G: the bound must start from max|G|, not max G
    p = repro_instance(steps=200)
    p.G = np.array([[0.5, -0.2], [-0.2, 0.5]])
    sol, law = solve_cc(p)
    rep = lambda_boundedness(p, law, [10, 100, 1000])
    assert rep.bound[-1] == 0.5
    assert rep.dominated


def test_lambda_bound_of_no_N_equals_the_bound_beside_kernels():
    # the bound's generator rows ride on the kernel sweep's sampler; with no
    # N the sweep carries no kernel and still gives the same bound
    p = repro_instance(steps=200)
    _, law = solve_cc(p)
    rep = lambda_boundedness(p, law, (10, 100, 1000))
    empty = lambda_boundedness(p, law, [])
    assert empty.pairs == [] and empty.dominated
    assert np.array_equal(empty.bound, rep.bound)


@pytest.mark.parametrize("N_list", [[], [5], [1, 5]], ids=["no_N", "one_N", "one_N_above_1"])
def test_lambda_uniformity_needs_two_sup_norms(N_list):
    # a spread of fewer than two sup norms is NaN and backs no uniform
    # verdict; [1, 5] has two first-kernel norms but one second-kernel one
    p = load_config(REPO / "perfbench" / "gap_scalar.json")
    _, law = solve_cc(p)
    rep = lambda_boundedness(p, law, N_list)
    assert rep.uniform is False
    assert np.isnan(rep.max_spread2)
    assert np.isnan(rep.max_spread1) == (len(N_list) < 2)


def test_lambda_bound_follows_its_recurrence():
    # a scalar instance whose generator is worked out by hand: with b = 1,
    # c = 1, d = 0, f = 1 and ftilde = -1 its rows are
    # (2a + th - 1 + 2s, s) and (2(1 - s), 2a + th + 1 - s), so mu_inf peaks
    # at s = 0 with 2a + th + 3; th(t) = -t falls, so each backward step
    # k -> k-1 takes its maximum at its far end t_{k-1}
    p = ModelParams(
        n=1, m=1, T=1.0, steps=100,
        A=_scalar(0.2), B=_scalar(1), C=_scalar(1), D=_scalar(0),
        F=_scalar(1), Ftilde=_scalar(-1), Q=_scalar(0.5), R=_scalar(1),
        G=_scalar(-0.3), Gamma=_scalar(0), GammaBar=_scalar(0),
        eta=np.zeros(1), etaBar=np.zeros(1), xi0=np.zeros(1))
    grid = p.grid()
    t = grid.nodes
    law = FeedbackLaw(grid=grid, P=Trajectory(grid, np.zeros((t.size, 1, 1))),
                      phi=Trajectory(grid, np.zeros((t.size, 1))),
                      Theta1=Trajectory(grid, -t[:, None, None]),
                      Theta2=Trajectory(grid, np.zeros((t.size, 1))),
                      regularity_margin=1.0)
    rep = lambda_boundedness(p, law, [1, 10])
    want = [0.3]
    for k in range(grid.steps, 0, -1):
        growth = np.exp(grid.dt * (3.4 - t[k - 1]))
        want.append(growth * want[-1] + grid.dt * 0.5 * max(1.0, growth))
    assert np.max(np.abs(rep.bound / want[::-1] - 1.0)) < 1e-12
    assert rep.dominated


def test_lambda_bound_chunks_follow_the_sweeps_chunk_size(monkeypatch):
    # the bound's generator tables come from the kernel sweep's sampler, so
    # they are cut by the sweeps' chunk iterator, which reads ode's constant
    # at call time: patching it moves both, and one sweep is all there is
    p = repro_instance(steps=100)
    _, law = solve_cc(p)
    ref = lambda_boundedness(p, law, [10]).bound
    sizes = []
    walk = ode.sweep_chunks

    def spy(grid, direction):
        h, chunks = walk(grid, direction)

        def recorded():
            for ks, ts in chunks:
                sizes.append(ks.size)
                yield ks, ts

        return h, recorded()

    monkeypatch.setattr(ode, "LINEAR_CHUNK_STEPS", 7)
    monkeypatch.setattr(ode, "sweep_chunks", spy)
    assert np.array_equal(lambda_boundedness(p, law, [10]).bound, ref)
    assert sizes == [7] * 14 + [2]


def test_chunk_32_moves_only_K_and_its_readers_by_rounding(monkeypatch):
    # the shipped chunk size against the earlier 32 steps: every sweep and
    # the bound's tables are cut differently.  P, Theta1, the oracle's modes
    # and the Lyapunov bound and kernels must not move.  K is re-anchored at
    # U = I after every chunk, so K and what reads it (Theta2, xhat, phi)
    # move, by rounding only
    p = repro_instance(steps=300)

    def run():
        sol, law = solve_cc(p)
        o = solve_oracle(AugmentedCoeffs(p, 3), validate=False)
        lam = lambda_boundedness(p, law, [2, 10])
        exact = [law.P.values, law.Theta1.values, o.P_dev.values, o.P_mean.values,
                 o.K_dev.values, o.K_mean.values, o.affine.values, lam.bound,
                 np.array([[pr.sup1, pr.sup2] for pr in lam.pairs])]
        return exact, [sol.K.values, law.Theta2.values, sol.xhat.values, law.phi.values]

    exact, rounded = run()
    monkeypatch.setattr(ode, "LINEAR_CHUNK_STEPS", 32)
    exact32, rounded32 = run()
    for a, b in zip(exact, exact32, strict=True):
        assert np.array_equal(a, b)
    assert not np.array_equal(rounded[0], rounded32[0])
    for a, b in zip(rounded, rounded32, strict=True):
        assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(a))


def test_lambda_bound_dominates_under_large_coefficients():
    # coefficients of size 40: the C'Lam1(...) terms grow Lam1 to
    # |Lam1(0)| = 0.740 within T = 0.005, and the bound must follow
    p = ModelParams(
        n=1, m=1, T=0.005, steps=400,
        A=_scalar(40), B=_scalar(1), C=_scalar(20), D=_scalar(1),
        F=_scalar(40), Ftilde=_scalar(0), Q=_scalar(40), R=_scalar(1),
        G=_scalar(0), Gamma=_scalar(0), GammaBar=_scalar(0),
        eta=np.zeros(1), etaBar=np.zeros(1), xi0=np.zeros(1))
    grid = p.grid()
    nodes = grid.steps + 1
    law = FeedbackLaw(grid=grid, P=Trajectory(grid, np.zeros((nodes, 1, 1))),
                      phi=Trajectory(grid, np.zeros((nodes, 1))),
                      Theta1=Trajectory(grid, np.full((nodes, 1, 1), -40.0)),
                      Theta2=Trajectory(grid, np.zeros((nodes, 1))),
                      regularity_margin=1.0)
    rep = lambda_boundedness(p, law, [10, 100, 1000])
    assert abs(rep.pairs[0].lam1.initial[0, 0]) == pytest.approx(0.740, abs=1e-3)
    assert rep.dominated


def test_lambda_bound_finite_under_strong_coupling():
    # repro with F and Ftilde x2.8: the kernels stay below 0.75 and the bound
    # stays finite, while the second kernel's spread breaks uniformity
    p = repro_instance(steps=300)
    p.F = 2.8 * p.F
    p.Ftilde = 2.8 * p.Ftilde
    sol, law = solve_cc(p)
    rep = lambda_boundedness(p, law, [10, 100, 1000])
    assert np.all(np.isfinite(rep.bound))
    assert rep.dominated
    assert 0.0 < rep.max_spread1 < 0.10
    assert rep.max_spread2 > 0.10
    assert rep.uniform is False


def test_lambda_report_survives_bound_overflow():
    # a strongly non-normal A: mu_inf of the generator is about 1900, so b
    # overflows, yet the kernels stay finite (sup 54.9); the report keeps
    # them, says not dominated, and lets no overflow warning escape
    z = np.zeros((2, 2))
    p = ModelParams(
        n=2, m=2, T=1.0, steps=1000,
        A=np.array([[-50.0, 1000.0], [0.0, -50.0]]), B=np.eye(2), C=z, D=z, F=z, Ftilde=z,
        Q=np.eye(2), R=np.eye(2), G=np.eye(2), Gamma=z, GammaBar=z,
        eta=np.zeros(2), etaBar=np.zeros(2), xi0=np.zeros(2))
    grid = p.grid()
    nodes = grid.steps + 1
    law = FeedbackLaw(grid=grid, P=Trajectory(grid, np.zeros((nodes, 2, 2))),
                      phi=Trajectory(grid, np.zeros((nodes, 2))),
                      Theta1=Trajectory(grid, np.zeros((nodes, 2, 2))),
                      Theta2=Trajectory(grid, np.zeros((nodes, 2))),
                      regularity_margin=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = lambda_boundedness(p, law, [10, 100, 1000])
    assert not np.all(np.isfinite(rep.bound))
    assert rep.dominated is False
    assert [pr.N for pr in rep.pairs] == [10, 100, 1000]
    assert all(pr.sup1 == pytest.approx(54.9, abs=0.05) for pr in rep.pairs)
    assert all(pr.sup2 == 0.0 for pr in rep.pairs)
