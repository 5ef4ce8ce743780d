"""Noise bank reproducibility, Euler-Maruyama behavior, cost evaluation."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mflqg import montecarlo
from mflqg.errors import (GridMismatchError, InvalidNError, MissingTrajectoriesError,
                          NonFiniteError, SettingError, StationarityError)
from mflqg.model import AugmentedCoeffs, ModelParams, build_augmented, kron_eye, kron_mean
from mflqg.ode import BLOWUP_NORM, TimeGrid, Trajectory, integrate_rk4
from mflqg import riccati
from mflqg.riccati import FeedbackLaw, OracleLaw, solve_oracle
from mflqg.montecarlo import (
    NoiseBank,
    centralized_tangents,
    simulate_centralized,
    simulate_decentralized,
    social_cost,
    stacked_social_cost,
    worker_count,
)

from conftest import rand_params


def make_law(grid, n, m, Th1=None, Th2=None):
    nodes = grid.steps + 1
    Th1 = np.zeros((nodes, m, n)) if Th1 is None else np.broadcast_to(Th1, (nodes, m, n)).copy()
    Th2 = np.zeros((nodes, m)) if Th2 is None else np.broadcast_to(Th2, (nodes, m)).copy()
    return FeedbackLaw(grid=grid, P=Trajectory(grid, np.zeros((nodes, n, n))),
                       phi=Trajectory(grid, np.zeros((nodes, n))),
                       Theta1=Trajectory(grid, Th1), Theta2=Trajectory(grid, Th2),
                       regularity_margin=1.0)


def mode_law(grid, N, K_dev, K_mean, affine):
    """An OracleLaw with these gain modes and affine, each constant or given
    per node, and zero P and phi."""
    nodes, (m, n) = grid.steps + 1, np.shape(K_dev)[-2:]

    def traj(X, shape):
        return Trajectory(grid, np.broadcast_to(X, (nodes,) + shape).copy())

    zero = np.zeros((n, n))
    return OracleLaw(grid=grid, N=N, P_dev=traj(zero, (n, n)), P_mean=traj(zero, (n, n)),
                     phi=traj(np.zeros(n), (n,)), K_dev=traj(K_dev, (m, n)),
                     K_mean=traj(K_mean, (m, n)), affine=traj(affine, (m,)),
                     regularity_margin=1.0)


def block_law(grid, N, Th1, Th2):
    """The decentralized law u_i = Th1 x_i + Th2 as a centralized one."""
    return mode_law(grid, N, Th1, Th1, Th2)


def stacked_tables(law):
    """The law's stacked gain (Nm, Nn) and agent-tiled affine (Nm,) per node."""
    K_dev, K_mean, N = law.K_dev.values, law.K_mean.values, law.N
    return kron_eye(K_dev, N) + kron_mean(K_mean - K_dev, N), np.tile(law.affine.values, N)


def test_noise_regeneration_bit_identical():
    grid = TimeGrid(1.0, 50)
    bank = NoiseBank(seed=9, n_paths=4, n_agents=3, grid=grid)
    a = bank.increments(2)
    b = NoiseBank(seed=9, n_paths=4, n_agents=3, grid=grid).increments(2)
    assert np.array_equal(a, b)
    # distinct (path, agent) streams differ
    assert not np.array_equal(bank.increments(0), bank.increments(1))
    assert not np.array_equal(a[0], a[1])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**62), st.integers(0, 50), st.integers(0, 7))
def test_noise_streams_keyed_not_stateful(seed, path, agent):
    grid = TimeGrid(1.0, 16)
    a = NoiseBank(seed=seed, n_paths=64, n_agents=8, grid=grid)
    b = NoiseBank(seed=seed, n_paths=64, n_agents=8, grid=grid)
    assert np.array_equal(a.increments(path)[agent], b.increments(path)[agent])


@pytest.mark.parametrize("seed, path", [(9, 0), (9, 7), (2**40 + 3, 2**31 - 1),
                                        (9, 2**31), (9, 2**32 - 3), (2**63 + 5, 4)])
def test_noise_matches_fresh_philox_streams(seed, path):
    # one reused bit generator must give what a freshly keyed Philox gives,
    # also where a key word reaches 2**63 (paths >= 2**31, large seeds)
    grid = TimeGrid(1.0, 37)
    bank = NoiseBank(seed=seed, n_paths=2**32 - 1, n_agents=3, grid=grid)
    block = bank.increments_block(range(path, path + 2))
    assert np.array_equal(block[0], bank.increments(path))
    for j in range(2):
        for agent in range(3):
            key = np.array([seed, ((path + j) << 32) | agent], dtype=np.uint64)
            ref = np.random.Generator(np.random.Philox(key=key)).standard_normal(grid.steps)
            assert np.array_equal(block[j, agent], ref * np.sqrt(grid.dt))


@pytest.mark.parametrize("paths", [range(7, 8), range(-1, 0), range(2, 4), range(-1, 2)])
@pytest.mark.parametrize("drawn", [False, True], ids=["bank", "drawn_chunk"])
def test_noise_bank_refuses_a_path_outside_its_range(paths, drawn):
    # path -1 would otherwise read path 2**32 - 1's stream through a wrapped
    # key word, and path 7 a stream of a bank of more paths
    bank = NoiseBank(seed=1, n_paths=3, n_agents=2, grid=TimeGrid(1.0, 200))
    if drawn:
        bank = next(bank.drawn_chunks())
    with pytest.raises(SettingError, match=r"outside the bank's \[0, 3\)"):
        bank.increments_block(paths)
    if len(paths) == 1:
        with pytest.raises(SettingError):
            bank.increments(paths.start)
    assert bank.increments_block(range(0, 3)).shape == (3, 2, 200)


@pytest.mark.parametrize("seed, n_paths, n_agents", [
    (True, 2, 2), (1.0, 2, 2), (1, True, 2), (1, 2.0, 2), (1, 2, True), (1, 2, 3.0),
], ids=["boolean-seed", "float-seed", "boolean-paths", "float-paths", "boolean-agents",
        "float-agents"])
def test_noise_bank_refuses_a_count_or_seed_that_is_not_an_integer(seed, n_paths, n_agents):
    with pytest.raises(SettingError):
        NoiseBank(seed=seed, n_paths=n_paths, n_agents=n_agents, grid=TimeGrid(1.0, 10))


@pytest.mark.parametrize("N", [0, -1, 2.0, True])
def test_decentralized_run_refuses_a_bad_population_size(N):
    p = rand_params(np.random.default_rng(3), n=1, m=1, steps=20)
    grid = p.grid()
    bank = NoiseBank(seed=1, n_paths=2, n_agents=3, grid=grid)
    with pytest.raises(InvalidNError, match="population size must be a positive integer"):
        simulate_decentralized(p, make_law(grid, 1, 1), N, bank)


def test_noise_increments_have_step_variance():
    grid = TimeGrid(2.0, 200)
    bank = NoiseBank(seed=1, n_paths=1, n_agents=200, grid=grid)
    dw = bank.increments(0)
    assert dw.shape == (200, 200)
    assert np.var(dw) == pytest.approx(grid.dt, rel=0.05)


def test_materialized_noise_matches_bank():
    bank = NoiseBank(seed=4, n_paths=6, n_agents=2, grid=TimeGrid(1.0, 20))
    assert bank.materialized() is bank


def test_validation_draws_its_bank_one_plane_chunk_at_a_time(monkeypatch):
    # the stationarity pass, its re-measurement included, regenerates the
    # keyed bank chunk by chunk and never holds more paths than one plane
    # chunk of the law and its FD_DIRECTIONS tangents
    monkeypatch.setattr(montecarlo, "PLANE_CHUNK_SCALARS", 2**9)
    monkeypatch.setattr(riccati, "MAX_VALIDATION_PATHS", 300)
    asked = []
    block = NoiseBank.increments_block

    def recorded(bank, paths):
        asked.append(len(paths))
        return block(bank, paths)

    monkeypatch.setattr(NoiseBank, "increments_block", recorded)
    aug = AugmentedCoeffs(gap_scalar_params(steps=20), 2)
    law = solve_oracle(aug, validate=False)
    # tol = 0 leaves the first reading inconclusive, so it is re-measured
    with pytest.raises(StationarityError, match="300 paths"):
        riccati._validate_stationarity(aug, law, paths=200, seed=3, tol=0.0)
    per_chunk = 2**9 // ((riccati.FD_DIRECTIONS + 1) * 2)
    assert sum(asked) == 200 + 300 and max(asked) == per_chunk


def test_bad_run_settings_raise_package_errors(monkeypatch):
    grid = TimeGrid(1.0, 20)
    for paths, agents in ((0, 2), (3, 0), (2**32, 1)):
        with pytest.raises(SettingError):
            NoiseBank(seed=1, n_paths=paths, n_agents=agents, grid=grid)
    # a stream's key holds the seed as one 64-bit word: reducing it modulo
    # 2**64 would make seed -1 reproduce seed 2**64 - 1
    for seed in (-1, 2**64):
        with pytest.raises(SettingError, match=rf"in \[0, 2\*\*64\), got {seed}$"):
            NoiseBank(seed=seed, n_paths=2, n_agents=2, grid=grid)
    for bad in ("two", "0", "-2"):
        monkeypatch.setenv("MFLQG_THREADS", bad)
        with pytest.raises(SettingError, match="MFLQG_THREADS"):
            worker_count()
    monkeypatch.setenv("MFLQG_THREADS", "3")
    assert worker_count() == 3


def test_zero_coefficients_keep_state_constant(rng):
    p = rand_params(rng, n=2, m=1, steps=60)
    for name in ("A", "B", "C", "D", "F", "Ftilde"):
        setattr(p, name, np.zeros(getattr(p, name).shape))
    p.xi0 = np.array([0.5, -1.5])
    grid = p.grid()
    law = make_law(grid, 2, 1)
    noise = NoiseBank(seed=2, n_paths=3, n_agents=4, grid=grid)
    res = simulate_decentralized(p, law, 4, noise)
    assert np.all(res.xs == p.xi0)
    assert np.all(res.xavg == p.xi0)


def test_state_average_matches_stored_mean(rng):
    p = rand_params(rng, n=2, m=2, steps=80)
    sol_law = make_law(p.grid(), 2, 2, Th1=0.1 * np.eye(2), Th2=np.array([0.2, -0.1]))
    noise = NoiseBank(seed=6, n_paths=5, n_agents=6, grid=p.grid())
    res = simulate_decentralized(p, sol_law, 6, noise)
    for k in range(0, p.steps + 1, 17):
        assert np.array_equal(res.xavg[:, k], res.xs[:, :, k].mean(axis=1))


def test_determinism_across_thread_counts(rng, monkeypatch):
    p = rand_params(rng, n=1, m=1, steps=120)
    law = make_law(p.grid(), 1, 1, Th1=np.array([[-0.4]]))
    noise = NoiseBank(seed=13, n_paths=9, n_agents=3, grid=p.grid())
    runs = []
    for threads in ("1", "4"):
        monkeypatch.setenv("MFLQG_THREADS", threads)
        runs.append(simulate_decentralized(p, law, 3, noise))
    assert np.array_equal(runs[0].xs, runs[1].xs)
    assert np.array_equal(runs[0].J_soc, runs[1].J_soc)


def test_no_diffusion_first_order_weak_error(rng):
    # with C = D = Ftilde = 0 the dynamics are an ODE; Euler's gap to the RK4
    # reference halves with the step
    p = rand_params(rng, n=2, m=1, steps=100)
    p.C = np.zeros((2, 2))
    p.D = np.zeros((2, 1))
    p.Ftilde = np.zeros((2, 2))
    Th1 = np.array([[-0.3, 0.1]])
    Th2 = np.array([0.4])
    errs = []
    for M in (100, 200, 400):
        q = rand_params(np.random.default_rng(0), n=2, m=1, steps=M)
        for name in ("A", "B", "C", "D", "F", "Ftilde", "Q", "R", "G", "Gamma",
                     "GammaBar", "eta", "etaBar", "xi0"):
            setattr(q, name, getattr(p, name))
        q.steps = M
        grid = q.grid()
        law = make_law(grid, 2, 1, Th1=Th1, Th2=Th2)
        noise = NoiseBank(seed=3, n_paths=1, n_agents=2, grid=grid)
        res = simulate_decentralized(q, law, 2, noise)

        def rhs(t, x):
            return (q.A + q.F) @ x + q.B @ (Th1 @ x + Th2)

        ref = integrate_rk4(rhs, q.xi0, grid, "forward")
        errs.append(np.max(np.abs(res.xavg[0, -1] - ref.terminal)))
    slopes = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(np.abs(slopes - 1.0) < 0.3)


def test_zero_control_channel_invariance(rng):
    # B = D = 0: the law cannot influence the trajectories at all
    p = rand_params(rng, n=2, m=2, steps=90)
    p.B = np.zeros((2, 2))
    p.D = np.zeros((2, 2))
    noise = NoiseBank(seed=8, n_paths=4, n_agents=3, grid=p.grid())
    r1 = simulate_decentralized(p, make_law(p.grid(), 2, 2), 3, noise)
    r2 = simulate_decentralized(
        p, make_law(p.grid(), 2, 2, Th1=0.7 * np.eye(2), Th2=np.array([1.0, -2.0])),
        3, noise)
    assert np.array_equal(r1.xs, r2.xs)


def test_lift_consistency_per_agent_vs_stacked(rng):
    p = rand_params(rng, n=2, m=2, steps=100)
    Th1 = 0.3 * rng.standard_normal((2, 2))
    Th2 = 0.3 * rng.standard_normal(2)
    grid = p.grid()
    law = make_law(grid, 2, 2, Th1=Th1, Th2=Th2)
    for N in (1, 2, 3):
        aug = AugmentedCoeffs(p, N)
        noise = NoiseBank(seed=3, n_paths=4, n_agents=N, grid=grid)
        rd = simulate_decentralized(p, law, N, noise)
        rc = simulate_centralized(aug, block_law(grid, N, Th1, Th2), noise)
        assert np.max(np.abs(rd.xs - rc.xs)) < 1e-10
        assert np.max(np.abs(rd.J_soc - rc.J_soc)) < 1e-10


def test_stacked_cost_equals_agent_cost_sum(rng):
    p = rand_params(rng, n=2, m=2, steps=100)
    law = make_law(p.grid(), 2, 2, Th1=0.2 * rng.standard_normal((2, 2)),
                   Th2=0.3 * rng.standard_normal(2))
    for N in (1, 2, 3):
        noise = NoiseBank(seed=11, n_paths=4, n_agents=N, grid=p.grid())
        res = simulate_decentralized(p, law, N, noise)
        direct = social_cost(res, p)
        stacked = stacked_social_cost(p, N, res.xs, res.us, p.grid())
        rel = np.max(np.abs(stacked - direct.j_soc_paths) / (1.0 + np.abs(direct.j_soc_paths)))
        assert rel < 1e-8


@pytest.mark.parametrize("n_paths", [1, 4, 41])
def test_stacked_cost_equals_agent_cost_sum_with_time_varying_weights(rng, n_paths):
    # Q, R, Gamma and eta move per node; 1 and 41 paths are the counts that
    # broadcast against the 41 nodes if the path and node axes are confused
    p = time_varying_params(rng, steps=40)
    law = make_law(p.grid(), 2, 1, Th1=0.2 * rng.standard_normal((1, 2)),
                   Th2=0.3 * rng.standard_normal(1))
    for N in (1, 2, 3):
        noise = NoiseBank(seed=11, n_paths=n_paths, n_agents=N, grid=p.grid())
        res = simulate_decentralized(p, law, N, noise, store=True)
        direct = social_cost(res, p).j_soc_paths
        stacked = stacked_social_cost(p, N, res.xs, res.us, p.grid())
        assert stacked.shape == (n_paths,)
        assert np.max(np.abs(stacked - direct) / np.abs(direct)) < 1e-12


def test_online_costs_match_trajectory_recompute(rng):
    p = rand_params(rng, n=2, m=1, steps=150)
    law = make_law(p.grid(), 2, 1, Th1=np.array([[0.1, -0.2]]), Th2=np.array([0.3]))
    noise = NoiseBank(seed=21, n_paths=6, n_agents=5, grid=p.grid())
    res = simulate_decentralized(p, law, 5, noise)
    summary = social_cost(res, p)
    assert np.max(np.abs(summary.j_i_paths - res.J_i)) < 1e-10
    assert np.max(np.abs(summary.j_soc_paths - res.J_soc)) < 1e-10


def gap_scalar_params(steps=200):
    """The scalar coupled instance of the gap study (acceptance 06 weights)."""
    def one(x):
        return np.array([[x]])
    return ModelParams(n=1, m=1, T=1.0, steps=steps, A=one(0.5), B=one(1.0), C=one(0.3),
                       D=one(0.2), F=one(0.2), Ftilde=one(0.1), Q=one(1.0), R=one(1.0),
                       G=one(0.5), Gamma=one(0.5), GammaBar=one(0.3), eta=np.array([0.5]),
                       etaBar=np.array([0.2]), xi0=np.array([1.0]))


def test_centralized_run_refuses_a_law_solved_for_another_N():
    # the law's modes fit any N, so only its N tells which population it is for
    p = gap_scalar_params(steps=20)
    law = solve_oracle(AugmentedCoeffs(p, 2), validate=False)
    noise = NoiseBank(seed=1, n_paths=2, n_agents=3, grid=p.grid())
    with pytest.raises(InvalidNError, match="^law solved for N = 2, simulated with N = 3$"):
        simulate_centralized(AugmentedCoeffs(p, 3), law, noise)


def test_simulators_refuse_a_bank_off_the_law_grid_or_short_of_agents():
    # every simulator reads its bank at the law's nodes, one stream per agent
    p = gap_scalar_params(steps=20)
    aug = AugmentedCoeffs(p, 3)
    law = solve_oracle(aug, validate=False)
    off = NoiseBank(seed=1, n_paths=2, n_agents=3, grid=TimeGrid(p.T, 40))
    with pytest.raises(GridMismatchError, match=r"^the noise bank is sampled on "
                       r"TimeGrid\(T=1.0, steps=40\), the law on TimeGrid\(T=1.0, steps=20\)$"):
        simulate_centralized(aug, law, off)
    short = NoiseBank(seed=1, n_paths=2, n_agents=2, grid=law.grid)
    with pytest.raises(GridMismatchError, match="^noise bank holds 2 agents, need 3$"):
        simulate_centralized(aug, law, short)


def test_social_cost_of_an_oracle_run_on_its_own_grid():
    # the oracle's law lives on a 400-step grid, the config's on 200: the
    # stored run's costs are read at the run's own nodes
    p = gap_scalar_params()
    aug = AugmentedCoeffs(p, 3)
    grid = TimeGrid(1.0, 400)
    law = solve_oracle(aug, grid, validate=False)
    noise = NoiseBank(seed=4, n_paths=5, n_agents=3, grid=grid)
    stored = simulate_centralized(aug, law, noise, store=True)
    bare = simulate_centralized(aug, law, noise, store=False)
    assert stored.xs is not None and bare.xs is None
    assert np.array_equal(stored.J_soc, bare.J_soc)
    rel = np.abs(stored.J_i.sum(axis=1) - bare.J_soc) / np.abs(bare.J_soc)
    assert np.max(rel) < 1e-12


def test_stacked_social_cost_of_an_oracle_run_on_its_own_grid():
    # the stacked weights are read at the run's 401 nodes, not the config's 201
    p = gap_scalar_params()
    aug = AugmentedCoeffs(p, 3)
    grid = TimeGrid(1.0, 400)
    law = solve_oracle(aug, grid, validate=False)
    res = simulate_centralized(aug, law, NoiseBank(seed=4, n_paths=5, n_agents=3, grid=grid),
                               store=True)
    J = stacked_social_cost(p, 3, res.xs, res.us, grid)
    assert np.max(np.abs(J - res.J_soc) / np.abs(res.J_soc)) < 1e-12


def test_social_cost_refuses_time_varying_weights_on_another_grid(rng):
    # a stored run on 60 steps, priced with weights sampled on 40
    q = rand_params(rng, n=2, m=1, steps=60)
    noise = NoiseBank(seed=1, n_paths=2, n_agents=2, grid=q.grid())
    res = simulate_decentralized(q, make_law(q.grid(), 2, 1), 2, noise, store=True)
    with pytest.raises(GridMismatchError, match="sampled on 40 steps"):
        social_cost(res, time_varying_params(rng, steps=40))


def test_social_cost_requires_trajectories(rng):
    p = rand_params(rng, n=1, m=1, steps=50)
    law = make_law(p.grid(), 1, 1)
    noise = NoiseBank(seed=1, n_paths=2, n_agents=2, grid=p.grid())
    res = simulate_decentralized(p, law, 2, noise, store=False)
    assert res.xs is None
    with pytest.raises(MissingTrajectoriesError):
        social_cost(res, p)


def test_cost_hand_case(rng):
    # x held at 1 with zero control, Gamma = 0, eta = 0, Q = 2, G = 0:
    # J_i = 1/2 * int_0^1 2 dt = 1
    p = rand_params(rng, n=1, m=1, steps=100)
    for name in ("A", "B", "C", "D", "F", "Ftilde", "Gamma", "GammaBar", "G"):
        setattr(p, name, np.zeros((1, 1)))
    p.Q = np.array([[2.0]])
    p.R = np.array([[1.0]])
    p.eta = np.zeros(1)
    p.etaBar = np.zeros(1)
    p.xi0 = np.array([1.0])
    law = make_law(p.grid(), 1, 1)
    noise = NoiseBank(seed=2, n_paths=2, n_agents=2, grid=p.grid())
    res = simulate_decentralized(p, law, 2, noise)
    assert np.allclose(res.J_i, 1.0, atol=1e-12)
    # tracking achieved: x = eta constant, zero running cost
    p.eta = np.array([1.0])
    res2 = simulate_decentralized(p, law, 2, noise)
    assert np.allclose(res2.J_i, 0.0, atol=1e-12)


def test_centralized_zero_gain_equals_uncontrolled_decentralized(rng):
    p = rand_params(rng, n=2, m=1, steps=80)
    grid = p.grid()
    noise = NoiseBank(seed=17, n_paths=3, n_agents=2, grid=grid)
    rd = simulate_decentralized(p, make_law(grid, 2, 1), 2, noise)
    rc = simulate_centralized(AugmentedCoeffs(p, 2), block_law(grid, 2, np.zeros((1, 2)), np.zeros(1)), noise)
    assert np.max(np.abs(rd.xs - rc.xs)) < 1e-10


def exact_em_moments(p, N, gain, aff):
    """Exact E[Y], E[YY'] of the stacked state under the discrete EM map and the
    law U = gain_k Y + aff_k, with the exact E J_soc under trapezoid weights.

    Y' = Phi Y + b + sum_i dW_i E_i (M Y + c), Phi = I + dt(A + B gain),
    b = dt B aff, M = C + D gain, c = D aff, Var dW_i = dt, with E_i the
    projection on agent i's block row.
    """
    grid = p.grid()
    dt, M = grid.dt, grid.steps
    mu = np.tile(p.xi0, N)
    S = np.outer(mu, mu)
    means, second, run = [], [], 0.0
    for k in range(M + 1):
        s = build_augmented(p, N, k)
        K, a = gain[k], aff[k]
        Kmu = K @ mu
        EUU = K @ S @ K.T + np.outer(Kmu, a) + np.outer(a, Kmu) + np.outer(a, a)
        eta, Q = p.node_table("eta")[k], p.node_table("Q")[k]
        cost = np.trace(s.Q @ S) + 2.0 * s.S1 @ mu + N * eta @ Q @ eta + np.trace(s.R @ EUU)
        run += (0.5 if k in (0, M) else 1.0) * dt * cost
        means.append(mu)
        second.append(S)
        if k == M:
            break
        Phi = np.eye(len(mu)) + dt * (s.A + s.B @ K)
        b = dt * s.B @ a
        Pm = Phi @ mu
        S_next = Phi @ S @ Phi.T + np.outer(Pm, b) + np.outer(b, Pm) + np.outer(b, b)
        # noise i drives block row i of M Y + c only, so the noise adds the
        # agent blocks of the full second moment
        Mk, c = s.C + s.D @ K, s.D @ a
        Mm = Mk @ mu
        noise = Mk @ S @ Mk.T + np.outer(Mm, c) + np.outer(c, Mm) + np.outer(c, c)
        S_next += dt * noise * np.kron(np.eye(N), np.ones((p.n, p.n)))
        mu, S = Pm + b, S_next
    terminal = (np.trace(s.G @ S) + 2.0 * s.S2 @ mu
                + N * p.etaBar @ p.G @ p.etaBar)
    return np.array(means), np.array(second), 0.5 * (run + terminal)


def test_simulators_match_exact_em_moments(rng):
    # Both simulators' node-wise path means of xavg and their mean J_soc must
    # sit within 5 standard errors of the exact moments of the discrete map.
    # 84 comparisons at 5 SE give a family-wise false-alarm rate below 5e-5.
    p = rand_params(rng, n=2, m=1, steps=40)
    grid = p.grid()
    nodes, paths = grid.steps + 1, 400
    ramp = (1.0 + grid.nodes)[:, None, None]
    Th1 = 0.4 * rng.standard_normal((1, 2)) * ramp
    Th2 = 0.3 * rng.standard_normal((nodes, 1))
    law = make_law(grid, 2, 1, Th1=Th1, Th2=Th2)
    checked = range(4, nodes, 4)
    worst = 0.0
    for N in (2, 3):
        noise = NoiseBank(seed=700 + N, n_paths=paths, n_agents=N, grid=grid)
        cen_law = random_oracle_law(rng, grid, N, 2, 1)
        runs = (
            (simulate_decentralized(p, law, N, noise, store=False),
             np.stack([np.kron(np.eye(N), Th1[k]) for k in range(nodes)]), np.tile(Th2, N)),
            (simulate_centralized(AugmentedCoeffs(p, N), cen_law, noise, store=False),
             *stacked_tables(cen_law)),
        )
        avg = np.kron(np.ones(N), np.eye(2)) / N
        for res, gain, aff in runs:
            mu, S, EJ = exact_em_moments(p, N, gain, aff)
            for k in checked:
                var = np.diag(avg @ (S[k] - np.outer(mu[k], mu[k])) @ avg.T)
                z = (res.xavg[:, k].mean(axis=0) - avg @ mu[k]) / np.sqrt(var / paths)
                worst = max(worst, float(np.max(np.abs(z))))
            se = res.J_soc.std(ddof=1) / np.sqrt(paths)
            worst = max(worst, abs(res.J_soc.mean() - EJ) / se)
    assert worst < 5.0


def random_oracle_law(rng, grid, N, n, m):
    """Time-varying random gain modes and affine."""
    ramp = (1.0 + grid.nodes)[:, None, None]
    K_dev, K_mean = 0.3 * rng.standard_normal((2, 1, m, n)) * ramp
    return mode_law(grid, N, K_dev, K_mean, 0.3 * rng.standard_normal((grid.steps + 1, m)))


@pytest.mark.parametrize("shape", [(5, 21, 1), (5, 21), (5, 20, 3), (21, 3)],
                         ids=["per-agent-m", "two-axes", "off-grid", "one-direction"])
def test_tangent_pass_refuses_directions_of_another_shape(shape):
    # a per-agent (V, steps+1, m) direction is refused by name, before the
    # fold's einsum could meet it
    p = rand_params(np.random.default_rng(5), n=1, m=1, steps=20)
    law = random_oracle_law(np.random.default_rng(6), p.grid(), 3, 1, 1)
    noise = NoiseBank(seed=1, n_paths=4, n_agents=3, grid=p.grid())
    with pytest.raises(SettingError, match=r"\(V, 21, 3\), got shape"):
        centralized_tangents(AugmentedCoeffs(p, 3), law, np.zeros(shape), noise)


def test_centralized_and_validation_identical_across_thread_counts(rng, monkeypatch):
    # small chunk caps make every run span many chunks, so the threads matter
    monkeypatch.setattr(montecarlo, "NOISE_CHUNK_SCALARS", 2**10)
    monkeypatch.setattr(montecarlo, "PLANE_CHUNK_SCALARS", 2**9)
    p = rand_params(rng, n=2, m=1, steps=50)
    grid, N = p.grid(), 3
    aug = AugmentedCoeffs(p, N)
    law = random_oracle_law(rng, grid, N, 2, 1)
    noise = NoiseBank(seed=23, n_paths=40, n_agents=N, grid=grid)
    q = rand_params(rng, n=1, m=1, steps=100)
    runs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("MFLQG_THREADS", threads)
        res = simulate_centralized(aug, law, noise)
        oracle = solve_oracle(AugmentedCoeffs(q, 2), validate=True, validation_paths=256)
        runs.append([res.xs, res.us, res.xavg, res.J_i, oracle.validation])
    for a, b in zip(*runs[:2]):
        assert (a == b) if isinstance(a, dict) else a.tobytes() == b.tobytes()


def count_pools(monkeypatch, refuse=False):
    """Count the thread pools montecarlo builds; with refuse, building one raises."""
    built = []

    def pool(*args, **kwargs):
        if refuse:
            raise AssertionError("a thread pool was built")
        built.append(kwargs)
        return ThreadPoolExecutor(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", pool)
    return built


def test_tangent_pass_runs_on_the_calling_thread(rng, monkeypatch):
    # the tangent pass: cache-sized chunks lose to the interpreter lock on a
    # pool, so even many chunks and four workers build none
    monkeypatch.setattr(montecarlo, "PLANE_CHUNK_SCALARS", 2**9)
    monkeypatch.setenv("MFLQG_THREADS", "4")
    count_pools(monkeypatch, refuse=True)
    p = rand_params(rng, n=2, m=1, steps=30)
    grid, N = p.grid(), 3
    law = random_oracle_law(rng, grid, N, 2, 1)
    _, affine = stacked_tables(law)
    deltas = rng.uniform(-1.0, 1.0, (10,) + affine.shape)
    noise = NoiseBank(seed=5, n_paths=60, n_agents=N, grid=grid)
    assert len(montecarlo._chunks(60, 11 * N, 2**9)) > 1
    J, g, c = centralized_tangents(AugmentedCoeffs(p, N), law, deltas, noise)
    assert J.shape == (60,) and g.shape == c.shape == (10, 60)
    assert np.isfinite(J).all() and np.isfinite(g).all() and np.isfinite(c).all()


@pytest.mark.parametrize("n, m", [(1, 1), (2, 1)])
def test_tangent_pass_costs_identical_across_plane_chunk_caps(rng, monkeypatch, n, m):
    # the tangent pass's cap only cuts the paths (here its 11 planes into
    # 40, 2 and 1 chunks): each path's costs are the same operations in
    # every cut, so J, g and c are bit-equal
    p = rand_params(rng, n=n, m=m, steps=30)
    grid, N = p.grid(), 3
    law = random_oracle_law(rng, grid, N, n, m)
    _, affine = stacked_tables(law)
    deltas = rng.uniform(-1.0, 1.0, (10,) + affine.shape)
    noise = NoiseBank(seed=7, n_paths=600, n_agents=N, grid=grid)
    runs = []
    for cap in (2**9, 2**14, 2**16):
        monkeypatch.setattr(montecarlo, "PLANE_CHUNK_SCALARS", cap)
        runs.append(b"".join(x.tobytes() for x in centralized_tangents(
            AugmentedCoeffs(p, N), law, deltas, noise)))
    assert [len(montecarlo._chunks(600, 11 * N, cap)) for cap in (2**9, 2**14, 2**16)] == [40, 2, 1]
    assert runs[0] == runs[1] == runs[2]


def test_multi_chunk_plain_simulation_uses_the_pool(rng, monkeypatch):
    monkeypatch.setattr(montecarlo, "NOISE_CHUNK_SCALARS", 2**10)
    monkeypatch.setenv("MFLQG_THREADS", "2")
    built = count_pools(monkeypatch)
    p = rand_params(rng, n=1, m=1, steps=50)
    law = make_law(p.grid(), 1, 1, Th1=np.array([[-0.4]]))
    noise = NoiseBank(seed=9, n_paths=40, n_agents=3, grid=p.grid())
    assert len(montecarlo._chunks(40, 3 * 50)) > 1
    simulate_decentralized(p, law, 3, noise)
    assert built == [{"max_workers": 2}]


def time_varying_params(rng, steps=40, m=1):
    """n = 2 instance whose every node-sampled coefficient moves in time."""
    p = rand_params(rng, n=2, m=m, steps=steps)
    t = p.grid().nodes
    for name, f in (("A", 1 + t / 4), ("B", 1 - t / 5), ("C", 1 + 0.2 * t), ("D", 1 + 0.5 * t),
                    ("F", 1 - 0.1 * t), ("Ftilde", 1 - 0.3 * t), ("Q", 1 + t), ("R", 1 + 0.3 * t),
                    ("Gamma", 1 - 0.2 * t)):
        setattr(p, name, getattr(p, name)[None] * f[:, None, None])
    p.eta = p.eta[None] * np.cos(t)[:, None]
    return p


def reference_em(p, N, dW, control):
    """Euler-Maruyama written from the model equations, one path and agent at a time.

    x_i <- x_i + (A x_i + B u_i + F xavg) dt + (C x_i + D u_i + Ftilde xavg) dW_i,
    J_i = 1/2 [sum_k w_k (|x_i - Gamma xavg - eta|_Q^2 + |u_i|_R^2)
               + |x_i(T) - GammaBar xavg(T) - etaBar|_G^2] with trapezoid weights w_k.
    control(k, x) gives the (N, m) controls from the (N, n) states.  Returns xs
    (paths, N, nodes, n), us (paths, N, nodes, m), xavg (paths, nodes, n), J_i.
    """
    grid = p.grid()
    dt, M = grid.dt, grid.steps
    A, B, C, D, F, Ft, Q, R, Gam, eta = (p.node_table(name) for name in (
        "A", "B", "C", "D", "F", "Ftilde", "Q", "R", "Gamma", "eta"))
    paths = len(dW)
    xs, us = np.empty((paths, N, M + 1, p.n)), np.empty((paths, N, M + 1, p.m))
    J = np.zeros((paths, N))
    for path in range(paths):
        x = np.tile(p.xi0, (N, 1))
        for k in range(M + 1):
            xbar = x.mean(axis=0)
            u = control(k, x)
            xs[path, :, k], us[path, :, k] = x, u
            w = dt / 2 if k in (0, M) else dt
            for i in range(N):
                dev = x[i] - Gam[k] @ xbar - eta[k]
                J[path, i] += 0.5 * w * (dev @ Q[k] @ dev + u[i] @ R[k] @ u[i])
            if k == M:
                break
            x = np.array([x[i] + (A[k] @ x[i] + B[k] @ u[i] + F[k] @ xbar) * dt
                          + (C[k] @ x[i] + D[k] @ u[i] + Ft[k] @ xbar) * dW[path, i, k]
                          for i in range(N)])
    for path in range(paths):
        x = xs[path, :, M]
        for i in range(N):
            dev = x[i] - p.GammaBar @ x.mean(axis=0) - p.etaBar
            J[path, i] += 0.5 * dev @ p.G @ dev
    return xs, us, xs.mean(axis=1), J


def decentralized_control(Th1, Th2):
    return lambda k, x: x @ Th1[k].T + Th2[k]


def centralized_control(gain, affine):
    return lambda k, x: (gain[k] @ x.ravel() + affine[k]).reshape(len(x), -1)


def assert_close(new, ref, rel=1e-12):
    assert np.max(np.abs(new - ref)) <= rel * np.max(np.abs(ref))


def test_simulators_match_reference_em_loop(rng):
    # time-varying coefficients and laws, where a constant-coefficient
    # workload would not notice a node taken from the wrong table
    p = time_varying_params(rng)
    grid, N = p.grid(), 3
    ramp = (1.0 + grid.nodes)[:, None, None]
    Th1 = 0.4 * rng.standard_normal((1, 2)) * ramp
    Th2 = 0.3 * rng.standard_normal((grid.steps + 1, 1))
    cen = random_oracle_law(rng, grid, N, 2, 1)
    noise = NoiseBank(seed=41, n_paths=5, n_agents=N, grid=grid)
    dW = noise.increments_block(range(5))
    runs = ((simulate_decentralized(p, make_law(grid, 2, 1, Th1=Th1, Th2=Th2), N, noise, store=True),
             decentralized_control(Th1, Th2)),
            (simulate_centralized(AugmentedCoeffs(p, N), cen, noise, store=True),
             centralized_control(*stacked_tables(cen))))
    for res, control in runs:
        xs, us, xavg, J_i = reference_em(p, N, dW, control)
        for new, ref in ((res.xs, xs), (res.us, us), (res.xavg, xavg), (res.J_i, J_i),
                         (res.J_soc, J_i.sum(axis=1))):
            assert_close(new, ref)


def test_tangent_pass_matches_reference_em_at_unit_step(rng, monkeypatch):
    # along affine + h delta, J(h) = J + h g + h^2 c / 2 on every path, so at
    # h = 1, where a quadratic leaves no cancellation, g = (J(+d) - J(-d))/2
    # and c = J(+d) + J(-d) - 2 J(0) from the loop written from the model
    # equations; a time-varying instance with n = m = 2, its paths cut into
    # three plane chunks.  The law's plane is simulate_centralized's run.
    monkeypatch.setattr(montecarlo, "PLANE_CHUNK_SCALARS", 2**9)
    p = time_varying_params(rng, m=2)
    grid, N = p.grid(), 3
    aug = AugmentedCoeffs(p, N)
    law = random_oracle_law(rng, grid, N, 2, 2)
    gain, affine = stacked_tables(law)
    deltas = rng.uniform(-1.0, 1.0, (5,) + affine.shape)
    noise = NoiseBank(seed=37, n_paths=60, n_agents=N, grid=grid)
    assert len(montecarlo._chunks(60, 6 * N, 2**9)) == 3
    J, g, c = centralized_tangents(aug, law, deltas, noise)
    dW = noise.increments_block(range(60))

    def ref(aff):
        return reference_em(p, N, dW, centralized_control(gain, aff))[3].sum(axis=1)

    J0 = ref(affine)
    Jp, Jm = (np.array([ref(affine + s * d) for d in deltas]) for s in (1.0, -1.0))
    assert J.shape == (60,) and g.shape == c.shape == (5, 60)
    assert_close(J, J0)
    assert_close(J, simulate_centralized(aug, law, noise, store=False).J_soc)
    for got, want in ((g, 0.5 * (Jp - Jm)), (c, Jp + Jm - 2.0 * J0)):
        assert_close(got, want, rel=1e-10)


def test_agent_fold_with_a_mean_gain_matches_reference_em_loop(rng):
    # the oracle's law as u_i = K_dev x_i + (K_mean - K_dev) xavg + affine,
    # folded per agent, against its stacked gain stepped one agent at a time
    p = time_varying_params(rng)
    grid, N = p.grid(), 3
    law = random_oracle_law(rng, grid, N, 2, 1)
    K_dev, K_mean = law.K_dev.values, law.K_mean.values
    fold = montecarlo._AgentFold(p, grid, N, K_dev, K_mean - K_dev, law.affine.values)
    noise = NoiseBank(seed=43, n_paths=5, n_agents=N, grid=grid)
    res, J = montecarlo._simulate(p, noise, N, True, "agent", fold)
    xs, us, xavg, J_i = reference_em(p, N, noise.increments_block(range(5)),
                                     centralized_control(*stacked_tables(law)))
    for new, ref in ((res.xs, xs), (res.us, us), (res.xavg, xavg), (J.T, J_i)):
        assert_close(new, ref)


def blowup_params():
    # with dt = 1 every agent grows about sevenfold per step, so the agent
    # means leave ode.BLOWUP_NORM near step 15, long before any overflow
    p = rand_params(np.random.default_rng(3), n=1, m=1, T=400.0, steps=400)
    p.A, p.C, p.F = np.array([[6.0]]), np.array([[0.5]]), np.array([[0.1]])
    p.xi0 = np.array([1.0])
    return p


class FirstPathStops(NoiseBank):
    """A bank whose path 0 draws dW = -16 for every agent at step 0: with
    dt = 1, A = 7, C = 0.5 and no coupling or control, x = 1 steps to
    1 + 7 - 8 = 0 exactly and stays there."""

    def increments_block(self, paths):
        dW = super().increments_block(paths)
        if paths.start == 0:
            dW[0, :, 0] = -16.0
        return dW


@pytest.mark.parametrize("kind", ["decentralized", "centralized", "tangents", "tangents-chunked"])
def test_blowup_names_first_step_with_non_finite_agent_mean(kind, monkeypatch):
    # the tangent pass, here along zero directions, steps the law's plane as
    # the centralized run does and names the blow-up as it does.  A chunk is
    # judged once stepped, and the overflow of its later steps warns of
    # nothing: the runs sit outside this test's errstate, so a RuntimeWarning
    # fails the test.  Chunked, each path is a plane chunk of its own and
    # path 0 never blows up, so the blow-up falls in a later chunk.
    p = blowup_params()
    grid, N = p.grid(), 3
    noise = NoiseBank(seed=8, n_paths=4, n_agents=N, grid=grid)
    if kind == "tangents-chunked":
        p.A, p.F, p.Ftilde = np.array([[7.0]]), np.zeros((1, 1)), np.zeros((1, 1))
        noise = FirstPathStops(seed=8, n_paths=4, n_agents=N, grid=grid)
        monkeypatch.setattr(montecarlo, "PLANE_CHUNK_SCALARS", 3 * N)
        assert len(montecarlo._chunks(4, 3 * N, 3 * N)) == 4
    zero = np.zeros((grid.steps + 1, 1, 1))
    label = "decentralized" if kind == "decentralized" else "centralized"
    aug, law = AugmentedCoeffs(p, N), block_law(grid, N, np.zeros((1, 1)), np.zeros(1))
    with np.errstate(over="ignore", invalid="ignore"):
        xavg = reference_em(p, N, noise.increments_block(range(4)),
                            decentralized_control(zero, zero[..., 0]))[2]
        # the first step whose agent mean leaves the ODE layer's bound
        first = int(np.argmin(np.abs(xavg).max(axis=(0, 2)) <= BLOWUP_NORM))
        if kind == "tangents-chunked":
            assert np.array_equal(xavg[0, 1:], np.zeros((grid.steps, 1)))
    assert 0 < first < grid.steps
    with pytest.raises(NonFiniteError, match=f"^{label} simulation blew up at step {first}$"):
        if kind == "decentralized":
            simulate_decentralized(p, make_law(grid, 1, 1), N, noise, store=False)
        elif kind == "centralized":
            simulate_centralized(aug, law, noise, store=False)
        else:
            centralized_tangents(aug, law, np.zeros((2, grid.steps + 1, N)), noise)


def test_sampled_coefficients_must_sit_on_the_law_grid(rng):
    # a law on 20 steps cannot read coefficients sampled on 40
    p = time_varying_params(rng, steps=40)
    grid = TimeGrid(1.0, 20)
    noise = NoiseBank(seed=1, n_paths=2, n_agents=2, grid=grid)
    with pytest.raises(GridMismatchError, match="A is sampled on 40 steps, the law on 20"):
        simulate_decentralized(p, make_law(grid, 2, 1), 2, noise)


@pytest.mark.parametrize("run", ["decentralized", "centralized", "oracle"])
def test_sampled_coefficients_refuse_another_horizon(rng, run, monkeypatch):
    # equal steps, twice the horizon: node k would read the sample for t = k/40
    p = time_varying_params(rng, steps=40)
    grid = TimeGrid(2.0, 40)
    noise = NoiseBank(seed=1, n_paths=2, n_agents=2, grid=grid)

    def no_sweep(*args, **kwargs):
        raise AssertionError("the oracle swept before checking its grid")

    monkeypatch.setattr(riccati, "_riccati_sweep", no_sweep)
    with pytest.raises(GridMismatchError, match="sampled on 40 steps, the law on 40"):
        if run == "decentralized":
            simulate_decentralized(p, make_law(grid, 2, 1), 2, noise)
        elif run == "centralized":
            simulate_centralized(AugmentedCoeffs(p, 2),
                                 block_law(grid, 2, np.zeros((1, 2)), np.zeros(1)), noise)
        else:
            solve_oracle(AugmentedCoeffs(p, 2), grid, validate=False)
