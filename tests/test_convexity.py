"""Convexity certificates: psd case, shifted decoupled case, Gronwall case."""

import warnings

import numpy as np
import pytest

from mflqg.convexity import (
    CONVEX,
    NOT_VERIFIED,
    UNIFORM_TOL,
    UNIFORMLY_CONVEX,
    check_coupled_indefinite,
    check_decoupled_indefinite,
    check_psd_case,
    growth_constant,
    is_coupled,
    report_all,
)
from mflqg.errors import ConfigError, CouplingPresentError
from mflqg.model import ModelParams, mean_weight
from mflqg.ode import eigvals_sym, symmetrize
from mflqg.presets import repro_instance
from mflqg.riccati import solve_P

from conftest import rand_params
from test_montecarlo import mode_law, time_varying_params


def base_params(rng, **over):
    p = rand_params(rng, n=1, m=1, steps=200)
    for name, val in over.items():
        setattr(p, name, np.asarray(val, dtype=float))
    return p


def test_psd_identity_weights_uniformly_convex(rng):
    p = rand_params(rng, n=2, m=2)
    p.Q = np.eye(2)
    p.R = np.eye(2)
    p.G = np.eye(2)
    v = check_psd_case(p)
    assert v.status == UNIFORMLY_CONVEX
    assert v.is_convex
    assert v.witness["margin"] == pytest.approx(1.0)


def test_psd_zero_weights_convex_not_uniform(rng):
    p = rand_params(rng, n=2, m=2)
    p.Q = np.zeros((2, 2))
    p.R = np.zeros((2, 2))
    p.G = np.zeros((2, 2))
    v = check_psd_case(p)
    assert v.status == CONVEX
    assert not v.is_uniformly_convex


def test_psd_indefinite_Q_escapes(rng):
    p = rand_params(rng, n=2, m=2)
    p.Q = np.diag([1.0, -0.1])
    p.R = np.eye(2)
    p.G = np.zeros((2, 2))
    assert check_psd_case(p).status == NOT_VERIFIED


def test_decoupled_requires_no_coupling(rng):
    p = rand_params(rng, n=1, m=1, coupled=True)
    with pytest.raises(CouplingPresentError):
        check_decoupled_indefinite(p)


def test_decoupled_psd_reduction(rng):
    # Gamma = 0 makes Qhat = Q, so the default shift is zero and the shifted
    # problem keeps the original psd weights
    p = rand_params(rng, n=2, m=2, coupled=False)
    p.Gamma = np.zeros((2, 2))
    p.GammaBar = np.zeros((2, 2))
    v = check_decoupled_indefinite(p)
    assert v.status == UNIFORMLY_CONVEX


def test_decoupled_rejects_bad_shift(rng):
    p = rand_params(rng, n=1, m=1, coupled=False)
    p.Gamma = np.ones((1, 1))   # Qhat = 0, so Q - Qhat = Q > 0
    p.GammaBar = np.ones((1, 1))
    v = check_decoupled_indefinite(p, dQ=p.Q - np.array([[1.0]]), dG=p.G)
    assert v.status == NOT_VERIFIED
    assert v.witness["failed"] == "dQ >= Q - Qhat"


@pytest.mark.parametrize("qr_ratio,expect", [(0.5, UNIFORMLY_CONVEX), (4.0, NOT_VERIFIED)])
def test_decoupled_scalar_blowup_matches_closed_form(qr_ratio, expect):
    # weights (-q, r, 0) on dx = u dt: the certificate Riccati is
    # dp/dt = q + p^2/r, p(T) = 0, finite iff sqrt(q/r) T < pi/2
    r = 1.0
    q = qr_ratio**2 * (np.pi / 2) ** 2 * r  # sqrt(q/r)*T = qr_ratio * pi/2
    p = base_params(np.random.default_rng(0),
                    A=[[0.0]], B=[[1.0]], C=[[0.0]], D=[[0.0]],
                    F=[[0.0]], Ftilde=[[0.0]],
                    Q=[[1.0]], R=[[r]], G=[[0.0]],
                    Gamma=[[1.0]], GammaBar=[[1.0]])
    dq = p.Q + q  # Q - dQ = -q
    v = check_decoupled_indefinite(p, dQ=dq, dG=np.zeros((1, 1)))
    assert v.status == expect


def test_growth_constant_zero_and_single_term():
    p = base_params(np.random.default_rng(1))
    for name in ("A", "B", "C", "D", "F", "Ftilde"):
        setattr(p, name, np.zeros((1, 1)))
    assert growth_constant(p) == 0.0
    p2 = rand_params(np.random.default_rng(2), n=2, m=2)
    for name in ("B", "C", "D", "F", "Ftilde"):
        setattr(p2, name, np.zeros(getattr(p2, name).shape))
    p2.A = np.eye(2)
    assert growth_constant(p2) == pytest.approx(2.0)


def test_growth_constant_term_by_term(rng):
    p = repro_instance(steps=10)
    A, B, C, D, F, Ft = p.A, p.B, p.C, p.D, p.F, p.Ftilde
    lam = lambda M: np.linalg.eigvalsh(0.5 * (M + M.T))[-1]
    terms = [
        lam(A.T + A) + lam(F.T + F),
        lam(C.T @ C + (Ft + C).T @ (Ft + C)),
        np.sqrt(lam(B.T @ B)),
        np.sqrt(lam(D.T @ (Ft @ Ft.T + C @ Ft.T + Ft @ C.T) @ D) + lam(D.T @ C @ C.T @ D)),
        lam(D.T @ D),
    ]
    assert growth_constant(p) == pytest.approx(max(terms), abs=1e-10)


def _eig_min_per_node(table):
    return float(min(np.linalg.eigvalsh(symmetrize(M))[0] for M in table))


def _growth_constant_per_node(p):
    tabs = {k: p.node_table(k) for k in ("A", "B", "C", "D", "F", "Ftilde")}
    K = 0.0
    for k in range(p.steps + 1):
        A, B, C, D, F, Ft = (tabs[name][k] for name in ("A", "B", "C", "D", "F", "Ftilde"))
        K = max(K,
                eigvals_sym(A.T + A)[-1] + eigvals_sym(F.T + F)[-1],
                eigvals_sym(C.T @ C + (Ft + C).T @ (Ft + C))[-1],
                np.sqrt(max(eigvals_sym(B.T @ B)[-1], 0.0)),
                np.sqrt(max(eigvals_sym(D.T @ (Ft @ Ft.T + C @ Ft.T + Ft @ C.T) @ D)[-1], 0.0)
                        + max(eigvals_sym(D.T @ (C @ C.T) @ D)[-1], 0.0)),
                eigvals_sym(D.T @ D)[-1])
    return float(max(K, 0.0))


def test_batched_certificates_equal_per_node_loops():
    # every node-wise minimum or maximum is formed on all nodes at once; on a
    # time-varying instance each verdict and witness equals a per-node loop
    p = time_varying_params(np.random.default_rng(7), steps=300)
    assert growth_constant(p) == _growth_constant_per_node(p)
    psd = check_psd_case(p)
    for name in ("Q", "R"):
        assert psd.witness[f"lambda_min_{name}"] == _eig_min_per_node(p.node_table(name))

    # Gamma = 0 gives Qhat = Q, so the shift dQ = Q + I/10 carries the coupled
    # certificate through every hypothesis to the growth-constant test
    p.Gamma = np.zeros_like(p.Gamma)
    Qt = p.node_table("Q")
    qhat = mean_weight(Qt, p.node_table("Gamma"))
    dQ = Qt + 0.1 * np.eye(2)
    v = check_coupled_indefinite(p, dQ=dQ)
    assert v.witness["lambda_min_Q_minus_Qhat"] == _eig_min_per_node(Qt - qhat)
    assert v.witness["lambda_min_dQ_gap"] == _eig_min_per_node(dQ - (Qt - qhat))
    assert v.witness["lambda_min_Q_minus_dQ"] == _eig_min_per_node(Qt - dQ)
    assert v.witness["K"] == _growth_constant_per_node(p)
    assert v.witness["lambda_min_R"] == _eig_min_per_node(p.node_table("R"))

    # decoupled, with GammaBar = 0 for Ghat = G: through to the shifted solve
    p.F = np.zeros((2, 2))
    p.Ftilde = np.zeros((2, 2))
    p.GammaBar = np.zeros((2, 2))
    ghat = mean_weight(p.G, p.GammaBar)
    d = check_decoupled_indefinite(p, dQ=dQ)
    assert d.witness["lambda_min_Q_minus_Qhat"] == _eig_min_per_node(Qt - qhat)
    assert d.witness["lambda_min_G_minus_Ghat"] == _eig_min_per_node([p.G - ghat])
    assert d.witness["lambda_min_dQ_gap"] == _eig_min_per_node(dQ - (Qt - qhat))
    assert d.witness["lambda_min_dG_gap"] == 0.0
    assert "margin" in d.witness or "riccati" in d.witness


def test_growth_constant_orthogonal_invariance(rng):
    p = rand_params(rng, n=3, m=3)
    K0 = growth_constant(p)
    H = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    for name in ("A", "B", "C", "D", "F", "Ftilde"):
        setattr(p, name, H.T @ getattr(p, name) @ H)
    assert growth_constant(p) == pytest.approx(K0, rel=1e-10)


def _coupled_family(q, r):
    # A and F pin the growth constant at exactly 1; Q = 0, Gamma arbitrary
    # makes Qhat = 0, and the shift dQ = q puts lam_min(Q - dQ) = -q
    p = base_params(np.random.default_rng(5),
                    A=[[0.4]], F=[[0.1]], B=[[0.0]], C=[[0.0]], D=[[0.0]],
                    Ftilde=[[0.0]], Q=[[0.0]], R=[[r]], G=[[0.0]],
                    Gamma=[[0.7]], GammaBar=[[0.0]])
    return p


def test_coupled_threshold_flip():
    q = 0.3
    K = 1.0
    r_star = 2.0 * K * np.exp(2.0 * K) * q
    dq = np.array([[q]])
    below = check_coupled_indefinite(_coupled_family(q, r_star * (1 - 1e-9)), dQ=dq)
    at = check_coupled_indefinite(_coupled_family(q, r_star), dQ=dq)
    above = check_coupled_indefinite(_coupled_family(q, r_star * (1 + 1e-9)), dQ=dq)
    assert growth_constant(_coupled_family(q, 1.0)) == pytest.approx(1.0)
    assert below.status == NOT_VERIFIED
    assert at.status in (CONVEX, UNIFORMLY_CONVEX)
    assert above.is_convex


def test_coupled_trivial_cases(rng):
    # Q - dQ = 0 with strict R: first term vanishes, uniformly convex
    p = _coupled_family(0.0, 1.0)
    v = check_coupled_indefinite(p, dQ=np.zeros((1, 1)))
    assert v.status == UNIFORMLY_CONVEX
    # lam_min(R) = 0 with strictly negative first term: not verified
    p2 = _coupled_family(0.3, 0.0)
    v2 = check_coupled_indefinite(p2, dQ=np.array([[0.3]]))
    assert v2.status == NOT_VERIFIED


def test_coupled_nonpositive_Q_autohypothesis(rng):
    # Q <= 0 guarantees lam_min(Q - dQ) <= 0 for the default shift
    for _ in range(5):
        M = rng.standard_normal((2, 2))
        p = rand_params(rng, n=2, m=2)
        p.Q = -(M @ M.T)
        p.G = np.zeros((2, 2))
        v = check_coupled_indefinite(p)
        assert v.witness.get("failed") != "lam_min(Q - dQ) <= 0"
        assert "lambda_min_Q_minus_dQ" not in v.witness or v.witness["lambda_min_Q_minus_dQ"] <= 1e-10


def test_coupled_monotone_in_R(rng):
    # enlarging R never demotes a convex verdict
    q = 0.2
    dq = np.array([[q]])
    for r in (0.5, 1.0, 2.0, 5.0):
        v = check_coupled_indefinite(_coupled_family(q, r), dQ=dq)
        if v.is_convex:
            v2 = check_coupled_indefinite(_coupled_family(q, r + 1.0), dQ=dq)
            assert v2.is_convex


def gap_scalar_params(**over):
    """The scalar gap-study instance, with any coefficient replaced by ``over``."""
    doc = dict(n=1, m=1, T=1.0, steps=200, A=[[0.5]], B=[[1.0]], C=[[0.3]], D=[[0.2]],
               F=[[0.2]], Ftilde=[[0.1]], Q=[[1.0]], R=[[1.0]], G=[[0.5]], Gamma=[[0.5]],
               GammaBar=[[0.3]], eta=[0.5], etaBar=[0.2], xi0=[1.0])
    return ModelParams(**{**doc, **over})


def test_coupled_overflowing_growth_factor():
    # K = 400.2 overflows e^{2KT}; Gamma = 1 gives Qhat = 0, so the tightest
    # shift leaves lam_min(Q - dQ) = 0 and the certificate is lam_min(R)/2
    p = gap_scalar_params(A=[[200.0]], F=[[0.1]], Gamma=[[1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = check_coupled_indefinite(p)
    assert v.witness["K"] == pytest.approx(400.2)
    assert v.witness["lambda_min_Q_minus_dQ"] == 0.0
    assert v.status == UNIFORMLY_CONVEX
    assert v.witness["lhs"] == v.witness["margin"] == 0.5
    # a negative lam_min(Q - dQ) times the overflowed factor is -inf, quietly
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = check_coupled_indefinite(gap_scalar_params(A=[[200.0]], F=[[0.1]]),
                                     dQ=np.array([[2.0]]))
    assert v.status == NOT_VERIFIED
    assert v.witness["lhs"] == -np.inf


DECOUPLED = dict(F=[[0.0]], Ftilde=[[0.0]])


@pytest.mark.parametrize("check, over, shifts, failed", [
    (check_psd_case, dict(Q=[[-1.0]]), {}, "Q >= 0"),
    (check_psd_case, dict(R=[[-1.0]]), {}, "R >= 0"),
    (check_psd_case, dict(G=[[-1.0]]), {}, "G >= 0"),
    (check_decoupled_indefinite, dict(DECOUPLED, Gamma=[[3.0]]), {}, "Q - Qhat >= 0"),
    (check_decoupled_indefinite, dict(DECOUPLED, GammaBar=[[3.0]]), {}, "G - Ghat >= 0"),
    (check_decoupled_indefinite, DECOUPLED, dict(dQ=[[0.0]]), "dQ >= Q - Qhat"),
    (check_decoupled_indefinite, DECOUPLED, dict(dG=[[0.0]]), "dG >= G - Ghat"),
    (check_decoupled_indefinite, DECOUPLED, dict(dQ=[[20.0]]), "shifted Riccati regular on [0, T]"),
    (check_coupled_indefinite, dict(G=[[-1.0]]), {}, "G >= 0"),
    (check_coupled_indefinite, dict(Gamma=[[3.0]]), {}, "Q - Qhat >= 0"),
    (check_coupled_indefinite, {}, dict(dQ=[[0.0]]), "dQ >= Q - Qhat"),
    (check_coupled_indefinite, {}, {}, "lam_min(Q - dQ) <= 0"),
    (check_coupled_indefinite, dict(R=[[0.0]]), dict(dQ=[[2.0]]),
     "K e^{2KT} lam_min(Q - dQ) + lam_min(R)/2 >= 0"),
], ids=["psd-Q", "psd-R", "psd-G", "decoupled-Q-Qhat", "decoupled-G-Ghat", "decoupled-dQ",
        "decoupled-dG", "decoupled-riccati", "coupled-G", "coupled-Q-Qhat", "coupled-dQ",
        "coupled-Q-dQ", "coupled-gronwall"])
def test_every_not_verified_verdict_names_its_failed_hypothesis(check, over, shifts, failed):
    # one gap-scalar variant per NotVerified branch of the three certificates:
    # Gamma = 3 gives Qhat = 4Q, the shift 0 falls short of Q - Qhat = 0.75 or
    # G - Ghat = 0.255, the default shift leaves Q - dQ = Qhat = 0.25 > 0, and
    # dQ = 20 drives the shifted Riccati equation out of regularity
    v = check(gap_scalar_params(**over), **shifts)
    assert v.status == NOT_VERIFIED
    assert v.witness["failed"] == failed


@pytest.mark.parametrize("check, over, keys, failing", [
    (check_psd_case, dict(Q=[[-1.0]]), ["lambda_min_Q", "lambda_min_R", "lambda_min_G"],
     "lambda_min_Q"),
    (check_decoupled_indefinite, dict(DECOUPLED, GammaBar=[[3.0]]),
     ["lambda_min_Q_minus_Qhat", "lambda_min_G_minus_Ghat"], "lambda_min_G_minus_Ghat"),
    (check_coupled_indefinite, dict(Gamma=[[3.0]]), ["lambda_min_G", "lambda_min_Q_minus_Qhat"],
     "lambda_min_Q_minus_Qhat"),
], ids=["psd", "decoupled", "coupled"])
def test_a_failed_hypothesis_ends_the_witness_of_an_indefinite_certificate(check, over, keys,
                                                                           failing):
    # the indefinite certificates record each hypothesis's lambda_min in
    # order up to the first that fails; the psd certificate records all three
    v = check(gap_scalar_params(**over))
    assert list(v.witness) == keys + ["failed"]
    assert v.witness[failing] < -UNIFORM_TOL


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_shift_is_refused(rng, bad):
    p = rand_params(rng, n=2, m=2, coupled=False)
    shift = np.array([[1.0, 0.0], [0.0, bad]])
    with pytest.raises(ConfigError, match="^dQ: entries must be finite"):
        check_coupled_indefinite(gap_scalar_params(), dQ=np.array([[bad]]))
    with pytest.raises(ConfigError, match="^dG: entries must be finite"):
        report_all(p, dG=shift)
    with pytest.raises(ConfigError, match="^dQ: entries must be finite"):
        report_all(p, dQ=np.broadcast_to(shift, (p.steps + 1, 2, 2)))


def _zeroed_shifted_problem(p, dQ, dG):
    # the shifted single-agent problem with every coefficient solve_P does
    # not read set to zero
    n = p.n
    return ModelParams(
        n=n, m=p.m, T=p.T, steps=p.steps, A=p.A, B=p.B, C=p.C, D=p.D,
        F=np.zeros((n, n)), Ftilde=np.zeros((n, n)),
        Q=p.node_table("Q") - dQ, R=p.R, G=symmetrize(p.G - dG),
        Gamma=np.zeros((n, n)), GammaBar=np.zeros((n, n)),
        eta=np.zeros(n), etaBar=np.zeros(n), xi0=np.zeros(n))


def test_report_all_dispatches_every_certificate(rng):
    # coupled, decoupled and time-varying instances, with and without shifts:
    # report_all's verdicts equal the direct certificate calls
    tv = time_varying_params(np.random.default_rng(7), steps=300)
    tv.Gamma = np.zeros_like(tv.Gamma)
    tv_dQ = tv.node_table("Q") + 0.1 * np.eye(2)
    tv_dec = time_varying_params(np.random.default_rng(7), steps=300)
    tv_dec.F, tv_dec.Ftilde = np.zeros((2, 2)), np.zeros((2, 2))
    dec = rand_params(rng, n=2, m=2, coupled=False)
    dec.Gamma, dec.GammaBar = np.zeros((2, 2)), np.zeros((2, 2))
    dec_dQ, dec_dG = 0.2 * np.eye(2), 0.1 * np.eye(2)
    cases = [(repro_instance(steps=50), None, None), (tv, None, None), (tv, tv_dQ, None),
             (dec, None, None), (dec, dec_dQ, dec_dG), (tv_dec, None, None)]
    margins = 0
    for p, dQ, dG in cases:
        rep = report_all(p, dQ, dG)
        assert rep["psd"] == check_psd_case(p)
        if not is_coupled(p):
            assert set(rep) == {"psd", "decoupled_indefinite"}
            direct = check_decoupled_indefinite(p, dQ, dG)
            assert rep["decoupled_indefinite"] == direct
            if "margin" in direct.witness:
                zq = p.node_table("Q") - mean_weight(p.node_table("Q"), p.node_table("Gamma")) \
                    if dQ is None else dQ
                zg = p.G - mean_weight(p.G, p.GammaBar) if dG is None else dG
                assert direct.witness["margin"] == solve_P(_zeroed_shifted_problem(p, zq, zg))[1]
                margins += 1
        else:
            assert set(rep) == {"psd", "coupled_indefinite"}
            assert rep["coupled_indefinite"] == check_coupled_indefinite(p, dQ)
            with pytest.raises(ConfigError, match="^dG: the coupled certificate takes no dG"):
                report_all(p, dQ, np.zeros((p.n, p.n)))
    assert margins >= 2
    assert "K" in report_all(tv, tv_dQ)["coupled_indefinite"].witness


def test_report_on_repro_instance():
    rep = report_all(repro_instance(steps=50))
    assert rep["psd"].status == UNIFORMLY_CONVEX
    # the coupled indefinite certificate does not apply here (Q - Qhat < 0)
    assert rep["coupled_indefinite"].status == NOT_VERIFIED


def test_uniform_verdict_implies_quadratic_growth_of_cost(rng):
    # tiny-scale oracle agreement: on a zero-data instance a UniformlyConvex
    # verdict with margin eps implies E J(u) >= (eps/2)||u||^2 for random
    # open-loop controls, up to Monte Carlo error
    from mflqg.model import AugmentedCoeffs
    from mflqg.ode import trapezoid_nodes
    from mflqg.montecarlo import NoiseBank, centralized_tangents

    checked = 0
    while checked < 20:
        p = rand_params(rng, n=1, m=1, steps=150, r_floor=0.3)
        p.xi0 = np.zeros(1)
        p.eta = np.zeros(1)
        p.etaBar = np.zeros(1)
        v = check_psd_case(p)
        if not v.is_uniformly_convex:
            continue
        grid = p.grid()
        nodes = grid.steps + 1
        N = 2
        u_traj = 0.6 * rng.standard_normal((nodes, N))
        # a zero-gain, zero-affine law and its cost at h = 1 along the
        # direction u_traj: u_i = u_traj[:, i]
        law = mode_law(grid, N, np.zeros((1, 1)), np.zeros((1, 1)), np.zeros(1))
        noise = NoiseBank(seed=1000 + checked, n_paths=400, n_agents=N, grid=grid)
        J0, g, c = centralized_tangents(AugmentedCoeffs(p, N), law, u_traj[None], noise)
        J = J0 + g[0] + 0.5 * c[0]
        u_norm_sq = float(trapezoid_nodes((u_traj ** 2).sum(axis=1), grid))
        se = float(J.std(ddof=1) / np.sqrt(len(J)))
        eps = v.witness["margin"]
        assert J.mean() >= 0.5 * eps * u_norm_sq - 2.0 * se
        checked += 1
