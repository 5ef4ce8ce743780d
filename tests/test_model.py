"""Model container, validation, stacked-system assembly, config round trips."""

import re
from pathlib import Path

import numpy as np
import pytest

from mflqg.errors import InvalidNError, ParseError, SchemaError
from mflqg.model import (
    AugmentedCoeffs,
    ModelParams,
    build_augmented,
    load_config,
    parse_config,
    save_config,
    validate,
)
from mflqg.ode import eig_min, eigvals_sym, symmetrize
from mflqg.presets import repro_instance

from conftest import rand_params, rand_psd, same_params


def test_repro_instance_is_admissible():
    assert validate(repro_instance()) == []


def test_bundled_repro_config_is_the_preset():
    # the benchmark's reference law is solved from the file, repro-sec7 from the preset
    config = Path(__file__).resolve().parents[1] / "configs" / "repro2d.json"
    assert same_params(load_config(config), repro_instance())


def test_validate_flags_asymmetric_Q():
    p = repro_instance()
    p.Q = np.array([[0.2, 0.1], [0.0, 0.2]])
    report = validate(p)
    assert any("Q" in line and "asymmetry" in line for line in report)


def test_validate_flags_dimension_mismatch():
    p = repro_instance()
    p.B = np.zeros((2, 3))
    report = validate(p)
    assert any("B" in line and "shape" in line for line in report)


@pytest.mark.parametrize("name, value", [("n", True), ("m", 1.0), ("steps", 20.0),
                                         ("steps", 1)])
def test_validate_flags_a_count_that_is_not_an_integer(name, value):
    p = repro_instance(steps=20)
    setattr(p, name, value)
    assert validate(p) == [f"{name} must be an integer >= {1 if name != 'steps' else 2}, "
                           f"got {value!r}"]


def test_numpy_integer_counts_are_admissible_and_saved_as_integers(tmp_path):
    p = repro_instance(steps=20)
    p.n, p.steps = np.int64(2), np.int32(20)
    assert validate(p) == []
    save_config(p, tmp_path / "numpy.json")
    save_config(repro_instance(steps=20), tmp_path / "plain.json")
    assert (tmp_path / "numpy.json").read_bytes() == (tmp_path / "plain.json").read_bytes()


def test_validate_flags_nonfinite():
    p = repro_instance()
    p.A = np.array([[np.nan, 0.0], [0.0, 0.0]])
    assert any("A" in line for line in validate(p))


def test_augmented_scalar_hand_case():
    # n=1, A=1, F=3, N=3: diagonal 1 + 3/3 = 2, off-diagonal 3/3 = 1
    p = rand_params(np.random.default_rng(0), n=1, m=1)
    p.A = np.array([[1.0]])
    p.F = np.array([[3.0]])
    aug = build_augmented(p, 3)
    assert np.allclose(aug.A, np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]))


def test_augmented_N1_collapses_to_Qhat():
    rng = np.random.default_rng(1)
    p = rand_params(rng, n=2, m=1)
    aug = build_augmented(p, 1)
    Qhat = (p.Gamma - np.eye(2)).T @ p.Q @ (p.Gamma - np.eye(2))
    assert np.allclose(aug.Q, Qhat, atol=1e-12)
    assert np.allclose(aug.G, (p.GammaBar - np.eye(2)).T @ p.G @ (p.GammaBar - np.eye(2)), atol=1e-12)


def test_augmented_decoupled_blocks():
    rng = np.random.default_rng(2)
    p = rand_params(rng, n=2, m=2, coupled=False)
    aug = build_augmented(p, 3)
    assert np.allclose(aug.A, np.kron(np.eye(3), p.A))
    # without Ftilde each agent's diffusion is its own C block
    assert aug.C.shape == (6, 6)
    assert np.array_equal(aug.C, np.kron(np.eye(3), p.C))


def test_augmented_Di_block_placement():
    rng = np.random.default_rng(3)
    p = rand_params(rng, n=2, m=1)
    aug = build_augmented(p, 2)
    assert aug.D.shape == (4, 2)
    assert np.array_equal(aug.D[2:4, 1:2], p.D)
    assert np.array_equal(aug.D[0:2, 0:1], p.D)
    assert np.all(aug.D[2:4, 0:1] == 0.0) and np.all(aug.D[0:2, 1:2] == 0.0)


def test_augmented_weight_symmetry_random():
    rng = np.random.default_rng(4)
    for N in (1, 2, 5):
        p = rand_params(rng, n=2, m=2)
        aug = build_augmented(p, N)
        for M in (aug.Q, aug.G, aug.R):
            assert np.max(np.abs(M - M.T)) < 1e-12


def test_augmented_refuses_large_N():
    p = repro_instance(steps=10)
    with pytest.raises(InvalidNError):
        build_augmented(p, 64)
    with pytest.raises(InvalidNError):
        build_augmented(p, 0)


def test_diagonal_shift_inequality_random_psd():
    # With Q - Qhat >= 0 and dQ >= Q - Qhat, the stacked weight minus
    # diag(Q - dQ) stays psd for every population size.
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 50:
        n = int(rng.integers(1, 4))
        Q = rand_psd(rng, n)
        Gamma = np.eye(n) + 0.3 * rng.standard_normal((n, n))
        Qhat = (Gamma - np.eye(n)).T @ Q @ (Gamma - np.eye(n))
        if not eig_min(Q - Qhat) >= -1e-12:
            continue
        dQ = Q - Qhat + rand_psd(rng, n, 0.5)
        p = rand_params(rng, n=n, m=1)
        p.Q = Q
        p.Gamma = Gamma
        for N in (2, 3, 4):
            aug = build_augmented(p, N)
            shifted = aug.Q - np.kron(np.eye(N), Q - dQ)
            assert eigvals_sym(shifted)[0] >= -1e-9
        checked += 1


def test_config_round_trip_bit_exact(tmp_path):
    p = repro_instance(steps=50)
    path = tmp_path / "cfg.json"
    save_config(p, path)
    q = load_config(path)
    assert same_params(p, q)


def test_config_round_trip_time_varying(tmp_path):
    p = repro_instance(steps=8)
    nodes = np.linspace(0.0, 1.0, 9)
    p.eta = np.outer(nodes, np.array([1.0, -1.0]))
    path = tmp_path / "cfg.json"
    save_config(p, path)
    q = load_config(path)
    assert same_params(p, q)
    assert q.is_time_varying("eta")


def test_config_empty_file_is_parse_error(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("")
    with pytest.raises(ParseError):
        load_config(path)


def test_config_missing_G_is_schema_error(tmp_path):
    p = repro_instance(steps=10)
    path = tmp_path / "cfg.json"
    save_config(p, path)
    import json

    doc = json.loads(path.read_text())
    del doc["G"]
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="G"):
        load_config(path)


def test_config_symmetrizes_with_warning(tmp_path):
    p = repro_instance(steps=10)
    path = tmp_path / "cfg.json"
    save_config(p, path)
    import json

    doc = json.loads(path.read_text())
    doc["Q"] = [[0.2, 0.1], [0.0, 0.2]]
    path.write_text(json.dumps(doc))
    with pytest.warns(UserWarning, match="Q symmetrized"):
        q = load_config(path)
    assert np.allclose(q.Q, [[0.2, 0.05], [0.05, 0.2]])


def test_each_node_of_a_sampled_weight_is_held_to_its_own_scale(tmp_path):
    # repro's Q sampled per node, node 5 off symmetry by 1e-7: past its own
    # tolerance 1e-8 (1 + max|Q_5|), inside one taken over the whole stack,
    # whose node 12 is 100 times larger
    p = repro_instance(steps=20)
    p.Q = np.repeat(p.Q[None], p.steps + 1, axis=0)
    p.Q[12] *= 100.0
    p.Q[5, 0, 1] += 1e-7
    [line] = validate(p)
    assert re.fullmatch(r"Q: asymmetry 1\.000e-07 exceeds tolerance 1\.18\de-08 at node 5", line)
    path = tmp_path / "cfg.json"
    save_config(p, path)
    with pytest.warns(UserWarning, match=r"Q symmetrized on load \(asymmetry .* at node 5\)"):
        q = parse_config(path)
    assert validate(q) == [] and np.array_equal(q.Q, symmetrize(p.Q))


def test_augmented_coeffs_interpolates_time_varying():
    p = repro_instance(steps=4)
    table = np.stack([p.A * (1.0 + k) for k in range(5)])
    p.A = table
    aug = AugmentedCoeffs(p, 2)
    mid = aug.at(0.125)  # halfway between nodes 0 and 1
    want = 0.5 * (table[0] + table[1])
    assert np.allclose(mid.A[:2, :2], want + p.F / 2.0)


def test_augmented_coeffs_at_many_times_stacks_single_times(rng):
    # at() on an array of times gives each field the systems at those times on
    # its leading axes; fields of constant coefficients keep none
    from test_montecarlo import time_varying_params

    p = time_varying_params(rng, steps=8)
    aug = AugmentedCoeffs(p, 3)
    ts = np.array([[0.0, 0.3], [0.5, 1.0]])
    many = aug.at(ts)
    for idx in np.ndindex(ts.shape):
        one = aug.at(ts[idx])
        for name in ("A", "B", "C", "D", "Q", "R", "S1"):
            assert np.allclose(getattr(many, name)[idx], getattr(one, name), rtol=1e-15, atol=1e-15)
    assert many.G.shape == (6, 6) and np.array_equal(many.G, aug.at(0.3).G)
    assert many.A.shape == (2, 2, 6, 6) and many.S1.shape == (2, 2, 6)


@pytest.mark.parametrize("time_varying", [False, True])
def test_augmented_lift_equals_per_agent_dynamics(rng, time_varying):
    # The stacked A, B, C, D must reproduce every agent's drift
    # A x_i + B u_i + F xavg and diffusion (C x_i + D u_i + Ftilde xavg) dW_i,
    # the latter as block row i of C Y + D U times dW_i; the simulators step
    # the per-agent form, so this is the lift's own check.
    p = rand_params(rng, n=2, m=2, steps=20)
    node = 13
    if time_varying:
        ramp = 1.0 + np.linspace(0.0, 1.0, p.steps + 1)
        for name in ("A", "B", "C", "D", "F", "Ftilde"):
            setattr(p, name, getattr(p, name) * ramp[:, None, None] ** 2)
    N, n, m = 3, p.n, p.m
    s = AugmentedCoeffs(p, N).at(p.grid().nodes[node])
    A, B, C, D, F, Ft = (p.node_table(k)[node] for k in ("A", "B", "C", "D", "F", "Ftilde"))
    Y, U, dW = rng.standard_normal(N * n), rng.standard_normal(N * m), rng.standard_normal(N)
    X, Ua = Y.reshape(N, n), U.reshape(N, m)
    xb = X.mean(axis=0)
    drift = X @ A.T + Ua @ B.T + xb @ F.T
    diffusion = dW[:, None] * (X @ C.T + Ua @ D.T + xb @ Ft.T)
    assert np.max(np.abs(s.A @ Y + s.B @ U - drift.ravel())) < 1e-12
    stacked = np.repeat(dW, n) * (s.C @ Y + s.D @ U)
    assert np.max(np.abs(stacked - diffusion.ravel())) < 1e-12
