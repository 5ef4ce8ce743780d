"""CLI surface: exit codes, artifacts, manifests, byte reproducibility."""

import json
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mflqg import analysis, cli, model, montecarlo, riccati
from mflqg.cli import load_law, main, write_csv
from mflqg.model import load_config, save_config, write_json
from mflqg.presets import repro_instance

from conftest import same_params

REPO = Path(__file__).resolve().parents[1]
CONFIG = REPO / "configs" / "repro2d.json"


def run_cli(args, env=None):
    # pyproject's filterwarnings reaches in-process tests only: a numpy
    # overflow or invalid operation fails a subprocess run too
    full_env = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning")
    if env:
        full_env.update(env)
    return subprocess.run([sys.executable, "-m", "mflqg.cli", *args],
                          capture_output=True, text=True, env=full_env)


def small_config(tmp_path, steps=120):
    path = tmp_path / "small.json"
    save_config(repro_instance(steps=steps), path)
    return path


def test_validate_bundled_config_exits_zero():
    r = run_cli(["validate", str(CONFIG)])
    assert r.returncode == 0, r.stderr


def test_validate_rejects_bad_dimension(tmp_path):
    doc = json.loads(CONFIG.read_text())
    doc["B"] = [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    r = run_cli(["validate", str(bad)])
    assert r.returncode == 1
    assert "B" in r.stderr


def test_missing_config_file_is_validation_failure(tmp_path):
    r = run_cli(["validate", str(tmp_path / "nope.json")])
    assert r.returncode == 1
    assert "Traceback" not in r.stderr


def test_missing_law_dir_is_validation_failure(tmp_path):
    r = run_cli(["simulate", str(CONFIG), "--law", str(tmp_path / "nolaw"),
                 "--N", "2", "--paths", "1", "--seed", "1",
                 "--out", str(tmp_path / "o")])
    assert r.returncode == 1
    assert "Traceback" not in r.stderr


def test_missing_field_is_validation_failure(tmp_path):
    doc = json.loads(CONFIG.read_text())
    del doc["G"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    r = run_cli(["validate", str(bad)])
    assert r.returncode == 1
    assert "G" in r.stderr


@pytest.mark.parametrize("field, edit", [
    ("Theta1", lambda doc: doc.pop("Theta1")),
    ("steps", lambda doc: doc.update(steps=1)),
    ("P", lambda doc: doc["P"]["samples"].pop()),
    ("Theta1", lambda doc: doc["Theta1"].update(samples=[s[:1] for s in doc["Theta1"]["samples"]])),
    ("m", lambda doc: doc.update(m=1)),
    ("steps", lambda doc: doc.update(steps=20.7)),
    ("n", lambda doc: doc.update(n=2.9)),
    ("n", lambda doc: doc.update(n=True)),
    ("T", lambda doc: doc.update(T=True)),
    ("T", lambda doc: doc.update(T="1")),
    ("regularity_margin", lambda doc: doc.update(regularity_margin=True)),
    ("regularity_margin", lambda doc: doc.update(regularity_margin=float("nan"))),
    ("regularity_margin", lambda doc: doc.update(regularity_margin=float("inf"))),
    ("Theta2", lambda doc: doc["Theta2"]["samples"][3].__setitem__(0, float("nan"))),
    ("P", lambda doc: doc.update(P={"samples": 5.0})),
    ("Theta1", lambda doc: doc.update(Theta1=doc["Theta1"]["samples"])),
    ("regularity_margin", lambda doc: doc.update(regularity_margin=-1)),
    ("regularity_margin", lambda doc: doc.update(regularity_margin=1e-10)),
    ("P", lambda doc: doc["P"]["samples"][5][0].__setitem__(1, 1e3)),
], ids=["missing_field", "one_step", "sample_count", "sample_shape", "config_dims",
        "fractional_steps", "fractional_n", "boolean_n", "boolean_T", "string_T",
        "boolean_margin", "nan_margin", "infinite_margin", "nan_sample", "scalar_samples",
        "bare_list", "negative_margin", "margin_at_tolerance", "asymmetric_P"])
def test_malformed_law_is_validation_failure(tmp_path, field, edit):
    cfg = small_config(tmp_path)
    law_dir = tmp_path / "law"
    assert main(["solve", str(cfg), "--out", str(law_dir)]) == 0
    law = law_dir / "law.json"
    doc = json.loads(law.read_text())
    edit(doc)
    law.write_text(json.dumps(doc))
    r = run_cli(["simulate", str(cfg), "--law", str(law_dir), "--N", "2", "--paths", "1",
                 "--seed", "1", "--out", str(tmp_path / "sim")])
    assert r.returncode == 1
    assert "Traceback" not in r.stderr
    assert r.stderr.startswith(f"validation failure: {law}: ")
    assert repr(field) in r.stderr


@pytest.mark.parametrize("field, value", [("steps", 20.7), ("n", 2.9), ("n", True)])
def test_non_integral_config_count_is_validation_failure(tmp_path, field, value):
    cfg = small_config(tmp_path)
    doc = json.loads(cfg.read_text())
    doc[field] = value
    cfg.write_text(json.dumps(doc))
    r = run_cli(["validate", str(cfg)])
    assert r.returncode == 1
    assert r.stderr.startswith(f"validation failure: {cfg}: field {field!r}: ")


NOT_JSON = '{\n  "n": 2,\n  "m": }\n'


@pytest.mark.parametrize("target, text, expect", [
    ("config", lambda doc: json.dumps(dict(doc, G=[["x", 1.0], [0.0, 1.0]])), "field 'G': "),
    ("config", lambda doc: "[1, 2]", "top level must be an object\n"),
    ("config", lambda doc: NOT_JSON, "line 3, column 8: Expecting value\n"),
    ("law", lambda doc: json.dumps([doc]), "top level must be an object\n"),
    ("law", lambda doc: NOT_JSON, "line 3, column 8: Expecting value\n"),
    ("config", lambda doc: b'{"n": "\xff"}', "'utf-8' codec can't decode byte 0xff"),
    ("law", lambda doc: "[" * 100000, "maximum recursion depth exceeded"),
], ids=["config-coefficient", "config-list", "config-not-json", "law-list", "law-not-json",
        "config-not-utf8", "law-nested-too-deeply"])
def test_bad_input_file_refusal_names_the_file(tmp_path, target, text, expect):
    # every input file is refused naming the file, then the field, or the
    # line and column of a syntax error
    cfg = small_config(tmp_path)
    law_dir = tmp_path / "law"
    assert main(["solve", str(cfg), "--out", str(law_dir)]) == 0
    path = cfg if target == "config" else law_dir / "law.json"
    new = text(json.loads(path.read_text()))
    path.write_bytes(new if isinstance(new, bytes) else new.encode())
    r = run_cli(["simulate", str(cfg), "--law", str(law_dir), "--N", "2", "--paths", "1",
                 "--seed", "1", "--out", str(tmp_path / "sim")])
    assert r.returncode == 1
    assert r.stderr.startswith(f"validation failure: {path}: {expect}"), r.stderr
    assert not (tmp_path / "sim").exists()


@pytest.mark.parametrize("value", [True, "1"], ids=["boolean", "string"])
def test_non_numeric_config_horizon_is_validation_failure(tmp_path, value):
    # float() would read both as T = 1
    cfg = small_config(tmp_path)
    doc = json.loads(cfg.read_text())
    doc["T"] = value
    cfg.write_text(json.dumps(doc))
    r = run_cli(["validate", str(cfg)])
    assert r.returncode == 1
    assert r.stderr.startswith(f"validation failure: {cfg}: field 'T': expected a number")


@pytest.mark.parametrize("cmd", [["simulate", "--N", "2", "--paths", "1"],
                                 ["converge", "--N-list", "2", "--reps", "2"]],
                         ids=["simulate", "converge"])
def test_law_off_a_sampled_coefficient_grid_is_validation_failure(tmp_path, cmd):
    law_dir = tmp_path / "law"
    assert main(["solve", str(small_config(tmp_path, steps=20)), "--out", str(law_dir)]) == 0
    p = repro_instance(steps=40)
    p.eta = np.outer(p.grid().nodes, [1.0, -1.0])
    cfg = tmp_path / "sampled.json"
    save_config(p, cfg)
    r = run_cli([cmd[0], str(cfg), "--law", str(law_dir), *cmd[1:], "--seed", "1",
                 "--out", str(tmp_path / "out")])
    assert r.returncode == 1
    assert r.stderr.startswith(f"validation failure: {law_dir / 'law.json'}: fields 'T' and "
                               "'steps': eta is sampled on 40 steps, the law on 20")


def test_converge_rejects_a_law_of_other_dimensions(tmp_path):
    law_dir = tmp_path / "law"
    assert main(["solve", str(scalar_config(tmp_path)), "--out", str(law_dir)]) == 0
    r = run_cli(["converge", str(small_config(tmp_path)), "--law", str(law_dir),
                 "--N-list", "2", "--reps", "2", "--seed", "1", "--out", str(tmp_path / "c")])
    assert r.returncode == 1
    assert r.stderr.startswith(f"validation failure: {law_dir / 'law.json'}: field 'n': ")


def rows_csv(header, rows) -> bytes:
    """The per-row CSV builder that write_csv replaced: one template of "%s"
    (string cells) and "%.17g" fields per row.  The tests' reference."""
    return (",".join(header) + "\n" + "".join(
        ",".join(["%s" if isinstance(cell, str) else "%.17g" for cell in row]) % tuple(row)
        + "\n" for row in rows)).encode()


def test_write_csv_prints_each_number_as_17_significant_digits(tmp_path, monkeypatch):
    numbers = np.array([[0.1, -0.0, np.inf, -np.inf, 2],
                        [1e-300, 5e-324, np.finfo(float).max, -123456789.123456789, np.nan],
                        [2.0 / 3.0, 1e22, 1e16 + 2.0, -1e-5, 12345678901234567890],
                        [1.5, 0.0, 7, 0.0, True]])
    ints = np.array([0, 7, -3, 2**53])
    # blocks of 3 rows: the last block is short
    monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", 3)
    path = write_csv(tmp_path / "t.csv", ["s", "b", "c", "d", "e", "f", "g", "i"],
                     ["5%s%%", numbers[:, 0], numbers[:, 1:], "", ints])
    expect = "s,b,c,d,e,f,g,i\n" + "".join(
        ",".join(["5%s%%", *(f"{float(c):.17g}" for c in row), "", str(i)]) + "\n"
        for row, i in zip(numbers, ints))
    assert path.read_bytes() == expect.encode()


@pytest.mark.parametrize("store", [True, False], ids=["stored", "avg"])
@pytest.mark.parametrize("thin", [1, 7])
def test_simulate_csv_bytes_equal_per_row_builder(tmp_path, monkeypatch, store, thin):
    cfg = small_config(tmp_path, steps=40)
    law_dir, out = tmp_path / "law", tmp_path / "sim"
    assert main(["solve", str(cfg), "--out", str(law_dir)]) == 0
    if not store:
        # over the storage budget, simulate writes the state average only
        monkeypatch.setattr(montecarlo, "STORE_BUDGET", 0)
    N, paths = 9, 2
    assert main(["simulate", str(cfg), "--law", str(law_dir), "--N", str(N), "--paths",
                 str(paths), "--seed", "5", "--thin", str(thin), "--out", str(out)]) == 0
    params = load_config(cfg)
    law = load_law(law_dir, params)[0]
    res = montecarlo.simulate_decentralized(
        params, law, N, montecarlo.NoiseBank(seed=5, n_paths=paths, n_agents=N, grid=law.grid))
    nodes, steps = law.grid.nodes, law.grid.steps
    keep = [k for k in range(steps + 1) if k % thin == 0 or k == steps]
    if store:
        rows = [[str(p), str(agent), nodes[k], *res.xs[p, agent, k]]
                for p in range(paths) for agent in range(N) for k in keep]
    else:
        assert res.xs is None
        rows = [[str(p), "avg", nodes[k], *res.xavg[p, k]] for p in range(paths) for k in keep]
    assert (out / "trajectories.csv").read_bytes() == rows_csv(
        ["path", "agent", "t", "x_1", "x_2"], rows)
    costs = [[str(p), res.J_soc[p], *res.J_i[p, :8]] for p in range(paths)]
    assert (out / "costs.csv").read_bytes() == rows_csv(
        ["path", "J_soc"] + [f"J_{i + 1}" for i in range(8)], costs)


def test_indefinite_R_without_noise_exits_two(tmp_path):
    p = repro_instance(steps=100)
    p.R = -np.eye(2)
    p.D = np.zeros((2, 2))
    cfg = tmp_path / "bad.json"
    save_config(p, cfg)
    r = run_cli(["solve", str(cfg), "--out", str(tmp_path / "out")])
    assert r.returncode == 2
    assert "solve_P" in r.stderr


@pytest.mark.parametrize("command, edit, message", [
    ("solve", dict(R=-np.eye(2), D=np.zeros((2, 2))), "[stage solve_P] blow-up detected at node 0"),
    ("simulate", dict(A=1e9 * np.eye(2)), "decentralized simulation blew up at step 2"),
    ("converge", dict(A=1e9 * np.eye(2)), "decentralized simulation blew up at step 2"),
    ("simulate", dict(A=1e6 * np.eye(2)), "decentralized simulation blew up at step 3"),
    ("converge", dict(A=1e6 * np.eye(2)), "decentralized simulation blew up at step 3"),
], ids=["solve-indefinite-R", "simulate-A1e9", "converge-A1e9", "simulate-A1e6",
        "converge-A1e6"])
def test_failed_run_leaves_no_directory(tmp_path, capsys, command, edit, message):
    # the law is solved from the unmodified config; at A = 1e6 I the states
    # grow to about 1e214 and stay finite, past the ODE layer's blow-up bound
    law_dir = tmp_path / "law"
    assert main(["solve", str(small_config(tmp_path, steps=50)), "--out", str(law_dir)]) == 0
    p = repro_instance(steps=50)
    for name, value in edit.items():
        setattr(p, name, value)
    cfg = tmp_path / "bad.json"
    save_config(p, cfg)
    extra = {"solve": [],
             "simulate": ["--law", str(law_dir), "--N", "3", "--paths", "2", "--seed", "1"],
             "converge": ["--law", str(law_dir), "--N-list", "2,3", "--reps", "2", "--seed", "1"]}
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([command, str(cfg), *extra[command], "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"numerical failure: {message}\n"
    assert not out.exists()


def test_python_m_mflqg_runs_the_command_line():
    r = subprocess.run([sys.executable, "-m", "mflqg", "validate", str(CONFIG)],
                       capture_output=True, text=True,
                       env={**os.environ, "PYTHONPATH": str(REPO / "src")})
    assert r.returncode == 0, r.stderr
    assert r.stdout == "config admissible\n"


def test_solve_then_simulate_manifest_chain(tmp_path):
    cfg = small_config(tmp_path)
    law_dir = tmp_path / "law"
    r = run_cli(["solve", str(cfg), "--out", str(law_dir)])
    assert r.returncode == 0, r.stderr
    for name in ("law.json", "solution.csv", "diagnostics.json", "manifest.json", "config.json"):
        assert (law_dir / name).exists()
    manifest = json.loads((law_dir / "manifest.json").read_text())
    assert manifest["config_sha256"] == hashlib.sha256((law_dir / "config.json").read_bytes()).hexdigest()

    sim_dir = tmp_path / "sim"
    r = run_cli(["simulate", str(cfg), "--law", str(law_dir), "--N", "4",
                 "--paths", "3", "--seed", "11", "--out", str(sim_dir), "--thin", "30"])
    assert r.returncode == 0, r.stderr
    sim_manifest = json.loads((sim_dir / "manifest.json").read_text())
    _, _, law_hash = load_law(law_dir)
    assert sim_manifest["law_sha256"] == law_hash
    header = (sim_dir / "trajectories.csv").read_text().splitlines()[0]
    assert header == "path,agent,t,x_1,x_2"
    costs = (sim_dir / "costs.csv").read_text().splitlines()
    assert costs[0].startswith("path,J_soc,J_1")
    assert len(costs) == 4  # header + 3 paths


def test_convexity_subcommand_reports_verdicts():
    r = run_cli(["convexity", str(CONFIG)])
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["psd"]["status"] == "UniformlyConvex"


@pytest.mark.parametrize("flag, text, coupled, expect", [
    ("--dq", None, True, "{path}: No such file or directory"),
    ("--dq", "[[1.0, 2.0", True, "{path}: line 1, column 11: "),
    ("--dq", '[["a", 1.0]]', True, "{path}: could not convert string to float: 'a'"),
    ("--dq", "[[1.0, 2.0, 3.0]]", True,
     "{path}: dQ: expected shape (2, 2) or (121, 2, 2), got (1, 3)"),
    ("--dg", "[1.0, 2.0]", False, "{path}: dG: expected shape (2, 2), got (2,)"),
    ("--dg", "[[1, 0, 0], [0, 1, 0], [0, 0, 1]]", False,
     "{path}: dG: expected shape (2, 2), got (3, 3)"),
    ("--dg", "[[1e9, 0], [0, -1e9]]", True,
     "{path}: dG: the coupled certificate takes no dG shift"),
    ("--dq", "[[NaN, 0], [0, 1]]", True, "{path}: dQ: entries must be finite"),
    ("--dq", "[[Infinity, 0], [0, 1]]", False, "{path}: dQ: entries must be finite"),
    ("--dg", "[[1, 0], [0, -Infinity]]", False, "{path}: dG: entries must be finite"),
], ids=["missing-file", "not-json", "not-numbers", "dq-1x3", "dg-vector", "dg-3x3", "dg-coupled",
        "dq-nan", "dq-infinity", "dg-minus-infinity"])
def test_bad_convexity_shift_is_validation_failure(tmp_path, capsys, flag, text, coupled, expect):
    # a decoupled config (F = Ftilde = 0) sends --dg to the decoupled
    # certificate; the coupled one has no dG shift to take
    cfg = small_config(tmp_path)
    if not coupled:
        p = load_config(cfg)
        p.F, p.Ftilde = np.zeros((2, 2)), np.zeros((2, 2))
        save_config(p, cfg)
    shift = tmp_path / "shift.json"
    if text is not None:
        shift.write_text(text)
    assert main(["convexity", str(cfg), flag, str(shift)]) == 1
    assert capsys.readouterr().err.startswith(
        "validation failure: " + expect.format(path=shift))


def _refuse_constant(token):
    raise ValueError(f"non-JSON token {token}")


@pytest.mark.parametrize("over, dq, status, lhs", [
    ({"Gamma": [[1.0]]}, None, "UniformlyConvex", 0.5),
    ({"Gamma": [[0.5]]}, "[[2.0]]", "NotVerified", None),
], ids=["overflow-at-zero", "overflow-to-minus-infinity"])
def test_convexity_stdout_is_strict_json(tmp_path, capsys, over, dq, status, lhs):
    # K = 400.2 overflows e^{2KT}: a zero lam_min(Q - dQ) adds 0, a negative
    # one gives lhs = -inf, printed as null
    cfg = tmp_path / "scalar.json"
    doc = json.loads((REPO / "perfbench" / "gap_scalar.json").read_text())
    cfg.write_text(json.dumps({**doc, "A": [[200.0]], "F": [[0.1]], **over}))
    args = ["convexity", str(cfg)]
    if dq is not None:
        (tmp_path / "dq.json").write_text(dq)
        args += ["--dq", str(tmp_path / "dq.json")]
    assert main(args) == 0
    out = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
    assert set(out) == {"psd", "coupled_indefinite"}
    assert out["coupled_indefinite"]["status"] == status
    assert out["coupled_indefinite"]["witness"]["lhs"] == lhs


def test_byte_identical_outputs_across_thread_counts(tmp_path):
    cfg = small_config(tmp_path)
    digests = []
    for threads, tag in (("1", "a"), ("3", "b")):
        law_dir = tmp_path / f"law_{tag}"
        sim_dir = tmp_path / f"sim_{tag}"
        conv_dir = tmp_path / f"conv_{tag}"
        env = {"MFLQG_THREADS": threads}
        assert run_cli(["solve", str(cfg), "--out", str(law_dir)], env=env).returncode == 0
        assert run_cli(["simulate", str(cfg), "--law", str(law_dir), "--N", "6",
                        "--paths", "5", "--seed", "7", "--out", str(sim_dir)],
                       env=env).returncode == 0
        assert run_cli(["converge", str(cfg), "--law", str(law_dir), "--N-list", "5,10",
                        "--reps", "6", "--seed", "3", "--out", str(conv_dir)],
                       env=env).returncode == 0
        payload = b"".join(
            (d / f).read_bytes()
            for d, files in ((law_dir, ["law.json", "solution.csv"]),
                             (sim_dir, ["trajectories.csv", "costs.csv"]),
                             (conv_dir, ["convergence.csv", "summary.json"]))
            for f in files)
        digests.append(hashlib.sha256(payload).hexdigest())
    assert digests[0] == digests[1]


def scalar_config(tmp_path):
    # scalar instance keeps the oracle cheap
    p = repro_instance(steps=100)
    p.n = p.m = 1
    for name, shape in (("A", (1, 1)), ("B", (1, 1)), ("C", (1, 1)), ("D", (1, 1)),
                        ("F", (1, 1)), ("Ftilde", (1, 1)), ("Q", (1, 1)), ("R", (1, 1)),
                        ("G", (1, 1)), ("Gamma", (1, 1)), ("GammaBar", (1, 1))):
        setattr(p, name, 0.3 * np.ones(shape))
    p.R = np.array([[1.0]])
    p.eta = np.array([0.5])
    p.etaBar = np.zeros(1)
    p.xi0 = np.array([1.0])
    cfg = tmp_path / "scalar.json"
    save_config(p, cfg)
    return cfg


def test_gap_subcommand_small_run(tmp_path):
    cfg = scalar_config(tmp_path)
    out = tmp_path / "gap"
    r = run_cli(["gap", str(cfg), "--N-list", "2,3", "--paths", "150",
                 "--seed", "5", "--out", str(out)])
    assert r.returncode == 0, r.stderr
    rows = (out / "gap.csv").read_text().splitlines()
    assert rows[0] == "N,J_dec_per_capita,J_oracle_per_capita,gap_per_capita,se"
    assert len(rows) == 3
    summary = json.loads((out / "summary.json").read_text())
    assert summary["oracle_dominates"] is True


def test_repro_command_quick(tmp_path):
    out = tmp_path / "repro"
    r = run_cli(["repro-sec7", "--out", str(out), "--steps", "200", "--N", "50",
                 "--paths", "2", "--reps", "5", "--n-list", "10,20"])
    assert r.returncode == 0, r.stderr
    header = (out / "trajectories.csv").read_text().splitlines()[0]
    assert header == "t,xhat_1,xhat_2,xavg_1,xavg_2"
    summary = json.loads((out / "summary.json").read_text())
    assert "sup_norm_distance" in summary
    assert summary["convexity"]["psd"]["status"] == "UniformlyConvex"
    assert (out / "convergence.csv").exists()
    assert (out / "law.json").exists()
    # golden regression pin from the first validated run of this exact command
    assert summary["sup_norm_distance"] == pytest.approx(0.05614684004499537, rel=1e-9)
    assert summary["convergence_slope"] == pytest.approx(-0.7193565626851124, rel=1e-9)


def strict_json(path):
    """Parse as strict JSON: Python's json accepts bare NaN and Infinity, JSON does not."""
    def reject(token):
        raise ValueError(f"{path.name}: non-JSON literal {token}")
    return json.loads(path.read_text(), parse_constant=reject)


def test_unfittable_slope_is_written_as_null(tmp_path):
    # one N leaves no slope to fit; both summaries must still be valid JSON
    cfg = small_config(tmp_path)
    law_dir = tmp_path / "law"
    assert main(["solve", str(cfg), "--out", str(law_dir)]) == 0
    assert main(["converge", str(cfg), "--law", str(law_dir), "--N-list", "5", "--reps", "2",
                 "--seed", "1", "--out", str(tmp_path / "conv")]) == 0
    assert strict_json(tmp_path / "conv" / "summary.json") == {"slope": None, "intercept": None}
    assert main(["repro-sec7", "--out", str(tmp_path / "repro"), "--steps", "100", "--N", "5",
                 "--paths", "2", "--reps", "2", "--n-list", "10"]) == 0
    summary = strict_json(tmp_path / "repro" / "summary.json")
    assert summary["convergence_slope"] is None
    assert np.isfinite(summary["sup_norm_distance"])


def test_write_json_refuses_non_finite_floats(tmp_path):
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            write_json(tmp_path / "doc.json", {"x": bad})


def _stdlib_bytes(doc) -> bytes:
    """What json.dump writes for doc, its float arrays given as lists."""
    def plain(x):
        if isinstance(x, dict):
            return {k: plain(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [plain(v) for v in x]
        return x.tolist() if isinstance(x, (np.ndarray, np.generic)) else x
    return (json.dumps(plain(doc), indent=2, sort_keys=True, allow_nan=False) + "\n").encode()


def test_write_json_bytes_equal_stdlib_on_every_artifact(tmp_path, monkeypatch):
    written = []

    def recording(path, doc):
        written.append((path, doc))
        return write_json(path, doc)

    monkeypatch.setattr(cli, "write_json", recording)
    monkeypatch.setattr(model, "write_json", recording)
    cfg, scalar = small_config(tmp_path), scalar_config(tmp_path)
    law_dir = tmp_path / "law"
    runs = [["solve", str(cfg), "--out", str(law_dir)],
            ["simulate", str(cfg), "--law", str(law_dir), "--N", "3", "--paths", "2",
             "--seed", "1", "--out", str(tmp_path / "sim")],
            ["converge", str(cfg), "--law", str(law_dir), "--N-list", "5,10", "--reps", "2",
             "--seed", "1", "--out", str(tmp_path / "conv")],
            ["gap", str(scalar), "--N-list", "2", "--paths", "20", "--seed", "5",
             "--out", str(tmp_path / "gap")],
            ["repro-sec7", "--out", str(tmp_path / "repro"), "--steps", "100", "--N", "5",
             "--paths", "2", "--reps", "2", "--n-list", "10,20"]]
    for args in runs:
        assert main(args) == 0, args
    # save_config writes through write_json: a constant config and a sampled one
    varying = repro_instance(steps=30)
    varying.A = varying.A * np.linspace(1.0, 2.0, 31)[:, None, None]
    varying.eta = np.outer(np.linspace(0.0, 1.0, 31), [1.0, -0.5])
    save_config(repro_instance(steps=30), tmp_path / "constant.json")
    save_config(varying, tmp_path / "varying.json")
    assert same_params(load_config(tmp_path / "varying.json"), varying)
    names = {(p.parent.name, p.name) for p, _ in written}
    assert {("law", "law.json"), ("law", "diagnostics.json"), ("sim", "manifest.json"),
            ("conv", "summary.json"), ("gap", "summary.json"),
            ("repro", "summary.json"), ("repro", "law.json"), ("repro", "config.json"),
            (tmp_path.name, "constant.json"), (tmp_path.name, "varying.json")} <= names
    for path, doc in written:
        assert path.read_bytes() == _stdlib_bytes(doc), path


@pytest.mark.parametrize("doc", [
    {}, [], {"a": {}, "b": []}, [[], {}, [[]]],
    {"i": 3, "t": True, "f": False, "z": None, "nest": [1, [2, [None, False]], {"k": -7}]},
    {"é": 1.5, "ключ": "значение", "\u2603": ["snow", "☃"], "a\"b": "tab\t"},
    {10: "ten", 2: "two", 1.5: "float", True: "bool"},
    {"empty": np.empty(0), "rows": np.empty((0, 3)), "cols": np.empty((2, 0)),
     "one": np.array([0.25]), "scalar": np.array(-1.5), "cube": np.ones((1, 1, 1))},
    {"v": [-0.0, 5e-324, 1e308, -1e308, 0.1, 1 / 3, 123456789.0, 1e16, 1e-7]},
    {"a": np.array([-0.0, 5e-324, 1e308, 2.5e-310, 1 / 3, 1e16, 1e-7]),
     "m": np.arange(12.0).reshape(2, 3, 2) / 7, "f32": np.array([0.1, 2.5], dtype=np.float32)},
    {"mixed": [np.array([[1.0, 2.0]]), 3, {"x": np.array([4.0])}]},
    {"ints": np.arange(3), "flags": np.array([True, False]), "n": np.int64(7),
     "half": np.float64(0.5), "yes": np.bool_(True)},
])
def test_write_json_bytes_equal_stdlib_on_edge_cases(tmp_path, doc):
    path = write_json(tmp_path / "doc.json", doc)
    assert path.read_bytes() == _stdlib_bytes(doc)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("leaf", ["list", "array"])
def test_write_json_refuses_non_finite_leaves_before_opening(tmp_path, leaf, bad):
    values = [1.0, bad, 2.0]
    doc = {"ok": np.ones(3), "x": {"samples": values if leaf == "list" else np.array(values)}}
    fresh, kept = tmp_path / "fresh.json", tmp_path / "kept.json"
    kept.write_text("old contents\n")
    for path in (fresh, kept):
        with pytest.raises(ValueError):
            write_json(path, doc)
    assert not fresh.exists()
    assert kept.read_text() == "old contents\n"


def test_solution_csv_equals_per_node_rows(tmp_path):
    from mflqg.consistency import solve_cc

    cfg = small_config(tmp_path)
    out = tmp_path / "law"
    assert main(["solve", str(cfg), "--out", str(out)]) == 0
    got = (out / "solution.csv").read_text().splitlines(keepends=True)
    sol, law = solve_cc(load_config(cfg))
    rows = [[t, *sol.xhat.values[k], *sol.y1hat.values[k], *sol.y2hat.values[k],
             *sol.beta1hat.values[k], *sol.phi.values[k],
             *law.Theta1.values[k].ravel(), *law.Theta2.values[k]]
            for k, t in enumerate(law.grid.nodes)]
    assert (out / "solution.csv").read_bytes() == rows_csv(got[0].rstrip("\n").split(","), rows)


def test_bad_run_settings_are_validation_failures(tmp_path, monkeypatch, capsys):
    cfg = small_config(tmp_path)
    law_dir = tmp_path / "law"
    assert main(["solve", str(cfg), "--out", str(law_dir)]) == 0
    sim = ["simulate", str(cfg), "--law", str(law_dir), "--N", "2", "--seed", "1",
           "--out", str(tmp_path / "sim")]
    capsys.readouterr()
    assert main(sim + ["--paths", "0"]) == 1
    assert "validation failure: need at least one path" in capsys.readouterr().err
    monkeypatch.setenv("MFLQG_THREADS", "two")
    assert main(sim + ["--paths", "2"]) == 1
    assert "validation failure: MFLQG_THREADS must be an integer" in capsys.readouterr().err
    monkeypatch.delenv("MFLQG_THREADS")
    repro = tmp_path / "repro"
    assert main(["repro-sec7", "--steps", "1", "--out", str(repro)]) == 1
    assert "validation failure: --steps: need at least 2 steps, got 1" in capsys.readouterr().err
    assert not repro.exists()


@pytest.mark.parametrize("edit, named", [
    (lambda doc: doc["Q"][0].__setitem__(0, float("nan")), "Q: contains non-finite entries"),
    (lambda doc: doc["xi0"].__setitem__(1, float("inf")), "xi0: contains non-finite entries"),
    (lambda doc: doc["Q"][0].__setitem__(0, float("inf")), "Q: contains non-finite entries"),
    (lambda doc: doc.update(T=0), "T must be positive and finite, got 0.0"),
], ids=["nan-Q", "inf-xi0", "inf-Q", "zero-T"])
def test_inadmissible_config_is_validation_failure_everywhere(tmp_path, capsys, edit, named):
    # every subcommand rejects what `mflqg validate` rejects, naming the field
    doc = json.loads(small_config(tmp_path).read_text())
    edit(doc)
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))
    runs = {"solve": [], "gap": ["--N-list", "2", "--paths", "2", "--seed", "1"],
            "simulate": ["--law", str(tmp_path), "--N", "2", "--paths", "2", "--seed", "1"],
            "converge": ["--law", str(tmp_path), "--N-list", "2", "--reps", "2", "--seed", "1"]}
    for command, extra in runs.items():
        assert main([command, str(cfg), "--out", str(tmp_path / command)] + extra) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"validation failure: {cfg}: ") and named in err, err
    assert main(["validate", str(cfg)]) == 1
    assert capsys.readouterr().err == f"invalid: {named}\n"


def test_bad_population_is_validation_failure(tmp_path):
    r = run_cli(["gap", str(CONFIG), "--N-list", "0", "--paths", "10", "--seed", "1",
                 "--out", str(tmp_path / "gap")])
    assert r.returncode == 1
    assert "validation failure: population size must be a positive integer" in r.stderr


@pytest.mark.parametrize("command", [
    ["gap", str(CONFIG), "--N-list", "2,x", "--paths", "10"],
    ["converge", str(CONFIG), "--law", "nolaw", "--N-list", "2,x", "--reps", "2"],
    ["repro-sec7", "--n-list", "10,x"],
], ids=["gap", "converge", "repro-sec7"])
def test_unparsable_N_list_is_validation_failure(tmp_path, command):
    # a list with no entries or a repeated one is refused too, rather than
    # giving empty tables or duplicate rows
    at = next(i for i, arg in enumerate(command) if arg.endswith(",x"))
    flag, first = command[at - 1], command[at].split(",")[0]
    for entries, message in ((command[at], "entry 'x' is not an integer"),
                             (",", "no entries in ','"),
                             (f"{first},{first}", f"entry '{first}' is repeated")):
        args = command[:at] + [entries] + command[at + 1:]
        r = run_cli(args + ["--seed", "1", "--out", str(tmp_path / "out")])
        assert r.returncode == 1
        assert "Traceback" not in r.stderr
        assert f"{flag}: {message}" in r.stderr
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_the_key_range_is_validation_failure(tmp_path, capsys, seed):
    # every subcommand refuses a seed that a noise bank could only reduce
    # modulo 2**64, the oracle's validation included
    cfg = scalar_config(tmp_path)
    law_dir = tmp_path / "law"
    assert main(["solve", str(cfg), "--out", str(law_dir)]) == 0
    runs = {"simulate": [str(cfg), "--law", str(law_dir), "--N", "2", "--paths", "2"],
            "converge": [str(cfg), "--law", str(law_dir), "--N-list", "2,3", "--reps", "2"],
            "gap": [str(cfg), "--N-list", "2", "--paths", "2"],
            "repro-sec7": ["--steps", "100", "--N", "2", "--reps", "2", "--n-list", "2,3"]}
    capsys.readouterr()
    for command, extra in runs.items():
        out = str(tmp_path / command)
        assert main([command, *extra, "--seed", str(seed), "--out", out]) == 1, command
        assert capsys.readouterr().err == (
            f"validation failure: seed must be an integer in [0, 2**64), got {seed}\n"), command
        # refused before anything is solved or written
        assert not (tmp_path / command).exists(), command


@pytest.mark.parametrize("command, extra, message", [
    ("simulate", ["--N", "0", "--paths", "2"], "population size must be a positive"),
    ("simulate", ["--N", "2", "--paths", "0"], "need at least one path and one agent"),
    ("converge", ["--N-list", "2,3", "--reps", "0"], "need at least one path and one agent"),
    ("converge", ["--N-list", "2,0", "--reps", "2"], "population size must be a positive"),
    ("gap", ["--N-list", "2", "--paths", "0"], "need at least one path and one agent"),
    ("gap", ["--N-list", "0", "--paths", "2"], "population size must be a positive"),
    ("gap", ["--N-list", "2,65", "--paths", "2"], "refusing to materialize"),
    ("repro-sec7", ["--steps", "50", "--paths", "0"], "need at least one path and one agent"),
    ("repro-sec7", ["--steps", "50", "--reps", "0"], "need at least one path and one agent"),
    ("converge", ["--N-list", "2,3", "--reps", "1"], "a Monte Carlo study needs at least 2 paths"),
    ("gap", ["--N-list", "2,4,8", "--paths", "1"], "a Monte Carlo study needs at least 2 paths"),
    ("repro-sec7", ["--steps", "50", "--reps", "1"], "a Monte Carlo study needs at least 2 paths"),
    ("simulate", ["--N", "2", "--paths", "2", "--thin", "0"], "--thin must be a positive"),
    ("simulate", ["--N", "2", "--paths", "2", "--thin", "-3"], "--thin must be a positive"),
], ids=["simulate-N", "simulate-paths", "converge-reps", "converge-N-list", "gap-paths",
        "gap-N-list", "gap-stacked-N", "repro-sec7-paths", "repro-sec7-reps", "converge-one-rep",
        "gap-one-path", "repro-sec7-one-rep", "simulate-thin-0", "simulate-thin-negative"])
def test_bad_count_is_refused_before_anything_is_written(tmp_path, capsys, command, extra,
                                                          message):
    cfg = scalar_config(tmp_path)
    law_dir = tmp_path / "law"
    assert main(["solve", str(cfg), "--out", str(law_dir)]) == 0
    inputs = {"simulate": [str(cfg), "--law", str(law_dir)],
              "converge": [str(cfg), "--law", str(law_dir)],
              "gap": [str(cfg)], "repro-sec7": []}[command]
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([command, *inputs, *extra, "--seed", "1", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"validation failure: {message}")
    assert not out.exists()


def test_inconclusive_validation_escalates_then_is_numerical_failure(tmp_path, monkeypatch,
                                                                    capsys):
    # fd_tol = 0 leaves the first reading inconclusive; the re-measurement
    # at MAX_VALIDATION_PATHS then fails the zero threshold
    monkeypatch.setitem(riccati.solve_oracle.__kwdefaults__, "fd_tol", 0.0)
    monkeypatch.setattr(riccati, "MAX_VALIDATION_PATHS", 2048)
    cfg = scalar_config(tmp_path)
    assert main(["gap", str(cfg), "--N-list", "2", "--paths", "20", "--seed", "5",
                 "--out", str(tmp_path / "gap")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: oracle failed stationarity: ") and "2048 paths" in err


def test_law_round_trip(tmp_path):
    cfg = small_config(tmp_path)
    law_dir = tmp_path / "law"
    assert main(["solve", str(cfg), "--out", str(law_dir)]) == 0
    law, xhat, _ = load_law(law_dir)
    from mflqg.consistency import solve_cc

    sol, law0 = solve_cc(load_config(cfg))
    assert np.array_equal(law.Theta1.values, law0.Theta1.values)
    assert np.array_equal(law.Theta2.values, law0.Theta2.values)
    assert np.array_equal(xhat.values, sol.xhat.values)


@pytest.mark.parametrize("kind", ["file", "under-a-file", "dangling-link"])
def test_out_that_is_a_file_is_refused_before_any_computation(tmp_path, capsys, monkeypatch,
                                                               kind):
    # every command that writes a run directory refuses it before it loads
    # a law or solves, and leaves the file as it was; mkdir fails on a
    # dangling link as on a file
    cfg = scalar_config(tmp_path)
    law_dir = tmp_path / "law"
    assert main(["solve", str(cfg), "--out", str(law_dir)]) == 0

    def no_solve(*args, **kwargs):
        raise AssertionError("solve_cc called")

    monkeypatch.setattr(cli, "solve_cc", no_solve)
    monkeypatch.setattr(analysis, "solve_cc", no_solve)
    blocker = tmp_path / "taken"
    if kind == "dangling-link":
        blocker.symlink_to(tmp_path / "nowhere")
    else:
        blocker.write_bytes(b"not a directory\n")
    out = blocker / "run" if kind == "under-a-file" else blocker
    runs = {"solve": [str(cfg)],
            "simulate": [str(cfg), "--law", str(law_dir), "--N", "2", "--paths", "2",
                         "--seed", "1"],
            "converge": [str(cfg), "--law", str(law_dir), "--N-list", "2,3", "--reps", "2",
                         "--seed", "1"],
            "gap": [str(cfg), "--N-list", "2", "--paths", "2", "--seed", "1"],
            "repro-sec7": ["--steps", "50"]}
    capsys.readouterr()
    for command, extra in runs.items():
        assert main([command, *extra, "--out", str(out)]) == 1, command
        err = capsys.readouterr().err
        assert err == (f"validation failure: --out {out}: {blocker} exists and is not a "
                       "directory\n"), command
        if kind == "dangling-link":
            assert blocker.readlink() == tmp_path / "nowhere", command
        else:
            assert blocker.read_bytes() == b"not a directory\n", command


@pytest.mark.parametrize("args, message", [
    (["gap", str(CONFIG), "--N-list", "2", "--paths", "x", "--seed", "1", "--out", "o"],
     "argument --paths: invalid int value: 'x'"),
    (["gap", str(CONFIG), "--N-list", "2", "--paths", "2", "--seed", "1"],
     "the following arguments are required: --out"),
    (["simulate", str(CONFIG), "--law", "l", "--N", "2.5", "--paths", "2", "--seed", "1",
      "--out", "o"], "argument --N: invalid int value: '2.5'"),
    ([], "the following arguments are required: command"),
    (["nonsense"], "argument command: invalid choice"),
], ids=["bad-int", "missing-out", "fractional-N", "no-command", "unknown-command"])
def test_usage_error_is_validation_failure(capsys, args, message):
    # exit code 2 is a numerical failure; a usage error is a bad run setting
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: mflqg")
    assert "validation failure: mflqg" in err and message in err
    assert "Traceback" not in err


def test_help_still_exits_zero(capsys):
    for args in (["--help"], ["gap", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: mflqg")


def test_seed_at_the_top_of_the_key_range_runs_every_study(tmp_path, capsys):
    # each study seeds its per-N banks (seed + N) mod 2**64, so the largest
    # seed a bank takes is usable, not refused after the solve
    cfg = scalar_config(tmp_path)
    law_dir = tmp_path / "law"
    assert main(["solve", str(cfg), "--out", str(law_dir)]) == 0
    runs = {"converge": [str(cfg), "--law", str(law_dir), "--N-list", "2,3", "--reps", "2"],
            "gap": [str(cfg), "--N-list", "2", "--paths", "10"],
            "repro-sec7": ["--steps", "100", "--N", "2", "--reps", "2", "--n-list", "2,3"]}
    for command, extra in runs.items():
        out = tmp_path / command
        assert main([command, *extra, "--seed", str(2**64 - 1), "--out", str(out)]) == 0, \
            capsys.readouterr().err
        assert json.loads((out / "manifest.json").read_text())["seed"] == 2**64 - 1
