"""The benchmark's own tests.  Run from the repository root:

    python3 -m pytest perfbench/test_perfbench.py

The smoke tests run every workload at tiny sizes (about a minute in all).
They assert that every metric BENCHMARK.json names is emitted with its unit,
and that every per-layer metric is measured on some workload.  The other tests
feed each correctness check a deliberately corrupted output, and check that a
failed oracle validation is still counted.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

import calibrate  # noqa: E402
import checks  # noqa: E402
from spans import Tracer  # noqa: E402

REFERENCE = np.load(HERE / "reference" / "repro2d_law.npz", allow_pickle=False)


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


WORKLOADS = [w["name"] for w in BENCH["workloads"]]
# A failed oracle validation skips that N's gap simulations, and at seed 3 the
# first round's N=2 validation fails (a known false alarm).  So the traced
# gap-scalar smoke run makes two rounds, for its N=2 spans to be measured.
SMOKE_SECONDS = {("gap-scalar", 1): 23}
_smoke_results = {}


def smoke(workload: str, trace: int) -> dict:
    """The last output line of a smoke run, run once per (workload, trace)."""
    if (workload, trace) not in _smoke_results:
        seconds = SMOKE_SECONDS.get((workload, trace), 1)
        proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", str(seconds),
                         "--trace", str(trace), "--size", "smoke")
        assert proc.returncode == 0, proc.stderr
        _smoke_results[workload, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    return _smoke_results[workload, trace]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_emits_every_metric_with_its_unit(workload, trace):
    last = smoke(workload, trace)
    assert set(last) == RESULT_KEYS
    assert last["attempted"] >= 1 and 0 <= last["failed"] <= last["attempted"]
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {k: m["unit"] for k, m in last["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], float) for m in last["metrics"].values())


def test_every_per_layer_metric_is_measured_on_some_workload():
    unmeasured = {m["name"] for m in BENCH["per_layer"]}
    for workload in WORKLOADS:
        metrics = smoke(workload, 1)["metrics"]
        unmeasured -= {k for k, m in metrics.items() if m["value"] != 0.0}
    assert not unmeasured


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench(tmp_path, "--workload", "synth-repro", "--seed", "1", "--seconds", "1",
                     "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _reference_law():
    return {name: REFERENCE[name].copy() for name in checks.LAW_FIELDS}


@pytest.mark.parametrize("field", checks.LAW_FIELDS)
def test_law_check_fires_on_a_1e6_perturbation(field):
    law = _reference_law()
    assert checks.check_law(law, REFERENCE) == []
    law[field].flat[law[field].size // 2] += 1e-6
    assert any(f"law {field}" in m for m in checks.check_law(law, REFERENCE))


def test_diagnostics_check_fires():
    good = {"phi_cross_max_err": 1e-9, "condition37": {"holds": True, "determinant": 0.5}}
    assert checks.check_diagnostics(good) == []
    assert checks.check_diagnostics({**good, "phi_cross_max_err": 2e-6})
    assert checks.check_diagnostics({**good, "condition37": {"holds": False, "determinant": 0.0}})


def test_certify_check_fires():
    statuses = dict(zip(REFERENCE["certify_names"].tolist(), REFERENCE["certify_status"].tolist()))
    sup1, sup2 = REFERENCE["lambda_sup1"], REFERENCE["lambda_sup2"]
    assert checks.check_certify(statuses, sup1, sup2, True, REFERENCE) == []
    assert checks.check_certify({k: "flipped" for k in statuses}, sup1, sup2, True, REFERENCE)
    assert checks.check_certify(statuses, sup1 * (1 + 1e-6), sup2, True, REFERENCE)
    assert checks.check_certify(statuses, sup1, sup2, False, REFERENCE)


def test_gap_check_fires():
    assert checks.check_gap_row((2, 1.0, 1.0, -0.9e-3, 0.5e-3)) == []
    assert checks.check_gap_row((2, 1.0, 1.0, -1.1e-3, 0.5e-3))


def test_digest_check_fires():
    assert checks.check_digests("ab" * 32, "ab" * 32) == []
    assert checks.check_digests("ab" * 32, "ac" * 32)


def test_solve_outputs_catch_a_perturbed_law_file(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.syspath_prepend(str(HERE))
    import worker

    ctx = {"config": worker.REPRO_CONFIG, "reference": REFERENCE}
    ctx["law_dir"] = tmp_path / "plain"
    worker.solve_op(ctx, None)
    plain, fails = worker.solve_outputs(ctx)
    assert fails == []
    ctx["law_dir"] = tmp_path / "traced"
    worker.solve_op(ctx, Tracer())
    traced, fails = worker.solve_outputs(ctx)
    assert fails == [] and checks.check_digests(plain, traced) == []

    law_file = ctx["law_dir"] / "law.json"
    doc = json.loads(law_file.read_text())
    doc["Theta1"]["samples"][500][0][0] += 1e-6
    law_file.write_text(json.dumps(doc))
    corrupted, fails = worker.solve_outputs(ctx)
    assert any("law Theta1" in m for m in fails)
    assert checks.check_digests(plain, corrupted)


def test_tracer_self_time_subtracts_children():
    tr = Tracer()
    with tr.span("outer"):
        with tr.span("inner", N=4):
            pass
    outer, inner = tr.spans
    selfs = tr.self_times()
    assert inner["parent"] == 0 and inner["N"] == 4
    assert selfs[1] == pytest.approx(inner["end"] - inner["start"])
    assert selfs[0] == pytest.approx((outer["end"] - outer["start"]) - selfs[1])


def test_a_failed_validation_escalation_is_counted(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.syspath_prepend(str(HERE))
    import worker
    from mflqg import riccati

    # With a zero tolerance any reading within 3 standard errors of zero is
    # inconclusive, so the validation re-measures with MAX_VALIDATION_PATHS
    # (lowered here to keep the test short) and then fails.
    monkeypatch.setitem(riccati.solve_oracle.__kwdefaults__, "fd_tol", 0.0)
    monkeypatch.setattr(riccati, "MAX_VALIDATION_PATHS", 2048)
    monkeypatch.setattr(worker, "GAP_N", (2,))
    ctx = worker.setup("gap-scalar", tmp_path, "smoke", None)
    steps = ctx["law"].grid.steps
    for tr in (None, Tracer()):
        rnd = worker.run_round(ctx, 0, 11, tr)
        (op,) = rnd["ops"]
        assert op["error"].startswith("StationarityError")
        assert rnd["validation_draws"] == {2: [1024, 2048]}
        assert rnd["agent_steps"] == 11 * (1024 + 2048) * 2 * steps
        assert rnd["noise_bytes"] >= 2048 * 2 * steps * 8
    names = [s["name"] for s in tr.spans]
    assert names.count("montecarlo.materialize") == 2
    assert "riccati.oracle_validation" in names


def test_round_count_is_fixed_by_seconds_and_workload(monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.syspath_prepend(str(HERE))
    import worker

    for workload, nominal in worker.NOMINAL_ROUND_S.items():
        assert worker.planned_rounds(workload, 30, 0) == max(1, round(30 / nominal))
        assert worker.planned_rounds(workload, 30, 1) == max(1, round(30 / nominal) // 2)
        assert worker.planned_rounds(workload, 1, 0) == 1


EM_KERNEL_SUM = 158526.02286897512


def test_reference_kernels_are_unchanged():
    # The kernels define the unit of the rescaled metrics; their results pin their work.
    want = [[1.0893063511752357, 0.05424936344469345],
            [0.05424936344469345, 1.0611063543358874]]
    assert np.allclose(calibrate.rk4_kernel(), want, rtol=1e-12, atol=0.0)
    assert calibrate.em_kernel().sum() == pytest.approx(EM_KERNEL_SUM, rel=1e-12)
    assert {k: v[1] for k, v in calibrate.KERNELS.items()} == {"rk4": 0.055, "em": 0.05}


def test_round_norm_rescales_each_op_by_its_kernel_time(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.syspath_prepend(str(HERE))
    import worker

    ctx = worker.setup("synth-repro", tmp_path, "smoke", None)
    kernel = iter([0.05, 0.11, 0.07])
    monkeypatch.setattr(worker.calibrate, "time_kernel", lambda name: next(kernel))
    rnd = worker.run_round(ctx, 0, 1, None)
    solve, certify = rnd["ops"]
    assert (solve["ref_s"], certify["ref_s"]) == pytest.approx((0.08, 0.09))
    assert rnd["norm_seconds"] == pytest.approx(
        solve["seconds"] * 0.055 / 0.08 + certify["seconds"] * 0.055 / 0.09)
