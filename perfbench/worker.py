"""One benchmark workload in one fresh interpreter; prints one JSON line.

run.py starts this with the thread settings pinned and the checkout root as
the working directory.  ``--setup-only`` stops after set-up, so run.py can
time set-up in several fresh processes.  Otherwise the workload runs as a
closed loop of rounds for about ``--seconds``: each round calls the package's
public functions with inputs derived from the workload seed, and the next
round starts when the previous one returns.  The number of rounds is fixed by
``--seconds`` and the workload, not by the clock, so the same seed and
``--seconds`` give the same operations and the same failures on a slow host
as on a fast one.  The workload's reference kernel (calibrate.py) is timed
between ops, to rescale each op's time to the kernel's nominal speed.

With ``--trace 1`` every round is run twice on the same inputs, first
untraced and then with the library's stages wrapped in spans, and the two
output digests must agree.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import functools  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from unittest import mock  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from mflqg import analysis, cli, consistency, convexity, montecarlo, riccati  # noqa: E402
from mflqg.errors import MFLQGError  # noqa: E402
from mflqg.model import AugmentedCoeffs, load_config  # noqa: E402
from mflqg.montecarlo import NoiseBank  # noqa: E402

import checks  # noqa: E402
import calibrate  # noqa: E402
from spans import Tracer  # noqa: E402

WORKLOADS = ("synth-repro", "gap-scalar")
REPRO_CONFIG = ROOT / "configs" / "repro2d.json"
GAP_SCALAR_CONFIG = HERE / "gap_scalar.json"
REFERENCE = HERE / "reference" / "repro2d_law.npz"

LAMBDA_N = (10, 100, 1000)
GAP_N = (2, 4, 8)
# Monte Carlo paths per N in a gap study.
SIZES = {"full": {"paths": 200}, "smoke": {"paths": 20}}
# Typical round time on a 2-vCPU Xeon VM (2.0 GHz).  A run makes
# round(--seconds / this) rounds, at least one; a traced run makes half as
# many, since it runs each round twice.
NOMINAL_ROUND_S = {"synth-repro": 3.0, "gap-scalar": 5.6}
# The calibrate.py kernel that does the kind of work each workload's ops do.
KERNEL = {"synth-repro": "rk4", "gap-scalar": "em"}


def per_layer_units() -> dict:
    """Every per-layer metric the traced run emits, with its unit, as BENCHMARK.json lists them."""
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer"]}


def planned_rounds(workload: str, seconds: float, trace: int) -> int:
    n = max(1, round(seconds / NOMINAL_ROUND_S[workload]))
    return max(1, n // 2) if trace else n


def round_seed(seed: int, r: int) -> int:
    return int(np.random.SeedSequence([seed, r]).generate_state(1)[0])


def sha256_files(*paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# tracing: the library's own pipelines, with their stages wrapped in spans
# ---------------------------------------------------------------------------

def traced(tr, name, fn, n_of=None):
    """fn inside a span; n_of maps the call's arguments to the span's N."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tr.span(name, n_of(*args, **kwargs) if n_of else None):
            return fn(*args, **kwargs)
    return wrapper


def _n_arg(params, law, N, *args, **kwargs):
    return N


def _aug_n(aug, *args, **kwargs):
    return aug.N


# (module, attribute, span name, N of the call).  solve_cc, gap_study and
# solve_oracle look these names up in their own modules at call
# time, so patching them there times the program's code, not a copy of it.
SOLVE_STAGES = [
    (cli, "load_config", "model.load_config", None),
    (cli, "solve_cc", "consistency.solve_cc", None),
    (consistency, "solve_P", "riccati.solve_P", None),
    (consistency, "build_cc", "consistency.build_cc", None),
    (consistency, "solve_K", "consistency.solve_K", None),
    (consistency, "solve_kappa", "consistency.solve_kappa", None),
    (consistency, "check_condition_37", "consistency.cond37", None),
    (consistency, "extract_mean_fields", "consistency.extract", None),
    (consistency, "theta1", "riccati.gains", None),
    (consistency, "theta2", "riccati.gains", None),
    (consistency, "solve_phi", "riccati.solve_phi", None),
]
GAP_STAGES = [
    (analysis, "simulate_decentralized", "montecarlo.simulate_dec", _n_arg),
    (analysis, "solve_oracle", "riccati.solve_oracle", _aug_n),
    (riccati, "_validate_stationarity", "riccati.oracle_validation", _aug_n),
    (analysis, "simulate_centralized", "montecarlo.simulate_cen", _aug_n),
]


def stages_traced(tr, stages) -> contextlib.ExitStack:
    """Patch every stage with its traced wrapper until the stack closes."""
    stack = contextlib.ExitStack()
    for module, attr, name, n_of in stages:
        stack.enter_context(mock.patch.object(
            module, attr, traced(tr, name, getattr(module, attr), n_of)))
    return stack


@contextlib.contextmanager
def draws_recorded(draws: dict, tr=None):
    """Record the paths of every noise bank materialized inside, by agent count.

    Only the oracle's stationarity validation materializes a bank, so this
    counts the paths it drew, the re-measurement at 16384 paths included,
    even when the validation then raises.  Traced, each materialization is
    also a span.
    """
    materialize = NoiseBank.materialized

    def recorded(bank):
        draws.setdefault(bank.n_agents, []).append(bank.n_paths)
        return materialize(bank)

    if tr is not None:
        recorded = traced(tr, "montecarlo.materialize", recorded)
    with mock.patch.object(NoiseBank, "materialized", recorded):
        yield


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def solve_op(ctx, tr):
    """`mflqg solve <config> --out <dir>`: load, solve_cc, write law.json and solution.csv."""
    args = cli.build_parser().parse_args(["solve", str(ctx["config"]), "--out", str(ctx["law_dir"])])
    with contextlib.redirect_stdout(io.StringIO()):
        if tr is None:
            args.fn(args)
            return
        # cli.write_law's self time is everything cmd_solve does besides
        # loading the config and solving: stashing the config and writing
        # law.json, solution.csv, diagnostics.json and manifest.json.
        with tr.span("cli.write_law"), stages_traced(tr, SOLVE_STAGES):
            args.fn(args)


def solve_outputs(ctx) -> tuple[str, list[str]]:
    """Digest of the solve artifacts, and the checks on them.

    The law checks apply to the repro instance, which has a stored reference;
    the gap instance only carries its diagnostics into the result.
    """
    d = ctx["law_dir"]
    digest = sha256_files(d / "law.json", d / "solution.csv", d / "diagnostics.json")
    ctx["diagnostics"] = json.loads((d / "diagnostics.json").read_text())
    if ctx["reference"] is None:
        return digest, []
    doc = json.loads((d / "law.json").read_text())
    law = {name: np.asarray(doc[name]["samples"]) for name in checks.LAW_FIELDS}
    return digest, checks.check_diagnostics(ctx["diagnostics"]) + checks.check_law(law, ctx["reference"])


def certify_op(ctx, law, tr):
    params = ctx["params"]
    if tr is None:
        verdicts = convexity.report_all(params)
        lam = analysis.lambda_boundedness(params, law, LAMBDA_N)
    else:
        with tr.span("convexity.report_all"):
            verdicts = convexity.report_all(params)
        with tr.span("analysis.lambda"):
            lam = analysis.lambda_boundedness(params, law, LAMBDA_N)
    statuses = {k: v.status for k, v in verdicts.items()}
    return statuses, [p.sup1 for p in lam.pairs], [p.sup2 for p in lam.pairs], bool(lam.dominated)


def gap_op(ctx, N, seed_r, tr, draws: dict):
    params, law, paths = ctx["params"], ctx["law"], ctx["paths"]
    with draws_recorded(draws, tr), \
            stages_traced(tr, GAP_STAGES) if tr is not None else contextlib.nullcontext():
        return analysis.gap_study(params, [N], paths, seed_r, law=law,
                                  validate_oracle=True).rows[0]


# Replays run outside the timed operation and off its blocking path: they
# repeat one piece of work the operation does internally, to time it alone.

def replay_noise(tr, bank: NoiseBank):
    with tr.span("montecarlo.noise", bank.n_agents):
        for p in range(bank.n_paths):
            bank.increments(p)


def replay_assemble(tr, params, N: int, grid):
    """One AugmentedCoeffs.at sweep over every evaluation time of a backward RK4 pass."""
    aug = AugmentedCoeffs(params, N)
    h = -grid.dt
    with tr.span("model.assemble", N):
        for k in range(grid.steps, 0, -1):
            t = grid.nodes[k]
            aug.at(t)
            aug.at(t + 0.5 * h)
            aug.at(t + 0.5 * h)
            aug.at(t + h)


def noise_bytes_in_flight(paths: int, N: int, steps: int) -> int:
    """Computed, not measured: noise scalars of the chunks that run at once, in bytes."""
    sizes = sorted((len(c) for c in montecarlo._chunks(paths, N * steps)), reverse=True)
    return sum(sizes[:montecarlo.worker_count()]) * N * steps * 8


# ---------------------------------------------------------------------------
# set-up and rounds
# ---------------------------------------------------------------------------

def setup(workload: str, work: Path, size: str, tr) -> dict:
    """Config load or instance build, plus the law solve the workload needs."""
    ctx = {"workload": workload, "law_dir": work / "law", "failures": [],
           "reference": None, **SIZES[size]}
    if workload == "synth-repro":
        ctx["reference"] = np.load(REFERENCE, allow_pickle=False)
        ctx["config"] = REPRO_CONFIG
        ctx["params"] = load_config(REPRO_CONFIG) if tr is None else \
            traced(tr, "model.load_config", load_config)(REPRO_CONFIG)
        return ctx
    ctx["config"] = GAP_SCALAR_CONFIG
    if tr is None:
        solve_op(ctx, None)
    else:
        with tr.span("op.solve"):
            solve_op(ctx, tr)
    _, ctx["failures"] = solve_outputs(ctx)
    ctx["law"] = cli.load_law(ctx["law_dir"])[0]
    ctx["params"] = load_config(ctx["config"])
    return ctx


def attempt(ctx: dict, rnd: dict, kind: str, N, fn, tr):
    """Run one operation, timing it; an MFLQGError fails the op and the loop goes on.

    The reference kernel is timed after every op, so each op has a kernel
    time on either side; their mean is the op's ``ref_s``.
    """
    op = {"kind": kind, "N": N, "seconds": None, "ref_s": None, "error": None, "check": []}
    rnd["ops"].append(op)
    if tr is not None:
        tr.op = f"r{rnd['round']}/{kind}" + (f"/N{N}" if N else "")
    t = time.perf_counter()
    try:
        if tr is None:
            out = fn()
        else:
            with tr.span(f"op.{kind}", N):
                out = fn()
    except MFLQGError as exc:
        out = None
        op["error"] = f"{type(exc).__name__}: {exc}"
    op["seconds"] = time.perf_counter() - t
    if tr is not None:
        tr.op = None
    before = ctx.get("last_ref_s") or calibrate.time_kernel(KERNEL[ctx["workload"]])
    ctx["last_ref_s"] = calibrate.time_kernel(KERNEL[ctx["workload"]])
    op["ref_s"] = 0.5 * (before + ctx["last_ref_s"])
    return op, out


def fail_check(rnd: dict, op: dict, msgs: list[str]):
    if msgs:
        op["check"] += msgs
        for m in msgs:
            print(f"CHECK FAILED [{rnd['label']} {op['kind']}"
                  + (f" N={op['N']}" if op["N"] else "") + f"]: {m}", file=sys.stderr)


def run_round(ctx: dict, r: int, seed_r: int, tr) -> dict:
    wl = ctx["workload"]
    rnd = {"round": r, "seed": seed_r, "traced": tr is not None, "ops": [],
           "agent_steps": 0, "noise_bytes": 0, "validation_draws": {},
           "label": f"{wl} round {r}" + (" traced" if tr is not None else "")}
    parts = []
    if wl == "synth-repro":
        op, _ = attempt(ctx, rnd, "solve", None, lambda: solve_op(ctx, tr), tr)
        if op["error"] is None:
            digest, fails = solve_outputs(ctx)
            fail_check(rnd, op, fails)
            parts.append(digest)
            law = cli.load_law(ctx["law_dir"])[0]
            op, out = attempt(ctx, rnd, "certify", None, lambda: certify_op(ctx, law, tr), tr)
            if out is not None:
                statuses, sup1, sup2, dominated = out
                fail_check(rnd, op, checks.check_certify(statuses, sup1, sup2, dominated,
                                                         ctx["reference"]))
                parts.append(repr(out))
    else:
        grid, paths = ctx["law"].grid, ctx["paths"]
        for N in GAP_N:
            op, row = attempt(ctx, rnd, "gap", N,
                              lambda: gap_op(ctx, N, seed_r, tr, rnd["validation_draws"]), tr)
            parts.append(repr(row) if row is not None else op["error"])
            rnd.setdefault("rows", []).append(row)
            # the stationarity check runs 11 centralized simulations on each
            # bank it materializes; the gap itself two more, if the oracle passed
            drawn = rnd["validation_draws"].get(N, [])
            sims = 11 * sum(drawn) + (2 * paths if row is not None else 0)
            rnd["agent_steps"] += sims * N * grid.steps
            rnd["noise_bytes"] = max(rnd["noise_bytes"],
                                     noise_bytes_in_flight(paths, N, grid.steps),
                                     max(drawn, default=0) * N * grid.steps * 8)
            if row is not None:
                fail_check(rnd, op, checks.check_gap_row(row))
            if tr is not None:
                replay_noise(tr, NoiseBank(seed=seed_r + N, n_paths=paths, n_agents=N, grid=grid))
                replay_assemble(tr, ctx["params"], N, grid)
    rnd["digest"] = hashlib.sha256("\n".join(parts).encode()).hexdigest()
    rnd["seconds"] = sum(op["seconds"] for op in rnd["ops"])
    nominal = calibrate.nominal(KERNEL[wl])
    rnd["norm_seconds"] = sum(op["seconds"] * nominal / op["ref_s"] for op in rnd["ops"])
    return rnd


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def summarize(samples: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it."""
    out = {"median": statistics.median(samples), "n": len(samples), "tail": None}
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if len(samples) * (1.0 - p / 100.0) >= 10:
            q = statistics.quantiles(samples, n=1000, method="inclusive")
            out["tail"] = {"p": p, "value": q[int(round(p * 10)) - 1]}
            break
    return out


def layer_totals(tr: Tracer) -> dict:
    """Self time per metric name, summed over the tracer's spans."""
    tot = {}
    for rec, s in zip(tr.spans, tr.self_times()):
        key = rec["name"] + "_s" + (f".N{rec['N']}" if rec["N"] else "")
        tot[key] = tot.get(key, 0.0) + s
    return tot


def coverage(tr: Tracer, units: dict) -> list[float]:
    """Share of each traced solve op's wall time that named stage spans cover."""
    selfs = tr.self_times()
    out = []
    for i, rec in enumerate(tr.spans):
        if rec["name"] != "op.solve":
            continue
        covered, stack = 0.0, [i]
        while stack:
            j = stack.pop()
            kids = [k for k, c in enumerate(tr.spans) if c["parent"] == j]
            stack += kids
            if tr.spans[j]["name"] + "_s" in units:
                covered += selfs[j]
        out.append(100.0 * covered / (rec["end"] - rec["start"]))
    return out


def per_layer(setup_tr: Tracer, round_trs: list, rounds: list, traced_rounds: list) -> dict:
    units = per_layer_units()
    totals = [layer_totals(tr) for tr in round_trs]
    setup_totals = layer_totals(setup_tr)
    vals = {}
    for key in units:
        seen = [t[key] for t in totals if key in t]
        vals[key] = statistics.median(seen) if seen else setup_totals.get(key, 0.0)
    for N in GAP_N:
        if vals[f"montecarlo.simulate_dec_s.N{N}"] > 0.0:
            vals[f"montecarlo.step_loop_s.N{N}"] = (vals[f"montecarlo.simulate_dec_s.N{N}"]
                                                   - vals[f"montecarlo.noise_s.N{N}"])
    for N in GAP_N:
        vals[f"riccati.validation_paths.N{N}"] = float(max(
            max(r["validation_draws"].get(N, [0])) for r in traced_rounds))
    vals["montecarlo.agent_steps"] = float(statistics.median(r["agent_steps"] for r in traced_rounds))
    vals["montecarlo.noise_bytes"] = float(max(r["noise_bytes"] for r in traced_rounds))
    cov = [c for tr in [setup_tr] + round_trs for c in coverage(tr, units)]
    vals["trace.coverage_pct"] = statistics.median(cov) if cov else 0.0
    # rescaled round times, so that host drift between the two rounds cancels
    plain = statistics.median(r["norm_seconds"] for r in rounds)
    vals["trace.overhead_pct"] = 100.0 * (statistics.median(r["norm_seconds"] for r in traced_rounds)
                                          - plain) / plain
    return {k: {"value": v, "unit": units[k]} for k, v in vals.items()}


def named_metrics(workload: str, rounds: list) -> dict:
    """The workload's own end-to-end figures, each as median / tail / sample count."""
    ops = [op for r in rounds for op in r["ops"]]
    out = {}
    if workload == "synth-repro":
        for kind in ("solve", "certify"):
            samples = [op["seconds"] for op in ops if op["kind"] == kind and op["error"] is None]
            if samples:
                out[f"{kind}_s"] = {"unit": "s", **summarize(samples)}
    else:
        out["gap_s"] = {"unit": "s", **summarize([r["seconds"] for r in rounds])}
    return out


def blas_threads():
    """OpenBLAS's own thread count, read from the library numpy loaded, if it is found."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return int(getattr(lib, sym)())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "mflqg_worker_count": montecarlo.worker_count(),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "pinned": {k: os.environ.get(k) for k in ("MFLQG_THREADS", "OPENBLAS_NUM_THREADS",
                                                  "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--cap-seconds", type=float, default=0.0,
                    help="start no round after this long (0: no cap); the record marks the run truncated")
    ap.add_argument("--size", choices=tuple(SIZES), default="full")
    ap.add_argument("--work", required=True, help="scratch directory inside the checkout")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)

    setup_tr = Tracer() if args.trace else None
    if setup_tr is not None:
        setup_tr.op = "setup"
    ctx = setup(args.workload, work, args.size, setup_tr)
    setup_s = time.perf_counter() - T_START
    # Set-up is imports and RK4 solves, so the rk4 kernel rescales it on every
    # workload: one warm-up call in this fresh interpreter, then the median of three.
    calibrate.time_kernel("rk4")
    ref_s = statistics.median(calibrate.time_kernel("rk4") for _ in range(3))
    setup_times = {"setup_s": setup_s, "setup_norm_s": setup_s * calibrate.nominal("rk4") / ref_s}
    for m in ctx["failures"]:
        print(f"CHECK FAILED [{args.workload} setup]: {m}", file=sys.stderr)
    if args.setup_only:
        print(json.dumps(setup_times))
        return 0

    rounds, traced_rounds, round_trs = [], [], []
    planned = planned_rounds(args.workload, args.seconds, args.trace)
    t0 = time.perf_counter()
    for r in range(planned):
        if args.cap_seconds and time.perf_counter() - t0 > args.cap_seconds:
            print(f"perfbench: {args.workload} ran {r} of {planned} rounds: "
                  f"over {args.cap_seconds:g} s", file=sys.stderr)
            break
        seed_r = round_seed(args.seed, r)
        rounds.append(run_round(ctx, r, seed_r, None))
        if args.trace:
            tr = Tracer()
            round_trs.append(tr)
            traced_rounds.append(run_round(ctx, r, seed_r, tr))
            msgs = checks.check_digests(rounds[-1]["digest"], traced_rounds[-1]["digest"])
            for m in msgs:
                print(f"CHECK FAILED [{args.workload} round {r}]: {m}", file=sys.stderr)
            traced_rounds[-1]["digest_failures"] = msgs

    all_ops = [op for rnd in rounds + traced_rounds for op in rnd["ops"]]
    check_failures = ctx["failures"] + [m for op in all_ops for m in op["check"]] + \
        [m for rnd in traced_rounds for m in rnd["digest_failures"]]
    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "size": args.size,
        **setup_times,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "round_s": [rnd["seconds"] for rnd in rounds],
        "round_norm_s": [rnd["norm_seconds"] for rnd in rounds],
        "planned_rounds": planned, "truncated": len(rounds) < planned,
        "attempted": len(all_ops),
        "failed": sum(1 for op in all_ops if op["error"] or op["check"]),
        "errors": [f"{op['kind']} N={op['N']}: {op['error']}" for op in all_ops if op["error"]],
        "check_failures": check_failures,
        "correct": not check_failures,
        "named": named_metrics(args.workload, rounds),
        "setup_diagnostics": ctx.get("diagnostics"),
        "rounds": [{k: v for k, v in rnd.items() if k != "label"} for rnd in rounds + traced_rounds],
        "environment": environment(),
    }
    if args.trace:
        result["per_layer"] = per_layer(setup_tr, round_trs, rounds, traced_rounds)
        spans = {"setup": setup_tr.dump(), "rounds": [tr.dump() for tr in round_trs]}
        (work / "spans.json").write_text(json.dumps(spans))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
