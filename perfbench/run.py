"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--size smoke]

Run from the root of an mflqg checkout.  The thread settings are pinned here,
before any worker imports numpy: one BLAS/OpenMP thread and
MFLQG_THREADS = min(2, nproc), so compute threads never exceed nproc.  The
workload runs in one fresh interpreter.  In untraced runs set-up is also timed
in SETUP_PROBES more, half before the workload and half after it, so the
median set-up time samples the whole run; see worker.py and README.md.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The full record (environment, per-op samples,
per-round digests) goes to .perfbench_out/, and a traced run also leaves its
spans there.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
WORKLOADS = ("synth-repro", "gap-scalar")
SETUP_PROBES = {"full": 4, "smoke": 0}
# The worker runs a fixed number of rounds, sized to take about --seconds,
# and starts none after CAP_FACTOR x --seconds, so a slow host still ends in
# time.  The deadline adds an allowance per interpreter for set-up and slack
# for the round in flight at the cap.
CAP_FACTOR = 1.5
SETUP_ALLOWANCE_S = 10.0
ROUND_SLACK_S = 30.0
OUT_DIR = ".perfbench_out"


def fail(msg: str, code: int = 2) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return code


def git_commit(root: Path) -> str:
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        if top.returncode == 0 and Path(top.stdout.strip()).resolve() == root.resolve():
            head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                  capture_output=True, text=True, timeout=10)
            if head.returncode == 0:
                return head.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown (not a git checkout)"


def call_worker(argv: list[str], root: Path, env: dict, deadline: float) -> dict:
    """Run worker.py to completion and parse its last output line."""
    proc = subprocess.run([sys.executable, str(WORKER), *argv], cwd=root, env=env,
                          stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def fmt_summary(name: str, m: dict) -> str:
    tail = (f"p{m['tail']['p']:g} {m['tail']['value']:.6g}" if m["tail"]
            else "no percentile has >= 10 samples beyond it")
    return f"  {name:<22} {m['median']:.6g} {m['unit']}  median of n={m['n']}; {tail}"


def report(rec: dict, setups: list[dict], commit: str) -> dict:
    """Print the human-readable block and return the metrics of the last line."""
    env = rec["environment"]
    print(f"perfbench {rec['workload']} seed={rec['seed']} trace={rec['trace']} "
          f"size={rec['size']} rounds={len(rec['round_s'])}")
    print(f"  environment: nproc={env['nproc']} mflqg_workers={env['mflqg_worker_count']} "
          f"blas={env['blas']} blas_threads={env['blas_threads']} pinned={env['pinned']} "
          f"python={env['python']} numpy={env['numpy']} commit={commit}")
    rate = rec["failed"] / rec["attempted"]
    print(f"  {'fail_rate':<22} {rate:.6g}  ({rec['failed']} failed of {rec['attempted']} attempted)")
    for line in rec["errors"]:
        print(f"  error: {line}")
    for line in rec["check_failures"]:
        print(f"  check failed: {line}")
    if rec["trace"]:
        for name, m in rec["per_layer"].items():
            print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
        return rec["per_layer"]
    def median_of(samples):
        return {"median": statistics.median(samples), "n": len(samples), "unit": "s", "tail": None}

    setup = median_of([t["setup_norm_s"] for t in setups])
    norm = median_of(rec["round_norm_s"])
    print(fmt_summary("setup_s (rescaled)", setup))
    print(fmt_summary("setup wall", median_of([t["setup_s"] for t in setups])))
    print(fmt_summary("round_norm_s", norm))
    print(fmt_summary("round wall", median_of(rec["round_s"])))
    for name, m in rec["named"].items():
        print(fmt_summary(name, m))
    print(f"  {'peak_rss_mb':<22} {rec['peak_rss_mb']:.6g} MB")
    return {
        "setup_s": {"value": setup["median"], "unit": "s"},
        "round_norm_s": {"value": norm["median"], "unit": "s"},
        "peak_rss_mb": {"value": rec["peak_rss_mb"], "unit": "MB"},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=tuple(SETUP_PROBES), default="full",
                    help="smoke: tiny Monte Carlo sizes and one set-up, for the benchmark's tests")
    args = ap.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "mflqg" / "__init__.py").is_file() \
            or not (root / "configs" / "repro2d.json").is_file():
        return fail("run from the root of an mflqg checkout: "
                    "src/mflqg/ and configs/repro2d.json not found")
    if args.seconds < 1:
        return fail("--seconds must be at least 1")
    probes = 0 if args.trace else SETUP_PROBES[args.size]
    budget_s = (probes + 1) * SETUP_ALLOWANCE_S + CAP_FACTOR * args.seconds + ROUND_SLACK_S
    deadline = time.monotonic() + budget_s

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               MFLQG_THREADS=str(min(2, nproc)), PYTHONDONTWRITEBYTECODE="1")
    out = root / OUT_DIR
    work = out / f"work-{os.getpid()}"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    common = ["--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
              "--work", str(work)]

    def probe() -> float:
        return call_worker(common + ["--setup-only"], root, env, deadline)

    try:
        setups = [probe() for _ in range(probes // 2)]
        rec = call_worker(common + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                                    "--cap-seconds", str(CAP_FACTOR * args.seconds)],
                          root, env, deadline)
        if args.trace:
            (work / "spans.json").replace(out / f"spans-{tag}.json")
        setups += [{k: rec[k] for k in ("setup_s", "setup_norm_s")}]
        setups += [probe() for _ in range(probes - probes // 2)]
    except subprocess.TimeoutExpired:
        return fail(f"worker did not finish within {budget_s:g} s", 3)
    except (RuntimeError, ValueError, IndexError, KeyError) as exc:
        return fail(f"no result: {exc}", 3)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    commit = git_commit(root)
    metrics = report(rec, setups, commit)
    rec.update({"setup_samples": setups, "commit": commit, "metrics": metrics})
    (out / f"result-{tag}.json").write_text(json.dumps(rec, indent=1))
    print(json.dumps({"correct": rec["correct"], "attempted": rec["attempted"],
                      "failed": rec["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
