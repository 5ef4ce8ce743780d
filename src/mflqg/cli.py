"""Command-line pipeline: validation, convexity certificates, the
consistency-condition solve, Monte Carlo simulation, and the convergence and
optimality-gap experiments.

A run writes its output directory once, after its last computation: a copy
of the config, its artifacts, and a manifest.json last, so a refused
setting or a numerical failure leaves no directory.  CSV payloads are
byte-identical across reruns with the same inputs and any MFLQG_THREADS
setting (floats are printed with 17 significant digits, newlines are always
LF).  All JSON text, artifacts and convexity verdicts alike, is written by
``model.json_text`` (a non-finite witness as null), and every input file
(config, law, --dq/--dg shift) is read through ``model.read_json`` and
``model.read_field``, so a refusal names the file and the field.  Exit codes:
0 success, 1 validation failure (a usage error, and an --out that is an
existing file or lies under one, among them; both are refused before any
computation), 2 numerical failure (stage named on stderr).
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (check_study_counts, convergence_study, gap_study, lambda_boundedness,
                       sup_sq_errors)
from .consistency import solve_cc
from .convexity import report_all
from .errors import ConfigError, GridMismatchError, MFLQGError, RegularityLostError, SettingError
from .model import (TIME_VARYING, ModelParams, check_population_size, integral, json_text,
                    load_config, parse_config, read_field, read_json, real, samples,
                    save_config, validate, write_json)
from .ode import TimeGrid, Trajectory
from .presets import repro_instance
from .riccati import FeedbackLaw
from .montecarlo import NoiseBank, simulate_decentralized


CSV_BLOCK_ROWS = 4096


def write_csv(path: Path, header: list[str], columns) -> Path:
    """A CSV file of ``columns``, each a string (the same cell in every row)
    or an array of one column (rows,) or of several (rows, k).

    Array entries are printed as "%.17g", which prints an integer up to
    2**53 as str does.  Blocks of CSV_BLOCK_ROWS rows are one format call
    each, on the row template repeated.
    """
    columns = [c if isinstance(c, str) else np.asarray(c) for c in columns]
    arrays = [c for c in columns if not isinstance(c, str)]
    row = ",".join(c.replace("%", "%%") if isinstance(c, str)
                   else ",".join(["%.17g"] * (1 if c.ndim == 1 else c.shape[1]))
                   for c in columns) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for a in range(0, len(arrays[0]), CSV_BLOCK_ROWS):
            block = np.column_stack([x[a:a + CSV_BLOCK_ROWS] for x in arrays])
            fh.write(row * len(block) % tuple(block.ravel().tolist()))
    return path


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_run(out, command: str, config_src, params: ModelParams, seed, grid: TimeGrid,
               t0: float, files: dict, extra: dict | None = None) -> None:
    """Write a finished run into the directory ``out``: a copy of the config
    (the file ``config_src``, or ``params`` saved when it is None), each of
    ``files`` (a name to a dict, written by write_json, or to a (header,
    columns) pair, written by write_csv), and manifest.json last.

    Every command calls it once, after its last computation, so a refused
    or failed run leaves no directory.
    """
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    cfg = out / "config.json"
    if config_src is None:
        save_config(params, cfg)
    else:
        cfg.write_bytes(Path(config_src).read_bytes())
    for name, doc in files.items():
        if isinstance(doc, dict):
            write_json(out / name, doc)
        else:
            write_csv(out / name, *doc)
    manifest = {
        "command": command,
        "config_sha256": sha256_of(cfg),
        "seed": seed,
        "grid": {"T": grid.T, "steps": grid.steps},
        "artifacts": sorted(files),
        "wall_time_s": round(time.time() - t0, 3),
        "version": __version__,
    }
    write_json(out / "manifest.json", {**manifest, **(extra or {})})


def _solution_files(params: ModelParams, sol, law: FeedbackLaw) -> dict:
    """law.json, solution.csv and diagnostics.json of a consistency-condition solve."""
    n, m, grid = params.n, params.m, law.grid
    law_doc = {"T": grid.T, "steps": grid.steps, "n": n, "m": m,
               "regularity_margin": law.regularity_margin}
    for name, traj in (("P", law.P), ("phi", law.phi), ("Theta1", law.Theta1),
                       ("Theta2", law.Theta2), ("xhat", sol.xhat)):
        law_doc[name] = {"samples": traj.values}
    header = (["t"] + [f"xhat_{i+1}" for i in range(n)]
              + [f"y1hat_{i+1}" for i in range(n)] + [f"y2hat_{i+1}" for i in range(n)]
              + [f"beta1hat_{i+1}" for i in range(n)] + [f"phi_{i+1}" for i in range(n)]
              + [f"Theta1_{i+1}{j+1}" for i in range(m) for j in range(n)]
              + [f"Theta2_{i+1}" for i in range(m)])
    columns = [grid.nodes, sol.xhat.values, sol.y1hat.values, sol.y2hat.values,
               sol.beta1hat.values, sol.phi.values,
               law.Theta1.values.reshape(grid.steps + 1, m * n), law.Theta2.values]
    return {"law.json": law_doc, "solution.csv": (header, columns),
            "diagnostics.json": sol.diagnostics}


def load_law(law_dir: Path, params: ModelParams | None = None
             ) -> tuple[FeedbackLaw, Trajectory, str]:
    """The law stored in ``law_dir``, its mean path xhat and the file's hash.

    Every trajectory must hold one sample per node, shaped by the law's own
    n and m; given ``params``, those must be the config's n and m, and every
    coefficient of the config must be readable on the law's grid.  A bad
    file, a law that FeedbackLaw refuses among them, raises ConfigError
    naming the file and the field.
    """
    path = Path(law_dir) / "law.json"
    doc = read_json(path)
    T, steps = read_field(path, doc, "T", real), read_field(path, doc, "steps", integral)
    try:
        grid = TimeGrid(T, steps)
    except ValueError as exc:
        raise ConfigError(f"{path}: fields 'T' and 'steps': {exc}") from None

    n, m = (read_field(path, doc, name, integral) for name in ("n", "m"))
    if params is not None:
        for name, have, want in (("n", n, params.n), ("m", m, params.m)):
            if have != want:
                raise ConfigError(f"{path}: field {name!r}: the law has {name} = {have}, "
                                  f"the config {want}")
        try:
            for name in TIME_VARYING:
                params.node_table(name, grid)
        except GridMismatchError as exc:
            raise ConfigError(f"{path}: fields 'T' and 'steps': {exc}") from None
    shapes = {"P": (n, n), "phi": (n,), "Theta1": (m, n), "Theta2": (m,), "xhat": (n,)}

    def trajectory(name):
        traj = read_field(path, doc, name, lambda raw: Trajectory(grid, samples(raw)))
        if traj.shape != shapes[name]:
            raise ConfigError(f"{path}: field {name!r}: samples of shape {traj.shape}, "
                              f"expected {shapes[name]} for n = {n}, m = {m}")
        return traj

    margin = read_field(path, doc, "regularity_margin", real)
    try:
        law = FeedbackLaw(grid=grid, P=trajectory("P"), phi=trajectory("phi"),
                          Theta1=trajectory("Theta1"), Theta2=trajectory("Theta2"),
                          regularity_margin=margin)
    except RegularityLostError as exc:   # the message names the field
        raise ConfigError(f"{path}: {exc}") from None
    xhat = trajectory("xhat")
    return law, xhat, sha256_of(path)


def _parse_int_list(text: str, flag: str) -> list[int]:
    """Comma-separated distinct integers of a list option, at least one;
    empty entries are skipped."""
    out = []
    for entry in text.split(","):
        if not entry:
            continue
        try:
            value = int(entry)
        except ValueError:
            raise SettingError(f"{flag}: entry {entry!r} is not an integer") from None
        if value in out:
            raise SettingError(f"{flag}: entry {entry!r} is repeated")
        out.append(value)
    if not out:
        raise SettingError(f"{flag}: no entries in {text!r}")
    return out


def _fitted(x: float) -> float | None:
    """A fitted coefficient or a witness, None (JSON null) when not finite."""
    return float(x) if np.isfinite(x) else None


def _verdict_doc(v) -> dict:
    return {"status": v.status, "criterion": v.criterion,
            "witness": {k: (val if isinstance(val, str) else _fitted(val))
                        for k, val in v.witness.items()}}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_validate(args) -> int:
    params = parse_config(args.config)
    report = validate(params)
    if report:
        for line in report:
            print(f"invalid: {line}", file=sys.stderr)
        return 1
    print("config admissible")
    return 0


def _read_shift(path) -> np.ndarray | None:
    """The --dq/--dg weight shift in the JSON file ``path``, None without one."""
    if path is None:
        return None
    return read_field(path, read_json(path), None, lambda raw: np.asarray(raw, dtype=float))


def cmd_convexity(args) -> int:
    params = load_config(args.config)
    dq, dg = _read_shift(args.dq), _read_shift(args.dg)
    try:
        verdicts = report_all(params, dq, dg)
    except ConfigError as exc:   # a refused shift, named "dQ: ..." or "dG: ..."
        raise ConfigError(f"{args.dq if str(exc).startswith('dQ:') else args.dg}: {exc}") from None
    print(json_text({k: _verdict_doc(v) for k, v in verdicts.items()}))
    return 0


def cmd_solve(args) -> int:
    t0 = time.time()
    params = load_config(args.config)
    sol, law = solve_cc(params)
    _write_run(args.out, "solve", args.config, params, None, law.grid, t0,
               _solution_files(params, sol, law))
    print(f"law written to {args.out}")
    return 0


def cmd_simulate(args) -> int:
    t0 = time.time()
    if args.thin < 1:
        raise SettingError(f"--thin must be a positive integer, got {args.thin}")
    params = load_config(args.config)
    law, _, law_hash = load_law(Path(args.law), params)
    check_population_size(args.N)
    noise = NoiseBank(seed=args.seed, n_paths=args.paths, n_agents=args.N, grid=law.grid)
    res = simulate_decentralized(params, law, args.N, noise)
    steps, n, P = law.grid.steps, params.n, res.n_paths
    keep = np.union1d(np.arange(0, steps + 1, args.thin), [steps])
    t = law.grid.nodes[keep]
    if res.xs is not None:
        # rows by path, then agent, then node
        columns = [np.repeat(np.arange(P), args.N * len(keep)),
                   np.tile(np.repeat(np.arange(args.N), len(keep)), P),
                   np.tile(t, P * args.N), res.xs[:, :, keep].reshape(-1, n)]
    else:
        columns = [np.repeat(np.arange(P), len(keep)), "avg", np.tile(t, P),
                   res.xavg[:, keep].reshape(-1, n)]
    keep_agents = min(args.N, 8)
    files = {
        "trajectories.csv": (["path", "agent", "t"] + [f"x_{i+1}" for i in range(n)], columns),
        "costs.csv": (["path", "J_soc"] + [f"J_{i+1}" for i in range(keep_agents)],
                      [np.arange(P), res.J_soc, res.J_i[:, :keep_agents]]),
    }
    _write_run(args.out, "simulate", args.config, params, args.seed, law.grid, t0, files,
               {"N": args.N, "paths": args.paths, "dt": law.grid.dt, "law_sha256": law_hash,
                "thin": args.thin})
    print(f"simulation written to {args.out}")
    return 0


def cmd_converge(args) -> int:
    t0 = time.time()
    N_list = _parse_int_list(args.N_list, "--N-list")
    params = load_config(args.config)
    law, xhat, law_hash = load_law(Path(args.law), params)
    table = convergence_study(params, law, xhat, N_list, args.reps, args.seed)
    files = {"convergence.csv": (["N", "replications", "estimate", "se"], [np.array(table.rows)]),
             "summary.json": {"slope": _fitted(table.slope),
                              "intercept": _fitted(table.intercept)}}
    _write_run(args.out, "converge", args.config, params, args.seed, law.grid, t0, files,
               {"law_sha256": law_hash, "replications": args.reps})
    print(f"slope {table.slope:.4f} written to {args.out}")
    return 0


def cmd_gap(args) -> int:
    t0 = time.time()
    N_list = _parse_int_list(args.N_list, "--N-list")
    params = load_config(args.config)
    table = gap_study(params, N_list, args.paths, args.seed)
    files = {
        "gap.csv": (["N", "J_dec_per_capita", "J_oracle_per_capita", "gap_per_capita", "se"],
                    [np.array(table.rows)]),
        "summary.json": {"oracle_dominates": all(g >= -2 * se for _, _, _, g, se in table.rows),
                         "warnings": table.warnings},
    }
    _write_run(args.out, "gap", args.config, params, args.seed, params.grid(), t0, files)
    print(f"gap table written to {args.out}")
    return 0


def cmd_repro(args) -> int:
    t0 = time.time()
    N_list = _parse_int_list(args.n_list, "--n-list")
    if args.steps < 2:
        raise SettingError(f"--steps: need at least 2 steps, got {args.steps}")
    params = repro_instance(steps=args.steps)
    # the seed and every count are refused before the solve
    noise = NoiseBank(seed=args.seed, n_paths=args.paths, n_agents=args.N, grid=params.grid())
    check_study_counts(args.reps, N_list)
    sol, law = solve_cc(params)
    res = simulate_decentralized(params, law, args.N, noise, store=False)
    table = convergence_study(params, law, sol.xhat, N_list, args.reps, args.seed)
    lam = lambda_boundedness(params, law, [10, 100, 1000])
    xavg_mean = res.xavg.mean(axis=0)
    summary = {
        "sup_norm_distance": float(np.max(np.abs(xavg_mean - sol.xhat.values))),
        "sup_sq_distance_mean": float(np.mean(sup_sq_errors(res.xavg, sol.xhat))),
        "convergence_slope": _fitted(table.slope),
        "convexity": {k: _verdict_doc(v) for k, v in report_all(params).items()},
        "lyapunov": {"dominated": lam.dominated, "uniform": lam.uniform,
                     "spread_lam1": lam.max_spread1, "spread_lam2": lam.max_spread2},
        "diagnostics": sol.diagnostics,
    }
    files = {
        **_solution_files(params, sol, law),
        "trajectories.csv": (["t", "xhat_1", "xhat_2", "xavg_1", "xavg_2"],
                             [law.grid.nodes, sol.xhat.values, xavg_mean]),
        "convergence.csv": (["N", "replications", "estimate", "se"], [np.array(table.rows)]),
        "summary.json": summary,
    }
    _write_run(args.out, "repro-sec7", None, params, args.seed, law.grid, t0, files,
               {"N": args.N, "paths": args.paths})
    print(f"reproduction written to {args.out}")
    return 0


class _Parser(argparse.ArgumentParser):
    """A parser (its subcommands' too) whose usage errors are validation
    failures: the usage line and the message on stderr, exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"validation failure: {self.prog}: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="mflqg", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a config against the model assumptions")
    p.add_argument("config")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("convexity", help="run the convexity certificates")
    p.add_argument("config")
    p.add_argument("--dq", default=None, help="JSON file with the dQ shift matrix")
    p.add_argument("--dg", default=None, help="JSON file with the dG shift matrix")
    p.set_defaults(fn=cmd_convexity)

    p = sub.add_parser("solve", help="solve the consistency condition and store the law")
    p.add_argument("config")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("simulate", help="Monte Carlo of the N-agent system under a stored law")
    p.add_argument("config")
    p.add_argument("--law", required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--paths", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--thin", type=int, default=1)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("converge", help="mean-field convergence study")
    p.add_argument("config")
    p.add_argument("--law", required=True)
    p.add_argument("--N-list", dest="N_list", required=True)
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_converge)

    p = sub.add_parser("gap", help="per-capita optimality gap against the oracle")
    p.add_argument("config")
    p.add_argument("--N-list", dest="N_list", required=True)
    p.add_argument("--paths", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gap)

    p = sub.add_parser("repro-sec7", help="bundled reference scenario: solve, simulate, converge")
    p.add_argument("--out", required=True)
    p.add_argument("--N", type=int, default=1000)
    p.add_argument("--paths", type=int, default=1)
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--reps", type=int, default=200)
    p.add_argument("--n-list", dest="n_list", default="50,100,200,400,800")
    p.add_argument("--steps", type=int, default=1000)
    p.set_defaults(fn=cmd_repro)
    return ap


def _check_out(out) -> None:
    """Refuse an --out that is an existing non-directory (a dangling link
    among them) or lies under one (SettingError), before any computation
    rather than in _write_run."""
    for path in (Path(out), *Path(out).parents):
        if (path.exists() or path.is_symlink()) and not path.is_dir():
            raise SettingError(f"--out {out}: {path} exists and is not a directory")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "out", None) is not None:
            _check_out(args.out)
        return args.fn(args)
    except ConfigError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 1
    except MFLQGError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
