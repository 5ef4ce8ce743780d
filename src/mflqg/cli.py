"""Command-line pipeline: validation, convexity certificates, the
consistency-condition solve, Monte Carlo simulation, and the convergence and
optimality-gap experiments.

Every run writes its artifacts plus a manifest.json into the output
directory; CSV payloads are byte-identical across reruns with the same
inputs and any MFLQG_THREADS setting (floats are printed with 17 significant
digits, newlines are always LF).  Exit codes: 0 success, 1 validation
failure, 2 numerical failure (stage named on stderr).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import convergence_study, gap_study, lambda_boundedness
from .consistency import solve_cc
from .convexity import (check_coupled_indefinite, check_decoupled_indefinite, is_coupled,
                        report_all)
from .errors import ConfigError, GridMismatchError, MFLQGError, NonFiniteError, SettingError
from .model import (TIME_VARYING, ModelParams, check_population_size, integral, load_config,
                    parse_config, real, save_config, validate)
from .ode import TimeGrid, Trajectory
from .presets import repro_instance
from .riccati import FeedbackLaw
from .montecarlo import NoiseBank, check_counts, check_seed, simulate_decentralized


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


def _array_template(shape: tuple, pad: str) -> str:
    """The indent-2 JSON text of a nested list of this shape, with a "%r"
    field per entry; ``pad`` is the indent of the line that opens it."""
    if not shape:
        return "%r"
    if shape[0] == 0:
        return "[]"
    inner = pad + "  "
    sep = ",\n" + inner
    return "[\n" + inner + sep.join([_array_template(shape[1:], inner)] * shape[0]) \
        + "\n" + pad + "]"


def _key_text(key) -> str:
    """A dict key as json writes it: a string, or an int, float, bool or None
    written as its JSON text inside quotes."""
    if not isinstance(key, str):
        if not (key is None or isinstance(key, (int, float))):
            raise TypeError(f"keys must be str, int, float, bool or None, "
                            f"not {type(key).__name__}")
        key = json.dumps(key, allow_nan=False)
    return json.dumps(key)


def _json_text(doc, pad: str) -> str:
    """``doc`` as json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    writes it at indent ``pad``; a float ndarray is written as its tolist().

    A float array is one %-format call: repr of a Python float is exactly
    json's float text.
    """
    inner = pad + "  "
    if isinstance(doc, dict):
        if not doc:
            return "{}"
        return "{\n" + ",\n".join(inner + _key_text(k) + ": " + _json_text(v, inner)
                                  for k, v in sorted(doc.items())) + "\n" + pad + "}"
    if isinstance(doc, (list, tuple)):
        if not doc:
            return "[]"
        return "[\n" + ",\n".join(inner + _json_text(v, inner) for v in doc) \
            + "\n" + pad + "]"
    if isinstance(doc, np.ndarray) and doc.dtype.kind == "f":
        if not np.isfinite(doc).all():
            raise ValueError("Out of range float values are not JSON compliant")
        return _array_template(doc.shape, pad) % tuple(doc.ravel().tolist())
    return json.dumps(doc, allow_nan=False)


def write_json(path: Path, doc: dict) -> Path:
    """Strict JSON with sorted keys and an indent of 2, the bytes of
    json.dump(doc, indent=2, sort_keys=True, allow_nan=False) plus a newline.

    Float ndarray leaves are written as their tolist().  A NaN or infinity
    raises ValueError before the file is opened.
    """
    text = _json_text(doc, "") + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return path


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(out: Path, command: str, config_path: Path, seed, grid: TimeGrid,
                    artifacts: list[Path], t0: float, extra: dict | None = None):
    doc = {
        "command": command,
        "config_sha256": sha256_of(config_path),
        "seed": seed,
        "grid": {"T": grid.T, "steps": grid.steps},
        "artifacts": sorted(p.name for p in artifacts),
        "wall_time_s": round(time.time() - t0, 3),
        "version": __version__,
    }
    if extra:
        doc.update(extra)
    write_json(out / "manifest.json", doc)


def _stash_config(src: Path | None, params: ModelParams, out: Path) -> Path:
    dest = out / "config.json"
    if src is not None:
        dest.write_bytes(Path(src).read_bytes())
    else:
        save_config(params, dest)
    return dest


def _samples(traj: Trajectory) -> dict:
    return {"samples": traj.values}


def save_law(law: FeedbackLaw, xhat: Trajectory, out: Path) -> Path:
    doc = {
        "T": law.grid.T,
        "steps": law.grid.steps,
        "n": law.P.shape[0],
        "m": law.Theta2.shape[0],
        "regularity_margin": law.regularity_margin,
        "P": _samples(law.P),
        "phi": _samples(law.phi),
        "Theta1": _samples(law.Theta1),
        "Theta2": _samples(law.Theta2),
        "xhat": _samples(xhat),
    }
    return write_json(out / "law.json", doc)


def _read_json(path):
    """The JSON document in ``path``; a missing or malformed file raises
    ConfigError naming it."""
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}: {exc.msg}") from exc


def load_law(law_dir: Path, params: ModelParams | None = None
             ) -> tuple[FeedbackLaw, Trajectory, str]:
    """The law stored in ``law_dir``, its mean path xhat and the file's hash.

    Every trajectory must hold one sample per node, shaped by the law's own
    n and m; given ``params``, those must be the config's n and m, and every
    coefficient of the config must be readable on the law's grid.  A bad
    file raises ConfigError naming the file and the field.
    """
    path = Path(law_dir) / "law.json"
    doc = _read_json(path)

    def field(name, read):
        try:
            return read(doc[name])
        except KeyError as exc:
            raise ConfigError(f"{path}: field {name!r}: missing key {exc}") from None
        except (TypeError, ValueError, OverflowError, NonFiniteError) as exc:
            raise ConfigError(f"{path}: field {name!r}: {exc}") from None

    T, steps = field("T", real), field("steps", integral)
    try:
        grid = TimeGrid(T, steps)
    except ValueError as exc:
        raise ConfigError(f"{path}: fields 'T' and 'steps': {exc}") from None

    n, m = field("n", integral), field("m", integral)
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

    def samples(name):
        traj = field(name, lambda entry: Trajectory(grid, np.asarray(entry["samples"])))
        if traj.shape != shapes[name]:
            raise ConfigError(f"{path}: field {name!r}: samples of shape {traj.shape}, "
                              f"expected {shapes[name]} for n = {n}, m = {m}")
        return traj

    margin = field("regularity_margin", real)
    if not np.isfinite(margin):
        raise ConfigError(f"{path}: field 'regularity_margin': {margin} is not finite")
    law = FeedbackLaw(grid=grid, P=samples("P"), phi=samples("phi"), Theta1=samples("Theta1"),
                      Theta2=samples("Theta2"), regularity_margin=margin)
    xhat = samples("xhat")
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


def _check_counts(paths: int, N_list) -> None:
    """Refuse each population size and the path count as the noise banks
    would, before --out is created."""
    for N in N_list:
        check_population_size(N)
        check_counts(paths, N)


def _verdict_doc(v) -> dict:
    return {"status": v.status, "criterion": v.criterion,
            "witness": {k: (val if isinstance(val, str) else float(val))
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
    """The --dq/--dg weight shift in the JSON file ``path`` (None without
    one); a file that is missing, malformed or not numeric raises
    ConfigError naming it."""
    if path is None:
        return None
    try:
        return np.asarray(_read_json(path), dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: not an array of numbers: {exc}") from None


def cmd_convexity(args) -> int:
    params = load_config(args.config)
    dq, dg = _read_shift(args.dq), _read_shift(args.dg)
    if dq is None and dg is None:
        verdicts = report_all(params)
    elif is_coupled(params):
        if dg is not None:
            raise ConfigError(f"{args.dg}: the coupled certificate takes no dG shift")
        verdicts = {"coupled_indefinite": check_coupled_indefinite(params, dq)}
    else:
        verdicts = {"decoupled_indefinite": check_decoupled_indefinite(params, dq, dg)}
    doc = {k: _verdict_doc(v) for k, v in verdicts.items()}
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def _solve_into(params: ModelParams, out: Path, config_src: Path | None,
                command: str, write_manifest: bool = True) -> tuple:
    t0 = time.time()
    out.mkdir(parents=True, exist_ok=True)
    cfg = _stash_config(config_src, params, out)
    sol, law = solve_cc(params)
    artifacts = [save_law(law, sol.xhat, out)]
    n, m = params.n, params.m
    header = (["t"] + [f"xhat_{i+1}" for i in range(n)]
              + [f"y1hat_{i+1}" for i in range(n)] + [f"y2hat_{i+1}" for i in range(n)]
              + [f"beta1hat_{i+1}" for i in range(n)] + [f"phi_{i+1}" for i in range(n)]
              + [f"Theta1_{i+1}{j+1}" for i in range(m) for j in range(n)]
              + [f"Theta2_{i+1}" for i in range(m)])
    grid = law.grid
    columns = [grid.nodes, sol.xhat.values, sol.y1hat.values, sol.y2hat.values,
               sol.beta1hat.values, sol.phi.values,
               law.Theta1.values.reshape(grid.steps + 1, m * n), law.Theta2.values]
    artifacts.append(write_csv(out / "solution.csv", header, columns))
    artifacts.append(write_json(out / "diagnostics.json", sol.diagnostics))
    if write_manifest:
        _write_manifest(out, command, cfg, None, grid, artifacts, t0)
    return sol, law, cfg, artifacts


def _fitted(x: float) -> float | None:
    """A fitted coefficient, or None (JSON null) when it could not be fitted."""
    return float(x) if np.isfinite(x) else None


def cmd_solve(args) -> int:
    params = load_config(args.config)
    _solve_into(params, Path(args.out), Path(args.config), "solve")
    print(f"law written to {args.out}")
    return 0


def cmd_simulate(args) -> int:
    t0 = time.time()
    check_seed(args.seed)
    _check_counts(args.paths, [args.N])
    if args.thin < 1:
        raise SettingError(f"--thin must be a positive integer, got {args.thin}")
    params = load_config(args.config)
    law, _, law_hash = load_law(Path(args.law), params)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cfg = _stash_config(Path(args.config), params, out)
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
    header = ["path", "agent", "t"] + [f"x_{i+1}" for i in range(n)]
    artifacts = [write_csv(out / "trajectories.csv", header, columns)]
    keep_agents = min(args.N, 8)
    cost_header = ["path", "J_soc"] + [f"J_{i+1}" for i in range(keep_agents)]
    artifacts.append(write_csv(out / "costs.csv", cost_header,
                               [np.arange(P), res.J_soc, res.J_i[:, :keep_agents]]))
    _write_manifest(out, "simulate", cfg, args.seed, law.grid, artifacts, t0,
                    extra={"N": args.N, "paths": args.paths, "dt": law.grid.dt,
                           "law_sha256": law_hash, "thin": args.thin})
    print(f"simulation written to {out}")
    return 0


def cmd_converge(args) -> int:
    t0 = time.time()
    check_seed(args.seed)
    N_list = _parse_int_list(args.N_list, "--N-list")
    _check_counts(args.reps, N_list)
    params = load_config(args.config)
    law, xhat, law_hash = load_law(Path(args.law), params)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cfg = _stash_config(Path(args.config), params, out)
    table = convergence_study(params, law, xhat, N_list, args.reps, args.seed)
    artifacts = [write_csv(out / "convergence.csv", ["N", "replications", "estimate", "se"],
                           [np.array(table.rows)])]
    artifacts.append(write_json(out / "summary.json",
                                {"slope": _fitted(table.slope),
                                 "intercept": _fitted(table.intercept)}))
    _write_manifest(out, "converge", cfg, args.seed, law.grid, artifacts, t0,
                    extra={"law_sha256": law_hash, "replications": args.reps})
    print(f"slope {table.slope:.4f} written to {out}")
    return 0


def cmd_gap(args) -> int:
    t0 = time.time()
    check_seed(args.seed)
    N_list = _parse_int_list(args.N_list, "--N-list")
    _check_counts(args.paths, N_list)
    params = load_config(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cfg = _stash_config(Path(args.config), params, out)
    table = gap_study(params, N_list, args.paths, args.seed)
    artifacts = [write_csv(out / "gap.csv",
                           ["N", "J_dec_per_capita", "J_oracle_per_capita", "gap_per_capita", "se"],
                           [np.array(table.rows)])]
    verdicts = {
        "oracle_dominates": all(g >= -2 * se for _, _, _, g, se in table.rows),
        "warnings": table.warnings,
    }
    artifacts.append(write_json(out / "summary.json", verdicts))
    _write_manifest(out, "gap", cfg, args.seed, params.grid(), artifacts, t0)
    print(f"gap table written to {out}")
    return 0


def cmd_repro(args) -> int:
    t0 = time.time()
    check_seed(args.seed)
    N_list = _parse_int_list(args.n_list, "--n-list")
    if args.steps < 2:
        raise SettingError(f"--steps: need at least 2 steps, got {args.steps}")
    _check_counts(args.paths, [args.N])
    _check_counts(args.reps, N_list)
    params = repro_instance(steps=args.steps)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    sol, law, cfg, artifacts = _solve_into(params, out, None, "repro-sec7",
                                           write_manifest=False)

    noise = NoiseBank(seed=args.seed, n_paths=args.paths, n_agents=args.N, grid=law.grid)
    res = simulate_decentralized(params, law, args.N, noise, store=False)
    artifacts.append(write_csv(out / "trajectories.csv",
                               ["t", "xhat_1", "xhat_2", "xavg_1", "xavg_2"],
                               [law.grid.nodes, sol.xhat.values, res.xavg.mean(axis=0)]))

    table = convergence_study(params, law, sol.xhat, N_list, args.reps, args.seed)
    artifacts.append(write_csv(out / "convergence.csv", ["N", "replications", "estimate", "se"],
                               [np.array(table.rows)]))

    lam = lambda_boundedness(params, law, [10, 100, 1000])
    summary = {
        "sup_norm_distance": float(np.max(np.abs(res.xavg.mean(axis=0) - sol.xhat.values))),
        "sup_sq_distance_mean": float(np.mean(np.max(
            np.sum((res.xavg - sol.xhat.values) ** 2, axis=2), axis=1))),
        "convergence_slope": _fitted(table.slope),
        "convexity": {k: _verdict_doc(v) for k, v in report_all(params).items()},
        "lyapunov": {"dominated": lam.dominated, "uniform": lam.uniform,
                     "spread_lam1": lam.max_spread1, "spread_lam2": lam.max_spread2},
        "diagnostics": sol.diagnostics,
    }
    artifacts.append(write_json(out / "summary.json", summary))
    _write_manifest(out, "repro-sec7", cfg, args.seed, law.grid, artifacts, t0,
                    extra={"N": args.N, "paths": args.paths})
    print(f"reproduction written to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="mflqg", description=__doc__)
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 1
    except MFLQGError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
