"""Regenerate reference/repro2d_law.npz, the stored synth-repro reference.

Run from the repository root:  python3 perfbench/make_reference.py
It solves configs/repro2d.json through the same `mflqg solve` path the
benchmark times and stores the law (P, Theta1, Theta2, xhat, phi), the
convexity verdicts and the Lyapunov sup norms.  Only regenerate it when a
change to the library is meant to change these numbers.
"""

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

import worker


def main() -> int:
    with tempfile.TemporaryDirectory(dir=Path.cwd()) as tmp:
        ctx = {"config": worker.REPRO_CONFIG, "law_dir": Path(tmp) / "law",
               "params": worker.load_config(worker.REPRO_CONFIG)}
        worker.solve_op(ctx, None)
        doc = json.loads((ctx["law_dir"] / "law.json").read_text())
        law = worker.cli.load_law(ctx["law_dir"])[0]
    statuses, sup1, sup2, dominated = worker.certify_op(ctx, law, None)
    if not dominated:
        print("Lyapunov kernels not dominated; refusing to store", file=sys.stderr)
        return 1
    arrays = {name: np.asarray(doc[name]["samples"]) for name in worker.checks.LAW_FIELDS}
    worker.REFERENCE.parent.mkdir(exist_ok=True)
    np.savez_compressed(worker.REFERENCE, **arrays,
                        certify_names=np.array(list(statuses)),
                        certify_status=np.array(list(statuses.values())),
                        lambda_sup1=np.array(sup1), lambda_sup2=np.array(sup2))
    print(f"wrote {worker.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
