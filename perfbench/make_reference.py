"""Regenerate the reference CSVs that the benchmark compares against.

Run from the repository root as ``python3 perfbench/make_reference.py``.
Each workload's reference experiment (``Workload.reference``) runs once
at ``REF_SEED`` and its CSVs are copied to ``perfbench/reference/<workload>/``. Regenerate only when a
change is meant to alter the experiment outputs, and say so in its review.
"""

import contextlib
import io
import os
import shutil
import sys

import run


def main() -> int:
    for key in run.BLAS_ENV:
        os.environ[key] = str(run.BLAS_THREADS)
    sys.path.insert(0, str(run.ROOT / "src"))
    from uwbfde import cli

    run.OUT_DIR.mkdir(exist_ok=True)
    for name, workload in run.WORKLOADS.items():
        spec = workload.reference()
        out = run.OUT_DIR / f"{name}_reference.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(spec.argv(run.REF_SEED, out))
        if rc != 0:
            print(f"{name}: exit code {rc}", file=sys.stderr)
            return 1
        target = run.REF_DIR / name
        target.mkdir(parents=True, exist_ok=True)
        for csv_name, path in spec.outputs(out).items():
            shutil.copyfile(path, target / f"{csv_name}.csv")
        print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
