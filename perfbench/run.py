"""Benchmark of the uwbfde simulator on real CLI experiments.

Usage (from the repository root)::

    python3 perfbench/run.py --workload train_default --seed 3 --seconds 20 --trace 0

Each workload is one CLI experiment run in this process through
``uwbfde.cli.main(argv)`` with ``--workers 1`` and one BLAS thread. A run
makes one warm-up call at ``REF_SEED`` (checked against the stored
reference), then repeats the call at ``--seed`` until ``--seconds`` are
spent, checking every output. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

* ``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of
  ``SETUP_REPEATS`` fresh processes, start to first experiment call),
  ``blocks_per_s`` (rate of the slowest timed call, see README.md),
  ``peak_rss_mb``, ``ok_share`` and the estimator accuracy
  ``sigma2_rel_err`` / ``kcount_abs_err`` (from one extra estimators call
  at ``--seed``).
* ``--trace 1`` alternates untraced and traced calls and reports the
  per-layer metrics from the spans (see ``tracing.py``), the tracing overhead
  and the operation-count tallies.

Outputs, spans and a result record with the environment go to
``.bench_out/`` at the repository root. See ``README.md`` for the
layer-to-metric map.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".bench_out"
REF_DIR = BENCH_DIR / "reference"
REF_SEED = 1
REF_RUNS = 2                    # runs are seeded one by one, so 2 pin the rest's code path
SETUP_REPEATS = 5
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1


@dataclass(frozen=True)
class Workload:
    """One CLI experiment at desk scale (n=32, nc=8, L=34 unless stated)."""

    experiment: str
    runs: int
    blocks: int
    eval_blocks: int = 0
    snr_db: tuple = (16.0,)
    scheme: str = "both"
    algorithm: str = "all"
    users: int = 3
    block_length: int = 32
    spreading: int = 8
    cir_taps: int = 34
    cg_iters: int = 8

    def argv(self, seed: int, out: Path) -> list[str]:
        return ["--experiment", self.experiment, "--scheme", self.scheme,
                "--algorithm", self.algorithm, "--users", str(self.users),
                "--spreading", str(self.spreading),
                "--block-length", str(self.block_length),
                "--cir-length", str(self.cir_taps),
                "--snr-db", ",".join(str(s) for s in self.snr_db),
                "--blocks", str(self.blocks), "--eval-blocks", str(self.eval_blocks),
                "--runs", str(self.runs), "--cg-iters", str(self.cg_iters),
                "--seed", str(seed), "--workers", "1", "--out", str(out)]

    def outputs(self, out: Path) -> dict:
        if self.experiment == "estimators":
            stem = str(out)[:-4]
            return {"sigma2": Path(f"{stem}_sigma2.csv"), "kcount": Path(f"{stem}_kcount.csv")}
        return {"main": out}

    def algo_keys(self) -> list[str]:
        schemes = ("sce", "da") if self.scheme == "both" else (self.scheme,)
        algos = ("lms", "rls", "cg", "mmse") if self.algorithm == "all" else (self.algorithm,)
        return [f"{s}-{a}" for s in schemes for a in algos]

    def reference(self) -> Workload:
        """The same experiment cut to ``REF_RUNS`` runs, for the reference
        check at ``REF_SEED``."""
        return replace(self, runs=min(self.runs, REF_RUNS))

    def blocks_per_call(self) -> int:
        """Received blocks one call synthesizes: runs x points x blocks."""
        if self.experiment == "ber-vs-blocks":
            return self.runs * self.blocks
        if self.experiment == "ber-vs-users":
            return self.runs * (self.spreading - 1) * (self.blocks + self.eval_blocks)
        if self.experiment == "estimators":
            from checks import KCOUNT_USERS, SIGMA2_USERS
            points = len(SIGMA2_USERS) * len(self.snr_db) + len(KCOUNT_USERS)
            return self.runs * self.blocks * points
        raise ValueError(f"unknown experiment {self.experiment!r}")


# Why each workload: see README.md. train_default has enough blocks per run
# that the per-run genie builds stay behind the adaptive steps; each call
# takes about 3 s on a 2-core machine, so a run holds several calls.
WORKLOADS = {
    "train_default": Workload("ber-vs-blocks", runs=8, blocks=120),
    "users_genie": Workload("ber-vs-users", runs=6, blocks=10, eval_blocks=30,
                            algorithm="mmse"),
    "estimators_sweep": Workload("estimators", runs=9, blocks=20,
                                 snr_db=(0.0, 8.0, 16.0)),
}
# Estimator accuracy is read from one larger estimators call at --seed.
ACCURACY = Workload("estimators", runs=24, blocks=10, snr_db=(0.0, 8.0, 16.0))


# ---------------------------------------------------------------------------
# one experiment call
# ---------------------------------------------------------------------------

class Calls:
    """Makes experiment calls and counts the attempted and failed ones."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def run(self, name: str, spec: Workload, seed: int, tag: str,
            reference: bool = False):
        """One checked call; returns ``(wall_s, frames, output_bytes)`` with
        ``frames`` None when the call or its check failed."""
        from checks import CheckError, check_outputs, compare_reference

        self.attempted += 1
        out = OUT_DIR / f"{name}_{tag}.csv"
        paths = spec.outputs(out)
        for path in paths.values():
            path.unlink(missing_ok=True)
        argv = spec.argv(seed, out)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = self.cli.main(argv)
        except Exception:
            wall = time.perf_counter() - t0
            return self._fail(wall, f"{name} seed {seed}: raised\n{traceback.format_exc()}")
        wall = time.perf_counter() - t0
        if rc != 0:
            return self._fail(wall, f"{name} seed {seed}: exit code {rc}")
        try:
            frames = check_outputs(spec, paths, seed)
            if reference:
                compare_reference(frames, REF_DIR / name)
        except (CheckError, OSError) as exc:
            return self._fail(wall, f"{name} seed {seed}: {exc}")
        data = b"".join(p.read_bytes() for p in paths.values())
        return wall, frames, data

    def _fail(self, wall, message):
        self.failed += 1
        self.errors.append(message)
        print(f"failed: {message}", file=sys.stderr)
        return wall, None, None


def _identical(calls: Calls, first: bytes, data, what: str):
    """Count a timed call whose CSVs differ from the first timed call's."""
    if data is not None and first is not None and data != first:
        calls.failed += 1
        calls.errors.append(f"{what}: output differs from the first call at this seed")
        print(f"failed: {calls.errors[-1]}", file=sys.stderr)


# ---------------------------------------------------------------------------
# measurements
# ---------------------------------------------------------------------------

def measure_setup(spec: Workload, seed: int) -> list[float]:
    """Seconds from process start to the first experiment call, per probe."""
    probe = BENCH_DIR / "setup_probe.py"
    argv = spec.argv(seed, OUT_DIR / "setup_probe.csv")
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, str(probe), *argv], capture_output=True,
                              text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.strip().splitlines()[-1]) - t0)
    return times


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def quartiles(values) -> dict:
    if len(values) < 2:
        return {"n": len(values), "median": values[0] if values else None}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "q1": q1, "median": q2, "q3": q3,
            "min": min(values), "max": max(values)}


def git_revision() -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def run_untraced(args, spec, calls) -> tuple[dict, dict]:
    from checks import accuracy

    setup = measure_setup(spec, args.seed)
    calls.run(args.workload, spec.reference(), REF_SEED, "ref", reference=True)
    start = time.perf_counter()
    walls, first = [], None
    while True:
        wall, _, data = calls.run(args.workload, spec, args.seed, "timed")
        walls.append(wall)
        first = first or data
        _identical(calls, first, data, f"{args.workload} seed {args.seed}")
        if time.perf_counter() - start + statistics.median(walls) > args.seconds:
            break
    rss = peak_rss_mb()
    _, frames, _ = calls.run("accuracy", ACCURACY, args.seed, "accuracy")
    # -1 marks a failed accuracy call; the run is then not correct anyway
    sigma2_err, kcount_err = accuracy(frames) if frames else (-1.0, -1.0)
    blocks = spec.blocks_per_call()
    rates = [blocks / w for w in walls]
    metrics = {
        "setup_s": _metric(statistics.median(setup), "s"),
        "blocks_per_s": _metric(min(rates), "blocks/s"),
        "peak_rss_mb": _metric(rss, "MB"),
        "ok_share": _metric((calls.attempted - calls.failed) / calls.attempted, "ratio"),
        "sigma2_rel_err": _metric(sigma2_err, "ratio"),
        "kcount_abs_err": _metric(kcount_err, "users"),
    }
    detail = {"blocks_per_call": blocks, "call_wall_s": quartiles(walls),
              "blocks_per_s": quartiles(rates), "setup_s": quartiles(setup)}
    return metrics, detail


def run_traced(args, spec, calls, opcounts) -> tuple[dict, dict]:
    from tracing import LayerStats, Tracer, find_wrappers, write_spans

    calls.run(args.workload, spec.reference(), REF_SEED, "ref", reference=True)
    start = time.perf_counter()
    stats = LayerStats(spec.blocks_per_call())
    tracer = Tracer()
    spans, plain, traced, first = [], [], [], None
    while True:
        leftovers = find_wrappers()
        if leftovers:
            raise RuntimeError(f"untraced call would see span wrappers: {leftovers}")
        wall, _, data = calls.run(args.workload, spec, args.seed, "timed")
        plain.append(wall)
        first = first or data
        _identical(calls, first, data, f"{args.workload} seed {args.seed}")
        try:
            tracer.install()
            wall, got, data = calls.run(args.workload, spec, args.seed, "timed")
        finally:
            tracer.uninstall()
        traced.append(wall)
        _identical(calls, first, data, f"{args.workload} seed {args.seed} (traced)")
        call_spans = tracer.take_spans()
        if got is not None:
            stats.add_call(call_spans)
        spans.append(call_spans)
        tracer.call += 1
        pair = statistics.median(plain) + statistics.median(traced)
        if time.perf_counter() - start + pair > args.seconds:
            break
    with open(OUT_DIR / f"spans_{args.workload}_seed{args.seed}.csv", "w",
              encoding="utf-8") as fh:
        fh.write("name,start_us,end_us,parent,call,failed\n")
        for call_spans in spans:
            write_spans(fh, call_spans)
    metrics = {name: _metric(v, u) for name, (v, u) in stats.metrics().items()}
    for algo, (mults, adds) in opcounts.items():
        metrics[f"opcount.{algo}.mults_per_block"] = _metric(mults, "mults/block")
        metrics[f"opcount.{algo}.adds_per_block"] = _metric(adds, "adds/block")
    metrics["trace.overhead_ratio"] = _metric(
        statistics.median(traced) / statistics.median(plain) - 1.0, "ratio")
    metrics["trace.missing_targets"] = _metric(len(tracer.missing), "count")
    detail = {"traced_calls": stats.calls, "untraced_wall_s": quartiles(plain),
              "traced_wall_s": quartiles(traced), "missing_targets": tracer.missing}
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "uwbfde" / "cli.py").is_file():
        print(f"error: no uwbfde sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for key in BLAS_ENV:                # before numpy loads its BLAS
        os.environ[key] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    OUT_DIR.mkdir(exist_ok=True)

    from checks import opcount_guard
    from uwbfde import cli

    spec = WORKLOADS[args.workload]
    calls = Calls(cli)
    opcounts, mismatches = opcount_guard(spec, args.seed)
    for line in mismatches:
        print(f"opcount mismatch: {line}", file=sys.stderr)
    if args.trace:
        metrics, detail = run_traced(args, spec, calls, opcounts)
    else:
        metrics, detail = run_untraced(args, spec, calls)
    result = {"correct": calls.failed == 0 and not mismatches,
              "attempted": calls.attempted, "failed": calls.failed, "metrics": metrics}
    record = {"environment": environment(args), "detail": detail,
              "errors": calls.errors + mismatches, "result": result}
    record_path = OUT_DIR / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print("env " + json.dumps(record["environment"]))
    print("detail " + json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
