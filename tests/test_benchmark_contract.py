"""The benchmark's contract with the package.

``perfbench/checks.py`` calls every adaptive step positionally and compares
its operation tallies with ``nominal_cost`` before any benchmark run. This
test runs that guard for every benchmark workload, so a change to a step's
signature or tally fails here rather than in every benchmark run. It also
runs the tracer and the setup probe against the package; the tracer's
layer span of each adaptive step is what times each detector's update. And
it makes each workload's reference call, at the default scenario's shape,
and compares it with the stored reference as the benchmark does. The
benchmark files are loaded by path, under names of their own, and are not
modified.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"


def _load(monkeypatch, name, filename):
    spec = importlib.util.spec_from_file_location(name, BENCH_DIR / filename)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up by name
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def bench(monkeypatch):
    checks = _load(monkeypatch, "uwbfde_contract_bench_checks", "checks.py")
    run = _load(monkeypatch, "uwbfde_contract_bench_run", "run.py")
    return checks, run


def test_opcount_guard_matches_model_on_every_workload(bench):
    checks, run = bench
    assert run.WORKLOADS
    for name, spec in run.WORKLOADS.items():
        counts, mismatches = checks.opcount_guard(spec, seed=1)
        assert mismatches == [], name
        assert set(counts) == {"sce-lms", "sce-rls", "sce-cg", "da-lms", "da-rls", "da-cg"}


def test_reference_call_of_every_workload_matches_the_stored_reference(bench, tmp_path):
    # the benchmark checks these calls only when it runs; here they also bind
    # the default shape (n=32, nc=8, L=34) in every test run
    from uwbfde.cli import main as cli_main
    checks, run = bench
    for name, spec in run.WORKLOADS.items():
        ref, out = spec.reference(), tmp_path / f"{name}.csv"
        assert cli_main(ref.argv(run.REF_SEED, out)) == 0, name
        frames = checks.check_outputs(ref, ref.outputs(out), run.REF_SEED)
        checks.compare_reference(frames, run.REF_DIR / name)


def test_tracer_spans_every_adaptive_step_once_per_block_and_uninstalls(monkeypatch):
    # each adaptive algorithm has a module step of its own, so the step's
    # layer span times that detector's update, as the retired runner hooks
    # did; the targets the package no longer defines are named in ``missing``
    from uwbfde import harness
    tracing = _load(monkeypatch, "uwbfde_contract_bench_tracing", "tracing.py")
    steps = {key: f"{algo.scheme}.{algo.scheme}_{algo.kind}_step"
             for key, algo in harness._ALGORITHMS.items() if algo.step is not None}
    assert len(steps) == 6
    assert set(steps.values()) <= set(tracing.LAYER_SPANS)
    cfg = harness.ExperimentConfig(block_length=8, spreading=4, users=2, cir_taps=3, cp_chips=4,
                                   training_blocks=7, eval_blocks=3, decay_rate=0.2, cg_iters=3)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        missing = set(tracer.missing)
        # a sweep of two points on one chunk: its steps stop at the freeze
        harness._ber_trial(cfg, [(0, 4.0, 2), (1, 12.0, 1)], cfg.algo_keys(), [0, 1])
        names = [span[0] for span in tracer.take_spans()]
    finally:
        tracer.uninstall()
    assert missing == {"sce.build_mmse_sce_exact", "sce.detect_sce", "estimators.update_power",
                       "harness._SceRunner.observe", "harness._SceRunner.detect",
                       "harness._SceRunner.update", "harness._DaRunner.detect",
                       "harness._DaRunner.update"}
    assert {step: names.count(step) for step in steps.values()} == dict.fromkeys(
        steps.values(), cfg.training_blocks)
    assert tracing.find_wrappers() == []


def test_setup_probe_stops_at_the_experiment_call(bench, tmp_path):
    # the probe replaces the experiment functions that ``cli`` binds by name;
    # if the CLI reached an experiment some other way, the probe would time
    # the whole experiment instead of the setup
    _, run = bench
    for name, spec in run.WORKLOADS.items():
        argv = spec.argv(1, tmp_path / "probe.csv")
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "setup_probe.py"), *argv],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, (name, proc.stderr)
        lines = proc.stdout.splitlines()
        assert len(lines) == 1, (name, lines)
        float(lines[0])
    assert not list(tmp_path.iterdir())
