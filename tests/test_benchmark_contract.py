"""The benchmark's contract with the package.

``perfbench/checks.py`` calls every adaptive step positionally and compares
its operation tallies with ``nominal_cost`` before any benchmark run. This
test runs that guard for every benchmark workload, so a change to a step's
signature or tally fails here rather than in every benchmark run. It also
runs the tracer and the setup probe against the package. The
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


def test_tracer_attributes_every_runner_method_and_uninstalls(monkeypatch):
    # the layer targets the package no longer defines are named in
    # ``missing``; every detector's runner methods stay wrapped
    tracing = _load(monkeypatch, "uwbfde_contract_bench_tracing", "tracing.py")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        missing = set(tracer.missing)
        installed = set(tracing.find_wrappers())
    finally:
        tracer.uninstall()
    assert missing == {"sce.build_mmse_sce_exact", "sce.detect_sce", "estimators.update_power"}
    assert not [name for name in missing if name.startswith("harness.")]
    for cls_name, _, methods in tracing.RUNNER_METHODS:
        assert {f"harness.{cls_name}.{method}" for method in methods} <= installed
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
