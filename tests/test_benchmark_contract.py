"""The benchmark's contract with the package.

``perfbench/checks.py`` calls every adaptive step positionally and compares
its operation tallies with ``nominal_cost`` before any benchmark run. This
test runs that guard for every benchmark workload, so a change to a step's
signature or tally fails here rather than in every benchmark run. The
benchmark files are loaded by path, under names of their own, and are not
modified.
"""

import importlib.util
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
