"""Operation counters and the per-block cost model."""

import numpy as np
import pytest

from uwbfde import da, sce
from uwbfde.harness import ExperimentConfig, verify_complexity
from uwbfde.opcount import OpCounter, nominal_cost


class TestOpCounter:
    def test_primitive_charges(self):
        ctr = OpCounter()
        ctr.matvec(3, 4)
        assert (ctr.mults, ctr.adds) == (12, 9)
        ctr = OpCounter()
        ctr.inner(5)
        assert (ctr.mults, ctr.adds) == (5, 4)
        ctr.diag_product(7)
        ctr.scale(2)
        ctr.scaled_update(3)
        ctr.vector_add(4)
        ctr.scalar_div()
        ctr.lump(10, 20)
        assert ctr.mults == 5 + 7 + 2 + 3 + 1 + 10
        assert ctr.adds == 4 + 3 + 4 + 20

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            nominal_cost("nope", m=8)


class TestCostModel:
    def test_closed_forms_at_reference_point(self):
        m, n, nc, taps, c = 256, 32, 8, 34, 8
        assert nominal_cost("sce-lms", m=m, taps=taps)[0] == 2 * m * taps + 2 * m + taps
        assert nominal_cost("sce-rls", m=m, taps=taps)[0] == (
            2 * taps**3 + 3 * m * taps + (2 + m) * taps**2)
        assert nominal_cost("sce-cg", m=m, taps=taps, iters=c)[0] == (
            (2 * m * taps + 4 * m + 4 * taps + 1) * c)
        assert nominal_cost("da-lms", m=m, n=n)[0] == 2 * m * n + n
        assert nominal_cost("da-rls", m=m, n=n, nc=nc)[0] == (
            m * (nc**2 + 6 * nc + 2 * n - 1))
        assert nominal_cost("da-cg", m=m, n=n, iters=c)[0] == (
            (2 * m * n + 2 * m + n + 2) * c)

    def test_cg_counts_linear_in_iterations(self):
        two = nominal_cost("sce-cg", m=64, taps=9, iters=2)[0]
        eight = nominal_cost("sce-cg", m=64, taps=9, iters=8)[0]
        assert eight == 4 * two
        two = nominal_cost("da-cg", m=64, n=16, iters=2)[0]
        eight = nominal_cost("da-cg", m=64, n=16, iters=8)[0]
        assert eight == 4 * two

    def test_measured_equals_model_small_dims(self):
        cfg = ExperimentConfig(block_length=8, cir_taps=5)
        report = verify_complexity(cfg, spreading_gains=(1, 2, 4), cg_iters=(1, 3))
        for row in report.rows:
            assert row.match, row
            assert row.adds_match, row

    def test_single_gain_filter_recursion_near_gradient_cost(self):
        # with unit spreading gain the sparse recursive solve costs within a
        # multiple of the block length of the plain gradient update
        cfg = ExperimentConfig()
        report = verify_complexity(cfg, spreading_gains=(1,), cg_iters=(2,))
        m = cfg.block_length
        rls = report.mults_for("da-rls", 1)
        lms = report.mults_for("da-lms", 1)
        assert abs(rls - lms) <= 8 * m


class TestCgEarlyStop:
    def test_all_zero_block_charges_nothing(self):
        # a zero block leaves a zero gradient, so the shared loop completes
        # no iteration and neither step charges an operation
        n, nc, taps = 8, 2, 3
        m = n * nc
        zeros = np.zeros(m, complex)
        xdiag = np.fft.fft(np.ones(m), norm="ortho")
        counter = OpCounter()
        sce.sce_cg_step(sce.new_cg_state(taps, 4), zeros, xdiag, counter)
        assert counter.snapshot() == (0, 0)
        counter = OpCounter()
        da.da_cg_step(da.new_cg_state(m, 4), da.RxOperator(zeros, n), np.zeros(n), counter)
        assert counter.snapshot() == (0, 0)
