"""Direct-adaptation detector: operator factorization, adaptive steps, genie
weights and detection."""

import logging

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import dft_matrix, expansion_matrix, operator_matrix, spectral_mask
from uwbfde import da, fdcore
from uwbfde.channel import ChannelProfile, generate_cir, synthesize_rx
from uwbfde.opcount import OpCounter, nominal_cost


def _random_complex(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _dense_rx_matrix(zbins, n):
    m = zbins.size
    nc = m // n
    fn = dft_matrix(n)
    ie = expansion_matrix(n, nc)
    return fn.conj().T @ ie.T @ np.diag(zbins)


def _scene(rng, n=4, nc=2, num_taps=3, sigma2=0.0, users=1):
    codes = fdcore.walsh_code_set(nc)
    taps = generate_cir(ChannelProfile(num_taps, 0.2, seed=rng.integers(1 << 30)))
    blocks = fdcore.random_bpsk(rng, users * n).reshape(users, n)
    z = synthesize_rx(blocks, codes, taps, sigma2, rng)
    return taps, codes, blocks, da.RxOperator(z, n)


class TestRxOperator:
    def test_zero_vector(self):
        rng = np.random.default_rng(0)
        op = da.RxOperator(_random_complex(rng, 8), 4)
        assert_allclose(op.matvec(np.zeros(8)), np.zeros(4))
        assert_allclose(op.rmatvec(np.zeros(4)), np.zeros(8))

    def test_degenerate_gain_is_windowed_transform(self):
        rng = np.random.default_rng(1)
        z = _random_complex(rng, 4)
        v = _random_complex(rng, 4)
        op = da.RxOperator(z, 4)
        assert_allclose(op.matvec(v), np.fft.ifft(z * v, norm="ortho"), atol=1e-13)
        u = _random_complex(rng, 4)
        assert_allclose(da.RxOperator(np.ones(4, complex), 4).rmatvec(u),
                        np.fft.fft(u, norm="ortho"), atol=1e-13)

    def test_matches_dense_matrix(self):
        rng = np.random.default_rng(2)
        z = _random_complex(rng, 8)
        op = da.RxOperator(z, 4)
        dense = _dense_rx_matrix(z, 4)
        v = _random_complex(rng, 8)
        assert_allclose(op.matvec(v), dense @ v, atol=1e-12)
        u = _random_complex(rng, 4)
        assert_allclose(op.rmatvec(u), dense.conj().T @ u, atol=1e-12)

    def test_adjoint_identity(self):
        rng = np.random.default_rng(3)
        z = _random_complex(rng, 8)
        op = da.RxOperator(z, 4)
        v = _random_complex(rng, 8)
        u = _random_complex(rng, 4)
        assert np.vdot(u, op.matvec(v)) == pytest.approx(
            np.vdot(op.rmatvec(u), v), rel=1e-12)

    def test_dense_helper_consistent(self):
        rng = np.random.default_rng(4)
        z = _random_complex(rng, 8)
        op = da.RxOperator(z, 2)
        assert_allclose(operator_matrix(op), _dense_rx_matrix(z, 2), atol=1e-12)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            da.RxOperator(np.ones(7, complex), 4)
        op = da.RxOperator(np.ones(8, complex), 4)
        with pytest.raises(ValueError):
            op.matvec(np.ones(4))
        with pytest.raises(ValueError):
            op.rmatvec(np.ones(8))


class TestDaLms:
    def test_scalar_case(self):
        op = da.RxOperator(np.array([1.0 + 0j]), 1)
        state = da.new_lms_state(1, mu=0.5)
        da.da_lms_step(state, op, np.array([1.0]))
        assert state.w_hat[0] == pytest.approx(0.5)

    def test_zero_error_fixed_point(self):
        rng = np.random.default_rng(5)
        taps, codes, blocks, op = _scene(rng)
        w_opt = np.linalg.lstsq(operator_matrix(op), blocks[0].astype(complex), rcond=None)[0]
        state = da.new_lms_state(op.m, mu=0.3)
        state.w_hat = w_opt.copy()
        da.da_lms_step(state, op, blocks[0])
        err = blocks[0] - op.matvec(w_opt)
        if np.linalg.norm(err) < 1e-10:
            assert_allclose(state.w_hat, w_opt, atol=1e-10)

    def test_noiseless_convergence_to_zero_ber(self):
        rng = np.random.default_rng(6)
        n, nc = 8, 2
        codes = fdcore.walsh_code_set(nc)
        taps = generate_cir(ChannelProfile(3, 0.2, seed=7))
        state = da.new_lms_state(n * nc, mu=0.05)
        for _ in range(2000):
            b = fdcore.random_bpsk(rng, n)
            z = synthesize_rx(b[None, :], codes, taps, 0.0, rng)
            da.da_lms_step(state, da.RxOperator(z, n), b)
        errors = 0
        for _ in range(50):
            b = fdcore.random_bpsk(rng, n)
            z = synthesize_rx(b[None, :], codes, taps, 0.0, rng)
            errors += int((da.detect_da(da.RxOperator(z, n), state.w_hat) != b).sum())
        assert errors == 0

    def test_divergence_detection(self):
        rng = np.random.default_rng(8)
        _, _, blocks, op = _scene(rng)
        state = da.new_lms_state(op.m, mu=1e12)
        with np.errstate(all="ignore"), pytest.raises(fdcore.DivergenceError):
            for _ in range(200):
                da.da_lms_step(state, da.RxOperator(op.zbins * 1e3, op.n), blocks[0])


class TestDaRls:
    def test_single_gain_reduces_to_per_bin_recursion(self):
        # with unit spreading gain the accumulator is a plain diagonal and the
        # update collapses to one independent scalar recursion per bin
        rng = np.random.default_rng(9)
        n = 8
        z = _random_complex(rng, n)
        b = fdcore.random_bpsk(rng, n)
        op = da.RxOperator(z, n)
        state = da.new_rls_state(n, 1, lam=1.0, delta=1e-3)
        da.da_rls_step(state, op, b)
        assert state.corr.shape == (n, 1, 1)
        fb = np.fft.fft(b, norm="ortho")
        expected = (np.conj(z) * fb) / (1e-3 + np.abs(z) ** 2)
        assert_allclose(state.w_hat, expected, atol=1e-10)

    def test_unit_forgetting_equals_batch_least_squares(self):
        rng = np.random.default_rng(10)
        n, nc = 4, 2
        m = n * nc
        codes = fdcore.walsh_code_set(nc)
        taps = generate_cir(ChannelProfile(3, 0.1, seed=11))
        state = da.new_rls_state(n, nc, lam=1.0, delta=1e-10)
        gram = np.zeros((m, m), complex)
        rhs = np.zeros(m, complex)
        for _ in range(30):
            b = fdcore.random_bpsk(rng, n)
            z = synthesize_rx(b[None, :], codes, taps, 0.05, rng)
            op = da.RxOperator(z, n)
            da.da_rls_step(state, op, b)
            dense = operator_matrix(op)
            gram += dense.conj().T @ dense
            rhs += dense.conj().T @ b
        batch = np.linalg.lstsq(gram, rhs, rcond=None)[0]
        assert np.linalg.norm(state.w_hat - batch) / np.linalg.norm(batch) < 1e-8

    def test_accumulator_matches_masked_pattern(self):
        rng = np.random.default_rng(12)
        n, nc = 4, 2
        m = n * nc
        delta = 1e-3
        state = da.new_rls_state(n, nc, lam=0.9, delta=delta)
        zs = []
        for _ in range(3):
            _, _, b, op = _scene(rng, n=n, nc=nc, sigma2=0.3)
            da.da_rls_step(state, op, b[0])
            zs.append(op.zbins)
        dense = delta * np.eye(m, dtype=complex)
        mask = spectral_mask(n, nc)
        for z in zs:
            dense = 0.9 * dense + (np.conj(z)[:, None] * z[None, :]) * mask
        rebuilt = np.zeros((m, m), complex)
        for i in range(n):
            idx = np.arange(i, m, n)
            rebuilt[np.ix_(idx, idx)] = state.corr[i]
        assert_allclose(rebuilt, dense, atol=1e-12)
        # structurally block diagonal after regrouping: nonzero entries only
        # where the mask allows, m*nc of them
        assert np.count_nonzero(mask) == m * nc
        assert np.max(np.abs(rebuilt * (1 - mask))) == 0

    def test_singular_block_regularized(self, caplog):
        n, nc = 2, 2
        state = da.new_rls_state(n, nc, lam=1.0, delta=0.25)
        state.corr[:] = 0
        op = da.RxOperator(np.zeros(n * nc, complex), n)
        with caplog.at_level(logging.WARNING, logger="uwbfde.da"):
            da.da_rls_step(state, op, np.ones(n))
        assert "regularizing" in caplog.text
        assert np.all(np.isfinite(state.w_hat))


class TestDaCg:
    def test_zero_gradient_no_op(self):
        state = da.new_cg_state(8, iters=4)
        op = da.RxOperator(np.zeros(8, complex), 4)
        da.da_cg_step(state, op, np.zeros(4))
        assert_allclose(state.w_hat, np.zeros(8))

    def test_residual_monotone_and_approaches_block_solution(self):
        rng = np.random.default_rng(13)
        _, _, blocks, op = _scene(rng, n=4, nc=2, sigma2=0.1, users=2)
        state = da.new_cg_state(op.m, iters=30)
        trace = []
        da.da_cg_step(state, op, blocks[0], trace=trace)
        norms = [t[2] for t in trace]
        assert all(b <= a * (1 + 1e-9) for a, b in zip(norms, norms[1:]))
        # the block's cost is underdetermined, so many iterations drive the
        # residual essentially to zero
        assert norms[-1] < 1e-6 * max(1.0, norms[0])

    def test_direction_gradient_identity(self):
        rng = np.random.default_rng(14)
        _, _, blocks, op = _scene(rng, n=4, nc=2, sigma2=0.2, users=2)
        state = da.new_cg_state(op.m, iters=5)
        trace = []
        da.da_cg_step(state, op, blocks[0], trace=trace)
        assert trace
        for grad_energy, neg_dir_grad, _ in trace:
            assert abs(neg_dir_grad - grad_energy) <= 1e-10 * max(grad_energy, 1.0)

    def test_matches_full_bin_cgls_on_the_rx_operator(self):
        # the paper's DA-CG is CGLS on all m bins of ||b - A w||^2; the step
        # runs it on one coefficient per symbol group. Row 1 has a dead
        # group, which must not move; row 2 is an all-zero block, which stops
        # at once
        rng = np.random.default_rng(26)
        n, nc = 16, 4
        m = n * nc
        z = _random_complex(rng, (3, m))
        z[1, 2::n] = 0
        z[2] = 0
        b = fdcore.random_bpsk(rng, 3 * n).reshape(3, n)
        w0 = _random_complex(rng, (3, m))
        fixed = np.zeros((3, m), dtype=bool)
        fixed[1, 2::n] = fixed[2] = True
        for iters in range(1, 9):
            for rows in (0, 1, 2, slice(None)):
                op = da.RxOperator(z[rows], n)
                ref, ref_trace = w0[rows].copy(), []
                done = fdcore.cg_least_squares(ref, op, b[rows], iters, ref_trace)
                state = da.new_cg_state(m, iters=iters)
                state.w_hat = w0[rows].copy()
                trace, counter = [], OpCounter()
                da.da_cg_step(state, op, b[rows], counter, trace)
                assert len(trace) == len(ref_trace) == done
                assert done == (0 if rows == 2 else iters)
                assert counter.snapshot() == nominal_cost("da-cg", m=m, n=n, iters=done)
                err = np.linalg.norm(state.w_hat - ref, axis=-1)
                assert np.all(err <= 1e-12 * np.linalg.norm(ref, axis=-1))
                assert not np.any((state.w_hat != w0[rows]) & fixed[rows])

    def test_cg_trace_residual_is_the_rx_residual(self):
        rng = np.random.default_rng(25)
        _, _, blocks, op = _scene(rng, n=4, nc=2, sigma2=0.1, users=2)
        for iters in range(1, 7):
            state = da.new_cg_state(op.m, iters=iters)
            trace = []
            da.da_cg_step(state, op, blocks[0], trace=trace)
            assert len(trace) == iters
            assert trace[-1][2] == pytest.approx(
                np.linalg.norm(blocks[0] - op.matvec(state.w_hat)), rel=1e-10, abs=1e-13)


class TestGenieWeights:
    def test_single_user_single_gain_is_per_bin_wiener(self):
        rng = np.random.default_rng(15)
        n = 8
        taps = generate_cir(ChannelProfile(3, 0.2, seed=16))
        codes = fdcore.walsh_code_set(1)
        sigma2 = 0.4
        w = da.build_mmse_da(taps, codes, sigma2, n)
        lam = fdcore.tap_spectrum(taps, n)
        expected = np.conj(lam / (np.abs(lam) ** 2 / 1 + sigma2))
        assert_allclose(w, expected, atol=1e-12)

    def test_collapse_identity(self):
        # the masked solution matrix times the expansion equals its per-bin
        # row sums times the expansion; includes n != nc and K < nc
        taps = generate_cir(ChannelProfile(3, 0.1, seed=18))
        sigma2 = 0.3
        for n, nc, k in [(4, 2, 2), (8, 4, 3), (4, 8, 5)]:
            m = n * nc
            codes = fdcore.walsh_code_set(nc)
            spectrum = fdcore.tap_spectrum(taps, m)
            mask = spectral_mask(n, nc)
            ie = expansion_matrix(n, nc)
            cov = np.zeros((m, m), complex)
            for i in range(k):
                lam = spectrum * fdcore.tap_spectrum(codes[i], m)
                cov += (lam[:, None] * lam.conj()[None, :]) * mask
            cov = cov / nc + sigma2 * np.eye(m)
            lam1 = spectrum * fdcore.tap_spectrum(codes[0], m)
            solution = np.linalg.solve(cov, np.diag(lam1)) / np.sqrt(nc)
            w_equiv = da.build_mmse_da(taps, codes[:k], sigma2, n).conj()
            assert_allclose(solution @ ie, np.diag(w_equiv) @ ie, atol=1e-10)

    def test_noiseless_rank_deficient_raises(self):
        taps = generate_cir(ChannelProfile(2, 0.1, seed=19))
        with pytest.raises(np.linalg.LinAlgError):
            da.build_mmse_da(taps, fdcore.walsh_code_set(4)[:2], 0.0, 4)


class TestDetectDa:
    def test_noiseless_genie_single_user(self):
        rng = np.random.default_rng(20)
        n, nc = 8, 4
        codes = fdcore.walsh_code_set(nc)
        taps = generate_cir(ChannelProfile(3, 0.2, seed=21))
        w = da.build_mmse_da(taps, codes[:1], 1e-12, n)
        for _ in range(20):
            b = fdcore.random_bpsk(rng, n)
            z = synthesize_rx(b[None, :], codes, taps, 0.0, rng)
            assert_allclose(da.detect_da(da.RxOperator(z, n), w), b)

    def test_zero_weights_resolve_positive(self):
        op = da.RxOperator(np.ones(8, complex), 4)
        assert_allclose(da.detect_da(op, np.zeros(8)), np.ones(4))

    def test_full_load_genie_recovers_desired_user(self):
        rng = np.random.default_rng(22)
        n, nc = 4, 4
        codes = fdcore.walsh_code_set(nc)
        taps = generate_cir(ChannelProfile(3, 0.1, seed=23))
        w = da.build_mmse_da(taps, codes, 1e-12, n)
        blocks = fdcore.random_bpsk(rng, nc * n).reshape(nc, n)
        z = synthesize_rx(blocks, codes, taps, 0.0, rng)
        assert_allclose(da.detect_da(da.RxOperator(z, n), w), blocks[0])
