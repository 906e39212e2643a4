"""Channel-estimating detector: adaptive steps, detector builds, detection."""

import logging

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import (
    build_mmse_sce_exact,
    despread,
    detect_sce,
    detect_sce_exact,
    dft_matrix,
    fourier_tap_basis,
)
from uwbfde import fdcore, sce
from uwbfde.channel import generate_cir, ChannelProfile, synthesize_rx


def _random_complex(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _dense_from_blocks(blocks):
    """Expand (n, nc, nc) symbol-group blocks to the equivalent (m, m) matrix."""
    n, nc, _ = blocks.shape
    m = n * nc
    dense = np.zeros((m, m), complex)
    for g in range(n):
        idx = np.arange(g, m, n)
        dense[np.ix_(idx, idx)] = blocks[g]
    return dense


def _dense_genie_covariance(taps, codes, sigma2, n):
    """Oracle: the SCE genie's input covariance built from the DFT matrix."""
    k, nc = codes.shape
    m = n * nc
    spectrum = fdcore.tap_spectrum(taps, m)
    left = spectrum[:, None] * dft_matrix(m)
    mix = np.kron(np.eye(n), codes.T @ codes)
    return left @ mix @ left.conj().T + sigma2 * np.eye(m)


def _pilot_scene(rng, n=4, nc=2, num_taps=3, sigma2=0.0, users=1):
    codes = fdcore.walsh_code_set(nc)
    taps = generate_cir(ChannelProfile(num_taps, 0.2, seed=rng.integers(1 << 30)))
    blocks = fdcore.random_bpsk(rng, users * n).reshape(users, n)
    z = synthesize_rx(blocks, codes, taps, sigma2, rng)
    xdiag = sce.pilot_matrix(fdcore.spread(blocks[0], codes[0]))
    return taps, codes, blocks, z, xdiag


class TestPilotMatrix:
    def test_impulse(self):
        m = 4
        x = np.zeros(m)
        x[0] = 1.0
        assert_allclose(sce.pilot_matrix(x), np.full(m, 0.5 + 0j), atol=1e-15)

    def test_is_transform_of_chips(self):
        rng = np.random.default_rng(0)
        code = fdcore.walsh_code_set(2)[1]
        x = fdcore.spread(fdcore.random_bpsk(rng, 4), code)
        assert_allclose(sce.pilot_matrix(x), np.fft.fft(x, norm="ortho"), atol=1e-14)

    def test_matches_diag_of_explicit_matrix(self):
        rng = np.random.default_rng(1)
        x = _random_complex(rng, 8)
        explicit = np.diag(np.diag(dft_matrix(8) @ np.diag(x)) * 0 +
                           dft_matrix(8) @ x)
        assert_allclose(sce.pilot_matrix(x), np.diag(explicit), atol=1e-12)


class TestPilotOperator:
    def test_matches_weighted_dense_basis_and_its_adjoint(self):
        rng = np.random.default_rng(3)
        m, num_taps = 8, 3
        xdiag = _random_complex(rng, m)
        op = sce.PilotOperator(xdiag, num_taps)
        dense = xdiag[:, None] * fourier_tap_basis(m, num_taps)
        h, e = _random_complex(rng, num_taps), _random_complex(rng, m)
        assert_allclose(op.matvec(h), dense @ h, atol=1e-12)
        assert_allclose(op.rmatvec(e), dense.conj().T @ e, atol=1e-12)


class TestSceLms:
    def test_scalar_case(self):
        state = sce.new_lms_state(1, mu=0.5)
        sce.sce_lms_step(state, np.array([1.0 + 0j]), np.array([1.0 + 0j]))
        assert state.h_hat[0] == pytest.approx(0.5)

    def test_zero_error_fixed_point(self):
        rng = np.random.default_rng(2)
        taps, codes, blocks, z, xdiag = _pilot_scene(rng)
        state = sce.new_lms_state(3, mu=0.1)
        state.h_hat = taps.copy()
        sce.sce_lms_step(state, z, xdiag)
        assert_allclose(state.h_hat, taps, atol=1e-12)

    def test_noiseless_convergence(self):
        rng = np.random.default_rng(3)
        n, nc, num_taps = 8, 2, 3
        codes = fdcore.walsh_code_set(nc)
        taps = generate_cir(ChannelProfile(num_taps, 0.2, seed=99))
        state = sce.new_lms_state(num_taps, mu=0.01)
        for _ in range(2000):
            b = fdcore.random_bpsk(rng, n)
            z = synthesize_rx(b[None, :], codes, taps, 0.0, rng)
            xdiag = sce.pilot_matrix(fdcore.spread(b, codes[0]))
            sce.sce_lms_step(state, z, xdiag)
        assert np.linalg.norm(state.h_hat - taps) / np.linalg.norm(taps) < 1e-2

    def test_divergence_detection(self):
        rng = np.random.default_rng(4)
        _, _, _, z, xdiag = _pilot_scene(rng)
        state = sce.new_lms_state(3, mu=1e12)
        with np.errstate(all="ignore"), pytest.raises(fdcore.DivergenceError):
            for _ in range(200):
                sce.sce_lms_step(state, z * 1e3, xdiag * 1e3)


class TestSceRls:
    def test_scalar_one_step_lock(self):
        # unit pilot, tiny prior: the estimate lands on the true value immediately
        state = sce.new_rls_state(1, lam=1.0, delta=1e-12)
        h_true = 0.3 - 0.8j
        z = np.array([h_true])
        x = np.array([1.0 + 0j])
        sce.sce_rls_step(state, z, x)
        assert state.h_hat[0] == pytest.approx(h_true, rel=1e-9)
        sce.sce_rls_step(state, z, x)
        assert state.h_hat[0] == pytest.approx(h_true, rel=1e-9)

    def test_unit_forgetting_equals_batch_least_squares(self):
        rng = np.random.default_rng(5)
        n, nc, num_taps = 4, 2, 3
        m = n * nc
        state = sce.new_rls_state(num_taps, lam=1.0, delta=1e-10)
        basis = fourier_tap_basis(m, num_taps)
        gram = np.zeros((num_taps, num_taps), complex)
        rhs = np.zeros(num_taps, complex)
        codes = fdcore.walsh_code_set(nc)
        taps = generate_cir(ChannelProfile(num_taps, 0.1, seed=6))
        for _ in range(30):
            b = fdcore.random_bpsk(rng, n)
            z = synthesize_rx(b[None, :], codes, taps, 0.05, rng)
            xdiag = sce.pilot_matrix(fdcore.spread(b, codes[0]))
            sce.sce_rls_step(state, z, xdiag)
            weighted = xdiag[:, None] * basis
            gram += weighted.conj().T @ weighted
            rhs += weighted.conj().T @ z
        batch = np.linalg.solve(gram, rhs)
        assert np.linalg.norm(state.h_hat - batch) / np.linalg.norm(batch) < 1e-8

    def test_accumulator_stays_hermitian_psd(self):
        rng = np.random.default_rng(7)
        state = sce.new_rls_state(4, lam=0.97, delta=1e-3)
        for _ in range(100):
            _, _, _, z, xdiag = _pilot_scene(rng, n=4, nc=2, num_taps=4, sigma2=0.1)
            sce.sce_rls_step(state, z, xdiag)
        assert np.max(np.abs(state.corr - state.corr.conj().T)) < 1e-10
        assert np.min(np.linalg.eigvalsh(state.corr)) > -1e-10

    def test_singular_accumulator_regularized(self, caplog):
        state = sce.new_rls_state(2, lam=1.0, delta=0.5)
        state.corr = np.zeros((2, 2), complex)
        z = np.array([1.0 + 0j, 0.0])
        xdiag = np.zeros(2, complex)       # no excitation: accumulator stays zero
        with caplog.at_level(logging.WARNING, logger="uwbfde.sce"):
            sce.sce_rls_step(state, z, xdiag)
        assert "regularizing" in caplog.text
        assert np.all(np.isfinite(state.h_hat))


class TestSceCg:
    def test_zero_gradient_no_op(self):
        state = sce.new_cg_state(3, iters=5)
        z = np.zeros(8, complex)
        xdiag = np.zeros(8, complex)
        sce.sce_cg_step(state, z, xdiag)
        assert_allclose(state.h_hat, np.zeros(3))

    def test_finite_termination_solves_block(self):
        # tap-count iterations on one noiseless block reach that block's
        # least-squares solution
        rng = np.random.default_rng(8)
        n, nc, num_taps = 4, 4, 5
        m = n * nc
        taps, codes, blocks, z, xdiag = _pilot_scene(rng, n=n, nc=nc,
                                                     num_taps=num_taps)
        state = sce.new_cg_state(num_taps, iters=num_taps)
        sce.sce_cg_step(state, z, xdiag)
        basis = xdiag[:, None] * fourier_tap_basis(m, num_taps)
        gram = basis.conj().T @ basis
        rhs = basis.conj().T @ z
        assert np.linalg.norm(gram @ state.h_hat - rhs) <= 1e-6 * np.linalg.norm(rhs)

    def test_direction_gradient_identity(self):
        # the direction/gradient inner product equals the gradient energy at
        # every inner iteration
        rng = np.random.default_rng(9)
        _, _, _, z, xdiag = _pilot_scene(rng, n=8, nc=2, num_taps=4, sigma2=0.2,
                                         users=2)
        state = sce.new_cg_state(4, iters=4)
        trace = []
        sce.sce_cg_step(state, z, xdiag, trace=trace)
        assert trace
        for grad_energy, neg_dir_grad, _ in trace:
            assert abs(neg_dir_grad - grad_energy) <= 1e-10 * max(grad_energy, 1.0)

    def test_gradient_norm_decreases(self):
        rng = np.random.default_rng(10)
        _, _, _, z, xdiag = _pilot_scene(rng, n=8, nc=2, num_taps=4)
        state = sce.new_cg_state(4, iters=4)
        trace = []
        sce.sce_cg_step(state, z, xdiag, trace=trace)
        energies = [t[0] for t in trace]
        assert all(b <= a * (1 + 1e-9) for a, b in zip(energies, energies[1:]))


class TestBuildMmse:
    def test_flat_unit_channel_full_load(self):
        det = sce.build_mmse_sce([1.0], k_est=4, sigma2_est=1.0, nc=4, m=8)
        assert_allclose(det, np.full(8, 0.5 + 0j), atol=1e-14)

    def test_zero_forcing_limit(self):
        rng = np.random.default_rng(11)
        taps = _random_complex(rng, 3)
        m = 8
        det = sce.build_mmse_sce(taps, k_est=4, sigma2_est=0.0, nc=4, m=m)
        spectrum = fdcore.tap_spectrum(taps, m)
        assert_allclose(det.conj() * spectrum, np.ones(m), atol=1e-10)

    def test_matches_elementwise_formula(self):
        rng = np.random.default_rng(12)
        taps = _random_complex(rng, 4)
        m, k, nc, sigma2 = 16, 3, 8, 0.1
        det = sce.build_mmse_sce(taps, k, sigma2, nc, m)
        spectrum = fdcore.tap_spectrum(taps, m)
        expected = spectrum / ((k / nc) * np.abs(spectrum) ** 2 + sigma2)
        assert_allclose(det, expected, atol=1e-12)

    def test_dead_bin_zero_forced(self):
        # two equal-and-opposite taps null the first bin; with no noise that
        # bin's weight must be zeroed rather than divided by zero
        det = sce.build_mmse_sce([1.0, -1.0], k_est=2, sigma2_est=0.0, nc=2, m=2)
        assert det[0] == 0
        assert np.isfinite(det).all()

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            sce.build_mmse_sce([1.0], 1, -0.1, 2, 4)
        with pytest.raises(ValueError):
            sce.build_mmse_sce([1.0], -1, 0.1, 2, 4)


class TestBuildMmseExact:
    def test_full_load_equals_diagonal_detector(self):
        rng = np.random.default_rng(13)
        n, nc = 4, 4
        taps = generate_cir(ChannelProfile(3, 0.1, seed=14))
        codes = fdcore.walsh_code_set(nc)
        sigma2 = 0.3
        dense = _dense_from_blocks(build_mmse_sce_exact(taps, codes, sigma2, n))
        diag = sce.build_mmse_sce(taps, nc, sigma2, nc, n * nc)
        assert np.max(np.abs(dense - np.diag(diag))) < 1e-10

    def test_high_noise_matched_filter_limit(self):
        rng = np.random.default_rng(15)
        n, nc = 4, 2
        taps = generate_cir(ChannelProfile(2, 0.1, seed=16))
        codes = fdcore.walsh_code_set(nc)
        sigma2 = 1e6
        dense = _dense_from_blocks(build_mmse_sce_exact(taps, codes[:1], sigma2, n))
        spectrum = fdcore.tap_spectrum(taps, n * nc)
        assert np.max(np.abs(dense - np.diag(spectrum / sigma2))) < 0.01 / sigma2

    def test_normal_equation_residual(self):
        # includes n != nc and K < nc
        rng = np.random.default_rng(17)
        for n, nc, k in [(2, 4, 3), (8, 4, 3), (4, 8, 5)]:
            m = n * nc
            taps = _random_complex(rng, 3)
            codes = fdcore.walsh_code_set(nc)
            sigma2 = 0.2
            dense = _dense_from_blocks(build_mmse_sce_exact(taps, codes[:k], sigma2, n))
            spectrum = fdcore.tap_spectrum(taps, m)
            cov = _dense_genie_covariance(taps, codes[:k], sigma2, n)
            assert np.linalg.norm(cov @ dense - np.diag(spectrum)) < 1e-8

    def test_large_block_keeps_group_shape(self):
        taps = generate_cir(ChannelProfile(34, 0.35, seed=19))
        codes = fdcore.walsh_code_set(8)[:3]
        blocks = build_mmse_sce_exact(taps, codes, 0.05, 256)
        assert blocks.shape == (256, 8, 8)
        assert np.all(np.isfinite(blocks))

    def test_noiseless_rank_deficient_raises(self):
        taps = generate_cir(ChannelProfile(2, 0.1, seed=18))
        codes = fdcore.walsh_code_set(4)
        with pytest.raises(np.linalg.LinAlgError):
            build_mmse_sce_exact(taps, codes[:2], 0.0, 4)


class TestDetect:
    def test_noiseless_single_user_perfect_estimate(self):
        rng = np.random.default_rng(19)
        n, nc = 8, 4
        codes = fdcore.walsh_code_set(nc)
        taps = generate_cir(ChannelProfile(3, 0.2, seed=20))
        for _ in range(20):
            b = fdcore.random_bpsk(rng, n)
            z = synthesize_rx(b[None, :], codes, taps, 0.0, rng)
            det = sce.build_mmse_sce(taps, 1, 0.0, nc, n * nc)
            assert_allclose(detect_sce(z, det, codes[0]), b)

    def test_group_blocks_apply_like_dense_matrix(self):
        rng = np.random.default_rng(23)
        n, nc = 8, 4
        codes = fdcore.walsh_code_set(nc)
        blocks = build_mmse_sce_exact(_random_complex(rng, 5), codes[:3], 0.1, n)
        dense = _dense_from_blocks(blocks)
        for _ in range(5):
            z = _random_complex(rng, n * nc)
            soft = despread(np.fft.ifft(dense.conj().T @ z, norm="ortho"), codes[0])
            assert_allclose(detect_sce_exact(z, blocks, codes[0]),
                            np.where(soft.real >= 0, 1.0, -1.0))

    def test_zero_input_resolves_positive(self):
        det = np.ones(8, complex)
        bits = detect_sce(np.zeros(8, complex), det, fdcore.walsh_code_set(2)[0])
        assert_allclose(bits, np.ones(4))

    def test_full_load_exact_detector_recovers_every_user(self):
        rng = np.random.default_rng(21)
        n, nc = 4, 4
        codes = fdcore.walsh_code_set(nc)
        taps = generate_cir(ChannelProfile(3, 0.1, seed=22))
        dense = build_mmse_sce_exact(taps, codes, 1e-12, n)
        blocks = fdcore.random_bpsk(rng, nc * n).reshape(nc, n)
        z = synthesize_rx(blocks, codes, taps, 0.0, rng)
        for k in range(nc):
            assert_allclose(detect_sce_exact(z, dense, codes[k]), blocks[k])


class TestNormalEquations:
    """Every SCE step adapts on the block's normal equations (G, b); CG runs
    on ``G h = b``. The batch holds two degenerate pilots: all-equal bits
    excite one bin and alternating bits two, fewer than the three taps."""

    N, NC, TAPS = 4, 2, 3

    def _batch(self):
        rng = np.random.default_rng(24)
        codes = fdcore.walsh_code_set(self.NC)
        bits = np.stack([fdcore.random_bpsk(rng, self.N), np.ones(self.N),
                         np.array([1.0, -1.0, 1.0, -1.0]), fdcore.random_bpsk(rng, self.N)])
        taps = np.stack([generate_cir(ChannelProfile(self.TAPS, 0.2, seed=[25, r]))
                         for r in range(len(bits))])
        rngs = [np.random.default_rng([26, r]) for r in range(len(bits))]
        z = synthesize_rx(bits[:, None, :], codes, taps, 0.1, rngs)
        xdiag = sce.pilot_matrix(fdcore.spread(bits, codes[0]))
        return z, xdiag

    def _basis(self, xdiag):
        return xdiag[:, None] * fourier_tap_basis(self.N * self.NC, self.TAPS)

    def test_gram_and_rhs_equal_the_dense_basis_products(self):
        z, xdiag = self._batch()
        normal = sce.NormalEquations(z, xdiag, self.TAPS)
        ranks = []
        for r in range(len(z)):
            basis = self._basis(xdiag[r])
            assert_allclose(normal.gram[r], basis.conj().T @ basis, atol=1e-12)
            assert_allclose(normal.rhs[r], basis.conj().T @ z[r], atol=1e-12)
            ranks.append(np.linalg.matrix_rank(basis))
        assert ranks == [self.TAPS, 1, 2, self.TAPS]

    def test_cg_matches_least_squares_and_one_row_calls(self):
        z, xdiag = self._batch()
        iters = 2 * self.TAPS + 2
        batched = sce.new_cg_state(self.TAPS, iters, batch=(len(z),))
        sce.sce_cg_step(batched, z, sce.NormalEquations(z, xdiag, self.TAPS))
        assert np.all(np.isfinite(batched.h_hat))
        for r in range(len(z)):
            single = sce.new_cg_state(self.TAPS, iters)
            sce.sce_cg_step(single, z[r], xdiag[r])
            np.testing.assert_array_equal(batched.h_hat[r], single.h_hat)
            # CG from zero stays in the gram's range: the minimum-norm solution
            expected = np.linalg.lstsq(self._basis(xdiag[r]), z[r], rcond=None)[0]
            assert_allclose(batched.h_hat[r], expected, atol=1e-9)

    def test_cg_matches_cgls_on_the_pilot_operator(self):
        # default scenario: n=32, nc=8, L=34, three users at 16 dB
        rng = np.random.default_rng(27)
        n, nc, num_taps = 32, 8, 34
        codes = fdcore.walsh_code_set(nc)
        taps = generate_cir(ChannelProfile(num_taps, 0.35, seed=28))
        blocks = fdcore.random_bpsk(rng, 3 * n).reshape(3, n)
        z = synthesize_rx(blocks, codes, taps, 10 ** -1.6, rng)
        xdiag = sce.pilot_matrix(fdcore.spread(blocks[0], codes[0]))
        for iters in (8, 60):
            state = sce.new_cg_state(num_taps, iters)
            sce.sce_cg_step(state, z, xdiag)
            cgls = np.zeros(num_taps, complex)
            fdcore.cg_least_squares(cgls, sce.PilotOperator(xdiag, num_taps), z, iters)
            assert_allclose(state.h_hat, cgls, rtol=1e-8)

    def test_every_step_accepts_the_prepared_equations(self):
        z, xdiag = self._batch()
        normal = sce.NormalEquations(z, xdiag, self.TAPS)
        for new_state, step in ((lambda: sce.new_lms_state(self.TAPS, 0.05, batch=(4,)),
                                 sce.sce_lms_step),
                                (lambda: sce.new_rls_state(self.TAPS, 0.9, batch=(4,)),
                                 sce.sce_rls_step),
                                (lambda: sce.new_cg_state(self.TAPS, 3, batch=(4,)),
                                 sce.sce_cg_step)):
            prepared, raw = new_state(), new_state()
            step(prepared, z, normal)
            step(raw, z, xdiag)
            np.testing.assert_array_equal(prepared.h_hat, raw.h_hat)
