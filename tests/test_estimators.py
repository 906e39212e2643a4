"""Noise-variance and active-user-count estimators."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from oracles import fourier_tap_basis
from uwbfde import fdcore
from uwbfde.channel import ChannelProfile, generate_cir, synthesize_rx
from uwbfde.estimators import (
    GroupCovariance,
    estimate_user_count,
    ml_noise_variance,
    subspace_estimate,
    update_covariance,
)
from uwbfde.sce import pilot_matrix


def _pilot_block(rng, n, nc, taps, sigma2, users=1):
    codes = fdcore.walsh_code_set(nc)
    blocks = fdcore.random_bpsk(rng, users * n).reshape(users, n)
    z = synthesize_rx(blocks, codes, taps, sigma2, rng)
    return z, pilot_matrix(fdcore.spread(blocks[0], codes[0]))


class TestMlNoiseVariance:
    def test_noiseless_exact_fit(self):
        rng = np.random.default_rng(0)
        taps = generate_cir(ChannelProfile(4, 0.2, seed=1))
        z, xdiag = _pilot_block(rng, 8, 2, taps, 0.0)
        sigma2_hat, taps_hat = ml_noise_variance(z, xdiag, 4)
        assert sigma2_hat < 1e-20
        assert_allclose(taps_hat, taps, atol=1e-10)

    def test_single_user_mean_close_to_truth(self):
        # Monte-Carlo oracle with a short tap vector
        rng = np.random.default_rng(2)
        n, nc, num_taps = 32, 8, 8
        taps = generate_cir(ChannelProfile(num_taps, 0.3, seed=3))
        total = 0.0
        for _ in range(200):
            z, xdiag = _pilot_block(rng, n, nc, taps, 0.1)
            total += ml_noise_variance(z, xdiag, num_taps)[0]
        assert abs(total / 200 - 0.1) / 0.1 < 0.10

    def test_dof_correction_removes_bias(self):
        rng = np.random.default_rng(4)
        n, nc, num_taps = 32, 8, 34
        taps = generate_cir(ChannelProfile(num_taps, 0.3, seed=5))
        # dividing by the bin count instead would read 0.2 * (m - L) / m,
        # 13% low here, outside the tolerance
        corrected = 0.0
        for _ in range(150):
            z, xdiag = _pilot_block(rng, n, nc, taps, 0.2)
            corrected += ml_noise_variance(z, xdiag, num_taps)[0]
        assert corrected / 150 == pytest.approx(0.2, rel=0.05)

    def test_multiuser_high_snr_overestimates(self):
        # interference leaks into the residual, inflating the estimate
        rng = np.random.default_rng(6)
        taps = generate_cir(ChannelProfile(8, 0.3, seed=7))
        sigma2 = 10 ** (-1.6)
        total = 0.0
        for _ in range(100):
            z, xdiag = _pilot_block(rng, 32, 8, taps, sigma2, users=5)
            total += ml_noise_variance(z, xdiag, 8)[0]
        assert total / 100 > sigma2

    @pytest.mark.parametrize("n, nc, num_taps", [(32, 8, 34), (8, 2, 3)])
    def test_matches_dense_tap_basis_fit(self, n, nc, num_taps):
        # the structured fit against the least-squares fit on the dense
        # (m, num_taps) pilot-weighted Fourier basis
        rng = np.random.default_rng(11)
        taps = generate_cir(ChannelProfile(num_taps, 0.3, seed=12))
        m = n * nc
        for _ in range(5):
            z, xdiag = _pilot_block(rng, n, nc, taps, 0.1, users=2)
            basis = xdiag[:, None] * fourier_tap_basis(m, num_taps)
            dense_taps = np.linalg.lstsq(basis, z, rcond=None)[0]
            resid = z - basis @ dense_taps
            sigma2_hat, taps_hat = ml_noise_variance(z, xdiag, num_taps)
            assert_allclose(taps_hat, dense_taps, rtol=1e-10, atol=1e-12)
            assert sigma2_hat == pytest.approx(np.vdot(resid, resid).real / (m - num_taps),
                                               rel=1e-10)

    def test_rank_deficient_pilot_raises_with_condition(self):
        xdiag = np.zeros(8, complex)
        xdiag[0] = 1.0          # one excited bin cannot determine four taps
        z = np.ones(8, complex)
        with pytest.raises(np.linalg.LinAlgError, match="rank deficient"):
            ml_noise_variance(z, xdiag, 4)

    def test_invariant_under_consistent_bin_reordering(self):
        rng = np.random.default_rng(8)
        taps = generate_cir(ChannelProfile(3, 0.2, seed=9))
        z, xdiag = _pilot_block(rng, 8, 2, taps, 0.3)
        perm = rng.permutation(z.size)
        ref, _ = ml_noise_variance(z, xdiag, 3)
        # reordering bins permutes the basis rows identically, leaving the
        # residual energy unchanged; emulate via direct computation
        m = z.size
        basis = xdiag[:, None] * fourier_tap_basis(m, 3)
        taps_hat = np.linalg.lstsq(basis[perm], z[perm], rcond=None)[0]
        resid = z[perm] - basis[perm] @ taps_hat
        assert np.vdot(resid, resid).real / (m - 3) == pytest.approx(ref, rel=1e-9)

    def test_rejects_fit_without_residual_degrees_of_freedom(self):
        with pytest.raises(ValueError, match="num_taps"):
            ml_noise_variance(np.ones(4, complex), np.ones(4, complex), 4)

    def test_always_nonnegative(self):
        # short blocks can null enough pilot bins to make the fit rank
        # deficient, which is a legitimate error; skip those draws
        rng = np.random.default_rng(10)
        taps = generate_cir(ChannelProfile(3, 0.2, seed=11))
        checked = 0
        for _ in range(20):
            z, xdiag = _pilot_block(rng, 4, 2, taps, 0.5, users=2)
            try:
                sigma2_hat, _ = ml_noise_variance(z, xdiag, 3)
            except np.linalg.LinAlgError:
                continue
            assert sigma2_hat >= 0
            checked += 1
        assert checked >= 10


class TestPowerAccumulator:
    # the group covariance's trace is the received energy; times m its
    # received power per bin is the time-averaged block energy
    def test_zero_block(self):
        state = update_covariance(GroupCovariance.empty(4, 2), np.zeros(8, complex))
        assert state.received_power * 8 == 0.0

    def test_arithmetic_mean(self):
        state = GroupCovariance.empty(1, 2)
        update_covariance(state, np.array([2.0, 0.0], dtype=complex))   # energy 4
        update_covariance(state, np.array([2.0, 2.0], dtype=complex))   # energy 8
        assert state.received_power * 2 == pytest.approx(6.0)

    def test_converges_to_expected_power(self):
        rng = np.random.default_rng(14)
        state = GroupCovariance.empty(16, 4)
        m, sigma2 = 64, 0.5
        for _ in range(10_000):
            z = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) * np.sqrt(sigma2 / 2)
            update_covariance(state, z)
        assert abs(state.received_power * m - sigma2 * m) / (sigma2 * m) < 0.02

    def test_requires_blocks_before_reading(self):
        with pytest.raises(ValueError):
            _ = GroupCovariance.empty(4, 2).received_power


class TestUserCount:
    def test_formula_inversion(self):
        # unit channel energy, no noise: the count reads straight off the power
        assert estimate_user_count(p_r=3 / 4, sigma2=0.0, taps=[1.0], nc=4, m=1) == 3.0

    def test_full_load_noiseless_consistency(self):
        # at full load the code mixing is exactly the identity, so the
        # time-averaged count converges to the spreading gain
        rng = np.random.default_rng(15)
        n, nc = 8, 4
        m = n * nc
        codes = fdcore.walsh_code_set(nc)
        taps = generate_cir(ChannelProfile(3, 0.2, seed=16))
        state = GroupCovariance.empty(n, nc)
        for _ in range(1000):
            blocks = fdcore.random_bpsk(rng, nc * n).reshape(nc, n)
            z = synthesize_rx(blocks, codes, taps, 0.0, rng)
            update_covariance(state, z)
        assert estimate_user_count(state.received_power * m, 0.0, taps, nc, m) == pytest.approx(
            nc, abs=0.15)

    def test_given_spectrum_replaces_the_taps_bitwise(self):
        taps = np.stack([generate_cir(ChannelProfile(3, 0.2, seed=[17, r])) for r in range(4)])
        p_r = np.array([0.5, 1.0, 2.0, 3.0])
        assert_array_equal(estimate_user_count(p_r, 0.1, None, 4, 16,
                                               fdcore.tap_spectrum(taps, 16)),
                           estimate_user_count(p_r, 0.1, taps, 4, 16))

    def test_monotonicity(self):
        taps = [1.0]
        base = estimate_user_count(2.0, 0.1, taps, 4, 1)
        assert estimate_user_count(3.0, 0.1, taps, 4, 1) > base
        assert estimate_user_count(2.0, 0.5, taps, 4, 1) < base


def _covariance(rng, n, nc, taps, sigma2, users, blocks):
    codes = fdcore.walsh_code_set(nc)
    state = GroupCovariance.empty(n, nc)
    for _ in range(blocks):
        data = fdcore.random_bpsk(rng, users * n).reshape(users, n)
        z = synthesize_rx(data, codes, taps, sigma2, rng)
        update_covariance(state, z)
    return state


class TestSubspaceEstimate:
    def test_noise_floor_equals_the_per_row_mean(self):
        # sigma2 is taken with one vector step per distinct order; it equals
        # each row's own mean of its nc - k_int smallest eigenvalues, bitwise
        rng = np.random.default_rng(31)
        n, nc, rows = 8, 4, 240
        codes = fdcore.walsh_code_set(nc)
        taps = np.stack([generate_cir(ChannelProfile(3, 0.2, seed=[32, r])) for r in range(rows)])
        users = rng.integers(0, nc + 1, rows)
        sigma2 = 10.0 ** -rng.uniform(0, 2, rows)
        gens = [np.random.default_rng([33, r]) for r in range(rows)]
        state = GroupCovariance.empty(n, nc, (rows,))
        for _ in range(30):
            data = fdcore.random_bpsk(rng, rows * nc * n).reshape(rows, nc, n)
            data[np.arange(nc) >= users[:, None]] = 0.0
            update_covariance(state, synthesize_rx(data, codes, taps, sigma2, gens))
        est = subspace_estimate(state)
        eig = np.maximum(np.linalg.eigvalsh(state.acc / state.blocks), 0.0)
        assert len(np.unique(est.k_int)) >= 4
        assert_array_equal(est.sigma2, [e[:, :nc - k].mean() for e, k in zip(eig, est.k_int)])

    def test_groups_bins_congruent_mod_n(self):
        n, nc = 4, 2
        z = np.arange(n * nc, dtype=complex)
        state = update_covariance(GroupCovariance.empty(n, nc), z)
        for g in range(n):
            zg = z[g::n]
            assert_allclose(state.acc[g], np.outer(zg, zg.conj()))
        assert state.received_power == pytest.approx(np.vdot(z, z).real / z.size)

    def test_pure_noise(self):
        rng = np.random.default_rng(20)
        state = _covariance(rng, 16, 8, [1.0], 0.3, 0, 400)
        est = subspace_estimate(state, cap=7)
        assert not est.startup
        assert est.k_int == 0
        assert est.k_float == 0.0
        assert est.sigma2 == pytest.approx(0.3, rel=0.05)

    @pytest.mark.parametrize("users", [1, 3, 5])
    def test_rank_k_groups_high_snr(self, users):
        rng = np.random.default_rng(21 + users)
        taps = generate_cir(ChannelProfile(8, 0.3, seed=22))
        sigma2 = 10 ** (-2.0)
        state = _covariance(rng, 16, 8, taps, sigma2, users, 300)
        est = subspace_estimate(state, cap=7)
        assert est.k_int == users
        assert users - 1 <= est.k_float <= users
        assert est.sigma2 == pytest.approx(sigma2, rel=0.10)

    def test_startup_values_until_more_than_nc_blocks(self):
        rng = np.random.default_rng(23)
        taps = generate_cir(ChannelProfile(4, 0.3, seed=24))
        n, nc = 8, 4
        state = GroupCovariance.empty(n, nc)
        codes = fdcore.walsh_code_set(nc)
        for _ in range(nc):
            data = fdcore.random_bpsk(rng, 2 * n).reshape(2, n)
            z = synthesize_rx(data, codes, taps, 0.1, rng)
            update_covariance(state, z)
            est = subspace_estimate(state, cap=3)
            assert est.startup
            assert (est.k_int, est.k_float) == (3, 3.0)
            assert est.sigma2 == pytest.approx(state.received_power)
        update_covariance(state, z)
        assert not subspace_estimate(state, cap=3).startup

    def test_requires_blocks_before_reading(self):
        with pytest.raises(ValueError):
            subspace_estimate(GroupCovariance.empty(4, 2))

    def test_noiseless_rank_deficient_groups_stay_finite(self):
        rng = np.random.default_rng(25)
        taps = generate_cir(ChannelProfile(4, 0.3, seed=26))
        state = _covariance(rng, 8, 4, taps, 0.0, 2, 40)
        with np.errstate(all="raise"):
            est = subspace_estimate(state, cap=7)
        assert est.k_int == 2
        assert math.isfinite(est.sigma2) and 0.0 <= est.sigma2 < 1e-12

    def test_all_zero_input_stays_finite(self):
        state = GroupCovariance.empty(4, 2)
        for _ in range(5):
            update_covariance(state, np.zeros(8, complex))
        with np.errstate(all="raise"):
            est = subspace_estimate(state)
        assert (est.k_int, est.sigma2) == (0, 0.0)

    def test_full_load_caps_order_and_bounds_noise(self):
        # every code in use: no noise subspace, so the order stops at nc-1
        # and the smallest eigenvalue bounds the noise variance from above
        rng = np.random.default_rng(27)
        taps = generate_cir(ChannelProfile(4, 0.3, seed=28))
        n, nc, sigma2 = 8, 4, 0.05
        state = _covariance(rng, n, nc, taps, sigma2, nc, 200)
        est = subspace_estimate(state, cap=7)
        assert est.k_int == nc - 1
        assert est.k_float <= nc - 1
        smallest = np.linalg.eigvalsh(state.acc / state.blocks)[:, 0]
        assert est.sigma2 == pytest.approx(smallest.mean())
        assert est.sigma2 > 0.8 * sigma2

    def test_cap_clamps_order(self):
        rng = np.random.default_rng(29)
        taps = generate_cir(ChannelProfile(4, 0.3, seed=30))
        state = _covariance(rng, 8, 8, taps, 1e-3, 5, 100)
        est = subspace_estimate(state, cap=2)
        assert est.k_int == 2
        assert est.k_float <= 2

    def test_sample_covariance_matches_genie_covariance(self):
        # the received covariance of each symbol group converges to the genie
        # detectors' input covariance, which is built from the truth
        rng = np.random.default_rng(31)
        n, nc, users, sigma2 = 8, 4, 2, 0.1
        taps = generate_cir(ChannelProfile(3, 0.2, seed=32))
        state = _covariance(rng, n, nc, taps, sigma2, users, 4000)
        cov, _ = fdcore.genie_covariance(taps, fdcore.walsh_code_set(nc)[:users], sigma2, n)
        err = np.max(np.abs(state.acc / state.blocks - cov))
        assert err < 0.05 * np.max(np.abs(cov))
