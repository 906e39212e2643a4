"""Channel generation, file import, frequency response and block synthesis."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from oracles import circulant_matrix, dft_matrix
from uwbfde import fdcore
from uwbfde.channel import ChannelProfile, generate_cir, load_cir, synthesize_rx


class TestGenerateCir:
    def test_single_tap_unit_modulus(self):
        taps = generate_cir(ChannelProfile(1, seed=0))
        assert taps.shape == (1,)
        assert abs(taps[0]) == pytest.approx(1.0)

    def test_deterministic_given_seed(self):
        p = ChannelProfile(16, 0.2, seed=123)
        assert_allclose(generate_cir(p), generate_cir(p))

    def test_unit_energy_when_normalized(self):
        taps = generate_cir(ChannelProfile(34, 0.35, seed=5))
        assert np.linalg.norm(taps) == pytest.approx(1.0, abs=1e-12)

    def test_flat_profile_power_uniform(self):
        # Monte-Carlo oracle: zero decay gives equal mean power per tap
        acc = np.zeros(100)
        for draw in range(10_000):
            taps = generate_cir(ChannelProfile(100, 0.0, seed=[42, draw], normalize=False))
            acc += np.abs(taps) ** 2
        acc /= 10_000
        assert np.all(np.abs(acc - 1.0) < 0.05)

    def test_decay_rate_shapes_power(self):
        rate = 0.5
        acc = np.zeros(10)
        for draw in range(4000):
            taps = generate_cir(ChannelProfile(10, rate, seed=[7, draw], normalize=False))
            acc += np.abs(taps) ** 2
        acc /= 4000
        assert_allclose(acc, np.exp(-rate * np.arange(10)), rtol=0.1)

    def test_invalid_profile(self):
        with pytest.raises(ValueError):
            ChannelProfile(0)
        with pytest.raises(ValueError):
            ChannelProfile(4, decay_rate=-1.0)


class TestLoadCir:
    def test_single_tap(self, tmp_path):
        path = tmp_path / "cir.txt"
        path.write_text("1,0\n")
        assert_allclose(load_cir(path), [1 + 0j])

    def test_truncation(self, tmp_path):
        path = tmp_path / "cir.txt"
        path.write_text("".join(f"{i},{-i}\n" for i in range(100)))
        taps = load_cir(path, num_taps=34)
        assert taps.shape == (34,)
        assert taps[33] == pytest.approx(33 - 33j)

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "cir.txt"
        path.write_text("# header\n\n0.5,0.5\n# trailing\n1,-1\n")
        assert_allclose(load_cir(path), [0.5 + 0.5j, 1 - 1j])

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "cir.txt"
        path.write_text("1,0\nnot-a-tap\n")
        with pytest.raises(ValueError, match="line 2"):
            load_cir(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "cir.txt"
        path.write_text("# nothing\n")
        with pytest.raises(ValueError, match="no taps"):
            load_cir(path)

    def test_taps_without_energy_rejected(self, tmp_path):
        # the power-inversion user count divides by the channel energy
        path = tmp_path / "cir.txt"
        path.write_text("0,0\n0,0\n1,0\n")
        with pytest.raises(ValueError, match="no energy in the first 2 taps"):
            load_cir(path, num_taps=2)
        assert_allclose(load_cir(path), [0, 0, 1])
        path.write_text("0,0\n")
        with pytest.raises(ValueError, match="no energy in the first 1 taps"):
            load_cir(path)


class TestFreqResponse:
    """The channel frequency response is ``fdcore.tap_spectrum`` of the taps."""

    def test_single_tap_flat(self):
        assert_allclose(fdcore.tap_spectrum([1.0], 8), np.ones(8))

    def test_pure_delay_phase_ramp(self):
        assert_allclose(fdcore.tap_spectrum([0.0, 1.0], 4), [1, -1j, -1, 1j], atol=1e-14)

    def test_matches_diagonalized_circulant(self):
        rng = np.random.default_rng(10)
        taps = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        m = 8
        fmat = dft_matrix(m)
        h_mat = circulant_matrix(taps, m)
        diag = np.diag(fmat @ h_mat @ fmat.conj().T)
        assert_allclose(fdcore.tap_spectrum(taps, m), diag, atol=1e-10)

    def test_linearity(self):
        rng = np.random.default_rng(11)
        h1 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        h2 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        a = 0.7 - 1.3j
        assert_allclose(fdcore.tap_spectrum(a * h1 + h2, 16),
                        a * fdcore.tap_spectrum(h1, 16) + fdcore.tap_spectrum(h2, 16),
                        atol=1e-12)

    def test_energy_scaling(self):
        # total spectral energy is the bin count times the tap energy
        rng = np.random.default_rng(12)
        taps = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        spec = fdcore.tap_spectrum(taps, 32)
        assert np.sum(np.abs(spec) ** 2) == pytest.approx(
            32 * np.sum(np.abs(taps) ** 2), rel=1e-9)


class TestSynthesizeRx:
    def test_noiseless_single_user_identity_channel(self):
        rng = np.random.default_rng(13)
        codes = fdcore.walsh_code_set(4)
        b = fdcore.random_bpsk(rng, 8)
        z = synthesize_rx(b[None, :], codes, [1.0], 0.0, rng)
        assert_allclose(z, np.fft.fft(fdcore.spread(b, codes[0]), norm="ortho"), atol=1e-13)

    def test_noiseless_two_users_superpose(self):
        rng = np.random.default_rng(14)
        codes = fdcore.walsh_code_set(4)
        taps = np.array([0.8, 0.3 - 0.2j])
        blocks = fdcore.random_bpsk(rng, 12).reshape(2, 6)
        z = synthesize_rx(blocks, codes, taps, 0.0, rng)
        expected = fdcore.circulant_apply(
            taps,
            fdcore.spread(blocks[0], codes[0]) + fdcore.spread(blocks[1], codes[1]))
        assert_allclose(z, np.fft.fft(expected, norm="ortho"), atol=1e-13)

    def test_matches_explicit_matrix_pipeline(self):
        rng = np.random.default_rng(15)
        n, nc, k = 3, 4, 3
        m = n * nc
        codes = fdcore.walsh_code_set(nc)
        taps = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        blocks = fdcore.random_bpsk(rng, k * n).reshape(k, n)
        z = synthesize_rx(blocks, codes, taps, 0.0, rng)
        fmat = dft_matrix(m)
        h_mat = circulant_matrix(taps, m)
        chips = sum(fdcore.spread(blocks[i], codes[i]) for i in range(k))
        assert_allclose(z, fmat @ h_mat @ chips, atol=1e-12)

    def test_given_spectrum_replaces_the_taps_bitwise(self):
        # a batch with noiseless rows (noise added by index) and one where
        # every row is noisy (added by slice)
        n, nc, rows = 6, 4, 5
        codes = fdcore.walsh_code_set(nc)
        taps = generate_cir(ChannelProfile(4, 0.3, seed=21))[None] * np.arange(1, rows + 1)[:, None]
        spectrum = fdcore.tap_spectrum(taps, n * nc)
        blocks = fdcore.random_bpsk(np.random.default_rng(22), rows * 3 * n).reshape(rows, 3, n)
        for sigma2 in ([0.1, 0.0, 0.3, 0.0, 0.2], 0.05):
            z = [synthesize_rx(blocks, codes, taps, sigma2,
                               [np.random.default_rng([23, r]) for r in range(rows)], **given)
                 for given in ({}, {"spectrum": spectrum})]
            assert_array_equal(z[0], z[1])
        chips = fdcore.spread(blocks[:, 0], codes[0])
        assert_array_equal(fdcore.circulant_apply(None, chips, spectrum),
                           fdcore.circulant_apply(taps, chips))

    def test_pure_noise_variance(self):
        rng = np.random.default_rng(16)
        codes = fdcore.walsh_code_set(4)
        sigma2 = 0.7
        # the unitary transform keeps white noise white with the same variance
        z = synthesize_rx(np.zeros((0, 2500)), codes, [1.0], sigma2, rng)
        assert z.size == 10_000
        measured = np.mean(np.abs(z) ** 2)
        assert abs(measured - sigma2) / sigma2 < 0.05

    def test_code_exhaustion(self):
        rng = np.random.default_rng(17)
        codes = fdcore.walsh_code_set(2)
        blocks = np.ones((3, 4))
        with pytest.raises(ValueError, match="K exceeds Nc"):
            synthesize_rx(blocks, codes, [1.0], 0.0, rng)

    def test_negative_noise_variance(self):
        rng = np.random.default_rng(18)
        with pytest.raises(ValueError):
            synthesize_rx(np.ones((1, 4)), fdcore.walsh_code_set(2), [1.0], -0.1, rng)
