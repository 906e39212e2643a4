"""Signal-chain primitive tests: frozen examples, explicit-matrix oracles and
algebraic properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.linalg import hadamard

from oracles import (
    add_cp,
    circulant_matrix,
    despread,
    dft_matrix,
    expand_symbols,
    expansion_matrix,
    fourier_tap_basis,
    remove_cp,
    tile_segments,
)
from uwbfde import fdcore


def _random_complex(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _dft(x):
    return np.fft.fft(x, norm="ortho")


def _idft(z):
    return np.fft.ifft(z, norm="ortho")


complex_vectors = st.lists(
    st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
    min_size=1, max_size=16)


class TestDft:
    """The unitary transform convention of the received spectrum, and the
    DFT-matrix oracle."""

    def test_impulse_is_flat(self):
        assert_allclose(_dft([1, 0, 0, 0]), np.full(4, 0.5 + 0j), atol=1e-15)

    def test_dc_concentrates(self):
        assert_allclose(_dft([1, 1, 1, 1]), [2, 0, 0, 0], atol=1e-14)

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(1)
        x = _random_complex(rng, 8)
        m = 8
        direct = np.array([
            sum(x[b] * np.exp(-2j * np.pi * a * b / m) for b in range(m)) / np.sqrt(m)
            for a in range(m)])
        assert_allclose(_dft(x), direct, atol=1e-12)
        assert_allclose(dft_matrix(m) @ x, direct, atol=1e-12)

    def test_idft_round_trip(self):
        assert_allclose(_idft(_dft([1, 0, 0, 0])), [1, 0, 0, 0], atol=1e-12)

    def test_idft_symmetry(self):
        assert_allclose(_idft([1, 0, 0, 0]), np.full(4, 0.5 + 0j), atol=1e-15)

    def test_idft_matches_adjoint_summation(self):
        rng = np.random.default_rng(2)
        z = _random_complex(rng, 8)
        fmat = dft_matrix(8)
        assert_allclose(_idft(z), fmat.conj().T @ z, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(complex_vectors)
    def test_unitarity(self, values):
        x = np.asarray(values)
        assert np.linalg.norm(_dft(x)) == pytest.approx(
            np.linalg.norm(x), rel=1e-10, abs=1e-12)


class TestWalshCodes:
    def test_single_code(self):
        assert_allclose(fdcore.walsh_code_set(1), [[1.0]])

    def test_order_two(self):
        r = 1 / np.sqrt(2)
        assert_allclose(fdcore.walsh_code_set(2), [[r, r], [r, -r]])

    def test_order_eight_orthonormal(self):
        codes = fdcore.walsh_code_set(8)
        assert_allclose(codes @ codes.T, np.eye(8), atol=1e-15)

    @pytest.mark.parametrize("nc", [2 ** k for k in range(8)])
    def test_equals_scipy_hadamard(self, nc):
        assert_array_equal(fdcore.walsh_code_set(nc), hadamard(nc) / np.sqrt(nc), strict=True)

    @pytest.mark.parametrize("bad", [0, 3, 6, -4])
    def test_rejects_non_powers_of_two(self, bad):
        with pytest.raises(ValueError):
            fdcore.walsh_code_set(bad)

    def test_full_set_completeness(self):
        # chip-domain mixing matrix of the full code set is the identity
        for nc in (2, 4, 8):
            codes = fdcore.walsh_code_set(nc)
            mix = codes.T @ codes
            assert_allclose(mix, np.eye(nc), atol=1e-14)
            n = 3
            d_all = np.zeros((n * nc, n * nc))
            for k in range(nc):
                for i in range(n):
                    d_all[i * nc:(i + 1) * nc, k * n + i] = codes[k]
            assert_allclose(d_all @ d_all.T, np.eye(n * nc), atol=1e-13)


class TestRandomBits:
    """``random_bits`` reads an even count's bits from raw generator words;
    these pin it to ``Generator.integers(0, 2, count)`` of the numpy in use,
    values and stream position alike."""

    @staticmethod
    def _draws(g, bits, count):
        # two blocks of a row (bits, then noise), then the stream's next draws;
        # after an odd count the next integers call reads the buffered half-word
        return [bits(g, count), g.standard_normal(8), bits(g, count), g.standard_normal(8),
                g.integers(0, 2, count), g.standard_normal(3)]

    def _assert_draws_like_integers(self, bit_generator, seeds):
        failed = []
        for seed in seeds:
            for count in range(1, 256):
                ref = self._draws(np.random.Generator(bit_generator(seed)),
                                  lambda g, c: g.integers(0, 2, c), count)
                got = self._draws(np.random.Generator(bit_generator(seed)),
                                  fdcore.random_bits, count)
                if not all(np.array_equal(a, b) for a, b in zip(ref, got)):
                    failed.append((seed, count))
        assert not failed, (f"random_bits departs from Generator.integers on numpy "
                            f"{np.__version__}, {bit_generator.__name__}, (seed, count) "
                            f"{failed[:5]}")

    def test_equals_integers_for_counts_1_to_255(self):
        self._assert_draws_like_integers(np.random.PCG64, range(40))

    @pytest.mark.parametrize("bit_generator", [np.random.PCG64DXSM, np.random.Philox,
                                               np.random.SFC64, np.random.MT19937])
    def test_equals_integers_on_other_bit_generators(self, bit_generator):
        self._assert_draws_like_integers(bit_generator, range(3))

    def test_bpsk_maps_the_bits(self):
        bits = fdcore.random_bits(np.random.default_rng(5), 64)
        assert_array_equal(fdcore.random_bpsk(np.random.default_rng(5), 64), bits * 2.0 - 1.0)
        assert set(np.unique(bits)) == {0, 1}


class TestSpreadDespread:
    def test_single_symbol(self):
        r = 1 / np.sqrt(2)
        assert_allclose(fdcore.spread([1.0], [r, r]), [r, r])

    def test_two_symbols_alternating_code(self):
        r = 1 / np.sqrt(2)
        assert_allclose(fdcore.spread([1.0, -1.0], [r, -r]), [r, -r, -r, r])

    def test_matches_block_diagonal_matrix(self):
        rng = np.random.default_rng(3)
        n, nc = 4, 4
        code = fdcore.walsh_code_set(nc)[2]
        b = fdcore.random_bpsk(rng, n)
        d_k = np.zeros((n * nc, n))
        for i in range(n):
            d_k[i * nc:(i + 1) * nc, i] = code
        assert_allclose(fdcore.spread(b, code), d_k @ b, atol=1e-14)

    def test_round_trip(self):
        codes = fdcore.walsh_code_set(4)
        b = np.array([1.0, -1.0])
        assert_allclose(despread(fdcore.spread(b, codes[1]), codes[1]), b,
                        atol=1e-14)

    def test_orthogonal_code_despreads_to_zero(self):
        codes = fdcore.walsh_code_set(4)
        x = fdcore.spread(np.array([1.0, -1.0, 1.0]), codes[1])
        assert_allclose(despread(x, codes[2]), np.zeros(3), atol=1e-14)

    def test_despread_matches_adjoint_matrix(self):
        rng = np.random.default_rng(4)
        n, nc = 3, 4
        code = fdcore.walsh_code_set(nc)[3]
        x = _random_complex(rng, n * nc)
        d_k = np.zeros((n * nc, n))
        for i in range(n):
            d_k[i * nc:(i + 1) * nc, i] = code
        assert_allclose(despread(x, code), d_k.conj().T @ x, atol=1e-13)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            despread(np.ones(5), np.ones(2))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2).map(lambda p: 2 ** p),
           st.lists(st.sampled_from([-1.0, 1.0]), min_size=1, max_size=8),
           st.integers(0, 7))
    def test_round_trip_property(self, nc, symbols, row):
        code = fdcore.walsh_code_set(nc)[row % nc]
        b = np.asarray(symbols)
        assert_allclose(despread(fdcore.spread(b, code), code), b, atol=1e-12)


class TestExpandSymbols:
    def test_zero_stuffing(self):
        assert_allclose(expand_symbols([1.0, -1.0], 2), [1, 0, -1, 0])

    def test_degenerate_gain(self):
        b = np.array([1.0, -1.0, 1.0])
        assert_allclose(expand_symbols(b, 1), b)

    def test_spectrum_identity(self):
        # transform of the zero-stuffed block tiles the short transform
        for n, nc in [(2, 2), (4, 2), (4, 4), (3, 8)]:
            rng = np.random.default_rng(n * 10 + nc)
            b = fdcore.random_bpsk(rng, n)
            lhs = _dft(expand_symbols(b, nc))
            rhs = tile_segments(np.fft.fft(b, norm="ortho"), nc) / np.sqrt(nc)
            assert_allclose(lhs, rhs, atol=1e-10)

    def test_all_ones_small_case(self):
        b = np.array([1.0, 1.0])
        lhs = _dft(expand_symbols(b, 2))
        ie = expansion_matrix(2, 2)
        fn = dft_matrix(2)
        assert_allclose(lhs, (ie @ (fn @ b)) / np.sqrt(2), atol=1e-12)


class TestCirculant:
    def test_identity_channel(self):
        x = np.array([1.0, 2.0, 3.0])
        assert_allclose(fdcore.circulant_apply([1.0], x), x, atol=1e-14)

    def test_pure_delay_is_cyclic_shift(self):
        out = fdcore.circulant_apply([0.0, 1.0], [1.0, 2.0, 3.0, 4.0])
        assert_allclose(out, [4, 1, 2, 3], atol=1e-13)

    def test_matches_explicit_circulant(self):
        rng = np.random.default_rng(5)
        taps = _random_complex(rng, 3)
        x = _random_complex(rng, 8)
        h_mat = circulant_matrix(taps, 8)
        assert_allclose(fdcore.circulant_apply(taps, x), h_mat @ x, atol=1e-12)

    def test_too_many_taps(self):
        with pytest.raises(ValueError):
            fdcore.circulant_apply(np.ones(5), np.ones(4))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 3), st.integers(0, 1000))
    def test_diagonalization_property(self, num_taps, seed):
        # the circulant acts as a per-bin scaling under the unitary transform
        rng = np.random.default_rng(seed)
        m = 8
        taps = _random_complex(rng, num_taps)
        x = _random_complex(rng, m)
        lhs = _dft(fdcore.circulant_apply(taps, x))
        rhs = fdcore.tap_spectrum(taps, m) * _dft(x)
        assert_allclose(lhs, rhs, atol=1e-10)


class TestCyclicPrefix:
    def test_zero_length_identity(self):
        x = np.array([1.0, 2.0])
        assert_allclose(add_cp(x, 0), x)
        assert_allclose(remove_cp(x, 0), x)

    def test_prefix_content(self):
        out = add_cp(np.array([1.0, 2, 3, 4]), 2)
        assert_allclose(out, [3, 4, 1, 2, 3, 4])

    def test_negative_length(self):
        with pytest.raises(ValueError):
            add_cp(np.ones(4), -1)
        with pytest.raises(ValueError):
            remove_cp(np.ones(4), -1)

    def test_linear_convolution_equivalence(self):
        rng = np.random.default_rng(6)
        taps = _random_complex(rng, 3)
        x = _random_complex(rng, 8)
        guarded = add_cp(x, 2)
        through = np.convolve(guarded, taps)
        assert_allclose(remove_cp(through[:guarded.size], 2),
                        fdcore.circulant_apply(taps, x), atol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 1000))
    def test_equivalence_for_any_sufficient_prefix(self, num_taps, seed):
        rng = np.random.default_rng(seed)
        m = 8
        taps = _random_complex(rng, num_taps)
        x = _random_complex(rng, m)
        for p in range(num_taps - 1, m + 1):
            guarded = add_cp(x, p)
            through = np.convolve(guarded, taps)[:guarded.size]
            assert_allclose(remove_cp(through, p),
                            fdcore.circulant_apply(taps, x), atol=1e-11)


class TestTapSpectrum:
    def test_adjoint_identity(self):
        rng = np.random.default_rng(7)
        m, num_taps = 12, 5
        v = _random_complex(rng, num_taps)
        u = _random_complex(rng, m)
        lhs = np.vdot(u, fdcore.tap_spectrum(v, m))
        rhs = np.vdot(fdcore.tap_spectrum_adjoint(u, num_taps), v)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_matches_explicit_basis(self):
        rng = np.random.default_rng(8)
        m, num_taps = 16, 6
        v = _random_complex(rng, num_taps)
        basis = fourier_tap_basis(m, num_taps)
        assert_allclose(fdcore.tap_spectrum(v, m), basis @ v, atol=1e-12)
        u = _random_complex(rng, m)
        assert_allclose(fdcore.tap_spectrum_adjoint(u, num_taps),
                        basis.conj().T @ u, atol=1e-12)

    def test_aliasing_beyond_bin_count(self):
        # tap index l acts like l mod m on both the forward and adjoint sides
        rng = np.random.default_rng(9)
        m, num_taps = 4, 7
        v = _random_complex(rng, num_taps)
        basis = fourier_tap_basis(m, num_taps)
        assert_allclose(fdcore.tap_spectrum(v, m), basis @ v, atol=1e-12)
        u = _random_complex(rng, m)
        assert_allclose(fdcore.tap_spectrum_adjoint(u, num_taps),
                        basis.conj().T @ u, atol=1e-12)


class TestSymbolGroups:
    def test_groups_bins_congruent_mod_n(self):
        n, nc = 4, 3
        v = np.arange(n * nc)
        grouped = fdcore.by_symbol(v, n)
        assert grouped.shape == (n, nc)
        for g in range(n):
            assert_allclose(grouped[g], [g, g + n, g + 2 * n])

    def test_round_trip_with_leading_axes(self):
        rng = np.random.default_rng(40)
        v = rng.standard_normal((3, 32)) + 1j * rng.standard_normal((3, 32))
        grouped = fdcore.by_symbol(v, 8)
        assert grouped.shape == (3, 8, 4)
        assert_allclose(grouped[1], fdcore.by_symbol(v[1], 8))
        assert_allclose(fdcore.from_symbol(grouped), v)
        assert_allclose(fdcore.by_symbol(fdcore.from_symbol(grouped), 8), grouped)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            fdcore.by_symbol(np.zeros(10), 4)

    @pytest.mark.parametrize("rows, n, nc", [(1, 4, 2), (3, 8, 4), (9, 32, 8)])
    def test_group_outer_equals_one_shot_product_bitwise(self, rows, n, nc):
        rng = np.random.default_rng(rows + n + nc)
        acc, left, right = (rng.standard_normal((rows, *shape)) +
                            1j * rng.standard_normal((rows, *shape))
                            for shape in ((n, nc, nc), (n, nc), (n, nc)))
        expected = acc + left[..., :, None] * right[..., None, :]
        fdcore.add_group_outer(acc, left, right)
        assert_array_equal(acc, expected)

    @pytest.mark.parametrize("n, nc, k", [(4, 4, 2), (8, 4, 3), (4, 8, 5)])
    def test_genie_covariance_matches_dense_constructions(self, n, nc, k):
        # the SCE genie's F (I ⊗ C^T C) F^H form and the DA genie's masked
        # sum of composite outer products are the same block-diagonal matrix
        rng = np.random.default_rng(n + nc + k)
        m = n * nc
        taps = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        codes = fdcore.walsh_code_set(nc)[:k]
        sigma2 = 0.2
        cov, lam = fdcore.genie_covariance(taps, codes, sigma2, n)
        assert cov.shape == (n, nc, nc) and lam.shape == (k, n, nc)
        spectrum = fdcore.tap_spectrum(taps, m)
        left = spectrum[:, None] * dft_matrix(m)
        sce_form = left @ np.kron(np.eye(n), codes.T @ codes) @ left.conj().T
        composite = spectrum * np.fft.fft(codes, n=m, axis=1)
        assert_allclose(lam, fdcore.by_symbol(composite, n))
        mask = np.kron(np.ones((nc, nc)), np.eye(n))
        da_form = sum(np.outer(c, c.conj()) * mask for c in composite) / nc
        assert_allclose(sce_form, da_form, atol=1e-12)
        dense = np.zeros((m, m), complex)
        for g in range(n):
            idx = np.arange(g, m, n)
            dense[np.ix_(idx, idx)] = cov[g]
        assert_allclose(dense, sce_form + sigma2 * np.eye(m), atol=1e-12)

    def test_noiseless_singular_cases_raise(self):
        codes = fdcore.walsh_code_set(2)
        with pytest.raises(np.linalg.LinAlgError, match="rank deficient"):
            fdcore.genie_covariance([1.0, 0.5], codes[:1], 0.0, 2)
        # equal-and-opposite taps null bin 0
        with pytest.raises(np.linalg.LinAlgError, match="dead channel bin"):
            fdcore.genie_covariance([1.0, -1.0], codes, 0.0, 2)
        cov, _ = fdcore.genie_covariance([1.0, 0.5], codes, 0.0, 2)
        hbar = fdcore.tap_spectrum([1.0, 0.5], 4)
        # full Walsh load: C^T C = I, so R reduces to diag(|hbar|^2)
        assert_allclose(cov, np.stack([np.diag(np.abs(hbar[g::2]) ** 2) for g in range(2)]),
                        atol=1e-12)

    def test_negative_noise_variance(self):
        with pytest.raises(ValueError):
            fdcore.genie_covariance([1.0], fdcore.walsh_code_set(2), -0.1, 2)


class _DenseOperator:
    """A dense complex matrix behind the ``matvec``/``rmatvec`` protocol,
    applied row by row to ``(R, k)`` inputs."""

    def __init__(self, mat):
        self.mat = mat

    def matvec(self, x):
        return x @ self.mat.T

    def rmatvec(self, e):
        return e @ self.mat.conj()


class TestCgLeastSquares:
    def _problem(self, seed, rows=12, k=5):
        rng = np.random.default_rng(seed)
        mat = rng.standard_normal((rows, k)) + 1j * rng.standard_normal((rows, k))
        return _DenseOperator(mat), _random_complex(rng, rows)

    def test_k_iterations_reach_the_least_squares_solution(self):
        op, d = self._problem(31)
        k = op.mat.shape[1]
        x = np.zeros(k, complex)
        assert fdcore.cg_least_squares(x, op, d, k) == k
        expected = np.linalg.lstsq(op.mat, d, rcond=None)[0]
        assert_allclose(x, expected, rtol=1e-8, atol=1e-10)

    def test_zero_row_untouched_while_other_row_advances(self):
        op, d = self._problem(32)
        k = op.mat.shape[1]
        x = np.zeros((2, k), complex)
        trace = []
        assert fdcore.cg_least_squares(x, op, np.stack([np.zeros_like(d), d]), k, trace) == k
        assert not x[0].any()
        assert_allclose(x[1], np.linalg.lstsq(op.mat, d, rcond=None)[0], rtol=1e-8, atol=1e-10)
        assert len(trace) == k
        assert all(energy[0] == 0 and energy[1] > 0 for energy, _, _ in trace)

    def test_returns_completed_iterations(self):
        op, d = self._problem(34)
        k = op.mat.shape[1]
        assert fdcore.cg_least_squares(np.zeros(k, complex), op, d, 3) == 3
        # a zero right-hand side stops before the first step
        x = np.zeros(k, complex)
        assert fdcore.cg_least_squares(x, op, np.zeros_like(d), 4) == 0
        # a consistent system is solved exactly in at most k steps; the loop
        # stops on the vanished gradient (or zero curvature) after that
        square = _DenseOperator(np.eye(3, dtype=complex))
        assert fdcore.cg_least_squares(np.zeros(3, complex), square,
                                       np.ones(3, complex), 5) == 1


class _DenseNormal:
    """The normal equations ``G x = A^H d`` of a dense matrix ``A``, posed to
    the CG loop through its curvature hook."""

    def __init__(self, mat):
        self.gram = mat.conj().T @ mat

    def matvec(self, x):
        return x @ self.gram.T

    @staticmethod
    def rmatvec(r):
        return r

    @staticmethod
    def curvature(direction, filtered):
        return np.einsum("...i,...i->...", direction.conj(), filtered).real


class TestCgNormalForm:
    def test_curvature_hook_solves_the_normal_equations_like_cgls(self):
        rng = np.random.default_rng(35)
        mat = rng.standard_normal((12, 5)) + 1j * rng.standard_normal((12, 5))
        d = _random_complex(rng, 12)
        k = mat.shape[1]
        cgls, normal = np.zeros(k, complex), np.zeros(k, complex)
        cgls_trace, normal_trace = [], []
        assert fdcore.cg_least_squares(cgls, _DenseOperator(mat), d, 3, cgls_trace) == 3
        assert fdcore.cg_least_squares(normal, _DenseNormal(mat), mat.conj().T @ d, 3,
                                       normal_trace) == 3
        # the same iterates, and the normal form's residual is the CGLS gradient
        assert_allclose(normal, cgls, rtol=1e-10)
        for (e_cgls, _, _), (e_normal, _, _) in zip(cgls_trace, normal_trace):
            assert e_normal == pytest.approx(e_cgls, rel=1e-10)
        assert normal_trace[-1][2] == pytest.approx(
            np.linalg.norm(mat.conj().T @ (d - mat @ normal)), rel=1e-8)
        x = np.zeros(k, complex)
        fdcore.cg_least_squares(x, _DenseNormal(mat), mat.conj().T @ d, k)
        assert_allclose(x, np.linalg.lstsq(mat, d, rcond=None)[0], rtol=1e-8, atol=1e-10)
