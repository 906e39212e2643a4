"""Explicit-matrix and chip-by-chip oracles for the tests.

The simulator works on structured frequency-domain operators and never
builds these. The tests check the structured operators against them: the
m-by-m DFT, circulant and mask matrices, the dense tap basis, the explicit
matrix of a received-data operator, chip-rate zero stuffing, segment
tiling, the cyclic prefix that the circular channel stands in for, and the
paper's SCE receiver in its FDE-then-despread form: per-bin (or, for the
genie, per-group) MMSE equalization, an inverse DFT, then despreading in
the time domain. The simulator applies that receiver as one length-m
weight vector through ``da.detect_da``. It also holds the reference block
source: one row and one block at a time, with bits from
``Generator.integers``.
"""

import numpy as np
from scipy.linalg import circulant

from uwbfde.channel import synthesize_rx
from uwbfde.fdcore import by_symbol, from_symbol, genie_covariance, tap_spectrum


def _as_complex_vector(x, name: str = "x") -> np.ndarray:
    arr = np.asarray(x, dtype=complex)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-D vector, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must not be empty")
    return arr


def despread(chips, code) -> np.ndarray:
    """Correlate each symbol-length chip group against ``code``.

    Exact inverse of ``fdcore.spread`` for a unit-norm code; orthogonal codes
    despread to zero.
    """
    chips = np.asarray(chips, dtype=complex)
    code = np.asarray(code)
    if chips.ndim == 0 or chips.shape[-1] == 0 or chips.shape[-1] % code.size:
        raise ValueError(f"chips of shape {chips.shape} do not split into codes of "
                         f"length {code.size}")
    return chips.reshape(*chips.shape[:-1], -1, code.size) @ code.conj()


def detect_sce(z, detector, code) -> np.ndarray:
    """Equalize, transform back and despread; hard BPSK decisions.

    ``detector`` is the per-bin weights from ``sce.build_mmse_sce``, shaped
    like ``z``, applied conjugated. ``sign(0)`` resolves to +1.
    """
    chips = np.fft.ifft(np.conj(detector) * z, norm="ortho")
    soft = despread(chips, code)
    return np.where(soft.real >= 0, 1.0, -1.0)


def dft_matrix(m: int) -> np.ndarray:
    """Explicit ``m``-by-``m`` unitary DFT matrix."""
    if m < 1:
        raise ValueError("m must be >= 1")
    a = np.arange(m)
    return np.exp(-2j * np.pi * np.outer(a, a) / m) / np.sqrt(m)


def expand_symbols(symbols, nc: int) -> np.ndarray:
    """Zero-stuff a symbol block to chip rate: symbol ``i`` lands at index ``i*nc``."""
    symbols = np.asarray(symbols, dtype=complex)
    if nc < 1:
        raise ValueError("nc must be >= 1")
    out = np.zeros(symbols.size * nc, dtype=complex)
    out[::nc] = symbols
    return out


def expansion_matrix(n: int, nc: int) -> np.ndarray:
    """Explicit (m, n) stack of ``nc`` identity blocks."""
    return np.tile(np.eye(n), (nc, 1))


def tile_segments(u, nc: int) -> np.ndarray:
    """Stack ``nc`` copies of ``u`` end to end along the last axis (adjoint
    of ``fdcore.fold_segments``)."""
    return np.tile(np.asarray(u, dtype=complex), nc)


def fourier_tap_basis(m: int, num_taps: int) -> np.ndarray:
    """Explicit (m, num_taps) matrix with entries ``exp(-2j*pi*a*l/m)``, the
    dense counterpart of ``fdcore.tap_spectrum``."""
    if m < 1 or num_taps < 1:
        raise ValueError("dimensions must be >= 1")
    a = np.arange(m)[:, None]
    l = np.arange(num_taps)[None, :]
    return np.exp(-2j * np.pi * a * l / m)


def circulant_matrix(taps, m: int) -> np.ndarray:
    """Explicit circulant matrix with first column ``taps`` zero-padded to ``m``."""
    taps = _as_complex_vector(taps, "taps")
    if taps.size > m:
        raise ValueError(f"tap count {taps.size} exceeds block length {m}")
    col = np.zeros(m, dtype=complex)
    col[: taps.size] = taps
    return circulant(col)


def spectral_mask(n: int, nc: int) -> np.ndarray:
    """Dense (m, m) 0/1 mask of bin pairs sharing the same symbol index."""
    return np.kron(np.ones((nc, nc)), np.eye(n))


def operator_matrix(op) -> np.ndarray:
    """Explicit (n, m) matrix of a single-block ``da.RxOperator``."""
    cols = np.eye(op.m, dtype=complex)
    return np.stack([op.matvec(cols[:, j]) for j in range(op.m)], axis=1)


def add_cp(chips, p: int) -> np.ndarray:
    """Prepend the last ``p`` chips of the block (cyclic prefix)."""
    chips = _as_complex_vector(chips, "chips")
    if p < 0:
        raise ValueError("cyclic prefix length must be >= 0")
    if p > chips.size:
        raise ValueError(f"cyclic prefix length {p} exceeds block length {chips.size}")
    if p == 0:
        return chips.copy()
    return np.concatenate([chips[-p:], chips])


def remove_cp(rx, p: int) -> np.ndarray:
    """Drop the first ``p`` received chips (cyclic prefix removal)."""
    rx = _as_complex_vector(rx, "rx")
    if p < 0:
        raise ValueError("cyclic prefix length must be >= 0")
    if p >= rx.size:
        raise ValueError(f"cyclic prefix length {p} leaves no payload")
    return rx[p:].copy()


def build_mmse_sce_exact(taps, codes, sigma2: float, n: int) -> np.ndarray:
    """Genie MMSE equalizer of the SCE receiver from the true channel and all
    active codes.

    The input covariance couples only the bins of one symbol group, so the
    equalizer ``R^-1 diag(hbar)`` is returned as its ``(n, nc, nc)`` group
    blocks ``R_g^-1 diag(hbar_g)`` (see ``fdcore.genie_covariance``);
    ``(R, L)`` taps give ``(R, n, nc, nc)``. Raises ``LinAlgError`` when the
    noiseless system is rank deficient.
    """
    cov, _ = genie_covariance(taps, codes, sigma2, n)
    hbar = by_symbol(tap_spectrum(taps, n * cov.shape[-1]), n)
    return np.linalg.inv(cov) * hbar[..., None, :]


def detect_sce_exact(z, blocks, code) -> np.ndarray:
    """Equalize with the group blocks of :func:`build_mmse_sce_exact` (applied
    conjugate-transposed, ``z``'s leading axes kept), transform back and
    despread; hard BPSK decisions, ``sign(0)`` resolving to +1."""
    blocks = np.asarray(blocks)
    zg = by_symbol(np.asarray(z), blocks.shape[-3])[..., None, :]   # (..., n, 1, nc)
    # conj(conj(zg) @ D) == zg @ conj(D) without copying the blocks D
    eq = from_symbol(np.conj(zg.conj() @ blocks)[..., 0, :])
    soft = despread(np.fft.ifft(eq, norm="ortho"), code)
    return np.where(soft.real >= 0, 1.0, -1.0)


def received_blocks(users, n, codes, taps, sigma2, gens, n_blocks):
    """Reference block source, block by block and row by row: each row draws
    its ``users[r] * n`` bits with ``Generator.integers``, then synthesizes
    its block alone with ``synthesize_rx``, which draws its noise from the
    same generator. ``taps`` is ``(R, L)``; ``users``, ``sigma2`` and
    ``gens`` hold one entry per row. Yields, per block, the list of each
    row's ``(users[r], n)`` symbols and the ``(R, m)`` spectra."""
    for _ in range(n_blocks):
        symbols, spectra = [], []
        for k, row_taps, s2, g in zip(users, taps, sigma2, gens, strict=True):
            blocks = (g.integers(0, 2, k * n) * 2.0 - 1.0).reshape(k, n)
            symbols.append(blocks)
            spectra.append(synthesize_rx(blocks, codes, row_taps, s2, g))
        yield symbols, np.stack(spectra)
