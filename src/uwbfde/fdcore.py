"""Deterministic signal-chain primitives shared by both detection schemes.

Walsh spreading, circulant channel application, the structured Fourier
operators that let the adaptive algorithms work on a short tap vector
instead of a full frequency-domain vector, the symbol-group kernel, and the
one CG loop (:func:`cg_least_squares`: CGLS, or CG on normal equations for
an operator with a curvature hook). Each is a pure function of its inputs,
except that :func:`random_bits` and :func:`random_bpsk` advance the
generator they are given. The cyclic prefix is not simulated chip by chip:
a prefix at least as long as the channel memory makes the channel circular,
which is what :func:`circulant_apply` computes. Transforms call ``np.fft``
directly, every code or tap spectrum is :func:`tap_spectrum`'s, and no
m-by-m matrix is built here.

Conventions
-----------
* Block sizes: ``n`` symbols per block, spreading gain ``nc`` chips per
  symbol, ``m = n * nc`` chips per block.
* The received spectrum is the unitary DFT of the block,
  ``np.fft.fft(y, norm="ortho")`` (scaled by ``1/sqrt(m)``), so it
  preserves energy and its inverse is its conjugate transpose.
* Symbol groups: with a cyclic prefix and orthogonal spreading codes, every
  MMSE covariance couples only bins ``a = a' (mod n)``. :func:`by_symbol`
  regroups the ``m`` bins into ``n`` groups of ``nc``, so such a covariance
  is ``n`` independent ``nc``-by-``nc`` blocks, and :func:`add_group_outer`
  accumulates one block's per-group outer products into such a covariance.
* Leading run axis: the helpers the detectors and the block synthesis use
  (spreading, segment folding, the tap spectrum and its adjoint, circulant
  application, row energy, the genie covariance) act on the last axis and
  accept ``(R, ...)`` arrays, one row per Monte-Carlo run. Each row's result is
  bitwise equal to the result of a call with that row alone.
* Row kernels on BLAS-backed primitives (``matmul``, ``np.vecdot``) keep
  that equality only on C-contiguous operands: numpy's batched ``matmul``
  takes another path when the row axis is not outermost in memory, so
  batched matrices are made C-contiguous where they are built.
* ``tap_spectrum`` absorbs the ``sqrt(m)`` factor, i.e. bin ``a`` of
  ``tap_spectrum(h, m)`` is ``sum_l h[l] * exp(-2j*pi*a*l/m)``, which is the
  channel frequency response and equals the diagonal that a circulant matrix
  built from ``h`` produces under the unitary DFT.
"""

from __future__ import annotations

import numpy as np


class DivergenceError(RuntimeError):
    """An adaptive update produced non-finite values (step size too large).

    ``rows`` holds the flat indices of the diverged rows of a batched update
    (``[0]`` for an update without a run axis).
    """

    def __init__(self, message: str, rows=()):
        super().__init__(message)
        self.rows = rows


def check_finite(vec, message: str):
    """Raise :class:`DivergenceError` naming every row of ``vec`` (last axis)
    that holds a non-finite value."""
    bad = ~np.isfinite(vec).all(axis=-1)
    if bad.any():
        raise DivergenceError(message, rows=np.flatnonzero(bad))


def _as_complex_rows(x, name: str = "x") -> np.ndarray:
    """A vector or an ``(R, ...)`` stack of them, as complex; the last axis must not be empty."""
    arr = np.asarray(x, dtype=complex)
    if arr.ndim == 0 or arr.shape[-1] == 0:
        raise ValueError(f"{name} must have a non-empty last axis, got shape {arr.shape}")
    return arr


def walsh_code_set(nc: int) -> np.ndarray:
    """Return the ``nc`` unit-norm Walsh codes as rows of an (nc, nc) array.

    Sylvester's Hadamard construction scaled by ``1/sqrt(nc)``; the rows are
    pairwise orthonormal. ``nc`` must be a power of two.
    """
    if nc < 1 or (nc & (nc - 1)) != 0:
        raise ValueError(f"spreading gain must be a power of two, got {nc}")
    codes = np.ones((1, 1))
    while codes.shape[0] < nc:
        codes = np.block([[codes, codes], [codes, -codes]])
    return codes / np.sqrt(nc)


def spread(symbols, code) -> np.ndarray:
    """Spread a symbol block with one code: chip ``i*nc + j`` is ``symbols[..., i] * code[j]``."""
    symbols = np.asarray(symbols)
    code = np.asarray(code)
    if symbols.ndim < 1 or code.ndim != 1:
        raise ValueError("symbols must have a last axis and code must be 1-D")
    return (symbols[..., :, None] * code).reshape(*symbols.shape[:-1], -1)


def fold_segments(v, n: int) -> np.ndarray:
    """Sum the ``nc`` length-``n`` segments of ``v`` (adjoint of tiling)."""
    v = _as_complex_rows(v, "v")
    if v.shape[-1] % n != 0:
        raise ValueError(f"length {v.shape[-1]} is not a multiple of {n}")
    return v.reshape(*v.shape[:-1], -1, n).sum(axis=-2)


def tap_spectrum(taps, m: int) -> np.ndarray:
    """Frequency response of a tap vector on ``m`` uniformly spaced bins.

    Bin ``a`` is ``sum_l taps[l] * exp(-2j*pi*a*l/m)``. Tap indices beyond
    ``m`` alias onto ``l mod m``, which keeps the operator well defined for
    any tap count.
    """
    taps = _as_complex_rows(taps, "taps")
    if m < 1:
        raise ValueError("m must be >= 1")
    num_taps = taps.shape[-1]
    if num_taps > m:
        pad = np.zeros((*taps.shape[:-1], (-num_taps) % m), dtype=complex)
        taps = fold_segments(np.concatenate([taps, pad], axis=-1), m)
    return np.fft.fft(taps, n=m)


def tap_spectrum_adjoint(bins, num_taps: int) -> np.ndarray:
    """Adjoint of :func:`tap_spectrum`: fold ``m`` bins back onto ``num_taps`` taps."""
    bins = _as_complex_rows(bins, "bins")
    if num_taps < 1:
        raise ValueError("num_taps must be >= 1")
    m = bins.shape[-1]
    return np.fft.ifft(bins)[..., np.arange(num_taps) % m] * m


def row_energy(v):
    """Squared norm of each row (last axis) of ``v``."""
    return np.vecdot(v, v).real


def by_symbol(vec, n: int) -> np.ndarray:
    """Regroup the bins of ``(..., m)`` vectors into ``(..., n, nc)`` symbol groups.

    Row ``g`` holds bins ``g, g+n, ..., g+(nc-1)n``; a view where possible.
    """
    vec = np.asarray(vec)
    return np.swapaxes(vec.reshape(*vec.shape[:-1], -1, n), -1, -2)


def from_symbol(grouped) -> np.ndarray:
    """Inverse of :func:`by_symbol`: flatten ``(..., n, nc)`` groups back to bins."""
    grouped = np.asarray(grouped)
    return np.swapaxes(grouped, -1, -2).reshape(*grouped.shape[:-2], -1)


def add_group_outer(acc, left, right):
    """Add each symbol group's outer product ``left_g right_g^T`` to ``acc``
    in place: ``acc`` is ``(..., n, nc, nc)``, ``left`` and ``right`` are
    ``(..., n, nc)``. Each entry gains bitwise ``left[i] * right[j]``."""
    acc += left[..., :, None] * right[..., None, :]


def genie_covariance(taps, codes, sigma2: float, n: int):
    """Input covariance of the genie MMSE detectors, one block per symbol group.

    ``lam_k = hbar * tap_spectrum(code_k, m)`` is the composite response of
    user ``k`` (``hbar`` the channel spectrum), and group ``g`` of the
    covariance is ``R_g = (1/nc) sum_k lam_k,g lam_k,g^H + sigma2 * I``.
    Returns ``(cov, lam)`` of shapes ``(n, nc, nc)`` and ``(K, n, nc)``;
    ``(R, L)`` taps, one channel per run, prefix both with ``R``.
    Raises ``LinAlgError`` when the noiseless covariance is singular: fewer
    users than codes, or a dead channel bin.
    """
    codes = np.atleast_2d(np.asarray(codes, dtype=float))
    k, nc = codes.shape
    m = n * nc
    if sigma2 < 0:
        raise ValueError("sigma2 must be >= 0")
    hbar = tap_spectrum(taps, m)
    if sigma2 == 0:
        if k < nc:
            raise np.linalg.LinAlgError("noiseless input covariance is rank deficient (K < Nc)")
        if np.any(hbar == 0):
            raise np.linalg.LinAlgError("noiseless input covariance is singular (dead channel bin)")
    lam = by_symbol(hbar[..., None, :] * tap_spectrum(codes, m), n)
    cov = np.einsum("...kgi,...kgj->...gij", lam, lam.conj()) / nc + sigma2 * np.eye(nc)
    return cov, lam


def circulant_apply(taps, chips, spectrum=None) -> np.ndarray:
    """Circular convolution of a chip block with a tap vector (zero-padded).

    Equivalent to multiplying by the circulant matrix whose first column is
    ``taps`` zero-padded to the block length. Leading axes broadcast. A
    caller that applies the same taps to many blocks may pass their
    ``spectrum``, ``tap_spectrum(taps, m)``, which then replaces ``taps``.
    """
    chips = _as_complex_rows(chips, "chips")
    m = chips.shape[-1]
    if spectrum is None:
        taps = _as_complex_rows(taps, "taps")
        if taps.shape[-1] > m:
            raise ValueError(f"tap count {taps.shape[-1]} exceeds block length {m}")
        spectrum = tap_spectrum(taps, m)
    return np.fft.ifft(np.fft.fft(chips) * spectrum)


def solve_regularized(mats, rhs, delta: float):
    """Solve the stacked systems ``mats @ x = rhs``; ``mats`` is ``(..., k, k)``
    and ``rhs`` is ``(..., k, 1)`` with the same leading axes.

    A singular matrix gets ``delta * I`` added, in place and to that matrix
    only, and is solved again. Returns ``(x, regularized)``, the second
    listing the indices of the regularized matrices.
    """
    try:
        return np.linalg.solve(mats, rhs), []
    except np.linalg.LinAlgError:
        pass
    out = np.empty_like(rhs, dtype=np.result_type(mats, rhs))
    regularized = []
    for idx in np.ndindex(mats.shape[:-2]):
        try:
            out[idx] = np.linalg.solve(mats[idx], rhs[idx])
        except np.linalg.LinAlgError:
            mats[idx] += delta * np.eye(mats.shape[-1])
            out[idx] = np.linalg.solve(mats[idx], rhs[idx])
            regularized.append(idx)
    return out, regularized


def cg_least_squares(x, op, d, iters: int, trace=None) -> int:
    """Conjugate-gradient loop on ``||d - A x||^2`` (CGLS, Hestenes and Stiefel
    1952), updating ``x`` in place; returns the number of completed iterations.

    ``op`` applies ``A`` (``matvec``) and its adjoint (``rmatvec``) row by row.
    Each step is exact along its direction, of curvature ``||A p||^2`` unless
    ``op`` supplies ``curvature(p, A p)``: with ``A = G``, ``d = b``, an
    identity ``rmatvec`` and ``p^H G p`` the loop is CG on the normal
    equations ``G x = b`` (Bjorck, *Numerical Methods for Least Squares
    Problems*, SIAM 1996). A vanished gradient or a zero curvature stops a
    row; the loop ends when every row has stopped. ``trace``, when given,
    collects one ``(grad_energy, neg_dir_grad, residual_norm)`` tuple per
    iteration (one value per run), the residual being ``d - A x``.
    """
    curvature_of = getattr(op, "curvature", lambda direction, filtered: row_energy(filtered))
    err = d - op.matvec(x)
    resid = op.rmatvec(err)                     # A^H (d - A x), the negated gradient
    direction = resid.copy()                    # an identity rmatvec returns err itself
    energy = row_energy(resid)
    active = energy != 0.0
    for done in range(iters):
        if not active.any():
            return done
        filtered = op.matvec(direction)
        curvature = curvature_of(direction, filtered)
        active &= curvature != 0.0
        if not active.any():
            return done
        alpha = np.divide(energy, curvature, out=np.zeros(curvature.shape),
                          where=active)[..., None]
        x += alpha * direction
        if trace is not None:                   # resid may be err, which moves next
            neg_dir_grad = np.einsum("...i,...i->...", direction.conj(), resid)
        err -= alpha * filtered
        resid = op.rmatvec(err)
        new_energy = row_energy(resid)
        beta = np.divide(new_energy, energy, out=np.zeros(new_energy.shape),
                         where=active)[..., None]
        if trace is not None:
            trace.append((energy, neg_dir_grad, np.linalg.norm(err, axis=-1)))
        direction = resid + beta * direction
        energy = new_energy
        active &= energy != 0.0
    return iters


def reads_raw_words(rng: np.random.Generator, count: int) -> bool:
    """Whether :func:`random_bits` reads ``count`` bits from ``count // 2``
    raw words of ``rng`` (an even count on a half-word generator) rather
    than calling ``integers``."""
    # looked up here: numpy imports np.random on first use, not with numpy
    half_word = (np.random.PCG64, np.random.PCG64DXSM, np.random.Philox, np.random.SFC64)
    return count % 2 == 0 and isinstance(rng.bit_generator, half_word)


def random_bits(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` equiprobable 0/1 draws: the values of
    ``rng.integers(0, 2, count)``, leaving ``rng`` where that call would.

    ``integers`` makes each bit the top bit of one 32-bit draw (Lemire's
    bounded method rejects nothing at a range of 2), and PCG64, PCG64DXSM,
    Philox and SFC64 serve 32-bit draws as the low, then the high half of a
    64-bit word. So for an even ``count`` the bits are read from
    ``count // 2`` raw words, without the per-call overhead of
    ``integers``. An odd count leaves a buffered half-word for the next
    32-bit draw, which raw words cannot, so it calls ``integers``, as does
    any other bit generator (:func:`reads_raw_words`). The even path assumes
    that no half-word is buffered: true of a fresh generator and after
    64-bit or even-count draws. After an odd count or a scalar draw below
    ``2**32`` it returns other, equally random, bits.
    """
    if not reads_raw_words(rng, count):
        return rng.integers(0, 2, count)
    words = rng.bit_generator.random_raw(count // 2).astype("<u8", copy=False)
    return (words.view("<u4") >> 31).astype(np.int64)     # low half first


def random_bpsk(rng: np.random.Generator, n: int) -> np.ndarray:
    """Equiprobable +/-1 symbol block drawn from ``rng`` by :func:`random_bits`."""
    return random_bits(rng, n) * 2.0 - 1.0
