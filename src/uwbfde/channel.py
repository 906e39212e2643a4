"""Chip-spaced equivalent channels and noisy downlink block synthesis.

The detection algorithms only ever see the chip-spaced equivalent impulse
response, so this module provides a configurable exponential-decay Rayleigh
generator as the default channel plus a loader for externally generated tap
files, along with the received-block synthesizer, which returns the unitary
DFT of each received block (the only form the detectors read). The
synthesizer takes a leading row axis with one noise variance per row, so
rows of different sweep points share one call; :func:`draw_noise` is its
per-row noise draw, which a caller that needs no block can make alone.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .fdcore import circulant_apply


@dataclass
class ChannelProfile:
    """Parameters of the exponential-decay Rayleigh tap generator.

    ``decay_rate`` is the per-tap exponential power decay in nats per tap;
    zero gives a uniform power-delay profile. ``seed`` feeds a dedicated
    ``numpy`` generator so realizations are reproducible; it may be an int
    or a sequence of ints.
    """

    num_taps: int
    decay_rate: float = 0.1
    seed: object = None
    normalize: bool = True

    def __post_init__(self):
        if self.num_taps < 1:
            raise ValueError("num_taps must be >= 1")
        if self.decay_rate < 0:
            raise ValueError("decay_rate must be >= 0")


def generate_cir(profile: ChannelProfile) -> np.ndarray:
    """Draw one chip-spaced impulse response from ``profile``.

    Taps are circularly symmetric complex Gaussian with power
    ``exp(-decay_rate * l)`` at delay ``l``, optionally normalized to unit
    total energy. Deterministic given ``profile.seed``.
    """
    rng = np.random.default_rng(profile.seed)
    gains = (rng.standard_normal(profile.num_taps) + 1j * rng.standard_normal(profile.num_taps))
    gains /= np.sqrt(2.0)
    taps = gains * np.exp(-0.5 * profile.decay_rate * np.arange(profile.num_taps))
    if profile.normalize:
        taps = taps / np.linalg.norm(taps)
    return taps


def load_cir(path, num_taps: int | None = None) -> np.ndarray:
    """Load a tap file: one ``re,im`` pair per line, ``#`` lines ignored.

    ``num_taps`` truncates to the leading taps, which keep their original
    energy split. Taps without energy are rejected: the genie-input user
    count divides by the channel energy.
    """
    taps = []
    with open(os.fspath(path), "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ValueError(f"{path}: line {lineno}: expected 're,im', got {line!r}")
            try:
                taps.append(complex(float(parts[0]), float(parts[1])))
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: could not parse {line!r}") from exc
    if not taps:
        raise ValueError(f"{path}: no taps found")
    out = np.asarray(taps, dtype=complex)
    if num_taps is not None:
        if num_taps < 1:
            raise ValueError("num_taps must be >= 1")
        out = out[:num_taps]
    if not out.any():
        raise ValueError(f"{path}: no energy in the first {out.size} taps")
    return out


def synthesize_rx(symbol_blocks, codes, taps, sigma2, rng, spectrum=None):
    """Synthesize one noisy downlink block, or one per run of a batch.

    All users share the same channel; user ``k`` spreads its symbol block
    with ``codes[k]``. Complex white Gaussian noise with per-sample variance
    ``sigma2`` (split evenly between real and imaginary parts) is added in
    the time domain. Returns ``z``, the unitary DFT of the received chips.

    ``symbol_blocks`` is a (K, n) array, with ``taps`` of shape (L,) and
    ``rng`` one ``np.random.Generator``; a (0, n)-shaped array gives a
    pure-noise block. A leading row axis batches R rows: (R, K, n) symbol
    blocks, (R, L) or shared (L,) taps, a sequence of R generators and
    ``sigma2`` a scalar or one value per row. Each row with a positive
    ``sigma2`` draws its noise from its own generator (:func:`draw_noise`);
    a noiseless row draws nothing. Rows with fewer users carry all-zero
    symbol blocks for the missing ones, which add nothing. A caller that
    synthesizes many blocks on the same taps may pass their m-bin
    ``spectrum`` (:func:`fdcore.tap_spectrum`), which then replaces
    ``taps``.
    """
    sigma2 = np.asarray(sigma2, dtype=float)
    if np.any(sigma2 < 0):
        raise ValueError("sigma2 must be >= 0")
    codes = np.asarray(codes)
    blocks = np.asarray(symbol_blocks, dtype=float)
    if blocks.ndim not in (2, 3) or blocks.shape[-1] == 0:
        raise ValueError("symbol_blocks must be a (K, n) or (R, K, n) array with n >= 1")
    k, n = blocks.shape[-2:]
    if k > codes.shape[0]:
        raise ValueError(f"K exceeds Nc ({k} > {codes.shape[0]}): out of spreading codes")
    m = n * codes.shape[1]
    # chip i*nc + j of a user is its symbol i times its code chip j, as in
    # fdcore.spread. Each product is exact (±1·c or 0), and the matmul adds
    # them in user order, as adding one user at a time onto zeros does, so
    # the chips match that sum bit for bit (tests/test_channel.py pins it)
    chips = np.swapaxes(blocks, -1, -2) @ codes[:k]
    y = circulant_apply(taps, chips.reshape(*blocks.shape[:-2], m), spectrum)
    noisy, noise = draw_noise([rng] if blocks.ndim == 2 else rng, sigma2, m)
    if noisy.size:
        rows = y.reshape(-1, m)
        # scaling and adding real and imaginary parts apart gives the same
        # values as adding (re + 1j * im) * scale, with no complex temporaries
        noise *= np.sqrt(np.broadcast_to(sigma2, len(rows))[noisy] / 2.0)[:, None, None]
        if noisy.size < len(rows):
            rows.real[noisy] += noise[:, 0]
            rows.imag[noisy] += noise[:, 1]
        else:
            rows.real += noise[:, 0]
            rows.imag += noise[:, 1]
    return np.fft.fft(y, norm="ortho")


def draw_noise(gens, sigma2, m: int):
    """Draw the noise of one block for each row with a positive ``sigma2``
    (a scalar or one value per generator) from that row's generator, in one
    call: ``m`` real parts, then ``m`` imaginary parts. Returns ``(noisy,
    noise)``, the indices of those rows and their ``(len(noisy), 2, m)``
    unit-variance draws. A noiseless row draws nothing."""
    noisy = np.flatnonzero(np.broadcast_to(sigma2, len(gens)) > 0)
    noise = np.empty((noisy.size, 2, m))
    for row, dest in zip(noisy, noise):
        gens[row].standard_normal(out=dest)
    return noisy, noise
