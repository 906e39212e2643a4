"""Structured channel estimation (SCE) detector.

The receiver adaptively estimates the short chip-spaced channel tap vector in
the frequency domain from the desired user's pilot blocks and builds a
diagonal per-bin MMSE equalizer ``d`` from the estimate. The paper's receiver
equalizes and then despreads in the time domain; being linear, that is the
length-m weight vector ``conj(d) * conj(FFT_m(c_0)) / sqrt(nc)`` applied
through :func:`da.detect_da`, which is how the simulator detects (the
FDE-then-despread form is kept as a test oracle). LMS, RLS and
conjugate-gradient updates are provided. The genie MMSE baseline, which
knows the channel and every active code, is the DA genie: its per-group
blocks ``R_g^-1 diag(hbar_g)`` collapse the same way to
``conj(R_g^-1 lam_0,g) / sqrt(nc)``, the weights of :func:`da.build_mmse_da`.

Every adaptive step fits one least-squares cost ``||z - A h||^2`` on the
pilot-weighted tap operator :class:`PilotOperator` (diagonal scalings and
zero-padded FFTs), in normal form: ``G = A^H A``, ``b = A^H z``
(:class:`NormalEquations`), formed once per block. LMS and RLS step along
``b - G h``; CG runs :func:`fdcore.cg_least_squares` on ``G h = b``.
The steps and the equalizer build also take a leading row axis:
``(R, m)`` blocks and pilots advance R independent rows at once, each row
bitwise equal to its own call without the axis. :func:`build_mmse_sce`
takes one user count and noise variance per row, so rows of different
sweep points share a batch.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .fdcore import (
    cg_least_squares,
    check_finite,
    solve_regularized,
    tap_spectrum,
    tap_spectrum_adjoint,
)

logger = logging.getLogger(__name__)

_ZERO_BIN_WARNED = False
_DIVERGED = "adaptive update diverged (non-finite estimate)"


# ---------------------------------------------------------------------------
# adaptive state
# ---------------------------------------------------------------------------

@dataclass
class SceLmsState:
    h_hat: np.ndarray
    mu: float


@dataclass
class SceRlsState:
    h_hat: np.ndarray
    corr: np.ndarray            # (L, L) Hermitian accumulator
    lam: float
    delta: float = 1e-2


@dataclass
class SceCgState:
    h_hat: np.ndarray
    iters: int


# ``batch`` is the leading shape of the state arrays: ``()`` for one run,
# ``(R,)`` for R runs advanced together.

def new_lms_state(num_taps: int, mu: float, batch=()) -> SceLmsState:
    return SceLmsState(h_hat=np.zeros((*batch, num_taps), dtype=complex), mu=float(mu))


def new_rls_state(num_taps: int, lam: float = 0.998, delta: float = 1e-2,
                  batch=()) -> SceRlsState:
    if not 0 < lam <= 1:
        raise ValueError("forgetting factor must be in (0, 1]")
    corr = np.broadcast_to(delta * np.eye(num_taps, dtype=complex),
                           (*batch, num_taps, num_taps)).copy()
    return SceRlsState(
        h_hat=np.zeros((*batch, num_taps), dtype=complex),
        corr=corr,
        lam=float(lam),
        delta=float(delta),
    )


def new_cg_state(num_taps: int, iters: int = 8, batch=()) -> SceCgState:
    if iters < 1:
        raise ValueError("iteration count must be >= 1")
    return SceCgState(h_hat=np.zeros((*batch, num_taps), dtype=complex), iters=int(iters))


# ---------------------------------------------------------------------------
# pilot handling
# ---------------------------------------------------------------------------

def pilot_matrix(chips) -> np.ndarray:
    """Diagonal of the pilot's spectral matrix: the unitary DFT of the chips."""
    chips = np.asarray(chips, dtype=complex)
    if chips.ndim < 1 or chips.shape[-1] == 0:
        raise ValueError("pilot chips must have a non-empty last axis")
    return np.fft.fft(chips, norm="ortho")


def pilot_normal_matrix(xdiag, num_taps: int) -> np.ndarray:
    """Hermitian Toeplitz normal matrix of the weighted tap basis.

    Entry (p, q) is ``sum_a |xdiag[a]|^2 * exp(2j*pi*a*(p-q)/m)``; computed
    from one inverse FFT of the bin powers, with lags beyond the bin count
    wrapping periodically. An ``(R, m)`` stack of pilots gives ``(R, L, L)``.
    """
    xdiag = np.asarray(xdiag, dtype=complex)
    m = xdiag.shape[-1]
    power = np.abs(xdiag) ** 2
    acf = np.fft.ifft(power) * m
    lags = acf[..., np.arange(num_taps) % m]
    # lags -(L-1)..(L-1): entry (p, q) is lag p - q, and lag -d is conj(lag d)
    both = np.concatenate([lags[..., :0:-1].conj(), lags], axis=-1)
    taps = np.arange(num_taps)
    return both[..., num_taps - 1 + taps[:, None] - taps[None, :]]


class PilotOperator:
    """Pilot-weighted tap operator: ``matvec(h)`` is the spectrum that taps
    ``h`` give under the pilot ``xdiag``, ``rmatvec(e)`` its exact adjoint.
    ``(R, m)`` pilots act row by row, as :class:`da.RxOperator` does."""

    def __init__(self, xdiag, num_taps: int):
        self.xdiag = np.asarray(xdiag, dtype=complex)
        self.xconj = self.xdiag.conj()
        self.num_taps = num_taps
        self.m = self.xdiag.shape[-1]

    def matvec(self, h) -> np.ndarray:
        # not ``xdiag * spectrum``: on large arrays numpy reuses the temporary
        # spectrum as ``spectrum *= xdiag``, and the swapped complex product
        # can round differently, so a batch would not match its rows
        return np.multiply(self.xdiag, tap_spectrum(h, self.m))

    def rmatvec(self, e) -> np.ndarray:
        return tap_spectrum_adjoint(self.xconj * e, self.num_taps)


class NormalEquations:
    """A block's cost ``||z - A h||^2`` on :class:`PilotOperator` in normal
    form, ``gram = A^H A`` and ``rhs = A^H z``. As a CG operator it poses
    ``gram h = rhs``: an identity ``rmatvec`` and the curvature ``d^H gram d``.
    ``(R, L, L)`` grams apply by ``einsum``, each row bitwise as alone."""

    def __init__(self, z, xdiag, num_taps: int):
        self.op = PilotOperator(xdiag, num_taps)
        self.gram = pilot_normal_matrix(self.op.xdiag, num_taps)
        self.rhs = self.op.rmatvec(z)

    def matvec(self, h) -> np.ndarray:
        return np.einsum("...ij,...j->...i", self.gram, h)

    @staticmethod
    def rmatvec(r) -> np.ndarray:
        return r

    @staticmethod
    def curvature(direction, filtered) -> np.ndarray:
        return np.einsum("...i,...i->...", direction.conj(), filtered).real


def _normal(z, xdiag, num_taps: int) -> NormalEquations:
    """A step's ``xdiag`` slot holds the pilot spectrum or prepared equations."""
    return xdiag if isinstance(xdiag, NormalEquations) else NormalEquations(z, xdiag, num_taps)


# ---------------------------------------------------------------------------
# adaptive steps
# ---------------------------------------------------------------------------

def sce_lms_step(state: SceLmsState, z, xdiag, counter=None) -> SceLmsState:
    """One stochastic-gradient update of the tap estimate: ``h += mu * (b - G h)``."""
    num_taps = state.h_hat.shape[-1]
    m = z.shape[-1]
    normal = _normal(z, xdiag, num_taps)
    state.h_hat += state.mu * (normal.rhs - normal.matvec(state.h_hat))
    check_finite(state.h_hat, _DIVERGED)
    if counter is not None:
        counter.matvec(m, num_taps)      # spectrum of current estimate
        counter.diag_product(m)          # pilot scaling
        counter.vector_add(m)            # error
        counter.diag_product(m)          # conjugate pilot weighting
        counter.matvec(num_taps, m)      # fold back to tap domain
        counter.scale(num_taps)          # step size
        counter.vector_add(num_taps)     # estimate update
    return state


def sce_rls_step(state: SceRlsState, z, xdiag, counter=None) -> SceRlsState:
    """One recursive-least-squares update with direct solve of the normal matrix.

    A singular normal matrix is regularized with ``delta * I``, in that run only.
    """
    num_taps = state.h_hat.shape[-1]
    m = z.shape[-1]
    normal = _normal(z, xdiag, num_taps)
    state.corr *= state.lam
    state.corr += normal.gram
    grad = normal.rhs - normal.matvec(state.h_hat)
    update, regularized = solve_regularized(state.corr, grad[..., None], state.delta)
    for run in regularized:
        logger.warning("normal matrix %s singular; regularizing with delta=%g",
                       run, state.delta)
    state.h_hat += update[..., 0]
    check_finite(state.h_hat, _DIVERGED)
    if counter is not None:
        counter.lump(m * num_taps, 0)            # weighted basis columns
        counter.matvec(m, num_taps)              # predicted spectrum
        counter.vector_add(m)                    # error
        counter.scale(num_taps * num_taps)       # forgetting-factor decay
        counter.lump(m * num_taps**2, 0)         # Hermitian gram (multiplies)
        counter.matvec(num_taps, m)              # gradient fold
        counter.lump(2 * num_taps**3, 2 * num_taps**3 - 2 * num_taps**2)  # tableau inverse
        counter.lump(num_taps**2, 0)             # apply inverse
        counter.vector_add(num_taps)             # estimate update
    return state


def sce_cg_step(state: SceCgState, z, xdiag, counter=None, trace=None) -> SceCgState:
    """Run the per-block conjugate-gradient inner loop on the tap estimate.

    The loop is :func:`fdcore.cg_least_squares` on the block's normal equations
    ``G h = b``; ``trace`` is passed through (residual ``||b - G h||``).
    """
    num_taps = state.h_hat.shape[-1]
    m = z.shape[-1]
    normal = _normal(z, xdiag, num_taps)
    done = cg_least_squares(state.h_hat, normal, normal.rhs, state.iters, trace)
    check_finite(state.h_hat, _DIVERGED)
    if counter is not None:
        for _ in range(done):
            counter.inner(num_taps)          # gradient energy
            counter.matvec(m, num_taps)      # direction spectrum
            counter.diag_product(m)          # pilot scaling
            counter.inner(m)                 # curvature
            counter.scalar_div()             # step size
            counter.scaled_update(num_taps)  # estimate update
            counter.scaled_update(m)         # error recursion
            counter.diag_product(m)          # conjugate pilot weighting
            counter.matvec(num_taps, m)      # new gradient fold
            counter.inner(num_taps)          # new gradient energy
            counter.scaled_update(num_taps)  # direction recombination
    return state


# ---------------------------------------------------------------------------
# detection
# ---------------------------------------------------------------------------

def build_mmse_sce(h_hat, k_est: float, sigma2_est: float, nc: int, m: int) -> np.ndarray:
    """Per-bin MMSE equalizer weights from a tap estimate.

    Bin ``a`` gets ``hbar[a] / ((k/nc)*|hbar[a]|^2 + sigma2)`` with ``hbar``
    the tap spectrum. When ``sigma2`` is zero, bins with a dead channel
    response are forced to zero (one-off warning). With ``(R, L)`` tap
    estimates, ``k_est`` and ``sigma2_est`` may be scalars or one value per run.
    """
    global _ZERO_BIN_WARNED
    sigma2_est = np.asarray(sigma2_est, dtype=float)[..., None]
    k_est = np.asarray(k_est, dtype=float)[..., None]
    if np.any(sigma2_est < 0):
        raise ValueError("sigma2 must be >= 0")
    if np.any(k_est < 0):
        raise ValueError("user count must be >= 0")
    hbar = tap_spectrum(h_hat, m)
    denom = (k_est / nc) * np.abs(hbar) ** 2 + sigma2_est
    dead = denom == 0
    if np.any(dead):
        if not _ZERO_BIN_WARNED:
            logger.warning("zero-forcing %d dead bins (no channel response, no noise)", int(dead.sum()))
            _ZERO_BIN_WARNED = True
        denom = np.where(dead, 1.0, denom)
        return np.where(dead, 0.0, hbar / denom)
    return hbar / denom
