"""Structured channel estimation (SCE) detector.

The receiver adaptively estimates the short chip-spaced channel tap vector in
the frequency domain from the desired user's pilot blocks, builds a diagonal
per-bin MMSE equalizer from the estimate, equalizes, and despreads in the
time domain. LMS, RLS and conjugate-gradient updates are provided, plus the
genie MMSE detector used as a performance baseline, which knows the channel
and every active code and is solved one symbol group at a time.

All adaptive steps realize the operator products structurally (diagonal
scalings and zero-padded FFTs), never materializing a full m-by-m matrix.
The steps, the equalizer build and detection also take a leading run axis:
``(R, m)`` blocks and pilots advance R independent runs at once, each row
bitwise equal to its own call without the axis.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .fdcore import (
    by_symbol,
    check_finite,
    despread,
    from_symbol,
    genie_covariance,
    solve_regularized,
    tap_spectrum,
    tap_spectrum_adjoint,
)

logger = logging.getLogger(__name__)

_ZERO_BIN_WARNED = False


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


def _predicted_spectrum(h_hat, xdiag):
    return xdiag * tap_spectrum(h_hat, xdiag.shape[-1])


def _fold_gradient(xdiag, err, num_taps):
    return tap_spectrum_adjoint(xdiag.conj() * err, num_taps)


def _energy(v):
    """Squared norm of each row (last axis) of ``v``."""
    return np.einsum("...i,...i->...", v.conj(), v).real


def _check_finite(vec):
    check_finite(vec, "adaptive update diverged (non-finite estimate)")


# ---------------------------------------------------------------------------
# adaptive steps
# ---------------------------------------------------------------------------

def sce_lms_step(state: SceLmsState, z, xdiag, counter=None) -> SceLmsState:
    """One stochastic-gradient update of the tap estimate from one pilot block."""
    num_taps = state.h_hat.shape[-1]
    m = z.shape[-1]
    err = z - _predicted_spectrum(state.h_hat, xdiag)
    state.h_hat += state.mu * _fold_gradient(xdiag, err, num_taps)
    _check_finite(state.h_hat)
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
    state.corr *= state.lam
    state.corr += pilot_normal_matrix(xdiag, num_taps)
    err = z - _predicted_spectrum(state.h_hat, xdiag)
    grad = _fold_gradient(xdiag, err, num_taps)
    update, regularized = solve_regularized(state.corr, grad[..., None], state.delta)
    for run in regularized:
        logger.warning("normal matrix %s singular; regularizing with delta=%g",
                       run, state.delta)
    state.h_hat += update[..., 0]
    _check_finite(state.h_hat)
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

    Each inner iteration takes the exact minimizing step along the current
    direction of the block's least-squares cost; directions are recombined
    with the gradient-energy ratio. A zero-curvature direction or a vanished
    gradient ends the loop early, per run: a stopped row takes no further
    step. ``trace``, when given, collects one ``(grad_energy, neg_dir_grad,
    residual_norm)`` tuple per iteration (one value per run).
    """
    num_taps = state.h_hat.shape[-1]
    m = z.shape[-1]
    h = state.h_hat
    err = z - _predicted_spectrum(h, xdiag)
    grad = -_fold_gradient(xdiag, err, num_taps)
    direction = -grad
    grad_energy = _energy(grad)
    active = np.ones(grad_energy.shape, dtype=bool)
    for _ in range(state.iters):
        active &= grad_energy != 0.0
        if not active.any():
            break
        filtered = xdiag * tap_spectrum(direction, m)
        curvature = _energy(filtered)
        active &= curvature != 0.0
        if not active.any():
            break
        alpha = np.divide(grad_energy, curvature, out=np.zeros(curvature.shape),
                          where=active)[..., None]
        h += alpha * direction
        err -= alpha * filtered
        new_grad = -_fold_gradient(xdiag, err, num_taps)
        new_energy = _energy(new_grad)
        beta = np.divide(new_energy, grad_energy, out=np.zeros(new_energy.shape),
                         where=active)[..., None]
        if trace is not None:
            neg_dir_grad = -np.einsum("...i,...i->...", direction.conj(), grad)
            trace.append((grad_energy, neg_dir_grad, np.linalg.norm(err, axis=-1)))
        direction = -new_grad + beta * direction
        grad, grad_energy = new_grad, new_energy
        if counter is not None:
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
    _check_finite(h)
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


def build_mmse_sce_exact(taps, codes, sigma2: float, n: int) -> np.ndarray:
    """Genie MMSE detector from the true channel and all active codes.

    The input covariance couples only the bins of one symbol group, so the
    detector ``R^-1 diag(hbar)`` is returned as its ``(n, nc, nc)`` group
    blocks ``R_g^-1 diag(hbar_g)`` (see :func:`fdcore.genie_covariance`).
    Raises ``LinAlgError`` when the noiseless system is rank deficient.
    """
    cov, _ = genie_covariance(taps, codes, sigma2, n)
    hbar = by_symbol(tap_spectrum(taps, n * cov.shape[-1]), n)
    return np.linalg.inv(cov) * hbar[:, None, :]


def detect_sce(z, detector, code) -> np.ndarray:
    """Equalize, transform back and despread; hard BPSK decisions.

    ``detector`` is either the per-bin weights from :func:`build_mmse_sce`
    (shaped like ``z``) or the ``(n, nc, nc)`` group blocks from
    :func:`build_mmse_sce_exact` (with ``z``'s leading axes, if any); it is
    applied conjugate-transposed. ``sign(0)`` resolves to +1.
    """
    z = np.asarray(z)
    detector = np.asarray(detector)
    if detector.ndim == z.ndim:
        eq = detector.conj() * z
    else:
        zg = by_symbol(z, detector.shape[-3])[..., None, :]   # (..., n, 1, nc)
        eq = from_symbol((zg @ detector.conj())[..., 0, :])
    chips = np.fft.ifft(eq, norm="ortho")
    soft = despread(chips, code)
    return np.where(soft.real >= 0, 1.0, -1.0)
