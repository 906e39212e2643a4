"""Noise-variance and active-user-count estimation for the SCE detector.

Two families of estimators live here:

* The subspace estimator feeds the SCE detector's equalizer whenever it runs
  on estimated inputs. It accumulates the received covariance of each symbol
  group (bins ``a = a' mod n``), where the code-mixed signal of K users has
  rank K on top of a white ``sigma2 * I`` floor. The user count is chosen by
  the minimum-description-length criterion pooled over the groups (Wax and
  Kailath, IEEE TASSP 1985), and the noise variance is the mean of the
  remaining noise-subspace eigenvalues. It needs no pilot and no tap
  estimate.
* The per-block maximum-likelihood fit of the short tap vector to the
  desired user's pilot reads the noise variance off the fit's residual; the
  power-inversion user count divides the time-averaged received power, less
  the noise floor, by the channel energy. With several active users the
  pilot fit folds their interference into its residual. The harness uses the
  pilot fit for the ``estimators`` noise-variance sweep and the power
  inversion, fed the true noise variance and taps, for the genie-input
  user-count trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .fdcore import by_symbol, fourier_tap_basis, tap_spectrum


def ml_noise_variance(z, xdiag, num_taps: int, ddof_correction: bool = False):
    """Joint tap / noise-variance fit against one known pilot block.

    Fits ``num_taps`` channel taps to the received spectrum by least squares
    on the pilot-weighted tap basis, then reads the noise variance off the
    residual. The plain estimate divides the residual energy by the bin
    count; ``ddof_correction`` divides by the residual's actual degrees of
    freedom (bins minus fitted taps), which removes the downward bias of the
    plain estimate. Returns ``(sigma2_hat, taps_hat)``.
    """
    z = np.asarray(z, dtype=complex)
    xdiag = np.asarray(xdiag, dtype=complex)
    m = z.size
    if xdiag.size != m:
        raise ValueError("z and xdiag must have the same length")
    if not 1 <= num_taps:
        raise ValueError("num_taps must be >= 1")
    if ddof_correction and num_taps >= m:
        raise ValueError("degrees-of-freedom correction needs num_taps < m")
    basis = xdiag[:, None] * fourier_tap_basis(m, num_taps)
    gram = basis.conj().T @ basis
    try:
        factor = cho_factor(gram)
    except np.linalg.LinAlgError:
        cond = np.linalg.cond(gram)
        raise np.linalg.LinAlgError(
            f"pilot-weighted basis is rank deficient (condition estimate {cond:.3e})")
    taps_hat = cho_solve(factor, basis.conj().T @ z)
    resid = z - basis @ taps_hat
    denom = (m - num_taps) if ddof_correction else m
    sigma2_hat = float(np.vdot(resid, resid).real) / denom
    return sigma2_hat, taps_hat


@dataclass
class EstimatorState:
    """Running accumulator for the time-averaged received power."""

    power_sum: float = 0.0
    blocks: int = 0

    @property
    def received_power(self) -> float:
        if self.blocks < 1:
            raise ValueError("no blocks accumulated yet")
        return self.power_sum / self.blocks


def update_power(state: EstimatorState, z) -> EstimatorState:
    """Fold one received block's energy into the time-averaged power."""
    z = np.asarray(z, dtype=complex)
    state.power_sum += float(np.vdot(z, z).real)
    state.blocks += 1
    return state


class UserCountEstimate(NamedTuple):
    k_float: float
    k_int: int
    startup: bool = False


def estimate_user_count(p_r: float, sigma2_hat: float, h_hat, nc: int, m: int,
                        cap: int = 7) -> UserCountEstimate:
    """Active-user count from received power, noise floor and channel energy.

    ``k_float = (p_r - sigma2_hat * m) * nc / p_h`` with ``p_h`` the energy
    of the tap estimate's spectrum; the integer estimate truncates toward
    zero and is clamped to ``[0, cap]``. A null tap estimate (startup) has no
    usable channel energy, so the capped value is emitted with the
    ``startup`` flag set.
    """
    spectrum = tap_spectrum(h_hat, m)
    p_h = float(np.vdot(spectrum, spectrum).real)
    if p_h <= 0.0:
        return UserCountEstimate(math.inf, cap, True)
    k_float = (p_r - sigma2_hat * m) * nc / p_h
    k_int = int(k_float)                 # truncation toward zero
    k_int = min(max(k_int, 0), cap)
    return UserCountEstimate(float(k_float), k_int, False)


# ---------------------------------------------------------------------------
# subspace estimator over the symbol-group covariance
# ---------------------------------------------------------------------------

@dataclass
class GroupCovariance:
    """Running sum of the received covariance of each symbol group.

    Group ``g`` holds bins ``g, g+n, ..., g+(nc-1)n``; ``acc[g]`` is the sum
    of ``z_g z_g^H`` over the accumulated blocks.
    """

    acc: np.ndarray             # (n, nc, nc) Hermitian sums
    blocks: int = 0

    @classmethod
    def empty(cls, n: int, nc: int) -> "GroupCovariance":
        return cls(acc=np.zeros((n, nc, nc), dtype=complex))

    @property
    def received_power(self) -> float:
        """Time-averaged received power per bin."""
        if self.blocks < 1:
            raise ValueError("no blocks accumulated yet")
        n, nc, _ = self.acc.shape
        return float(np.einsum("gii->", self.acc).real) / (self.blocks * n * nc)


def update_covariance(state: GroupCovariance, z) -> GroupCovariance:
    """Fold one received block into the per-group covariance sums."""
    zg = by_symbol(z, state.acc.shape[0])                      # (n, nc)
    state.acc += zg[:, :, None] * zg[:, None, :].conj()
    state.blocks += 1
    return state


class SubspaceEstimate(NamedTuple):
    sigma2: float
    k_float: float
    k_int: int
    startup: bool = False


def subspace_estimate(state: GroupCovariance, cap: int = 7) -> SubspaceEstimate:
    """Noise variance and user count from the per-group covariance.

    For each candidate order ``k`` the MDL criterion of one group is
    ``N (nc-k) log(arith/geo) + k (2 nc - k) log(N) / 2``, with ``N`` the
    block count and ``arith``/``geo`` the arithmetic and geometric means of
    the group's ``nc-k`` smallest eigenvalues. ``k_int`` minimizes the sum of
    the criterion over the groups and is clamped to ``[0, min(cap, nc-1)]``;
    ``k_float`` is the mean over the groups of each group's own minimizing
    order: below ``k_int`` where a faded group hides a user, above it while
    few blocks leave the noise eigenvalues spread.
    ``sigma2`` is the mean over the groups of the ``nc - k_int`` smallest
    eigenvalues.

    With every code in use (K = nc) no noise subspace is left: ``k_int``
    stops at ``nc-1`` and ``sigma2`` reads the smallest eigenvalue of each
    group, an upper bound on the noise variance.

    Until more than ``nc`` blocks are accumulated the covariance is rank
    deficient, so the startup values are returned with ``startup`` set:
    ``k_int = k_float = cap`` and ``sigma2`` equal to the received power per
    bin, an upper bound on the noise variance.
    """
    n, nc, _ = state.acc.shape
    if state.blocks <= nc:
        return SubspaceEstimate(state.received_power, float(cap), cap, True)
    blocks = state.blocks
    eig = np.maximum(np.linalg.eigvalsh(state.acc / blocks), 0.0)   # (n, nc) ascending
    kmax = min(cap, nc - 1)
    orders = np.arange(kmax + 1)
    count = nc - orders                         # noise eigenvalues per candidate order
    # a rank-deficient group (noiseless signal) has eigenvalues at round-off
    # level; flooring them keeps log() finite and the ratio test meaningful
    floor = max(np.finfo(float).eps * float(eig[:, -1].max()), np.finfo(float).tiny)
    floored = np.maximum(eig, floor)
    tail_sum = np.cumsum(floored, axis=1)[:, count - 1]
    tail_log = np.cumsum(np.log(floored), axis=1)[:, count - 1]
    # (nc-k) log(arith/geo) >= 0, exactly zero for a flat noise profile
    fit = count * np.log(tail_sum / count) - tail_log
    mdl = blocks * fit + 0.5 * orders * (2 * nc - orders) * np.log(blocks)
    k_int = int(np.argmin(mdl.sum(axis=0)))
    k_float = float(np.argmin(mdl, axis=1).mean())
    sigma2 = float(eig[:, :nc - k_int].mean())
    return SubspaceEstimate(sigma2, k_float, k_int, False)
