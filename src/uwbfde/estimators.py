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
  desired user's pilot reads the noise variance off the fit's residual,
  always divided by its degrees of freedom (bins minus fitted taps); the
  power-inversion user count divides the time-averaged received block
  energy, which the group covariance's trace gives
  (:attr:`GroupCovariance.received_power` times ``m``), less the noise
  floor, by the channel energy. With several active users the pilot fit
  folds their interference into its residual. The harness uses the pilot
  fit for the ``estimators`` noise-variance sweep and the power inversion,
  fed the true noise variance and taps, for the genie-input user-count
  trace.

The pilot fit, the group covariance and the estimates read from them take a
leading run axis, each run's value bitwise equal to its own call without the
axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fdcore import add_group_outer, by_symbol, row_energy, tap_spectrum
from .sce import NormalEquations


def ml_noise_variance(z, xdiag, num_taps: int):
    """Joint tap / noise-variance fit against a known pilot block.

    Fits ``num_taps`` channel taps to the received spectrum by solving the
    block's normal equations (:class:`sce.NormalEquations`, the ones the SCE
    steps adapt on), then reads the noise variance off the
    residual: its energy divided by its degrees of freedom, bins minus
    fitted taps, which makes the estimate unbiased for a single user.
    Returns ``(sigma2_hat, taps_hat)``; ``(R, m)`` blocks and pilots give
    one of each per row, bitwise equal to that row's own call. A pilot that
    excites too few bins to determine the taps raises ``LinAlgError``; in a
    batch, one such row fails the whole call.
    """
    z = np.asarray(z, dtype=complex)
    m = z.shape[-1]
    if np.shape(xdiag) != z.shape:
        raise ValueError("z and xdiag must have the same shape")
    if not 1 <= num_taps:
        raise ValueError("num_taps must be >= 1")
    if num_taps >= m:
        raise ValueError("num_taps must be < m: the residual needs degrees of freedom")
    normal = NormalEquations(z, xdiag, num_taps)
    try:
        # the factor only tests positive definiteness; numpy has no triangular solve
        np.linalg.cholesky(normal.gram)
    except np.linalg.LinAlgError:
        raise np.linalg.LinAlgError("pilot-weighted basis is rank deficient") from None
    taps_hat = np.linalg.solve(normal.gram, normal.rhs[..., None])[..., 0]
    resid = z - normal.op.matvec(taps_hat)
    sigma2_hat = row_energy(resid) / (m - num_taps)
    return sigma2_hat[()], taps_hat


def estimate_user_count(p_r, sigma2, taps, nc: int, m: int, spectrum=None):
    """Active-user count from received power, noise floor and channel energy,
    ``(p_r - sigma2 * m) * nc / p_h`` with ``p_r`` the time-averaged block
    energy, ``GroupCovariance.received_power * m``, and ``p_h`` the energy of
    the taps' spectrum. ``(R, L)`` taps with one power per run give one
    count per run.
    A caller that estimates on the same taps every block may pass their
    ``spectrum``, ``tap_spectrum(taps, m)``, which then replaces ``taps``.
    """
    p_h = row_energy(tap_spectrum(taps, m) if spectrum is None else spectrum)
    return (p_r - sigma2 * m) * nc / p_h


# ---------------------------------------------------------------------------
# subspace estimator over the symbol-group covariance
# ---------------------------------------------------------------------------

@dataclass
class GroupCovariance:
    """Running sum of the received covariance of each symbol group.

    Group ``g`` holds bins ``g, g+n, ..., g+(nc-1)n``; ``acc[..., g, :, :]``
    is the sum of ``z_g z_g^H`` over the accumulated blocks, with one set of
    sums per run of a ``batch``.
    """

    acc: np.ndarray             # (*batch, n, nc, nc) Hermitian sums
    blocks: int = 0

    @classmethod
    def empty(cls, n: int, nc: int, batch=()) -> "GroupCovariance":
        return cls(acc=np.zeros((*batch, n, nc, nc), dtype=complex))

    @property
    def received_power(self):
        """Time-averaged received power per bin (one per run)."""
        if self.blocks < 1:
            raise ValueError("no blocks accumulated yet")
        n, nc = self.acc.shape[-3:-1]
        return (np.einsum("...gii->...", self.acc).real / (self.blocks * n * nc))[()]


def update_covariance(state: GroupCovariance, z) -> GroupCovariance:
    """Fold one received block, or one per run, into the per-group covariance
    sums, through :func:`fdcore.add_group_outer`."""
    zg = by_symbol(z, state.acc.shape[-3])                     # (..., n, nc)
    add_group_outer(state.acc, zg, zg.conj())
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
    n, nc = state.acc.shape[-3:-1]
    batch = state.acc.shape[:-3]
    if state.blocks <= nc:
        return SubspaceEstimate(state.received_power, np.full(batch, float(cap))[()],
                                np.full(batch, cap)[()], True)
    blocks = state.blocks
    eig = np.maximum(np.linalg.eigvalsh(state.acc / blocks), 0.0)   # (..., n, nc) ascending
    kmax = min(cap, nc - 1)
    orders = np.arange(kmax + 1)
    count = nc - orders                         # noise eigenvalues per candidate order
    # a rank-deficient group (noiseless signal) has eigenvalues at round-off
    # level; flooring them keeps log() finite and the ratio test meaningful
    floor = np.maximum(np.finfo(float).eps * eig[..., -1].max(axis=-1), np.finfo(float).tiny)
    floored = np.maximum(eig, floor[..., None, None])
    tail_sum = np.cumsum(floored, axis=-1)[..., count - 1]
    tail_log = np.cumsum(np.log(floored), axis=-1)[..., count - 1]
    # (nc-k) log(arith/geo) >= 0, exactly zero for a flat noise profile
    fit = count * np.log(tail_sum / count) - tail_log
    mdl = blocks * fit + 0.5 * orders * (2 * nc - orders) * np.log(blocks)
    k_int = np.argmin(mdl.sum(axis=-2), axis=-1)
    k_float = np.argmin(mdl, axis=-1).mean(axis=-1)
    # the noise subspace differs in size from run to run: one mean per order
    rows, orders_used = eig.reshape(-1, n, nc), k_int.ravel()
    sigma2 = np.empty(orders_used.shape)
    for k in set(orders_used.tolist()):
        sel = orders_used == k
        sigma2[sel] = rows[sel, :, :nc - k].mean(axis=(-2, -1))
    return SubspaceEstimate(sigma2.reshape(batch)[()], k_float[()], k_int[()], False)
