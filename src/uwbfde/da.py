"""Direct-adaptation (DA) detector.

One length-m frequency-domain filter suppresses intersymbol and
multiple-access interference jointly. The received-data operator that maps
the filter to symbol estimates factors into a diagonal scaling, a segment
fold and a small inverse DFT, which keeps every product cheap and gives the
least-squares normal matrix a sparse block structure: after regrouping bins
by symbol index (:func:`fdcore.by_symbol`) it is block diagonal with n
independent Hermitian nc-by-nc blocks, so the RLS solve and the genie MMSE
build cost O(m*nc^2) instead of O(m^3).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .fdcore import (
    DivergenceError,
    by_symbol,
    fold_segments,
    from_symbol,
    genie_covariance,
    tile_segments,
)

logger = logging.getLogger(__name__)


class RxOperator:
    """Received-block operator: symbol estimates from filter weights.

    ``matvec(w)`` computes the length-n symbol-domain output of filtering the
    received spectrum with ``w``; ``rmatvec(u)`` is the exact adjoint. Both
    cost O(m) plus one n-point transform.
    """

    def __init__(self, zbins, n: int):
        zbins = np.asarray(zbins, dtype=complex)
        if zbins.ndim != 1 or zbins.size == 0:
            raise ValueError("zbins must be a non-empty 1-D vector")
        if zbins.size % n != 0:
            raise ValueError(f"bin count {zbins.size} is not a multiple of {n}")
        self.zbins = zbins
        self.n = n
        self.nc = zbins.size // n

    @property
    def m(self) -> int:
        return self.zbins.size

    def matvec(self, w) -> np.ndarray:
        w = np.asarray(w, dtype=complex)
        if w.size != self.m:
            raise ValueError(f"expected length {self.m}, got {w.size}")
        return np.fft.ifft(fold_segments(self.zbins * w, self.n), norm="ortho")

    def rmatvec(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=complex)
        if u.size != self.n:
            raise ValueError(f"expected length {self.n}, got {u.size}")
        return self.zbins.conj() * tile_segments(np.fft.fft(u, norm="ortho"), self.nc)

    def dense(self) -> np.ndarray:
        """Explicit (n, m) matrix (oracle helper)."""
        cols = np.eye(self.m, dtype=complex)
        return np.stack([self.matvec(cols[:, j]) for j in range(self.m)], axis=1)


def spectral_mask(n: int, nc: int) -> np.ndarray:
    """Dense (m, m) 0/1 mask of bin pairs sharing the same symbol index (oracle helper)."""
    return np.kron(np.ones((nc, nc)), np.eye(n))


# ---------------------------------------------------------------------------
# adaptive state
# ---------------------------------------------------------------------------

@dataclass
class DaLmsState:
    w_hat: np.ndarray
    mu: float


@dataclass
class DaRlsState:
    w_hat: np.ndarray
    corr: np.ndarray            # (n, nc, nc) Hermitian blocks, grouped by symbol index
    lam: float
    delta: float = 1e-2


@dataclass
class DaCgState:
    w_hat: np.ndarray
    iters: int


def new_lms_state(m: int, mu: float) -> DaLmsState:
    return DaLmsState(w_hat=np.zeros(m, dtype=complex), mu=float(mu))


def new_rls_state(n: int, nc: int, lam: float = 0.998, delta: float = 1e-2) -> DaRlsState:
    if not 0 < lam <= 1:
        raise ValueError("forgetting factor must be in (0, 1]")
    corr = np.broadcast_to(delta * np.eye(nc, dtype=complex), (n, nc, nc)).copy()
    return DaRlsState(w_hat=np.zeros(n * nc, dtype=complex), corr=corr,
                      lam=float(lam), delta=float(delta))


def new_cg_state(m: int, iters: int = 8) -> DaCgState:
    if iters < 1:
        raise ValueError("iteration count must be >= 1")
    return DaCgState(w_hat=np.zeros(m, dtype=complex), iters=int(iters))


def _check_finite(vec):
    if not np.all(np.isfinite(vec)):
        raise DivergenceError("adaptive update diverged (non-finite weights)")


# ---------------------------------------------------------------------------
# adaptive steps
# ---------------------------------------------------------------------------

def da_lms_step(state: DaLmsState, op: RxOperator, b, counter=None) -> DaLmsState:
    """One stochastic-gradient update of the filter from one training block."""
    err = b - op.matvec(state.w_hat)
    state.w_hat += op.rmatvec(state.mu * err)
    _check_finite(state.w_hat)
    if counter is not None:
        m, n = op.m, op.n
        counter.matvec(n, m)        # filter output
        counter.vector_add(n)       # error
        counter.scale(n)            # step size
        counter.matvec(m, n)        # adjoint fold
        counter.vector_add(m)       # weight update
    return state


def da_rls_step(state: DaRlsState, op: RxOperator, b, counter=None) -> DaRlsState:
    """One recursive-least-squares update using the blockwise sparse solve.

    The per-block normal-matrix increment is the outer product of each
    symbol's bin group with itself, so the accumulator stays block diagonal
    in the regrouped ordering and each nc-by-nc block is solved directly.
    """
    n, nc = op.n, op.nc
    zg = by_symbol(op.zbins, n)                           # (n, nc)
    state.corr = state.lam * state.corr + zg.conj()[:, :, None] * zg[:, None, :]
    err = b - op.matvec(state.w_hat)
    folded = by_symbol(op.rmatvec(err), n)[:, :, None]
    try:
        update = np.linalg.solve(state.corr, folded)
    except np.linalg.LinAlgError:
        update = np.empty_like(folded)
        eye = state.delta * np.eye(nc)
        for i in range(n):
            try:
                update[i] = np.linalg.solve(state.corr[i], folded[i])
            except np.linalg.LinAlgError:
                logger.warning("singular block %d; regularizing with delta=%g", i, state.delta)
                state.corr[i] = state.corr[i] + eye
                update[i] = np.linalg.solve(state.corr[i], folded[i])
    state.w_hat += from_symbol(update[:, :, 0])
    _check_finite(state.w_hat)
    if counter is not None:
        m = op.m
        counter.matvec(n, m)                              # filter output
        counter.vector_add(n)                             # error
        counter.matvec(m, n)                              # adjoint fold
        counter.scale(m * nc)                             # forgetting-factor decay
        counter.lump(2 * m * nc, 0)                       # masked gram entries
        counter.vector_add(m * nc)                        # accumulate
        counter.lump(n * (nc**3 + 2 * nc**2 - nc), n * nc**3)  # blockwise tableau inverses
        counter.lump(m * nc, m * nc - m)                  # blockwise solve application
    return state


def da_cg_step(state: DaCgState, op: RxOperator, b, counter=None, trace=None) -> DaCgState:
    """Run the per-block conjugate-gradient inner loop on the filter weights.

    ``trace``, when given, collects one ``(grad_energy, neg_dir_grad,
    residual_norm)`` tuple per iteration.
    """
    w = state.w_hat
    err = b - op.matvec(w)
    grad = -op.rmatvec(err)
    direction = -grad
    grad_energy = float(np.vdot(grad, grad).real)
    for _ in range(state.iters):
        if grad_energy == 0.0:
            break
        filtered = op.matvec(direction)
        curvature = float(np.vdot(filtered, filtered).real)
        if curvature == 0.0:
            break
        alpha = grad_energy / curvature
        w += alpha * direction
        err -= alpha * filtered
        new_grad = -op.rmatvec(err)
        new_energy = float(np.vdot(new_grad, new_grad).real)
        beta = new_energy / grad_energy
        if trace is not None:
            neg_dir_grad = -complex(np.vdot(direction, grad))
            trace.append((grad_energy, neg_dir_grad, float(np.linalg.norm(err))))
        direction = -new_grad + beta * direction
        grad, grad_energy = new_grad, new_energy
        if counter is not None:
            m, n = op.m, op.n
            counter.matvec(n, m)        # filtered direction
            counter.inner(n)            # curvature
            counter.scalar_div()        # step size
            counter.scaled_update(m)    # weight update
            counter.lump(0, 0)          # error recursion reuses the filtered direction
            counter.matvec(m, n)        # new gradient
            counter.inner(m)            # gradient energy
            counter.scalar_div()        # direction ratio
            counter.lump(0, m)          # direction recombination (adds only)
    _check_finite(w)
    return state


# ---------------------------------------------------------------------------
# genie baseline and detection
# ---------------------------------------------------------------------------

def build_mmse_da(taps, codes, sigma2: float, n: int) -> np.ndarray:
    """Genie MMSE filter weights from the true channel and all active codes.

    Solves each symbol group's input covariance against the desired user's
    composite response, ``w_g = conj(R_g^-1 lam_0,g) / sqrt(nc)`` (see
    :func:`fdcore.genie_covariance`): the per-bin row sums of the masked
    m-by-m solution. Returns the weight vector ready for :func:`detect_da`.
    """
    cov, lam = genie_covariance(taps, codes, sigma2, n)
    solution = np.linalg.solve(cov, lam[0][:, :, None])[:, :, 0]
    return from_symbol(solution).conj() / np.sqrt(cov.shape[-1])


def detect_da(op: RxOperator, w_hat) -> np.ndarray:
    """Hard BPSK decisions from the filtered received block; sign(0) is +1."""
    soft = op.matvec(w_hat)
    return np.where(soft.real >= 0, 1.0, -1.0)
