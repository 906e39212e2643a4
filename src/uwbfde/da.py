"""Direct-adaptation (DA) detector.

One length-m frequency-domain filter suppresses intersymbol and
multiple-access interference jointly. The received-data operator that maps
the filter to symbol estimates factors into a diagonal scaling, a segment
fold and a small inverse DFT, which keeps every product cheap and gives the
least-squares normal matrix a sparse block structure: after regrouping bins
by symbol index (:func:`fdcore.by_symbol`) it is block diagonal with n
independent Hermitian nc-by-nc blocks, so the RLS solve and the genie MMSE
build cost O(m*nc^2) instead of O(m^3).

The operator, the steps and detection also take a leading run axis: an
``(R, m)`` received block advances R independent runs at once, each row
bitwise equal to its own call without the axis.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .fdcore import (
    by_symbol,
    check_finite,
    fold_segments,
    from_symbol,
    genie_covariance,
    row_energy,
    solve_regularized,
    tile_segments,
)

logger = logging.getLogger(__name__)


class RxOperator:
    """Received-block operator: symbol estimates from filter weights.

    ``matvec(w)`` computes the length-n symbol-domain output of filtering the
    received spectrum with ``w``; ``rmatvec(u)`` is the exact adjoint. Both
    cost O(m) plus one n-point transform. ``zbins`` of shape ``(R, m)`` holds
    one received block per run, and the products act row by row.
    """

    def __init__(self, zbins, n: int):
        zbins = np.asarray(zbins, dtype=complex)
        if zbins.ndim == 0 or zbins.shape[-1] == 0:
            raise ValueError("zbins must have a non-empty last axis")
        if zbins.shape[-1] % n != 0:
            raise ValueError(f"bin count {zbins.shape[-1]} is not a multiple of {n}")
        self.zbins = zbins
        self.zconj = zbins.conj()
        self.n = n
        self.nc = zbins.shape[-1] // n

    @property
    def m(self) -> int:
        return self.zbins.shape[-1]

    def matvec(self, w) -> np.ndarray:
        w = np.asarray(w, dtype=complex)
        if w.shape[-1:] != (self.m,):
            raise ValueError(f"expected length {self.m}, got shape {w.shape}")
        return np.fft.ifft(fold_segments(self.zbins * w, self.n), norm="ortho")

    def rmatvec(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=complex)
        if u.shape[-1:] != (self.n,):
            raise ValueError(f"expected length {self.n}, got shape {u.shape}")
        return self.zconj * tile_segments(np.fft.fft(u, norm="ortho"), self.nc)

    def dense(self) -> np.ndarray:
        """Explicit (n, m) matrix of a single block (oracle helper)."""
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


# ``batch`` is the leading shape of the state arrays: ``()`` for one run,
# ``(R,)`` for R runs advanced together.

def new_lms_state(m: int, mu: float, batch=()) -> DaLmsState:
    return DaLmsState(w_hat=np.zeros((*batch, m), dtype=complex), mu=float(mu))


def new_rls_state(n: int, nc: int, lam: float = 0.998, delta: float = 1e-2,
                  batch=()) -> DaRlsState:
    if not 0 < lam <= 1:
        raise ValueError("forgetting factor must be in (0, 1]")
    corr = np.broadcast_to(delta * np.eye(nc, dtype=complex), (*batch, n, nc, nc)).copy()
    return DaRlsState(w_hat=np.zeros((*batch, n * nc), dtype=complex), corr=corr,
                      lam=float(lam), delta=float(delta))


def new_cg_state(m: int, iters: int = 8, batch=()) -> DaCgState:
    if iters < 1:
        raise ValueError("iteration count must be >= 1")
    return DaCgState(w_hat=np.zeros((*batch, m), dtype=complex), iters=int(iters))


def _check_finite(vec):
    check_finite(vec, "adaptive update diverged (non-finite weights)")


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
    in the regrouped ordering and each nc-by-nc block is solved directly. A
    singular block is regularized with ``delta * I``, that block only.
    """
    n, nc = op.n, op.nc
    zg = by_symbol(op.zbins, n)                           # (..., n, nc)
    zg_conj = zg.conj()
    state.corr *= state.lam
    for j in range(nc):         # column by column: no (..., n, nc, nc) temporary
        state.corr[..., j] += zg_conj * zg[..., j, None]
    err = b - op.matvec(state.w_hat)
    folded = by_symbol(op.rmatvec(err), n)[..., None]
    update, regularized = solve_regularized(state.corr, folded, state.delta)
    for block in regularized:
        logger.warning("singular block %s; regularizing with delta=%g", block, state.delta)
    state.w_hat += from_symbol(update[..., 0])
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

    A zero-curvature direction or a vanished gradient ends the loop early,
    per run: a stopped row takes no further step. ``trace``, when given,
    collects one ``(grad_energy, neg_dir_grad, residual_norm)`` tuple per
    iteration (one value per run).
    """
    w = state.w_hat
    err = b - op.matvec(w)
    grad = -op.rmatvec(err)
    direction = -grad
    grad_energy = row_energy(grad)
    active = np.ones(grad_energy.shape, dtype=bool)
    for _ in range(state.iters):
        active &= grad_energy != 0.0
        if not active.any():
            break
        filtered = op.matvec(direction)
        curvature = row_energy(filtered)
        active &= curvature != 0.0
        if not active.any():
            break
        alpha = np.divide(grad_energy, curvature, out=np.zeros(curvature.shape),
                          where=active)[..., None]
        w += alpha * direction
        err -= alpha * filtered
        new_grad = -op.rmatvec(err)
        new_energy = row_energy(new_grad)
        beta = np.divide(new_energy, grad_energy, out=np.zeros(new_energy.shape),
                         where=active)[..., None]
        if trace is not None:
            neg_dir_grad = -np.einsum("...i,...i->...", direction.conj(), grad)
            trace.append((grad_energy, neg_dir_grad, np.linalg.norm(err, axis=-1)))
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
    m-by-m solution. Returns the weight vector ready for :func:`detect_da`;
    ``(R, L)`` taps give one weight vector per run, ``(R, m)``.
    """
    cov, lam = genie_covariance(taps, codes, sigma2, n)
    solution = np.linalg.solve(cov, lam[..., 0, :, :, None])[..., 0]
    return from_symbol(solution).conj() / np.sqrt(cov.shape[-1])


def detect_da(op: RxOperator, w_hat) -> np.ndarray:
    """Hard BPSK decisions from the filtered received block(s); sign(0) is +1."""
    soft = op.matvec(w_hat)
    return np.where(soft.real >= 0, 1.0, -1.0)
