"""Direct-adaptation (DA) detector.

One length-m frequency-domain filter suppresses intersymbol and
multiple-access interference jointly. The received-data operator that maps
the filter to symbol estimates factors into a diagonal scaling, a segment
fold and a small inverse DFT, which keeps every product cheap and gives the
least-squares normal matrix a sparse block structure: after regrouping bins
by symbol index (:func:`fdcore.by_symbol`) it is block diagonal with n
independent Hermitian nc-by-nc blocks, so the RLS solve and the genie MMSE
build cost O(m*nc^2) instead of O(m^3). Neither the explicit n-by-m
operator nor the m-by-m normal matrix is ever formed. Every adaptive step
fits one least-squares cost ``||b - A w||^2`` on this operator
:class:`RxOperator`. Its last factor, an n-point inverse DFT, is unitary,
so DA-CG and DA-RLS fit ``||DFT_n(b) - fold(z * w)||^2`` on
:class:`SymbolDftOperator` instead, with no transform in the loop. DA-CG
stays CGLS (:func:`fdcore.cg_least_squares`): the block's cost has rank
n < m, and its normal equations would square the conditioning.

The operator, the steps, the genie build and detection also take a leading
row axis: an ``(R, m)`` received block advances R independent rows at once,
each row bitwise equal to its own call without the axis. The genie weights
of :func:`build_mmse_da` also serve as the SCE genie (see :mod:`uwbfde.sce`),
so one build per sweep point feeds both genie detectors, and
:func:`detect_da` is the one detection kernel of all eight detectors.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass

import numpy as np

from .fdcore import (
    by_symbol,
    cg_least_squares,
    check_finite,
    fold_segments,
    from_symbol,
    genie_covariance,
    solve_regularized,
)

logger = logging.getLogger(__name__)
_DIVERGED = "adaptive update diverged (non-finite weights)"


class SymbolDftOperator:
    """:class:`RxOperator` without its n-point inverse DFT: ``matvec(w) =
    fold(z * w)`` and its adjoint ``rmatvec(u) = conj(z) * tile(u)``, tiled
    by broadcasting. The target of symbols ``b`` is ``fft(b, norm="ortho")``."""

    def __init__(self, zbins, n: int):
        self.zbins = np.asarray(zbins, dtype=complex)
        self.n = n

    @functools.cached_property
    def zconj_segments(self) -> np.ndarray:
        """``conj(z)`` as ``(..., nc, n)`` segments; formed on the first
        adjoint, so detection alone never conjugates the block."""
        return self.zbins.conj().reshape(*self.zbins.shape[:-1], -1, self.n)

    def matvec(self, w) -> np.ndarray:
        return fold_segments(self.zbins * w, self.n)

    def rmatvec(self, u) -> np.ndarray:
        out = self.zconj_segments * u[..., None, :]
        return out.reshape(*out.shape[:-2], -1)


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
        self.n, self.m = n, zbins.shape[-1]
        self.nc = self.m // n
        self.symbol_dft = SymbolDftOperator(zbins, n)

    def matvec(self, w) -> np.ndarray:
        w = np.asarray(w, dtype=complex)
        if w.shape[-1:] != (self.m,):
            raise ValueError(f"expected length {self.m}, got shape {w.shape}")
        return np.fft.ifft(self.symbol_dft.matvec(w), norm="ortho")

    def rmatvec(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=complex)
        if u.shape[-1:] != (self.n,):
            raise ValueError(f"expected length {self.n}, got shape {u.shape}")
        return self.symbol_dft.rmatvec(np.fft.fft(u, norm="ortho"))


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


# ---------------------------------------------------------------------------
# adaptive steps
# ---------------------------------------------------------------------------

def da_lms_step(state: DaLmsState, op: RxOperator, b, counter=None) -> DaLmsState:
    """One stochastic-gradient update of the filter from one training block."""
    err = b - op.matvec(state.w_hat)
    state.w_hat += op.rmatvec(state.mu * err)
    check_finite(state.w_hat, _DIVERGED)
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
    err = np.fft.fft(b, norm="ortho") - op.symbol_dft.matvec(state.w_hat)
    folded = by_symbol(op.symbol_dft.rmatvec(err), n)[..., None]
    update, regularized = solve_regularized(state.corr, folded, state.delta)
    for block in regularized:
        logger.warning("singular block %s; regularizing with delta=%g", block, state.delta)
    state.w_hat += from_symbol(update[..., 0])
    check_finite(state.w_hat, _DIVERGED)
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

    The loop is :func:`fdcore.cg_least_squares` on the block's cost
    ``||b - op w||^2`` in the symbol-DFT domain; ``trace`` is passed
    through, with the residual norms of ``b - op w`` (the DFT is unitary).
    """
    done = cg_least_squares(state.w_hat, op.symbol_dft, np.fft.fft(b, norm="ortho"),
                            state.iters, trace)
    check_finite(state.w_hat, _DIVERGED)
    if counter is not None:
        m, n = op.m, op.n
        for _ in range(done):
            counter.matvec(n, m)        # filtered direction
            counter.inner(n)            # curvature
            counter.scalar_div()        # step size
            counter.scaled_update(m)    # weight update
            counter.lump(0, 0)          # error recursion reuses the filtered direction
            counter.matvec(m, n)        # new gradient
            counter.inner(m)            # gradient energy
            counter.scalar_div()        # direction ratio
            counter.lump(0, m)          # direction recombination (adds only)
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
    ``(R, L)`` taps give one weight vector per row, ``(R, m)``. Applied by
    :func:`detect_da`, it takes the decisions of the SCE genie, the
    per-group equalizer ``R_g^-1 diag(hbar_g)`` followed by despreading
    with the desired code.
    """
    cov, lam = genie_covariance(taps, codes, sigma2, n)
    solution = np.linalg.solve(cov, lam[..., 0, :, :, None])[..., 0]
    return from_symbol(solution).conj() / np.sqrt(cov.shape[-1])


def detect_da(op: RxOperator, w_hat) -> np.ndarray:
    """Hard BPSK decisions from the filtered received block(s); sign(0) is +1."""
    soft = op.matvec(w_hat)
    return np.where(soft.real >= 0, 1.0, -1.0)
