"""Complex-operation counters and the per-block cost model.

Each adaptive step can tally the complex multiplies and adds of its direct
structured implementation into an :class:`OpCounter`. The tallies follow a
fixed reference cost model (closed forms in :func:`nominal_cost`):

* matrix-vector product (r, c): ``r*c`` multiplies, ``r*(c-1)`` adds;
* diagonal scaling of an m-vector: ``m`` multiplies;
* inner product of length n: ``n`` multiplies, ``n-1`` adds;
* scaled update ``y += a*x``: ``n`` multiplies, ``n`` adds;
* one scalar division per conjugate-gradient iteration;
* matrix inverses via tableau elimination, charged as a lump per algorithm
  (see the recipes in the step functions).

FFT/IFFT costs are excluded throughout: the transforms are common to every
algorithm, so the dense charges above are used for the operator products
even where the runtime code takes a shortcut (FFTs, per-block normal equations).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class OpCounter:
    """Running totals of complex multiplies and adds."""

    mults: int = 0
    adds: int = 0

    def snapshot(self) -> tuple[int, int]:
        return self.mults, self.adds

    # primitive charges -----------------------------------------------------

    def matvec(self, rows: int, cols: int):
        self.mults += rows * cols
        self.adds += rows * (cols - 1)

    def diag_product(self, n: int):
        self.mults += n

    def inner(self, n: int):
        self.mults += n
        self.adds += n - 1

    def scale(self, n: int):
        self.mults += n

    def scaled_update(self, n: int):
        self.mults += n
        self.adds += n

    def vector_add(self, n: int):
        self.adds += n

    def scalar_div(self):
        self.mults += 1

    def lump(self, mults: int, adds: int = 0):
        self.mults += mults
        self.adds += adds


def nominal_cost(algo: str, *, m: int, n: int = 0, nc: int = 0,
                 taps: int = 0, iters: int = 0) -> tuple[int, int]:
    """Closed-form per-block (multiplies, adds) of the reference cost model.

    ``m`` is the chip-block length, ``n`` the symbol-block length, ``nc`` the
    spreading gain, ``taps`` the channel tap count and ``iters`` the
    conjugate-gradient iteration count. The channel-estimating algorithms
    depend on ``m`` and ``taps``; the direct-adaptation ones on ``m``, ``n``
    and ``nc``.
    """
    L, c = taps, iters
    if algo == "sce-lms":
        return 2 * m * L + 2 * m + L, 2 * m * L
    if algo == "sce-rls":
        return 2 * L**3 + 3 * m * L + (2 + m) * L**2, 2 * L**3 + 2 * m * L - 2 * L**2
    if algo == "sce-cg":
        return (2 * m * L + 4 * m + 4 * L + 1) * c, (2 * m * L + m + 3 * L - 3) * c
    if algo == "da-lms":
        return 2 * m * n + n, 2 * m * n
    if algo == "da-rls":
        return m * (nc**2 + 6 * nc + 2 * n - 1), m * (nc**2 + 2 * nc + 2 * n - 2)
    if algo == "da-cg":
        return (2 * m * n + 2 * m + n + 2) * c, (2 * m * n + 2 * m - 2) * c
    raise ValueError(f"unknown algorithm {algo!r}")
