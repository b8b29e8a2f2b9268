"""Tridiagonal matrices stored by their three bands.

Every discrete operator of the package (the radial Laplacian, L_+/L_-,
the Crank-Nicolson pair) is a ``Tridiag``; the fourth-order products
L_- L_+ and L_+ L_- are formed from two of them by ``product``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.typing import NDArray
from scipy.linalg import solve_banded

__all__ = ["Tridiag"]


@dataclass(frozen=True, eq=False)
class Tridiag:
    """T[i+1, i] = sub[i],  T[i, i] = diag[i],  T[i, i+1] = sup[i]."""

    sub: NDArray
    diag: NDArray
    sup: NDArray

    @property
    def m(self) -> int:
        return self.diag.size

    def apply(self, x):
        """T x, each row summed as (sub x_{i-1} + diag x_i) + sup x_{i+1}."""
        out = self.diag * x
        out[1:] += self.sub * x[:-1]
        out[:-1] += self.sup * x[1:]
        return out

    def symmetrize(self, s) -> "Tridiag":
        """S T S^{-1} with S = diag(s), s = sqrt(rho), for a T that satisfies
        rho_i T[i, i+1] = rho_{i+1} T[i+1, i]; the result is symmetric."""
        off = self.sup * s[:-1] / s[1:]
        return Tridiag(off, self.diag, off)

    def product(self, other: "Tridiag", shift: float = 0.0) -> NDArray:
        """Bands of self @ other + shift I in ``solve_banded((2, 2), ...)`` layout."""
        a, b = self, other
        c0 = a.diag * b.diag + shift
        c0[1:] += a.sub * b.sup
        c0[:-1] += a.sup * b.sub
        ab = np.zeros((5, self.m), dtype=np.result_type(a.diag, b.diag))
        ab[0, 2:] = a.sup[:-1] * b.sup[1:]                  # [i, i+2]
        ab[1, 1:] = a.diag[:-1] * b.sup + a.sup * b.diag[1:]  # [i, i+1]
        ab[2, :] = c0
        ab[3, :-1] = a.sub * b.diag[:-1] + a.diag[1:] * b.sub  # [i+1, i]
        ab[4, :-2] = a.sub[1:] * b.sub[:-1]                 # [i+2, i]
        return ab

    @cached_property
    def _banded(self) -> NDArray:
        ab = np.zeros((3, self.m), dtype=np.result_type(self.sub, self.diag, self.sup))
        ab[0, 1:] = self.sup
        ab[1, :] = self.diag
        ab[2, :-1] = self.sub
        return ab

    def solve(self, rhs):
        """T^{-1} rhs (LAPACK banded LU with partial pivoting)."""
        return solve_banded((1, 1), self._banded, rhs)

    def to_dense(self) -> NDArray:
        """Dense copy; for the small-grid dense eigensolves and test oracles."""
        M = np.diag(self.diag)
        k = np.arange(self.m - 1)
        M[k, k + 1] = self.sup
        M[k + 1, k] = self.sub
        return M
