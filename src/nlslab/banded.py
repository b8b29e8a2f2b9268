"""Tridiagonal matrices stored by their three bands.

Every discrete operator of the package (the radial Laplacian, L_+/L_-,
the Crank-Nicolson matrix) is a ``Tridiag``; ``count_negative`` gives the
inertia of a symmetric one, on which the coercivity bisection rests.
A ``Tridiag`` is LU-factored (LAPACK ?gttrf) on its first ``solve`` and
keeps the factors, so every later solve is a back-substitution; the
evolver keeps one Crank-Nicolson matrix per dt, which is therefore
factored once per dt.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.typing import NDArray
from scipy.linalg import get_lapack_funcs

from .errors import InvalidParameterError, SingularSystemError

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

    def count_negative(self) -> int:
        """Number of negative eigenvalues of a symmetric T (Sturm count).

        The negative pivots of T = L D L^T, computed by the recurrence
        d_i = diag_i - sub_{i-1}^2 / d_{i-1}.  A pivot smaller in magnitude
        than pivmin, an exactly zero one included, is replaced by -pivmin,
        as in LAPACK's bisection (dstebz), so no division overflows.
        """
        b2 = (self.sub * self.sub).tolist()
        pivmin = sys.float_info.min * max(1.0, max(b2, default=0.0))
        count, d = 0, 1.0
        for a, bb in zip(self.diag.tolist(), [0.0] + b2):
            d = a - bb / d
            if abs(d) < pivmin:
                d = -pivmin
            count += d < 0.0
        return count

    @cached_property
    def _lu(self):
        """(?gttrs, its factor arguments): the LU factors of T with partial
        pivoting from LAPACK ?gttrf, in the dtype of the bands."""
        bands = [np.asarray_chkfinite(b) for b in (self.sub, self.diag, self.sup)]
        if self.m < 3:  # scipy's ?gttrf wrapper rejects n < 3
            raise InvalidParameterError(f"solve needs at least 3 rows, got {self.m}")
        gttrf, gttrs = get_lapack_funcs(("gttrf", "gttrs"), bands)
        *factors, info = gttrf(*bands)
        if info:
            raise SingularSystemError(f"tridiagonal matrix is singular (pivot {info} is 0)")
        return gttrs, factors

    def solve(self, rhs):
        """T^{-1} rhs for a 1-D or 2-D (one column per system) ``rhs``.

        The result has the wider of the two dtypes: a complex ``rhs`` on a
        real T is solved with T widened to complex, factored for that call.
        A result that is not finite raises ``InvalidParameterError`` when
        ``rhs`` is not finite (which always makes the result so), and
        ``SingularSystemError`` otherwise.
        """
        rhs = np.asarray(rhs)
        if rhs.shape[:1] != (self.m,):
            raise ValueError(f"rhs of shape {rhs.shape} does not fit {self.m} rows")
        gttrs, factors = self._lu
        wide = np.result_type(factors[1], rhs)
        if wide != factors[1].dtype:
            return Tridiag(*(b.astype(wide) for b in (self.sub, self.diag, self.sup))).solve(rhs)
        x, info = gttrs(*factors, rhs)
        if info:
            raise SingularSystemError(f"?gttrs rejected argument {-info}")
        # a subnormal pivot passes ?gttrf and overflows here, so the check
        # goes on the result; the rhs is scanned only once that check fails
        if not np.isfinite(x).all():
            if not np.isfinite(rhs).all():
                raise InvalidParameterError(
                    "the right-hand side of a tridiagonal solve is not finite")
            raise SingularSystemError("tridiagonal solve is not finite (near-zero pivot)")
        return x
