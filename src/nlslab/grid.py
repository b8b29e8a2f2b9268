"""Uniform radial grids on [0, rmax] for radial functions on R^N.

A radial function f(r) stands for f(|x|) on R^N.  Integrals carry the
surface measure of the unit sphere,

    int_{R^N} g(|x|) dx = omega_N int_0^inf g(r) r^{N-1} dr,
    omega_N = 2 pi^{N/2} / Gamma(N/2),   omega_1 = 2 (even extension).

Nodes are r_i = i h, i = 0..n, h = rmax/n.  Quadrature weights are the
trapezoid weights of the radial measure,

    w_i = omega_N r_i^{N-1} h,   halved at i = n,

and at the origin w_0 = omega_N h^N (3-N)/(4N) for N <= 3: h for N = 1
(the halved trapezoid weight), pi h^2/4 for N = 2 (the disk of radius
h/2) and 0 for N >= 3.  These are the weights under which the discrete
Laplacian is symmetric, so every integral, the identity checks and the
mass that Crank-Nicolson conserves share one measure.

The discrete Laplacian of each dimension is defined once, by
``radial_operator``; every module takes its bands from there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .banded import Tridiag
from .errors import GridMismatchError, InvalidParameterError

__all__ = [
    "RadialGrid",
    "RadialOperator",
    "Field",
    "Norms",
    "make_grid",
    "radial_operator",
    "integrate",
    "laplacian_apply",
    "norms",
    "gradient_values",
    "omega_n",
    "write_field_csv",
    "read_field_csv",
]

FLOAT_FMT = "%.17g"


def omega_n(N: int) -> float:
    """Surface measure of the unit sphere in R^N; omega_1 = 2 by even extension."""
    if N == 1:
        return 2.0
    return 2.0 * math.pi ** (N / 2.0) / math.gamma(N / 2.0)


@dataclass(frozen=True)
class RadialGrid:
    """Immutable uniform radial grid with trapezoid quadrature weights."""

    N: int
    rmax: float
    n: int
    h: float
    r: NDArray[np.float64] = field(repr=False)
    w: NDArray[np.float64] = field(repr=False)

    def __post_init__(self):
        self.r.setflags(write=False)
        self.w.setflags(write=False)

    def same_as(self, other: "RadialGrid") -> bool:
        return (
            self.N == other.N
            and self.n == other.n
            and self.rmax == other.rmax
        )


def make_grid(N: int, rmax: float, n: int) -> RadialGrid:
    """Build a RadialGrid. Requires N >= 1 integer, rmax > 0, n >= 16."""
    if not (isinstance(N, (int, np.integer)) and N >= 1):
        raise InvalidParameterError(f"dimension N must be an integer >= 1, got {N!r}")
    if not rmax > 0:
        raise InvalidParameterError(f"rmax must be positive, got {rmax!r}")
    if not (isinstance(n, (int, np.integer)) and n >= 16):
        raise InvalidParameterError(f"node count n must be an integer >= 16, got {n!r}")
    N = int(N)
    n = int(n)
    rmax = float(rmax)
    h = rmax / n
    r = np.arange(n + 1, dtype=float) * h
    w = omega_n(N) * r ** (N - 1) * h
    w[0] = omega_n(N) * h**N * (3.0 - N) / (4.0 * N) if N <= 3 else 0.0
    w[-1] *= 0.5
    return RadialGrid(N=N, rmax=rmax, n=n, h=h, r=r, w=w)


@dataclass
class Field:
    """Complex-valued radial function sampled on a RadialGrid.

    ``decaying``: the value at r = rmax is pinned to 0.
    ``real``: the field is flagged real; the imaginary part must vanish.
    """

    grid: RadialGrid
    values: NDArray[np.complex128]
    real: bool = False
    decaying: bool = True

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (self.grid.n + 1,):
            raise GridMismatchError(
                f"field length {self.values.shape} does not match grid "
                f"node count {self.grid.n + 1}"
            )
        if self.real and np.any(self.values.imag != 0.0):
            raise InvalidParameterError("field flagged real has nonzero imaginary part")

    def copy(self) -> "Field":
        return Field(self.grid, self.values.copy(), real=self.real,
                     decaying=self.decaying)


def integrate(f: Field, integrand=None) -> float:
    """Quadrature of int integrand(f(r)) omega_N r^{N-1} dr over [0, rmax].

    ``integrand`` maps the complex node values to real values; the default
    takes the real part (the identity map for real fields).
    """
    vals = f.values
    g = vals.real if integrand is None else np.asarray(integrand(vals), dtype=float)
    return float(np.dot(f.grid.w, g))


def fill_origin(v) -> None:
    """Fill a slaved node 0 from f'(0) = 0 to second order (in place)."""
    v[0] = (4.0 * v[1] - v[2]) / 3.0


@dataclass(frozen=True, eq=False)
class RadialOperator:
    """The discrete radial Laplacian of one grid.

    ``lap`` holds the rows of nodes ``first``..n-1; node n carries the
    homogeneous Dirichlet value.  When ``first`` is 1, node 0 has no row of
    its own and is slaved to its neighbours by ``fill_origin``.  ``rho``
    are the weights on nodes ``idx0``..n-1 under which the operator is
    exactly symmetric, rho_i T_{i,i+1} = rho_{i+1} T_{i+1,i}; ``block`` is
    the Laplacian on those nodes.
    """

    grid: RadialGrid
    lap: Tridiag
    first: int
    idx0: int
    rho: NDArray[np.float64]

    @property
    def block(self) -> Tridiag:
        k = self.idx0 - self.first
        if k == 0:
            return self.lap
        return Tridiag(self.lap.sub[k:], self.lap.diag[k:], self.lap.sup[k:])

    def apply(self, v: NDArray) -> NDArray:
        """Delta_h v on all n + 1 nodes (0 at node n, slaved node 0 filled)."""
        n = self.grid.n
        out = np.zeros(n + 1, dtype=v.dtype)
        out[self.first:n] = self.lap.apply(v[self.first:n])
        if self.first:
            fill_origin(out)
        return out


def radial_operator(grid: RadialGrid) -> RadialOperator:
    """Delta_h = d^2/dr^2 + (N-1)/r d/dr for the grid's dimension.

    N <= 3: the second-order centered stencil on nodes 0..n-1,

        (f_{i+1} - 2 f_i + f_{i-1})/h^2 + (N-1)/r_i (f_{i+1} - f_{i-1})/(2h),

    with the regular-origin row Delta f(0) = N f''(0) ~= 2N (f_1 - f_0)/h^2.
    It satisfies detailed balance with rho = ``grid.w`` (including its
    origin weight w_0).  For N = 3, w_0 = 0 and the node-1 row has no
    origin term, so the symmetric block starts at node 1.

    N >= 4: the stencil above is not symmetrizable, so the flux
    (Sturm-Liouville) form

        (r_{i+1/2}^{N-1} (f_{i+1} - f_i) - r_{i-1/2}^{N-1} (f_i - f_{i-1}))
            / (h^2 r_i^{N-1})

    is used on nodes 1..n-1, with zero flux through the inner face r = h/2.
    It is exactly symmetric under rho = ``grid.w`` on nodes 1..n-1; node 0
    is slaved by ``fill_origin``.
    """
    N, h, n = grid.N, grid.h, grid.n
    if N <= 3:
        ri = grid.r[1:n]
        lo = 1.0 / h**2 - (N - 1) / (2.0 * h * ri)
        di = np.full(n, -2.0 / h**2)
        up = 1.0 / h**2 + (N - 1) / (2.0 * h * ri)
        di[0] = -2.0 * N / h**2
        lap = Tridiag(lo, di, np.concatenate([[2.0 * N / h**2], up[:-1]]))
        first = 0
    else:
        i = np.arange(1, n, dtype=float)
        lo = ((i - 0.5) * h) ** (N - 1) / (h**2 * (i * h) ** (N - 1))
        up = ((i + 0.5) * h) ** (N - 1) / (h**2 * (i * h) ** (N - 1))
        lo[0] = 0.0
        lap = Tridiag(lo[1:], -(lo + up), up[:-1])
        first = 1
    idx0 = 0 if N <= 2 else 1
    rho = grid.w[idx0:n]
    return RadialOperator(grid=grid, lap=lap, first=first, idx0=idx0, rho=rho)


def laplacian_apply(f: Field) -> Field:
    """Discrete Delta f with regular origin and Dirichlet 0 at rmax."""
    return Field(f.grid, radial_operator(f.grid).apply(f.values))


def gradient_values(grid: RadialGrid, v: NDArray) -> NDArray:
    """Centered first differences; f'(0) = 0 (regular origin), backward at rmax."""
    h, n = grid.h, grid.n
    out = np.zeros(n + 1, dtype=v.dtype)
    out[1:n] = (v[2:] - v[:-2]) / (2.0 * h)
    out[0] = 0.0
    out[n] = (v[n] - v[n - 1]) / h
    return out


@dataclass(frozen=True)
class Norms:
    l2: float
    grad_l2: float
    h1: float
    lp: float | None
    linf: float


def norms(f: Field, lp_exponent: float | None = None) -> Norms:
    """L2, gradient-L2, H1 = L2 + grad (the additive convention), Lp, Linf.

    grad_l2 uses centered first differences.  ``lp`` is the L^{p}-norm for
    the given exponent (``None`` skips it).
    """
    w = f.grid.w
    a2 = np.abs(f.values) ** 2
    l2 = math.sqrt(float(np.dot(w, a2)))
    g = gradient_values(f.grid, f.values)
    grad = math.sqrt(float(np.dot(w, np.abs(g) ** 2)))
    lp = None
    if lp_exponent is not None:
        lp = float(np.dot(w, np.abs(f.values) ** lp_exponent)) ** (1.0 / lp_exponent)
    return Norms(l2=l2, grad_l2=grad, h1=l2 + grad, lp=lp,
                 linf=float(np.max(np.abs(f.values))))


def write_field_csv(f: Field, path) -> None:
    """Snapshot format: header ``r,re,im``, one node per row, 17 digits."""
    cols = np.column_stack([f.grid.r, f.values.real, f.values.imag])
    np.savetxt(path, cols, fmt=FLOAT_FMT, delimiter=",", header="r,re,im", comments="")


def read_field_csv(path, grid: RadialGrid) -> Field:
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    if data.shape[0] != grid.n + 1:
        raise GridMismatchError(
            f"snapshot has {data.shape[0]} rows, grid has {grid.n + 1} nodes")
    if not np.allclose(data[:, 0], grid.r, rtol=0, atol=1e-12 * max(grid.rmax, 1.0)):
        raise GridMismatchError("snapshot radii do not match the grid")
    return Field(grid, data[:, 1] + 1j * data[:, 2])
