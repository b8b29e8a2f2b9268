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
h/2) and 0 for N >= 3.

The discrete Laplacian of every dimension is one finite-volume (flux)
form, the grid's ``lap``, built once per grid by ``make_grid``; every
matrix 1 - s Delta_h - V of the package comes from
``RadialGrid.schrodinger``.  Node i owns the cell measure
b_i = w_i / (omega_N h) and exchanges flux with its neighbours through the
faces a_{i+1/2} = r_{i+1/2}^{N-1}, so the operator is symmetric under
``grid.w`` by construction.  When w_0 > 0 (N <= 2) node 0 is an origin
cell with a row of its own; otherwise no flux crosses r = h/2 and node 0
is slaved to f'(0) = 0.  N = 3 keeps the geometric faces r_i r_{i+1},
which reproduce the centered stencil algebraically: midpoint faces there
move e0 at (3, 3), n = 2400 by 1.2e-3, past the 1e-4 tolerance of the
benchmark's recorded reference.  Because the Laplacian is symmetric under
``grid.w`` at every N, every integral, the identity checks and the mass
that Crank-Nicolson conserves share one measure.  ``write_csv`` writes
the field and series CSVs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .banded import Tridiag
from .errors import GridMismatchError, InvalidParameterError, UsageError

__all__ = [
    "RadialGrid",
    "Field",
    "make_grid",
    "h1_norm",
    "sq_norm",
    "gradient_values",
    "omega_n",
    "write_csv",
    "write_field_csv",
    "field_from_table",
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
    """Immutable uniform radial grid with trapezoid quadrature weights and
    the discrete radial Laplacian they define.

    ``lap`` holds the rows of nodes ``first``..n-1, symmetric under the
    weights ``rho`` = ``w`` on those nodes.  Node n carries the homogeneous
    Dirichlet value; when ``first`` is 1, node 0 has no row of its own and
    is slaved to its neighbours by ``extend``.  ``rows`` and ``extend`` are
    the one map between row vectors and node vectors.
    """

    N: int
    rmax: float
    n: int
    h: float
    r: NDArray[np.float64] = field(repr=False)
    w: NDArray[np.float64] = field(repr=False)
    lap: Tridiag = field(repr=False)
    first: int

    def __post_init__(self):
        self.r.setflags(write=False)
        self.w.setflags(write=False)

    def same_as(self, other: "RadialGrid") -> bool:
        return (
            self.N == other.N
            and self.n == other.n
            and self.rmax == other.rmax
        )

    @property
    def rho(self) -> NDArray[np.float64]:
        return self.rows(self.w)

    def rows(self, v: NDArray) -> NDArray:
        """The values of ``v`` on the row nodes ``first``..n-1."""
        return v[self.first:self.n]

    def extend(self, v: NDArray) -> NDArray:
        """Row values -> all n + 1 nodes: slaved node 0 filled, node n = 0."""
        out = np.zeros(self.n + 1, dtype=v.dtype)
        out[self.first:self.n] = v
        if self.first:  # f'(0) = 0 to second order
            out[0] = (4.0 * out[1] - out[2]) / 3.0
        return out

    def laplacian(self, v: NDArray) -> NDArray:
        """Delta_h v on all n + 1 nodes (0 at node n, slaved node 0 filled)."""
        return self.extend(self.lap.apply(self.rows(v)))

    def schrodinger(self, V, s=1.0) -> Tridiag:
        """1 - s Delta_h - V on the rows, ``V`` a scalar or a row vector:
        the package's one matrix formed from the Laplacian's bands."""
        return Tridiag(-s * self.lap.sub, 1.0 - s * self.lap.diag - V, -s * self.lap.sup)


def make_grid(N: int, rmax: float, n: int) -> RadialGrid:
    """Build a RadialGrid. Requires N >= 1 integer, rmax > 0, n >= 16.

    Its Laplacian is Delta_h = d^2/dr^2 + (N-1)/r d/dr in finite-volume
    (flux) form,

        (Delta_h f)_i = (a_{i+1/2} (f_{i+1} - f_i) - a_{i-1/2} (f_i - f_{i-1}))
                        / (h^2 b_i),

    b_i = w_i / (omega_N h), a_{i+1/2} = r_{i+1/2}^{N-1} (r_i r_{i+1} at
    N = 3), on the rows ``first``..n-1 with a_{first-1/2} = 0: ``first`` is 0
    when w_0 > 0, and 1 with node 0 slaved otherwise (module docstring).
    """
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
    first = 0 if w[0] > 0 else 1
    i = np.arange(first, n)
    face = r[i] * r[i + 1] if N == 3 else ((i + 0.5) * h) ** (N - 1)
    hb = h**2 * (w[first:n] / (omega_n(N) * h))         # h^2 b_i
    below = np.concatenate([[0.0], face[:-1]])          # a_{first-1/2} = 0
    lap = Tridiag(face[:-1] / hb[1:], -(below + face) / hb, face[:-1] / hb[:-1])
    return RadialGrid(N=N, rmax=rmax, n=n, h=h, r=r, w=w, lap=lap, first=first)


@dataclass
class Field:
    """Complex-valued radial function sampled on a RadialGrid."""

    grid: RadialGrid
    values: NDArray[np.complex128]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (self.grid.n + 1,):
            raise GridMismatchError(
                f"field length {self.values.shape} does not match grid "
                f"node count {self.grid.n + 1}"
            )


def gradient_values(grid: RadialGrid, v: NDArray) -> NDArray:
    """Centered first differences; f'(0) = 0 (regular origin), backward at rmax."""
    h, n = grid.h, grid.n
    out = np.zeros(n + 1, dtype=v.dtype)
    out[1:n] = (v[2:] - v[:-2]) / (2.0 * h)
    out[0] = 0.0
    out[n] = (v[n] - v[n - 1]) / h
    return out


def sq_norm(w: NDArray, v: NDArray) -> float:
    """int |v|^2 under the weights ``w``: the package's one L2 formula."""
    return float(np.dot(w, np.abs(v) ** 2))


def h1_norm(f: Field, grad: NDArray | None = None) -> float:
    """||f||_{L2} + ||f'||_{L2} (the additive H1 convention), the gradient
    by centered first differences unless ``grad`` gives it."""
    w = f.grid.w
    if grad is None:
        grad = gradient_values(f.grid, f.values)
    return math.sqrt(sq_norm(w, f.values)) + math.sqrt(sq_norm(w, grad))


def write_csv(path, header: str, *columns) -> None:
    """``header``, then one comma-separated row per index of the array
    ``columns``, each value written as %.17g: 17 significant digits, which
    read back to the same float64.  The bytes are those that numpy's
    ``savetxt`` writes with ``fmt="%.17g"``, ``delimiter=","`` and
    ``comments=""``.
    """
    row = ",".join(["{:.17g}"] * len(columns)) + "\n"
    with open(path, "w", encoding="ascii") as fh:
        fh.write(header + "\n" + "".join(map(row.format, *(c.tolist() for c in columns))))


def write_field_csv(f: Field, path) -> None:
    """Field CSV: header ``r,re,im``, one node per row, 17 digits."""
    write_csv(path, "r,re,im", f.grid.r, f.values.real, f.values.imag)


def field_from_table(data: NDArray, grid: RadialGrid, source: str) -> Field:
    """The Field of an (n + 1, 3) float64 ``r,re,im`` table on ``grid``.
    A table of another shape or dtype, with a non-finite value or with
    radii off the grid's by more than 1e-12 rmax is a ``UsageError`` whose
    message begins with ``source``."""
    if data.dtype != np.float64 or data.ndim != 2 or data.shape[1] != 3:
        raise UsageError(
            f"{source} is a {data.dtype} table of shape {data.shape}, not r,re,im")
    if not np.all(np.isfinite(data)):
        raise UsageError(f"{source} holds a non-finite value")
    if data.shape[0] != grid.n + 1:
        raise UsageError(
            f"{source} has {data.shape[0]} rows, grid has {grid.n + 1} nodes")
    if not np.max(np.abs(data[:, 0] - grid.r)) <= 1e-12 * max(grid.rmax, 1.0):
        raise UsageError(f"{source} radii do not match the grid")
    return Field(grid, data[:, 1] + 1j * data[:, 2])


def read_field_csv(path, grid: RadialGrid) -> Field:
    """A field CSV on ``grid``, checked by ``field_from_table``.  A file
    that cannot be read or is not a table of numbers is a ``UsageError``."""
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read field file {path}: {exc}") from exc
    return field_from_table(data, grid, f"field file {path}")
