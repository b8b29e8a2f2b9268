"""Linearized operators around the standing wave e^{it} Q.

In the rescaled convention (all (1 - s_c) constants mapped to 1),

    L_+ = 1 - Delta - p Q^{p-1},      L_- = 1 - Delta - Q^{p-1},
    script_L f = -L_- f_2 + i L_+ f_1          (f = f_1 + i f_2),

and the linearized flow of u = e^{it}(Q + v) is  v_t + script_L v = i R(v).

Known kernel/algebra used as cross-checks (derived from the equation and
the scaling family Q_lambda = lambda^{2/(p-1)} Q(lambda .)):

    L_- Q = 0,          L_+ Q = (1-p) Q^p,
    L_+ (Lam Q) = -2 Q,  where  Lam f = 2/(p-1) f + r f'.

script_L has a real eigenvalue pair +-e0 with eigenfunctions
Y_pm = Y_1 pm i Y_2:   L_+ Y_1 = e0 Y_2,  L_- Y_2 = -e0 Y_1.
e0^2 is found as minus the bottom eigenvalue of the symmetrized product
L_-^{1/2} L_+ L_-^{1/2} on {Q}^perp (dense path), refined by shifted
inverse iteration on the pentadiagonal product L_- L_+ (banded path).

Normalization: B(Y+, Y-) = e0 (Y1, Y2)_{L2} is *negative* for the genuine
eigenpair -- (L_+ Y1, Y1) = -e0^2 ||g||^2 < 0 forces (Y1, Y2) < 0 -- so the
pair is scaled to B(Y+, Y-) = -1, i.e. (Y1, Y2)_{L2} = -1/e0, together
with the sign convention (Q, Y1)_{H1} > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh, solve_banded

from .banded import Tridiag
from .errors import (
    GridMismatchError,
    NonConvergenceError,
    SingularSystemError,
    SpectralFailureError,
)
from .grid import Field, RadialGrid, fill_origin, gradient_values, radial_operator
from .ground import GroundProfile

__all__ = [
    "LinearizedOps",
    "SpectrumData",
    "assemble",
    "assemble_critical",
    "bilinear_B",
    "linearized_energy_phi",
    "compute_spectrum",
    "resolvent_solve",
    "coercivity_min",
    "scaling_generator",
]

Q_FLOOR = 1e-10  # relative floor below which Q-ratios are not trusted


@dataclass
class LinearizedOps:
    """L_+/L_- on the rho-symmetric nodes idx0..n-1 of ``radial_operator``.

    ``lap`` is the Laplacian there, ``rho`` its symmetrizing weights and
    ``sym`` = sqrt(rho); node 0, when outside the block, is filled by
    regularity in ``extend``.
    """

    grid: RadialGrid
    gp: GroundProfile | None
    p: float
    const: float                 # 1 in the intercritical convention, 0 critical
    potential: np.ndarray        # Q^{p-1} (or W^{p_c - 1}) on active nodes
    idx0: int                    # first active node
    rho: np.ndarray              # detailed-balance weights on active nodes
    sym: np.ndarray              # sqrt(rho)
    lap: Tridiag                 # Laplacian on active nodes

    @property
    def m(self) -> int:
        return self.lap.m

    # ---- applications (active-node vectors) ----

    def apply_lplus(self, v):
        return self.const * v - self.lap.apply(v) - self.p * self.potential * v

    def apply_lminus(self, v):
        return self.const * v - self.lap.apply(v) - self.potential * v

    def apply_script_l(self, g):
        """script_L g = -L_- g_2 + i L_+ g_1 on active-node complex vectors."""
        return -self.apply_lminus(g.imag) + 1j * self.apply_lplus(g.real)

    # ---- L_+ / L_- as matrices ----

    def lplus(self) -> Tridiag:
        return Tridiag(-self.lap.sub, self.const - self.lap.diag
                       - self.p * self.potential, -self.lap.sup)

    def lminus(self) -> Tridiag:
        return Tridiag(-self.lap.sub, self.const - self.lap.diag
                       - self.potential, -self.lap.sup)

    # ---- field <-> active-vector helpers ----

    def restrict(self, f: Field):
        if not f.grid.same_as(self.grid):
            raise GridMismatchError("field does not live on the operator grid")
        return f.values[self.idx0:self.grid.n]

    def extend(self, v, real=False) -> Field:
        """Active-node vector -> Field; slaved nodes filled by regularity."""
        full = np.zeros(self.grid.n + 1, dtype=complex)
        full[self.idx0:self.grid.n] = v
        if self.idx0 == 1:
            fill_origin(full)
        fld = Field(self.grid, full)
        if real:
            fld = Field(self.grid, full.real.astype(complex), real=True)
        return fld


def assemble(gp: GroundProfile) -> LinearizedOps:
    """L_+/L_- around a certified ground profile (intercritical, const = 1)."""
    return _assemble(gp.grid, gp.Q.values.real, gp.p, const=1.0, gp=gp)


def assemble_critical(W: Field) -> LinearizedOps:
    """L_+/L_- around the static critical profile W (const = 1 - s_c = 0).

    Used only for static quadratic-form checks such as Phi(W).
    """
    N = W.grid.N
    p_c = (N + 2.0) / (N - 2.0)
    return _assemble(W.grid, W.values.real, p_c, const=0.0, gp=None)


def _assemble(grid: RadialGrid, profile, p: float, const: float,
              gp: GroundProfile | None) -> LinearizedOps:
    op = radial_operator(grid)
    idx0 = op.idx0
    return LinearizedOps(
        grid=grid, gp=gp, p=float(p), const=float(const),
        potential=profile[idx0:grid.n] ** (p - 1.0), idx0=idx0,
        rho=op.rho, sym=np.sqrt(op.rho), lap=op.block,
    )


def scaling_generator(gp: GroundProfile) -> Field:
    """Lam Q = 2/(p-1) Q + r Q' (centered derivative)."""
    grid = gp.grid
    q = gp.Q.values.real
    lam = 2.0 / (gp.p - 1.0) * q + grid.r * gradient_values(grid, q).real
    lam[-1] = 0.0
    return Field(grid, lam.astype(complex), real=True)


def bilinear_B(f: Field, g: Field, ops: LinearizedOps) -> float:
    """B(f, g) = 1/2 (L_+ f_1, g_1) + 1/2 (L_- f_2, g_2) under quadrature."""
    fv = ops.restrict(f)
    gv = ops.restrict(g)
    t1 = np.dot(ops.rho * ops.apply_lplus(fv.real), gv.real)
    t2 = np.dot(ops.rho * ops.apply_lminus(fv.imag), gv.imag)
    return float(0.5 * (t1 + t2))


def linearized_energy_phi(f: Field, ops: LinearizedOps) -> float:
    """Phi(f) = B(f, f)."""
    return bilinear_B(f, f, ops)


def phi_quadratic_form(f: Field, ops: LinearizedOps) -> float:
    """Phi(f) evaluated in integral form,

        Phi(f) = const/2 int |f|^2 + 1/2 int |grad f|^2
                 - 1/2 int V (p f_1^2 + f_2^2),

    which agrees with B(f, f) for decaying fields but, unlike the banded
    operator (whose last row pins f(rmax) = 0), stays correct for slowly
    decaying static profiles such as W.
    """
    grid = f.grid
    w = grid.w
    v1 = f.values.real
    v2 = f.values.imag
    pot = np.zeros(grid.n + 1)
    pot[ops.idx0:grid.n] = ops.potential
    if ops.idx0 == 1:  # extend the potential to the slaved origin node
        base = ops.gp.Q.values.real if ops.gp is not None else None
        pot[0] = (base[0] ** (ops.p - 1.0) if base is not None
                  else (4 * pot[1] - pot[2]) / 3.0)
    pot[grid.n] = pot[grid.n - 1]
    g1 = gradient_values(grid, v1)
    g2 = gradient_values(grid, v2)
    return float(
        0.5 * ops.const * np.dot(w, v1**2 + v2**2)
        + 0.5 * np.dot(w, g1**2 + g2**2)
        - 0.5 * np.dot(w, pot * (ops.p * v1**2 + v2**2)))


@dataclass
class SpectrumData:
    """Eigen-triple (e0, Y1, Y2) with the artifact's normalizations.

    L_+ Y1 = e0 Y2 and L_- Y2 = -e0 Y1;  (Y1, Q)_{L2} = 0 is forced.
    (Y1, Y2)_{L2} = -1/e0, hence B(Y+, Y-) = -1 (the sign is dictated by
    the eigenpair; see module docstring), and (Q, Y1)_{H1} > 0.
    ``decay_eta`` is the fitted margin in |Y| <~ Q e^{-eta r}.
    ``mu_second`` is the second-smallest eigenvalue of the symmetrized
    product on {Q}^perp (coarse grid), the simplicity proxy.
    """

    e0: float
    Y1: Field
    Y2: Field
    residual_plus: float
    residual_minus: float
    decay_eta: float
    mu_second: float
    q_overlap: float

    def y_plus_values(self):
        return self.Y1.values + 1j * self.Y2.values


def _dense_bottom(ops: LinearizedOps, qvec):
    """Dense path: A = (P L~_- P)^{1/2}, S = A L~_+ A, bottom of S on {Q}^perp."""
    m = ops.m
    Lp = ops.lplus().symmetrize(ops.sym).to_dense()
    Lm = ops.lminus().symmetrize(ops.sym).to_dense()
    qt = ops.sym * qvec
    qt = qt / np.linalg.norm(qt)
    P = np.eye(m) - np.outer(qt, qt)
    lam, V = eigh(P @ Lm @ P)
    # discretization can push the zero mode slightly negative; clamp
    A = (V * np.sqrt(np.clip(lam, 0.0, None))) @ V.T
    mu, G = eigh(A @ Lp @ A)
    return mu, G, A


def _refine_inverse_iteration(ops: LinearizedOps, e0_guess: float, y_guess,
                              tol: float, max_iter: int = 60):
    """Shifted inverse iteration on the pentadiagonal product L~_- L~_+.

    Finds the unique negative eigenvalue -e0^2 (eigenvector = symmetrized
    Y1) with a directly controlled residual; O(n) per iteration.
    """
    Lp = ops.lplus().symmetrize(ops.sym)
    Lm = ops.lminus().symmetrize(ops.sym)

    mu = -e0_guess**2
    x = y_guess / np.linalg.norm(y_guess)
    shift = -1.05 * mu  # sits below -e0^2, far from the 0 mode
    ab = Lm.product(Lp, shift)
    best = math.inf
    stall = 0
    for it in range(max_iter):
        x_new = solve_banded((2, 2), ab, x)
        x_new /= np.linalg.norm(x_new)
        Ax = Lm.apply(Lp.apply(x_new))
        mu = float(np.dot(x_new, Ax))
        res = float(np.linalg.norm(Ax - mu * x_new))
        x = x_new
        if res <= tol * max(abs(mu), 1.0):
            return mu, x, res
        # the product matrix has norm ~ h^-4; once the residual floors at
        # its roundoff level further sweeps cannot help
        stall = stall + 1 if res > 0.5 * best else 0
        best = min(best, res)
        if stall >= 2 and it >= 4:
            break
        if it == max_iter // 2:  # one shift update keeps convergence fast
            shift = -mu * 1.02
            ab = Lm.product(Lp, shift)
    if res <= 1e-5 * max(abs(mu), 1.0):
        return mu, x, res
    raise NonConvergenceError(
        f"inverse iteration stalled: residual {res:.3e}, "
        f"eigenvalue estimate {mu:.6e}")


def compute_spectrum(ops: LinearizedOps, dense_nodes: int = 2200,
                     refine_tol: float = 1e-12,
                     start: "SpectrumData | None" = None) -> SpectrumData:
    """Eigenvalue e0 and eigenfunctions Y1, Y2 of the linearized flow.

    A dense symmetric eigendecomposition (on the grid itself when it is
    small enough, otherwise on a coarse companion grid) supplies the
    negative-eigenvalue bracket, the simplicity proxy, and a starting
    vector; shifted inverse iteration on the full grid then drives the
    eigen-residual to ``refine_tol``.  Passing ``start`` (a spectrum
    computed on a coarser grid with the same rmax) skips the dense stage.
    """
    if ops.gp is None:
        raise SpectralFailureError("spectrum requires intercritical operators")
    grid = ops.grid
    gp = ops.gp
    qvec = ops.restrict(gp.Q).real

    if start is not None:
        e0_guess = start.e0
        mu_second = start.mu_second
        y_start = np.interp(grid.r, start.Y1.grid.r,
                            start.Y1.values.real)[ops.idx0:grid.n] * ops.sym
    else:
        if ops.m <= dense_nodes:
            mu_c, G_c, A_c = _dense_bottom(ops, qvec)
            y_start = A_c @ G_c[:, 0]
        else:
            from .grid import make_grid
            from .ground import solve_ground
            n_c = max(int(math.ceil(grid.rmax / 0.02)), 600)
            cgrid = make_grid(grid.N, grid.rmax, n_c)
            cgp = solve_ground(cgrid, gp.p, polish=True)
            cops = assemble(cgp)
            mu_c, G_c, A_c = _dense_bottom(cops, cops.restrict(cgp.Q).real)
            ycoarse = cops.extend((A_c @ G_c[:, 0]) / cops.sym).values.real
            y_start = np.interp(grid.r, cgrid.r, ycoarse)[ops.idx0:grid.n] * ops.sym
        if not mu_c[0] < 0:
            raise SpectralFailureError(
                f"no negative eigenvalue found (bottom of spectrum {mu_c[0]:.3e}); "
                "the ground profile or grid is suspect")
        mu_second = float(mu_c[1])
        e0_guess = math.sqrt(-mu_c[0])

    mu, ysym, res = _refine_inverse_iteration(ops, e0_guess, y_start, refine_tol)
    if not mu < 0:
        raise SpectralFailureError(f"refined bottom eigenvalue is {mu:.3e} >= 0")
    e0 = math.sqrt(-mu)

    y1 = ysym / ops.sym
    y2 = ops.apply_lplus(y1) / e0

    # normalization |B(Y+,Y-)| = 1: (Y1, Y2) = -1/e0 (negative is forced)
    ip12 = float(np.dot(ops.rho, y1 * y2))
    sc = 1.0 / math.sqrt(abs(ip12) * e0)
    y1 *= sc
    y2 *= sc

    # sign convention (Q, Y1)_{H1} > 0
    Y1f = ops.extend(y1, real=True)
    qy1 = _h1_inner(gp.Q, Y1f)
    if qy1 < 0:
        y1, y2 = -y1, -y2
        Y1f = ops.extend(y1, real=True)
    Y2f = ops.extend(y2, real=True)

    rp = float(np.linalg.norm(ops.apply_lplus(y1) - e0 * y2)
               / max(np.linalg.norm(e0 * y2), 1e-300))
    rm = float(np.linalg.norm(ops.apply_lminus(y2) + e0 * y1)
               / max(np.linalg.norm(e0 * y1), 1e-300))
    qov = abs(float(np.dot(ops.rho, qvec * y1))) / (
        math.sqrt(float(np.dot(ops.rho, qvec**2)))
        * math.sqrt(float(np.dot(ops.rho, y1**2))))

    eta = _decay_margin(grid, gp, Y1f, Y2f)
    return SpectrumData(e0=e0, Y1=Y1f, Y2=Y2f, residual_plus=rp,
                        residual_minus=rm, decay_eta=eta,
                        mu_second=mu_second, q_overlap=qov)


def _h1_inner(f: Field, g: Field) -> float:
    w = f.grid.w
    df = gradient_values(f.grid, f.values.real)
    dg = gradient_values(g.grid, g.values.real)
    return float(np.dot(w, f.values.real * g.values.real) + np.dot(w, df * dg))


def _decay_margin(grid: RadialGrid, gp: GroundProfile, Y1: Field, Y2: Field) -> float:
    """Log-linear fit of |Y|/Q on the inner window, above the noise floor.

    The window [rmax/3, 2 rmax/3] is additionally clipped to nodes where Q
    is above its relative floor and |Y| is above the eigen-solver noise,
    so the fit never touches roundoff-dominated tails.
    """
    q = gp.Q.values.real
    absy = np.abs(Y1.values.real + 1j * Y2.values.real)
    yfloor = 1e-11 * float(np.max(absy))
    qfloor = Q_FLOOR * q[0]
    mask = ((grid.r >= grid.rmax / 3.0) & (grid.r <= 2.0 * grid.rmax / 3.0)
            & (q > qfloor) & (absy > yfloor))
    if np.count_nonzero(mask) < 8:
        return float("nan")
    slope = np.polyfit(grid.r[mask], np.log(absy[mask] / q[mask]), 1)[0]
    return float(-slope)


def resolvent_solve(c: float, F: Field, ops: LinearizedOps,
                    tol: float = 1e-9) -> Field:
    """Solve (script_L + c) g = F for decaying F and real c off the spectrum.

    Eliminating g_1 = (F_1 + L_- g_2)/c reduces the coupled system to the
    pentadiagonal real solve  (L_+ L_- + c^2) g_2 = c F_2 - L_+ F_1.
    The back-substituted residual must come out below ``tol``.
    """
    if c == 0.0:
        raise SingularSystemError("c = 0 lies in the spectrum of script_L")
    fv = ops.restrict(F)
    Lp = ops.lplus().symmetrize(ops.sym)
    Lm = ops.lminus().symmetrize(ops.sym)
    s = ops.sym

    f1 = s * fv.real
    f2 = s * fv.imag
    rhs = c * f2 - Lp.apply(f1)
    try:
        g2 = solve_banded((2, 2), Lp.product(Lm, c * c), rhs)
    except Exception as exc:  # singular to machine precision
        raise SingularSystemError(f"banded resolvent solve failed: {exc}") from exc
    g1 = (f1 + Lm.apply(g2)) / c

    gsym = g1 + 1j * g2
    gv = gsym / s
    res = np.linalg.norm(ops.apply_script_l(gv) + c * gv - fv)
    nf = np.linalg.norm(fv)
    if nf > 0 and res > tol * nf:
        raise SingularSystemError(
            f"resolvent residual {res / nf:.3e} exceeds {tol:.1e}; "
            f"c = {c} is too close to the spectrum")
    return ops.extend(gv)


def coercivity_min(ops: LinearizedOps, spectrum: SpectrumData,
                   subspace: str = "Gperp") -> float:
    """Minimal Rayleigh quotient Phi(f)/||f||_{H1}^2 on a constraint set.

    Constraints (radial sector; w-weighted inner products):
      Gperp:       int Q^p v_1 = 0   and  int Q v_2 = 0
      Gtildeperp:  int Y2 v_1 = 0,   int Q v_2 = 0,  int Y1 v_2 = 0
    The real and imaginary sectors decouple in both Phi and the H1 form,
    so the minimum is the smaller of the two sector minima, each solved as
    a dense symmetric-definite generalized eigenproblem on the constraint
    null space.
    """
    if ops.gp is None:
        raise SpectralFailureError("coercivity requires intercritical operators")
    qvec = ops.restrict(ops.gp.Q).real
    y1 = ops.restrict(spectrum.Y1).real
    y2 = ops.restrict(spectrum.Y2).real
    p = ops.p
    if subspace == "Gperp":
        cons1 = [qvec**p]
        cons2 = [qvec]
    elif subspace == "Gtildeperp":
        cons1 = [y2]
        cons2 = [qvec, y1]
    else:
        raise ValueError(f"unknown subspace {subspace!r}")

    val1 = _sector_min(ops, ops.lplus(), cons1)
    val2 = _sector_min(ops, ops.lminus(), cons2)
    return min(val1, val2)


def _sector_min(ops: LinearizedOps, op: Tridiag, constraints) -> float:
    lap = ops.lap
    K = 0.5 * op.symmetrize(ops.sym).to_dense()   # 1/2 (L f, f)
    # ||f||^2 + ||grad f||^2 form
    H = Tridiag(-lap.sub, 1.0 - lap.diag, -lap.sup).symmetrize(ops.sym).to_dense()
    # constraint (c, v)_rho = (s c, s v): rows live in symmetrized coordinates
    C = np.array([ops.sym * c for c in constraints])
    # orthonormal basis of the constraint null space
    _, _, Vt = np.linalg.svd(C, full_matrices=True)
    Z = Vt[len(constraints):].T
    Kz = Z.T @ (K @ Z)
    Hz = Z.T @ (H @ Z)
    vals = eigh(Kz, Hz, eigvals_only=True, subset_by_index=[0, 0])
    return float(vals[0])
