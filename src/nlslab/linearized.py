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
On the real pair (Y_1, Y_2), script_L - sigma is the block
[[-sigma, -L_-], [L_+, -sigma]]; with the two components interleaved node
by node it is a (3, 3)-banded matrix, so e0 (shifted inverse iteration,
seeded from the bottom eigenpair of the tridiagonal L_+) and the resolvent
(one banded solve) cost O(n).  The coercivity minima and the count of
negative directions of L_+ on {Q}^perp come from inertia counts: Sturm
counts of tridiagonal pencils bordered by the constraints (Haynsworth
inertia additivity), also O(n) per count.

Normalization: B(Y+, Y-) = e0 (Y1, Y2)_{L2} is *negative* for the genuine
eigenpair -- (L_+ Y1, Y1) = -e0^2 ||g||^2 < 0 forces (Y1, Y2) < 0 -- so the
pair is scaled to B(Y+, Y-) = -1, i.e. (Y1, Y2)_{L2} = -1/e0, together
with the sign convention (Q, Y1)_{H1} > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal, solve_banded

from .banded import Tridiag
from .errors import (
    GridMismatchError,
    NonConvergenceError,
    SingularSystemError,
    SpectralFailureError,
)
from .grid import Field, RadialGrid, gradient_values
from .ground import GroundProfile

__all__ = [
    "LinearizedOps",
    "SpectrumData",
    "assemble",
    "bilinear_B",
    "linearized_energy_phi",
    "compute_spectrum",
    "resolvent_solve",
    "coercivity_min",
    "scaling_generator",
]

Q_FLOOR = 1e-10  # relative floor below which Q-ratios are not trusted
REFINE_TOL = 1e-12  # relative eigen-residual the inverse iteration aims for
INVERSE_MAX_ITER = 60  # cap on the inverse iteration's sweeps
RESOLVENT_TOL = 1e-9  # relative residual a resolvent solve must reach


@dataclass
class LinearizedOps:
    """L_+ = 1 - Delta - p Q^{p-1} and L_- = 1 - Delta - Q^{p-1} around the
    ground profile ``gp``, on the rows of its grid's Laplacian.

    ``lp``, ``lm`` and ``h`` are L~_+, L~_- and the H1 form 1 - Delta_h,
    symmetrized as S T S^{-1} with S = diag(sym), sym = sqrt(rho), and made
    once by ``assemble``; ``restrict`` and ``extend`` map fields to row
    vectors and back through the grid.
    """

    gp: GroundProfile
    potential: np.ndarray        # Q^{p-1} on the rows
    sym: np.ndarray              # sqrt(rho)
    lp: Tridiag
    lm: Tridiag
    h: Tridiag

    @property
    def grid(self) -> RadialGrid:
        return self.gp.grid

    @property
    def rho(self) -> np.ndarray:
        return self.grid.rho

    # ---- applications (row vectors) ----

    def apply_lplus(self, v):
        return v - self.grid.lap.apply(v) - self.gp.p * self.potential * v

    def apply_lminus(self, v):
        return v - self.grid.lap.apply(v) - self.potential * v

    def apply_script_l(self, g):
        """script_L g = -L_- g_2 + i L_+ g_1 on complex row vectors."""
        return -self.apply_lminus(g.imag) + 1j * self.apply_lplus(g.real)

    # ---- field <-> row-vector maps ----

    def restrict(self, f: Field):
        if not f.grid.same_as(self.grid):
            raise GridMismatchError("field does not live on the operator grid")
        return self.grid.rows(f.values)

    def extend(self, v) -> Field:
        """Row vector -> Field; a slaved origin node filled by regularity."""
        return Field(self.grid, self.grid.extend(np.asarray(v, dtype=complex)))


def assemble(gp: GroundProfile) -> LinearizedOps:
    """L_+/L_- around a certified ground profile, on ``gp.grid``."""
    grid = gp.grid
    potential = grid.rows(gp.Q.values.real) ** (gp.p - 1.0)
    sym = np.sqrt(grid.rho)
    return LinearizedOps(gp=gp, potential=potential, sym=sym,
                         lp=grid.schrodinger(gp.p * potential).symmetrize(sym),
                         lm=grid.schrodinger(potential).symmetrize(sym),
                         h=grid.schrodinger(0.0).symmetrize(sym))


def scaling_generator(gp: GroundProfile) -> Field:
    """Lam Q = 2/(p-1) Q + r Q' (centered derivative)."""
    grid = gp.grid
    q = gp.Q.values.real
    lam = 2.0 / (gp.p - 1.0) * q + grid.r * gradient_values(grid, q).real
    lam[-1] = 0.0
    return Field(grid, lam)


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


@dataclass
class SpectrumData:
    """Eigen-triple (e0, Y1, Y2) with the artifact's normalizations.

    L_+ Y1 = e0 Y2 and L_- Y2 = -e0 Y1;  (Y1, Q)_{L2} = 0 is forced.
    (Y1, Y2)_{L2} = -1/e0, hence B(Y+, Y-) = -1 (the sign is dictated by
    the eigenpair; see module docstring), and (Q, Y1)_{H1} > 0.
    ``decay_eta`` is the fitted margin in |Y| <~ Q e^{-eta r}.
    ``negative_directions`` is the exact number of negative eigenvalues of
    L_+ on {Q}^perp (an inertia count); by Sylvester's law it is also the
    count for L_-^{1/2} L_+ L_-^{1/2}, so 1 certifies that -e0^2 is the only
    negative eigenvalue of L_- L_+, hence e0 simple.
    """

    e0: float
    Y1: Field
    Y2: Field
    residual_plus: float
    residual_minus: float
    decay_eta: float
    negative_directions: int
    q_overlap: float

    def y_plus_values(self):
        return self.Y1.values + 1j * self.Y2.values


def _script_l_bands(Lp: Tridiag, Lm: Tridiag, sigma: float):
    """script_L - sigma on interleaved (g1_0, g2_0, g1_1, ...) in
    ``solve_banded((3, 3), ...)`` layout: ab[3 + i - j, j] = A[i, j], with
    rows 2i: -sigma g1_i - (L~_- g2)_i and rows 2i+1: (L~_+ g1)_i - sigma g2_i."""
    ab = np.zeros((7, 2 * Lp.m))
    ab[3] = -sigma
    ab[2, 1::2] = -Lm.diag
    ab[0, 3::2] = -Lm.sup
    ab[4, 1:-1:2] = -Lm.sub
    ab[4, 0::2] = Lp.diag
    ab[2, 2::2] = Lp.sup
    ab[6, 0:-2:2] = Lp.sub
    return ab


def _inverse_iteration(Lp: Tridiag, Lm: Tridiag, shift: float, x, tol: float):
    """Shifted inverse iteration on the block script_L - shift.

    Any shift above e0/2 is nearer e0 than the rest of the spectrum (-e0,
    the kernel and the imaginary axis), so the iterate converges to
    (g1, g2) = symmetrized (Y1, Y2); O(n) per sweep.  The eigenvalue is the
    two-sided Rayleigh quotient with the left eigenvector (g2, g1); each
    sweep after the first shifts 2% above the last estimate.
    """
    best = math.inf
    stall = 0
    for it in range(INVERSE_MAX_ITER):
        x = solve_banded((3, 3), _script_l_bands(Lp, Lm, shift), x)
        x /= np.linalg.norm(x)
        g1, g2 = x[0::2], x[1::2]
        lp1, lm2 = Lp.apply(g1), Lm.apply(g2)
        lam = float((np.dot(g1, lp1) - np.dot(g2, lm2)) / (2.0 * np.dot(g1, g2)))
        res = math.hypot(np.linalg.norm(lm2 + lam * g1),
                         np.linalg.norm(lp1 - lam * g2))
        if res <= tol * max(abs(lam), 1.0):
            return lam, g1, g2, res
        # the block has norm ~ h^-2; once the residual floors at its
        # roundoff level further sweeps cannot help
        stall = stall + 1 if res > 0.5 * best else 0
        best = min(best, res)
        if stall >= 2 and it >= 4:
            break
        shift = 1.02 * lam
    if res <= 1e-5 * max(abs(lam), 1.0):
        return lam, g1, g2, res
    raise NonConvergenceError(
        f"inverse iteration stalled: residual {res:.3e}, "
        f"eigenvalue estimate {lam:.6e}")


def compute_spectrum(ops: LinearizedOps) -> SpectrumData:
    """Eigenvalue e0 and eigenfunctions Y1, Y2 of the linearized flow.

    The bottom eigenpair (lam0, a) of the tridiagonal L~_+ seeds shifted
    inverse iteration on the banded block script_L at
    e0 ~ sqrt(-lam0 (a, L~_- a)), which drives the eigen-residual to
    ``REFINE_TOL``; every step is O(n).
    """
    grid = ops.grid
    gp = ops.gp
    qvec = ops.restrict(gp.Q).real
    Lp, Lm = ops.lp, ops.lm

    (lam0,), a = eigh_tridiagonal(Lp.diag, Lp.sup, select="i", select_range=(0, 0))
    if not lam0 < 0:
        raise SpectralFailureError(
            f"L_+ has no negative eigenvalue (bottom of spectrum {lam0:.3e}); "
            "the ground profile or grid is suspect")
    a = a[:, 0]
    e0_guess = math.sqrt(-lam0 * float(np.dot(a, Lm.apply(a))))
    x = np.empty(2 * Lp.m)
    x[0::2] = a
    x[1::2] = (lam0 / e0_guess) * a       # g2 = L~_+ g1 / e0 for g1 = a
    e0, g1, g2, _ = _inverse_iteration(Lp, Lm, e0_guess, x, REFINE_TOL)
    if not e0 > 0:
        raise SpectralFailureError(f"refined eigenvalue is {e0:.3e} <= 0")

    y1 = g1 / ops.sym
    y2 = g2 / ops.sym

    # normalization |B(Y+,Y-)| = 1: (Y1, Y2) = -1/e0 (negative is forced)
    ip12 = float(np.dot(ops.rho, y1 * y2))
    sc = 1.0 / math.sqrt(abs(ip12) * e0)
    y1 *= sc
    y2 *= sc

    # sign convention (Q, Y1)_{H1} > 0
    Y1f = ops.extend(y1)
    qy1 = _h1_inner(gp.Q, Y1f)
    if qy1 < 0:
        y1, y2 = -y1, -y2
        Y1f = ops.extend(y1)
    Y2f = ops.extend(y2)

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
                        negative_directions=_constrained_count(
                            Lp, (ops.sym * qvec)[None, :]),
                        q_overlap=qov)


def _h1_inner(f: Field, g: Field) -> float:
    w = f.grid.w
    df = gradient_values(f.grid, f.values.real)
    dg = gradient_values(g.grid, g.values.real)
    return float(np.dot(w, f.values.real * g.values.real) + np.dot(w, df * dg))


def _decay_margin(grid: RadialGrid, gp: GroundProfile, Y1: Field, Y2: Field) -> float:
    """Log-linear fit of |Y|/Q on the inner window, above the noise floor.

    The window [rmax/3, 2 rmax/3] is additionally clipped to nodes where Q
    is above its relative floor and |Y| is above the eigen-solver noise,
    so the fit never touches roundoff-dominated tails.  A fast-decaying Y
    (large e0) can fall below its floor before rmax/3 with fewer than 8
    nodes left there; the fit then takes [r_last/2, r_last] instead,
    r_last the largest radius above both floors.
    """
    q = gp.Q.values.real
    absy = np.abs(Y1.values.real + 1j * Y2.values.real)
    yfloor = 1e-11 * float(np.max(absy))
    qfloor = Q_FLOOR * q[0]
    resolved = (q > qfloor) & (absy > yfloor)
    mask = resolved & (grid.r >= grid.rmax / 3.0) & (grid.r <= 2.0 * grid.rmax / 3.0)
    if np.count_nonzero(mask) < 8 and resolved.any():
        r_last = float(grid.r[resolved].max())
        mask = resolved & (grid.r >= r_last / 2.0) & (grid.r <= r_last)
    if np.count_nonzero(mask) < 8:
        return float("nan")
    slope = np.polyfit(grid.r[mask], np.log(absy[mask] / q[mask]), 1)[0]
    return float(-slope)


def resolvent_solve(c: float, F: Field, ops: LinearizedOps) -> Field:
    """Solve (script_L + c) g = F for decaying F and real c off the spectrum.

    One banded solve of the block [[c, -L~_-], [L~_+, c]] on the
    symmetrized real pair (g1, g2); the relative residual of the result
    must come out below ``RESOLVENT_TOL``.
    """
    if c == 0.0:
        raise SingularSystemError("c = 0 lies in the spectrum of script_L")
    fv = ops.restrict(F)
    s = ops.sym

    rhs = np.empty(2 * ops.lp.m)
    rhs[0::2] = s * fv.real
    rhs[1::2] = s * fv.imag
    try:
        x = solve_banded((3, 3), _script_l_bands(ops.lp, ops.lm, -c), rhs)
    except (np.linalg.LinAlgError, ValueError) as exc:  # singular to machine precision
        raise SingularSystemError(f"banded resolvent solve failed: {exc}") from exc

    gv = (x[0::2] + 1j * x[1::2]) / s
    res = np.linalg.norm(ops.apply_script_l(gv) + c * gv - fv)
    nf = np.linalg.norm(fv)
    if nf > 0 and res > RESOLVENT_TOL * nf:
        raise SingularSystemError(
            f"resolvent residual {res / nf:.3e} exceeds {RESOLVENT_TOL:.1e}; "
            f"c = {c} is too close to the spectrum")
    return ops.extend(gv)


def coercivity_min(ops: LinearizedOps, spectrum: SpectrumData,
                   subspace: str = "Gperp") -> float:
    """Minimal Rayleigh quotient Phi(f)/||f||_{H1}^2 on a constraint set.

    Constraints (radial sector; w-weighted inner products):
      Gperp:       int Q^p v_1 = 0   and  int Q v_2 = 0
      Gtildeperp:  int Y2 v_1 = 0,   int Q v_2 = 0,  int Y1 v_2 = 0
    The real and imaginary sectors decouple in both Phi and the H1 form,
    so the minimum is the smaller of the two sector minima, each found by
    bisection on the count of constrained eigenvalues below mu.
    """
    qvec = ops.restrict(ops.gp.Q).real
    y1 = ops.restrict(spectrum.Y1).real
    y2 = ops.restrict(spectrum.Y2).real
    if subspace == "Gperp":
        cons1 = [qvec**ops.gp.p]
        cons2 = [qvec]
    elif subspace == "Gtildeperp":
        cons1 = [y2]
        cons2 = [qvec, y1]
    else:
        raise ValueError(f"unknown subspace {subspace!r}")

    val1 = _sector_min(ops, ops.lp, cons1)
    val2 = _sector_min(ops, ops.lm, cons2)
    return min(val1, val2)


def _constrained_count(M: Tridiag, C) -> int:
    """Negative eigenvalues of the symmetric M on the null space of the
    k <= 2 rows of C: n_-(M) + n_+(C M^{-1} C^T) - k (Haynsworth inertia
    additivity applied to M bordered by C); k banded solves."""
    S = C @ M.solve(C.T)
    # k <= 2, so the k x k matrix -S is tridiagonal
    minus_s = Tridiag(-np.diag(S, -1), -np.diag(S), -np.diag(S, 1))
    return M.count_negative() + minus_s.count_negative() - len(C)


def _sector_min(ops: LinearizedOps, L: Tridiag, constraints) -> float:
    """Smallest K/H on the constraint null space, K = 1/2 L~ and H the
    symmetrized H1 form 1 - Delta, by bisection on the constrained count of
    K - mu H.  K = (H - W)/2 with the potential 0 <= W <= max W brackets the
    minimum in [(1 - max W)/2, 1/2); only midpoints are evaluated, never
    mu = 1/2, where K - mu H vanishes on the tail rows where Q underflows.
    """
    H = ops.h
    # constraint (c, v)_rho = (s c, s v): rows live in symmetrized coordinates
    C = np.array([ops.sym * c for c in constraints])
    lo, hi = 0.5 * (1.0 - float(np.max(H.diag - L.diag))), 0.5
    while hi - lo > 1e-13:
        mu = 0.5 * (lo + hi)
        M = Tridiag(0.5 * L.sub - mu * H.sub, 0.5 * L.diag - mu * H.diag,
                    0.5 * L.sup - mu * H.sup)
        if _constrained_count(M, C) > 0:
            hi = mu
        else:
            lo = mu
    return 0.5 * (lo + hi)
