"""Ground state Q of the rescaled elliptic equation Delta Q - Q + Q^p = 0.

Q is the unique positive radial decaying solution in the intercritical
range 1 + 4/N < p < 2* - 1 (2* - 1 = 1 + 4/(N-2) for N >= 3, +inf for
N = 1, 2).  It is computed by shooting from the origin,

    Q'' + (N-1)/r Q' - Q + Q^p = 0,  Q(0) = a,  Q'(0) = 0,

with bisection on a: an overshoot (Q < 0) means a is too large, an
undershoot (Q' > 0 while 0 < Q < 1) means a is too small.  Beyond the
matching radius (first node with Q < 1e-6) the profile is continued by
the asymptotic law  c_Q r^{-(N-1)/2} e^{-r},  and by default the grid
profile is then polished by Newton iteration on the discretized equation
Lap_h Q - Q + Q^p = 0 so that the discrete operator identities
(L_- Q = 0, L_+ Q = (1-p) Q^p, ...) hold to solver precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .banded import Tridiag
from .errors import (
    CertificationError,
    DimensionError,
    InvalidParameterError,
    NoBracketError,
    NonConvergenceError,
)
from .grid import Field, RadialGrid, gradient_values, radial_operator

__all__ = [
    "GroundProfile",
    "Observables",
    "observables",
    "IdentityReport",
    "solve_ground",
    "closed_form_1d",
    "closed_form_W",
    "check_identities",
    "gn_quotient",
    "validate_intercritical",
]

MATCH_LEVEL = 1e-6       # Q-level at which the asymptotic tail takes over
OVERSHOOT_CAP = 1e3      # |Q| beyond this counts as overshoot (bisection only)
A_CAP = 0.5 * OVERSHOOT_CAP  # bracket widening stops here: shots clip at the cap
A_TOL = 1e-13            # width at which the Q(0) bisection stops


def critical_exponent(N: int) -> float:
    """Upper endpoint 2* - 1 of the intercritical range."""
    return 1.0 + 4.0 / (N - 2) if N >= 3 else math.inf


def validate_intercritical(N: int, p: float) -> None:
    """Require 1 + 4/N < p < 2* - 1, i.e. 0 < s_c < 1."""
    lo = 1.0 + 4.0 / N
    hi = critical_exponent(N)
    if not (p > lo):
        raise InvalidParameterError(
            f"p = {p} is not mass-supercritical for N = {N} (need p > {lo})")
    if not (p < hi):
        raise InvalidParameterError(
            f"p = {p} is not energy-subcritical for N = {N} (need p < {hi})")


@dataclass
class GroundProfile:
    """Certified ground state on a grid.

    ``q0`` is the shooting value Q(0) (grid-independent up to the event
    tolerance); ``Q.values[0]`` is the discrete BVP's own central value.
    ``c_q`` is the tail constant in Q ~ c_q r^{-(N-1)/2} e^{-r}.
    ``ode_residual`` is sup |Lap_h Q - Q + Q^p| over the grid.
    """

    Q: Field
    p: float
    N: int
    q0: float
    c_q: float
    s_c: float
    ode_residual: float
    polished: bool

    @property
    def grid(self) -> RadialGrid:
        return self.Q.grid

    @cached_property
    def obs(self) -> Observables:
        """M, E and the gradient of Q: the normalisation of ME and MG."""
        return observables(self.Q, self.p)

    def me_mg(self, obs: Observables) -> tuple[float, float]:
        """(ME, MG) of a state relative to Q, sigma = (1 - s_c)/s_c:

            ME = M^sigma E / (M(Q)^sigma E(Q)),
            MG = M^{sigma/2} ||grad u|| / (M(Q)^{sigma/2} ||grad Q||).
        """
        q = self.obs
        sig = (1.0 - self.s_c) / self.s_c
        me = (obs.mass ** sig * obs.energy) / (q.mass ** sig * q.energy)
        mg = (obs.mass ** (sig / 2) * obs.grad) / (q.mass ** (sig / 2) * q.grad)
        return me, mg


@dataclass(frozen=True)
class Observables:
    """The threshold functionals of one state under the grid quadrature.

    mass = int |u|^2, grad2 = int |grad u|^2 (centered differences),
    potential = int |u|^{p+1}, energy = grad2/2 - potential/(p+1).
    """

    mass: float
    grad2: float
    potential: float
    energy: float

    @property
    def grad(self) -> float:
        return math.sqrt(self.grad2)

    @classmethod
    def integrate(cls, w, a, du, p: float) -> "Observables":
        """From the modulus ``a`` = |u| and the gradient ``du`` under weights ``w``."""
        mass = float(np.dot(w, a ** 2))
        grad2 = float(np.dot(w, np.abs(du) ** 2))
        potential = float(np.dot(w, a ** (p + 1)))
        return cls(mass=mass, grad2=grad2, potential=potential,
                   energy=0.5 * grad2 - potential / (p + 1))


def observables(u: Field, p: float) -> Observables:
    """Observables of ``u`` under ``grid.w`` with ``gradient_values``."""
    grid = u.grid
    return Observables.integrate(grid.w, np.abs(u.values),
                                 gradient_values(grid, u.values), p)


def _shoot(a: float, p: float, N: int, h_sub: float, r_stop: float):
    """Integrate the radial ODE from r=0 by fixed-step RK4.

    Returns (event, values) where event is 'over', 'under' or 'end' and
    values are the samples at multiples of h_sub up to the event.
    """
    nsteps = int(round(r_stop / h_sub))
    q, s = a, 0.0
    out = np.empty(nsteps + 1)
    out[0] = a

    def rhs(r, q, s):
        # clip the nonlinearity once a shot is clearly lost, so doomed
        # overshoots cannot overflow before the event check fires
        qc = q if abs(q) < OVERSHOOT_CAP else math.copysign(OVERSHOOT_CAP, q)
        nl = qc - abs(qc) ** (p - 1) * qc
        if r < 1e-12:
            return s, nl / N
        return s, nl - (N - 1) / r * s

    for i in range(nsteps):
        r = i * h_sub
        k1q, k1s = rhs(r, q, s)
        k2q, k2s = rhs(r + h_sub / 2, q + h_sub / 2 * k1q, s + h_sub / 2 * k1s)
        k3q, k3s = rhs(r + h_sub / 2, q + h_sub / 2 * k2q, s + h_sub / 2 * k2s)
        k4q, k4s = rhs(r + h_sub, q + h_sub * k3q, s + h_sub * k3s)
        q += h_sub / 6 * (k1q + 2 * k2q + 2 * k3q + k4q)
        s += h_sub / 6 * (k1s + 2 * k2s + 2 * k3s + k4s)
        out[i + 1] = q
        if q < 0 or abs(q) > OVERSHOOT_CAP:
            return "over", out[: i + 2]
        if s > 0 and 0 < q < 1:
            return "under", out[: i + 2]
    return "end", out


def _bisect_shooting(p, N, h_sub, r_stop, bracket, max_iter=220):
    lo, hi = bracket
    ev_lo, _ = _shoot(lo, p, N, h_sub, r_stop)
    ev_hi, _ = _shoot(hi, p, N, h_sub, r_stop)
    # a clean decay to rmax without events means a is within event
    # resolution of the ground state value; treat it as the side it ends
    if ev_lo == "end":
        ev_lo = "under"
    # Q(0) above the configured bracket: double hi while it undershoots
    while ev_lo == "under" and ev_hi == "under":
        if hi >= A_CAP:
            raise NoBracketError(
                f"Q(0) exceeds {A_CAP:g}: shots clip the nonlinearity at "
                f"|Q| = {OVERSHOOT_CAP:g}, so no wider bracket is tried")
        lo, hi = hi, min(2.0 * hi, A_CAP)
        ev_hi, _ = _shoot(hi, p, N, h_sub, r_stop)
    if ev_hi == "end":
        ev_hi = "over"
    if not (ev_lo == "under" and ev_hi == "over"):
        raise NoBracketError(
            f"bracket [{lo}, {hi}] does not separate undershoot from "
            f"overshoot (events: {ev_lo}, {ev_hi})")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        ev, _ = _shoot(mid, p, N, h_sub, r_stop)
        if ev == "over":
            hi = mid
        else:
            lo = mid
        if hi - lo < A_TOL:
            return 0.5 * (lo + hi)
    raise NonConvergenceError(
        f"shooting bisection did not reach A_TOL={A_TOL} in {max_iter} iterations")


def _residual(lap: Tridiag, q, p: float):
    """Lap_h Q - Q + Q^p on the operator's rows."""
    return lap.apply(q) - q + np.abs(q) ** (p - 1) * q


def _newton_polish(grid: RadialGrid, p: float, q_init, max_iter=25):
    """Solve Lap_h Q - Q + Q^p = 0 on the rows of ``radial_operator``."""
    op = radial_operator(grid)
    lap = op.lap
    q = op.rows(q_init).copy()
    best = math.inf
    # residual floor scales like eps/h^2 * |Q|^p; stop on stagnation
    for _ in range(max_iter):
        F = _residual(lap, q, p)
        rnorm = float(np.max(np.abs(F)))
        if rnorm >= 0.5 * best:
            break
        best = rnorm
        jac = Tridiag(lap.sub, lap.diag - 1.0 + p * np.abs(q) ** (p - 1), lap.sup)
        q += jac.solve(-F)
    return op.extend(q), float(np.max(np.abs(_residual(lap, q, p))))


def solve_ground(grid: RadialGrid, p: float, polish: bool = True,
                 bracket=(1.0, 20.0)) -> GroundProfile:
    """Shooting + bisection + asymptotic tail (+ optional Newton polish).

    The RK4 substep is min(h, 0.02)/4 but never below 1.25e-3: the
    shooting value ``a`` is already resolved to ~1e-11 there, and the
    Newton polish owns the grid-level accuracy, so refining the substep
    with the grid would only slow the bisection down.  A ``bracket`` whose
    top still undershoots is widened by doubling, up to ``A_CAP``.
    """
    N = grid.N
    validate_intercritical(N, p)
    if grid.h > 0.02 + 1e-15:
        raise InvalidParameterError(
            f"ground-state work needs h <= 0.02, got h = {grid.h}")
    h_sub = max(min(grid.h, 0.02) / 4.0, 1.25e-3)
    a = _bisect_shooting(p, N, h_sub, grid.rmax, bracket)
    ev, samples = _shoot(a, p, N, h_sub, grid.rmax)
    r_sub = np.arange(len(samples)) * h_sub

    below = np.nonzero(samples < MATCH_LEVEL)[0]
    i_match = int(below[0]) if below.size else len(samples) - 1
    r_match = r_sub[i_match]
    if samples[i_match] > 0 and r_match > 0:
        c_q = samples[i_match] * r_match ** ((N - 1) / 2.0) * math.exp(r_match)
    else:  # profile never reached the matching level (small rmax)
        c_q = samples[-1] * r_sub[-1] ** ((N - 1) / 2.0) * math.exp(r_sub[-1])
        r_match = r_sub[-1]

    q = np.interp(grid.r, r_sub, samples)
    tail = grid.r >= r_match
    with np.errstate(divide="ignore"):
        q[tail] = c_q * grid.r[tail] ** (-(N - 1) / 2.0) * np.exp(-grid.r[tail])
    if grid.r[0] == 0.0 and tail[0]:
        q[0] = samples[0]
    q[-1] = 0.0

    if polish:
        q, resid = _newton_polish(grid, p, q)
        # refit the tail constant on the polished profile, deep in the tail
        i_fit = min(int(round(0.7 * grid.n)), grid.n - 1)
        rf = grid.r[i_fit]
        if q[i_fit] > 0:
            c_q = q[i_fit] * rf ** ((N - 1) / 2.0) * math.exp(rf)
    else:
        op = radial_operator(grid)
        resid = float(np.max(np.abs(_residual(op.lap, op.rows(q), p))))

    gp = GroundProfile(
        Q=Field(grid, q.astype(complex), real=True),
        p=float(p), N=N, q0=float(a), c_q=float(c_q),
        s_c=N / 2.0 - 2.0 / (p - 1.0),
        ode_residual=resid, polished=polish,
    )
    _certify(gp)
    return gp


def _certify(gp: GroundProfile) -> None:
    """Positivity and strict monotonicity, checked above the roundoff floor.

    Tail nodes below ~1e4 eps * Q(0) are beyond what Newton can resolve
    and are exempt from the strict checks.
    """
    q = gp.Q.values.real
    floor = 1e4 * np.finfo(float).eps * max(q[0], 1.0)
    resolved = np.nonzero(q > floor)[0]
    if resolved.size < 2:
        raise CertificationError("ground state profile is not resolved")
    last = int(resolved[-1])
    if np.any(q[: last + 1] <= 0):
        raise CertificationError("ground state is not positive on the grid")
    if np.any(np.diff(q[: last + 1]) >= 0):
        raise CertificationError("ground state is not strictly decreasing")


def closed_form_1d(p: float, grid: RadialGrid) -> GroundProfile:
    """Explicit 1d profile Q(x) = ((p+1)/2)^{1/(p-1)} sech^{2/(p-1)}((p-1)x/2).

    Oracle for solve_ground; the ode_residual is evaluated by substituting
    the analytic second derivative, not the grid stencil.
    """
    if grid.N != 1:
        raise DimensionError(f"closed-form sech profile requires N = 1, got N={grid.N}")
    validate_intercritical(1, p)
    c = ((p + 1) / 2.0) ** (1.0 / (p - 1.0))
    alpha = 2.0 / (p - 1.0)
    beta = (p - 1.0) / 2.0
    x = grid.r
    sech = 1.0 / np.cosh(beta * x)
    tanh = np.tanh(beta * x)
    q = c * sech ** alpha
    qpp = c * alpha * beta**2 * sech**alpha * (alpha * tanh**2 - sech**2)
    resid = float(np.max(np.abs(qpp - q + q**p)))
    qgrid = q.copy()
    qgrid[-1] = 0.0
    return GroundProfile(
        Q=Field(grid, qgrid.astype(complex), real=True),
        p=float(p), N=1, q0=float(c),
        c_q=float(c * 2.0**alpha),  # sech^a ~ 2^a e^{-a beta x} = 2^a e^{-x}
        s_c=0.5 - 2.0 / (p - 1.0),
        ode_residual=resid, polished=False,
    )


def closed_form_W(N: int, grid: RadialGrid) -> Field:
    """Static critical profile W(r) = (1 + r^2/(N(N-2)))^{-(N-2)/2}, N >= 3."""
    if N < 3 or grid.N != N:
        raise DimensionError(
            f"W requires N >= 3 on a matching grid (asked N={N}, grid N={grid.N})")
    w = (1.0 + grid.r**2 / (N * (N - 2))) ** (-(N - 2) / 2.0)
    return Field(grid, w.astype(complex), real=True)


def _gradient4_values(grid: RadialGrid, v):
    """Fourth-order first differences (even extension at 0); identity checks only."""
    h, n = grid.h, grid.n
    out = np.zeros(n + 1, dtype=float)
    vv = v.real
    out[2:n - 1] = (-vv[4:n + 1] + 8 * vv[3:n] - 8 * vv[1:n - 2] + vv[0:n - 3]) / (12 * h)
    out[1] = (vv[2] - vv[0]) / (2 * h)
    out[n - 1] = (vv[n] - vv[n - 2]) / (2 * h)
    out[0] = 0.0
    out[n] = (vv[n] - vv[n - 1]) / h
    return out


@dataclass
class IdentityReport:
    """Static certification of a ground profile.

    ratio_pohozaev = int Q^{p+1} / int |grad Q|^2   vs  2(p+1)/(N(p-1))
    ratio_mass     = int Q^2     / int |grad Q|^2   vs  (2(p+1)-N(p-1))/(N(p-1))
    gn_constant    = the Gagliardo-Nirenberg quotient at Q (the measured
                     sharp constant C_{N,p})
    tail_deviation = sup over [rmax/2, 0.9 rmax] of |r^{(N-1)/2} e^r Q / c_q - 1|
    """

    ratio_pohozaev: float
    target_pohozaev: float
    ratio_mass: float
    target_mass: float
    gn_constant: float
    gn_constant_derived: float
    energy: float
    energy_target: float
    c_q: float
    tail_deviation: float
    passes: dict


def gn_quotient(values, grid: RadialGrid, p: float) -> float:
    """Gagliardo-Nirenberg quotient ||f||_{p+1}^{p+1} / (||grad f||^{N(p-1)/2} ||f||^{2-(N-2)(p-1)/2})."""
    N = grid.N
    w = grid.w
    f = np.asarray(values)
    P = float(np.dot(w, np.abs(f) ** (p + 1)))
    M = float(np.dot(w, np.abs(f) ** 2))
    g = _gradient4_values(grid, f.real) if np.isrealobj(f) or np.all(f.imag == 0) \
        else gradient_values(grid, f)
    G = float(np.dot(w, np.abs(g) ** 2))
    return P / (G ** (N * (p - 1) / 4.0) * M ** (1.0 - (N - 2) * (p - 1) / 4.0))


def check_identities(gp: GroundProfile, pohozaev_tol: float = 1e-6,
                     mass_tol: float = 1e-6, gn_tol: float = 1e-6,
                     tail_tol: float = 1e-2) -> IdentityReport:
    """Pohozaev ratios, the GN sharp constant, and the tail law fit.

    The gradient integral uses the discrete Dirichlet form -(Lap_h Q, Q)_w,
    which is exactly consistent with the polished profile; accuracy of the
    ratios is then governed by the dilation identity's O(h^2) discretization
    error, so tight tolerances require fine grids.
    """
    grid = gp.grid
    N, p = gp.N, gp.p
    w = grid.w
    q = gp.Q.values.real
    P = float(np.dot(w, q ** (p + 1)))
    M = float(np.dot(w, q ** 2))
    G = -float(np.dot(w, q * radial_operator(grid).apply(q)))

    t_poh = 2.0 * (p + 1) / (N * (p - 1))
    t_mass = (2.0 * (p + 1) - N * (p - 1)) / (N * (p - 1))
    ratio_poh = P / G
    ratio_mass = M / G

    gn = gn_quotient(q, grid, p)
    # the same constant expressed through the two ratios (Pohozaev-derived)
    kappa = t_mass
    gn_derived = t_poh * kappa ** ((N - 2) * (p - 1) / 4.0 - 1.0) * G ** (-(p - 1) / 2.0)

    energy = 0.5 * G - P / (p + 1)
    energy_target = (0.5 - 2.0 / (N * (p - 1))) * G

    window = (grid.r >= grid.rmax / 2) & (grid.r <= 0.9 * grid.rmax) & (q > 0)
    rw = grid.r[window]
    law = gp.c_q * rw ** (-(N - 1) / 2.0) * np.exp(-rw)
    tail_dev = float(np.max(np.abs(q[window] / law - 1.0))) if rw.size else math.inf

    passes = {
        "pohozaev": abs(ratio_poh / t_poh - 1) <= pohozaev_tol,
        "mass": abs(ratio_mass / t_mass - 1) <= mass_tol,
        "gn": abs(gn / gn_derived - 1) <= gn_tol,
        "tail": tail_dev <= tail_tol,
    }
    return IdentityReport(
        ratio_pohozaev=ratio_poh, target_pohozaev=t_poh,
        ratio_mass=ratio_mass, target_mass=t_mass,
        gn_constant=gn, gn_constant_derived=gn_derived,
        energy=energy, energy_target=energy_target,
        c_q=gp.c_q, tail_deviation=tail_dev, passes=passes,
    )

