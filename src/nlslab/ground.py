"""Ground state Q of the rescaled elliptic equation Delta Q - Q + Q^p = 0.

Q is the unique positive radial decaying solution in the intercritical
range 1 + 4/N < p < 2* - 1 (2* - 1 = 1 + 4/(N-2) for N >= 3, +inf for
N = 1, 2).  It is computed by shooting from the origin,

    Q'' + (N-1)/r Q' - Q + Q^p = 0,  Q(0) = a,  Q'(0) = 0,

on a bracket of a: an overshoot (Q < 0) means a is too large, an
undershoot (Q' > 0 while 0 < Q < 1) means a is too small.  Inside the
bracket a safeguarded secant (Illinois) on the tail-matching condition
F(a) = Q'(R) + kappa(R) Q(R), which vanishes on the decaying tail, picks
each next shot; it bisects where F is not defined.  Beyond
the matching radius (first node with Q < 1e-6) the profile is continued by
the asymptotic law  c_Q r^{-(N-1)/2} e^{-r},  and by default the grid
profile is then polished by Newton iteration on the discretized equation
Lap_h Q - Q + Q^p = 0 so that the discrete operator identities
(L_- Q = 0, L_+ Q = (1-p) Q^p, ...) hold to solver precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .banded import Tridiag
from .errors import (
    CertificationError,
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
    "check_identities",
    "gn_quotient",
    "validate_intercritical",
]

MATCH_LEVEL = 1e-6       # Q-level at which the asymptotic tail takes over
OVERSHOOT_CAP = 1e3      # |Q| beyond this counts as overshoot (shooting only)
A_CAP = 0.5 * OVERSHOOT_CAP  # bracket widening stops here: shots clip at the cap
A_TOL = 1e-13            # bracket width at which the Q(0) search stops
SECANT_LEVEL = 1e-2      # |Q(R)| below which a shot is in the linear tail (secant)
NEWTON_MAX_ITER = 25     # cap on the Newton polish's iterations


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

    ``q0`` is the shooting value Q(0), the midpoint of a bracket narrower
    than ``A_TOL`` whose ends under- and overshoot (grid-independent up to
    the event tolerance); ``Q.values[0]`` is the discrete BVP's own central
    value.  ``c_q`` is the tail constant in Q ~ c_q r^{-(N-1)/2} e^{-r}.
    ``ode_residual`` is sup |Lap_h Q - Q + Q^p| over the grid.  ``shots``
    counts the RK4 shots of the shooting key, the same on a memo hit.
    """

    Q: Field
    p: float
    N: int
    q0: float
    c_q: float
    s_c: float
    ode_residual: float
    shots: int

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
    values are the samples at multiples of h_sub up to the event.  The
    stages of s' = nl(q) - (N-1)/r s are written out; each clips q at
    OVERSHOOT_CAP in nl, so a doomed overshoot cannot overflow first.
    """
    nsteps = int(round(r_stop / h_sub))
    q, s = a, 0.0
    out = np.empty(nsteps + 1)
    out[0] = a
    cap, e, m, h2, h6 = OVERSHOOT_CAP, p - 1, N - 1, h_sub / 2, h_sub / 6
    for i in range(nsteps):
        r = i * h_sub
        c2 = m / (r + h2)               # stages 2 and 3 share their radius
        qc = q if abs(q) < cap else math.copysign(cap, q)
        nl = qc - abs(qc) ** e * qc
        k1 = nl - m / r * s if i else nl / N
        q2, s2 = q + h2 * s, s + h2 * k1
        qc = q2 if abs(q2) < cap else math.copysign(cap, q2)
        k2 = qc - abs(qc) ** e * qc - c2 * s2
        q3, s3 = q + h2 * s2, s + h2 * k2
        qc = q3 if abs(q3) < cap else math.copysign(cap, q3)
        k3 = qc - abs(qc) ** e * qc - c2 * s3
        q4, s4 = q + h_sub * s3, s + h_sub * k3
        qc = q4 if abs(q4) < cap else math.copysign(cap, q4)
        k4 = qc - abs(qc) ** e * qc - m / (r + h_sub) * s4
        q += h6 * (s + 2 * s2 + 2 * s3 + s4)
        s += h6 * (k1 + 2 * k2 + 2 * k3 + k4)
        out[i + 1] = q
        if q < 0 or abs(q) > OVERSHOOT_CAP:
            return "over", out[: i + 2]
        if s > 0 and 0 < q < 1:
            return "under", out[: i + 2]
    return "end", out


def _decaying_tail(N: int, r: float) -> tuple[float, float]:
    """(f, kappa) at r >= 2: the decaying solution f = r^{-nu} K_nu(r) of
    the tail equation q'' + (N-1)/r q' - q = 0, nu = (N-2)/2, and
    kappa = K_{nu+1}(r) / K_nu(r) = -f'/f.

    K_mu and K_{mu+1} for |mu| <= 1/2 come from Steed's algorithm for the
    continued fraction CF2 in Temme's form (as in Numerical Recipes'
    ``bessik``), then the recurrence K_{m+1} = K_{m-1} + (2m/r) K_m climbs
    to nu.  For odd N, mu = -1/2 and every term of the fraction vanishes:
    K_{1/2} = K_{-1/2} = sqrt(pi/2r) e^{-r}, so kappa is exactly 1 at
    N = 1 and 1 + 1/r at N = 3.
    """
    nu = (N - 2) / 2.0
    k = int(nu + 0.5)
    mu = nu - k
    a1 = 0.25 - mu * mu
    h, s = 0.0, 1.0
    if a1:
        b = 2.0 * (1.0 + r)
        d = h = delta = 1.0 / b
        q1, q2, q, c, a = 0.0, 1.0, a1, a1, -a1
        s = 1.0 + q * delta
        for i in range(2, 1000):
            a -= 2 * (i - 1)
            c = -a * c / i
            q1, q2 = q2, (q1 - b * q2) / a
            q += c * q2
            b += 2.0
            d = 1.0 / (b + a * d)
            delta *= b * d - 1.0
            h += delta
            s += q * delta
            if abs(q * delta) < 1e-16 * abs(s):
                break
        h *= a1
    k_mu = math.sqrt(math.pi / (2.0 * r)) * math.exp(-r) / s
    k_next = k_mu * (mu + r + 0.5 - h) / r
    for j in range(1, k + 1):
        k_mu, k_next = k_next, k_mu + 2.0 * (mu + j) / r * k_next
    return r ** -nu * k_mu, k_next / k_mu


def _shot(a: float, p: float, N: int, h_sub: float, r_stop: float):
    """(event, W) of one shot; its samples are not kept.

    F = q'(R) + kappa(R) q(R) vanishes on the decaying tail; scaled by
    R^{N-1} f(R) it is the Wronskian W(f, q), which is the same at every
    R where q solves the linear tail equation: the shot's growing-mode
    coefficient, positive for an undershoot and negative for an
    overshoot.  R is the deepest sample the shot reaches (q' by
    fourth-order central differences), no deeper than where it falls
    below MATCH_LEVEL.  A shot whose event ends it before it is in the
    linear tail there (|q(R)| > SECANT_LEVEL) has W = None: F = +-inf.
    """
    ev, q = _shoot(a, p, N, h_sub, r_stop)
    i = min(len(q) - 3, int(np.argmax(q < MATCH_LEVEL)) or len(q))
    R = i * h_sub
    if R < 2.0 or abs(float(q[i])) > SECANT_LEVEL:
        return ev, None
    f, kappa = _decaying_tail(N, R)
    q2, q1, q0, p1, p2 = q[i - 2:i + 3].tolist()
    dq = (q2 - 8.0 * q1 + 8.0 * p1 - p2) / (12.0 * h_sub)
    return ev, R ** (N - 1) * f * (dq + kappa * q0)


def _bracket(p, N, h_sub, r_stop, bracket, a_cap):
    """(lo, w_lo, hi, w_hi, shots): the configured bracket, its top doubled
    while it undershoots, with each end's W (``_shot``; None for the
    constant shot a = 1, which is never integrated)."""
    lo, hi = bracket
    # a = 1 is the constant solution Q = 1 (nl = 0 exactly): its shot runs
    # to r_stop without an event, which reads as 'under' below
    ev_lo, w_lo = ("under", None) if lo == 1.0 else _shot(lo, p, N, h_sub, r_stop)
    ev_hi, w_hi = _shot(hi, p, N, h_sub, r_stop)
    shots = 1 + (lo != 1.0)
    # a clean decay to rmax without events means a is within event
    # resolution of the ground state value; treat it as the side it ends
    if ev_lo == "end":
        ev_lo = "under"
    # Q(0) above the configured bracket: double hi while it undershoots
    while ev_lo == "under" and ev_hi == "under":
        if hi >= a_cap:
            raise NoBracketError(
                f"Q(0) exceeds {a_cap:g}: shots clip the nonlinearity at "
                f"|Q| = {OVERSHOOT_CAP:g}, so no wider bracket is tried")
        lo, w_lo, hi = hi, w_hi, min(2.0 * hi, a_cap)
        ev_hi, w_hi = _shot(hi, p, N, h_sub, r_stop)
        shots += 1
    if ev_hi == "end":
        ev_hi = "over"
    if not (ev_lo == "under" and ev_hi == "over"):
        raise NoBracketError(
            f"bracket [{lo}, {hi}] does not separate undershoot from "
            f"overshoot (events: {ev_lo}, {ev_hi})")
    return lo, w_lo, hi, w_hi, shots


def _find_q0(p, N, h_sub, r_stop, bracket, a_cap):
    """(lo, hi, shots): a bracket narrower than A_TOL around Q(0).

    Each shot is classified by its event, as a bisection would: 'over'
    moves hi, anything else moves lo.  The next point is the Illinois
    (regula falsi) root of the ends' W (``_shot``), and an end that is
    kept while the other end moves twice in a row has its value halved.
    A bisection step is taken where an end has no W (or one of the wrong
    sign), and after two interpolations that did not halve the bracket.
    """
    lo, w_lo, hi, w_hi, shots = _bracket(p, N, h_sub, r_stop, bracket, a_cap)
    side = 0            # +1: the last shot moved hi, -1: it moved lo
    widths = [hi - lo, hi - lo]
    slow = False
    for _ in range(220):
        secant = (not slow and w_lo is not None and w_hi is not None
                  and w_lo > 0.0 > w_hi)
        if secant:
            mid = lo + w_lo * (hi - lo) / (w_lo - w_hi)
            # a point within A_TOL of an end could only move that end
            mid = min(max(mid, lo + 0.4 * A_TOL), hi - 0.4 * A_TOL)
        else:
            mid = 0.5 * (lo + hi)
        ev, w = _shot(mid, p, N, h_sub, r_stop)
        shots += 1
        if ev == "over":
            hi, w_hi = mid, w
            if side == 1 and w_lo is not None:
                w_lo *= 0.5
            side = 1
        else:
            lo, w_lo = mid, w
            if side == -1 and w_hi is not None:
                w_hi *= 0.5
            side = -1
        widths.append(hi - lo)
        if widths[-1] < A_TOL:
            return lo, hi, shots
        slow = secant and widths[-1] > 0.5 * widths[-3]
    raise NonConvergenceError(
        f"shooting search did not reach A_TOL={A_TOL} in 220 iterations")


@lru_cache(maxsize=8)
def _shoot_ground(p, N, h_sub, r_stop, bracket, a_cap):
    """(Q(0), its shot's samples (read-only), shots) for one shooting key.

    Q(0) is the midpoint of ``_find_q0``'s final bracket.  Memoized: each
    key is shot once per process.  ``a_cap`` is ``A_CAP``, passed so that
    the cap in force is part of the key.
    """
    lo, hi, shots = _find_q0(p, N, h_sub, r_stop, bracket, a_cap)
    a = 0.5 * (lo + hi)
    _, samples = _shoot(a, p, N, h_sub, r_stop)
    samples.flags.writeable = False
    return a, samples, shots + 1


def _residual(lap: Tridiag, q, p: float):
    """Lap_h Q - Q + Q^p on the operator's rows."""
    return lap.apply(q) - q + np.abs(q) ** (p - 1) * q


def _newton_polish(grid: RadialGrid, p: float, q_init):
    """Solve Lap_h Q - Q + Q^p = 0 on the rows of ``radial_operator``."""
    op = radial_operator(grid)
    lap = op.lap
    q = op.rows(q_init).copy()
    best = math.inf
    # residual floor scales like eps/h^2 * |Q|^p; stop on stagnation
    for _ in range(NEWTON_MAX_ITER):
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
    """Shooting + bracketed secant search + asymptotic tail (+ optional
    Newton polish).

    The RK4 substep is min(h, 0.02)/4 but never below 1.25e-3: the
    shooting value ``a`` is already resolved to ~1e-11 there, and the
    Newton polish owns the grid-level accuracy, so refining the substep
    with the grid would only slow the search down.  A ``bracket`` whose
    top still undershoots is widened by doubling, up to ``A_CAP``.  Each
    (p, N, substep, rmax, bracket, A_CAP) is shot once per process, so
    grids with h <= 0.005 that differ only in n share one shooting.
    """
    N = grid.N
    validate_intercritical(N, p)
    if grid.h > 0.02 + 1e-15:
        raise InvalidParameterError(
            f"ground-state work needs h <= 0.02, got h = {grid.h}")
    h_sub = max(min(grid.h, 0.02) / 4.0, 1.25e-3)
    a, samples, shots = _shoot_ground(float(p), N, h_sub, grid.rmax,
                                      tuple(map(float, bracket)), A_CAP)
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
        ode_residual=resid, shots=shots,
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

