"""Ground state Q of the rescaled elliptic equation Delta Q - Q + Q^p = 0.

Q is the unique positive radial decaying solution in the intercritical
range 1 + 4/N < p < 2* - 1 (2* - 1 = 1 + 4/(N-2) for N >= 3, +inf for
N = 1, 2).  The package's Q is the grid's own: the solution of the
discretized equation Lap_h Q - Q + Q^p = 0 on the rows of
``radial_operator``, so that the discrete operator identities
(L_- Q = 0, L_+ Q = (1-p) Q^p, ...) hold to solver precision.

It is found by Petviashvili's iteration (Petviashvili, Sov. J. Plasma
Phys. 2, 1976; Pelinovsky and Stepanyants, SIAM J. Numer. Anal. 42, 2004)
on L = 1 - Lap_h from e^{-r^2}, then polished by Newton iteration, whose
final residual must lie within a fixed multiple of its roundoff floor.
Its central value Q_h(0) = ``Q.values[0]`` is the ``q0`` that reports
print; it differs from the continuum Q(0) by O(h^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.typing import NDArray

from .banded import Tridiag
from .errors import CertificationError, InvalidParameterError, NonConvergenceError
from .grid import (Field, RadialGrid, RadialOperator, gradient_values,
                   radial_operator, sq_norm)

__all__ = [
    "GroundProfile",
    "Observables",
    "observables",
    "IdentityReport",
    "solve_ground",
    "check_identities",
    "gn_quotient",
    "validate_intercritical",
    "validate_spacing",
]

PETVIASHVILI_TOL = 1e-10      # relative change at which the iteration stops
PETVIASHVILI_MAX_ITER = 500   # cap on Petviashvili's iterations
NEWTON_MAX_ITER = 25          # cap on the Newton polish's iterations
NEWTON_FLOOR_FACTOR = 100.0   # allowed final residual, in roundoff floors


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


def validate_spacing(h: float) -> None:
    """Require the grid spacing h = rmax / n <= 0.02, to its roundoff."""
    if h > 0.02 + 1e-15:
        raise InvalidParameterError(f"ground-state work needs h <= 0.02, got h = {h}")


@dataclass
class GroundProfile:
    """Certified ground state on a grid.

    ``Q.values[0]`` is the discrete central value Q_h(0).  ``c_q`` is the
    tail constant in Q ~ c_q r^{-(N-1)/2} e^{-r}.  ``ode_residual`` is
    sup |Lap_h Q - Q + Q^p| over the grid.  ``petviashvili_iters`` and
    ``newton_iters`` count the iterations of the two solver stages.
    """

    Q: Field
    p: float
    c_q: float
    ode_residual: float
    petviashvili_iters: int
    newton_iters: int

    @property
    def grid(self) -> RadialGrid:
        return self.Q.grid

    @property
    def N(self) -> int:
        return self.grid.N

    @property
    def s_c(self) -> float:
        """The critical regularity N/2 - 2/(p-1)."""
        return self.N / 2.0 - 2.0 / (self.p - 1.0)

    @cached_property
    def obs(self) -> Observables:
        """M, E and the gradient of Q: the normalisation of ME and MG."""
        return observables(self.Q, self.p)

    @cached_property
    def grad_q(self) -> NDArray[np.complex128]:
        """``gradient_values`` of Q (read-only), taken on the complex node
        values as a state's gradient is, so that it is that of u = Q to
        the bit."""
        g = gradient_values(self.grid, self.Q.values)
        g.setflags(write=False)
        return g

    @cached_property
    def q_pow(self) -> NDArray[np.float64]:
        """Q^p on the nodes (read-only), the weight of the modulation's alpha."""
        qp = self.Q.values.real ** self.p
        qp.setflags(write=False)
        return qp

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
    def integrate(cls, w, a, du, p: float, power=None) -> "Observables":
        """From the modulus ``a`` = |u| and the gradient ``du`` under
        weights ``w``; a ``power`` = |u|^{p-1} that the caller already has
        (an evolved sample's, from its step) forms |u|^{p+1} as
        |u|^2 |u|^{p-1}."""
        a2 = a ** 2
        mass = float(np.dot(w, a2))
        grad2 = sq_norm(w, du)
        potential = float(np.dot(w, a ** (p + 1) if power is None else a2 * power))
        return cls(mass=mass, grad2=grad2, potential=potential,
                   energy=0.5 * grad2 - potential / (p + 1))


def observables(u: Field, p: float) -> Observables:
    """Observables of ``u`` under ``grid.w`` with ``gradient_values``."""
    grid = u.grid
    return Observables.integrate(grid.w, np.abs(u.values),
                                 gradient_values(grid, u.values), p)


def _residual(lap: Tridiag, q, p: float):
    """Lap_h Q - Q + Q^p on the operator's rows."""
    return lap.apply(q) - q + np.abs(q) ** (p - 1) * q


def _petviashvili(op: RadialOperator, p: float):
    """(rows of u, iterations): Petviashvili's iteration for L u = u^p,
    L = 1 - Lap_h, from e^{-r^2},

        u <- M(u)^{p/(p-1)} L^{-1} u^p,   M(u) = <u, L u> / <u, u^p>,

    under the weights ``op.rho``.  L is an M-matrix, so a positive
    iterate stays positive.  Stops at a relative change below
    ``PETVIASHVILI_TOL`` or after ``PETVIASHVILI_MAX_ITER`` iterations.
    """
    lap, rho = op.lap, op.rho
    L = Tridiag(-lap.sub, 1.0 - lap.diag, -lap.sup)
    gamma = p / (p - 1.0)
    u = np.exp(-op.rows(op.grid.r) ** 2)
    for it in range(1, PETVIASHVILI_MAX_ITER + 1):
        up = u ** p
        M = float(np.dot(rho, u * L.apply(u))) / float(np.dot(rho, u * up))
        new = M ** gamma * L.solve(up)
        change = float(np.max(np.abs(new - u))) / float(np.max(new))
        u = new
        if change < PETVIASHVILI_TOL:
            break
    return u, it


def _newton_polish(op: RadialOperator, p: float, q):
    """(rows of Q, residual, steps): Newton on Lap_h Q - Q + Q^p = 0,
    stopped when a step fails to halve the residual.

    A final residual above ``NEWTON_FLOOR_FACTOR`` times the roundoff
    floor eps (4/h^2 + max Q^{p-1}) max Q raises ``NonConvergenceError``.
    """
    lap = op.lap
    q = q.copy()
    best, steps = math.inf, 0
    for _ in range(NEWTON_MAX_ITER):
        F = _residual(lap, q, p)
        rnorm = float(np.max(np.abs(F)))
        if rnorm >= 0.5 * best:
            break
        best = rnorm
        jac = Tridiag(lap.sub, lap.diag - 1.0 + p * np.abs(q) ** (p - 1), lap.sup)
        q += jac.solve(-F)
        steps += 1
    resid = float(np.max(np.abs(_residual(lap, q, p))))
    qmax = float(np.max(np.abs(q)))
    floor = np.finfo(float).eps * (4.0 / op.grid.h ** 2 + qmax ** (p - 1)) * qmax
    if not resid <= NEWTON_FLOOR_FACTOR * floor:
        raise NonConvergenceError(
            f"Newton polish stalled at residual {resid:.3g}, "
            f"{resid / floor:.3g} times its roundoff floor {floor:.3g}")
    return q, resid, steps


def solve_ground(grid: RadialGrid, p: float) -> GroundProfile:
    """Petviashvili's iteration on the grid, then the Newton polish.

    ``c_q`` is fitted at node 0.7 n, or at the last positive node before
    it if Q has underflowed there.
    """
    N = grid.N
    validate_intercritical(N, p)
    validate_spacing(grid.h)
    op = radial_operator(grid)
    u, its = _petviashvili(op, p)
    u, resid, steps = _newton_polish(op, p, u)
    q = op.extend(u)
    _certify(q)
    i_fit = min(int(round(0.7 * grid.n)), grid.n - 1)
    i_fit = int(np.nonzero(q[: i_fit + 1] > 0)[0][-1])
    rf = grid.r[i_fit]
    c_q = q[i_fit] * rf ** ((N - 1) / 2.0) * math.exp(rf)
    return GroundProfile(
        Q=Field(grid, q), p=float(p), c_q=float(c_q),
        ode_residual=resid, petviashvili_iters=its, newton_iters=steps,
    )


def _certify(q) -> None:
    """Positivity and strict monotonicity, checked above the roundoff floor.

    Tail nodes below ~1e4 eps * Q(0) are beyond what Newton can resolve
    and are exempt from the strict checks.
    """
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
    tail_deviation: float

    def deviations(self) -> dict:
        """The deviation of each identity that ``cli.Pipeline`` judges."""
        return {"pohozaev": abs(self.ratio_pohozaev / self.target_pohozaev - 1),
                "mass": abs(self.ratio_mass / self.target_mass - 1),
                "gn": abs(self.gn_constant / self.gn_constant_derived - 1),
                "tail": self.tail_deviation}


def gn_quotient(values, grid: RadialGrid, p: float) -> float:
    """Gagliardo-Nirenberg quotient ||f||_{p+1}^{p+1} / (||grad f||^{N(p-1)/2} ||f||^{2-(N-2)(p-1)/2})
    of a real profile f."""
    N = grid.N
    w = grid.w
    f = np.asarray(values)
    P = float(np.dot(w, np.abs(f) ** (p + 1)))
    M = float(np.dot(w, np.abs(f) ** 2))
    G = float(np.dot(w, np.abs(_gradient4_values(grid, f)) ** 2))
    return P / (G ** (N * (p - 1) / 4.0) * M ** (1.0 - (N - 2) * (p - 1) / 4.0))


def check_identities(gp: GroundProfile) -> IdentityReport:
    """Pohozaev ratios, the GN sharp constant, and the tail law fit: values
    only; ``cli.Pipeline.identities`` judges their ``deviations`` against
    ``Pipeline.BOUNDS``.

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

    return IdentityReport(
        ratio_pohozaev=ratio_poh, target_pohozaev=t_poh,
        ratio_mass=ratio_mass, target_mass=t_mass,
        gn_constant=gn, gn_constant_derived=gn_derived,
        energy=energy, energy_target=energy_target,
        tail_deviation=tail_dev,
    )

