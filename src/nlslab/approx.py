"""Approximate special solutions V_k^A = sum_{j=1}^k e^{-j e0 t} Z_j^A.

The profiles Z_j are built by a resolvent recursion in the variable
lambda = e^{-e0 t}: writing the linearized-flow defect of V_k as a
lambda-polynomial,

    eps_k = sum_j lambda^j (script_L - j e0) Z_j - i R(V_k),

coefficients 1..k must vanish (Z_1 = A Y_+ starts the induction), and the
first surviving coefficient F_{k+1} is removed by

    Z_{k+1} = -(script_L - (k+1) e0)^{-1} F_{k+1},

which is the choice that cancels the order-(k+1) coefficient of eps_{k+1}
(verified against the recursion drift check at every order).

R is expanded through the factorization |1+z|^{p-1}(1+z)
= (1+z)^{(p+1)/2} (1+zbar)^{(p-1)/2}, z = Q^{-1} V, whose Taylor
coefficients are generalized binomials -- exact for every intercritical p,
including non-integer p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, RecursionDriftError, ValidityError
from .grid import Field, RadialGrid, norms
from .ground import GroundProfile
from .linearized import Q_FLOOR, LinearizedOps, SpectrumData, resolvent_solve

__all__ = [
    "LambdaPoly",
    "ApproxSolution",
    "lp_mul",
    "lp_pow_frac",
    "expand_R",
    "build_Vk",
    "residual_rate",
]

DRIFT_TOL = 1e-7  # vanishing-coefficient tolerance, relative to ||Q^p||_inf


@dataclass
class LambdaPoly:
    """Polynomial sum_{j<=K} lambda^j C_j with complex coefficient profiles.

    lambda = e^{-e0 t} is real, so conjugation acts coefficient-wise.
    Products are truncated at K.
    """

    grid: RadialGrid
    K: int
    coeffs: np.ndarray  # shape (K+1, n+1), complex

    @classmethod
    def zero(cls, grid: RadialGrid, K: int) -> "LambdaPoly":
        return cls(grid, K, np.zeros((K + 1, grid.n + 1), dtype=complex))

    @classmethod
    def constant(cls, grid: RadialGrid, K: int, values) -> "LambdaPoly":
        p = cls.zero(grid, K)
        p.coeffs[0] = values
        return p

    def conj(self) -> "LambdaPoly":
        return LambdaPoly(self.grid, self.K, np.conj(self.coeffs))

    def eval_at(self, lam: float) -> np.ndarray:
        out = np.zeros(self.grid.n + 1, dtype=complex)
        for j in range(self.K, -1, -1):
            out = out * lam + self.coeffs[j]
        return out

    def _check(self, other: "LambdaPoly") -> None:
        if not self.grid.same_as(other.grid) or self.K != other.K:
            raise GridMismatchError("lambda-polynomials are not compatible")


def lp_mul(a: LambdaPoly, b: LambdaPoly) -> LambdaPoly:
    """Cauchy product truncated at K (orders above K are discarded)."""
    a._check(b)
    out = LambdaPoly.zero(a.grid, a.K)
    for i in range(a.K + 1):
        ai = a.coeffs[i]
        if not np.any(ai):
            continue
        for j in range(a.K + 1 - i):
            bj = b.coeffs[j]
            if not np.any(bj):
                continue
            out.coeffs[i + j] += ai * bj
    return out


def lp_pow_frac(s: float, w: LambdaPoly) -> LambdaPoly:
    """(1 + w)^s = sum_m binom(s, m) w^m for a poly with zero constant term."""
    if np.any(w.coeffs[0]):
        raise ValidityError("lp_pow_frac requires a zero constant term")
    out = LambdaPoly.zero(w.grid, w.K)
    out.coeffs[0] = 1.0
    power = LambdaPoly.constant(w.grid, w.K, 1.0)
    coef = 1.0
    for m in range(1, w.K + 1):
        coef *= (s - (m - 1)) / m
        power = lp_mul(power, w)
        out.coeffs += coef * power.coeffs
    return out


def expand_R(V: LambdaPoly, gp: GroundProfile) -> LambdaPoly:
    """lambda-expansion of R(V) = Q^p J(Q^{-1} V).

    J(z) = (1+z)^{(p+1)/2} (1+zbar)^{(p-1)/2} - 1 - (p+1)/2 z - (p-1)/2 zbar.
    Division by Q is clamped where Q < 1e-10 Q(0) (coefficients zeroed
    there; the true profiles decay faster than Q).  The constant and
    linear lambda-coefficients vanish identically and are checked.
    """
    if not V.grid.same_as(gp.grid):
        raise GridMismatchError("polynomial grid does not match the profile")
    p = gp.p
    q = gp.Q.values.real
    trusted = q >= Q_FLOOR * q[0]
    qsafe = np.where(trusted, q, 1.0)

    z = LambdaPoly(V.grid, V.K, V.coeffs / qsafe)
    z.coeffs[:, ~trusted] = 0.0
    # validity: some lambda in (0, 1] must satisfy sum_j |z_j| lam^j <= 1/2
    sup_abs = np.array([float(np.max(np.abs(z.coeffs[j][trusted]), initial=0.0))
                        for j in range(1, V.K + 1)])
    if sup_abs.size and sup_abs.sum() > 0:
        lam = 1.0
        while sum(m * lam**(j + 1) for j, m in enumerate(sup_abs)) > 0.5:
            lam *= 0.5
            if lam < 1e-12:
                raise ValidityError("z-polynomial violates the 1/2 bound for all lambda")

    zb = z.conj()
    t1 = lp_pow_frac((p + 1) / 2.0, z)
    t2 = lp_pow_frac((p - 1) / 2.0, zb)
    J = lp_mul(t1, t2)
    J.coeffs[0] -= 1.0
    J.coeffs[1:] -= (p + 1) / 2.0 * z.coeffs[1:] + (p - 1) / 2.0 * zb.coeffs[1:]
    return LambdaPoly(V.grid, V.K, J.coeffs * (q**p))


def pointwise_R(f_values, gp: GroundProfile) -> np.ndarray:
    """Direct evaluation R(f) = |Q+f|^{p-1}(Q+f) - Q^p - p Q^{p-1} f1 - i Q^{p-1} f2."""
    q = gp.Q.values.real
    p = gp.p
    total = q + f_values
    return (np.abs(total) ** (p - 1) * total - q**p
            - p * q ** (p - 1) * f_values.real
            - 1j * q ** (p - 1) * f_values.imag)


@dataclass
class ApproxSolution:
    """The profiles Z_1..Z_k with their validity window.

    ``t_min`` is the smallest t with sup |V_k(x,t)| <= Q(x)/2 on the
    trusted region (Q above its relative floor).
    """

    A: float
    k: int
    Z: list            # Z[j] for j = 1..k, Field entries (index 0 unused)
    e0: float
    t_min: float
    gp: GroundProfile
    ops: LinearizedOps


def _sup_over_q(values, gp: GroundProfile) -> float:
    q = gp.Q.values.real
    trusted = q >= Q_FLOOR * q[0]
    return float(np.max(np.abs(values[trusted]) / q[trusted]))


def _validity_tmin(sups, e0: float) -> float:
    """Smallest t >= 0 with sum_j sups[j-1] e^{-j e0 t} <= 1/2."""
    def total(lam):
        return sum(m * lam ** (j + 1) for j, m in enumerate(sups))
    if total(1.0) <= 0.5:
        return 0.0
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if total(mid) <= 0.5:
            lo = mid
        else:
            hi = mid
    return -math.log(lo) / e0 if lo > 0 else math.inf


def build_Vk(A: float, k: int, spectrum: SpectrumData,
             ops: LinearizedOps) -> ApproxSolution:
    """Run the recursion to order k; every supposedly-vanishing coefficient
    is re-verified against DRIFT_TOL * ||Q^p||_inf (recursion drift check)."""
    if k < 1:
        raise ValidityError("order k must be at least 1")
    gp = ops.gp
    grid = ops.grid
    e0 = spectrum.e0
    scale = float(np.max(gp.Q.values.real ** gp.p))

    Z = [None, Field(grid, A * spectrum.y_plus_values())]
    for j in range(1, k):
        K = j + 1
        V = LambdaPoly.zero(grid, K)
        for jj in range(1, j + 1):
            V.coeffs[jj] = Z[jj].values
        eps = LambdaPoly(grid, K, -1j * expand_R(V, gp).coeffs)
        for jj in range(1, j + 1):
            lz = ops.extend(ops.apply_script_l(ops.restrict(Z[jj]))).values
            eps.coeffs[jj] += lz - jj * e0 * Z[jj].values
        for jj in range(1, j + 1):
            # the recursion lives on the operator's rows; slaved origin
            # values are interpolated and carry O(h^2) warts
            drift = float(np.max(np.abs(ops.op.rows(eps.coeffs[jj]))))
            if drift > DRIFT_TOL * scale:
                raise RecursionDriftError(
                    f"order-{jj} coefficient should vanish but has sup "
                    f"{drift:.3e} (tolerance {DRIFT_TOL * scale:.3e})")
        F_next = Field(grid, eps.coeffs[j + 1])
        # -(script_L - (j+1) e0)^{-1} F cancels the order-(j+1) coefficient
        Z_next = resolvent_solve(-(j + 1) * e0, F_next, ops)
        Z.append(Field(grid, -Z_next.values))

    sups = [_sup_over_q(Z[j].values, gp) for j in range(1, k + 1)]
    sups = [abs(s) for s in sups]
    t_min = _validity_tmin(sups, e0)
    return ApproxSolution(A=float(A), k=k, Z=Z, e0=e0, t_min=t_min, gp=gp, ops=ops)


def eval_V(approx: ApproxSolution, t: float) -> np.ndarray:
    lam = math.exp(-approx.e0 * t)
    out = np.zeros(approx.gp.grid.n + 1, dtype=complex)
    for j in range(approx.k, 0, -1):
        out = out + lam**j * approx.Z[j].values
    return out


def residual_values(approx: ApproxSolution, t: float) -> np.ndarray:
    """eps_k(t) = dV/dt + script_L V - i R(V), with R evaluated pointwise."""
    ops = approx.ops
    e0 = approx.e0
    lam = math.exp(-e0 * t)
    V = np.zeros(approx.gp.grid.n + 1, dtype=complex)
    dV = np.zeros_like(V)
    for j in range(1, approx.k + 1):
        V += lam**j * approx.Z[j].values
        dV += -j * e0 * lam**j * approx.Z[j].values
    LV = ops.extend(ops.apply_script_l(ops.restrict(Field(approx.gp.grid, V)))).values
    return dV + LV - 1j * pointwise_R(V, approx.gp)


def residual_rate(approx: ApproxSolution, times) -> float:
    """Least-squares slope of log ||eps_k(t)||_{H1} against t.

    Expected close to -(k+1) e0.  All times must sit inside the validity
    window t >= t_min.
    """
    times = np.asarray(list(times), dtype=float)
    if times.size < 3:
        raise ValidityError("need at least 3 sample times for a rate fit")
    if np.any(times < approx.t_min - 1e-12):
        raise ValidityError(
            f"times below the validity window t_min = {approx.t_min:.6f}")
    lognorms = []
    for t in times:
        eps = Field(approx.gp.grid, residual_values(approx, t))
        lognorms.append(math.log(norms(eps).h1))
    return float(np.polyfit(times, lognorms, 1)[0])
