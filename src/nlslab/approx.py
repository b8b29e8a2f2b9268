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

A lambda-polynomial sum_{j<=K} lambda^j C_j is the complex array of its
coefficient profiles, shape (K+1, n+1); lambda is real, so conjugation
acts coefficient-wise, and products are truncated at K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, RecursionDriftError, ValidityError
from .grid import Field, h1_norm
from .ground import GroundProfile
from .linearized import Q_FLOOR, LinearizedOps, SpectrumData, resolvent_solve

__all__ = [
    "ApproxSolution",
    "lp_mul",
    "lp_pow_frac",
    "expand_R",
    "build_Vk",
    "residual_rate",
]

DRIFT_TOL = 1e-7  # vanishing-coefficient tolerance, relative to ||Q^p||_inf


def lp_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cauchy product truncated at K (orders above K are discarded)."""
    if a.shape != b.shape:
        raise GridMismatchError("lambda-polynomials are not compatible")
    out = np.zeros(a.shape, dtype=complex)
    for i, ai in enumerate(a):
        if not np.any(ai):
            continue
        for j, bj in enumerate(b[:len(a) - i]):
            if not np.any(bj):
                continue
            out[i + j] += ai * bj
    return out


def lp_pow_frac(s: float, w: np.ndarray) -> np.ndarray:
    """(1 + w)^s = sum_m binom(s, m) w^m for a poly with zero constant term."""
    if np.any(w[0]):
        raise ValidityError("lp_pow_frac requires a zero constant term")
    out = np.zeros(w.shape, dtype=complex)
    out[0] = 1.0
    power = out.copy()
    coef = 1.0
    for m in range(1, len(w)):
        coef *= (s - (m - 1)) / m
        power = lp_mul(power, w)
        out += coef * power
    return out


def expand_R(V: np.ndarray, gp: GroundProfile) -> np.ndarray:
    """lambda-expansion of R(V) = Q^p J(Q^{-1} V).

    J(z) = (1+z)^{(p+1)/2} (1+zbar)^{(p-1)/2} - 1 - (p+1)/2 z - (p-1)/2 zbar.
    Division by Q is clamped where Q < 1e-10 Q(0) (coefficients zeroed
    there; the true profiles decay faster than Q).  The constant and
    linear lambda-coefficients vanish identically and are checked.
    """
    if V.shape[-1] != gp.grid.n + 1:
        raise GridMismatchError("polynomial grid does not match the profile")
    p = gp.p
    q = gp.Q.values.real
    trusted = q >= Q_FLOOR * q[0]
    qsafe = np.where(trusted, q, 1.0)

    z = V / qsafe
    z[:, ~trusted] = 0.0
    # validity: some lambda in (0, 1] must satisfy sum_j sup|z_j| lam^j <= 1/2,
    # the bound that gives ``t_min`` (a NaN sup fails it)
    if math.isinf(_validity_tmin([_sup_over_q(v, gp) for v in V[1:]], 1.0)):
        raise ValidityError("z-polynomial violates the 1/2 bound for all lambda")

    zb = np.conj(z)
    J = lp_mul(lp_pow_frac((p + 1) / 2.0, z), lp_pow_frac((p - 1) / 2.0, zb))
    J[0] -= 1.0
    J[1:] -= (p + 1) / 2.0 * z[1:] + (p - 1) / 2.0 * zb[1:]
    return J * (q**p)


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
    ops: LinearizedOps      # ops.gp is the ground profile


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
        V = np.zeros((j + 2, grid.n + 1), dtype=complex)
        for jj in range(1, j + 1):
            V[jj] = Z[jj].values
        eps = -1j * expand_R(V, gp)
        for jj in range(1, j + 1):
            lz = ops.extend(ops.apply_script_l(ops.restrict(Z[jj]))).values
            eps[jj] += lz - jj * e0 * Z[jj].values
        for jj in range(1, j + 1):
            # the recursion lives on the operator's rows; slaved origin
            # values are interpolated and carry O(h^2) warts
            drift = float(np.max(np.abs(ops.op.rows(eps[jj]))))
            if drift > DRIFT_TOL * scale:
                raise RecursionDriftError(
                    f"order-{jj} coefficient should vanish but has sup "
                    f"{drift:.3e} (tolerance {DRIFT_TOL * scale:.3e})")
        F_next = Field(grid, eps[j + 1])
        # -(script_L - (j+1) e0)^{-1} F cancels the order-(j+1) coefficient
        Z_next = resolvent_solve(-(j + 1) * e0, F_next, ops)
        Z.append(Field(grid, -Z_next.values))

    sups = [_sup_over_q(Z[j].values, gp) for j in range(1, k + 1)]
    t_min = _validity_tmin(sups, e0)
    return ApproxSolution(A=float(A), k=k, Z=Z, e0=e0, t_min=t_min, ops=ops)


def eval_V(approx: ApproxSolution, t: float) -> np.ndarray:
    lam = math.exp(-approx.e0 * t)
    out = np.zeros(approx.ops.grid.n + 1, dtype=complex)
    for j in range(approx.k, 0, -1):
        out = out + lam**j * approx.Z[j].values
    return out


def residual_values(approx: ApproxSolution, t: float) -> np.ndarray:
    """eps_k(t) = dV/dt + script_L V - i R(V), with R evaluated pointwise."""
    ops = approx.ops
    e0 = approx.e0
    lam = math.exp(-e0 * t)
    V = np.zeros(ops.grid.n + 1, dtype=complex)
    dV = np.zeros_like(V)
    for j in range(1, approx.k + 1):
        V += lam**j * approx.Z[j].values
        dV += -j * e0 * lam**j * approx.Z[j].values
    LV = ops.extend(ops.apply_script_l(ops.restrict(Field(ops.grid, V)))).values
    return dV + LV - 1j * pointwise_R(V, ops.gp)


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
        eps = Field(approx.ops.grid, residual_values(approx, t))
        lognorms.append(math.log(h1_norm(eps)))
    return float(np.polyfit(times, lognorms, 1)[0])
