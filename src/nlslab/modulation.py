"""Modulation decomposition near the standing wave.

A state u at time t close to e^{it} Q (radial sector: the translation
parameter is frozen at 0) is decomposed as

    e^{-i theta - i t} u = (1 + alpha) Q + h,

with theta fixed by the orthogonality  Im int Q (e^{-i theta - i t} u) = 0
(Newton on the scalar angle, seeded by the argument of the projection) and

    alpha = Re(e^{-i t - i theta} int Q^p u) / int Q^{p+1} - 1,

which enforces  int Q^p Re(h) = 0.  The remainder h then carries the
residuals of both orthogonality conditions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NewtonFailureError, OutOfWindowError
from .grid import Field, h1_norm
from .ground import GroundProfile, observables

__all__ = ["ModulationFrame", "fit_parameters", "track", "aligned_distance"]

DEFAULT_WINDOW = 0.3  # d(u) <= window * ||grad Q|| gates the decomposition
ALIGNED_WINDOW = 10.0  # the loose window of ``aligned_distance``
PHASE_MAX_ITER = 50    # cap on the phase Newton's steps
PHASE_TOL = 1e-13      # phase Newton stops once a step is below this


@dataclass
class ModulationFrame:
    t: float
    theta: float
    alpha: float
    h: Field
    d: float
    res_iq: float       # |int Q Im(v)|, v = e^{-i theta - i t} u - Q
    res_qp: float       # |int Q^p Re(h)|
    h_norm: float
    dist: float         # || e^{-i theta - i t} u - Q ||_{H1} = || alpha Q + h ||_{H1}


def fit_parameters(u: Field, t: float, gp: GroundProfile,
                   window: float = DEFAULT_WINDOW,
                   theta_seed: float | None = None) -> ModulationFrame:
    """Solve the phase condition by Newton and split off (alpha, h).

    The Newton iteration starts from ``theta_seed``, or from the argument
    of the projection, and stops once a step is below ``PHASE_TOL``.
    Raises OutOfWindowError when d(u) exceeds ``window * ||grad Q||`` and
    NewtonFailureError when the angle does not settle in
    ``PHASE_MAX_ITER`` steps.
    """
    grid = u.grid
    w = grid.w
    q = gp.Q.values.real
    gq = gp.obs.grad
    d = abs(observables(u, gp.p).grad - gq)
    if d > window * gq:
        raise OutOfWindowError(
            f"d(u) = {d:.4f} exceeds the modulation window {window * gq:.4f}")

    # g(theta) = Im e^{-i theta} Z,  Z = e^{-it} int Q u;  g'(theta) = -Re e^{-i theta} Z
    Z = complex(np.dot(w, q * u.values) * np.exp(-1j * t))
    theta = float(np.angle(Z)) if theta_seed is None else float(theta_seed)
    for _ in range(PHASE_MAX_ITER):
        g = (Z * np.exp(-1j * theta)).imag
        gp_ = -(Z * np.exp(-1j * theta)).real
        if gp_ == 0.0:
            raise NewtonFailureError("degenerate phase condition (zero projection)")
        delta = g / gp_
        theta -= delta
        if abs(delta) < PHASE_TOL:
            break
    else:
        raise NewtonFailureError(
            f"phase Newton did not converge in {PHASE_MAX_ITER} steps")
    theta = float(math.remainder(theta, 2 * math.pi))

    rot = u.values * np.exp(-1j * t - 1j * theta)
    alpha = float(np.dot(w, q ** gp.p * rot.real)) / gp.obs.potential - 1.0
    h_vals = rot - (1.0 + alpha) * q
    h = Field(grid, h_vals)
    res_iq = abs(float(np.dot(w, q * h_vals.imag)))
    res_qp = abs(float(np.dot(w, q ** gp.p * h_vals.real)))
    dist = h1_norm(Field(grid, alpha * q + h_vals))
    return ModulationFrame(t=t, theta=theta, alpha=alpha, h=h, d=d,
                           res_iq=res_iq, res_qp=res_qp,
                           h_norm=h1_norm(h), dist=dist)


def track(snapshots, gp: GroundProfile):
    """Fit each (t, Field) snapshot in the ``DEFAULT_WINDOW``, seeding each
    Newton from the previous angle.

    A generator: it draws a snapshot only when its frame is asked for and
    keeps nothing but the last angle, so ``snapshots`` may be a stream.
    Yields one ``ModulationFrame`` per snapshot; a snapshot outside the
    window yields a gap (None) rather than aborting the track.
    """
    theta_prev = None
    for t, fld in snapshots:
        try:
            frame = fit_parameters(fld, t, gp, theta_seed=theta_prev)
            theta_prev = frame.theta
        except OutOfWindowError:
            frame = None
        yield frame


def aligned_distance(u: Field, t: float, gp: GroundProfile) -> float:
    """Phase-aligned H1 distance to the standing wave at time t.

    Uses the modulation angle when the fit succeeds; the very loose
    ``ALIGNED_WINDOW`` keeps this usable as a plain diagnostic far from Q.
    """
    try:
        return fit_parameters(u, t, gp, window=ALIGNED_WINDOW).dist
    except (OutOfWindowError, NewtonFailureError):
        diff = Field(u.grid, u.values - np.exp(1j * t) * gp.Q.values)
        return h1_norm(diff)
