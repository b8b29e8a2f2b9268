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
from .grid import Field, norms
from .ground import GroundProfile, observables

__all__ = ["ModulationFrame", "fit_parameters", "track", "aligned_distance"]

DEFAULT_WINDOW = 0.3  # d(u) <= window * ||grad Q|| gates the decomposition


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
                   theta_seed: float | None = None,
                   max_iter: int = 50, tol: float = 1e-13) -> ModulationFrame:
    """Solve the phase condition by Newton and split off (alpha, h).

    Raises OutOfWindowError when d(u) exceeds ``window * ||grad Q||`` and
    NewtonFailureError when the angle iteration does not settle.
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
    for _ in range(max_iter):
        g = (Z * np.exp(-1j * theta)).imag
        gp_ = -(Z * np.exp(-1j * theta)).real
        if gp_ == 0.0:
            raise NewtonFailureError("degenerate phase condition (zero projection)")
        delta = g / gp_
        theta -= delta
        if abs(delta) < tol:
            break
    else:
        raise NewtonFailureError(f"phase Newton did not converge in {max_iter} steps")
    theta = float(math.remainder(theta, 2 * math.pi))

    rot = u.values * np.exp(-1j * t - 1j * theta)
    alpha = float(np.dot(w, q ** gp.p * rot.real)) / gp.obs.potential - 1.0
    h_vals = rot - (1.0 + alpha) * q
    h = Field(grid, h_vals)
    res_iq = abs(float(np.dot(w, q * h_vals.imag)))
    res_qp = abs(float(np.dot(w, q ** gp.p * h_vals.real)))
    dist = norms(Field(grid, alpha * q + h_vals)).h1
    return ModulationFrame(t=t, theta=theta, alpha=alpha, h=h, d=d,
                           res_iq=res_iq, res_qp=res_qp,
                           h_norm=norms(h).h1, dist=dist)


def track(snapshots, gp: GroundProfile, window: float = DEFAULT_WINDOW):
    """Fit every snapshot, seeding each Newton from the previous angle.

    Snapshots outside the window are recorded as gaps (None) rather than
    aborting the whole track.  Returns (frames, ratios) where the ratio
    channels carry NaN at gaps:

      alpha_over_d     |alpha| / d                (raw)
      alpha_over_drel  |alpha| ||grad Q|| / d     (gradient-relative d;
                       alpha is dimensionless while d scales with
                       ||grad Q||, so this is the channel with O(1)
                       equivalence constants)
      h_over_d         ||h||_{H1} / d
      qh_over_alpha    |int Q Re(h)| / |alpha|
    """
    frames = []
    theta_prev = None
    for t, fld in snapshots:
        try:
            frame = fit_parameters(fld, t, gp, window=window, theta_seed=theta_prev)
            theta_prev = frame.theta
            frames.append(frame)
        except OutOfWindowError:
            frames.append(None)
    gq = gp.obs.grad
    w = gp.grid.w
    q = gp.Q.values.real

    def chan(fn):
        return np.array([fn(f) if f is not None else math.nan for f in frames])

    tiny = 1e-300
    ratios = {
        "alpha_over_d": chan(lambda f: abs(f.alpha) / max(f.d, tiny)),
        "alpha_over_drel": chan(lambda f: abs(f.alpha) * gq / max(f.d, tiny)),
        "h_over_d": chan(lambda f: f.h_norm / max(f.d, tiny)),
        "qh_over_alpha": chan(lambda f: abs(float(np.dot(w, q * f.h.values.real)))
                              / max(abs(f.alpha), tiny)),
    }
    return frames, ratios


def aligned_distance(u: Field, t: float, gp: GroundProfile,
                     window: float = 10.0) -> float:
    """Phase-aligned H1 distance to the standing wave at time t.

    Uses the modulation angle when the fit succeeds; a very loose window
    keeps this usable as a plain diagnostic far from Q.
    """
    try:
        return fit_parameters(u, t, gp, window=window).dist
    except (OutOfWindowError, NewtonFailureError):
        diff = Field(u.grid, u.values - np.exp(1j * t) * gp.Q.values)
        return norms(diff).h1
