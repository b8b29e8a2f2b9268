"""Modulation decomposition near the standing wave.

A state u at time t close to e^{it} Q (radial sector: the translation
parameter is frozen at 0) is decomposed as

    e^{-i theta - i t} u = (1 + alpha) Q + h,

with theta fixed by the orthogonality  Im int Q (e^{-i theta - i t} u) = 0.
With Z = e^{-it} int Q u that condition reads Im e^{-i theta} Z = 0, whose
roots are arg Z + k pi; theta = arg Z is the root with Re e^{-i theta} Z > 0,
i.e. 1 + alpha > 0.  Then

    alpha = Re(e^{-i t - i theta} int Q^p u) / int Q^{p+1} - 1,

which enforces  int Q^p Re(h) = 0.  The remainder h then carries the
residuals of both orthogonality conditions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfWindowError
from .grid import Field, gradient_values, h1_norm, sq_norm
from .ground import GroundProfile

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
                   window: float = DEFAULT_WINDOW) -> ModulationFrame:
    """Split u into (theta, alpha, h) with theta = arg Z in (-pi, pi].

    Raises OutOfWindowError when d(u) exceeds ``window * ||grad Q||``, and
    when Z = e^{-it} int Q u vanishes, where the phase is undefined.  One
    gradient serves the frame: d = | ||grad u|| - ||grad Q|| | reads it
    (the same floats as ``observables(u).grad``), and the H1 norms of h
    and of alpha Q + h take their gradients from it and the profile's
    cached grad Q by linearity, as alpha reads the cached Q^p.
    """
    grid = u.grid
    w = grid.w
    q, qp, dq = gp.Q.values.real, gp.q_pow, gp.grad_q
    gq = gp.obs.grad
    du = gradient_values(grid, u.values)
    d = abs(math.sqrt(sq_norm(w, du)) - gq)
    if d > window * gq:
        raise OutOfWindowError(
            f"d(u) = {d:.4f} exceeds the modulation window {window * gq:.4f}")
    Z = complex(np.dot(w, q * u.values) * np.exp(-1j * t))
    if Z == 0:
        raise OutOfWindowError("int Q u = 0: the modulation phase is undefined")
    theta = float(np.angle(Z))

    turn = np.exp(-1j * t - 1j * theta)
    rot, drot = u.values * turn, du * turn
    alpha = float(np.dot(w, qp * rot.real)) / gp.obs.potential - 1.0
    h_vals = rot - (1.0 + alpha) * q
    res_iq = abs(float(np.dot(w, q * h_vals.imag)))
    res_qp = abs(float(np.dot(w, qp * h_vals.real)))
    h = Field(grid, h_vals)
    h_norm = h1_norm(h, drot - (1.0 + alpha) * dq)
    dist = h1_norm(Field(grid, rot - q), drot - dq)     # alpha Q + h = rot - Q
    return ModulationFrame(t=t, theta=theta, alpha=alpha, h=h, d=d,
                           res_iq=res_iq, res_qp=res_qp, h_norm=h_norm, dist=dist)


def track(snapshots, gp: GroundProfile):
    """Fit each (t, Field) snapshot in the ``DEFAULT_WINDOW``.

    A generator: it draws a snapshot only when its frame is asked for and
    keeps nothing, so ``snapshots`` may be a stream.  Yields one
    ``ModulationFrame`` per snapshot; a snapshot outside the window, or
    with Z = 0, yields a gap (None) rather than aborting the track.
    """
    for t, fld in snapshots:
        try:
            frame = fit_parameters(fld, t, gp)
        except OutOfWindowError:
            frame = None
        yield frame


def aligned_distance(u: Field, t: float, gp: GroundProfile) -> float:
    """Phase-aligned H1 distance || e^{-i theta - i t} u - Q ||_{H1} at time t.

    The fit runs with no window, so it raises OutOfWindowError only when
    Z = 0.
    """
    return fit_parameters(u, t, gp, window=math.inf).dist
