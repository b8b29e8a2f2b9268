"""Radial time integration of i u_t + Delta u + |u|^{p-1} u = 0.

Strang splitting: a half-step of the exact nonlinear phase
u <- u exp(i dt/2 |u|^{p-1}), a full Crank-Nicolson step of the linear
part (with the optional absorbing layer entering as a complex potential
that damps mass on the outer shell), and a second half phase, all on the
rows of ``grid.radial_operator``; each step maps the n + 1 node values
to n + 1 node values through that operator (slaved origin node filled,
node n = 0).  The Laplacian is symmetric under ``grid.w`` on its rows, so
at every N the sponge-free Crank-Nicolson step conserves the ``grid.w``
mass to solver roundoff, and the full step is time-reversible.

``order = 4`` composes the Strang step by the standard triple jump
(gamma1, gamma2, gamma1) dt with gamma1 = 1/(2 - 2^{1/3}); this keeps
reversibility and unitarity while removing the O(dt^2) phase drift.
Default is the plain Strang step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import ClassVar

import numpy as np

from .banded import Tridiag
from .errors import InstabilityError, InvalidParameterError
from .grid import Field, RadialGrid, gradient_values, norms, radial_operator
from .ground import GroundProfile, Observables

__all__ = [
    "EvolverConfig",
    "TimeSeries",
    "Verdict",
    "Evolver",
    "step",
    "evolve",
    "diagnostics",
    "classify_run",
    "variance",
    "variance_rate",
]

GAMMA1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
GAMMA2 = 1.0 - 2.0 * GAMMA1
ADAPT_TRIGGER = 1.25    # dt halves when the gradient norm grows by this factor
MASS_GUARD = 1e-3       # a sponge-free run stops once its mass drifts this far


@dataclass(frozen=True)
class EvolverConfig:
    """Knobs for a single run; the ``evolve.*`` config keys are its fields.

    ``sponge`` switches the absorbing layer on the outer ``sponge_width``
    fraction of the domain, sigma(r) = sigma0 ((r - r_s)/(rmax - r_s))^2.
    dt halves whenever the gradient norm grows by ``ADAPT_TRIGGER``
    between samples, down to ``dt_min`` (0: dt/64); blow-up detection then
    terminates the run once the gradient norm triples.  A sponge-free run
    whose mass drifts by more than ``MASS_GUARD`` raises.  The checks are
    written so that NaN fails them.
    """

    dt: float = 1e-3
    t_end: float = 1.0
    sponge: bool = False
    sponge_strength: float = 5.0
    sponge_width: float = 0.15
    dt_min: float = 0.0            # 0: dt/64
    sample_every: int = 10
    snapshot_every: int = 0        # 0: only first/last
    order: int = 2

    def __post_init__(self):
        if not 0 < self.dt < math.inf:
            raise InvalidParameterError(f"dt must be positive and finite, got {self.dt}")
        if not math.isfinite(self.t_end):
            raise InvalidParameterError(f"t_end must be finite, got {self.t_end}")
        if not 0 <= self.sponge_strength < math.inf:
            raise InvalidParameterError("sponge strength must be finite and >= 0")
        if not 0 < self.sponge_width < 1:
            raise InvalidParameterError("sponge width must lie in (0, 1)")
        if not 0 <= self.dt_min < self.dt:
            raise InvalidParameterError("minimum dt must lie in [0, dt)")
        if self.sample_every < 1:
            raise InvalidParameterError("sample_every must be >= 1")
        if self.snapshot_every < 0:
            raise InvalidParameterError("snapshot_every must be >= 0")
        if self.order not in (2, 4):
            raise InvalidParameterError("order must be 2 or 4")


@dataclass
class TimeSeries:
    """Diagnostics sampled along a run (times strictly increasing); every
    field but ``meta`` is one column of ``SERIES_COLUMNS``."""

    HEADER: ClassVar[str]
    t: np.ndarray
    mass: np.ndarray
    energy: np.ndarray
    momentum: np.ndarray
    grad: np.ndarray
    d: np.ndarray
    me: np.ndarray
    mg: np.ndarray
    linf: np.ndarray
    fr: np.ndarray
    frp: np.ndarray
    dist_q: np.ndarray
    meta: dict = field(default_factory=dict)

    def rows(self):
        return np.column_stack([getattr(self, c) for c in SERIES_COLUMNS])


SERIES_COLUMNS = tuple(f.name for f in fields(TimeSeries) if f.name != "meta")
TimeSeries.HEADER = ",".join(SERIES_COLUMNS)


@dataclass
class Verdict:
    kind: str          # BlowUp | Scatter | ConvergeToQ | Undecided
    t_star: float | None = None
    rate: float | None = None
    evidence: dict = field(default_factory=dict)


class Evolver:
    """Caches the Crank-Nicolson matrix pairs for a (grid, p, config).

    A step maps all n + 1 node values through ``radial_operator``: the
    splitting acts on its rows, and ``extend`` fills the slaved origin.
    The implicit matrix of each dt is LU-factored on its first solve and
    kept with its pair, so each matrix is factored once per dt and every
    later step at that dt is a tridiagonal back-substitution.
    """

    def __init__(self, grid: RadialGrid, p: float, cfg: EvolverConfig):
        self.grid = grid
        self.p = float(p)
        self.cfg = cfg
        self.op = radial_operator(grid)
        rs = grid.rmax * (1.0 - cfg.sponge_width)
        sig = np.zeros(grid.n + 1)
        if cfg.sponge:
            mask = grid.r > rs
            sig[mask] = cfg.sponge_strength * ((grid.r[mask] - rs)
                                               / (grid.rmax - rs)) ** 2
        self.sigma = self.op.rows(sig)
        self._cn_cache: dict[float, tuple[Tridiag, Tridiag]] = {}

    def _cn(self, dt: float) -> tuple[Tridiag, Tridiag]:
        """(1 - i dt/2 Lap + |dt|/2 sigma, 1 + i dt/2 Lap - |dt|/2 sigma)."""
        pair = self._cn_cache.get(dt)
        if pair is None:
            lap = self.op.lap
            # the absorbing term is non-Hamiltonian: it must damp along the
            # direction of integration, hence |dt|
            damp = abs(dt) / 2 * self.sigma
            lhs = Tridiag(-1j * dt / 2 * lap.sub,
                          1.0 - 1j * dt / 2 * lap.diag + damp,
                          -1j * dt / 2 * lap.sup)
            rhs = Tridiag(1j * dt / 2 * lap.sub,
                          1.0 + 1j * dt / 2 * lap.diag - damp,
                          1j * dt / 2 * lap.sup)
            pair = self._cn_cache[dt] = (lhs, rhs)
        return pair

    def _strang(self, v, dt):
        """One Strang step of the row values ``v``."""
        lhs, rhs = self._cn(dt)
        v = v * np.exp(1j * (dt / 2) * np.abs(v) ** (self.p - 1))
        v = lhs.solve(rhs.apply(v))
        return v * np.exp(1j * (dt / 2) * np.abs(v) ** (self.p - 1))

    def step_values(self, u, dt):
        """One step of the n + 1 node values ``u``."""
        v = self.op.rows(u)
        for gamma in ((1.0,) if self.cfg.order == 2 else (GAMMA1, GAMMA2, GAMMA1)):
            v = self._strang(v, gamma * dt)
        return self.op.extend(v)


def step(u: Field, dt: float, cfg: EvolverConfig, p: float,
         evolver: Evolver | None = None) -> Field:
    """Advance one step of size dt (sign of dt sets the time direction)."""
    if abs(dt) > cfg.dt * (1 + 1e-12):
        raise InvalidParameterError("step size exceeds the configured dt")
    ev = evolver if evolver is not None else Evolver(u.grid, p, cfg)
    return Field(u.grid, ev.step_values(u.values, dt))


def variance(u: Field) -> float:
    """Full variance V = int r^2 |u|^2."""
    return float(np.dot(u.grid.w, u.grid.r**2 * np.abs(u.values) ** 2))


def variance_rate(u: Field) -> float:
    """V' = 4 Im int r u' ubar, the radial form of 4 Im int x . grad(u) ubar."""
    du = gradient_values(u.grid, u.values)
    integrand = (u.grid.r * du * np.conj(u.values)).imag
    return 4.0 * float(np.dot(u.grid.w, integrand))


def diagnostics(u: Field, t: float, p: float,
                reference: GroundProfile | None = None) -> dict:
    """All scalar diagnostics of a state; reference-dependent entries are
    NaN when no ground profile is attached."""
    grid = u.grid
    w = grid.w
    a = np.abs(u.values)
    du = gradient_values(grid, u.values)
    obs = Observables.integrate(w, a, du, p)
    a2 = a ** 2
    momentum = float(np.dot(w, (np.conj(u.values) * du).imag))
    linf = float(np.max(a))

    phi, phi_prime = grid.virial_weights
    fr = float(np.dot(w, phi * a2))
    frp = 2.0 * float(np.dot(w, phi_prime * (du * np.conj(u.values)).imag))

    out = dict(t=t, mass=obs.mass, energy=obs.energy, momentum=momentum,
               grad=obs.grad, linf=linf, potential=obs.potential,
               fr=fr, frp=frp,
               d=math.nan, me=math.nan, mg=math.nan, dist_q=math.nan)
    if reference is not None:
        out["d"] = abs(obs.grad - reference.obs.grad)
        out["me"], out["mg"] = reference.me_mg(obs)
        diff = u.values - np.exp(1j * t) * reference.Q.values.real
        out["dist_q"] = norms(Field(grid, diff)).h1
    return out


def evolve(u0: Field, t0: float, cfg: EvolverConfig, p: float,
           reference: GroundProfile | None = None):
    """Integrate from t0 to cfg.t_end (either direction).

    Samples diagnostics every ``sample_every`` steps, halves dt when the
    gradient norm grows by ``ADAPT_TRIGGER`` between samples (down to
    dt_min) and terminates early once blow-up evidence is conclusive.
    Returns (TimeSeries, snapshots) with snapshots a list of (t, Field).
    """
    grid = u0.grid
    ev = Evolver(grid, p, cfg)
    direction = 1.0 if cfg.t_end >= t0 else -1.0
    dt = cfg.dt * direction
    dt_min = cfg.dt_min or cfg.dt / 64.0

    u = u0.values.copy()
    t = t0
    rows = []
    snaps = [(t0, u0.copy())]
    meta = {"terminated_blowup": False, "dt_final": abs(dt)}
    if reference is not None:
        ref = reference.obs
        meta["ref_grad"] = ref.grad
        meta["ref_potential"] = ref.potential
        meta["ref_h1"] = math.sqrt(ref.mass) + ref.grad

    def sample():
        row = diagnostics(Field(grid, u), t, p, reference)
        if not (math.isfinite(row["mass"]) and math.isfinite(row["grad"])):
            raise InstabilityError(f"the state is not finite at t = {t:.6g}")
        rows.append(row)

    sample()
    mass0 = rows[0]["mass"]
    grad_prev = rows[0]["grad"]
    step_count = 0
    loggrad = [math.log(max(grad_prev, 1e-300))]

    while (cfg.t_end - t) * direction > 1e-12:
        if (cfg.t_end - t) * direction < abs(dt) * (1 - 1e-9):
            dt = (cfg.t_end - t)
        u = ev.step_values(u, dt)
        t += dt
        step_count += 1
        if step_count % cfg.sample_every == 0 or \
                (cfg.t_end - t) * direction <= 1e-12:
            sample()
            row = rows[-1]
            loggrad.append(math.log(max(row["grad"], 1e-300)))
            if not cfg.sponge and mass0 > 0 and \
                    abs(row["mass"] / mass0 - 1.0) > MASS_GUARD:
                raise InstabilityError(
                    f"mass drifted by {abs(row['mass'] / mass0 - 1):.2e} "
                    f"with the sponge off")
            if cfg.snapshot_every and (len(rows) - 1) % cfg.snapshot_every == 0:
                snaps.append((t, Field(grid, u.copy())))
            # adaptive step control on gradient growth; inside the blow-up
            # zone (gradient tripled) dt is driven straight to its floor so
            # the saturation criterion can fire
            in_blowup_zone = (reference is not None
                              and row["grad"] >= 3.0 * meta["ref_grad"])
            if (row["grad"] > ADAPT_TRIGGER * grad_prev or in_blowup_zone) \
                    and abs(dt) > dt_min:
                dt = math.copysign(max(abs(dt) / 2.0, dt_min), dt)
                meta["dt_final"] = abs(dt)
            grad_prev = row["grad"]
            if in_blowup_zone:
                if len(loggrad) >= 3 and (loggrad[-1] - 2 * loggrad[-2]
                                          + loggrad[-3]) > 0 \
                        and abs(dt) <= dt_min * (1 + 1e-9):
                    meta["terminated_blowup"] = True
                    meta["t_star"] = t
                    break

    if snaps[-1][0] != t:
        snaps.append((t, Field(grid, u.copy())))
    cols = {k: np.array([r[k] for r in rows]) for k in SERIES_COLUMNS}
    series = TimeSeries(meta=meta, **cols)
    series.meta["potential_series"] = np.array([r["potential"] for r in rows])
    return series, snaps


def classify_run(series: TimeSeries) -> Verdict:
    """Blow-up / scatter / converge-to-Q trichotomy on a finished series.

    BlowUp: the run terminated on the gradient-tripling criterion (or the
    gradient tripled with convex log-growth and dt at its floor).
    Scatter: the potential integral fell below 10% of the standing-wave
    value and L_inf decayed monotonically over the last quarter.
    ConvergeToQ: the modulation-aligned distance stayed in the window and
    fits an exponential with nonpositive rate (within fit noise).
    """
    meta = series.meta
    ref_grad = meta.get("ref_grad")
    ref_pot = meta.get("ref_potential")
    n = series.t.size

    if meta.get("terminated_blowup"):
        return Verdict("BlowUp", t_star=meta.get("t_star"),
                       evidence={"grad_max": float(np.max(series.grad))})
    if ref_grad is not None and np.max(series.grad) >= 3.0 * ref_grad:
        lg = np.log(np.maximum(series.grad, 1e-300))
        if n >= 3 and lg[-1] - 2 * lg[-2] + lg[-3] > 0:
            return Verdict("BlowUp", t_star=float(series.t[-1]),
                           evidence={"grad_max": float(np.max(series.grad))})

    dist = series.dist_q
    have_dist = np.all(np.isfinite(dist)) and ref_grad is not None
    near_q = (have_dist and np.max(series.d) <= 0.5 * ref_grad
              and np.max(dist) <= 0.5 * meta.get("ref_h1", math.inf))
    if near_q:
        half = n // 2
        tt, dd = series.t[half:], np.maximum(dist[half:], 1e-300)
        if tt.size >= 3:
            coef, cov = np.polyfit(tt, np.log(dd), 1, cov=True)
            rate = float(coef[0])
            noise = 2.0 * math.sqrt(max(float(cov[0, 0]), 0.0))
            direction = 1.0 if series.t[-1] >= series.t[0] else -1.0
            # a trajectory pinned to the standing wave at the numerical
            # floor is converged regardless of the noise-level slope sign
            floor_pinned = np.max(dist) <= 1e-3 * meta.get("ref_h1", math.inf)
            if direction * rate <= noise or floor_pinned:
                return Verdict("ConvergeToQ", rate=rate,
                               evidence={"dist_final": float(dist[-1]),
                                         "fit_noise": noise})

    pot = meta.get("potential_series")
    if pot is not None and ref_pot is not None:
        quarter = max(n // 4, 2)
        linf_tail = series.linf[-quarter:]
        # dispersing fields carry small boundary-layer ripples; require a
        # net decrease with only sub-5% upticks
        monotone = bool(np.all(np.diff(linf_tail) <= 0.05 * max(linf_tail[0], 1e-300))
                        and linf_tail[-1] <= linf_tail[0] * (1 - 1e-3))
        if pot[-1] < 0.1 * ref_pot and monotone:
            return Verdict("Scatter",
                           evidence={"potential_ratio": float(pot[-1] / ref_pot),
                                     "linf_final": float(series.linf[-1])})
    return Verdict("Undecided", evidence={"grad_final": float(series.grad[-1])})
