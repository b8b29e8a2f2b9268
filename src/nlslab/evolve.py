"""Radial time integration of i u_t + Delta u + |u|^{p-1} u = 0.

Strang splitting: a half-step of the exact nonlinear phase
u <- u exp(i dt/2 |u|^{p-1}), a full Crank-Nicolson step of the linear
part (with the optional absorbing layer entering as a complex potential
that damps mass on the outer shell), and a second half phase, all on the
rows of the grid's Laplacian ``RadialGrid.lap``; each step maps the n + 1
node values to n + 1 node values through ``rows`` and ``extend`` (slaved
origin node filled, node n = 0).  The Laplacian is symmetric under
``grid.w`` on its rows, so at every N the sponge-free Crank-Nicolson step
conserves the ``grid.w`` mass to solver roundoff, and the step is reversible.

``order = 4`` composes the Strang step by the standard triple jump
(gamma1, gamma2, gamma1) dt with gamma1 = 1/(2 - 2^{1/3}); this keeps
reversibility and unitarity while removing the O(dt^2) phase drift.
Default is the plain Strang step.

The phase map keeps |u|, so two adjacent half phases are one phase of
their summed length ("first same as last", McLachlan and Quispel,
*Acta Numerica* 11, 2002): a composed step merges its inner ones.  Every
step closes, and the next step at the same dt opens with the closing
phase's factor exp(i theta |v|^{p-1}) instead of forming it.  Since
lhs + rhs = 2I for the Crank-Nicolson pair, sponge included, the linear
stage is 2 lhs^{-1} v - v with one matrix per dt.

``evolve`` steps, samples and takes snapshots; ``RunRules`` keeps the
samples and holds every rule they meet: the guards, the dt halving and
the stops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import ClassVar

import numpy as np

from .banded import Tridiag
from .errors import InstabilityError, InvalidParameterError
from .grid import Field, RadialGrid, gradient_values, h1_norm
from .ground import GroundProfile, Observables

__all__ = [
    "EvolverConfig",
    "TimeSeries",
    "Verdict",
    "Evolver",
    "RunRules",
    "evolve",
    "diagnostics",
    "classify_run",
]

GAMMA1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
GAMMA2 = 1.0 - 2.0 * GAMMA1
ADAPT_TRIGGER = 1.25    # the gradient growth that halves dt (RunRules)
DT_SHRINK = 64.0        # RunRules halves dt to no less than cfg.dt / DT_SHRINK
MASS_GUARD = 1e-3       # the mass drift a sponge-free run tolerates
SPONGE_STRENGTH = 5.0   # sigma0 of the absorbing layer
SPONGE_WIDTH = 0.15     # the layer's share of the domain, at its outer end
SCATTER_POTENTIAL = 0.1  # Scatter needs P(u) below this share of P(Q)
SCATTER_HOLD = 4.0 / 3.0  # the scatter stop's factor on elapsed time


@dataclass(frozen=True)
class EvolverConfig:
    """Knobs for a single run; the ``evolve.*`` config keys are its fields.

    ``sponge`` switches the absorbing layer on the outer ``SPONGE_WIDTH``
    fraction of the domain, sigma(r) = sigma0 ((r - r_s)/(rmax - r_s))^2
    with sigma0 = ``SPONGE_STRENGTH``.  ``t_end`` is the horizon;
    ``RunRules`` halves dt and may stop a run before it.
    """

    dt: float = 1e-3
    t_end: float = 1.0
    sponge: bool = False
    sample_every: int = 10
    snapshot_every: int = 10       # 0: only first/last
    order: int = 2

    def __post_init__(self):
        if not 0 < self.dt < math.inf:
            raise InvalidParameterError(f"dt must be positive and finite, got {self.dt}")
        if not math.isfinite(self.t_end):
            raise InvalidParameterError(f"t_end must be finite, got {self.t_end}")
        if self.sample_every < 1:
            raise InvalidParameterError("sample_every must be >= 1")
        if self.snapshot_every < 0:
            raise InvalidParameterError("snapshot_every must be >= 0")
        if self.order not in (2, 4):
            raise InvalidParameterError("order must be 2 or 4")


@dataclass
class TimeSeries:
    """Diagnostics sampled along a run (times strictly monotone, in the
    direction of integration); every field but ``meta`` is one column of
    ``SERIES_COLUMNS``, the header of a written series file.  ``meta``
    holds the last dt, ``dt_final``, and the stop fields: why the run
    stopped, ``stop_reason`` ("t_end", "blowup" or "scatter"), and where,
    ``t_stop``."""

    HEADER: ClassVar[str]
    t: np.ndarray
    mass: np.ndarray
    energy: np.ndarray
    potential: np.ndarray
    grad: np.ndarray
    d: np.ndarray
    me: np.ndarray
    mg: np.ndarray
    dist_q: np.ndarray
    meta: dict = field(default_factory=dict)

    def rows(self):
        return np.column_stack([getattr(self, c) for c in SERIES_COLUMNS])

    def time_reversed(self) -> TimeSeries:
        """The series of t -> conj(u(-t)), which solves NLS when u does.

        Every ``diagnostics`` column but t is even under the map, so only
        t changes sign, with the one time in ``meta``, ``t_stop``.  For a
        real datum this is the series of its backward run, bit for bit:
        conjugation turns the Crank-Nicolson matrix at dt into the one at
        -dt (the sponge term |dt| sigma is real), and the phase map
        likewise.
        """
        cols = {c: getattr(self, c) for c in SERIES_COLUMNS}
        # 0.0 - t, not -t: t = 0 stays +0.0, as the backward run has it
        cols["t"] = 0.0 - self.t
        return TimeSeries(meta=dict(self.meta, t_stop=-self.meta["t_stop"]),
                          **cols)


SERIES_COLUMNS = tuple(f.name for f in fields(TimeSeries) if f.name != "meta")
TimeSeries.HEADER = ",".join(SERIES_COLUMNS)


@dataclass
class Verdict:
    kind: str          # BlowUp | Scatter | ConvergeToQ | Undecided
    t_star: float | None = None
    rate: float | None = None
    evidence: dict = field(default_factory=dict)


class Evolver:
    """Caches the Crank-Nicolson matrix of each dt for a (grid, p, config).

    A step maps all n + 1 node values through the grid: the splitting
    acts on the rows of its Laplacian, and ``extend`` fills the slaved origin.
    Each dt keeps only lhs = 1 - i dt/2 Lap + |dt|/2 sigma; it is
    LU-factored on its first solve, so every later step at that dt is a
    tridiagonal back-substitution.
    """

    def __init__(self, grid: RadialGrid, p: float, cfg: EvolverConfig):
        self.grid = grid
        self.p = float(p)
        self.cfg = cfg
        rs = grid.rmax * (1.0 - SPONGE_WIDTH)
        sig = np.zeros(grid.n + 1)
        if cfg.sponge:
            mask = grid.r > rs
            sig[mask] = SPONGE_STRENGTH * ((grid.r[mask] - rs)
                                           / (grid.rmax - rs)) ** 2
        self.sigma = grid.rows(sig)
        self._cn_cache: dict[float, Tridiag] = {}
        # the composition's stage weights and the merged phases between them
        self._gammas = (1.0,) if cfg.order == 2 else (GAMMA1, GAMMA2, GAMMA1)
        self._inner = tuple((a + b) / 2 for a, b in zip(self._gammas, self._gammas[1:]))

    def _cn(self, dt: float) -> Tridiag:
        """lhs = 1 - i dt/2 Lap + |dt|/2 sigma; the right-hand matrix is 2 - lhs."""
        lhs = self._cn_cache.get(dt)
        if lhs is None:
            # the absorbing term is non-Hamiltonian: it must damp along the
            # direction of integration, hence |dt|
            lhs = self._cn_cache[dt] = self.grid.schrodinger(
                -abs(dt) / 2 * self.sigma, 0.5j * dt)
        return lhs

    def _linear(self, v, dt):
        """lhs^{-1} (2 - lhs) v = 2 lhs^{-1} v - v."""
        x = self._cn(dt).solve(v)
        x *= 2.0
        x -= v
        return x

    def _factor(self, power, theta):
        """exp(i theta power), formed as cos + i sin (real ufuncs, about
        twice as fast as complex exp)."""
        a = power * theta
        z = np.empty(a.shape, dtype=complex)
        np.cos(a, out=z.real)
        np.sin(a, out=z.imag)
        return z

    def _phase(self, v, theta):
        """v exp(i theta |v|^{p-1})."""
        z = self._factor(np.abs(v) ** (self.p - 1), theta)
        z *= v
        return z

    def step_values(self, u, dt, *, factor=None):
        """One whole step of the n + 1 node values ``u``.

        Returns (values, factor, power): the closing half phase's factor
        exp(i theta |v|^{p-1}) and |v|^{p-1}, both on the rows of v, the
        state before that phase.  The phase keeps |v|, so up to roundoff
        that factor is the opening half phase's of a next step at the same
        dt, which takes it as ``factor`` instead of forming it.
        """
        g = self._gammas
        v = self.grid.rows(u)
        v = v * factor if factor is not None else self._phase(v, g[0] / 2 * dt)
        v = self._linear(v, g[0] * dt)
        for inner, gamma in zip(self._inner, g[1:]):
            v = self._linear(self._phase(v, inner * dt), gamma * dt)
        power = np.abs(v) ** (self.p - 1)
        factor = self._factor(power, g[-1] / 2 * dt)
        return self.grid.extend(factor * v), factor, power

    def node_power(self, values, power):
        """A step's ``power`` on all n + 1 nodes, as ``diagnostics`` takes
        it: a slaved node 0 from the step's ``values``."""
        nodes = np.zeros(self.grid.n + 1)
        self.grid.rows(nodes)[:] = power
        if self.grid.first:
            nodes[0] = abs(values[0]) ** (self.p - 1)
        return nodes


def diagnostics(u: Field, t: float, p: float,
                reference: GroundProfile | None = None, power=None) -> dict:
    """All scalar diagnostics of a state; reference-dependent entries are
    NaN when no ground profile is attached.

    ``power`` is |u|^{p-1} on the nodes when the caller has it (an evolved
    sample's, from the step that returned u); the potential then forms
    |u|^{p+1} as |u|^2 |u|^{p-1}.  The gradient of u - e^{it} Q for
    ``dist_q`` is grad u - e^{it} grad Q, with grad Q cached on the
    reference.  The keys are ``SERIES_COLUMNS``.
    """
    grid = u.grid
    du = gradient_values(grid, u.values)
    obs = Observables.integrate(grid.w, np.abs(u.values), du, p, power=power)

    out = dict(t=t, mass=obs.mass, energy=obs.energy, potential=obs.potential,
               grad=obs.grad, d=math.nan, me=math.nan, mg=math.nan, dist_q=math.nan)
    if reference is not None:
        out["d"] = abs(obs.grad - reference.obs.grad)
        out["me"], out["mg"] = reference.me_mg(obs)
        rot = np.exp(1j * t)
        diff = Field(grid, u.values - rot * reference.Q.values.real)
        out["dist_q"] = h1_norm(diff, du - rot * reference.grad_q)
    return out


class RunRules:
    """The per-sample rules of a run, which keeps its series as columns.

    ``feed`` applies them in this order; NaN fails every check, the first
    sample meets only rule 1, and rules 4, 5 and the zone need a reference Q.
    1. A non-finite mass or gradient raises ``InstabilityError``.
    2. With the sponge off, a mass drift over ``MASS_GUARD`` raises.
    3. dt halves, to no less than cfg.dt / DT_SHRINK, when ||grad u|| grew by
       ``ADAPT_TRIGGER`` since the last sample or is in the blow-up zone,
       ||grad u|| >= 3 ||grad Q||.
    4. Blow-up stop: in the zone at the dt floor, log ||grad u|| convex
       over the last three samples.
    5. Scatter stop: ``scatters`` has held since elapsed |t - t0| = s, and
       elapsed >= ``SCATTER_HOLD`` s.
    """

    def __init__(self, cfg: EvolverConfig, reference: GroundProfile | None = None):
        self.cfg = cfg
        self.ref = None if reference is None else reference.obs
        self.cols = {c: [] for c in SERIES_COLUMNS}
        self.dt_final = cfg.dt
        self.stop_reason = "t_end"
        self.scatter_since = None       # elapsed |t - t0| from which Scatter held

    def feed(self, row: dict, dt: float, elapsed: float) -> float | None:
        """Keep a ``diagnostics`` row, sampled at elapsed |t - t0| after a
        step of ``dt``; the next step's dt, or None once the run stops."""
        if not (math.isfinite(row["mass"]) and math.isfinite(row["grad"])):
            raise InstabilityError(f"the state is not finite at t = {row['t']:.6g}")
        for c, col in self.cols.items():
            col.append(row[c])
        mass, grad, ref = self.cols["mass"], self.cols["grad"], self.ref
        if len(grad) == 1:
            return dt
        if not self.cfg.sponge and mass[0] > 0 and abs(mass[-1] / mass[0] - 1.0) > MASS_GUARD:
            raise InstabilityError(f"mass drifted by {abs(mass[-1] / mass[0] - 1):.2e} "
                                   f"with the sponge off")
        dt_min = self.cfg.dt / DT_SHRINK
        zone = ref is not None and grad[-1] >= 3.0 * ref.grad
        if (grad[-1] > ADAPT_TRIGGER * grad[-2] or zone) and abs(dt) > dt_min:
            dt = math.copysign(max(abs(dt) / 2.0, dt_min), dt)
            self.dt_final = abs(dt)
        if zone and abs(dt) <= dt_min * (1 + 1e-9) and len(grad) >= 3:
            lg = [math.log(max(g, 1e-300)) for g in grad[-3:]]
            if lg[2] - 2 * lg[1] + lg[0] > 0:
                self.stop_reason = "blowup"
                return None
        if ref is None or not self.scatters(self.cols["potential"], ref.potential):
            self.scatter_since = None
            return dt
        if self.scatter_since is None:
            self.scatter_since = elapsed
        if elapsed >= SCATTER_HOLD * self.scatter_since:
            self.stop_reason = "scatter"
            return None
        return dt

    def series(self, t_stop: float) -> TimeSeries:
        meta = {"dt_final": self.dt_final, "stop_reason": self.stop_reason,
                "t_stop": t_stop}
        return TimeSeries(meta=meta, **{c: np.array(v) for c, v in self.cols.items()})

    @staticmethod
    def scatters(potential, potential_q: float) -> bool:
        """The Scatter test on a potential series P(u) = int |u|^{p+1}, the
        one rule of ``classify_run`` and the scatter stop: the last value
        is below ``SCATTER_POTENTIAL`` P(Q), and over the last quarter of
        the samples the series decays, net and with no uptick above 5% of
        the quarter's first value (dispersing fields carry small
        boundary-layer ripples)."""
        if not potential[-1] < SCATTER_POTENTIAL * potential_q:
            return False
        tail = np.asarray(potential[-max(len(potential) // 4, 2):])
        return bool(np.all(np.diff(tail) <= 0.05 * max(tail[0], 1e-300))
                    and tail[-1] <= tail[0] * (1 - 1e-3))


def evolve(u0: Field, t0: float, cfg: EvolverConfig, p: float,
           reference: GroundProfile | None = None, sink=None):
    """Integrate from t0 towards cfg.t_end (either direction).

    Samples diagnostics every ``sample_every`` steps into ``RunRules``,
    which sets the next dt, may stop the run and writes the series'
    ``meta``.  Every step closes and hands its phase factor on to a next
    step at the same dt; a sample takes the step's power
    (``Evolver.step_values``).

    Snapshots stream: ``sink(t, values)`` receives the n + 1 node values
    at t0, at every ``snapshot_every``-th sample (if nonzero) and at the
    final time, as it takes them, and nothing here keeps them (the
    command's sink archives each one at once, ``cli._snapshot_sink``).
    The arrays are never modified afterwards, so a sink may hold on to
    them.  Without a sink no snapshot is taken.  Returns (TimeSeries,
    Field): the series and the final state.  A clock that the smallest dt
    cannot advance is an ``InvalidParameterError``.
    """
    T = max(abs(t0), abs(cfg.t_end))
    if T + cfg.dt / DT_SHRINK == T:
        raise InvalidParameterError(f"t0 = {t0} and t_end = {cfg.t_end}: the clock cannot "
                                    f"advance by the smallest dt, {cfg.dt / DT_SHRINK}")
    grid = u0.grid
    ev = Evolver(grid, p, cfg)
    rules = RunRules(cfg, reference)
    direction = 1.0 if cfg.t_end >= t0 else -1.0
    u = u0.values.copy()
    t = t0
    t_snap = None

    def snapshot():
        nonlocal t_snap
        if sink is not None:
            sink(t, u)
            t_snap = t

    def sample(dt, power=None):
        return rules.feed(diagnostics(Field(grid, u), t, p, reference, power),
                          dt, abs(t - t0))

    dt = sample(cfg.dt * direction)
    snapshot()
    step_count = 0

    last_dt = closing = None    # the previous step's dt and closing factor
    while (cfg.t_end - t) * direction > 1e-12:
        if (cfg.t_end - t) * direction < abs(dt) * (1 - 1e-9):
            dt = (cfg.t_end - t)
        u, closing, power = ev.step_values(u, dt, factor=closing if dt == last_dt else None)
        last_dt = dt
        t += dt
        step_count += 1
        if step_count % cfg.sample_every == 0 or (cfg.t_end - t) * direction <= 1e-12:
            dt = sample(dt, ev.node_power(u, power))
            if dt is None:
                break
            if cfg.snapshot_every and (len(rules.cols["t"]) - 1) % cfg.snapshot_every == 0:
                snapshot()

    if t_snap != t:
        snapshot()
    return rules.series(t), Field(grid, u)


def classify_run(series: TimeSeries, gp: GroundProfile) -> Verdict:
    """Blow-up / scatter / converge-to-Q trichotomy on a series that
    ``evolve`` ran with ``reference=gp``; the thresholds scale with
    ||grad Q||, P(Q) and ||Q||_{H1} = ||Q|| + ||grad Q|| of ``gp.obs``.
    It reads the series columns and the stop fields ``stop_reason`` and
    ``t_stop`` of ``meta``, no other key, so a series read back from its
    file with those two fields gives the verdict of the run.

    BlowUp: the run ended on the blow-up stop of ``RunRules``
    (``stop_reason == "blowup"``), and ``t_star`` is where it stopped.
    Scatter: ``RunRules.scatters`` holds on the ``potential`` column, the
    decay of P(u) = int |u|^{p+1} being what scattering means.  It reads
    no L_inf: once outgoing radiation reaches the absorbing layer, the
    maximum over the nodes can rise while the potential decays.
    ConvergeToQ: the distance ``dist_q`` = ||u - e^{it} Q||_{H1}, which is
    not modulation-aligned, stayed in the window and fits an exponential
    with nonpositive rate (within fit noise).
    """
    meta, ref = series.meta, gp.obs
    ref_h1 = math.sqrt(ref.mass) + ref.grad

    if meta["stop_reason"] == "blowup":
        return Verdict("BlowUp", t_star=meta["t_stop"],
                       evidence={"grad_max": float(np.max(series.grad))})

    dist = series.dist_q
    near_q = (np.all(np.isfinite(dist)) and np.max(series.d) <= 0.5 * ref.grad
              and np.max(dist) <= 0.5 * ref_h1)
    if near_q:
        half = series.t.size // 2
        tt, dd = series.t[half:], np.maximum(dist[half:], 1e-300)
        if tt.size >= 3:
            coef, cov = np.polyfit(tt, np.log(dd), 1, cov=True)
            rate = float(coef[0])
            noise = 2.0 * math.sqrt(max(float(cov[0, 0]), 0.0))
            direction = 1.0 if series.t[-1] >= series.t[0] else -1.0
            # a trajectory pinned to the standing wave at the numerical
            # floor is converged regardless of the noise-level slope sign
            floor_pinned = np.max(dist) <= 1e-3 * ref_h1
            if direction * rate <= noise or floor_pinned:
                return Verdict("ConvergeToQ", rate=rate,
                               evidence={"dist_final": float(dist[-1]),
                                         "fit_noise": noise})

    pot = series.potential
    if RunRules.scatters(pot, ref.potential):
        return Verdict("Scatter",
                       evidence={"potential_ratio": float(pot[-1] / ref.potential)})
    return Verdict("Undecided", evidence={"grad_final": float(series.grad[-1])})
