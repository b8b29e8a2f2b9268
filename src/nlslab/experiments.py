"""End-to-end threshold experiments.

``synthesize_UA`` places initial data on the stable manifold proxy,
u(t0) = e^{i t0}(Q + V_k^A(t0)) with t0 = -ln(delta)/e0, so that the
forward flow approaches the standing wave at rate e0 while the backward
flow leaves the threshold neighbourhood: gradient above ||grad Q||
(A > 0) ends in finite-time blow-up, below it (A < 0) in dispersion.

``threshold_sweep`` probes the mass-energy threshold manifold
M = M(Q), E = E(Q) with shape-perturbed matched data, classifying each
member by the sign of MG - 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .approx import ApproxSolution, eval_V
from .errors import InvalidParameterError, NewtonFailureError, ValidityError
from .evolve import EvolverConfig, TimeSeries, Verdict, classify_run, evolve
from .grid import Field
from .ground import GroundProfile, observables
from .linearized import SpectrumData
from .modulation import aligned_distance
from .parallel import pmap

__all__ = [
    "SpecialRunSpec",
    "ThresholdReport",
    "synthesize_UA",
    "run_special",
    "threshold_sweep",
    "threshold_family",
    "match_mass_energy",
]


@dataclass(frozen=True)
class SpecialRunSpec:
    """Parameters of one special-solution run.

    delta fixes t0 = -ln(delta)/e0 (so ||V_1(t0)|| ~ delta).
    """

    A: float = 1.0
    k: int = 3
    delta: float = 0.1
    cfg: EvolverConfig = field(default_factory=lambda: EvolverConfig(dt=1e-4))

    def __post_init__(self):
        if not (0 < self.delta <= 0.2):
            raise InvalidParameterError("delta must lie in (0, 0.2]")


@dataclass
class ThresholdReport:
    A: float
    k: int
    delta: float
    t0: float
    mass: float
    energy: float
    me: float
    mg: float
    d0_sign: int
    forward_rate: float
    backward_verdict: Verdict
    mass_mismatch: float
    energy_mismatch: float
    forward_series: TimeSeries
    backward_series: TimeSeries
    initial: Field                  # the synthesized u(t0) both legs start from


def synthesize_UA(spec: SpecialRunSpec, approx: ApproxSolution,
                  gp: GroundProfile) -> tuple[Field, float]:
    """Initial data u(t0) = e^{i t0} (Q + V_k^A(t0)); returns (field, t0)."""
    if approx.A != spec.A or approx.k != spec.k:
        raise InvalidParameterError(
            f"approximate solution was built for (A={approx.A}, k={approx.k}), "
            f"spec wants (A={spec.A}, k={spec.k})")
    t0 = -math.log(spec.delta) / approx.e0
    if t0 < approx.t_min:
        raise ValidityError(
            f"t0 = {t0:.4f} sits below the validity window t_min = "
            f"{approx.t_min:.4f}; decrease delta")
    vals = (gp.Q.values + eval_V(approx, t0)) * np.exp(1j * t0)
    return Field(gp.grid, vals), t0


def _fit_rate(times, dists):
    times = np.asarray(times)
    dists = np.maximum(np.asarray(dists), 1e-300)
    return float(np.polyfit(times, np.log(dists), 1)[0])


def run_special(spec: SpecialRunSpec, approx: ApproxSolution,
                gp: GroundProfile, spectrum: SpectrumData) -> ThresholdReport:
    """Forward rate fit plus backward classification for one amplitude A.

    The forward leg runs sponge-off (conservation transfers to the report);
    the backward leg runs from t0 down to t0 - t_back, t_back = t0 + 5,
    with the absorbing layer on so dispersing mass leaves the domain cleanly.
    """
    u0, t0 = synthesize_UA(spec, approx, gp)
    e0 = spectrum.e0
    obs, ref = observables(u0, gp.p), gp.obs
    me, mg = gp.me_mg(obs)
    d0_sign = int(math.copysign(1.0, obs.grad - ref.grad))

    span = 3.0 / e0
    fwd_cfg = replace(spec.cfg, sponge=False, t_end=t0 + span,
                      snapshot_every=max(1, int(round(
                          0.05 / (e0 * spec.cfg.dt * spec.cfg.sample_every)))))
    fseries, fsnaps = evolve(u0, t0, fwd_cfg, gp.p, reference=gp)
    # fit over the first 2/3 of the window, where the synthesis floor
    # (order delta^{k+1}) has not yet been amplified into the signal
    tcut = t0 + 2.0 * span / 3.0
    ts, ds = [], []
    for t, fld in fsnaps:
        if t <= tcut + 1e-12:
            ts.append(t)
            ds.append(aligned_distance(fld, t, gp))
    forward_rate = _fit_rate(ts, ds)

    t_back = t0 + 5.0
    bwd_cfg = replace(spec.cfg, sponge=True, t_end=t0 - t_back)
    bseries, _ = evolve(u0, t0, bwd_cfg, gp.p, reference=gp)
    verdict = classify_run(bseries)

    return ThresholdReport(
        A=spec.A, k=spec.k, delta=spec.delta, t0=t0,
        mass=obs.mass, energy=obs.energy, me=me, mg=mg, d0_sign=d0_sign,
        forward_rate=forward_rate, backward_verdict=verdict,
        mass_mismatch=abs(obs.mass / ref.mass - 1.0),
        energy_mismatch=abs((obs.energy - ref.energy) / ref.energy),
        forward_series=fseries, backward_series=bseries, initial=u0,
    )


def threshold_family(gp: GroundProfile, eps_list=(-0.1, 0.1)):
    """Labeled threshold data: Q itself plus shape-perturbed seeds matched
    exactly to (M(Q), E(Q)).

    Pure rescalings a Q(b r) cannot reach ME = 1 with MG != 1 -- ME and MG
    are both invariant along the scaling orbit, which is exactly the ME = 1
    curve through Q -- so the members are built from the genuinely deformed
    seeds Q + eps Q(0) e^{-r^2} and then Newton-matched to the threshold
    manifold.  Each member returns with its measured MG.
    """
    grid = gp.grid
    out = [("Q", Field(grid, gp.Q.values.copy()), 1.0)]
    for eps in eps_list:
        seed = Field(grid, gp.Q.values + eps * gp.q0 * np.exp(-grid.r**2))
        fld = match_mass_energy(gp, seed)
        _, mg = gp.me_mg(observables(fld, gp.p))
        out.append((f"eps={eps:+g}", fld, mg))
    return out


def match_mass_energy(gp: GroundProfile, seed: Field,
                      tol: float = 1e-11, max_iter: int = 40) -> Field:
    """Rescale a seed to (M, E) = (M(Q), E(Q)) exactly: Newton on a u0(b r).

    Used to place virial test data exactly on the threshold manifold.
    """
    grid = gp.grid
    mass_q, energy_q = gp.obs.mass, gp.obs.energy

    def rescaled(a, b):
        fld = Field(grid, a * np.interp(grid.r * b, grid.r, seed.values, right=0.0))
        obs = observables(fld, gp.p)
        return fld, obs.mass, obs.energy

    a, b = 1.0, 1.0
    for _ in range(max_iter):
        fld, M, E = rescaled(a, b)
        f1 = M / mass_q - 1.0
        f2 = E / energy_q - 1.0
        if abs(f1) < tol and abs(f2) < tol:
            return fld
        eps = 1e-7
        _, M_a, E_a = rescaled(a + eps, b)
        _, M_b, E_b = rescaled(a, b + eps)
        J = np.array([[(M_a - M) / eps / mass_q, (M_b - M) / eps / mass_q],
                      [(E_a - E) / eps / energy_q, (E_b - E) / eps / energy_q]])
        try:
            da, db = np.linalg.solve(J, [-f1, -f2])
        except np.linalg.LinAlgError as exc:
            raise NewtonFailureError(f"singular Jacobian in (a, b) match: {exc}")
        a += float(da)
        b += float(db)
    raise NewtonFailureError("mass/energy matching did not converge")


def threshold_sweep(family, cfg: EvolverConfig, gp: GroundProfile):
    """Run each (label, field) datum in both time directions and classify.

    The 2 x len(family) runs are independent and go to forked workers
    (``parallel.pmap``), which return their ``Verdict``s.  Returns a list
    of dicts {label, me, mg, verdict_forward, verdict_backward}, merged
    deterministically in label order.
    """
    data = sorted(family, key=lambda kv: kv[0])
    runs = [(fld, sign * abs(cfg.t_end)) for _, fld in data for sign in (1.0, -1.0)]
    verdicts = pmap(lambda run: classify_run(evolve(
        run[0], 0.0, replace(cfg, t_end=run[1]), gp.p, reference=gp)[0]), runs)
    out = []
    for i, (label, fld) in enumerate(data):
        me, mg = gp.me_mg(observables(fld, gp.p))
        out.append({"label": label, "me": me, "mg": mg,
                    "verdict_forward": verdicts[2 * i],
                    "verdict_backward": verdicts[2 * i + 1]})
    return out
