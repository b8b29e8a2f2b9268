"""End-to-end threshold experiments.

``synthesize_UA`` places initial data on the stable manifold proxy,
u(t0) = e^{i t0}(Q + V_k^A(t0)) with t0 = -ln(delta)/e0, so that the
forward flow approaches the standing wave at rate e0 while the backward
flow leaves the threshold neighbourhood: gradient above ||grad Q||
(A > 0) ends in finite-time blow-up, below it (A < 0) in dispersion.
A, k, e0 and the ground profile of a run all come from its
``ApproxSolution``.

``threshold_sweep`` probes the mass-energy threshold manifold
M = M(Q), E = E(Q) with shape-perturbed matched data, classifying each
member by the sign of MG - 1.  The members are real, so each runs forward
only: its backward run is the time reversal u(t) -> conj(u(-t)) of the
forward one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .approx import ApproxSolution, eval_V
from .errors import InvalidParameterError, NewtonFailureError, ValidityError
from .evolve import EvolverConfig, TimeSeries, Verdict, classify_run, evolve
from .grid import Field
from .ground import GroundProfile, observables
from .modulation import aligned_distance

__all__ = [
    "ThresholdReport",
    "synthesize_UA",
    "run_special",
    "threshold_sweep",
    "threshold_family",
    "match_mass_energy",
]

MATCH_TOL = 1e-11        # relative mass and energy mismatch the matching reaches
MATCH_MAX_ITER = 40      # cap on the matching's Newton steps


@dataclass
class ThresholdReport:
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


def synthesize_UA(approx: ApproxSolution, delta: float) -> tuple[Field, float]:
    """Initial data u(t0) = e^{i t0} (Q + V_k^A(t0)) with t0 = -ln(delta)/e0,
    so ||V_1(t0)|| ~ delta; returns (field, t0)."""
    t0 = -math.log(delta) / approx.e0
    if t0 < approx.t_min:
        raise ValidityError(
            f"t0 = {t0:.4f} sits below the validity window t_min = "
            f"{approx.t_min:.4f}; decrease delta")
    gp = approx.ops.gp
    vals = (gp.Q.values + eval_V(approx, t0)) * np.exp(1j * t0)
    return Field(gp.grid, vals), t0


def _fit_rate(times, dists):
    times = np.asarray(times)
    dists = np.maximum(np.asarray(dists), 1e-300)
    return float(np.polyfit(times, np.log(dists), 1)[0])


def run_special(approx: ApproxSolution, delta: float,
                cfg: EvolverConfig) -> ThresholdReport:
    """Forward rate fit plus backward classification of V_k^A's datum.

    Each leg runs ``cfg`` with its own t_end and sponge.  The forward leg
    runs sponge-off (conservation transfers to the report) and takes a
    snapshot every 0.05/e0; its sink computes each snapshot's aligned
    distance as it comes.  The backward leg takes no snapshot and runs
    from t0 towards t0 - t_back, t_back = t0 + 5 (t = -5), with the
    absorbing layer on so dispersing mass leaves the domain cleanly; like
    every run with a reference it ends at a decided verdict, the blow-up
    or the scatter stop of ``evolve``, and ``backward_series.t[-1]`` is
    the time it reached.
    """
    u0, t0 = synthesize_UA(approx, delta)
    gp, e0 = approx.ops.gp, approx.e0
    obs, ref = observables(u0, gp.p), gp.obs
    me, mg = gp.me_mg(obs)
    d0_sign = int(math.copysign(1.0, obs.grad - ref.grad))

    span = 3.0 / e0
    fwd_cfg = replace(cfg, sponge=False, t_end=t0 + span,
                      snapshot_every=max(1, int(round(
                          0.05 / (e0 * cfg.dt * cfg.sample_every)))))
    # fit over the first 2/3 of the window, where the synthesis floor
    # (order delta^{k+1}) has not yet been amplified into the signal
    tcut = t0 + 2.0 * span / 3.0
    ts, ds = [], []

    def fit_sink(t, values):
        if t <= tcut + 1e-12:
            ts.append(t)
            ds.append(aligned_distance(Field(gp.grid, values), t, gp))

    fseries, _ = evolve(u0, t0, fwd_cfg, gp.p, reference=gp, sink=fit_sink)
    forward_rate = _fit_rate(ts, ds)

    t_back = t0 + 5.0
    bwd_cfg = replace(cfg, sponge=True, t_end=t0 - t_back)
    bseries, _ = evolve(u0, t0, bwd_cfg, gp.p, reference=gp)
    verdict = classify_run(bseries, gp)

    return ThresholdReport(
        t0=t0, mass=obs.mass, energy=obs.energy, me=me, mg=mg, d0_sign=d0_sign,
        forward_rate=forward_rate, backward_verdict=verdict,
        mass_mismatch=abs(obs.mass / ref.mass - 1.0),
        energy_mismatch=abs((obs.energy - ref.energy) / ref.energy),
        forward_series=fseries, backward_series=bseries, initial=u0,
    )


def threshold_family(gp: GroundProfile, eps_list):
    """Labeled threshold data: Q itself plus shape-perturbed seeds matched
    exactly to (M(Q), E(Q)).

    Pure rescalings a Q(b r) cannot reach ME = 1 with MG != 1 -- ME and MG
    are both invariant along the scaling orbit, which is exactly the ME = 1
    curve through Q -- so the members are built from the genuinely deformed
    seeds Q + eps Q_h(0) e^{-r^2}, one per eps of ``eps_list``, and then
    Newton-matched to the threshold manifold.  Returns (label, field)
    pairs, the input of ``threshold_sweep``.
    """
    grid = gp.grid
    q0 = float(gp.Q.values[0].real)
    out = [("Q", Field(grid, gp.Q.values.copy()))]
    for eps in eps_list:
        seed = Field(grid, gp.Q.values + eps * q0 * np.exp(-grid.r**2))
        out.append((f"eps={eps:+g}", match_mass_energy(gp, seed)))
    return out


def match_mass_energy(gp: GroundProfile, seed: Field) -> Field:
    """Rescale a seed to (M, E) = (M(Q), E(Q)) exactly: Newton on a u0(b r),
    to ``MATCH_TOL`` in both, in at most ``MATCH_MAX_ITER`` steps.

    Used to place virial test data exactly on the threshold manifold.
    """
    grid = gp.grid
    mass_q, energy_q = gp.obs.mass, gp.obs.energy

    def rescaled(a, b):
        fld = Field(grid, a * np.interp(grid.r * b, grid.r, seed.values, right=0.0))
        obs = observables(fld, gp.p)
        return fld, obs.mass, obs.energy

    a, b = 1.0, 1.0
    for _ in range(MATCH_MAX_ITER):
        fld, M, E = rescaled(a, b)
        f1 = M / mass_q - 1.0
        f2 = E / energy_q - 1.0
        if abs(f1) < MATCH_TOL and abs(f2) < MATCH_TOL:
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
    """Run each real (label, field) datum forward once and classify it in
    both time directions.

    u(t) -> conj(u(-t)) maps solutions to solutions, in the scheme as in
    NLS, so the backward run of a real datum is the mirror of its forward
    run and its verdict is ``classify_run`` of ``TimeSeries.time_reversed``.
    A datum with a nonzero imaginary part raises ``InvalidParameterError``
    before any run.  The runs take no snapshot and go in label order,
    in-process.  Returns a list of dicts {label, me, mg, verdict_forward,
    verdict_backward} in that order.
    """
    data = sorted(family, key=lambda kv: kv[0])
    for label, fld in data:
        if np.any(fld.values.imag):
            raise InvalidParameterError(
                f"sweep datum {label} is not real; the backward verdict "
                f"mirrors the forward run only for a real datum")
    fwd_cfg = replace(cfg, t_end=abs(cfg.t_end))
    out = []
    for label, fld in data:
        series, _ = evolve(fld, 0.0, fwd_cfg, gp.p, reference=gp)
        me, mg = gp.me_mg(observables(fld, gp.p))
        out.append({"label": label, "me": me, "mg": mg,
                    "verdict_forward": classify_run(series, gp),
                    "verdict_backward": classify_run(series.time_reversed(), gp)})
    return out
