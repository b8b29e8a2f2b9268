import dataclasses
import importlib
import math

import numpy as np
import pytest

from nlslab import experiments
from nlslab.approx import build_Vk
from nlslab.errors import InvalidParameterError, ValidityError
from nlslab.evolve import SERIES_COLUMNS, EvolverConfig, classify_run, evolve
from nlslab.experiments import (match_mass_energy, run_special, synthesize_UA,
                                threshold_family, threshold_sweep)
from nlslab.grid import Field, gradient_values, h1_norm, make_grid
from nlslab.ground import observables, solve_ground
from nlslab.linearized import assemble, compute_spectrum


def test_synthesize_zero_amplitude(gp33, spec33, ops33):
    sol0 = build_Vk(0.0, 3, spec33, ops33)
    u0, t0 = synthesize_UA(sol0, 0.1)
    assert np.allclose(u0.values, np.exp(1j * t0) * gp33.Q.values, atol=1e-15)


def test_synthesis_leading_correction(gp33, spec33, sol33):
    """|| u(t0) - e^{it0}Q - A e^{-e0 t0 + i t0} Y+ ||_{H1} <= 2 delta^2
    (the quadratic profile dominates the remainder)."""
    delta = 0.1
    u0, t0 = synthesize_UA(sol33, delta)
    lead = np.exp(1j * t0) * (gp33.Q.values
                              + delta * spec33.y_plus_values())
    rem = Field(gp33.grid, u0.values - lead)
    assert h1_norm(rem) <= 2 * delta**2 * max(h1_norm(sol33.Z[2]), 1.0)


def test_gradient_sign_tracks_amplitude(gp33, spec33, ops33, sol33):
    u0p, _ = synthesize_UA(sol33, 0.1)
    solm = build_Vk(-1.0, 3, spec33, ops33)
    u0m, _ = synthesize_UA(solm, 0.1)
    grad2_q = gp33.obs.grad2
    for u0, sign in ((u0p, 1.0), (u0m, -1.0)):
        g2 = float(np.dot(gp33.grid.w,
                          np.abs(gradient_values(gp33.grid, u0.values)) ** 2))
        assert math.copysign(1.0, math.sqrt(g2) - math.sqrt(grad2_q)) == sign


def test_validity_window_guard(gp33, sol33):
    """t0 below t_min must be refused."""
    narrow = dataclasses.replace(sol33, t_min=5.0)
    with pytest.raises(ValidityError):
        synthesize_UA(narrow, 0.1)


def test_conservation_transfer(gp33, spec33, sol33):
    u0, _ = synthesize_UA(sol33, 0.1)
    mass_q, energy_q = gp33.obs.mass, gp33.obs.energy
    M = float(np.dot(gp33.grid.w, np.abs(u0.values) ** 2))
    assert abs(M / mass_q - 1) <= 0.1  # delta^2 * 10
    du = gradient_values(gp33.grid, u0.values)
    G = float(np.dot(gp33.grid.w, np.abs(du) ** 2))
    P = float(np.dot(gp33.grid.w, np.abs(u0.values) ** (gp33.p + 1)))
    E = 0.5 * G - P / (gp33.p + 1)
    assert abs((E - energy_q) / energy_q) <= 0.1


def test_run_special_both_amplitudes(gp33, spec33, ops33, sol33):
    cfg = EvolverConfig(dt=2e-4, sample_every=10)
    repp = run_special(sol33, 0.1, cfg)
    assert repp.d0_sign == 1
    assert abs(repp.forward_rate / (-spec33.e0) - 1) <= 0.10
    assert repp.backward_verdict.kind == "BlowUp"
    solm = build_Vk(-1.0, 3, spec33, ops33)
    repm = run_special(solm, 0.1, cfg)
    assert repm.d0_sign == -1
    assert abs(repm.forward_rate / (-spec33.e0) - 1) <= 0.10
    assert repm.backward_verdict.kind == "Scatter"
    for rep in (repp, repm):
        assert rep.mass_mismatch <= 0.1 and rep.energy_mismatch <= 0.1


@pytest.mark.parametrize("N, p", [(3, 4.0), (5, 2.2)])
def test_q_minus_scatters_where_linf_rises(N, p):
    """Q^- scatters in negative time at (3, 4) and (5, 2.2).  There the
    outgoing radiation reaches the absorbing layer and L_inf rises while
    the potential decays, so only a verdict read from the potential sees
    it."""
    gp = solve_ground(make_grid(N, 30.0, 1500), p)
    ops = assemble(gp)
    sol = build_Vk(-1.0, 3, compute_spectrum(ops), ops)
    rep = run_special(sol, 0.1, EvolverConfig(dt=2e-4, sample_every=10))
    assert rep.backward_verdict.kind == "Scatter"


def test_scatter_stop_is_a_prefix_of_the_full_horizon(spec33, ops33, monkeypatch):
    """Q^-'s backward leg stops on Scatter, and what it ran is bit for bit
    the start of the leg that runs to t = -5 with the stop held off."""
    sol = build_Vk(-1.0, 3, spec33, ops33)
    cfg = EvolverConfig(dt=1e-3, sample_every=10)
    stopped = run_special(sol, 0.1, cfg)
    monkeypatch.setattr(importlib.import_module("nlslab.evolve"),
                        "SCATTER_HOLD", math.inf)
    full = run_special(sol, 0.1, cfg)
    s, f = stopped.backward_series, full.backward_series
    assert (s.meta["stop_reason"], f.meta["stop_reason"]) == ("scatter", "t_end")
    assert s.meta["t_stop"] == s.t[-1] > f.t[-1] == f.meta["t_stop"]
    m = s.t.size
    assert m < f.t.size
    for col in SERIES_COLUMNS:
        assert np.array_equal(_bits(getattr(s, col)), _bits(getattr(f, col)[:m])), col
    assert np.array_equal(_bits(s.potential), _bits(f.potential[:m]))
    assert stopped.backward_verdict.kind == full.backward_verdict.kind == "Scatter"


def test_match_mass_energy(gp33):
    seed = Field(gp33.grid,
                 gp33.Q.values + 0.1 * gp33.Q.values[0].real * np.exp(-gp33.grid.r**2))
    matched = match_mass_energy(gp33, seed)
    mass_q, energy_q = gp33.obs.mass, gp33.obs.energy
    M = float(np.dot(gp33.grid.w, np.abs(matched.values) ** 2))
    du = gradient_values(gp33.grid, matched.values)
    G = float(np.dot(gp33.grid.w, np.abs(du) ** 2))
    P = float(np.dot(gp33.grid.w, np.abs(matched.values) ** (gp33.p + 1)))
    E = 0.5 * G - P / (gp33.p + 1)
    assert abs(M / mass_q - 1) <= 1e-10
    assert abs((E - energy_q) / energy_q) <= 1e-9


def test_threshold_family_brackets_mg(gp33):
    fam = threshold_family(gp33, (-0.1, 0.1))
    labels = {lab: gp33.me_mg(observables(fld, gp33.p))[1] for lab, fld in fam}
    assert labels["Q"] == 1.0
    assert labels["eps=-0.1"] < 1.0 < labels["eps=+0.1"]


def test_threshold_sweep_trichotomy(gp33):
    fam = threshold_family(gp33, (-0.1, 0.1))
    cfg = EvolverConfig(dt=2e-4, t_end=1.2, sample_every=10, sponge=True,
                        order=4)
    results = threshold_sweep(fam, cfg, gp33)
    by_label = {r["label"]: r for r in results}
    assert all(abs(r["me"] - 1.0) < 1e-6 for r in results)
    q = by_label["Q"]
    assert q["verdict_forward"].kind == "ConvergeToQ"
    assert q["verdict_backward"].kind == "ConvergeToQ"
    above = by_label["eps=+0.1"]
    assert above["mg"] > 1
    assert above["verdict_forward"].kind == "BlowUp"
    assert above["verdict_backward"].kind == "BlowUp"
    below = by_label["eps=-0.1"]
    assert below["mg"] < 1
    assert "BlowUp" not in (below["verdict_forward"].kind,
                            below["verdict_backward"].kind)
    # deterministic label order
    assert [r["label"] for r in results] == sorted(r["label"] for r in results)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def test_time_reversed_forward_run_is_the_backward_run(gp33):
    """For each real member, the mirror of the forward series is the series
    of a real backward run, bit for bit; the backward runs are the oracle."""
    cfg = EvolverConfig(dt=2e-3, t_end=1.2, sponge=True, order=4)
    kinds = set()
    for label, fld in threshold_family(gp33, (-0.1, 0.1)):
        fwd, _ = evolve(fld, 0.0, cfg, gp33.p, reference=gp33)
        bwd, _ = evolve(fld, 0.0, dataclasses.replace(cfg, t_end=-1.2), gp33.p,
                        reference=gp33)
        mirror = fwd.time_reversed()
        for col in SERIES_COLUMNS:
            assert np.array_equal(_bits(getattr(mirror, col)),
                                  _bits(getattr(bwd, col))), (label, col)
        assert np.array_equal(_bits(mirror.potential), _bits(bwd.potential)), label
        assert mirror.meta["stop_reason"] == bwd.meta["stop_reason"], label
        assert mirror.meta["t_stop"] == bwd.meta["t_stop"] == -fwd.meta["t_stop"], label
        verdict = classify_run(mirror, gp33)
        assert verdict == classify_run(bwd, gp33), label
        kinds.add(verdict.kind)
    assert kinds == {"ConvergeToQ", "Scatter", "BlowUp"}


def test_sweep_runs_each_member_once(gp33, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[2].t_end)
        return evolve(*args, **kwargs)

    monkeypatch.setattr(experiments, "evolve", counted)
    cfg = EvolverConfig(dt=2e-3, t_end=-0.02, sponge=True, order=4)
    results = threshold_sweep(threshold_family(gp33, (-0.1, 0.1)), cfg, gp33)
    assert [r["label"] for r in results] == ["Q", "eps=+0.1", "eps=-0.1"]
    assert calls == [0.02] * 3


def test_sweep_refuses_a_complex_datum(gp33, monkeypatch):
    monkeypatch.setattr(experiments, "evolve", None)     # no run may start
    fam = threshold_family(gp33, (0.1,))
    fam.append(("kicked", Field(gp33.grid, gp33.Q.values * np.exp(0.1j * gp33.grid.r))))
    with pytest.raises(InvalidParameterError, match="kicked"):
        threshold_sweep(fam, EvolverConfig(dt=2e-3, t_end=0.02), gp33)


def test_k_robustness_of_forward_rate(gp33, spec33, ops33):
    """Forward rate fits at k = 2 and k = 3 agree within 5%."""
    cfg = EvolverConfig(dt=2e-4, sample_every=10)
    rates = {}
    for k in (2, 3):
        sol = build_Vk(1.0, k, spec33, ops33)
        rep = run_special(sol, 0.1, cfg)
        rates[k] = rep.forward_rate
    assert abs(rates[2] / rates[3] - 1) <= 0.05


def test_time_shift_covariance(gp33, spec33, ops33, sol33):
    """A' = A e^{-e0 s} produces the time-shifted trajectory: evolving the
    A-datum forward by s lands on the A'-datum (up to the e^{is} phase and
    the synthesis/evolution error budget)."""
    e0 = spec33.e0
    s = 0.3 / e0
    delta = 0.1
    u_a, t0 = synthesize_UA(sol33, delta)
    a_shift = math.exp(-e0 * s)
    sol_shift = build_Vk(a_shift, 3, spec33, ops33)
    u_shift, t0_shift = synthesize_UA(sol_shift, delta)
    # V^{A'}(t) = V^A(t + s) exactly, so u_{A'}(t0) = e^{-is} u_A(t0 + s)
    cfg = EvolverConfig(dt=1e-4, t_end=t0 + s, sample_every=10, order=4)
    _, final = evolve(u_a, t0, cfg, gp33.p, reference=gp33)
    evolved = final.values
    target = np.exp(1j * s) * u_shift.values
    err = h1_norm(Field(gp33.grid, evolved - target))
    scale = h1_norm(Field(gp33.grid, u_shift.values))
    assert err / scale <= 2e-3  # synthesis floor delta^4 + splitting error
