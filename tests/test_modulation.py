import math

import numpy as np
import pytest

from nlslab.errors import OutOfWindowError
from nlslab.evolve import EvolverConfig
from nlslab.grid import Field, h1_norm
from nlslab.modulation import aligned_distance, fit_parameters, track
from oracles import evolve_snapshots, track_ratios


def test_pure_standing_wave(gp33):
    u = Field(gp33.grid, np.exp(1j * 1.3) * gp33.Q.values)
    frame = fit_parameters(u, 1.3, gp33)
    assert frame.theta == pytest.approx(0.0, abs=1e-12)
    assert frame.alpha == pytest.approx(0.0, abs=1e-12)
    assert h1_norm(frame.h) <= 1e-10


def test_exact_phase_recovery(gp33):
    t = 0.9
    u = Field(gp33.grid, np.exp(1j * (t + 0.3)) * gp33.Q.values)
    frame = fit_parameters(u, t, gp33)
    assert frame.theta == pytest.approx(0.3, abs=1e-10)
    assert frame.alpha == pytest.approx(0.0, abs=1e-12)


def test_linear_perturbation_projection(gp33, spec33):
    """u = e^{it}(Q + eps Y1): alpha and h follow from the Q^p projection."""
    eps = 0.01
    t = 0.2
    q = gp33.Q.values.real
    y1 = spec33.Y1.values.real
    u = Field(gp33.grid, np.exp(1j * t) * (q + eps * y1))
    frame = fit_parameters(u, t, gp33)
    qp_y1 = float(np.dot(gp33.grid.w, q**gp33.p * y1))
    qp1 = float(np.dot(gp33.grid.w, q ** (gp33.p + 1)))
    alpha_expect = eps * qp_y1 / qp1
    assert frame.alpha == pytest.approx(alpha_expect, abs=1e-8)
    h_expect = eps * (y1 - (qp_y1 / qp1) * q)
    assert np.max(np.abs(frame.h.values - h_expect)) <= 1e-8


def test_gauge_consistency(gp33, rng):
    t = 0.4
    q = gp33.Q.values.real
    pert = 0.02 * np.exp(-gp33.grid.r**2) * (1 + 0.5j)
    u = Field(gp33.grid, np.exp(1j * t) * (q + pert))
    f0 = fit_parameters(u, t, gp33)
    phi = 0.8
    u_rot = Field(gp33.grid, np.exp(1j * phi) * u.values)
    f1 = fit_parameters(u_rot, t, gp33)
    assert math.remainder(f1.theta - f0.theta - phi, 2 * math.pi) == \
        pytest.approx(0.0, abs=1e-10)
    assert f1.alpha == pytest.approx(f0.alpha, abs=1e-12)
    assert np.max(np.abs(f1.h.values - f0.h.values)) <= 1e-10


def test_constraint_residuals(gp33, spec33):
    u = Field(gp33.grid,
              np.exp(0.3j) * (gp33.Q.values + 0.02 * spec33.y_plus_values()))
    frame = fit_parameters(u, 0.0, gp33)
    assert frame.res_iq <= 1e-10
    assert frame.res_qp <= 1e-10


def test_window_rejection(gp33):
    u = Field(gp33.grid, 3.0 * gp33.Q.values)
    with pytest.raises(OutOfWindowError):
        fit_parameters(u, 0.0, gp33)


def test_track_ratio_corridor(gp33, spec33):
    """Snapshots of u0 = Q + 0.01 Y1 over [0, 1]: |alpha|/d and
    ||h||_{H1}/d stay in the factor-3 corridor."""
    u0 = Field(gp33.grid, gp33.Q.values + 0.01 * spec33.Y1.values.real)
    cfg = EvolverConfig(dt=2e-4, t_end=1.0, sample_every=25, snapshot_every=4,
                        order=4)
    _, snaps = evolve_snapshots(u0, 0.0, cfg, gp33.p, reference=gp33)
    frames = list(track(snaps, gp33))
    ratios = track_ratios(frames, gp33)
    valid = [i for i, f in enumerate(frames) if f is not None and f.d > 1e-9]
    assert len(valid) > 20
    # alpha is dimensionless, d carries the ||grad Q|| scale: the O(1)
    # equivalence corridor holds for the gradient-relative channel
    for i in valid:
        assert 1.0 / 3.0 <= ratios["alpha_over_drel"][i] <= 3.0
        assert 1.0 / 3.0 <= ratios["h_over_d"][i] <= 3.0


def test_theta_drift_bounded_by_d(gp33, spec33):
    """|theta'(t)| <~ d(t) along a slightly perturbed run."""
    u0 = Field(gp33.grid, gp33.Q.values + 0.01 * spec33.Y1.values.real)
    cfg = EvolverConfig(dt=2e-4, t_end=1.0, sample_every=25, snapshot_every=2,
                        order=4)
    _, snaps = evolve_snapshots(u0, 0.0, cfg, gp33.p, reference=gp33)
    frames = list(track(snaps, gp33))
    frames = [f for f in frames if f is not None]
    ts = np.array([f.t for f in frames])
    th = np.unwrap(np.array([f.theta for f in frames]))
    dmax = max(f.d for f in frames)
    slopes = np.abs(np.diff(th) / np.diff(ts))
    # constant fitted once: stays O(1) under refinement (checked in the
    # acceptance suite); here the bound itself
    assert np.max(slopes) <= 10.0 * dmax


@pytest.mark.parametrize("j", [1.0, 2.0, 3.0])
def test_track_keeps_the_branch_across_a_phase_jump(gp33, j):
    """A jump of the phase by j between two frames: the fit stays on the
    1 + alpha > 0 root, so alpha is unchanged and theta follows the jump."""
    u = Field(gp33.grid, gp33.Q.values + 0.02 * np.exp(-gp33.grid.r**2))
    jumped = Field(gp33.grid, np.exp(1j * (0.1 + j)) * u.values)
    first, second = track([(0.0, u), (0.1, jumped)], gp33)
    assert first.alpha > 0
    assert second.alpha == pytest.approx(first.alpha, abs=1e-12)
    assert second.theta == pytest.approx(j, abs=1e-12)


def test_aligned_distance_far_field_fallback(gp33):
    u = Field(gp33.grid, 0.1 * gp33.Q.values)
    val = aligned_distance(u, 0.0, gp33)
    assert val > 0


def test_h_and_d_decay_rates_agree_on_special_run(gp33, spec33, ops33, sol33):
    """Forward special-solution run: the fitted decay rates of ||h||_{H1}
    and of d(t) agree within 15% (both close to e0)."""
    from nlslab.experiments import synthesize_UA
    u0, t0 = synthesize_UA(sol33, 0.1)
    e0 = spec33.e0
    cfg = EvolverConfig(dt=1e-4, t_end=t0 + 2.0 / e0, sample_every=20,
                        snapshot_every=2, order=4)
    _, snaps = evolve_snapshots(u0, t0, cfg, gp33.p, reference=gp33)
    frames = list(track(snaps, gp33))
    frames = [f for f in frames if f is not None]
    ts = np.array([f.t for f in frames])
    h_rate = np.polyfit(ts, np.log([max(f.h_norm, 1e-300) for f in frames]), 1)[0]
    d_rate = np.polyfit(ts, np.log([max(f.d, 1e-300) for f in frames]), 1)[0]
    assert abs(h_rate / d_rate - 1) <= 0.15
    assert h_rate == pytest.approx(-e0, rel=0.15)
