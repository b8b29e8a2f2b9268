import math

import numpy as np
import pytest

from nlslab.errors import InstabilityError, InvalidParameterError
from nlslab.evolve import (Evolver, EvolverConfig, classify_run, diagnostics,
                           evolve, step, variance, variance_rate)
from nlslab.grid import Field, integrate, make_grid
from nlslab.ground import solve_ground

# the small-e0 pair used for long standing-wave runs: at (3,3) the
# e0 ~ 5.5 instability amplifies the splitting noise by e^{e0 t}
GENTLE = dict(N=1, p=5.2)


@pytest.fixture(scope="module")
def gentle():
    g = make_grid(1, 30.0, 1500)
    return solve_ground(g, 5.2)


def standing_wave(gp):
    return Field(gp.grid, gp.Q.values.copy())


def test_config_validation():
    with pytest.raises(InvalidParameterError):
        EvolverConfig(dt=-1e-3)
    with pytest.raises(InvalidParameterError):
        EvolverConfig(dt=1e-3, dt_min=2e-3)
    with pytest.raises(InvalidParameterError):
        EvolverConfig(order=3)
    for bad in ({"dt": math.nan}, {"dt": math.inf}, {"t_end": math.nan},
                {"t_end": math.inf}, {"sponge_strength": math.nan},
                {"dt_min": -1.0}, {"dt_min": math.nan}, {"sample_every": 0},
                {"snapshot_every": -1}):
        with pytest.raises(InvalidParameterError):
            EvolverConfig(**bad)


def test_linear_step_is_unitary(gentle):
    """Crank-Nicolson without nonlinearity conserves the discrete mass to
    roundoff (exact detailed balance of the stencil)."""
    gp = gentle
    g = gp.grid
    cfg = EvolverConfig(dt=1e-3)
    ev = Evolver(g, gp.p, cfg)
    rng = np.random.default_rng(3)
    u = (rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)) \
        * np.exp(-g.r[:g.n])
    lhs, rhs = ev._cn(1e-3)
    unew = lhs.solve(rhs.apply(u))
    m0 = float(np.dot(g.w[:g.n], np.abs(u) ** 2))
    m1 = float(np.dot(g.w[:g.n], np.abs(unew) ** 2))
    assert abs(m1 / m0 - 1) < 1e-12


@pytest.mark.parametrize("N, p", [(1, 7.0), (2, 4.0), (3, 3.0), (4, 2.5),
                                  (5, 2.2)])
def test_step_conserves_quadrature_mass(N, p):
    """One sponge-off step of rough data near the origin keeps the mass
    under grid.w, the weights the Crank-Nicolson step is unitary in."""
    g = make_grid(N, 20.0, 800)
    rng = np.random.default_rng(5)
    vals = (rng.standard_normal(g.n + 1) + 1j * rng.standard_normal(g.n + 1)) \
        * np.exp(-g.r)
    vals[-1] = 0.0
    u = Field(g, vals)
    out = step(u, 1e-3, EvolverConfig(dt=1e-3), p)
    m0 = integrate(u, lambda v: np.abs(v) ** 2)
    m1 = integrate(out, lambda v: np.abs(v) ** 2)
    assert abs(m1 / m0 - 1) <= 1e-12


def test_one_step_tracks_standing_wave(gentle):
    """One step vs e^{i dt} Q: the Strang error is third order in dt
    (measured constant ~2e1 for this pair) and the composed order-4 step
    sits below 1e-8 at dt = 1e-3."""
    gp = gentle
    u = standing_wave(gp)

    def one_step_err(dt, order):
        cfg = EvolverConfig(dt=dt, order=order)
        out = step(u, dt, cfg, gp.p)
        return np.max(np.abs(out.values - np.exp(1j * dt) * u.values))

    e1 = one_step_err(1e-3, 2)
    e2 = one_step_err(5e-4, 2)
    assert e1 <= 2.5e-8
    assert e1 / e2 == pytest.approx(8.0, rel=0.15)  # local order dt^3
    assert one_step_err(1e-3, 4) <= 1e-8


def test_step_respects_dt_cap(gentle):
    cfg = EvolverConfig(dt=1e-3)
    with pytest.raises(InvalidParameterError):
        step(standing_wave(gentle), 2e-3, cfg, gentle.p)


def test_one_step_reversibility(gentle):
    gp = gentle
    cfg = EvolverConfig(dt=1e-3)
    ev = Evolver(gp.grid, gp.p, cfg)
    u = standing_wave(gp)
    fwd = step(u, 1e-3, cfg, gp.p, evolver=ev)
    back = step(fwd, -1e-3, cfg, gp.p, evolver=ev)
    assert np.max(np.abs(back.values - u.values)) <= 1e-10


def test_standing_wave_run_and_conservation(gentle):
    gp = gentle
    cfg = EvolverConfig(dt=1e-3, t_end=2.0, sample_every=20, order=4)
    series, snaps = evolve(standing_wave(gp), 0.0, cfg, gp.p, reference=gp)
    assert abs(series.mass[-1] / series.mass[0] - 1) <= 1e-10
    assert abs((series.energy[-1] - series.energy[0]) / series.energy[0]) <= 1e-9
    assert series.dist_q[-1] <= 1e-5
    assert np.all(np.diff(series.t) > 0)


def test_round_trip_field_level(gentle):
    gp = gentle
    cfg = EvolverConfig(dt=1e-3, t_end=0.5, sample_every=10)
    series, snaps = evolve(standing_wave(gp), 0.0, cfg, gp.p, reference=gp)
    t_end, u_end = snaps[-1]
    cfg_back = EvolverConfig(dt=1e-3, t_end=0.0, sample_every=10)
    series_b, snaps_b = evolve(u_end, t_end, cfg_back, gp.p, reference=gp)
    _, u_back = snaps_b[-1]
    assert np.max(np.abs(u_back.values - gp.Q.values)) <= 1e-8


def test_time_reversal_symmetry(gentle):
    """evolve-conjugate == conjugate-backward-evolve (sigma = 0)."""
    gp = gentle
    g = gp.grid
    u0 = Field(g, gp.Q.values * np.exp(1j * 0.2 * np.exp(-g.r**2)))
    cfg = EvolverConfig(dt=1e-3, t_end=0.3, sample_every=10)
    _, snaps = evolve(u0, 0.0, cfg, gp.p)
    u_fwd_conj = np.conj(snaps[-1][1].values)
    cfg_b = EvolverConfig(dt=1e-3, t_end=-0.3, sample_every=10)
    _, snaps_b = evolve(Field(g, np.conj(u0.values)), 0.0, cfg_b, gp.p)
    u_back = snaps_b[-1][1].values
    assert np.max(np.abs(u_fwd_conj - u_back)) <= 1e-8


def test_phase_equivariance(gentle):
    gp = gentle
    cfg = EvolverConfig(dt=1e-3, t_end=0.2, sample_every=10)
    theta = 0.7
    _, s1 = evolve(standing_wave(gp), 0.0, cfg, gp.p)
    u_rot = Field(gp.grid, np.exp(1j * theta) * gp.Q.values)
    _, s2 = evolve(u_rot, 0.0, cfg, gp.p)
    assert np.max(np.abs(s2[-1][1].values
                         - np.exp(1j * theta) * s1[-1][1].values)) <= 1e-12


def test_zero_data(gentle):
    gp = gentle
    cfg = EvolverConfig(dt=1e-3, t_end=0.1, sample_every=10)
    series, _ = evolve(Field(gp.grid, np.zeros(gp.grid.n + 1)), 0.0, cfg, gp.p)
    assert np.all(series.mass == 0) and np.all(series.grad == 0)
    assert np.all(series.linf == 0)


def test_diagnostics_on_rotated_ground_state(gp33):
    u = Field(gp33.grid, np.exp(1j * 0.4) * gp33.Q.values)
    d = diagnostics(u, 0.0, gp33.p, reference=gp33)
    assert d["d"] == pytest.approx(0.0, abs=1e-12)
    assert d["me"] == pytest.approx(1.0, rel=1e-12)
    assert d["mg"] == pytest.approx(1.0, rel=1e-12)
    assert abs(variance_rate(u)) <= 1e-10
    assert abs(d["momentum"]) <= 1e-12


def test_ground_state_sits_at_the_threshold(gp33, gentle):
    """The series normalises ME and MG by the same Q observables as the
    experiments, so Q itself reads ME = MG = 1 and d = 0 exactly."""
    gp24 = solve_ground(make_grid(2, 30.0, 1500), 4.0)
    for gp in (gp33, gentle, gp24):
        d = diagnostics(gp.Q, 0.0, gp.p, reference=gp)
        assert (d["me"], d["mg"], d["d"]) == (1.0, 1.0, 0.0)
        assert gp.me_mg(gp.obs) == (1.0, 1.0)


def test_non_finite_state_is_an_instability(gentle):
    g = gentle.grid
    vals = gentle.Q.values.copy()
    vals[7] = math.nan
    cfg = EvolverConfig(dt=1e-3, t_end=0.05)
    for reference in (None, gentle):
        with pytest.raises(InstabilityError, match="not finite"):
            evolve(Field(g, vals), 0.0, cfg, gentle.p, reference=reference)


def test_quadratic_phase_gives_positive_variance_rate(gp33):
    """u = Q e^{i r^2 / 4}: V' = 4 Im int r u' ubar = int r^2 Q^2 > 0."""
    g = gp33.grid
    u = Field(g, gp33.Q.values * np.exp(1j * g.r**2 / 4.0))
    vr = variance_rate(u)
    # Im(r u' ubar) = r^2 Q^2 / 2, so V' = 2 int r^2 Q^2
    expect = 2.0 * integrate(Field(g, g.r**2 * gp33.Q.values.real**2))
    assert vr > 0
    assert vr == pytest.approx(expect, rel=1e-3)


def test_sponge_absorbs_outgoing_packet(gentle):
    g = gentle.grid
    u0 = Field(g, np.exp(-((g.r - 10) ** 2)) * np.exp(3j * g.r))
    cfg = EvolverConfig(dt=1e-3, t_end=8.0, sample_every=50, sponge=True)
    series, _ = evolve(u0, 0.0, cfg, gentle.p)
    assert series.mass[-1] < 0.9 * series.mass[0]


def test_mass_guard_triggers(gentle):
    """Data violating the decay contract (support on the Dirichlet node)
    loses mass on the first step; sponge-off runs must flag that."""
    g = gentle.grid
    vals = 0.05 * np.exp(-g.r**2)
    vals[-1] = 1.0  # pinned to zero by the solver: a real mass loss
    cfg = EvolverConfig(dt=1e-3, t_end=0.1, sample_every=5)
    with pytest.raises(InstabilityError):
        evolve(Field(g, vals), 0.0, cfg, gentle.p)


def test_adaptive_halving_and_blowup_verdict(gp33):
    cfg = EvolverConfig(dt=2e-4, t_end=1.5, sample_every=10)
    u0 = Field(gp33.grid, 1.1 * gp33.Q.values)
    series, _ = evolve(u0, 0.0, cfg, gp33.p, reference=gp33)
    assert series.meta["terminated_blowup"]
    assert series.meta["dt_final"] < 2e-4
    v = classify_run(series)
    assert v.kind == "BlowUp"
    assert v.t_star is not None
    # d grows monotonically until termination (instability of the wave)
    d = series.d
    assert d[-1] > d[0]
    assert np.all(np.diff(d[: len(d) // 2]) > -1e-9)


def test_small_data_scatters(gp33):
    cfg = EvolverConfig(dt=2e-4, t_end=3.0, sample_every=10, sponge=True)
    u0 = Field(gp33.grid, 0.5 * gp33.Q.values)
    series, _ = evolve(u0, 0.0, cfg, gp33.p, reference=gp33)
    v = classify_run(series)
    assert v.kind == "Scatter"


def test_standing_wave_classifies_as_converged(gp33):
    cfg = EvolverConfig(dt=2e-4, t_end=0.5, sample_every=10, order=4)
    series, _ = evolve(standing_wave(gp33), 0.0, cfg, gp33.p, reference=gp33)
    v = classify_run(series)
    assert v.kind == "ConvergeToQ"
    assert v.evidence["dist_final"] <= 1e-4


def test_variance_of_gaussian():
    g = make_grid(3, 20.0, 2000)
    u = Field(g, np.exp(-g.r**2 / 2))
    # int r^2 e^{-r^2} over R^3 = (3/2) pi^{3/2}
    assert variance(u) == pytest.approx(1.5 * math.pi**1.5, rel=1e-8)
