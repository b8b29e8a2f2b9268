import math
import tracemalloc

import numpy as np
import pytest

from nlslab.banded import Tridiag
from nlslab.errors import InstabilityError, InvalidParameterError
from nlslab.evolve import (GAMMA1, GAMMA2, Evolver, EvolverConfig, classify_run,
                           diagnostics, evolve)
from nlslab.grid import Field, make_grid
from nlslab.ground import solve_ground
from oracles import evolve_snapshots, step, variance, variance_rate

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
        EvolverConfig(order=3)
    for bad in ({"dt": math.nan}, {"dt": math.inf}, {"t_end": math.nan},
                {"t_end": math.inf}, {"sample_every": 0}, {"snapshot_every": -1}):
        with pytest.raises(InvalidParameterError):
            EvolverConfig(**bad)


def test_linear_step_is_unitary(gentle):
    """Crank-Nicolson without nonlinearity, 2 lhs^{-1} u - u, conserves the
    discrete mass to roundoff (exact detailed balance of the stencil)."""
    gp = gentle
    g = gp.grid
    cfg = EvolverConfig(dt=1e-3)
    ev = Evolver(g, gp.p, cfg)
    rng = np.random.default_rng(3)
    u = (rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)) \
        * np.exp(-g.r[:g.n])
    unew = 2 * ev._cn(1e-3).solve(u) - u
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
    m0 = float(np.dot(g.w, np.abs(u.values) ** 2))
    m1 = float(np.dot(g.w, np.abs(out.values) ** 2))
    assert abs(m1 / m0 - 1) <= 1e-12


def _oracle_step(ev, u, dt):
    """One step as the stepper once took it, the oracle of the merged one:
    each Strang stage solves lhs x = rhs v with the Crank-Nicolson pair and
    applies two half phases of its own."""
    lap, p = ev.op.lap, ev.p
    v = ev.op.rows(u)
    for gamma in ((1.0,) if ev.cfg.order == 2 else (GAMMA1, GAMMA2, GAMMA1)):
        h = gamma * dt
        damp = abs(h) / 2 * ev.sigma
        lhs = Tridiag(-1j * h / 2 * lap.sub, 1.0 - 1j * h / 2 * lap.diag + damp,
                      -1j * h / 2 * lap.sup)
        rhs = Tridiag(1j * h / 2 * lap.sub, 1.0 + 1j * h / 2 * lap.diag - damp,
                      1j * h / 2 * lap.sup)
        v = v * np.exp(1j * (h / 2) * np.abs(v) ** (p - 1))
        v = lhs.solve(rhs.apply(v))
        v = v * np.exp(1j * (h / 2) * np.abs(v) ** (p - 1))
    return ev.op.extend(v)


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("sponge", [False, True])
@pytest.mark.parametrize("N, p", [(1, 7.0), (2, 4.0), (3, 3.0), (5, 2.2)])
def test_merged_steps_match_the_oracle(N, p, sponge, order):
    """k steps that share their half phases (open on the first, close on
    the last) against k oracle steps; N <= 2 has an origin row, N >= 3 a
    slaved node 0, and the second packet sits in the absorbing layer."""
    g = make_grid(N, 20.0, 400)
    vals = _two_packets(g)
    ev = Evolver(g, p, EvolverConfig(dt=1e-3, order=order, sponge=sponge))
    u = ref = vals
    k = 10
    for i in range(k):
        u = ev.step_values(u, 1e-3, open=i == 0, close=i == k - 1)
        ref = _oracle_step(ev, ref, 1e-3)
    assert np.max(np.abs(u - ref)) <= 1e-12 * np.max(np.abs(ref))


def _two_packets(g):
    vals = (1.5 * np.exp(-g.r ** 2) + 0.5 * np.exp(-(g.r - 18.0) ** 2)) \
        * np.exp(1j * g.r)
    vals[-1] = 0.0
    return vals


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("sponge", [False, True])
@pytest.mark.parametrize("N, p", [(1, 7.0), (3, 3.0)])
def test_closed_steps_carry_their_phase(N, p, sponge, order):
    """k closed (sampled) steps, dt halving after the fifth, each opening
    with the factor its predecessor's close returned when that close had
    the same dt, as ``evolve`` passes it: they agree with the same steps
    forming every opening factor, and with the oracle, within 1e-12.  The
    carry must not cross the halving: passed across it, the factor is off
    by far more."""
    g = make_grid(N, 20.0, 400)
    dts = [1e-3] * 5 + [5e-4] * 5
    ev = Evolver(g, p, EvolverConfig(dt=1e-3, order=order, sponge=sponge))

    def run(crossing):
        u = _two_packets(g)
        carried = (None, None)
        for dt in dts:
            factor = carried[1] if crossing or carried[0] == dt else None
            u, closing, power = ev.step_values(u, dt, factor=factor, carry=True)
            carried = (dt, closing)
        return u, power

    u, power = run(crossing=False)
    fresh = ref = _two_packets(g)
    for dt in dts:
        fresh = ev.step_values(fresh, dt)
        ref = _oracle_step(ev, ref, dt)
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(u - fresh)) <= 1e-12 * scale
    assert np.max(np.abs(u - ref)) <= 1e-12 * scale
    assert not np.array_equal(u, fresh)         # the carried factors were used
    assert np.max(np.abs(run(crossing=True)[0] - ref)) > 1e-9 * scale
    assert np.allclose(power, np.abs(u) ** (p - 1), rtol=1e-13, atol=0.0)


def _close_every_step(monkeypatch):
    """Make ``evolve`` the oracle loop: every step opens and closes, and
    forms its opening factor (a carried ``factor`` is dropped)."""
    whole = Evolver.step_values
    monkeypatch.setattr(Evolver, "step_values",
                        lambda self, u, dt, carry=False, **_: whole(self, u, dt, carry=carry))


@pytest.mark.parametrize("order", [2, 4])
def test_evolve_closes_before_a_clipped_step(gentle, monkeypatch, order):
    """t_end = 123.4 dt: the step before the clipped last one is not
    sampled (sample_every = 7) but must close; every sampled state
    (snapshot_every = 1) is closed.  The oracle loop closes every step
    and forms every opening phase afresh, so it reuses no phase factor."""
    g = gentle.grid
    u0 = Field(g, gentle.Q.values * np.exp(1j * 0.2 * np.exp(-g.r ** 2)))
    cfg = EvolverConfig(dt=1e-3, t_end=0.1234, sample_every=7,
                        snapshot_every=1, order=order)
    series, snaps = evolve_snapshots(u0, 0.0, cfg, gentle.p)
    _close_every_step(monkeypatch)
    oracle, snaps_o = evolve_snapshots(u0, 0.0, cfg, gentle.p)
    assert np.array_equal(series.t, oracle.t)
    assert [t for t, _ in snaps] == [t for t, _ in snaps_o]
    for (_, u), (_, ref) in zip(snaps, snaps_o):
        assert np.max(np.abs(u.values - ref.values)) \
            <= 1e-12 * np.max(np.abs(ref.values))


def test_evolve_seams_at_dt_halvings(gp33, monkeypatch):
    """The datum of the blow-up test halves dt; sample times, the final dt
    and the verdict match the loop that closes every step.  No state is
    compared: near blow-up roundoff grows about 1e7-fold."""
    cfg = EvolverConfig(dt=2e-4, t_end=1.5, sample_every=10)
    u0 = Field(gp33.grid, 1.1 * gp33.Q.values)
    series, _ = evolve(u0, 0.0, cfg, gp33.p, reference=gp33)
    _close_every_step(monkeypatch)
    oracle, _ = evolve(u0, 0.0, cfg, gp33.p, reference=gp33)
    assert series.meta["dt_final"] < 2e-4
    assert np.array_equal(series.t, oracle.t)
    assert series.meta["dt_final"] == oracle.meta["dt_final"]
    v, v_oracle = classify_run(series, gp33), classify_run(oracle, gp33)
    assert (v.kind, v.t_star) == (v_oracle.kind, v_oracle.t_star)


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
    series, snaps = evolve_snapshots(standing_wave(gp), 0.0, cfg, gp.p, reference=gp)
    t_end, u_end = snaps[-1]
    cfg_back = EvolverConfig(dt=1e-3, t_end=0.0, sample_every=10)
    series_b, snaps_b = evolve_snapshots(u_end, t_end, cfg_back, gp.p, reference=gp)
    _, u_back = snaps_b[-1]
    assert np.max(np.abs(u_back.values - gp.Q.values)) <= 1e-8


def test_time_reversal_symmetry(gentle):
    """evolve-conjugate == conjugate-backward-evolve (sigma = 0)."""
    gp = gentle
    g = gp.grid
    u0 = Field(g, gp.Q.values * np.exp(1j * 0.2 * np.exp(-g.r**2)))
    cfg = EvolverConfig(dt=1e-3, t_end=0.3, sample_every=10)
    _, snaps = evolve_snapshots(u0, 0.0, cfg, gp.p)
    u_fwd_conj = np.conj(snaps[-1][1].values)
    cfg_b = EvolverConfig(dt=1e-3, t_end=-0.3, sample_every=10)
    _, snaps_b = evolve_snapshots(Field(g, np.conj(u0.values)), 0.0, cfg_b, gp.p)
    u_back = snaps_b[-1][1].values
    assert np.max(np.abs(u_fwd_conj - u_back)) <= 1e-8


def test_phase_equivariance(gentle):
    gp = gentle
    cfg = EvolverConfig(dt=1e-3, t_end=0.2, sample_every=10)
    theta = 0.7
    _, s1 = evolve_snapshots(standing_wave(gp), 0.0, cfg, gp.p)
    u_rot = Field(gp.grid, np.exp(1j * theta) * gp.Q.values)
    _, s2 = evolve_snapshots(u_rot, 0.0, cfg, gp.p)
    assert np.max(np.abs(s2[-1][1].values
                         - np.exp(1j * theta) * s1[-1][1].values)) <= 1e-12


def test_zero_data(gentle):
    gp = gentle
    cfg = EvolverConfig(dt=1e-3, t_end=0.1, sample_every=10)
    series, _ = evolve(Field(gp.grid, np.zeros(gp.grid.n + 1)), 0.0, cfg, gp.p)
    assert np.all(series.mass == 0) and np.all(series.grad == 0)
    assert np.all(series.potential == 0)


def test_diagnostics_on_rotated_ground_state(gp33):
    u = Field(gp33.grid, np.exp(1j * 0.4) * gp33.Q.values)
    d = diagnostics(u, 0.0, gp33.p, reference=gp33)
    assert d["d"] == pytest.approx(0.0, abs=1e-12)
    assert d["me"] == pytest.approx(1.0, rel=1e-12)
    assert d["mg"] == pytest.approx(1.0, rel=1e-12)
    assert abs(variance_rate(u)) <= 1e-10


@pytest.mark.parametrize("N, p", [(1, 5.2), (3, 3.0)])
def test_diagnostics_take_the_step_power(N, p):
    """With the power |u|^{p-1} that the step returned every column agrees
    with the diagnostics that form it from the state, within 1e-13
    relative.  N = 3 has a slaved node 0, whose power comes from the
    state."""
    gp = solve_ground(make_grid(N, 20.0, 1000), p)
    g = gp.grid
    ev = Evolver(g, p, EvolverConfig(dt=1e-3))
    datum = gp.Q.values * (1.0 + 0.1 * np.exp(-g.r ** 2)) * np.exp(0.3j + 0.2j * g.r)
    values, _, power = ev.step_values(datum, 1e-3, carry=True)
    u = Field(g, values)
    assert np.allclose(power, np.abs(values) ** (p - 1), rtol=1e-13, atol=0.0)
    fresh = diagnostics(u, 1e-3, p, reference=gp)
    read = diagnostics(u, 1e-3, p, reference=gp, power=power)
    assert read.keys() == fresh.keys()
    for key, value in fresh.items():
        assert read[key] == pytest.approx(value, rel=1e-13, abs=0.0), key
    assert read["dist_q"] > 0.0


def test_evolve_carries_a_factor_only_at_the_same_dt(gp33, monkeypatch):
    """On the blow-up datum, which halves dt: a step gets a factor exactly
    when the step before it closed at the same dt, and it is the factor
    that close returned."""
    calls = []
    whole = Evolver.step_values

    def spy(self, u, dt, **kw):
        out = whole(self, u, dt, **kw)
        calls.append((dt, kw, out))
        return out

    monkeypatch.setattr(Evolver, "step_values", spy)
    cfg = EvolverConfig(dt=2e-4, t_end=1.5, sample_every=10)
    evolve(Field(gp33.grid, 1.1 * gp33.Q.values), 0.0, cfg, gp33.p, reference=gp33)
    assert len({dt for dt, _, _ in calls}) > 1
    carried = 0
    for (dt0, kw0, out0), (dt1, kw1, _) in zip(calls, calls[1:]):
        if kw0["close"] and dt0 == dt1:
            assert kw1["factor"] is out0[1]
            carried += 1
        else:
            assert kw1["factor"] is None
    assert carried > 1


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
    expect = 2.0 * float(np.dot(g.w, g.r**2 * gp33.Q.values.real**2))
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


def test_snapshots_stream_through_the_sink():
    """With a snapshot at every step and a sink that drops them, the
    traced peak stays below a fixed number of field sizes, whatever the
    snapshot count: evolve keeps no snapshot."""
    g = make_grid(1, 30.0, 10000)
    u0 = Field(g, np.exp(-g.r**2))
    for steps in (30, 120):
        cfg = EvolverConfig(dt=1e-3, t_end=steps * 1e-3, sample_every=1,
                            snapshot_every=1)
        times = []
        tracemalloc.start()
        try:
            evolve(u0, 0.0, cfg, 5.2, sink=lambda t, values: times.append(t))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(times) == steps + 1
        assert peak < 25 * u0.values.nbytes


def test_adaptive_halving_and_blowup_verdict(gp33):
    cfg = EvolverConfig(dt=2e-4, t_end=1.5, sample_every=10)
    u0 = Field(gp33.grid, 1.1 * gp33.Q.values)
    series, _ = evolve(u0, 0.0, cfg, gp33.p, reference=gp33)
    assert series.meta["stop_reason"] == "blowup"
    assert series.meta["dt_final"] < 2e-4
    v = classify_run(series, gp33)
    assert v.kind == "BlowUp"
    assert v.t_star == series.meta["t_stop"]
    # d grows monotonically until termination (instability of the wave)
    d = series.d
    assert d[-1] > d[0]
    assert np.all(np.diff(d[: len(d) // 2]) > -1e-9)


def test_blowup_verdict_is_the_stop_at_every_horizon(gp33):
    """The blow-up datum run to two horizons short of its stop (both
    sample times of the full run) and to the full horizon: BlowUp is read
    exactly when the run ended on the blow-up stop, so a longer horizon
    never takes a BlowUp back."""
    u0 = Field(gp33.grid, 1.1 * gp33.Q.values)
    kinds = []
    for t_end in (0.172, 0.174, 1.5):
        cfg = EvolverConfig(dt=2e-4, t_end=t_end, sample_every=10)
        series, _ = evolve(u0, 0.0, cfg, gp33.p, reference=gp33)
        kinds.append(classify_run(series, gp33).kind)
        assert (kinds[-1] == "BlowUp") == (series.meta["stop_reason"] == "blowup"), t_end
    first = kinds.index("BlowUp")
    assert kinds[first:] == ["BlowUp"] * (len(kinds) - first), kinds


def test_small_data_scatters(gp33):
    cfg = EvolverConfig(dt=2e-4, t_end=3.0, sample_every=10, sponge=True)
    u0 = Field(gp33.grid, 0.5 * gp33.Q.values)
    series, _ = evolve(u0, 0.0, cfg, gp33.p, reference=gp33)
    v = classify_run(series, gp33)
    assert v.kind == "Scatter"


def test_stops_are_recorded_and_time_reversed(gp33):
    """``meta`` says why and where a run stopped, and the time reversal
    negates each time it holds."""
    runs = {"scatter": (0.5, EvolverConfig(dt=2e-4, t_end=3.0, sample_every=10,
                                           sponge=True)),
            "blowup": (1.1, EvolverConfig(dt=2e-4, t_end=1.5, sample_every=10)),
            "t_end": (1.0, EvolverConfig(dt=2e-4, t_end=0.02, sample_every=10))}
    for reason, (scale, cfg) in runs.items():
        u0 = Field(gp33.grid, scale * gp33.Q.values)
        series, _ = evolve(u0, 0.0, cfg, gp33.p, reference=gp33)
        meta = series.meta
        assert meta["stop_reason"] == reason
        assert meta["t_stop"] == series.t[-1]
        assert (cfg.t_end - meta["t_stop"] > cfg.dt) == (reason != "t_end")
        mirror = series.time_reversed().meta
        assert mirror["stop_reason"] == reason
        assert mirror["t_stop"] == -meta["t_stop"]
        if reason == "blowup":
            assert classify_run(series.time_reversed(), gp33).t_star == -meta["t_stop"]


def test_standing_wave_classifies_as_converged(gp33):
    cfg = EvolverConfig(dt=2e-4, t_end=0.5, sample_every=10, order=4)
    series, _ = evolve(standing_wave(gp33), 0.0, cfg, gp33.p, reference=gp33)
    v = classify_run(series, gp33)
    assert v.kind == "ConvergeToQ"
    assert v.evidence["dist_final"] <= 1e-4


def test_variance_of_gaussian():
    g = make_grid(3, 20.0, 2000)
    u = Field(g, np.exp(-g.r**2 / 2))
    # int r^2 e^{-r^2} over R^3 = (3/2) pi^{3/2}
    assert variance(u) == pytest.approx(1.5 * math.pi**1.5, rel=1e-8)
