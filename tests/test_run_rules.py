"""The per-sample rules of ``RunRules`` on synthetic diagnostics rows: no
PDE is solved; the reference is the (3, 3) ground state for its ||grad Q||
and P(Q)."""

import math

import pytest

from nlslab.errors import InstabilityError
from nlslab.evolve import SCATTER_HOLD, SERIES_COLUMNS, EvolverConfig, RunRules


def row(t, mass=1.0, grad=1.0, potential=1.0):
    return dict(dict.fromkeys(SERIES_COLUMNS, math.nan), t=t, mass=mass, grad=grad,
                potential=potential)


def first_stop(rules, rows, dt):
    """Feed ``rows`` (elapsed = |t|); the index of the one that stops the run."""
    for k, r in enumerate(rows):
        dt = rules.feed(r, dt, abs(r["t"]))
        if dt is None:
            return k
    return None


def test_a_non_finite_sample_raises_and_names_t(gp33):
    rules = RunRules(EvolverConfig(dt=1e-3), gp33)
    with pytest.raises(InstabilityError, match="not finite at t = 0.5"):
        rules.feed(row(0.5, grad=math.nan), 1e-3, 0.5)
    rules = RunRules(EvolverConfig(dt=1e-3), gp33)
    assert rules.feed(row(0.0), 1e-3, 0.0) == 1e-3
    with pytest.raises(InstabilityError, match="not finite at t = 0.25"):
        rules.feed(row(0.25, mass=math.nan), 1e-3, 0.25)


@pytest.mark.parametrize("sponge", [False, True])
def test_mass_guard_holds_only_with_the_sponge_off(sponge):
    rules = RunRules(EvolverConfig(dt=1e-3, sponge=sponge))
    rules.feed(row(0.0), 1e-3, 0.0)
    assert rules.feed(row(0.01, mass=1.0005), 1e-3, 0.01) == 1e-3
    if sponge:
        assert rules.feed(row(0.02, mass=1.002), 1e-3, 0.02) == 1e-3
    else:
        with pytest.raises(InstabilityError, match="mass drifted by 2.00e-03"):
            rules.feed(row(0.02, mass=1.002), 1e-3, 0.02)


@pytest.mark.parametrize("direction", [1.0, -1.0])
def test_growth_halves_dt_down_to_its_floor(direction):
    cfg = EvolverConfig(dt=1e-3)
    rules = RunRules(cfg)
    dt = rules.feed(row(0.0), direction * cfg.dt, 0.0)
    # 1.2x growth stays under ADAPT_TRIGGER = 1.25
    assert rules.feed(row(direction * 0.01, grad=1.2), dt, 0.01) == dt
    seen, grad = [], 1.2
    for k in range(2, 11):
        grad *= 1.3
        dt = rules.feed(row(direction * k * 0.01, grad=grad), dt, k * 0.01)
        seen.append(dt)
    assert seen == [direction * cfg.dt / 2 ** j for j in (1, 2, 3, 4, 5, 6, 6, 6, 6)]
    assert rules.dt_final == cfg.dt / 64
    assert rules.series(direction * 0.1).meta == {
        "dt_final": cfg.dt / 64, "stop_reason": "t_end", "t_stop": direction * 0.1}


def test_blowup_stop_needs_the_zone_the_floor_and_convexity(gp33):
    cfg = EvolverConfig(dt=1e-3)
    floor, g, pq = cfg.dt / 64, gp33.obs.grad, gp33.obs.potential

    def run(grads, dt):
        rules = RunRules(cfg, gp33)
        rows = [row(0.01 * k, grad=x * g, potential=pq) for k, x in enumerate(grads)]
        return first_stop(rules, rows, dt), rules

    # log ||grad u|| convex over (3.5, 4, 5) ||grad Q||, concave over (3.5, 4.5, 5)
    stop, rules = run([1.0, 3.5, 4.0, 5.0], floor)
    assert stop == 3 and rules.stop_reason == "blowup"
    assert rules.series(0.03).meta["stop_reason"] == "blowup"
    stop, rules = run([1.0, 3.5, 4.5, 5.0], floor)
    assert stop is None and rules.stop_reason == "t_end"
    # above the floor the zone halves dt instead of stopping
    stop, rules = run([1.0, 3.5, 4.0, 5.0], cfg.dt)
    assert stop is None and rules.dt_final == cfg.dt / 8
    # below 3 ||grad Q||, convex growth at the floor does not stop
    stop, _ = run([1.0, 1.5, 2.0, 2.9], floor)
    assert stop is None


def test_scatter_stop_waits_four_thirds_of_the_onset_time(gp33):
    """P(u) at half of P(Q) until elapsed 1, then under 10% and decaying
    by 0.9 a sample: Scatter holds from s = 1, and the run stops at the
    first sample with elapsed >= 4/3 s.  A 6% uptick at elapsed 1.2
    breaks the decay of the last quarter until it leaves it (elapsed 1.4),
    so the hold restarts there."""
    assert SCATTER_HOLD == 4.0 / 3.0
    g, pq = gp33.obs.grad, gp33.obs.potential

    def potentials(uptick):
        out = [0.5] * 10 + [0.09]
        for k in range(11, 30):
            out.append(out[-1] * (1.06 if uptick and k == 12 else 0.9))
        return out

    for uptick, since, expected in ((False, 10, 14), (True, 14, 19)):
        rules = RunRules(EvolverConfig(dt=1e-3), gp33)
        rows = [row(0.1 * k, grad=g, potential=x * pq)
                for k, x in enumerate(potentials(uptick))]
        stop = first_stop(rules, rows, 1e-3)
        hold = SCATTER_HOLD * abs(rows[since]["t"])
        assert stop == expected == min(k for k, r in enumerate(rows) if r["t"] >= hold)
        assert rows[stop - 1]["t"] < hold
        assert rules.stop_reason == "scatter"
        assert rules.scatter_since == abs(rows[since]["t"])
