import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nlslab.ground
from nlslab.errors import InvalidParameterError, NoBracketError
from nlslab.grid import make_grid
from nlslab.ground import (A_CAP, A_TOL, OVERSHOOT_CAP, _decaying_tail,
                           _find_q0, _shoot, _shoot_ground, check_identities,
                           critical_exponent, gn_quotient, solve_ground,
                           validate_intercritical)
from oracles import bisect_q0, closed_form_1d, closed_form_W

# Q(0) for the 3d cubic ground state, frozen from an independent coarse
# shooting-bisection oracle (RK4 at substep 1.25e-3, bisection to 1e-12);
# agrees with the value quoted in the numerical literature.
Q0_3D_CUBIC = 4.337389


def test_intercritical_bounds():
    validate_intercritical(3, 3.0)
    validate_intercritical(1, 7.0)
    with pytest.raises(InvalidParameterError):
        validate_intercritical(3, 2.0)   # below 1 + 4/N = 7/3
    with pytest.raises(InvalidParameterError):
        validate_intercritical(3, 5.0)   # at/above 2* - 1 = 5
    with pytest.raises(InvalidParameterError):
        validate_intercritical(1, 5.0)   # mass-critical endpoint


def test_solve_ground_rejects_coarse_grid():
    g = make_grid(3, 30.0, 100)  # h = 0.3 > 0.02
    with pytest.raises(InvalidParameterError):
        solve_ground(g, 3.0)


def test_bracket_widening_stops_at_cap(monkeypatch):
    # Q(0) = 4.34 lies above both the bracket and the lowered cap
    monkeypatch.setattr(nlslab.ground, "A_CAP", 3.0)
    with pytest.raises(NoBracketError, match="exceeds 3"):
        solve_ground(make_grid(3, 20.0, 1000), 3.0, bracket=(1.0, 2.0))


def _shoot_closure(a, p, N, h_sub, r_stop):
    """``_shoot`` as it was with a right-hand-side closure: the bit-for-bit oracle."""
    nsteps = int(round(r_stop / h_sub))
    q, s = a, 0.0
    out = np.empty(nsteps + 1)
    out[0] = a

    def rhs(r, q, s):
        qc = q if abs(q) < OVERSHOOT_CAP else math.copysign(OVERSHOOT_CAP, q)
        nl = qc - abs(qc) ** (p - 1) * qc
        if r < 1e-12:
            return s, nl / N
        return s, nl - (N - 1) / r * s

    for i in range(nsteps):
        r = i * h_sub
        k1q, k1s = rhs(r, q, s)
        k2q, k2s = rhs(r + h_sub / 2, q + h_sub / 2 * k1q, s + h_sub / 2 * k1s)
        k3q, k3s = rhs(r + h_sub / 2, q + h_sub / 2 * k2q, s + h_sub / 2 * k2s)
        k4q, k4s = rhs(r + h_sub, q + h_sub * k3q, s + h_sub * k3s)
        q += h_sub / 6 * (k1q + 2 * k2q + 2 * k3q + k4q)
        s += h_sub / 6 * (k1s + 2 * k2s + 2 * k3s + k4s)
        out[i + 1] = q
        if q < 0 or abs(q) > OVERSHOOT_CAP:
            return "over", out[: i + 2]
        if s > 0 and 0 < q < 1:
            return "under", out[: i + 2]
    return "end", out


def _q0(p, N):
    """Bisected Q(0) on a cheap shooting grid (substep 5e-3, rmax 10)."""
    return 0.5 * sum(bisect_q0(p, N, 5e-3, 10.0, (1.0, 20.0), A_CAP))


@settings(max_examples=40, deadline=None)
@given(N=st.integers(1, 5), frac=st.floats(0.05, 0.95),
       h_sub=st.sampled_from([1.25e-3, 3.125e-3, 5e-3]), rmax=st.floats(10.0, 30.0),
       near=st.booleans(), offset=st.floats(-15.0, 0.0), sign=st.sampled_from([-1, 1]),
       far=st.floats(0.01, A_CAP))
def test_shoot_is_bit_identical_to_the_closure_oracle(N, frac, h_sub, rmax, near,
                                                      offset, sign, far):
    # p inside the intercritical range (capped at 9 for N <= 2); a either
    # within a relative 1e-15..1 of Q(0) or anywhere up to A_CAP
    p = 1.0 + 4.0 / N + frac * (min(critical_exponent(N), 9.0) - 1.0 - 4.0 / N)
    a = _q0(p, N) * (1 + sign * 10.0 ** offset) if near else far
    ev, values = _shoot(a, p, N, h_sub, rmax)
    ev_ref, ref = _shoot_closure(a, p, N, h_sub, rmax)
    assert ev == ev_ref
    assert np.array_equal(values, ref)


# at (1, 7) a = A_CAP drives a stage past OVERSHOOT_CAP: the clip branch
@pytest.mark.parametrize("N, p, a, event", [(3, 3.0, 2.0, "under"),
                                            (1, 7.0, A_CAP, "over"),
                                            (3, 3.0, None, "end")])
def test_each_event_is_bit_identical_to_the_closure_oracle(N, p, a, event):
    a = _q0(p, N) if a is None else a
    ev, values = _shoot(a, p, N, 5e-3, 10.0)
    ev_ref, ref = _shoot_closure(a, p, N, 5e-3, 10.0)
    assert ev == ev_ref == event
    assert np.array_equal(values, ref)


@pytest.mark.parametrize("N", range(1, 8))
def test_decaying_tail_is_the_bessel_k_solution(N):
    from scipy.special import kv
    nu = (N - 2) / 2
    for r in (2.0, 6.0, 12.3, 30.0):
        f, kappa = _decaying_tail(N, r)
        assert f == pytest.approx(r ** -nu * kv(nu, r), rel=1e-14)
        assert kappa == pytest.approx(kv(nu + 1, r) / kv(nu, r), rel=1e-14)
    assert _decaying_tail(1, 12.3)[1] == 1.0
    assert _decaying_tail(3, 12.3)[1] == 1.0 + 1.0 / 12.3


@settings(max_examples=15, deadline=None)
@given(N=st.integers(1, 6), frac=st.floats(0.05, 0.95),
       h_sub=st.sampled_from([1.25e-3, 3.125e-3, 5e-3]), rmax=st.floats(10.0, 30.0))
def test_secant_search_matches_the_bisection_oracle(N, frac, h_sub, rmax):
    p = 1.0 + 4.0 / N + frac * (min(critical_exponent(N), 9.0) - 1.0 - 4.0 / N)
    key = (p, N, h_sub, rmax, (1.0, 20.0), A_CAP)
    try:
        ref_lo, ref_hi = bisect_q0(*key)
    except NoBracketError:   # Q(0) above A_CAP: the shared set-up refuses both
        with pytest.raises(NoBracketError):
            _find_q0(*key)
        return
    lo, hi, _ = _find_q0(*key)
    assert hi - lo < A_TOL
    assert 0.5 * (lo + hi) == pytest.approx(0.5 * (ref_lo + ref_hi), rel=1e-11)

    def overshoots(a):
        return _shoot(a, p, N, h_sub, rmax)[0] == "over"

    assert overshoots(lo) == overshoots(ref_lo)
    assert overshoots(hi) == overshoots(ref_hi)


def test_secant_search_halves_the_rk4_steps(monkeypatch):
    # the bisection took 149,676 RK4 steps at this key, its final shot included
    steps = []

    def counting(*args):
        ev, values = _shoot(*args)
        steps.append(len(values) - 1)
        return ev, values

    monkeypatch.setattr(nlslab.ground, "_shoot", counting)
    _shoot_ground.cache_clear()
    *_, shots = _shoot_ground(3.0, 3, 3.125e-3, 30.0, (1.0, 20.0), A_CAP)
    assert shots == len(steps)
    assert sum(steps) <= 149_676 // 2


def _count_shots(monkeypatch):
    shots = []

    def counting(*args):
        shots.append(args)
        return _shoot(*args)

    monkeypatch.setattr(nlslab.ground, "_shoot", counting)
    return shots


def test_each_shooting_key_is_shot_once(monkeypatch):
    _shoot_ground.cache_clear()
    shots = _count_shots(monkeypatch)
    first = solve_ground(make_grid(1, 10.0, 2000), 7.0)   # h = 0.005: substep 1.25e-3
    assert shots
    shots.clear()
    again = solve_ground(make_grid(1, 10.0, 2000), 7.0)
    assert shots == []
    assert again.q0 == first.q0
    assert np.array_equal(again.Q.values, first.Q.values)
    finer = solve_ground(make_grid(1, 10.0, 4000), 7.0)   # same substep, other n
    assert shots == []
    assert finer.q0 == first.q0
    assert not _shoot_ground(7.0, 1, 1.25e-3, 10.0, (1.0, 20.0), A_CAP)[1].flags.writeable


def test_constant_shot_is_skipped(monkeypatch):
    # a = 1 is the constant solution: its shot ends without an event, which
    # the bisection reads as 'under', so skipping it keeps every bit
    ev, values = _shoot(1.0, 7.0, 1, 5e-3, 10.0)
    assert ev == "end" and np.all(values == 1.0)
    _shoot_ground.cache_clear()
    shots = _count_shots(monkeypatch)
    solve_ground(make_grid(1, 10.0, 500), 7.0)   # h = 0.02: substep 5e-3
    assert shots and all(args[0] != 1.0 for args in shots)
    shots.clear()
    solve_ground(make_grid(1, 10.0, 500), 7.0, bracket=(1.1, 20.0))
    assert shots[0][0] == 1.1   # any other low end is still shot


def test_memo_key_holds_the_cap(monkeypatch):
    # a cached success under the default cap must not answer a lower cap
    solve_ground(make_grid(3, 20.0, 1000), 3.0, bracket=(1.0, 2.0))
    monkeypatch.setattr(nlslab.ground, "A_CAP", 3.0)
    with pytest.raises(NoBracketError, match="exceeds 3"):
        solve_ground(make_grid(3, 20.0, 1000), 3.0, bracket=(1.0, 2.0))


def test_1d_p7_against_closed_form():
    """Shooting solver against the sech profile (unpolished = continuum)."""
    g = make_grid(1, 20.0, 4000)  # h = 0.005
    gp = solve_ground(g, 7.0, polish=False)
    exact = closed_form_1d(7.0, g)
    window = g.r <= 10.0
    err = np.max(np.abs(gp.Q.values.real[window] - exact.Q.values.real[window]))
    assert err <= 1e-8
    assert gp.q0 == pytest.approx(4.0 ** (1 / 6), abs=1e-9)


def test_closed_form_1d_values_and_residual():
    g = make_grid(1, 20.0, 4000)
    gp = closed_form_1d(7.0, g)
    assert gp.Q.values.real[0] == pytest.approx(4.0 ** (1 / 6), rel=1e-14)
    # substitution residual of the analytic profile
    assert gp.ode_residual <= 1e-12


def test_3d_cubic_central_value(gp33):
    assert gp33.q0 == pytest.approx(Q0_3D_CUBIC, abs=2e-5)


def test_q0_stable_under_grid_doubling(grid33, gp33):
    g2 = make_grid(3, 30.0, 3000)
    gp2 = solve_ground(g2, 3.0)
    assert abs(gp2.q0 / gp33.q0 - 1) < 1e-6


def test_profile_positive_and_decreasing(gp33):
    q = gp33.Q.values.real
    floor = 1e4 * np.finfo(float).eps * q[0]
    resolved = q > floor
    assert np.all(q[resolved] > 0)
    idx = np.nonzero(resolved)[0]
    assert np.all(np.diff(q[: idx[-1] + 1]) < 0)


def test_ode_residual_certified(gp33):
    assert gp33.ode_residual < 1e-10


def test_identities_3d_cubic():
    # moderate tolerances at h = 0.01; the acceptance suite certifies 1e-6
    # on refined grids
    g = make_grid(3, 30.0, 3000)
    gp = solve_ground(g, 3.0)
    rep = check_identities(gp, pohozaev_tol=5e-4, mass_tol=2e-3)
    assert rep.target_pohozaev == pytest.approx(4.0 / 3.0)
    assert abs(rep.ratio_pohozaev / rep.target_pohozaev - 1) < 5e-4
    assert rep.target_mass == pytest.approx(1.0 / 3.0)
    assert abs(rep.ratio_mass / rep.target_mass - 1) < 2e-3
    assert rep.passes["pohozaev"] and rep.passes["mass"]


def test_mass_ratio_1d_p7():
    g = make_grid(1, 30.0, 3000)
    gp = solve_ground(g, 7.0)
    rep = check_identities(gp)
    # (2(p+1) - N(p-1)) / (N(p-1)) = (16 - 6)/6 = 5/3
    assert rep.target_mass == pytest.approx(5.0 / 3.0)
    assert abs(rep.ratio_mass / rep.target_mass - 1) < 2e-4


def test_energy_consequence(gp33):
    # exact consequence of the Pohozaev identity; inherits its O(h^2)
    # deviation here, certified at 1e-6 on the refined acceptance grids
    rep = check_identities(gp33)
    assert rep.energy == pytest.approx(rep.energy_target, rel=5e-3)


def test_tail_law_3d():
    # the Dirichlet wall admixes the growing mode at relative size
    # e^{-2(rmax - r)} ~= 2.5e-3 at r = 0.9 rmax on rmax = 30, so the 1e-3
    # tail certificate needs a slightly wider box
    g = make_grid(3, 45.0, 4500)
    gp = solve_ground(g, 3.0)
    rep = check_identities(gp)
    assert rep.tail_deviation <= 1e-3


def test_gn_quotient_maximized_at_Q(gp33):
    grid = gp33.grid
    q = gp33.Q.values.real
    base = gn_quotient(q, grid, gp33.p)
    competitors = []
    for lam in (0.8, 1.25):
        rq = grid.r / lam
        vals = np.interp(rq, grid.r, q, right=0.0)
        competitors.append(vals)
    competitors.append(q + 0.1 * np.exp(-grid.r**2))
    for comp in competitors:
        assert gn_quotient(comp, grid, gp33.p) < base


def test_closed_form_W_values():
    g3 = make_grid(3, 20.0, 1000)
    w3 = closed_form_W(g3)
    assert w3.values.real[0] == pytest.approx(1.0)
    g4 = make_grid(4, 20.0, 4000)
    w4 = closed_form_W(g4)
    i = np.argmin(np.abs(g4.r - 2 * math.sqrt(2)))
    assert w4.values.real[i] == pytest.approx(0.5, abs=1e-3)


def test_W_square_integrable_only_above_dimension_five():
    # N = 5: int W^2 converges under grid refinement/extension
    vals = []
    for rmax, n in ((200.0, 20000), (400.0, 40000)):
        g = make_grid(5, rmax, n)
        w = closed_form_W(g)
        vals.append(float(np.dot(g.w, np.abs(w.values) ** 2)))
    assert abs(vals[1] / vals[0] - 1) < 2e-2  # converged in rmax
    # N = 4: the same integral diverges logarithmically with rmax
    div = []
    for rmax in (200.0, 400.0):
        g = make_grid(4, rmax, int(rmax * 50))
        w = closed_form_W(g)
        div.append(float(np.dot(g.w, np.abs(w.values) ** 2)))
    assert div[1] > div[0] * 1.15
