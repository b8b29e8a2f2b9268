import math

import numpy as np
import pytest

import nlslab.ground
from nlslab.errors import InvalidParameterError, NlslabError, NonConvergenceError
from nlslab.grid import make_grid
from nlslab.ground import (NEWTON_FLOOR_FACTOR, check_identities, critical_exponent,
                           gn_quotient, solve_ground, validate_intercritical)
from oracles import closed_form_1d, closed_form_W, extrapolated_ground

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


def _floor(gp):
    """The Newton polish's roundoff floor eps (4/h^2 + max Q^{p-1}) max Q."""
    qmax = float(np.max(gp.Q.values.real))
    return np.finfo(float).eps * (4.0 / gp.grid.h ** 2 + qmax ** (gp.p - 1)) * qmax


def _intercritical_points():
    for N in range(1, 7):
        lo = 1.0 + 4.0 / N
        hi = critical_exponent(N) if N >= 3 else lo + 8.0
        for frac in (0.02, 0.5, 0.98):
            yield N, round(lo + frac * (hi - lo), 4)


@pytest.mark.parametrize("N, p", list(_intercritical_points()))
def test_intercritical_range_solves_or_fails_typed(N, p):
    # near the critical end the core outgrows h (lambda h ~ 1.2 at
    # (4, 2.98)), where the polish stalls: that must raise, not return
    try:
        gp = solve_ground(make_grid(N, 30.0, 1500), p)
    except NlslabError:
        return
    assert gp.ode_residual <= NEWTON_FLOOR_FACTOR * _floor(gp)


def test_stalled_newton_polish_raises(monkeypatch):
    # Petviashvili cut after one step leaves Newton too far out at (3, 3)
    monkeypatch.setattr(nlslab.ground, "PETVIASHVILI_MAX_ITER", 1)
    with pytest.raises(NonConvergenceError, match="roundoff floor"):
        solve_ground(make_grid(3, 30.0, 1500), 3.0)


def test_1d_p7_against_closed_form():
    """Extrapolated grid ground state against the sech profile."""
    g = make_grid(1, 20.0, 4000)  # h = 0.005
    q = extrapolated_ground(1, 7.0, 20.0, 4000)
    exact = closed_form_1d(7.0, g)
    window = g.r <= 10.0
    err = np.max(np.abs(q[window] - exact.Q.values.real[window]))
    assert err <= 1e-8
    assert q[0] == pytest.approx(4.0 ** (1 / 6), abs=1e-9)


def test_closed_form_1d_values_and_residual():
    g = make_grid(1, 20.0, 4000)
    gp = closed_form_1d(7.0, g)
    assert gp.Q.values.real[0] == pytest.approx(4.0 ** (1 / 6), rel=1e-14)
    # substitution residual of the analytic profile
    assert gp.ode_residual <= 1e-12


def test_3d_cubic_central_value():
    assert extrapolated_ground(3, 3.0, 30.0, 1500)[0] == pytest.approx(
        Q0_3D_CUBIC, abs=2e-5)


def test_q0_stable_under_grid_doubling():
    q0 = extrapolated_ground(3, 3.0, 30.0, 1500)[0]
    q0_fine = extrapolated_ground(3, 3.0, 30.0, 3000)[0]
    assert abs(q0_fine / q0 - 1) < 1e-6


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
    rep = check_identities(gp)
    assert rep.target_pohozaev == pytest.approx(4.0 / 3.0)
    assert abs(rep.ratio_pohozaev / rep.target_pohozaev - 1) < 5e-4
    assert rep.target_mass == pytest.approx(1.0 / 3.0)
    assert abs(rep.ratio_mass / rep.target_mass - 1) < 2e-3


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
