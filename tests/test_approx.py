import math

import numpy as np
import pytest

from nlslab.approx import (build_Vk, eval_V, expand_R, lp_mul, lp_pow_frac,
                           pointwise_R, residual_rate, residual_values)
from nlslab.errors import GridMismatchError, ValidityError
from nlslab.grid import Field, make_grid


def poly_from(grid, K, coeff_map):
    p = np.zeros((K + 1, grid.n + 1), dtype=complex)
    for j, vals in coeff_map.items():
        p[j] = vals
    return p


@pytest.fixture()
def small_grid():
    return make_grid(3, 10.0, 64)


def test_lp_mul_difference_of_squares(small_grid):
    g = small_grid
    f = np.exp(-g.r)
    one_plus = poly_from(g, 2, {0: np.ones(g.n + 1), 1: f})
    one_minus = poly_from(g, 2, {0: np.ones(g.n + 1), 1: -f})
    prod = lp_mul(one_plus, one_minus)
    assert np.allclose(prod[0], 1.0)
    assert np.allclose(prod[1], 0.0)
    assert np.allclose(prod[2], -f**2)


def test_lp_mul_zero(small_grid):
    g = small_grid
    a = poly_from(g, 3, {1: np.exp(-g.r)})
    z = poly_from(g, 3, {})
    assert np.all(lp_mul(a, z) == 0)


def test_lp_mul_associative(small_grid, rng):
    g = small_grid
    polys = []
    for _ in range(3):
        cm = {j: rng.standard_normal(g.n + 1) + 1j * rng.standard_normal(g.n + 1)
              for j in range(4)}
        polys.append(poly_from(g, 3, cm))
    a, b, c = polys
    left = lp_mul(lp_mul(a, b), c)
    right = lp_mul(a, lp_mul(b, c))
    assert np.allclose(left, right, atol=1e-12)


def test_lp_pow_integer(small_grid):
    g = small_grid
    f = np.exp(-g.r**2)
    w = poly_from(g, 2, {1: f})
    sq = lp_pow_frac(2.0, w)
    assert np.allclose(sq[0], 1.0)
    assert np.allclose(sq[1], 2 * f)
    assert np.allclose(sq[2], f**2)


def test_lp_pow_half_roundtrip(small_grid):
    g = small_grid
    f = 0.3 * np.exp(-g.r**2)
    w = poly_from(g, 4, {1: f, 2: 0.1 * f})
    root = lp_pow_frac(0.5, w)
    back = lp_mul(root, root)
    expect = poly_from(g, 4, {0: np.ones(g.n + 1), 1: f, 2: 0.1 * f})
    assert np.allclose(back, expect, atol=1e-10)


def test_lp_pow_terminates_for_p3(small_grid):
    # s = (p+1)/2 = 2 at p = 3: binom(2, m) = 1, 2, 1, 0, ...
    g = small_grid
    f = np.exp(-g.r)
    w = poly_from(g, 4, {1: f})
    out = lp_pow_frac(2.0, w)
    assert np.allclose(out[1], 2 * f)
    assert np.allclose(out[2], f**2)
    assert np.all(out[3] == 0) and np.all(out[4] == 0)


def test_lp_pow_requires_zero_constant(small_grid):
    g = small_grid
    w = poly_from(g, 2, {0: np.ones(g.n + 1)})
    with pytest.raises(ValidityError):
        lp_pow_frac(0.5, w)


def test_shape_guards_raise_grid_mismatch(small_grid, gp33):
    """Polynomials of different orders or grids do not combine."""
    g = small_grid
    with pytest.raises(GridMismatchError):
        lp_mul(poly_from(g, 2, {}), poly_from(g, 3, {}))
    with pytest.raises(GridMismatchError):
        expand_R(poly_from(g, 3, {1: np.exp(-g.r)}), gp33)


# ------------------------------------------------------------- expand_R

def test_expand_R_zero(gp33):
    V = poly_from(gp33.grid, 3, {})
    R = expand_R(V, gp33)
    assert np.max(np.abs(R)) == 0.0


def test_expand_R_low_coefficients_vanish(gp33, spec33):
    V = poly_from(gp33.grid, 3, {1: 0.5 * spec33.y_plus_values()})
    R = expand_R(V, gp33)
    assert np.max(np.abs(R[0])) < 1e-12
    assert np.max(np.abs(R[1])) < 1e-12


def test_expand_R_matches_pointwise_evaluation(gp33, spec33, sol33):
    """Series evaluated at lambda = e^{-e0 t} = 0.1 against direct pointwise R.

    At p = 3 the J-series terminates at total degree 3, so truncating at
    K = 3k makes the lambda-expansion of R(V_k) exact and the comparison
    is roundoff-level."""
    k = 3
    V = poly_from(gp33.grid, 3 * k + 1,
                  {j: sol33.Z[j].values for j in range(1, k + 1)})
    Rpoly = expand_R(V, gp33)
    t = math.log(10.0) / sol33.e0
    lam = math.exp(-sol33.e0 * t)
    direct = pointwise_R(eval_V(sol33, t), gp33)
    series = lam ** np.arange(len(Rpoly)) @ Rpoly
    q = gp33.Q.values.real
    trusted = q >= 1e-10 * q[0]
    assert np.max(np.abs(series[trusted] - direct[trusted])) <= 1e-8


def test_expand_R_p3_is_polynomial_identity(gp33, rng):
    """At p = 3: R(f) = 2Q|f|^2 + Q fbar... expanded by hand:
    |Q+f|^2 (Q+f) - Q^3 - 3Q^2 f1 - i Q^2 f2 = Q(2|f|^2 + f^2) + |f|^2 f."""
    g = gp33.grid
    q = gp33.Q.values.real
    f = (rng.standard_normal(g.n + 1) + 1j * rng.standard_normal(g.n + 1)) \
        * np.exp(-g.r**2) * 0.1
    direct = pointwise_R(f, gp33)
    byhand = q * (2 * np.abs(f) ** 2 + f**2) + np.abs(f) ** 2 * f
    assert np.allclose(direct, byhand, atol=1e-12)
    # and the lambda-expansion reproduces it coefficient-exactly
    V = poly_from(g, 3, {1: f})
    R = expand_R(V, gp33)
    trusted = q >= 1e-10 * q[0]
    assert np.allclose(R[2][trusted],
                       (q * (2 * np.abs(f) ** 2 + f**2))[trusted], atol=1e-10)
    assert np.allclose(R[3][trusted], (np.abs(f) ** 2 * f)[trusted],
                       atol=1e-10)


# ------------------------------------------------------------- build_Vk

def test_build_A_zero(spec33, ops33):
    sol = build_Vk(0.0, 3, spec33, ops33)
    for j in range(1, 4):
        assert np.all(sol.Z[j].values == 0)
    assert sol.t_min == 0.0
    # R(0) evaluates |Q|^{p-1}Q - Q^p, zero up to one ulp of Q^p
    assert np.max(np.abs(residual_values(sol, 1.0))) <= 1e-12


def test_Z1_is_A_times_Yplus(spec33, ops33):
    sol = build_Vk(2.5, 1, spec33, ops33)
    assert np.array_equal(sol.Z[1].values, 2.5 * spec33.y_plus_values())


def test_Z2_scales_quadratically(spec33, ops33):
    a = build_Vk(1.0, 2, spec33, ops33)
    b = build_Vk(2.0, 2, spec33, ops33)
    assert np.allclose(b.Z[2].values, 4.0 * a.Z[2].values, rtol=1e-10, atol=1e-12)


def test_prefix_independence(spec33, ops33, sol33):
    shorter = build_Vk(1.0, 2, spec33, ops33)
    for j in (1, 2):
        assert np.array_equal(shorter.Z[j].values, sol33.Z[j].values)


def test_conjugation_symmetry(gp33, ops33, sol33):
    """conj(Z_j) solves the conjugate flow dV/dt - script_L V = -i R(V)
    (Y- is the -e0 eigenfunction, so the conjugated profiles cannot feed
    the original recursion; conjugating the whole system is the symmetry
    that does hold)."""
    k = sol33.k
    V = poly_from(gp33.grid, k + 1,
                  {j: np.conj(sol33.Z[j].values) for j in range(1, k + 1)})
    eps = 1j * expand_R(V, gp33)
    for j in range(1, k + 1):
        zc = np.conj(sol33.Z[j].values)
        lz = ops33.extend(ops33.apply_script_l(
            ops33.restrict(Field(gp33.grid, zc)))).values
        eps[j] += -lz - j * sol33.e0 * zc
    scale = np.max(gp33.Q.values.real ** gp33.p)
    for j in range(1, k + 1):
        assert np.max(np.abs(ops33.op.rows(eps[j]))) <= 1e-8 * scale


def test_minus_A_homogeneity(spec33, ops33, sol33):
    """Z_j is degree-j homogeneous in A: Z_j(-A) = (-1)^j Z_j(A)."""
    neg = build_Vk(-1.0, 3, spec33, ops33)
    for j in range(1, 4):
        assert np.allclose(neg.Z[j].values, (-1.0) ** j * sol33.Z[j].values,
                           rtol=1e-12, atol=1e-13)


def test_recursion_self_consistency(gp33, ops33, sol33):
    """Re-expanding the defect of the finished V_k reproduces zeros at
    orders 2..k."""
    k = sol33.k
    V = poly_from(gp33.grid, k + 1,
                  {j: sol33.Z[j].values for j in range(1, k + 1)})
    eps = -1j * expand_R(V, gp33)
    for j in range(1, k + 1):
        lz = ops33.extend(ops33.apply_script_l(ops33.restrict(sol33.Z[j]))).values
        eps[j] += lz - j * sol33.e0 * sol33.Z[j].values
    scale = np.max(gp33.Q.values.real ** gp33.p)
    for j in range(1, k + 1):
        assert np.max(np.abs(ops33.op.rows(eps[j]))) <= 1e-8 * scale


def test_validity_window(sol33):
    assert 0 <= sol33.t_min < math.inf
    with pytest.raises(ValidityError):
        residual_rate(sol33, [sol33.t_min - 0.5, sol33.t_min, sol33.t_min + 0.5])
    with pytest.raises(ValidityError):
        residual_rate(sol33, [sol33.t_min, sol33.t_min + 0.1])  # too few


def test_residual_rates(spec33, ops33):
    e0 = spec33.e0
    for k in (1, 2):
        sol = build_Vk(1.0, k, spec33, ops33)
        times = [sol.t_min + (1.0 + 0.25 * i) / e0 for i in range(6)]
        rate = residual_rate(sol, times)
        assert rate <= -(k + 1) * e0 * 0.95
