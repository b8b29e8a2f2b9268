import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlslab.errors import GridMismatchError, InvalidParameterError
from nlslab.grid import (Field, integrate, laplacian_apply, make_grid, norms,
                         omega_n, radial_operator, read_field_csv,
                         write_field_csv)


def test_make_grid_1d_weights():
    g = make_grid(1, 20.0, 2000)
    assert g.h == pytest.approx(0.01)
    assert np.allclose(g.w[1:-1], 2 * g.h)
    assert g.w[0] == pytest.approx(g.h)


def test_weight_sum_is_ball_volume():
    g = make_grid(3, 20.0, 2000)
    vol = 4 * math.pi * 20.0**3 / 3
    assert abs(g.w.sum() / vol - 1) < 1e-4


@pytest.mark.parametrize("bad", [(0, 20.0, 100), (3, -1.0, 100), (3, 20.0, 8),
                                 (2.5, 20.0, 100)])
def test_make_grid_rejects_bad_parameters(bad):
    with pytest.raises(InvalidParameterError):
        make_grid(*bad)


def test_integrate_exponential_1d():
    # the even extension of e^{-r} has a corner at 0, so the trapezoid
    # error is a genuine O(h^2); 1e-8 needs h ~ 1e-4 (integrate is O(n))
    g = make_grid(1, 30.0, 250000)
    f = Field(g, np.exp(-g.r))
    # int_R e^{-2|x|} dx = 1
    assert integrate(f, lambda v: np.abs(v) ** 2) == pytest.approx(1.0, abs=1e-8)


def test_integrate_gaussian_3d():
    g = make_grid(3, 20.0, 2000)
    f = Field(g, np.exp(-g.r**2))
    assert integrate(f) == pytest.approx(math.pi**1.5, abs=1e-8)


def test_integrate_zero():
    g = make_grid(2, 10.0, 100)
    assert integrate(Field(g, np.zeros(101))) == 0.0


def test_quadrature_polynomial_exactness():
    # r^k, k <= 2, against the radial measure, to relative O(h^2)
    for N in (1, 2, 3):
        g = make_grid(N, 5.0, 500)
        for k in (0, 1, 2):
            f = Field(g, g.r**k + 0j)
            exact = omega_n(N) * 5.0 ** (k + N) / (k + N)
            assert abs(integrate(f) / exact - 1) < 5 * g.h**2


def test_laplacian_r_squared():
    g = make_grid(3, 10.0, 500)
    f = Field(g, g.r**2 + 0j)
    lap = laplacian_apply(f).values.real
    # interior nodes away from the pinned boundary see Delta r^2 = 2N
    assert np.allclose(lap[:-2], 6.0, atol=1e-8)


def test_laplacian_constant_zero():
    g = make_grid(2, 10.0, 400)
    f = Field(g, np.full(401, 3.7))
    lap = laplacian_apply(f).values.real
    assert np.max(np.abs(lap[:-2])) < 1e-10


def test_laplacian_gaussian_1d():
    g = make_grid(1, 15.0, 3000)
    f = Field(g, np.exp(-g.r**2))
    lap = laplacian_apply(f).values.real
    exact = (4 * g.r**2 - 2) * np.exp(-g.r**2)
    assert np.max(np.abs(lap[:-2] - exact[:-2])) < 10 * g.h**2


def test_laplacian_refinement_second_order():
    errs = []
    for n in (400, 800):
        g = make_grid(3, 10.0, n)
        f = Field(g, np.exp(-g.r**2))
        lap = laplacian_apply(f).values.real
        exact = (4 * g.r**2 - 2 * 3) * np.exp(-g.r**2)
        errs.append(np.max(np.abs(lap[: n // 2] - exact[: n // 2])))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6])
def test_laplacian_self_adjoint_under_radial_measure(N):
    g = make_grid(N, 20.0, 800)
    # rows start at the origin exactly when the origin cell has weight
    assert (radial_operator(g).first == 0) == (g.w[0] > 0)
    f = Field(g, np.exp(-g.r**2) * (1 + g.r))
    h = Field(g, np.exp(-((g.r - 2) ** 2)))
    lhs = integrate(Field(g, laplacian_apply(f).values * h.values))
    rhs = integrate(Field(g, laplacian_apply(h).values * f.values))
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


def test_n3_rows_are_the_centered_stencil():
    """At N = 3 the geometric faces r_i r_{i+1} give the centered stencil
    (f_{i+1} - 2 f_i + f_{i-1})/h^2 + (f_{i+1} - f_{i-1})/(r_i h) on the
    rows 1..n-1: (i -+ 1)/(i h^2) off the diagonal, -2/h^2 on it.  The
    bands and this oracle round differently, by at most 3 ulp."""
    g = make_grid(3, 30.0, 1500)
    op = radial_operator(g)
    h, i = g.h, np.arange(1, g.n, dtype=float)
    assert op.first == 1
    for band, oracle in ((op.lap.sub, ((i - 1) / (i * h**2))[1:]),
                         (op.lap.sup, ((i + 1) / (i * h**2))[:-1]),
                         (op.lap.diag, np.full(i.size, -2 / h**2))):
        assert np.all(np.abs(band - oracle) <= 4 * np.spacing(np.abs(oracle)))


def test_norms_zero_field():
    g = make_grid(2, 10.0, 100)
    nm = norms(Field(g, np.zeros(101)), lp_exponent=4)
    assert nm.l2 == nm.grad_l2 == nm.h1 == nm.lp == nm.linf == 0.0


def test_norms_exponential_1d():
    # e^{-|x|} has a corner at 0: the L2 norm converges at O(h^2) but the
    # centered-difference gradient norm only at O(h) (the kink cell)
    g = make_grid(1, 30.0, 100000)
    nm = norms(Field(g, np.exp(-g.r)))
    assert nm.l2**2 == pytest.approx(1.0, abs=1e-6)
    assert nm.grad_l2**2 == pytest.approx(1.0, abs=5e-4)


def test_grad_norm_matches_integration_by_parts():
    g = make_grid(3, 20.0, 2000)
    f = Field(g, np.exp(-g.r**2))
    nm = norms(f)
    ibp = -integrate(Field(g, np.conj(f.values) * laplacian_apply(f).values))
    assert nm.grad_l2**2 == pytest.approx(ibp, rel=1e-4)


def test_field_length_mismatch():
    g = make_grid(1, 10.0, 100)
    with pytest.raises(GridMismatchError):
        Field(g, np.zeros(100))


def test_field_real_flag():
    g = make_grid(1, 10.0, 100)
    with pytest.raises(InvalidParameterError):
        Field(g, np.full(101, 1j), real=True)


def test_field_csv_bytes_match_savetxt(tmp_path):
    g = make_grid(1, 10.0, 64)
    vals = np.exp(-g.r) * (1 + 0.5j * g.r)
    vals[[1, 2, 3, 4]] = [-0.0, 5e-324, 1e300 - 2.5e-310j, np.nan + 1j * -0.0]
    path = tmp_path / "f.csv"
    write_field_csv(Field(g, vals), path)
    oracle = tmp_path / "oracle.csv"
    np.savetxt(oracle, np.column_stack([g.r, vals.real, vals.imag]), fmt="%.17g",
               delimiter=",", header="r,re,im", comments="")
    assert path.read_bytes() == oracle.read_bytes()


@settings(max_examples=60, deadline=None)
@given(parts=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                      min_size=34, max_size=34),
       N=st.integers(1, 5), rmax=st.floats(0.5, 1e4))
def test_snapshot_template_bytes_match_savetxt(tmp_path_factory, parts, N, rmax):
    """Finite parts of any exponent, +-0 and subnormals included."""
    g = make_grid(N, rmax, 16)
    vals = np.array(parts).view(np.complex128)     # keeps a -0.0 imaginary part
    d = tmp_path_factory.mktemp("csv")
    write_field_csv(Field(g, vals), d / "f.csv")
    np.savetxt(d / "oracle.csv", np.column_stack([g.r, vals.real, vals.imag]),
               fmt="%.17g", delimiter=",", header="r,re,im", comments="")
    assert (d / "f.csv").read_bytes() == (d / "oracle.csv").read_bytes()


def test_field_csv_roundtrip(tmp_path):
    g = make_grid(2, 10.0, 64)
    f = Field(g, np.exp(-g.r) * (1 + 0.5j * g.r))
    path = tmp_path / "f.csv"
    write_field_csv(f, path)
    assert path.read_text().splitlines()[0] == "r,re,im"
    back = read_field_csv(path, g)
    assert np.allclose(back.values, f.values, rtol=0, atol=1e-15)


@settings(max_examples=25, deadline=None)
@given(a=st.floats(-5, 5), b=st.floats(-5, 5))
def test_integrate_is_linear(a, b):
    g = make_grid(1, 10.0, 128)
    f1 = np.exp(-g.r)
    f2 = np.exp(-g.r**2)
    lhs = integrate(Field(g, a * f1 + b * f2))
    rhs = a * integrate(Field(g, f1)) + b * integrate(Field(g, f2))
    assert lhs == pytest.approx(rhs, abs=1e-9)
