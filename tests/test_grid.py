import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlslab.errors import GridMismatchError, InvalidParameterError
from nlslab.grid import (Field, h1_norm, make_grid, omega_n, read_field_csv,
                         write_field_csv)
from nlslab.ground import observables


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
    # error is a genuine O(h^2); 1e-8 needs h ~ 1e-4 (quadrature is O(n))
    g = make_grid(1, 30.0, 250000)
    f = Field(g, np.exp(-g.r))
    # int_R e^{-2|x|} dx = 1
    assert np.dot(g.w, np.abs(f.values) ** 2) == pytest.approx(1.0, abs=1e-8)


def test_integrate_gaussian_3d():
    g = make_grid(3, 20.0, 2000)
    assert np.dot(g.w, np.exp(-g.r**2)) == pytest.approx(math.pi**1.5, abs=1e-8)


def test_integrate_zero():
    g = make_grid(2, 10.0, 100)
    assert np.dot(g.w, np.zeros(101)) == 0.0


def test_quadrature_polynomial_exactness():
    # r^k, k <= 2, against the radial measure, to relative O(h^2)
    for N in (1, 2, 3):
        g = make_grid(N, 5.0, 500)
        for k in (0, 1, 2):
            exact = omega_n(N) * 5.0 ** (k + N) / (k + N)
            assert abs(np.dot(g.w, g.r**k) / exact - 1) < 5 * g.h**2


def test_laplacian_r_squared():
    g = make_grid(3, 10.0, 500)
    f = Field(g, g.r**2 + 0j)
    lap = g.laplacian(f.values).real
    # interior nodes away from the pinned boundary see Delta r^2 = 2N
    assert np.allclose(lap[:-2], 6.0, atol=1e-8)


def test_laplacian_constant_zero():
    g = make_grid(2, 10.0, 400)
    f = Field(g, np.full(401, 3.7))
    lap = g.laplacian(f.values).real
    assert np.max(np.abs(lap[:-2])) < 1e-10


def test_laplacian_gaussian_1d():
    g = make_grid(1, 15.0, 3000)
    f = Field(g, np.exp(-g.r**2))
    lap = g.laplacian(f.values).real
    exact = (4 * g.r**2 - 2) * np.exp(-g.r**2)
    assert np.max(np.abs(lap[:-2] - exact[:-2])) < 10 * g.h**2


def test_laplacian_refinement_second_order():
    errs = []
    for n in (400, 800):
        g = make_grid(3, 10.0, n)
        f = Field(g, np.exp(-g.r**2))
        lap = g.laplacian(f.values).real
        exact = (4 * g.r**2 - 2 * 3) * np.exp(-g.r**2)
        errs.append(np.max(np.abs(lap[: n // 2] - exact[: n // 2])))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6])
def test_laplacian_self_adjoint_under_radial_measure(N):
    g = make_grid(N, 20.0, 800)
    # rows start at the origin exactly when the origin cell has weight
    assert (g.first == 0) == (g.w[0] > 0)
    f = Field(g, np.exp(-g.r**2) * (1 + g.r))
    h = Field(g, np.exp(-((g.r - 2) ** 2)))
    lhs = np.dot(g.w, (g.laplacian(f.values) * h.values).real)
    rhs = np.dot(g.w, (g.laplacian(h.values) * f.values).real)
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


def test_n3_rows_are_the_centered_stencil():
    """At N = 3 the geometric faces r_i r_{i+1} give the centered stencil
    (f_{i+1} - 2 f_i + f_{i-1})/h^2 + (f_{i+1} - f_{i-1})/(r_i h) on the
    rows 1..n-1: (i -+ 1)/(i h^2) off the diagonal, -2/h^2 on it.  The
    bands and this oracle round differently, by at most 3 ulp."""
    g = make_grid(3, 30.0, 1500)
    h, i = g.h, np.arange(1, g.n, dtype=float)
    assert g.first == 1
    for band, oracle in ((g.lap.sub, ((i - 1) / (i * h**2))[1:]),
                         (g.lap.sup, ((i + 1) / (i * h**2))[:-1]),
                         (g.lap.diag, np.full(i.size, -2 / h**2))):
        assert np.all(np.abs(band - oracle) <= 4 * np.spacing(np.abs(oracle)))


def test_norms_zero_field():
    g = make_grid(2, 10.0, 100)
    f = Field(g, np.zeros(101))
    obs = observables(f, 3.0)
    assert obs.mass == obs.grad2 == h1_norm(f) == 0.0


def test_norms_exponential_1d():
    # e^{-|x|} has a corner at 0: the L2 norm converges at O(h^2) but the
    # centered-difference gradient norm only at O(h) (the kink cell)
    g = make_grid(1, 30.0, 100000)
    obs = observables(Field(g, np.exp(-g.r)), 3.0)
    assert obs.mass == pytest.approx(1.0, abs=1e-6)
    assert obs.grad2 == pytest.approx(1.0, abs=5e-4)


def test_grad_norm_matches_integration_by_parts():
    g = make_grid(3, 20.0, 2000)
    f = Field(g, np.exp(-g.r**2))
    ibp = -np.dot(g.w, (np.conj(f.values) * g.laplacian(f.values)).real)
    assert observables(f, 3.0).grad2 == pytest.approx(ibp, rel=1e-4)


def test_field_length_mismatch():
    g = make_grid(1, 10.0, 100)
    with pytest.raises(GridMismatchError):
        Field(g, np.zeros(100))


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
def test_field_csv_bytes_match_savetxt_for_any_parts(tmp_path_factory, parts, N, rmax):
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
    lhs = np.dot(g.w, a * f1 + b * f2)
    rhs = a * np.dot(g.w, f1) + b * np.dot(g.w, f2)
    assert lhs == pytest.approx(rhs, abs=1e-9)
