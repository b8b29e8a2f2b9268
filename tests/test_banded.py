import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded

from nlslab.banded import Tridiag
from nlslab.errors import InvalidParameterError, NlslabError, SingularSystemError
from oracles import sturm_count


def dense(t):
    return np.diag(t.diag) + np.diag(t.sup, 1) + np.diag(t.sub, -1)


def symmetric(diag, off):
    off = np.asarray(off[:len(diag) - 1], dtype=float)
    return Tridiag(off, np.asarray(diag, dtype=float), off)


@settings(max_examples=200, deadline=None)
@given(diag=st.lists(st.integers(-3, 3), min_size=1, max_size=12),
       off=st.lists(st.integers(-3, 3), min_size=11, max_size=11),
       scale=st.sampled_from([1.0, 0.37, 1e-3, 1e3]))
def test_sturm_count_matches_eigvalsh(diag, off, scale):
    """Small integer bands make exactly zero pivots frequent (e.g. a zero
    first diagonal entry); singular matrices have no strict count."""
    t = symmetric(np.multiply(diag, scale), np.multiply(off, scale))
    eig = np.linalg.eigvalsh(dense(t))
    assume(np.min(np.abs(eig)) > 1e-9 * scale)
    assert t.count_negative() == np.count_nonzero(eig < 0)


@pytest.mark.parametrize("diag, off, negative", [
    ([0.0, 0.0], [1.0], 1),                        # pivot 0 in the first row
    ([1.0, 1.0, -1.0], [1.0, 1.0], 1),             # 1 - 1^2/1 = 0 in the second
    ([1.0, 1.0, 2.0, -3.0], [1.0, 2.0, 1.0], 2),
])
def test_sturm_count_through_an_exactly_zero_pivot(diag, off, negative):
    t = symmetric(diag, off)
    assert np.count_nonzero(np.linalg.eigvalsh(dense(t)) < 0) == negative
    assert t.count_negative() == negative


band = st.sampled_from([0.0, 1.0, -1.0, 2.0, -0.5, 1e-200, 3.7, -1e5])


@settings(max_examples=300, deadline=None)
@given(diag=st.lists(band | st.floats(-10, 10), min_size=1, max_size=39),
       off=st.lists(band | st.floats(-10, 10), min_size=38, max_size=38),
       scale=st.sampled_from([1.0, 1e-3, 1e3]))
@example(diag=[0.0] * 6, off=[0.0] * 4 + [5.705581124211873e-162] + [0.0] * 33,
         scale=1.0)  # dstebz splits T at a nonzero coupling below tiny
@example(diag=[2.2250738585072014e-308, 1.0, 2.0], off=[0.0, 1.0] + [0.0] * 36,
         scale=1.0)  # a one-row block whose diagonal is pivmin
def test_sturm_count_matches_the_pivot_loop(diag, off, scale):
    """LAPACK's count equals the pivot loop it replaces on any matrix,
    singular ones included: exactly zero pivots, zero couplings, an
    all-zero diagonal and a single row."""
    t = symmetric(np.multiply(diag, scale), np.multiply(off, scale))
    assert t.count_negative() == sturm_count(t.diag, t.sub)


def oracle(t, rhs):
    """scipy's solve_banded on the (1, 1) band layout of t."""
    ab = np.zeros((3, t.m), dtype=np.result_type(t.sub, t.diag, t.sup))
    ab[0, 1:] = t.sup
    ab[1] = t.diag
    ab[2, :-1] = t.sub
    return solve_banded((1, 1), ab, rhs)


entries = st.floats(-4.0, 4.0, allow_subnormal=False)


@st.composite
def systems(draw):
    """A real or complex tridiagonal T and a 1-D or 2-D right-hand side; a
    tiny diagonal makes the LU pivot on the sub-diagonal.  A 2-D rhs is
    the transpose of a row stack, like the constraint block of
    ``linearized._constrained_count``."""
    m = draw(st.integers(3, 12))
    cplx = draw(st.booleans())

    def vec(k):
        v = np.array(draw(st.lists(entries, min_size=k, max_size=k)))
        if cplx:
            v = v + 1j * np.array(draw(st.lists(entries, min_size=k, max_size=k)))
        return v

    scale = draw(st.sampled_from([1.0, 1e-3, 1e-12]))
    t = Tridiag(vec(m - 1), scale * vec(m), vec(m - 1))
    cols = draw(st.sampled_from([0, 1, 2]))
    rhs = vec(m) if cols == 0 else np.array([vec(m) for _ in range(cols)]).T
    return t, rhs


@settings(max_examples=300, deadline=None)
@given(system=systems())
def test_solve_is_bit_identical_to_solve_banded(system):
    t, rhs = system
    before = rhs.copy()
    try:
        want = oracle(t, rhs)
    except np.linalg.LinAlgError:
        want = None
    # a subnormal pivot overflows solve_banded to inf and NaN
    if want is None or not np.isfinite(want).all():
        for _ in range(2):                                      # kept factors
            with pytest.raises(SingularSystemError):
                t.solve(rhs)
        return
    assert np.array_equal(t.solve(rhs), want)
    assert np.array_equal(t.solve(rhs), want)                   # kept factors
    assert np.array_equal(rhs, before)


def test_singular_matrix_raises():
    # rows 0 and 1 are proportional: the second pivot is exactly 0
    t = Tridiag(np.array([2.0, 0.0]), np.array([1.0, 4.0, 1.0]), np.array([2.0, 0.0]))
    with pytest.raises(SingularSystemError):
        t.solve(np.ones(3))


@pytest.mark.parametrize("where", ["rhs", "diag"])
def test_non_finite_input_raises(where):
    diag, rhs = np.full(4, 3.0), np.ones(4)
    {"rhs": rhs, "diag": diag}[where][2] = np.nan
    t = Tridiag(np.ones(3), diag, np.ones(3))
    with pytest.raises(ValueError):
        t.solve(rhs)


def test_complex_rhs_on_a_real_matrix_keeps_its_imaginary_part():
    t = Tridiag(np.ones(4), np.full(5, 3.0), -np.ones(4))
    rhs = np.arange(5.0) + 1j * np.arange(5.0, 0.0, -1.0)
    x = t.solve(rhs)
    assert np.array_equal(x, oracle(t, rhs))
    assert np.allclose(t.apply(x), rhs, rtol=0, atol=1e-14)
    assert np.array_equal(t.solve(rhs.real), oracle(t, rhs.real))


def test_solve_needs_three_rows():
    with pytest.raises(InvalidParameterError):
        Tridiag(np.ones(1), np.full(2, 3.0), np.ones(1)).solve(np.ones(2))


def test_non_finite_rhs_names_the_rhs():
    t = Tridiag(np.ones(3), np.full(4, 3.0), np.ones(3))
    rhs = np.array([1.0, np.inf, 0.0, 1.0]) * (1 + 1j)
    with pytest.raises(NlslabError, match="right-hand side") as exc:
        t.solve(rhs)
    assert isinstance(exc.value, InvalidParameterError)
