import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nlslab.banded import Tridiag


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
