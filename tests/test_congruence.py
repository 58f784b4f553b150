"""Congruence by a monomial matrix (a permutation times a nonsingular diagonal).

FW_k and its dual are invariant under A -> Q^T A Q for such Q, because every
principal block goes to D_K B_K D_K up to a re-indexing; the dual pairing is
preserved when the certificate moves by Q^{-T}.  These properties pin
``scale_congruence`` to the plain matrix product and the exact verdicts to
that invariance.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorwidth.dualcone import dual_membership
from factorwidth.families import sobs_comparison
from factorwidth.symcore import (
    SymMatrix,
    frobenius_inner,
    is_psd,
    scale_congruence,
)

_SETTINGS = settings(max_examples=60, deadline=None)


def _rationals(lo, hi, den=4):
    return st.builds(Fraction, st.integers(lo, hi), st.integers(1, den))


@st.composite
def _sym(draw, n):
    """An exact symmetric matrix whose small blocks are psd about half the
    time: the diagonal is drawn from a wider, nonnegative range."""
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = draw(_rationals(0, 12))
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = draw(_rationals(-6, 6))
    return SymMatrix.from_rows(rows)


@st.composite
def _monomial(draw, n):
    """``(rows, d)``: column ``j`` of Q holds ``d[j]`` in row ``rows[j]``;
    the scales are nonzero rationals of either sign."""
    rows = draw(st.permutations(range(n)))
    d = draw(st.lists(_rationals(-4, 4).filter(bool), min_size=n, max_size=n))
    return rows, d


def _matrix(n, rows, d):
    q = [[0] * n for _ in range(n)]
    for j in range(n):
        q[rows[j]][j] = d[j]
    return q


def _product(A, q):
    """``Q^T A Q`` as an object-array matrix product."""
    qa = np.array(q, dtype=object)
    return SymMatrix.from_rows((qa.T.dot(A.entries).dot(qa)).tolist())


@st.composite
def _case(draw, count=1):
    n = draw(st.integers(1, 5))
    rows, d = draw(_monomial(n))
    return (n, rows, d) + tuple(draw(_sym(n)) for _ in range(count))


@given(_case())
@_SETTINGS
def test_equals_the_matrix_product(case):
    n, rows, d, A = case
    q = _matrix(n, rows, d)
    out = scale_congruence(A, q)
    assert out.is_exact
    assert out == _product(A, q)
    # float nonzeros give the same values, as a float matrix unless every
    # nonzero is 1 (a permutation re-indexes A's exact entries)
    outf = scale_congruence(A, [[float(v) for v in row] for row in q])
    assert outf.is_exact == all(v == 1 for v in d)
    assert np.allclose(outf.as_array(), out.as_array(), rtol=1e-12, atol=0)


@given(_case(), st.data())
@_SETTINGS
def test_rejects_a_non_monomial_matrix(case, data):
    n, rows, d, A = case
    q = _matrix(n, rows, d)
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    if q[i][j] == 0:
        q[i][j] = 1  # a second nonzero in row i and in column j
    else:
        q[i][j] = 0  # an empty row i and column j
    with pytest.raises(ValueError):
        scale_congruence(A, q)


def test_rejects_a_wrong_shape():
    A = SymMatrix.identity(2)
    for q in ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 0]], [[1, 0], [0]]):
        with pytest.raises(ValueError):
            scale_congruence(A, q)


@given(_case(), st.data())
@_SETTINGS
def test_exact_verdicts_are_invariant(case, data):
    n, rows, d, A = case
    B = scale_congruence(A, _matrix(n, rows, d))
    k = data.draw(st.integers(1, n))
    assert (dual_membership(B, k, 0).is_member
            == dual_membership(A, k, 0).is_member)
    assert is_psd(B, 0).is_psd == is_psd(A, 0).is_psd
    assert sobs_comparison(B).is_sobs == sobs_comparison(A).is_sobs


@given(_case(count=2))
@_SETTINGS
def test_pairing_is_preserved_exactly(case):
    # Q^{-T} has the same nonzero pattern with every scale inverted
    n, rows, d, A, B = case
    inv = _matrix(n, rows, [1 / v for v in d])
    pairing = frobenius_inner(scale_congruence(A, _matrix(n, rows, d)),
                              scale_congruence(B, inv))
    assert isinstance(pairing, Fraction)
    assert pairing == frobenius_inner(A, B)
