"""Congruence by a monomial matrix (a permutation times a nonsingular diagonal).

FW_k and its dual are invariant under A -> Q^T A Q for such Q, because every
principal block goes to D_K B_K D_K up to a re-indexing; the dual pairing is
preserved when the certificate moves by Q^{-T}.  These properties pin
``scale_congruence`` to the plain matrix product and the exact verdicts to
that invariance.
"""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from factorwidth import decompose, dualcone
from factorwidth.decompose import fw_membership
from factorwidth.dualcone import dual_membership
from factorwidth.families import (
    PnaSpec,
    example_m_fixtures,
    pna_form,
    pna_threshold,
    sobs_comparison,
)
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


@pytest.mark.parametrize("kind", ["permutation", "powers_of_two", "both"])
def test_qprime_seed_is_invariant(kind):
    # both maps keep the nonzero pattern up to relabelling, so the seed keeps
    # its 39 k-cliques and the member stays a member
    Q = example_m_fixtures().Qprime
    perm = np.eye(15)[:, np.random.default_rng(3).permutation(15)]
    diag = np.diag([2.0 ** (i % 3 - 1) for i in range(15)])
    M = {"permutation": perm, "powers_of_two": diag, "both": perm @ diag}[kind]
    v = fw_membership(scale_congruence(Q, M), 4)
    assert v.status == "member"
    assert v.diagnostics["seed_supports"] == 39


@st.composite
def _width_two_case(draw):
    """A unit-diagonal float matrix, off-diagonal entries multiples of 1/8 in
    [-1, 1] (zero about half the time), whose comparison matrix lies more
    than 1e-6 from singular; with a permutation and power-of-two scales in
    [1/2, 2].  That congruence is exact in floats, and for n <= 6 it keeps
    the comparison matrix's least eigenvalue (at least a quarter of the
    unit-frame one in size) beyond the closed form's 1e-8 ||A||_F."""
    n = draw(st.integers(2, 6))
    a = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            a[i, j] = a[j, i] = draw(st.just(0) | st.integers(-8, 8)) / 8
    comp = 2 * np.eye(n) - np.abs(a)
    assume(abs(np.linalg.eigvalsh(comp)[0]) > 1e-6)
    rows = draw(st.permutations(range(n)))
    d = [2.0 ** e for e in draw(st.lists(st.integers(-1, 1), min_size=n,
                                         max_size=n))]
    return SymMatrix.from_array(a), rows, d


@seed(20261019)
@given(_width_two_case())
@_SETTINGS
def test_width_two_verdict_is_the_comparison_oracle(case):
    # members never reach the certificate gate, non-members reach it once,
    # and no draw runs a splitting iteration
    A, rows, d = case
    B = scale_congruence(A, _matrix(A.n, rows, d))
    gate, calls = dualcone.verify_candidate, []

    def spy(*args):
        calls.append(args)
        return gate(*args)

    def no_projection(*args):
        raise AssertionError("a splitting iteration ran at k = 2")

    verdicts = []
    with mock.patch.object(dualcone, "verify_candidate", spy), \
            mock.patch.object(decompose, "_project_psd", no_projection):
        for M in (A, B):
            calls.clear()
            v = fw_membership(M, 2)
            assert v.status == ("member" if sobs_comparison(M).is_sobs
                                else "non_member")
            assert len(calls) == (v.status == "non_member")
            verdicts.append(v.status)
    assert verdicts[0] == verdicts[1]


@seed(20261020)
@given(_width_two_case(), st.sampled_from([520, 560, 600, 1000]),
       st.sampled_from([1, -1]))
@_SETTINGS
def test_width_two_verdict_is_invariant_under_positive_scaling(case, e, sign):
    # 2^e A is exact in floats, and FW_2 is a cone; far from 1 no norm may
    # overflow or underflow on the way to the closed-form verdict
    A, rows, d = case
    B = scale_congruence(A, _matrix(A.n, rows, d))
    v = fw_membership(SymMatrix.from_array(np.ldexp(B.as_array(), sign * e)),
                      2)
    assert v.status == fw_membership(B, 2).status
    assert v.diagnostics["iterations"] == 0
    assert "comparison_fallback" not in v.diagnostics


@st.composite
def _wide_member_or_not(draw):
    """``(a, k, status)`` at k >= 3, away from the tolerance band: the
    family J + (a - 1)I at 0.9 (non-member) or 1.1 (member) of its width-k
    threshold, or a member by construction, a sum of 1-4 rank-1 blocks w w^T
    with integer weights in [-3, 3] on k-subsets of range(n)."""
    n = draw(st.integers(4, 6))
    k = draw(st.integers(3, n - 1))
    if draw(st.booleans()):
        f = draw(st.sampled_from([0.9, 1.1]))
        a = pna_form(PnaSpec(n, f * float(pna_threshold(n, k)))).Q
        return a.as_array(), k, "member" if f > 1 else "non_member"
    a = np.zeros((n, n))
    for _ in range(draw(st.integers(1, 4))):
        K = sorted(draw(st.sets(st.integers(0, n - 1), min_size=k,
                                max_size=k)))
        w = draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k))
        a[np.ix_(K, K)] += np.outer(w, w)
    assume(a.any())
    return a, k, "member"


@seed(20261021)
@given(_wide_member_or_not(),
       st.floats(1e-4, 1e4).filter(lambda c: math.log2(c) % 2 != 0))
@_SETTINGS
def test_status_is_invariant_under_positive_scaling(case, c):
    # FW_k is a cone; c is not a power of 4, which the diagonal congruence
    # 2^e I already covers, so c A is rounded in floats
    a, k, status = case
    assert fw_membership(SymMatrix.from_array(a), k).status == status
    assert fw_membership(SymMatrix.from_array(c * a), k).status == status


@seed(20261022)
@given(st.integers(2, 6), st.integers(0, 2 ** 32 - 1), st.booleans())
@_SETTINGS
def test_full_width_agrees_with_is_psd(n, s, indefinite):
    # FW_n is the psd cone; every eigenvalue is at least 1/2 away from 0
    rng = np.random.default_rng(s)
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    lam = rng.uniform(0.5, 3.0, n)
    if indefinite:
        lam[rng.integers(n)] *= -1.0
    A = SymMatrix.from_array((q * lam) @ q.T)
    assert is_psd(A).is_psd == (not indefinite)
    assert fw_membership(A, n).status == ("non_member" if indefinite
                                          else "member")
