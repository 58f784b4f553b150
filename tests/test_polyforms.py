import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from factorwidth.decompose import fw_membership
from factorwidth.polyforms import (
    GramMismatchError,
    HomogeneousPoly,
    QuadraticForm,
    default_gram,
    gram_to_poly,
    load_poly_json,
    monomial_basis,
    multiplier_gram,
    multiply_weighted_power,
    parity_aggregates,
    poly_to_json,
    quadratic_gram,
    soks_test,
)
from factorwidth import symcore
from factorwidth.symcore import (SymMatrix, frobenius_inner, is_psd,
                                 matrix_to_json)


def sympy_expand_oracle(Q: SymMatrix, lam, r):
    """Independent full symbolic expansion of (sum (lam_i x_i)^2)^r * x^T Q x."""
    n = Q.n
    xs = sympy.symbols(f"x0:{n}")
    q = sum(sympy.Rational(Fraction(Q[i, j])) * xs[i] * xs[j]
            for i in range(n) for j in range(n))
    mult = sum((sympy.Rational(Fraction(v)) * x) ** 2 for v, x in zip(lam, xs))
    p = sympy.expand(mult ** r * q)
    poly = sympy.Poly(p, *xs)
    coeffs = {}
    for mono, c in poly.terms():
        coeffs[tuple(int(e) for e in mono)] = Fraction(int(c.p), int(c.q))
    return coeffs


def random_rational_sym(rnd, n):
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = Fraction(rnd.randint(-9, 9), rnd.randint(1, 7))
            rows[i][j] = rows[j][i] = v
    return SymMatrix.from_rows(rows)


# Plain-Fraction references: one exact addition or division per Gram entry,
# the loops the integer-numerator layer must agree with.

def _ref_tuples(n, d):
    if n == 1:
        return [(d,)]
    return [(a,) + rest for a in range(d, -1, -1)
            for rest in _ref_tuples(n - 1, d - a)]


def _ref_gram_to_poly(rows, basis):
    coeffs: dict = {}
    for i, t in enumerate(basis.tuples):
        for j, u in enumerate(basis.tuples):
            key = tuple(a + b for a, b in zip(t, u))
            coeffs[key] = coeffs.get(key, Fraction(0)) + Fraction(rows[i][j])
    return {t: c for t, c in coeffs.items() if c != 0}


def _ref_default_gram(p, basis):
    ts = basis.tuples
    mono = [[tuple(a + b for a, b in zip(t, u)) for u in ts] for t in ts]
    pairs: dict = {}
    for i in range(len(ts)):
        for j in range(i, len(ts)):
            pairs[mono[i][j]] = pairs.get(mono[i][j], 0) + 1
    return [[Fraction(p.coefficients.get(mono[i][j], 0))
             / (pairs[mono[i][j]] * (1 if i == j else 2))
             for j in range(len(ts))] for i in range(len(ts))]


def _ref_multiplier_gram(rows, lam, r):
    n = len(rows)
    basis = monomial_basis(n, r + 1)
    out = [[Fraction(0)] * len(basis) for _ in range(len(basis))]
    for alpha in _ref_tuples(n, r):
        w = Fraction(math.factorial(r),
                     math.prod(math.factorial(a) for a in alpha))
        for i in range(n):
            w *= Fraction(lam[i]) ** (2 * alpha[i])
        pos = [basis.position(tuple(a + (i == j) for j, a in enumerate(alpha)))
               for i in range(n)]
        for i in range(n):
            for j in range(n):
                out[pos[i]][pos[j]] += w * Fraction(rows[i][j])
    return out


_DENS = (1, 2, 3, 5, 7, 11, 13)
_RATIONAL = st.builds(Fraction, st.integers(-9, 9), st.sampled_from(_DENS)
                      ).map(lambda f: int(f) if f.denominator == 1 else f)


@st.composite
def _grams(draw, m):
    """Integer, rational (over coprime denominators) or float."""
    entry = draw(st.sampled_from(
        [st.integers(-9, 9), _RATIONAL, st.floats(-8, 8, allow_nan=False)]))
    return SymMatrix(m, draw(st.lists(entry, min_size=m * (m + 1) // 2,
                                      max_size=m * (m + 1) // 2)))


def _assert_canonical(p):
    # every coefficient a nonzero Fraction, as the public constructor makes
    assert all(type(c) is Fraction and c != 0
               for c in p.coefficients.values())
    assert HomogeneousPoly(p.n, p.degree, dict(p.coefficients)) == p


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_exact_layer_matches_a_plain_fraction_reference(data):
    n, r, d = (data.draw(st.integers(1, 4)), data.draw(st.integers(0, 2)),
               data.draw(st.integers(1, 2)))
    basis = monomial_basis(n, d)
    G = data.draw(_grams(len(basis)))
    p = gram_to_poly(G, basis)
    assert p.coefficients == _ref_gram_to_poly(G.rows(), basis)
    g = default_gram(p, basis)
    assert g.rows() == _ref_default_gram(p, basis)

    q = QuadraticForm(Q=data.draw(_grams(n)))
    weight = data.draw(st.sampled_from([st.integers(-3, 3), st.builds(
        Fraction, st.integers(-3, 3), st.sampled_from(_DENS))]))
    lam = data.draw(st.lists(weight, min_size=n, max_size=n).filter(any))
    lifted = multiplier_gram(q, lam, r)
    ref = _ref_multiplier_gram(q.Q.rows(), lam, r)
    assert lifted.rows() == ref
    product = multiply_weighted_power(q, lam, r)
    assert product.coefficients == _ref_gram_to_poly(
        ref, monomial_basis(n, r + 1))
    for poly in (p, product):
        _assert_canonical(poly)
    for M in (g, lifted):
        assert M.is_exact
        # an entry is an int exactly when it is integral
        assert all(type(e) is (int if Fraction(e).denominator == 1
                               else Fraction) for row in M.rows() for e in row)


def _ref_psd_rank(rows):
    """Pivoted symmetric elimination on plain Fractions: the rank of a psd
    matrix, else None."""
    m = [[Fraction(v) for v in row] for row in rows]
    alive, rank = list(range(len(m))), 0
    while alive:
        if min(m[i][i] for i in alive) < 0:
            return None
        p = max(alive, key=lambda i: m[i][i])
        if m[p][p] == 0:
            break
        alive.remove(p)
        for i in alive:
            for j in alive:
                m[i][j] -= m[i][p] * m[p][j] / m[p][p]
        rank += 1
    return None if any(m[i][j] for i in alive for j in alive) else rank


@st.composite
def _exact_quadratics(draw, n):
    """An exact n x n Gram: any rational one, or a psd w w^T of rank <= 2."""
    if draw(st.booleans()):
        G = draw(_grams(n))
        return G if G.is_exact else G.to_exact()
    w = draw(st.lists(st.lists(_RATIONAL, min_size=2, max_size=2),
                      min_size=n, max_size=n))
    return SymMatrix.from_rows([[sum(Fraction(a) * b for a, b in zip(u, v))
                                 for v in w] for u in w])


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_numerator_view_matches_plain_fractions(data):
    # ROADMAP item 19's gate: matrices built from (num, den) and read
    # through it agree with plain-Fraction references, value by value, and
    # their float images are float(Fraction(e)) to the bit
    n, r = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 2))
    q = QuadraticForm(Q=data.draw(_exact_quadratics(n)))
    weight = st.builds(Fraction, st.integers(-3, 3), st.sampled_from(_DENS))
    lam = data.draw(st.lists(weight, min_size=n, max_size=n).filter(any))
    basis = monomial_basis(n, r + 1)
    lifted = multiplier_gram(q, lam, r)
    ref = _ref_multiplier_gram(q.Q.rows(), lam, r)
    product = multiply_weighted_power(q, lam, r)
    assert product.coefficients == _ref_gram_to_poly(ref, basis)
    assert gram_to_poly(lifted, basis) == product
    g = default_gram(product, basis)
    ref_g = _ref_default_gram(product, basis)
    assert frobenius_inner(lifted, g) == sum(
        a * b for u, v in zip(ref, ref_g) for a, b in zip(u, v))
    for M, rows in ((q.Q, q.Q.rows()), (lifted, ref), (g, ref_g)):
        assert M.as_array().tobytes() == np.array(
            [[float(Fraction(e)) for e in row] for row in rows]).tobytes()
        rank = _ref_psd_rank(rows)
        assert symcore._exact_psd(M._nd[0]) == rank
        assert is_psd(M, 0).is_psd == (rank is not None)
        assert M.rows() == rows
    for M in (lifted, g):
        # one Fraction per distinct value, in a read-only array
        values = M.entries.ravel().tolist()
        assert len(set(map(id, values))) == len(set(values))
        with pytest.raises(ValueError):
            M.entries[0, 0] = 0
        with pytest.raises(ValueError):
            M._nd[0][0, 0] = 0


def test_to_exact_keeps_the_numerator_view():
    # an exact copy of a library Gram makes no Fraction entries
    q = QuadraticForm(Q=SymMatrix.from_rows([[2, Fraction(1, 3)],
                                             [Fraction(1, 3), 1]]))
    G = multiplier_gram(q, [1, Fraction(1, 2)], 2)
    E = G.to_exact()
    assert E._nd is G._nd and E._entries is None
    assert E.rows() == G.rows()


@pytest.mark.parametrize("k", [2, 3])
def test_the_solvers_make_no_fraction_entries_of_a_library_gram(k):
    # the range checks, the float image, the sparsity seed and the exact
    # re-verification read a Gram built as a view through that view alone
    q = QuadraticForm(Q=SymMatrix.from_rows(
        [[Fraction(3, 2), 1, 1], [1, Fraction(3, 2), 1], [1, 1, Fraction(3, 2)]]))
    lam = [1, Fraction(1, 2), 2]
    G = multiplier_gram(q, lam, 1)
    verdict = fw_membership(G, k)
    assert verdict.status in ("member", "non_member")
    assert G._entries is None
    p = multiply_weighted_power(q, lam, 1)
    D = default_gram(p, monomial_basis(3, 2))
    assert soks_test(p, k, D).status in ("member", "non_member")
    assert D._entries is None


class TestMonomialBasis:
    def test_two_vars_degree_one(self):
        b = monomial_basis(2, 1)
        assert b.tuples == ((1, 0), (0, 1))

    def test_counts(self):
        assert len(monomial_basis(4, 2)) == 10  # C(5, 2)
        assert len(monomial_basis(4, 2)) == math.comb(1 + 4, 3)  # r=1 lift size
        assert len(monomial_basis(5, 2)) == 15
        assert len(monomial_basis(3, 0)) == 1

    def test_descending_lex_order(self):
        b = monomial_basis(3, 2)
        assert list(b.tuples) == sorted(b.tuples, reverse=True)
        assert b.tuples[0] == (2, 0, 0)
        assert b.tuples[-1] == (0, 0, 2)

    def test_index_map_bijective(self):
        b = monomial_basis(4, 3)
        assert len(b.index) == len(b.tuples)
        for i, t in enumerate(b.tuples):
            assert b.position(t) == i

    def test_built_once_per_shape_with_a_read_only_index(self):
        b = monomial_basis(3, 2)
        assert monomial_basis(3, 2) is b
        with pytest.raises(TypeError):
            b.index[(0, 0, 2)] = 0
        with pytest.raises(KeyError):
            b.position((1, 1, 1))
        # arguments are checked before the cache: a boolean or an unhashable
        # value is rejected with ValueError, and 2.0 reads as 2
        monomial_basis(1, 1)
        for bad in (True, [2], np.array([2])):
            with pytest.raises(ValueError):
                monomial_basis(bad, 1)
        assert monomial_basis(2.0, 1) is monomial_basis(2, 1)


class TestGramToPoly:
    def test_identity_gram(self):
        p = gram_to_poly(SymMatrix.identity(2), monomial_basis(2, 1))
        assert p.coefficients == {(2, 0): 1, (0, 2): 1}

    def test_binomial_square(self):
        qp = SymMatrix.from_rows([[1, 1], [1, 1]])
        p = gram_to_poly(qp, monomial_basis(2, 1))
        assert p.coefficients == {(2, 0): 1, (1, 1): 2, (0, 2): 1}

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            gram_to_poly(SymMatrix.identity(3), monomial_basis(2, 1))

    def test_float_gram_sums_exact_values(self):
        # x^2 y^2 collects three entries of 0.1; a float sum would round
        g = SymMatrix.from_rows([[0.0, 0.0, 0.1], [0.0, 0.1, 0.0],
                                 [0.1, 0.0, 0.0]])
        p = gram_to_poly(g, monomial_basis(2, 2))
        assert p.coefficients == {(2, 2): 3 * Fraction(0.1)}
        assert 3 * Fraction(0.1) != Fraction(0.1 + 0.1 + 0.1)


class TestQuadraticGram:
    def test_binomial_square(self):
        p = HomogeneousPoly(2, 2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
        assert quadratic_gram(p) == SymMatrix.from_rows([[1, 1], [1, 1]])

    def test_difference_of_squares(self):
        p = HomogeneousPoly(2, 2, {(2, 0): 1, (0, 2): -1})
        assert quadratic_gram(p) == SymMatrix.diag([1, -1])

    def test_round_trip(self):
        rnd = random.Random(0)
        for _ in range(10):
            q = random_rational_sym(rnd, 4)
            p = gram_to_poly(q, monomial_basis(4, 1))
            assert quadratic_gram(p) == q


class TestDefaultGram:
    def test_degree_two_reduces_to_unique_gram(self):
        p = HomogeneousPoly(2, 2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
        g = default_gram(p, monomial_basis(2, 1))
        assert g == SymMatrix.from_rows([[1, 1], [1, 1]])

    def test_single_variable_quartic(self):
        p = HomogeneousPoly(1, 4, {(4,): 1})
        g = default_gram(p, monomial_basis(1, 2))
        assert g == SymMatrix.from_rows([[1]])

    def test_cross_square_split(self):
        # x^2 y^2 splits between the (x^2, y^2) pair and the (xy, xy) diagonal
        p = HomogeneousPoly(2, 4, {(2, 2): 1})
        basis = monomial_basis(2, 2)
        g = default_gram(p, basis)
        assert gram_to_poly(g, basis) == p
        i_xy = basis.position((1, 1))
        assert g[i_xy, i_xy] == Fraction(1, 2)

    def test_round_trip_random(self):
        rnd = random.Random(1)
        for _ in range(100):
            n = rnd.randint(1, 4)
            half = rnd.randint(1, 3)
            basis = monomial_basis(n, half)
            coeffs = {}
            for t in basis.tuples:
                for u in basis.tuples:
                    if rnd.random() < 0.3:
                        key = tuple(a + b for a, b in zip(t, u))
                        coeffs[key] = coeffs.get(key, Fraction(0)) + Fraction(
                            rnd.randint(-5, 5), rnd.randint(1, 4))
            p = HomogeneousPoly(n, 2 * half, coeffs)
            assert gram_to_poly(default_gram(p, basis), basis) == p

    def test_splits_each_coefficient_over_its_unordered_pairs(self):
        rnd = random.Random(8)
        for _ in range(20):
            n = rnd.randint(1, 4)
            half = rnd.randint(1, 3)
            basis = monomial_basis(n, half)
            full = monomial_basis(n, 2 * half)
            p = HomogeneousPoly(n, 2 * half, {
                t: Fraction(rnd.randint(-5, 5), rnd.randint(1, 4))
                for t in full.tuples if rnd.random() < 0.5})
            ts = basis.tuples
            m = len(ts)

            def mono(i, j):
                return tuple(a + b for a, b in zip(ts[i], ts[j]))

            pairs: dict = {}
            for i in range(m):
                for j in range(i, m):
                    pairs[mono(i, j)] = pairs.get(mono(i, j), 0) + 1
            g = default_gram(p, basis)
            assert g.is_exact
            for i in range(m):
                for j in range(m):
                    c = p.coefficients.get(mono(i, j), Fraction(0))
                    u = pairs[mono(i, j)]
                    assert g[i, j] == (c / u if i == j else c / (2 * u))


class TestMultiplyWeightedPower:
    def test_r_zero_is_the_quadratic(self):
        rnd = random.Random(2)
        q = QuadraticForm(Q=random_rational_sym(rnd, 3))
        p = multiply_weighted_power(q, [1, 1, 1], 0)
        assert p == q.to_poly()

    def test_hand_expansion(self):
        # (x^2 + y^2) * x^2 = x^4 + x^2 y^2
        q = QuadraticForm(Q=SymMatrix.from_rows([[1, 0], [0, 0]]))
        p = multiply_weighted_power(q, [1, 1], 1)
        assert p.coefficients == {(4, 0): 1, (2, 2): 1}

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_parity_closure(self, data):
        n = data.draw(st.integers(2, 4))
        r = data.draw(st.integers(0, 3))
        tri = n * (n + 1) // 2
        upper = data.draw(st.lists(st.integers(-6, 6), min_size=tri,
                                   max_size=tri))
        lam = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)
                        .filter(lambda v: any(v)))
        q = QuadraticForm(Q=SymMatrix(n, upper))
        p = multiply_weighted_power(q, lam, r)
        for t in p.coefficients:
            odd = sum(e % 2 for e in t)
            assert odd in (0, 2)

    def test_matches_sympy_oracle(self):
        rnd = random.Random(4)
        for _ in range(8):
            n = rnd.randint(2, 4)
            q = random_rational_sym(rnd, n)
            lam = [Fraction(rnd.randint(-3, 3)) for _ in range(n)]
            if all(v == 0 for v in lam):
                lam[0] = Fraction(1)
            r = rnd.randint(0, 3)
            p = multiply_weighted_power(QuadraticForm(Q=q), lam, r)
            assert p.coefficients == sympy_expand_oracle(q, lam, r)
        # fractional weights up to five variables; every other one of these
        # cases has a zero weight, the rest have none
        for c, (n, r) in enumerate([(2, 3), (3, 0), (3, 2), (4, 1), (4, 3),
                                    (5, 1), (5, 2), (5, 2)]):
            q = random_rational_sym(rnd, n)
            lam = [Fraction(rnd.randint(1, 3), rnd.randint(1, 3))
                   * rnd.choice((-1, 1)) for _ in range(n)]
            if c % 2:
                lam[rnd.randrange(n)] = Fraction(0)
            p = multiply_weighted_power(QuadraticForm(Q=q), lam, r)
            assert p.coefficients == sympy_expand_oracle(q, lam, r)


class TestParityAggregates:
    def test_all_even(self):
        p = HomogeneousPoly(2, 4, {(4, 0): 1, (2, 2): 1})
        p0, pij = parity_aggregates(p)
        assert p0 == 2
        assert pij == {}

    def test_closed_forms(self):
        # p_(i,j) = 2 (sum lam^2)^r q_ij and p_0 = (sum lam^2)^r trace(Q)
        rnd = random.Random(5)
        for _ in range(15):
            n = rnd.randint(2, 4)
            q = random_rational_sym(rnd, n)
            lam = [Fraction(rnd.randint(1, 3), rnd.randint(1, 2))
                   for _ in range(n)]
            r = rnd.randint(0, 3)
            p = multiply_weighted_power(QuadraticForm(Q=q), lam, r)
            p0, pij = parity_aggregates(p)
            s = sum(v * v for v in lam) ** r
            assert p0 == s * sum(Fraction(q[i, i]) for i in range(n))
            for i in range(n):
                for j in range(i + 1, n):
                    assert pij.get((i, j), Fraction(0)) == 2 * s * Fraction(q[i, j])

    def test_known_instance(self):
        # n=3, q with 2 on the diagonal and 1 off it, lam = 1, r = 1
        q = QuadraticForm(Q=SymMatrix.from_rows(
            [[2, 1, 1], [1, 2, 1], [1, 1, 2]]))
        p = multiply_weighted_power(q, [1, 1, 1], 1)
        p0, pij = parity_aggregates(p)
        assert p0 == 18          # 3 * trace = 3 * 6
        assert all(v == 6 for v in pij.values())  # 2 * 3 * 1
        assert set(pij) == {(0, 1), (0, 2), (1, 2)}


class TestSoksTest:
    def test_binomial_square_is_member(self):
        p = HomogeneousPoly(2, 2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
        v = soks_test(p, 2, quadratic_gram(p))
        assert v.status == "member"
        assert v.diagnostics["gram_conditional"] is False

    def test_gram_mismatch_rejected(self):
        p = HomogeneousPoly(2, 2, {(2, 0): 1, (0, 2): 1})
        with pytest.raises(GramMismatchError):
            soks_test(p, 2, SymMatrix.from_rows([[1, 1], [1, 1]]))

    def test_gram_entries_beyond_the_float_range_rejected(self):
        gram = SymMatrix.from_rows([[2 ** 1023, 1], [1, 1]])
        p = gram_to_poly(gram, monomial_basis(2, 1))
        with pytest.raises(ValueError, match=r"below 2\*\*1022"):
            soks_test(p, 2, gram)

    def test_indefinite_quadratic_not_member(self):
        p = HomogeneousPoly(2, 2, {(2, 0): 1, (0, 2): -1})
        v = soks_test(p, 2, quadratic_gram(p))
        assert v.status == "non_member"
        assert v.certificate is not None


class TestMultiplierGram:
    def test_reproduces_the_product(self):
        # the product is the class sum of this Gram, whose JSON is the
        # plain-Fraction reference's byte for byte; the draws cover float
        # Grams, coprime denominators and zero weights
        rnd = random.Random(6)
        for c in range(12):
            n = rnd.randint(2, 4)
            Q = random_rational_sym(rnd, n)
            if c % 3 == 1:
                Q = Q.to_float()
            q = QuadraticForm(Q=Q)
            lam = [Fraction(rnd.randint(1, 3), rnd.choice(_DENS))
                   for _ in range(n)]
            if c % 2:
                lam[rnd.randrange(n)] = Fraction(0)
            r = rnd.randint(0, 2)
            g = multiplier_gram(q, lam, r)
            p = multiply_weighted_power(q, lam, r)
            assert gram_to_poly(g, monomial_basis(n, r + 1)) == p
            ref = SymMatrix.from_rows(_ref_multiplier_gram(Q.rows(), lam, r))
            assert (json.dumps(matrix_to_json(g))
                    == json.dumps(matrix_to_json(ref)))

    def test_r_zero_is_the_gram(self):
        rnd = random.Random(7)
        q = QuadraticForm(Q=random_rational_sym(rnd, 3))
        assert multiplier_gram(q, [1, 1, 1], 0) == q.Q

    @pytest.mark.parametrize("r", [2.5, True, "1"])
    def test_non_integer_power_named(self, r):
        q = QuadraticForm(Q=SymMatrix.identity(3))
        with pytest.raises(ValueError, match=f"^{r!r} is not an integer"):
            multiplier_gram(q, [1, 1, 1], r)

    def test_integral_float_power_reads_as_int(self):
        q = QuadraticForm(Q=random_rational_sym(random.Random(8), 3))
        assert multiplier_gram(q, [1, 2, 1], 1.0) == multiplier_gram(
            q, [1, 2, 1], 1)
        assert multiply_weighted_power(q, [1, 2, 1], 2.0) == (
            multiply_weighted_power(q, [1, 2, 1], 2))


@pytest.mark.parametrize("fn", [multiplier_gram, multiply_weighted_power])
@pytest.mark.parametrize("lam, r", [
    ([1, 1, 1], -1),      # negative power
    ([1, 1], 1),          # too few weights
    ([1, 1, 1, 1], 1),    # too many weights
    ([0, 0, 0], 1),       # all weights zero
    ([0, 0, 0], 0),       # all zero even when the power is trivial
])
def test_bad_lambda_or_power_rejected(fn, lam, r):
    q = QuadraticForm(Q=SymMatrix.identity(3))
    with pytest.raises(ValueError):
        fn(q, lam, r)


_CUBIC = HomogeneousPoly(2, 3, {(3, 0): 1, (0, 3): 1})
_QUARTIC = HomogeneousPoly(2, 4, {(4, 0): 1, (0, 4): 1})


@pytest.mark.parametrize("call, message", [
    (lambda: quadratic_gram(_QUARTIC), "expected a quadratic"),
    (lambda: default_gram(_QUARTIC, monomial_basis(2, 1)),
     "basis does not match"),
    (lambda: soks_test(_CUBIC, 2, SymMatrix.identity(3)),
     "even-degree polynomial"),
    (lambda: parity_aggregates(_CUBIC), "even-degree polynomial"),
], ids=["quadratic_gram", "default_gram", "soks_test", "parity_aggregates"])
def test_degree_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class TestPolyJson:
    def test_round_trip(self):
        p = HomogeneousPoly(3, 2, {(2, 0, 0): Fraction(1, 3), (1, 1, 0): -2})
        again = load_poly_json(poly_to_json(p))
        assert again == p

    def test_malformed(self):
        with pytest.raises(ValueError):
            load_poly_json({"n": 2, "terms": []})
        with pytest.raises(ValueError):
            load_poly_json({"n": 2, "degree": 2,
                            "terms": [{"exp": [1, 0], "coef": 1}]})
        with pytest.raises(ValueError, match="not an integer"):
            load_poly_json({"n": 3, "degree": 2,
                            "terms": [{"exp": [2.9, 0, 0], "coef": 1}]})
        with pytest.raises(ValueError, match="not an integer"):
            load_poly_json({"n": 2.5, "degree": 2, "terms": []})

    @pytest.mark.parametrize("call, message", [
        (lambda: HomogeneousPoly(2, 2, {(2.9, 0): 1}), "not an integer"),
        (lambda: HomogeneousPoly(2, 2, {(True, True): 1}), "not an integer"),
        (lambda: HomogeneousPoly(2, 2, {(2, 0): True}), "boolean"),
        (lambda: HomogeneousPoly(0, 0, {}), "n >= 1"),
        (lambda: HomogeneousPoly(2, -1, {}), "degree >= 0"),
        (lambda: HomogeneousPoly(True, 2, {}), "not an integer"),
        (lambda: monomial_basis(2.5, 2), "not an integer"),
        (lambda: monomial_basis(2, 1.5), "not an integer"),
        (lambda: HomogeneousPoly(1, 1, {(1,): float("inf")}), r"of \(1,\)"),
        (lambda: HomogeneousPoly(1, 1, {(1,): float("nan")}), r"of \(1,\)"),
        (lambda: HomogeneousPoly(1, 1, {(1,): "1/2"}), r"of \(1,\)"),
        (lambda: HomogeneousPoly(1, 1, {(1,): "1/0"}), r"of \(1,\)"),
        (lambda: HomogeneousPoly(1, 1, {(1,): None}), r"of \(1,\)"),
    ], ids=["float-exponent", "bool-exponents", "bool-coefficient", "n-zero",
            "negative-degree", "bool-n", "float-n-basis", "float-d-basis",
            "inf-coefficient", "nan-coefficient", "string-coefficient",
            "zero-denominator-string", "none-coefficient"])
    def test_constructor_rejects_what_it_would_truncate(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()
