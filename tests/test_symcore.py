import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorwidth import symcore
from factorwidth.polyforms import (
    QuadraticForm,
    default_gram,
    gram_to_poly,
    monomial_basis,
    multiplier_gram,
)
from factorwidth.symcore import (
    SymMatrix,
    Support,
    _clip_psd,
    _full_index,
    _negative_definite,
    _project_psd,
    _sparsity_seed,
    embed,
    eigen_sym,
    enumerate_supports,
    frobenius_inner,
    is_psd,
    load_matrix_json,
    matrix_to_json,
    principal_submatrix,
    project_psd,
    scale_congruence,
)


def random_sym(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) * scale
    return SymMatrix.from_array(a + a.T)


def random_rational_sym(rnd, n, num=9, den=7):
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = Fraction(rnd.randint(-num, num), rnd.randint(1, den))
            rows[i][j] = rows[j][i] = v
    return SymMatrix.from_rows(rows)


class TestSymMatrix:
    def test_structural_symmetry(self):
        m = SymMatrix.from_rows([[1, 2], [2, 3]])
        assert m[0, 1] == m[1, 0] == 2
        assert m.is_exact

    def test_rejects_asymmetry(self):
        with pytest.raises(ValueError):
            SymMatrix.from_rows([[1, 2], [3, 4]])

    def test_rejects_out_of_range(self):
        m = SymMatrix.identity(3)
        with pytest.raises(IndexError):
            m[3, 0]
        with pytest.raises(IndexError):
            m[0, -1][0]  # negative read is rejected too

    def test_rejects_mixed_scalars(self):
        with pytest.raises(TypeError):
            SymMatrix(2, [Fraction(1), 0.5, Fraction(2)])

    def test_float_instance(self):
        m = SymMatrix.from_rows([[1.0, 0.5], [0.5, 2.0]])
        assert not m.is_exact
        assert m.to_exact().is_exact
        assert m.to_exact()[0, 1] == Fraction(1, 2)

    def test_upper_triangle_storage_length(self):
        with pytest.raises(ValueError):
            SymMatrix(3, [1, 2, 3])

    @pytest.mark.parametrize("n", [2.5, True])
    def test_dimension_reads_as_an_int(self, n):
        # an integral float is its int; a bool or a non-integral value is not
        one = SymMatrix.identity(1)
        assert SymMatrix(2.0, [1, 0, 1]) == SymMatrix.identity(2)
        assert SymMatrix.identity(2.0) == SymMatrix.identity(2)
        assert SymMatrix.zeros(2.0, exact=False) == SymMatrix.zeros(2)
        assert embed(one, [1], 2.0) == SymMatrix.diag([0, 1])
        for make in (lambda: SymMatrix(n, [1, 0, 1]),
                     lambda: SymMatrix.zeros(n), lambda: SymMatrix.identity(n),
                     lambda: SymMatrix.zeros(n, exact=False),
                     lambda: embed(one, [0], n)):
            with pytest.raises(symcore._InputError,
                               match=f"^{n} is not an integer"):
                make()

    def test_one_read_only_dense_array(self):
        exact = SymMatrix(2, [1, Fraction(1, 2), 3])
        assert exact.entries.dtype == object and exact.entries.shape == (2, 2)
        assert exact.rows() == [[1, Fraction(1, 2)], [Fraction(1, 2), 3]]
        assert type(exact[0, 0]) is int and type(exact[1, 0]) is Fraction
        flt = exact.to_float()
        assert flt.entries.dtype == np.float64
        assert type(flt[0, 1]) is float
        assert all(type(e) is float for row in flt.rows() for e in row)
        for m in (exact, flt):
            with pytest.raises(ValueError):
                m.entries[0, 0] = 7
            copy = m.as_array()
            copy[0, 0] = 7.0  # as_array hands out a writable copy
            assert m[0, 0] == 1
        with pytest.raises(TypeError):
            hash(exact)

    def test_rejects_non_finite_and_foreign_entries(self):
        with pytest.raises(ValueError, match="finite"):
            SymMatrix(2, [1.0, math.inf, 2.0])
        with pytest.raises(ValueError):
            SymMatrix.from_array(np.array([[1.0, math.nan], [0.0, 1.0]]))
        with pytest.raises(TypeError, match="unsupported entry type"):
            SymMatrix.from_rows([["1", 0], [0, 1]])

    def test_from_array_keeps_a_diagonal_above_half_the_float_range(self):
        # (a + a.T) / 2 would double 1e308 to inf
        arr = np.array([[1e308, 0.5], [0.7, 1.0]])
        m = SymMatrix.from_array(arr)
        assert m[0, 0] == 1e308 and m[1, 1] == 1.0
        assert m[0, 1] == m[1, 0] == (0.5 + 0.7) / 2.0
        assert arr[1, 0] == 0.7  # the caller's array is not written

    def test_from_array_averages_a_pair_whose_sum_overflows(self):
        # 1.7e308 + 1.6e308 overflows; each half does not
        arr = np.array([[1.0, 1.7e308, 0.5], [1.6e308, 2.0, 0.25],
                        [0.75, 0.25, 3.0]])
        m = SymMatrix.from_array(arr)
        assert m[0, 1] == m[1, 0] == 1.7e308 / 2.0 + 1.6e308 / 2.0
        assert m[0, 2] == (0.5 + 0.75) / 2.0 and m[1, 2] == 0.25
        assert [m[i, i] for i in range(3)] == [1.0, 2.0, 3.0]
        same = SymMatrix.from_array(np.array([[1.0, 1.7e308], [1.7e308, 1.0]]))
        assert same[0, 1] == 1.7e308
        for bad in (math.inf, -math.inf):  # an infinite input stays rejected
            with pytest.raises(ValueError, match="finite"):
                SymMatrix.from_array(np.array([[1.0, 1.7e308], [bad, 1.0]]))
        with pytest.raises(ValueError, match="finite"):
            SymMatrix.from_array(np.array([[1.0, math.inf],
                                           [-math.inf, 1.0]]))



class _Int(int):
    pass


class TestEntryTypes:
    """``_checked`` reads each entry type once; what it accepts and rejects,
    and the type it names, are those of a scan entry by entry."""

    @pytest.mark.parametrize("entry, exact", [
        (True, True), (_Int(3), True), (2, True), (Fraction(1, 2), True),
        (0.5, False), (np.float64(0.5), False),
    ], ids=["bool", "int-subclass", "int", "fraction", "float", "np-float64"])
    def test_accepted(self, entry, exact):
        m = SymMatrix.from_rows([[entry, 0], [0, 1]])
        assert m.is_exact is exact
        assert m[0, 0] == entry

    @pytest.mark.parametrize("build, entries, message", [
        (SymMatrix.from_rows, [[np.int64(1), 0], [0, 1]],
         "unsupported entry type int64"),
        (SymMatrix.from_rows, [[np.float32(1), 0], [0, 1]],
         "unsupported entry type float32"),
        (SymMatrix.from_rows, [[Fraction(1, 2), 0.5], [0.5, 1]],
         "mixed Fraction and float"),
        (SymMatrix.from_rows, [[1, "1"], ["1", np.int64(1)]],
         "unsupported entry type str"),
        (SymMatrix.from_rows, [[1, np.int64(1)], [np.int64(1), "1"]],
         "unsupported entry type int64"),
        # with a float present, every entry type is still checked
        (SymMatrix.from_rows, [[np.float32(1), 0], [0, 0.5]],
         "unsupported entry type float32"),
        (SymMatrix.from_rows, [["a", 0], [0, 0.5]],
         "unsupported entry type str"),
        (SymMatrix.diag, [Fraction(1, 3), 0.5], "mixed Fraction and float"),
    ], ids=["np-int64", "np-float32", "mixed", "str-first", "int64-first",
            "np-float32-with-float", "str-with-float", "diag-mixed"])
    def test_rejected(self, build, entries, message):
        with pytest.raises(TypeError, match=message):
            build(entries)

class TestFrobeniusInner:
    def test_identity_case(self):
        I5 = SymMatrix.identity(5)
        assert frobenius_inner(I5, I5) == 5

    def test_matches_two_loop_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = random_sym(rng, 3)
            b = random_sym(rng, 3)
            # independent double-loop oracle
            expected = sum(
                float(a[i, j]) * float(b[i, j]) for i in range(3) for j in range(3)
            )
            assert frobenius_inner(a, b) == pytest.approx(expected, rel=1e-12)

    def test_exact_when_rational(self):
        rnd = random.Random(1)
        a = random_rational_sym(rnd, 4)
        b = random_rational_sym(rnd, 4)
        v = frobenius_inner(a, b)
        assert isinstance(v, Fraction)
        oracle = sum(a[i, j] * b[i, j] for i in range(4) for j in range(4))
        assert v == oracle

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            frobenius_inner(SymMatrix.identity(2), SymMatrix.identity(3))

    def test_norms_match_loop_oracles(self):
        rng = np.random.default_rng(5)
        rnd = random.Random(5)
        for n in range(1, 7):
            for m in (random_sym(rng, n), random_rational_sym(rnd, n)):
                entries = [float(m[i, j]) for i in range(n) for j in range(n)]
                assert m.max_abs() == max(abs(e) for e in entries)
                assert m.frob_norm() == pytest.approx(
                    math.sqrt(sum(e * e for e in entries)), rel=1e-14)
                if m.is_exact:
                    assert frobenius_inner(m, m) == sum(
                        m[i, j] ** 2 for i in range(n) for j in range(n))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.one_of(
            st.integers(-10 ** 300, 10 ** 300),
            st.builds(Fraction, st.integers(-10 ** 300, 10 ** 300),
                      st.integers(1, 10 ** 330))),
            min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2))),
        st.integers(1, 10 ** 6))
    def test_float_image_and_max_abs_are_float_of_fraction(self, shape, c):
        # from rows, and from a view whose denominator is c times the lcm:
        # int / int rounds once, so both equal float(Fraction) to the bit
        n, upper = shape
        built = SymMatrix(n, upper)
        ref = np.array([[float(Fraction(e)) for e in row]
                        for row in built.rows()])
        top = float(max(abs(Fraction(e)) for e in upper))
        num, den = built._nd
        view = SymMatrix._wrap(num * c, den * c)
        for m in (built, view):
            assert m.as_array().tobytes() == ref.tobytes()
            assert m.max_abs() == top
        assert view._entries is None

    def test_float_view_is_the_array_itself(self):
        m = SymMatrix.from_array(np.array([[1.0, -2.5], [-2.5, 3.0]]))
        num, den = m._nd
        assert num is m.entries and den == 1
        image = m.as_array()
        assert image is not num and np.array_equal(image, num)
        assert m.to_exact().rows() == [[1, Fraction(-5, 2)],
                                       [Fraction(-5, 2), 3]]

    @pytest.mark.parametrize("scale", [1e-300, 1e-170, 1.0, 1e160, 1e300])
    def test_frob_norm_neither_overflows_nor_underflows(self, scale):
        a = np.array([[3.0, -4.0], [-4.0, 0.5]])
        m = SymMatrix.from_array(a * scale)
        assert m.frob_norm() == pytest.approx(
            scale * math.sqrt(41.25), rel=1e-15, abs=0)
        if scale == 1.0:
            assert m.frob_norm() == float(np.linalg.norm(a))

    @given(st.integers(2, 4), st.data())
    @settings(max_examples=30, deadline=None)
    def test_symmetry_property(self, n, data):
        ints = st.integers(-5, 5)
        upper = data.draw(st.lists(ints, min_size=n * (n + 1) // 2,
                                   max_size=n * (n + 1) // 2))
        other = data.draw(st.lists(ints, min_size=n * (n + 1) // 2,
                                   max_size=n * (n + 1) // 2))
        a, b = SymMatrix(n, upper), SymMatrix(n, other)
        assert frobenius_inner(a, b) == frobenius_inner(b, a)


def _entry_json(e):
    return int(e) if e.denominator == 1 else str(e)


_ENTRIES = st.one_of(
    st.integers(-10 ** 20, 10 ** 20),
    st.builds(Fraction, st.integers(-9, 9)),  # an integral Fraction as given
    st.fractions(max_denominator=10 ** 6))


class TestStoredForm:
    """Every constructor stores the ``(num, den)`` view alone; the entries
    derived from it are those of a plain-``Fraction`` reference, each an
    ``int`` exactly when integral, with the reference's float image and
    JSON."""

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_every_constructor_reads_as_a_fraction_reference(self, data):
        n = data.draw(st.integers(1, 4))
        upper = data.draw(st.lists(_ENTRIES, min_size=n * (n + 1) // 2,
                                   max_size=n * (n + 1) // 2))
        given_rows = [[None] * n for _ in range(n)]
        for (i, j), e in zip(zip(*np.triu_indices(n)), upper):
            given_rows[i][j] = given_rows[j][i] = e
        ref = [[Fraction(e) for e in row] for row in given_rows]
        built = SymMatrix(n, upper)
        floats = data.draw(st.lists(st.floats(-1e6, 1e6), min_size=n,
                                    max_size=n))
        K = data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                               unique=True).map(sorted))
        at = sorted(data.draw(st.permutations(range(n + 2)))[:n])
        perm = data.draw(st.permutations(range(n)))
        d = data.draw(st.lists(st.fractions(max_denominator=50).filter(bool),
                               min_size=n, max_size=n))
        Q = [[0] * n for _ in range(n)]
        for j, (i, x) in enumerate(zip(perm, d)):
            Q[i][j] = x
        padded = [[Fraction(0)] * (n + 2) for _ in range(n + 2)]
        for (p, i), (q, j) in itertools.product(enumerate(at), repeat=2):
            padded[i][j] = ref[p][q]
        basis = monomial_basis(n, 1)  # a quadratic's Gram is unique
        cases = [
            (built, ref),
            (SymMatrix.from_rows(given_rows), ref),
            (SymMatrix.diag(upper[:n]), [
                [Fraction(upper[i]) if i == j else Fraction(0)
                 for j in range(n)] for i in range(n)]),
            (SymMatrix.from_array(np.diag(floats)).to_exact(), [
                [Fraction(floats[i]) if i == j else Fraction(0)
                 for j in range(n)] for i in range(n)]),
            (principal_submatrix(built, K), [[ref[i][j] for j in K]
                                             for i in K]),
            (embed(built, at, n + 2), padded),
            (scale_congruence(built, Q), [
                [d[j] * d[l] * ref[perm[j]][perm[l]] for l in range(n)]
                for j in range(n)]),
            (default_gram(gram_to_poly(built, basis), basis), ref),
            (multiplier_gram(QuadraticForm(Q=built), d, 0), ref),
        ]
        for M, rows in cases:
            assert M.is_exact and M.rows() == rows
            assert all(type(e) is (int if Fraction(e).denominator == 1
                                   else Fraction) for row in M.rows()
                       for e in row)
            assert M.as_array().tobytes() == np.array(
                [[float(e) for e in row] for row in rows]).tobytes()
            assert matrix_to_json(M) == {
                "n": len(rows),
                "rows": [[_entry_json(e) for e in row] for row in rows]}


class TestSubmatrixAndEmbed:
    def test_diagonal_selection(self):
        m = SymMatrix.diag([1, 2, 3])
        sub = principal_submatrix(m, Support.of([0, 2]))
        assert sub == SymMatrix.diag([1, 3])

    def test_random_extraction_matches_index_oracle(self):
        rng = np.random.default_rng(2)
        a = random_sym(rng, 5)
        K = Support.of([1, 3, 4])
        sub = principal_submatrix(a, K)
        for p, i in enumerate(K):
            for q, j in enumerate(K):
                assert sub[p, q] == a[i, j]

    def test_embed_trivial(self):
        b = SymMatrix.from_rows([[1]])
        x = embed(b, Support.of([2]), 4)
        assert x == SymMatrix.diag([0, 0, 1, 0])

    def test_embed_rejects_a_size_mismatch(self):
        with pytest.raises(ValueError, match="does not match block size"):
            embed(SymMatrix.identity(2), Support.of([0, 1, 2]), 4)

    def test_embed_extract_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            b = random_sym(rng, 3)
            K = Support.of([0, 2, 5])
            assert principal_submatrix(embed(b, K, 6), K) == b

    def test_embed_adjoint_identity(self):
        # <embed(B,K,n), A> == <B, A_K>
        rnd = random.Random(4)
        for _ in range(15):
            b = random_rational_sym(rnd, 3)
            a = random_rational_sym(rnd, 6)
            K = Support.of(sorted(rnd.sample(range(6), 3)))
            lhs = frobenius_inner(embed(b, K, 6), a)
            rhs = frobenius_inner(b, principal_submatrix(a, K))
            assert lhs == rhs

    def test_block_index_gather_and_accumulate_are_adjoint(self):
        # <gather(M), S> == <M, accumulate(S)>, and gather reads the same
        # blocks as principal_submatrix
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(1, 8))
            k = int(rng.integers(1, n + 1))
            index = _full_index(n, k)
            M = random_sym(rng, n)
            S = rng.standard_normal((len(index.rows), k, k))
            stack = index.gather(M.as_array())
            lhs = float(np.sum(stack * S))
            rhs = float(np.sum(M.as_array() * index.accumulate(S)))
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
            for s in range(len(index.rows)):
                assert np.array_equal(stack[s], principal_submatrix(
                    M, index.support(s)).as_array())

    def test_full_index_builds_no_support(self, monkeypatch):
        built = []
        post_init = Support.__post_init__

        def counted(self):
            built.append(self.indices)
            post_init(self)

        monkeypatch.setattr(Support, "__post_init__", counted)
        _full_index.cache_clear()
        full = _full_index(9, 4)
        nonzero = np.ones((9, 9), dtype=bool)
        nonzero[0, 1] = nonzero[1, 0] = False
        seed = _sparsity_seed(nonzero, 4)
        assert len(full.rows) == math.comb(9, 4) and len(seed.rows) > 0
        assert built == []
        K = full.support(3)
        assert built == [K.indices] == [tuple(full.rows[3].tolist())]

    def test_enumerate_supports_reads_the_full_index(self):
        for n in range(1, 8):
            for k in range(1, n + 1):
                rows = _full_index(n, k).rows
                assert rows.shape == (math.comb(n, k), k)
                assert not rows.flags.writeable
                assert [K.indices for K in enumerate_supports(n, k)] == [
                    tuple(r) for r in rows.tolist()]
                assert rows.tolist() == [
                    list(c) for c in itertools.combinations(range(n), k)]

    @pytest.mark.parametrize("n, k", [(2.5, 2), (True, 1)])
    def test_enumerate_supports_reads_n_as_an_int(self, n, k):
        assert enumerate_supports(4.0, 2) == enumerate_supports(4, 2)
        with pytest.raises(symcore._InputError, match=f"^{n} is not an integer"):
            enumerate_supports(n, k)

    def test_sparsity_seed_restricts_the_full_index(self):
        rng = np.random.default_rng(3)
        seeds = 0
        for _ in range(40):
            n = int(rng.integers(3, 8))
            k = int(rng.integers(2, n))
            pattern = rng.random((n, n)) < 0.8
            nonzero = (pattern & pattern.T) | np.eye(n, dtype=bool)
            seed = _sparsity_seed(nonzero, k)
            if seed is None:
                continue
            seeds += 1
            full = _full_index(n, k)
            keep = np.array([nonzero[np.ix_(r, r)].all() for r in full.rows])
            assert np.array_equal(seed.rows, full.rows[keep])
            assert np.array_equal(seed.flat, full.flat[keep])
            assert not seed.rows.flags.writeable
        assert seeds > 5

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match=r"\(0, 3\) out of range for n=3"):
            principal_submatrix(SymMatrix.identity(3), Support.of([0, 3]))
        with pytest.raises(ValueError, match=r"\(1, 4\) out of range for n=4"):
            embed(SymMatrix.identity(2), Support.of([1, 4]), 4)

    def test_support_validation(self):
        with pytest.raises(ValueError):
            Support.of([2, 1])
        with pytest.raises(ValueError):
            Support.of([1, 1])
        with pytest.raises(ValueError):
            Support.of([])
        for bad in (1.7, True, "2", math.inf, math.nan):
            with pytest.raises(ValueError, match="not an integer"):
                Support.of([0, bad, 5])
        assert Support.of([0, 2.0, np.int64(3)]).indices == (0, 2, 3)


class TestEigenSym:
    def test_identity(self):
        res = eigen_sym(SymMatrix.identity(3))
        assert np.allclose(res.eigenvalues, [1, 1, 1])

    def test_2x2_characteristic_roots(self):
        # roots of lambda^2 - 4 lambda + 3
        res = eigen_sym(SymMatrix.from_rows([[2, 1], [1, 2]]))
        assert np.allclose(res.eigenvalues, [1.0, 3.0], atol=1e-12)

    def test_invariants_random(self):
        rng = np.random.default_rng(5)
        for n in (2, 5, 9, 15):
            a = random_sym(rng, n, scale=3.0)
            res = eigen_sym(a)
            v = res.eigenvectors
            assert np.max(np.abs(v.T @ v - np.eye(n))) <= 1e-10 * n
            rec = (v * res.eigenvalues) @ v.T
            bound = 1e-9 * (1.0 + a.max_abs())
            assert np.max(np.abs(rec - a.as_array())) <= bound

    def test_ascending_order(self):
        rng = np.random.default_rng(6)
        a = random_sym(rng, 6)
        lam = eigen_sym(a).eigenvalues
        assert all(lam[i] <= lam[i + 1] for i in range(len(lam) - 1))

    def test_agrees_with_lapack(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            a = random_sym(rng, 7)
            mine = eigen_sym(a).eigenvalues
            ref = np.linalg.eigvalsh(a.as_array())
            assert np.allclose(mine, ref, atol=1e-9 * (1 + a.max_abs()))


class TestIsPsd:
    def test_diagonal(self):
        assert is_psd(SymMatrix.diag([1, 0, 2]), 0).is_psd

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
    def test_bad_tol_rejected(self, tol):
        # an infinite tolerance would pass the min eigenvalue -1 as psd
        with pytest.raises(ValueError, match="tol"):
            is_psd(SymMatrix.from_rows([[1, 2], [2, 1]]), tol)

    def test_indefinite_2x2(self):
        rep = is_psd(SymMatrix.from_rows([[1, 2], [2, 1]]), 0)
        assert not rep.is_psd
        assert rep.min_eigenvalue == pytest.approx(-1.0, abs=1e-12)

    def test_exact_zero_pivot_recursion(self):
        # singular psd: zero pivot forces a zero row
        m = SymMatrix.from_rows([[1, 1, 0], [1, 1, 0], [0, 0, 0]])
        assert is_psd(m, 0).is_psd
        # zero diagonal with nonzero off-diagonal entry is not psd
        m2 = SymMatrix.from_rows([[0, 1], [1, 0]])
        assert not is_psd(m2, 0).is_psd

    def test_float_report_invariant(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            a = random_sym(rng, 4)
            rep = is_psd(a, 1e-9)
            assert rep.is_psd == (rep.min_eigenvalue >= -rep.tolerance_used)

    def test_exact_agrees_with_float_outside_margin_band(self):
        rnd = random.Random(9)
        agree = 0
        for _ in range(60):
            a = random_rational_sym(rnd, 4, num=6, den=4)
            float_rep = is_psd(a.to_float(), 1e-9)
            band = 1e-6 * (1.0 + a.max_abs())
            if abs(float_rep.min_eigenvalue) <= band:
                continue
            exact_rep = is_psd(a, 0)
            assert exact_rep.is_psd == float_rep.is_psd
            agree += 1
        assert agree > 10

    def test_exact_path_matches_sympy_oracle(self):
        import sympy

        rnd = random.Random(17)
        for trial in range(40):
            n = rnd.randint(1, 5)
            if trial % 3 == 0:
                # exactly singular psd instances stress the zero-pivot path
                w = [[Fraction(rnd.randint(-2, 2), rnd.randint(1, 2))
                      for _ in range(max(1, n - 1))] for _ in range(n)]
                rows = [[sum(w[i][t] * w[j][t] for t in range(len(w[0])))
                         for j in range(n)] for i in range(n)]
                a = SymMatrix.from_rows(rows)
            else:
                a = random_rational_sym(rnd, n, num=4, den=3)
            mine = is_psd(a, 0).is_psd
            ref = sympy.Matrix(
                [[sympy.Rational(Fraction(a[i, j])) for j in range(n)]
                 for i in range(n)]).is_positive_semidefinite
            assert mine == bool(ref), (trial, a.rows())

    def test_psd_pairing_nonnegative(self):
        # <A, B> >= 0 for psd A, B (checked exactly on rationals)
        def random_rational_psd(rnd, n):
            w = [[Fraction(rnd.randint(-3, 3), rnd.randint(1, 3))
                  for _ in range(n)] for _ in range(n)]
            rows = [[sum(w[i][t] * w[j][t] for t in range(n)) for j in range(n)]
                    for i in range(n)]
            return SymMatrix.from_rows(rows)

        rnd = random.Random(10)
        for _ in range(10):
            a = random_rational_psd(rnd, 3)
            b = random_rational_psd(rnd, 3)
            assert is_psd(a, 0).is_psd and is_psd(b, 0).is_psd
            assert frobenius_inner(a, b) >= 0


class TestExactPsd:
    def test_rank_and_growth_match_sympy_oracle(self):
        # low-rank psd matrices with zero rows, denominators up to 1e6 and
        # numerators up to 1e30 times larger: _exact_psd on the numerators
        # is None exactly when sympy finds the matrix not psd, and its rank
        # otherwise
        import sympy

        rnd = random.Random(29)
        psd_ranks, not_psd = set(), 0
        for trial in range(120):
            n = rnd.randint(1, 6)
            r = rnd.randint(0, n)
            w = [[Fraction(rnd.randint(-9, 9), rnd.randint(1, 10 ** 6))
                  for _ in range(r)] for _ in range(n)]
            zero = rnd.sample(range(n), rnd.randint(0, n // 2))
            for i in zero:
                w[i] = [Fraction(0)] * r
            rows = [[sum((w[i][t] * w[j][t] for t in range(r)), Fraction(0))
                     for j in range(n)] for i in range(n)]
            # push some off the psd cone: a negative diagonal entry, or a
            # nonzero entry joining two zero rows, which no pivot reaches
            if trial % 3 == 0:
                i = rnd.randrange(n)
                rows[i][i] -= Fraction(rnd.randint(1, 9), 10 ** 6)
            elif trial % 3 == 1 and len(zero) >= 2:
                i, j = zero[:2]
                rows[i][j] = rows[j][i] = Fraction(1, rnd.randint(1, 10 ** 6))
            if trial % 2 == 0:
                rows = [[v * 10 ** 30 for v in row] for row in rows]
            a = np.array(rows, dtype=object)
            ref = sympy.Matrix(n, n, [sympy.Rational(v.numerator,
                                                     v.denominator)
                                      for row in rows for v in row])
            rank = symcore._exact_psd(symcore._scaled(a)[0])
            if ref.is_positive_semidefinite:
                assert rank == ref.rank(), (trial, rows)
                psd_ranks.add(rank)
            else:
                assert rank is None, (trial, rows)
                not_psd += 1
        assert psd_ranks >= set(range(6)) and not_psd >= 20

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(
        st.integers(-10 ** 40, 10 ** 40),
        st.fractions(max_denominator=10 ** 12),
        st.floats(allow_nan=False, allow_infinity=False)),
        min_size=1, max_size=12))
    def test_scaled_is_exact_on_int_numerators(self, entries):
        a = np.empty(len(entries), dtype=object)
        a[:] = entries
        num, den = symcore._scaled(a)
        assert num.shape == a.shape
        assert all(type(p) is int for p in num.tolist())
        assert all(Fraction(p, den) == Fraction(e)
                   for p, e in zip(num.tolist(), entries))
        assert den == math.lcm(*(Fraction(e).denominator for e in entries))


class TestPsdBattery:
    def test_matches_is_psd_block_by_block(self):
        rnd = random.Random(4)
        rng = np.random.default_rng(4)
        for _ in range(20):
            k = rnd.randint(1, 4)
            exact = [random_rational_sym(rnd, k, num=3, den=2)
                     for _ in range(6)]
            floats = [random_sym(rng, k) for _ in range(6)]
            for blocks, tol in ((exact, 0), (exact, 1e-9), (floats, 1e-9)):
                blocks = blocks + blocks[:3]  # repeated blocks
                # an exact stack goes in as the numerators of its view
                stack = np.stack([b.entries for b in blocks])
                num, den = (symcore._scaled(stack) if blocks[0].is_exact
                            else (stack, 1))
                psd, lam, finite = symcore._psd_battery(num, tol, den)
                assert finite
                assert psd == all(is_psd(b, tol).is_psd for b in blocks)
                for b, spectrum in zip(blocks, lam):
                    assert spectrum == pytest.approx(
                        np.linalg.eigvalsh(b.as_array()), abs=1e-12)
                for b in blocks:
                    num, den = b._nd if b.is_exact else (b.entries, 1)
                    one = symcore._psd_battery(num[None], tol, den)
                    assert one[0] == is_psd(b, tol).is_psd

    def test_one_eigensolve_and_pivot_test_per_distinct_block(
            self, monkeypatch):
        eig_rows, pivots = [], []
        real_psd, real_eig = symcore._exact_psd, np.linalg.eigvalsh

        def spy(block):
            pivots.append(block)
            return real_psd(block)

        def eig(a):
            eig_rows.append(len(a))
            return real_eig(a)

        monkeypatch.setattr(symcore, "_exact_psd", spy)
        monkeypatch.setattr(np.linalg, "eigvalsh", eig)
        one, two = SymMatrix.diag([1, Fraction(2, 2)]), SymMatrix.diag([1, 2])
        stack = np.stack([b._nd[0] for b in (one, two, one, two, two)])
        psd, lam, _ = symcore._psd_battery(stack, 0)
        assert psd
        assert eig_rows == [2] and len(pivots) == 2
        assert lam[0].tolist() == lam[2].tolist() == [1.0, 1.0]

    @pytest.mark.parametrize("shift", [0.0, -0.5])
    def test_float_stack_is_one_eigvalsh_as_it_stands(self, monkeypatch,
                                                      shift):
        # float blocks are not keyed: LAPACK decides each block on its own,
        # so the stack's own spectra come back to the bit, repeats included
        rng = np.random.default_rng(35)
        w = rng.standard_normal((4, 3, 3))
        distinct = w @ w.transpose(0, 2, 1) + shift * np.eye(3)
        stack = distinct[[0, 1, 0, 2, 3, 1, 0]]
        rows, real = [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda a: rows.append(len(a)) or real(a))
        psd, lam, finite = symcore._psd_battery(stack, 1e-9)
        assert rows == [7] and finite
        assert lam.tobytes() == real(stack).tobytes()
        assert psd == all(is_psd(SymMatrix.from_array(b), 1e-9).is_psd
                          for b in stack)

    def test_exact_pivot_tests_stop_at_the_first_failure(self, monkeypatch):
        pivots = []
        real = symcore._exact_psd
        monkeypatch.setattr(symcore, "_exact_psd",
                            lambda a: pivots.append(a) or real(a))
        blocks = [[[1, 0], [0, 1]], [[1, 2], [2, 1]], [[2, 0], [0, 1]],
                  [[-1, 0], [0, 1]]]
        stack = np.array(blocks, dtype=object)
        psd, lam, _ = symcore._psd_battery(stack, 0)
        assert not psd and len(pivots) == 2
        assert lam[:, 0].tolist() == [1.0, -1.0, 1.0, -1.0]

    def test_float_range_guard(self):
        # beyond the float range the spectra are of the blocks scaled by the
        # largest entry, and only the exact test decides
        stack = np.array([[[2 ** 1030, 0], [0, 2 ** 1029]]], dtype=object)
        psd, lam, finite = symcore._psd_battery(stack, 0)
        assert psd and not finite
        assert lam[0].tolist() == [0.5, 1.0]
        with pytest.raises(ValueError, match="float range"):
            symcore._psd_battery(stack, 1e-9)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
    def test_bad_tol_rejected(self, tol):
        stack = np.array([[[1.0, 2.0], [2.0, 1.0]]])
        with pytest.raises(ValueError, match="tol"):
            symcore._psd_battery(stack, tol)


class TestProjectPsd:
    def test_fixed_point_on_psd(self):
        rng = np.random.default_rng(11)
        w = rng.standard_normal((4, 4))
        a = SymMatrix.from_array(w @ w.T)
        p = project_psd(a)
        assert np.max(np.abs(p.as_array() - a.as_array())) <= 1e-10 * (1 + a.max_abs())

    def test_eigenvalue_clipping(self):
        p = project_psd(SymMatrix.diag([1.0, -1.0]))
        assert np.allclose(p.as_array(), np.diag([1.0, 0.0]), atol=1e-12)

    def test_idempotent_and_psd(self):
        rng = np.random.default_rng(12)
        a = random_sym(rng, 5)
        p = project_psd(a)
        assert is_psd(p, 1e-9).is_psd
        pp = project_psd(p)
        assert np.max(np.abs(pp.as_array() - p.as_array())) <= 1e-9

    def test_sampled_optimality(self):
        # ||A - P(A)||_F <= ||A - S||_F over random psd S
        rng = np.random.default_rng(13)
        a = random_sym(rng, 4)
        p = project_psd(a)
        base = np.linalg.norm(a.as_array() - p.as_array())
        for _ in range(100):
            w = rng.standard_normal((4, 4))
            s = w @ w.T
            assert base <= np.linalg.norm(a.as_array() - s) + 1e-12

    def test_batch_matches_public_projection(self):
        rng = np.random.default_rng(14)
        mats = [random_sym(rng, 4) for _ in range(6)]
        stack = np.stack([m.as_array() for m in mats])
        batch = _project_psd(stack)
        for m, b in zip(mats, batch):
            tol = 1e-10 * (1 + m.max_abs())
            single = _project_psd(m.as_array())
            assert np.max(np.abs(single - b)) <= tol
            assert np.max(np.abs(project_psd(m).as_array() - b)) <= tol
            # Moreau: A = P(A) - N with N psd and <P(A), N> = 0
            rest = b - m.as_array()
            assert np.linalg.eigvalsh(rest)[0] >= -tol
            assert abs(np.vdot(b, rest)) <= tol


BLOCK_KINDS = ("negative definite", "negative semidefinite singular",
               "positive semidefinite", "indefinite")


def block_of_kind(rng, k, kind):
    """A random symmetric ``k x k`` block of one of ``BLOCK_KINDS``, scaled
    by a power of two.  A singular negative semidefinite block is
    ``-L D L^T`` with small integers in the unit lower-triangular ``L`` and
    the diagonal ``D``, one entry of ``D`` zero, so that elimination meets
    an exact zero pivot."""
    scale = 2.0 ** int(rng.integers(-20, 21))
    if kind == "negative semidefinite singular":
        L = np.tril(rng.integers(-2, 3, (k, k)), -1) + np.eye(k)
        D = rng.integers(1, 4, k)
        D[rng.integers(k)] = 0
        return -scale * (L * D) @ L.T
    lam = rng.uniform(0.5, 2.0, k)
    if kind == "negative definite":
        lam = -lam
    elif kind == "positive semidefinite":
        lam[rng.random(k) < 0.3] = 0.0
    else:  # indefinite; a 1 x 1 block comes out positive definite
        lam[:k // 2] *= -1
    q, _ = np.linalg.qr(rng.standard_normal((k, k)))
    b = (q * lam) @ q.T
    return scale * (b + b.T) / 2


def per_block_clip(stack):
    """The psd projection of each block on its own, one ``eigh`` each."""
    out = np.empty_like(stack)
    for s, b in enumerate(stack):
        lam, vec = np.linalg.eigh((b + b.T) / 2)
        p = (vec * np.maximum(lam, 0.0)) @ vec.T
        out[s] = (p + p.T) / 2
    return out


class TestProjectPsdTriage:
    """Stacks with more than ``_TRIAGE_ABOVE_BLOCKS`` candidate blocks (an
    all-negative diagonal) skip the eigensolve on the negative definite ones;
    the rest project as a per-block ``eigh`` clip would."""

    @given(st.integers(1, 6), st.integers(1, 160), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_per_block_clip(self, k, m, seed):
        rng = np.random.default_rng(seed)
        kinds = [BLOCK_KINDS[i] for i in rng.integers(4, size=m)]
        stack = np.stack([block_of_kind(rng, k, kind) for kind in kinds])
        nd = np.array([kind == "negative definite" for kind in kinds])
        cand = np.all(np.diagonal(stack, axis1=1, axis2=2) < 0.0, axis=1)
        # the triage proves exactly the negative definite blocks; a zero
        # pivot leaves a singular block to the eigensolver
        assert np.array_equal(_negative_definite(stack), nd)
        assert not np.any(nd & ~cand)
        triaged, clipped = [], []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(symcore, "_negative_definite",
                       lambda s: triaged.append(s) or _negative_definite(s))
            mp.setattr(symcore, "_clip_psd",
                       lambda s: clipped.append(s) or _clip_psd(s))
            out = _project_psd(stack)
        ref = per_block_clip(stack)
        tol = 1e-15 * (1 + np.max(np.abs(stack), axis=(1, 2)))
        assert np.all(np.max(np.abs(out - ref), axis=(1, 2)) <= tol)
        # a negative definite block projects to exact zeros either way
        assert not np.any(out[nd])
        if np.count_nonzero(cand) > symcore._TRIAGE_ABOVE_BLOCKS:
            # only the candidates reach the triage, and every block it
            # skips is one it proved negative definite
            [seen] = triaged
            assert np.array_equal(seen, stack[cand])
            assert np.array_equal(clipped[0], stack[~nd])
        else:  # few candidates and single matrices take the untriaged path
            assert triaged == []
            assert np.array_equal(out, _clip_psd(stack))
            assert np.array_equal(_project_psd(stack[0]), _clip_psd(stack[0]))
            assert project_psd(SymMatrix.from_array(stack[0])) == \
                SymMatrix.from_array(_clip_psd(stack[0]))

    def test_triage_only_above_the_gate(self, monkeypatch):
        def fail(s):
            raise AssertionError("triaged")

        monkeypatch.setattr(symcore, "_negative_definite", fail)
        gate = symcore._TRIAGE_ABOVE_BLOCKS
        # gate + 1 candidates among 4 gate blocks; the others have a
        # positive diagonal entry
        stack = np.tile(-np.eye(2), (4 * gate, 1, 1))
        stack[gate + 1:, 0, 0] = 1.0
        _project_psd(stack[0])
        _project_psd(stack[1:])
        _project_psd(np.concatenate([stack[:gate], -stack[gate:]]))
        with pytest.raises(AssertionError, match="triaged"):
            _project_psd(stack)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", [(0, 0), (1, 2)])
    def test_non_finite_block_as_without_triage(self, bad, where):
        rng = np.random.default_rng(15)
        # 40 negative definite blocks, past the triage gate
        stack = np.stack([block_of_kind(rng, 3, BLOCK_KINDS[s % 4])
                          for s in range(160)])
        # block 4 is negative definite but for the non-finite entry
        stack[4][where] = stack[4][where[::-1]] = bad

        def outcome(f):
            try:
                return f()
            except np.linalg.LinAlgError as e:
                return str(e)

        untriaged = outcome(lambda: _clip_psd(stack))
        got = outcome(lambda: _project_psd(stack))
        if isinstance(untriaged, str):
            assert isinstance(got, str) and got == untriaged
        else:
            assert np.all(np.isnan(got[4]))
            tol = 1e-15 * (1 + np.max(np.abs(stack[np.isfinite(stack)])))
            np.testing.assert_allclose(got, untriaged, rtol=0, atol=tol,
                                       equal_nan=True)


class TestScaleCongruence:
    def test_identity(self):
        a = SymMatrix.from_rows([[1, 2], [2, 5]])
        assert scale_congruence(a, [[1, 0], [0, 1]]) == a

    def test_permutation_swap(self):
        a = SymMatrix.diag([1, 2])
        swapped = scale_congruence(a, [[0, 1], [1, 0]])
        assert swapped == SymMatrix.diag([2, 1])

    def test_positive_diagonal(self):
        a = SymMatrix.from_rows([[1, 1], [1, 4]])
        out = scale_congruence(a, [[2, 0], [0, 3]])
        assert out == SymMatrix.from_rows([[4, 6], [6, 36]])

    def test_sign_flip_requires_flag(self):
        a = SymMatrix.identity(2)
        out = scale_congruence(a, [[1, 0], [0, -1]])
        assert out == SymMatrix.identity(2)

    def test_scaled_permutation(self):
        a = SymMatrix.from_rows([[1, 2], [2, 5]])
        out = scale_congruence(a, [[0, Fraction(1, 2)], [-3, 0]])
        assert out.is_exact
        assert out == SymMatrix.from_rows([[45, -3], [-3, Fraction(1, 4)]])

    def test_permutation_keeps_entries(self):
        # every nonzero equal to 1, a float 1.0 too, only re-indexes A
        a = SymMatrix.from_rows([[1, Fraction(1, 3)], [Fraction(1, 3), 5]])
        for q in ([[1.0, 0.0], [0.0, 1.0]], np.eye(2), [[0, 1.0], [1, 0]]):
            out = scale_congruence(a, q)
            assert out.is_exact
            assert [type(e) for e in out.entries.ravel()] == [
                type(e) for e in a.entries.ravel()]
        assert scale_congruence(a, np.eye(2)) == a

    def test_rejects_general_matrix(self):
        with pytest.raises(ValueError):
            scale_congruence(SymMatrix.identity(2), [[1, 1], [0, 1]])


class TestMatrixJson:
    def test_round_trip_exact(self):
        m = SymMatrix.from_rows([[Fraction(1, 3), 2], [2, 5]])
        again = load_matrix_json(json.dumps(matrix_to_json(m)))
        assert again == m
        assert again.is_exact

    def test_rational_strings(self):
        m = load_matrix_json({"n": 2, "rows": [["1/3", 1], [1, "-2/5"]]})
        assert m[0, 0] == Fraction(1, 3)
        assert m[1, 1] == Fraction(-2, 5)

    def test_rejects_asymmetry(self):
        with pytest.raises(ValueError):
            load_matrix_json({"n": 2, "rows": [[1.0, 0.5], [0.6, 1.0]]})
        with pytest.raises(ValueError, match=r"asymmetric input at \(1,2\)"):
            load_matrix_json({"n": 3, "rows": [[1, 0, 0], [0, 1, "1/3"],
                                               [0, "1/4", 1]]})

    def test_averages_float_asymmetry_below_the_limit(self):
        # the limit is 1e-12 (1 + max|entry|) = 4e-12 here
        lower = 0.5 + 3e-12
        m = load_matrix_json({"n": 3, "rows": [[1.0, 0.5, 0], [lower, 2.0, 0],
                                               [0, 0, 3.0]]})
        assert not m.is_exact
        assert m[0, 1] == m[1, 0] == (0.5 + lower) / 2.0
        assert m[0, 0] == 1.0 and m[2, 2] == 3.0
        huge = load_matrix_json({"n": 2, "rows": [[1e308, 0.5], [0.5, 1.0]]})
        assert huge[0, 0] == 1e308
        huge = load_matrix_json({"n": 2, "rows": [[1.0, 1.7e308],
                                                  [1.7e308, 1.0]]})
        assert huge[0, 1] == huge[1, 0] == 1.7e308
        with pytest.raises(ValueError, match=r"asymmetric input at \(0,1\)"):
            load_matrix_json({"n": 3, "rows": [[1.0, 0.5, 0], [0.5 + 5e-12, 2.0, 0],
                                               [0, 0, 3.0]]})

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            load_matrix_json({"rows": [[1]]})
        with pytest.raises(ValueError, match="dimension must be >= 1, got 0"):
            load_matrix_json({"n": 0, "rows": []})
        with pytest.raises(ValueError, match="boolean is not a matrix entry"):
            load_matrix_json({"n": 2, "rows": [[1, True], [True, 1]]})
        with pytest.raises(ValueError):
            load_matrix_json({"n": 2, "rows": [[1, 0], [0]]})
