import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorwidth import symcore
from factorwidth.symcore import (
    SymMatrix,
    Support,
    _BlockIndex,
    _clip_psd,
    _negative_definite,
    _project_psd,
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
            index = _BlockIndex(n, enumerate_supports(n, k))
            M = random_sym(rng, n)
            S = rng.standard_normal((len(index.supports), k, k))
            stack = index.gather(M.as_array())
            lhs = float(np.sum(stack * S))
            rhs = float(np.sum(M.as_array() * index.accumulate(S)))
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
            for s, K in enumerate(index.supports):
                assert np.array_equal(stack[s],
                                      principal_submatrix(M, K).as_array())

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            principal_submatrix(SymMatrix.identity(3), Support.of([0, 3]))
        with pytest.raises(IndexError):
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
    """Stacks of more than ``_TRIAGE_ABOVE_BLOCKS`` blocks skip the eigensolve
    on negative definite blocks; the rest project as a per-block ``eigh``
    clip would."""

    @given(st.integers(1, 6), st.integers(1, 70), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_per_block_clip(self, k, m, seed):
        rng = np.random.default_rng(seed)
        kinds = [BLOCK_KINDS[i] for i in rng.integers(4, size=m)]
        stack = np.stack([block_of_kind(rng, k, kind) for kind in kinds])
        nd = np.array([kind == "negative definite" for kind in kinds])
        # the triage proves exactly the negative definite blocks; a zero
        # pivot leaves a singular block to the eigensolver
        assert np.array_equal(_negative_definite(stack), nd)
        out = _project_psd(stack)
        ref = per_block_clip(stack)
        tol = 1e-15 * (1 + np.max(np.abs(stack), axis=(1, 2)))
        assert np.all(np.max(np.abs(out - ref), axis=(1, 2)) <= tol)
        if m > symcore._TRIAGE_ABOVE_BLOCKS:
            assert not np.any(out[nd])
        else:  # small stacks and single matrices take the untriaged path
            assert np.array_equal(out, _clip_psd(stack))
            assert np.array_equal(_project_psd(stack[0]), _clip_psd(stack[0]))
            assert project_psd(SymMatrix.from_array(stack[0])) == \
                SymMatrix.from_array(_clip_psd(stack[0]))

    def test_triage_only_above_the_gate(self, monkeypatch):
        def fail(s):
            raise AssertionError("triaged")

        monkeypatch.setattr(symcore, "_negative_definite", fail)
        stack = -np.ones((symcore._TRIAGE_ABOVE_BLOCKS + 1, 2, 2))
        _project_psd(stack[0])
        _project_psd(stack[1:])
        with pytest.raises(AssertionError, match="triaged"):
            _project_psd(stack)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", [(0, 0), (1, 2)])
    def test_non_finite_block_as_without_triage(self, bad, where):
        rng = np.random.default_rng(15)
        stack = np.stack([block_of_kind(rng, 3, BLOCK_KINDS[s % 4])
                          for s in range(40)])
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
        with pytest.raises(ValueError):
            load_matrix_json({"n": 2, "rows": [[1, 0], [0]]})
