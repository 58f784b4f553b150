import math
import random
from fractions import Fraction

import numpy as np
import pytest

from factorwidth.decompose import SolverOptions, fw_membership
from factorwidth.families import (
    PnaSpec,
    example_m_fixtures,
    pna_form,
    pna_threshold,
    pna_witness_decomposition,
    qprime_canonical,
    rank_one_perturb_det,
    sobs_comparison,
)
from factorwidth.polyforms import (
    QuadraticForm,
    gram_to_poly,
    monomial_basis,
    multiply_weighted_power,
)
from factorwidth.symcore import SymMatrix, _InputError, frobenius_inner, is_psd

# a boolean or a non-integral size is named; an integral float reads as int
_NOT_SIZES = [(True, "True"), (2.5, "2.5"), ("2", "'2'")]


class TestPnaForm:
    def test_n2_a1_is_binomial_square(self):
        q = pna_form(PnaSpec(2, 1))
        assert q.Q == SymMatrix.from_rows([[1, 1], [1, 1]])

    def test_n3_a2(self):
        q = pna_form(PnaSpec(3, 2))
        assert q.Q == SymMatrix.from_rows([[2, 1, 1], [1, 2, 1], [1, 1, 2]])

    def test_trace(self):
        rnd = random.Random(0)
        for _ in range(10):
            n = rnd.randint(1, 6)
            a = Fraction(rnd.randint(-5, 9), rnd.randint(1, 4))
            Q = pna_form(PnaSpec(n, a)).Q
            assert sum(Fraction(Q[i, i]) for i in range(n)) == n * a

    @pytest.mark.parametrize("n, named", _NOT_SIZES)
    def test_non_integer_n_rejected(self, n, named):
        # PnaSpec(True, 3) once built a 1 x 1 matrix
        with pytest.raises(_InputError, match=f"^{named} is not an integer"):
            pna_form(PnaSpec(n, 3))
        assert PnaSpec(3.0, 2).n == 3 and type(PnaSpec(3.0, 2).n) is int
        assert pna_form(PnaSpec(3.0, 2)).Q == pna_form(PnaSpec(3, 2)).Q


class TestRankOnePerturbDet:
    def test_equal_entries_singular(self):
        assert rank_one_perturb_det(3, 3, 2) == 0
        assert rank_one_perturb_det(Fraction(1, 2), Fraction(1, 2), 5) == 0

    def test_2x2(self):
        # det [[3,1],[1,3]] by the 2x2 formula
        assert rank_one_perturb_det(3, 1, 2) == 8

    @pytest.mark.parametrize("m, named", _NOT_SIZES)
    def test_non_integer_m_rejected(self, m, named):
        # m = 2.5 once gave 3.5, and True ran as m = 1
        with pytest.raises(_InputError, match=f"^{named} is not an integer"):
            rank_one_perturb_det(2, 1, m)
        assert rank_one_perturb_det(3, 1, 2.0) == 8

    def test_matches_cofactor_oracle(self):
        def oracle_det(b, c, m):
            rows = [[b if i == j else c for j in range(m)] for i in range(m)]

            def det(mat):
                if len(mat) == 1:
                    return mat[0][0]
                total = 0
                for j in range(len(mat)):
                    minor = [r[:j] + r[j + 1:] for r in mat[1:]]
                    total += (-1) ** j * mat[0][j] * det(minor)
                return total

            return det(rows)

        assert rank_one_perturb_det(2, 1, 3) == 4
        assert oracle_det(2, 1, 3) == 4
        rnd = random.Random(1)
        for _ in range(10):
            b = Fraction(rnd.randint(-4, 4), rnd.randint(1, 3))
            c = Fraction(rnd.randint(-4, 4), rnd.randint(1, 3))
            m = rnd.randint(1, 5)
            assert rank_one_perturb_det(b, c, m) == oracle_det(b, c, m)


class TestPnaThreshold:
    def test_values(self):
        assert pna_threshold(3, 2) == 2
        assert pna_threshold(4, 3) == Fraction(3, 2)
        for n in (2, 4, 7):
            assert pna_threshold(n, n) == 1

    def test_k1_rejected(self):
        with pytest.raises(ValueError):
            pna_threshold(3, 1)

    @pytest.mark.parametrize("size, named", _NOT_SIZES)
    def test_non_integer_sizes_rejected(self, size, named):
        # a float k once raised TypeError from Fraction
        for args in ((size, 2), (4, size)):
            with pytest.raises(_InputError, match=f"^{named} is not an integer"):
                pna_threshold(*args)
        assert pna_threshold(4.0, 3.0) == Fraction(3, 2)


class TestPnaWitness:
    def test_n3_k2_a2(self):
        d = pna_witness_decomposition(3, 2, 2)
        assert len(d.blocks) == 3
        for _, block in d.blocks:
            assert block == SymMatrix.from_rows([[1, 1], [1, 1]])
        assert d.residual == 0

    def test_n4_k3_at_threshold(self):
        d = pna_witness_decomposition(4, 3, Fraction(3, 2))
        assert len(d.blocks) == 4
        expected = SymMatrix.from_rows(
            [[Fraction(1, 2) if i == j else Fraction(1, 2) for j in range(3)]
             for i in range(3)])
        for _, block in d.blocks:
            assert block == expected

    def test_full_width_single_block(self):
        d = pna_witness_decomposition(5, 5, 1)
        assert len(d.blocks) == 1
        assert d.blocks[0][1] == pna_form(PnaSpec(5, Fraction(1))).Q

    def test_below_threshold_rejected(self):
        with pytest.raises(ValueError):
            pna_witness_decomposition(4, 3, Fraction(14, 10))

    @pytest.mark.parametrize("size, named", _NOT_SIZES)
    def test_non_integer_sizes_rejected(self, size, named):
        for args in ((size, 3, 2), (4, size, 2)):
            with pytest.raises(_InputError, match=f"^{named} is not an integer"):
                pna_witness_decomposition(*args)
        d = pna_witness_decomposition(4, 3.0, 2)
        assert d.k == 3 and len(d.blocks) == 4 and d.residual == 0

    def test_reconstruction_exact_above_threshold(self):
        for (n, k) in [(4, 2), (5, 3), (6, 4)]:
            a = pna_threshold(n, k) + Fraction(1, 3)
            d = pna_witness_decomposition(n, k, a)
            assert d.residual == 0
            assert len(d.blocks) == math.comb(n, k)
            for _, block in d.blocks:
                assert is_psd(block, 0).is_psd


class TestSobsComparison:
    def test_binomial_square(self):
        rep = sobs_comparison(SymMatrix.from_rows([[1, 1], [1, 1]]))
        assert rep.is_sobs
        assert rep.comparison == SymMatrix.from_rows([[1, -1], [-1, 1]])

    def test_pna_below_binomial_threshold(self):
        rep = sobs_comparison(pna_form(PnaSpec(3, 1.9)).Q)
        assert not rep.is_sobs

    def test_pna_at_binomial_threshold(self):
        # comparison matrix determinant vanishes: (2+1-3)(2+1)^2 = 0
        assert rank_one_perturb_det(2, -1, 3) == 0
        rep = sobs_comparison(pna_form(PnaSpec(3, 2)).Q)
        assert rep.is_sobs

    def test_sign_insensitive(self):
        q1 = SymMatrix.from_rows([[2, 1], [1, 2]])
        q2 = SymMatrix.from_rows([[2, -1], [-1, 2]])
        assert sobs_comparison(q1).comparison == sobs_comparison(q2).comparison


class TestFixtures:
    def test_entries_pinned(self):
        fx = example_m_fixtures()
        assert fx.M[0, 0] == 49
        assert fx.M[4, 4] == 73
        assert fx.Qprime[1, 1] == 66
        assert fx.Qprime[1, 5] == Fraction(-11, 5)
        assert len(fx.supports27) == 27

    def test_upper_left_block_of_m(self):
        from factorwidth.symcore import Support, principal_submatrix

        fx = example_m_fixtures()
        block = principal_submatrix(fx.M, Support.of([0, 1, 2, 3]))
        assert block.rows()[0] == [49, -21, 37, -37]

    def test_quadratic_not_width4_via_soks(self):
        from factorwidth.polyforms import QuadraticForm, quadratic_gram, soks_test

        fx = example_m_fixtures()
        p = QuadraticForm(Q=fx.M).to_poly()
        v = soks_test(p, 4, quadratic_gram(p))
        assert v.status == "non_member"
        assert v.diagnostics["gram_conditional"] is False

    def test_exact_pairing(self):
        fx = example_m_fixtures()
        assert frobenius_inner(fx.A, fx.M) == -1

    def test_supports_cover_every_nonzero_entry(self):
        fx = example_m_fixtures()
        covered = set()
        for K in fx.supports27:
            for i in K:
                for j in K:
                    covered.add((i, j))
        for i in range(15):
            for j in range(15):
                if fx.Qprime[i, j] != 0:
                    assert (i, j) in covered

    def test_canonical_gram_expands_to_lifted_quadratic(self):
        fx = example_m_fixtures()
        canon, sups = qprime_canonical()
        q_m = QuadraticForm(Q=fx.M)
        lifted = multiply_weighted_power(q_m, [1] * 5, 1)
        assert gram_to_poly(canon, monomial_basis(5, 2)) == lifted
        assert len(sups) == 27

    def test_canonical_gram_membership_via_soks(self):
        from factorwidth.polyforms import soks_test

        fx = example_m_fixtures()
        canon, sups = qprime_canonical()
        q_m = QuadraticForm(Q=fx.M)
        lifted = multiply_weighted_power(q_m, [1] * 5, 1)
        v = soks_test(lifted, 4, canon, SolverOptions(support_list=sups))
        assert v.status == "member"
        assert v.diagnostics["gram_conditional"] is True


class TestParityPairingClosedForm:
    def test_bnr_pairing_identity_exact(self):
        # <B_{n,r}, Gram of (sum x_i^2)^r p_n^a> == n^{r+1}((k-1)a - (n-1))
        from factorwidth.dualcone import bnr_certificate
        from factorwidth.polyforms import default_gram, monomial_basis, \
            multiply_weighted_power

        rnd = random.Random(7)
        for n in (3, 4):
            for r in (0, 1, 2):
                for k in (2, 3):
                    B = bnr_certificate(n, r, k)
                    a = Fraction(rnd.randint(-6, 12), rnd.randint(1, 5))
                    q = pna_form(PnaSpec(n, a))
                    H = default_gram(multiply_weighted_power(q, [1] * n, r),
                                     monomial_basis(n, r + 1))
                    assert frobenius_inner(B, H) == \
                        n ** (r + 1) * ((k - 1) * a - (n - 1))


class TestThresholdSuiteBothDirections:
    @pytest.mark.parametrize("n,k", [(3, 2), (4, 2), (4, 3), (5, 3), (5, 4),
                                     (6, 4)])
    def test_accept_at_threshold_and_reject_below(self, n, k):
        thr = pna_threshold(n, k)
        # witness validates independently and the solver accepts
        d = pna_witness_decomposition(n, k, thr)
        assert d.residual == 0
        assert fw_membership(pna_form(PnaSpec(n, thr)).Q, k).status == "member"
        # reject slightly below with a verified certificate
        Q = pna_form(PnaSpec(n, thr - Fraction(1, 20))).Q
        v = fw_membership(Q, k)
        assert v.status == "non_member"
        assert v.certificate.normalized_value(Q) <= -1e-4
