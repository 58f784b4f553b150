"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
import sympy

from factorwidth.decompose import SolverOptions, fw_membership
from factorwidth.dualcone import (
    bnr_certificate,
    check_extreme_candidate,
    cos_ray,
    dual_membership,
    lift_quaternary_certificate,
)
from factorwidth.families import (
    PnaSpec,
    example_m_fixtures,
    pna_form,
    pna_threshold,
    pna_witness_decomposition,
    sobs_comparison,
)
from factorwidth.polyforms import (
    QuadraticForm,
    default_gram,
    monomial_basis,
    multiplier_gram,
    multiply_weighted_power,
    parity_aggregates,
    quadratic_gram,
    soks_test,
)
from factorwidth.symcore import (
    SymMatrix,
    Support,
    eigen_sym,
    frobenius_inner,
    is_psd,
    principal_submatrix,
)


class _criterion:
    """Print the criterion verdict whether the body passes or raises."""

    def __init__(self, number, budget_seconds=None):
        self.number = number
        self.budget = budget_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        ok = exc_type is None and (self.budget is None or elapsed <= self.budget)
        print(f"\n[acceptance] criterion {self.number}: "
              f"{'PASS' if ok else 'FAIL'} ({elapsed:.1f}s)")
        if ok and exc_type is None and self.budget is not None:
            assert elapsed <= self.budget, (
                f"criterion {self.number} exceeded its {self.budget}s budget")
        return False


def random_rational_sym(rnd, n, num=9, den=7):
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = Fraction(rnd.randint(-num, num), rnd.randint(1, den))
            rows[i][j] = rows[j][i] = v
    return SymMatrix.from_rows(rows)


def test_criterion_1_exact_separation():
    with _criterion(1, budget_seconds=1.0):
        fx = example_m_fixtures()
        for K in itertools.combinations(range(5), 4):
            sub = principal_submatrix(fx.A, Support.of(K))
            assert is_psd(sub, 0).is_psd, f"A_{K} not psd"
        pairing = frobenius_inner(fx.A, fx.M)
        assert pairing == -1
        # A lies in the dual cone of width-4 matrices and pairs negatively
        # with M, so M cannot have factor width 4
        assert dual_membership(fx.A, 4, 0).is_member
        assert pairing < 0


def test_criterion_2_lifted_gram_decomposition():
    with _criterion(2, budget_seconds=60.0):
        fx = example_m_fixtures()
        opts = SolverOptions(feas_tol=1e-7, support_list=list(fx.supports27))
        v = fw_membership(fx.Qprime, 4, opts)
        assert v.status == "member"
        d = v.decomposition
        assert d.residual <= 1e-6 * (1.0 + fx.Qprime.max_abs())
        assert len(d.blocks) <= 27
        for K, block in d.blocks:
            assert len(K) <= 4
            assert is_psd(block, 1e-8).is_psd


@pytest.mark.parametrize("n,k", [(3, 2), (4, 2), (4, 3), (5, 3), (5, 4),
                                 (6, 4)])
def test_criterion_3_threshold_suite(n, k):
    with _criterion(f"3 ({n},{k})", budget_seconds=20.0):
        thr = pna_threshold(n, k)
        d = pna_witness_decomposition(n, k, thr)
        assert d.residual == 0
        assert len(d.blocks) == math.comb(n, k)
        for _, block in d.blocks:
            assert block.is_exact
            assert is_psd(block, 0).is_psd
        Q = pna_form(PnaSpec(n, thr - Fraction(1, 20))).Q
        verdict = fw_membership(Q, k)
        assert verdict.status == "non_member"
        cert = verdict.certificate
        assert cert is not None
        assert dual_membership(cert.B, k, 1e-9).is_member
        assert cert.normalized_value(Q) <= -1e-4


def test_criterion_4_parity_certificate_validity():
    with _criterion(4):
        for n in (3, 4):
            for k in (2, 3):
                for r in (1, 2):
                    B = bnr_certificate(n, r, k)
                    for K in itertools.combinations(range(B.n), k):
                        rows = [[B[i, j] for j in K] for i in K]
                        assert is_psd(SymMatrix.from_rows(rows), 0).is_psd
                    for a in (Fraction(1), Fraction(3, 2), Fraction(2)):
                        q = pna_form(PnaSpec(n, a))
                        p = multiply_weighted_power(q, [1] * n, r)
                        H = default_gram(p, monomial_basis(n, r + 1))
                        pairing = frobenius_inner(B, H)
                        expected = n ** (r + 1) * ((k - 1) * a - (n - 1))
                        assert pairing == expected


def test_criterion_5_lift_inner_product_identity():
    with _criterion(5):
        lambdas = [[1, 1, 1, 1], [1, 2, 1, 3]]
        rnd = random.Random(55)
        # float path: cosine-parametrized base certificates, 1e-9 relative
        bases = [cos_ray(math.pi / 2, math.pi / 4), cos_ray(1.0, 2.0)]
        for trial in range(20):
            Q = random_rational_sym(rnd, 4)
            q = QuadraticForm(Q=Q)
            for lam in lambdas:
                for r in (1, 2):
                    p = multiply_weighted_power(q, lam, r)
                    gram = default_gram(p, monomial_basis(4, r + 1))
                    s = sum(Fraction(v) ** 2 for v in lam) ** r
                    for B4 in bases:
                        lifted = lift_quaternary_certificate(B4, r, 1.0)
                        lhs = float(frobenius_inner(lifted, gram))
                        rhs = float(s) * float(frobenius_inner(B4, Q))
                        assert lhs == pytest.approx(
                            rhs, rel=1e-9, abs=1e-9 * (1 + abs(rhs)))
        # exact path: rational unit-diagonal base certificates, exact equality
        for trial in range(20):
            Q = random_rational_sym(rnd, 4)
            q = QuadraticForm(Q=Q)
            rows = [[Fraction(1)] * 4 for _ in range(4)]
            for i in range(4):
                for j in range(i + 1, 4):
                    v = Fraction(rnd.randint(-5, 5), 5)
                    rows[i][j] = rows[j][i] = v
            B4 = SymMatrix.from_rows(rows)
            for lam in lambdas:
                for r in (1, 2):
                    p = multiply_weighted_power(q, lam, r)
                    gram = default_gram(p, monomial_basis(4, r + 1))
                    s = sum(Fraction(v) ** 2 for v in lam) ** r
                    lifted = lift_quaternary_certificate(B4, r, 1)
                    assert frobenius_inner(lifted, gram) == \
                        s * frobenius_inner(B4, Q)


def test_criterion_6_extreme_ray_family():
    with _criterion(6, budget_seconds=5.0):
        rng = np.random.default_rng(6)
        samples = []
        while len(samples) < 32:
            a, c = rng.uniform(-math.pi, math.pi, size=2)
            if abs(math.sin(a) * math.sin(c) * math.sin(a - c)) > 0.1:
                samples.append((a, c))
        for a, c in samples:
            B = cos_ray(a, c)
            for idx in itertools.combinations(range(4), 3):
                i, j, l = idx
                minor = (
                    B[i, i] * (B[j, j] * B[l, l] - B[j, l] ** 2)
                    - B[i, j] * (B[i, j] * B[l, l] - B[j, l] * B[i, l])
                    + B[i, l] * (B[i, j] * B[j, l] - B[j, j] * B[i, l])
                )
                assert abs(minor) <= 1e-10
            det = float(np.linalg.det(B.as_array()))
            expected = (-4 * math.sin(a) ** 2 * math.sin(a - c) ** 2
                        * math.sin(c) ** 2)
            assert abs(det - expected) <= 1e-10
            assert eigen_sym(B).eigenvalues[0] < -1e-3
            assert check_extreme_candidate(B).is_extreme


def test_criterion_7_binomial_oracle_equivalence():
    with _criterion(7):
        rng = np.random.default_rng(7)
        checked = 0
        for trial in range(200):
            n = 3 if trial % 2 == 0 else 4
            w = rng.standard_normal((n, n))
            noise = rng.standard_normal((n, n))
            sigma = (0.1, 0.3, 1.0)[trial % 3]
            A = SymMatrix.from_array(w @ w.T / n + sigma * (noise + noise.T) / 2)
            oracle = sobs_comparison(A)
            band = 1e-4 * (1.0 + oracle.comparison.max_abs())
            if abs(oracle.psd_report.min_eigenvalue) <= band:
                continue
            verdict = fw_membership(A, 2)
            assert verdict.status in ("member", "non_member")
            assert (verdict.status == "member") == oracle.is_sobs, trial
            checked += 1
        assert checked >= 150  # the margin band should exclude only a few


def test_criterion_8_multipliers_never_help_at_width_2():
    with _criterion(8, budget_seconds=120.0):
        ones = [1, 1, 1]
        for a in (Fraction(6, 5), Fraction(3, 2), Fraction(19, 10)):
            for r in (1, 2):
                q = pna_form(PnaSpec(3, a))
                p = multiply_weighted_power(q, ones, r)
                gram = default_gram(p, monomial_basis(3, r + 1))
                verdict = soks_test(p, 2, gram)
                assert verdict.status == "non_member", (a, r)
                cert = verdict.certificate
                assert cert is not None
                assert dual_membership(cert.B, 2, 1e-9).is_member
                assert float(frobenius_inner(cert.B, gram)) < 0
        # at the width-2 threshold the quadratic itself is accepted, and the
        # multiplied form is accepted under the width-preserving lift Gram
        q2 = pna_form(PnaSpec(3, Fraction(2)))
        p0 = q2.to_poly()
        assert soks_test(p0, 2, quadratic_gram(p0)).status == "member"
        p1 = multiply_weighted_power(q2, ones, 1)
        g1 = multiplier_gram(q2, ones, 1)
        assert soks_test(p1, 2, g1).status == "member"


def test_criterion_9_parity_aggregate_exactness():
    with _criterion(9):
        rnd = random.Random(99)
        for trial in range(50):
            n = rnd.randint(2, 4)
            r = rnd.randint(0, 3)
            Q = random_rational_sym(rnd, n, num=6, den=4)
            lam = [Fraction(rnd.randint(-3, 3), rnd.randint(1, 2))
                   for _ in range(n)]
            if all(v == 0 for v in lam):
                lam[0] = Fraction(1)
            p = multiply_weighted_power(QuadraticForm(Q=Q), lam, r)

            # independent oracle: full symbolic expansion
            xs = sympy.symbols(f"x0:{n}")
            q_expr = sum(sympy.Rational(Fraction(Q[i, j])) * xs[i] * xs[j]
                         for i in range(n) for j in range(n))
            mult = sum((sympy.Rational(v) * x) ** 2 for v, x in zip(lam, xs))
            expanded = sympy.Poly(sympy.expand(mult ** r * q_expr), *xs)
            oracle = {tuple(int(e) for e in mono): Fraction(int(c.p), int(c.q))
                      for mono, c in expanded.terms()}
            assert p.coefficients == oracle

            p0, pij = parity_aggregates(p)
            s = sum(v * v for v in lam) ** r
            assert p0 == s * sum(Fraction(Q[i, i]) for i in range(n))
            for i in range(n):
                for j in range(i + 1, n):
                    assert pij.get((i, j), Fraction(0)) == \
                        2 * s * Fraction(Q[i, j])
