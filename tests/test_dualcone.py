import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from factorwidth.dualcone import (
    CosExtremeRay,
    bnr_certificate,
    check_extreme_candidate,
    cos_certificate_search,
    cos_ray,
    dual_membership,
    dykstra_dual_certificate,
    lift_quaternary_certificate,
    verify_candidate,
)
from factorwidth.decompose import fw_membership
from factorwidth.families import example_m_fixtures, pna_form, PnaSpec
from factorwidth.polyforms import monomial_basis
from factorwidth.symcore import (
    SymMatrix,
    Support,
    eigen_sym,
    frobenius_inner,
    is_psd,
    scale_congruence,
)


def det3(m, idx):
    a, b, c = idx
    return (
        m[a, a] * (m[b, b] * m[c, c] - m[b, c] ** 2)
        - m[a, b] * (m[a, b] * m[c, c] - m[b, c] * m[a, c])
        + m[a, c] * (m[a, b] * m[b, c] - m[b, b] * m[a, c])
    )


def sample_angles(count, floor=0.1, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        a, c = rng.uniform(-math.pi, math.pi, size=2)
        if abs(math.sin(a) * math.sin(c) * math.sin(a - c)) > floor:
            out.append((a, c))
    return out


class TestDualMembership:
    def test_psd_is_member(self):
        rng = np.random.default_rng(0)
        w = rng.standard_normal((5, 5))
        B = SymMatrix.from_array(w @ w.T)
        assert dual_membership(B, 3).is_member

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
    def test_bad_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="tol"):
            dual_membership(SymMatrix.identity(3), 2, tol)

    def test_fixture_a_in_dual_of_width4(self):
        fx = example_m_fixtures()
        report = dual_membership(fx.A, 4, 0)
        assert report.is_member
        assert report.exact

    def test_fixture_a_not_in_dual_of_width5(self):
        fx = example_m_fixtures()
        report = dual_membership(fx.A, 5)
        assert not report.is_member
        # independent check: A itself is not psd
        assert eigen_sym(fx.A.to_float()).eigenvalues[0] < 0

    def test_worst_support_identified(self):
        B = SymMatrix.diag([1.0, 1.0, -3.0])
        report = dual_membership(B, 1)
        assert not report.is_member
        assert report.worst_support == Support.of([2])
        assert report.worst_margin == pytest.approx(-3.0)

    def test_congruence_stability(self):
        # dual membership is preserved by permutation and positive diagonal
        rnd = random.Random(1)
        fx = example_m_fixtures()
        B = fx.A.to_float()
        assert dual_membership(B, 4).is_member
        perm = [[0, 1, 0, 0, 0],
                [1, 0, 0, 0, 0],
                [0, 0, 0, 0, 1],
                [0, 0, 1, 0, 0],
                [0, 0, 0, 1, 0]]
        assert dual_membership(scale_congruence(B, perm), 4).is_member
        d = [[(0.5, 0, 0, 0, 0)[j] if i == j else 0 for j in range(5)]
             for i in range(5)]
        for i in range(5):
            d[i][i] = rnd.uniform(0.2, 3.0)
        assert dual_membership(scale_congruence(B, d), 4).is_member


class TestCosRay:
    def test_equal_angles_low_rank_psd(self):
        B = cos_ray(0.7, 0.7)
        lam = eigen_sym(B).eigenvalues
        assert lam[0] >= -1e-12
        assert np.sum(np.abs(lam) > 1e-10) <= 2

    def test_pattern_and_unit_diagonal(self):
        B = cos_ray(0.3, 1.1)
        for i in range(4):
            assert B[i, i] == 1.0
        assert B[0, 1] == pytest.approx(math.cos(0.3))
        assert B[0, 2] == pytest.approx(math.cos(0.3 - 1.1))
        assert B[0, 3] == pytest.approx(math.cos(1.1))
        assert B[1, 2] == pytest.approx(math.cos(1.1))
        assert B[1, 3] == pytest.approx(math.cos(0.3 - 1.1))
        assert B[2, 3] == pytest.approx(math.cos(0.3))

    def test_quarter_angles_determinant(self):
        B = cos_ray(math.pi / 2, math.pi / 4)
        lam = eigen_sym(B).eigenvalues
        assert float(np.prod(lam)) == pytest.approx(-1.0, abs=1e-9)
        for idx in itertools.combinations(range(4), 3):
            assert abs(det3(B, idx)) <= 1e-10

    def test_two_by_two_minors_nonnegative(self):
        B = cos_ray(2.2, -0.9)
        for i in range(4):
            for j in range(i + 1, 4):
                assert B[i, i] * B[j, j] - B[i, j] ** 2 >= -1e-15

    def test_minor_vanishing_and_det_formula_sampled(self):
        for a, c in sample_angles(32):
            B = cos_ray(a, c)
            for idx in itertools.combinations(range(4), 3):
                assert abs(det3(B, idx)) <= 1e-10
            det = float(np.linalg.det(B.as_array()))
            expected = -4 * math.sin(a) ** 2 * math.sin(a - c) ** 2 * math.sin(c) ** 2
            assert det == pytest.approx(expected, abs=1e-10)

    def test_sign_flip_congruence_normalizes_delta(self):
        # the two sign variants of the circulant pattern are congruent via
        # diag(1, 1, -1, 1)
        a, c = 0.9, 2.1
        ca, cc, cac = math.cos(a), math.cos(c), math.cos(a - c)
        delta_minus = SymMatrix.from_rows([
            [1.0, ca, -cac, cc],
            [ca, 1.0, -cc, cac],
            [-cac, -cc, 1.0, -ca],
            [cc, cac, -ca, 1.0],
        ])
        D = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, 1]]
        flipped = scale_congruence(delta_minus, D)
        assert flipped == cos_ray(a, c)

    def test_parametrized_ray_applies_congruence(self):
        ray = CosExtremeRay(a=1.0, c=2.0, permutation=(2, 0, 3, 1),
                            diag_scale=(1.0, 2.0, -1.0, 0.5))
        m = ray.matrix()
        base = cos_ray(1.0, 2.0)
        # base entry (0, 1) lands at the permuted position (2, 0) and picks up
        # the scales attached to those positions
        assert m[2, 0] == pytest.approx(-1.0 * 1.0 * base[0, 1])

    def test_ray_rejects_a_non_permutation(self):
        with pytest.raises(ValueError, match="permutation"):
            CosExtremeRay(a=1.0, c=2.0, permutation=(0, 0, 1, 2))


class TestCosCertificateSearch:
    def test_identity_has_no_certificate(self):
        assert cos_certificate_search(SymMatrix.identity(4)) is None

    def test_below_threshold_finds_certificate(self):
        Q = pna_form(PnaSpec(4, 1.4)).Q
        cert = cos_certificate_search(Q)
        assert cert is not None
        assert cert.value < 0
        assert dual_membership(cert.B, 3).is_member

    def test_at_threshold_none_and_membership_accepts(self):
        Q = pna_form(PnaSpec(4, Fraction(3, 2))).Q
        assert cos_certificate_search(Q) is None
        assert fw_membership(Q, 3).status == "member"

    def test_deterministic(self):
        Q = pna_form(PnaSpec(4, 1.4)).Q
        c1 = cos_certificate_search(Q)
        c2 = cos_certificate_search(Q)
        assert c1.B == c2.B

    @pytest.mark.parametrize("a", [1.49999995, 1.49999998])
    def test_invariant_under_positive_scaling(self, a):
        # powers of two scale every float step exactly, so a scale-free
        # search must agree on found-or-none at all three scales
        Qf = pna_form(PnaSpec(4, a)).Q.to_float().as_array()
        found = []
        for c in (2.0 ** -10, 1.0, 2.0 ** 10):
            Q = SymMatrix.from_array(c * Qf)
            cert = cos_certificate_search(Q)
            found.append(cert is not None)
            if cert is not None:
                bound = -1e-8 * cert.B.frob_norm() * Q.frob_norm()
                assert cert.value < bound
        assert len(set(found)) == 1


class TestDykstra:
    def test_m_separated_at_width4(self):
        fx = example_m_fixtures()
        cert = dykstra_dual_certificate(fx.M, 4)
        assert cert is not None
        assert cert.value < 0
        assert dual_membership(cert.B, 4).is_member

    def test_identity_none(self):
        assert dykstra_dual_certificate(SymMatrix.identity(4), 2) is None

    def test_binomial_threshold_reject(self):
        Q = pna_form(PnaSpec(3, 1.5)).Q
        cert = dykstra_dual_certificate(Q, 2)
        assert cert is not None
        assert cert.normalized_value(Q) < -1e-4

    def test_width1_target_with_off_diagonal_mass(self):
        # no width-1 support covers an off-diagonal entry, so the splitting
        # core fails at once with the closed-form direction of that entry
        rng = np.random.default_rng(5)
        a = rng.standard_normal((5, 5))
        Q = SymMatrix.from_array(a @ a.T)
        cert = dykstra_dual_certificate(Q, 1)
        assert cert is not None
        assert cert.value < 0
        assert dual_membership(cert.B, 1).is_member

    def test_finds_every_rank_one_non_member_of_fw_membership(self):
        # rank-1 5x5 targets at width 4 are thin separations; the splitting
        # run of certify is the one of fw_membership, so whenever that says
        # non_member a certificate must come out here too
        rng = np.random.default_rng(5)
        non_members = 0
        for trial in range(12):
            u = rng.standard_normal(5)
            Q = SymMatrix.from_array(np.outer(u, u))
            if fw_membership(Q, 4).status != "non_member":
                continue
            non_members += 1
            cert = dykstra_dual_certificate(Q, 4)
            assert cert is not None, trial
            assert dual_membership(cert.B, 4).is_member
            assert cert.value < 0
        assert non_members >= 10

    def test_member_returns_none_without_verifying(self, monkeypatch):
        from factorwidth import dualcone

        def fail(*args, **kwargs):
            raise AssertionError("certificate search ran on a member")

        # the certificate gate may not run
        monkeypatch.setattr(dualcone, "verify_candidate", fail)
        n, k = 6, 4
        Q = pna_form(PnaSpec(n, 1.35 * (n - 1) / (k - 1))).Q.to_float()
        perm = np.random.default_rng(3).permutation(n)
        Q = SymMatrix.from_array(Q.as_array()[np.ix_(perm, perm)])
        assert dykstra_dual_certificate(Q, k) is None

    def test_verify_candidate_rejects_junk(self):
        rng = np.random.default_rng(2)
        Q = SymMatrix.identity(4)
        noise = rng.standard_normal((4, 4))
        assert verify_candidate(noise + noise.T, Q, 2) is None


class TestCheckExtremeCandidate:
    def test_rank_one_psd_extreme(self):
        x = np.array([1.0, -2.0, 0.5, 1.5])
        B = SymMatrix.from_array(np.outer(x, x))
        report = check_extreme_candidate(B)
        assert report.is_psd and report.psd_rank == 1 and report.is_extreme

    def test_identity_not_extreme(self):
        report = check_extreme_candidate(SymMatrix.identity(4).to_float())
        assert report.is_psd and report.psd_rank == 4 and not report.is_extreme

    def test_cos_ray_extreme(self):
        report = check_extreme_candidate(cos_ray(math.pi / 2, math.pi / 4))
        assert not report.is_psd
        assert report.in_dual
        assert report.submatrix_ranks == [2, 2, 2, 2]
        assert report.is_extreme

    def test_sampled_extreme_family(self):
        for a, c in sample_angles(8, seed=3):
            assert check_extreme_candidate(cos_ray(a, c)).is_extreme


class TestBnrCertificate:
    def test_single_variable(self):
        for r in (0, 1, 3):
            B = bnr_certificate(1, r, 4)
            assert B.n == 1 and B[0, 0] == 3

    def test_r0_diag_structure(self):
        B = bnr_certificate(3, 0, 2)
        assert B == SymMatrix.from_rows([[1, -1, -1], [-1, 1, -1], [-1, -1, 1]])

    def test_dimension(self):
        assert bnr_certificate(3, 1, 2).n == math.comb(3 + 1, 2)
        assert bnr_certificate(4, 2, 3).n == math.comb(4 + 2, 3)

    def test_all_small_minors_psd_exact(self):
        for (n, r, k) in [(3, 1, 2), (3, 2, 2), (4, 1, 3), (3, 1, 3)]:
            B = bnr_certificate(n, r, k)
            for K in itertools.combinations(range(B.n), k):
                sub_rows = [[B[i, j] for j in K] for i in K]
                assert is_psd(SymMatrix.from_rows(sub_rows), 0).is_psd

    def test_block_structure_by_parity_class(self):
        # grouping indices by their odd-position set gives constant blocks
        for (n, r, k) in [(3, 1, 2), (4, 1, 3)]:
            B = bnr_certificate(n, r, k)
            tuples = monomial_basis(n, r + 1).tuples
            classes = [frozenset(i for i, e in enumerate(t) if e % 2)
                       for t in tuples]
            for i in range(B.n):
                for j in range(B.n):
                    expected = (k - 1) if classes[i] == classes[j] else -1
                    assert B[i, j] == expected

    def test_pairing_against_direct_sum(self):
        # <B, H> = (k-1) * sum_{even pairs} h_ij - sum_{odd pairs} h_ij
        rnd = random.Random(4)
        for (n, r, k) in [(3, 1, 2), (3, 2, 3)]:
            B = bnr_certificate(n, r, k)
            tuples = monomial_basis(n, r + 1).tuples
            rows = [[Fraction(rnd.randint(-5, 5)) for _ in range(B.n)]
                    for _ in range(B.n)]
            for i in range(B.n):
                for j in range(B.n):
                    rows[j][i] = rows[i][j]
            H = SymMatrix.from_rows(rows)
            even_sum = sum(
                Fraction(H[i, j]) for i in range(B.n) for j in range(B.n)
                if all((a + b) % 2 == 0 for a, b in zip(tuples[i], tuples[j])))
            odd_sum = sum(
                Fraction(H[i, j]) for i in range(B.n) for j in range(B.n)
                if any((a + b) % 2 == 1 for a, b in zip(tuples[i], tuples[j])))
            assert frobenius_inner(B, H) == (k - 1) * even_sum - odd_sum


class TestLiftQuaternary:
    def rational_unit_diag(self, rnd):
        rows = [[Fraction(1)] * 4 for _ in range(4)]
        for i in range(4):
            for j in range(i + 1, 4):
                v = Fraction(rnd.randint(-4, 4), 5)
                rows[i][j] = rows[j][i] = v
        return SymMatrix.from_rows(rows)

    def test_r_zero_is_base(self):
        rnd = random.Random(5)
        B4 = self.rational_unit_diag(rnd)
        assert lift_quaternary_certificate(B4, 0) == B4

    def test_requires_unit_diagonal(self):
        with pytest.raises(ValueError):
            lift_quaternary_certificate(SymMatrix.diag([1, 1, 2, 1]), 1)

    def test_lifted_cos_ray_stays_in_dual(self):
        B4 = cos_ray(math.pi / 2, math.pi / 4)
        lifted = lift_quaternary_certificate(B4, 1, 1.0)
        assert lifted.n == math.comb(1 + 4, 3)
        assert dual_membership(lifted, 3).is_member

    def test_lift_entry_rule(self):
        rnd = random.Random(6)
        B4 = self.rational_unit_diag(rnd)
        r = 1
        lifted = lift_quaternary_certificate(B4, r)
        tuples = monomial_basis(4, r + 1).tuples
        for i, ti in enumerate(tuples):
            for j, tj in enumerate(tuples):
                odd = [p for p in range(4) if (ti[p] + tj[p]) % 2]
                if not odd:
                    assert lifted[i, j] == 1
                elif len(odd) == 2:
                    assert lifted[i, j] == B4[odd[0], odd[1]]
                else:
                    assert lifted[i, j] == 1  # omega default

    def test_omega_parameter(self):
        B4 = SymMatrix.identity(4)
        lifted = lift_quaternary_certificate(B4, 1, Fraction(1, 2))
        tuples = monomial_basis(4, 2).tuples
        i = tuples.index((1, 1, 0, 0))
        j = tuples.index((0, 0, 1, 1))
        assert lifted[i, j] == Fraction(1, 2)
