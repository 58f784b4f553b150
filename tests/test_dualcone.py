import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorwidth import dualcone, symcore
from factorwidth.dualcone import (
    CosExtremeRay,
    DualCertificate,
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
    enumerate_supports,
    frobenius_inner,
    is_psd,
    principal_submatrix,
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


_REPEATING_ENTRIES = (-1, 0, 1, 2, Fraction(1, 2))


@st.composite
def _repeating_exact_case(draw):
    """An exact matrix over a five-value alphabet, so its blocks repeat."""
    n = draw(st.integers(1, 7))
    k = draw(st.integers(1, n))
    upper = draw(st.lists(st.sampled_from(_REPEATING_ENTRIES),
                          min_size=n * (n + 1) // 2,
                          max_size=n * (n + 1) // 2))
    return SymMatrix(n, upper), k


def _count_exact_psd(monkeypatch):
    """Route the psd battery's exact pivot test through a recorder of its
    blocks."""
    seen = []
    real = symcore._exact_psd

    def spy(block):
        seen.append(tuple(block.ravel().tolist()))
        return real(block)

    monkeypatch.setattr(symcore, "_exact_psd", spy)
    return seen


class TestExactBatteryDistinctBlocks:
    @given(_repeating_exact_case())
    @settings(max_examples=150, deadline=None)
    def test_matches_per_support_battery(self, case):
        B, k = case
        supports = enumerate_supports(B.n, k)
        subs = [principal_submatrix(B, K) for K in supports]
        report = dual_membership(B, k, 0)
        assert report.exact
        assert report.is_member == all(is_psd(S, 0).is_psd for S in subs)
        margins = [float(np.linalg.eigvalsh(S.as_array())[0]) for S in subs]
        worst = min(range(len(supports)), key=margins.__getitem__)
        assert report.worst_support == supports[worst]
        assert report.worst_margin == margins[worst]

    @pytest.mark.parametrize("B, k, distinct", [
        (bnr_certificate(4, 2, 3), 3, 5),
        (SymMatrix.diag(list(range(1, 7))), 2, 15),
    ], ids=["bnr-4-2-3", "diag-1-to-6"])
    def test_exact_psd_runs_once_per_distinct_block(self, monkeypatch, B, k,
                                                    distinct):
        seen = _count_exact_psd(monkeypatch)
        assert dual_membership(B, k, 0).is_member
        blocks = {tuple(principal_submatrix(B, K).entries.ravel().tolist())
                  for K in enumerate_supports(B.n, k)}
        assert len(blocks) == distinct
        assert len(seen) == distinct
        assert set(seen) == blocks

    @pytest.mark.parametrize("B, k, tested", [
        # all 56 3 x 3 blocks are [[1,-1,-1],[-1,1,-1],[-1,-1,1]], which has
        # eigenvalue -1
        (SymMatrix.from_rows([[1 if i == j else -1 for j in range(8)]
                              for i in range(8)]), 3, 1),
        # the psd block [1] first, then seven copies of the block [-1]
        (SymMatrix.diag([1] + [-1] * 7), 1, 2),
    ], ids=["one-3x3-block", "psd-then-repeats"])
    def test_repeated_non_psd_block_is_not_member(self, monkeypatch, B, k,
                                                  tested):
        seen = _count_exact_psd(monkeypatch)
        report = dual_membership(B, k, 0)
        assert not report.is_member
        assert report.exact
        assert len(seen) == tested

    def test_int_and_fraction_entries_share_a_block(self, monkeypatch):
        seen = _count_exact_psd(monkeypatch)
        B = SymMatrix.diag([1, Fraction(1), Fraction(2, 2), 2, Fraction(4, 2)])
        assert dual_membership(B, 1, 0).is_member
        assert seen == [(1,), (2,)]


class TestOnePassBattery:
    def test_gathers_the_blocks_once(self, monkeypatch):
        calls = []
        gather = symcore._BlockIndex.gather

        def spy(self, mat):
            calls.append(mat.dtype)
            return gather(self, mat)

        monkeypatch.setattr(symcore._BlockIndex, "gather", spy)
        report = dual_membership(bnr_certificate(4, 3, 4), 4, 0)
        assert report.is_member and report.exact
        assert calls == [np.dtype(object)]

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_full_width_battery_is_the_psd_test(self, data):
        # at k = n the battery has the one block B, so it must agree with
        # is_psd, also with entries near the top of the float range (whose
        # doubling would overflow)
        n = data.draw(st.integers(1, 4))
        entry = st.one_of(
            st.integers(-4, 4).map(float),
            st.floats(-10.0, 10.0),
            st.floats(0.5, 1.79).map(lambda m: m * 1e308),
            st.floats(-1.79, -0.5).map(lambda m: m * 1e308))
        upper = data.draw(st.lists(entry, min_size=n * (n + 1) // 2,
                                   max_size=n * (n + 1) // 2))
        tol = data.draw(st.sampled_from([1e-9, 1e-6]))
        B = SymMatrix(n, upper)
        report = dual_membership(B, n, tol)
        assert report.is_member == is_psd(B, tol).is_psd
        assert not math.isnan(report.worst_margin)

    @given(_repeating_exact_case())
    @settings(max_examples=100, deadline=None)
    def test_full_width_exact_battery_is_the_psd_test(self, case):
        B, _ = case
        assert dual_membership(B, B.n, 0).is_member == is_psd(B, 0).is_psd


class TestEntriesBeyondFloatRange:
    big = 10 ** 400

    def test_exact_battery_decides_without_floats(self):
        big = self.big
        member = SymMatrix.from_rows([[big, 1], [1, 1]])
        report = dual_membership(member, 2, 0)
        assert report.is_member and report.exact
        assert report.worst_margin is None
        non_member = SymMatrix.from_rows([[big, big], [big, 1]])
        report = dual_membership(non_member, 2, 0)
        assert not report.is_member
        assert report.worst_margin is None
        # the largest entry's block is not the worst one
        report = dual_membership(SymMatrix.diag([big, Fraction(-1, 3)]), 1, 0)
        assert not report.is_member
        assert report.worst_support == Support.of([1])
        assert report.worst_margin is None

    def test_entries_whose_float_sum_overflows(self):
        # 2**1023 converts to a float, but twice it does not
        huge = 2 ** 1023
        report = dual_membership(SymMatrix.diag([huge, 1, -1]), 2, 0)
        assert not report.is_member
        assert report.worst_margin is None
        # scaled by 2**-1023, blocks {0, 2} and {1, 2} tie; the first is kept
        assert report.worst_support == Support.of([0, 2])

    def test_below_the_cutoff_margins_stay_floats(self):
        report = dual_membership(SymMatrix.diag([2 ** 1021, -1]), 1, 0)
        assert report.worst_margin == -1.0
        assert report.worst_support == Support.of([1])

    def test_float_battery_rejects_them(self):
        B = SymMatrix.from_rows([[self.big, 1], [1, 1]])
        with pytest.raises(ValueError, match="float range"):
            dual_membership(B, 2, 1e-9)

    def test_width_one_reads_only_the_diagonal(self):
        # the 1 x 1 blocks fit floats however large the off-diagonal entries
        B = SymMatrix.from_rows([[2, self.big], [self.big, 1]])
        for tol in (0, 1e-9):
            report = dual_membership(B, 1, tol)
            assert report.is_member and report.worst_margin == 1.0
            assert report.worst_support == Support.of([1])

    def test_is_psd_exact_path(self):
        big = Fraction(self.big, 3)
        rep = is_psd(SymMatrix.from_rows([[big, 1], [1, 1]]), 0)
        assert rep.is_psd and rep.min_eigenvalue is None
        rep = is_psd(SymMatrix.from_rows([[big, big], [big, 1]]), 0)
        assert not rep.is_psd and rep.min_eigenvalue is None

    @pytest.mark.parametrize("entry", [10 ** 400, 2 ** 1023],
                             ids=["beyond-float", "sum-overflows"])
    def test_is_psd_float_path_rejects_them(self, entry):
        B = SymMatrix.from_rows([[entry, 1], [1, 1]])
        with pytest.raises(ValueError, match="float range"):
            is_psd(B, 1e-9)
        with pytest.raises(ValueError, match="float range"):
            dual_membership(B, 2, 1e-9)

    @pytest.mark.parametrize("search", [
        cos_certificate_search, lambda Q: dykstra_dual_certificate(Q, 2)],
        ids=["cosine", "splitting"])
    def test_certificate_searches_reject_them(self, search):
        Q = SymMatrix.from_rows([[self.big, 1, 0, 0], [1, 1, 0, 0],
                                 [0, 0, 1, 0], [0, 0, 0, 1]])
        with pytest.raises(ValueError, match=r"below 2\*\*1022"):
            search(Q)

    def test_exact_extreme_ray_test_decides_them(self):
        B = SymMatrix.from_rows([[self.big, 1, 0], [1, 1, 0], [0, 0, -1]])
        report = check_extreme_candidate(B)
        assert not report.is_psd and report.in_dual is False
        assert not report.is_extreme
        assert report.reason == "not in the dual cone"
        # the psd block {0, 1} has rank 2; the others are not psd
        assert report.submatrix_ranks == [2, None, None]

    def test_float_extreme_ray_test_rejects_them(self):
        B = SymMatrix.from_array(np.array([[1.5e308, 1.0], [1.0, 1.0]]))
        with pytest.raises(ValueError, match=r"below 2\*\*1022"):
            check_extreme_candidate(B)


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

    def test_signed_permutations_give_two_classes(self):
        # the search's two cases: every signed-permutation congruence of
        # B(a, c) is B(a', c') when the signs multiply to +1, else
        # S0 B(a', c') S0 with S0 = diag(1, 1, 1, -1)
        rng = np.random.default_rng(20261020)
        s0 = np.array([1.0, 1.0, 1.0, -1.0])
        for a, c in sample_angles(200, seed=20261020):
            perm = tuple(rng.permutation(4).tolist())
            signs = rng.choice([-1.0, 1.0], 4)
            m = CosExtremeRay(a, c, perm, tuple(signs.tolist())).matrix()
            m = m.as_array()
            if np.prod(signs) < 0:
                m = np.outer(s0, s0) * m
            pairs = [(sa * math.acos(m[0, 1]), sc * math.acos(m[0, 3]))
                     for sa in (1, -1) for sc in (1, -1)]
            a2, c2 = min(pairs, key=lambda p: abs(
                math.cos(p[0] - p[1]) - m[0, 2]))
            np.testing.assert_allclose(m, cos_ray(a2, c2).as_array(),
                                       rtol=0, atol=1e-12)

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

    @pytest.mark.parametrize("d", [(16.0, 1 / 16, 1.0, 1.0),
                                   (1 / 16, 16.0, 1 / 4, 4.0)])
    def test_invariant_under_diagonal_congruence(self, d):
        # 1.4 lies below the width-3 threshold 3/2 in every diagonal frame;
        # the search runs in the unit-diagonal one, so the scales are moot
        Qf = pna_form(PnaSpec(4, 1.4)).Q.to_float().as_array()
        Q = SymMatrix.from_array(Qf * np.outer(d, d))
        cert = cos_certificate_search(Q)
        assert cert is not None
        assert dual_membership(cert.B, 3, 1e-9).is_member
        assert cert.value < -1e-8 * cert.B.frob_norm() * Q.frob_norm()

    def test_finds_the_odd_sign_class(self):
        # the even class B(a, c) alone finds no separator of S0 Q S0, S0 =
        # diag(1, 1, 1, -1); the odd class S0 B(a, c) S0 finds one at the
        # value B(a, c) gives on Q
        Q = pna_form(PnaSpec(4, 1.4)).Q.to_float()
        Q_odd = scale_congruence(Q, np.diag([1.0, 1.0, 1.0, -1.0]))
        cert = cos_certificate_search(Q)
        cert_odd = cos_certificate_search(Q_odd)
        assert cert_odd is not None
        assert cert_odd.normalized_value(Q_odd) == pytest.approx(
            cert.normalized_value(Q), rel=0, abs=1e-12)

    def test_grid_phase_is_one_objective_call(self, monkeypatch):
        calls = []
        objective = dualcone._cos_objective

        def spy(t, Y):
            calls.append(isinstance(Y, np.ndarray))
            return objective(t, Y)

        monkeypatch.setattr(dualcone, "_cos_objective", spy)
        assert cos_certificate_search(pna_form(PnaSpec(4, 1.4)).Q) is not None
        assert calls.count(True) == 1

    @pytest.mark.parametrize("rows", [
        [[5e-324, 1, 0, 0], [1, 5e-324, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        [[1e-310, 0, 0, 0], [0, 1e-310, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    ], ids=["frame-overflows", "map-back-overflows"])
    def test_gives_up_where_the_unit_frame_leaves_the_float_range(self, rows):
        # warnings are errors here: no overflow may be computed on the way
        assert cos_certificate_search(SymMatrix.from_rows(rows)) is None


def _cli_mix_cos_targets(seed, count):
    """The cosine targets of the benchmark's ``cli_mix`` round, drawn in its
    order: a rank-1 target on a ray's negative eigenvector plus psd noise,
    then a random positive diagonal scaling and permutation."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        while True:
            a, c = rng.uniform(-math.pi, math.pi, 2)
            if abs(math.sin(a) * math.sin(c) * math.sin(a - c)) > 0.3:
                break
        B = cos_ray(a, c).as_array()
        lam, vec = np.linalg.eigh(B)
        g = rng.standard_normal((4, 4))
        R = g @ g.T / 4
        pairing = float(np.vdot(B, R))
        delta = -0.5 * lam[0] / pairing if pairing > 0 else 0.5
        arr = np.outer(vec[:, 0], vec[:, 0]) + delta * R
        d = np.exp(rng.uniform(-0.5, 0.5, 4))
        perm = rng.permutation(4)
        out.append(SymMatrix.from_array(
            (arr * np.outer(d, d))[np.ix_(perm, perm)]))
    return out


class TestCosObjective:
    """The search's one closed-form objective and the search it drives."""

    def test_closed_form_equals_the_matrix_it_describes(self):
        rng = np.random.default_rng(20261019)
        for _ in range(200):
            a, c = rng.uniform(-2 * math.pi, 2 * math.pi, 2)
            perm = rng.permutation(4)
            f = rng.choice([-1.0, 1.0], 4)
            g = rng.standard_normal((4, 4))
            Qf = g + g.T
            # f holds the signs in the frame of B(a, c): entry perm[u] of
            # the ray's diagonal is f[u], so the case is f_u f_v Q[pu, pv]
            signs = np.empty(4)
            signs[perm] = f
            mat = CosExtremeRay(a, c, tuple(perm.tolist()),
                                tuple(signs.tolist())).matrix().as_array()
            expect = float(np.vdot(mat, Qf)) / float(np.linalg.norm(mat))
            Y = np.outer(f, f) * Qf[np.ix_(perm, perm)]
            t = (math.cos(a), math.cos(a - c), math.cos(c))
            # the refinement's scalars on lists, the grid's arrays on arrays
            got = dualcone._cos_objective(t, Y.tolist())
            got_array = dualcone._cos_objective(
                tuple(np.full((2, 2), x) for x in t), Y)
            tol = dict(rel=1e-12, abs=1e-12 * np.linalg.norm(Qf))
            assert got == pytest.approx(expect, **tol)
            assert got_array.shape == (2, 2)
            assert np.all(got_array == pytest.approx(expect, **tol))

    # TestCosCertificateSearch pins 1.4, the threshold 3/2 and the identity
    @pytest.mark.parametrize("eps", [1e-3, 1e-7])
    def test_found_below_the_threshold(self, eps):
        Q = pna_form(PnaSpec(4, 1.5 - eps)).Q
        cert = cos_certificate_search(Q)
        assert cert is not None
        assert verify_candidate(cert.B.as_array(), Q, 3) is not None

    def test_found_on_the_benchmark_cosine_targets(self):
        for i, Q in enumerate(_cli_mix_cos_targets(7, 8)):
            cert = cos_certificate_search(Q)
            assert cert is not None, i
            assert cert.value < -1e-8 * cert.B.frob_norm() * Q.frob_norm()

    def test_none_just_below_the_threshold(self):
        # 2e-8 below 3/2 no normalized pairing clears the gate's -1e-8
        assert cos_certificate_search(pna_form(PnaSpec(4, 1.5 - 2e-8)).Q) is None


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

    def test_certificate_rejects_a_margin_below_its_bound(self):
        # the bound is -1e-9 (1 + max|B|) = -2e-9 on the identity
        B = SymMatrix.identity(2, exact=False)
        with pytest.raises(ValueError, match="infeasible minor"):
            DualCertificate(B=B, k=2, value=-1.0, worst_minor_margin=-3e-9)
        cert = DualCertificate(B=B, k=2, value=-1.0, worst_minor_margin=-2e-9)
        assert cert.worst_minor_margin == -2e-9


class TestCheckExtremeCandidate:
    def test_rank_one_psd_extreme(self):
        x = np.array([1.0, -2.0, 0.5, 1.5])
        B = SymMatrix.from_array(np.outer(x, x))
        report = check_extreme_candidate(B)
        assert report.is_psd and report.psd_rank == 1 and report.is_extreme

    def test_identity_not_extreme(self):
        report = check_extreme_candidate(SymMatrix.identity(4).to_float())
        assert report.is_psd and report.psd_rank == 4 and not report.is_extreme

    @pytest.mark.parametrize("rows, rank", [
        ([[10 ** 8, 1], [1, 1]], 2),
        ([[10 ** 9, 1], [1, 1]], 2),
        ([[10 ** 10, 10 ** 5], [10 ** 5, 1]], 1),
    ])
    def test_exact_rank_is_the_pivot_count(self, rows, rank):
        # both determinants of the rank-2 cases are nonzero, though their
        # float spectra have a small eigenvalue below 1e-8 of the largest
        report = check_extreme_candidate(SymMatrix.from_rows(rows))
        assert report.is_psd and report.psd_rank == rank
        assert report.is_extreme is (rank == 1)

    @pytest.mark.parametrize("exact", [True, False])
    def test_submatrix_ranks_that_differ_are_not_extreme(self, exact):
        # det B = -4, every 2 x 2 block is psd, and block {1, 2} has rank 1
        B = SymMatrix.from_rows([[2, 1, -1], [1, 1, 1], [-1, 1, 1]])
        report = check_extreme_candidate(B if exact else B.to_float())
        assert not report.is_psd and report.in_dual
        assert report.submatrix_ranks == [2, 2, 1]
        assert not report.is_extreme
        assert report.reason == "submatrix ranks [1, 2] differ from 1"

    def test_cos_ray_extreme(self):
        report = check_extreme_candidate(cos_ray(math.pi / 2, math.pi / 4))
        assert not report.is_psd
        assert report.in_dual
        assert report.submatrix_ranks == [2, 2, 2, 2]
        assert report.is_extreme

    def test_sampled_extreme_family(self):
        for a, c in sample_angles(8, seed=3):
            assert check_extreme_candidate(cos_ray(a, c)).is_extreme

    def test_gathers_the_blocks_once(self, monkeypatch):
        calls = []
        gather = symcore._BlockIndex.gather

        def spy(self, mat):
            calls.append(self.k)
            return gather(self, mat)

        monkeypatch.setattr(symcore._BlockIndex, "gather", spy)
        assert check_extreme_candidate(cos_ray(math.pi / 2, math.pi / 4)).in_dual
        assert calls == [3]
        calls.clear()
        assert check_extreme_candidate(SymMatrix.identity(4)).is_psd
        assert calls == []

    def test_in_dual_agrees_with_dual_membership(self):
        rng = np.random.default_rng(6)
        cases = [cos_ray(a, c) for a, c in sample_angles(6, seed=5)]
        for n in (3, 4, 5):
            for _ in range(6):
                w = rng.standard_normal((n, n))
                cases.append(SymMatrix.from_array(w + w.T + n * np.eye(n)))
        for B in cases:
            report = check_extreme_candidate(B)
            if not report.is_psd:
                assert report.in_dual == dual_membership(
                    B, B.n - 1, 1e-9).is_member


class TestBnrCertificate:
    def test_single_variable(self):
        for r in (0, 1, 3):
            B = bnr_certificate(1, r, 4)
            assert B.n == 1 and B[0, 0] == 3

    def test_int_entries(self):
        B = bnr_certificate(3, 2, 3)
        assert B.is_exact
        assert all(type(e) is int for row in B.rows() for e in row)
        assert np.array_equal(B.entries, B.entries.T)

    @pytest.mark.parametrize("args, named", [
        ((3, 1, 2.5), "2.5"), ((3, True, 2), "True"), ((2.5, 1, 2), "2.5"),
        ((3, 1.5, 2), "1.5")])
    def test_non_integer_arguments_rejected(self, args, named):
        # a float k once gave float entries under an exact flag, which the
        # exact battery passed and the extreme-ray test did not
        with pytest.raises(ValueError, match=f"^{named} is not an integer"):
            bnr_certificate(*args)

    def test_integral_floats_read_as_ints(self):
        B = bnr_certificate(3.0, 1.0, 2.0)
        assert B == bnr_certificate(3, 1, 2)
        assert all(type(e) is int for row in B.rows() for e in row)
        assert all(type(e) is int for e in B._nd[0].flat) and B._nd[1] == 1

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
        half = SymMatrix.diag([Fraction(1, 2)] * 4)
        with pytest.raises(ValueError, match="unit diagonal"):
            lift_quaternary_certificate(half, 1)
        with pytest.raises(ValueError, match="unit diagonal"):
            lift_quaternary_certificate(SymMatrix.diag([1.0, 1.0, 1.0, 1.1]), 1)
        near = SymMatrix.diag([1.0, 1.0, 1.0, 1.0 + 1e-13])
        assert lift_quaternary_certificate(near, 1).n == math.comb(5, 2)

    def test_unit_diagonal_read_off_the_view(self):
        # an exact base whose diagonal is 1 over a common denominator
        B4 = SymMatrix._wrap(None, True, (np.array(
            [[3, 1, 0, 0], [1, 3, 0, 0], [0, 0, 3, -1], [0, 0, -1, 3]],
            dtype=object), 3))
        lifted = lift_quaternary_certificate(B4, 1)
        assert lifted.is_exact
        assert lifted == lift_quaternary_certificate(
            SymMatrix.from_rows(B4.rows()), 1)

    @pytest.mark.parametrize("r", [1.5, True, -1])
    def test_non_integer_or_negative_r_rejected(self, r):
        named = "r must be nonnegative" if r == -1 else f"^{r} is not"
        with pytest.raises(ValueError, match=named):
            lift_quaternary_certificate(SymMatrix.identity(4), r)

    def test_integral_float_r_reads_as_int(self):
        assert lift_quaternary_certificate(SymMatrix.identity(4), 1.0) == (
            lift_quaternary_certificate(SymMatrix.identity(4), 1))

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

    def test_omega_is_the_one_entry_checked(self):
        B4 = self.rational_unit_diag(random.Random(7))
        with pytest.raises(TypeError, match="unsupported entry type str"):
            lift_quaternary_certificate(B4, 1, "1")
        lifted = lift_quaternary_certificate(B4, 1, 0.5)
        assert not lifted.is_exact and lifted.entries.dtype == np.float64
        assert lifted == lift_quaternary_certificate(B4.to_float(), 1, 0.5)
        assert np.array_equal(lifted.entries, lifted.entries.T)

    def test_omega_parameter(self):
        B4 = SymMatrix.identity(4)
        lifted = lift_quaternary_certificate(B4, 1, Fraction(1, 2))
        tuples = monomial_basis(4, 2).tuples
        i = tuples.index((1, 1, 0, 0))
        j = tuples.index((0, 0, 1, 1))
        assert lifted[i, j] == Fraction(1, 2)
