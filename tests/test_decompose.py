import math
import random
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

from factorwidth import symcore
from factorwidth.decompose import (
    BlockDecomposition,
    SolverOptions,
    decomposition_from_json,
    decomposition_to_json,
    enumerate_supports,
    extract_factors,
    fw_membership,
)
from factorwidth.dualcone import dual_membership
from factorwidth.families import (
    PnaSpec,
    example_m_fixtures,
    pna_form,
    pna_threshold,
    pna_witness_decomposition,
    sobs_comparison,
)
from factorwidth.symcore import (
    SymMatrix,
    Support,
    embed,
    frobenius_inner,
    is_psd,
    scale_congruence,
)


# the four width-4 supports of range(5) other than (0, 1, 2, 3)
_M_FOUR_SUPPORTS = [K for K in enumerate_supports(5, 4)
                    if K.indices != (0, 1, 2, 3)]
# its sparsity seed at width 3, (0, 2, 3) and (1, 2, 3), excludes it
_EXCLUDED_SEED = SymMatrix.from_rows([[5, 0, 2, 5], [0, 5, -4, -2],
                                      [2, -4, 5, 3], [5, -2, 3, 5]])


def random_fw_member(rng, n, k, cols=None):
    """Random member of FW_k built from k-sparse factor columns."""
    cols = cols or 2 * n
    a = np.zeros((n, n))
    for _ in range(cols):
        idx = rng.choice(n, size=k, replace=False)
        v = np.zeros(n)
        v[idx] = rng.standard_normal(k)
        a += np.outer(v, v)
    return SymMatrix.from_array(a)


class TestEnumerateSupports:
    def test_full_width(self):
        assert enumerate_supports(3, 3) == [Support.of([0, 1, 2])]

    def test_four_choose_three(self):
        sup = enumerate_supports(4, 3)
        assert [s.indices for s in sup] == [
            (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]

    def test_count_15_choose_4(self):
        assert len(enumerate_supports(15, 4)) == 1365

    def test_bad_k(self):
        with pytest.raises(ValueError):
            enumerate_supports(3, 0)
        with pytest.raises(ValueError):
            enumerate_supports(3, 4)


class TestCoverageCounts:
    def test_full_support_multiplicity_matches_binomials(self):
        # entry (i,i) is covered by C(n-1,k-1) supports, (i,j) by C(n-2,k-2)
        from factorwidth.symcore import _full_index

        for n, k in [(4, 2), (5, 3), (6, 4)]:
            index = _full_index(n, k)
            mult = index.accumulate(np.ones((math.comb(n, k), k, k)))
            for i in range(n):
                for j in range(n):
                    expected = (math.comb(n - 1, k - 1) if i == j
                                else math.comb(n - 2, k - 2))
                    assert mult[i, j] == expected


class TestBlockDecomposition:
    def test_residual_recomputed(self):
        A = SymMatrix.diag([1, 2])
        blocks = [(Support.of([0]), SymMatrix.from_rows([[1]])),
                  (Support.of([1]), SymMatrix.from_rows([[1]]))]
        d = BlockDecomposition.build(A, 1, blocks)
        assert d.residual == 1.0  # missing mass at (1,1) is reported, not trusted

    def test_rejects_non_psd_block(self):
        A = SymMatrix.diag([1, -1])
        with pytest.raises(ValueError):
            BlockDecomposition.build(
                A, 2, [(Support.of([0, 1]), SymMatrix.diag([1, -1]))])

    def test_reads_an_index_list_as_its_support(self):
        A, B = SymMatrix.identity(3), SymMatrix.from_rows([[1]])
        d = BlockDecomposition.build(A, 3, [([0], B)])
        assert d == BlockDecomposition.build(A, 3, [(Support.of([0]), B)])
        assert d.blocks[0][0] == Support.of([0])

    def test_rejects_oversized_support(self):
        A = SymMatrix.identity(3)
        with pytest.raises(ValueError):
            BlockDecomposition.build(
                A, 1, [(Support.of([0, 1]), SymMatrix.identity(2))])

    @pytest.mark.parametrize("K, block, message", [
        ([1, 3], SymMatrix.identity(2), r"\(1, 3\) out of range for n=3"),
        ([0, 1], SymMatrix.identity(1), "block size does not match"),
    ], ids=["out-of-range", "block-size"])
    def test_rejects_malformed_block(self, K, block, message):
        with pytest.raises(ValueError, match=message):
            BlockDecomposition.build(SymMatrix.identity(3), 2,
                                     [(Support.of(K), block)])

    def test_json_round_trip(self):
        A = SymMatrix.diag([1.0, 2.0, 0.0])
        d = fw_membership(A, 1).decomposition
        obj = decomposition_to_json(d)
        again = decomposition_from_json(obj, A)
        assert again.residual <= 1e-12
        assert len(again.blocks) == len(d.blocks)

    def test_json_reload_reverifies(self):
        # a tampered block is caught on reload: psd-ness and the residual are
        # recomputed against the target, never read from the file
        A = SymMatrix.diag([1.0, 2.0])
        d = fw_membership(A, 1).decomposition
        obj = decomposition_to_json(d)
        obj["blocks"][0]["rows"] = [[-1.0]]
        with pytest.raises(ValueError):
            decomposition_from_json(obj, A)
        obj["blocks"][0]["rows"] = [[5.0]]
        reloaded = decomposition_from_json(obj, A)
        assert reloaded.residual >= 3.0
        # the width is checked too: an integer in 1..n
        for k in (2.5, 7, "2"):
            with pytest.raises(ValueError):
                decomposition_from_json({**obj, "k": k}, A)

    def test_names_the_first_bad_block_in_list_order(self):
        A = SymMatrix.identity(4)
        good, bad = SymMatrix.identity(2), SymMatrix.from_rows([[1, 2], [2, 1]])
        blocks = [(Support.of([0, 1]), good), (Support.of([1, 2]), bad),
                  (Support.of([2, 3]), good.to_float()),
                  (Support.of([0, 3]), bad.to_float())]
        with pytest.raises(ValueError, match=r"block on \(1, 2\) is not psd"):
            BlockDecomposition.build(A, 2, blocks)
        with pytest.raises(ValueError, match=r"block on \(0, 3\) is not psd"):
            BlockDecomposition.build(A, 2, [blocks[0], blocks[3], blocks[1]])
        # a support error after the bad block does not mask it, nor one before
        with pytest.raises(ValueError, match="not psd"):
            BlockDecomposition.build(
                A, 2, blocks[:2] + [(Support.of([0, 1, 2]), good)])
        with pytest.raises(ValueError, match="exceeds width"):
            BlockDecomposition.build(
                A, 2, [(Support.of([0, 1, 2]), good)] + blocks[:2])

    def test_decides_each_distinct_block_once(self, monkeypatch):
        from factorwidth import decompose

        seen, stacks = [], []
        real, battery = decompose.is_psd, decompose._psd_battery
        monkeypatch.setattr(decompose, "is_psd",
                            lambda B, tol: seen.append(B) or real(B, tol))
        monkeypatch.setattr(decompose, "_psd_battery", lambda stack, tol: (
            stacks.append(stack) or battery(stack, tol)))
        # the witness repeats one block object on all C(6, 3) supports
        d = pna_witness_decomposition(6, 3, 3)
        assert len(d.blocks) == 20 and len(seen) == 1
        # equal exact blocks are one decision; the float blocks of one size
        # one battery, holding every float block of that size
        A, one = SymMatrix.identity(4), SymMatrix.identity(2)
        pairs = [Support.of(K) for K in ([0, 1], [2, 3], [0, 3], [1, 2])]
        seen.clear()
        BlockDecomposition.build(A, 2, [(pairs[0], one),
                                        (pairs[1], SymMatrix.identity(2))])
        assert len(seen) == 1 and not stacks
        flt = one.to_float()
        seen.clear()
        BlockDecomposition.build(A, 2, [(pairs[0], flt), (pairs[1], flt),
                                        (pairs[2], one.to_float())])
        assert not seen and [s.shape for s in stacks] == [(3, 2, 2)]
        stacks.clear()
        BlockDecomposition.build(A, 3, [
            (pairs[0], flt), (Support.of([1, 2, 3]), SymMatrix.identity(
                3, exact=False)), (pairs[3], one), (pairs[1], flt)])
        assert len(seen) == 1
        assert sorted(s.shape for s in stacks) == [(1, 3, 3), (2, 2, 2)]
        # a repeated bad block still names the first support it sits on
        bad = SymMatrix.from_rows([[1, 2], [2, 1]])
        for blocks in ([(pairs[2], bad), (pairs[0], bad)],
                       [(pairs[2], bad), (pairs[0], bad.to_float())]):
            seen.clear()
            with pytest.raises(ValueError,
                               match=r"block on \(0, 3\) is not psd"):
                BlockDecomposition.build(A, 2, blocks)
            assert len(seen) == 1


class TestFwDecompose:
    def test_nonnegative_diagonal_width_one(self):
        d = fw_membership(SymMatrix.diag([1, 2, 3]), 1).decomposition
        assert len(d.blocks) == 3
        assert {K.indices for K, _ in d.blocks} == {(0,), (1,), (2,)}
        assert d.residual <= 1e-12

    def test_width_one_rejects_offdiagonal(self):
        A = SymMatrix.from_rows([[1, 1], [1, 1]])
        v = fw_membership(A, 1)
        assert v.status == "non_member"
        assert v.decomposition is None

    def test_pna_above_threshold_member(self):
        Q = pna_form(PnaSpec(4, Fraction(3, 2))).Q
        d = fw_membership(Q, 3).decomposition
        assert d.residual <= 1e-7 * (1 + Q.max_abs())
        for _, block in d.blocks:
            assert is_psd(block, 1e-8).is_psd

    def test_m_failure_carries_residual_history(self):
        fx = example_m_fixtures()
        v = fw_membership(fx.M, 4)
        assert v.diagnostics["certificate_source"] == "in_loop_gap"
        assert v.diagnostics["residual_history"]
        assert v.diagnostics["primal_residual"] > 1e-3

    def test_qprime_27_supports(self):
        fx = example_m_fixtures()
        opts = SolverOptions(feas_tol=1e-7, support_list=list(fx.supports27))
        d = fw_membership(fx.Qprime, 4, opts).decomposition
        assert d.residual <= 1e-6 * (1 + fx.Qprime.max_abs())
        assert len(d.blocks) <= 27

    def test_respects_explicit_support_list(self):
        A = SymMatrix.diag([1, 1, 1])
        v = fw_membership(A, 2, SolverOptions(
            support_list=[Support.of([0, 1]), Support.of([1, 2])]))
        d = v.decomposition
        used = {K.indices for K, _ in d.blocks}
        assert used <= {(0, 1), (1, 2)}

    def test_mixed_support_sizes_rejected(self):
        A = SymMatrix.identity(3)
        with pytest.raises(ValueError, match="mixed support sizes"):
            fw_membership(A, 2, SolverOptions(
                support_list=[Support.of([0]), Support.of([1, 2])]))

    def test_support_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"out of range for n=3"):
            fw_membership(SymMatrix.identity(3), 2,
                          SolverOptions(support_list=[[0, 1], [1, 3]]))

    def test_empty_support_list_rejected(self):
        with pytest.raises(ValueError, match="support list is empty"):
            fw_membership(SymMatrix.identity(3), 2,
                          SolverOptions(support_list=[]))


class TestFwMembership:
    def test_identity_member_any_width(self):
        for k in (1, 2, 5):
            assert fw_membership(SymMatrix.identity(5), k).status == "member"

    def test_m_non_member_with_verified_certificate(self):
        fx = example_m_fixtures()
        v = fw_membership(fx.M, 4)
        assert v.status == "non_member"
        cert = v.certificate
        assert cert is not None
        assert dual_membership(cert.B, 4).is_member
        assert float(frobenius_inner(cert.B, fx.M)) < 0

    def test_qprime_member_on_27_supports(self):
        fx = example_m_fixtures()
        v = fw_membership(fx.Qprime, 4,
                          SolverOptions(support_list=list(fx.supports27)))
        assert v.status == "member"

    def test_qprime_member_on_94_supports_through_the_triage(self, monkeypatch):
        # 94 supports give stacks with more candidates than the projection's
        # triage gate, which the paper's 27 cannot; the verdict and iteration
        # count are those of the same run with the triage disabled
        fx = example_m_fixtures()
        s27 = list(fx.supports27)
        others = [K for K in enumerate_supports(15, 4) if K not in s27]
        opts = SolverOptions(support_list=s27 + others[::20])
        triaged = []
        nd = symcore._negative_definite
        monkeypatch.setattr(symcore, "_negative_definite",
                            lambda s: triaged.append(len(s)) or nd(s))
        v = fw_membership(fx.Qprime, 4, opts)
        assert v.status == "member"
        assert triaged and max(triaged) <= 94
        monkeypatch.setattr(symcore, "_TRIAGE_ABOVE_BLOCKS", 94)
        untriaged = fw_membership(fx.Qprime, 4, opts)
        assert untriaged.status == "member"
        assert v.diagnostics["iterations"] == untriaged.diagnostics["iterations"]

    def test_projection_inputs_are_symmetric_to_the_bit(self, monkeypatch):
        # _project_psd does not re-symmetrize its input: the splitting core's
        # Z - U and Z must come in symmetric in every bit, members and
        # non-members alike
        from factorwidth import decompose

        fx = example_m_fixtures()
        rng = np.random.default_rng(20261018)
        s27 = SolverOptions(support_list=list(fx.supports27))
        s94 = SolverOptions(support_list=list(fx.supports27) + [
            K for K in enumerate_supports(15, 4)
            if K not in fx.supports27][::20])
        cases = [(fx.M, 4, None), (fx.M, 3, None), (fx.Qprime, 4, s27),
                 (fx.Qprime, 4, s94)]
        for n, k, rank in [(4, 2, 1), (5, 3, 2), (5, 4, 1), (6, 3, 3)]:
            w = rng.standard_normal((n, rank))
            cases.append((SymMatrix.from_array(w @ w.T), k, None))
            cases.append((random_fw_member(rng, n, k), k, None))
        inputs = []
        project = decompose._project_psd

        def spy(a):
            inputs.append(np.swapaxes(a, -1, -2).tobytes() == a.tobytes())
            return project(a)

        monkeypatch.setattr(decompose, "_project_psd", spy)
        statuses = {fw_membership(A, k, opts).status for A, k, opts in cases}
        assert statuses == {"member", "non_member"}
        assert len(inputs) > 1000 and all(inputs)

    @pytest.mark.parametrize("A", [
        SymMatrix.from_array(np.array([[1.5e308, 1e308], [1e308, 1.5e308]])),
        SymMatrix.from_rows([[10 ** 400, 1, 0, 0], [1, 1, 0, 0],
                             [0, 0, 1, 0], [0, 0, 0, 1]]),
    ], ids=["float", "exact"])
    def test_entries_beyond_the_float_range_rejected(self, A):
        with pytest.raises(ValueError, match=r"below 2\*\*1022"):
            fw_membership(A, 2)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_an_infinite_frobenius_norm_is_rejected(self, k):
        # every entry 4e307 lies below 2**1022, but ||J||_F = 2e308 does not
        # fit a float: the certificate gate cannot normalize against it
        J = SymMatrix.from_array(np.full((5, 5), 4e307))
        with pytest.raises(ValueError, match=r"\|\|A\|\|_F finite"):
            fw_membership(J, k)
        assert J.frob_norm() == math.inf
        M = SymMatrix.from_array(np.where(np.eye(5) > 0, 4e307, -5e306))
        assert math.isfinite(M.frob_norm())
        assert fw_membership(M, k).status == "member"

    def test_full_run_decomposes_what_the_supports_cannot_carry(self):
        # A is in FW_2, but the support list cannot reach entry (0,1); no
        # width-2 separating certificate exists, so the verdict is never
        # non_member: the run on all supports decomposes A
        A = SymMatrix.from_rows([[1, 1, 0], [1, 1, 0], [0, 0, 1]])
        opts = SolverOptions(support_list=[Support.of([0, 2]),
                                           Support.of([1, 2])])
        v = fw_membership(A, 2, opts)
        assert v.status == "member"
        assert v.certificate is None
        d = decomposition_from_json(decomposition_to_json(v.decomposition), A)
        assert d.residual <= 1e-7 * (1.0 + A.max_abs())

    @pytest.mark.parametrize("case", ["width1_off_diagonal", "M_width4"])
    def test_one_splitting_run_per_verdict(self, monkeypatch, case):
        from factorwidth import decompose

        if case == "M_width4":
            A, k = example_m_fixtures().M, 4
        else:
            # no width-1 support covers an off-diagonal entry: the run fails
            # at once with the closed-form direction of that entry
            a = np.random.default_rng(5).standard_normal((4, 4))
            A, k = SymMatrix.from_array(a @ a.T), 1
        calls = []
        impl = decompose._fw_decompose_impl

        def counted(*args, **kwargs):
            calls.append(args[1])
            return impl(*args, **kwargs)

        monkeypatch.setattr(decompose, "_fw_decompose_impl", counted)
        v = fw_membership(A, k)
        assert v.status == "non_member"
        assert calls == [k]

    def test_diagnostics_keep_residual_history(self):
        fx = example_m_fixtures()
        for v in (fw_membership(fx.M, 4),
                  fw_membership(fx.Qprime, 4, SolverOptions(
                      support_list=list(fx.supports27)))):
            history = v.diagnostics["residual_history"]
            assert history and history[0][0] == 1
            its = [it for it, _ in history]
            assert its == sorted(its) and its[-1] <= v.diagnostics["iterations"]
            assert all(res >= 0 for _, res in history)

    def test_monotone_in_width(self):
        rng = np.random.default_rng(0)
        for n, k in [(4, 2), (5, 2), (5, 3)]:
            A = random_fw_member(rng, n, k)
            for wider in range(k, n + 1):
                assert fw_membership(A, wider).status == "member", (n, k, wider)

    def test_members_pair_nonnegatively_with_dual_battery(self):
        from factorwidth.dualcone import bnr_certificate, cos_ray

        rng = np.random.default_rng(1)
        A = random_fw_member(rng, 4, 3)
        assert fw_membership(A, 3).status == "member"
        battery = [cos_ray(a, c) for a, c in
                   [(1.0, 2.0), (math.pi / 2, math.pi / 4), (-1.3, 0.4)]]
        for B in battery:
            pairing = float(frobenius_inner(A, B))
            assert pairing >= -1e-6 * A.frob_norm() * B.frob_norm()
        # width-2 members against the parity certificate on degree-1 tuples
        A2 = random_fw_member(rng, 6, 2)
        B2 = bnr_certificate(6, 0, 2).to_float()
        assert float(frobenius_inner(A2, B2)) >= -1e-6 * A2.frob_norm() * B2.frob_norm()


class TestExtractFactors:
    def test_single_embedded_unit_block(self):
        A = SymMatrix.diag([0, 0, 1])
        d = BlockDecomposition.build(
            A, 1, [(Support.of([2]), SymMatrix.from_rows([[1]]))])
        V = extract_factors(d)
        assert V.shape == (3, 1)
        assert np.allclose(np.abs(V[:, 0]), [0, 0, 1])

    def test_scaled_diagonal(self):
        A = SymMatrix.diag([4.0])
        d = BlockDecomposition.build(
            A, 1, [(Support.of([0]), SymMatrix.from_rows([[4.0]]))])
        V = extract_factors(d)
        assert np.allclose(np.abs(V), [[2.0]])

    def test_reconstruction_and_sparsity(self):
        rng = np.random.default_rng(2)
        A = random_fw_member(rng, 5, 2)
        d = fw_membership(A, 2).decomposition
        V = extract_factors(d)
        assert np.max(np.abs(A.as_array() - V @ V.T)) <= d.residual + 1e-6
        for col in V.T:
            assert np.sum(np.abs(col) > 0) <= 2

    def test_no_positive_eigenvalue_gives_no_column(self):
        d = BlockDecomposition.build(SymMatrix.zeros(3, exact=False), 2, [
            (Support.of([0, 2]), SymMatrix.zeros(2, exact=False))])
        assert extract_factors(d).shape == (3, 0)


class TestMemberGate:
    """``decompose._accept``: the one member gate returns None, not an
    error, when ``BlockDecomposition.build`` rejects a block."""

    A = SymMatrix.from_array(np.array([[2.0, 1.0], [1.0, 2.0]]))

    @pytest.mark.parametrize("block", [
        [[1.0, 2.0], [2.0, 1.0]],  # not psd
        [[2.0, np.inf], [np.inf, 2.0]],  # not finite
        [[2.0, np.nan], [np.nan, 2.0]],  # not finite, nor a zero block
        # one ulp off its mirror: the stack is kept as given, never averaged
        [[2.0, 1.0 + 2.0 ** -52], [1.0, 2.0]],
    ], ids=["non-psd", "non-finite", "nan", "asymmetric"])
    def test_rejected_block_gives_none(self, block):
        from factorwidth import decompose

        assert decompose._accept(self.A, 2, np.array([[0, 1]]),
                                 np.array([block]), 10.0) is None

    def test_verified_blocks_are_accepted(self):
        from factorwidth import decompose

        d = decompose._accept(self.A, 2, np.array([[0, 1]]),
                              self.A.as_array()[None], 0.0)
        assert d is not None and d.residual == 0.0

    def test_every_exit_hands_a_bit_symmetric_stack(self, monkeypatch):
        # the witness contract: both member exits (the width-2 closed form
        # and the splitting core) build their stack symmetric to the bit
        from factorwidth import decompose

        seen, real = [], decompose._accept

        def spy(A, k, rows, stack, target):
            seen.append(stack.tobytes()
                        == np.swapaxes(stack, 1, 2).tobytes())
            return real(A, k, rows, stack, target)

        monkeypatch.setattr(decompose, "_accept", spy)
        rng = np.random.default_rng(39)
        members = 0
        for trial in range(200):
            n = 3 + trial % 2
            w, noise = rng.standard_normal((2, n, n))
            A = SymMatrix.from_array(w @ w.T / n + 0.3 * (noise + noise.T))
            members += fw_membership(A, 2).status == "member"
        cases = [(example_m_fixtures().Qprime, 4)] + [
            s for s in map(_rank_one_block_sum, range(120)) if s[1] >= 3]
        for A, k in cases:
            assert fw_membership(A, k).status == "member"
        assert members > 20 and len(seen) >= members + len(cases)
        assert all(seen)


def _per_block_build(A, k, blocks):
    """The per-block reference of ``BlockDecomposition.build``: each block's
    support checked, then ``is_psd``, in list order, then one ``np.ix_`` add
    per block; the residual, or the error text."""
    n = A.n
    try:
        for K, block in blocks:
            if len(K) > k:
                raise ValueError(f"support {K.indices} exceeds width {k}")
            if K.indices[-1] >= n:
                raise ValueError(f"support {K.indices} out of range for n={n}")
            if block.n != len(K):
                raise ValueError("block size does not match its support")
            if not is_psd(block, 0 if block.is_exact else 1e-8).is_psd:
                raise ValueError(f"block on {K.indices} is not psd")
    except ValueError as exc:
        return str(exc)
    if A.is_exact and all(b.is_exact for _, b in blocks):
        D = math.lcm(A._nd[1], *(b._nd[1] for _, b in blocks))
        acc = np.zeros((n, n), dtype=object)
        for K, b in blocks:
            acc[np.ix_(K.indices, K.indices)] += b._nd[0] * (D // b._nd[1])
        return float(np.abs(A._nd[0] * (D // A._nd[1]) - acc).max() / D)
    acc = np.zeros((n, n))
    for K, b in blocks:
        acc[np.ix_(K.indices, K.indices)] += b.as_array()
    return float(np.abs(A.as_array() - acc).max())


def _per_block_accept(A, k, rows, stack, target):
    """The per-block reference of ``decompose._accept``: ``from_array`` on
    each nonzero block, then ``_per_block_build``."""
    try:
        blocks = [(Support.of(K), SymMatrix.from_array(b))
                  for K, b in zip(rows.tolist(), stack) if np.abs(b).max() > 0]
    except ValueError:
        return None
    r = _per_block_build(A, k, blocks)
    return r if isinstance(r, float) and r <= target else None


class TestBatchedGate:
    """``BlockDecomposition.build`` and ``_accept`` give what deciding and
    adding block by block gives, to the bit."""

    @staticmethod
    def _built(A, k, blocks):
        try:
            return BlockDecomposition.build(A, k, blocks).residual
        except ValueError as exc:
            return str(exc)

    @staticmethod
    def _random_blocks(rng, n, k, m, exact):
        blocks = []
        for _ in range(m):
            K = Support.of(sorted(rng.choice(n, size=k, replace=False)))
            w = rng.integers(-3, 4, (k, k)) if exact else rng.standard_normal(
                (k, k))
            # one block in six is indefinite
            b = w @ w.T if rng.random() > 1 / 6 else w + w.T
            blocks.append((K, SymMatrix.from_rows(b.tolist()) if exact
                           else SymMatrix.from_array(b)))
        return blocks

    def test_build_matches_the_per_block_reference(self):
        rng = np.random.default_rng(36)
        for case in range(300):
            n = int(rng.integers(3, 7))
            k = int(rng.integers(1, n + 1))
            kind = ("float", "exact", "mixed")[case % 3]
            blocks = self._random_blocks(rng, n, k, int(rng.integers(1, 9)),
                                         kind == "exact")
            if kind == "mixed":
                blocks += self._random_blocks(rng, n, k, 3, True)
                rng.shuffle(blocks)
            # repeated block objects, and one support in ten too wide
            blocks += [blocks[int(i)] for i in rng.integers(0, len(blocks), 2)]
            if k < n and case % 10 == 0:
                blocks.insert(int(rng.integers(0, len(blocks))),
                              self._random_blocks(rng, n, k + 1, 1, False)[0])
            acc = np.zeros((n, n))
            for K, b in blocks:
                acc[np.ix_(K.indices, K.indices)] += b.as_array()
            A = (SymMatrix.from_rows(np.rint(acc).astype(int).tolist())
                 if case % 2 else SymMatrix.from_array(acc))
            want = _per_block_build(A, k, blocks)
            got = self._built(A, k, blocks)
            assert type(got) is type(want), case
            assert (got == want if isinstance(want, str)
                    else got.hex() == want.hex()), case
        # lambda_min -5e-7 is psd within 1e-8 (1 + max|block|), not within 1e-8
        near = SymMatrix.from_array(np.diag([100.0, -5e-7]))
        bad = SymMatrix.from_array(np.diag([1.0, -1.0]))
        blocks = [(Support.of([0, 1]), near), (Support.of([2, 3]), bad)]
        A = SymMatrix.identity(4, exact=False)
        assert self._built(A, 2, blocks) == _per_block_build(A, 2, blocks)
        assert "(2, 3)" in _per_block_build(A, 2, blocks)

    def test_mixed_sizes_from_json_match_the_reference(self):
        rng = np.random.default_rng(37)
        for case in range(60):
            n = 5
            blocks = []
            for s in rng.integers(1, 4, int(rng.integers(2, 8))):
                K = sorted(rng.choice(n, size=int(s), replace=False).tolist())
                w = rng.standard_normal((int(s), int(s)))
                rows = (w @ w.T if rng.random() > 0.1 else w + w.T).tolist()
                if case % 2:
                    rows = [[str(Fraction(round(8 * x), 8)) for x in r]
                            for r in rows]
                blocks.append({"support": K, "rows": rows})
            A = SymMatrix.identity(n, exact=bool(case % 4 == 1))
            obj = {"k": 3, "blocks": blocks}
            try:
                got = decomposition_from_json(obj, A).residual
            except ValueError as exc:
                got = str(exc)
            want = _per_block_build(A, 3, [
                (Support.of(e["support"]), symcore.load_matrix_json(
                    {"n": len(e["rows"]), "rows": e["rows"]}))
                for e in blocks])
            assert type(got) is type(want), case
            assert (got == want if isinstance(want, str)
                    else got.hex() == want.hex()), case

    def test_accept_matches_the_per_block_reference(self):
        from factorwidth import decompose

        rng = np.random.default_rng(38)
        for case in range(300):
            n = int(rng.integers(3, 7))
            k = int(rng.integers(2, n + 1))
            m = int(rng.integers(1, 9))
            rows = np.array([sorted(rng.choice(n, size=k, replace=False))
                             for _ in range(m)])
            w = rng.standard_normal((m, k, k))
            stack = w @ np.swapaxes(w, 1, 2)
            # rounding-level noise, symmetrized to the bit as every exit
            # hands its stack; zero blocks, indefinite blocks
            stack += 1e-15 * rng.standard_normal((m, k, k))
            stack = (stack + np.swapaxes(stack, 1, 2)) / 2.0
            stack[rng.random(m) < 0.2] = 0.0
            stack[rng.random(m) < 0.1] *= -1.0
            acc = np.zeros((n, n))
            for K, b in zip(rows, stack):
                acc[np.ix_(K, K)] += b
            A = SymMatrix.from_array(acc + 1e-9 * (case % 2))
            for target in (0.0, 1e-8):
                want = _per_block_accept(A, k, rows, stack, target)
                got = decompose._accept(A, k, rows, stack, target)
                assert (got is None) == (want is None), case
                if got is not None:
                    assert got.residual.hex() == want.hex(), case

    def test_accept_keeps_a_finite_pair_near_the_overflow_as_given(self):
        # a mirrored pair whose sum overflows is read as it stands: no
        # average is taken, so nothing overflows and the entries stay exact
        from factorwidth import decompose

        big = np.array([[[1.7e308, 1.55e308], [1.55e308, 1.7e308]],
                        [[1.0, 0.0], [0.0, 0.0]],
                        [[0.0, 0.0], [0.0, 0.0]],
                        [[1.0, np.inf], [np.inf, 1.0]]])
        rows = np.array([[0, 1], [0, 2], [1, 2], [1, 2]])
        A = SymMatrix.from_array(np.array(
            [[1.7e308 + 1.0, 1.55e308, 0.0], [1.55e308, 1.7e308, 0.0],
             [0.0, 0.0, 0.0]]))
        for m in (3, 4):
            for target in (0.0, 1e300):
                want = _per_block_accept(A, 2, rows[:m], big[:m], target)
                got = decompose._accept(A, 2, rows[:m], big[:m], target)
                assert (got is None) == (want is None)
                assert (got is None) == (m == 4)
                if got is not None:
                    assert got.residual.hex() == want.hex()
                    assert got.blocks[0][1][0, 1] == 1.55e308
                    assert got.blocks[0][1][0, 0] == 1.7e308

    def test_member_exits_decide_their_blocks_in_one_battery(
            self, monkeypatch):
        from factorwidth import decompose

        build = BlockDecomposition.build.__func__.__code__
        battery, stacks, exact = decompose._psd_battery, [], []

        def spy(stack, tol):
            if sys._getframe(1).f_code is build:
                stacks.append(stack.shape)
            return battery(stack, tol)

        monkeypatch.setattr(decompose, "_psd_battery", spy)
        monkeypatch.setattr(decompose, "is_psd", lambda *a: exact.append(a))
        width_two = SymMatrix.from_rows([[2, 1, 0], [1, 2, 1], [0, 1, 2]])
        for A, k in [(example_m_fixtures().Qprime, 4), (width_two, 2)]:
            stacks.clear()
            v = fw_membership(A, k)
            assert v.status == "member" and not exact
            assert stacks == [(len(v.decomposition.blocks), k, k)]


class TestSolverOptions:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverOptions(feas_tol=0)
        with pytest.raises(ValueError):
            SolverOptions(max_iter=0)
        for value in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                SolverOptions(feas_tol=value)

    @pytest.mark.parametrize("value", [2.5, True, "50"])
    def test_max_iter_must_be_an_integer(self, value):
        with pytest.raises(ValueError, match="not an integer"):
            SolverOptions(max_iter=value)

    def test_integral_max_iter_becomes_an_int(self):
        opts = SolverOptions(max_iter=np.float64(30.0))
        assert opts.max_iter == 30 and type(opts.max_iter) is int


class TestIntegerWidth:
    """The width k must be an integer, whatever the index cache holds:
    ``True`` and ``2.0`` hash like the ints 1 and 2."""

    @pytest.fixture(autouse=True)
    def warm_cache(self):
        A = SymMatrix.identity(3)
        for k in (1, 2):
            fw_membership(A, k)
            dual_membership(A, k)
            enumerate_supports(3, k)

    @pytest.mark.parametrize("k", [True, False, 2.5, np.float64(1.5), "2"])
    def test_non_integers_raise_at_every_entry_point(self, k):
        A = SymMatrix.identity(3)
        with pytest.raises(ValueError, match="not an integer"):
            fw_membership(A, k)
        with pytest.raises(ValueError, match="not an integer"):
            fw_membership(A, k, SolverOptions(support_list=[[0, 1]]))
        with pytest.raises(ValueError, match="not an integer"):
            dual_membership(A, k)
        with pytest.raises(ValueError, match="not an integer"):
            enumerate_supports(3, k)

    def test_integral_floats_act_as_ints(self):
        A = SymMatrix.identity(3)
        for k in (2.0, np.int64(2), np.float64(2.0)):
            v = fw_membership(A, k)
            assert v.status == "member"
            assert v.decomposition.k == 2 and type(v.decomposition.k) is int
            report = dual_membership(A, k)
            assert report.is_member and type(report.k) is int
            assert enumerate_supports(3, k) == enumerate_supports(3, 2)


class TestIterationBudget:
    """The exit at the end of the iteration budget."""

    def test_budget_exit_certifies_from_the_final_gap(self):
        Q = pna_form(PnaSpec(5, 0.9)).Q
        v = fw_membership(Q, 3, SolverOptions(max_iter=10))
        assert v.status == "non_member"
        assert v.diagnostics["certificate_source"] == "final_gap"
        assert v.diagnostics["iterations"] == 10
        B = v.certificate.B
        assert dual_membership(B, 3, 1e-9).is_member
        assert float(frobenius_inner(B, Q)) < -1e-8 * B.frob_norm() * Q.frob_norm()

    def test_budget_exit_without_certificate_is_inconclusive(self):
        # Qprime is a member; the run on the 27 supports does not finish
        # within 50 iterations and may not certify, and it leaves no
        # iterations for a full run
        fx = example_m_fixtures()
        v = fw_membership(fx.Qprime, 4, SolverOptions(
            support_list=list(fx.supports27), max_iter=50))
        assert v.status == "inconclusive"
        assert v.certificate is None
        assert v.diagnostics["certificate_found"] is False
        assert v.diagnostics["iterations"] == 50

    def test_seed_that_spends_the_budget_does_not_escalate(self):
        # the seeded run uses all of max_iter, so no full run follows
        v = fw_membership(example_m_fixtures().Qprime, 4,
                          SolverOptions(max_iter=50))
        assert v.status == "inconclusive"
        assert v.diagnostics["seed_supports"] == 39
        assert v.diagnostics["stop"].startswith(
            "no decomposition within 50 iterations")
        _assert_history_ends_at_the_stop(v)
        assert "seed_stop" not in v.diagnostics
        assert v.diagnostics["iterations"] == 50

    def test_budget_stop_after_an_escalation_names_the_whole_budget(self):
        # the seed's cone excludes A after 25 iterations; the full run spends
        # the other 15, short of its first z-check, and the stop names the
        # call's budget and both shares
        v = fw_membership(_EXCLUDED_SEED, 3, SolverOptions(max_iter=40))
        assert v.status == "inconclusive"
        assert v.diagnostics["iterations"] == 40
        assert v.diagnostics["seed_stop"] == (
            "restricted cone excludes A after 25 iterations")
        assert v.diagnostics["stop"].startswith(
            "no decomposition within 40 iterations (25 on the first "
            "supports, 15 on all 4 supports; best residual ")

    @pytest.mark.parametrize("max_iter", [1, 25, 50, 400])
    @pytest.mark.parametrize("case", ["excluded_seed", "M_four_supports",
                                      "Qprime_27_supports"])
    def test_max_iter_bounds_the_whole_call(self, case, max_iter):
        fx = example_m_fixtures()
        A, k, supports = {
            "excluded_seed": (_EXCLUDED_SEED, 3, None),
            "M_four_supports": (fx.M, 4, _M_FOUR_SUPPORTS),
            "Qprime_27_supports": (fx.Qprime, 4, list(fx.supports27)),
        }[case]
        v = fw_membership(A, k, SolverOptions(max_iter=max_iter,
                                              support_list=supports))
        assert 1 <= v.diagnostics["iterations"] <= max_iter

    def test_full_run_gets_the_rest_of_the_budget(self, monkeypatch):
        # M's run on four supports stops after 25 iterations; the full run
        # gets the other 275, and the call reports both runs' iterations
        from factorwidth import decompose

        runs = []
        impl = decompose._fw_decompose_impl

        def counted(A, k, opts, index, *spent):
            v = impl(A, k, opts, index, *spent)
            runs.append((opts.max_iter, v.diagnostics["iterations"]))
            return v

        monkeypatch.setattr(decompose, "_fw_decompose_impl", counted)
        v = fw_membership(example_m_fixtures().M, 4, SolverOptions(
            max_iter=300, support_list=_M_FOUR_SUPPORTS))
        assert v.status == "non_member"
        (first_budget, first), (rest, second) = runs
        assert (first_budget, first) == (300, 25)
        assert rest == 300 - first
        assert v.diagnostics["iterations"] == first + second


class TestEarlyInfeasibility:
    """z-checks certify non-members from the shifted gap direction."""

    def test_criterion_7_non_members_certified_within_100_iterations(self):
        rng = np.random.default_rng(7)
        non_members = 0
        for trial in range(60):
            n = 3 if trial % 2 == 0 else 4
            w = rng.standard_normal((n, n))
            noise = rng.standard_normal((n, n))
            sigma = (0.1, 0.3, 1.0)[trial % 3]
            A = SymMatrix.from_array(w @ w.T / n + sigma * (noise + noise.T) / 2)
            oracle = sobs_comparison(A)
            band = 1e-4 * (1.0 + oracle.comparison.max_abs())
            if abs(oracle.psd_report.min_eigenvalue) <= band:
                continue
            v = fw_membership(A, 2)
            assert (v.status == "member") == oracle.is_sobs, trial
            if v.status == "non_member":
                non_members += 1
                assert v.diagnostics["iterations"] == 0, trial
                assert v.diagnostics["certificate_source"] == "comparison"
        assert non_members >= 20

    def test_member_runs_never_call_the_gate(self, monkeypatch):
        from factorwidth import dualcone

        def fail(*args, **kwargs):
            raise AssertionError("certificate gate called on a member run")

        monkeypatch.setattr(dualcone, "verify_candidate", fail)
        fx = example_m_fixtures()
        v = fw_membership(fx.Qprime, 4,
                          SolverOptions(support_list=list(fx.supports27)))
        assert v.status == "member"
        rng = np.random.default_rng(11)
        for n, k in [(3, 2), (4, 2), (4, 3), (5, 2), (5, 3), (6, 3), (6, 4)]:
            A = random_fw_member(rng, n, k)
            assert fw_membership(A, k).status == "member", (n, k)

    @pytest.mark.parametrize("n,k,a", [(5, 3, 1.0), (6, 3, 1.2)])
    def test_restricted_run_certificate_passes_full_battery(self, n, k, a):
        # the two dropped supports make the run's cone smaller than FW_k;
        # at (5, 3) its gap direction needs a larger shift over all C(n, k)
        # blocks than over the run's own, so only that shift certifies here
        A = pna_form(PnaSpec(n, a)).Q.to_float()
        supports = enumerate_supports(n, k)[2:]
        v = fw_membership(A, k, SolverOptions(support_list=supports))
        assert v.status == "non_member"
        assert v.diagnostics["certificate_source"] == "in_loop_gap"
        B = v.certificate.B
        assert dual_membership(B, k, 1e-9).is_member
        assert float(frobenius_inner(B, A)) < -1e-8 * B.frob_norm() * A.frob_norm()

    def test_width_one_closed_form_certificate(self, monkeypatch):
        from factorwidth import decompose

        def fail(*args, **kwargs):
            raise AssertionError("a splitting iteration ran at k = 1")

        monkeypatch.setattr(decompose, "_project_psd", fail)
        A = SymMatrix.from_rows([[2, 0, -3], [0, 1, 0], [-3, 0, 5]])
        v = fw_membership(A, 1)
        assert v.status == "non_member"
        assert v.diagnostics["certificate_source"] == "final_gap"
        expected = np.zeros((3, 3))
        expected[0, 2] = expected[2, 0] = 1.0 / math.sqrt(2.0)
        np.testing.assert_allclose(v.certificate.B.as_array(), expected)


class TestRestrictedFallback:
    """A restricted run without a certificate borrows the full run's."""

    @staticmethod
    def _counted_runs(monkeypatch):
        from factorwidth import decompose

        runs = []
        impl = decompose._fw_decompose_impl

        def counted(A, k, opts, index, *spent):
            v = impl(A, k, opts, index, *spent)
            runs.append((index is decompose._full_index(A.n, k),
                         v.diagnostics["iterations"]))
            return v

        monkeypatch.setattr(decompose, "_fw_decompose_impl", counted)
        return runs

    def test_m_on_four_supports_is_non_member(self, monkeypatch):
        runs = self._counted_runs(monkeypatch)
        M = example_m_fixtures().M
        supports = [K for K in enumerate_supports(5, 4)
                    if K.indices != (0, 1, 2, 3)]
        v = fw_membership(M, 4, SolverOptions(support_list=supports))
        assert v.status == "non_member"
        assert [full for full, _ in runs] == [False, True]
        assert v.diagnostics["iterations"] == sum(it for _, it in runs)
        # the history is the deciding (full) run's
        assert v.diagnostics["residual_history"][-1][0] == runs[1][1]
        B = v.certificate.B
        assert dual_membership(B, 4, 1e-9).is_member
        assert float(frobenius_inner(B, M)) < -1e-8 * B.frob_norm() * M.frob_norm()

    def test_restricted_run_stops_once_its_cone_excludes_a(self):
        # a z-check direction in the dual of the run's cone pairs negatively
        # with M, but no shift over all C(5, 4) supports separates: the
        # restricted run ends there, not at the residual plateau
        from factorwidth.decompose import _fw_decompose_impl, _support_index

        supports = [K for K in enumerate_supports(5, 4)
                    if K.indices != (0, 1, 2, 3)]
        M = example_m_fixtures().M
        v = _fw_decompose_impl(M, 4, SolverOptions(),
                               _support_index(5, 4, supports),
                               1e-7 * (1.0 + M.max_abs()))
        assert v.status == "inconclusive"
        assert v.diagnostics["stop"] == (
            "restricted cone excludes A after 25 iterations")
        _assert_history_ends_at_the_stop(v)

    def test_uncovered_entry_certified_by_the_full_run(self, monkeypatch):
        # (0, 1) is outside every support, but the width-2 comparison
        # certificate is over all C(5, 2) blocks: no splitting run happens
        runs = self._counted_runs(monkeypatch)
        A = pna_form(PnaSpec(5, 1.5)).Q.to_float()
        supports = [K for K in enumerate_supports(5, 2) if K.indices != (0, 1)]
        v = fw_membership(A, 2, SolverOptions(support_list=supports))
        assert v.status == "non_member"
        assert runs == []
        assert v.diagnostics["iterations"] == 0
        B = v.certificate.B
        assert dual_membership(B, 2, 1e-9).is_member
        assert float(frobenius_inner(B, A)) < -1e-8 * B.frob_norm() * A.frob_norm()


class TestSparsitySeed:
    """Without a support_list, the k-cliques of A's nonzero pattern run first;
    all C(n, k) supports run only when that run cannot decide."""

    def test_qprime_member_on_the_cliques_of_its_pattern(self):
        Q = example_m_fixtures().Qprime
        v = fw_membership(Q, 4)
        assert v.status == "member"
        assert v.diagnostics["seed_supports"] == 39
        assert "seed_stop" not in v.diagnostics
        nonzero = Q.as_array() != 0
        for K, _ in v.decomposition.blocks:
            assert nonzero[np.ix_(K.indices, K.indices)].all(), K
        d = decomposition_from_json(decomposition_to_json(v.decomposition), Q)
        assert d.residual <= 1e-7 * (1.0 + Q.max_abs())

    def test_excluded_seed_escalates_to_all_supports(self, monkeypatch):
        # the seed is the two supports (0, 2, 3) and (1, 2, 3); its cone
        # excludes A at the first z-check, and the full run certifies
        runs = TestRestrictedFallback._counted_runs(monkeypatch)
        A = SymMatrix.from_rows([[5, 0, 2, 5], [0, 5, -4, -2],
                                 [2, -4, 5, 3], [5, -2, 3, 5]])
        v = fw_membership(A, 3)
        assert v.status == "non_member"
        assert [full for full, _ in runs] == [False, True]
        assert v.diagnostics["seed_supports"] == 2
        assert v.diagnostics["seed_stop"] == (
            "restricted cone excludes A after 25 iterations")
        assert v.diagnostics["iterations"] == sum(it for _, it in runs)
        B = v.certificate.B
        assert dual_membership(B, 3, 1e-9).is_member
        assert float(frobenius_inner(B, A)) < -1e-8 * B.frob_norm() * A.frob_norm()

    @pytest.mark.parametrize("k", [2, 3])
    def test_dense_input_runs_once_on_all_supports(self, monkeypatch, k):
        # at width 2 the comparison matrix decides and no run happens
        runs = TestRestrictedFallback._counted_runs(monkeypatch)
        a = np.random.default_rng(k).standard_normal((5, 5))
        v = fw_membership(SymMatrix.from_array(a @ a.T), k)
        assert [full for full, _ in runs] == ([] if k == 2 else [True])
        assert v.diagnostics["seed_supports"] is None

    def test_user_supports_run_no_seed(self):
        fx = example_m_fixtures()
        v = fw_membership(fx.Qprime, 4,
                          SolverOptions(support_list=list(fx.supports27)))
        assert v.diagnostics["seed_supports"] is None


def _assert_history_ends_at_the_stop(v):
    """The last history point is at the run's last iteration, and the
    reported residual is at most its residual."""
    last_it, last_res = v.diagnostics["residual_history"][-1]
    assert last_it == v.diagnostics["iterations"]
    assert v.diagnostics["primal_residual"] <= last_res


class TestStopReason:
    """Every verdict but a member names the exit that ended its run."""

    def test_uncovered_entry(self):
        v = fw_membership(SymMatrix.from_rows([[1, 1], [1, 1]]), 1)
        assert v.status == "non_member"
        assert "(0,1) is outside every support" in v.diagnostics["stop"]
        # the run ends before its first iteration, with no history point
        assert v.diagnostics["iterations"] == 0
        assert v.diagnostics["residual_history"] == []
        assert v.diagnostics["primal_residual"] == 1.0

    def test_in_loop_gap(self):
        v = fw_membership(example_m_fixtures().M, 4)
        assert v.diagnostics["certificate_source"] == "in_loop_gap"
        assert v.diagnostics["stop"] == (
            f"gap direction certified non-membership after "
            f"{v.diagnostics['iterations']} iterations")
        _assert_history_ends_at_the_stop(v)

    def test_iteration_budget(self):
        fx = example_m_fixtures()
        v = fw_membership(fx.Qprime, 4, SolverOptions(
            support_list=list(fx.supports27), max_iter=50))
        assert v.status == "inconclusive"
        assert v.diagnostics["stop"].startswith(
            "no decomposition within 50 iterations")
        _assert_history_ends_at_the_stop(v)

    def test_plateau(self):
        # 10^-6 below the width-3 threshold 3/2, so a non-member, but even in
        # the unit-diagonal frame the splitting stalls without a verified
        # certificate (in the given frame it passed as a member within the
        # absolute target after 1 iteration)
        Q = pna_form(PnaSpec(4, 1.5 - 1e-6)).Q
        P = np.eye(4)[:, [2, 0, 1, 3]] @ np.diag(2.0 ** np.array([-2, -1, -2, 4]))
        v = fw_membership(scale_congruence(Q, P), 3)
        assert v.status == "inconclusive"
        assert v.diagnostics["stop"].startswith(
            f"residual plateau at {v.diagnostics['primal_residual']:.3e} ")
        _assert_history_ends_at_the_stop(v)

    def test_scaled_family_once_stalled_is_certified(self):
        # the same non-member under diag(1/8, 8, 1/2, 1/4, 1/4, 1) stalled
        # at the plateau before the step was over-relaxed
        Q = pna_form(PnaSpec(6, 1.5)).Q
        A = scale_congruence(Q, np.diag([1 / 8, 8, 1 / 2, 1 / 4, 1 / 4, 1]))
        v = fw_membership(A, 4)
        assert v.status == "non_member"
        assert v.diagnostics["certificate_source"] == "in_loop_gap"
        B = v.certificate.B
        assert dual_membership(B, 4, 1e-9).is_member
        assert float(frobenius_inner(B, A)) < -1e-8 * B.frob_norm() * A.frob_norm()

    def test_members_carry_no_stop(self):
        fx = example_m_fixtures()
        for v in (fw_membership(SymMatrix.identity(3), 1),
                  fw_membership(SymMatrix.identity(3), 2),
                  fw_membership(fx.Qprime, 4, SolverOptions(
                      support_list=list(fx.supports27)))):
            assert v.status == "member"
            assert "stop" not in v.diagnostics


def _rank_one_block_sum(case):
    """Sum #``case`` of the seeded sweep of rank-1 psd blocks: per case
    n in [4, 8), k in [2, n), 1-8 blocks with standard-normal weights on
    sorted random k-subsets; a member of FW_k by construction."""
    rng = np.random.default_rng(20261018)
    for _ in range(case + 1):
        n = int(rng.integers(4, 8))
        k, b = int(rng.integers(2, n)), int(rng.integers(1, 9))
        a = np.zeros((n, n))
        for _ in range(b):
            K = np.sort(rng.choice(n, size=k, replace=False))
            w = rng.standard_normal(k)
            a[np.ix_(K, K)] += np.outer(w, w)
    return SymMatrix.from_array(a), k


class TestWidthTwoClosedForm:
    """At k = 2 the comparison matrix decides, with no splitting iteration."""

    @staticmethod
    def _certified(A):
        v = fw_membership(A, 2)
        assert v.status == "non_member"
        assert v.diagnostics["certificate_source"] == "comparison"
        assert v.diagnostics["iterations"] == 0
        assert v.diagnostics["stop"].startswith("comparison matrix is not psd")
        B = v.certificate.B
        assert dual_membership(B, 2, 1e-9).is_member
        assert float(frobenius_inner(B, A)) < -1e-8 * B.frob_norm() * A.frob_norm()

    def test_scaled_family_below_threshold_is_certified(self):
        # the splitting alone stalls at its plateau on this congruence
        Q = pna_form(PnaSpec(4, 3 * (1 - 1e-3))).Q
        self._certified(scale_congruence(Q, np.diag([1 / 8, 4, 1 / 2, 2])))

    def test_scaled_family_near_threshold_is_certified(self):
        # the splitting alone accepts this congruence as a member within
        # its absolute target
        Q = pna_form(PnaSpec(4, 3 * (1 - 1e-6))).Q
        self._certified(scale_congruence(Q, np.diag([1, 2, 4, 8])))

    def test_rank_one_block_sum_is_a_member(self):
        # the splitting alone spends its whole budget on this sum's seed
        A, k = _rank_one_block_sum(27)
        assert (A.n, k) == (6, 2)
        v = fw_membership(A, 2)
        assert v.status == "member"
        assert v.diagnostics["iterations"] == 0
        d = decomposition_from_json(decomposition_to_json(v.decomposition), A)
        assert d.residual <= 1e-7 * (1.0 + A.max_abs())
        assert all(len(K) == 2 for K, _ in d.blocks)

    def test_underflowing_perron_entry_is_decided_in_closed_form(self):
        # the component's Perron vector is about (1, 1e-300, 1e-300), whose
        # ratios are not finite; comp^-1 1 is of order one
        A = SymMatrix.from_rows([[1, 1e-300, 0], [1e-300, 2, 0.5],
                                 [0, 0.5, 2]])
        v = fw_membership(A, 2)
        assert v.status == "member"
        assert "comparison_fallback" not in v.diagnostics
        assert v.diagnostics["iterations"] == 0
        assert v.diagnostics["residual_history"] == []
        assert v.decomposition.residual <= 1e-7 * (1.0 + A.max_abs())

    def test_isolated_vertex_uses_a_listed_pair(self):
        A = SymMatrix.from_rows([[2, 1, 0], [1, 2, 0], [0, 0, 3]])
        v = fw_membership(A, 2, SolverOptions(support_list=[[1, 2]]))
        blocks = {K.indices: b.as_array() for K, b in v.decomposition.blocks}
        assert set(blocks) == {(0, 1), (1, 2)}
        assert blocks[(1, 2)][1, 1] == 3.0

    @staticmethod
    def _closed(A, status):
        v = fw_membership(A, 2)
        assert v.status == status
        assert v.diagnostics["iterations"] == 0
        assert "comparison_fallback" not in v.diagnostics
        return v

    @pytest.mark.parametrize("exact", [True, False])
    def test_zero_matrix_is_the_empty_sum(self, exact):
        d = self._closed(SymMatrix.zeros(3, exact), "member").decomposition
        assert d.blocks == [] and d.residual == 0.0

    def test_zero_row_is_a_member(self):
        self._closed(SymMatrix.from_rows([[0, 0, 0], [0, 2, 1], [0, 1, 2]]),
                     "member")

    def test_member_at_the_top_of_the_float_range(self):
        a = np.array([[2.0, 1, 0], [1, 2, 1], [0, 1, 2]])
        self._closed(SymMatrix.from_array(np.ldexp(a, 1020)), "member")

    def test_non_member_at_the_top_of_the_float_range(self):
        A = SymMatrix.from_array(np.ldexp(np.ones((3, 3)), 1020))
        self._closed(A, "non_member")
        self._certified(A)

    def test_rank_one_block_sums_are_members(self):
        sums = [_rank_one_block_sum(case) for case in range(120)]
        width_two = [A for A, k in sums if k == 2]
        assert len(width_two) >= 30
        for A in width_two:
            self._closed(A, "member")

    @pytest.mark.parametrize("rows,status", [
        ([[2, 1, 0, 0, 0], [1, 2, 0, 0, 0], [0, 0, 3, -1, 0],
          [0, 0, -1, 3, 0], [0, 0, 0, 0, 1]], "member"),
        ([[1, 2, 0, 0], [2, 1, 0, 0], [0, 0, 2, 1], [0, 0, 1, 2]],
         "non_member"),
    ], ids=["member", "non_member"])
    def test_one_eigh_per_decision(self, monkeypatch, rows, status):
        # several connected components still make one eigh; the gates'
        # own eigh calls on the blocks are not the decision's
        eigh, callers = np.linalg.eigh, []

        def spy(a):
            callers.append(sys._getframe(1).f_globals["__name__"])
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        self._closed(SymMatrix.from_rows(rows), status)
        assert callers.count("factorwidth.decompose") == 1

    def test_unverified_member_side_is_inconclusive(self, monkeypatch):
        # the comparison matrix is within the rounding band of singular, so
        # the member side leaves a residual above a tight target; the
        # verdict says so, and no splitting run follows
        from factorwidth import decompose

        runs, run = [], decompose._fw_decompose_impl
        monkeypatch.setattr(decompose, "_fw_decompose_impl",
                            lambda *args: runs.append(args) or run(*args))
        Q = pna_form(PnaSpec(4, 3 * (1 - 1e-9))).Q.to_float()
        v = fw_membership(Q, 2, SolverOptions(feas_tol=1e-12))
        assert v.status == "inconclusive"
        assert v.diagnostics["iterations"] == 0
        assert v.diagnostics["residual_history"] == []
        assert v.diagnostics["certificate_found"] is False
        assert v.diagnostics["stop"].endswith(
            "its decomposition did not verify")
        assert runs == []


class TestExtremeScales:
    """Far from 1 in either direction, no norm overflows or underflows: the
    family below its threshold stays certified, with no warning."""

    @pytest.mark.parametrize("n,a,k,scale", [
        (n, a, k, scale)
        for n, a in ((3, 1), (4, 1.2), (5, 1.2))
        for scale in (1e160, 1e300)
        for k in range(2, n)
    ] + [(n, a, 2, scale) for n, a in ((3, 1), (4, 1.2), (5, 1.2))
         for scale in (1e-170, 1e-300)
         ] + [(n, 1.2, 3, scale) for n in (4, 5) for scale in (1e-150, 1e-300)])
    def test_family_below_its_threshold_is_certified(self, n, a, k, scale):
        A = SymMatrix.from_array(
            pna_form(PnaSpec(n, a)).Q.to_float().as_array() * scale)
        v = fw_membership(A, k)
        assert v.status == "non_member"
        assert v.diagnostics["certificate_source"] == (
            "comparison" if k == 2 else "in_loop_gap")
        B = v.certificate.B
        assert float(frobenius_inner(B, A)) < -1e-8 * B.frob_norm() * A.frob_norm()

    @pytest.mark.parametrize("a", [
        np.array([[2.0, 1, 0], [1, 2, 1], [0, 1, 2]]),
        pna_form(PnaSpec(4, 3.3)).Q.to_float().as_array(),
        pna_form(PnaSpec(5, 4.5)).Q.to_float().as_array(),
    ], ids=["tridiagonal", "pna4", "pna5"])
    @pytest.mark.parametrize("scale", [1e-308, 1e-310, 1e-315, 1e-318, 1e-320])
    def test_subnormal_member_is_decided_in_closed_form(self, a, scale):
        # v = (comp + sI)^-1 1 would overflow and the margin underflow at
        # the matrix's own scale; at its power of two neither does
        A = SymMatrix.from_array(a * scale)
        v = fw_membership(A, 2)
        assert v.status == "member"
        assert v.diagnostics["iterations"] == 0
        assert v.decomposition.residual <= 1e-7 * (1.0 + A.max_abs())


class TestOneWitnessPerExit:
    """Each exit of the splitting core hands one witness to its gate."""

    @pytest.mark.parametrize("n,k", [(4, 3), (5, 3), (5, 4), (6, 4), (6, 5)])
    def test_gap_certificate_tries_one_candidate(self, monkeypatch, n, k):
        from factorwidth import decompose, dualcone

        gate, certify, per_call = (dualcone.verify_candidate,
                                   decompose._gap_certificate, [])

        def spy_gate(*args):
            per_call[-1] += 1
            return gate(*args)

        def spy_certify(*args):
            per_call.append(0)
            return certify(*args)

        monkeypatch.setattr(dualcone, "verify_candidate", spy_gate)
        monkeypatch.setattr(decompose, "_gap_certificate", spy_certify)
        thr = (n - 1) / (k - 1)
        cases = [(pna_form(PnaSpec(n, thr * f)).Q.to_float(), k)
                 for f in (0.5, 0.9, 0.99)]
        if (n, k) == (5, 4):
            cases.append((example_m_fixtures().M, 4))
        for A, k in cases:
            per_call.clear()
            assert fw_membership(A, k).status == "non_member"
            assert per_call and max(per_call) <= 1

    def test_member_builds_one_decomposition(self, monkeypatch):
        build, calls = BlockDecomposition.build.__func__, []

        def spy(cls, *args):
            calls.append(args)
            return build(cls, *args)

        monkeypatch.setattr(BlockDecomposition, "build", classmethod(spy))
        fx = example_m_fixtures()
        rng = np.random.default_rng(11)
        cases = [(fx.Qprime, 4, SolverOptions(support_list=fx.supports27)),
                 (pna_form(PnaSpec(5, 2.2)).Q.to_float(), 3, None)]
        cases += [(random_fw_member(rng, n, k), k, None)
                  for n, k in [(4, 3), (5, 3), (6, 4)]]
        for A, k, opts in cases:
            calls.clear()
            assert fw_membership(A, k, opts).status == "member"
            assert len(calls) == 1


class TestRelaxedSplitting:
    """The over-relaxed step keeps the paper's workloads to few iterations,
    and the projection triages only stacks with many negative-diagonal
    blocks."""

    def test_iteration_guards(self):
        fx = example_m_fixtures()
        for A, opts, most, status in [
                (fx.Qprime, None, 250, "member"),
                (fx.Qprime, SolverOptions(support_list=fx.supports27), 350,
                 "member"),
                (fx.M, None, 150, "non_member")]:
            v = fw_membership(A, 4, opts)
            assert v.status == status
            assert v.diagnostics["iterations"] <= most

    @staticmethod
    def _spied(monkeypatch):
        from factorwidth import decompose

        projected, triaged = [], []
        project, nd = decompose._project_psd, symcore._negative_definite
        monkeypatch.setattr(decompose, "_project_psd",
                            lambda a: projected.append(len(a)) or project(a))
        monkeypatch.setattr(symcore, "_negative_definite",
                            lambda s: triaged.append(len(s)) or nd(s))
        return projected, triaged

    def test_seed_stacks_skip_the_triage(self, monkeypatch):
        # one projection per iteration and one more of Z at each z-check;
        # the member is found at the z-check after 175 iterations
        projected, triaged = self._spied(monkeypatch)
        v = fw_membership(example_m_fixtures().Qprime, 4)
        assert v.status == "member" and v.diagnostics["seed_supports"] == 39
        assert v.diagnostics["iterations"] == 175
        assert len(projected) == 175 + 175 // 25 and set(projected) == {39}
        assert triaged == []

    def test_full_support_stacks_still_triage(self, monkeypatch):
        projected, triaged = self._spied(monkeypatch)
        v = fw_membership(example_m_fixtures().Qprime, 4, SolverOptions(
            support_list=enumerate_supports(15, 4), max_iter=20))
        assert v.diagnostics["iterations"] == 20
        assert set(projected) == {1365}
        # every projection triages but the first, of the consensus image of
        # A, whose diagonal is A's; each triage sees its candidates only,
        # the blocks with an all-negative diagonal
        assert len(triaged) == len(projected) - 1
        assert all(symcore._TRIAGE_ABOVE_BLOCKS < m < 1365 for m in triaged)


class TestStallReset:
    """A stall restarts the splitting from its consensus iterate V <- Z."""

    def test_rank_three_target_is_certified_after_a_reset(self):
        # without the reset this target stops at the plateau after 2342
        # iterations, inconclusive
        w = np.random.default_rng(7).standard_normal((7, 3))
        A = SymMatrix.from_array(w @ w.T)
        v = fw_membership(A, 5)
        assert v.status == "non_member"
        assert v.diagnostics["certificate_source"] == "in_loop_gap"
        assert v.diagnostics["iterations"] == 2525
        B = v.certificate.B
        assert dual_membership(B, 5, 1e-9).is_member
        assert frobenius_inner(B, A) < -1e-8 * B.frob_norm() * A.frob_norm()


def _scaled_permutation(rng, n):
    """P diag(2^e) with e in -4..4: a congruence that is exact in floats."""
    return (np.eye(n)[:, rng.permutation(n)]
            @ np.diag(2.0 ** rng.integers(-4, 5, n)))


class TestUnitFrame:
    """At k >= 3 the splitting core solves on U = D^-1 A D^-1, D = diag(sqrt
    A_ii), and maps its witnesses back to A's gates."""

    def test_scaled_family_is_certified_from_a_z_check(self):
        # 0.9 of the width-4 threshold 5/3; in the given frame the splitting
        # stopped at the residual plateau after 2885 iterations
        Q = pna_form(PnaSpec(6, 1.5)).Q
        A = scale_congruence(Q, np.diag([8, 1 / 4, 1 / 2, 8, 1 / 4, 1 / 8]))
        v = fw_membership(A, 4)
        assert v.status == "non_member"
        assert v.diagnostics["certificate_source"] == "in_loop_gap"
        assert v.diagnostics["iterations"] == 25
        B = v.certificate.B
        assert dual_membership(B, 4, 1e-9).is_member
        assert float(frobenius_inner(B, A)) < -1e-8 * B.frob_norm() * A.frob_norm()

    def test_scaled_qprime_is_a_member_within_200_iterations(self):
        # 18,150 iterations in the given frame
        Q = example_m_fixtures().Qprime
        e = np.random.default_rng(0).integers(-2, 3, 15)
        A = scale_congruence(Q, np.diag(2.0 ** e))
        v = fw_membership(A, 4)
        assert v.status == "member"
        assert v.diagnostics["iterations"] <= 200
        # the member gate is A's own, with today's absolute target
        d = decomposition_from_json(decomposition_to_json(v.decomposition), A)
        assert d.residual <= 1e-7 * (1.0 + A.max_abs())

    @pytest.mark.parametrize("case", [
        (n, k, f) for n, k in [(4, 3), (5, 3), (5, 4), (6, 4), (6, 5), (6, 3)]
        for f in (9, 11)] + [
        case for case in range(26) if _rank_one_block_sum(case)[1] >= 3],
        ids=lambda c: "pna-{}-{}-{}".format(*c) if isinstance(c, tuple)
        else f"sum-{c}")
    def test_status_is_invariant_under_scaled_permutations(self, case):
        # the family at 0.9 and 1.1 of its threshold, and the rank-1 block
        # sums at k >= 3 among the first 26 of the sweep
        if isinstance(case, tuple):
            n, k, f = case
            A = pna_form(PnaSpec(n, pna_threshold(n, k) * f / 10)).Q
            status = "non_member" if f < 10 else "member"
        else:
            (A, k), status = _rank_one_block_sum(case), "member"
        rng = np.random.default_rng(case)
        assert fw_membership(A, k).status == status
        for _ in range(2):
            B = scale_congruence(A, _scaled_permutation(rng, A.n))
            assert fw_membership(B, k).status == status

    @pytest.mark.parametrize("a,status", [(1.2, "non_member"),
                                          (2.2, "member")])
    def test_subnormal_diagonal_solves_in_the_given_frame(self, a, status):
        # 1 / (d_4 d_4) = 1e310 overflows, so the run keeps A's frame: the
        # verdict is the given frame's, with no numpy warning
        q = np.zeros((5, 5))
        q[:4, :4] = pna_form(PnaSpec(4, a)).Q.to_float().as_array()
        q[4, 4], q[4, :4], q[:4, 4] = 1e-310, 1e-312, 1e-312
        assert symcore._unit_frame(q) is None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = fw_membership(SymMatrix.from_array(q), 3)
        assert v.status == status
        assert v.diagnostics["iterations"] == (25 if a < 2 else 1)
