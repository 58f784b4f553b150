import math
import random
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
        from factorwidth.symcore import _BlockIndex

        for n, k in [(4, 2), (5, 3), (6, 4)]:
            index = _BlockIndex(n, enumerate_supports(n, k))
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

    def test_rejects_oversized_support(self):
        A = SymMatrix.identity(3)
        with pytest.raises(ValueError):
            BlockDecomposition.build(
                A, 1, [(Support.of([0, 1]), SymMatrix.identity(2))])

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
        # 94 supports is past the projection's triage gate, which the
        # paper's 27 are not; the verdict and iteration count are those of
        # the untriaged projection
        fx = example_m_fixtures()
        s27 = list(fx.supports27)
        others = [K for K in enumerate_supports(15, 4) if K not in s27]
        triaged = []
        nd = symcore._negative_definite
        monkeypatch.setattr(symcore, "_negative_definite",
                            lambda s: triaged.append(len(s)) or nd(s))
        v = fw_membership(fx.Qprime, 4,
                          SolverOptions(support_list=s27 + others[::20]))
        assert v.status == "member"
        assert v.diagnostics["iterations"] == 2719
        assert set(triaged) == {94}

    def test_inconclusive_when_supports_cannot_carry_a_member(self):
        # A is in FW_2, but the restricted support list cannot reach entry
        # (0,1); no width-2 separating certificate exists either, so the
        # verdict must be inconclusive, never non_member
        A = SymMatrix.from_rows([[1, 1, 0], [1, 1, 0], [0, 0, 1]])
        opts = SolverOptions(support_list=[Support.of([0, 2]),
                                           Support.of([1, 2])])
        v = fw_membership(A, 2, opts)
        assert v.status == "inconclusive"
        assert v.certificate is None
        assert v.diagnostics["certificate_found"] is False

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


class TestSolverOptions:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverOptions(feas_tol=0)
        with pytest.raises(ValueError):
            SolverOptions(max_iter=0)
        for value in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                SolverOptions(feas_tol=value)


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
        # Qprime is a member; neither the restricted run nor the full rerun
        # finishes within 50 iterations, and neither may certify
        fx = example_m_fixtures()
        v = fw_membership(fx.Qprime, 4, SolverOptions(
            support_list=list(fx.supports27), max_iter=50))
        assert v.status == "inconclusive"
        assert v.certificate is None
        assert v.diagnostics["certificate_found"] is False
        assert v.diagnostics["iterations"] == 100


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
                assert v.diagnostics["iterations"] <= 100, trial
                assert v.diagnostics["certificate_source"] == "in_loop_gap"
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

        def counted(A, k, opts):
            v = impl(A, k, opts)
            runs.append((opts.support_list is None,
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

    def test_uncovered_entry_certified_by_the_full_run(self, monkeypatch):
        # (0, 1) is outside every support; its closed-form direction needs
        # too large a shift over all C(5, 2) blocks to separate
        runs = self._counted_runs(monkeypatch)
        A = pna_form(PnaSpec(5, 1.5)).Q.to_float()
        supports = [K for K in enumerate_supports(5, 2) if K.indices != (0, 1)]
        v = fw_membership(A, 2, SolverOptions(support_list=supports))
        assert v.status == "non_member"
        assert len(runs) == 2 and runs[0] == (False, 0)
        assert v.diagnostics["iterations"] == runs[1][1]
        B = v.certificate.B
        assert dual_membership(B, 2, 1e-9).is_member
        assert float(frobenius_inner(B, A)) < -1e-8 * B.frob_norm() * A.frob_norm()


class TestStopReason:
    """Every verdict but a member names the exit that ended its run."""

    def test_uncovered_entry(self):
        v = fw_membership(SymMatrix.from_rows([[1, 1], [1, 1]]), 1)
        assert v.status == "non_member"
        assert "(0,1) is outside every support" in v.diagnostics["stop"]

    def test_in_loop_gap(self):
        v = fw_membership(example_m_fixtures().M, 4)
        assert v.diagnostics["certificate_source"] == "in_loop_gap"
        assert v.diagnostics["stop"] == (
            f"gap direction certified non-membership after "
            f"{v.diagnostics['iterations']} iterations")

    def test_iteration_budget(self):
        fx = example_m_fixtures()
        v = fw_membership(fx.Qprime, 4, SolverOptions(
            support_list=list(fx.supports27), max_iter=50))
        assert v.status == "inconclusive"
        assert v.diagnostics["stop"].startswith(
            "no decomposition within 50 iterations")

    def test_plateau(self):
        # below the width-2 threshold 3, so a non-member, but the congruence
        # leaves the splitting stalled without a verified certificate
        Q = pna_form(PnaSpec(4, 3 * (1 - 1e-3))).Q
        A = scale_congruence(Q, np.diag([1 / 8, 4, 1 / 2, 2]))
        v = fw_membership(A, 2)
        assert v.status == "inconclusive"
        assert v.diagnostics["stop"].startswith("residual plateau")

    def test_members_carry_no_stop(self):
        fx = example_m_fixtures()
        for v in (fw_membership(SymMatrix.identity(3), 1),
                  fw_membership(fx.Qprime, 4, SolverOptions(
                      support_list=list(fx.supports27)))):
            assert v.status == "member"
            assert "stop" not in v.diagnostics
