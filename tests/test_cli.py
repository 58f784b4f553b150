import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from factorwidth.cli import main
from factorwidth.families import PnaSpec, example_m_fixtures, pna_form
from factorwidth.symcore import matrix_to_json


@pytest.fixture(scope="module")
def schema():
    text = (resources.files("factorwidth") / "schemas"
            / "run_report.schema.json").read_text()
    return json.loads(text)


@pytest.fixture()
def fixture_files(tmp_path):
    fx = example_m_fixtures()
    paths = {}
    for name, mat in [("M", fx.M), ("A", fx.A), ("Qprime", fx.Qprime)]:
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(matrix_to_json(mat)))
        paths[name] = p
    sup = tmp_path / "s27.json"
    sup.write_text(json.dumps(
        {"supports": [list(K.indices) for K in fx.supports27]}))
    paths["s27"] = sup
    ident = tmp_path / "identity5.json"
    ident.write_text(json.dumps(
        {"n": 5, "rows": [[1 if i == j else 0 for j in range(5)]
                          for i in range(5)]}))
    paths["I5"] = ident
    return paths


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    report = json.loads(out) if out.strip() else None
    return code, report


class TestCheckFw:
    def test_m_is_rejected_with_certificate(self, capsys, fixture_files, schema):
        code, report = run_cli(capsys, "check-fw", fixture_files["M"], 4)
        assert code == 1
        assert report["verdict"] == "non_member"
        assert report["certificate_source"] == "in_loop_gap"
        jsonschema.validate(report, schema)
        for source in ("guess", "dykstra"):
            with pytest.raises(jsonschema.ValidationError):
                jsonschema.validate({**report, "certificate_source": source},
                                    schema)
        cert_path = fixture_files["M"].parent / "M.certificate.json"
        assert cert_path.exists()
        cert = json.loads(cert_path.read_text())
        assert cert["value"] < 0

    def test_identity_width_one(self, capsys, fixture_files, schema):
        code, report = run_cli(capsys, "check-fw", fixture_files["I5"], 1)
        assert code == 0
        assert report["verdict"] == "member"
        assert report["certificate_source"] is None
        jsonschema.validate(report, schema)
        assert (fixture_files["I5"].parent
                / "identity5.decomposition.json").exists()

    def test_qprime_with_supports(self, capsys, fixture_files, schema):
        code, report = run_cli(capsys, "check-fw", fixture_files["Qprime"], 4,
                               "--supports", fixture_files["s27"],
                               "--tol", "1e-6")
        assert code == 0
        assert report["verdict"] == "member"
        jsonschema.validate(report, schema)

    def test_reports_the_seed_size(self, capsys, fixture_files, schema):
        # without --supports Qprime is decided on the 39 k-cliques of its
        # nonzero pattern; M has no zero entry, so no seed runs
        code, report = run_cli(capsys, "check-fw", fixture_files["Qprime"], 4)
        assert code == 0
        assert report["seed_supports"] == 39
        jsonschema.validate(report, schema)
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate({**report, "seed_supports": 0}, schema)
        code, report = run_cli(capsys, "check-fw", fixture_files["M"], 4)
        assert code == 1
        assert report["seed_supports"] is None
        jsonschema.validate(report, schema)

    def test_budget_exit_is_inconclusive(self, capsys, fixture_files, schema):
        # 50 iterations on the 27 supports decide neither way and leave
        # none for a run on all supports: exit 2
        code, report = run_cli(capsys, "check-fw", fixture_files["Qprime"], 4,
                               "--supports", fixture_files["s27"],
                               "--max-iter", 50)
        assert code == 2
        assert report["verdict"] == "inconclusive"
        assert report["certificate_source"] is None
        assert report["artifacts"] == []
        jsonschema.validate(report, schema)

    def test_width_two_reports_the_comparison_verdict(self, capsys, tmp_path,
                                                     schema):
        # the all-ones 3x3 is psd, but its comparison matrix is not: the
        # closed form decides with no splitting iteration and no seed
        ones = _write(tmp_path / "ones.json", {"n": 3, "rows": [[1] * 3] * 3})
        code, report = run_cli(capsys, "check-fw", ones, 2)
        assert code == 1
        assert report["verdict"] == "non_member"
        assert report["certificate_source"] == "comparison"
        assert report["iterations"] == 0
        assert report["seed_supports"] is None
        assert report["value"] < 0
        jsonschema.validate(report, schema)
        diag = _write(tmp_path / "diag.json", {"n": 3, "rows": [
            [2, 1, 0], [1, 2, 0], [0, 0, 1]]})
        code, report = run_cli(capsys, "check-fw", diag, 2)
        assert code == 0
        assert report["verdict"] == "member"
        assert report["certificate_source"] is None
        assert report["iterations"] == 0
        jsonschema.validate(report, schema)

    def test_width_two_far_above_one(self, capsys, tmp_path, schema):
        # every square of a 1e200 entry overflows; the norms scale first
        ones = _write(tmp_path / "ones.json",
                      {"n": 3, "rows": [[1e200] * 3] * 3})
        code = main(["check-fw", str(ones), "2"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == ""
        report = json.loads(captured.out)
        assert report["verdict"] == "non_member"
        assert report["certificate_source"] == "comparison"
        jsonschema.validate(report, schema)

    def test_width_two_unverified_member_side_is_inconclusive(
            self, capsys, tmp_path, schema):
        # at --tol 1e-12 the closed form's member side does not verify on
        # this near-singular comparison matrix, and no splitting run follows
        Q = pna_form(PnaSpec(4, 3 * (1 - 1e-9))).Q.to_float()
        path = _write(tmp_path / "near.json", matrix_to_json(Q))
        code, report = run_cli(capsys, "check-fw", path, 2, "--tol", "1e-12")
        assert code == 2
        assert report["verdict"] == "inconclusive"
        assert report["iterations"] == 0
        jsonschema.validate(report, schema)

    def test_malformed_matrix(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 2, "rows": [[1, 2], [3, 4]]}')
        code, _ = run_cli(capsys, "check-fw", bad, 2)
        assert code == 64


@pytest.mark.parametrize("command", ["check-fw", "certify", "soks"])
@pytest.mark.parametrize("k", [0, 6])
def test_width_outside_one_to_n_exits_64(capsys, fixture_files, tmp_path,
                                         command, k):
    target = fixture_files["I5"]
    if command == "soks":  # sum of the five squares: its Gram is 5 x 5
        target = tmp_path / "squares.json"
        target.write_text(json.dumps({"n": 5, "degree": 2, "terms": [
            {"exp": [int(i == j) * 2 for j in range(5)], "coef": 1}
            for i in range(5)]}))
    code = main([command, str(target), str(k)])
    captured = capsys.readouterr()
    assert code == 64 and captured.out == ""
    assert captured.err == f"error: need 1 <= k <= n, got k={k}, n=5\n"


def test_schema_declares_exactly_the_keys_written(capsys, fixture_files,
                                                  tmp_path, schema):
    pna3 = TestSoks().write_pna(tmp_path, 3, "19/10")
    diag = _write(tmp_path / "diag.json", {"n": 2, "rows": [[1, 0], [0, 2]]})
    ones = _write(tmp_path / "ones.json", {"n": 3, "rows": [[1] * 3] * 3})
    written = set()
    for argv in (["check-fw", fixture_files["I5"], 1],
                 ["check-fw", ones, 2],
                 ["check-dual", fixture_files["A"], 4],
                 ["soks", pna3, 2],
                 ["pna", 4, 3, "3/2"],
                 ["certify", fixture_files["M"], 4],
                 ["eig", diag]):
        _, report = run_cli(capsys, *argv)
        jsonschema.validate(report, schema)
        assert set(report) <= set(schema["properties"]), argv[0]
        written |= set(report)
    assert written == set(schema["properties"])


class TestCheckDual:
    def test_a_in_dual_width4(self, capsys, fixture_files, schema):
        code, report = run_cli(capsys, "check-dual", fixture_files["A"], 4)
        assert code == 0
        assert report["verdict"] == "member"
        jsonschema.validate(report, schema)

    def test_a_not_in_dual_width5(self, capsys, fixture_files):
        code, report = run_cli(capsys, "check-dual", fixture_files["A"], 5)
        assert code == 1
        assert report["verdict"] == "non_member"
        assert report["worst_margin"] < 0

    def test_identity(self, capsys, fixture_files):
        code, report = run_cli(capsys, "check-dual", fixture_files["I5"], 3)
        assert code == 0

    @pytest.mark.parametrize("tol, exact", [(0, True), (1e-9, False)])
    def test_reports_exactness(self, capsys, fixture_files, schema, tol,
                               exact):
        code, report = run_cli(capsys, "check-dual", fixture_files["A"], 4,
                               "--tol", tol)
        assert code == 0
        assert report["exact"] is exact
        jsonschema.validate(report, schema)
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate({**report, "exact": "yes"}, schema)

    @pytest.mark.parametrize("off_diagonal, code, verdict", [
        (1, 0, "member"), (10 ** 400, 1, "non_member")],
        ids=["member", "non_member"])
    def test_entry_beyond_float_range(self, capsys, tmp_path, schema,
                                      off_diagonal, code, verdict):
        m = _write(tmp_path / "huge.json", {"n": 2, "rows": [
            [10 ** 400, off_diagonal], [off_diagonal, 1]]})
        got, report = run_cli(capsys, "check-dual", m, 2, "--tol", 0)
        assert got == code
        assert report["verdict"] == verdict
        assert report["exact"] is True
        assert report["worst_margin"] is None
        jsonschema.validate(report, schema)
        # the float battery cannot read the matrix: malformed input
        got, report = run_cli(capsys, "check-dual", m, 2)
        assert got == 64 and report is None

    def test_entry_near_the_top_of_the_float_range(self, capsys, tmp_path,
                                                    schema):
        # doubling 1e308 overflows; the battery must not, and its report
        # must be strict JSON
        m = _write(tmp_path / "f308.json",
                   {"n": 2, "rows": [[1e308, 0.5], [0.5, 1.0]]})
        code = main(["check-dual", str(m), "2"])
        out = capsys.readouterr().out
        report = json.loads(out, parse_constant=_reject_constant)
        assert code == 0
        assert report["verdict"] == "member"
        assert report["worst_margin"] == 1.0
        jsonschema.validate(report, schema)


    def test_margin_beyond_float_range(self, capsys, tmp_path, schema):
        # finite float entries whose least block eigenvalue is -inf: the
        # verdict stands and the margin is reported as null
        m = _write(tmp_path / "inf_margin.json", {"n": 3, "rows": [
            [0, 0, 1.5e308], [0, 0, 1e308], [1.5e308, 1e308, 0]]})
        code = main(["check-dual", str(m), "3"])
        out = capsys.readouterr().out
        report = json.loads(out, parse_constant=_reject_constant)
        assert code == 1
        assert report["verdict"] == "non_member"
        assert report["worst_margin"] is None
        jsonschema.validate(report, schema)


class TestSoks:
    def write_pna(self, tmp_path, n, a):
        terms = []
        for i in range(n):
            exp = [0] * n
            exp[i] = 2
            terms.append({"exp": exp, "coef": str(a)})
        for i in range(n):
            for j in range(i + 1, n):
                exp = [0] * n
                exp[i] = exp[j] = 1
                terms.append({"exp": exp, "coef": 2})
        p = tmp_path / f"pna{n}_{str(a).replace('/', 'over')}.json"
        p.write_text(json.dumps({"n": n, "degree": 2, "terms": terms}))
        return p

    def test_binomial_reject_below_threshold(self, capsys, tmp_path, schema):
        p = self.write_pna(tmp_path, 3, "19/10")
        code, report = run_cli(capsys, "soks", p, 2)
        assert code == 1
        assert report["verdict"] == "non_member"
        assert report["gram_conditional"] is False
        jsonschema.validate(report, schema)

    def test_reject_reports_the_verdict_fields(self, capsys, tmp_path, schema):
        # soks reports its verdict through the same fields as check-fw
        p = self.write_pna(tmp_path, 3, "19/10")
        code, report = run_cli(capsys, "soks", p, 2)
        assert code == 1
        jsonschema.validate(report, schema)
        assert report["iterations"] == 0
        assert report["certificate_source"] == "comparison"
        assert report["value"] < 0
        assert report["artifacts"] == [
            str(p.with_name(p.stem + ".certificate.json"))]

    def test_binomial_accept_at_threshold(self, capsys, tmp_path):
        p = self.write_pna(tmp_path, 3, 2)
        code, report = run_cli(capsys, "soks", p, 2)
        assert code == 0
        assert report["verdict"] == "member"

    def test_multiplier_lift_with_explicit_gram(self, capsys, tmp_path, schema):
        from factorwidth.families import qprime_canonical

        fx = example_m_fixtures()
        qm = tmp_path / "qM.json"
        terms = []
        for i in range(5):
            exp = [0] * 5
            exp[i] = 2
            terms.append({"exp": exp, "coef": int(fx.M[i, i])})
        for i in range(5):
            for j in range(i + 1, 5):
                exp = [0] * 5
                exp[i] = exp[j] = 1
                terms.append({"exp": exp, "coef": 2 * int(fx.M[i, j])})
        qm.write_text(json.dumps({"n": 5, "degree": 2, "terms": terms}))

        canon, sups = qprime_canonical()
        gram = tmp_path / "Qprime_canonical.json"
        gram.write_text(json.dumps(matrix_to_json(canon)))
        # the canonical support list accelerates the solve but the CLI decides
        # membership of the Gram itself; restrict via --supports is not part
        # of soks, so use a looser tolerance budget for the full support set
        code, report = run_cli(capsys, "soks", qm, 4, "-r", 1,
                               "--gram", gram, "--tol", "1e-6")
        assert code == 0
        assert report["verdict"] == "member"
        assert report["gram_conditional"] is True
        assert report["seed_supports"] == 39
        jsonschema.validate(report, schema)

    def test_quartic_uses_the_default_gram(self, capsys, tmp_path, schema):
        # (x^2 + y^2)^2 without --gram: the default Gram splits 2 x^2 y^2
        # over (x^2, y^2) and (xy, xy), a width-2 matrix but not width 1
        quartic = _write(tmp_path / "quartic.json", {
            "n": 2, "degree": 4, "terms": [
                {"exp": [4, 0], "coef": 1}, {"exp": [2, 2], "coef": 2},
                {"exp": [0, 4], "coef": 1}]})
        code, report = run_cli(capsys, "soks", quartic, 2)
        assert code == 0
        assert report["verdict"] == "member"
        assert report["gram_conditional"] is True
        jsonschema.validate(report, schema)
        code, report = run_cli(capsys, "soks", quartic, 1)
        assert code == 1
        assert report["verdict"] == "non_member"
        assert report["gram_conditional"] is True

    def test_gram_mismatch_exit_code(self, capsys, tmp_path):
        p = self.write_pna(tmp_path, 2, 1)
        gram = tmp_path / "gram.json"
        gram.write_text(json.dumps({"n": 2, "rows": [[5, 0], [0, 5]]}))
        code, _ = run_cli(capsys, "soks", p, 2, "--gram", gram)
        assert code == 65

    def test_gram_of_wrong_size_exit_code(self, capsys, tmp_path):
        p = self.write_pna(tmp_path, 2, 1)
        gram = tmp_path / "gram.json"
        gram.write_text(json.dumps(
            {"n": 3, "rows": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}))
        code, _ = run_cli(capsys, "soks", p, 2, "--gram", gram)
        assert code == 65

    def test_r_requires_quadratic(self, capsys, tmp_path):
        quartic = tmp_path / "quartic.json"
        quartic.write_text(json.dumps(
            {"n": 1, "degree": 4, "terms": [{"exp": [4], "coef": 1}]}))
        code, _ = run_cli(capsys, "soks", quartic, 2, "-r", 1)
        assert code == 64


class TestPna:
    def test_threshold_only(self, capsys, schema):
        code, report = run_cli(capsys, "pna", 4, 3)
        assert code == 0
        assert report["threshold"] == "3/2"
        jsonschema.validate(report, schema)

    def test_witness_at_value(self, capsys):
        code, report = run_cli(capsys, "pna", 4, 3, "3/2")
        assert code == 0
        assert report["verdict"] == "found"
        assert report["blocks"] == 4

    def test_below_threshold(self, capsys):
        code, report = run_cli(capsys, "pna", 4, 3, "1.4")
        assert code == 1
        assert report["verdict"] == "none"

    def test_k1_rejected(self, capsys):
        code, _ = run_cli(capsys, "pna", 3, 1)
        assert code == 64


class TestCertify:
    def test_m_certified(self, capsys, fixture_files, schema):
        code, report = run_cli(capsys, "certify", fixture_files["M"], 4)
        assert code == 0
        assert report["verdict"] == "found"
        assert report["value"] < 0
        jsonschema.validate(report, schema)

    def test_cosine_stage_certifies_the_family(self, capsys, monkeypatch,
                                               tmp_path, schema):
        # pna_form(4, 1.4) lies below the width-3 threshold 3/2; the cosine
        # search certifies it, so the splitting fallback must not run
        from factorwidth import cli
        from factorwidth.dualcone import dual_membership
        from factorwidth.families import PnaSpec, pna_form
        from factorwidth.symcore import frobenius_inner, load_matrix_json

        def no_fallback(Q, k):
            raise AssertionError("the splitting fallback ran")

        monkeypatch.setattr(cli, "dykstra_dual_certificate", no_fallback)
        Q = pna_form(PnaSpec(4, 1.4)).Q
        path = _write(tmp_path / "pna.json", matrix_to_json(Q))
        code, report = run_cli(capsys, "certify", path, 3)
        assert code == 0
        assert report["verdict"] == "found"
        assert report["value"] < 0 and report["normalized_value"] < 0
        jsonschema.validate(report, schema)
        artifact = tmp_path / "pna.certificate.json"
        assert report["artifacts"] == [str(artifact)]
        B = load_matrix_json(json.loads(artifact.read_text())["B"])
        assert dual_membership(B, 3).is_member
        assert frobenius_inner(B, Q) < 0

    @staticmethod
    def _certified(capsys, tmp_path, rows):
        """Run ``certify`` at width 3 and check that it exits 0 with an
        artifact in the dual cone that pairs negatively with the target."""
        from factorwidth.dualcone import dual_membership
        from factorwidth.symcore import (SymMatrix, frobenius_inner,
                                         load_matrix_json)

        path = _write(tmp_path / "q.json", {"n": 4, "rows": rows})
        code, report = run_cli(capsys, "certify", path, 3)
        assert code == 0
        assert report["verdict"] == "found"
        B = load_matrix_json(json.loads(
            (tmp_path / "q.certificate.json").read_text())["B"])
        assert dual_membership(B, 3).is_member
        assert frobenius_inner(B, SymMatrix.from_rows(rows)) < 0

    def test_cosine_stage_certifies_a_rescaled_family_member(self, capsys,
                                                             tmp_path):
        # pna_form(4, 1.4) under diag(16, 1/16, 1, 1): the search runs in
        # the unit-diagonal frame, so the rescaling does not hide the ray
        self._certified(capsys, tmp_path, [[358.4, 1.0, 16.0, 16.0],
                                           [1.0, 0.00546875, 0.0625, 0.0625],
                                           [16.0, 0.0625, 1.4, 1.0],
                                           [16.0, 0.0625, 1.0, 1.4]])

    @pytest.mark.parametrize("rows", [
        [[0, 0.5, 0, 0], [0.5, 2, 1, 1], [0, 1, 2, 1], [0, 1, 1, 2]],
        [[-1, 0.5, 0, 0], [0.5, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    ], ids=["zero-diagonal-with-mass", "negative-diagonal"])
    def test_nonpositive_diagonal_is_certified(self, capsys, tmp_path, rows):
        # the cosine search misses both (its rays have unit diagonal); the
        # splitting fallback certifies them
        self._certified(capsys, tmp_path, rows)

    def test_identity_none(self, capsys, fixture_files):
        code, report = run_cli(capsys, "certify", fixture_files["I5"], 3,
                               "--max-cycles", 200)
        assert code == 1
        assert report["verdict"] == "none"


class TestEig:
    def test_diagonal(self, capsys, tmp_path, schema):
        m = tmp_path / "diag.json"
        m.write_text(json.dumps({"n": 2, "rows": [[1, 0], [0, 2]]}))
        code, report = run_cli(capsys, "eig", m)
        assert code == 0
        assert report["verdict"] == "psd"
        assert report["eigenvalues"] == [1.0, 2.0]
        jsonschema.validate(report, schema)

    def test_indefinite(self, capsys, tmp_path):
        m = tmp_path / "ind.json"
        m.write_text(json.dumps({"n": 2, "rows": [[1, 2], [2, 1]]}))
        code, report = run_cli(capsys, "eig", m)
        assert code == 1
        assert report["verdict"] == "not_psd"

    def test_one_eigensolve_per_run(self, capsys, tmp_path, monkeypatch):
        import numpy as np

        solves = []
        for name in ("eigh", "eigvalsh"):
            solver = getattr(np.linalg, name)
            monkeypatch.setattr(
                np.linalg, name,
                lambda *a, _s=solver, **kw: solves.append(1) or _s(*a, **kw))
        m = tmp_path / "tri.json"
        m.write_text(json.dumps({"n": 3, "rows": [[2, 1, 0], [1, 2, 1],
                                                  [0, 1, 2]]}))
        code, report = run_cli(capsys, "eig", m)
        assert code == 0 and report["verdict"] == "psd"
        assert len(solves) == 1

    def test_overflowing_spectrum_names_the_file(self, capsys, tmp_path):
        # finite float entries, an eigenvalue of 3.4e308: bad input, and a
        # finite spectrum near the top of the float range keeps its answer
        m = tmp_path / "big.json"
        for x, code in ((1.7e308, 64), (0.8e308, 0)):
            m.write_text(json.dumps({"n": 2, "rows": [[x, x], [x, x]]}))
            assert main(["eig", str(m)]) == code
            captured = capsys.readouterr()
            if code:
                assert captured.out == ""
                assert str(m) in captured.err and "not finite" in captured.err
            else:
                lam = json.loads(captured.out)["eigenvalues"]
                assert lam == pytest.approx([0.0, 2 * x], rel=1e-12)


class TestDeterminism:
    def test_identical_reports(self, capsys, fixture_files):
        code1, report1 = run_cli(capsys, "check-fw", fixture_files["M"], 4)
        code2, report2 = run_cli(capsys, "check-fw", fixture_files["M"], 4)
        assert code1 == code2
        assert report1 == report2

    def test_threads_flag_rejected(self, capsys, fixture_files):
        code, report = run_cli(capsys, "check-dual", fixture_files["A"], 4,
                               "--threads", 2)
        assert code == 64
        assert report is None


def _write(path, obj):
    path.write_text(json.dumps(obj))
    return path


@pytest.mark.parametrize("argv", [
    ("check-fw", "{M}", 9),
    ("check-fw", "{M}", 0),
    ("check-fw", "{M}", 3, "--supports", "{mixed}"),
    ("check-fw", "{M}", 2, "--supports", "{s27}"),
    ("check-fw", "{M}", 4, "--max-iter", 0),
    ("check-fw", "{M}", 4, "--tol", "inf"),
    ("check-fw", "{M}", 4, "--rho", 1),
    ("check-fw", "{M}", 4, "--supports", "{frac_support}"),
    ("check-fw", "{M}", 4, "--supports", "{empty_list}"),
    ("check-fw", "{M}", 4, "--supports", "{empty_supports}"),
    ("check-fw", "{n_true}", 1),
    ("check-dual", "{M}", 0),
    ("check-dual", "{M}", 4, "--tol", "nan"),
    ("check-dual", "{M}", 4, "--tol", -1),
    ("certify", "{M}", 7),
    ("certify", "{M}", 4, "--max-cycles", -5),
    ("eig", "{zero_den}"),
    ("soks", "{zero_den_poly}", 2),
    ("soks", "{inf_poly}", 2),
    ("soks", "{quad}", 3),
    ("soks", "{quad}", 2, "-r", 1, "--lambda", "0,0"),
    ("soks", "{quad}", 2, "--lambda", "1,2,3"),
    ("soks", "{quad}", 2, "-r", 1, "--lambda", ""),
    ("soks", "{cubic}", 1),
    ("soks", "{no_coef}", 2),
    ("soks", "{frac_exp}", 2),
    ("soks", "{n_zero_poly}", 2),
    ("soks", "{n_str_poly}", 2),
    ("soks", "{neg_degree_poly}", 2),
    ("soks", "{quad}", 2, "-r", -1),
    ("pna", 4, 3, "abc"),
    ("pna", 4, 3, "1/0"),
    # entries beyond the float range: exact, and float ones the solvers'
    # sums would overflow
    ("eig", "{huge}"),
    ("check-fw", "{huge}", 2),
    ("certify", "{huge}", 2),
    ("soks", "{huge_poly}", 2),
    ("check-fw", "{f308}", 2),
    ("certify", "{f308}", 2),
    ("soks", "{quad}", 2, "--gram", "{f308}"),
    # finite float entries whose spectrum overflows
    ("eig", "{lam_inf}"),
    ("eig", "{lam_minus_inf}"),
    ("check-fw", "{missing}", 2),
    ("check-fw", "{not_json}", 2),
    ("check-fw", "{M}", 4, "--supports", "{supports_not_list}"),
], ids=lambda argv: "-".join(str(a).strip("{}") for a in argv))
def test_malformed_input_exits_64(capsys, tmp_path, fixture_files, argv):
    files = {
        "M": fixture_files["M"],
        "s27": fixture_files["s27"],
        "mixed": _write(tmp_path / "mixed.json", [[0, 1], [0, 1, 2]]),
        "frac_support": _write(tmp_path / "frac_support.json",
                               [[0, 1.7, 2, 3]]),
        "zero_den": _write(tmp_path / "zero_den.json",
                           {"n": 2, "rows": [[1, "1/0"], ["1/0", 1]]}),
        "zero_den_poly": _write(tmp_path / "zero_den_poly.json", {
            "n": 2, "degree": 2, "terms": [{"exp": [2, 0], "coef": "1/0"}]}),
        "inf_poly": _write(tmp_path / "inf_poly.json", {
            "n": 2, "degree": 2,
            "terms": [{"exp": [2, 0], "coef": float("inf")}]}),
        "quad": _write(tmp_path / "quad.json", {
            "n": 2, "degree": 2, "terms": [{"exp": [2, 0], "coef": 1}]}),
        "cubic": _write(tmp_path / "cubic.json", {
            "n": 1, "degree": 3, "terms": [{"exp": [3], "coef": 1}]}),
        "no_coef": _write(tmp_path / "no_coef.json", {
            "n": 2, "degree": 2, "terms": [{"exp": [2, 0]}]}),
        "frac_exp": _write(tmp_path / "frac_exp.json", {
            "n": 3, "degree": 2, "terms": [{"exp": [2.9, 0, 0], "coef": 1}]}),
        "empty_list": _write(tmp_path / "empty_list.json", []),
        "empty_supports": _write(tmp_path / "empty_supports.json",
                                 {"supports": []}),
        "n_true": _write(tmp_path / "n_true.json", {"n": True, "rows": [[1]]}),
        "n_zero_poly": _write(tmp_path / "n_zero_poly.json", {
            "n": 0, "degree": 2, "terms": []}),
        "n_str_poly": _write(tmp_path / "n_str_poly.json", {
            "n": "2", "degree": 2, "terms": []}),
        "neg_degree_poly": _write(tmp_path / "neg_degree_poly.json", {
            "n": 2, "degree": -2, "terms": []}),
        "huge": _write(tmp_path / "huge.json",
                       {"n": 2, "rows": [[10 ** 400, 1], [1, 1]]}),
        "huge_poly": _write(tmp_path / "huge_poly.json", {
            "n": 2, "degree": 2, "terms": [{"exp": [2, 0], "coef": 10 ** 400},
                                           {"exp": [0, 2], "coef": 1}]}),
        "f308": _write(tmp_path / "f308.json",
                       {"n": 2, "rows": [[1e308, 0.5], [0.5, 1.0]]}),
        "lam_inf": _write(tmp_path / "lam_inf.json", {
            "n": 2, "rows": [[1.7e308, 1.7e308], [1.7e308, 1.7e308]]}),
        "lam_minus_inf": _write(tmp_path / "lam_minus_inf.json", {
            "n": 3, "rows": [[0, 0, 1.5e308], [0, 0, 1e308],
                             [1.5e308, 1e308, 0]]}),
        "missing": tmp_path / "missing.json",
        "supports_not_list": _write(tmp_path / "supports_not_list.json",
                                    {"supports": {"0": [0, 1, 2, 3]}}),
    }
    (tmp_path / "not_json.json").write_text("{not json")
    files["not_json"] = tmp_path / "not_json.json"
    code, report = run_cli(capsys, *(str(a).format(**files) for a in argv))
    assert code == 64
    assert report is None


def test_unexpected_exception_exits_70(capsys, monkeypatch, fixture_files):
    from factorwidth import cli

    def broken(args):
        raise RuntimeError("simulated fault inside a command")

    monkeypatch.setattr(cli, "cmd_check_fw", broken)
    code = main(["check-fw", str(fixture_files["M"]), "4"])
    captured = capsys.readouterr()
    assert code == 70
    assert captured.out == ""
    assert captured.err.startswith("error: internal error: ")


@pytest.mark.parametrize("where", ["report", "artifact"])
def test_non_finite_output_exits_70(capsys, monkeypatch, tmp_path,
                                    fixture_files, where):
    # every RunReport and artifact is strict JSON: a NaN is an internal
    # error, never printed as NaN
    from factorwidth import cli
    from factorwidth.decompose import BlockDecomposition, MembershipVerdict

    nan = float("nan")
    if where == "report":
        monkeypatch.setattr(cli, "cmd_check_fw", lambda args: {
            "command": "check-fw", "verdict": "member", "residual": nan,
            "artifacts": []})
    else:
        d = BlockDecomposition(ambient_n=5, k=4, blocks=[], residual=nan)
        monkeypatch.setattr(cli, "fw_membership", lambda A, k, opts:
                            MembershipVerdict("member", decomposition=d,
                                              diagnostics={"iterations": 1}))
    code = main(["check-fw", str(fixture_files["M"]), "4"])
    captured = capsys.readouterr()
    assert code == 70
    assert captured.out == ""
    assert captured.err.startswith("error: internal error: ValueError")
    assert not (tmp_path / "M.decomposition.json").exists()


def _fresh_process(*argv):
    """Exit code, stdout and stderr of ``python -m factorwidth.cli`` in a new
    interpreter, importing the package from this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    # pytest's filterwarnings does not reach a subprocess
    env = {**os.environ, "COLUMNS": "80", "PYTHONWARNINGS": "error",
           "PYTHONPATH": os.pathsep.join(
               filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "factorwidth.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    return done.returncode, done.stdout, done.stderr


_ONES = [[1, 1, 1]] * 3
# every entry 4e307 is below 2**1022, but ||J||_F = 2e308 is not a float
_J = {"n": 5, "rows": [[4e307] * 5] * 5}

# argv (with {} for the input file), the input written to that file, the
# allowed exit codes, whether stderr must be empty, and the key and value
# that the one JSON object on stdout must hold (None: any object); a row
# whose one exit code is 64 prints nothing on stdout, and the value is a
# part of its error message instead
_ENTRY_POINT_ROWS = [
    ("pna 4 3", None, {0}, False, None, None),
    # a verdict (0 found, 1 none), never 64 or 70
    ("certify {} 3", {"n": 4, "rows": [[7, 5, 5, 5], [5, 7, 5, 5],
                                       [5, 5, 7, 5], [5, 5, 5, 7]]},
     {0, 1}, False, None, None),
    # rejected from the comparison matrix, which eig calls psd
    ("check-fw {} 2", {"n": 3, "rows": _ONES}, {1}, False,
     "certificate_source", "comparison"),
    ("eig {}", {"n": 3, "rows": _ONES}, {0}, False, "verdict", "psd"),
    ("eig {}", {"n": 2, "rows": [[1, 2], [2, 1]]}, {1}, False,
     "verdict", "not_psd"),
    # scaled by 1e200, where a plain sum of squares overflows
    ("check-fw {} 2", {"n": 3, "rows": [[1e200] * 3] * 3}, {1}, True,
     "certificate_source", "comparison"),
    # a member with subnormal entries, in closed form
    ("check-fw {} 2", {"n": 3, "rows": [[2e-310, 1e-310, 0],
                                        [1e-310, 2e-310, 1e-310],
                                        [0, 1e-310, 2e-310]]},
     {0}, True, "iterations", 0),
    # the scaled pna_form(6, 1.5) at width 4, from a z-check
    ("check-fw {} 4", {"n": 6, "rows": [
        [0.0234375, 1.0, 0.0625, 0.03125, 0.03125, 0.125],
        [1.0, 96.0, 4.0, 2.0, 2.0, 8.0],
        [0.0625, 4.0, 0.375, 0.125, 0.125, 0.5],
        [0.03125, 2.0, 0.125, 0.09375, 0.0625, 0.25],
        [0.03125, 2.0, 0.125, 0.0625, 0.09375, 0.25],
        [0.125, 8.0, 0.5, 0.25, 0.25, 1.5]]},
     {1}, True, "certificate_source", "in_loop_gap"),
    # pna_form(6, 1.5) under diag(8, 1/4, 1/2, 8, 1/4, 1/8) at width 4, from
    # a z-check in the unit-diagonal frame
    ("check-fw {} 4", {"n": 6, "rows": [
        [96.0, 2.0, 4.0, 64.0, 2.0, 1.0],
        [2.0, 0.09375, 0.125, 2.0, 0.0625, 0.03125],
        [4.0, 0.125, 0.375, 4.0, 0.125, 0.0625],
        [64.0, 2.0, 4.0, 96.0, 2.0, 1.0],
        [2.0, 0.0625, 0.125, 2.0, 0.09375, 0.03125],
        [1.0, 0.03125, 0.0625, 1.0, 0.03125, 0.0234375]]},
     {1}, True, "certificate_source", "in_loop_gap"),
    # pna_form(4, 1.2) scaled by 1e-150 at width 3: a non-member however
    # small its entries
    ("check-fw {} 3", {"n": 4, "rows": [
        [1.2e-150 if i == j else 1e-150 for j in range(4)]
        for i in range(4)]},
     {1}, True, None, None),
    # pna_form(4, 1.4) under diag(16, 1/16, 1, 1) at width 3
    ("certify {} 3", {"n": 4, "rows": [
        [358.4, 1.0, 16.0, 16.0], [1.0, 0.00546875, 0.0625, 0.0625],
        [16.0, 0.0625, 1.4, 1.0], [16.0, 0.0625, 1.0, 1.4]]},
     {0}, True, "verdict", "found"),
    # (x0^2 + x1^2)^2 through the default Gram and its check
    ("soks {} 2", {"n": 2, "degree": 4, "terms": [
        {"exp": [4, 0], "coef": 1}, {"exp": [2, 2], "coef": 2},
        {"exp": [0, 4], "coef": 1}]},
     {0, 1}, False, None, None),
    # J: malformed input, not an internal error
    ("check-fw {} 2", _J, {64}, False, None, "||A||_F finite"),
    ("check-fw {} 3", _J, {64}, False, None, "||A||_F finite"),
    ("certify {} 3", _J, {64}, False, None, "||A||_F finite"),
    # 4e307 on the diagonal and -5e306 off it: ||M||_F ~ 9.2e307, a member
    ("check-fw {} 3", {"n": 5, "rows": [
        [4e307 if i == j else -5e306 for j in range(5)] for i in range(5)]},
     {0}, True, "verdict", "member"),
]


@pytest.mark.parametrize(
    "argv, data, codes, quiet, key, value", _ENTRY_POINT_ROWS,
    ids=[f"{i}-{row[0].split()[0]}" for i, row in enumerate(_ENTRY_POINT_ROWS)])
def test_entry_point_row(tmp_path, argv, data, codes, quiet, key, value):
    # each row in a new interpreter, as the installed console script runs it
    path = tmp_path / "input.json"
    if data is not None:
        path.write_text(json.dumps(data))
    code, out, err = _fresh_process(
        *(str(path) if tok == "{}" else tok for tok in argv.split()))
    assert code in codes, err
    if quiet:
        assert err == ""
    if codes == {64}:
        assert out == "" and value in err
        return
    report = json.loads(out)
    assert isinstance(report, dict)
    if key is not None:
        assert report.get(key) == value


def test_module_entry_point_prints_one_run_report(schema):
    code, out, err = _fresh_process("pna", "4", "3")
    assert code == 0, err
    report = json.loads(out)
    assert report["verdict"] == "found"
    jsonschema.validate(report, schema)


def test_one_parser_serves_every_call_of_a_process(capsys, monkeypatch):
    # the parser is built on the first call and reused; a parse error, a
    # verdict and --help must each behave as in a fresh interpreter
    from factorwidth import cli

    monkeypatch.setenv("COLUMNS", "80")
    cli._parser.cache_clear()
    for argv in (["pna", "4", "three"], ["pna", "4", "3"], ["--help"]):
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == _fresh_process(*argv)
    assert cli._parser.cache_info().misses == 1
