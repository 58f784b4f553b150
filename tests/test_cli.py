import json
from importlib import resources

import jsonschema
import pytest

from factorwidth.cli import main
from factorwidth.families import example_m_fixtures
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

    def test_malformed_matrix(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 2, "rows": [[1, 2], [3, 4]]}')
        code, _ = run_cli(capsys, "check-fw", bad, 2)
        assert code == 64


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
        assert isinstance(report["iterations"], int)
        assert report["iterations"] >= 1
        assert report["certificate_source"] in ("in_loop_gap", "final_gap")
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
        jsonschema.validate(report, schema)

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
    ("soks", "{cubic}", 1),
    ("soks", "{no_coef}", 2),
    ("soks", "{frac_exp}", 2),
    ("soks", "{n_zero_poly}", 2),
    ("soks", "{n_str_poly}", 2),
    ("soks", "{neg_degree_poly}", 2),
    ("soks", "{quad}", 2, "-r", -1),
    ("pna", 4, 3, "abc"),
    ("pna", 4, 3, "1/0"),
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
    }
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
