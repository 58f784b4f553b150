"""Command-line front end: membership checks, certificates, and reports.

Every command prints one RunReport JSON object to stdout (schema shipped in
``schemas/run_report.schema.json``) and encodes its verdict in the exit code:

    0   member / psd / found
    1   non_member / not_psd / none
    2   inconclusive
    64  malformed input: a ``symcore._InputError`` from any check
    65  Gram/polynomial mismatch
    70  internal error (anything else, ``LinAlgError`` included; never a
        verdict)

The library checks its arguments; this module checks only what it alone
sees: the files, ``--lambda``, ``-r``, ``--max-cycles``, an odd ``soks``
degree before its default Gram is built, and ``eig``'s spectrum.  All
commands are deterministic for fixed inputs and flags.  ``certify``
still accepts ``--max-cycles`` (a nonnegative integer), which has no effect.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

from .symcore import (load_matrix_json, _InputError, _PSD_TOL_DEFAULT,
                      _psd_battery, _require_float_range)
from .decompose import SolverOptions, decomposition_to_json, fw_membership
from .dualcone import (
    certificate_to_json,
    cos_certificate_search,
    dual_membership,
    dykstra_dual_certificate,
)
from .polyforms import (
    GramMismatchError,
    QuadraticForm,
    default_gram,
    load_poly_json,
    monomial_basis,
    multiply_weighted_power,
    quadratic_gram,
    soks_test,
)
from .families import pna_threshold, pna_witness_decomposition

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INCONCLUSIVE = 2
EXIT_BAD_INPUT = 64
EXIT_GRAM_MISMATCH = 65
EXIT_INTERNAL = 70


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_BAD_INPUT)


def _load_json_file(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # bad JSON, bytes or int digits
        raise _InputError(f"cannot read {path}: {exc}")


def _load_file(path: str, what: str = "matrix"):
    """The ``what`` in the JSON file ``path``; its reader's errors name it."""
    obj = _load_json_file(path)
    try:  # the reader by name at call time, so a traced one is the one run
        return (load_poly_json if what == "polynomial"
                else load_matrix_json)(obj)
    except ValueError as exc:
        raise _InputError(f"bad {what} file {path}: {exc}")


def _load_supports(path: str) -> list:
    """A file's list of supports; ``fw_membership`` reads each support."""
    obj = _load_json_file(path)
    if isinstance(obj, dict):
        obj = obj.get("supports")
    if not isinstance(obj, list):
        raise _InputError(f"{path}: expected a list of supports")
    return obj


def _write_artifacts(base: str, decomposition=None, certificate=None
                     ) -> list[str]:
    """Write each witness given as ``<stem>.<kind>.json`` beside ``base``;
    the paths written."""
    p = Path(base)
    written = []
    for kind, obj, to_json in (
            ("decomposition", decomposition, decomposition_to_json),
            ("certificate", certificate, certificate_to_json)):
        if obj is not None:
            out = p.with_name(f"{p.stem}.{kind}.json")
            out.write_text(json.dumps(to_json(obj), indent=2, allow_nan=False))
            written.append(str(out))
    return written


def _verdict_fields(verdict) -> dict:
    """The RunReport fields of a ``MembershipVerdict``."""
    d = verdict.diagnostics
    return {
        "verdict": verdict.status,
        "residual": d.get("primal_residual"),
        "iterations": d.get("iterations"),
        "value": d.get("certificate_value"),
        "certificate_source": d.get("certificate_source"),
        "seed_supports": d.get("seed_supports"),
    }


def _verdict_exit(verdict: str) -> int:
    if verdict in ("member", "psd", "found"):
        return EXIT_OK
    if verdict in ("non_member", "not_psd", "none"):
        return EXIT_NEGATIVE
    return EXIT_INCONCLUSIVE


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_check_fw(args) -> dict:
    A = _load_file(args.matrix)
    supports = _load_supports(args.supports) if args.supports else None
    verdict = fw_membership(
        A, args.k, SolverOptions(args.tol, args.max_iter, supports))
    return {
        "command": "check-fw",
        "n": A.n,
        "k": args.k,
        **_verdict_fields(verdict),
        "artifacts": _write_artifacts(args.matrix, verdict.decomposition,
                                      verdict.certificate),
    }


def cmd_check_dual(args) -> dict:
    B = _load_file(args.matrix)
    report = dual_membership(B, args.k, args.tol)
    margin = report.worst_margin  # -inf when a block's eigenvalue overflows
    return {
        "command": "check-dual",
        "verdict": "member" if report.is_member else "non_member",
        "n": B.n,
        "k": args.k,
        "worst_margin": (margin if margin is not None and math.isfinite(margin)
                         else None),
        "worst_support": list(report.worst_support.indices),
        "exact": report.exact,
        "artifacts": [],
    }


def cmd_soks(args) -> dict:
    p = _load_file(args.poly, "polynomial")
    if p.degree % 2 != 0:  # before default_gram builds a basis
        raise _InputError("so-k-s needs an even-degree polynomial")
    if args.r < 0:
        raise _InputError("-r must be nonnegative")
    if args.lam is not None and args.r == 0:
        raise _InputError("--lambda needs -r >= 1")
    if args.r > 0:
        try:
            lam = ([Fraction(tok) for tok in args.lam.split(",")]
                   if args.lam is not None else [1] * p.n)
        except (ValueError, ZeroDivisionError) as exc:
            raise _InputError(f"bad --lambda: {exc}")
        p = multiply_weighted_power(QuadraticForm(Q=quadratic_gram(p)), lam,
                                    args.r)
    gram = (_load_file(args.gram) if args.gram
            else default_gram(p, monomial_basis(p.n, p.degree // 2)))
    verdict = soks_test(p, args.k, gram,
                        SolverOptions(args.tol, args.max_iter))
    return {
        "command": "soks",
        "n": p.n,
        "k": args.k,
        "r": args.r,
        **_verdict_fields(verdict),
        "gram_conditional": verdict.diagnostics.get("gram_conditional"),
        "artifacts": _write_artifacts(args.poly,
                                      certificate=verdict.certificate),
    }


def cmd_pna(args) -> dict:
    threshold = pna_threshold(args.n, args.k)
    report = {
        "command": "pna",
        "n": args.n,
        "k": args.k,
        "threshold": str(threshold),
        "artifacts": [],
    }
    if args.a is None:
        report["verdict"] = "found"
        return report
    try:
        a = Fraction(args.a)
    except (ValueError, ZeroDivisionError) as exc:
        raise _InputError(f"bad value a={args.a!r}: {exc}")
    report["a"] = str(a)
    report["verdict"] = "none"
    if a >= threshold:
        d = pna_witness_decomposition(args.n, args.k, a)
        report["verdict"] = "found"
        report["residual"] = d.residual
        report["blocks"] = len(d.blocks)
    return report


def cmd_certify(args) -> dict:
    Q = _load_file(args.matrix)
    if args.max_cycles < 0:
        raise _InputError("--max-cycles must be nonnegative")
    cert = cos_certificate_search(Q) if Q.n == 4 and args.k == 3 else None
    if cert is None:
        cert = dykstra_dual_certificate(Q, args.k)
    return {
        "command": "certify",
        "verdict": "found" if cert else "none",
        "n": Q.n,
        "k": args.k,
        "value": None if cert is None else float(cert.value),
        "normalized_value": None if cert is None else cert.normalized_value(Q),
        "worst_margin": None if cert is None else cert.worst_minor_margin,
        "artifacts": _write_artifacts(args.matrix, certificate=cert),
    }


def cmd_eig(args) -> dict:
    A = _load_file(args.matrix)
    if A.is_exact:  # a float input's spectrum is checked below
        _require_float_range(A, "A")
    # one eigvalsh on the float image: psd iff lambda_min >= -tol (1 + max|A|)
    psd, lam, _ = _psd_battery(A.as_array()[None], _PSD_TOL_DEFAULT)
    lam = lam[0].tolist()
    if not all(map(math.isfinite, lam)):
        raise _InputError(f"{args.matrix}: an eigenvalue is not finite")
    return {
        "command": "eig",
        "verdict": "psd" if psd else "not_psd",
        "n": A.n,
        "eigenvalues": lam,
        "min_eigenvalue": lam[0],
        "artifacts": [],
    }


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_solver_flags(sub):
    sub.add_argument("--tol", type=float, default=SolverOptions.feas_tol,
                     help="relative feasibility tolerance (default %(default)s)")
    sub.add_argument("--max-iter", type=int, default=SolverOptions.max_iter,
                     help="splitting iterations for the whole decision, "
                          "all runs together (default %(default)s)")


def build_parser() -> _Parser:
    parser = _Parser(prog="factorwidth",
                     description="Factor-width-k cones, dual certificates, "
                                 "and k-nomial sums of squares")
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("check-fw", help="decide membership in FW_k")
    s.add_argument("matrix")
    s.add_argument("k", type=int)
    s.add_argument("--supports", help="JSON file of the supports to run on "
                                      "first (instead of the sparsity seed)")
    _add_solver_flags(s)

    s = subs.add_parser("check-dual", help="decide membership in (FW_k)*")
    s.add_argument("matrix")
    s.add_argument("k", type=int)
    s.add_argument("--tol", type=float, default=_PSD_TOL_DEFAULT,
                   help="psd tolerance; 0 selects the exact path on rationals")

    s = subs.add_parser("soks", help="sum-of-k-nomial-squares test")
    s.add_argument("poly")
    s.add_argument("k", type=int)
    s.add_argument("--gram", help="explicit Gram matrix JSON")
    s.add_argument("-r", type=int, default=0,
                   help="multiplier power (input must be quadratic)")
    s.add_argument("--lambda", dest="lam",
                   help="comma-separated multiplier weights; needs -r >= 1")
    _add_solver_flags(s)

    s = subs.add_parser("pna", help="threshold and witness for the symmetric "
                                    "quadratic family")
    s.add_argument("n", type=int)
    s.add_argument("k", type=int)
    s.add_argument("a", nargs="?", default=None)

    s = subs.add_parser("certify", help="search for a separating dual "
                                        "certificate")
    s.add_argument("matrix")
    s.add_argument("k", type=int)
    s.add_argument("--max-cycles", type=int, default=5000,
                   help="no effect; accepted for compatibility")

    s = subs.add_parser("eig", help="eigenvalues of a symmetric matrix")
    s.add_argument("matrix")

    return parser


_parser = functools.cache(build_parser)  # built by the first main call


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_BAD_INPUT
    try:  # by name at call time, so a replaced ``cmd_*`` is the one run
        report = globals()["cmd_" + args.command.replace("-", "_")](args)
        print(json.dumps(report, indent=2, sort_keys=True, allow_nan=False))
        return _verdict_exit(report["verdict"])
    except (_InputError, GramMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return (EXIT_GRAM_MISMATCH if isinstance(exc, GramMismatchError)
                else EXIT_BAD_INPUT)
    except Exception as exc:
        print(f"error: internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
