"""Command-line front end: membership checks, certificates, and reports.

Every command prints one RunReport JSON object to stdout (schema shipped in
``schemas/run_report.schema.json``) and encodes its verdict in the exit code:

    0   member / psd / found
    1   non_member / not_psd / none
    2   inconclusive
    64  malformed input
    65  Gram/polynomial mismatch
    70  internal error (an unexpected exception; never a verdict)

All commands are deterministic for fixed inputs and flags.  ``certify``
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

from .symcore import (SymMatrix, load_matrix_json, _as_width, _fits_float,
                      _psd_battery)
from .decompose import (
    SolverOptions,
    decomposition_to_json,
    fw_membership,
    _support_index,
)
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


class _CliInputError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_BAD_INPUT)


def _load_json_file(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise _CliInputError(f"cannot read {path}: {exc}")


def _load_matrix(path: str) -> SymMatrix:
    try:
        return load_matrix_json(_load_json_file(path))
    except (ValueError, TypeError) as exc:
        raise _CliInputError(f"bad matrix file {path}: {exc}")


def _load_poly(path: str):
    try:
        return load_poly_json(_load_json_file(path))
    except (ValueError, TypeError, KeyError) as exc:
        raise _CliInputError(f"bad polynomial file {path}: {exc}")


def _load_supports(path: str, n: int, k: int):
    """Supports of one size, at most k, inside range(n): ``_support_index``."""
    obj = _load_json_file(path)
    if isinstance(obj, dict):
        obj = obj.get("supports")
    if not isinstance(obj, list):
        raise _CliInputError(f"{path}: expected a list of index lists")
    try:
        _support_index(n, k, obj)
    except (ValueError, TypeError) as exc:
        raise _CliInputError(f"bad support list in {path}: {exc}")
    return obj


def _check_float_range(A: SymMatrix, source: str) -> None:
    if not _fits_float(A):  # sums of two entries must stay finite floats
        raise _CliInputError(f"{source}: every |entry| must be below 2**1022")


def _check_width(k: int, n: int) -> None:
    try:
        _as_width(n, k)
    except ValueError as exc:
        raise _CliInputError(str(exc))


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


def _solver_options(args, support_list=None) -> SolverOptions:
    try:
        return SolverOptions(
            feas_tol=args.tol,
            max_iter=args.max_iter,
            support_list=support_list,
        )
    except ValueError as exc:
        raise _CliInputError(str(exc))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_check_fw(args) -> dict:
    A = _load_matrix(args.matrix)
    _check_width(args.k, A.n)
    _check_float_range(A, args.matrix)
    supports = (_load_supports(args.supports, A.n, args.k)
                if args.supports else None)
    verdict = fw_membership(A, args.k, _solver_options(args, supports))
    return {
        "command": "check-fw",
        "n": A.n,
        "k": args.k,
        **_verdict_fields(verdict),
        "artifacts": _write_artifacts(args.matrix, verdict.decomposition,
                                      verdict.certificate),
    }


def cmd_check_dual(args) -> dict:
    B = _load_matrix(args.matrix)
    try:  # dual_membership checks the width too
        report = dual_membership(B, args.k, args.tol)
    except ValueError as exc:
        raise _CliInputError(str(exc))
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
    p = _load_poly(args.poly)
    if p.degree % 2 != 0:
        raise _CliInputError("so-k-s needs an even-degree polynomial")
    if args.r < 0:
        raise _CliInputError("-r must be nonnegative")
    if args.lam is not None and args.r == 0:
        raise _CliInputError("--lambda needs -r >= 1")
    if args.r > 0:
        try:
            lam = ([Fraction(tok) for tok in args.lam.split(",")]
                   if args.lam is not None else [1] * p.n)
        except (ValueError, ZeroDivisionError) as exc:
            raise _CliInputError(f"bad --lambda: {exc}")
        if p.degree != 2:
            raise _CliInputError("-r expects a quadratic input polynomial")
        q = QuadraticForm(Q=quadratic_gram(p))
        if len(lam) != p.n or not any(lam):
            raise _CliInputError("--lambda needs one weight per variable, "
                                 "not all zero")
        p = multiply_weighted_power(q, lam, args.r)
    if args.gram:
        gram = _load_matrix(args.gram)
    else:
        gram = default_gram(p, monomial_basis(p.n, p.degree // 2))
    _check_width(args.k, gram.n)
    _check_float_range(gram, args.gram or f"the Gram matrix of {args.poly}")
    verdict = soks_test(p, args.k, gram, _solver_options(args))
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
    try:
        threshold = pna_threshold(args.n, args.k)
    except ValueError as exc:
        raise _CliInputError(str(exc))
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
        raise _CliInputError(f"bad value a={args.a!r}: {exc}")
    report["a"] = str(a)
    report["verdict"] = "none"
    if a >= threshold:
        d = pna_witness_decomposition(args.n, args.k, a)
        report["verdict"] = "found"
        report["residual"] = d.residual
        report["blocks"] = len(d.blocks)
    return report


def cmd_certify(args) -> dict:
    Q = _load_matrix(args.matrix)
    _check_width(args.k, Q.n)
    _check_float_range(Q, args.matrix)
    if args.max_cycles < 0:
        raise _CliInputError("--max-cycles must be nonnegative")
    cert = None
    if Q.n == 4 and args.k == 3:
        cert = cos_certificate_search(Q)
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
    A = _load_matrix(args.matrix)
    if A.is_exact:  # a float input's spectrum is checked below
        _check_float_range(A, args.matrix)
    # one eigvalsh on the float image: psd iff lambda_min >= -1e-9 (1 + max|A|)
    psd, lam, _ = _psd_battery(A.as_array()[None], 1e-9)
    lam = lam[0].tolist()
    if not all(map(math.isfinite, lam)):
        raise _CliInputError(f"{args.matrix}: an eigenvalue is not finite")
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
    sub.add_argument("--tol", type=float, default=1e-7,
                     help="relative feasibility tolerance (default 1e-7)")
    sub.add_argument("--max-iter", type=int, default=20000,
                     help="splitting iterations for the whole decision, "
                          "all runs together (default 20000)")


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
    s.add_argument("--tol", type=float, default=1e-9,
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
    except _CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except GramMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GRAM_MISMATCH
    except Exception as exc:
        print(f"error: internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
