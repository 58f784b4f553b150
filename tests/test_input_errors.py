"""Argument checks and JSON readers raise the package's one input error.

Each row calls one entry point with one malformed argument and expects
``symcore._InputError``, the error the command line maps to exit 64.
"""

import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from factorwidth.decompose import (
    BlockDecomposition,
    SolverOptions,
    decomposition_from_json,
    fw_membership,
)
from factorwidth.dualcone import (
    CosExtremeRay,
    bnr_certificate,
    check_extreme_candidate,
    cos_certificate_search,
    dual_membership,
    lift_quaternary_certificate,
    verify_candidate,
)
from factorwidth.families import (
    PnaSpec,
    pna_threshold,
    pna_witness_decomposition,
    rank_one_perturb_det,
)
from factorwidth.polyforms import (
    HomogeneousPoly,
    QuadraticForm,
    load_poly_json,
    monomial_basis,
    multiplier_gram,
    poly_to_json,
)
from factorwidth.symcore import (
    SymMatrix,
    Support,
    _InputError,
    embed,
    is_psd,
    load_matrix_json,
    principal_submatrix,
)

_I4 = SymMatrix.identity(4)


@pytest.mark.parametrize("call", [
    lambda: SymMatrix.from_rows([[1, 2], [3]]),
    lambda: SymMatrix.from_array(np.zeros((2, 3))),
    lambda: SymMatrix.from_rows([]),
    lambda: SymMatrix.zeros(0),
    lambda: Support.of([-1, 0]),
    lambda: load_matrix_json({"n": 1, "rows": [[None]]}),
    lambda: CosExtremeRay(1.0, 1.0, diag_scale=(0.0, 1.0, 1.0, 1.0)),
    lambda: cos_certificate_search(SymMatrix.identity(3)),
    lambda: check_extreme_candidate(SymMatrix.identity(1)),
    lambda: bnr_certificate(0, 1, 2),
    lambda: bnr_certificate(2, -1, 2),
    lambda: bnr_certificate(2, 1, 1),
    lambda: lift_quaternary_certificate(SymMatrix.identity(3), 1),
    lambda: PnaSpec(0, 1),
    lambda: rank_one_perturb_det(1, 1, 0),
    lambda: pna_threshold(1, 2),
    lambda: monomial_basis(0, 1),
    lambda: monomial_basis(1, -1),
    lambda: HomogeneousPoly(2, 2, {(2,): 1}),
    lambda: fw_membership(_I4, 3, SolverOptions(support_list=[5])),
    lambda: fw_membership(_I4, 3, SolverOptions(support_list=5)),
    lambda: principal_submatrix(_I4, None),
    lambda: embed(SymMatrix.identity(1), 0, 3),
    lambda: BlockDecomposition.build(_I4, 3, [(0, SymMatrix.identity(1))]),
    lambda: Support((0.5, 1.5)),
    lambda: Support(5),
    lambda: SolverOptions(feas_tol=True),
    lambda: SolverOptions(feas_tol=None),
    lambda: SolverOptions(feas_tol="1e-7"),
    lambda: is_psd(_I4, None),
    lambda: is_psd(_I4, True),
    lambda: dual_membership(_I4, 2, None),
    lambda: dual_membership(_I4, 2, True),
], ids=[
    "from_rows-ragged", "from_array-not-square", "from_rows-empty",
    "zeros-0", "support-negative", "matrix-json-null-entry",
    "cos-ray-zero-scale", "cos-search-3x3", "extreme-candidate-1x1",
    "bnr-n-0", "bnr-r-negative", "bnr-k-1", "lift-3x3", "pna-spec-n-0",
    "perturb-det-m-0", "threshold-n-1", "monomial-basis-n-0",
    "monomial-basis-d-negative", "poly-short-exponent",
    "support-list-entry-int", "support-list-int", "submatrix-support-none",
    "embed-support-int", "build-support-int", "support-half-integers",
    "support-int", "feas-tol-bool", "feas-tol-none", "feas-tol-string",
    "is-psd-tol-none", "is-psd-tol-bool", "dual-tol-none", "dual-tol-bool",
])
def test_argument_check_raises_the_input_error(call):
    with pytest.raises(_InputError):
        call()


def test_zero_candidate_is_no_certificate():
    assert verify_candidate(np.zeros((3, 3)), SymMatrix.identity(3), 2) is None


def test_poly_json_is_read_from_a_string():
    p = HomogeneousPoly(2, 2, {(2, 0): 1, (1, 1): -3})
    assert load_poly_json(json.dumps(poly_to_json(p))) == p


_QUAD = {"n": 1, "degree": 2}


@pytest.mark.parametrize("read, obj, names", [
    (load_matrix_json, {"n": 2, "rows": None}, "rows"),
    (load_matrix_json, {"n": 2, "rows": [None, None]}, "rows"),
    (load_matrix_json, {"n": 2, "rows": [[1, 0], 5]}, "rows"),
    (load_matrix_json, {"n": 1, "rows": [["1/2/3"]]}, "'1/2/3'"),
    (load_matrix_json, {"n": 1, "rows": [["x"]]}, "'x'"),
    (load_poly_json, {**_QUAD, "terms": [{"exp": [2]}]}, "a term"),
    (load_poly_json, {**_QUAD, "terms": [5]}, "a term"),
    (load_poly_json, {**_QUAD, "terms": 5}, "terms"),
    (load_poly_json, {**_QUAD, "terms": [{"exp": 2, "coef": 1}]}, "exp"),
    (load_poly_json, {"n": 1, "terms": []}, "degree"),
    (lambda obj: decomposition_from_json(obj, SymMatrix.identity(2)), {},
     "blocks"),
    (lambda obj: decomposition_from_json(obj, SymMatrix.identity(2)),
     {"k": 2, "blocks": 5}, "blocks"),
    (lambda obj: decomposition_from_json(obj, SymMatrix.identity(2)),
     {"k": 2, "blocks": [{"support": [0]}]}, "rows"),
    (lambda obj: decomposition_from_json(obj, SymMatrix.identity(2)),
     {"k": 2, "blocks": [{"support": 0, "rows": [[1]]}]}, "support"),
    (lambda obj: decomposition_from_json(obj, SymMatrix.identity(2)),
     {"k": 2, "blocks": [{"support": [0], "rows": 1}]}, "rows"),
], ids=[
    "rows-null", "row-null", "row-int", "entry-two-slashes", "entry-word",
    "term-without-coef", "term-int", "terms-int", "exp-int",
    "poly-without-degree", "decomposition-empty", "blocks-int",
    "block-without-rows", "support-int", "block-rows-int",
])
def test_malformed_json_raises_the_input_error_naming_its_part(read, obj,
                                                               names):
    with pytest.raises(_InputError, match=names):
        read(obj)


# Every rational argument is read by symcore._as_rational: a non-boolean
# rational or a finite float, else the input error naming the argument.
_Q3 = QuadraticForm(Q=SymMatrix.identity(3))
_RATIONAL_ARGUMENTS = {
    "weight": (lambda v: multiplier_gram(_Q3, [v, 1, 1], 1), "weight in lam"),
    "pna-spec": (lambda v: PnaSpec(3, v), "parameter a"),
    "pna-witness": (lambda v: pna_witness_decomposition(3, 2, v),
                    "parameter a"),
    "coefficient": (lambda v: HomogeneousPoly(2, 2, {(2, 0): v}),
                    "coefficient of (2, 0)"),
    "matrix-json-entry": (lambda v: load_matrix_json({"n": 1, "rows": [[v]]}),
                          "matrix entry"),
}
_NOT_RATIONAL = {"inf": math.inf, "nan": math.nan, "bool": True,
                 "string": "1/2", "none": None}


@pytest.mark.parametrize("arg, bad", [
    (arg, bad) for arg in _RATIONAL_ARGUMENTS for bad in _NOT_RATIONAL
    # a matrix JSON entry may be a "p/q" string (TestMatrixJson)
    if (arg, bad) != ("matrix-json-entry", "string")])
def test_a_rational_argument_names_itself_when_malformed(arg, bad):
    call, name = _RATIONAL_ARGUMENTS[arg]
    with pytest.raises(_InputError, match=re.escape(name)):
        call(_NOT_RATIONAL[bad])


@pytest.mark.parametrize("arg", _RATIONAL_ARGUMENTS)
@pytest.mark.parametrize("value", [Fraction(1, 2), np.int64(2), 0.5],
                         ids=["fraction", "np-int64", "float"])
def test_a_rational_argument_reads_as_its_value(arg, value):
    call, _ = _RATIONAL_ARGUMENTS[arg]
    shift = 2 if arg == "pna-witness" else 0  # the width-2 threshold is 2
    assert call(value + shift) == call(Fraction(value) + shift)


def test_a_numpy_integer_is_read_as_an_exact_int():
    # np.int64 arithmetic would wrap: (2**20)**6 is 2**120
    exact = multiplier_gram(_Q3, [2 ** 20, 1, 1], 3)
    for big in (np.int64(2 ** 20), Fraction(np.int64(2 ** 20))):
        assert multiplier_gram(_Q3, [big, 1, 1], 3) == exact
    coef = HomogeneousPoly(1, 2, {(2,): np.int64(2 ** 40)}).coefficients
    assert type(coef[(2,)].numerator) is int
    assert type(PnaSpec(3, np.int64(2)).a.numerator) is int
    assert pna_witness_decomposition(3, 2, np.int64(2 ** 62)).residual == 0
    assert load_matrix_json({"n": 1, "rows": [[np.int64(3)]]}).is_exact
