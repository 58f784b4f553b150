"""Concrete matrix families and embedded fixtures.

Houses the symmetric one-parameter quadratics (a on the diagonal, 1 off it),
their width-k threshold and explicit witness decompositions, the comparison
matrix test for sums of binomial squares, and the exact 5-variable example
fixtures: a quadratic that is not a sum of 4-nomial squares but becomes one
after multiplying by the sum of squares of the variables.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

from .symcore import SymMatrix, Support, is_psd, PsdReport, scale_congruence
from .decompose import BlockDecomposition, enumerate_supports
from .polyforms import QuadraticForm, monomial_basis

__all__ = [
    "PnaSpec",
    "Fixtures",
    "SobsReport",
    "pna_form",
    "rank_one_perturb_det",
    "pna_threshold",
    "pna_witness_decomposition",
    "sobs_comparison",
    "example_m_fixtures",
    "qprime_canonical",
]

Number = Union[int, Fraction, float]


@dataclass(frozen=True)
class PnaSpec:
    """Parameters of the symmetric quadratic (sum x_i)^2 + (a-1) sum x_i^2."""

    n: int
    a: Number

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")


def pna_form(spec: PnaSpec) -> QuadraticForm:
    """Gram matrix with a on the diagonal and 1 off it."""
    n, a = spec.n, spec.a
    one: Number = 1.0 if isinstance(a, float) else 1
    rows = [[a if i == j else one for j in range(n)] for i in range(n)]
    return QuadraticForm(Q=SymMatrix.from_rows(rows))


def rank_one_perturb_det(b: Number, c: Number, m: int) -> Number:
    """Determinant of the m x m matrix with b on the diagonal and c off it."""
    if m < 1:
        raise ValueError("m must be at least 1")
    return (b - c + c * m) * (b - c) ** (m - 1)


def pna_threshold(n: int, k: int) -> Fraction:
    """Smallest a for which the symmetric quadratic is a sum of k-nomial squares."""
    if n < 2:
        raise ValueError("threshold needs n >= 2")
    if not 2 <= k <= n:
        raise ValueError("threshold needs 2 <= k <= n (width 1 admits no "
                         "off-diagonal mass at all)")
    return Fraction(n - 1, k - 1)


def pna_witness_decomposition(n: int, k: int, a: Number) -> BlockDecomposition:
    """The uniform exact witness: one scaled block per k-subset.

    Each block is C(n-2, k-2)^{-1} times the k x k matrix with (k-1)a/(n-1)
    on the diagonal and 1 off it; summing the embedded copies reconstructs the
    Gram exactly, and ``BlockDecomposition.build`` proves the block psd once.
    """
    a = Fraction(a)
    thr = pna_threshold(n, k)
    if a < thr:
        raise ValueError(f"a = {a} is below the width-{k} threshold {thr}")
    b_diag = Fraction(k - 1) * a / (n - 1)
    coeff = Fraction(1, math.comb(n - 2, k - 2))
    block = SymMatrix.from_rows([[coeff * (b_diag if i == j else 1)
                                  for j in range(k)] for i in range(k)])
    blocks = [(K, block) for K in enumerate_supports(n, k)]
    d = BlockDecomposition.build(pna_form(PnaSpec(n=n, a=a)).Q, k, blocks)
    if d.residual != 0:
        raise AssertionError("exact witness failed to reconstruct the Gram")
    return d


@dataclass
class SobsReport:
    is_sobs: bool
    comparison: SymMatrix
    psd_report: PsdReport


def sobs_comparison(Q: SymMatrix) -> SobsReport:
    """Comparison-matrix test: keep the diagonal, negate off-diagonal magnitudes.

    psd-ness of the comparison matrix certifies that the quadratic x^T Q x is
    a sum of binomial squares; this is the width-2 oracle.
    """
    n = Q.n
    rows = [[Q[i, i] if i == j else -abs(Q[i, j]) for j in range(n)]
            for i in range(n)]
    comp = SymMatrix.from_rows(rows)
    rep = is_psd(comp, 0 if comp.is_exact else 1e-9)
    return SobsReport(is_sobs=rep.is_psd, comparison=comp, psd_report=rep)


# ---------------------------------------------------------------------------
# Embedded 5-variable example fixtures
# ---------------------------------------------------------------------------

_F = Fraction

_M_ROWS = (
    (49, -21, 37, -37, -21),
    (-21, 17, -21, 21, 29),
    (37, -21, 41, -25, -33),
    (-37, 21, -25, 41, 33),
    (-21, 29, -33, 33, 73),
)

_A_ROWS = (
    (3, 1, -2, 2, -1),
    (1, 3, 0, 0, -1),
    (-2, 0, 2, -1, 1),
    (2, 0, -1, 2, -1),
    (-1, -1, 1, -1, 1),
)

# Gram matrix of (sum x_i^2) * (x^T M x) over the degree-2 monomials in the
# order x1^2, x1x2, x2^2, x1x3, x2x3, x3^2, ..., x4x5, x5^2 (column-major by
# highest variable).  The printed source carries a sign typo at entry (7, 14),
# pinned to -12 by the expansion identity (see the fixture validation test).
_QPRIME_ROWS = (
    (49, -21, 0, 37, 0, 0, -37, 0, -5, 0, -21, 0, 0, 0, 0),
    (-21, 66, -21, -21, 37, _F(-11, 5), 21, -37, 0, _F(-17, 5), 29, -21, 0, 0, 0),
    (0, -21, 17, 0, -21, 0, 0, 21, 0, 0, 0, 29, 0, 0, 0),
    (37, -21, 0, 90, _F(-94, 5), 37, -20, 0, -37, 0, -33, 0, -14, 0, 0),
    (0, 37, -21, _F(-94, 5), 58, -21, 0, -25, 21, 0, 0, -33, 29, 0, -4),
    (0, _F(-11, 5), 0, 37, -21, 41, 0, 0, -25, 0, -7, 0, -33, 0, 0),
    (-37, 21, 0, -20, 0, 0, 90, _F(-88, 5), 37, -37, 33, 0, 0, -12, 0),
    (0, -37, 21, 0, -25, 0, _F(-88, 5), 58, -21, 21, 0, 33, 0, 29, _F(17, 5)),
    (-5, 0, 0, -37, 21, -25, 37, -21, 82, -25, 0, 0, 33, -33, _F(-23, 5)),
    (0, _F(-17, 5), 0, 0, 0, 0, -37, 21, -25, 41, -9, 0, 0, 33, 0),
    (-21, 29, 0, -33, 0, -7, 33, 0, 0, -9, 122, -21, 37, -37, -21),
    (0, -21, 29, 0, -33, 0, 0, 33, 0, 0, -21, 90, -17, _F(88, 5), 29),
    (0, 0, 0, -14, 29, -33, 0, 0, 33, 0, 37, -17, 114, _F(-102, 5), -33),
    (0, 0, 0, 0, 0, 0, -12, 29, -33, 33, -37, _F(88, 5), _F(-102, 5), 114, 33),
    (0, 0, 0, 0, -4, 0, 0, _F(17, 5), _F(-23, 5), 0, -21, 29, -33, 33, 73),
)

# 4-subsets (1-based in the source, stored 0-based) for which a 27-block
# numerical decomposition of the lifted Gram exists.
_SUPPORTS27_1BASED = (
    (1, 2, 4, 7), (1, 2, 4, 11), (1, 2, 7, 11), (1, 4, 7, 9),
    (2, 3, 5, 8), (2, 3, 5, 12), (2, 3, 8, 12), (2, 4, 5, 6),
    (2, 5, 8, 12), (2, 7, 8, 10), (3, 5, 8, 12), (4, 5, 6, 9),
    (4, 5, 6, 13), (4, 5, 9, 13), (4, 6, 11, 13), (5, 6, 9, 13),
    (5, 12, 13, 15), (7, 8, 9, 10), (7, 8, 9, 14), (7, 10, 11, 14),
    (8, 9, 10, 14), (8, 12, 14, 15), (9, 13, 14, 15), (11, 12, 13, 14),
    (11, 12, 13, 15), (11, 12, 14, 15), (11, 13, 14, 15),
)

_FIXTURE_SHA256 = (
    "0f26e7a994104619a748002050ea54449a2edffa88fdca46ad708351c6a08210"
)


@dataclass(frozen=True)
class Fixtures:
    """Exact constants of the 5-variable separation example."""

    M: SymMatrix
    A: SymMatrix
    Qprime: SymMatrix
    supports27: tuple


def _fixture_digest() -> str:
    parts = []
    for rows in (_M_ROWS, _A_ROWS, _QPRIME_ROWS):
        for row in rows:
            parts.append(",".join(str(Fraction(v)) for v in row))
    for sup in _SUPPORTS27_1BASED:
        parts.append(",".join(str(v) for v in sup))
    return hashlib.sha256("|".join(parts).encode()).hexdigest()


def example_m_fixtures() -> Fixtures:
    """Load the embedded example constants, pinned by their sha256 digest."""
    digest = _fixture_digest()
    if digest != _FIXTURE_SHA256:
        raise RuntimeError(
            f"embedded fixture data corrupted (sha256 {digest})")
    M = SymMatrix.from_rows([list(r) for r in _M_ROWS])
    A = SymMatrix.from_rows([list(r) for r in _A_ROWS])
    Qp = SymMatrix.from_rows([list(r) for r in _QPRIME_ROWS])
    supports = tuple(Support.of(tuple(i - 1 for i in sup))
                     for sup in _SUPPORTS27_1BASED)
    return Fixtures(M=M, A=A, Qprime=Qp, supports27=supports)


def _colex_pair_order(n: int):
    """Monomial order used by the printed Gram: x_a x_b grouped by b."""
    order = []
    for b in range(n):
        for a in range(b + 1):
            t = [0] * n
            t[a] += 1
            t[b] += 1
            order.append(tuple(t))
    return order


def qprime_canonical():
    """The lifted Gram and its supports re-indexed to the canonical basis.

    The embedded matrix keeps the source layout; this view permutes it to the
    descending-lex degree-2 basis so it can be used directly as a Gram for the
    lifted polynomial.  Returns ``(matrix, supports)``.
    """
    fx = example_m_fixtures()
    basis = monomial_basis(5, 2)
    paper_order = _colex_pair_order(5)
    perm = [basis.position(t) for t in paper_order]  # paper index -> canonical
    canon = scale_congruence(fx.Qprime, np.eye(len(perm), dtype=int)[perm])
    supports = [Support.of(sorted(perm[i] for i in K.indices))
                for K in fx.supports27]
    return canon, supports
