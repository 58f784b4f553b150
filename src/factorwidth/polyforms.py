"""Monomial bases, Gram/polynomial correspondence, and multiplier expansion.

Everything in this module is exact: coefficients are ``fractions.Fraction``
throughout, so the parity-aggregate identities hold with equality rather than
within a tolerance.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .decompose import fw_membership
from .symcore import SymMatrix, _as_int, _entry_to_json, _parse_entry

__all__ = [
    "ExponentTuple",
    "MonomialBasis",
    "HomogeneousPoly",
    "QuadraticForm",
    "monomial_basis",
    "gram_to_poly",
    "quadratic_gram",
    "default_gram",
    "multiplier_gram",
    "multiply_weighted_power",
    "parity_aggregates",
    "soks_test",
    "load_poly_json",
    "poly_to_json",
    "GramMismatchError",
]

ExponentTuple = tuple[int, ...]


class GramMismatchError(ValueError):
    """The supplied Gram matrix does not reproduce the polynomial."""


def _degree_tuples(n: int, d: int) -> list[ExponentTuple]:
    """All exponent tuples of total degree d, in descending lexicographic order."""
    if n == 1:
        return [(d,)]
    out = []
    for first in range(d, -1, -1):
        for rest in _degree_tuples(n - 1, d - first):
            out.append((first,) + rest)
    return out


@dataclass(frozen=True)
class MonomialBasis:
    """Degree-d monomials in n variables, descending lex, with an index map."""

    n: int
    d: int
    tuples: tuple[ExponentTuple, ...]
    index: dict = field(repr=False)

    def __len__(self) -> int:
        return len(self.tuples)

    def position(self, t: ExponentTuple) -> int:
        try:
            return self.index[t]
        except KeyError:
            raise KeyError(f"{t} is not a degree-{self.d} monomial in {self.n} vars")


def monomial_basis(n: int, d: int) -> MonomialBasis:
    if n < 1 or d < 0:
        raise ValueError("need n >= 1 and d >= 0")
    tuples = tuple(_degree_tuples(n, d))
    assert len(tuples) == math.comb(n + d - 1, d)
    return MonomialBasis(n=n, d=d, tuples=tuples,
                         index={t: i for i, t in enumerate(tuples)})


@dataclass
class HomogeneousPoly:
    """Homogeneous polynomial as a sparse map exponent tuple -> Fraction."""

    n: int
    degree: int
    coefficients: dict

    def __post_init__(self):
        clean = {}
        for t, c in self.coefficients.items():
            t = tuple(int(e) for e in t)
            if len(t) != self.n or any(e < 0 for e in t):
                raise ValueError(f"bad exponent tuple {t}")
            if sum(t) != self.degree:
                raise ValueError(f"{t} does not have degree {self.degree}")
            c = Fraction(c)
            if c != 0:
                clean[t] = c
        self.coefficients = clean

    def __eq__(self, other):
        if not isinstance(other, HomogeneousPoly):
            return NotImplemented
        return (self.n == other.n and self.degree == other.degree
                and self.coefficients == other.coefficients)


@dataclass
class QuadraticForm:
    """Quadratic form x^T Q x with its unique symmetric Gram matrix."""

    Q: SymMatrix

    @property
    def n(self) -> int:
        return self.Q.n

    def to_poly(self) -> HomogeneousPoly:
        return gram_to_poly(self.Q, monomial_basis(self.n, 1))


# ---------------------------------------------------------------------------
# Gram matrix <-> polynomial
# ---------------------------------------------------------------------------


def _tuple_add(a: ExponentTuple, b: ExponentTuple) -> ExponentTuple:
    return tuple(x + y for x, y in zip(a, b))


def _tuple_sub(a: ExponentTuple, b: ExponentTuple):
    out = []
    for x, y in zip(a, b):
        if y > x:
            return None
        out.append(x - y)
    return tuple(out)


def gram_to_poly(Qp: SymMatrix, basis: MonomialBasis) -> HomogeneousPoly:
    """Expand ``z^T Qp z`` over the monomial vector of ``basis`` (exactly)."""
    if Qp.n != len(basis):
        raise ValueError(
            f"Gram dimension {Qp.n} does not match basis size {len(basis)}")
    coeffs: dict = {}
    n = len(basis)
    for i in range(n):
        ti = basis.tuples[i]
        for j in range(i, n):
            w = 1 if i == j else 2
            c = Fraction(Qp[i, j]) * w
            if c == 0:
                continue
            m = _tuple_add(ti, basis.tuples[j])
            coeffs[m] = coeffs.get(m, Fraction(0)) + c
    return HomogeneousPoly(n=basis.n, degree=2 * basis.d, coefficients=coeffs)


def quadratic_gram(p: HomogeneousPoly) -> SymMatrix:
    """The unique Gram of a quadratic: Q_ii = c(x_i^2), Q_ij = c(x_i x_j)/2."""
    if p.degree != 2:
        raise ValueError(f"expected a quadratic, got degree {p.degree}")
    n = p.n
    rows = [[Fraction(0)] * n for _ in range(n)]
    for t, c in p.coefficients.items():
        support = [i for i, e in enumerate(t) if e > 0]
        if len(support) == 1:
            i = support[0]
            rows[i][i] = c
        else:
            i, j = support
            rows[i][j] = rows[j][i] = c / 2
    return SymMatrix.from_rows(rows)


def default_gram(p: HomogeneousPoly, basis: MonomialBasis) -> SymMatrix:
    """Canonical Gram choice: each coefficient is split equally over the index
    pairs that can produce its monomial (off-diagonal pairs share their portion
    across the two symmetric entries).  Round-trips through
    :func:`gram_to_poly` exactly."""
    if p.degree != 2 * basis.d or p.n != basis.n:
        raise ValueError("basis does not match the polynomial degree")
    m = len(basis)
    rows = [[Fraction(0)] * m for _ in range(m)]
    for mono, c in p.coefficients.items():
        pairs = []
        for i in range(m):
            rest = _tuple_sub(mono, basis.tuples[i])
            if rest is None:
                continue
            j = basis.index.get(rest)
            if j is not None and j >= i:
                pairs.append((i, j))
        if not pairs:
            raise ValueError(f"monomial {mono} not representable over the basis")
        share = c / len(pairs)
        for i, j in pairs:
            if i == j:
                rows[i][i] += share
            else:
                rows[i][j] += share / 2
                rows[j][i] += share / 2
    return SymMatrix.from_rows(rows)


def multiplier_gram(q: QuadraticForm, lam: Sequence, r: int) -> SymMatrix:
    """Gram of ``(sum (lam_i x_i)^2)^r * q`` that preserves factor width.

    Each multinomial term ``C(r,a) lam^(2a) x^(2a)`` contributes a shifted copy
    of Q at the basis positions ``x^a x_i``; a width-k decomposition of Q thus
    lifts block-by-block, so this Gram is in FW_k whenever Q is.
    """
    n = q.n
    terms = _weighted_power_terms(n, lam, r)
    Q = q.Q if q.Q.is_exact else q.Q.to_exact()
    basis = monomial_basis(n, r + 1)
    m = len(basis)
    rows = [[Fraction(0)] * m for _ in range(m)]
    unit = [tuple(1 if t == i else 0 for t in range(n)) for i in range(n)]
    for alpha, w in terms:
        pos = [basis.position(_tuple_add(alpha, unit[i])) for i in range(n)]
        for i in range(n):
            for j in range(i, n):
                c = w * Fraction(Q[i, j])
                if c == 0:
                    continue
                a, b = pos[i], pos[j]
                if a == b:
                    rows[a][a] += c
                else:
                    rows[a][b] += c
                    rows[b][a] += c
    return SymMatrix.from_rows(rows)


# ---------------------------------------------------------------------------
# Multiplier expansion and parity aggregates
# ---------------------------------------------------------------------------


def _weighted_power_terms(n: int, lam: Sequence, r: int
                          ) -> list[tuple[ExponentTuple, Fraction]]:
    """Nonzero terms ``(alpha, w)`` of ``(sum_i (lam_i x_i)^2)^r``, which is
    ``sum_alpha w x^(2 alpha)`` over exponent tuples alpha of degree r."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    lam = [Fraction(v) for v in lam]
    if len(lam) != n or all(v == 0 for v in lam):
        raise ValueError("lambda must have length n and not be all zero")
    terms = []
    for alpha in _degree_tuples(n, r):
        w = Fraction(math.factorial(r),
                     math.prod(math.factorial(a) for a in alpha))
        for i in range(n):
            w *= lam[i] ** (2 * alpha[i])
        if w != 0:
            terms.append((alpha, w))
    return terms


def multiply_weighted_power(q: QuadraticForm, lam: Sequence, r: int
                            ) -> HomogeneousPoly:
    """Exact expansion of ``(sum_i (lam_i x_i)^2)^r * (x^T Q x)``.

    Every monomial of the result has zero or two odd-degree variables.
    """
    n = q.n
    terms = _weighted_power_terms(n, lam, r)
    Q = q.Q if q.Q.is_exact else q.Q.to_exact()
    coeffs: dict = {}

    def bump(t: ExponentTuple, c: Fraction):
        coeffs[t] = coeffs.get(t, Fraction(0)) + c

    for alpha, w in terms:
        base = tuple(2 * a for a in alpha)
        for i in range(n):
            qii = Fraction(Q[i, i])
            if qii != 0:
                t = list(base)
                t[i] += 2
                bump(tuple(t), w * qii)
            for j in range(i + 1, n):
                qij = Fraction(Q[i, j])
                if qij != 0:
                    t = list(base)
                    t[i] += 1
                    t[j] += 1
                    bump(tuple(t), 2 * w * qij)
    return HomogeneousPoly(n=n, degree=2 * r + 2, coefficients=coeffs)


def parity_aggregates(p: HomogeneousPoly):
    """Sum coefficients by odd-degree pattern.

    Returns ``(p0, pij)`` where ``p0`` aggregates the all-even monomials and
    ``pij[(i, j)]`` (i < j) aggregates the monomials odd exactly at i and j.
    Other parity patterns are ignored.
    """
    if p.degree % 2 != 0:
        raise ValueError("parity aggregates need an even-degree polynomial")
    p0 = Fraction(0)
    pij: dict = {}
    for t, c in p.coefficients.items():
        odd = [i for i, e in enumerate(t) if e % 2 == 1]
        if not odd:
            p0 += c
        elif len(odd) == 2:
            key = (odd[0], odd[1])
            pij[key] = pij.get(key, Fraction(0)) + c
    return p0, pij


# ---------------------------------------------------------------------------
# so-k-s test (delegates the conic decision to the factor-width solver)
# ---------------------------------------------------------------------------


def soks_test(p: HomogeneousPoly, k: int, gram: SymMatrix, opts=None):
    """Decide whether ``p`` is a sum of k-nomial squares under this Gram.

    The Gram must reproduce ``p`` exactly.  For quadratics the Gram is unique,
    so a non-member verdict is conclusive for the polynomial; for higher degree
    the verdict is conditional on the supplied Gram (flagged in diagnostics).
    """
    if p.degree % 2 != 0:
        raise ValueError("so-k-s requires an even-degree polynomial")
    basis = monomial_basis(p.n, p.degree // 2)
    exact_gram = gram if gram.is_exact else gram.to_exact()
    if exact_gram.n != len(basis) or gram_to_poly(exact_gram, basis) != p:
        raise GramMismatchError("Gram matrix does not reproduce the polynomial")
    verdict = fw_membership(gram, k, opts)
    verdict.diagnostics["gram_conditional"] = p.degree > 2
    return verdict


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------


def poly_to_json(p: HomogeneousPoly) -> dict:
    terms = [{"exp": list(t), "coef": _entry_to_json(c)}
             for t, c in sorted(p.coefficients.items(), reverse=True)]
    return {"n": p.n, "degree": p.degree, "terms": terms}


def load_poly_json(obj) -> HomogeneousPoly:
    if isinstance(obj, str):
        obj = json.loads(obj)
    if not isinstance(obj, dict) or not {"n", "degree", "terms"} <= obj.keys():
        raise ValueError('polynomial JSON must be {"n", "degree", "terms"}')
    n, degree = _as_int(obj["n"]), _as_int(obj["degree"])
    if n < 1 or degree < 0:
        raise ValueError("need n >= 1 and degree >= 0")
    coeffs: dict = {}
    for term in obj["terms"]:
        exp = tuple(_as_int(e) for e in term["exp"])
        c = Fraction(_parse_entry(term["coef"]))
        coeffs[exp] = coeffs.get(exp, Fraction(0)) + c
    return HomogeneousPoly(n=n, degree=degree, coefficients=coeffs)
