"""Monomial bases, Gram/polynomial correspondence, and multiplier expansion.

Everything in this module is exact, so the parity-aggregate identities hold
with equality rather than within a tolerance.  It computes on ``int``
numerators over one denominator: a Gram's stored ``(num, den)`` view, and
coefficients and weights through ``symcore._scaled``; it builds its Grams
as views and makes one ``Fraction`` per coefficient it returns.  Built once
per (n, d): a basis, and ``_pair_classes``, the one map of a pair of basis
monomials (t_i, t_j) to t_i + t_j (``gram_to_poly`` sums each class of a
Gram, ``default_gram`` splits each coefficient over its class by a cached
plan, and the parity certificates of ``dualcone`` read ``_odd_masks``).
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .decompose import fw_membership
from .symcore import (SymMatrix, _InputError, _as_int, _as_rational,
                      _as_width, _entry_to_json, _frozen, _json_fields,
                      _parse_entry, _require_float_range, _scaled)

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


@dataclass(frozen=True)
class MonomialBasis:
    """Degree-d monomials in n variables, descending lex; a read-only index."""

    n: int
    d: int
    tuples: tuple[ExponentTuple, ...]
    index: Mapping = field(repr=False)

    def __len__(self) -> int:
        return len(self.tuples)

    def position(self, t: ExponentTuple) -> int:
        try:
            return self.index[t]
        except KeyError:
            raise KeyError(f"{t} is not a degree-{self.d} monomial in {self.n} vars")


def monomial_basis(n: int, d: int) -> MonomialBasis:
    """The degree-d monomials in n variables; checked, then cached."""
    n, d = _as_int(n), _as_int(d)
    if n < 1 or d < 0:
        raise _InputError("need n >= 1 and d >= 0")
    return _basis(n, d)


@functools.lru_cache(maxsize=128)
def _basis(n: int, d: int) -> MonomialBasis:
    tuples = ((d,),) if n == 1 else tuple(
        (first,) + rest for first in range(d, -1, -1)
        for rest in _basis(n - 1, d - first).tuples)
    return MonomialBasis(n=n, d=d, tuples=tuples, index=MappingProxyType(
        {t: i for i, t in enumerate(tuples)}))


@dataclass
class HomogeneousPoly:
    """Homogeneous polynomial as a sparse map exponent tuple -> Fraction.

    The one input check: n, degree and exponents are read by ``_as_int``,
    with n >= 1 and degree >= 0, and each coefficient by ``_as_rational``."""

    n: int
    degree: int
    coefficients: dict

    def __post_init__(self):
        self.n, self.degree = _as_int(self.n), _as_int(self.degree)
        if self.n < 1 or self.degree < 0:
            raise _InputError("need n >= 1 and degree >= 0")
        clean = {}
        for t, c in self.coefficients.items():
            t = tuple(_as_int(e) for e in t)
            if len(t) != self.n or any(e < 0 for e in t):
                raise _InputError(f"bad exponent tuple {t}")
            if sum(t) != self.degree:
                raise _InputError(f"{t} does not have degree {self.degree}")
            c = Fraction(_as_rational(c, f"coefficient of {t}"))
            if c != 0:
                clean[t] = c
        self.coefficients = clean

    @classmethod
    def _wrap(cls, n: int, degree: int, coefficients: dict) -> "HomogeneousPoly":
        """An instance on ``coefficients``, already a map of degree-``degree``
        basis tuples to nonzero ``Fraction``s, so nothing is re-checked."""
        p = cls.__new__(cls)
        p.n, p.degree, p.coefficients = n, degree, coefficients
        return p


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


@functools.lru_cache(maxsize=32)
def _pair_classes(n: int, d: int) -> tuple[MonomialBasis, np.ndarray]:
    """The monomial class of every pair of degree-d basis monomials.

    Returns ``monomial_basis(n, 2d)`` and a read-only ``m x m`` int array
    (``m`` the size of ``monomial_basis(n, d)``) whose ``(i, j)`` entry is the
    position of ``t_i + t_j`` in that basis.  Every Gram <-> polynomial
    correspondence reads its pairs from here.
    """
    basis, full = monomial_basis(n, d), monomial_basis(n, 2 * d)
    t = np.array(basis.tuples)
    sums = (t[:, None, :] + t[None, :, :]).reshape(-1, n)
    return full, _frozen(np.array([full.index[s] for s in map(
        tuple, sums.tolist())]).reshape(len(basis), len(basis)))


@functools.lru_cache(maxsize=32)
def _odd_masks(n: int, d: int) -> np.ndarray:
    """Read-only ``m x m`` array: bit ``p`` of entry ``(i, j)`` is set when
    position ``p`` of ``t_i + t_j`` is odd (``t`` the degree-d basis)."""
    full, cls = _pair_classes(n, d)
    return _frozen(np.array([sum((e % 2) << p for p, e in enumerate(t))
                             for t in full.tuples])[cls])


def gram_to_poly(Qp: SymMatrix, basis: MonomialBasis) -> HomogeneousPoly:
    """Expand ``z^T Qp z`` over the monomial vector of ``basis`` (exactly):
    each coefficient is the sum of the entries in its monomial class, taken
    on the numerators of ``Qp``'s view and divided once."""
    if Qp.n != len(basis):
        raise _InputError(
            f"Gram dimension {Qp.n} does not match basis size {len(basis)}")
    (num, den), (full, cls) = Qp.to_exact()._nd, _pair_classes(basis.n, basis.d)
    sums = np.zeros(len(full), dtype=object)
    np.add.at(sums, cls.ravel(), num.ravel())
    return HomogeneousPoly._wrap(basis.n, 2 * basis.d, {
        t: Fraction(s, den) for t, s in zip(full.tuples, sums.tolist()) if s})


def quadratic_gram(p: HomogeneousPoly) -> SymMatrix:
    """The unique Gram of a quadratic: Q_ii = c(x_i^2), Q_ij = c(x_i x_j)/2."""
    if p.degree != 2:
        raise _InputError(f"expected a quadratic, got degree {p.degree}")
    return default_gram(p, monomial_basis(p.n, 1))


@functools.lru_cache(maxsize=32)
def _gram_plan(n: int, d: int) -> tuple[tuple, np.ndarray, int, np.ndarray]:
    """``default_gram``'s tables: the class monomial of each (class, place)
    pair (place 1 off the diagonal), the view ``(scale, L)`` of the pairs'
    shares 1 / (u << place), and each Gram entry's pair."""
    full, cls = _pair_classes(n, d)
    # unordered pairs per class: (ordered pairs + diagonal pairs) / 2
    u = (np.bincount(cls.ravel(), minlength=len(full))
         + np.bincount(cls.diagonal(), minlength=len(full))) // 2
    pairs, inv = np.unique((2 * cls + 1 - np.eye(len(cls), dtype=int)).ravel(),
                           return_inverse=True)
    scale, L = _scaled(np.array([Fraction(1, v) for v in (
        u[pairs // 2] << pairs % 2).tolist()], dtype=object))
    return (tuple(full.tuples[c] for c in (pairs // 2).tolist()),
            _frozen(scale), L, _frozen(inv.reshape(cls.shape)))


def default_gram(p: HomogeneousPoly, basis: MonomialBasis) -> SymMatrix:
    """Canonical Gram choice: each coefficient p_alpha is split equally over
    the u_alpha unordered index pairs of its monomial class, so a diagonal
    entry is p_alpha/u_alpha and an off-diagonal one p_alpha/(2 u_alpha).
    Round-trips through :func:`gram_to_poly` exactly."""
    if p.degree != 2 * basis.d or p.n != basis.n:
        raise _InputError("basis does not match the polynomial degree")
    terms, scale, L, inv = _gram_plan(basis.n, basis.d)
    num, D = _scaled(np.array([p.coefficients.get(t, 0) for t in terms],
                              dtype=object))
    return SymMatrix._wrap((num * scale)[inv], D * L)


def multiplier_gram(q: QuadraticForm, lam: Sequence, r: int) -> SymMatrix:
    """Gram of ``(sum (lam_i x_i)^2)^r * q`` that preserves factor width.

    Each multinomial term ``C(r,a) lam^(2a) x^(2a)`` contributes a shifted copy
    of Q at the basis positions ``x^a x_i``; a width-k decomposition of Q thus
    lifts block-by-block, so this Gram is in FW_k whenever Q is.  It is built
    as its ``(num, den)`` view: with ``L`` the lcm of the lam denominators,
    the term ``x^(2 alpha)`` of ``(sum_i (lam_i x_i)^2)^r`` has the integer
    weight ``C(r; alpha) prod (L lam_i)^(2 alpha_i)`` over ``L^(2r)``.
    """
    n, r = q.n, _as_int(r)
    lam = np.array([Fraction(_as_rational(v, "weight in lam")) for v in lam],
                   dtype=object)
    if r < 0 or len(lam) != n or not any(lam):
        raise _InputError("need r >= 0 and lambda of length n, not all zero")
    num, L = _scaled(lam)
    sq = (num * num).tolist()
    Q, den = q.Q.to_exact()._nd
    coef, flat = _lift_terms(n, r)
    w = np.array([c * math.prod(s ** a for s, a in zip(sq, alpha)) for c, alpha
                  in zip(coef, monomial_basis(n, r).tuples)], dtype=object)
    m = math.comb(n + r, r + 1)  # the size of the degree-(r+1) basis
    out = np.zeros(m * m, dtype=object)
    np.add.at(out, flat, np.multiply.outer(w, Q.ravel()))
    return SymMatrix._wrap(out.reshape(m, m), den * L ** (2 * r))


# ---------------------------------------------------------------------------
# Multiplier expansion and parity aggregates
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=32)
def _lift_terms(n: int, r: int) -> tuple[list, np.ndarray]:
    """``C(r; alpha)`` for each term ``x^(2 alpha)`` of ``(sum_i x_i^2)^r``,
    and a read-only array whose row ``t`` holds the flat positions, in the
    degree-(r+1) Gram, of the copy of Q that term ``t`` places at x^alpha x_i."""
    basis, alphas = monomial_basis(n, r + 1), monomial_basis(n, r).tuples
    pos = np.array([[basis.index[t] for t in map(tuple, (np.eye(
        n, dtype=int) + alpha).tolist())] for alpha in alphas])
    flat = (pos[:, :, None] * len(basis) + pos[:, None]).reshape(len(pos), -1)
    return [math.factorial(r) // math.prod(map(math.factorial, a))
            for a in alphas], _frozen(flat)


def multiply_weighted_power(q: QuadraticForm, lam: Sequence, r: int
                            ) -> HomogeneousPoly:
    """Exact expansion of ``(sum_i (lam_i x_i)^2)^r * (x^T Q x)``.

    Every monomial of the result has zero or two odd-degree variables.
    """
    return gram_to_poly(multiplier_gram(q, lam, r), monomial_basis(q.n, r + 1))


def parity_aggregates(p: HomogeneousPoly):
    """Sum coefficients by odd-degree pattern.

    Returns ``(p0, pij)`` where ``p0`` aggregates the all-even monomials and
    ``pij[(i, j)]`` (i < j) aggregates the monomials odd exactly at i and j.
    Other parity patterns are ignored.
    """
    if p.degree % 2 != 0:
        raise _InputError("parity aggregates need an even-degree polynomial")
    # integer sums over one denominator D; the all-even pattern is key ()
    num, D = _scaled(np.array(list(p.coefficients.values()), dtype=object))
    sums: dict = {}
    for t, c in zip(p.coefficients, num.tolist()):
        odd = tuple(i for i, e in enumerate(t) if e % 2)
        if len(odd) in (0, 2):
            sums[odd] = sums.get(odd, 0) + c
    p0 = Fraction(sums.pop((), 0), D)
    return p0, {key: Fraction(s, D) for key, s in sums.items()}


# ---------------------------------------------------------------------------
# so-k-s test (delegates the conic decision to the factor-width solver)
# ---------------------------------------------------------------------------


def soks_test(p: HomogeneousPoly, k: int, gram: SymMatrix, opts=None):
    """Decide whether ``p`` is a sum of k-nomial squares under this Gram.

    The Gram must reproduce ``p`` exactly.  For quadratics the Gram is unique,
    so a non-member verdict is conclusive for the polynomial; for higher degree
    the verdict is conditional on the supplied Gram (flagged in diagnostics).
    The width and the Gram's float range are checked before the comparison,
    so a malformed input is an ``_InputError`` even when the Gram mismatches.
    """
    if p.degree % 2 != 0:
        raise _InputError("so-k-s requires an even-degree polynomial")
    k = _as_width(gram.n, k)
    _require_float_range(gram, "A")
    basis = monomial_basis(p.n, p.degree // 2)
    if gram.n != len(basis) or gram_to_poly(gram, basis) != p:
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
    n, degree, terms = _json_fields(obj, "polynomial JSON", "n", "degree",
                                    "terms", lists=["terms"])
    coeffs: dict = {}
    for term in terms:
        exp, coef = _json_fields(term, "a term", "exp", "coef", lists=["exp"])
        exp = tuple(exp)
        coeffs[exp] = coeffs.get(exp, 0) + Fraction(_parse_entry(coef))
    return HomogeneousPoly(n=n, degree=degree, coefficients=coeffs)
