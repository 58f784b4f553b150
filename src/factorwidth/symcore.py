"""Dense symmetric matrices and the spectral/psd machinery shared by all modules.

A :class:`SymMatrix` holds one read-only dense ``n x n`` numpy array, whose
dtype picks one of two scalar worlds per instance:

* exact: dtype ``object`` with ``int`` / ``fractions.Fraction`` entries; all
  arithmetic on matched operands stays exact (used for paper fixtures and
  certificates);
* float: dtype ``float64`` (used by the iterative solvers).

Conversion between the two worlds is always explicit (:meth:`SymMatrix.to_float`,
:meth:`SymMatrix.to_exact`); mixing a Fraction matrix into a float computation
never happens silently.  Both cones read their principal blocks through one
:class:`_BlockIndex`, on the float array or, for the exact dual battery, on
the object array; ``principal_submatrix`` and ``embed`` remain for single
blocks.  Both cones are invariant under congruence by a permutation times a
nonsingular diagonal; ``scale_congruence`` (``Q^T A Q`` for any monomial
``Q``) and the cosine extreme-ray family apply it through one ``_congruence``.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

import numpy as np

__all__ = [
    "SymMatrix",
    "Support",
    "enumerate_supports",
    "EigenResult",
    "PsdReport",
    "frobenius_inner",
    "principal_submatrix",
    "embed",
    "eigen_sym",
    "is_psd",
    "project_psd",
    "scale_congruence",
    "load_matrix_json",
    "matrix_to_json",
]

Scalar = Union[int, Fraction, float]

_PSD_TOL_DEFAULT = 1e-9


class SymMatrix:
    """Real symmetric ``n x n`` matrix held as one read-only dense array.

    ``entries`` is the ``n x n`` numpy array: dtype ``object`` holding Python
    ``int``/``Fraction`` entries when ``is_exact``, else ``float64``.  Every
    constructor checks symmetry and the entry types once; the array is never
    written afterwards, so ``A[i, j] == A[j, i]`` holds for the instance's
    lifetime.
    """

    __slots__ = ("n", "entries", "is_exact")

    def __init__(self, n: int, upper: Sequence[Scalar]):
        if n < 1:
            raise ValueError(f"dimension must be >= 1, got {n}")
        upper = list(upper)
        if len(upper) != n * (n + 1) // 2:
            raise ValueError(
                f"upper triangle of a {n}x{n} matrix needs {n * (n + 1) // 2} "
                f"entries, got {len(upper)}")
        a = np.empty((n, n), dtype=object)
        iu = np.triu_indices(n)
        a[iu] = a.T[iu] = upper
        self._set(*_checked(a))

    def _set(self, a: np.ndarray, exact: bool) -> None:
        a.flags.writeable = False
        self.n, self.entries, self.is_exact = a.shape[0], a, exact

    @classmethod
    def _wrap(cls, a: np.ndarray, exact: bool) -> "SymMatrix":
        """An instance on ``a``, a symmetric array already checked; it is
        made read-only, so only arrays nothing else writes may be passed."""
        m = cls.__new__(cls)
        m._set(a, exact)
        return m

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Scalar]]) -> "SymMatrix":
        """Build from full rows; the strict upper triangle must mirror the lower."""
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("rows must form a square matrix")
        a = np.array(rows, dtype=object).reshape(n, n)
        _check_symmetric(a != a.T)
        return cls._wrap(*_checked(a))

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "SymMatrix":
        """Build a float matrix from a numpy array, averaging the triangles."""
        a = np.asarray(arr, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("expected a square 2-D array")
        return cls._wrap(*_checked(_average_triangles(a)))

    @classmethod
    def zeros(cls, n: int, exact: bool = True) -> "SymMatrix":
        return cls.diag([0 if exact else 0.0] * n)

    @classmethod
    def identity(cls, n: int, exact: bool = True) -> "SymMatrix":
        return cls.diag([1 if exact else 1.0] * n)

    @classmethod
    def diag(cls, values: Sequence[Scalar]) -> "SymMatrix":
        has_float = any(isinstance(v, float) for v in values)
        return cls._wrap(*_checked(
            np.diag(np.array(values, dtype=float if has_float else object))))

    # -- element access ----------------------------------------------------

    def __getitem__(self, key) -> Scalar:
        i, j = key
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise IndexError(f"index ({i},{j}) out of range for n={self.n}")
        return self.entries.item(i, j)

    def rows(self) -> list[list[Scalar]]:
        return self.entries.tolist()

    def as_array(self) -> np.ndarray:
        return self.entries.astype(float)

    # -- conversions -------------------------------------------------------

    def to_float(self) -> "SymMatrix":
        return SymMatrix._wrap(self.as_array(), False)

    def to_exact(self) -> "SymMatrix":
        """Exact copy; floats convert via their exact binary value."""
        entries = (self.entries if self.is_exact
                   else np.frompyfunc(Fraction, 1, 1)(self.entries))
        return SymMatrix._wrap(entries, True)

    # -- norms / predicates --------------------------------------------------

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.entries)))

    def frob_norm(self) -> float:
        return float(np.linalg.norm(self.as_array()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymMatrix):
            return NotImplemented
        return self.n == other.n and bool(np.all(self.entries == other.entries))

    __hash__ = None  # unhashable: equality compares entries

    def __repr__(self) -> str:
        kind = "exact" if self.is_exact else "float"
        return f"SymMatrix(n={self.n}, {kind})"


def _check_symmetric(differs: np.ndarray) -> None:
    """Raise at the first strict-upper position where ``differs`` is set."""
    bad = np.argwhere(np.triu(differs, 1))
    if len(bad):
        i, j = bad[0]
        raise ValueError(f"asymmetric input at ({i},{j})")


def _average_triangles(a: np.ndarray) -> np.ndarray:
    """A new float array: ``(a + a.T) / 2`` off the diagonal and the diagonal
    of ``a`` on it, since doubling an entry above half the float range would
    overflow.  A finite mirrored pair whose sum overflows is averaged as
    ``a / 2 + a.T / 2`` instead; every other entry is ``(a + a.T) / 2``, and
    an inf or nan input still leaves a non-finite entry for ``_checked``."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = (a + a.T) / 2.0
    over = np.isinf(out) & np.isfinite(a) & np.isfinite(a.T)
    out[over] = a[over] / 2.0 + a.T[over] / 2.0
    np.fill_diagonal(out, a.diagonal())
    return out


def _checked(a: np.ndarray) -> tuple[np.ndarray, bool]:
    """A square symmetric array of entries as ``SymMatrix`` stores it, with
    its exactness: ``float64`` when any entry is a float, else the object
    array of ``int``/``Fraction`` entries."""
    if a.shape[0] < 1:
        raise ValueError("dimension must be >= 1, got 0")
    if a.dtype == object:
        entries = a.ravel().tolist()
        if not any(isinstance(e, float) for e in entries):
            for e in entries:
                if not isinstance(e, (int, Fraction)):
                    raise TypeError(f"unsupported entry type {type(e).__name__}")
            return a, True
        if any(isinstance(e, Fraction) for e in entries):
            raise TypeError(
                "mixed Fraction and float entries; convert explicitly first")
    a = a.astype(float)
    if not np.all(np.isfinite(a)):
        raise ValueError("entries must be finite")
    return a, False


@dataclass(frozen=True)
class Support:
    """Strictly increasing index set selecting a principal submatrix."""

    indices: tuple[int, ...]

    def __post_init__(self):
        idx = self.indices
        if len(idx) == 0:
            raise ValueError("support must be nonempty")
        if any(i < 0 for i in idx):
            raise ValueError("support indices must be nonnegative")
        if any(idx[t] >= idx[t + 1] for t in range(len(idx) - 1)):
            raise ValueError("support indices must be strictly increasing")

    @classmethod
    def of(cls, indices: Iterable[int]) -> "Support":
        return cls(tuple(_as_int(i) for i in indices))

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)


def _as_int(v) -> int:
    """``v`` as an int; booleans and non-integral values raise ValueError."""
    if isinstance(v, bool) or not (isinstance(v, numbers.Integral) or
                                   isinstance(v, float) and v.is_integer()):
        raise ValueError(f"{v!r} is not an integer")
    return int(v)


def _as_support(K) -> Support:
    return K if isinstance(K, Support) else Support.of(K)


def enumerate_supports(n: int, k: int) -> list[Support]:
    """All C(n, k) supports of size k, in lexicographic order."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    return [Support(c) for c in itertools.combinations(range(n), k)]


class _BlockIndex:
    """The principal blocks of an ``n x n`` matrix on same-size supports.

    Both cones read and write blocks only through this index: an FW_k member
    is ``accumulate`` of a stack of psd blocks, and a dual member has every
    block of ``gather`` psd.  Row ``s`` of ``flat`` holds the row-major flat
    positions of block ``s`` in the raveled matrix, so ``m.ravel()[flat[s]]``
    is block ``s`` of ``m`` raveled.  An index is read-only once built, so
    one instance can be shared (see ``_full_index``).
    """

    def __init__(self, n: int, supports: Sequence[Support]):
        if not supports:
            raise ValueError("the support list is empty")
        k = len(supports[0])
        if any(len(K) != k for K in supports):
            raise ValueError("mixed support sizes are not supported")
        idx = np.array([K.indices for K in supports])
        self.n = n
        self.k = k
        self.supports = tuple(supports)
        self.flat = (idx[:, :, None] * n + idx[:, None, :]).reshape(-1, k * k)
        self.flat.flags.writeable = False

    def gather(self, mat: np.ndarray) -> np.ndarray:
        """The ``(m, k, k)`` stack of blocks of ``mat``."""
        return mat.ravel()[self.flat].reshape(-1, self.k, self.k)

    def accumulate(self, stack: np.ndarray) -> np.ndarray:
        """The ``n x n`` sum of the blocks of ``stack`` placed on their supports
        (the adjoint of ``gather``)."""
        acc = np.bincount(self.flat.ravel(), weights=stack.ravel(),
                          minlength=self.n * self.n)
        return acc.reshape(self.n, self.n)


@functools.lru_cache(maxsize=32)
def _full_index(n: int, k: int) -> _BlockIndex:
    """The shared index over all C(n, k) supports, built once per (n, k)."""
    return _BlockIndex(n, enumerate_supports(n, k))


@dataclass(frozen=True)
class EigenResult:
    """Ascending eigenvalues with matched orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True)
class PsdReport:
    is_psd: bool
    min_eigenvalue: float
    tolerance_used: float


# ---------------------------------------------------------------------------
# Frobenius inner product and submatrix algebra
# ---------------------------------------------------------------------------


def frobenius_inner(A: SymMatrix, B: SymMatrix):
    """``<A, B> = sum_ij A_ij B_ij``; exact (Fraction) when both are rational."""
    if A.n != B.n:
        raise ValueError(f"dimension mismatch: {A.n} vs {B.n}")
    if A.is_exact and B.is_exact:
        return Fraction(np.sum(A.entries * B.entries))
    return float(np.vdot(A.as_array(), B.as_array()))


def principal_submatrix(A: SymMatrix, K) -> SymMatrix:
    """Rows and columns of ``A`` restricted to the support ``K``."""
    K = _as_support(K)
    if K.indices[-1] >= A.n:
        raise IndexError(f"support index {K.indices[-1]} out of range for n={A.n}")
    return SymMatrix._wrap(A.entries[np.ix_(K.indices, K.indices)], A.is_exact)


def embed(B: SymMatrix, K, n: int) -> SymMatrix:
    """Place ``B`` on the support ``K x K`` inside an ``n x n`` zero matrix."""
    K = _as_support(K)
    if len(K) != B.n:
        raise ValueError(f"support size {len(K)} does not match block size {B.n}")
    if K.indices[-1] >= n:
        raise IndexError(f"support index {K.indices[-1]} out of range for n={n}")
    out = np.zeros((n, n), dtype=B.entries.dtype)
    out[np.ix_(K.indices, K.indices)] = B.entries
    return SymMatrix._wrap(out, B.is_exact)


# ---------------------------------------------------------------------------
# Eigen decomposition and derived operations
# ---------------------------------------------------------------------------


def eigen_sym(A: SymMatrix) -> EigenResult:
    """Full symmetric eigendecomposition through LAPACK (``numpy.linalg.eigh``)."""
    lam, vec = np.linalg.eigh(A.as_array())
    return EigenResult(eigenvalues=lam, eigenvectors=vec)


def _exact_psd(a: np.ndarray) -> bool:
    """Exact psd decision for a square array of rational entries by pivoted
    symmetric elimination.

    Declares not-psd on any negative pivot; zero pivots force a zero row/column
    (else a negative 2x2 minor exists) and are eliminated by dropping the index.
    """
    work = [[Fraction(e) for e in row] for row in a.tolist()]
    alive = list(range(len(work)))
    while alive:
        dmax = None
        pivot = -1
        for i in alive:
            d = work[i][i]
            if d < 0:
                return False
            if dmax is None or d > dmax:
                dmax, pivot = d, i
        if dmax == 0:
            for i in alive:
                for j in alive:
                    if i != j and work[i][j] != 0:
                        return False
            return True
        alive.remove(pivot)
        col = {i: work[i][pivot] for i in alive}
        for i in alive:
            ci = col[i]
            if ci == 0:
                continue
            wi = work[i]
            for j in alive:
                wi[j] -= ci * col[j] / dmax
    return True


def is_psd(A: SymMatrix, tol: float = _PSD_TOL_DEFAULT) -> PsdReport:
    """Positive semidefiniteness test.

    Float path: ``lambda_min >= -tol * (1 + ||A||_max)``.  With exact rational
    entries and ``tol == 0`` the verdict comes from exact pivoted elimination
    (no floating error); ``min_eigenvalue`` is then a float approximation
    reported for information only.
    """
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    min_eig = float(eigen_sym(A).eigenvalues[0])
    if A.is_exact and tol == 0:
        return PsdReport(is_psd=_exact_psd(A.entries), min_eigenvalue=min_eig,
                         tolerance_used=0.0)
    threshold = tol * (1.0 + A.max_abs())
    return PsdReport(is_psd=min_eig >= -threshold, min_eigenvalue=min_eig,
                     tolerance_used=threshold)


def project_psd(A: SymMatrix) -> SymMatrix:
    """Frobenius-nearest psd matrix: clip negative eigenvalues to zero."""
    return SymMatrix.from_array(_project_psd(A.as_array()))


# Stacks of more blocks than this are triaged before the eigensolve (see
# _project_psd for the measured break-even).
_TRIAGE_ABOVE_BLOCKS = 32


def _project_psd(a: np.ndarray) -> np.ndarray:
    """:func:`project_psd` on a float array: one matrix or a stack of them.

    The iterative solvers call this on their arrays directly, a whole stack of
    support blocks per LAPACK call.  A stack of more than
    ``_TRIAGE_ABOVE_BLOCKS`` blocks is triaged first: the blocks
    ``_negative_definite`` proves negative definite project to exactly 0 with
    no eigensolve (most of the splitting core's blocks on a full support
    enumeration, about four in five on ``Qprime`` at width 4), and only the
    rest go through ``_clip_psd``.  A triaged block that LAPACK would have
    clipped to about 1e-17 instead of 0 is the only difference it makes.

    Single matrices and smaller stacks go straight to ``_clip_psd``: the
    triage is a fixed cost of a few numpy calls per column, and on a 2-vCPU
    x86 host with one BLAS thread it paid for itself only from about 24-48
    blocks of size 3-4 when four in five were negative definite (16-64 over
    sizes 2-5 and shares 1/2-4/5), and never when none were.
    """
    s = (a + np.swapaxes(a, -1, -2)) / 2.0
    if s.ndim != 3 or len(s) <= _TRIAGE_ABOVE_BLOCKS:
        return _clip_psd(s)
    out = np.zeros_like(s)
    rest = np.flatnonzero(~_negative_definite(s))
    out[rest] = _clip_psd(s[rest])
    return out


def _clip_psd(s: np.ndarray) -> np.ndarray:
    """The psd projection of a symmetric array or stack: ``eigh``, clip the
    eigenvalues at 0, reconstruct, symmetrize."""
    lam, vec = np.linalg.eigh(s)
    out = (vec * np.maximum(lam, 0.0)[..., None, :]) @ np.swapaxes(vec, -1, -2)
    return (out + np.swapaxes(out, -1, -2)) / 2.0


def _negative_definite(s: np.ndarray) -> np.ndarray:
    """Mask of the blocks of the symmetric ``(m, k, k)`` stack ``s`` whose
    pivot-free LDL^T elimination has every pivot finite and negative, so
    that ``-s`` has a Cholesky factor and the block is negative definite.

    Like Cholesky, the elimination is backward stable: a block it passes is
    within a few roundings of its own norm of a negative definite one, so its
    projection is 0 to that accuracy.  A zero or NaN pivot fails, which
    leaves singular and non-finite blocks to the eigensolver.  The
    elimination loops over the k columns on a ``(k, k, m)`` copy, so every
    step works on contiguous rows of length m.
    """
    t = s.transpose(1, 2, 0).copy()
    nd = np.ones(len(s), dtype=bool)
    # a block that failed goes on dividing by its zero or non-finite pivot;
    # its mask entry is already False
    with np.errstate(all="ignore"):
        for j in range(s.shape[-1]):
            d = t[j, j]
            nd &= (d < 0.0) & (d > -np.inf)
            t[j + 1:, j + 1:] -= (t[j + 1:, j] / d)[:, None] * t[j, j + 1:]
    return nd


# ---------------------------------------------------------------------------
# Congruence scaling
# ---------------------------------------------------------------------------


def _congruence(a: np.ndarray, rows, d) -> np.ndarray:
    """``Q^T a Q`` for the monomial ``Q`` whose column ``j`` holds ``d[j]`` in
    row ``rows[j]``: entry ``(j, l)`` is ``d[j] * d[l] * a[rows[j], rows[l]]``."""
    return np.outer(d, d) * a[np.ix_(rows, rows)]


def scale_congruence(A: SymMatrix, Q) -> SymMatrix:
    """Return ``Q^T A Q`` for any monomial ``Q`` (exactly one nonzero in each
    row and each column): a permutation times a nonsingular diagonal.

    The result is exact when ``A`` is and no nonzero of ``Q`` is a float; a
    permutation (every nonzero equal to 1) keeps ``A``'s entries as they are.
    """
    q = np.array(Q, dtype=object)
    if q.shape != (A.n, A.n):
        raise ValueError("congruence matrix must match the operand dimension")
    nonzero = q != 0
    if np.any(nonzero.sum(axis=0) != 1) or np.any(nonzero.sum(axis=1) != 1):
        raise ValueError("congruence matrix needs exactly one nonzero in each "
                         "row and each column")
    rows = nonzero.argmax(axis=0)
    d = q[rows, np.arange(A.n)]
    if all(x == 1 for x in d):  # a permutation (1.0 too) keeps entry types
        d = np.ones(A.n, dtype=object)
    exact = A.is_exact and not any(isinstance(x, float) for x in d)
    d = d.astype(object if exact else float)
    return SymMatrix._wrap(*_checked(_congruence(A.entries.astype(d.dtype),
                                                 rows, d)))


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------


def _parse_entry(v) -> Scalar:
    if isinstance(v, bool):
        raise ValueError("boolean is not a matrix entry")
    if isinstance(v, int):
        return v
    if isinstance(v, float):
        if not math.isfinite(v):
            raise ValueError(f"entry {v!r} is not finite")
        return v
    if isinstance(v, str):
        num, sep, den = v.partition("/")
        den = int(den) if sep else 1
        if den == 0:
            raise ValueError(f"zero denominator in {v!r}")
        return Fraction(int(num), den)
    raise ValueError(f"cannot parse matrix entry {v!r}")


def _entry_to_json(e: Scalar):
    if isinstance(e, float):
        return e
    f = Fraction(e)
    if f.denominator == 1:
        return int(f)
    return f"{f.numerator}/{f.denominator}"


def load_matrix_json(obj) -> SymMatrix:
    """Parse ``{"n": ..., "rows": [[...]]}``; entries may be ``"p/q"`` strings.

    The matrix is exact iff every entry is an integer or a rational string.
    Asymmetry beyond ``1e-12`` relative is rejected; smaller float asymmetry is
    averaged away.
    """
    if isinstance(obj, str):
        obj = json.loads(obj)
    if not isinstance(obj, dict) or "n" not in obj or "rows" not in obj:
        raise ValueError('matrix JSON must be {"n": ..., "rows": [[...]]}')
    n = _as_int(obj["n"])
    rows = obj["rows"]
    if n < 1:
        raise ValueError("n must be a positive integer")
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError(f"rows must form an {n}x{n} matrix")
    parsed = [[_parse_entry(v) for v in r] for r in rows]
    has_float = any(isinstance(v, float) for r in parsed for v in r)
    if has_float:
        a = np.array(parsed, dtype=float)
        _check_symmetric(np.abs(a - a.T) > 1e-12 * (1.0 + np.max(np.abs(a))))
        return SymMatrix._wrap(*_checked(_average_triangles(a)))
    return SymMatrix.from_rows(parsed)


def matrix_to_json(A: SymMatrix) -> dict:
    return {"n": A.n, "rows": [[_entry_to_json(e) for e in row] for row in A.rows()]}
