"""Dense symmetric matrices and the spectral/psd machinery shared by all modules.

Matrices live in one of two scalar worlds, chosen per instance:

* exact: entries are ``int`` / ``fractions.Fraction`` and all arithmetic on
  matched operands stays exact (used for paper fixtures and certificates);
* float: entries are ``float`` (used by the iterative solvers).

Conversion between the two worlds is always explicit (:meth:`SymMatrix.to_float`,
:meth:`SymMatrix.to_exact`); mixing a Fraction matrix into a float computation
never happens silently.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

import numpy as np

__all__ = [
    "SymMatrix",
    "Support",
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


def _tri_len(n: int) -> int:
    return n * (n + 1) // 2


class SymMatrix:
    """Real symmetric ``n x n`` matrix storing the upper triangle row-major.

    Symmetry is structural: only one triangle is stored, so ``A[i, j] == A[j, i]``
    holds by construction.  ``is_exact`` tells whether the instance lives in the
    rational world (all entries ``int``/``Fraction``) or the float world.
    """

    __slots__ = ("n", "data", "is_exact")

    def __init__(self, n: int, upper: Sequence[Scalar]):
        if n < 1:
            raise ValueError(f"dimension must be >= 1, got {n}")
        data = list(upper)
        if len(data) != _tri_len(n):
            raise ValueError(
                f"upper triangle of a {n}x{n} matrix needs {_tri_len(n)} entries, "
                f"got {len(data)}"
            )
        has_float = any(isinstance(e, float) for e in data)
        if has_float:
            if any(isinstance(e, Fraction) for e in data):
                raise TypeError(
                    "mixed Fraction and float entries; convert explicitly first"
                )
            data = [float(e) for e in data]
            if not all(math.isfinite(e) for e in data):
                raise ValueError("entries must be finite")
        else:
            for e in data:
                if not isinstance(e, (int, Fraction)):
                    raise TypeError(f"unsupported entry type {type(e).__name__}")
        self.n = n
        self.data = data
        self.is_exact = not has_float

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Scalar]]) -> "SymMatrix":
        """Build from full rows; the strict upper triangle must mirror the lower."""
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("rows must form a square matrix")
        for i in range(n):
            for j in range(i + 1, n):
                if rows[i][j] != rows[j][i]:
                    raise ValueError(f"asymmetric input at ({i},{j})")
        upper = [rows[i][j] for i in range(n) for j in range(i, n)]
        return cls(n, upper)

    @classmethod
    def from_array(cls, arr: np.ndarray, symmetrize: bool = True) -> "SymMatrix":
        """Build a float matrix from a numpy array, averaging the triangles."""
        a = np.asarray(arr, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("expected a square 2-D array")
        if symmetrize:
            a = (a + a.T) / 2.0
        n = a.shape[0]
        upper = [float(a[i, j]) for i in range(n) for j in range(i, n)]
        return cls(n, upper)

    @classmethod
    def zeros(cls, n: int, exact: bool = True) -> "SymMatrix":
        fill: Scalar = 0 if exact else 0.0
        return cls(n, [fill] * _tri_len(n))

    @classmethod
    def identity(cls, n: int, exact: bool = True) -> "SymMatrix":
        m = cls.zeros(n, exact=exact)
        one: Scalar = 1 if exact else 1.0
        for i in range(n):
            m.data[m._offset(i, i)] = one
        return m

    @classmethod
    def diag(cls, values: Sequence[Scalar]) -> "SymMatrix":
        n = len(values)
        has_float = any(isinstance(v, float) for v in values)
        m = cls.zeros(n, exact=not has_float)
        for i, v in enumerate(values):
            m.data[m._offset(i, i)] = float(v) if has_float else v
        return m

    # -- element access ----------------------------------------------------

    def _offset(self, i: int, j: int) -> int:
        if i > j:
            i, j = j, i
        return i * self.n - (i * (i - 1)) // 2 + (j - i)

    def __getitem__(self, key) -> Scalar:
        i, j = key
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise IndexError(f"index ({i},{j}) out of range for n={self.n}")
        return self.data[self._offset(i, j)]

    def rows(self) -> list[list[Scalar]]:
        return [[self[i, j] for j in range(self.n)] for i in range(self.n)]

    def as_array(self) -> np.ndarray:
        a = np.empty((self.n, self.n), dtype=float)
        for i in range(self.n):
            for j in range(i, self.n):
                a[i, j] = a[j, i] = float(self.data[self._offset(i, j)])
        return a

    # -- conversions -------------------------------------------------------

    def to_float(self) -> "SymMatrix":
        return SymMatrix(self.n, [float(e) for e in self.data])

    def to_exact(self) -> "SymMatrix":
        """Exact copy; floats convert via their exact binary value."""
        return SymMatrix(self.n, [e if isinstance(e, (int, Fraction)) else Fraction(e)
                                  for e in self.data])

    # -- small arithmetic helpers ------------------------------------------

    def add(self, other: "SymMatrix") -> "SymMatrix":
        self._check_same_world(other)
        return SymMatrix(self.n, [a + b for a, b in zip(self.data, other.data)])

    def sub(self, other: "SymMatrix") -> "SymMatrix":
        self._check_same_world(other)
        return SymMatrix(self.n, [a - b for a, b in zip(self.data, other.data)])

    def scale(self, c: Scalar) -> "SymMatrix":
        if isinstance(c, float) and self.is_exact:
            raise TypeError("scaling an exact matrix by a float; convert explicitly")
        return SymMatrix(self.n, [c * e for e in self.data])

    def _check_same_world(self, other: "SymMatrix") -> None:
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")
        if self.is_exact != other.is_exact:
            raise TypeError("mixing exact and float matrices; convert explicitly")

    # -- norms / predicates --------------------------------------------------

    def max_abs(self) -> float:
        return max(abs(float(e)) for e in self.data)

    def frob_norm(self) -> float:
        total = 0.0
        for i in range(self.n):
            for j in range(i, self.n):
                w = 1.0 if i == j else 2.0
                total += w * float(self.data[self._offset(i, j)]) ** 2
        return math.sqrt(total)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymMatrix):
            return NotImplemented
        return self.n == other.n and all(a == b for a, b in zip(self.data, other.data))

    __hash__ = None  # unhashable, mutable payload

    def __repr__(self) -> str:
        kind = "exact" if self.is_exact else "float"
        return f"SymMatrix(n={self.n}, {kind})"


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
        return cls(tuple(int(i) for i in indices))

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)


def _as_support(K) -> Support:
    return K if isinstance(K, Support) else Support.of(K)


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
        total = Fraction(0)
        n = A.n
        pos = 0
        for i in range(n):
            for j in range(i, n):
                w = 1 if i == j else 2
                total += w * Fraction(A.data[pos]) * Fraction(B.data[pos])
                pos += 1
        return total
    return float(np.vdot(A.as_array(), B.as_array()))


def principal_submatrix(A: SymMatrix, K) -> SymMatrix:
    """Rows and columns of ``A`` restricted to the support ``K``."""
    K = _as_support(K)
    if K.indices[-1] >= A.n:
        raise IndexError(f"support index {K.indices[-1]} out of range for n={A.n}")
    idx = K.indices
    upper = [A[idx[a], idx[b]] for a in range(len(idx)) for b in range(a, len(idx))]
    return SymMatrix(len(idx), upper)


def embed(B: SymMatrix, K, n: int) -> SymMatrix:
    """Place ``B`` on the support ``K x K`` inside an ``n x n`` zero matrix."""
    K = _as_support(K)
    if len(K) != B.n:
        raise ValueError(f"support size {len(K)} does not match block size {B.n}")
    if K.indices[-1] >= n:
        raise IndexError(f"support index {K.indices[-1]} out of range for n={n}")
    out = SymMatrix.zeros(n, exact=B.is_exact)
    idx = K.indices
    for a in range(len(idx)):
        for b in range(a, len(idx)):
            out.data[out._offset(idx[a], idx[b])] = B[a, b]
    return out


# ---------------------------------------------------------------------------
# Eigen decomposition and derived operations
# ---------------------------------------------------------------------------


def eigen_sym(A: SymMatrix) -> EigenResult:
    """Full symmetric eigendecomposition through LAPACK (``numpy.linalg.eigh``)."""
    lam, vec = np.linalg.eigh(A.as_array())
    return EigenResult(eigenvalues=lam, eigenvectors=vec)


def _exact_psd(A: SymMatrix) -> bool:
    """Exact psd decision for rational matrices by pivoted symmetric elimination.

    Declares not-psd on any negative pivot; zero pivots force a zero row/column
    (else a negative 2x2 minor exists) and are eliminated by dropping the index.
    """
    n = A.n
    work = [[Fraction(A[i, j]) for j in range(n)] for i in range(n)]
    alive = list(range(n))
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
        return PsdReport(is_psd=_exact_psd(A), min_eigenvalue=min_eig,
                         tolerance_used=0.0)
    threshold = tol * (1.0 + A.max_abs())
    return PsdReport(is_psd=min_eig >= -threshold, min_eigenvalue=min_eig,
                     tolerance_used=threshold)


def project_psd(A: SymMatrix) -> SymMatrix:
    """Frobenius-nearest psd matrix: clip negative eigenvalues to zero."""
    return SymMatrix.from_array(_project_psd(A.as_array()))


def _project_psd(a: np.ndarray) -> np.ndarray:
    """:func:`project_psd` on a float array: one matrix or a stack of them.

    The iterative solvers call this on their arrays directly, a whole stack of
    support blocks per LAPACK call.
    """
    lam, vec = np.linalg.eigh((a + np.swapaxes(a, -1, -2)) / 2.0)
    out = (vec * np.maximum(lam, 0.0)[..., None, :]) @ np.swapaxes(vec, -1, -2)
    return (out + np.swapaxes(out, -1, -2)) / 2.0


# ---------------------------------------------------------------------------
# Congruence scaling
# ---------------------------------------------------------------------------


def _classify_congruence(q_rows, n: int, allow_nonsingular_diagonal: bool):
    """Return ('perm', pi) or ('diag', d) after validating the matrix shape."""
    if len(q_rows) != n or any(len(r) != n for r in q_rows):
        raise ValueError("congruence matrix must match the operand dimension")
    off_zero = all(q_rows[i][j] == 0 for i in range(n) for j in range(n) if i != j)
    if off_zero:
        d = [q_rows[i][i] for i in range(n)]
        if allow_nonsingular_diagonal:
            if any(x == 0 for x in d):
                raise ValueError("diagonal congruence must be nonsingular")
        elif any(not x > 0 for x in d):
            raise ValueError("diagonal congruence must have positive diagonal")
        return "diag", d
    is_01 = all(q_rows[i][j] in (0, 1) for i in range(n) for j in range(n))
    if is_01:
        rows_ok = all(sum(q_rows[i]) == 1 for i in range(n))
        cols_ok = all(sum(q_rows[i][j] for i in range(n)) == 1 for j in range(n))
        if rows_ok and cols_ok:
            pi = [next(k for k in range(n) if q_rows[k][j] == 1) for j in range(n)]
            return "perm", pi
    raise ValueError("congruence matrix is neither a permutation nor a "
                     "positive diagonal matrix")


def scale_congruence(A: SymMatrix, Q, allow_nonsingular_diagonal: bool = False
                     ) -> SymMatrix:
    """Return ``Q^T A Q`` for ``Q`` a permutation or positive diagonal matrix.

    With ``allow_nonsingular_diagonal=True`` a diagonal with sign flips is
    accepted (matching how the extreme-ray normal form absorbs a sign).
    """
    if isinstance(Q, np.ndarray):
        q_rows = Q.tolist()
    else:
        q_rows = [list(r) for r in Q]
    kind, payload = _classify_congruence(q_rows, A.n, allow_nonsingular_diagonal)
    n = A.n
    if kind == "perm":
        pi = payload
        rows = [[A[pi[i], pi[j]] for j in range(n)] for i in range(n)]
        return SymMatrix.from_rows(rows)
    d = payload
    has_float = any(isinstance(x, float) for x in d) or not A.is_exact
    if has_float:
        d = [float(x) for x in d]
        rows = [[d[i] * d[j] * float(A[i, j]) for j in range(n)] for i in range(n)]
    else:
        rows = [[d[i] * d[j] * A[i, j] for j in range(n)] for i in range(n)]
    return SymMatrix.from_rows(rows)


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
    n = obj["n"]
    rows = obj["rows"]
    if not isinstance(n, int) or n < 1:
        raise ValueError("n must be a positive integer")
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError(f"rows must form an {n}x{n} matrix")
    parsed = [[_parse_entry(v) for v in r] for r in rows]
    has_float = any(isinstance(v, float) for r in parsed for v in r)
    if has_float:
        vals = [[float(v) for v in r] for r in parsed]
        scale = max(abs(v) for r in vals for v in r)
        limit = 1e-12 * (1.0 + scale)
        for i in range(n):
            for j in range(i + 1, n):
                if abs(vals[i][j] - vals[j][i]) > limit:
                    raise ValueError(f"asymmetric input at ({i},{j})")
                avg = (vals[i][j] + vals[j][i]) / 2.0
                vals[i][j] = vals[j][i] = avg
        return SymMatrix.from_rows(vals)
    for i in range(n):
        for j in range(i + 1, n):
            if parsed[i][j] != parsed[j][i]:
                raise ValueError(f"asymmetric input at ({i},{j})")
    return SymMatrix.from_rows(parsed)


def matrix_to_json(A: SymMatrix) -> dict:
    return {"n": A.n, "rows": [[_entry_to_json(e) for e in row] for row in A.rows()]}
