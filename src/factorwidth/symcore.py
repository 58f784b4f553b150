"""Dense symmetric matrices and the spectral/psd machinery shared by all modules.

A :class:`SymMatrix` is exact (``int``/``Fraction`` entries, exact arithmetic:
paper fixtures, certificates) or float (``float64``: the iterative solvers);
conversion between the two is explicit (``to_float``, ``to_exact``).  A
matrix stores only its ``(num, den)`` view, ``_nd``: a float one's own array
over 1.0; an exact one's ``int`` object array over one ``int``, made by
``_scaled`` (the package's one rational-to-integer map) at construction, or
given (a Gram of ``polyforms``).  ``entries`` is derived from the view on
first read, and no module but this one reads it; the view feeds
``as_array``, the range checks, ``frobenius_inner``, ``polyforms`` and
``_exact_psd`` (fraction-free elimination on ``num`` as given).  Both
cones read their principal blocks through one :class:`_BlockIndex` over an
``(m, k)`` int array of supports; a :class:`Support` is built where one leaves
the package, and one that comes in is read by ``_support``.  Both cones are
invariant under congruence by a permutation times a nonsingular diagonal,
applied through one ``_congruence`` (``scale_congruence``, the cosine rays);
``_unit_frame`` gives the frame the splitting core and the cosine search
solve in.  Every argument check of the package raises ``_InputError``, the
``ValueError`` the command line maps to exit 64 (numpy's ``LinAlgError`` is a
``ValueError`` too, and is not one); ``_require_float_range`` is the one check
that a matrix's float image stays finite through the solvers and the
certificate gate.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

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
# exact entries below this in absolute value have a finite float image, and so
# does the sum of any two of them
_FLOAT_SAFE = 2 ** 1022


class _InputError(ValueError):
    """Malformed input: what every argument check of the package raises.
    A ``ValueError``, but not numpy's ``LinAlgError``, which is one too."""


class SymMatrix:
    """Real symmetric ``n x n`` matrix stored as its ``(num, den)`` view.

    ``_nd`` is a ``float64`` array over 1.0 or, when ``is_exact``, an ``int``
    object array over one ``int`` (not necessarily the least).  ``entries``
    is a float matrix's own array, or its ``int``/``Fraction`` entries (an
    ``int`` exactly when integral), made on first read.  Every constructor
    checks symmetry and the entry types once; no array is written afterwards,
    so ``A[i, j] == A[j, i]`` holds for the instance's lifetime.
    """

    __slots__ = ("n", "is_exact", "_nd", "_entries")

    def __init__(self, n: int, upper: Sequence[Scalar]):
        n = _as_dim(n)
        upper = list(upper)
        if len(upper) != n * (n + 1) // 2:
            raise _InputError(
                f"upper triangle of a {n}x{n} matrix needs {n * (n + 1) // 2} "
                f"entries, got {len(upper)}")
        a = np.empty((n, n), dtype=object)
        iu = np.triu_indices(n)
        a[iu] = a.T[iu] = upper
        self._set(*_checked(a))

    def _set(self, num: np.ndarray, den) -> None:
        self.n, self._nd = len(_frozen(num)), (num, den)
        self.is_exact = num.dtype == object
        self._entries = None if self.is_exact else num

    @classmethod
    def _wrap(cls, num: np.ndarray, den) -> "SymMatrix":
        """An instance on the view ``(num, den)`` of a symmetric matrix already
        checked; ``num`` is made read-only, so only arrays nothing else writes
        may be passed."""
        m = cls.__new__(cls)
        m._set(num, den)
        return m

    @property
    def entries(self) -> np.ndarray:
        if self._entries is None:
            num, den = self._nd
            frac = {v: v // den if v % den == 0 else Fraction(v, den)
                    for v in set(num.flat)}
            self._entries = _frozen(np.frompyfunc(frac.__getitem__, 1, 1)(num))
        return self._entries

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Scalar]]) -> "SymMatrix":
        """Build from full rows; the strict upper triangle must mirror the lower."""
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise _InputError("rows must form a square matrix")
        a = np.array(rows, dtype=object).reshape(n, n)
        _check_symmetric(a != a.T)
        return cls._wrap(*_checked(a))

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "SymMatrix":
        """Build a float matrix from a numpy array, averaging the triangles:
        ``(a + a.T) / 2``, but ``a / 2 + a.T / 2`` for a finite mirrored pair
        whose sum overflows; an inf or nan entry is refused."""
        a = np.asarray(arr, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise _InputError("expected a square 2-D array")
        with np.errstate(over="ignore", invalid="ignore"):
            out = (a + a.T) / 2.0
        over = np.isinf(out) & np.isfinite(a) & np.isfinite(a.T)
        out[over] = a[over] / 2.0 + a.T[over] / 2.0
        return cls._wrap(*_checked(out))

    @classmethod
    def zeros(cls, n: int, exact: bool = True) -> "SymMatrix":
        return cls.diag([0 if exact else 0.0] * _as_dim(n))

    @classmethod
    def identity(cls, n: int, exact: bool = True) -> "SymMatrix":
        return cls.diag([1 if exact else 1.0] * _as_dim(n))

    @classmethod
    def diag(cls, values: Sequence[Scalar]) -> "SymMatrix":
        return cls._wrap(*_checked(np.diag(np.array(values, dtype=object))))

    def __getitem__(self, key) -> Scalar:
        i, j = key
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise IndexError(f"index ({i},{j}) out of range for n={self.n}")
        return self.entries.item(i, j)

    def rows(self) -> list[list[Scalar]]:
        return self.entries.tolist()

    def as_array(self) -> np.ndarray:
        """The float image of ``_nd``, a new array (``int / int`` rounds once,
        as float(Fraction) does)."""
        return (self._nd[0] / self._nd[1]).astype(float, copy=False)

    def to_float(self) -> "SymMatrix":
        return SymMatrix._wrap(self.as_array(), 1.0)

    def to_exact(self) -> "SymMatrix":
        """``self`` if exact (no array is written), else via ``_scaled``."""
        return self if self.is_exact else SymMatrix._wrap(*_scaled(self._nd[0]))

    def max_abs(self) -> float:
        return float(np.abs(self._nd[0]).max() / self._nd[1])

    def frob_norm(self) -> float:
        return _frob(self.as_array())

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymMatrix):
            return NotImplemented
        return self.n == other.n and bool(np.all(self.entries == other.entries))

    __hash__ = None  # unhashable: equality compares entries

    def __repr__(self) -> str:
        kind = "exact" if self.is_exact else "float"
        return f"SymMatrix(n={self.n}, {kind})"


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _frob(a: np.ndarray) -> float:
    """``np.linalg.norm`` of a finite float array, taken at the power-of-two
    scale of max|a| (exact) so that no square overflows or underflows; inf
    when the norm itself lies beyond the float range."""
    e = math.frexp(float(np.abs(a).max()))[1]
    b = np.ldexp(a, -e).ravel()
    s = math.sqrt(float(b @ b))
    return math.ldexp(s, e) if math.frexp(s)[1] + e <= 1024 else math.inf


def _check_symmetric(differs: np.ndarray) -> None:
    """Raise at the first strict-upper position where ``differs`` is set."""
    bad = np.argwhere(np.triu(differs, 1))
    if len(bad):
        i, j = bad[0]
        raise _InputError(f"asymmetric input at ({i},{j})")


def _checked(a: np.ndarray) -> tuple[np.ndarray, Union[int, float]]:
    """The ``(num, den)`` view ``SymMatrix`` stores of a square symmetric
    array of entries: the ``float64`` array over 1.0 when any entry is a
    float, else ``_scaled`` of the ``int``/``Fraction`` entries."""
    if a.shape[0] < 1:
        raise _InputError("dimension must be >= 1, got 0")
    if a.dtype == object:
        # each entry type once, in order of first appearance
        types = dict.fromkeys(map(type, a.ravel().tolist()))
        for t in types:
            if not issubclass(t, (int, Fraction, float)):
                raise TypeError(f"unsupported entry type {t.__name__}")
        if not any(issubclass(t, float) for t in types):
            return _scaled(a)
        if any(issubclass(t, Fraction) for t in types):
            raise TypeError(
                "mixed Fraction and float entries; convert explicitly first")
    a = a.astype(float)
    if not np.all(np.isfinite(a)):
        raise _InputError("entries must be finite")
    return a, 1.0


@dataclass(frozen=True)
class Support:
    """Strictly increasing nonnegative indices selecting a principal
    submatrix, read from any iterable of integers through ``_as_int``, else
    ``_InputError``; ``_support`` adds the width and range bounds."""

    indices: tuple[int, ...]

    def __post_init__(self):
        idx = (tuple(map(_as_int, self.indices))
               if hasattr(self.indices, "__iter__") else ())
        if not idx or idx[0] < 0 or any(a >= b for a, b in zip(idx, idx[1:])):
            raise _InputError(f"support {self.indices!r} is not a nonempty, "
                              "strictly increasing list of indices >= 0")
        object.__setattr__(self, "indices", idx)

    @classmethod
    def of(cls, indices: Iterable[int]) -> "Support":
        return cls(indices)

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)


def _as_int(v) -> int:
    """``v`` as an int; booleans and non-integral values raise
    ``_InputError``."""
    if isinstance(v, bool) or not (isinstance(v, (int, numbers.Integral)) or
                                   isinstance(v, float) and v.is_integer()):
        raise _InputError(f"{v!r} is not an integer")
    return int(v)


def _as_rational(v, what: str):
    """``v`` if a non-boolean int or finite float; any other rational as a
    ``Fraction`` of ``int``s (numpy integers, also inside one, would wrap)."""
    if isinstance(v, bool):
        raise _InputError(f"boolean is not a {what}")
    if not (isinstance(v, numbers.Rational) or
            isinstance(v, float) and math.isfinite(v)):
        raise _InputError(f"{what} must be a rational or a finite float, "
                          f"got {v!r}")
    return (v if isinstance(v, (int, float))
            else Fraction(int(v.numerator), int(v.denominator)))


def _as_tol(v, what: str):
    """``v`` if a non-boolean finite real >= 0, else _InputError."""
    if isinstance(v, bool) or not (isinstance(v, numbers.Real)
                                   and 0 <= v < math.inf):
        raise _InputError(f"{what} must be a finite real >= 0, got {v!r}")
    return v


def _as_dim(n) -> int:
    """``n`` as an int, ``_InputError`` unless it is at least 1."""
    n = _as_int(n)
    if n < 1:
        raise _InputError(f"dimension must be >= 1, got {n}")
    return n


def _as_width(n: int, k) -> int:
    """``k`` as an int, ``_InputError`` unless 1 <= k <= n: the check before
    ``_full_index``, whose cache takes ``True`` and ``2.0`` for 1 and 2."""
    k = _as_int(k)
    if not 1 <= k <= n:
        raise _InputError(f"need 1 <= k <= n, got k={k}, n={n}")
    return k


def _support(K, n: int, k: int) -> Support:
    """``K`` as a ``Support`` of at most ``k`` indices below ``n``: the one
    bounds check of every support the package takes."""
    K = K if isinstance(K, Support) else Support(K)
    if len(K) > k:
        raise _InputError(f"support {K.indices} exceeds width {k}")
    if K.indices[-1] >= n:
        raise _InputError(f"support {K.indices} out of range for n={n}")
    return K


def enumerate_supports(n: int, k: int) -> list[Support]:
    """All C(n, k) supports of size k, in lexicographic order."""
    n = _as_int(n)
    return list(map(Support, _full_index(n, _as_width(n, k)).rows.tolist()))


class _BlockIndex:
    """The principal blocks of an ``n x n`` matrix on same-size supports.

    Both cones read and write blocks only through this index: an FW_k member
    is ``accumulate`` of a stack of psd blocks, and a dual member has every
    block of ``gather`` psd.  Row ``s`` of the int array ``rows`` is support
    ``s``, trusted to be strictly increasing, and ``support(s)`` is its
    ``Support``; row ``s`` of ``flat`` holds the row-major flat positions of
    block ``s`` in the raveled matrix, so ``m.ravel()[flat[s]]`` is block
    ``s`` of ``m`` raveled.  An index is read-only once built, so one
    instance can be shared (see ``_full_index``).
    """

    def __init__(self, n: int, rows: np.ndarray):
        k = rows.shape[1]
        self.n, self.k, self.rows = n, k, rows
        self.flat = (rows[:, :, None] * n + rows[:, None]).reshape(-1, k * k)
        rows.flags.writeable = self.flat.flags.writeable = False

    def support(self, s: int) -> Support:
        return Support(tuple(self.rows[s].tolist()))

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
    """The shared index over all C(n, k) supports, built once per (n, k),
    for a width that passed ``_as_width``."""
    rows = np.fromiter(itertools.chain.from_iterable(
        itertools.combinations(range(n), k)), np.intp, math.comb(n, k) * k)
    return _BlockIndex(n, rows.reshape(-1, k))


def _sparsity_seed(nonzero: np.ndarray, k: int) -> Optional[_BlockIndex]:
    """The index of the supports on which the ``n x n`` pattern ``nonzero``
    has no false entry (its k-cliques), or None when that is every support
    or none, or leaves a true entry outside every support."""
    if nonzero.all():
        return None
    full = _full_index(len(nonzero), k)
    keep = nonzero.ravel()[full.flat].all(axis=1)
    covered = np.zeros(nonzero.size, dtype=bool)
    covered[full.flat[keep]] = True
    if keep.all() or not keep.any() or not covered[nonzero.ravel()].all():
        return None
    return _BlockIndex(full.n, full.rows[keep])


@dataclass(frozen=True)
class EigenResult:
    """Ascending eigenvalues with matched orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True)
class PsdReport:
    is_psd: bool
    min_eigenvalue: Optional[float]
    tolerance_used: float


# ---------------------------------------------------------------------------
# Frobenius inner product and submatrix algebra
# ---------------------------------------------------------------------------


def frobenius_inner(A: SymMatrix, B: SymMatrix):
    """``<A, B> = sum_ij A_ij B_ij``; exact (Fraction) when both are rational."""
    if A.n != B.n:
        raise _InputError(f"dimension mismatch: {A.n} vs {B.n}")
    if A.is_exact and B.is_exact:
        (a, p), (b, q) = A._nd, B._nd
        return Fraction(np.sum(a * b), p * q)
    return float(np.vdot(A.as_array(), B.as_array()))


def principal_submatrix(A: SymMatrix, K) -> SymMatrix:
    """Rows and columns of ``A`` restricted to the support ``K``."""
    K = _support(K, A.n, A.n).indices
    return SymMatrix._wrap(A._nd[0][np.ix_(K, K)], A._nd[1])


def embed(B: SymMatrix, K, n: int) -> SymMatrix:
    """Place ``B`` on the support ``K x K`` inside an ``n x n`` zero matrix."""
    n = _as_dim(n)
    K = _support(K, n, n).indices
    if len(K) != B.n:
        raise _InputError(f"support size {len(K)} does not match block size {B.n}")
    num, den = B._nd
    out = np.zeros((n, n), dtype=num.dtype)
    out[np.ix_(K, K)] = num
    return SymMatrix._wrap(out, den)


# ---------------------------------------------------------------------------
# Eigen decomposition and derived operations
# ---------------------------------------------------------------------------


def eigen_sym(A: SymMatrix) -> EigenResult:
    """Full symmetric eigendecomposition through LAPACK (``numpy.linalg.eigh``)."""
    lam, vec = np.linalg.eigh(A.as_array())
    return EigenResult(eigenvalues=lam, eigenvectors=vec)


def _in_range(num: np.ndarray, den, times: int = 1) -> bool:
    """Whether every |entry| of ``num`` lies below ``2**1022 * den // times``."""
    return bool(np.abs(num).max() < _FLOAT_SAFE * den // times)


def _require_float_range(A: SymMatrix, name: str) -> None:
    """``_InputError`` unless ``A``'s float image stays finite through the
    solvers' and the gate's arithmetic: ``_nd`` in range and ``||A||_F``
    finite; ``name`` is A's name in the message."""
    if not (_in_range(*A._nd, A.n) or (  # ||A||_F <= n max|A|
            _in_range(*A._nd) and math.isfinite(A.frob_norm()))):
        raise _InputError(
            f"every |entry| must be below 2**1022, ||{name}||_F finite")


def _floats_decide(entries: np.ndarray, tol: float, den: int = 1) -> bool:
    """Whether float tests can read ``entries / den``; ``tol`` is read by
    ``_as_tol``, and a positive one raises _InputError when they cannot."""
    floats = entries.dtype != object or _in_range(entries, den)
    if _as_tol(tol, "tol") > 0 and not floats:
        raise _InputError("an entry lies beyond the float range; "
                          "only the exact battery (tol=0) decides it")
    return floats


def _scaled(entries: np.ndarray) -> tuple[np.ndarray, int]:
    """``(num, den)``, ``num`` an ``int`` object array with ``entries ==
    num / den`` exactly, ``den`` the lcm of the denominators (floats too)."""
    ratios = [e.as_integer_ratio() for e in entries.ravel().tolist()]
    dens = {q for _, q in ratios}
    den = math.lcm(*dens)
    scale = {q: den // q for q in dens}  # one division per denominator
    num = np.array([p * scale[q] for p, q in ratios], dtype=object)
    return num.reshape(entries.shape), den


def _exact_psd(num: np.ndarray) -> Optional[int]:
    """Exact psd test of a square ``int`` array, a view's numerators (den > 0
    changes nothing): its rank (positive pivots) when psd, else None.

    Fraction-free (Bareiss) symmetric elimination on ``num`` as given,
    pivoting on the largest remaining diagonal entry (the first on ties).
    After pivots ``P`` entry ``(i, j)`` is the minor on rows ``P + i`` and
    columns ``P + j``: each division by the previous pivot is exact and each
    diagonal entry has its Schur complement's sign.  A negative one means not
    psd; once all are 0, every remaining entry must be 0 too (else a 2x2
    minor is negative).
    """
    m = num.tolist()
    alive, prev = list(range(len(m))), 1
    while alive:
        diag = [m[i][i] for i in alive]
        if min(diag) < 0:
            return None
        d = max(diag)
        if d == 0:
            break
        col = m[alive.pop(diag.index(d))]
        for i in alive:
            mi, ci = m[i], col[i]
            for j in alive:
                mi[j] = (d * mi[j] - ci * col[j]) // prev
        prev = d
    if any(m[i][j] for i in alive for j in alive):
        return None
    return len(m) - len(alive)


def _psd_battery(stack: np.ndarray, tol: float, den: int = 1):
    """``(psd, lam, finite)`` for the ``(m, k, k)`` stack ``stack / den``:
    whether every block is psd, each block's ascending spectrum, and whether
    the spectra are of the blocks themselves (else of the blocks over their
    largest entry, which lies beyond the float range).  A float stack goes to
    one ``eigvalsh`` as it is; an exact one is the ``int`` numerators of a
    ``(num, den)`` view, keyed by value, so each distinct block is converted
    and tested once.  On an exact stack at tol 0 the pivot tests decide, up
    to the first that fails, else ``lambda_min >= -tol * (1 + max|block|)``.
    """
    exact = stack.dtype == object
    blocks, inverse = stack, slice(None)
    if exact:
        slot = {}
        inverse = np.array([slot.setdefault(key, len(slot)) for key in
                            map(tuple, stack.reshape(len(stack), -1).tolist())])
        blocks = np.array(list(slot), object).reshape(-1, *stack.shape[1:])
    finite = _floats_decide(blocks, tol, den)
    # int / int rounds once, as float(Fraction) does
    approx = (blocks / (den if finite else np.abs(blocks).max())
              if exact else blocks).astype(float, copy=False)
    lam = np.linalg.eigvalsh(approx)
    scales = 1.0 + np.abs(approx).max(axis=(1, 2))
    psd = (all(_exact_psd(b) is not None for b in blocks)
           if exact and tol == 0 else bool(np.all(lam[:, 0] >= -tol * scales)))
    return psd, lam[inverse], finite


def is_psd(A: SymMatrix, tol: float = _PSD_TOL_DEFAULT) -> PsdReport:
    """Positive semidefiniteness test.

    Float path: ``lambda_min >= -tol * (1 + ||A||_max)``.  With exact rational
    entries and ``tol == 0`` the verdict comes from exact pivoted elimination
    (no floating error); ``min_eigenvalue`` is then a float approximation
    reported for information only, and ``None`` when an entry lies beyond the
    float range; the float path raises ValueError on such a matrix, as on a
    ``tol`` that is not a finite nonnegative real (a bool included).
    """
    a, den = A._nd
    floats = _floats_decide(a, tol, den)
    min_eig = float(eigen_sym(A).eigenvalues[0]) if floats else None
    if A.is_exact and tol == 0:
        return PsdReport(is_psd=_exact_psd(a) is not None,
                         min_eigenvalue=min_eig, tolerance_used=0.0)
    threshold = tol * (1.0 + A.max_abs())
    return PsdReport(is_psd=min_eig >= -threshold, min_eigenvalue=min_eig,
                     tolerance_used=threshold)


def project_psd(A: SymMatrix) -> SymMatrix:
    """Frobenius-nearest psd matrix: clip negative eigenvalues to zero."""
    return SymMatrix.from_array(_project_psd(A.as_array()))


# Stacks with more candidate blocks (an all-negative diagonal) than this are
# triaged before the eigensolve (see _project_psd for the break-even).
_TRIAGE_ABOVE_BLOCKS = 32


def _project_psd(a: np.ndarray) -> np.ndarray:
    """:func:`project_psd` on a float array: one matrix or a stack of them.

    The input must be symmetric; it is not re-symmetrized.  A ``SymMatrix``
    image is, and so are the splitting core's ``2Z - V`` and ``Z``, which it
    passes directly, a whole stack of support blocks per LAPACK call.  A
    stack with more than ``_TRIAGE_ABOVE_BLOCKS`` candidates (blocks whose
    diagonal is all negative; no other block is negative definite) is
    triaged first: those ``_negative_definite`` proves negative definite
    project to exactly 0 with no eigensolve (four in five of the core's
    blocks on ``Qprime`` at width 4 over all supports), and only the rest go
    through ``_clip_psd``.  A triaged block that LAPACK would have clipped
    to about 1e-17 instead of 0 is the only difference it makes.

    The triage costs a few numpy calls per column on the candidates; on a
    2-vCPU x86 host with one BLAS thread it paid for itself from about 24-48
    candidates of size 3-5 when half to all were negative definite.
    ``Qprime``'s 39-block seed stacks, with at most 11, are never triaged.
    """
    nd = np.all(np.diagonal(a, axis1=-2, axis2=-1) < 0.0, axis=-1)
    if a.ndim != 3 or np.count_nonzero(nd) <= _TRIAGE_ABOVE_BLOCKS:
        return _clip_psd(a)
    nd[nd] = _negative_definite(a[nd])
    out = np.zeros_like(a)
    out[~nd] = _clip_psd(a[~nd])
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


def _unit_frame(a: np.ndarray):
    """``a``'s unit-diagonal frame ``(d, U)``, U = a / outer(d, d) with d =
    sqrt(a_ii), 1 where a_ii <= 0; None where 1 / (d_i d_j) or U leaves the
    float range."""
    d = np.sqrt(np.where(np.diagonal(a) > 0, np.diagonal(a), 1.0))
    if d.min() ** 2 < np.finfo(float).tiny:
        return None
    with np.errstate(over="ignore"):
        U = a / np.outer(d, d)
    return (d, U) if np.all(np.isfinite(U)) else None


def scale_congruence(A: SymMatrix, Q) -> SymMatrix:
    """Return ``Q^T A Q`` for any monomial ``Q`` (exactly one nonzero in each
    row and each column): a permutation times a nonsingular diagonal.

    The result is exact when ``A`` is and no nonzero of ``Q`` is a float,
    a permutation's 1.0 (every nonzero equal to 1) excepted.
    """
    q = np.array(Q, dtype=object)
    if q.shape != (A.n, A.n):
        raise _InputError("congruence matrix must match the operand dimension")
    nonzero = q != 0
    if np.any(nonzero.sum(axis=0) != 1) or np.any(nonzero.sum(axis=1) != 1):
        raise _InputError("congruence matrix needs exactly one nonzero in each "
                          "row and each column")
    rows = nonzero.argmax(axis=0)
    d = q[rows, np.arange(A.n)]
    if all(x == 1 for x in d):  # a permutation (1.0 too) keeps an exact A exact
        d = np.ones(A.n, dtype=object)
    exact = A.is_exact and not any(isinstance(x, float) for x in d)
    d = d.astype(object if exact else float)
    return SymMatrix._wrap(*_checked(_congruence(A.entries.astype(d.dtype),
                                                 rows, d)))


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------


def _parse_entry(v) -> Scalar:
    if isinstance(v, str):
        num, sep, den = v.partition("/")
        try:
            return Fraction(int(num), int(den) if sep else 1)
        except (ValueError, ZeroDivisionError):
            raise _InputError(f"{v!r} is not an integer or p/q, q != 0"
                              ) from None
    return _as_rational(v, "matrix entry")


def _json_fields(obj, what: str, *keys, lists=()):
    """The values of ``keys`` in the JSON object ``obj``; ``_InputError``
    naming ``what`` unless it is a dict holding each, a list at ``lists``."""
    if not (isinstance(obj, dict) and set(keys) <= obj.keys()
            and all(isinstance(obj[key], list) for key in lists)):
        raise _InputError(f"{what} needs the keys {keys}, lists at {lists}")
    return [obj[key] for key in keys]


def _entry_to_json(e: Scalar):
    if isinstance(e, float):
        return e
    f = Fraction(e)
    return int(f) if f.denominator == 1 else str(f)


def load_matrix_json(obj) -> SymMatrix:
    """Parse ``{"n": ..., "rows": [[...]]}``; entries may be ``"p/q"`` strings.

    The matrix is exact iff every entry is an integer or a rational string.
    Asymmetry beyond ``1e-12`` relative is rejected; smaller float asymmetry is
    averaged away.
    """
    if isinstance(obj, str):
        obj = json.loads(obj)
    n, rows = _json_fields(obj, "matrix JSON", "n", "rows", lists=["rows"])
    n = _as_dim(n)
    if len(rows) != n or any(not isinstance(r, list) or len(r) != n
                             for r in rows):
        raise _InputError(f"rows must form an {n}x{n} matrix")
    parsed = [[_parse_entry(v) for v in r] for r in rows]
    has_float = any(isinstance(v, float) for r in parsed for v in r)
    if has_float:
        a = np.array(parsed, dtype=float)
        _check_symmetric(np.abs(a - a.T) > 1e-12 * (1.0 + np.abs(a).max()))
        return SymMatrix.from_array(a)
    return SymMatrix.from_rows(parsed)


def matrix_to_json(A: SymMatrix) -> dict:
    return {"n": A.n, "rows": [[_entry_to_json(e) for e in row] for row in A.rows()]}
