"""Membership in the dual cones (FW_k^n)* and separating certificates.

A symmetric matrix is in the dual cone exactly when every k x k principal
submatrix is psd, so membership is a finite battery of small psd tests.  The
battery and the extreme-ray ranks read those blocks through the one cached
``symcore._full_index(n, k)`` over all C(n, k) supports, the index the
``decompose`` splitting core uses when it runs on every support.
Separating certificates for non-members of FW_k come from two places:

* a parametrized family of extreme rays of (FW_3^4)* (cosine-patterned 4 x 4
  matrices), scanned over a grid and refined by coordinate descent;
* for arbitrary (n, k), the ``decompose`` splitting core, whose shifted gap
  direction is the only other source; ``dykstra_dual_certificate`` reads it
  from ``fw_membership``.

``verify_candidate`` is the one certificate gate: every ``DualCertificate``
is built there, after one dual membership battery and the scale-free strict
check <B, Q> < -1e-8 ||B||_F ||Q||_F.  No other path tests a candidate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .decompose import fw_membership
from .symcore import (
    SymMatrix,
    Support,
    frobenius_inner,
    _congruence,
    _exact_psd,
    _full_index,
)
from .polyforms import _odd_masks

__all__ = [
    "DualCertificate",
    "DualMembershipReport",
    "ExtremeRayReport",
    "CosExtremeRay",
    "dual_membership",
    "verify_candidate",
    "cos_ray",
    "cos_certificate_search",
    "dykstra_dual_certificate",
    "check_extreme_candidate",
    "bnr_certificate",
    "lift_quaternary_certificate",
    "certificate_to_json",
]


@dataclass
class DualCertificate:
    """Separating witness: B in (FW_k^n)* with <B, Q> < 0 for the target Q."""

    B: SymMatrix
    k: int
    value: float
    worst_minor_margin: float

    def __post_init__(self):
        bound = -1e-9 * (1.0 + self.B.max_abs())
        if self.worst_minor_margin < bound:
            raise ValueError(
                f"certificate has an infeasible minor (margin "
                f"{self.worst_minor_margin:.3e} < {bound:.3e})")

    def normalized_value(self, target: SymMatrix) -> float:
        denom = self.B.frob_norm() * target.frob_norm()
        return self.value / denom if denom > 0 else 0.0


@dataclass
class DualMembershipReport:
    is_member: bool
    k: int
    worst_support: Support
    worst_margin: float
    exact: bool


@dataclass(frozen=True)
class CosExtremeRay:
    """Parameters selecting one member of the (FW_3^4)* extreme-ray family."""

    a: float
    c: float
    permutation: tuple[int, int, int, int] = (0, 1, 2, 3)
    diag_scale: tuple[float, float, float, float] = (1.0, 1.0, 1.0, 1.0)

    def __post_init__(self):
        if sorted(self.permutation) != [0, 1, 2, 3]:
            raise ValueError("permutation must order 0, 1, 2, 3")
        if any(d == 0 for d in self.diag_scale):
            raise ValueError("diagonal scales must be nonzero")

    def matrix(self) -> SymMatrix:
        """``D P B(a, c) P^T D`` with ``P[permutation[i], i] = 1`` and
        ``D = diag(diag_scale)``."""
        return SymMatrix.from_array(_congruence(
            _cos_ray_array(self.a, self.c), np.argsort(self.permutation),
            np.array(self.diag_scale)))


@dataclass
class ExtremeRayReport:
    is_psd: bool
    is_extreme: bool
    reason: str
    psd_rank: Optional[int] = None
    in_dual: Optional[bool] = None
    submatrix_ranks: Optional[list] = None


# ---------------------------------------------------------------------------
# Dual membership battery
# ---------------------------------------------------------------------------


def dual_membership(B: SymMatrix, k: int, tol: float = 1e-9
                    ) -> DualMembershipReport:
    """Check all C(n, k) principal submatrices of B for psd-ness.

    With exact rational input and ``tol == 0`` each verdict comes from the
    exact pivot test; the reported margins are float approximations either way.
    """
    n = B.n
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol}")
    index = _full_index(n, k)
    stack = index.gather(B.as_array())
    margins = np.linalg.eigvalsh((stack + np.transpose(stack, (0, 2, 1)))
                                 / 2.0)[:, 0]
    scales = 1.0 + np.max(np.abs(stack), axis=(1, 2))
    worst = int(np.argmin(margins))
    exact = B.is_exact and tol == 0
    if exact:
        member = all(_exact_psd(block) for block in index.gather(B.entries))
    else:
        member = bool(np.all(margins >= -tol * scales))
    return DualMembershipReport(
        is_member=member, k=k, worst_support=index.supports[worst],
        worst_margin=float(margins[worst]), exact=exact)


# ---------------------------------------------------------------------------
# The cosine family of extreme rays of (FW_3^4)*
# ---------------------------------------------------------------------------


def cos_ray(a: float, c: float) -> SymMatrix:
    """The circulant-patterned 4x4 extreme-ray normal form with angles (a, c)."""
    return SymMatrix.from_array(_cos_ray_array(a, c))


def _cos_ray_array(a: float, c: float) -> np.ndarray:
    ca, cc, cac = math.cos(a), math.cos(c), math.cos(a - c)
    return np.array([
        [1.0, ca, cac, cc],
        [ca, 1.0, cc, cac],
        [cac, cc, 1.0, ca],
        [cc, cac, ca, 1.0],
    ])


_COS_GRID = 64  # angle cells per axis of the grid phase
_COS_REFINE_ITERS = 200  # coordinate-descent sweeps of the refinement


def cos_certificate_search(Q: SymMatrix) -> Optional[DualCertificate]:
    """Search the cosine family for a normalized separator of a 4x4 target.

    Grid phase: all angle cells, the 6 permutations with p[0] = 0 and the 8
    diagonal sign patterns with s[0] = +1, minimizing <D P B(a,c) P^T D, Q> /
    ||.||_F; ties break toward the smallest (a-index, c-index, permutation,
    sign) tuple.  The other 336 of the 24 x 16 cases repeat one of these
    48: B(a,c) is invariant under the Klein four-group, each of whose
    cosets holds one permutation with p[0] = 0, and D = s s^T under
    s -> -s.  Every case of a class scores the same, and the kept one has
    the smallest indices, so ties break as over all 384.  Refinement runs
    coordinate descent on the angles and multiplicative positive diagonal
    scales.  The refined matrix is returned only if it passes ``verify_candidate`` at
    k = 3, so the search is invariant under positive scaling of Q.
    """
    if Q.n != 4:
        raise ValueError("the cosine family lives on 4x4 targets")
    Qf = Q.as_array()
    step = 2.0 * math.pi / _COS_GRID
    grid = -math.pi + (np.arange(_COS_GRID) + 0.5) * step
    CA = np.cos(grid)[:, None] * np.ones((1, _COS_GRID))
    CC = np.ones((_COS_GRID, 1)) * np.cos(grid)[None, :]
    CAC = np.cos(grid[:, None] - grid[None, :])
    norm_b = np.sqrt(4.0 * (1.0 + CA ** 2 + CAC ** 2 + CC ** 2))

    perms = [p for p in itertools.permutations(range(4)) if p[0] == 0]
    signs = [s for s in itertools.product((1.0, -1.0), repeat=4) if s[0] > 0]
    t0 = float(np.trace(Qf))  # the trace of every case Y
    best = None
    for p_idx, perm in enumerate(perms):
        for s_idx, sg in enumerate(signs):
            Y = _congruence(Qf, perm, np.take(sg, perm))
            w1 = 2.0 * (Y[0, 1] + Y[2, 3])
            w2 = 2.0 * (Y[0, 2] + Y[1, 3])
            w3 = 2.0 * (Y[0, 3] + Y[1, 2])
            vals = (t0 + w1 * CA + w2 * CAC + w3 * CC) / norm_b
            flat = int(np.argmin(vals))
            ia, ic = divmod(flat, _COS_GRID)
            cand = (float(vals[ia, ic]), ia, ic, p_idx, s_idx)
            if best is None or cand < best:
                best = cand

    _, ia, ic, p_idx, s_idx = best
    a, c = float(grid[ia]), float(grid[ic])
    rows = np.argsort(perms[p_idx])
    sg = np.array(signs[s_idx])
    d = np.ones(4)

    def objective(aa, cc_, dd):
        mat = _congruence(_cos_ray_array(aa, cc_), rows, sg * dd)
        nrm = float(np.linalg.norm(mat))
        return float(np.vdot(mat, Qf)) / nrm, mat

    val, mat = objective(a, c, d)
    step_ang = step / 2.0
    step_mul = 1.25
    for _ in range(_COS_REFINE_ITERS):
        improved = False
        for delta in (step_ang, -step_ang):
            v2, _ = objective(a + delta, c, d)
            if v2 < val:
                a, val, improved = a + delta, v2, True
            v2, _ = objective(a, c + delta, d)
            if v2 < val:
                c, val, improved = c + delta, v2, True
        for i in range(4):
            for factor in (step_mul, 1.0 / step_mul):
                d2 = d.copy()
                d2[i] *= factor
                v2, _ = objective(a, c, d2)
                if v2 < val:
                    d, val, improved = d2, v2, True
        if not improved:
            step_ang *= 0.6
            step_mul = 1.0 + (step_mul - 1.0) * 0.6
            if step_ang < 1e-12:
                break

    _, mat = objective(a, c, d)
    return verify_candidate(mat, Q, 3)


# ---------------------------------------------------------------------------
# The certificate gate
# ---------------------------------------------------------------------------


def verify_candidate(candidate: np.ndarray, Q: SymMatrix, k: int
                     ) -> Optional[DualCertificate]:
    """The one certificate gate: normalize a candidate direction, verify it.

    The candidate becomes a certificate only if it passes one
    ``dual_membership`` battery at tolerance 1e-9 and pairs strictly
    negatively with Q, <B, Q> < -1e-8 ||B||_F ||Q||_F.  Both checks are
    scale-free.  Nothing is repaired: a candidate outside the dual cone is
    rejected.
    """
    qnorm = Q.frob_norm()
    norm = float(np.linalg.norm(candidate))
    if norm == 0.0 or qnorm == 0.0 or not np.all(np.isfinite(candidate)):
        return None
    B = SymMatrix.from_array(candidate / norm)
    report = dual_membership(B, k, 1e-9)
    if not report.is_member:
        return None
    value = float(frobenius_inner(B, Q))
    if value >= -1e-8 * B.frob_norm() * qnorm:
        return None
    return DualCertificate(B=B, k=k, value=value,
                           worst_minor_margin=report.worst_margin)


def dykstra_dual_certificate(Q: SymMatrix, k: int
                             ) -> Optional[DualCertificate]:
    """Separating certificate in (FW_k^n)* for an arbitrary target, or None.

    This is ``fw_membership(Q, k).certificate``: a certificate exactly when
    ``fw_membership`` returns "non_member"; the name is historical.  ``None``
    means no certificate was found; it is never a membership proof.
    """
    return fw_membership(Q, k).certificate


# ---------------------------------------------------------------------------
# Extreme-ray predicate (k = n-1)
# ---------------------------------------------------------------------------


def check_extreme_candidate(B: SymMatrix) -> ExtremeRayReport:
    """Decide whether B spans an extreme ray of (FW_{n-1}^n)*.

    psd candidates are extreme exactly when they have rank one; non-psd
    candidates are extreme exactly when they lie in the dual cone and every
    (n-1) x (n-1) principal submatrix has numerical rank n-2.
    """
    n = B.n
    if n < 2:
        raise ValueError("need n >= 2")
    Bf = B.as_array()
    lam = np.linalg.eigvalsh(Bf)
    scale = max(B.max_abs(), 1e-300)
    psd = bool(lam[0] >= -1e-9 * (1.0 + scale))
    if psd:
        rank = int(np.sum(np.abs(lam) > 1e-8 * scale))
        return ExtremeRayReport(
            is_psd=True, is_extreme=(rank == 1), psd_rank=rank,
            reason=f"psd with rank {rank}"
            + (": spans an extreme ray" if rank == 1 else ": decomposable"))
    report = dual_membership(B, n - 1, 1e-9)
    stack = _full_index(n, n - 1).gather(Bf)
    sub_scales = np.maximum(np.max(np.abs(stack), axis=(1, 2)), 1e-300)
    sub_lam = np.linalg.eigvalsh(stack)
    ranks = np.sum(np.abs(sub_lam) > 1e-8 * sub_scales[:, None],
                   axis=1).tolist()
    extreme = report.is_member and all(r == n - 2 for r in ranks)
    if not report.is_member:
        reason = "not in the dual cone"
    elif extreme:
        reason = f"non-psd, all {n-1}x{n-1} submatrices have rank {n-2}"
    else:
        reason = f"submatrix ranks {sorted(set(ranks))} differ from {n-2}"
    return ExtremeRayReport(
        is_psd=False, is_extreme=extreme, in_dual=report.is_member,
        submatrix_ranks=ranks, reason=reason)


# ---------------------------------------------------------------------------
# Structured certificates from the parity construction
# ---------------------------------------------------------------------------


def bnr_certificate(n: int, r: int, k: int) -> SymMatrix:
    """Parity certificate on the degree-(r+1) monomial index set.

    Entry (i, j) is k-1 when the exponent sum i+j is even in every position
    and -1 otherwise.  Every k x k principal submatrix is psd, so the matrix
    lies in the dual cone of the width-k Gram matrices.
    """
    if n < 1 or r < 0 or k < 2:
        raise ValueError("need n >= 1, r >= 0, k >= 2")
    even = _odd_masks(n, r + 1) == 0
    return SymMatrix.from_rows(np.where(even, k - 1, -1))


def lift_quaternary_certificate(B4: SymMatrix, r: int, omega=1) -> SymMatrix:
    """Lift a unit-diagonal 4x4 dual certificate to the degree-(r+1) index set.

    The lifted entry for index pair (i, j) depends only on the odd positions
    of i+j: the matching entry of B4 when exactly two positions (k != l) are
    odd, 1 when none are, omega when all four are, and 0 otherwise.
    """
    if B4.n != 4:
        raise ValueError("base certificate must be 4x4")
    if r < 0:
        raise ValueError("r must be nonnegative")
    for i in range(4):
        di = B4[i, i]
        ok = (di == 1) if B4.is_exact else abs(float(di) - 1.0) <= 1e-12
        if not ok:
            raise ValueError("base certificate must have unit diagonal")
    exact = B4.is_exact and not isinstance(omega, float)
    # the lifted entry of each odd-position bitmask over the 4 variables
    table = [0] * 16
    table[0], table[15] = 1, omega
    for i, j in itertools.combinations(range(4), 2):
        table[(1 << i) | (1 << j)] = B4[i, j]
    table = np.array(table, dtype=object if exact else float)
    return SymMatrix.from_rows(table[_odd_masks(4, r + 1)])


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------


def certificate_to_json(cert: DualCertificate) -> dict:
    from .symcore import matrix_to_json

    return {
        "n": cert.B.n,
        "k": cert.k,
        "B": matrix_to_json(cert.B),
        "value": float(cert.value),
        "worst_minor_margin": cert.worst_minor_margin,
    }
