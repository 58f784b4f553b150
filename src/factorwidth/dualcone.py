"""Membership in the dual cones (FW_k^n)* and separating certificates.

A symmetric matrix is in the dual cone exactly when every k x k principal
submatrix is psd, so membership and the float extreme-ray test are each one
``symcore._psd_battery`` (one psd decision per distinct block) on the
blocks of the cached ``symcore._full_index(n, k)``; the exact extreme-ray
test reads psd-ness and ranks off the pivots of the view's numerators.  The
parity certificates, built from ``polyforms._odd_masks``, repeat a handful of
blocks (``bnr_certificate(4, 3, 4)`` has 52,360 blocks and 15 distinct ones).
Separating certificates for non-members of FW_k come from the cosine family
of extreme rays of (FW_3^4)* (``cos_certificate_search``) and, for any (n,
k), the shifted gap direction of the ``decompose`` splitting core
(``dykstra_dual_certificate`` reads it from ``fw_membership``).

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
    matrix_to_json,
    _as_int,
    _as_width,
    _checked,
    _congruence,
    _exact_psd,
    _fits_float,
    _frob,
    _full_index,
    _psd_battery,
    _unit_frame,
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
    worst_margin: Optional[float]
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

    One ``symcore._psd_battery`` on the gathered blocks of B (exact: ``_nd``):
    each distinct block is tested once, exactly when B is exact and ``tol``
    is 0.  Margins are float approximations; when an exact entry of a k x k
    block (at k = 1 the diagonal, else any entry of B) lies beyond the float
    range, ``worst_margin`` is ``None``, ``worst_support`` is located on the
    blocks scaled by their largest entry, and ``tol > 0`` raises.
    """
    k = _as_width(B.n, k)
    index = _full_index(B.n, k)
    a, den = B._nd
    member, lam, finite = _psd_battery(index.gather(a), tol, den)
    worst = int(np.argmin(lam[:, 0]))
    return DualMembershipReport(
        is_member=member, k=k, worst_support=index.support(worst),
        worst_margin=float(lam[worst, 0]) if finite else None,
        exact=B.is_exact and tol == 0)


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

    The search runs in Q's unit-diagonal frame U = D^-1 Q D^-1, D =
    diag(sqrt Q_ii) with 1 where Q_ii <= 0 (``symcore._unit_frame``, the
    frame the splitting core solves in): <D^-1 B D^-1, Q> = <B, U>, the
    dual cone is invariant under B -> D^-1 B D^-1, and the family's rays
    have unit diagonal, so only angles and signs are searched.  The cosine
    triples of B(a, c) fill the surface 1 - |x|^2 + 2 x0 x1 x2 = 0, which
    is invariant under permuting the triple and negating two of its
    entries, so every congruence S P B(a, c) P^T S by a signed permutation
    is B(a', c') or S0 B(a', c') S0, S0 = diag(1, 1, 1, -1): two cases,
    Y0 = U and Y1 = S0 U S0.  Grid phase: one ``_cos_objective`` over all
    angle cells and both cases, minimizing <B(a, c), Y> / ||B||_F; ties
    break toward the smallest (a-index, c-index, case).  Refinement runs
    coordinate descent on the two angles, on the same closed form.  The
    kept ray is mapped back by S D^-1 and returned only if it passes
    ``verify_candidate`` against Q at k = 3; None where U or that map
    leaves the float range.
    So the ray it finds is invariant under positive scaling of Q and, on a
    positive diagonal, under positive diagonal congruence; the gate's
    relative pairing only under scaling.  ValueError if an |entry| of Q
    reaches 2**1022 or ||Q||_F overflows.
    """
    if Q.n != 4:
        raise ValueError("the cosine family lives on 4x4 targets")
    if not _fits_float(Q):
        raise ValueError("every |entry| must be below 2**1022, ||Q||_F finite")
    Qf = Q.as_array()
    d = _unit_frame(Qf)
    if d is None:
        return None
    U = Qf / np.outer(d, d)
    signs = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, -1.0]])
    Ys = np.stack([_congruence(U, np.arange(4), s) for s in signs])
    step = 2.0 * math.pi / _COS_GRID
    grid = -math.pi + (np.arange(_COS_GRID) + 0.5) * step
    vals = _cos_objective(
        (np.cos(grid)[:, None, None],
         np.cos(grid[:, None] - grid[None, :])[:, :, None],
         np.cos(grid)[None, :, None]), Ys.transpose(1, 2, 0))  # (a, c, case)
    ia, ic, case = np.unravel_index(int(np.argmin(vals)), vals.shape)
    val = float(vals[ia, ic, case])
    a, c = float(grid[ia]), float(grid[ic])
    Y = Ys[case].tolist()
    step_ang = step / 2.0
    for _ in range(_COS_REFINE_ITERS):
        improved = False
        for delta in (step_ang, -step_ang):
            for da, dc in ((delta, 0.0), (0.0, delta)):
                a2, c2 = a + da, c + dc
                v2 = _cos_objective(
                    (math.cos(a2), math.cos(a2 - c2), math.cos(c2)), Y)
                if v2 < val:
                    a, c, val, improved = a2, c2, v2, True
        if not improved:
            step_ang *= 0.6
            if step_ang < 1e-12:
                break

    mat = _congruence(_cos_ray_array(a, c), np.arange(4), signs[case] / d)
    return verify_candidate(mat, Q, 3)


def _cos_objective(t, Y):
    """<B, Y> / ||B||_F for the unit-diagonal B(a, c) whose off-diagonal
    cosines t = (cos a, cos(a - c), cos c) sit at the pairs {0,1}|{2,3},
    {0,2}|{1,3}, {0,3}|{1,2}: (tr Y / 2 + sum_t x_t (Y_uv + Y_wz)) /
    sqrt(1 + sum_t x_t^2).  The cosines and Y's entries are scalars or
    arrays that broadcast; Y is read as Y[u][v]."""
    x0, x1, x2 = t
    return ((0.5 * (Y[0][0] + Y[1][1] + Y[2][2] + Y[3][3])
             + x0 * (Y[0][1] + Y[2][3]) + x1 * (Y[0][2] + Y[1][3])
             + x2 * (Y[0][3] + Y[1][2]))
            / (1.0 + x0 * x0 + x1 * x1 + x2 * x2) ** 0.5)


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
    norm = _frob(candidate) if np.all(np.isfinite(candidate)) else 0.0
    if norm == 0.0 or qnorm == 0.0:
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


def _block_ranks(stack: np.ndarray) -> tuple[bool, list]:
    """Whether every block of an ``(m, j, j)`` stack is psd, and each
    block's rank.  Exact blocks (``int`` numerators of a view) are decided
    and ranked by the pivots of ``symcore._exact_psd`` (None marks a block
    that is not psd); float ones by one psd battery at tol 1e-9, counting
    the eigenvalues above 1e-8 of the block's largest entry."""
    if stack.dtype == object:
        ranks = [_exact_psd(b) for b in stack]
        return None not in ranks, ranks
    psd, lam, _ = _psd_battery(stack, 1e-9)
    scales = np.maximum(np.abs(stack).max(axis=(1, 2)), 1e-300)
    return psd, np.sum(np.abs(lam) > 1e-8 * scales[:, None], axis=1).tolist()


def check_extreme_candidate(B: SymMatrix) -> ExtremeRayReport:
    """Decide whether B spans an extreme ray of (FW_{n-1}^n)*.

    psd candidates are extreme exactly when they have rank one; non-psd
    candidates are extreme exactly when they lie in the dual cone and every
    (n-1) x (n-1) principal submatrix has rank n-2.  An exact B is decided
    and ranked exactly; a float B numerically, and ValueError if an |entry|
    of it reaches 2**1022 or ||B||_F overflows.
    """
    n = B.n
    if n < 2:
        raise ValueError("need n >= 2")
    if not (B.is_exact or _fits_float(B)):
        raise ValueError("every |entry| must be below 2**1022, ||B||_F finite")
    a = B._nd[0]
    psd, (rank,) = _block_ranks(a[None])
    if psd:
        return ExtremeRayReport(
            is_psd=True, is_extreme=(rank == 1), psd_rank=rank,
            reason=f"psd with rank {rank}"
            + (": spans an extreme ray" if rank == 1 else ": decomposable"))
    in_dual, ranks = _block_ranks(_full_index(n, n - 1).gather(a))
    extreme = in_dual and all(r == n - 2 for r in ranks)
    if not in_dual:
        reason = "not in the dual cone"
    elif extreme:
        reason = f"non-psd, all {n-1}x{n-1} submatrices have rank {n-2}"
    else:
        reason = f"submatrix ranks {sorted(set(ranks))} differ from {n-2}"
    return ExtremeRayReport(
        is_psd=False, is_extreme=extreme, in_dual=in_dual,
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
    n, r, k = map(_as_int, (n, r, k))
    if n < 1 or r < 0 or k < 2:
        raise ValueError("need n >= 1, r >= 0, k >= 2")
    # symmetric by construction: a gather through _odd_masks
    a = np.where(_odd_masks(n, r + 1) == 0, k - 1, -1).astype(object)
    return SymMatrix._wrap(a, True, (a, 1))


def lift_quaternary_certificate(B4: SymMatrix, r: int, omega=1) -> SymMatrix:
    """Lift a unit-diagonal 4x4 dual certificate to the degree-(r+1) index set.

    The lifted entry for index pair (i, j) depends only on the odd positions
    of i+j: the matching entry of B4 when exactly two positions (k != l) are
    odd, 1 when none are, omega when all four are, and 0 otherwise.
    """
    if B4.n != 4:
        raise ValueError("base certificate must be 4x4")
    r, (num, den) = _as_int(r), B4._nd
    if r < 0:
        raise ValueError("r must be nonnegative")
    # exactly 1 on an exact diagonal, within 1e-12 on a float one
    if not all(abs(num.diagonal() - den) <= (0 if B4.is_exact else 1e-12)):
        raise ValueError("base certificate must have unit diagonal")
    exact = B4.is_exact and not isinstance(omega, float)
    # the lifted entry of each odd-position bitmask over the 4 variables
    table = [0] * 16
    table[0], table[15] = 1, omega
    for i, j in itertools.combinations(range(4), 2):
        table[(1 << i) | (1 << j)] = B4[i, j]
    # omega is the one entry not read off B4; the gather is symmetric
    table, exact = _checked(np.array(table, dtype=object if exact else float))
    return SymMatrix._wrap(table[_odd_masks(4, r + 1)], exact)


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------


def certificate_to_json(cert: DualCertificate) -> dict:
    return {
        "n": cert.B.n,
        "k": cert.k,
        "B": matrix_to_json(cert.B),
        "value": float(cert.value),
        "worst_minor_margin": cert.worst_minor_margin,
    }
