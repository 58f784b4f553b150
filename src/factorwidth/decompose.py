"""Factor-width-k membership and explicit block decompositions.

The feasibility question "is A a sum of psd blocks supported on k-subsets?"
is solved by alternating-direction splitting: per-support blocks are projected
onto the psd cone, a closed-form affine correction restores consensus (the
residual is distributed by entry multiplicity, which makes that step an exact
projection), and scaled multipliers accumulate the disagreement.  A
least-squares polish on the numerically active faces finishes instances whose
solutions sit on the boundary of the psd cones, where plain splitting crawls.

Non-membership is never declared from a solver stall; it requires a verified
separating certificate from :mod:`factorwidth.dualcone`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .symcore import (
    SymMatrix,
    Support,
    eigen_sym,
    is_psd,
    _project_psd,
)

__all__ = [
    "SolverOptions",
    "BlockDecomposition",
    "MembershipVerdict",
    "DecompositionFailure",
    "enumerate_supports",
    "fw_decompose",
    "fw_membership",
    "extract_factors",
    "decomposition_to_json",
    "decomposition_from_json",
]

_BLOCK_PSD_TOL = 1e-8


class DecompositionFailure(RuntimeError):
    """Splitting gave up; carries the residual history for diagnosis.

    ``gap_candidate`` holds the ambient assembly of the block-space gap
    direction, which for infeasible instances approximates a separating
    certificate (up to sign); it is unverified and must be checked by the
    dual-cone machinery before any use.
    """

    def __init__(self, message: str, best_residual: float, iterations: int,
                 residual_history: list, gap_candidate=None):
        super().__init__(message)
        self.best_residual = best_residual
        self.iterations = iterations
        self.residual_history = residual_history
        self.gap_candidate = gap_candidate


@dataclass
class SolverOptions:
    rho: float = 1.0
    feas_tol: float = 1e-7
    max_iter: int = 20000
    support_list: Optional[Sequence] = None

    def __post_init__(self):
        if not self.rho > 0:
            raise ValueError("rho must be positive")
        if not self.feas_tol > 0:
            raise ValueError("feas_tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


def enumerate_supports(n: int, k: int) -> list[Support]:
    """All C(n, k) supports of size k, in lexicographic order."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    return [Support(c) for c in itertools.combinations(range(n), k)]


@dataclass
class BlockDecomposition:
    """Certified witness of FW_k membership: psd blocks summing to A.

    The residual is recomputed from the blocks at construction time, never
    trusted from a solver, and every block is re-checked psd.
    """

    ambient_n: int
    k: int
    blocks: list  # list[(Support, SymMatrix)]
    residual: float

    @classmethod
    def build(cls, A: SymMatrix, k: int, blocks) -> "BlockDecomposition":
        n = A.n
        all_exact = A.is_exact and all(b.is_exact for _, b in blocks)
        for K, block in blocks:
            if len(K) > k:
                raise ValueError(f"support {K.indices} exceeds width {k}")
            if K.indices[-1] >= n:
                raise ValueError(f"support {K.indices} out of range for n={n}")
            if block.n != len(K):
                raise ValueError("block size does not match its support")
            tol = 0 if block.is_exact else _BLOCK_PSD_TOL
            if not is_psd(block, tol).is_psd:
                raise ValueError(f"block on {K.indices} is not psd")
        if all_exact:
            acc = [[Fraction(0)] * n for _ in range(n)]
            for K, block in blocks:
                idx = K.indices
                for a in range(len(idx)):
                    for b in range(len(idx)):
                        acc[idx[a]][idx[b]] += Fraction(block[a, b])
            residual = max(
                abs(float(Fraction(A[i, j]) - acc[i][j]))
                for i in range(n) for j in range(n)
            )
        else:
            acc_f = np.zeros((n, n))
            for K, block in blocks:
                ix = np.ix_(K.indices, K.indices)
                acc_f[ix] += block.as_array()
            residual = float(np.max(np.abs(A.as_array() - acc_f)))
        return cls(ambient_n=n, k=k, blocks=list(blocks), residual=residual)


@dataclass
class MembershipVerdict:
    status: str  # "member" | "non_member" | "inconclusive"
    decomposition: Optional[BlockDecomposition] = None
    certificate: Optional[object] = None  # dualcone.DualCertificate
    diagnostics: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Splitting solver
# ---------------------------------------------------------------------------


def _normalize_supports(n: int, k: int, support_list) -> list[Support]:
    if support_list is None:
        return enumerate_supports(n, k)
    seen = set()
    out = []
    for K in support_list:
        K = K if isinstance(K, Support) else Support.of(K)
        if len(K) > k:
            raise ValueError(f"support {K.indices} larger than k={k}")
        if K.indices[-1] >= n:
            raise ValueError(f"support {K.indices} out of range for n={n}")
        if K.indices not in seen:
            seen.add(K.indices)
            out.append(K)
    out.sort(key=lambda s: s.indices)
    return out


def _coverage(n: int, supports: list[Support]) -> np.ndarray:
    mult = np.zeros((n, n))
    for K in supports:
        ix = np.ix_(K.indices, K.indices)
        mult[ix] += 1.0
    return mult


class _SupportIndex:
    """Flat scatter/gather indices for a stack of same-size support blocks."""

    def __init__(self, n: int, supports: list[Support]):
        self.n = n
        self.m = len(supports)
        self.k = len(supports[0])
        rows = []
        for K in supports:
            idx = np.asarray(K.indices)
            rows.append((idx[:, None] * n + idx[None, :]).ravel())
        self.flat = np.concatenate(rows)

    def accumulate(self, stack: np.ndarray) -> np.ndarray:
        acc = np.bincount(self.flat, weights=stack.ravel(),
                          minlength=self.n * self.n)
        return acc.reshape(self.n, self.n)

    def gather(self, mat: np.ndarray) -> np.ndarray:
        return mat.ravel()[self.flat].reshape(self.m, self.k, self.k)


def _assemble_gap(index: "_SupportIndex", inv_mult, X, Z):
    """Ambient image of the block-space gap X - Z (the would-be certificate)."""
    gap = index.accumulate(X - Z) * inv_mult
    norm = float(np.linalg.norm(gap))
    if norm == 0.0 or not np.all(np.isfinite(gap)):
        return None
    return gap / norm


def _polish(A: SymMatrix, k: int, supports, X: np.ndarray,
            target: float):
    """Least-squares finish on the active faces of the current blocks.

    Eigenvectors with non-negligible eigenvalues are frozen per block and the
    remaining low-dimensional coefficients are fit to the consensus constraint
    exactly.  Returns a verified BlockDecomposition or None.
    """
    n = A.n
    scale = 1.0 + A.max_abs()
    rank_cut = 1e-5 * scale
    bases = []
    for s in range(len(supports)):
        lam, vec = np.linalg.eigh((X[s] + X[s].T) / 2.0)
        keep = lam > rank_cut
        bases.append(vec[:, keep])
    cols = sum(v.shape[1] * (v.shape[1] + 1) // 2 for v in bases)
    if cols == 0:
        if A.max_abs() <= target:
            return BlockDecomposition.build(A, k, [])
        return None
    if cols > 4000:
        return None  # out of polish scope; let the splitting continue

    row_of = {}
    for i in range(n):
        for j in range(i, n):
            row_of[(i, j)] = len(row_of)
    design = np.zeros((len(row_of), cols))
    col = 0
    for s, K in enumerate(supports):
        V = bases[s]
        idx = K.indices
        r = V.shape[1]
        for al in range(r):
            for be in range(al, r):
                contrib = np.outer(V[:, al], V[:, be])
                if al != be:
                    contrib = contrib + contrib.T
                for a in range(len(idx)):
                    for b in range(a, len(idx)):
                        design[row_of[(idx[a], idx[b])], col] += contrib[a, b]
                col += 1
    rhs = np.zeros(len(row_of))
    for (i, j), r_idx in row_of.items():
        rhs[r_idx] = float(A[i, j])
    theta, *_ = np.linalg.lstsq(design, rhs, rcond=None)

    blocks = []
    pos = 0
    for s, K in enumerate(supports):
        V = bases[s]
        r = V.shape[1]
        if r == 0:
            continue
        S = np.zeros((r, r))
        for al in range(r):
            for be in range(al, r):
                S[al, be] = S[be, al] = theta[pos]
                pos += 1
        B = V @ S @ V.T
        B = (B + B.T) / 2.0
        lam, vec = np.linalg.eigh(B)
        if lam[0] < 0.0:
            # clip stray negatives; the residual re-check decides acceptance
            B = (vec * np.maximum(lam, 0.0)) @ vec.T
            B = (B + B.T) / 2.0
        if np.max(np.abs(B)) == 0.0:
            continue
        blocks.append((K, SymMatrix.from_array(B)))
    try:
        d = BlockDecomposition.build(A, k, blocks)
    except ValueError:
        return None
    if d.residual <= target:
        return d
    return None


def _fw_decompose_impl(A: SymMatrix, k: int, opts: SolverOptions):
    n = A.n
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    supports = _normalize_supports(n, k, opts.support_list)
    m = len(supports)
    kmax = max(len(K) for K in supports)
    if any(len(K) != kmax for K in supports):
        raise ValueError("mixed support sizes are not supported")

    Af = A.as_array()
    scale = 1.0 + A.max_abs()
    target = opts.feas_tol * scale

    index = _SupportIndex(n, supports)
    mult = _coverage(n, supports)
    uncovered = (mult == 0) & (np.abs(Af) > target)
    if np.any(uncovered):
        i, j = map(int, np.argwhere(uncovered)[0])
        raise DecompositionFailure(
            f"entry ({i},{j}) is outside every support but A[{i}][{j}] != 0",
            best_residual=float(np.max(np.abs(Af[mult == 0]))),
            iterations=0,
            residual_history=[],
            gap_candidate=None,
        )
    inv_mult = np.where(mult > 0, 1.0 / np.where(mult > 0, mult, 1.0), 0.0)

    # consensus initialisation: distribute A over the supports by multiplicity
    Z = index.gather(Af * inv_mult)
    U = np.zeros_like(Z)

    history: list[tuple[int, float]] = []
    best = math.inf
    last_improve = 0
    stall_window = 600
    polish_every = 400
    zcheck_every = 25
    resets_left = 2

    def _accept(stack, it, polished=False):
        blocks = [(supports[s], SymMatrix.from_array(stack[s]))
                  for s in range(m) if np.max(np.abs(stack[s])) > 0.0]
        d = BlockDecomposition.build(A, k, blocks)
        if d.residual <= target:
            return d, {"iterations": it, "residual": d.residual,
                       "history": history, "polished": polished}
        return None

    for it in range(1, opts.max_iter + 1):
        X = _project_psd(Z - U)
        acc = index.accumulate(X)
        res = float(np.max(np.abs(Af - acc)))
        if it % 100 == 0 or it == 1:
            history.append((it, res))
        if res <= target:
            # prefer the consensus-exact side when it is already feasible;
            # its clipped blocks give a much smaller recomputed residual
            Xz = _project_psd(Z)
            accz = index.accumulate(Xz)
            if float(np.max(np.abs(Af - accz))) <= res:
                found = _accept(Xz, it)
                if found:
                    return found
            found = _accept(X, it)
            if found:
                return found
        if it % zcheck_every == 0:
            # the Z iterate is consensus-exact by construction; once its
            # blocks are (numerically) psd, clipping them is a solution
            Xz = _project_psd(Z)
            accz = index.accumulate(Xz)
            if float(np.max(np.abs(Af - accz))) <= target:
                found = _accept(Xz, it)
                if found:
                    return found
        if res < best * (1.0 - 2e-3):
            best = res
            last_improve = it
        stalled = (it - last_improve) > stall_window
        if stalled or (it % polish_every == 0 and res < 0.2 * scale):
            d = _polish(A, k, supports, X, target)
            if d is not None:
                return d, {"iterations": it, "residual": d.residual,
                           "history": history, "polished": True}
            if stalled and resets_left > 0:
                # restart the multipliers: spiralling near a spurious
                # configuration is broken by dropping the dual bias
                U[:] = 0.0
                resets_left -= 1
                last_improve = it
            elif stalled:
                history.append((it, res))
                raise DecompositionFailure(
                    f"residual plateau at {best:.3e} after {it} iterations "
                    f"(target {target:.3e})",
                    best_residual=best, iterations=it, residual_history=history,
                    gap_candidate=_assemble_gap(index, inv_mult, X, Z))
        W = X + U
        corr = (Af - index.accumulate(W)) * inv_mult
        Z = W + index.gather(corr)
        U += opts.rho * (X - Z)

    X = _project_psd(Z - U)
    d = _polish(A, k, supports, X, target)
    if d is not None:
        return d, {"iterations": opts.max_iter, "residual": d.residual,
                   "history": history, "polished": True}
    acc = index.accumulate(X)
    res = float(np.max(np.abs(Af - acc)))
    history.append((opts.max_iter, res))
    raise DecompositionFailure(
        f"no decomposition within {opts.max_iter} iterations "
        f"(best residual {best:.3e}, target {target:.3e})",
        best_residual=min(best, res), iterations=opts.max_iter,
        residual_history=history,
        gap_candidate=_assemble_gap(index, inv_mult, X, Z))


def fw_decompose(A: SymMatrix, k: int, opts: Optional[SolverOptions] = None
                 ) -> BlockDecomposition:
    """Find psd blocks on k-supports summing to A, or raise
    :class:`DecompositionFailure` with the residual history."""
    d, _ = _fw_decompose_impl(A, k, opts or SolverOptions())
    return d


def fw_membership(A: SymMatrix, k: int, opts: Optional[SolverOptions] = None
                  ) -> MembershipVerdict:
    """Three-way membership decision for FW_k.

    Member verdicts carry a re-verified decomposition; non-member verdicts
    carry an independently re-verified separating certificate.  A solver stall
    without a certificate yields "inconclusive", never "non_member".
    """
    from . import dualcone
    from .symcore import frobenius_inner

    opts = opts or SolverOptions()
    try:
        d, stats = _fw_decompose_impl(A, k, opts)
        return MembershipVerdict(
            status="member", decomposition=d,
            diagnostics={"iterations": stats["iterations"],
                         "primal_residual": d.residual})
    except DecompositionFailure as fail:
        cert = None
        if fail.gap_candidate is not None:
            for sign in (1.0, -1.0):
                cert = dualcone.verify_candidate(sign * fail.gap_candidate, A, k)
                if cert is not None:
                    break
        if cert is None:
            cert = dualcone.dykstra_dual_certificate(A, k)
        if cert is not None:
            report = dualcone.dual_membership(cert.B, k, 1e-9)
            value = float(frobenius_inner(cert.B, A))
            norms = cert.B.frob_norm() * A.frob_norm()
            if report.is_member and value < -1e-8 * norms:
                return MembershipVerdict(
                    status="non_member", certificate=cert,
                    diagnostics={"iterations": fail.iterations,
                                 "primal_residual": fail.best_residual,
                                 "certificate_value": value})
        return MembershipVerdict(
            status="inconclusive",
            diagnostics={"iterations": fail.iterations,
                         "primal_residual": fail.best_residual,
                         "certificate_found": False})


def extract_factors(d: BlockDecomposition) -> np.ndarray:
    """Rectangular V with A ~= V V^T and at most k nonzeros per column."""
    cols = []
    for K, block in d.blocks:
        res = eigen_sym(block if not block.is_exact else block.to_float())
        lam_max = float(np.max(np.abs(res.eigenvalues))) if block.n else 0.0
        cut = 1e-10 * (1.0 + lam_max)
        for i, lam in enumerate(res.eigenvalues):
            if lam > cut:
                col = np.zeros(d.ambient_n)
                col[list(K.indices)] = math.sqrt(lam) * res.eigenvectors[:, i]
                cols.append(col)
    if not cols:
        return np.zeros((d.ambient_n, 0))
    return np.column_stack(cols)


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------


def decomposition_to_json(d: BlockDecomposition) -> dict:
    from .symcore import matrix_to_json

    return {
        "n": d.ambient_n,
        "k": d.k,
        "blocks": [
            {"support": list(K.indices), "rows": matrix_to_json(b)["rows"]}
            for K, b in d.blocks
        ],
        "residual": d.residual,
    }


def decomposition_from_json(obj, A: SymMatrix) -> BlockDecomposition:
    """Rebuild (and re-verify against A) a decomposition from its JSON form."""
    from .symcore import load_matrix_json

    blocks = []
    for entry in obj["blocks"]:
        K = Support.of(entry["support"])
        rows = entry["rows"]
        b = load_matrix_json({"n": len(rows), "rows": rows})
        blocks.append((K, b))
    return BlockDecomposition.build(A, obj["k"], blocks)
