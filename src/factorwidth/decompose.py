"""Factor-width-k membership and explicit block decompositions.

The feasibility question "is A a sum of psd blocks supported on k-subsets?"
is solved by alternating-direction splitting: per-support blocks are projected
onto the psd cone, a closed-form affine correction restores consensus (the
residual is distributed by entry multiplicity, which makes that step an exact
projection), and scaled multipliers accumulate the disagreement.  A member is
proved by the consensus-exact Z iterate with its blocks clipped to the psd
cone, or by the X iterate, re-verified as they stand.  Every block read and
write (consensus and coverage counts) goes through one
``symcore._BlockIndex``; only ``BlockDecomposition.build`` re-accumulates the
blocks on its own, as the independent re-verification.

Infeasibility is detected in the loop, after Banjac, Goulart, Stellato and
Boyd (JOTA 2019): on a non-member the gap X - Z (the multiplier increment)
converges to a separating direction.  Every z-check shifts it by the multiple
of the identity that puts it in the dual cone and, when the shifted direction
pairs negatively with A, hands it to the certificate gate; a pass stops the
run with the certificate.

The exits that end a run (plateau, iteration budget, an entry outside every
support) try their final gap direction through the same shift.  Non-membership
is never declared from a solver stall; it requires a certificate that passed
the gate of :mod:`factorwidth.dualcone`.  Every run returns a
:class:`MembershipVerdict`, and every verdict but a member names the exit that
ended its run in ``diagnostics["stop"]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .symcore import (
    SymMatrix,
    Support,
    eigen_sym,
    enumerate_supports,
    is_psd,
    _BlockIndex,
    _full_index,
    _project_psd,
)

__all__ = [
    "SolverOptions",
    "BlockDecomposition",
    "MembershipVerdict",
    "enumerate_supports",
    "fw_membership",
    "extract_factors",
    "decomposition_to_json",
    "decomposition_from_json",
]

_BLOCK_PSD_TOL = 1e-8


@dataclass
class SolverOptions:
    """Splitting options.  A member must reproduce A within
    ``feas_tol * (1 + max|A|)``; ``max_iter`` bounds the iterations and
    ``support_list`` restricts the blocks to those supports."""

    feas_tol: float = 1e-7
    max_iter: int = 20000
    support_list: Optional[Sequence] = None

    def __post_init__(self):
        if not (math.isfinite(self.feas_tol) and self.feas_tol > 0):
            raise ValueError("feas_tol must be positive and finite")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


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
        exact = A.is_exact and all(b.is_exact for _, b in blocks)
        dtype = object if exact else float
        acc = np.zeros((n, n), dtype=dtype)
        for K, block in blocks:
            acc[np.ix_(K.indices, K.indices)] += block.entries.astype(dtype)
        residual = float(np.max(np.abs(A.entries.astype(dtype) - acc)))
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


def _assemble_gap(index: _BlockIndex, inv_mult, X, Z):
    """Ambient image of the block-space gap X - Z (the would-be certificate)."""
    gap = index.accumulate(X - Z) * inv_mult
    norm = float(np.linalg.norm(gap))
    if norm == 0.0 or not np.all(np.isfinite(gap)):
        return None
    return gap / norm


def _gap_certificate(A: SymMatrix, Af: np.ndarray, k: int,
                     index: _BlockIndex, restricted: bool, gap):
    """A verified certificate from the gap direction, shifted, or None.

    Adding eps*I raises every principal block by eps.  So with eps the most
    negative block eigenvalue of +gap (or of -gap), +gap + eps*I (or
    -gap + eps*I) lies exactly in the dual of the run's cone and pairs with
    A as <+-gap, A> + eps tr A.  A member of that cone pairs nonnegatively
    with it, so only a strictly negative pairing goes on; a restricted run
    then recomputes eps over all C(n, k) supports, and the candidate goes
    to the one certificate gate as it is.  ``Af`` is A as an array.
    """
    from . import dualcone

    if gap is None:
        return None
    inner, trace = float(np.vdot(gap, Af)), float(np.trace(Af))

    def separating(idx):
        lam = np.linalg.eigvalsh(idx.gather(gap))
        shifts = (max(0.0, -float(lam[:, 0].min())),
                  max(0.0, float(lam[:, -1].max())))
        return [(sign, eps) for sign, eps in zip((1.0, -1.0), shifts)
                if sign * inner + eps * trace < 0.0]

    candidates = separating(index)
    if candidates and restricted:
        candidates = separating(_full_index(A.n, k))
    for sign, eps in candidates:
        cert = dualcone.verify_candidate(sign * gap + eps * np.eye(A.n), A, k)
        if cert is not None:
            return cert
    return None


def _fw_decompose_impl(A: SymMatrix, k: int, opts: SolverOptions
                       ) -> MembershipVerdict:
    """Splitting core: one run, one verdict.

    A member is found at a residual hit or a z-check, from the clipped Z
    iterate or the projected X iterate.  A z-check whose shifted gap
    direction certifies ends the run ``non_member`` (``in_loop_gap``).  A
    stall resets the multipliers at most twice and then gives up, as does
    the end of the iteration budget or an entry outside every support; the
    final gap direction then certifies (``final_gap``) or the verdict is
    ``inconclusive``.  Every verdict but a member says in
    ``diagnostics["stop"]`` why the run ended.
    """
    n = A.n
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    restricted = opts.support_list is not None
    index = (_BlockIndex(n, _normalize_supports(n, k, opts.support_list))
             if restricted else _full_index(n, k))
    supports = index.supports
    m = len(supports)

    Af = A.as_array()
    target = opts.feas_tol * (1.0 + A.max_abs())

    history: list[tuple[int, float]] = []

    def _stop(message, residual, it, cert, source="final_gap"):
        """Every exit without a member: ``non_member`` with the certificate
        and the exit that found it, else ``inconclusive``."""
        diagnostics = {"iterations": it, "primal_residual": residual,
                       "residual_history": history, "stop": message}
        if cert is None:
            diagnostics["certificate_found"] = False
            return MembershipVerdict("inconclusive", diagnostics=diagnostics)
        diagnostics["certificate_value"] = cert.value
        diagnostics["certificate_source"] = source
        return MembershipVerdict("non_member", certificate=cert,
                                 diagnostics=diagnostics)

    def _give_up(message, residual, it, gap):
        """The exits that end the run: the final gap direction goes through
        the same shift as the z-checks."""
        return _stop(message, residual, it,
                     _gap_certificate(A, Af, k, index, restricted, gap))

    mult = index.accumulate(np.ones((m, index.k, index.k)))
    uncovered = (mult == 0) & (np.abs(Af) > target)
    if np.any(uncovered):
        # the direction -sign(A_ij)(e_i e_j^T + e_j e_i^T) has zero blocks
        # on the run's supports, so at k = 1 it needs no shift at all
        i, j = map(int, np.argwhere(uncovered)[0])
        direction = np.zeros((n, n))
        direction[i, j] = direction[j, i] = -np.sign(Af[i, j])
        return _give_up(
            f"entry ({i},{j}) is outside every support but A[{i}][{j}] != 0",
            float(np.max(np.abs(Af[mult == 0]))), 0, direction)
    inv_mult = np.where(mult > 0, 1.0 / np.where(mult > 0, mult, 1.0), 0.0)

    # consensus initialisation: distribute A over the supports by multiplicity
    Z = index.gather(Af * inv_mult)
    U = np.zeros_like(Z)

    best = math.inf
    last_improve = 0
    stall_window = 600
    zcheck_every = 25
    resets_left = 2

    def _accept(stack):
        """The one member exit: the re-verified blocks of ``stack`` (the
        clipped Z or the X iterate) if they reproduce A within the target,
        else None."""
        blocks = [(supports[s], SymMatrix.from_array(stack[s]))
                  for s in range(m) if np.max(np.abs(stack[s])) > 0.0]
        try:
            d = BlockDecomposition.build(A, k, blocks)
        except ValueError:
            return None
        return d if d.residual <= target else None

    for it in range(1, opts.max_iter + 1):
        X = _project_psd(Z - U)
        acc = index.accumulate(X)
        res = float(np.max(np.abs(Af - acc)))
        if it % 100 == 0 or it == 1:
            history.append((it, res))
        zcheck = it % zcheck_every == 0
        if res <= target or zcheck:
            # the Z iterate is consensus-exact by construction; once its
            # blocks are (numerically) psd, clipping them is a solution.
            # Each side within the target is tried, the smaller recomputed
            # residual first
            Xz = _project_psd(Z)
            resz = float(np.max(np.abs(Af - index.accumulate(Xz))))
            tries = ([(resz, Xz), (res, X)] if resz <= res
                     else [(res, X), (resz, Xz)])
            for r, stack in tries:
                d = _accept(stack) if r <= target else None
                if d is not None:
                    return MembershipVerdict(
                        "member", decomposition=d, diagnostics={
                            "iterations": it, "primal_residual": d.residual,
                            "residual_history": history})
        if zcheck:
            # infeasibility detection: the gap X - Z converges to a
            # separating direction on non-members
            cert = _gap_certificate(A, Af, k, index, restricted,
                                    _assemble_gap(index, inv_mult, X, Z))
            if cert is not None:
                history.append((it, res))
                return _stop(f"gap direction certified non-membership after "
                             f"{it} iterations", min(best, res), it, cert,
                             "in_loop_gap")
        if res < best * (1.0 - 2e-3):
            best = res
            last_improve = it
        if it - last_improve > stall_window:
            if resets_left > 0:
                # restart the multipliers: spiralling near a spurious
                # configuration is broken by dropping the dual bias
                U[:] = 0.0
                resets_left -= 1
                last_improve = it
            else:
                history.append((it, res))
                return _give_up(
                    f"residual plateau at {best:.3e} after {it} iterations "
                    f"(target {target:.3e})",
                    best, it, _assemble_gap(index, inv_mult, X, Z))
        W = X + U
        corr = (Af - index.accumulate(W)) * inv_mult
        Z = W + index.gather(corr)
        U += X - Z

    X = _project_psd(Z - U)
    res = float(np.max(np.abs(Af - index.accumulate(X))))
    history.append((opts.max_iter, res))
    return _give_up(
        f"no decomposition within {opts.max_iter} iterations "
        f"(best residual {best:.3e}, target {target:.3e})",
        min(best, res), opts.max_iter, _assemble_gap(index, inv_mult, X, Z))


def fw_membership(A: SymMatrix, k: int, opts: Optional[SolverOptions] = None
                  ) -> MembershipVerdict:
    """Three-way membership decision for FW_k.

    One splitting run decides it.  Member verdicts carry its re-verified
    decomposition; non-member verdicts carry the certificate the run's
    shifted gap direction gave, which passed ``dualcone.verify_candidate``.
    A run with a ``support_list`` searches a smaller cone than FW_k and can
    end inconclusive without a separating direction; then one more run of
    the same core on all C(n, k) supports is made for its certificate only:
    its verdict is returned if it is ``non_member``, else the restricted
    one (should it decompose A, the verdict stays "inconclusive").  A solver
    stall without a certificate yields "inconclusive", never "non_member".

    ``diagnostics`` holds ``iterations`` (of both runs after a rerun), and
    the ``primal_residual`` and ``residual_history`` (``(iteration,
    residual)`` pairs) of the returned run; every verdict but a member
    says why the run ended in ``stop``, and a non-member adds
    ``certificate_value`` and ``certificate_source``: ``"in_loop_gap"`` (a
    z-check) or ``"final_gap"`` (the exit that ended the run).
    """
    opts = opts or SolverOptions()
    verdict = _fw_decompose_impl(A, k, opts)
    if verdict.status == "inconclusive" and opts.support_list is not None:
        full = _fw_decompose_impl(A, k, replace(opts, support_list=None))
        iterations = (verdict.diagnostics["iterations"]
                      + full.diagnostics["iterations"])
        if full.status == "non_member":
            verdict = full
        verdict.diagnostics["iterations"] = iterations
    return verdict


def extract_factors(d: BlockDecomposition) -> np.ndarray:
    """Rectangular V with A ~= V V^T and at most k nonzeros per column."""
    cols = []
    for K, block in d.blocks:
        res = eigen_sym(block)
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
