"""Factor-width-k membership and explicit block decompositions.

The feasibility question "is A a sum of psd blocks supported on k-subsets?"
is solved by over-relaxed Douglas-Rachford splitting on one stack V of
per-support blocks, the fixed-point map V <- V + alpha (P(2 Pi V - V) - Pi V),
alpha = ``_RELAX`` (Boyd et al. 2011, section 3.4.3, in ADMM form).  Pi is the
consensus projection: a closed-form affine correction that distributes the
residual by entry multiplicity, which makes it exact; P projects each block
onto the psd cone.  A member is proved by one stack, re-verified as it stands:
the consensus-exact Z = Pi V with its blocks clipped to the psd cone or the
projected X = P(2Z - V), whichever has the smaller recomputed residual.  The
core is given the ``symcore._BlockIndex`` of its supports, and every block
read and write goes through it; only ``BlockDecomposition.build``
re-accumulates the blocks on its own, as the independent re-verification.

The core iterates on A's unit-diagonal frame U = D^-1 A D^-1
(``symcore._unit_frame``), which both cones respect, and maps blocks back as
D_K B_K D_K and certificates as D^-1 B D^-1 to A's own gates; its target is
set so that a hit in U is one in A.

Infeasibility is detected in the loop, after Banjac, Goulart, Stellato and
Boyd (JOTA 2019): on a non-member the increment X - Z of V converges to a
separating direction, in that sign, so it is the one candidate; their proof
covers the relaxed step for any alpha in (0, 2).  Every z-check shifts it by
the multiple of the identity that puts it in the dual cone and, when the
shifted direction pairs negatively with A, hands it to the certificate gate;
a pass stops the run with the certificate.

The exits that end a run (plateau, iteration budget, an entry outside every
support) try their final gap direction through the same shift.  Non-membership
is never declared from a solver stall; it requires a certificate that passed
the gate of :mod:`factorwidth.dualcone`.  Every run returns a
:class:`MembershipVerdict`, and every verdict but a member names the exit that
ended its run in ``diagnostics["stop"]``.

Width 2 needs no splitting: FW_2 is the set of scaled diagonally dominant
matrices (Boman, Chen, Parekh and Toledo, Linear Algebra Appl. 2005), which
``_width_two`` decides from the comparison matrix.  Every exit, there and in
the splitting core, passes the one member gate ``_accept`` and leaves through
the one verdict builder ``_verdict``.  Otherwise the first run is on a
``support_list`` or the sparsity seed (cf. the column generation of Ahmadi,
Dash and Hall, Discrete Optim. 2017), then on all C(n, k) supports
(``fw_membership``, the one boundary, which checks the width, A's float range
and a ``support_list``).
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
    load_matrix_json,
    matrix_to_json,
    _BlockIndex,
    _as_int,
    _as_width,
    _fits_float,
    _frob,
    _full_index,
    _project_psd,
    _psd_battery,
    _sparsity_seed,
    _unit_frame,
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
# alpha: 1.8 took Qprime at width 4 from 400 iterations to 225 (1.6: 250)
_RELAX = 1.8
# the outcome of _gap_certificate when the restricted cone provably excludes A
_EXCLUDED = object()


@dataclass
class SolverOptions:
    """Splitting options.  A member must reproduce A within
    ``feas_tol * (1 + max|A|)``; ``max_iter`` bounds the iterations of a
    whole ``fw_membership`` call, and ``support_list`` names the supports
    its first run is made on."""

    feas_tol: float = 1e-7
    max_iter: int = 20000
    support_list: Optional[Sequence] = None

    def __post_init__(self):
        if not (math.isfinite(self.feas_tol) and self.feas_tol > 0):
            raise ValueError("feas_tol must be positive and finite")
        self.max_iter = _as_int(self.max_iter)
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass
class BlockDecomposition:
    """Certified witness of FW_k membership: psd blocks summing to A.

    The residual is recomputed from the blocks at construction time, never
    trusted from a solver, and every distinct block is re-checked psd once.
    """

    ambient_n: int
    k: int
    blocks: list  # list[(Support, SymMatrix)]
    residual: float

    @classmethod
    def build(cls, A: SymMatrix, k: int, blocks) -> "BlockDecomposition":
        n = A.n
        k = _as_width(n, k)
        decided = set()
        for K, block in blocks:
            if len(K) > k:
                raise ValueError(f"support {K.indices} exceeds width {k}")
            if K.indices[-1] >= n:
                raise ValueError(f"support {K.indices} out of range for n={n}")
            if block.n != len(K):
                raise ValueError("block size does not match its support")
            num, den = block._nd
            key = (den, *num.flat) if block.is_exact else id(block)
            tol = 0 if block.is_exact else _BLOCK_PSD_TOL
            if key not in decided and not is_psd(block, tol).is_psd:
                raise ValueError(f"block on {K.indices} is not psd")
            decided.add(key)
        exact = A.is_exact and all(b.is_exact for _, b in blocks)
        # exact: the numerators over one denominator D, else the float images
        D = math.lcm(A._nd[1], *(b._nd[1] for _, b in blocks)) if exact else 1
        image = ((lambda M: M._nd[0] * (D // M._nd[1])) if exact
                 else SymMatrix.as_array)
        acc = np.zeros((n, n), dtype=object if exact else float)
        for K, block in blocks:
            acc[np.ix_(K.indices, K.indices)] += image(block)
        residual = float(np.abs(image(A) - acc).max() / D)
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


def _support_index(n: int, k: int, support_list) -> _BlockIndex:
    """The index over a user's ``support_list``: each support validated
    against n and k, duplicates dropped, in lexicographic order."""
    rows = set()
    for K in support_list:
        K = Support.of(K)
        if len(K) > k:
            raise ValueError(f"support {K.indices} larger than k={k}")
        if K.indices[-1] >= n:
            raise ValueError(f"support {K.indices} out of range for n={n}")
        rows.add(K.indices)
    if not rows:
        raise ValueError("the support list is empty")
    if len({len(r) for r in rows}) > 1:
        raise ValueError("mixed support sizes are not supported")
    return _BlockIndex(n, np.array(sorted(rows)))


def _assemble_gap(index: _BlockIndex, inv_mult, X, Z):
    """Ambient image of the block-space gap X - Z (the would-be certificate)."""
    gap = index.accumulate(X - Z) * inv_mult
    norm = _frob(gap) if np.all(np.isfinite(gap)) else 0.0
    return gap / norm if norm else None


def _accept(A: SymMatrix, k: int, blocks, target: float):
    """The one member gate: the nonzero ones of the ``(Support, array)``
    ``blocks`` re-verified by ``BlockDecomposition.build``, if they reproduce
    A within ``target``, else None."""
    try:
        d = BlockDecomposition.build(A, k, [
            (K, SymMatrix.from_array(b)) for K, b in blocks
            if np.abs(b).max() > 0.0])
    except ValueError:
        return None
    return d if d.residual <= target else None


def _verdict(it, history, residual, stop, decomposition=None,
             certificate=None, source=None) -> MembershipVerdict:
    """The one verdict builder: ``member`` with a decomposition (and its
    residual), else ``non_member`` with a certificate and the exit that found
    it (its ``source``), else ``inconclusive``; all but a member say why in
    ``stop``."""
    diagnostics = {"iterations": it, "primal_residual": residual,
                   "residual_history": history}
    if decomposition is not None:
        diagnostics["primal_residual"] = decomposition.residual
        return MembershipVerdict("member", decomposition, None, diagnostics)
    diagnostics["stop"] = stop
    if certificate is None:
        diagnostics["certificate_found"] = False
        return MembershipVerdict("inconclusive", diagnostics=diagnostics)
    diagnostics.update(certificate_value=certificate.value,
                       certificate_source=source)
    return MembershipVerdict("non_member", None, certificate, diagnostics)


def _gap_certificate(A: SymMatrix, U: np.ndarray, dd: np.ndarray, k: int,
                     index: _BlockIndex, gap):
    """A verified certificate from the gap direction, shifted, or None.

    The gap X - Z is the one candidate: Banjac et al. prescribe its sign.
    Adding eps*I raises every principal block by eps, so with eps the most
    negative block eigenvalue of the gap, gap + eps*I lies exactly in the
    dual of the run's cone and pairs with A as <gap, A> + eps tr A.  A member
    of that cone pairs nonnegatively with it, so only a strictly negative
    pairing goes on; a restricted run then recomputes eps over all C(n, k)
    supports, and the candidate goes to the one certificate gate as it is.
    If it no longer pairs negatively, the run's cone excludes A and the
    outcome is ``_EXCLUDED``.  All this is in the run's frame U, A / ``dd``,
    and the candidate maps back as (gap + eps I) / dd, pairing unchanged.
    """
    from . import dualcone

    if gap is None:
        return None
    inner, trace = float(np.vdot(gap, U)), float(np.trace(U))

    def shift(idx):
        lam = _psd_battery(idx.gather(gap), 0.0)[1]
        eps = max(0.0, -float(lam[:, 0].min()))
        return eps if inner + eps * trace < 0.0 else None

    eps = shift(index)
    if eps is None:
        return None
    if index is not _full_index(A.n, k):
        eps = shift(_full_index(A.n, k))
        if eps is None:
            return _EXCLUDED
    return dualcone.verify_candidate((gap + eps * np.eye(A.n)) / dd, A, k)


def _fw_decompose_impl(A: SymMatrix, k: int, opts: SolverOptions,
                       index: _BlockIndex, spent=0) -> MembershipVerdict:
    """Splitting core: one run on the supports of ``index``, one verdict;
    ``spent`` counts the iterations an earlier run of the same call used.

    A member is found at a residual hit or a z-check, from the clipped Z or
    from X, which the residual and the stall test read too; a z-check whose
    shifted gap X - Z certifies ends the run ``non_member`` (``in_loop_gap``).
    A stall resets V to Z at most twice and then gives up, as does the end
    of the budget or an entry outside every support; the final gap then
    certifies (``final_gap``) or the verdict is ``inconclusive``.  The
    budget exit's ``stop`` names the call's whole budget and, after
    ``spent``, each run's share.  The residuals (but a member's) and the
    targets in ``stop`` are the unit frame's.
    """
    n = A.n
    m = len(index.rows)

    Af = A.as_array()
    # the run's frame U = D^-1 A D^-1; a hit on its target meets A's gate,
    # as |R_ij| = d_i d_j |R'_ij|
    d = _unit_frame(Af)
    dd = np.ones((n, n)) if d is None else np.outer(d, d)
    U = Af / dd
    gate = opts.feas_tol * (1.0 + A.max_abs())
    target = min(opts.feas_tol * (1.0 + np.abs(U).max()), gate / dd.max())

    history: list[tuple[int, float]] = []

    def _give_up(message, residual, it, gap):
        """The exits that end the run: the final gap direction goes through
        the same shift as the z-checks."""
        cert = _gap_certificate(A, U, dd, k, index, gap)
        return _verdict(it, history, residual, message,
                        certificate=None if cert is _EXCLUDED else cert,
                        source="final_gap")

    mult = index.accumulate(np.ones((m, index.k, index.k)))
    uncovered = (mult == 0) & (np.abs(U) > target)
    if np.any(uncovered):
        # the direction -sign(A_ij)(e_i e_j^T + e_j e_i^T) has zero blocks
        # on the run's supports, so at k = 1 it needs no shift at all
        i, j = map(int, np.argwhere(uncovered)[0])
        direction = np.zeros((n, n))
        direction[i, j] = direction[j, i] = -np.sign(U[i, j])
        return _give_up(
            f"entry ({i},{j}) is outside every support but A[{i}][{j}] != 0",
            float(np.abs(U[mult == 0]).max()), 0, direction)
    inv_mult = np.where(mult > 0, 1.0 / np.where(mult > 0, mult, 1.0), 0.0)

    # consensus initialisation: distribute A over the supports by multiplicity
    V = Z = index.gather(U * inv_mult)

    best = math.inf
    last_improve = 0
    stall_window = 600
    zcheck_every = 25
    resets_left = 2

    for it in range(1, opts.max_iter + 1):
        X = _project_psd(2.0 * Z - V)
        res = float(np.abs(U - index.accumulate(X)).max())
        if it % 100 == 0 or it == 1:
            history.append((it, res))
        zcheck = it % zcheck_every == 0
        if res <= target or zcheck:
            # the Z iterate is consensus-exact by construction; once its
            # blocks are (numerically) psd, clipping them is a solution.
            # The stack with the smaller recomputed residual is the witness
            Xz = _project_psd(Z)
            resz = float(np.abs(U - index.accumulate(Xz)).max())
            r, stack = (resz, Xz) if resz <= res else (res, X)
            dec = _accept(A, k, zip(map(index.support, range(m)),
                                    stack * index.gather(dd)),
                          gate) if r <= target else None
            if dec is not None:
                return _verdict(it, history, None, None, decomposition=dec)
        if zcheck:
            # infeasibility detection: the gap X - Z converges to a
            # separating direction on non-members
            cert = _gap_certificate(A, U, dd, k, index,
                                    _assemble_gap(index, inv_mult, X, Z))
            if cert is not None:
                history.append((it, res))
                if cert is _EXCLUDED:
                    return _verdict(it, history, min(best, res),
                                    f"restricted cone excludes A after {it} "
                                    f"iterations")
                return _verdict(it, history, min(best, res),
                                f"gap direction certified non-membership "
                                f"after {it} iterations", certificate=cert,
                                source="in_loop_gap")
        if res < best * (1.0 - 2e-3):
            best = res
            last_improve = it
        if it - last_improve > stall_window:
            if not resets_left:
                stop = (f"residual plateau at {best:.3e} after {it} "
                        f"iterations (target {target:.3e})")
                break
            # restart from Z: spiralling near a spurious configuration is
            # broken by dropping the dual bias V - Z
            V = Z
            resets_left -= 1
            last_improve = it
        V = V + _RELAX * (X - Z)
        Z = V + index.gather((U - index.accumulate(V)) * inv_mult)
    else:
        X = _project_psd(2.0 * Z - V)
        res = float(np.abs(U - index.accumulate(X)).max())
        split = (f"{spent} on the first supports, {opts.max_iter} on all {m} "
                 "supports; ") if spent else ""
        stop = (f"no decomposition within {spent + opts.max_iter} iterations "
                f"({split}best residual {best:.3e}, target {target:.3e})")
        best = min(best, res)
    history.append((it, res))
    return _give_up(stop, best, it, _assemble_gap(index, inv_mult, X, Z))


def _width_two(A: SymMatrix, target: float, listed) -> MembershipVerdict:
    """FW_2 from one ``eigh`` of the comparison matrix comp(A): the diagonal
    of A, -|a_ij| off it, decided on A 2^-e, with 2^e the power of two of
    max|A| (an exact scaling, so nothing below overflows or underflows).

    Below -1e-8 ||A||_F (the gate's margin) x = |least eigenvector| makes
    B_ii = x_i^2, B_ij = -sign(a_ij) x_i x_j: psd on every 2 x 2 block, with
    <B, A> = x^T comp(A) x = lambda_min.  Otherwise s = max(0, margin -
    lambda_min) makes comp + sI a nonsingular M-matrix, so v = (comp + sI)^-1
    1 >= 1/(a_ii + s) > 0 (s = 0 above the margin).  Each a_ij != 0 gives
    the rank-1 block [[|a_ij| v_j/v_i, a_ij], [a_ij, |a_ij| v_i/v_j]], which
    leaves (1/v_i - s) 2^e on vertex i's diagonal; where that is positive it
    goes in one block on the vertex (for a vertex without edges, on a listed
    pair if there is one).  The witness goes to its usual gate; if it fails,
    the verdict is ``inconclusive`` and its ``stop`` says which side failed.
    """
    from . import dualcone

    n, Af = A.n, A.as_array()
    e = math.frexp(float(np.abs(Af).max()))[1]
    scaled = np.ldexp(Af, -e)
    comp = -np.abs(scaled)
    np.fill_diagonal(comp, scaled.diagonal())
    w, vec = np.linalg.eigh(comp)
    least, margin = float(w[0]), 1e-8 * _frob(scaled)
    quote = f"least comparison eigenvalue {math.ldexp(least, e):.6e}"
    if least < -margin:
        x = np.abs(vec[:, 0])
        B = -np.sign(Af) * np.outer(x, x)
        np.fill_diagonal(B, x * x)
        cert = dualcone.verify_candidate(B, A, 2)
        stop = (f"comparison matrix is not psd: {quote}" if cert is not None
                else f"{quote}: its certificate did not verify")
        return _verdict(0, [], None, stop, certificate=cert,
                        source="comparison")
    s = max(0.0, margin - least)
    # v = (comp + sI)^-1 1 from the same eigh; A = 0 (margin 0) has no edges,
    # and v = inf leaves no diagonal
    v = vec @ (vec.sum(axis=0) / (w + s)) if margin else np.full(n, np.inf)
    edges = (Af != 0) & ~np.eye(n, dtype=bool)
    blocks = {}
    for i, j in zip(*np.nonzero(np.triu(edges))):
        r, a = v[j] / v[i], Af[i, j]
        blocks[i, j] = np.array([[abs(a) * r, a], [a, abs(a) / r]])
    rest = np.ldexp(1.0 / v - s, e)
    pairs = [] if listed is None or listed.k != 2 else listed.rows.tolist()
    for i in np.flatnonzero(rest > 0.0):
        nbrs = np.flatnonzero(edges[i]).tolist()
        j = nbrs[0] if nbrs else next(
            (p + q - i for p, q in pairs if i in (p, q)), (i + 1) % n)
        block = blocks.setdefault((min(i, j), max(i, j)), np.zeros((2, 2)))
        block[int(i > j), int(i > j)] += rest[i]
    d = _accept(A, 2, [(Support.of(K), b) for K, b in blocks.items()], target)
    # a member carries no stop; the message is read only when d is None
    return _verdict(0, [], None, f"{quote}: its decomposition did not verify",
                    decomposition=d)


def fw_membership(A: SymMatrix, k: int, opts: Optional[SolverOptions] = None
                  ) -> MembershipVerdict:
    """Three-way membership decision for FW_k.

    Member verdicts carry a re-verified decomposition; non-member verdicts
    carry the certificate a run's shifted gap direction gave, which passed
    ``dualcone.verify_candidate``; a stall without a certificate yields
    "inconclusive", never "non_member".  ValueError if an |entry| of A
    reaches 2**1022 or ||A||_F overflows.

    At k = 2 ``_width_two`` decides with no splitting run (``iterations``
    0).  The first run is on the ``support_list``, else, for A with an
    exact zero entry, on ``symcore._sparsity_seed``.  If it ends inconclusive with
    iterations left, one run on all C(n, k) supports gets the rest and its
    verdict is returned: ``max_iter`` bounds the whole call.

    ``diagnostics`` holds the ``iterations`` of both runs, and the
    ``primal_residual`` and ``residual_history`` (``(iteration, residual)``
    pairs) of the returned run, at k >= 3 in A's unit-diagonal frame but
    for a member's residual, as are the targets in ``stop``.  Every verdict
    but a member says why that run ended in ``stop``, and a non-member adds
    ``certificate_value`` and ``certificate_source``: ``"in_loop_gap"`` (a
    z-check), ``"final_gap"`` (the exit that ended the run) or
    ``"comparison"``.  ``seed_supports``
    is the seed's size (None if no seed ran), and ``seed_stop`` the seeded
    run's ``stop`` after an escalation.
    """
    opts = opts or SolverOptions()
    k = _as_width(A.n, k)
    if not _fits_float(A):
        raise ValueError("every |entry| must be below 2**1022, ||A||_F finite")
    index = seed = None
    if opts.support_list is not None:
        index = _support_index(A.n, k, opts.support_list)
    if k == 2:
        verdict = _width_two(A, opts.feas_tol * (1.0 + A.max_abs()), index)
        verdict.diagnostics["seed_supports"] = None
        return verdict
    if index is None:
        seed = _sparsity_seed(A._nd[0] != 0, k)
        index = _full_index(A.n, k) if seed is None else seed
    verdict = _fw_decompose_impl(A, k, opts, index)
    used = verdict.diagnostics["iterations"]
    if (verdict.status == "inconclusive" and used < opts.max_iter
            and index is not _full_index(A.n, k)):
        rerun = _fw_decompose_impl(
            A, k, replace(opts, max_iter=opts.max_iter - used),
            _full_index(A.n, k), used)
        rerun.diagnostics["iterations"] += used
        if seed is not None:
            rerun.diagnostics["seed_stop"] = verdict.diagnostics["stop"]
        verdict = rerun
    verdict.diagnostics["seed_supports"] = (None if seed is None
                                            else len(seed.rows))
    return verdict


def extract_factors(d: BlockDecomposition) -> np.ndarray:
    """Rectangular V with A ~= V V^T and at most k nonzeros per column."""
    cols = []
    for K, block in d.blocks:
        res = eigen_sym(block)
        cut = 1e-10 * (1.0 + float(np.abs(res.eigenvalues).max()))
        for i, lam in enumerate(res.eigenvalues):
            if lam > cut:
                col = np.zeros(d.ambient_n)
                col[list(K.indices)] = math.sqrt(lam) * res.eigenvectors[:, i]
                cols.append(col)
    return np.column_stack(cols) if cols else np.zeros((d.ambient_n, 0))


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------


def decomposition_to_json(d: BlockDecomposition) -> dict:
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
    blocks = [(Support.of(e["support"]),
               load_matrix_json({"n": len(e["rows"]), "rows": e["rows"]}))
              for e in obj["blocks"]]
    return BlockDecomposition.build(A, obj["k"], blocks)
