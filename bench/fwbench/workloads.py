"""The four workloads: seeded inputs, the timed call, and the outside check.

Each workload turns a seed into a fixed list of instances (one round).  The
runner times ``call`` on every instance and afterwards, outside the timed
region, asks ``check`` whether the result matches the instance's known answer
and whether every returned certificate or decomposition re-verifies.  All
library functions are reached through module attributes at call time, so the
tracer's wrappers see them.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np


@dataclass
class Instance:
    label: str  # "<kind>:<detail>"; the kind groups latencies in the report
    data: dict


# ---------------------------------------------------------------------------
# Shared re-verification
# ---------------------------------------------------------------------------


def member_residual_target(fw, A) -> float:
    """The library's own acceptance residual for a member verdict."""
    return fw.decompose.SolverOptions().feas_tol * (1.0 + A.max_abs())


def check_decomposition(fw, obj, A, k):
    """Rebuild a decomposition from its JSON form against its input."""
    try:
        d = fw.decompose.decomposition_from_json(obj, A)
    except (ValueError, KeyError, TypeError) as exc:
        return f"decomposition does not rebuild: {exc}"
    if d.k != k or any(len(K) > k for K, _ in d.blocks):
        return f"decomposition exceeds width {k}"
    if not d.residual <= member_residual_target(fw, A):
        return f"rebuilt residual {d.residual:.3e} above target"
    return None


def check_certificate(fw, B, A, k):
    """B must pass the dual battery and pair strictly negatively with A."""
    if not fw.dualcone.dual_membership(B, k, 1e-9).is_member:
        return "certificate fails the dual-membership battery"
    value = float(fw.symcore.frobenius_inner(B, A))
    if not value < -1e-8 * B.frob_norm() * A.frob_norm():
        return f"certificate pairing {value:.3e} is not strictly negative"
    return None


def check_verdict(fw, verdict, A, k, expected):
    if verdict.status != expected:
        return f"verdict {verdict.status}, known answer {expected}"
    if expected == "member":
        obj = fw.decompose.decomposition_to_json(verdict.decomposition)
        return check_decomposition(fw, json.loads(json.dumps(obj)), A, k)
    return check_certificate(fw, verdict.certificate.B, A, k)


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj))


# ---------------------------------------------------------------------------
# qprime_full
# ---------------------------------------------------------------------------


class QprimeFull:
    """The paper's lifted Gram at width 4 over all C(15, 4) = 1365 supports."""

    name = "qprime_full"

    def generate(self, fw, fx, seed, smoke):
        # The fixture is fixed, so every seed gives the same instance.  The
        # smoke size keeps the member path but uses the paper's 27 supports.
        supports = list(fx.supports27) if smoke else None
        return [Instance("check:Qprime-w4", {"A": fx.Qprime, "k": 4,
                                             "supports": supports})]

    def write(self, fw, instances, workdir):
        _write_json(workdir / "Qprime.json",
                    fw.symcore.matrix_to_json(instances[0].data["A"]))

    def call(self, fw, inst):
        d = inst.data
        opts = None
        if d["supports"] is not None:
            opts = fw.decompose.SolverOptions(support_list=d["supports"])
        return fw.decompose.fw_membership(d["A"], d["k"], opts)

    def check(self, fw, inst, result):
        return check_verdict(fw, result, inst.data["A"], inst.data["k"],
                             "member")


# ---------------------------------------------------------------------------
# oracle_batch
# ---------------------------------------------------------------------------


class OracleBatch:
    """Acceptance criterion 7: random width-2 instances, n in {3, 4}."""

    name = "oracle_batch"
    trials = 200
    smoke_trials = 12

    def generate(self, fw, fx, seed, smoke):
        rng = np.random.default_rng(seed)
        out = []
        for trial in range(self.smoke_trials if smoke else self.trials):
            n = 3 if trial % 2 == 0 else 4
            w = rng.standard_normal((n, n))
            noise = rng.standard_normal((n, n))
            sigma = (0.1, 0.3, 1.0)[trial % 3]
            arr = w @ w.T / n + sigma * (noise + noise.T) / 2
            # As in criterion 7, a trial whose comparison matrix sits within
            # the margin band of singular has no decidable known answer.
            comp = -np.abs(arr)
            np.fill_diagonal(comp, np.diag(arr))
            band = 1e-4 * (1.0 + np.max(np.abs(comp)))
            if abs(np.linalg.eigvalsh(comp)[0]) <= band:
                continue
            out.append(Instance(f"check-w2:n{n}-t{trial}",
                                {"A": fw.symcore.SymMatrix.from_array(arr)}))
        return out

    def write(self, fw, instances, workdir):
        _write_json(workdir / "oracle_batch.json",
                    [{"label": inst.label,
                      **fw.symcore.matrix_to_json(inst.data["A"])}
                     for inst in instances])

    def call(self, fw, inst):
        return fw.decompose.fw_membership(inst.data["A"], 2)

    def check(self, fw, inst, result):
        A = inst.data["A"]
        expected = ("member" if fw.families.sobs_comparison(A).is_sobs
                    else "non_member")
        return check_verdict(fw, result, A, 2, expected)


# ---------------------------------------------------------------------------
# cli_mix
# ---------------------------------------------------------------------------

_EXIT = {"member": 0, "found": 0, "non_member": 1, "none": 1}


def _congruence(rng, arr):
    """A random permutation and positive diagonal scaling of ``arr``.

    Factor width and its dual cone are invariant under both, so the known
    answer of a target survives the disguise.
    """
    n = arr.shape[0]
    d = np.exp(rng.uniform(-0.5, 0.5, n))
    perm = rng.permutation(n)
    return (arr * np.outer(d, d))[np.ix_(perm, perm)]


def _cos_target(fw, rng):
    """A psd 4x4 target separated from FW_3 by a cosine extreme ray."""
    while True:
        a, c = rng.uniform(-math.pi, math.pi, 2)
        if abs(math.sin(a) * math.sin(c) * math.sin(a - c)) > 0.3:
            break
    B = fw.dualcone.cos_ray(a, c).as_array()
    lam, vec = np.linalg.eigh(B)
    u = vec[:, 0]  # the ray's one negative eigenvalue
    g = rng.standard_normal((4, 4))
    R = g @ g.T / 4
    pairing = float(np.vdot(B, R))
    delta = -0.5 * lam[0] / pairing if pairing > 0 else 0.5
    # <B, target> = lam[0] / 2 (or less) < 0
    return _congruence(rng, np.outer(u, u) + delta * R)


def _pna_array(n, a):
    return np.ones((n, n)) + (a - 1.0) * np.eye(n)


def _separated_target(rng, n, k):
    """A symmetric-family target below its width-k threshold, with psd noise.

    The matrix with k-1 on the diagonal and -1 off it lies in the dual cone
    and pairs to n(k-1)(a - threshold) < 0 with the family member; the noise
    is scaled to keep at least half of that margin.
    """
    thr = (n - 1) / (k - 1)
    Q = _pna_array(n, thr * rng.uniform(0.6, 0.9))
    B = (k - 1) * np.eye(n) - (np.ones((n, n)) - np.eye(n))
    g = rng.standard_normal((n, n))
    R = g @ g.T / n
    margin = -float(np.vdot(B, Q))
    pairing = float(np.vdot(B, R))
    if pairing > 0:
        R *= 0.5 * margin / pairing
    return _congruence(rng, Q + R)


def _member_target(rng, n, k):
    """A symmetric-family member above its width-k threshold, permuted.

    Only a permutation disguises it: a diagonal scaling would change the
    cost of the full Dykstra budget from seed to seed, and these calls set
    the workload's 90th latency percentile.
    """
    perm = rng.permutation(n)
    return _pna_array(n, 1.35 * (n - 1) / (k - 1))[np.ix_(perm, perm)]


class CliMix:
    """``factorwidth.cli.main`` in-process on files written in set-up."""

    name = "cli_mix"
    dykstra_shapes = ((5, 3), (6, 4), (5, 4), (6, 3))
    member_shape = (6, 4)
    member_max_cycles = "400"
    soks_shapes = ((4, 3), (5, 4))

    def generate(self, fw, fx, seed, smoke):
        rng = np.random.default_rng(seed)
        sym = fw.symcore

        def certify(label, fname, arr, k, expect, *flags):
            A = sym.SymMatrix.from_array(arr)
            return Instance(label, {
                "argv": ["certify", fname, str(k), *flags],
                "inputs": {fname: sym.matrix_to_json(A)},
                "target": A, "k": k, "expect": expect})

        supports = {"supports": [list(K.indices) for K in fx.supports27]}
        out = [
            Instance("check-fw-s27:Qprime", {
                "argv": ["check-fw", "Qprime.json", "4",
                         "--supports", "s27.json"],
                "inputs": {"Qprime.json": sym.matrix_to_json(fx.Qprime),
                           "s27.json": supports},
                "target": fx.Qprime, "k": 4, "expect": "member"}),
            Instance("check-fw-w4:M", {
                "argv": ["check-fw", "M.json", "4"],
                "inputs": {"M.json": sym.matrix_to_json(fx.M)},
                "target": fx.M, "k": 4, "expect": "non_member"}),
        ]
        # Per round: 8 cosine targets, 8 Dykstra targets, 6 members and 2
        # soks quadratics.  The members are the slowest calls and close to a
        # quarter of the round, so the 90th latency percentile falls among
        # them rather than in the gap between two kinds of call.
        counts = (1, 1, 1, 1) if smoke else (8, 8, 6, 2)
        for i in range(counts[0]):
            out.append(certify(f"certify-cos:{i}", f"cos{i}.json",
                               _cos_target(fw, rng), 3, "found"))
        for i in range(counts[1]):
            n, k = self.dykstra_shapes[i % 4]
            out.append(certify(f"certify-dykstra:n{n}k{k}-{i}",
                               f"sep{i}.json", _separated_target(rng, n, k),
                               k, "found"))
        n, k = self.member_shape
        for i in range(counts[2]):
            out.append(certify(f"certify-member:n{n}k{k}-{i}",
                               f"mem{i}.json", _member_target(rng, n, k),
                               k, "none", "--max-cycles",
                               self.member_max_cycles))
        # the symmetric family just below its width-k threshold: quadratics
        # that are conclusively not sums of k-nomial squares
        fam = fw.families
        for n, k in self.soks_shapes[:counts[3]]:
            a = fam.pna_threshold(n, k) - Fraction(1, 20)
            quad = fam.pna_form(fam.PnaSpec(n, a)).to_poly()
            fname = f"pna{n}.json"
            out.append(Instance(f"soks:pna{n}-w{k}", {
                "argv": ["soks", fname, str(k)],
                "inputs": {fname: fw.polyforms.poly_to_json(quad)},
                "target": fw.polyforms.quadratic_gram(quad), "k": k,
                "expect": "non_member"}))
        return out

    def write(self, fw, instances, workdir):
        for inst in instances:
            for fname, obj in inst.data["inputs"].items():
                _write_json(workdir / fname, obj)
            inst.data["workdir"] = workdir

    def call(self, fw, inst):
        workdir = inst.data["workdir"]
        argv = [str(workdir / a) if a.endswith(".json") else a
                for a in inst.data["argv"]]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = fw.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def check(self, fw, inst, result):
        code, stdout, stderr = result
        d = inst.data
        expect = d["expect"]
        if code != _EXIT[expect]:
            return f"exit {code}, known answer {expect}: {stderr.strip()}"
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError:
            return "stdout is not one RunReport JSON object"
        if report.get("verdict") != expect:
            return f"verdict {report.get('verdict')}, known answer {expect}"
        artifacts = report.get("artifacts", [])
        if expect == "none":
            return "a 'none' verdict wrote an artifact" if artifacts else None
        if len(artifacts) != 1:
            return f"expected one artifact, got {artifacts}"
        obj = json.loads(Path(artifacts[0]).read_text())
        if expect == "member":
            return check_decomposition(fw, obj, d["target"], d["k"])
        B = fw.symcore.load_matrix_json(obj["B"])
        return check_certificate(fw, B, d["target"], d["k"])


# ---------------------------------------------------------------------------
# exact_lift
# ---------------------------------------------------------------------------


def _rational_sym(rnd, n, num=6, den=4):
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = Fraction(rnd.randint(-num, num),
                                               rnd.randint(1, den))
    return rows


class ExactLift:
    """The exact-rational multiplier pipeline; no float solver runs.

    An instance is one seeded draw run through the pipeline at every shape
    (n, r, k) in {3, 4} x {1, 2} x {2, 3}.  The shapes differ in cost by two
    orders of magnitude; bundling them gives every instance the same mix, so
    the latency percentiles sit inside one cluster instead of between two.
    """

    name = "exact_lift"
    shapes = tuple(itertools.product((3, 4), (1, 2), (2, 3)))
    bundles = 6

    def generate(self, fw, fx, seed, smoke):
        rnd = random.Random(seed)
        sym = fw.symcore.SymMatrix
        out = []
        for i in range(1 if smoke else self.bundles):
            specs = []
            for n, r, k in self.shapes:
                lam = [Fraction(rnd.randint(-3, 3), rnd.randint(1, 2))
                       for _ in range(n)]
                if all(v == 0 for v in lam):
                    lam[0] = Fraction(1)
                spec = {
                    "n": n, "r": r, "k": k, "lam": lam,
                    "Q": sym.from_rows(_rational_sym(rnd, n)),
                    "a": Fraction(rnd.randint(4, 16), 4),
                    "a_witness": Fraction(n - 1, k - 1)
                    + Fraction(rnd.randint(0, 8), 4),
                    "B4": None,
                }
                if n == 4:
                    rows = [[Fraction(1)] * 4 for _ in range(4)]
                    for p in range(4):
                        for q in range(p + 1, 4):
                            rows[p][q] = rows[q][p] = Fraction(
                                rnd.randint(-5, 5), 5)
                    spec["B4"] = sym.from_rows(rows)
                specs.append(spec)
            out.append(Instance(f"lift:bundle{i}", {"specs": specs}))
        return out

    def write(self, fw, instances, workdir):
        def enc(v):
            if isinstance(v, Fraction):
                return str(v)
            if isinstance(v, list):
                return [enc(x) for x in v]
            if hasattr(v, "rows"):
                return fw.symcore.matrix_to_json(v)
            return v

        _write_json(workdir / "exact_lift.json",
                    [{"label": inst.label,
                      "specs": [{key: enc(v) for key, v in spec.items()}
                                for spec in inst.data["specs"]]}
                     for inst in instances])

    def call(self, fw, inst):
        return [self._pipeline(fw, spec) for spec in inst.data["specs"]]

    def check(self, fw, inst, outs):
        for spec, out in zip(inst.data["specs"], outs):
            reason = self._check_one(fw, spec, out)
            if reason is not None:
                return f"n={spec['n']} r={spec['r']} k={spec['k']}: {reason}"
        return None

    @staticmethod
    def _pipeline(fw, d):
        pf, dc, fam = fw.polyforms, fw.dualcone, fw.families
        n, r, k = d["n"], d["r"], d["k"]
        q = pf.QuadraticForm(Q=d["Q"])
        basis = pf.monomial_basis(n, r + 1)
        out = {"p": pf.multiply_weighted_power(q, d["lam"], r),
               "lift_gram": pf.multiplier_gram(q, d["lam"], r)}
        out["lift_poly"] = pf.gram_to_poly(out["lift_gram"], basis)
        out["gram"] = pf.default_gram(out["p"], basis)
        out["gram_poly"] = pf.gram_to_poly(out["gram"], basis)
        out["aggregates"] = pf.parity_aggregates(out["p"])
        out["bnr"] = dc.bnr_certificate(n, r, k)
        pa = pf.multiply_weighted_power(
            fam.pna_form(fam.PnaSpec(n, d["a"])), [1] * n, r)
        out["pna_gram"] = pf.default_gram(pa, basis)
        out["bnr_dual"] = dc.dual_membership(out["bnr"], k, 0)
        out["witness"] = fam.pna_witness_decomposition(n, k, d["a_witness"])
        if d["B4"] is not None:
            out["lifted"] = dc.lift_quaternary_certificate(d["B4"], r, 1)
        return out

    @staticmethod
    def _check_one(fw, d, out):
        inner = fw.symcore.frobenius_inner
        n, r, k, Q = d["n"], d["r"], d["k"], d["Q"]
        if out["lift_poly"] != out["p"]:
            return "multiplier Gram does not reproduce the product"
        if out["gram_poly"] != out["p"]:
            return "default Gram does not round-trip"
        s = sum(v * v for v in d["lam"]) ** r
        p0, pij = out["aggregates"]
        if p0 != s * sum(Fraction(Q[i, i]) for i in range(n)):
            return "even parity aggregate differs from s * trace(Q)"
        for i in range(n):
            for j in range(i + 1, n):
                if pij.get((i, j), Fraction(0)) != 2 * s * Fraction(Q[i, j]):
                    return f"parity aggregate ({i},{j}) differs from 2 s Q_ij"
        expected = n ** (r + 1) * ((k - 1) * d["a"] - (n - 1))
        if inner(out["bnr"], out["pna_gram"]) != expected:
            return "parity-certificate pairing identity fails"
        rep = out["bnr_dual"]
        if not (rep.is_member and rep.exact):
            return "parity certificate fails the exact dual battery"
        w = out["witness"]
        if w.residual != 0 or len(w.blocks) != math.comb(n, k) or not all(
                b.is_exact for _, b in w.blocks):
            return "threshold witness is not an exact decomposition"
        if d["B4"] is not None:
            if inner(out["lifted"], out["gram"]) != s * inner(d["B4"], Q):
                return "lifted certificate pairing identity fails"
        return None


WORKLOADS = {w.name: w for w in (QprimeFull(), OracleBatch(), CliMix(),
                                 ExactLift())}
