"""Set-up, the closed-loop timed phase, outside checks and the metrics.

One caller in one process makes each call after the previous one returns.
A round is one pass over a workload's instances; the timed phase runs whole
rounds until at least ``seconds`` of round time has passed (always at least
one).  Every round's results are checked after the round, outside the timed
region.  A traced run spends the first half of its time untraced and the
second half traced, so the tracing overhead is measured in the same process.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .speed import SpeedProbe
from .trace import Tracer, summarize
from .workloads import WORKLOADS

MODULES = ("symcore", "decompose", "dualcone", "polyforms", "families", "cli")
SETUP_REPS = 9


class LibraryMissing(RuntimeError):
    """The checkout holds no importable ``factorwidth`` under ``src/``."""


def import_library(src: Path) -> SimpleNamespace:
    """Import ``factorwidth`` afresh from ``src`` and return its modules."""
    for name in [m for m in sys.modules
                 if m == "factorwidth" or m.startswith("factorwidth.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        package = importlib.import_module("factorwidth")
        mods = {m: importlib.import_module(f"factorwidth.{m}")
                for m in MODULES}
    except ImportError as exc:
        raise LibraryMissing(f"cannot import factorwidth from {src}: {exc}")
    origin = Path(package.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise LibraryMissing(f"factorwidth resolved to {origin}, "
                             f"not to the checkout's {src}")
    return SimpleNamespace(package=package, **mods)


# ---------------------------------------------------------------------------
# Environment fingerprint
# ---------------------------------------------------------------------------


def _git_commit(root: Path):
    """HEAD of the checkout when it is a git work tree, else None."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((src / "factorwidth").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(src)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _blas_vendor() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def fingerprint(root: Path, fw, seed: int) -> dict:
    opts = dataclasses.asdict(fw.decompose.SolverOptions())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_vendor(),
        "blas_threads": {k: v for k, v in os.environ.items()
                         if k.endswith("_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root / "src"),
        "seed": seed,
        "solver_defaults": opts,
    }


# ---------------------------------------------------------------------------
# Timed phase
# ---------------------------------------------------------------------------


class _Raised:
    def __init__(self, exc: BaseException):
        self.text = "".join(traceback.format_exception_only(type(exc), exc))


def _round(workload, fw, instances):
    intervals, results = [], []
    for inst in instances:
        t0 = time.perf_counter()
        try:
            result = workload.call(fw, inst)
        except Exception as exc:  # a library error fails the instance only
            result = _Raised(exc)
        intervals.append((t0, time.perf_counter()))
        results.append(result)
    return intervals, results


def _check(workload, fw, instances, results) -> list[tuple[str, str]]:
    failures = []
    for inst, result in zip(instances, results):
        if isinstance(result, _Raised):
            failures.append((inst.label, "raised " + result.text.strip()))
            continue
        try:
            reason = workload.check(fw, inst, result)
        except Exception as exc:
            reason = "check raised " + _Raised(exc).text.strip()
        if reason is not None:
            failures.append((inst.label, reason))
    return failures


class _Phase:
    """Per-instance time intervals, round by round, and the failures."""

    def __init__(self):
        self.rounds: list[list[tuple[float, float]]] = []
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []

    def run(self, workload, fw, instances, seconds, tracer=None):
        elapsed = 0.0
        while not self.rounds or elapsed < seconds:
            if tracer is not None:
                tracer.enabled = True
            intervals, results = _round(workload, fw, instances)
            if tracer is not None:
                tracer.enabled = False
            self.rounds.append(intervals)
            elapsed += intervals[-1][1] - intervals[0][0]
            self.attempted += len(instances)
            self.failures.extend(_check(workload, fw, instances, results))

    def latencies(self, measure) -> list[list[float]]:
        """Every instance's time as ``measure(t0, t1)``, grouped by round."""
        return [[measure(t0, t1) for t0, t1 in r] for r in self.rounds]


def _percentile(values, q):
    return float(np.percentile(values, q))


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "instances_per_s": "1/s",
    "latency_s.p50": "s",
    "latency_s.p90": "s",
    "peak_rss_mb": "MB",
}

_CALLS_AND_TIME = (
    "decompose.BlockDecomposition.build", "symcore.is_psd",
    "symcore.eigen_sym", "dualcone.verify_candidate",
    "dualcone.dual_membership", "dualcone.dykstra_dual_certificate",
    "dualcone.cos_certificate_search",
)
_TIME_ONLY = (
    "polyforms.multiplier_gram", "polyforms.multiply_weighted_power",
    "polyforms.default_gram", "polyforms.gram_to_poly",
    "polyforms.parity_aggregates", "families.pna_witness_decomposition",
    "dualcone.bnr_certificate", "dualcone.lift_quaternary_certificate",
)
_RATIOS = {
    "dualcone.verify_candidate.accept_ratio": "dualcone.verify_candidate",
    "dualcone.dykstra_dual_certificate.found_ratio":
        "dualcone.dykstra_dual_certificate",
    "dualcone.cos_certificate_search.found_ratio":
        "dualcone.cos_certificate_search",
}


def end_to_end(setup_times, rounds: list[list[float]]) -> dict:
    """End-to-end figures from set-up times and per-round instance times."""
    lat = [t for r in rounds for t in r]
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(sum(r) for r in rounds),
        "instances_per_s": len(lat) / sum(lat),
        "latency_s.p50": _percentile(lat, 50),
        "latency_s.p90": _percentile(lat, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def per_layer(summary: dict, rounds: int, traced_wall: float,
              overhead_s: float) -> dict[str, tuple[float, str]]:
    """Per-round layer figures as ``name -> (value, unit)``."""
    by = summary["by_name"]

    def get(span, key):
        return by.get(span, {}).get(key, 0) / rounds

    m = {}
    fwm = "decompose.fw_membership"
    for key, unit in (("calls", "count"), ("s", "s"), ("self_s", "s")):
        m[f"{fwm}.{key}"] = (get(fwm, key), unit)
    m["decompose.iterations"] = (get(fwm, "iterations"), "count")
    for status in ("member", "non_member", "inconclusive"):
        m[f"decompose.verdict.{status}"] = (get(fwm, status), "count")
    for span in _CALLS_AND_TIME:
        m[f"{span}.calls"] = (get(span, "calls"), "count")
        m[f"{span}.s"] = (get(span, "s"), "s")
    for name, span in _RATIOS.items():
        calls = by.get(span, {}).get("calls", 0)
        m[name] = (by[span]["found"] / calls if calls else 0.0, "ratio")
    for span in _TIME_ONLY:
        m[f"{span}.s"] = (get(span, "s"), "s")
    m["polyforms.soks_test.self_s"] = (get("polyforms.soks_test", "self_s"),
                                       "s")
    m["cli.main.calls"] = (get("cli.main", "calls"), "count")
    m["cli.main.self_s"] = (get("cli.main", "self_s"), "s")
    m["symcore.json.s"] = (get("symcore.load_matrix_json", "s")
                           + get("symcore.matrix_to_json", "s"), "s")
    m["trace.uncovered_share"] = (summary["uncovered_s"] / traced_wall,
                                  "ratio")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m


# ---------------------------------------------------------------------------
# A whole run
# ---------------------------------------------------------------------------


def run(name: str, seed: int, seconds: float, trace: bool, root: Path,
        out_dir: Path, smoke: bool = False) -> dict:
    """Set up, time, check and measure one workload; returns the report.

    Timings are in reference seconds (see :mod:`.speed`), the per-layer
    ones too; raw end-to-end seconds are reported beside them.  Raises
    :class:`LibraryMissing` before any measurement when the checkout has no
    library to run.
    """
    workload = WORKLOADS[name]
    workdir = out_dir / f"{name}-inputs"
    setup_spans = []
    untraced, traced, tracer = _Phase(), _Phase(), Tracer()
    with SpeedProbe() as probe:
        for _ in range(SETUP_REPS):
            if workdir.exists():
                shutil.rmtree(workdir)
            t0 = time.perf_counter()
            fw = import_library(root / "src")
            fx = fw.families.example_m_fixtures()
            instances = workload.generate(fw, fx, seed, smoke)
            workdir.mkdir(parents=True)
            workload.write(fw, instances, workdir)
            setup_spans.append((t0, time.perf_counter()))
        untraced.run(workload, fw, instances,
                     seconds / 2 if trace else seconds)
        if trace:
            tracer.install(fw)
            try:
                traced.run(workload, fw, instances, seconds / 2, tracer)
            finally:
                tracer.uninstall()

    def raw(t0, t1):
        return t1 - t0 - probe.kernel_s(t0, t1)

    setup_times = [probe.reference_s(*span) for span in setup_spans]
    ref_rounds = untraced.latencies(probe.reference_s)
    raw_rounds = untraced.latencies(raw)
    report = {
        "workload": name,
        "seconds": seconds,
        "trace": int(trace),
        "smoke": smoke,
        "fingerprint": fingerprint(root, fw, seed),
        "instances_per_round": len(instances),
        "host_speed": probe.speed(),
        "end_to_end": {
            k: {"value": v, "unit": END_TO_END_UNITS[k]}
            for k, v in end_to_end(setup_times, ref_rounds).items()},
        "end_to_end_raw": end_to_end([raw(*span) for span in setup_spans],
                                     raw_rounds),
        "samples": {"setup_s": len(setup_times), "wall_s": len(ref_rounds),
                    "latency_s.p50": sum(map(len, ref_rounds)),
                    "latency_s.p90": sum(map(len, ref_rounds))},
    }
    kinds: dict[str, list[float]] = {}
    for r in ref_rounds:
        for inst, t in zip(instances, r):
            kinds.setdefault(inst.label.split(":")[0], []).append(t)
    report["latency_by_kind"] = {
        kind: {"p50_s": _percentile(v, 50), "samples": len(v)}
        for kind, v in kinds.items()}

    phases = [untraced]
    if trace:
        phases.append(traced)
        rounds = len(traced.rounds)
        traced_walls = [sum(r) for r in traced.latencies(probe.reference_s)]
        summary = summarize(tracer.spans, sum(traced_walls),
                            probe.reference_s)
        overhead = (statistics.median(traced_walls)
                    - statistics.median(sum(r) for r in ref_rounds))
        layers = per_layer(summary, rounds, sum(traced_walls), overhead)
        report["per_layer"] = {k: {"value": v, "unit": u}
                               for k, (v, u) in layers.items()}
        report["samples"]["traced_rounds"] = rounds
        report["self_time"] = {
            span: {"calls": st["calls"] / rounds, "s": st["s"] / rounds,
                   "self_s": st["self_s"] / rounds,
                   "self_share": st["self_s"] / sum(traced_walls)}
            for span, st in sorted(summary["by_name"].items(),
                                   key=lambda kv: -kv[1]["self_s"])}
        spans_path = out_dir / f"{name}.spans.jsonl"
        tracer.write(spans_path)
        report["spans_file"] = str(spans_path)

    attempted = sum(p.attempted for p in phases)
    failures = [f for p in phases for f in p.failures]
    report["attempted"] = attempted
    report["failed"] = len(failures)
    report["failed_ratio"] = len(failures) / attempted
    report["failures"] = [{"instance": label, "reason": reason}
                          for label, reason in failures]
    return report
