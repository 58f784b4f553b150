"""Run one factorwidth benchmark workload and print its metrics.

    python3 bench/run.py --workload oracle_batch --seed 7 --trace 0
    python3 bench/run.py --workload all --seed 7 --seconds 10 --trace 1

Run from the root of a checkout; the library is imported from its ``src/``.
The human-readable tables go first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics untraced, the per-layer metrics with ``--trace 1``).  The
full report, with the environment fingerprint and sample counts, is written
to ``bench/out/<workload>.trace<0|1>.json``; a traced run also writes its
spans to ``bench/out/<workload>.spans.jsonl``.  ``--workload all`` runs every
workload in its own child process, one after another.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# BLAS reads its thread count once, when numpy loads: pin it first.  One
# thread: the load is a single caller, and on the 2x2..6x6 blocks the solvers
# batch, a second OpenBLAS thread made Qprime slower (12.7-14.6 s against
# 11.9 s on 2 cores) and its timings noisier.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, str(BENCH))

from fwbench import runner  # noqa: E402
from fwbench.workloads import WORKLOADS  # noqa: E402


def _table(title, rows):
    lines = [title]
    width = max(len(r[0]) for r in rows)
    for row in rows:
        lines.append("  " + row[0].ljust(width) + "  " + "  ".join(row[1:]))
    return "\n".join(lines)


def _print_report(report):
    fp = report["fingerprint"]
    print(f"== {report['workload']}  seed {fp['seed']}  "
          f"seconds {report['seconds']}  trace {report['trace']}")
    print(f"   python {fp['python']}  numpy {fp['numpy']}  blas {fp['blas']} "
          f"threads {fp['blas_threads'].get('OPENBLAS_NUM_THREADS')}  "
          f"nproc {fp['nproc']}  commit {fp['git_commit']}  "
          f"src {fp['source_sha256'][:12]}")
    samples = report["samples"]
    rows = [("metric", "value", "unit", "raw", "samples")]
    for name, m in report["end_to_end"].items():
        rows.append((name, f"{m['value']:.6g}", m["unit"],
                     f"{report['end_to_end_raw'][name]:.6g}",
                     f"n={samples[name]}" if name in samples else ""))
    rows.append(("failed_ratio", f"{report['failed_ratio']:.6g}", "ratio",
                 "", f"{report['failed']}/{report['attempted']}"))
    print(_table(f"end to end (untraced; reference seconds, host speed "
                 f"{report['host_speed']:.3f}):", rows))
    print(_table("latency by instance kind:", [
        (kind, f"p50 {v['p50_s']:.6g}", "s", f"(n={v['samples']})")
        for kind, v in report["latency_by_kind"].items()]))
    if report["trace"]:
        rows = [(span, f"{st['calls']:.6g}", f"{st['s']:.6g}",
                 f"{st['self_s']:.6g}", f"{100 * st['self_share']:.1f}%")
                for span, st in report["self_time"].items()]
        rows.insert(0, ("span", "calls/round", "s/round", "self_s/round",
                        "self share"))
        print(_table(f"self time per module (traced, "
                     f"{samples['traced_rounds']} rounds):", rows))
        pl = report["per_layer"]
        print(f"   uncovered share {pl['trace.uncovered_share']['value']:.4f}"
              f"  tracing overhead {pl['trace.overhead_s']['value']:.4g} s"
              f"/round  spans {report['spans_file']}")
    for f in report["failures"][:20]:
        print(f"   FAILED {f['instance']}: {f['reason']}")


def _run_all(args) -> int:
    """Each workload in a fresh interpreter: set-up and memory are its own."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(lines[-1])
    print(json.dumps({"workloads": results}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return _run_all(args)

    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    try:
        report = runner.run(args.workload, args.seed, args.seconds,
                            bool(args.trace), ROOT, out_dir)
    except runner.LibraryMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    (out_dir / f"{args.workload}.trace{args.trace}.json").write_text(
        json.dumps(report, indent=1))
    _print_report(report)
    metrics = report["per_layer"] if args.trace else report["end_to_end"]
    print(json.dumps({"correct": report["failed"] == 0,
                      "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
