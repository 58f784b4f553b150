"""The benchmark's own contract: deterministic inputs, clean smoke runs,
metric names as declared in BENCHMARK.json, and sample counts."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from fwbench import runner
from fwbench.trace import Tracer, summarize
from fwbench.workloads import WORKLOADS

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SEEDED = ("oracle_batch", "cli_mix", "exact_lift")


@pytest.fixture(scope="module")
def fw():
    return runner.import_library(ROOT / "src")


@pytest.fixture(scope="module")
def smoke_reports(tmp_path_factory):
    """One smoke-size traced run per workload (an untraced and a traced
    round each)."""
    out = tmp_path_factory.mktemp("smoke")
    return {name: runner.run(name, 3, 0.0, True, ROOT, out, smoke=True)
            for name in WORKLOADS}


def _written(fw, name, seed, workdir):
    workload = WORKLOADS[name]
    fx = fw.families.example_m_fixtures()
    workdir.mkdir()
    workload.write(fw, workload.generate(fw, fx, seed, False), workdir)
    return {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_generators_are_deterministic_for_a_seed(fw, name, tmp_path):
    first = _written(fw, name, 11, tmp_path / "a")
    assert first == _written(fw, name, 11, tmp_path / "b")
    other = _written(fw, name, 12, tmp_path / "c")
    if name in SEEDED:
        assert other != first
    else:
        assert other == first  # the paper's fixed fixture


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run_reports_no_failures(smoke_reports, name):
    report = smoke_reports[name]
    assert report["attempted"] >= 2
    assert report["failures"] == []
    assert report["failed_ratio"] == 0


def test_metric_names_match_benchmark_json(smoke_reports):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(declared["paths"]) == {"bench"}
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in declared["per_layer"]}
    for report in smoke_reports.values():
        assert {k: m["unit"] for k, m in report["end_to_end"].items()} == e2e
        assert {k: m["unit"] for k, m in report["per_layer"].items()} == layers


def test_each_percentile_carries_its_sample_count(smoke_reports):
    for report in smoke_reports.values():
        samples = report["samples"]
        expected = report["instances_per_round"] * samples["wall_s"]
        for name in report["end_to_end"]:
            if name.startswith("latency_s."):
                assert samples[name] == expected
        for kind in report["latency_by_kind"].values():
            assert kind["samples"] >= 1


def test_tracer_wraps_names_imported_elsewhere_and_restores_them(fw):
    original = fw.symcore.is_psd
    assert fw.decompose.is_psd is original
    tracer = Tracer()
    tracer.install(fw)
    try:
        assert fw.decompose.is_psd is fw.symcore.is_psd is not original
        tracer.enabled = True
        fw.families.pna_witness_decomposition(4, 3, 2)
        tracer.enabled = False
    finally:
        tracer.uninstall()
    assert fw.decompose.is_psd is original
    names = {span[2] for span in tracer.spans}
    assert {"families.pna_witness_decomposition",
            "decompose.BlockDecomposition.build", "symcore.is_psd",
            "symcore.eigen_sym"} <= names


def test_self_time_subtracts_direct_children_only():
    spans = [(1, 0, "c", 1.0, 2.0, None), (2, 1, "d", 1.2, 1.7, None),
             (0, None, "p", 0.0, 4.0, None)]
    summary = summarize(spans, traced_wall=5.0)
    by = summary["by_name"]
    assert by["p"]["self_s"] == pytest.approx(3.0)
    assert by["c"]["self_s"] == pytest.approx(0.5)
    assert by["d"]["self_s"] == pytest.approx(0.5)
    assert summary["uncovered_s"] == pytest.approx(1.0)


def test_run_fails_without_the_library(tmp_path):
    """A checkout holding only the benchmark must exit non-zero, silently."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "exact_lift",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
