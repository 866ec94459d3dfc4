"""Self-test of the benchmark: every workload at a tiny size.

    python3 -m pytest bench/test_bench.py -q

Checks that each workload reports exactly the metrics BENCHMARK.json names,
with their units, that no operation fails, and that traced spans nest.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import inputs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
SEED = 7


def tiny(workload):
    """Small inputs: a slice of the seeded pools."""
    if workload == "analyze-mix":
        return {"pool": inputs.analyze_pool(SEED, per_class=1)}
    if workload == "iso-pairs":
        return {"pool": inputs.iso_pool(SEED)[:12]}
    return {}


def units(metrics):
    return {name: unit for name, (_, unit) in metrics.items()}


def test_workloads_are_the_specified_ones():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run_reports_end_to_end_metrics(workload):
    metrics, attempted, failed, report, messages = workloads.run(
        workload, SEED, 0, False, **tiny(workload))
    assert units(metrics) == {k: v for k, v in END_TO_END.items() if k != "setup_s"}
    assert all(value > 0 for value, _ in metrics.values())
    assert attempted > 0
    assert failed == 0, messages
    assert report["failed_ratio"][0] == 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_reports_layers_and_spans_nest(workload):
    metrics, attempted, failed, report, messages = workloads.run(
        workload, SEED, 0, True, **tiny(workload))
    assert units(metrics) == PER_LAYER
    assert failed == 0, messages
    assert report["trace.spans"][0] > 0
    assert report["trace.nesting_errors"][0] == 0
    assert report["trace.missing_layers"][0] == 0
    if workload in ("analyze-mix", "iso-pairs"):
        assert metrics["trace.coverage"][0] >= 0.9


def test_nesting_check_catches_bad_spans():
    good = [["op", 0.0, 10.0, -1], ["a", 1.0, 4.0, 0], ["b", 5.0, 9.0, 0], ["c", 2.0, 3.0, 1]]
    assert tracing.nesting_errors(good) == []
    assert tracing.self_times(good) == [3.0, 2.0, 4.0, 1.0]
    outside = [["op", 0.0, 10.0, -1], ["a", 8.0, 11.0, 0]]
    assert tracing.nesting_errors(outside)
    overfull = [["op", 0.0, 10.0, -1], ["a", 0.0, 6.0, 0], ["b", 4.0, 10.0, 0]]
    assert tracing.nesting_errors(overfull)


def test_wrappers_are_removed_after_a_traced_run():
    import compalg.derivations as dv
    import compalg.numerics as nm

    before = (dv.nullspace, nm.nullspace)
    with tracing.Tracer() as tracer:
        assert dv.nullspace is not before[0] and nm.nullspace is dv.nullspace
        assert not tracer.missing
    assert (dv.nullspace, nm.nullspace) == before


def run_cli(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_command_prints_the_result_line():
    proc = run_cli(ROOT, "--workload", "enumerate", "--seed", str(SEED), "--seconds", "1",
                   "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
    assert "report enumerate_forms_per_s" in proc.stdout


def test_command_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_cli(tmp_path, "--workload", "enumerate", "--seed", "1", "--seconds", "1",
                   "--trace", "0")
    assert proc.returncode != 0
    assert not proc.stdout.strip()
