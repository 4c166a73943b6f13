"""Tests of the benchmark itself: seeds, metric names, the real entry point.

Run with ``PYTHONPATH=src python -m pytest perfbench -q`` from the repository
root.  The entry-point tests start ``perfbench/run.py`` in a child process
at the ``smoke`` scale, which takes a few seconds per run.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.machine import REFERENCE_SECONDS, Speedometer
from perfbench.workloads import WORKLOADS, make_inputs
from repro.multiset.columnar import numpy_or_none

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_entry(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def run_result(workload: str, seed: int, trace: int) -> dict:
    completed = run_entry(
        "--workload", workload, "--seed", str(seed), "--seconds", "0.1",
        "--trace", str(trace), "--scale", "smoke",
    )
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    assert f"seed={seed}" in lines[-2]
    return json.loads(lines[-1])


def input_digest(workload: str, inputs: dict) -> list:
    """A comparable summary of a workload's generated inputs."""
    if workload == "engine_object":
        return [
            inputs["gcd"][1].values_with_label(inputs["gcd"][0].label),
            [(loop.kernel.name, loop.kernel.source) for loop in inputs["loops"]],
        ]
    if workload == "engine_columnar":
        return [w.initial.values_with_label(w.label) for w in inputs["classic"]]
    if workload == "shard_batch":
        return [
            inputs["sum_reduction"].initial.values_with_label("x"),
            sorted(map(repr, inputs["soup"].initial)),
        ]
    return [list(map(repr, next(inputs["feeders"]).elements()))]


def names_and_units(result: dict) -> dict:
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


def test_a_stretch_is_scaled_by_the_readings_around_it():
    meter = Speedometer()
    meter.readings = [(0.0, 1.0, 0.010), (2.0, 3.0, 0.020), (5.0, 6.0, 0.030), (8.0, 9.0, 0.5)]
    # The last reading before [1.5, 4.0], the one inside it and the first after.
    assert meter.scale(1.5, 4.0) == pytest.approx(REFERENCE_SECONDS / 0.020)
    assert meter.scale(6.5, 7.0) == pytest.approx(REFERENCE_SECONDS / 0.265)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_two_seeds_give_different_inputs(workload):
    first = input_digest(workload, make_inputs(workload, 1, "smoke"))
    again = input_digest(workload, make_inputs(workload, 1, "smoke"))
    other = input_digest(workload, make_inputs(workload, 2, "smoke"))
    assert first == again
    assert first != other


@pytest.mark.parametrize("trace, declared", [(0, "end_to_end"), (1, "per_layer")])
def test_two_seeds_report_the_same_metric_names_and_units(trace, declared):
    one = run_result("engine_columnar", 1, trace)
    two = run_result("engine_columnar", 2, trace)
    expected = {metric["name"]: metric["unit"] for metric in SPEC[declared]}
    assert names_and_units(one) == names_and_units(two) == expected


@pytest.mark.skipif(
    numpy_or_none() is None,
    reason="the prime_sieve crash is in the numpy branch; the scalar fallback passes",
)
def test_known_columnar_crash_is_counted_not_raised():
    result = run_result("engine_columnar", 3, 0)
    assert result["correct"] is True
    assert result["failed"] * 3 == result["attempted"]
    assert result["metrics"]["success_rate"]["value"] == pytest.approx(2 / 3)


def test_shard_stream_runs_through_the_entry_point():
    """Shard servers start under forkserver, which re-imports ``run.py``."""
    result = run_result("shard_stream", 1, 0)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = run_entry("--workload", "engine_object", "--seed", "1",
                          "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert completed.returncode != 0
    assert "{" not in completed.stdout
