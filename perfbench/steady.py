"""Steadiness check: two sets of seeded runs per workload, spread against bounds.

Usage, from the repository root::

    python3 perfbench/steady.py

For every workload of ``BENCHMARK.json`` it makes two sets of ten runs of
``perfbench/run.py --trace 0`` at the benchmark's ``run_seconds``, each run
in a child process with its own seed (set ``k`` uses seeds ``100 k + 1``
to ``100 k + 10``).  For every end-to-end metric it prints, per set, the
median, the quartiles (``statistics.quantiles(values, n=4)``), the spread
``(q3 - q1) / median`` and its share of the metric's bound, and the drift
of the second set's median from the first's.  A spread must stay within
the bound (``setup_s`` is exempt) and a drift within the bound, for every
metric; the exit code is 1 if one does not, or if an output is wrong.
Raw results go to ``.bench_out/steady.json``.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
SETS = 2
SEEDS = 10


def run_once(workload: str, seed: int, seconds: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def worse_by(metric: dict, base: float, value: float) -> float:
    """How much worse ``value`` is than ``base``, as a share of ``base``."""
    change = (value - base) / base
    return change if metric["better"] == "lower" else -change


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    raw = {}
    ok = True
    for workload in (entry["name"] for entry in spec["workloads"]):
        sets = []
        for index in range(SETS):
            runs = []
            for seed in range(100 * index + 1, 100 * index + SEEDS + 1):
                result = run_once(workload, seed, seconds)
                if not result["correct"]:
                    print(f"{workload} seed {seed}: incorrect output", file=sys.stderr)
                    ok = False
                runs.append(result)
            sets.append(runs)
        raw[workload] = sets
        print(f"\n{workload}: {SETS} sets x {SEEDS} seeds, {seconds} s per run")
        print(f"  {'metric':30} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>7} {'bound':>6} {'share':>6} {'drift':>7}  verdict")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            bound = metric["bound"]
            first = None
            for index, runs in enumerate(sets):
                values = [run["metrics"][name]["value"] for run in runs]
                median = statistics.median(values)
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / median if median else float("inf")
                drift = 0.0 if first is None else worse_by(metric, first, median)
                first = median if first is None else first
                verdict = "ok"
                if name != "setup_s" and spread > bound:
                    verdict = "SPREAD"
                if drift > bound:
                    verdict = "DRIFT"
                ok = ok and verdict == "ok"
                print(f"  {name:30} {index + 1:>3} {median:12.5g} {q1:12.5g} {q3:12.5g} "
                      f"{spread:7.3f} {bound:6.2f} {spread / bound:6.2f} {drift:7.3f}  "
                      f"{verdict}")
    out = ROOT / ".bench_out" / "steady.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(raw, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
