"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload engine_object --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` prints the per-layer metrics of a traced run and writes its
spans to ``.bench_out/``.  The last line of standard output is the result
object; failed operations are listed on standard error.

The module body only defines names: shard servers start under
``forkserver``, which re-imports the main module in every server process.
"""

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "smoke"), default="full",
        help="input sizes; 'smoke' is a seconds-long run for tests",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no library source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    # A run writes only under its checkout, temporary files included.  The
    # forkserver binds a Unix socket in the temporary directory, and a socket
    # path may not exceed 108 bytes, so this process names the directory
    # relative to its working directory; child processes get it absolute.
    tmp = ROOT / ".bench_out" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = os.path.relpath(tmp)
    from perfbench.harness import measure
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = measure(spec, args.workload, args.seed, args.seconds, bool(args.trace),
                     scale=args.scale, out_dir=ROOT / ".bench_out")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
