"""Job loop and metric computation behind ``perfbench/run.py``.

An untraced run repeats its workload's job until ``--seconds`` have passed
(at least :data:`MIN_JOBS` times) and reports each job time as the median
over its jobs, in reference seconds (see :mod:`perfbench.machine`).  A
traced run alternates untraced and traced jobs, reports each per-layer
metric as the median over its traced jobs, and the tracing overhead as the
ratio of the two job-time medians.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
from collections import Counter
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Sequence, Tuple

from .machine import Speedometer
from .tracing import Tracer, percentile, span_summary
from .workloads import JobRecord, make_inputs, run_job

#: Jobs an untraced run makes even when they overrun ``--seconds``.
MIN_JOBS = 3

#: The programs of ``engine_object``, broken out by per-program metrics.
OBJECT_PROGRAMS = ("gcd", "prime_sieve", "triangular", "gcd_loop")
LOOPS = ("triangular", "gcd_loop")


def _ratio(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return scale * numerator / denominator if denominator else 0.0


def end_to_end(jobs: Sequence[JobRecord]) -> Dict[str, float]:
    """The user-visible metrics, from untraced jobs.

    Every job time, in reference seconds, is summed up by its median over
    the jobs, the same on every workload; the stream's latency percentiles
    are taken over every batch of the run.
    """
    attempted = sum(job.attempted for job in jobs)
    failed = sum(job.failed for job in jobs)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports the largest reaped descendant: one shard's high-water mark.
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    job_s = statistics.median(job.job_s for job in jobs)
    # A batch job's final multisets become visible together: its one epoch
    # is the job.
    latencies = [seconds for job in jobs for seconds in job.latencies] or [job_s]
    return {
        "setup_s": statistics.median(job.setup_s for job in jobs),
        "job_s": job_s,
        "firings_per_s": statistics.median(job.firings for job in jobs)
        / statistics.median(job.job_s - job.setup_s for job in jobs),
        "epoch_latency_p50_ms": 1e3 * percentile(latencies, 50),
        "epoch_latency_p95_ms": 1e3 * percentile(latencies, 95),
        "stream_capacity_elems_per_s": (
            statistics.median(job.elements for job in jobs)
            / statistics.median(job.busy_s for job in jobs)
        ),
        "peak_rss_mb": (own + children) / 1024.0,
        "success_rate": (attempted - failed) / attempted,
    }


def layer_metrics(tr: Tracer) -> Dict[str, float]:
    """Per-layer metrics of one traced job (idle layers read 0)."""
    m: Dict[str, float] = {}
    interp = tr.total("dataflow.interp")
    m["core.convert_s"] = tr.total("core.convert")
    m["dataflow.interp_s"] = interp
    m["dataflow.firings"] = tr.counter("dataflow.firings")
    m["core.gamma_dataflow_ratio"] = _ratio(tr.total("engine.drain", LOOPS), interp)
    m["compiled.compile_s"] = tr.total("compiled.compile")

    firings = tr.counter("firings")
    probes, _ = tr.hot_total("scheduler.probe")
    _, match_s = tr.hot_total("scheduler.match")
    m["scheduler.match_calls"] = probes
    m["scheduler.match_s"] = match_s
    m["scheduler.match_us_per_firing"] = _ratio(match_s, firings if probes else 0, 1e6)
    m["scheduler.yield"] = _ratio(firings, probes)
    for program in OBJECT_PROGRAMS:
        fired = tr.counter("firings", [program])
        program_probes, _ = tr.hot_total("scheduler.probe", [program])
        _, program_s = tr.hot_total("scheduler.match", [program])
        m[f"scheduler.match_us_per_firing.{program}"] = _ratio(
            program_s, fired if program_probes else 0, 1e6
        )
        m[f"scheduler.yield.{program}"] = _ratio(fired, program_probes)

    fires, fire_s = tr.hot_total("multiset.fire")
    m["multiset.fire_s"] = fire_s
    m["multiset.fire_us_per_firing"] = _ratio(fire_s, fires, 1e6)
    m["trace.record_s"] = tr.hot_total("trace.record")[1]

    m["vectorized.drain_s"] = tr.total("vectorized.drain")
    for phase in ("guard", "fire", "notify"):
        m[f"vectorized.{phase}_s"] = tr.hot_total(f"vectorized.{phase}")[1]
    m["vectorized.bails"] = tr.counter("vectorized.bails")

    rounds = tr.durations("sharding.round")
    m["sharding.spawn_load_s"] = tr.total("sharding.spawn_load")
    m["sharding.rounds"] = len(rounds)
    m["sharding.round_ms"] = 1e3 * percentile(rounds, 50)
    m["sharding.transport_wait_s"] = tr.counter("sharding.transport_wait_s")
    m["sharding.exchange_s"] = (
        tr.total("sharding.label_counts") + tr.total("sharding.plan")
        + tr.total("sharding.transfers")
    )
    m["sharding.migrations"] = tr.counter("sharding.migrations")
    m["sharding.steal_s"] = tr.total("sharding.steal")
    m["sharding.steals"] = tr.counter("sharding.steals")
    m["sharding.collect_s"] = tr.total("sharding.collect") + sum(
        tr.durations("sharding.snapshot", parent="streaming.close")
    )
    m["sharding.stop_s"] = tr.total("sharding.stop")
    m["sharding.messages"] = tr.counter("sharding.messages")
    m["sharding.firing_balance"] = _ratio(
        tr.counter("sharding.balance_sum"), tr.counter("sharding.balance_ops")
    )

    m["elasticity.plan_s"] = tr.total("elasticity.plan") + tr.total("elasticity.label_counts")
    m["elasticity.group_migrations"] = tr.counter("elasticity.group_migrations")
    m["elasticity.scale_events"] = tr.counter("elasticity.scale_events")

    wire = tr.counter("net.wire_bytes")
    m["net.wire_bytes"] = wire
    m["net.wire_bytes_per_round"] = _ratio(wire, len(rounds))
    m["gateway.put_ms"] = 1e3 * percentile(tr.durations("gateway.put"), 50)
    m["gateway.refusals"] = tr.counter("gateway.refusals")
    m["gateway.wire_bytes"] = tr.counter("gateway.wire_bytes")

    pumps = tr.durations("streaming.pump")
    m["streaming.pump_ms_p50"] = 1e3 * percentile(pumps, 50)
    m["streaming.pump_ms_p95"] = 1e3 * percentile(pumps, 95)
    m["streaming.inject_s"] = tr.total("streaming.inject")
    m["streaming.backlog_max"] = tr.counter("streaming.backlog_max")
    m["streaming.generator_late_ms"] = tr.counter("streaming.generator_late_ms")

    checkpoints = tr.durations("recovery.checkpoint")
    m["recovery.checkpoint_ms"] = 1e3 * percentile(checkpoints, 50)
    m["recovery.checkpoints"] = len(checkpoints)
    m["recovery.wal_append_ms"] = 1e3 * percentile(tr.durations("recovery.wal_append"), 50)
    return m


def write_spans(path: Path, tracers: Sequence[Tracer]) -> None:
    """Write every traced job's spans, aggregates and self-time summary."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as out:
        for job, tr in enumerate(tracers):
            for sid, (name, start, end, parent, op) in enumerate(tr.spans):
                out.write(json.dumps({
                    "job": job, "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op,
                }) + "\n")
            for (name, parent), (count, seconds) in tr.hot.items():
                out.write(json.dumps({
                    "job": job, "aggregate": name, "parent": parent,
                    "count": count, "seconds": seconds,
                }) + "\n")
            out.write(json.dumps({"job": job, "summary": span_summary(tr)}) + "\n")


def _jobs(
    workload: str, inputs: Any, seconds: float, traced: bool
) -> Tuple[List[JobRecord], List[Tuple[JobRecord, Tracer]]]:
    """Repeat the job (or untraced/traced pairs) for about ``seconds``.

    A new job (pair) starts only if the median one so far still fits, so a
    run overshoots ``seconds`` by less than one job.  One
    :class:`Speedometer` reads the machine's speed along the whole run.
    """
    plain: List[JobRecord] = []
    traced_jobs: List[Tuple[JobRecord, Tracer]] = []
    began = perf_counter()
    spent: List[float] = []
    meter = Speedometer()
    while True:
        # Every job starts from a collected heap; the collection is not timed.
        gc.collect()
        start = perf_counter()
        plain.append(run_job(workload, inputs, Tracer(), False, meter))
        if traced:
            tracer = Tracer()
            gc.collect()
            traced_jobs.append((run_job(workload, inputs, tracer, True, meter), tracer))
        spent.append(perf_counter() - start)
        enough = len(spent) >= (1 if traced else MIN_JOBS)
        if enough and perf_counter() - began + statistics.median(spent) > seconds:
            break
    return plain, traced_jobs


def stop_helper_processes() -> None:
    """Stop multiprocessing's forkserver and resource tracker, and wait for them.

    The network backend starts both on first use and the interpreter only
    closes their pipes at exit; stopping them here means every process the
    run started has ended before it reports, and that the shard servers'
    memory high-water mark reaches ``RUSAGE_CHILDREN`` through the reaped
    forkserver.  ``_stop`` is the stdlib's own (private) shutdown hook,
    hence the guarded lookup.
    """
    from multiprocessing import forkserver, resource_tracker

    for helper in (getattr(forkserver, "_forkserver", None),
                   getattr(resource_tracker, "_resource_tracker", None)):
        stop = getattr(helper, "_stop", None)
        if stop is not None:
            stop()


def measure(spec: Dict[str, Any], workload: str, seed: int, seconds: float, trace: bool,
            scale: str = "full", out_dir: Path = Path(".bench_out")) -> Dict[str, Any]:
    """One benchmark run; returns the result object ``run.py`` prints."""
    inputs = make_inputs(workload, seed, scale)
    try:
        plain, traced_jobs = _jobs(workload, inputs, seconds, trace)
    finally:
        stop_helper_processes()
    records = plain + [record for record, _ in traced_jobs]
    if trace:
        per_job = [layer_metrics(tracer) for _, tracer in traced_jobs]
        values = {name: statistics.median(job[name] for job in per_job) for name in per_job[0]}
        values["trace.overhead_frac"] = (
            statistics.median(record.job_s for record, _ in traced_jobs)
            / statistics.median(record.job_s for record in plain) - 1.0
        )
        declared = spec["per_layer"]
        write_spans(out_dir / f"spans-{workload}-seed{seed}.jsonl",
                    [tracer for _, tracer in traced_jobs])
    else:
        values = end_to_end(plain)
        declared = spec["end_to_end"]
    names = [metric["name"] for metric in declared]
    if sorted(names) != sorted(values):
        raise RuntimeError(
            f"metrics {sorted(set(values) ^ set(names))} are computed or declared, not both"
        )
    failures = Counter(item for record in records for item in record.errors.items())
    for (op, reason), times in sorted(failures.items()):
        print(f"perfbench: {workload} op {op} failed {times}x: {reason}", file=sys.stderr)
    print(f"perfbench: workload={workload} seed={seed} scale={scale} trace={int(trace)} "
          f"jobs={len(records)} wall_job_s={statistics.median(r.wall_s for r in plain):.6g}")
    return {
        "correct": not any(record.wrong for record in records),
        "attempted": sum(record.attempted for record in records),
        "failed": sum(record.failed for record in records),
        "metrics": {
            metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
            for metric in declared
        },
    }
