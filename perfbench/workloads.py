"""The four workloads: seeded inputs, one job each, and the output oracles.

Every workload is a *job*: a fixed list of operations, each driven through a
public entry point and checked against an oracle before the job's clock
stops.  ``make_inputs(workload, seed)`` builds everything a job needs from
the seed alone; the library only ever sees the generated inputs.

The seed draws the values; the *shape* of the work (how many firings, how
many barrier rounds) is held fixed, so that runs with different seeds
measure the same amount of work:

* ``gcd`` lists its minimum first.  The sequential engine's firing count
  depends on where the gcd value sits in insertion order (it swings 2.5x
  across seeds otherwise); minimum first fixes it to within ~1%.
* ``gcd_loop`` draws its operands until Euclid-by-subtraction takes exactly
  ``Sizes.gcd_loop_steps`` steps.
* chemistry soups keep one reaction network (:data:`NETWORK_SEED`) and draw
  only the molecule pool from the seed; a fresh network per seed changes
  the firing count by ~30%.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
import sys
from dataclasses import dataclass, field
from time import perf_counter, sleep
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.api import RuntimeConfig
from repro.core import dataflow_to_gamma
from repro.dataflow import run_graph
from repro.frontend import compile_source_to_graph
from repro.gamma import ColumnarKernel, ReactionScheduler, SequentialEngine, run
from repro.gamma.engine import DEFAULT_MAX_STEPS
from repro.gamma.stdlib import values_multiset
from repro.runtime import (
    DistributedGammaRuntime,
    ElasticityPolicy,
    RecoveryManager,
    ShardCoordinator,
)
from repro.runtime.net import GatewayClient
from repro.runtime.sharding import RoutingTable, ShardSession
from repro.runtime.streaming import StreamingGammaRuntime
from repro.workloads import (
    PoolFeeder,
    gcd_loop,
    make_soup,
    make_workload,
    multiset_mass,
    triangular,
)

from .machine import READING_SLACK, Speedometer
from .tracing import (
    SHADOW,
    BackendProxy,
    KernelPhases,
    Patches,
    ShadowBackend,
    TracedMultiset,
    TracedTrace,
    Tracer,
    counting,
    hot,
    percentile,
    spanned,
)

WORKLOADS = ("engine_object", "engine_columnar", "shard_batch", "shard_stream")

#: Seed of the fixed chemistry reaction network (the pool varies by seed).
NETWORK_SEED = 2019
#: Shards of both shard workloads (sized for a 2-core machine).
SHARDS = 2
#: Distinct pool splits the stream's jobs take in turn.
STREAM_FEEDERS = 4


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one scale; ``smoke`` is for tests, ``full`` is measured."""

    gcd: int = 2000
    sieve: int = 600
    triangular: int = 400
    #: Euclid-by-subtraction steps of every ``gcd_loop`` input.
    gcd_loop_steps: int = 150
    columnar: int = 10**5
    columnar_sieve: int = 800
    batch_sum: int = 10**4
    batch_gcd: int = 3000
    soup_blocks: int = 32
    soup_molecules: int = 800
    #: Per-shard firing budget per superstep on the batch soup: keeps one
    #: hot shard from draining in a handful of rounds, so placement shows.
    soup_budget: int = 4
    stream_blocks: int = 16
    #: Decay threshold of the stream's soup, far above any reachable mass, so
    #: decay never fires.  Decay takes one unit per round, so one condensed
    #: molecule can make one epoch last 300+ rounds; whether that happens
    #: depends on the seed, and on one seed it tripled the run's p95.
    stream_decay_threshold: int = 10**9
    stream_batches: int = 90
    stream_batch_size: int = 32
    #: Open-loop batch rate.  Two network shards saturate near 40/s; at
    #: 25/s the pump's p95 (43 ms) nearly filled the 40 ms slot, so in the
    #: machine's slow phases batches queued and a run's p95 doubled.
    stream_rate: float = 16.0
    stream_hold: int = 800
    #: Pumps between epoch checkpoints.
    checkpoint_every: int = 4
    #: Pumps between consistent ``snapshot()`` reads.
    snapshot_every: int = 16


SCALES = {
    "full": Sizes(),
    "smoke": Sizes(
        gcd=60,
        sieve=40,
        triangular=12,
        gcd_loop_steps=8,
        columnar=300,
        columnar_sieve=800,
        batch_sum=200,
        batch_gcd=60,
        soup_blocks=4,
        soup_molecules=40,
        stream_blocks=4,
        stream_batches=6,
        stream_batch_size=8,
        stream_rate=50.0,
        stream_hold=16,
        checkpoint_every=2,
        snapshot_every=2,
    ),
}


# -- operation records ------------------------------------------------------------
@dataclass
class JobRecord:
    """What one job did: timings, verified work, and every failed op.

    Times are in reference seconds (``machine.py``) unless named wall.
    """

    job_s: float = 0.0
    setup_s: float = 0.0
    firings: int = 0
    elements: int = 0
    busy_s: float = 0.0
    #: Epoch latencies, one per admitted batch (stream only).
    latencies: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    errors: Dict[str, str] = field(default_factory=dict)
    #: The job's wall seconds.
    wall_s: float = 0.0
    #: Wall seconds spent waiting for the open loop's next due time.
    idle_s: float = 0.0
    #: The stream's busy stretches in wall seconds: ``(start, end,
    #: latencies of the batches the stretch's pump admitted)``.
    stretches: List[Tuple[float, float, List[float]]] = field(default_factory=list)

    def fail(self, op: str, reason: str) -> None:
        self.failed += 1
        self.errors[op] = reason


@dataclass
class Op:
    """One operation: an entry call whose output an oracle checks."""

    name: str
    call: Callable[[Tracer, bool], Tuple[Any, int]]
    check: Callable[[Any], bool]
    elements: int
    #: The same op on the in-process backend (shard ops, traced runs only).
    shadow: Optional[Callable[[], Any]] = None


def run_op(record: JobRecord, tracer: Tracer, op: Op, traced: bool) -> None:
    """Run ``op`` and check its output; a failure is counted, never raised."""
    tracer.op = op.name
    record.attempted += 1
    began = perf_counter()
    try:
        output, firings = op.call(tracer, traced)
        ok = op.check(output)
    except Exception as exc:  # an op failure is data: count it and go on
        record.fail(op.name, type(exc).__name__)
        return
    finally:
        seconds = perf_counter() - began
        record.busy_s += seconds
        record.setup_s += tracer.setup_seconds(op.name)
    if not ok:
        record.wrong += 1
        record.fail(op.name, "WrongOutput")
        return
    record.firings += firings
    record.elements += op.elements
    tracer.count("firings", firings)


def sorted_values(label: str, expected: Sequence[Any]) -> Callable[[Any], bool]:
    want = sorted(expected)
    return lambda final: sorted(final.values_with_label(label)) == want


# -- inputs ---------------------------------------------------------------------------
def gcd_input(size: int, seed: int) -> Tuple[Any, Any]:
    """``make_workload("gcd")`` values with the minimum listed first."""
    workload = make_workload("gcd", size, seed=seed)
    values = workload.initial.values_with_label(workload.label)
    smallest = min(values)
    values.remove(smallest)
    return workload, values_multiset([smallest] + values, workload.label)


def classic_check(workload: Any) -> Callable[[Any], bool]:
    """Oracle from ``expected_values``; ``min_element`` keeps every minimum.

    ``Rmin`` only fires on ``a < b``, so equal minima never react and the
    stable multiset holds every copy of the minimum, while
    ``expected_values`` lists one.  The copies are counted from the input.
    """
    if workload.name == "min_element":
        values = workload.initial.values_with_label(workload.label)
        return sorted_values(workload.label, [min(values)] * values.count(min(values)))
    return sorted_values(workload.label, workload.expected_values)


def subtraction_steps(a: int, b: int) -> int:
    """Steps of Euclid by repeated subtraction on ``(a, b)``."""
    steps = 0
    while b:
        steps += a // b
        a, b = b, a % b
    return steps - 1


def gcd_loop_operands(rng: random.Random, steps: int) -> Tuple[int, int]:
    while True:
        a, b = rng.randint(2, 10**6), rng.randint(2, 10**6)
        if subtraction_steps(max(a, b), min(a, b)) == steps:
            return a, b


def hot_bases(blocks: int, shards: int) -> List[str]:
    """Block label prefixes whose routing group homes on shard 0."""
    probe = make_soup(
        blocks=4 * blocks, species_per_block=3, molecules=1, seed=NETWORK_SEED,
        label_base=lambda index: f"hot{index}_",
    )
    table = RoutingTable(probe.program.reactions, shards)
    bases = [f"hot{i}_" for i in range(4 * blocks) if table.destination(f"hot{i}_s0") == 0]
    return bases[:blocks]


def soup(blocks: int, molecules: int, seed: int, **options: Any) -> Any:
    """A pool drawn from ``seed`` over the fixed network's species."""
    shape = dict(blocks=blocks, species_per_block=3, value_low=1, value_high=8, **options)
    network = make_soup(molecules=1, seed=NETWORK_SEED, **{
        key: value for key, value in shape.items() if key != "element_home"
    })
    pool = make_soup(molecules=molecules, seed=seed, **shape)
    return dataclasses.replace(pool, program=network.program)


@dataclass
class LoopInput:
    """A loop kernel and its dataflow-interpreter reference output."""

    kernel: Any
    reference: List[Any]
    elements: int


def make_inputs(workload: str, seed: int, scale: str = "full") -> Dict[str, Any]:
    """Every input of ``workload``, generated from ``seed`` alone."""
    sizes = SCALES[scale]
    rng = random.Random(seed)
    if workload == "engine_object":
        loops = []
        for kernel in (
            triangular(sizes.triangular - 10 + rng.randrange(21)),
            gcd_loop(*gcd_loop_operands(rng, sizes.gcd_loop_steps)),
        ):
            graph = kernel.graph()
            reference = run_graph(graph).output_values(kernel.output)
            loops.append(LoopInput(kernel, reference, len(dataflow_to_gamma(graph).initial)))
        return {
            "gcd": gcd_input(sizes.gcd, seed),
            "prime_sieve": make_workload("prime_sieve", sizes.sieve, seed=seed),
            "loops": loops,
        }
    if workload == "engine_columnar":
        return {
            "classic": [
                make_workload("min_element", sizes.columnar, seed=seed),
                make_workload("sum_reduction", sizes.columnar, seed=seed),
                make_workload("prime_sieve", sizes.columnar_sieve, seed=seed),
            ]
        }
    if workload == "shard_batch":
        bases = hot_bases(sizes.soup_blocks, SHARDS)
        return {
            "sum_reduction": make_workload("sum_reduction", sizes.batch_sum, seed=seed),
            "gcd": gcd_input(sizes.batch_gcd, seed),
            "soup": soup(
                sizes.soup_blocks, sizes.soup_molecules, seed,
                label_base=lambda index: bases[index], element_home=(0, SHARDS),
            ),
            "sizes": sizes,
        }
    if workload == "shard_stream":
        molecules = sizes.stream_hold + sizes.stream_batches * sizes.stream_batch_size
        pool = soup(sizes.stream_blocks, molecules, seed,
                    decay_threshold=sizes.stream_decay_threshold)
        # Each job streams its own split of the pool, so a run's latency
        # percentiles cover several batch mixes, not one mix repeated.
        feeders = [
            PoolFeeder(
                pool,
                batch_size=sizes.stream_batch_size,
                hold_back=sizes.stream_hold / molecules,
                seed=rng.randrange(2**32),
            )
            for _ in range(STREAM_FEEDERS)
        ]
        return {"pool": pool, "feeders": itertools.cycle(feeders), "sizes": sizes}
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


# -- engine workloads -------------------------------------------------------------------
def traced_drain(tracer: Tracer, program: Any, initial: Any, columnar: bool) -> Tuple[Any, int]:
    """What ``run()`` does for one block, built from its public parts.

    Builds the scheduler and calls ``engine.drain()`` directly, so the
    multiset, trace and scheduler handed in can be instrumented.
    """
    engine = SequentialEngine(columnar=columnar)
    engine.profiler = KernelPhases(tracer)
    multiset = TracedMultiset()
    multiset.tracer = tracer
    multiset.add_counts(initial.counts().items())
    with Patches() as patches:
        with tracer.span("compiled.compile"):
            scheduler = ReactionScheduler(program.reactions, multiset, columnar=columnar)
        patches.wrap(scheduler, "find_first", hot(tracer, "scheduler.match"))
        # Every compiled probe reads the index's bucket map exactly once.
        patches.wrap(scheduler.index, "label_tag_buckets", counting(tracer, "scheduler.probe"))
        try:
            with tracer.span("engine.drain"):
                _, firings, _ = engine.drain(
                    scheduler, multiset, TracedTrace(tracer), max_steps=DEFAULT_MAX_STEPS
                )
        finally:
            scheduler.detach()
    return multiset, firings


def engine_call(program: Any, initial: Any, columnar: bool) -> Callable:
    config = RuntimeConfig(columnar=True) if columnar else RuntimeConfig()

    def call(tracer: Tracer, traced: bool) -> Tuple[Any, int]:
        if traced:
            return traced_drain(tracer, program, initial, columnar)
        result = run(program, initial, config=config)
        return result.final, result.firings

    return call


def loop_op(loop: LoopInput) -> Op:
    """Algorithm 1 on a loop kernel, then a run of the converted program."""
    kernel = loop.kernel

    def call(tracer: Tracer, traced: bool) -> Tuple[Any, int]:
        with tracer.span("core.convert"):
            graph = compile_source_to_graph(kernel.source, name=kernel.name)
            conversion = dataflow_to_gamma(graph)
        return engine_call(conversion.program, conversion.initial, False)(tracer, traced)

    def check(final: Any) -> bool:
        values = final.values_with_label(kernel.output)
        return values == [kernel.expected] and values == loop.reference

    return Op(kernel.name, call, check, loop.elements)


def engine_object_ops(inputs: Dict[str, Any]) -> List[Op]:
    gcd, gcd_initial = inputs["gcd"]
    sieve = inputs["prime_sieve"]
    return [
        Op("gcd", engine_call(gcd.program, gcd_initial, False), classic_check(gcd),
           len(gcd_initial)),
        Op("prime_sieve", engine_call(sieve.program, sieve.initial, False),
           classic_check(sieve), len(sieve.initial)),
    ] + [loop_op(loop) for loop in inputs["loops"]]


def engine_columnar_ops(inputs: Dict[str, Any]) -> List[Op]:
    return [
        Op(w.name, engine_call(w.program, w.initial, True), classic_check(w), len(w.initial))
        for w in inputs["classic"]
    ]


def dataflow_reference(tracer: Tracer, inputs: Dict[str, Any]) -> None:
    """Interpret the loop graphs directly: the dataflow side of the ratio."""
    for loop in inputs["loops"]:
        tracer.op = loop.kernel.name
        graph = loop.kernel.graph()
        with tracer.span("dataflow.interp"):
            result = run_graph(graph)
        tracer.count("dataflow.firings", result.total_firings)


# -- shard workloads --------------------------------------------------------------------
def session_counters(tracer: Tracer, session: Any) -> None:
    """Read a finished session's protocol counters into the op's counters."""
    tracer.count("sharding.migrations", session.migrations)
    tracer.count("sharding.messages", session.messages)
    tracer.count("sharding.steals", session.steals)
    tracer.count("elasticity.group_migrations", session.group_migrations)
    tracer.count("elasticity.scale_events", session.scale_events)
    shards = session.per_shard_firings
    if sum(shards):
        tracer.count("sharding.balance_sum", max(shards) * len(shards) / sum(shards))
        tracer.count("sharding.balance_ops", 1)
    tracer.count("net.wire_bytes", getattr(session.backend, "wire_bytes", 0))


def soup_policy() -> ElasticityPolicy:
    """Migration-only policy: eager, no resizes (two shards stay two)."""
    return ElasticityPolicy(
        seed=0, patience=1, cooldown=3, migrate_imbalance=1.3,
        split_threshold=10**9, merge_threshold=0, max_moves_per_round=8,
    )


def batch_run(program: Any, initial: Any, backend: str, budget: Optional[int],
              elastic: bool) -> Any:
    config = RuntimeConfig(
        backend=backend, shards=SHARDS, elasticity=soup_policy() if elastic else None
    )
    runtime = DistributedGammaRuntime(program, config=config, firings_per_worker_step=budget)
    return runtime.run(initial)


def shard_op(name: str, program: Any, initial: Any, check: Callable, budget: Optional[int] = None,
             elastic: bool = False) -> Op:
    def call(tracer: Tracer, traced: bool) -> Tuple[Any, int]:
        result = batch_run(program, initial, "multiprocessing", budget, elastic)
        return result.final, result.firings

    return Op(name, call, check, len(initial),
              shadow=lambda: batch_run(program, initial, "inprocess", budget, elastic))


def shard_batch_ops(inputs: Dict[str, Any]) -> List[Op]:
    total = inputs["sum_reduction"]
    gcd, gcd_initial = inputs["gcd"]
    pool = inputs["soup"]
    return [
        shard_op("sum_reduction", total.program, total.initial, classic_check(total)),
        shard_op("gcd", gcd.program, gcd_initial, classic_check(gcd)),
        shard_op(
            "soup", pool.program, pool.initial,
            lambda final: multiset_mass(final) == pool.initial_mass,
            budget=inputs["sizes"].soup_budget, elastic=True,
        ),
    ]


def install_shard_hooks(patches: Patches, tracer: Tracer, traced: bool) -> None:
    """Time ``ShardCoordinator.start``; when traced, proxy the session's backend."""

    def start(original: Callable) -> Callable:
        def wrapper(self: Any, initial: Any = None) -> Any:
            with tracer.span("sharding.spawn_load"):
                session = original(self, initial)
            if traced:
                proxy = ShadowBackend if self.backend_name == "inprocess" else BackendProxy
                session.backend = proxy(session.backend, tracer)
            tracer.sessions.append(session)
            return session

        return wrapper

    patches.wrap(ShardCoordinator, "start", start)
    if not traced:
        return
    patches.wrap(RoutingTable, "migration_plan", spanned(tracer, "sharding.plan"))
    patches.wrap(ElasticityPolicy, "plan", spanned(tracer, "elasticity.plan"))
    patches.wrap(ShardSession, "inject", spanned(tracer, "streaming.inject"))
    patches.wrap(ShardSession, "checkpoint", spanned(tracer, "recovery.checkpoint"))
    patches.wrap(RecoveryManager, "log_injection", spanned(tracer, "recovery.wal_append"))


def transport_wait(tracer: Tracer, op: str, shadow: Any) -> None:
    """Round time minus the shadow run's slowest shard, summed over rounds.

    Both runs make the same decisions for the same inputs, so round ``i`` of
    one is round ``i`` of the other; a differing round count is reported.
    """
    rounds = tracer.durations("sharding.round", ops=[op])
    compute = shadow.backend.round_compute
    if len(rounds) != len(compute):
        print(f"perfbench: op {op} ran {len(rounds)} rounds, its in-process shadow "
              f"{len(compute)}; transport wait pairs the first rounds only", file=sys.stderr)
    tracer.op = op
    tracer.count("sharding.transport_wait_s", sum(
        max(0.0, spent - slowest) for spent, slowest in zip(rounds, compute)
    ))


def run_shadow(tracer: Tracer, op: str, replay: Callable[[], Any]) -> None:
    """Replay ``op`` on the in-process backend and derive its transport wait."""
    tracer.op = SHADOW + op
    before = len(tracer.sessions)
    replay()
    transport_wait(tracer, op, tracer.sessions[before])


# -- streaming workload -------------------------------------------------------------
def drive_stream(record: JobRecord, tracer: Tracer, inputs: Dict[str, Any], feeder: PoolFeeder,
                 backend: str, replay: Optional[List[List[int]]] = None,
                 meter: Optional[Speedometer] = None) -> List[List[int]]:
    """One gateway-fed stream: open loop, or a replay of recorded pump groups.

    Open loop: batch ``i`` is due at ``t0 + i / rate``; before each pump every
    due batch is put through the gateway.  ``meter`` takes a reading in the
    waits that leave room for one.  Returns the batches each pump admitted,
    so a shadow run can replay the same epochs.
    """
    sizes: Sizes = inputs["sizes"]
    batches = feeder.schedule()
    config = RuntimeConfig(
        backend=backend, shards=SHARDS, recovery=RecoveryManager(),
        checkpoint_interval=sizes.checkpoint_every,
    )
    runtime = StreamingGammaRuntime(inputs["pool"].program, config=config)
    groups: List[List[int]] = []
    client = None
    try:
        with tracer.span("gateway.bind"):
            gateway = runtime.serve_gateway()
        with tracer.span("gateway.connect"):
            client = GatewayClient(gateway.port, tenant="perfbench")
        runtime.start(feeder.initial.copy())
        with tracer.span("streaming.pump"):
            runtime.pump()
        mass = multiset_mass(feeder.initial)
        late: List[float] = []
        t0 = perf_counter()
        due = [t0 + index / sizes.stream_rate for index in range(len(batches))]
        pending = list(replay) if replay is not None else None
        index = 0
        while index < len(batches):
            if pending is not None:
                group = pending.pop(0)
            else:
                idle = perf_counter()
                if meter is not None and due[index] - idle > READING_SLACK:
                    meter.read(calls=1)
                wait = due[index] - perf_counter()
                if wait > 0:
                    sleep(wait)
                record.idle_s += perf_counter() - idle
                group = []
                now = perf_counter()
                while index + len(group) < len(batches) and due[index + len(group)] <= now:
                    group.append(index + len(group))
            busy = perf_counter()
            for batch in group:
                late.append(perf_counter() - due[batch])
                record.attempted += 1
                try:
                    with tracer.span("gateway.put"):
                        client.put(list(batches[batch]))
                except (OSError, RuntimeError, TimeoutError, ValueError) as exc:
                    record.fail(f"put{batch}", type(exc).__name__)
                    continue
                mass += sum(element.value for element in batches[batch])
            index = max(group, default=index - 1) + 1
            with tracer.span("streaming.pump"):
                runtime.pump()
            done = perf_counter()
            record.stretches.append((busy, done, [done - due[batch] for batch in group]))
            groups.append(group)
            tracer.peak("streaming.backlog_max", len(group))
            if len(groups) % sizes.snapshot_every == 0:
                record.attempted += 1
                with tracer.span("streaming.snapshot"):
                    snapshot = runtime.snapshot()
                if multiset_mass(snapshot) != mass:
                    record.wrong += 1
                    record.fail(f"snapshot{len(groups)}", "WrongOutput")
        busy = perf_counter()
        runtime.close_stream()
        while not runtime.drained:
            with tracer.span("streaming.pump"):
                runtime.pump()
        with tracer.span("streaming.close"):
            runtime.close()
        result = runtime.result()
        record.stretches.append((busy, perf_counter(), []))
        record.attempted += 1
        if multiset_mass(result.final) != mass:
            record.wrong += 1
            record.fail("final", "WrongOutput")
        else:
            record.firings += result.firings
            record.elements += result.injected
        tracer.count("streaming.generator_late_ms", 1e3 * percentile(late, 95))
        tracer.count("gateway.refusals", gateway.refused + gateway.timeouts)
        tracer.count("gateway.wire_bytes", gateway.wire_bytes)
    finally:
        if client is not None:
            client.close()
        runtime.close()
    return groups


# -- jobs --------------------------------------------------------------------------------
OPS = {
    "engine_object": engine_object_ops,
    "engine_columnar": engine_columnar_ops,
    "shard_batch": shard_batch_ops,
}


def timed_op(record: JobRecord, meter: Speedometer, call: Callable[[], None]) -> None:
    """Run one batch op; the wall seconds it adds to ``record`` become reference seconds."""
    setup, busy = record.setup_s, record.busy_s
    began = perf_counter()
    call()
    ended = perf_counter()
    meter.read()
    scale = meter.scale(began, ended)
    record.wall_s += ended - began
    record.job_s += scale * (ended - began)
    record.setup_s = setup + scale * (record.setup_s - setup)
    record.busy_s = busy + scale * (record.busy_s - busy)


def run_job(workload: str, inputs: Dict[str, Any], tracer: Tracer, traced: bool,
            meter: Speedometer) -> JobRecord:
    """One job of ``workload``: its ops in turn, ``meter`` read between them."""
    record = JobRecord()
    with Patches() as patches:
        if workload.startswith("engine"):
            if traced:
                patches.wrap(ColumnarKernel, "drain", kernel_drain(tracer))
            else:
                patches.wrap(ReactionScheduler, "__init__", spanned(tracer, "compiled.compile"))
        else:
            install_shard_hooks(patches, tracer, traced)
        if workload == "shard_stream":
            stream_job(record, tracer, inputs, traced, meter)
            return record
        ops = OPS[workload](inputs)
        for op in ops:
            before = len(tracer.sessions)
            timed_op(record, meter, lambda: run_op(record, tracer, op, traced))
            for session in tracer.sessions[before:]:
                session_counters(tracer, session)
        if traced and workload == "engine_object":
            dataflow_reference(tracer, inputs)
        elif traced and workload == "shard_batch":
            for op in ops:
                run_shadow(tracer, op.name, op.shadow)
    return record


def stream_job(record: JobRecord, tracer: Tracer, inputs: Dict[str, Any], traced: bool,
               meter: Speedometer) -> None:
    """The stream as one op; a stream that cannot run at all is one failed op.

    Each busy stretch (puts and a pump, or the final drain) is scaled to
    reference seconds by the readings around it; waits for the schedule stay
    in wall seconds.
    """
    tracer.op = "stream"
    feeder = next(inputs["feeders"])
    began = perf_counter()
    try:
        groups = drive_stream(record, tracer, inputs, feeder, "network", meter=meter)
    except Exception as exc:  # counted like any failed op, never raised
        record.attempted += 1
        record.fail("stream", type(exc).__name__)
        groups = None
    ended = perf_counter()
    meter.read()
    scale = meter.scale(began, ended)
    busy_wall = 0.0
    for start, end, latencies in record.stretches:
        stretch = meter.scale(start, end)
        busy_wall += end - start
        record.busy_s += stretch * (end - start)
        record.latencies.extend(stretch * seconds for seconds in latencies)
    record.wall_s = ended - began
    # The rest (set-up, snapshot reads) is scaled by the op's readings.
    rest = record.wall_s - record.idle_s - busy_wall
    record.job_s = record.busy_s + scale * rest + record.idle_s
    record.setup_s = scale * tracer.setup_seconds("stream")
    for session in tracer.sessions:
        session_counters(tracer, session)
    if traced and groups is not None:
        run_shadow(tracer, "stream", lambda: drive_stream(
            JobRecord(), tracer, inputs, feeder, "inprocess", replay=groups
        ))


def kernel_drain(tracer: Tracer) -> Callable[[Callable], Callable]:
    """Time ``ColumnarKernel.drain`` and count the drains that bail."""

    def make(original: Callable) -> Callable:
        def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
            with tracer.span("vectorized.drain"):
                steps, firings, outcome = original(self, *args, **kwargs)
            if outcome == "bail":
                tracer.count("vectorized.bails", 1)
            return steps, firings, outcome

        return wrapper

    return make
