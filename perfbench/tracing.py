"""Outside-in tracing: spans around the calls the benchmark makes into each layer.

Nothing here edits the library.  Spans come from three kinds of hooks, all
installed by the benchmark and removed again when a job ends:

* wrappers around public methods (``ShardCoordinator.start``,
  ``RoutingTable.migration_plan``, ``ElasticityPolicy.plan``,
  ``ShardSession.inject`` / ``checkpoint``, ``RecoveryManager.log_injection``,
  ``ColumnarKernel.drain``, ``ReactionScheduler.__init__``);
* :class:`BackendProxy`, put in place of ``session.backend`` so every shard
  protocol call the coordinator makes is timed, and :class:`ShadowBackend`,
  which times each in-process shard's local round separately;
* :class:`TracedMultiset` / :class:`TracedTrace`, passed to the public
  ``engine.drain()`` so firing (rewrite plus change notification) and trace
  recording are timed per firing.

Coarse boundaries are kept as spans: ``[name, start, end, parent, op]``, one
list per span, in memory until the run ends.  Per-firing boundaries would
cost one span per firing, so they are aggregated in place as ``(count,
seconds)`` under their parent span, which still lets :func:`span_summary`
compute self time (duration minus the time covered by children).
"""

from __future__ import annotations

import functools
import statistics
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.gamma.tracer import Trace
from repro.multiset import Multiset

#: Span names that count as set-up: work before the first firing can happen.
SETUP_SPANS = (
    "core.convert",
    "compiled.compile",
    "sharding.spawn_load",
    "gateway.bind",
    "gateway.connect",
)

#: Op name prefix of in-process shadow runs (excluded from layer totals).
SHADOW = "shadow:"

_MISSING = object()


class Tracer:
    """In-memory span recorder; one per job."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        #: (name, parent span) -> [count, seconds], for per-firing boundaries.
        self.hot: Dict[Tuple[str, int], List[float]] = {}
        #: (name, op) -> summed value, for counts read off results.
        self.counters: Dict[Tuple[str, str], float] = {}
        #: Live shard sessions seen by the ``ShardCoordinator.start`` hook.
        self.sessions: List[Any] = []
        self.op = ""
        self._stack: List[int] = []

    def open(self, name: str) -> int:
        """Start a span under the innermost open one; returns its id."""
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.op])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        """End span ``sid`` (spans nest, so it is the innermost one)."""
        self.spans[sid][2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        sid = self.open(name)
        try:
            yield
        finally:
            self.close(sid)

    def add(self, name: str, seconds: float, count: int = 1) -> None:
        """Aggregate a per-firing boundary under the innermost open span."""
        key = (name, self._stack[-1] if self._stack else -1)
        entry = self.hot.get(key)
        if entry is None:
            self.hot[key] = [count, seconds]
        else:
            entry[0] += count
            entry[1] += seconds

    def count(self, name: str, value: float) -> None:
        """Add ``value`` to the counter ``name`` of the current op."""
        key = (name, self.op)
        self.counters[key] = self.counters.get(key, 0) + value

    def peak(self, name: str, value: float) -> None:
        """Raise the counter ``name`` of the current op to at least ``value``."""
        key = (name, self.op)
        self.counters[key] = max(self.counters.get(key, value), value)

    # -- reading --------------------------------------------------------------
    def durations(
        self, name: str, ops: Optional[Sequence[str]] = None, parent: Optional[str] = None
    ) -> List[float]:
        """Durations of every span called ``name`` (shadow runs excluded).

        ``ops`` keeps only spans of those ops; ``parent`` only spans opened
        directly inside a span of that name.
        """
        return [
            span[2] - span[1]
            for span in self.spans
            if span[0] == name
            and not span[4].startswith(SHADOW)
            and (ops is None or span[4] in ops)
            and (parent is None or (span[3] >= 0 and self.spans[span[3]][0] == parent))
        ]

    def total(self, name: str, ops: Optional[Sequence[str]] = None) -> float:
        return sum(self.durations(name, ops))

    def hot_total(self, name: str, ops: Optional[Sequence[str]] = None) -> Tuple[float, float]:
        """``(count, seconds)`` of a per-firing boundary, optionally per op."""
        count = 0.0
        seconds = 0.0
        for (key, parent), (n, s) in self.hot.items():
            if key != name:
                continue
            op = self.spans[parent][4] if parent >= 0 else ""
            if op.startswith(SHADOW) or (ops is not None and op not in ops):
                continue
            count += n
            seconds += s
        return count, seconds

    def counter(self, name: str, ops: Optional[Sequence[str]] = None) -> float:
        return sum(
            value
            for (key, op), value in self.counters.items()
            if key == name
            and not op.startswith(SHADOW)
            and (ops is None or op in ops)
        )

    def setup_seconds(self, op: str) -> float:
        """Set-up time of one op: its outermost set-up spans."""
        total = 0.0
        for span in self.spans:
            if span[4] != op or span[0] not in SETUP_SPANS:
                continue
            parent = span[3]
            if parent >= 0 and self.spans[parent][0] in SETUP_SPANS:
                continue
            total += span[2] - span[1]
        return total


def span_summary(tracer: Tracer) -> Dict[str, Dict[str, float]]:
    """Per span name: count, total seconds and self seconds."""
    child = [0.0] * len(tracer.spans)
    for span in tracer.spans:
        if span[3] >= 0:
            child[span[3]] += span[2] - span[1]
    for (_, parent), (_, seconds) in tracer.hot.items():
        if parent >= 0:
            child[parent] += seconds
    summary: Dict[str, Dict[str, float]] = {}
    for sid, span in enumerate(tracer.spans):
        entry = summary.setdefault(span[0], {"count": 0, "total_s": 0.0, "self_s": 0.0})
        duration = span[2] - span[1]
        entry["count"] += 1
        entry["total_s"] += duration
        entry["self_s"] += duration - child[sid]
    for (name, _), (count, seconds) in tracer.hot.items():
        entry = summary.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
        entry["count"] += count
        entry["total_s"] += seconds
        entry["self_s"] += seconds
    return summary


# -- hooks ----------------------------------------------------------------------
class Patches:
    """Replace attributes for the length of a job and put them back."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def wrap(self, owner: Any, name: str, make: Callable[[Callable], Callable]) -> None:
        saved = owner.__dict__.get(name, _MISSING) if isinstance(owner, type) else _MISSING
        setattr(owner, name, make(getattr(owner, name)))
        self._undo.append((owner, name, saved))

    def restore(self) -> None:
        while self._undo:
            owner, name, saved = self._undo.pop()
            if saved is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, saved)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.restore()


def spanned(tracer: Tracer, name: str) -> Callable[[Callable], Callable]:
    """Wrapper factory: run the wrapped call inside a span called ``name``."""

    def make(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with tracer.span(name):
                return fn(*args, **kwargs)

        return wrapper

    return make


def hot(tracer: Tracer, name: str) -> Callable[[Callable], Callable]:
    """Wrapper factory: aggregate the wrapped call as a per-firing boundary."""

    def make(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            began = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.add(name, perf_counter() - began)

        return wrapper

    return make


def counting(tracer: Tracer, name: str) -> Callable[[Callable], Callable]:
    """Wrapper factory: count calls only (no clock reads)."""

    def make(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            tracer.add(name, 0.0)
            return fn(*args, **kwargs)

        return wrapper

    return make


class KernelPhases:
    """The columnar kernel's ``profiler=`` duck type, feeding a tracer."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer

    def add(self, phase: str, seconds: float) -> None:
        self.tracer.add("vectorized." + phase, seconds)


class TracedMultiset(Multiset):
    """A multiset whose validation-free rewrite (the firing path) is timed."""

    tracer: Optional[Tracer] = None

    def rewrite_unchecked(self, removed: Any, added: Any) -> None:
        began = perf_counter()
        super().rewrite_unchecked(removed, added)
        self.tracer.add("multiset.fire", perf_counter() - began)


class TracedTrace(Trace):
    """An execution trace whose per-firing ``record`` is timed."""

    def __init__(self, tracer: Tracer) -> None:
        super().__init__()
        self.tracer = tracer

    def record(self, *args: Any, **kwargs: Any) -> Any:
        began = perf_counter()
        try:
            return super().record(*args, **kwargs)
        finally:
            self.tracer.add("trace.record", perf_counter() - began)


class BackendProxy:
    """Stands in for ``session.backend`` and times every protocol call.

    ``label_counts`` and ``execute_transfers`` serve two callers: the
    exchange phase, which runs only after a round in which no shard fired,
    and the elasticity step, which runs only after a round that fired.  The
    proxy tells them apart by the last round's firings.
    """

    def __init__(self, backend: Any, tracer: Tracer) -> None:
        self._backend = backend
        self._tracer = tracer
        self._fired = 0

    def __getattr__(self, name: str) -> Any:
        return getattr(self._backend, name)

    def _call(self, span: str, method: str, *args: Any) -> Any:
        with self._tracer.span(span):
            return getattr(self._backend, method)(*args)

    def _local_round(self, max_supersteps: Any, budget: Any) -> list:
        return self._backend.superstep_all(max_supersteps=max_supersteps, budget=budget)

    def superstep_all(self, max_supersteps: Any = None, budget: Any = None) -> list:
        with self._tracer.span("sharding.round"):
            reports = self._local_round(max_supersteps, budget)
        self._fired = sum(report.fired for report in reports)
        return reports

    def _phase(self) -> str:
        return "elasticity" if self._fired else "sharding"

    def label_counts(self) -> Any:
        return self._call(f"{self._phase()}.label_counts", "label_counts")

    def execute_transfers(self, transfers: Any, detector: Any) -> Any:
        return self._call(
            f"{self._phase()}.transfers", "execute_transfers", transfers, detector
        )

    def steal(self, *args: Any) -> Any:
        return self._call("sharding.steal", "steal", *args)

    def collect_final(self) -> Any:
        return self._call("sharding.collect", "collect_final")

    def snapshot_all(self) -> Any:
        return self._call("sharding.snapshot", "snapshot_all")

    def ingest_batches(self, partitions: Any) -> Any:
        return self._call("sharding.ingest", "ingest_batches", partitions)

    def snapshot_shard_batches(self) -> Any:
        return self._call("recovery.snapshot", "snapshot_shard_batches")

    def stop(self) -> None:
        self._call("sharding.stop", "stop")


class ShadowBackend(BackendProxy):
    """Proxy for an in-process backend that times each shard's local round.

    The in-process backend runs its shards one after another, so each
    shard's compute time can be read separately; the slowest shard of a
    round is what a parallel backend would have to wait for.
    """

    def __init__(self, backend: Any, tracer: Tracer) -> None:
        super().__init__(backend, tracer)
        #: Slowest shard's local-round seconds, one entry per round.
        self.round_compute: List[float] = []

    def _local_round(self, max_supersteps: Any, budget: Any) -> list:
        reports = []
        slowest = 0.0
        for worker in self._backend.workers:
            began = perf_counter()
            reports.append(worker.run_local(max_supersteps=max_supersteps, budget=budget))
            slowest = max(slowest, perf_counter() - began)
        self.round_compute.append(slowest)
        return reports


def percentile(values: Sequence[float], q: int) -> float:
    """The ``q``-th percentile, interpolated between the samples.

    The inclusive method never extrapolates past the largest sample, so a
    p95 over a handful of spans (checkpoints, traced pumps) stays within
    the measured range.
    """
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    if q == 50:
        return float(statistics.median(values))
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1])
