"""repro.obs — instrumentation layer: metrics, events, spans, profiling.

The layer has five pieces:

* :mod:`repro.obs.registry` — aggregate metrics (counters, gauges,
  fixed-bucket duration histograms);
* :mod:`repro.obs.hist` — the histogram type and an exact
  interpolated-percentile helper for raw sample lists;
* :mod:`repro.obs.events` — structured event sinks (JSONL events,
  stderr structured logging, a no-op default);
* :mod:`repro.obs.spans` — the one way to time a region (:data:`TRACER`):
  every span observes the histogram of its own name while :data:`OBS` is
  enabled, and with ``--trace-spans`` is also logged as JSONL with
  trace/span ids propagated serve → scheduler → pool worker → engine;
* :mod:`repro.obs.profiler` — the experiment profiling harness behind
  ``python -m repro profile`` and ``BENCH_profile.json``.

Hot simulator code talks to one process-wide facade, :data:`OBS`::

    from repro.obs import OBS
    ...
    if OBS.enabled:
        OBS.count("cache.accesses", stats.accesses)
        OBS.emit("cache.simulate", config=config.describe(), misses=stats.misses)

``OBS`` starts *disabled*: ``OBS.enabled`` is a plain attribute, so the
disabled cost of a hook is one attribute load and a branch — bounded and
far below the 5% wall-clock budget. The facade is injectable for tests
and embedders: :func:`configure` swaps in a fresh registry/sink (or build
an independent :class:`Instrumentation` and pass it around explicitly).

Determinism contract: every field of every emitted event, and every
counter/gauge value, is a pure function of the simulated inputs (seed,
trace, configuration). Wall-clock time only ever enters histograms, span
logs and profiler output, never the event stream.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.obs.events import (
    EventSink,
    JsonlSink,
    MemorySink,
    MultiSink,
    NullSink,
    StderrSink,
)
from repro.obs.hist import (
    DEFAULT_LATENCY_BUCKETS,
    Histogram,
    percentile_interpolated,
)
from repro.obs.registry import Counter, Gauge, MetricsRegistry
from repro.obs.spans import (
    SPAN_SCHEMA,
    TRACER,
    SpanTracer,
    configure_tracing,
    disable_tracing,
)

__all__ = [
    "OBS",
    "Instrumentation",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_LATENCY_BUCKETS",
    "percentile_interpolated",
    "EventSink",
    "NullSink",
    "MemorySink",
    "JsonlSink",
    "StderrSink",
    "MultiSink",
    "TRACER",
    "SpanTracer",
    "SPAN_SCHEMA",
    "configure",
    "disable",
    "instrumented",
    "configure_tracing",
    "disable_tracing",
]


class Instrumentation:
    """A metrics registry plus an event sink behind one cheap gate.

    ``enabled`` gates everything; when False the facade's methods are
    never supposed to be called (call sites guard with ``if OBS.enabled``)
    but remain safe no-ops if they are.
    """

    __slots__ = ("registry", "sink", "enabled", "_seq")

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        sink: EventSink | None = None,
        *,
        enabled: bool = False,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.sink = sink if sink is not None else NullSink()
        self.enabled = enabled
        self._seq = 0

    # -- metrics -----------------------------------------------------------------

    def count(self, name: str, amount: int = 1) -> None:
        if self.enabled:
            self.registry.counter(name).inc(amount)

    def gauge(self, name: str, value: float) -> None:
        if self.enabled:
            self.registry.gauge(name).set(value)

    def hist(self, name: str, seconds: float) -> None:
        """Record *seconds* into the fixed-bucket histogram *name*.

        For durations that are data (a batch's share per job, a bench
        row's measured seconds). A region timed in this process is a
        span instead (:meth:`SpanTracer.span`), which feeds the
        histogram of its own name.
        """
        if self.enabled:
            self.registry.histogram(name).observe(seconds)

    # -- events ------------------------------------------------------------------

    def emit(self, kind: str, **fields: object) -> None:
        """Emit one structured event (if a real sink is attached)."""
        if not (self.enabled and self.sink.enabled):
            return
        self._seq += 1
        event: dict[str, object] = {"seq": self._seq, "kind": kind}
        event.update(fields)
        self.sink.emit(event)

    # -- lifecycle -----------------------------------------------------------------

    def activate(
        self,
        *,
        registry: MetricsRegistry | None = None,
        sink: EventSink | None = None,
    ) -> None:
        """Enable with a fresh (or given) registry and sink; resets seq."""
        self.registry = registry if registry is not None else MetricsRegistry()
        if sink is not None:
            self.sink.close()
            self.sink = sink
        self.enabled = True
        self._seq = 0
        TRACER.sync()

    def deactivate(self) -> None:
        """Return to the zero-overhead default state (fresh registry)."""
        self.sink.close()
        self.sink = NullSink()
        self.registry = MetricsRegistry()
        self.enabled = False
        self._seq = 0
        TRACER.sync()

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return f"<Instrumentation {state} sink={type(self.sink).__name__}>"


#: The process-wide facade every simulator layer imports. Disabled by
#: default; the CLI (and the profiler) turn it on for one run at a time.
OBS = Instrumentation()
TRACER.metrics = OBS  # spans feed OBS's histograms while it is enabled


def configure(
    *,
    registry: MetricsRegistry | None = None,
    sink: EventSink | None = None,
) -> Instrumentation:
    """Enable :data:`OBS` (fresh registry unless one is given) and return it."""
    OBS.activate(registry=registry, sink=sink)
    return OBS


def disable() -> None:
    """Disable :data:`OBS` and detach its sink."""
    OBS.deactivate()


@contextmanager
def instrumented(
    *,
    registry: MetricsRegistry | None = None,
    sink: EventSink | None = None,
) -> Iterator[Instrumentation]:
    """Context manager: enable :data:`OBS` for a block, then restore.

    The previous registry/sink/enabled state is restored on exit, so
    nesting and test isolation both work.
    """
    prev_registry, prev_sink = OBS.registry, OBS.sink
    prev_enabled, prev_seq = OBS.enabled, OBS._seq
    OBS.activate(registry=registry, sink=sink)
    try:
        yield OBS
    finally:
        if OBS.sink is not prev_sink:
            OBS.sink.close()
        OBS.registry, OBS.sink = prev_registry, prev_sink
        OBS.enabled, OBS._seq = prev_enabled, prev_seq
        TRACER.sync()
