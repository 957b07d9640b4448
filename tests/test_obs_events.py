"""Tests for event sinks, the Instrumentation facade, and determinism."""

import io
import json

from repro.mem.cache import Cache, CacheConfig
from repro.obs import (
    OBS,
    Instrumentation,
    JsonlSink,
    MemorySink,
    MetricsRegistry,
    MultiSink,
    NullSink,
    StderrSink,
    TRACER,
    instrumented,
)
from repro.workloads import get_workload


class TestSinks:
    def test_null_sink_is_disabled(self):
        sink = NullSink()
        assert sink.enabled is False
        sink.emit({"kind": "x"})  # swallowed, no error

    def test_memory_sink_collects_and_filters(self):
        sink = MemorySink()
        sink.emit({"kind": "a", "seq": 1})
        sink.emit({"kind": "b", "seq": 2})
        assert len(sink.events) == 2
        assert sink.of_kind("a") == [{"kind": "a", "seq": 1}]

    def test_jsonl_sink_writes_sorted_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = JsonlSink(str(path))
        sink.emit({"kind": "cache.evict", "seq": 1, "block": 7})
        sink.close()
        line = path.read_text().strip()
        assert line == '{"block": 7, "kind": "cache.evict", "seq": 1}'
        assert json.loads(line)["block"] == 7

    def test_jsonl_sink_on_stream_does_not_close_it(self):
        stream = io.StringIO()
        sink = JsonlSink(stream)
        sink.emit({"kind": "x", "seq": 1})
        sink.close()
        assert not stream.closed
        assert stream.getvalue().endswith("\n")

    def test_stderr_sink_formats_key_values(self):
        stream = io.StringIO()
        sink = StderrSink(stream)
        sink.emit({"kind": "core.run", "seq": 3, "cycles": 10})
        text = stream.getvalue()
        assert "core.run" in text
        assert "cycles=10" in text
        assert text.startswith("[repro]")

    def test_multi_sink_fans_out(self):
        first, second = MemorySink(), MemorySink()
        multi = MultiSink([first, second])
        multi.emit({"kind": "x", "seq": 1})
        assert first.events == second.events == [{"kind": "x", "seq": 1}]


class TestInstrumentationFacade:
    def test_disabled_by_default_and_noop(self):
        inst = Instrumentation()
        assert inst.enabled is False
        inst.count("n")  # no-op, nothing registered
        inst.emit("kind", a=1)
        assert inst.registry.counter_values() == {}

    def test_enabled_counts_and_emits(self):
        sink = MemorySink()
        inst = Instrumentation(sink=sink, enabled=True)
        inst.count("n", 2)
        inst.emit("kind.a", value=5)
        inst.emit("kind.b")
        assert inst.registry.counter_values() == {"n": 2}
        assert [e["seq"] for e in sink.events] == [1, 2]
        assert sink.events[0] == {"seq": 1, "kind": "kind.a", "value": 5}

    def test_emit_skips_event_construction_for_null_sink(self):
        inst = Instrumentation(enabled=True)  # NullSink
        inst.emit("kind", a=1)
        assert inst._seq == 0  # sequence untouched: nothing was built

    def test_span_feeds_its_histogram_and_emits_no_events(self):
        # Events stay deterministic: a timed region is a span whose
        # duration lands in the histogram of its name, never an event.
        sink = MemorySink()
        with instrumented(sink=sink):
            with TRACER.span("profile.stage.run"):
                OBS.emit("inner")
            histograms = OBS.registry.snapshot()["histograms"]
        assert [e["kind"] for e in sink.events] == ["inner"]
        assert histograms["profile.stage.run"]["count"] == 1
        assert not TRACER.timing

    def test_global_facade_starts_disabled(self):
        assert OBS.enabled is False
        assert isinstance(OBS.sink, NullSink)

    def test_instrumented_restores_previous_state(self):
        before = (OBS.registry, OBS.sink, OBS.enabled)
        with instrumented(sink=MemorySink()) as active:
            assert active is OBS
            assert OBS.enabled is True
        assert (OBS.registry, OBS.sink, OBS.enabled) == before


class TestSimulatorIntegration:
    """The hooks actually fire: counters and events from a real run."""

    def _trace(self, seed=3, refs=4000):
        return get_workload("Espresso").generate(seed=seed, max_refs=refs)

    def _config(self):
        # Two-way so the general (non-vectorized) path runs and emits
        # per-eviction events.
        return CacheConfig(size_bytes=2048, block_bytes=32, associativity=2)

    def test_cache_simulate_records_counters_and_events(self):
        trace = self._trace()
        sink = MemorySink()
        with instrumented(sink=sink):
            stats = Cache(self._config()).simulate(trace)
            counters = OBS.registry.counter_values()
        assert counters["cache.simulations"] == 1
        assert counters["cache.accesses"] == stats.accesses
        assert counters["cache.misses"] == stats.misses
        runs = sink.of_kind("cache.simulate")
        assert len(runs) == 1
        assert runs[0]["traffic_bytes"] == stats.total_traffic_bytes
        assert sink.of_kind("cache.evict")  # evictions happened and traced

    def test_disabled_run_touches_nothing(self):
        registry_before = OBS.registry
        stats = Cache(self._config()).simulate(self._trace())
        assert stats.accesses > 0
        assert OBS.registry is registry_before
        assert OBS.registry.counter_values() == {}

    def test_seeded_runs_are_deterministic(self):
        """Two identically-seeded runs: identical counters AND events."""

        def one_run():
            sink = MemorySink()
            with instrumented(sink=sink):
                Cache(self._config()).simulate(self._trace())
                counters = OBS.registry.counter_values()
            return counters, sink.events

        first_counters, first_events = one_run()
        second_counters, second_events = one_run()
        assert first_counters == second_counters
        assert first_events == second_events
        assert first_events  # the comparison is not vacuous

    def test_decompose_run_is_deterministic(self):
        """Timing-layer events (buses, MSHRs, cores) reproduce exactly."""
        from repro.cpu.configs import experiment
        from repro.cpu.machine import decompose_experiment

        workload = get_workload("Li")

        def one_run():
            sink = MemorySink()
            with instrumented(sink=sink):
                decompose_experiment(
                    workload, experiment("A", "SPEC92"), seed=0, max_refs=2000
                )
                counters = OBS.registry.counter_values()
            return counters, sink.events

        first_counters, first_events = one_run()
        second_counters, second_events = one_run()
        assert first_counters == second_counters
        assert first_events == second_events
        kinds = {event["kind"] for event in first_events}
        assert "core.run" in kinds
        assert "machine.result" in kinds
