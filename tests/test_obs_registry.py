"""Tests for the metrics registry (counters, gauges, histograms, snapshots)."""

import threading

import pytest

from repro.errors import ConfigurationError
from repro.obs.hist import DEFAULT_LATENCY_BUCKETS
from repro.obs.registry import Counter, Gauge, MetricsRegistry


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        counter = Counter("x")
        assert counter.value == 0
        counter.inc()
        counter.inc(5)
        assert counter.value == 6


class TestGauge:
    def test_last_value_wins(self):
        gauge = Gauge("occupancy")
        gauge.set(3.0)
        gauge.set(1.5)
        assert gauge.value == 1.5


class TestMetricsRegistry:
    def test_get_or_create_returns_same_instance(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("h") is registry.histogram("h")
        assert registry.gauge("g") is registry.gauge("g")

    def test_kind_conflicts_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ConfigurationError):
            registry.gauge("x")
        with pytest.raises(ConfigurationError):
            registry.histogram("x")

    def test_snapshot_structure_and_sorting(self):
        registry = MetricsRegistry()
        registry.counter("b").inc(2)
        registry.counter("a").inc(1)
        registry.gauge("g").set(4.0)
        registry.histogram("t").observe(0.5)
        snapshot = registry.snapshot()
        assert list(snapshot) == ["counters", "gauges", "histograms"]
        assert list(snapshot["counters"]) == ["a", "b"]
        assert snapshot["counters"] == {"a": 1, "b": 2}
        assert snapshot["gauges"] == {"g": 4.0}
        assert snapshot["histograms"]["t"]["count"] == 1

    def test_counter_values_is_just_the_counters(self):
        registry = MetricsRegistry()
        registry.counter("n").inc(3)
        registry.gauge("g").set(1.0)
        assert registry.counter_values() == {"n": 3}

    def test_reset_drops_everything(self):
        registry = MetricsRegistry()
        registry.counter("n").inc()
        registry.reset()
        assert registry.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }

    def test_histogram_kind_shares_the_namespace(self):
        registry = MetricsRegistry()
        registry.histogram("h")
        with pytest.raises(ConfigurationError):
            registry.counter("h")
        with pytest.raises(ConfigurationError):
            registry.gauge("h")

    def test_histogram_snapshot_appears(self):
        registry = MetricsRegistry()
        registry.histogram("lat").observe(0.003)
        snap = registry.snapshot()
        assert snap["histograms"]["lat"]["count"] == 1


class TestDeltaMerge:
    def test_merge_adds_counters_and_histogram_samples(self):
        worker = MetricsRegistry()
        worker.counter("n").inc(3)
        worker.histogram("h").observe(0.002)
        worker.histogram("h").observe(0.3)
        parent = MetricsRegistry()
        parent.counter("n").inc(1)
        parent.histogram("h").observe(0.05)
        parent.merge(worker.delta())
        assert parent.counter("n").value == 4
        hist = parent.histogram("h")
        assert hist.count == 3
        assert hist.total == pytest.approx(0.352)
        assert (hist.min, hist.max) == (0.002, 0.3)
        assert sum(hist.counts) == 3
        assert len(hist.counts) == len(DEFAULT_LATENCY_BUCKETS) + 1

    def test_delta_is_plain_picklable_data(self):
        import pickle

        registry = MetricsRegistry()
        registry.counter("n").inc()
        registry.histogram("h").observe(0.01)
        delta = pickle.loads(pickle.dumps(registry.delta()))
        fresh = MetricsRegistry()
        fresh.merge(delta)
        assert fresh.snapshot() == registry.snapshot()

    def test_merge_rejects_mismatched_buckets(self):
        source = MetricsRegistry()
        source.histogram("h", bounds=(0.1, 1.0)).observe(0.5)
        target = MetricsRegistry()
        target.histogram("h").observe(0.5)
        with pytest.raises(ConfigurationError):
            target.merge(source.delta())


class TestExposition:
    def test_groups_and_sorted_names(self):
        registry = MetricsRegistry()
        registry.counter("b.second").inc(2)
        registry.counter("a.first").inc(1)
        registry.gauge("g").set(1.5)
        registry.histogram("t").observe(0.5)
        registry.histogram("h").observe(0.003)
        text = registry.exposition()
        lines = text.splitlines()
        assert lines[0] == "# counters"
        assert lines[1] == "a.first 1"
        assert lines[2] == "b.second 2"
        assert [line for line in lines if line.startswith("#")] == [
            "# counters", "# gauges", "# histograms",
        ]
        # count leads each summary block; stats follow alphabetically.
        for prefix in ("t.", "h."):
            stats = [line for line in lines if line.startswith(prefix)]
            assert stats[0] == f"{prefix}count 1"
            assert [line.split()[0] for line in stats[1:]] == sorted(
                line.split()[0] for line in stats[1:]
            )

    def test_deterministic_output_for_same_state(self):
        def build():
            registry = MetricsRegistry()
            registry.counter("z").inc(3)
            registry.counter("a").inc(1)
            registry.gauge("m").set(2.0)
            return registry.exposition()

        assert build() == build()

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().exposition() == ""

    def test_name_escaping_keeps_lines_parseable(self):
        registry = MetricsRegistry()
        registry.counter("weird name").inc(2)
        registry.counter("back\\slash").inc(3)
        registry.counter("new\nline").inc(4)
        text = registry.exposition()
        lines = text.splitlines()
        # One header plus one line per counter: newlines never leak.
        assert len(lines) == 4
        parsed = {}
        for line in lines[1:]:
            name, _, value = line.rpartition(" ")
            parsed[name] = int(value)
        assert parsed == {
            "weird\\_name": 2,
            "back\\\\slash": 3,
            "new\\nline": 4,
        }

    def test_float_values_keep_full_precision(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(0.1 + 0.2)
        assert f"g {(0.1 + 0.2)!r}" in registry.exposition()

    def test_scrape_during_concurrent_updates(self):
        """A /metrics render racing counter and histogram updates must
        neither crash nor produce malformed lines."""
        registry = MetricsRegistry()
        errors: list[BaseException] = []

        def writer(index: int) -> None:
            try:
                for _ in range(2000):
                    registry.counter(f"c.{index}").inc()
                    registry.histogram(f"h.{index}").observe(0.001)
            except BaseException as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(index,), daemon=True)
            for index in range(4)
        ]
        for thread in threads:
            thread.start()
        scrapes = 0
        while scrapes < 20 or (
            any(thread.is_alive() for thread in threads) and scrapes < 500
        ):
            scrapes += 1
            for line in registry.exposition().splitlines():
                if line.startswith("#"):
                    continue
                name, _, value = line.rpartition(" ")
                assert name and value
                float(value)  # every value parses as a number
        for thread in threads:
            thread.join(timeout=30)
        assert not errors

    def test_concurrent_counter_increments_lose_nothing(self):
        registry = MetricsRegistry()

        def bump() -> None:
            for _ in range(10_000):
                registry.counter("n").inc()

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert registry.counter("n").value == 40_000

    def test_racing_creation_yields_one_instance(self):
        registry = MetricsRegistry()
        instances = []
        barrier = threading.Barrier(8)

        def create() -> None:
            barrier.wait()
            instances.append(registry.counter("shared"))

        threads = [threading.Thread(target=create) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(set(map(id, instances))) == 1
