"""One timing model: spans feed bounded histograms, once per region run.

Every timed region is a span (:mod:`repro.obs.spans`); while ``OBS`` is
enabled each closed span observes the fixed-bucket histogram of its own
name. These tests pin the three properties that model exists for:
memory stays bounded however long a server lives, each task/row/cell
that actually ran is observed exactly once on every execution path, and
cache hits replay no time.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.cli import main
from repro.exec import Task, execution, run_tasks
from repro.experiments import table7
from repro.experiments.runner import ScaledAxis, evaluate_grid
from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    OBS,
    TRACER,
    configure_tracing,
    disable_tracing,
    instrumented,
)
from repro.obs.spans import read_spans
from repro.serve.admission import AdmissionQueue
from repro.serve.jobs import JobRecord, JobTable
from repro.serve.scheduler import Scheduler
from repro.workloads import get_workload


def noop(value: int) -> int:
    """Module-level (hence picklable) trivial task."""
    return value


def size_in_kb(workload, simulated_size: int) -> float:
    """A per-cell measure (no ``measure_row``): one sweep.cell per cell."""
    return simulated_size / 1024


def run_cli(*argv: str) -> str:
    out = io.StringIO()
    assert main(list(argv), out=out) == 0, out.getvalue()
    return out.getvalue()


def histogram_counts() -> dict[str, int]:
    return {
        name: summary["count"]
        for name, summary in OBS.registry.snapshot()["histograms"].items()
    }


class TestSpanFeedsHistogram:
    def test_timing_flag_follows_obs_and_the_span_log(self, tmp_path):
        assert TRACER.timing is False
        with instrumented():
            assert TRACER.timing is True
        assert TRACER.timing is False
        configure_tracing(str(tmp_path / "spans.jsonl"))
        try:
            assert TRACER.timing is True
        finally:
            disable_tracing()
        assert TRACER.timing is False

    def test_span_without_log_still_observes_its_histogram(self):
        with instrumented():
            with TRACER.span("sim.cache", engine="scalar") as span:
                # No span log: no ids, no ambient context to leak.
                assert span.span_id == ""
                assert TRACER.current() is None
            TRACER.emit_span("sim.chunk", 10.0, 10.25)
            TRACER.emit_span("sim.chunk", 11.0, 10.0)  # clock stepped back
            snapshot = OBS.registry.snapshot()["histograms"]
        assert snapshot["sim.cache"]["count"] == 1
        assert snapshot["sim.chunk"]["count"] == 2
        assert snapshot["sim.chunk"]["total_s"] == pytest.approx(0.25)

    def test_disabled_spans_record_nothing(self):
        registry = OBS.registry
        with TRACER.span("sim.cache"):
            pass
        TRACER.emit_span("sim.chunk", 1.0, 2.0)
        assert TRACER.begin("serve.request") is None
        assert registry.snapshot()["histograms"] == {}

    def test_logged_span_and_histogram_agree(self, tmp_path):
        log = tmp_path / "spans.jsonl"
        configure_tracing(str(log))
        try:
            with instrumented():
                with TRACER.span("sweep.row", workload="Li"):
                    pass
                histogram = OBS.registry.histogram("sweep.row")
        finally:
            disable_tracing()
        (record,) = read_spans(str(log))
        assert record["name"] == "sweep.row"
        assert histogram.count == 1
        assert histogram.total == pytest.approx(record["end"] - record["start"])

    def test_long_lived_roots_are_log_only(self):
        # serve.request spans open and close in different callbacks;
        # their time is already split across their children.
        with instrumented():
            assert TRACER.begin("serve.request", job="x") is None


class TestBoundedMemory:
    def test_every_duration_metric_is_a_fixed_size_histogram(self):
        """2,000 tasks and 2,000 batch completions hold O(buckets) state."""
        runs = 2000
        with instrumented():
            run_tasks([Task(fn=noop, args=(n,)) for n in range(runs)])
            scheduler = Scheduler(
                AdmissionQueue(runs),
                JobTable(),
                max_inflight=1,
                jobs=1,
            )
            try:
                for index in range(runs):
                    record = JobRecord(
                        id=f"job-{index}", request={}, material={}
                    )
                    scheduler._complete_batch([record], [{}], 0.001)
            finally:
                scheduler._executor.shutdown(wait=False)
            snapshot = OBS.registry.snapshot()
            registry = OBS.registry
        assert set(snapshot) == {"counters", "gauges", "histograms"}
        assert set(snapshot["histograms"]) == {
            "exec.task", "serve.batch.time", "serve.job.service",
        }
        for name, summary in snapshot["histograms"].items():
            assert summary["count"] == runs, name
            assert len(registry.histogram(name).counts) == (
                len(DEFAULT_LATENCY_BUCKETS) + 1
            )


class TestOneObservationPerRegion:
    @pytest.mark.parametrize(
        "jobs,cached", [(1, False), (1, True), (2, False), (2, True)]
    )
    def test_each_task_is_observed_once(self, tmp_path, jobs, cached):
        tasks = [
            Task(fn=noop, args=(n,), key={"noop": n} if cached else None)
            for n in range(4)
        ]
        cache_dir = str(tmp_path / "cache") if cached else None
        with execution(jobs=jobs, cache_dir=cache_dir) as context:
            with instrumented():
                run_tasks(tasks, jobs=jobs, cache=context.cache)
                counts = histogram_counts()
        assert counts["exec.task"] == 4
        assert counts.get("exec.cache.lookup", 0) == (4 if cached else 0)

    def test_cache_hits_observe_no_task_time(self, tmp_path):
        tasks = [Task(fn=noop, args=(n,), key={"noop": n}) for n in range(4)]
        with execution(jobs=1, cache_dir=str(tmp_path)) as context:
            run_tasks(tasks, cache=context.cache)
            with instrumented():
                run_tasks(tasks, cache=context.cache)
                counts = histogram_counts()
        assert counts == {"exec.cache.lookup": 4}

    @pytest.mark.parametrize(
        "jobs,cached",
        [(1, False), (1, True), (2, False)],
        ids=["serial", "inline", "pool"],
    )
    def test_each_cell_is_observed_once(self, tmp_path, jobs, cached):
        workloads = [get_workload("Li"), get_workload("Espresso")]
        sizes = [1024, 4096, 16384]
        cache_dir = str(tmp_path) if cached else None
        with execution(jobs=jobs, cache_dir=cache_dir):
            with instrumented():
                _, rows = evaluate_grid(
                    "cells",
                    workloads,
                    ScaledAxis(),
                    size_in_kb,
                    sizes=sizes,
                    full_rows={"Li", "Espresso"},
                    cache_key={"measure": "size_in_kb"} if cached else None,
                )
                counts = histogram_counts()
                cells = OBS.registry.counter("sweep.cells").value
        assert cells == 6
        assert counts["sweep.cell"] == 6
        assert "sweep.row" not in counts
        assert all(value is not None for row in rows for value in row)

    def test_warm_table7_replays_no_time(self, tmp_path):
        """A fully warm sweep records zero rows; the cold run one per row."""
        with execution(jobs=1, cache_dir=str(tmp_path)):
            with instrumented():
                cold_result = table7.run(max_refs=5000)
                cold = histogram_counts()
                cold_hits = OBS.registry.counter("exec.cache.hit").value
            with instrumented():
                warm_result = table7.run(max_refs=5000)
                warm = histogram_counts()
                warm_hits = OBS.registry.counter("exec.cache.hit").value
        rows = len(cold_result.sweep.row_names)
        assert rows == 7
        assert (cold_hits, warm_hits) == (0, rows)
        assert cold["sweep.row"] == rows
        assert "sweep.cell" not in cold
        assert "sweep.row" not in warm and "sweep.cell" not in warm
        assert "exec.task" not in warm
        assert table7.render(warm_result) == table7.render(cold_result)

    def test_pool_rows_reach_the_parent_once(self):
        with execution(jobs=2):
            with instrumented():
                table7.run(max_refs=5000)
                counts = histogram_counts()
        assert counts["sweep.row"] == 7
        assert counts["exec.task"] == 7
        assert counts["engine.family"] == 7


class TestKernelCounters:
    def test_profile_table2_pins_the_chosen_kernels(self, tmp_path):
        path = tmp_path / "profile.json"
        run_cli("profile", "table2", "--max-refs", "5000", "--output", str(path))
        counters = json.loads(path.read_text())["counters"]
        kernels = {
            name: value
            for name, value in counters.items()
            if name.startswith(("cache.engine.", "mtc.engine.", "cache.family."))
        }
        assert kernels == {"mtc.engine.fast": 8}
        assert counters["mtc.simulations"] == 8

    def test_profile_table7_counts_one_family_pass_per_row(self, tmp_path):
        path = tmp_path / "profile.json"
        run_cli("profile", "table7", "--max-refs", "5000", "--output", str(path))
        counters = json.loads(path.read_text())["counters"]
        kernels = {
            name: value
            for name, value in counters.items()
            if name.startswith(("cache.engine.", "mtc.engine.", "cache.family."))
        }
        assert kernels == {"cache.family.direct-mapped": 7}


class TestTraceGenerateSpan:
    def test_simulate_shows_trace_generate_under_cli_simulate(self, tmp_path):
        log = tmp_path / "spans.jsonl"
        run_cli(
            "simulate", "Espresso", "--size", "4KB", "--max-refs", "5000",
            "--trace-spans", str(log),
        )
        records = read_spans(str(log))
        by_id = {record["span"]: record for record in records}
        (generate,) = [r for r in records if r["name"] == "trace.generate"]
        assert by_id[generate["parent"]]["name"] == "cli.simulate"
        assert generate["attrs"] == {"refs": 5000, "workload": "Espresso"}

    def test_generate_is_one_histogram_observation(self):
        with instrumented():
            trace = get_workload("Li").generate(max_refs=1000)
            counts = histogram_counts()
        assert len(trace) == 1000
        assert counts == {"trace.generate": 1}

    def test_traced_and_untraced_simulate_print_the_same(self, tmp_path):
        argv = ("simulate", "Espresso", "--size", "4KB", "--max-refs", "5000")
        plain = run_cli(*argv)
        traced = run_cli(*argv, "--trace-spans", str(tmp_path / "s.jsonl"))
        assert traced == plain
