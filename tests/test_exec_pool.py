"""Tests for the process-pool task runner and the execution context."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.exec import (
    EXEC,
    ResultCache,
    Task,
    configure_exec,
    execution,
    run_tasks,
)
from repro.obs import OBS, instrumented


def square(value: int) -> int:
    """Module-level (hence picklable) work function."""
    return value * value


def counted_square(value: int) -> int:
    """Work function that also bumps a simulation counter."""
    OBS.count("test.squares")
    return value * value


def tupled(value: int):
    """Returns a tuple — JSON round-trips to a list when cached."""
    return (value, value + 1)


class TestRunTasks:
    def test_serial_returns_in_task_order(self):
        tasks = [Task(fn=square, args=(n,)) for n in range(5)]
        assert run_tasks(tasks) == [0, 1, 4, 9, 16]

    def test_parallel_matches_serial(self):
        tasks = [Task(fn=square, args=(n,)) for n in range(8)]
        assert run_tasks(tasks, jobs=4) == run_tasks(tasks, jobs=1)

    def test_unpicklable_work_falls_back_to_serial(self):
        offset = 10
        tasks = [Task(fn=lambda n: n + offset, args=(n,)) for n in range(4)]
        with instrumented():
            assert run_tasks(tasks, jobs=4) == [10, 11, 12, 13]
            counters = OBS.registry.snapshot()["counters"]
        assert counters.get("exec.pool.fallback") == 1

    def test_single_pending_task_runs_in_process(self):
        assert run_tasks([Task(fn=square, args=(7,))], jobs=4) == [49]

    def test_empty_task_list(self):
        assert run_tasks([], jobs=4) == []

    def test_worker_counters_merge_into_parent(self):
        tasks = [Task(fn=counted_square, args=(n,)) for n in range(6)]
        with instrumented():
            run_tasks(tasks, jobs=1)
            serial = OBS.registry.snapshot()["counters"]
        with instrumented():
            run_tasks(tasks, jobs=3)
            parallel = OBS.registry.snapshot()["counters"]
        assert serial["test.squares"] == 6
        assert parallel["test.squares"] == 6
        assert parallel["exec.tasks"] == 6

    def test_worker_time_observed(self):
        with instrumented():
            run_tasks([Task(fn=square, args=(3,))])
            histograms = OBS.registry.snapshot()["histograms"]
        assert histograms["exec.task"]["count"] == 1


class TestSpanPropagation:
    def test_pool_workers_chain_onto_ambient_span(self, tmp_path):
        import os

        from repro.obs.spans import (
            TRACER,
            build_trees,
            configure_tracing,
            disable_tracing,
            read_spans,
        )

        log = tmp_path / "spans.jsonl"
        configure_tracing(str(log))
        try:
            with TRACER.span("root"):
                run_tasks(
                    [Task(fn=square, args=(n,), label=f"sq{n}")
                     for n in range(4)],
                    jobs=2,
                )
        finally:
            disable_tracing()
        (root,) = build_trees(read_spans(str(log)))
        assert root.name == "root"
        children = {
            child.attr("label"): child
            for child in root.children
            if child.name == "exec.task"
        }
        assert set(children) == {"sq0", "sq1", "sq2", "sq3"}
        # The tasks ran in forked workers, yet their spans parent onto
        # this process's root: the context crossed the fork via pickle.
        assert any(
            child.record["pid"] != os.getpid()
            for child in children.values()
        )

    def test_explicit_task_trace_beats_ambient(self, tmp_path):
        from repro.obs.spans import (
            TRACER,
            build_trees,
            configure_tracing,
            disable_tracing,
            read_spans,
        )

        log = tmp_path / "spans.jsonl"
        configure_tracing(str(log))
        try:
            routed = TRACER.begin("request")
            with TRACER.span("ambient"):
                run_tasks(
                    [Task(fn=square, args=(1,), trace=routed.context())]
                )
            TRACER.finish(routed)
        finally:
            disable_tracing()
        roots = {root.name: root for root in build_trees(read_spans(str(log)))}
        assert [child.name for child in roots["request"].children] == [
            "exec.task"
        ]
        assert roots["ambient"].children == []

    def test_disabled_tracer_leaves_tasks_unstamped(self):
        tasks = [Task(fn=square, args=(2,))]
        assert run_tasks(tasks) == [4]
        assert tasks[0].trace is None


class TestRunTasksWithCache:
    def test_cold_then_warm(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        tasks = [
            Task(fn=square, args=(n,), key={"op": "square", "n": n})
            for n in range(4)
        ]
        cold = run_tasks(tasks, cache=cache)
        assert (cache.hits, cache.misses, cache.stores) == (0, 4, 4)
        warm = run_tasks(tasks, cache=cache)
        assert cold == warm == [0, 1, 4, 9]
        assert cache.hits == 4

    def test_cache_counters_emitted(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        tasks = [
            Task(fn=square, args=(n,), key={"op": "square", "n": n})
            for n in range(3)
        ]
        with instrumented():
            run_tasks(tasks, cache=cache)
            run_tasks(tasks, cache=cache)
            counters = OBS.registry.snapshot()["counters"]
        assert counters["exec.cache.miss"] == 3
        assert counters["exec.cache.store"] == 3
        assert counters["exec.cache.hit"] == 3

    def test_cold_value_is_json_normalised(self, tmp_path):
        # A cold cached run must return exactly what the warm run will
        # read back: tuples become lists before the caller sees them.
        cache = ResultCache(tmp_path / "c")
        tasks = [Task(fn=tupled, args=(1,), key={"op": "t", "n": 1})]
        cold = run_tasks(tasks, cache=cache)
        warm = run_tasks(tasks, cache=cache)
        assert cold == warm == [[1, 2]]

    def test_uncached_without_key(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        run_tasks([Task(fn=square, args=(2,))], cache=cache)
        assert cache.stats().entries == 0


class TestExecContext:
    def test_defaults_are_serial_uncached(self):
        # A fresh context, not the session-wide EXEC: the suite itself
        # may be running under ``pytest --jobs N``.
        from repro.exec import ExecContext

        context = ExecContext()
        assert context.jobs == 1
        assert context.cache is None

    def test_execution_restores_prior_state(self, tmp_path):
        prior = (EXEC.jobs, EXEC.cache)
        with execution(jobs=3, cache_dir=tmp_path / "c"):
            assert EXEC.jobs == 3
            assert EXEC.cache is not None
        assert (EXEC.jobs, EXEC.cache) == prior

    def test_execution_restores_on_error(self):
        prior = EXEC.jobs
        with pytest.raises(RuntimeError):
            with execution(jobs=prior + 1):
                raise RuntimeError("boom")
        assert EXEC.jobs == prior

    @pytest.mark.parametrize("bad", [0, -1, True, "2", 1.5])
    def test_invalid_jobs_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            configure_exec(jobs=bad)

    def test_configure_without_cache_dir_disables_cache(self, tmp_path):
        with execution(jobs=1, cache_dir=tmp_path / "c"):
            with execution(jobs=2):
                assert EXEC.cache is None
