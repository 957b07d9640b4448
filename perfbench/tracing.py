"""Outside-in span recorder for the traced benchmark run.

The traced run wraps public functions of each ``repro`` layer where
their callers look them up (a module attribute or a class attribute),
so nothing under ``src/`` changes. Every call becomes one span:
``(name, parent, start, end, work)``. Spans stay in memory in each
process and are written out as JSON lines when the process ends; the
harness reads every process's file and folds them into per-layer
metrics.

Nesting is tracked per thread, so a span's *self* time is its duration
minus the durations of its direct children. ``work`` is an exact count
(references simulated, instructions run) taken from the call's
arguments or result, never from the clock.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time
from pathlib import Path


class Recorder:
    """In-memory spans of one process (fork-aware)."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []
        os.register_at_fork(after_in_child=self._forget_parent)

    def _forget_parent(self) -> None:
        # A forked shard inherits the launcher's spans; they belong to
        # the launcher's file, not the child's.
        self.spans = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, start: float, end: float, work: int = 0) -> None:
        """Record a span measured by the caller (no nesting)."""
        stack = self._stack()
        parent = stack[-1] if stack else -1
        self.spans.append((name, parent, start, end, work))

    def wrap(self, owner: object, attr: str, name: str, work=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        *work*, when given, maps ``(args, result)`` to an exact count.
        """
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            spans = recorder.spans
            stack = recorder._stack()
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)  # reserved, so children know their parent
            stack.append(index)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                # Tuples of atoms leave the cyclic GC's view, so a long
                # run's spans do not slow every collection down.
                spans[index] = (name, parent, start, end, 0)
            if work is not None:
                spans[index] = (name, parent, start, end, int(work(args, result)))
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def dump(self, directory: str | os.PathLike) -> None:
        """Write this process's spans (rewrites the file if called again)."""
        path = Path(directory) / f"spans-{os.getpid()}.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _len_arg(index: int):
    return lambda args, result: len(args[index])


def _len_result(args, result) -> int:
    return len(result[0])


#: (module, attribute path, span name, work counter). The attribute is
#: patched where its caller looks it up: the server imports the protocol
#: functions by name, the scheduler calls ``jobs.execute_request``, the
#: scenario workload imports ``mix_stream`` by name, and the engines are
#: methods called on instances.
SERVER_WRAPS = (
    ("repro.cli", "build_parser", "cli.build_parser", None),
    ("repro.serve.server", "normalize_request", "serve.normalize", None),
    ("repro.serve.router", "normalize_request", "serve.normalize", None),
    ("repro.serve.server", "job_material", "serve.job_material", None),
    ("repro.serve.router", "job_material", "serve.job_material", None),
    ("repro.serve.server", "job_id", "serve.job_id", None),
    ("repro.serve.router", "job_id", "serve.job_id", None),
    ("repro.serve.jobs", "execute_request", "serve.execute", None),
    ("repro.exec.tiered", "TieredCache.get", "exec.cache.get", None),
    ("repro.exec.tiered", "TieredCache.put", "exec.cache.put", None),
)

ENGINE_WRAPS = (
    ("repro.workloads.base", "SyntheticWorkload.generate", "trace.generate",
     lambda args, result: len(result)),
    ("repro.workloads.base", "SyntheticWorkload.stream", "trace.stream",
     _len_result),
    ("repro.scenario.workload", "mix_stream", "scenario.mix", None),
    ("repro.mem.cache", "Cache.simulate", "mem.cache.simulate", _len_arg(1)),
    ("repro.mem.mtc", "MinimalTrafficCache.simulate", "mem.mtc.simulate",
     _len_arg(1)),
    ("repro.cpu.machine", "Machine.run", "cpu.machine.run", _len_arg(1)),
)

BATCH_WRAPS = ENGINE_WRAPS + (
    ("repro.experiments.table7", "run", "experiments.table7", None),
    ("repro.experiments.table8", "run", "experiments.table8", None),
    ("repro.experiments.table6", "run", "experiments.table6", None),
)


def install(recorder: Recorder, wraps) -> None:
    """Apply *wraps* (entries of the tables above)."""
    for module_name, path, name, work in wraps:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        recorder.wrap(owner, attr, name, work)


# -- aggregation ------------------------------------------------------------------


class SpanSummary:
    """Per-name totals over every process's spans."""

    def __init__(self) -> None:
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.work: dict[str, int] = {}
        #: Work of outermost spans only: a stream drawn inside another
        #: stream (a named benchmark used as a scenario tenant) is
        #: counted once.
        self.outer_work: dict[str, int] = {}

    def add_process(self, spans: list) -> None:
        # A span still open when its process wrote the file is null:
        # it has no duration, and its children count as top level.
        child_time = [0.0] * len(spans)
        for span in spans:
            if span is not None and span[1] >= 0:
                child_time[span[1]] += span[3] - span[2]
        for index, span in enumerate(spans):
            if span is None:
                continue
            name, parent, start, end, work = span
            duration = end - start
            self.total[name] = self.total.get(name, 0.0) + duration
            self.self_time[name] = (
                self.self_time.get(name, 0.0) + duration - child_time[index]
            )
            self.calls[name] = self.calls.get(name, 0) + 1
            self.work[name] = self.work.get(name, 0) + work
            ancestor = parent
            nested = False
            while ancestor >= 0 and spans[ancestor] is not None:
                if spans[ancestor][0] == name:
                    nested = True
                    break
                ancestor = spans[ancestor][1]
            if not nested:
                self.outer_work[name] = self.outer_work.get(name, 0) + work

    @classmethod
    def from_directory(cls, directory: str | os.PathLike) -> "SpanSummary":
        summary = cls()
        for path in sorted(Path(directory).glob("spans-*.jsonl")):
            with open(path, encoding="utf-8") as handle:
                summary.add_process([json.loads(line) for line in handle])
        return summary
