"""Server process for the serve workloads: ``repro serve`` with optional spans.

Usage: ``python perfbench/launcher.py [--spans DIR] -- SERVE-ARGS...``

Without ``--spans`` this is exactly ``python -m repro serve SERVE-ARGS``.
With it, the layer functions are wrapped *before* ``repro serve`` forks
its shards, so every shard inherits the wrappers; each process writes
its spans into DIR when its server returns from its graceful drain.
"""

from __future__ import annotations

import sys
import time


def main(argv: list[str]) -> int:
    spans_dir = None
    if argv[:1] == ["--spans"]:
        spans_dir, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    if spans_dir is None:
        from repro import cli

        return cli.main(["serve", *argv])

    import tracing

    recorder = tracing.Recorder()
    start = time.perf_counter()
    from repro import cli

    recorder.add("cli.import", start, time.perf_counter())
    tracing.install(recorder, tracing.SERVER_WRAPS + tracing.ENGINE_WRAPS)

    from repro.serve.server import SimulationServer

    serve = SimulationServer.run

    def run_then_dump(self, *args, **kwargs):
        try:
            return serve(self, *args, **kwargs)
        finally:
            recorder.dump(spans_dir)

    SimulationServer.run = run_then_dump
    try:
        return cli.main(["serve", *argv])
    finally:
        recorder.dump(spans_dir)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
