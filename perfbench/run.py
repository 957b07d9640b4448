"""Benchmark harness for the ``repro`` simulator and its serving layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve_cold --seed 1 --seconds 20 --trace 0

Workloads: ``serve_cold``, ``serve_hot``, ``batch_paper`` (see
perfbench/README.md). ``--trace 0`` prints the end-to-end metrics,
measured with nothing wrapped; ``--trace 1`` runs the same workload
with each layer's public functions wrapped in spans and prints the
per-layer metrics (including the traced run's own end-to-end numbers,
so the tracing overhead shows).

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit). The line before it
is a sha256 digest of every output, for exact comparison of two
commits. Scratch files live in ``.perfbench-work/`` under the
repository root and are removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
from pathlib import Path

import batch
import schedules
import serving
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("serve_cold", "serve_hot", "batch_paper")

#: Metric name -> unit, as declared in BENCHMARK.json. A traced run
#: reports every per-layer metric; a layer a workload never reaches
#: reads 0.
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
E2E_UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def span_layers(summary) -> dict[str, float]:
    """Per-layer metrics derived from the spans of every process."""
    total, calls = summary.total, summary.calls

    def t(name: str) -> float:
        return total.get(name, 0.0)

    def n(name: str) -> int:
        return calls.get(name, 0)

    generated = summary.outer_work.get("trace.stream", 0)
    returned = summary.work.get("trace.generate", 0)
    layers = {
        "cli.import_s": t("cli.import"),
        "cli.build_parser_s": t("cli.build_parser"),
        "cli.build_parser_calls": n("cli.build_parser"),
        "serve.normalize_s": t("serve.normalize"),
        "serve.job_id_s": t("serve.job_material") + t("serve.job_id"),
        "serve.execute_s": t("serve.execute"),
        "serve.execute.self_s": summary.self_time.get("serve.execute", 0.0),
        "exec.cache.get_us": _rate(t("exec.cache.get"), n("exec.cache.get")) * 1e6,
        "exec.cache.gets": n("exec.cache.get"),
        "exec.cache.put_ms": _rate(t("exec.cache.put"), n("exec.cache.put")) * 1e3,
        "exec.cache.puts": n("exec.cache.put"),
        "trace.generate_s": t("trace.generate"),
        "trace.generate.self_s": summary.self_time.get("trace.generate", 0.0),
        "trace.generate_calls": n("trace.generate"),
        "trace.refs_generated": generated,
        "trace.refs_returned": returned,
        "trace.used_ratio": _rate(returned, generated),
        "trace.refs_per_s": _rate(generated, t("trace.generate")),
        "scenario.mix_s": t("scenario.mix"),
        "scenario.mix_calls": n("scenario.mix"),
    }
    for layer, span in (("mem.cache", "mem.cache.simulate"), ("mem.mtc", "mem.mtc.simulate")):
        refs = summary.work.get(span, 0)
        layers[f"{layer}.simulate_s"] = t(span)
        layers[f"{layer}.refs"] = refs
        layers[f"{layer}.refs_per_s"] = _rate(refs, t(span))
    instructions = summary.work.get("cpu.machine.run", 0)
    layers.update({
        "cpu.machine.run_s": t("cpu.machine.run"),
        "cpu.machine.runs": n("cpu.machine.run"),
        "cpu.machine.instructions": instructions,
        "cpu.machine.instructions_per_s": _rate(instructions, t("cpu.machine.run")),
    })
    for table in ("table7", "table8", "table6"):
        layers[f"experiments.{table}_s"] = t(f"experiments.{table}")
        layers[f"experiments.{table}.self_s"] = summary.self_time.get(
            f"experiments.{table}", 0.0
        )
    return layers


def run_workload(workload: str, seed: int, seconds: int, trace: bool,
                 sizing=None) -> dict:
    """Run one workload; returns the result object plus ``digest``/``spans``."""
    sizing = sizing or schedules.Sizing()
    work = ROOT / ".perfbench-work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        if workload == "batch_paper":
            recorder = tracing.Recorder() if trace else None
            outcome = batch.run_batch(seed, seconds, sizing, recorder)
            if recorder is not None:
                recorder.dump(work)
                outcome["spans_dir"] = work
        else:
            runner = serving.run_cold if workload == "serve_cold" else serving.run_hot
            outcome = runner(work, seed, seconds, trace, sizing)
        spans = None
        if trace:
            summary = tracing.SpanSummary.from_directory(outcome["spans_dir"])
            spans = summary.calls
            layers = {name: 0.0 for name in LAYER_UNITS}
            layers.update(span_layers(summary))
            layers.update(outcome.get("layers", {}))
            for name, value in outcome["metrics"].items():
                layers[f"traced.{name}"] = value
            metrics = {
                name: {"value": layers[name], "unit": unit}
                for name, unit in LAYER_UNITS.items()
            }
        else:
            metrics = {
                name: {"value": outcome["metrics"][name], "unit": unit}
                for name, unit in E2E_UNITS.items()
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".perfbench-work").rmdir()
        except OSError:
            pass
    return {
        "result": {
            "correct": outcome["failed"] == 0,
            "attempted": outcome["attempted"],
            "failed": outcome["failed"],
            "metrics": metrics,
        },
        "digest": outcome["digest"],
        "spans": spans,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    missing = [p for p in (SRC / "repro", ROOT / "EXPERIMENTS.md") if not p.exists()]
    if missing:
        print(
            "perfbench: run from a checkout of the repository; missing "
            + ", ".join(str(p.relative_to(ROOT)) for p in missing),
            file=sys.stderr,
        )
        return 2
    # SIGTERM unwinds like an exception, so server process groups are
    # reaped and the scratch directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.path.insert(0, str(SRC))
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"digest: sha256:{out['digest']}")
    print(json.dumps(out["result"], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
