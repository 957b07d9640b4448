"""The ``batch_paper`` workload: the paper's three costliest tables, in process.

Serial, no result cache, no process pool: one pass calls the
``repro.experiments`` run functions for Table 7 (300k refs), Table 8
(200k) and Table 6 (12k), with the budgets and the seed
``EXPERIMENTS.md`` is generated with, in an order drawn from ``--seed``.
A pass is the workload's one kind of request and cannot be split, so a
run makes ``--seconds / PASS_S`` passes, but never fewer than two: one
pass alone is too exposed to host noise. A run therefore takes 25-50 s
on a 2-vCPU host at any ``--seconds`` up to 38.

The vector cache engine (Table 7), the MTC engine (Table 8) and the CPU
timing cores (Table 6) do the work; serve and exec do none.
"""

from __future__ import annotations

import hashlib
import math
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

from schedules import PAPER_BATCH_REFS
from stats import median, tail

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

TABLES = ("table7", "table8", "table6")
#: EXPERIMENTS.md section heading of each table.
HEADINGS = {
    "table7": "## Table 7 — ",
    "table8": "## Table 8 — ",
    "table6": "## Table 6 — ",
}
#: Wall time of one pass at the paper's budgets on a 2-vCPU host: the
#: median of the median passes of three sets of ten runs, which were
#: 24.2 s, 15.4 s and 12.2 s as the host's load changed.
PASS_S = 15.4
#: Fewest passes per run.
MIN_PASSES = 2
IMPORTS = "import repro.experiments.table6, repro.experiments.table7, repro.experiments.table8"


def _setup_probe() -> float:
    """Launch-to-ready of a fresh interpreter that loads the batch's modules."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r}); {IMPORTS}"],
        check=True,
        stdin=subprocess.DEVNULL,
    )
    return time.perf_counter() - start


def matches_document(name: str, rendered: str, document: str) -> bool:
    """True when *rendered* is the measured block of the table's section."""
    start = document.index("\n" + HEADINGS[name])
    end = document.find("\n## ", start + 1)
    section = document[start:] if end < 0 else document[start:end]
    return "```\n" + rendered.rstrip() + "\n```" in section


def _invariants_hold(name: str, result) -> bool:
    """Checks that hold at every budget: G >= 1, R > 0, fractions in range."""
    if name == "table6":
        return all(
            0 <= row.f_l_a + row.f_b_a <= 100 and 0 <= row.f_l_f + row.f_b_f <= 100
            and min(row.f_l_a, row.f_b_a, row.f_l_f, row.f_b_f) >= 0
            for row in result.rows
        )
    floor = 1.0 if name == "table8" else 0.0
    cells = [c for row in result.sweep.cells for c in row if c is not None]
    return bool(cells) and all(math.isfinite(c) and c >= floor for c in cells)


def run_batch(seed: int, seconds: int, sizing, recorder=None) -> dict:
    """Run passes of the three tables; *recorder* wraps the layers."""
    setups = [_setup_probe() for _ in range(sizing.setup_repeats)]

    start = time.perf_counter()
    from repro.experiments import table6, table7, table8

    if recorder is not None:
        import tracing

        recorder.add("cli.import", start, time.perf_counter())
        tracing.install(recorder, tracing.BATCH_WRAPS)

    # The tables are the paper's, so the experiments always run at the
    # seed EXPERIMENTS.md uses; --seed orders the three calls of a pass.
    order = list(TABLES)
    random.Random(f"batch:{seed}").shuffle(order)
    try:
        modules = {"table7": table7, "table8": table8, "table6": table6}
        budgets = dict(zip(TABLES, sizing.batch_refs))
        passes: list[float] = []
        outputs: list[dict[str, str]] = []
        results: list[dict] = []
        failed = 0
        timed_start = time.perf_counter()
        for _ in range(max(MIN_PASSES, round(seconds / PASS_S))):
            pass_start = time.perf_counter()
            rendered, raw = {}, {}
            for name in order:
                raw[name] = modules[name].run(max_refs=budgets[name], seed=0)
                rendered[name] = modules[name].render(raw[name])
            passes.append(time.perf_counter() - pass_start)
            outputs.append(rendered)
            results.append(raw)
        wall = time.perf_counter() - timed_start
    finally:
        if recorder is not None:
            recorder.restore()

    # Output checks: every pass renders identically; at the paper's
    # budgets each table equals its EXPERIMENTS.md section.
    paper = tuple(sizing.batch_refs) == PAPER_BATCH_REFS
    document = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8") if paper else ""
    for rendered, raw in zip(outputs, results):
        ok = all(
            rendered[name] == outputs[0][name]
            and _invariants_hold(name, raw[name])
            and (not paper or matches_document(name, rendered[name], document))
            for name in TABLES
        )
        failed += not ok

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    passes_ms = [p * 1e3 for p in passes]
    return {
        "attempted": len(passes),
        "failed": failed,
        "digest": hashlib.sha256(
            "".join(outputs[0][name] + "\n" for name in TABLES).encode("utf-8")
        ).hexdigest(),
        "metrics": {
            "setup_s": median(setups),
            "latency_p50_ms": median(passes_ms),
            "latency_tail_ms": tail(passes_ms, 90),
            "throughput_rps": len(passes) / wall,
            "batch_s": median(passes),
            "peak_rss_mb": peak_kb / 1024.0,
        },
    }
