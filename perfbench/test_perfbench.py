"""Self-test of the benchmark harness at a tiny size.

Run from the repository root: ``python -m pytest perfbench -q``.

Checks that every workload runs and passes its output checks, that the
untraced run prints every end-to-end metric with its unit, that the
traced run prints every per-layer metric with a span for each wrapped
function on the workload's path, and that the exact work counts repeat
across two traced runs at one seed.
"""

from __future__ import annotations

import sys

import pytest

import run
import schedules

sys.path.insert(0, str(run.SRC))

#: At ``--seconds 1`` one block of cold requests and the hot set cover
#: every trace source (ten named workloads, four scenario kinds).
TINY = schedules.Sizing(
    hot_rate=20.0,
    hop_requests=8,
    setup_repeats=1,
    check_sample=2,
    batch_refs=(3_000, 2_000, 1_000),
)

#: Spans each workload's path must produce, one name per wrapped function.
SERVE_SPANS = {
    "cli.import", "cli.build_parser", "serve.normalize", "serve.job_material",
    "serve.job_id", "serve.execute", "exec.cache.get", "exec.cache.put",
    "trace.generate", "trace.stream", "scenario.mix", "mem.cache.simulate",
    "mem.mtc.simulate",
}
EXPECTED_SPANS = {
    "serve_cold": SERVE_SPANS,
    "serve_hot": SERVE_SPANS,
    "batch_paper": {
        "cli.import", "experiments.table7", "experiments.table8",
        "experiments.table6", "trace.generate", "trace.stream",
        "mem.mtc.simulate", "cpu.machine.run",
    },
}

#: Work counts that are exact for a given seed.
EXACT = (
    "trace.refs_generated", "trace.refs_returned", "trace.generate_calls",
    "mem.cache.refs", "mem.mtc.refs", "cpu.machine.instructions",
    "cpu.machine.runs", "exec.cache.gets", "exec.cache.puts",
    "serve.router.routed.0", "serve.router.routed.1", "cli.build_parser_calls",
    "scenario.mix_calls",
)


@pytest.fixture(scope="module")
def traced_runs():
    return {
        workload: [run.run_workload(workload, 3, 1, True, TINY) for _ in range(2)]
        for workload in run.WORKLOADS
    }


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    out = run.run_workload(workload, 3, 1, False, TINY)
    result = out["result"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.E2E_UNITS)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == run.E2E_UNITS[name]
        assert metric["value"] > 0, name
    assert len(out["digest"]) == 64


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_prints_every_layer_metric(traced_runs, workload):
    for out in traced_runs[workload]:
        result = out["result"]
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == set(run.LAYER_UNITS)
        for name, metric in result["metrics"].items():
            assert metric["unit"] == run.LAYER_UNITS[name]
        assert EXPECTED_SPANS[workload] <= set(out["spans"])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_exact_counts_repeat_at_one_seed(traced_runs, workload):
    first, second = (out["result"]["metrics"] for out in traced_runs[workload])
    assert {k: first[k]["value"] for k in EXACT} == {
        k: second[k]["value"] for k in EXACT
    }
    assert traced_runs[workload][0]["digest"] == traced_runs[workload][1]["digest"]


def test_paper_check_compares_against_experiments_document():
    # Table 7 is the cheap one at its EXPERIMENTS.md budget; a single
    # changed digit must fail the check.
    import batch
    from repro.experiments import table7

    document = (run.ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    rendered = table7.render(table7.run(max_refs=300_000))
    assert batch.matches_document("table7", rendered, document)
    assert not batch.matches_document("table8", rendered, document)
    tampered = rendered.replace("1", "2", 1)
    assert not batch.matches_document("table7", tampered, document)
