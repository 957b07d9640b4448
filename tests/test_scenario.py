"""Tests for the scenario engine: patterns, specs, mixing, attribution."""

import json

import numpy as np
import pytest

from repro.errors import ScenarioError, WorkloadError
from repro.exec.keys import workload_key
from repro.mem.cache import Cache, CacheConfig
from repro.scenario import (
    SCENARIO_DEFAULTS,
    ScenarioSpec,
    ScenarioWorkload,
    attribute_traffic,
    build_pattern,
    canonical_pattern,
    mix,
    pattern_catalog,
    pattern_names,
    resolve_workload,
)
from repro.scenario.mixer import interleave_weighted
from repro.trace.synth import TENANT_WINDOW_BYTES
from repro.workloads.registry import get_workload


def rng(seed=0):
    return np.random.default_rng(seed)


MIX_SPEC = {
    "name": "mix",
    "refs": 20_000,
    "quantum": 32,
    "seed": 5,
    "tenants": [
        {"name": "a", "pattern": {"kind": "zipfian"}, "weight": 2,
         "footprint": "64KB"},
        {"name": "b", "pattern": {"kind": "sequential"},
         "footprint": "128KB", "write_fraction": 0.1},
        {"name": "c", "pattern": {"kind": "bursty",
                                  "burst_refs": 64, "gap_refs": 16}},
    ],
}


class TestPatterns:
    @pytest.mark.parametrize("kind", pattern_names())
    def test_deterministic_for_seed(self, kind):
        spec = (
            {"kind": "phased", "phases": [{"kind": "uniform"},
                                          {"kind": "zipfian"}]}
            if kind == "phased"
            else {"kind": kind}
        )
        pattern = build_pattern(
            spec, footprint_words=4096, refs=5000, write_fraction=0.25
        )
        a_addr, a_writes = pattern.stream(rng(3))
        b_addr, b_writes = pattern.stream(rng(3))
        c_addr, _ = pattern.stream(rng(4))
        assert a_addr.tolist() == b_addr.tolist()
        assert a_writes.tolist() == b_writes.tolist()
        assert a_addr.size == 5000
        if kind != "sequential":  # sequential ignores the rng entirely
            assert a_addr.tolist() != c_addr.tolist()

    @pytest.mark.parametrize("kind", pattern_names())
    def test_stays_inside_footprint(self, kind):
        spec = (
            {"kind": "phased", "phases": [{"kind": "hotspot"}]}
            if kind == "phased"
            else {"kind": kind}
        )
        pattern = build_pattern(
            spec, footprint_words=512, refs=3000, write_fraction=0.5
        )
        addresses, _ = pattern.stream(rng())
        assert addresses.min() >= 0
        assert addresses.max() < 512 * 4

    def test_canonical_fills_defaults(self):
        assert canonical_pattern({"kind": "zipfian"}) == {
            "kind": "zipfian", "alpha": 1.1,
        }

    def test_canonical_rejects_unknown_kind_and_fields(self):
        with pytest.raises(ScenarioError, match="unknown pattern kind"):
            canonical_pattern({"kind": "fractal"})
        with pytest.raises(ScenarioError, match="alhpa"):
            canonical_pattern({"kind": "zipfian", "alhpa": 1.2})

    def test_hotspot_concentrates_traffic(self):
        pattern = build_pattern(
            {"kind": "hotspot", "hot_fraction": 0.01, "hot_prob": 0.95},
            footprint_words=100_000, refs=20_000, write_fraction=0.0,
        )
        addresses, _ = pattern.stream(rng())
        hot_bytes = int(100_000 * 0.01) * 4
        assert (addresses < hot_bytes).mean() > 0.9

    def test_phased_depth_capped(self):
        spec = {"kind": "uniform"}
        for _ in range(5):
            spec = {"kind": "phased", "phases": [spec]}
        with pytest.raises(ScenarioError, match="nested deeper"):
            canonical_pattern(spec)

    def test_catalog_is_json_and_covers_every_kind(self):
        catalog = pattern_catalog()
        assert [entry["kind"] for entry in catalog] == pattern_names()
        json.dumps(catalog)  # must stay machine-readable


class TestScenarioSpec:
    def test_shorthand_equals_one_tenant_list(self):
        a = ScenarioSpec.from_dict({"pattern": {"kind": "zipfian"}})
        b = ScenarioSpec.from_dict(
            {"tenants": [{"pattern": {"kind": "zipfian"}}]}
        )
        assert a.canonical() == b.canonical()
        assert a.scenario_id() == b.scenario_id()

    def test_equivalent_spellings_share_a_content_address(self):
        a = ScenarioSpec.from_dict(
            {"pattern": {"kind": "uniform"}, "footprint": "1MB"}
        )
        b = ScenarioSpec.from_dict(
            {"pattern": {"kind": "uniform"}, "footprint": 1 << 20,
             "refs": SCENARIO_DEFAULTS["refs"]}
        )
        assert a.scenario_id() == b.scenario_id()

    def test_canonical_round_trips(self):
        spec = ScenarioSpec.from_dict(MIX_SPEC)
        again = ScenarioSpec.from_dict(spec.canonical())
        assert again == spec
        assert again.canonical() == spec.canonical()

    def test_name_changes_the_content_address(self):
        # The name appears in rendered output, so two spellings that
        # differ only by name must not coalesce onto one cached result.
        a = ScenarioSpec.from_dict({"pattern": {"kind": "uniform"}})
        b = ScenarioSpec.from_dict(
            {"pattern": {"kind": "uniform"}, "name": "x"}
        )
        assert a.scenario_id() != b.scenario_id()

    def test_tenant_refs_split_exactly_by_weight(self):
        spec = ScenarioSpec.from_dict(MIX_SPEC)
        shares = spec.tenant_refs()
        assert sum(shares) == spec.refs
        assert shares[0] == 2 * shares[1] == 2 * shares[2]

    @pytest.mark.parametrize(
        "body, message",
        [
            ({}, "needs a 'pattern'"),
            ({"pattern": {"kind": "uniform"}, "tenants": []}, "not both"),
            ({"tenants": []}, "non-empty list"),
            ({"pattern": {"kind": "uniform"}, "foot": "1MB"}, "foot"),
            ({"pattern": {"kind": "uniform"}, "seed": -1}, "seed"),
            ({"pattern": {"kind": "uniform"}, "refs": 0}, "refs"),
            ({"pattern": {"kind": "uniform"}, "quantum": 0}, "quantum"),
            ({"pattern": {"kind": "uniform"}, "footprint": "2GB"}, "1GB"),
            (
                {"tenants": [{"pattern": {"kind": "uniform"}, "name": "x"},
                             {"pattern": {"kind": "uniform"}, "name": "x"}]},
                "duplicate tenant name",
            ),
        ],
    )
    def test_invalid_specs_rejected(self, body, message):
        with pytest.raises(ScenarioError, match=message):
            ScenarioSpec.from_dict(body)

    def test_quantum_bounded_by_refs(self):
        with pytest.raises(ScenarioError, match="quantum"):
            ScenarioSpec.from_dict(
                {"pattern": {"kind": "uniform"}, "refs": 10, "quantum": 11}
            )


class TestMixer:
    def test_weighted_interleave_schedule(self):
        streams = [
            (np.arange(4, dtype=np.int64) * 4, np.zeros(4, dtype=bool)),
            (np.arange(2, dtype=np.int64) * 4, np.ones(2, dtype=bool)),
        ]
        addresses, writes, tenants = interleave_weighted(
            streams, quantum=2, weights=[2, 1]
        )
        # Round 1: tenant 0 runs 4 refs (quantum*weight), tenant 1 runs 2.
        assert tenants.tolist() == [0, 0, 0, 0, 1, 1]
        assert addresses.tolist()[:4] == [0, 4, 8, 12]
        assert addresses.tolist()[4] == TENANT_WINDOW_BYTES
        assert writes.tolist() == [False] * 4 + [True] * 2

    @pytest.mark.parametrize("weights", [[0], [-1], [2, 0]])
    def test_non_positive_weight_rejected(self, weights):
        # A zero weight used to spin forever: its tenant never advanced.
        streams = [
            (np.arange(4, dtype=np.int64), np.zeros(4, dtype=bool))
        ] * len(weights)
        with pytest.raises(ScenarioError, match="weights must be positive"):
            interleave_weighted(streams, quantum=2, weights=weights)

    def test_non_positive_quantum_rejected(self):
        stream = (np.arange(4, dtype=np.int64), np.zeros(4, dtype=bool))
        with pytest.raises(ScenarioError, match="quantum"):
            interleave_weighted([stream], quantum=-2, weights=[1])

    def test_mix_deterministic_and_seeded_by_spec(self):
        spec = ScenarioSpec.from_dict(MIX_SPEC)
        a = mix(spec)
        b = mix(spec)
        c = mix(spec, seed=spec.seed + 1)
        assert a.trace == b.trace
        assert a.trace != c.trace
        assert len(a) == spec.refs

    def test_tenant_slice_recovers_each_tenant_stream(self):
        spec = ScenarioSpec.from_dict(MIX_SPEC)
        mixed = mix(spec)
        for index, (tenant, share) in enumerate(
            zip(spec.tenants, spec.tenant_refs())
        ):
            solo = mixed.tenant_slice(index)
            assert len(solo) == share
            assert solo.addresses.max() < tenant.footprint_bytes

    def test_adding_a_tenant_leaves_others_byte_identical(self):
        # Child generators are derived per tenant slot, so growing the
        # mix must not reshuffle the existing tenants' streams.
        base = ScenarioSpec.from_dict(MIX_SPEC)
        body = json.loads(json.dumps(MIX_SPEC))
        body["tenants"].append({"name": "d", "pattern": {"kind": "uniform"}})
        grown = ScenarioSpec.from_dict(body)
        a = mix(base).tenant_slice(0)
        b = mix(grown).tenant_slice(0)
        # Shares shrink when a tenant joins; compare the common prefix.
        n = min(len(a), len(b))
        assert a.addresses[:n].tolist() == b.addresses[:n].tolist()

    def test_attribution_sums_exactly_to_shared_cache_totals(self):
        spec = ScenarioSpec.from_dict(MIX_SPEC)
        mixed = mix(spec)
        config = CacheConfig(size_bytes=16 * 1024, block_bytes=32)
        report = attribute_traffic(mixed, config)
        stats = Cache(config).simulate(mixed.trace)
        assert report.total_traffic_bytes == stats.total_traffic_bytes
        assert report.total_misses == stats.misses
        assert sum(t.traffic_bytes for t in report.tenants) == (
            report.total_traffic_bytes
        )
        assert sum(t.refs for t in report.tenants) == spec.refs
        assert [t.name for t in report.tenants] == ["a", "b", "c"]

    def test_solo_baselines_measure_interference(self):
        spec = ScenarioSpec.from_dict(MIX_SPEC)
        report = attribute_traffic(
            mix(spec), CacheConfig(size_bytes=16 * 1024, block_bytes=32)
        )
        for tenant in report.tenants:
            assert tenant.solo_traffic_bytes > 0
            assert tenant.traffic_expansion > 0
        assert report.traffic_expansion >= 0.5  # sane, not a unit mixup


class TestScenarioWorkload:
    def test_generate_defaults_to_spec_seed(self):
        spec = ScenarioSpec.from_dict(MIX_SPEC)
        workload = ScenarioWorkload(spec)
        assert workload.generate() == workload.generate(seed=spec.seed)
        assert workload.generate() != workload.generate(seed=spec.seed + 1)

    def test_trace_matches_mix(self):
        spec = ScenarioSpec.from_dict(MIX_SPEC)
        assert ScenarioWorkload(spec).generate() == mix(spec).trace

    def test_name_and_footprint(self):
        spec = ScenarioSpec.from_dict(MIX_SPEC)
        workload = ScenarioWorkload(spec)
        assert workload.name == "mix"
        assert workload.suite == "SCENARIO"
        assert workload.dataset_bytes() == spec.total_footprint_bytes()

    def test_cache_keys_never_collide(self):
        spec_a = ScenarioSpec.from_dict(MIX_SPEC)
        body = json.loads(json.dumps(MIX_SPEC))
        body["seed"] = 6
        spec_b = ScenarioSpec.from_dict(body)
        key_a = workload_key(ScenarioWorkload(spec_a))
        key_b = workload_key(ScenarioWorkload(spec_b))
        named = workload_key(get_workload("Compress"))
        assert key_a != key_b  # same name, different spec
        assert "extra" not in named  # named keys byte-identical to before

    def test_resolve_workload_dispatches(self, tmp_path):
        spec = ScenarioSpec.from_dict(MIX_SPEC)
        inline = resolve_workload(spec.to_argument())
        assert isinstance(inline, ScenarioWorkload)
        assert inline.spec == spec
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(MIX_SPEC))
        assert resolve_workload(f"@{path}").spec == spec
        assert resolve_workload(str(path)).spec == spec
        assert resolve_workload("compress").name == "Compress"
        with pytest.raises(ScenarioError, match="not found"):
            resolve_workload("@missing.json")
        with pytest.raises(WorkloadError):
            resolve_workload("nosuchworkload")


class TestScenariosExperiment:
    def test_committed_specs_validate_and_rows_are_unique(self):
        from repro.experiments.scenarios import scenario_workloads

        workloads = scenario_workloads()
        names = [w.name for w in workloads]
        assert len(set(names)) == len(names) == 6
        kinds = {w.spec.pattern_kinds()[0] for w in workloads}
        assert kinds == {"zipfian", "hotspot", "bursty"}
        tenant_counts = sorted(len(w.spec.tenants) for w in workloads)
        assert tenant_counts == [1, 1, 1, 4, 4, 4]

    def test_small_run_reports_all_measurements(self):
        from repro.experiments import scenarios

        result = scenarios.run(max_refs=2000)
        assert len(result.decompositions) == 6
        for row in result.decompositions:
            assert 0.0 <= row.f_b <= 1.0
        text = scenarios.render(result)
        assert "paper SPEC92 value: 0.51" in text
        assert "f_B" in text
