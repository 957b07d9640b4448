"""Tests for the extension mechanisms (paper Sections 5.3 and 6)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.mem.bypass import BypassCache, BypassCacheConfig, bypass_benefit
from repro.mem.cache import Cache, CacheConfig
from repro.mem.compression import (
    BaseRegisterCacheConfig,
    evaluate_address_compression,
)
from repro.mem.interference import (
    chip_multiprocessor_demand,
    multithreaded_traffic,
)
from repro.mem.mtc import MinimalTrafficCache, MTCConfig
from repro.mem.prefetch import (
    StreamBufferPrefetcher,
    StridePrefetcher,
    TaggedPrefetcher,
    evaluate_prefetcher,
)
from repro.mem.sector import SectorCache, SectorCacheConfig, hill_smith_tradeoff
from repro.mem.writeaware import WriteAwareConfig, WriteAwareMTC, write_aware_gap
from repro.trace.model import MemTrace

from conftest import make_trace


class TestSectorCache:
    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            SectorCacheConfig(size_bytes=1024, sector_bytes=32, subblock_bytes=64)
        with pytest.raises(ConfigurationError):
            SectorCacheConfig(size_bytes=16, sector_bytes=64)

    def test_subblock_miss_fetches_only_subblock(self):
        config = SectorCacheConfig(
            size_bytes=1024, sector_bytes=64, subblock_bytes=16
        )
        cache = SectorCache(config)
        cache.access(0, False)    # sector + subblock miss: 16 bytes
        assert cache.stats.fetch_bytes == 16
        cache.access(16, False)   # sector hit, subblock miss: 16 more
        assert cache.stats.fetch_bytes == 32
        assert cache.access(4, False) is True  # within first subblock

    def test_dirty_writeback_covers_only_dirty_subblocks(self):
        config = SectorCacheConfig(
            size_bytes=1024, sector_bytes=64, subblock_bytes=16
        )
        cache = SectorCache(config)
        cache.access(0, True)
        cache.access(32, False)
        assert cache.flush() == 16  # one dirty subblock

    def test_equals_plain_cache_when_subblock_is_sector(self, small_trace):
        sector = SectorCache(
            SectorCacheConfig(
                size_bytes=2048, sector_bytes=32, subblock_bytes=32
            )
        ).simulate(small_trace)
        plain = Cache(
            CacheConfig(size_bytes=2048, block_bytes=32)
        ).simulate(small_trace)
        assert sector.total_traffic_bytes == plain.total_traffic_bytes
        assert sector.misses == plain.misses

    def test_hill_smith_tradeoff_monotone(self, small_trace):
        """Smaller subblocks: more misses, less traffic — both monotone."""
        points = hill_smith_tradeoff(small_trace, size_bytes=2048)
        misses = [p.miss_ratio for p in points]
        traffic = [p.traffic_ratio for p in points]
        assert all(a >= b for a, b in zip(misses, misses[1:]))
        assert all(a <= b * 1.001 for a, b in zip(traffic, traffic[1:]))


class TestBypassCache:
    def test_threshold_zero_matches_plain_cache(self, small_trace):
        plain = Cache(CacheConfig(size_bytes=1024, block_bytes=32)).simulate(
            small_trace
        )
        disabled = BypassCache(
            BypassCacheConfig(size_bytes=1024, bypass_threshold=0)
        ).simulate(small_trace)
        assert disabled.total_traffic_bytes == plain.total_traffic_bytes

    def test_bypassed_word_moves_four_bytes(self):
        config = BypassCacheConfig(size_bytes=64, bypass_threshold=3)
        cache = BypassCache(config)
        # Counters start at 2 < 3: everything bypasses.
        cache.access(0, False)
        assert cache.stats.fetch_bytes == 4
        assert cache.bypass_stats.bypassed_reads == 1

    def test_predictor_learns_streaming_is_single_use(self, rng):
        """A long random scan of never-reused blocks should end up mostly
        bypassed once the counters decay."""
        addresses = np.arange(0, 64 * 4096, 32)
        trace = MemTrace(addresses, np.zeros(addresses.size, dtype=bool))
        # Small predictor: many single-use blocks share each counter, so
        # the counters decay to "don't cache" early in the scan.
        cache = BypassCache(
            BypassCacheConfig(size_bytes=1024, predictor_entries=256)
        )
        cache.simulate(trace)
        assert cache.bypass_stats.bypasses > len(trace) * 0.3

    def test_benefit_on_probe_workload(self, rng):
        addresses = rng.integers(0, 1 << 16, size=30_000) * 4
        trace = MemTrace(addresses, np.zeros(30_000, dtype=bool))
        base, improved, saving = bypass_benefit(trace, 2048)
        assert improved <= base
        assert saving >= 0.0

    def test_invalid_threshold(self):
        with pytest.raises(ConfigurationError):
            BypassCacheConfig(size_bytes=1024, bypass_threshold=4)


class TestWriteAwareMTC:
    def test_single_use(self):
        mtc = WriteAwareMTC(WriteAwareConfig(size_bytes=64))
        mtc.simulate(make_trace([0]))
        with pytest.raises(SimulationError):
            mtc.simulate(make_trace([0]))

    def test_weight_zero_equals_plain_min(self, small_trace):
        aware = WriteAwareMTC(
            WriteAwareConfig(size_bytes=1024, writeback_weight=0.0)
        ).simulate(small_trace)
        plain = MinimalTrafficCache(MTCConfig(size_bytes=1024)).simulate(
            small_trace
        )
        assert aware.total_traffic_bytes == plain.total_traffic_bytes

    def test_prefers_clean_victim_when_costs_allow(self):
        # Capacity 2 words. Dirty word A (never reused), clean word B
        # (reused far later), then C arrives. Write-aware should evict the
        # clean-but-reused B only if refetching it is cheaper than writing
        # A back — with both costing one word, evicting the dirty
        # never-reused A is at least as good.
        trace = make_trace(
            [0, 4, 8, 4],
            [True, False, False, False],
        )
        aware = WriteAwareMTC(
            WriteAwareConfig(size_bytes=8, bypass=False)
        ).simulate(trace)
        plain = MinimalTrafficCache(
            MTCConfig(size_bytes=8, bypass=False)
        ).simulate(trace)
        assert aware.total_traffic_bytes <= plain.total_traffic_bytes

    @pytest.mark.parametrize("name", ["Compress", "Eqntott", "Swm"])
    def test_papers_small_disparity_claim(self, name):
        """The paper skipped the Horwitz algorithm believing 'the disparity
        between the two is small'. Verify: under 5% on every benchmark."""
        from repro.workloads import get_workload

        trace = get_workload(name).generate(seed=0, max_refs=60_000)
        _, _, gap = write_aware_gap(trace, 16 * 1024)
        assert abs(gap) < 0.05

    def test_weight_validation(self):
        with pytest.raises(ConfigurationError):
            WriteAwareConfig(size_bytes=1024, writeback_weight=1.5)


class TestPrefetchers:
    def test_tagged_prefetches_next_block_on_miss(self):
        prefetcher = TaggedPrefetcher()
        assert prefetcher.on_access(10, was_hit=False) == [11]
        assert prefetcher.on_access(10, was_hit=True) == []
        assert prefetcher.on_prefetch_used(11) == [12]

    def test_stride_needs_two_confirming_deltas(self):
        prefetcher = StridePrefetcher(degree=1)
        assert prefetcher.on_access(0, False) == []
        assert prefetcher.on_access(3, False) == []      # first delta
        assert prefetcher.on_access(6, False) == [9]     # confirmed

    def test_stride_resets_on_break(self):
        prefetcher = StridePrefetcher(degree=1)
        prefetcher.on_access(0, False)
        prefetcher.on_access(3, False)
        assert prefetcher.on_access(100, False) == []

    def test_stream_buffer_allocation_and_consumption(self):
        prefetcher = StreamBufferPrefetcher(buffers=2, depth=3)
        first = prefetcher.on_access(10, False)
        assert first == [11, 12, 13]
        follow = prefetcher.on_access(11, False)
        assert follow == [14]  # consumed the head, topped up

    def test_streaming_trace_well_covered_by_tagged(self, streaming_trace):
        report = evaluate_prefetcher(streaming_trace, TaggedPrefetcher())
        assert report.coverage > 0.8
        assert report.accuracy > 0.8

    def test_random_trace_defeats_stride(self, rng):
        addresses = rng.integers(0, 1 << 18, size=20_000) * 4
        trace = MemTrace(addresses, np.zeros(20_000, dtype=bool))
        report = evaluate_prefetcher(trace, StridePrefetcher())
        assert report.coverage < 0.1

    def test_stream_buffers_overshoot_costs_traffic(self, streaming_trace):
        """The paper: 'stream buffers prefetch unnecessary data at the end
        of a stream' — overhead must be positive on finite streams."""
        report = evaluate_prefetcher(
            streaming_trace, StreamBufferPrefetcher(depth=8)
        )
        assert report.traffic_overhead > 0.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            StridePrefetcher(degree=0)
        with pytest.raises(ConfigurationError):
            StreamBufferPrefetcher(buffers=0)


class TestAddressCompression:
    def test_repeated_base_compresses(self):
        trace = make_trace([k * 4 for k in range(512)])  # one 2KB region
        report = evaluate_address_compression(trace)
        assert report.hit_rate > 0.99
        assert report.compression_ratio > 1.5

    def test_scattered_bases_defeat_compression(self, rng):
        addresses = rng.integers(0, 1 << 28, size=4000) * 4
        trace = MemTrace(addresses, np.zeros(4000, dtype=bool))
        report = evaluate_address_compression(
            trace, BaseRegisterCacheConfig(registers=4)
        )
        assert report.compression_ratio < 1.1

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            BaseRegisterCacheConfig(offset_bits=32, address_bits=32)

    def test_compressed_bits_accounting(self):
        config = BaseRegisterCacheConfig(registers=16, offset_bits=12)
        assert config.compressed_bits == 1 + 4 + 12
        assert config.miss_bits == 33


class TestInterference:
    def _traces(self):
        a = make_trace(list(range(0, 16_000, 4)) * 2, name="a")
        b = make_trace(list(range(0, 16_000, 4)) * 2, name="b")
        return [a, b]

    def test_sharing_never_reduces_misses(self):
        report = multithreaded_traffic(self._traces())
        assert report.shared_misses >= report.solo_misses * 0.99

    def test_interference_grows_traffic_for_cache_fitting_threads(self):
        """Two threads that each fit the cache alone, but not together."""
        a = make_trace(list(range(0, 12_000, 4)) * 4, name="a")
        b = make_trace(list(range(0, 12_000, 4)) * 4, name="b")
        report = multithreaded_traffic(
            [a, b],
            cache_config=CacheConfig(size_bytes=16 * 1024, block_bytes=32),
            quantum=100,
        )
        assert report.traffic_expansion > 1.3

    def test_needs_two_threads(self):
        with pytest.raises(ConfigurationError):
            multithreaded_traffic([make_trace([0])])

    def test_quantum_validated(self):
        with pytest.raises(ConfigurationError):
            multithreaded_traffic(self._traces(), quantum=0)

    def test_negative_quantum_validated(self):
        with pytest.raises(ConfigurationError, match="quantum"):
            multithreaded_traffic(self._traces(), quantum=-5)

    def test_cmp_demand_scales_superlinearly(self):
        points = chip_multiprocessor_demand(1_000_000, 100_000, 300, 1e9)
        demands = [p.demand_mb_per_s for p in points]
        for index in range(1, len(demands)):
            assert demands[index] > 2 * demands[index - 1] * 0.99

    def test_cmp_finds_the_wall(self):
        points = chip_multiprocessor_demand(1_000_000, 100_000, 300, 10_000)
        assert any(p.bandwidth_bound for p in points)
        assert not points[0].bandwidth_bound

    def test_cmp_validation(self):
        with pytest.raises(ConfigurationError):
            chip_multiprocessor_demand(0, 1, 300, 800)


class TestFigure5:
    @pytest.fixture(scope="class")
    def f5(self):
        from repro.experiments import figure5

        return figure5.run(benchmarks=("Swm",), max_refs=6000)

    def test_unified_is_faster(self, f5):
        assert f5.rows[0].speedup > 1.0

    def test_bandwidth_stalls_collapse(self, f5):
        """The paper's prediction: with memory on die, the pin-bandwidth
        bottleneck disappears."""
        row = f5.rows[0]
        assert row.unified.f_b < row.conventional.f_b
        assert row.unified.f_b < 0.15

    def test_render(self, f5):
        from repro.experiments import figure5

        assert "unified" in figure5.render(f5)
