"""Tests for the synthetic address-stream building blocks."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.trace import synth
from repro.trace.model import MemTrace


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class TestSweep:
    def test_addresses_and_passes(self):
        addresses, writes = synth.sweep(100, 4, passes=2)
        assert addresses.tolist() == [100, 104, 108, 112] * 2
        assert not writes.any()

    def test_write_every(self):
        _, writes = synth.sweep(0, 8, write_every=4)
        assert writes.tolist() == [False, False, False, True] * 2

    def test_stride(self):
        addresses, _ = synth.sweep(0, 8, stride_words=2)
        assert addresses.tolist() == [0, 8, 16, 24]

    def test_repeats_issue_consecutive_duplicates(self):
        addresses, _ = synth.sweep(0, 2, repeats=3)
        assert addresses.tolist() == [0, 0, 0, 4, 4, 4]

    def test_invalid_args(self):
        with pytest.raises(WorkloadError):
            synth.sweep(0, 0)
        with pytest.raises(WorkloadError):
            synth.sweep(0, 4, passes=0)


class TestColumnSweep:
    def test_visits_columns_outermost(self):
        addresses, _ = synth.column_sweep(0, rows=2, row_words=3)
        # column 0: words 0, 3; column 1: words 1, 4; column 2: words 2, 5
        assert (addresses // 4).tolist() == [0, 3, 1, 4, 2, 5]

    def test_total_references(self):
        addresses, _ = synth.column_sweep(0, 5, 7, passes=2)
        assert addresses.size == 5 * 7 * 2


class TestInterleavedSweep:
    def test_lockstep_ordering(self):
        addresses, writes = synth.interleaved_sweep([0, 1000], 2)
        assert addresses.tolist() == [0, 1000, 4, 1004]

    def test_write_last_array(self):
        _, writes = synth.interleaved_sweep([0, 1000], 2, write_last_array=True)
        assert writes.tolist() == [False, True, False, True]

    def test_no_arrays_rejected(self):
        with pytest.raises(WorkloadError):
            synth.interleaved_sweep([], 4)


class TestProbes:
    def test_random_probes_stay_in_table(self, rng):
        addresses, _ = synth.random_probes(rng, 1000, 64, 500)
        assert addresses.min() >= 1000
        assert addresses.max() < 1000 + 64 * 4

    def test_random_probes_write_fraction(self, rng):
        _, writes = synth.random_probes(rng, 0, 64, 5000, write_fraction=0.5)
        assert 0.4 < writes.mean() < 0.6

    def test_hot_fraction_requires_hot_words(self, rng):
        with pytest.raises(WorkloadError):
            synth.random_probes(rng, 0, 64, 10, hot_fraction=0.5)

    def test_hot_region_concentrates_probes(self, rng):
        addresses, _ = synth.random_probes(
            rng, 0, 10_000, 5000, hot_fraction=0.9, hot_words=16
        )
        hot_hits = (addresses < 16 * 4).mean()
        assert hot_hits > 0.8

    def test_zipf_head_is_hot(self, rng):
        addresses, _ = synth.zipf_probes(rng, 0, 1000, 20_000, alpha=1.2)
        counts = np.bincount(addresses // 4, minlength=1000)
        top10_share = np.sort(counts)[-10:].sum() / counts.sum()
        assert top10_share > 0.25

    def test_zipf_alpha_validated(self, rng):
        with pytest.raises(WorkloadError):
            synth.zipf_probes(rng, 0, 100, 10, alpha=0.0)


class TestPointerChain:
    def test_node_words_touched_consecutively(self, rng):
        addresses, _ = synth.pointer_chain(rng, 0, nodes=8, node_words=3, count=4)
        words = addresses // 4
        # Each visit touches 3 consecutive words of one node.
        for i in range(0, words.size, 3):
            chunk = words[i : i + 3]
            assert chunk.tolist() == list(range(chunk[0], chunk[0] + 3))

    def test_locality_validated(self, rng):
        with pytest.raises(WorkloadError):
            synth.pointer_chain(rng, 0, 8, 2, 4, locality=1.0)


class TestKernels:
    def test_tiled_mxm_footprint(self):
        addresses, writes = synth.tiled_matrix_multiply(0, 10_000, 20_000, 8, 4)
        trace = MemTrace(addresses, writes)
        # Three 8x8 matrices touched entirely.
        assert trace.footprint_bytes == 3 * 8 * 8 * 4

    def test_tiled_mxm_writes_only_c(self):
        addresses, writes = synth.tiled_matrix_multiply(0, 10_000, 20_000, 8, 4)
        assert addresses[writes].min() >= 20_000

    def test_tile_must_divide_side(self):
        with pytest.raises(WorkloadError):
            synth.tiled_matrix_multiply(0, 1, 2, 10, 4)

    def test_fft_reference_count(self):
        addresses, _ = synth.fft_butterflies(0, 8, element_words=2)
        # log2(8)=3 stages x 4 pairs x 4 refs x 2 words = 96
        assert addresses.size == 3 * 4 * 4 * 2

    def test_fft_requires_power_of_two(self):
        with pytest.raises(WorkloadError):
            synth.fft_butterflies(0, 12)

    def test_fft2d_has_row_and_column_phases(self):
        addresses, _ = synth.fft2d_passes(0, 4, 8)
        assert addresses.size > 0
        # Column phase strides are the padded row (odd word count).
        assert (8 * 2 + 1) % 2 == 1

    def test_stencil_writes_centre_only(self):
        addresses, writes = synth.stencil_sweeps(0, 4, points=5)
        # 4x4 grid -> 2x2 interior cells, 5 refs each, centre written last
        assert addresses.size == 4 * 5
        assert writes.tolist() == ([False] * 4 + [True]) * 4

    def test_stencil_rejects_unknown_points(self):
        with pytest.raises(WorkloadError):
            synth.stencil_sweeps(0, 4, points=7)

    def test_merge_sort_alternates_read_write(self):
        addresses, writes = synth.merge_sort_passes(0, 8)
        assert writes.tolist()[:4] == [False, True, False, True]

    def test_quicksort_scans_have_log_levels(self):
        addresses, _ = synth.quicksort_scans(0, 64, min_run_words=8,
                                             bottom_repeats=1)
        # levels: 64, 2x32, 4x16, 8x8 -> 4 full passes over the array
        assert addresses.size == 4 * 64

    def test_quicksort_bottom_repeats(self):
        single = synth.quicksort_scans(0, 64, min_run_words=8, bottom_repeats=1)
        triple = synth.quicksort_scans(0, 64, min_run_words=8, bottom_repeats=3)
        assert triple[0].size == single[0].size + 2 * 64


class TestCombinators:
    def test_interleave_preserves_stream_order(self):
        a = synth.sweep(0, 64)
        b = synth.sweep(10_000, 64)
        addresses, _ = synth.interleave_streams([a, b], chunk=8)
        from_a = addresses[addresses < 10_000]
        assert np.all(np.diff(from_a) > 0)

    def test_interleave_preserves_total_counts(self):
        a = synth.sweep(0, 100)
        b = synth.sweep(10_000, 37)
        addresses, _ = synth.interleave_streams([a, b], chunk=8)
        assert addresses.size == 137

    def test_interleave_proportional_chunks_preserve_prefix_mix(self):
        # A truncated prefix keeps each stream's share of references.
        a = synth.sweep(0, 1000)
        b = synth.sweep(100_000, 250)
        addresses, _ = synth.interleave_streams([a, b], chunk=40)
        prefix = addresses[:500]
        share_b = (prefix >= 100_000).mean()
        assert 0.1 < share_b < 0.3  # 250/1250 = 0.2

    def test_interleave_empty_streams_rejected(self):
        with pytest.raises(WorkloadError):
            synth.interleave_streams([])

    @pytest.mark.parametrize("chunk", [0, -3])
    def test_interleave_non_positive_chunk_rejected(self, chunk):
        with pytest.raises(WorkloadError):
            synth.interleave_streams([synth.sweep(0, 8)], chunk=chunk)

    @staticmethod
    def _interleaved():
        # The interleave takes no generator: its schedule is seed-free.
        return synth.interleave_streams(
            [synth.sweep(0, 64), synth.sweep(4096, 64)], chunk=8
        )

    def test_interleave_is_deterministic(self):
        a, b = self._interleaved(), self._interleaved()
        assert a[0].tolist() == b[0].tolist()
        assert a[1].tolist() == b[1].tolist()

    def test_interleave_stream_pair_shape_contract(self):
        addresses, writes = self._interleaved()
        assert addresses.dtype == np.int64
        assert writes.dtype == bool
        assert addresses.shape == writes.shape

    def test_concat(self):
        a = synth.sweep(0, 4)
        b = synth.sweep(100, 4)
        addresses, _ = synth.concat_streams([a, b])
        assert addresses.tolist()[:4] == [0, 4, 8, 12]
        assert addresses.tolist()[4:] == [100, 104, 108, 112]

    def test_truncate(self):
        pair = synth.truncate(synth.sweep(0, 100), 10)
        assert pair[0].size == 10

    def test_to_trace(self):
        trace = synth.to_trace(synth.sweep(0, 4), name="x")
        assert isinstance(trace, MemTrace)
        assert trace.name == "x"


def reference_round_robin(streams, chunks):
    """The round-robin schedule as a stable sort on (round, stream)."""
    rounds = np.concatenate(
        [np.arange(s[0].size) // chunk for s, chunk in zip(streams, chunks)]
    )
    owner = np.concatenate(
        [np.full(s[0].size, i) for i, s in enumerate(streams)]
    )
    order = np.lexsort((owner, rounds))
    return (
        np.concatenate([s[0] for s in streams])[order],
        np.concatenate([s[1] for s in streams])[order],
        owner[order],
    )


class TestRoundRobin:
    def test_schedule(self):
        a = (np.array([1, 2, 3, 4, 5]), np.zeros(5, dtype=bool))
        b = (np.array([10, 20]), np.ones(2, dtype=bool))
        addresses, writes, owner = synth.round_robin([a, b], [2, 1])
        assert addresses.tolist() == [1, 2, 10, 3, 4, 20, 5]
        assert writes.tolist() == [0, 0, 1, 0, 0, 1, 0]
        assert owner.tolist() == [0, 0, 1, 0, 0, 1, 0]
        assert owner.dtype == np.int16

    @pytest.mark.parametrize("seed", range(32))
    def test_matches_stable_sort_on_round_and_stream(self, seed):
        gen = np.random.default_rng(seed)
        count = int(gen.integers(1, 6))
        streams = []
        for _ in range(count):
            size = int(gen.integers(0, 300))  # empty streams included
            # Strided views: streams need not be contiguous arrays.
            streams.append(
                (gen.integers(0, 1 << 40, 2 * size)[::2], gen.random(size) < 0.3)
            )
        chunks = gen.integers(1, 70, count).tolist()
        got = synth.round_robin(streams, chunks)
        want = reference_round_robin(streams, chunks)
        for got_array, want_array in zip(got, want):
            assert got_array.tolist() == want_array.tolist()

    def test_all_streams_empty(self):
        empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=bool))
        addresses, writes, owner = synth.round_robin([empty, empty], [4, 4])
        assert addresses.size == writes.size == owner.size == 0

    @pytest.mark.parametrize("chunks", [[0], [4, 0], [-1, 4]])
    def test_non_positive_chunk_rejected(self, chunks):
        streams = [synth.sweep(0, 8)] * len(chunks)
        with pytest.raises(WorkloadError, match="positive"):
            synth.round_robin(streams, chunks)

    def test_shape_mismatches_rejected(self):
        with pytest.raises(WorkloadError):
            synth.round_robin([], [])
        with pytest.raises(WorkloadError):
            synth.round_robin([synth.sweep(0, 8)], [4, 4])


class TestDeterminism:
    """Every rng-driven builder is a pure function of the generator state
    — the property the scenario engine's content addressing rests on."""

    BUILDERS = {
        "random_probes": lambda rng: synth.random_probes(
            rng, 0, 1000, 500, write_fraction=0.3,
            hot_fraction=0.5, hot_words=16,
        ),
        "zipf_probes": lambda rng: synth.zipf_probes(
            rng, 0, 1000, 500, alpha=1.2, write_fraction=0.3
        ),
        "pointer_chain": lambda rng: synth.pointer_chain(
            rng, 0, 64, 4, 500, locality=0.5
        ),
    }

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_same_seed_same_stream(self, name):
        build = self.BUILDERS[name]
        a = build(np.random.default_rng(11))
        b = build(np.random.default_rng(11))
        c = build(np.random.default_rng(12))
        assert a[0].tolist() == b[0].tolist()
        assert a[1].tolist() == b[1].tolist()
        assert a[0].tolist() != c[0].tolist()

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_stream_pair_shape_contract(self, name):
        addresses, writes = self.BUILDERS[name](np.random.default_rng(3))
        assert addresses.dtype == np.int64
        assert writes.dtype == bool
        assert addresses.shape == writes.shape


class TestSizeOneEdgeCases:
    def test_single_word_sweep_write_every_one(self):
        addresses, writes = synth.sweep(0, 1, write_every=1)
        assert addresses.tolist() == [0]
        assert writes.tolist() == [True]

    def test_single_word_sweep_repeats_count_toward_write_every(self):
        addresses, writes = synth.sweep(0, 1, repeats=3, write_every=2)
        assert addresses.tolist() == [0, 0, 0]
        # write_every counts references, not distinct words: the cadence
        # keeps ticking through consecutive repeats.
        assert writes.tolist() == [False, True, False]

    def test_single_word_passes(self):
        addresses, writes = synth.sweep(0, 1, passes=2)
        assert addresses.tolist() == [0, 0]
        assert not writes.any()

    def test_single_probe(self):
        addresses, writes = synth.random_probes(
            np.random.default_rng(0), 0, 1, 1, write_fraction=1.0
        )
        assert addresses.tolist() == [0]
        assert writes.tolist() == [True]
