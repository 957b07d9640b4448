"""Vectorized simulation engines and one-pass multi-size sweep kernels.

The scalar simulators in :mod:`repro.mem.cache` and :mod:`repro.mem.mtc`
process one reference per Python-interpreter iteration, which caps every
experiment near 10^6 references/second. This module provides numpy
kernels that compute *bit-identical* :class:`~repro.mem.cache.CacheStats`
(the differential property suite in ``tests/test_mem_engines.py`` holds
them to exact equality):

* :func:`simulate_cache_columns` — A-way set-associative LRU simulation
  for every write/allocate policy combination. References are grouped by
  set with one stable sort, then laid out column-major (k-th access of
  every set side by side) so each time step updates all sets' LRU stacks
  with a handful of array operations instead of one Python iteration per
  reference.
* :func:`simulate_mtc_fast` — the minimal-traffic cache's Belady MIN
  with a vectorized next-use pass and batched hit accounting: runs of
  hits between misses are counted with array reductions, and only the
  misses (where the lazy victim heap is consulted) run in Python.
* :func:`_dm_stats_from_order` — the one direct-mapped write-back/
  write-allocate kernel: after one stable sort by set, a reference hits
  iff the previous reference to its set touched the same block.
  ``Cache.simulate`` reaches it through :func:`dispatch_cache`, and
  :func:`direct_mapped_family` runs it once per swept size.
* :func:`direct_mapped_family` / :func:`fully_associative_lru_family` —
  one-pass multi-size sweeps. The direct-mapped family shares one stable
  sort across the whole size axis (each doubling refines the previous
  partition by one set-index bit — an LSD radix step, so the per-size
  orderings are exactly the ones ``np.argsort`` would produce); the
  fully-associative family reads every size off a single Mattson
  stack-distance pass (:func:`repro.trace.mrc.traffic_curve`).

Engine selection is a process-wide choice (``auto`` | ``scalar`` |
``vector`` | ``sampled``) settable via :func:`set_engine`, the
:func:`use_engine` context manager, the ``REPRO_ENGINE`` environment
variable, or the CLI's ``--engine`` flag. ``auto`` picks vector kernels
when they are eligible and a simple cost model predicts a win; ``scalar``
forces the reference implementations (including disabling the
long-standing direct-mapped fast path — this is the honest baseline for
differential tests and benchmarks); ``vector`` demands a vector kernel
and raises :class:`~repro.errors.ConfigurationError` where none exists.
``sampled`` is the third tier (:mod:`repro.mem.sampled`): spatial
reference sampling producing *estimates with error envelopes* instead of
exact counts — ``auto`` only ever picks it when a sampling rate was
explicitly configured and the trace is huge.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.mem.cache import (
    AllocatePolicy,
    CacheConfig,
    CacheStats,
    WritePolicy,
)
from repro.mem.mtc import MTCConfig
from repro.mem.policies import NEVER, compute_next_use
from repro.obs import OBS, TRACER
from repro.trace.model import MemTrace, WORD_BYTES

__all__ = [
    "ENGINE_CHOICES",
    "current_engine",
    "set_engine",
    "use_engine",
    "resolve_engine",
    "cache_vector_reason",
    "simulate_cache_columns",
    "direct_mapped_family",
    "fully_associative_lru_family",
    "PreparedMTC",
    "prepare_mtc",
    "mtc_fast_supported",
    "simulate_mtc_fast",
]

#: Valid values for the process-wide engine selection.
ENGINE_CHOICES = ("auto", "scalar", "vector", "sampled")

#: Word masks fit one int64 (bit 63 is the sign), so write-validate's
#: per-word valid/dirty masks vectorize only up to this many words.
MAX_MASK_WORDS = 62


def _validated(name: str) -> str:
    if name not in ENGINE_CHOICES:
        raise ConfigurationError(
            f"unknown engine {name!r}; choose from {'|'.join(ENGINE_CHOICES)}"
        )
    return name


_engine: str = _validated(os.environ.get("REPRO_ENGINE", "auto"))


def current_engine() -> str:
    """The process-wide engine selection (``auto``/``scalar``/``vector``)."""
    return _engine


def set_engine(name: str) -> None:
    """Set the process-wide engine selection."""
    global _engine
    _engine = _validated(name)


@contextmanager
def use_engine(name: str | None):
    """Temporarily set the engine selection; ``None`` is a no-op."""
    if name is None:
        yield
        return
    previous = _engine
    set_engine(name)
    try:
        yield
    finally:
        set_engine(previous)


def resolve_engine(explicit: str | None = None) -> str:
    """An explicit per-call engine choice, else the process-wide one."""
    return _validated(explicit) if explicit is not None else _engine


# --------------------------------------------------------------------------
# Auto-selection cost model
# --------------------------------------------------------------------------

# Rough single-core throughput constants, calibrated on the container
# this repo benchmarks in (see docs/performance.md). They only steer the
# scalar/vector choice under "auto"; correctness never depends on them.
_SCALAR_SECONDS_PER_REF = 1.0e-6
_VECTOR_SECONDS_PER_COLUMN = 3.0e-5
_VECTOR_SECONDS_PER_REF = 2.0e-7
_VECTOR_SECONDS_PER_WAY_REF = 2.0e-9


def _columns_profitable(n: int, ways: int, longest_set: int) -> bool:
    """Predict whether the column kernel beats the scalar loop.

    The kernel's cost has a per-column floor (one batch of numpy calls
    per time step), so heavily skewed set-access distributions — one hot
    set receiving most references, as Compress's hash loop produces —
    make it slower than the scalar loop even though balanced traces run
    an order of magnitude faster.
    """
    vector = (
        longest_set * _VECTOR_SECONDS_PER_COLUMN
        + n * _VECTOR_SECONDS_PER_REF
        + n * ways * _VECTOR_SECONDS_PER_WAY_REF
    )
    return vector < n * _SCALAR_SECONDS_PER_REF


# --------------------------------------------------------------------------
# Set-associative LRU column kernel
# --------------------------------------------------------------------------


def cache_vector_reason(config: CacheConfig, listener=None) -> str | None:
    """Why *config* cannot use a vector cache engine (None = it can)."""
    if listener is not None:
        return "traffic listeners require the per-access scalar loop"
    if config.replacement == "min":
        return "MIN replacement is served by the MTC engine, not the cache kernel"
    if config.replacement != "lru" and config.associativity > 1:
        return (
            f"{config.replacement!r} replacement only vectorizes at "
            "associativity 1 (victim choice is forced)"
        )
    if (
        config.allocate is AllocatePolicy.WRITE_VALIDATE
        and config.words_per_block > MAX_MASK_WORDS
    ):
        return (
            f"write-validate masks for {config.words_per_block}-word "
            f"blocks exceed one int64 ({MAX_MASK_WORDS} words)"
        )
    return None


def _dm_fast_eligible(config: CacheConfig, listener) -> bool:
    return (
        listener is None
        and config.associativity == 1
        and config.write_policy is WritePolicy.WRITEBACK
        and config.allocate is AllocatePolicy.WRITE_ALLOCATE
        and config.replacement in ("lru", "fifo", "random")
    )


def dispatch_cache(
    config: CacheConfig,
    trace: MemTrace,
    *,
    flush: bool,
    selection: str,
    listener=None,
) -> CacheStats | None:
    """Pick and run a vector cache engine, or return None for scalar.

    ``selection`` is a resolved engine name other than ``"scalar"`` or
    ``"sampled"`` (the sampled tier dispatches in ``Cache.simulate``
    before this point). Under ``"vector"`` an ineligible configuration
    raises; under ``"auto"`` the cost model may still prefer the scalar
    loop.
    """
    if _dm_fast_eligible(config, listener):
        if len(trace) == 0:
            return CacheStats()
        blocks = trace.addresses // config.block_bytes
        order = np.argsort(blocks % config.num_sets, kind="stable")
        return _dm_stats_from_order(config, blocks, order, trace, flush)
    reason = cache_vector_reason(config, listener)
    if reason is not None:
        if selection == "vector":
            raise ConfigurationError(
                f"no vector engine for {config.describe()}: {reason}"
            )
        return None
    if selection == "auto":
        n = len(trace)
        if n == 0:
            return None
        sets = (trace.addresses // config.block_bytes) % config.num_sets
        if config.num_sets <= 1 << 22:
            counts = np.bincount(sets, minlength=1)
        else:  # sparse giant set spaces: count per touched set only
            _, counts = np.unique(sets, return_counts=True)
        if not _columns_profitable(n, config.associativity, int(counts.max())):
            return None
    return simulate_cache_columns(config, trace, flush=flush)


def _column_layout(sets: np.ndarray):
    """Column-major layout of references grouped by set.

    Returns ``(colorder, lanes_per_column, offsets, longest)`` where
    ``colorder`` permutes the trace so that column ``t`` (every set's
    t-th access, sets ordered by descending access count) occupies the
    contiguous slice ``offsets[t]:offsets[t + 1]``. Ordering sets by
    count makes the active lanes of every column a prefix of the state
    arrays, so each time step works on plain slices.
    """
    n = sets.size
    order = np.argsort(sets, kind="stable")
    grouped = sets[order]
    heads = np.empty(n, dtype=bool)
    heads[0] = True
    heads[1:] = grouped[1:] != grouped[:-1]
    group_of = np.cumsum(heads) - 1
    counts = np.bincount(group_of)
    num_groups = counts.size
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    position = np.arange(n, dtype=np.int64) - np.repeat(starts, counts)
    by_count = np.argsort(-counts, kind="stable")
    lane_of_group = np.empty(num_groups, dtype=np.int64)
    lane_of_group[by_count] = np.arange(num_groups, dtype=np.int64)
    lane = lane_of_group[group_of]
    colorder = order[np.argsort(position * num_groups + lane, kind="stable")]
    counts_desc = counts[by_count]
    longest = int(counts_desc[0])
    lanes_per_column = np.searchsorted(
        -counts_desc, -np.arange(longest, dtype=np.int64), side="left"
    )
    offsets = np.concatenate(([0], np.cumsum(lanes_per_column)))
    return colorder, lanes_per_column, offsets, longest


def simulate_cache_columns(
    config: CacheConfig, trace: MemTrace, *, flush: bool = True
) -> CacheStats:
    """Vectorized exact set-associative LRU simulation (all policies).

    Each set's LRU stack is one row of an ``(active sets, ways)`` array,
    MRU first. Every time step processes one access per active set: a
    block match against the stack gives hits and ways, and a gather with
    a per-row shifted source index rotates the touched (or victim) way
    to the front — the array form of the scalar move-to-front.

    Stack entries are packed as ``block << 1 | dirty`` (sentinel ``-2``),
    so the block-granularity write-back state rides along in the one
    rotate gather instead of needing its own gather and copy-back per
    column — the loop body is pure per-call overhead at these widths, so
    fewer numpy crossings is directly fewer microseconds per column.
    Write-validate keeps separate per-word valid/dirty masks (bit 0 of
    the packed entry stays clear).
    """
    reason = cache_vector_reason(config)
    if reason is not None:
        raise ConfigurationError(
            f"no vector engine for {config.describe()}: {reason}"
        )
    n = len(trace)
    stats = CacheStats(
        accesses=n, reads=trace.read_count, writes=trace.write_count
    )
    if n == 0:
        return stats

    block_bytes = config.block_bytes
    ways = config.associativity
    writeback = config.write_policy is WritePolicy.WRITEBACK
    write_validate = config.allocate is AllocatePolicy.WRITE_VALIDATE
    no_allocate = config.allocate is AllocatePolicy.NO_ALLOCATE

    blocks = trace.addresses // block_bytes
    sets = blocks % config.num_sets
    colorder, lanes, offsets, longest = _column_layout(sets)
    # Packed column streams: block << 1 (dirty bit clear) and its |1 twin
    # for sentinel-proof matching (sentinel | 1 == -1 matches nothing).
    cpacked = blocks[colorder] << 1
    cmatch = cpacked | 1
    cwrites = trace.is_write[colorder]
    if write_validate:
        word_bits = np.int64(1) << (
            (trace.addresses % block_bytes) // WORD_BYTES
        )
        cbits = word_bits[colorder]
        full_mask = np.int64((1 << config.words_per_block) - 1)

    num_lanes = int(lanes[0])
    stack = np.full((num_lanes, ways), -2, dtype=np.int64)
    if write_validate:
        valid = np.zeros((num_lanes, ways), dtype=np.int64)
        dirty_mask = np.zeros((num_lanes, ways), dtype=np.int64)

    way_index = np.arange(ways, dtype=np.int64)
    way_row = way_index[None, :]
    rows_full = np.arange(num_lanes, dtype=np.intp)[:, None]
    read_hits = 0
    write_hits = 0
    fetch_blocks = 0
    fetch_words = 0
    writeback_blocks = 0
    writeback_words = 0
    writethrough_words = 0
    last_way = ways - 1
    track_dirty = writeback and not write_validate

    for t in range(longest):
        active = int(lanes[t])
        start = int(offsets[t])
        stop = start + active
        wrt = cwrites[start:stop]
        sb = stack[:active]

        match = (sb | 1) == cmatch[start:stop, None]
        hit = match.any(axis=1)
        miss = ~hit
        way = np.where(hit, match.argmax(axis=1), last_way)

        hits_here = int(np.count_nonzero(hit))
        rh = int(np.count_nonzero(hit & ~wrt))
        read_hits += rh
        write_hits += hits_here - rh

        if no_allocate:
            # Write misses bypass the cache entirely: no state change.
            change = hit | ~wrt
            writethrough_words += int(np.count_nonzero(miss & wrt))
            evict = miss & ~wrt
        else:
            change = None
            evict = miss

        # Victim accounting happens before the rotate overwrites way 0;
        # never-filled ways hold the clean -2 sentinel.
        if track_dirty:
            victim_dirty = (sb[:, last_way] & 1) != 0
            writeback_blocks += int(np.count_nonzero(evict & victim_dirty))
        elif writeback:
            wv_victim = dirty_mask[:active, last_way][evict]
            writeback_words += int(np.bitwise_count(wv_victim).sum())

        src = way_row - (way_row <= way[:, None])
        src[:, 0] = way
        rows = rows_full[:active]
        new_stack = sb[rows, src]

        if write_validate:
            new_valid = valid[:active][rows, src]
            new_dirty = dirty_mask[:active][rows, src]
            front_valid = new_valid[:, 0]
            # Read of a write-validated hole: fetch the whole block.
            hole = hit & ~wrt & ((front_valid & cbits[start:stop]) == 0)
            fetch_blocks += int(np.count_nonzero(miss & ~wrt))
            fetch_blocks += int(np.count_nonzero(hole))
            bit = cbits[start:stop]
            wbit = np.where(wrt, bit, np.int64(0))
            new_valid[:, 0] = np.where(
                hit,
                np.where(hole, full_mask, front_valid) | wbit,
                np.where(wrt, bit, full_mask),
            )
            new_dirty[:, 0] = np.where(hit, new_dirty[:, 0] | wbit, wbit)
            valid[:active] = new_valid
            dirty_mask[:active] = new_dirty
            new_stack[:, 0] = cpacked[start:stop]
        else:
            if config.allocate is AllocatePolicy.WRITE_ALLOCATE:
                fetch_blocks += active - hits_here
            else:  # no-allocate: only read misses fetch
                fetch_blocks += int(np.count_nonzero(evict))
            if track_dirty:
                # Hits inherit the touched way's dirty bit; fills start
                # dirty exactly when the access is a write.
                stay_dirty = hit & ((new_stack[:, 0] & 1) != 0)
                new_stack[:, 0] = cpacked[start:stop] + (wrt | stay_dirty)
            else:
                new_stack[:, 0] = cpacked[start:stop]

        if change is not None:
            stack[:active] = np.where(change[:, None], new_stack, sb)
        else:
            stack[:active] = new_stack

    if config.write_policy is WritePolicy.WRITETHROUGH:
        # Every write sends its word below, hit or miss, all policies.
        writethrough_words = trace.write_count

    stats.read_hits = read_hits
    stats.write_hits = write_hits
    stats.fetch_bytes = fetch_blocks * block_bytes + fetch_words * WORD_BYTES
    stats.writeback_bytes = (
        writeback_blocks * block_bytes + writeback_words * WORD_BYTES
    )
    stats.writethrough_bytes = writethrough_words * WORD_BYTES

    if flush and writeback:
        if write_validate:
            stats.flush_writeback_bytes = (
                int(np.bitwise_count(dirty_mask).sum()) * WORD_BYTES
            )
        else:
            # Dirty bits live in bit 0 of the packed stack entries; the
            # -2 sentinel has a clear bit 0 and never counts.
            stats.flush_writeback_bytes = (
                int(np.count_nonzero(stack & 1)) * block_bytes
            )
    return stats


# --------------------------------------------------------------------------
# One-pass multi-size families
# --------------------------------------------------------------------------


def _record_family(
    kind: str,
    trace: MemTrace,
    results: dict[int, CacheStats],
    started: float | None = None,
) -> None:
    """Credit a family pass with the per-size simulations it replaced.

    Each size's stats cover the full trace, so the counters receive the
    *equivalent* per-size reference counts — ``cache.accesses`` divided
    by wall-clock then reads as effective throughput, which is exactly
    the quantity the one-pass sweep is supposed to multiply.
    """
    if TRACER.enabled and started is not None:
        TRACER.emit_span(
            "engine.family",
            started,
            time.time(),
            family=kind,
            trace=trace.name,
            sizes=len(results),
        )
    if not OBS.enabled:
        return
    if started is not None:
        OBS.hist(f"engine.family.{kind}.time", time.time() - started)
    OBS.count("cache.simulations", len(results))
    total = 0
    for stats in results.values():
        total += stats.accesses
        OBS.count("cache.accesses", stats.accesses)
        OBS.count("cache.misses", stats.misses)
        OBS.count("cache.fetch_bytes", stats.fetch_bytes)
        OBS.count(
            "cache.writeback_bytes",
            stats.writeback_bytes + stats.flush_writeback_bytes,
        )
        OBS.count("cache.writethrough_bytes", stats.writethrough_bytes)
    OBS.emit(
        "engine.family",
        family=kind,
        trace=trace.name,
        sizes=sorted(results),
        accesses=total,
    )


def direct_mapped_family(
    trace: MemTrace,
    sizes_bytes: list[int],
    *,
    block_bytes: int = 32,
    flush: bool = True,
) -> dict[int, CacheStats]:
    """Exact stats for every direct-mapped WB/WA cache size in one pass.

    One stable sort at the smallest set count; each size doubling then
    refines the permutation with a single stable bit partition (an LSD
    radix step), which reproduces ``np.argsort(blocks % sets, stable)``
    for that size exactly — so every per-size result is bit-identical to
    a single-size ``Cache.simulate`` (which runs the same kernel,
    :func:`_dm_stats_from_order`, on that sort) while the O(n log n) sort
    is paid once for the whole axis.
    """
    results: dict[int, CacheStats] = {}
    if not sizes_bytes:
        return results
    started = time.time()
    for size in sizes_bytes:
        # Validate every size eagerly (matches per-size construction).
        CacheConfig(size_bytes=size, block_bytes=block_bytes)
    n = len(trace)
    blocks = trace.addresses // block_bytes
    order: np.ndarray | None = None
    bits_done = 0
    for size in sorted(set(sizes_bytes)):
        num_sets = size // block_bytes
        bits = num_sets.bit_length() - 1
        if n == 0:
            results[size] = CacheStats()
            continue
        if order is None:
            order = np.argsort(blocks % num_sets, kind="stable")
        else:
            for bit in range(bits_done, bits):
                is_set = ((blocks[order] >> bit) & 1).astype(bool)
                order = np.concatenate((order[~is_set], order[is_set]))
        bits_done = bits
        config = CacheConfig(size_bytes=size, block_bytes=block_bytes)
        results[size] = _dm_stats_from_order(
            config, blocks, order, trace, flush
        )
    _record_family("direct-mapped", trace, results, started)
    return results


def _dm_stats_from_order(
    config: CacheConfig,
    blocks: np.ndarray,
    order: np.ndarray,
    trace: MemTrace,
    flush: bool,
) -> CacheStats:
    """Exact direct-mapped WB/WA stats given the set-grouped permutation.

    The library's one direct-mapped kernel. Each set holds one block, so
    a reference hits iff the previous reference to its set touched the
    same block: with references grouped by set (*order* is the stable
    ``argsort`` of ``blocks % num_sets``) the whole simulation is array
    comparisons. The differential suite pins it to the scalar
    ``Cache.access`` loop.
    """
    n = blocks.size
    stats = CacheStats(
        accesses=n, reads=trace.read_count, writes=trace.write_count
    )
    sorted_blocks = blocks[order]
    sorted_sets = sorted_blocks % config.num_sets
    sorted_writes = trace.is_write[order]

    same_set = np.empty(n, dtype=bool)
    same_set[0] = False
    same_set[1:] = sorted_sets[1:] == sorted_sets[:-1]
    same_block = np.empty(n, dtype=bool)
    same_block[0] = False
    same_block[1:] = sorted_blocks[1:] == sorted_blocks[:-1]
    hit = same_set & same_block
    miss = ~hit

    stats.read_hits = int(np.sum(hit & ~sorted_writes))
    stats.write_hits = int(np.sum(hit & sorted_writes))
    stats.fetch_bytes = int(miss.sum()) * config.block_bytes

    # A residency run is a maximal streak of hits after a miss; the run is
    # written back when its block is evicted (the next miss in the set) or
    # at the final flush. Either way every dirty run costs one block.
    run_id = np.cumsum(miss) - 1
    dirty_runs = np.zeros(int(run_id[-1]) + 1, dtype=bool)
    np.logical_or.at(dirty_runs, run_id[sorted_writes], True)
    dirty_total = int(dirty_runs.sum()) * config.block_bytes

    # The last run of each set is still resident at the end: flushed, or
    # (without a flush) never written back.
    last_of_set = np.zeros(int(run_id[-1]) + 1, dtype=bool)
    set_change = np.empty(n, dtype=bool)
    set_change[:-1] = sorted_sets[1:] != sorted_sets[:-1]
    set_change[-1] = True
    last_of_set[run_id[set_change]] = True
    flushed = int(np.sum(dirty_runs & last_of_set)) * config.block_bytes
    stats.writeback_bytes = dirty_total - flushed
    if flush:
        stats.flush_writeback_bytes = flushed
    return stats


def fully_associative_lru_family(
    trace: MemTrace,
    sizes_bytes: list[int],
    *,
    block_bytes: int = 32,
    flush: bool = True,
) -> dict[int, CacheStats]:
    """Exact stats for every fully-associative LRU WB/WA size in one pass.

    Built on the extended Mattson analysis of
    :func:`repro.trace.mrc.traffic_curve`: one stack-distance pass yields
    hits, fetches, write-backs, and flush write-backs for *every*
    capacity at once. Bit-identical to simulating each size with
    ``CacheConfig.fully_associative`` (the differential suite holds it
    to exact equality).
    """
    from repro.trace.mrc import traffic_curve

    started = time.time()
    for size in sizes_bytes:
        CacheConfig.fully_associative(size, block_bytes)
    curve = traffic_curve(trace, block_bytes=block_bytes)
    results = {
        size: curve.stats_at(size // block_bytes, flush=flush)
        for size in sizes_bytes
    }
    _record_family("fully-associative-lru", trace, results, started)
    return results


# --------------------------------------------------------------------------
# Minimal-traffic cache (Belady MIN) fast engine
# --------------------------------------------------------------------------


@dataclass(slots=True)
class PreparedMTC:
    """Pass-1 products of an MTC run, reusable across cache sizes.

    ``dense`` maps each reference to a dense block id (``np.unique``
    keeps ids in block-value order, so heap tie-breaks on dense ids
    order identically to ties on raw block numbers).
    """

    block_bytes: int
    dense: np.ndarray        #: per-reference dense block id (int64)
    next_use: np.ndarray     #: per-reference next-use position (int64)
    is_write: np.ndarray     #: per-reference write flag (bool)
    #: Sorted positions of each block's first reference (always misses).
    first_positions: np.ndarray
    #: write_prefix[p] = number of writes before position p (len n + 1).
    write_prefix: np.ndarray
    num_blocks: int          #: distinct blocks in the trace
    _lists: tuple[list, list, list] | None = None

    def as_lists(self) -> tuple[list, list, list]:
        """(dense, next_use, is_write) as plain lists, memoized.

        Python-level indexing is ~3x cheaper on lists than on numpy
        scalars; the short-run fallback of :func:`simulate_mtc_fast` is
        hot enough for that to matter, and memoizing on the prepared
        pass shares the conversion across a whole size sweep.
        """
        if self._lists is None:
            self._lists = (
                self.dense.tolist(),
                self.next_use.tolist(),
                self.is_write.tolist(),
            )
        return self._lists


def prepare_mtc(trace: MemTrace, block_bytes: int = WORD_BYTES) -> PreparedMTC:
    """Vectorized pass 1: dense ids, next-use chains, first touches."""
    blocks = trace.addresses // block_bytes
    uniq, dense = np.unique(blocks, return_inverse=True)
    dense = dense.astype(np.int64, copy=False)
    n = dense.size
    next_use = np.full(n, NEVER, dtype=np.int64)
    if n:
        order = np.argsort(dense, kind="stable")
        grouped = dense[order]
        heads = np.empty(n, dtype=bool)
        heads[0] = True
        heads[1:] = grouped[1:] != grouped[:-1]
        same = ~heads[1:]
        next_use[order[:-1][same]] = order[1:][same]
        first_positions = np.sort(order[heads])
    else:
        first_positions = np.empty(0, dtype=np.int64)
    write_prefix = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(trace.is_write, out=write_prefix[1:])
    return PreparedMTC(
        block_bytes=block_bytes,
        dense=dense,
        next_use=next_use,
        is_write=trace.is_write,
        first_positions=first_positions,
        write_prefix=write_prefix,
        num_blocks=int(uniq.size),
    )


def mtc_fast_supported(config: MTCConfig) -> str | None:
    """Why *config* cannot use the fast MTC engine (None = it can)."""
    if config.words_per_block != 1:
        return (
            "the batched MTC engine is word-granularity only "
            f"(got {config.block_bytes}-byte blocks)"
        )
    return None


def simulate_mtc_fast(
    config: MTCConfig,
    trace: MemTrace,
    *,
    flush: bool = True,
    prepared: PreparedMTC | None = None,
) -> CacheStats:
    """Fast word-granularity MTC simulation (exact Belady MIN + bypass).

    Pass 1 is fully vectorized (and shareable across sizes through
    *prepared*). Pass 2 *jumps from miss to miss*: in a MIN cache with
    bypass, every future miss is predictable online — a reference misses
    iff it is its block's first touch, or its block's previous reference
    was bypassed, or the block was evicted since (and an evicted or
    bypassed block's next reference is known: it is the next-use chain
    value that made it the victim). The engine pre-marks first touches
    on a byte timeline and marks each induced miss with one store at
    the eviction/bypass that causes it, so finding the next miss is one
    C-level ``bytearray.find`` (memchr), and everything strictly between
    consecutive misses is a hit run:
    hit counts come from a prefix sum of writes, dirty marking is one
    boolean scatter, and the victim heap's refresh entries are exactly
    the run positions whose next use lies beyond the run (each block's
    last occurrence in the run — one push per distinct block, no
    residency checks anywhere). Keys must be every resident block's
    *current* next use: an earlier revision kept insert-time keys as
    lower bounds, and a heap ordered by lower bounds can bury the true
    MIN victim below a fresher-looking top.
    """
    import heapq

    reason = mtc_fast_supported(config)
    if reason is not None:
        raise ConfigurationError(f"no vector engine for {config.describe()}: {reason}")
    if prepared is None:
        prepared = prepare_mtc(trace, config.block_bytes)
    elif prepared.block_bytes != config.block_bytes:
        raise ConfigurationError(
            f"prepared pass for {prepared.block_bytes}-byte blocks reused "
            f"at {config.block_bytes}-byte blocks"
        )

    n = int(prepared.dense.size)
    stats = CacheStats(
        accesses=n, reads=trace.read_count, writes=trace.write_count
    )
    if n == 0:
        return stats

    write_validate = config.allocate is AllocatePolicy.WRITE_VALIDATE
    capacity = config.capacity_blocks
    num_blocks = prepared.num_blocks
    dense = prepared.dense
    is_write = prepared.is_write

    if capacity >= num_blocks:
        # The MTC never fills: every miss is a first touch, nothing is
        # ever evicted or bypassed. Closed form, no loop at all.
        cold_writes = int(np.count_nonzero(is_write[prepared.first_positions]))
        cold_reads = num_blocks - cold_writes
        stats.read_hits = stats.reads - cold_reads
        stats.write_hits = stats.writes - cold_writes
        fetch_words = cold_reads if write_validate else num_blocks
        stats.fetch_bytes = fetch_words * WORD_BYTES
        if flush:
            dirty = np.zeros(num_blocks, dtype=bool)
            dirty[dense[is_write]] = True
            stats.flush_writeback_bytes = (
                int(np.count_nonzero(dirty)) * WORD_BYTES
            )
        return stats

    next_use = prepared.next_use
    dense_l, next_l, write_l = prepared.as_lists()
    allow_bypass = config.bypass
    resident = np.zeros(num_blocks, dtype=bool)
    dirty = np.zeros(num_blocks, dtype=bool)
    current_use = np.zeros(num_blocks, dtype=np.int64)
    write_prefix = prepared.write_prefix
    #: miss_flag[p] is nonzero iff position p will miss; first touches are
    #: pre-marked, induced misses get marked as their causes happen. A
    #: bytearray keeps single-flag stores cheap while "next miss after p"
    #: stays one C-level memchr via ``bytearray.find``.
    first_flags = np.zeros(n, dtype=np.uint8)
    first_flags[prepared.first_positions] = 1
    miss_flag = bytearray(first_flags.tobytes())
    find_flag = miss_flag.find
    resident_count = 0
    heap: list[tuple[int, int]] = []
    heappush = heapq.heappush
    heappop = heapq.heappop

    read_hits = 0
    write_hits = 0
    fetch_words = 0
    writeback_words = 0
    writethrough_words = 0

    position = 0  # always a miss (the first reference is a first touch)
    while True:
        block = dense_l[position]
        write = write_l[position]
        use = next_l[position]
        inserting = True
        if resident_count >= capacity:
            while heap:
                negated, candidate = heap[0]
                if resident[candidate] and current_use[candidate] == -negated:
                    break
                heappop(heap)  # stale or evicted entry
            if not heap:
                raise SimulationError("full MTC with an empty victim heap")
            victim_use = -heap[0][0]
            if allow_bypass and use >= victim_use:
                inserting = False
            else:
                victim = heap[0][1]
                heappop(heap)
                resident[victim] = False
                resident_count -= 1
                if dirty[victim]:
                    writeback_words += 1
                    dirty[victim] = False
                if victim_use < n:
                    miss_flag[victim_use] = 1
        if inserting:
            resident[block] = True
            resident_count += 1
            dirty[block] = write
            current_use[block] = use
            if not (write and write_validate):
                fetch_words += 1
            heappush(heap, (-use, block))
        else:
            if write:
                writethrough_words += 1
            else:
                fetch_words += 1
            if use < n:
                miss_flag[use] = 1

        # ---- jump to the next miss; everything in between is a hit ----
        start = position + 1
        if start >= n:
            break
        following = find_flag(1, start)
        if following < 0:
            following = n
        if following - start >= 32:
            nw = int(write_prefix[following] - write_prefix[start])
            write_hits += nw
            read_hits += following - start - nw
            if nw:
                dirty[dense[start:following][is_write[start:following]]] = True
            # Refresh entries: the run positions whose next use escapes
            # the run are each block's last occurrence within it.
            rel = np.nonzero(next_use[start:following] >= following)[0]
            touched = dense[start + rel]
            refreshed = next_use[start + rel]
            current_use[touched] = refreshed
            for key, ident in zip((-refreshed).tolist(), touched.tolist()):
                heappush(heap, (key, ident))
        else:
            # Short runs: numpy slicing overhead beats its throughput.
            for pos in range(start, following):
                if write_l[pos]:
                    write_hits += 1
                    dirty[dense_l[pos]] = True
                else:
                    read_hits += 1
                hit_use = next_l[pos]
                if hit_use >= following:
                    hit_block = dense_l[pos]
                    current_use[hit_block] = hit_use
                    heappush(heap, (-hit_use, hit_block))
        if following >= n:
            break
        position = following

    stats.read_hits = read_hits
    stats.write_hits = write_hits
    stats.fetch_bytes = fetch_words * WORD_BYTES
    stats.writeback_bytes = writeback_words * WORD_BYTES
    stats.writethrough_bytes = writethrough_words * WORD_BYTES
    if flush:
        stats.flush_writeback_bytes = (
            int(np.count_nonzero(dirty & resident)) * WORD_BYTES
        )
    return stats
