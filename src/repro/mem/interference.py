"""Shared-cache interference: multithreading and single-chip MPs.

Two of the paper's Section 2 arguments made measurable:

* §2.1, multithreading: "Frequent switching of threads will increase
  interference in the caches and TLB ... causing an increase in cache
  misses and total traffic."
* §2.2, single-chip multiprocessors: "If one processor loses performance
  due to limited pin bandwidth, then multiple processors on a chip will
  lose far more performance for the same reason."

:func:`multithreaded_traffic` interleaves several workloads' traces on a
shared cache with a context-switch quantum and compares total traffic
against the same workloads run alone. :func:`chip_multiprocessor_demand`
scales per-core demand bandwidth against a fixed pin budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.mem.cache import Cache, CacheConfig, CacheStats
from repro.trace.model import MemTrace
from repro.trace.synth import TENANT_WINDOW_BYTES, round_robin


@dataclass(frozen=True, slots=True)
class InterferenceReport:
    """Solo-vs-shared traffic comparison for one thread mix."""

    thread_names: tuple[str, ...]
    quantum: int
    solo_traffic_bytes: int          #: sum of each thread run alone
    shared_traffic_bytes: int        #: all threads interleaved, one cache
    solo_misses: int
    shared_misses: int

    @property
    def traffic_expansion(self) -> float:
        """Shared over solo: >1 means interference added traffic."""
        if not self.solo_traffic_bytes:
            return 1.0
        return self.shared_traffic_bytes / self.solo_traffic_bytes

    @property
    def miss_expansion(self) -> float:
        if not self.solo_misses:
            return 1.0
        return self.shared_misses / self.solo_misses


def multithreaded_traffic(
    traces: Sequence[MemTrace],
    *,
    cache_config: CacheConfig | None = None,
    quantum: int = 200,
) -> InterferenceReport:
    """Measure the traffic cost of sharing one cache between threads."""
    if len(traces) < 2:
        raise ConfigurationError("need at least two threads to interfere")
    if quantum <= 0:
        raise ConfigurationError("quantum must be positive")
    if cache_config is None:
        cache_config = CacheConfig(size_bytes=16 * 1024, block_bytes=32)

    solo_traffic = 0
    solo_misses = 0
    for trace in traces:
        stats = Cache(cache_config).simulate(trace)
        solo_traffic += stats.total_traffic_bytes
        solo_misses += stats.misses

    # Threads do not share data: each runs in its own address window.
    addresses, writes, owner = round_robin(
        [(trace.addresses, trace.is_write) for trace in traces],
        [quantum] * len(traces),
    )
    shared: CacheStats = Cache(cache_config).simulate(
        MemTrace(
            addresses + owner.astype(np.int64) * TENANT_WINDOW_BYTES,
            writes,
            name="shared",
        )
    )
    return InterferenceReport(
        thread_names=tuple(t.name for t in traces),
        quantum=quantum,
        solo_traffic_bytes=solo_traffic,
        shared_traffic_bytes=shared.total_traffic_bytes,
        solo_misses=solo_misses,
        shared_misses=shared.misses,
    )


@dataclass(frozen=True, slots=True)
class ChipMultiprocessorPoint:
    """Demand vs supply for one core count."""

    cores: int
    demand_mb_per_s: float
    pin_supply_mb_per_s: float

    @property
    def utilization(self) -> float:
        return self.demand_mb_per_s / self.pin_supply_mb_per_s

    @property
    def bandwidth_bound(self) -> bool:
        return self.demand_mb_per_s > self.pin_supply_mb_per_s


def chip_multiprocessor_demand(
    per_core_traffic_bytes: int,
    per_core_cycles: int,
    clock_mhz: float,
    pin_bandwidth_mb_per_s: float,
    *,
    max_cores: int = 16,
    sharing_penalty: float = 1.15,
) -> list[ChipMultiprocessorPoint]:
    """§2.2's scaling argument, quantified.

    Each additional core adds its full demand bandwidth (plus a shared-
    cache interference penalty per doubling) against a fixed pin budget.
    The returned curve shows where the chip becomes pin-bound.
    """
    if min(per_core_traffic_bytes, per_core_cycles) <= 0:
        raise ConfigurationError("traffic and cycles must be positive")
    if clock_mhz <= 0 or pin_bandwidth_mb_per_s <= 0:
        raise ConfigurationError("clock and pin bandwidth must be positive")
    seconds = per_core_cycles / (clock_mhz * 1e6)
    base_demand = per_core_traffic_bytes / seconds / 1e6  # MB/s
    points = []
    cores = 1
    while cores <= max_cores:
        interference = sharing_penalty ** max(0, cores.bit_length() - 1)
        points.append(
            ChipMultiprocessorPoint(
                cores=cores,
                demand_mb_per_s=base_demand * cores * interference,
                pin_supply_mb_per_s=pin_bandwidth_mb_per_s,
            )
        )
        cores *= 2
    return points
