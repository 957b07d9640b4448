"""Deterministic N-tenant trace mixing with per-tenant attribution.

Weighted tenants on :func:`repro.trace.synth.round_robin`, the same
interleave that shares a cache between threads in
:mod:`repro.mem.interference`: each round advances tenant *i* by
``quantum x weight_i`` references, in spec order, until every tenant's
stream is exhausted. Tenants occupy disjoint 1 GB address windows
(:data:`~repro.trace.synth.TENANT_WINDOW_BYTES`) — tenants do not share
data, they share the *hierarchy* — which is also what makes attribution
exact: every byte moved below the cache names its tenant in its address.

:func:`mix` renders a whole scenario into one :class:`MixedTrace`
(the shared trace plus a per-reference tenant-id array), and
:func:`attribute_traffic` replays a mixed trace through one cache,
splitting misses, fetch bytes, and write-back bytes (flush included)
per tenant. A solo baseline per tenant turns the split into the
interference story: how much traffic did sharing add, and who pays it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ScenarioError
from repro.mem.cache import Cache, CacheConfig
from repro.scenario.patterns import build_pattern
from repro.scenario.spec import ScenarioSpec
from repro.trace.model import MemTrace
from repro.trace.synth import TENANT_WINDOW_BYTES, StreamPair, round_robin

__all__ = [
    "MixedTrace",
    "TenantUsage",
    "AttributionReport",
    "mix",
    "interleave_weighted",
    "attribute_traffic",
]


@dataclass(frozen=True, slots=True)
class MixedTrace:
    """A scenario's shared trace plus who issued each reference."""

    trace: MemTrace
    tenant_ids: np.ndarray            #: int16, parallel to the trace
    tenant_names: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.trace)

    def tenant_slice(self, index: int) -> MemTrace:
        """One tenant's references, in issue order, window offset removed."""
        mask = self.tenant_ids == index
        return MemTrace(
            self.trace.addresses[mask] - index * TENANT_WINDOW_BYTES,
            self.trace.is_write[mask],
            name=self.tenant_names[index],
        )


def interleave_weighted(
    streams: list[StreamPair],
    *,
    quantum: int,
    weights: list[int],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weighted round-robin interleave onto disjoint address windows.

    Returns ``(addresses, is_write, tenant_ids)``. Deterministic: rounds
    visit tenants in list order, tenant *i* advancing ``quantum x
    weight_i`` references per round until exhausted — shorter streams
    simply drop out of later rounds, as in the interference model.
    """
    if not streams:
        raise ScenarioError("interleave needs at least one tenant stream")
    if len(weights) != len(streams):
        raise ScenarioError(
            f"{len(streams)} streams but {len(weights)} weights"
        )
    if quantum <= 0:
        raise ScenarioError(f"quantum must be positive, got {quantum}")
    if min(weights) <= 0:
        raise ScenarioError(f"weights must be positive, got {list(weights)}")
    addresses, writes, tenant_ids = round_robin(
        streams, [quantum * weight for weight in weights]
    )
    return (
        addresses + tenant_ids.astype(np.int64) * TENANT_WINDOW_BYTES,
        writes,
        tenant_ids,
    )


def build_streams(
    spec: ScenarioSpec, rng: np.random.Generator
) -> list[StreamPair]:
    """Each tenant's stream at its resolved ref share, pre-offset.

    Every tenant gets an independent child generator derived from the
    scenario generator, so one tenant's draw count never perturbs
    another's stream — adding a tenant leaves existing tenants'
    reference sequences byte-identical.
    """
    seeds = rng.integers(
        0, np.iinfo(np.int64).max, size=len(spec.tenants)
    )
    streams = []
    for tenant, refs, seed in zip(spec.tenants, spec.tenant_refs(), seeds):
        pattern = build_pattern(
            tenant.pattern,
            footprint_words=tenant.footprint_words,
            refs=refs,
            write_fraction=tenant.write_fraction,
        )
        streams.append(pattern.stream(np.random.default_rng(int(seed))))
    return streams


def mix_stream(spec: ScenarioSpec, rng: np.random.Generator) -> StreamPair:
    """The scenario's shared stream — the :class:`ScenarioWorkload` build."""
    addresses, writes, _ = interleave_weighted(
        build_streams(spec, rng),
        quantum=spec.quantum,
        weights=[tenant.weight for tenant in spec.tenants],
    )
    return addresses, writes


def mix(spec: ScenarioSpec, *, seed: int | None = None) -> MixedTrace:
    """Render a scenario into its mixed trace with tenant attribution ids.

    *seed* defaults to the spec's own seed; passing one explicitly
    re-seeds the same scenario shape (the workload path does exactly
    this with the CLI's ``--seed``).
    """
    rng = np.random.default_rng(spec.seed if seed is None else seed)
    addresses, writes, tenant_ids = interleave_weighted(
        build_streams(spec, rng),
        quantum=spec.quantum,
        weights=[tenant.weight for tenant in spec.tenants],
    )
    return MixedTrace(
        trace=MemTrace(addresses, writes, name=spec.display_name),
        tenant_ids=tenant_ids,
        tenant_names=tuple(tenant.name for tenant in spec.tenants),
    )


@dataclass(frozen=True, slots=True)
class TenantUsage:
    """One tenant's share of a shared cache's work."""

    name: str
    refs: int
    misses: int
    traffic_bytes: int         #: fetches + write-backs + flush, this tenant
    solo_traffic_bytes: int    #: same tenant alone on the same cache

    @property
    def miss_rate(self) -> float:
        return self.misses / self.refs if self.refs else 0.0

    @property
    def traffic_expansion(self) -> float:
        """Shared over solo: > 1 means interference added traffic."""
        if not self.solo_traffic_bytes:
            return 1.0
        return self.traffic_bytes / self.solo_traffic_bytes


@dataclass(frozen=True, slots=True)
class AttributionReport:
    """Per-tenant split of one shared-cache run, with solo baselines."""

    tenants: tuple[TenantUsage, ...]
    total_traffic_bytes: int
    total_misses: int

    @property
    def traffic_expansion(self) -> float:
        solo = sum(tenant.solo_traffic_bytes for tenant in self.tenants)
        if not solo:
            return 1.0
        return self.total_traffic_bytes / solo


def attribute_traffic(
    mixed: MixedTrace, config: CacheConfig
) -> AttributionReport:
    """Replay a mixed trace, splitting misses and traffic per tenant.

    Uses the scalar per-access path with a traffic listener: the
    listener sees every byte moved below the cache (fetches, write-backs,
    the end-of-run flush) and the address names the owning tenant via
    its 1 GB window. The totals are therefore exactly the shared-cache
    :class:`~repro.mem.cache.CacheStats` — nothing is sampled or
    estimated — and each tenant's solo baseline runs the same config on
    its own slice of the mix.
    """
    n_tenants = len(mixed.tenant_names)
    traffic = [0] * n_tenants
    misses = [0] * n_tenants
    refs = [0] * n_tenants

    def listener(kind: str, address: int, nbytes: int) -> None:
        del kind
        traffic[address // TENANT_WINDOW_BYTES] += nbytes

    cache = Cache(config, listener=listener)
    ids = mixed.tenant_ids.tolist()
    for address, is_write, tenant in zip(
        mixed.trace.addresses.tolist(), mixed.trace.is_write.tolist(), ids
    ):
        refs[tenant] += 1
        if not cache.access(address, is_write):
            misses[tenant] += 1
    cache.flush()

    tenants = []
    for index, name in enumerate(mixed.tenant_names):
        solo = Cache(config).simulate(mixed.tenant_slice(index))
        tenants.append(
            TenantUsage(
                name=name,
                refs=refs[index],
                misses=misses[index],
                traffic_bytes=traffic[index],
                solo_traffic_bytes=solo.total_traffic_bytes,
            )
        )
    return AttributionReport(
        tenants=tuple(tenants),
        total_traffic_bytes=sum(traffic),
        total_misses=sum(misses),
    )
