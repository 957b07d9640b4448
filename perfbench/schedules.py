"""Request schedules: pure functions of the benchmark's ``--seed``.

Every run at one seed sends the same multiset of requests, in the same
per-client order. The composition is designed, not sampled: the cold
schedule is a factorial design over trace source, ``max_refs``/``mtc``
variant and cache size, and the hot set holds every trace source
equally often, so the mix (and with it the latency distribution) is
the same at every seed and only trace seeds and orderings change.

Trace seeds are disjoint by purpose: timed cold requests, cold warm-up
requests and the hot set each draw from their own range, so a warm-up
never pre-computes a timed request.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: The seven SPEC92 models plus three SPEC95 integer models.
NAMED = (
    "Compress", "Dnasa2", "Eqntott", "Espresso", "Su2cor", "Swm",
    "Tomcatv", "Li", "Perl", "Vortex",
)
#: 4-tenant scenario mixes, one per pattern kind.
PATTERNS = ("zipfian", "hotspot", "bursty", "sequential")
SOURCES = NAMED + tuple(f"scenario:{kind}" for kind in PATTERNS)
SIZES = ("4KB", "64KB", "1MB")
SHORT_REFS = 20_000
LONG_REFS = 200_000

#: Trace-seed ranges per purpose, offset by ``seed * SEED_STRIDE``.
SEED_STRIDE = 100_000
WARMUP_OFFSET = 50_000
HOT_OFFSET = 80_000


def scenario_spec(kind: str, seed: int) -> dict:
    """A 4-tenant scenario of one pattern kind."""
    return {
        "name": f"bench-{kind}",
        "footprint": "1MB",
        "refs": LONG_REFS,
        "quantum": 64,
        "seed": seed,
        "tenants": [
            {"name": f"t{i}", "pattern": {"kind": kind}} for i in range(4)
        ],
    }


def request(source: str, size: str, max_refs: int, mtc: bool, seed: int) -> dict:
    """The ``POST /v1/simulate`` body for one schedule entry."""
    fields: dict = {"size": size, "max_refs": max_refs, "mtc": mtc}
    if source.startswith("scenario:"):
        fields["scenario"] = scenario_spec(source.split(":", 1)[1], seed)
    else:
        fields["workload"] = source
        fields["seed"] = seed
    return fields


def _balanced(rng: random.Random, values: tuple, count: int) -> list:
    """*count* values, each block of ``len(values)`` a permutation."""
    out: list = []
    while len(out) < count:
        block = list(values)
        rng.shuffle(block)
        out.extend(block)
    return out[:count]


#: The cold request variants of each source: ``max_refs`` 200 000 on one
#: in four, ``mtc`` on one in four.
VARIANTS = ((LONG_REFS, False), (SHORT_REFS, True), (SHORT_REFS, False),
            (SHORT_REFS, False))
#: A cold block holds every (source, variant) pair once; three blocks
#: hold every (source, variant, size) triple once.
BLOCK = len(SOURCES) * len(VARIANTS)


def cold(seed: int, count: int) -> list[dict]:
    """*count* (a multiple of BLOCK) distinct cold requests, shuffled.

    The composition is a fixed factorial design, so only trace seeds and
    the order change with the seed.
    """
    combos = [
        (source, SIZES[(i + j + block) % len(SIZES)], refs, mtc)
        for block in range(count // BLOCK)
        for i, source in enumerate(SOURCES)
        for j, (refs, mtc) in enumerate(VARIANTS)
    ]
    random.Random(f"cold:{seed}").shuffle(combos)
    first = seed * SEED_STRIDE
    return [request(*combo, first + i) for i, combo in enumerate(combos)]


#: One request per engine path the first timed requests would otherwise
#: pay for (named trace, scenario mixer, MTC), the same at every seed.
WARMUP = (
    ("Espresso", "64KB", SHORT_REFS, True),
    ("scenario:zipfian", "4KB", SHORT_REFS, False),
    ("Su2cor", "1MB", SHORT_REFS, False),
)


def warmup(seed: int) -> list[dict]:
    """Cold warm-up requests, disjoint from every timed request."""
    first = seed * SEED_STRIDE + WARMUP_OFFSET
    return [request(*entry, first + i) for i, entry in enumerate(WARMUP)]


def hot_candidates(seed: int, count: int) -> list[dict]:
    """Candidates for the hot set: short traces, so populating is cheap.

    Every run of 14 holds each trace source once; sizes and ``mtc`` (one
    in four) are balanced the same way.
    """
    rng = random.Random(f"hot:{seed}")
    sources = _balanced(rng, SOURCES, count)
    sizes = _balanced(rng, SIZES, count)
    mtcs = _balanced(rng, (True, False, False, False), count)
    first = seed * SEED_STRIDE + HOT_OFFSET
    return [
        request(sources[i], sizes[i], SHORT_REFS, mtcs[i], first + i)
        for i in range(count)
    ]


def hot_split(
    candidates: list[dict], shard_of, *, clients: int, shards: int, size: int
) -> list[list[dict]]:
    """Split the hot set into one disjoint request cycle per client.

    Each client replays its own cycle, so a repeat is never the same
    request as the previous one the client sent to that shard — as long
    as every client holds at least two requests per shard, which this
    enforces by taking further candidates for any short bucket. With a
    job history of one record per shard, that makes every timed repeat
    a tiered-cache read, never job-table coalescing.
    """
    per_client: list[list[dict]] = [[] for _ in range(clients)]
    buckets = [[0] * shards for _ in range(clients)]
    for index, fields in enumerate(candidates):
        client = index % clients
        shard = shard_of(fields)
        short = buckets[client][shard] < 2
        if index < size or short:
            per_client[client].append(fields)
            buckets[client][shard] += 1
        if index >= size and all(min(row) >= 2 for row in buckets):
            break
    if any(min(row) < 2 for row in buckets):
        raise RuntimeError("hot candidates do not cover every shard")
    return per_client


#: Table 7, Table 8 and Table 6 reference budgets of EXPERIMENTS.md.
PAPER_BATCH_REFS = (300_000, 200_000, 12_000)
#: Timed cold requests per second of run time, rounded to whole blocks
#: (three blocks, 168 requests, at 20 s; at least one block).
COLD_RATE = 8.4
#: Distinct requests in the hot set (before shard balancing); one of
#: each trace source.
HOT_SET = len(SOURCES)


@dataclass(frozen=True)
class Sizing:
    """How much work one run does; the self-test shrinks it."""

    #: Timed hot requests per client per second of run time.
    hot_rate: float = 600.0
    #: Requests per path in the traced router-hop probe.
    hop_requests: int = 400
    #: Set-ups per run; set-up time is their median.
    setup_repeats: int = 5
    #: Cold answers recomputed in the harness after timing.
    check_sample: int = 8
    #: Table 7, 8, 6 reference budgets.
    batch_refs: tuple = PAPER_BATCH_REFS
