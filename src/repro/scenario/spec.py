"""Declarative scenario specs: validation and content addressing.

A :class:`ScenarioSpec` is the JSON-friendly description of one traffic
scenario: which patterns run, over what footprint, with what read/write
mix, how many tenants share the hierarchy and at what weights, the
interleave quantum, and the seed. Two spellings of the same scenario
(string sizes vs byte counts, omitted vs explicit defaults, single-
pattern shorthand vs a one-tenant list) normalise to one *canonical*
dict, and :func:`ScenarioSpec.scenario_id` is the SHA-256 content
address of that dict — which is how scenarios key into the exec cache
and the serve coalescer exactly like named workloads.

Spec shape (JSON)::

    {
      "name": "checkout-mix",          // optional display name
      "footprint": "1MB",              // default per-tenant footprint
      "write_fraction": 0.25,          // default per-tenant write mix
      "refs": 200000,                  // total refs across tenants
      "quantum": 64,                   // interleave quantum (refs/switch)
      "seed": 0,                       // the scenario's trace seed
      "tenants": [                     // or shorthand: "pattern": {...}
        {"pattern": {"kind": "zipfian", "alpha": 1.1},
         "weight": 2,                  // share of refs and of each round
         "footprint": "2MB",           // optional per-tenant overrides
         "write_fraction": 0.1,
         "name": "frontend"},
        ...
      ]
    }

Validation raises :class:`repro.errors.ScenarioError` with messages that
name the offending field, mirroring the CLI's parse-time errors.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from repro.errors import ConfigurationError, ScenarioError
from repro.exec.keys import canonical_key, stable_hash
from repro.scenario.patterns import canonical_pattern
from repro.trace.model import WORD_BYTES
from repro.trace.synth import TENANT_WINDOW_BYTES
from repro.util import parse_size

__all__ = [
    "SCENARIO_SCHEMA",
    "SCENARIO_DEFAULTS",
    "ScenarioSpec",
    "TenantSpec",
    "resolve_spec_argument",
]

#: Version tag hashed into every scenario content address; bump on
#: incompatible spec changes so old cache entries stop matching.
SCENARIO_SCHEMA = "repro.scenario/v1"

#: Optional top-level fields and their defaults (documented above; a
#: test pins these equal to the canonicalised empty spec).
SCENARIO_DEFAULTS = {
    "footprint": "1MB",
    "write_fraction": 0.25,
    "refs": 200_000,
    "quantum": 64,
    "seed": 0,
}

#: Tenants get disjoint 1 GB address windows when mixed, so a footprint
#: must fit one window.
MAX_FOOTPRINT_BYTES = TENANT_WINDOW_BYTES

MAX_TENANTS = 32
MAX_WEIGHT = 1024
MAX_REFS = 50_000_000

_TOP_FIELDS = {"name", "pattern", "tenants"} | set(SCENARIO_DEFAULTS)
_TENANT_FIELDS = {"name", "pattern", "weight", "footprint", "write_fraction"}


def _fraction(value: object, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"field {field!r} must be a number, got {value!r}")
    value = float(value)
    if not 0.0 <= value <= 1.0 or value != value:
        raise ScenarioError(
            f"field {field!r} must be in [0, 1], got {value!r}"
        )
    return value


def _positive_int(value: object, field: str, *, maximum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value <= 0:
        raise ScenarioError(
            f"field {field!r} must be a positive integer, got {value!r}"
        )
    if value > maximum:
        raise ScenarioError(
            f"field {field!r} must be at most {maximum}, got {value}"
        )
    return value


def _footprint_bytes(value: object, field: str) -> int:
    try:
        nbytes = parse_size(value)
    except (ConfigurationError, TypeError) as exc:
        raise ScenarioError(f"field {field!r}: {exc}") from exc
    if nbytes < 4 * WORD_BYTES:
        raise ScenarioError(
            f"field {field!r} must be at least {4 * WORD_BYTES} bytes, "
            f"got {value!r}"
        )
    if nbytes > MAX_FOOTPRINT_BYTES:
        raise ScenarioError(
            f"field {field!r} must be at most 1GB (tenants occupy disjoint "
            f"1GB address windows), got {value!r}"
        )
    return nbytes


@dataclass(frozen=True, slots=True)
class TenantSpec:
    """One tenant's resolved slice of a scenario."""

    name: str
    pattern: dict          #: canonical pattern dict (hashable via JSON)
    weight: int            #: share of refs and of each interleave round
    footprint_bytes: int
    write_fraction: float

    @property
    def footprint_words(self) -> int:
        return self.footprint_bytes // WORD_BYTES

    def canonical(self) -> dict:
        return {
            "name": self.name,
            "pattern": self.pattern,
            "weight": self.weight,
            "footprint": self.footprint_bytes,
            "write_fraction": self.write_fraction,
        }


@dataclass(frozen=True, slots=True)
class ScenarioSpec:
    """A validated, fully-resolved scenario description."""

    tenants: tuple[TenantSpec, ...]
    refs: int
    quantum: int
    seed: int
    name: str | None = None

    # -- construction ---------------------------------------------------------------

    @classmethod
    def from_dict(cls, body: object) -> "ScenarioSpec":
        """Validate a raw (JSON-decoded) spec into its resolved form."""
        if not isinstance(body, dict):
            raise ScenarioError(
                f"scenario spec must be a JSON object, got "
                f"{type(body).__name__}"
            )
        unknown = sorted(set(body) - _TOP_FIELDS)
        if unknown:
            raise ScenarioError(
                f"unknown scenario field(s): {', '.join(unknown)} "
                f"(known: {', '.join(sorted(_TOP_FIELDS))})"
            )
        name = body.get("name")
        if name is not None and (not isinstance(name, str) or not name):
            raise ScenarioError(
                f"field 'name' must be a non-empty string, got {name!r}"
            )
        merged = dict(SCENARIO_DEFAULTS, **body)
        refs = _positive_int(merged["refs"], "refs", maximum=MAX_REFS)
        quantum = _positive_int(merged["quantum"], "quantum", maximum=refs)
        seed = merged["seed"]
        if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
            raise ScenarioError(
                f"field 'seed' must be a non-negative integer, got {seed!r}"
            )
        default_footprint = _footprint_bytes(merged["footprint"], "footprint")
        default_wf = _fraction(merged["write_fraction"], "write_fraction")

        raw_tenants = body.get("tenants")
        if raw_tenants is not None and "pattern" in body:
            raise ScenarioError(
                "give either 'pattern' (single-tenant shorthand) or "
                "'tenants', not both"
            )
        if raw_tenants is None:
            if "pattern" not in body:
                raise ScenarioError(
                    "scenario spec needs a 'pattern' (single tenant) or a "
                    "'tenants' list"
                )
            raw_tenants = [{"pattern": body["pattern"]}]
        if not isinstance(raw_tenants, list) or not raw_tenants:
            raise ScenarioError(
                f"field 'tenants' must be a non-empty list, got "
                f"{raw_tenants!r}"
            )
        if len(raw_tenants) > MAX_TENANTS:
            raise ScenarioError(
                f"at most {MAX_TENANTS} tenants supported, got "
                f"{len(raw_tenants)}"
            )

        tenants = []
        for index, raw in enumerate(raw_tenants):
            if not isinstance(raw, dict):
                raise ScenarioError(
                    f"tenant #{index} must be an object, got {raw!r}"
                )
            unknown = sorted(set(raw) - _TENANT_FIELDS)
            if unknown:
                raise ScenarioError(
                    f"tenant #{index}: unknown field(s): "
                    f"{', '.join(unknown)} "
                    f"(known: {', '.join(sorted(_TENANT_FIELDS))})"
                )
            if "pattern" not in raw:
                raise ScenarioError(f"tenant #{index} needs a 'pattern'")
            tenant_name = raw.get("name", f"t{index}")
            if not isinstance(tenant_name, str) or not tenant_name:
                raise ScenarioError(
                    f"tenant #{index}: field 'name' must be a non-empty "
                    f"string, got {tenant_name!r}"
                )
            tenants.append(
                TenantSpec(
                    name=tenant_name,
                    pattern=canonical_pattern(raw["pattern"]),
                    weight=_positive_int(
                        raw.get("weight", 1), f"tenants[{index}].weight",
                        maximum=MAX_WEIGHT,
                    ),
                    footprint_bytes=(
                        _footprint_bytes(
                            raw["footprint"], f"tenants[{index}].footprint"
                        )
                        if "footprint" in raw
                        else default_footprint
                    ),
                    write_fraction=(
                        _fraction(
                            raw["write_fraction"],
                            f"tenants[{index}].write_fraction",
                        )
                        if "write_fraction" in raw
                        else default_wf
                    ),
                )
            )
        names = [tenant.name for tenant in tenants]
        duplicates = sorted({n for n in names if names.count(n) > 1})
        if duplicates:
            raise ScenarioError(
                f"duplicate tenant name(s): {', '.join(duplicates)}"
            )
        spec = cls(
            tenants=tuple(tenants),
            refs=refs,
            quantum=quantum,
            seed=seed,
            name=name,
        )
        # Every tenant must get at least one reference per share.
        if min(spec.tenant_refs()) < 1:
            raise ScenarioError(
                f"refs={refs} is too small for the tenant weights "
                f"(every tenant needs at least one reference)"
            )
        return spec

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        try:
            body = json.loads(text)
        except ValueError as exc:
            raise ScenarioError(f"scenario spec is not valid JSON: {exc}") from exc
        return cls.from_dict(body)

    # -- canonical form and content address ------------------------------------------

    def canonical(self) -> dict:
        """The fully-resolved dict this spec normalises to.

        Round-trips: ``ScenarioSpec.from_dict(spec.canonical())`` yields
        an equal spec, and every equivalent input spelling yields this
        exact dict — the property the content address relies on.
        """
        body: dict = {
            "refs": self.refs,
            "quantum": self.quantum,
            "seed": self.seed,
            "tenants": [tenant.canonical() for tenant in self.tenants],
        }
        if self.name is not None:
            body["name"] = self.name
        return body

    def scenario_id(self) -> str:
        """Truncated SHA-256 content address of the canonical form."""
        return stable_hash(
            {"schema": SCENARIO_SCHEMA, "scenario": self.canonical()}
        )[:12]

    @property
    def display_name(self) -> str:
        return self.name or f"scenario-{self.scenario_id()}"

    def to_argument(self) -> str:
        """The inline CLI spelling of this spec (``scenario:{...}``).

        This is what :func:`repro.serve.protocol.request_argv` embeds in
        a served job's argv, so the served run replays through the CLI
        byte-identically.
        """
        return "scenario:" + canonical_key(self.canonical())

    # -- derived quantities -----------------------------------------------------------

    def tenant_refs(self) -> list[int]:
        """Each tenant's reference budget: ``refs`` split by weight.

        Largest-remainder-free deterministic split: floor shares first,
        then the remainder goes to the earliest tenants, so the total is
        exactly ``refs`` on every platform.
        """
        total_weight = sum(tenant.weight for tenant in self.tenants)
        shares = [
            self.refs * tenant.weight // total_weight
            for tenant in self.tenants
        ]
        for index in range(self.refs - sum(shares)):
            shares[index % len(shares)] += 1
        return shares

    def total_footprint_bytes(self) -> int:
        return sum(tenant.footprint_bytes for tenant in self.tenants)

    def pattern_kinds(self) -> list[str]:
        return [tenant.pattern["kind"] for tenant in self.tenants]


def resolve_spec_argument(text: str) -> ScenarioSpec | None:
    """Interpret a CLI workload argument as a scenario reference.

    Three spellings name a scenario:

    * ``scenario:{...json...}`` — inline canonical form (the serve path),
    * ``@path.json`` — spec file,
    * ``path.json`` — spec file, bare (convenience).

    Anything else returns ``None`` and the caller falls back to the
    named-workload registry, so benchmark names keep working unchanged.
    """
    if text.startswith("scenario:"):
        return ScenarioSpec.from_json(text[len("scenario:"):])
    path = None
    if text.startswith("@"):
        path = text[1:]
    elif text.endswith(".json"):
        path = text
    if path is None:
        return None
    if not os.path.exists(path):
        raise ScenarioError(f"scenario spec file not found: {path}")
    try:
        with open(path, encoding="utf-8") as handle:
            return ScenarioSpec.from_json(handle.read())
    except OSError as exc:
        raise ScenarioError(
            f"cannot read scenario spec {path!r}: {exc}"
        ) from exc
