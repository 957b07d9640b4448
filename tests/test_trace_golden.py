"""Golden digests: the exact bytes of every committed trace.

Each digest is the sha256 of a trace's ``int64`` addresses followed by
its ``bool`` write flags (and, for scenario mixes, the ``int16`` tenant
ids). They pin the trace generators, the interleavers and the scenario
mixer byte for byte, so a refactor of any of them cannot silently move
a Table 7 ratio or a scenario row. A deliberate change to a workload
model must update its digest here, and regenerate EXPERIMENTS.md.
"""

import hashlib

import numpy as np
import pytest

from repro.experiments.scenarios import SCENARIO_SPECS
from repro.mem import interference
from repro.mem.cache import Cache
from repro.scenario import ScenarioSpec, mix
from repro.workloads.registry import get_workload, workload_names


def digest(*arrays: np.ndarray) -> str:
    hasher = hashlib.sha256()
    for array, dtype in zip(arrays, ("<i8", "?", "<i2")):
        hasher.update(np.ascontiguousarray(array, dtype=dtype).tobytes())
    return hasher.hexdigest()


#: Full traces at the default scale, seed 0.
WORKLOAD_DIGESTS = {
    "Compress": "0056cd5a02f418542aba33c728a23fb8ea93263a69c0ecdcfca9eee086c5128c",
    "Dnasa2": "7a17c042692db403176f994311ee0001177fc1db0a740ec09c5ceef2b3187032",
    "Eqntott": "434feeb539ad5b2b40a17e2a3045e02fab1a2d716e6d179e1c487496b2489098",
    "Espresso": "fd4f4e40c0959281631e7b248027ed92aa13744979968bf827c42727c9326cbe",
    "Su2cor": "1c4adfc6a40634d3ecd3973488c43b54328c7c721774b558ae66e18c9edba657",
    "Swm": "052b4b863b989d1adfd880e85043d40a7b27cf2ff1c39017bcce62ec360cc79c",
    "Tomcatv": "7d807155d45ff3d6c606733eeb83ef4bda10eb3c518505b92aeeaac540bcee16",
    "Applu": "12f61384995a47ef593f97f7c1bd8f0e1a625aa442aef4d4fe16b1583739f973",
    "Hydro2D": "39989403d67e6c79e780a6bfe7ec5c2d4f644e131eb317122b4cc799a56a7b17",
    "Li": "1c312f4e8a8d750d3d5aca58c390939330428c8c3dd393dd7675f073a46c8e45",
    "Perl": "e4fe80d9ca39e6253cc25de403422e3d64399604092377785d8ec472488845aa",
    "Su2cor95": "7d05708f0a3def493bdbc0c20c99dee368f1cbf7535b4e4afea374aa76ac0de3",
    "Swim95": "99c2deca4a24138f9cb6cebdcce539562d49b8a44982b3c8cd36821ea61bd5c9",
    "Vortex": "78f26770388d6c0e69315f2974155f23c1d6a6d1a95c41961fdf785923d2ec65",
}

#: The committed scenarios, through the mixer with their own seeds.
SCENARIO_DIGESTS = {
    "Burst-1T": "eafba79d7157c2eb5f577f36a5472cafade133c9abd3715f84bc0e0348fb5677",
    "Burst-4T": "306e4285cce96bbdefd3dc0874044a1f9adc0afdd915321590e85c1a70e4f9b7",
    "Hot-1T": "6943cdfdd6d5fc035d0ae0989e641300197765609f5e98c71504cd0fc0d6c147",
    "Hot-4T": "a0d8b5fd608bd4c6a120437c3bb1fecbe557f4842c3d54397476754bfdad428e",
    "Zipf-1T": "902a3c910cd46239897c2b8080fbd5a4be0dcd53b10b33452f6877c40b55411b",
    "Zipf-4T": "39696c92713c0bd8412d36a6c0076197e1a604c73d0d21ec19b51f41b8f3c733",
}

#: The shared trace of one three-thread ``multithreaded_traffic`` run.
SHARED_TRACE_DIGEST = (
    "4a70cb67d408f8c335c80f84ede862122a0a407e29c9c2cf58bc610365444228"
)


def test_every_workload_and_scenario_is_pinned():
    assert sorted(WORKLOAD_DIGESTS) == sorted(workload_names())
    assert sorted(SCENARIO_DIGESTS) == sorted(SCENARIO_SPECS)


@pytest.mark.parametrize("name", workload_names())
def test_workload_trace_digest(name):
    trace = get_workload(name).generate(seed=0)
    assert digest(trace.addresses, trace.is_write) == WORKLOAD_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(SCENARIO_SPECS))
def test_scenario_mix_digest(name):
    mixed = mix(ScenarioSpec.from_dict(SCENARIO_SPECS[name]))
    trace = mixed.trace
    assert (
        digest(trace.addresses, trace.is_write, mixed.tenant_ids)
        == SCENARIO_DIGESTS[name]
    )


def test_multithreaded_shared_trace_digest(monkeypatch):
    # Threads of unequal length, so shorter ones drop out of later
    # rounds, and a quantum that divides none of them.
    traces = [
        get_workload("Espresso").generate(seed=0, max_refs=30_000),
        get_workload("Li").generate(seed=0, max_refs=20_000),
        get_workload("Tomcatv").generate(seed=0, max_refs=7_001),
    ]
    simulated = []

    class RecordingCache(Cache):
        def simulate(self, trace, *args, **kwargs):
            simulated.append(trace)
            return super().simulate(trace, *args, **kwargs)

    monkeypatch.setattr(interference, "Cache", RecordingCache)
    interference.multithreaded_traffic(traces, quantum=150)
    shared = simulated[-1]
    assert len(shared) == sum(len(trace) for trace in traces)
    assert digest(shared.addresses, shared.is_write) == SHARED_TRACE_DIGEST
