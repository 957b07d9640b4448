"""The serve workloads: a ``repro serve`` process driven by a closed loop.

The server always runs in a process group of its own (its own
interpreter and GIL), started through ``launcher.py`` with ``--jobs 1``.
The clients are threads of the harness process, each with one keep-alive
connection, each sending its next request only after the previous one
completed (a closed loop).

``serve_cold``: one client, ``--workers 1``, a fresh cache root; every
request is distinct, so each one computes (trace generation, argv
dispatch, engines, cache write). Cold jobs are polled every 5 ms.

``serve_hot``: two clients, ``--workers 2`` behind the consistent-hash
router, ``--job-history 1``. Set-up computes the distinct hot set; every
timed request repeats one of them and is answered inline from the
in-memory hot tier (request parsing, job-id hashing, router hop, tiered
cache read).
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import schedules
from stats import median, tail

SRC = Path(__file__).resolve().parent.parent / "src"

#: Cold-job poll interval. The client default (50 ms) would quantise a
#: ~100 ms latency onto its poll grid.
POLL_S = 0.005
#: Upper bound on one request, submit to result.
REQUEST_TIMEOUT_S = 60.0
SERVER_START_TIMEOUT_S = 60.0
SERVER_STOP_TIMEOUT_S = 30.0
#: Tail percentile. p99 of hot latency is set by host scheduling stalls
#: and spread by a third between runs; p90 keeps more than ten samples
#: beyond it on both workloads and stays within the bound.
TAIL_Q = 90

#: The front banner (shards print their own, prefixed ``shard N``).
_BANNER = re.compile(r"^(?:serving|routing) on http://[0-9.]+:(\d+)", re.M)
_SHARD_PORTS = re.compile(r"shards on ports \[([0-9, ]+)\]")


class ServerProcess:
    """One ``repro serve`` process group, reaped on every exit path."""

    def __init__(self, work: Path, args: list[str], spans_dir: Path | None):
        work.mkdir(parents=True)
        self.log = work / "server.err"
        command = [sys.executable, str(Path(__file__).with_name("launcher.py"))]
        if spans_dir is not None:
            spans_dir.mkdir(parents=True)
            command += ["--spans", str(spans_dir)]
        command += ["--", *args, "--host", "127.0.0.1", "--port", "0"]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(Path(__file__).parent), str(SRC)])
        env["TMPDIR"] = str(work)
        with open(self.log, "wb") as err:
            self.proc = subprocess.Popen(
                command,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=err,
                env=env,
                cwd=work,
                start_new_session=True,
            )
        self.port: int | None = None
        self.shard_ports: list[int] = []

    def wait_ready(self) -> None:
        """Block until the banner names the bound port (and shard ports)."""
        deadline = time.monotonic() + SERVER_START_TIMEOUT_S
        while time.monotonic() < deadline:
            text = self.log.read_text(errors="replace")
            match = _BANNER.search(text)
            if match:
                self.port = int(match.group(1))
                ports = _SHARD_PORTS.search(text)
                if ports:
                    self.shard_ports = [int(p) for p in ports.group(1).split(",")]
                return
            if self.proc.poll() is not None:
                break
            time.sleep(0.002)
        raise RuntimeError(
            "server did not start:\n" + self.log.read_text(errors="replace")
        )

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.port}"

    def peak_rss_mb(self) -> float:
        """Sum of VmHWM over the server's processes (router + shards)."""
        total_kb = 0
        for pid in _process_group(self.proc.pid):
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def cpu_s(self) -> float:
        """User + system CPU seconds the server's processes have used."""
        ticks = 0
        for pid in _process_group(self.proc.pid):
            try:
                stat = Path(f"/proc/{pid}/stat").read_text()
            except OSError:
                continue
            fields = stat[stat.rindex(")") + 2:].split()
            ticks += int(fields[11]) + int(fields[12])
        return ticks / os.sysconf("SC_CLK_TCK")

    def stop(self) -> None:
        """Graceful drain (SIGTERM), then reap whatever is left."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=SERVER_STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                pass
        self.kill()

    def kill(self) -> None:
        """SIGKILL the process group until it is empty, then wait."""
        deadline = time.monotonic() + SERVER_STOP_TIMEOUT_S
        while _process_group(self.proc.pid) and time.monotonic() < deadline:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                break
            time.sleep(0.01)
        self.proc.wait()


def _process_group(pgid: int) -> list[int]:
    """Live (non-zombie) pids in process group *pgid*."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        if fields[0] != "Z" and int(fields[2]) == pgid:
            pids.append(int(entry))
    return pids


# -- clients --------------------------------------------------------------------------


class Outcome:
    """One request as the client saw it."""

    __slots__ = ("fields", "latency_s", "record", "polls", "error")

    def __init__(self, fields: dict) -> None:
        self.fields = fields
        self.latency_s = 0.0
        self.record: dict = {}
        self.polls = 0
        self.error: str | None = None

    @property
    def result(self) -> dict | None:
        return self.record.get("result")


def submit_and_wait(client, fields: dict) -> Outcome:
    """Submit one simulate request; poll every 5 ms until it is done."""
    from repro.errors import ReproError

    outcome = Outcome(fields)
    start = time.perf_counter()
    try:
        record = client.submit_simulate(**fields)
        while record.get("state") != "done" or "result" not in record:
            if record.get("state") in ("failed", "cancelled"):
                raise RuntimeError(f"job {record['job']} {record['state']}")
            if time.perf_counter() - start > REQUEST_TIMEOUT_S:
                raise TimeoutError(f"job {record['job']} timed out")
            time.sleep(POLL_S)
            outcome.polls += 1
            record = client.job(record["job"])
        outcome.record = record
    except (ReproError, RuntimeError, TimeoutError, KeyError) as exc:
        outcome.error = f"{type(exc).__name__}: {exc}"
    outcome.latency_s = time.perf_counter() - start
    return outcome


def closed_loop(url: str, sequences: list[list[dict]]):
    """One client thread per sequence; returns (outcomes, wall seconds)."""
    from repro.serve.client import ServeClient

    results: list[list[Outcome]] = [[] for _ in sequences]
    barrier = threading.Barrier(len(sequences) + 1)
    errors: list[BaseException] = []

    def client_main(index: int) -> None:
        try:
            with ServeClient(url, timeout=REQUEST_TIMEOUT_S) as client:
                barrier.wait()
                for fields in sequences[index]:
                    results[index].append(submit_and_wait(client, fields))
        except BaseException as exc:  # re-raised in the harness thread
            errors.append(exc)
            barrier.abort()

    threads = [
        threading.Thread(target=client_main, args=(i,))
        for i in range(len(sequences))
    ]
    # Outcomes pile up by the ten thousand; a cyclic-GC pass over them
    # would stall the clients, not the server.
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        for thread in threads:
            thread.start()
        start = time.perf_counter()
        try:
            barrier.wait()
            start = time.perf_counter()
        except threading.BrokenBarrierError:
            pass
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
    finally:
        gc.enable()
        gc.unfreeze()
    if errors:
        raise errors[0]
    return results, wall


def _metrics(url: str) -> dict[str, float]:
    from repro.serve.client import ServeClient

    with ServeClient(url) as client:
        return client.metrics()


def _routed(url: str) -> list[int]:
    from repro.serve.client import ServeClient

    with ServeClient(url) as client:
        return list(client.healthz().get("routed", []))


def _canonical(value: object) -> bytes:
    return json.dumps(value, sort_keys=True).encode("utf-8")


def timed_loop(server: ServerProcess, sequences: list[list[dict]]):
    """The timed phase: ``closed_loop`` plus the CPU both sides used.

    Returns (outcomes, wall seconds, client CPU seconds, server CPU
    seconds). The client CPU is the harness process's, whose only busy
    threads in the timed phase are the clients.
    """
    server_cpu, client_cpu = server.cpu_s(), time.process_time()
    outcomes, wall = closed_loop(server.url, sequences)
    return (outcomes, wall, time.process_time() - client_cpu,
            server.cpu_s() - server_cpu)


def _traced_layers(outcomes: list[Outcome], before: dict, after: dict,
                   setups: list[float], readies: list[float],
                   cpu: tuple[float, float]) -> dict[str, float]:
    """Layer numbers seen from outside: job records, /metrics, set-up, CPU."""
    waits, overheads = [], []
    for o in outcomes:
        timings = o.record.get("timings", {})
        waits.append(timings.get("queue_wait_s", 0.0) * 1e3)
        overheads.append((o.latency_s - timings.get("total_s", 0.0)) * 1e3)
    hits = after.get("exec.cache.hot.hit", 0) - before.get("exec.cache.hot.hit", 0)
    misses = after.get("exec.cache.hot.miss", 0) - before.get("exec.cache.hot.miss", 0)
    return {
        "serve.queue_wait_ms": median(waits),
        "serve.client_overhead_ms": median(overheads),
        "serve.polls_per_request": sum(o.polls for o in outcomes) / len(outcomes),
        "exec.cache.hot_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "harness.client_cpu_ms": cpu[0] * 1e3 / len(outcomes),
        "serve.server_cpu_ms": cpu[1] * 1e3 / len(outcomes),
        "setup.server_ready_s": median(readies),
        "setup.warmup_s": median([t - r for t, r in zip(setups, readies)]),
    }


def _e2e(setups: list[float], outcomes: list[Outcome], wall: float,
         rss_mb: float) -> dict[str, float]:
    latencies = [o.latency_s * 1e3 for o in outcomes]
    return {
        "setup_s": median(setups),
        "latency_p50_ms": median(latencies),
        "latency_tail_ms": tail(latencies, TAIL_Q),
        "throughput_rps": len(outcomes) / wall,
        "batch_s": wall,
        "peak_rss_mb": rss_mb,
    }


def _timed_setups(repeats: int, start_one):
    """Run set-up *repeats* times; keep only the last server.

    ``start_one(k)`` returns ``(server, ready_s, total_s, extra)``. Every
    earlier server is stopped before the next starts, so set-ups never
    overlap.
    """
    totals, readies = [], []
    for k in range(repeats):
        server, ready_s, total_s, extra = start_one(k)
        totals.append(total_s)
        readies.append(ready_s)
        if k < repeats - 1:
            server.stop()
    return server, extra, totals, readies


# -- serve_cold ---------------------------------------------------------------------------


def run_cold(work: Path, seed: int, seconds: int, traced: bool, sizing) -> dict:
    from repro.serve.jobs import execute_request
    from repro.serve.protocol import normalize_request

    block = schedules.BLOCK
    count = block * max(1, round(seconds * schedules.COLD_RATE / block))
    timed = schedules.cold(seed, count)
    warm = schedules.warmup(seed)
    servers: list[ServerProcess] = []

    def start_one(k: int):
        start = time.perf_counter()
        server = ServerProcess(
            work / f"server{k}",
            ["--workers", "1", "--jobs", "1",
             "--cache-dir", str(work / f"server{k}" / "cache")],
            work / f"spans{k}" if traced else None,
        )
        servers.append(server)
        server.wait_ready()
        ready = time.perf_counter() - start
        closed_loop(server.url, [warm])
        return server, ready, time.perf_counter() - start, None

    try:
        server, _, setups, readies = _timed_setups(sizing.setup_repeats, start_one)
        before = _metrics(server.url)
        (outcomes,), wall, *cpu = timed_loop(server, [timed])
        after = _metrics(server.url)
        rss = server.peak_rss_mb()
    finally:
        for s in servers:
            s.stop()

    failed = 0
    for o in outcomes:
        # A cold answer must have been computed, not read from a cache.
        if o.error is not None or o.result is None or o.record.get("cached"):
            failed += 1
    # The served == CLI invariant, on a fixed sample recomputed here.
    step = max(1, count // sizing.check_sample)
    for o in outcomes[::step][: sizing.check_sample]:
        if o.result is None:
            continue
        expected = execute_request(normalize_request("simulate", o.fields))
        if _canonical(expected) != _canonical(o.result):
            failed += 1

    result = {
        "attempted": len(outcomes),
        "failed": failed,
        "digest": hashlib.sha256(
            b"".join(_canonical(o.result) + b"\n" for o in outcomes)
        ).hexdigest(),
        "metrics": _e2e(setups, outcomes, wall, rss),
    }
    if traced:
        result["layers"] = _traced_layers(outcomes, before, after, setups,
                                          readies, cpu)
        result["spans_dir"] = work / f"spans{sizing.setup_repeats - 1}"
    return result


# -- serve_hot ----------------------------------------------------------------------------


def _shard_of():
    """The owning shard of a request, as the 2-shard router computes it."""
    from repro.serve.protocol import job_id, job_material, normalize_request
    from repro.serve.shard import HashRing

    ring = HashRing(list(range(2)))

    def shard_of(fields: dict) -> int:
        return ring.lookup(job_id(job_material(normalize_request("simulate", fields))))

    return shard_of


def _hop_cycle(cycles, timed, shard_of) -> list[dict]:
    """Both clients' cycles, reordered so the probe never coalesces.

    A shard's job table keeps one record: the last request either client
    sent it in the timed phase. The probe's first request to each shard
    must be neither client's last one there.
    """
    combined = cycles[0] + cycles[1]
    shards = [shard_of(f) for f in combined]
    for shard in set(shards):
        last = set()
        for sequence in timed:
            for fields in reversed(sequence):
                if shard_of(fields) == shard:
                    last.add(_canonical(fields))
                    break
        positions = [i for i, s in enumerate(shards) if s == shard]
        first = positions[0]
        if _canonical(combined[first]) in last:
            swap = next(i for i in positions if _canonical(combined[i]) not in last)
            combined[first], combined[swap] = combined[swap], combined[first]
    return combined


def _hop_probe(server: ServerProcess, cycle: list[dict], shard_of,
               requests: int) -> float:
    """Hot p50 through the router minus hot p50 straight to the owner.

    Passes alternate between the two paths; within a pass consecutive
    requests to one shard differ, so each is a hot-tier read.
    """
    from repro.serve.client import ServeClient

    routed, direct = [], []
    with ServeClient(server.url) as via_router:
        shards = [ServeClient(f"http://127.0.0.1:{p}") for p in server.shard_ports]
        try:
            while len(direct) < requests:
                for fields in cycle:
                    routed.append(submit_and_wait(via_router, fields))
                for fields in cycle:
                    direct.append(submit_and_wait(shards[shard_of(fields)], fields))
        finally:
            for client in shards:
                client.close()
    if any(o.error for o in routed + direct):
        raise RuntimeError("hop probe request failed")
    return (
        median([o.latency_s * 1e3 for o in routed])
        - median([o.latency_s * 1e3 for o in direct])
    )


def run_hot(work: Path, seed: int, seconds: int, traced: bool, sizing) -> dict:
    shard_of = _shard_of()
    cycles = schedules.hot_split(
        schedules.hot_candidates(seed, schedules.HOT_SET * 4), shard_of,
        clients=2, shards=2, size=schedules.HOT_SET,
    )
    per_client = max(1, round(seconds * sizing.hot_rate))
    timed = [list(itertools.islice(itertools.cycle(c), per_client)) for c in cycles]
    servers: list[ServerProcess] = []

    def start_one(k: int):
        start = time.perf_counter()
        server = ServerProcess(
            work / f"server{k}",
            ["--workers", "2", "--jobs", "1", "--job-history", "1",
             "--cache-dir", str(work / f"server{k}" / "cache")],
            work / f"spans{k}" if traced else None,
        )
        servers.append(server)
        server.wait_ready()
        ready = time.perf_counter() - start
        # Populate with one client, so a finished job is always polled
        # before another job on its shard can evict its record.
        (cold,), _ = closed_loop(server.url, [cycles[0] + cycles[1]])
        closed_loop(server.url, cycles)  # one hot pass per client
        return server, ready, time.perf_counter() - start, cold

    try:
        server, cold, setups, readies = _timed_setups(sizing.setup_repeats, start_one)
        before, routed_before = _metrics(server.url), _routed(server.url)
        outcomes_per_client, wall, *cpu = timed_loop(server, timed)
        after, routed_after = _metrics(server.url), _routed(server.url)
        hop_ms = (
            _hop_probe(server, _hop_cycle(cycles, timed, shard_of), shard_of,
                       sizing.hop_requests)
            if traced else 0.0
        )
        rss = server.peak_rss_mb()
    finally:
        for s in servers:
            s.stop()

    answers = {}
    failed_setup = 0
    for o in cold:
        if o.result is None:
            failed_setup += 1
        answers[_canonical(o.fields)] = _canonical(o.result)
    if failed_setup:
        raise RuntimeError(f"{failed_setup} hot-set requests failed in set-up")

    outcomes = [o for client in outcomes_per_client for o in client]
    failed = 0
    for o in outcomes:
        # Byte-identical to the cold answer, and answered by the tiered
        # cache (not by coalescing onto a job-table record).
        if (
            o.error is not None
            or answers[_canonical(o.fields)] != _canonical(o.result)
            or not o.record.get("cached")
            or o.record.get("coalesced")
        ):
            failed += 1

    result = {
        "attempted": len(outcomes),
        "failed": failed,
        "digest": hashlib.sha256(
            b"".join(
                _canonical(o.result) + b"\n" for client in outcomes_per_client
                for o in client
            )
        ).hexdigest(),
        "metrics": _e2e(setups, outcomes, wall, rss),
    }
    if traced:
        routed = [a - b for a, b in zip(routed_after, routed_before)]
        layers = _traced_layers(outcomes, before, after, setups, readies, cpu)
        layers["serve.router.hop_ms"] = hop_ms
        layers["serve.router.max_share"] = max(routed) / sum(routed)
        for index, count in enumerate(routed):
            layers[f"serve.router.routed.{index}"] = count
        result["layers"] = layers
        result["spans_dir"] = work / f"spans{sizing.setup_repeats - 1}"
    return result
