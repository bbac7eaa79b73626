"""The ``service`` workload: ``apt-sched serve`` under a seeded request mix.

Each server runs with its defaults (inline executor, two slots,
in-memory store, 64-job admission limit) in its own process; only the
port is chosen (``0``, ephemeral).  Servers run one per CPU at a time.
Against every server the client first sends the five registered
scenarios, one after the other, into the empty store (the cold batch)
and then the same five again, several times (the warm batches: store
hits, expansion and hashing only).  The last server on the last CPU
then takes, alone, an open-loop phase of the seeded mix
(``perfbench/loadgen.py``) at the reference rate.

The traced run adds, on an untraced server, a ladder of rates that
finds the highest rate meeting the latency limit, then repeats the
reference phase on a traced server to attribute server time to layers.
"""

from __future__ import annotations

import asyncio
import os
import select
import subprocess
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Mapping

from perfbench.calibrate import Calibrator, calibrated, calibrated_units
from perfbench.common import LANES, WORK, Child, Outcome
from perfbench.loadgen import REGISTERED, Phase, Record, Request, drive, make_schedule, rows_text
from perfbench.stats import mean, median, tail

#: Open-loop reference rate (requests/s): light load, so the median
#: latency tracks per-request cost more than queueing.
REFERENCE_RATE = 10.0
#: Rates the traced run's ladder tries, in order, for ``service.max_rps``
#: (the first is the reference rate: its phase gives the client metrics).
#: Above the last, requests go out late (every client connection busy).
LADDER_RATES = (REFERENCE_RATE, 20.0, 40.0, 60.0, 80.0, 100.0, 120.0, 160.0)
#: Tail latency limit (ms) a ladder rate must meet.
LATENCY_LIMIT_MS = 250.0
#: Servers started per untraced run, one per CPU at a time: each gives
#: one set-up sample and one cold batch, so a run pools eight of each.
SERVERS = 8
#: Warm batches sent to each server after its cold batch.
WARM_BATCHES = 3
#: Shortest open-loop phase (s).
MIN_PHASE_S = 4.0
#: Length of each ladder step and of the traced reference phase (s).
LADDER_STEP_S = 5.0
#: Poll interval of a job's status (s): the repository's asynchronous
#: client's default (``AsyncServiceClient.wait``).  A request's first
#: poll is spread over the interval (``perfbench/loadgen.py``), so a
#: batch's time moves smoothly, not in whole intervals.
POLL_S = 0.02

SERVER_START_TIMEOUT_S = 60.0
#: How long a phase may run past its last due time.
PHASE_GRACE_S = 60.0
SERVER_STOP_TIMEOUT_S = 30.0


class Catalog:
    """What the client knows of each request key: expected rows, the
    payload hashes they come from, and kernels per payload."""

    def __init__(self) -> None:
        from repro.core.system import CPU_GPU_FPGA
        from repro.data.paper_tables import paper_lookup_table
        from repro.experiments.scenarios import get_scenario
        from repro.experiments.sweep import system_to_dict

        self.lookup = paper_lookup_table()
        self.system = system_to_dict(CPU_GPU_FPGA())
        self.payloads: dict[str, list[tuple[str, int]]] = {}
        for name in REGISTERED:
            self._add(name, get_scenario(name))

    def _add(self, key: str, spec: Any) -> None:
        self.payloads[key] = [
            (job.content_hash(), len(job.dfg["kernels"])) for job in spec.jobs(self.lookup)
        ]

    def fresh_spec(self, wseed: int) -> dict[str, Any]:
        """A one-payload inline spec: the unit of the repository's own
        service load harness (``tools/load_test.py``), a 6-kernel
        pipeline of stage width 2 under MET on the paper's platform (the
        shape ``docs/service.md`` submits too)."""
        from repro.experiments.scenarios import ScenarioSpec, WorkloadSpec
        from repro.experiments.sweep import PolicySpec

        spec = ScenarioSpec(
            name=f"bench_pipeline_{wseed}",
            description="benchmark inline pipeline",
            system=self.system,
            workload=WorkloadSpec.of("pipeline", n_kernels=6, stage_width=2, seed=wseed),
            policies=(PolicySpec.of("met"),),
        )
        self._add(f"fresh{wseed}", spec)
        return spec.to_dict()


class Server:
    """One ``apt-sched serve`` process, and a calibrator on its CPU that
    samples the host's speed while the server is idle."""

    def __init__(self, name: str, trace_out: str | None = None, lane: int = 0) -> None:
        args = ["-m", "perfbench.serve"]
        if trace_out is not None:
            args += ["--trace-out", trace_out]
        self.child = Child(
            args + ["--", "--port", "0"], WORK / f"{name}.log", stdout=subprocess.PIPE, lane=lane
        )
        self.calibrator: Calibrator | None = None
        try:
            self.port = self._read_port()
            self.setup_s = self._await_health() - self.child.spawned
            self.calibrator = Calibrator(f"{name}-calibrate", lane)
            self.setup_cal_s = calibrated(self.setup_s, self.calibrator.sample())
        except Exception:
            self._halt()
            raise
        self.submitted: set[str] = set()  # payload hashes sent to it
        self.payload_requests = 0
        self.sent = 0  # requests sent to it

    def _read_port(self) -> int:
        stdout = self.child.proc.stdout
        assert stdout is not None
        ready, _, _ = select.select([stdout], [], [], SERVER_START_TIMEOUT_S)
        line = stdout.readline().decode("utf-8", "replace") if ready else ""
        if "serving on" not in line:
            raise RuntimeError(f"server did not start: {line!r}\n{self.child.log_tail()}")
        return int(line.strip().rsplit(":", 1)[1])

    def _await_health(self) -> float:
        from repro.service.client import ServiceClient

        client = ServiceClient(f"http://127.0.0.1:{self.port}")
        deadline = time.monotonic() + SERVER_START_TIMEOUT_S
        while time.monotonic() < deadline:
            try:
                if client.health()[0] == 200:
                    return time.perf_counter()
            except OSError:
                pass
            time.sleep(0.005)
        raise RuntimeError("server never answered /healthz")

    def phase(self, requests: list[Request], catalog: Catalog) -> Phase:
        from repro.service.client import AsyncServiceClient

        transport = AsyncServiceClient("127.0.0.1", self.port)
        timeout = max((r.due for r in requests), default=0.0) + PHASE_GRACE_S
        result = asyncio.run(asyncio.wait_for(
            drive(transport, requests, os.cpu_count() or 1, POLL_S, first_index=self.sent),
            timeout,
        ))
        self.sent += len(requests)
        for rec in result.records:
            if rec.ok:
                hashes = catalog.payloads[rec.request.key]
                self.submitted.update(h for h, _ in hashes)
                self.payload_requests += len(hashes)
        return result

    def stats(self) -> dict[str, Any]:
        from repro.service.client import ServiceClient

        status, body = ServiceClient(f"http://127.0.0.1:{self.port}").stats()
        if status != 200:
            raise RuntimeError(f"/stats answered {status}")
        return body

    def stop(self) -> None:
        code = self._halt()
        if code != 0:
            raise RuntimeError(f"server exited with {code}:\n{self.child.log_tail()}")

    def _halt(self) -> int:
        if self.calibrator is not None:
            self.calibrator.stop()
        return self.child.interrupt(SERVER_STOP_TIMEOUT_S)


class Checker:
    """Checks every record; repeats of a key must return the same rows."""

    def __init__(self, out: Outcome, catalog: Catalog) -> None:
        self.out = out
        self.catalog = catalog
        self.rows: dict[str, str] = {}
        self._lock = threading.Lock()  # servers are driven from several threads

    def records(self, records: list[Record]) -> None:
        with self._lock:
            self._records(records)

    def _records(self, records: list[Record]) -> None:
        for rec in records:
            key = rec.request.key
            ok = rec.ok and len(rec.rows) == len(self.catalog.payloads[key])
            if ok:
                text = rows_text(rec.rows)
                ok = self.rows.setdefault(key, text) == text
            self.out.check(
                ok,
                f"{rec.request.kind} {key}: status {rec.status} state {rec.state!r} "
                f"rows {len(rec.rows)}/{len(self.catalog.payloads[key])}",
            )

    def one_simulation_per_payload(self, server: Server) -> dict[str, Any]:
        stats = server.stats()
        store = stats["store"]
        self.out.check(
            store["puts"] == len(server.submitted) and stats["jobs"]["failed"] == 0,
            f"/stats: {store['puts']} simulations for {len(server.submitted)} unique payloads",
        )
        return stats


def _start(names: list[str]) -> list[Server]:
    """Start one server per name, all at once, server ``i`` in lane ``i``."""
    with ThreadPoolExecutor(len(names)) as pool:
        futures = [pool.submit(Server, name, None, lane) for lane, name in enumerate(names)]
    servers = [f.result() for f in futures if f.exception() is None]
    if len(servers) < len(names):
        _stop(servers)
        raise next(f.exception() for f in futures if f.exception() is not None)  # type: ignore[misc]
    return servers


def _stop(servers: list[Server]) -> None:
    """Stop every server, then raise the first failure."""
    errors = []
    for server in servers:
        try:
            server.stop()
        except RuntimeError as exc:
            errors.append(exc)
    if errors:
        raise errors[0]


def _batch(server: Server, catalog: Catalog, check: Checker) -> tuple[float, float]:
    """Send the registered scenarios one after another; return the
    seconds from each one's POST to its last page, summed, as measured
    and calibrated (a reference sample before each request and after
    the last: a batch lasts seconds on a slow host, long enough for its
    speed to change).  One job at a time keeps the two worker threads
    from trading the interpreter lock, which made concurrent batches
    bimodal."""
    assert server.calibrator is not None
    seconds: list[float] = []
    refs = [server.calibrator.sample()]
    for name in REGISTERED:
        phase = server.phase([Request(0.0, "registered", name, {"scenario": name})], catalog)
        check.records(phase.records)
        seconds.append(phase.records[0].done)
        refs.append(server.calibrator.sample())
    return sum(seconds), sum(calibrated_units(seconds, refs))


def _cold_warm(
    server: Server, catalog: Catalog, check: Checker
) -> tuple[tuple[float, float], list[tuple[float, float]], int]:
    """``(cold batch, warm batches, kernels the cold batch simulated)``;
    each batch is ``(seconds, calibrated seconds)``."""
    cold = _batch(server, catalog, check)
    warms = [_batch(server, catalog, check) for _ in range(WARM_BATCHES)]
    kernels = dict(pair for name in REGISTERED for pair in catalog.payloads[name])
    return cold, warms, sum(kernels.values())


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    WORK.mkdir(exist_ok=True)
    catalog = Catalog()
    check = Checker(out, catalog)
    if trace:
        return _run_traced(out, seed, catalog, check)

    begin = time.perf_counter()
    setups: list[tuple[float, float]] = []
    colds: list[tuple[float, float]] = []
    warms: list[tuple[float, float]] = []
    kernels = 0
    for group in range(0, SERVERS, len(LANES)):
        servers = _start([f"service-{i}" for i in range(group, min(SERVERS, group + len(LANES)))])
        try:
            with ThreadPoolExecutor(len(servers)) as pool:
                batches = list(pool.map(lambda server: _cold_warm(server, catalog, check), servers))
            for server, (cold_s, warm_batches, cold_kernels) in zip(servers, batches):
                setups.append((server.setup_s, server.setup_cal_s))
                colds.append(cold_s)
                warms.extend(warm_batches)
                kernels += cold_kernels
            if group + len(servers) < SERVERS:
                for server in servers:
                    check.one_simulation_per_payload(server)
                continue
            # the open loop: the server on the last CPU, alone
            looped = servers[0]
            for other in servers[1:]:
                check.one_simulation_per_payload(other)
            _stop(servers[1:])
            duration = max(MIN_PHASE_S, seconds - (time.perf_counter() - begin))
            requests = make_schedule(seed, 0, REFERENCE_RATE, duration, catalog.fresh_spec)
            phase = looped.phase(requests, catalog)
            check.records(phase.records)
            check.one_simulation_per_payload(looped)
        finally:
            _stop(servers)

    latencies = [1e3 * r.latency for r in phase.records]
    tail_ms, tail_pct, n = tail(latencies)
    out.metrics = {
        "setup_s": median([cal for _, cal in setups]),
        "cold_s": mean([cal for _, cal in colds]),
        "warm_s": mean([cal for _, cal in warms]),
        "kernels_per_s": kernels / sum(cal for _, cal in colds),
        "peak_rss_mb": looped.child.peak_rss_mb,
    }
    out.details = {
        "wall": {
            "setup_s": median([wall for wall, _ in setups]),
            "cold_s": mean([wall for wall, _ in colds]),
            "warm_s": mean([wall for wall, _ in warms]),
        },
        "reference_rate": REFERENCE_RATE,
        "requests": n,
        "p50_ms": median(latencies),
        "tail_ms": tail_ms,
        "tail_percentile": tail_pct,
        "late_max_ms": 1e3 * max(r.late for r in phase.records),
    }
    return out


def _client_metrics(phase: Phase) -> dict[str, float]:
    metrics: dict[str, float] = {}
    for kind, samples in phase.calls.items():
        ms = [1e3 * s for s in samples]
        metrics[f"service.{kind}.calls"] = len(ms)
        if ms:
            metrics[f"service.{kind}.p50_ms"] = median(ms)
        if len(ms) > 10:
            metrics[f"service.{kind}.tail_ms"] = tail(ms)[0]
    records = phase.records
    polls = sum(r.polls for r in records)
    latencies = [1e3 * r.latency for r in records]
    late = [1e3 * r.late for r in records]
    value, pct, n = tail(latencies)
    metrics.update({
        "service.status.wasted_ratio": sum(r.waiting_polls for r in records) / polls if polls else 0.0,
        "service.rejected": sum(1 for r in records if r.status == 429),
        "service.backlog.max": phase.backlog_max,
        "service.request.p50_ms": median(latencies),
        "service.request.tail_ms": value,
        "service.request.tail_pct": pct,
        "service.request.samples": n,
        "loadgen.late.p50_ms": median(late),
        "loadgen.late.max_ms": max(late),
    })
    return metrics


def _meets_limit(phase: Phase) -> bool:
    """Every request served, the tail within the limit, and the backlog
    drained by the end (the last request also within the limit)."""
    records = phase.records
    if not records or not all(r.ok for r in records):
        return False
    latencies = [1e3 * r.latency for r in records]
    last = max(records, key=lambda r: r.request.due)
    return tail(latencies)[0] <= LATENCY_LIMIT_MS and 1e3 * last.latency <= LATENCY_LIMIT_MS


def _dedup_metrics(stats: Mapping[str, Any], server: Server) -> dict[str, float]:
    unique = len(server.submitted)
    duplicates = server.payload_requests - unique
    served = stats["store"]["hits"] + stats["jobs"]["coalesced"]
    return {
        "service.dedup_ratio": served / duplicates if duplicates else 1.0,
        "service.sims_per_unique": stats["store"]["puts"] / unique if unique else 0.0,
    }


def _run_traced(out: Outcome, seed: int, catalog: Catalog, check: Checker) -> Outcome:
    from perfbench.tracing import pass_layers

    plain = Server("service-plain")
    try:
        plain_cold, _, _ = _cold_warm(plain, catalog, check)
        max_rps = 0.0
        ladder: list[Phase] = []
        for phase_no, rate in enumerate(LADDER_RATES):
            phase = plain.phase(make_schedule(seed, phase_no, rate, LADDER_STEP_S, catalog.fresh_spec), catalog)
            check.records(phase.records)
            ladder.append(phase)
            if not _meets_limit(phase):
                break
            max_rps = rate
        stats = check.one_simulation_per_payload(plain)
        dedup = _dedup_metrics(stats, plain)
    finally:
        plain.stop()

    dump = str(WORK / "service-trace.json")
    traced = Server("service-traced", trace_out=dump)
    try:
        traced_cold, _, _ = _cold_warm(traced, catalog, check)
        phase = traced.phase(
            make_schedule(seed, 0, REFERENCE_RATE, LADDER_STEP_S, catalog.fresh_spec), catalog
        )
        check.records(phase.records)
        check.one_simulation_per_payload(traced)
    finally:
        traced.stop()

    out.metrics = pass_layers([dump])
    out.metrics.update(_client_metrics(ladder[0]))
    out.metrics.update(dedup)
    out.metrics["service.max_rps"] = max_rps
    out.metrics["trace.overhead"] = traced_cold[0] / plain_cold[0]
    return out
