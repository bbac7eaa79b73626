"""Seeded request mix and open-loop client of the ``service`` workload.

:func:`make_schedule` turns ``(seed, phase, rate, duration)`` into a
list of :class:`Request` s due at Poisson arrival times; the same
arguments give the same list.  :func:`drive` sends each request when it
is due, whatever the state of earlier ones (an open loop), polls the job
to a terminal state and reads every result page.  A request's latency
runs from its due time to its last page, so a stall that delays later
sends is charged to them; how late the generator itself sent is
reported apart.  At most ``connections`` HTTP requests are in flight.

Request ``i`` first polls its job ``poll_s * frac(i * φ)`` after the
submit answers, then every ``poll_s``: spreading the first poll over the
interval keeps a median latency from jumping by a whole poll interval
when the service gets slightly faster or slower.
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Mapping, Protocol, Sequence

#: The request mix: every 20 consecutive requests hold exactly these
#: kinds, in a seeded order (fixed counts keep a run's median from
#: moving with the mix a short run happens to draw).  The shares follow
#: the workload's definition (mostly fresh specs, some repeats, a few
#: registered scenarios); ``perfbench/METRICS.md`` records what each
#: kind costs the server.
MIX_BLOCK = ("fresh",) * 15 + ("repeat",) * 4 + ("registered",)

#: Registered scenarios sent by name (``fat_tree_streaming`` is left
#: out: its expansion alone takes seconds).
REGISTERED = (
    "paper_type1",
    "dual_socket_tree",
    "edge_cluster_bus",
    "faulty_edge_cluster",
    "preemptive_rt",
)

#: Client identities requests are spread over (the fair gate's unit),
#: as many as ``tools/load_test.py`` rotates by default.
CLIENTS = 8

#: Result page size the client asks for: the default of the repository's
#: clients (``ServiceClient.fetch_rows``, ``AsyncServiceClient.result``).
PAGE_LIMIT = 256

_GOLDEN = 0.6180339887498949


@dataclass(frozen=True)
class Request:
    """One scheduled submission."""

    due: float  # seconds after the phase starts
    kind: str  # "fresh", "repeat" or "registered"
    key: str  # identical submissions share a key
    body: Mapping[str, Any]  # the POST /scenarios body


@dataclass
class Record:
    """What happened to one :class:`Request`."""

    request: Request
    sent: float = 0.0  # seconds after the phase start the POST began
    done: float = 0.0  # seconds after the phase start the last page arrived
    status: int = 0
    state: str = ""
    job: Mapping[str, Any] = field(default_factory=dict)
    rows: list[Any] = field(default_factory=list)
    polls: int = 0
    waiting_polls: int = 0

    @property
    def latency(self) -> float:
        """Seconds from when the request was due to its last result page."""
        return self.done - self.request.due

    @property
    def late(self) -> float:
        return self.sent - self.request.due

    @property
    def ok(self) -> bool:
        return self.status == 202 and self.state == "done"


def make_schedule(
    seed: int,
    phase: int,
    rate: float,
    duration: float,
    fresh_spec: Callable[[int], Mapping[str, Any]],
) -> list[Request]:
    """The seeded request mix of one open-loop phase.

    ``fresh_spec(n)`` builds the inline ScenarioSpec dict of workload
    seed ``n``; fresh seeds never repeat across phases of one run.
    """
    rng = random.Random(seed * 1_000 + phase)
    requests: list[Request] = []
    fresh: list[Request] = []
    kinds: list[str] = []
    t = rng.expovariate(rate)
    while t < duration:
        if not kinds:
            kinds = list(MIX_BLOCK)
            rng.shuffle(kinds)
        kind = kinds.pop()
        client = f"user{rng.randrange(CLIENTS)}"
        if kind == "registered":
            name = rng.choice(REGISTERED)
            req = Request(t, "registered", name, {"scenario": name, "client": client})
        elif kind == "repeat" and fresh:
            original = rng.choice(fresh)
            req = Request(t, "repeat", original.key, dict(original.body, client=client))
        else:
            wseed = 10_000_000 + (seed % 10_000) * 1_000 + phase * 100_000_000 + len(fresh)
            req = Request(
                t, "fresh", f"fresh{wseed}", {"spec": fresh_spec(wseed), "client": client}
            )
            fresh.append(req)
        requests.append(req)
        t += rng.expovariate(rate)
    return requests


class Transport(Protocol):
    def request(
        self, method: str, path: str, body: "Mapping[str, Any] | None" = None
    ) -> Awaitable[tuple[int, dict[str, Any]]]: ...


@dataclass
class Phase:
    """Every record of one phase plus the client-side call latencies."""

    records: list[Record]
    calls: dict[str, list[float]]
    backlog_max: int


async def drive(
    transport: Transport,
    requests: Sequence[Request],
    connections: int,
    poll_s: float,
    clock: Callable[[], float] = time.perf_counter,
    first_index: int = 0,
) -> Phase:
    """Run one open-loop phase; returns when every request has finished.

    ``first_index`` numbers the phase's first request, so that phases of
    one request each still spread their first polls over the interval.
    """
    slots = asyncio.Semaphore(connections)
    calls: dict[str, list[float]] = {"submit": [], "status": [], "result": []}
    outstanding = 0
    backlog_max = 0
    start = clock()

    async def call(kind: str, method: str, path: str, body: Any = None) -> tuple[int, dict[str, Any]]:
        async with slots:
            t0 = clock()
            reply = await transport.request(method, path, body)
            calls[kind].append(clock() - t0)
        return reply

    async def one(index: int, req: Request) -> Record:
        nonlocal outstanding, backlog_max
        rec = Record(req)
        wait = poll_s * (((first_index + index) * _GOLDEN) % 1.0)
        delay = start + req.due - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        outstanding += 1
        backlog_max = max(backlog_max, outstanding)
        try:
            async with slots:
                rec.sent = clock() - start
                t0 = clock()
                rec.status, body = await transport.request("POST", "/scenarios", req.body)
                calls["submit"].append(clock() - t0)
            if rec.status != 202:
                rec.done = clock() - start
                return rec
            job_id = body["job"]["id"]
            while True:
                await asyncio.sleep(wait)
                wait = poll_s
                status, body = await call("status", "GET", f"/jobs/{job_id}")
                rec.polls += 1
                rec.job = body.get("job", {})
                rec.state = rec.job.get("state", f"http-{status}")
                if status != 200 or rec.state in ("done", "failed", "cancelled"):
                    break
                rec.waiting_polls += 1
            offset: int | None = 0
            while rec.state == "done" and offset is not None:
                status, page = await call(
                    "result", "GET", f"/jobs/{job_id}/result?offset={offset}&limit={PAGE_LIMIT}"
                )
                if status != 200:
                    rec.state = f"result-http-{status}"
                    break
                rec.rows.extend(page["rows"])
                offset = page["next_offset"]
            rec.done = clock() - start
            return rec
        finally:
            outstanding -= 1

    records = await asyncio.gather(*(one(i, req) for i, req in enumerate(requests)))
    return Phase(list(records), calls, backlog_max)


def rows_text(rows: Sequence[Any]) -> str:
    """Canonical bytes of a result's rows (repeats must match them)."""
    return json.dumps(list(rows), sort_keys=True)
