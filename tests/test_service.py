"""Concurrency and robustness tests for the scenario service.

The satellite checklist of the service PR, verbatim:

* cancellation mid-run frees the worker (the job stops, the next job
  proceeds);
* double-cancel and poll-after-cancel are idempotent;
* a worker crash (a scenario whose policy raises) returns a failed job
  with a traceback instead of wedging the pool;
* queue-full returns 429.

Plus the layers underneath: the wire protocol, the fair gate's
round-robin guarantee, singleflight dedup, and the hand-rolled HTTP
server itself.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.core.system import CPU_GPU_FPGA
from repro.experiments.scenarios import ScenarioSpec, WorkloadSpec
from repro.experiments.sweep import PolicySpec, system_to_dict
from repro.service.client import ServiceClient
from repro.service.jobs import (
    FairGate,
    InlineExecutor,
    JobManager,
    ProcessExecutor,
    QueueFullError,
)
from repro.service.protocol import ProtocolError, SubmitRequest, paginate
from repro.service.server import run_service
from repro.service.store import SharedResultStore


def tiny_spec(
    seed: int = 1, policies: "tuple[str, ...]" = ("met",), n_kernels: int = 6
) -> dict:
    """A serialized single-unit pipeline scenario (one payload per policy)."""
    return ScenarioSpec(
        name=f"svc_test_{seed}",
        description="service test unit",
        system=system_to_dict(CPU_GPU_FPGA()),
        workload=WorkloadSpec.of(
            "pipeline", n_kernels=n_kernels, stage_width=2, seed=seed
        ),
        policies=tuple(
            PolicySpec.of(name, alpha=1.5) if name.startswith("apt") else PolicySpec.of(name)
            for name in policies
        ),
    ).to_dict()


def slow_spec(seed: int = 7) -> dict:
    """Six ~40 ms payloads: long enough to cancel mid-run reliably."""
    return tiny_spec(
        seed=seed,
        policies=("met", "spn", "ss", "ag", "heft", "peft"),
        n_kernels=120,
    )


def crash_spec(seed: int = 1) -> dict:
    """A spec whose policy name explodes inside the worker."""
    spec = tiny_spec(seed=seed)
    spec["policies"] = [{"name": "no_such_policy", "params": {}}]
    return spec


def run(coro):
    return asyncio.run(coro)


async def wait_for(predicate, timeout_s: float = 20.0) -> None:
    async def _poll():
        while not predicate():
            await asyncio.sleep(0.001)

    await asyncio.wait_for(_poll(), timeout=timeout_s)


# ----------------------------------------------------------------------
# protocol layer
# ----------------------------------------------------------------------
class TestProtocol:
    def test_submit_requires_exactly_one_of_scenario_or_spec(self):
        with pytest.raises(ProtocolError):
            SubmitRequest.from_dict({})
        with pytest.raises(ProtocolError):
            SubmitRequest.from_dict({"scenario": "x", "spec": {"name": "y"}})

    def test_submit_rejects_unknown_keys(self):
        with pytest.raises(ProtocolError, match="unknown submit keys"):
            SubmitRequest.from_dict({"scenario": "x", "priority": 9})

    def test_submit_rejects_non_object_body(self):
        with pytest.raises(ProtocolError):
            SubmitRequest.from_dict([1, 2, 3])

    def test_submit_defaults(self):
        request = SubmitRequest.from_dict({"scenario": "paper_type1"})
        assert request.client == "anonymous"
        assert request.settings == {}

    def test_paginate_rejects_bad_cursor(self):
        with pytest.raises(ProtocolError):
            paginate([], offset=-1)
        with pytest.raises(ProtocolError):
            paginate([], limit=0)

    def test_paginate_next_offset_chain(self):
        rows = [{"i": i} for i in range(5)]
        page = paginate(rows, offset=0, limit=2)
        assert [r["i"] for r in page.rows] == [0, 1]
        assert page.next_offset == 2
        last = paginate(rows, offset=4, limit=2)
        assert last.next_offset is None
        assert last.total == 5


# ----------------------------------------------------------------------
# fairness
# ----------------------------------------------------------------------
class TestFairGate:
    def test_fast_path(self):
        async def scenario():
            gate = FairGate(2)
            await gate.acquire("a")
            await gate.acquire("a")
            assert gate.busy == 2
            gate.release()
            assert gate.busy == 1

        run(scenario())

    def test_round_robin_across_clients(self):
        async def scenario():
            gate = FairGate(1)
            await gate.acquire("holder")
            grants: list[str] = []

            async def waiter(client: str) -> None:
                await gate.acquire(client)
                grants.append(client)

            # a floods three waiters before b arrives with one
            tasks = [asyncio.create_task(waiter("a")) for _ in range(3)]
            await asyncio.sleep(0)
            tasks.append(asyncio.create_task(waiter("b")))
            await asyncio.sleep(0)
            for _ in range(4):
                gate.release()
                await asyncio.sleep(0)
            await asyncio.gather(*tasks)
            # b's single payload is not starved behind a's backlog
            assert grants == ["a", "b", "a", "a"]

        run(scenario())

    def test_cancelled_waiter_is_skipped(self):
        async def scenario():
            gate = FairGate(1)
            await gate.acquire("holder")
            doomed = asyncio.create_task(gate.acquire("a"))
            survivor = asyncio.create_task(gate.acquire("b"))
            await asyncio.sleep(0)
            doomed.cancel()
            await asyncio.sleep(0)
            gate.release()
            await asyncio.wait_for(survivor, timeout=5)
            assert doomed.cancelled()
            assert gate.busy == 1

        run(scenario())


# ----------------------------------------------------------------------
# the job manager
# ----------------------------------------------------------------------
class TestJobManager:
    def manager(self, **kwargs) -> JobManager:
        kwargs.setdefault("executor", InlineExecutor(slots=2))
        return JobManager(**kwargs)

    def test_submit_runs_to_done(self):
        async def scenario():
            manager = self.manager()
            record = manager.submit(SubmitRequest.from_dict({"spec": tiny_spec()}))
            final = await manager.wait(record.id)
            assert final.state == "done"
            assert final.done == final.total == 1
            assert final.simulated == 1
            assert [e["event"] for e in final.events][0] == "submitted"
            assert [e["event"] for e in final.events][-1] == "done"
            await manager.close()

        run(scenario())

    def test_duplicate_submission_hits_store(self):
        async def scenario():
            manager = self.manager()
            first = manager.submit(SubmitRequest.from_dict({"spec": tiny_spec()}))
            await manager.wait(first.id)
            second = manager.submit(SubmitRequest.from_dict({"spec": tiny_spec()}))
            final = await manager.wait(second.id)
            assert final.state == "done"
            assert final.simulated == 0
            assert final.store_hits == 1
            assert final.rows == first.rows
            await manager.close()

        run(scenario())

    def test_concurrent_duplicates_coalesce_to_one_simulation(self):
        async def scenario():
            manager = self.manager()
            records = [
                manager.submit(
                    SubmitRequest.from_dict({"spec": tiny_spec(), "client": f"c{i}"})
                )
                for i in range(6)
            ]
            finals = [await manager.wait(r.id) for r in records]
            assert all(f.state == "done" for f in finals)
            assert sum(f.simulated for f in finals) == 1
            assert manager.store.puts == 1
            assert sum(f.coalesced + f.store_hits for f in finals) == 5
            assert all(f.rows == finals[0].rows for f in finals)
            await manager.close()

        run(scenario())

    def test_queue_full_raises(self):
        async def scenario():
            manager = self.manager(queue_limit=1)
            manager.submit(SubmitRequest.from_dict({"spec": slow_spec()}))
            with pytest.raises(QueueFullError):
                manager.submit(SubmitRequest.from_dict({"spec": tiny_spec()}))
            assert manager.counters["rejected"] == 1
            await manager.close()

        run(scenario())

    def test_cancel_mid_run_frees_the_worker(self):
        async def scenario():
            manager = self.manager(executor=InlineExecutor(slots=1))
            record = manager.submit(SubmitRequest.from_dict({"spec": slow_spec()}))
            await wait_for(lambda: record.done >= 1)
            manager.cancel(record.id)
            final = await manager.wait(record.id)
            assert final.state == "cancelled"
            assert 1 <= final.done < final.total
            # the slot is free again: the next job completes
            follow_up = manager.submit(SubmitRequest.from_dict({"spec": tiny_spec()}))
            assert (await manager.wait(follow_up.id)).state == "done"
            assert manager.gate.busy == 0
            await manager.close()

        run(scenario())

    def test_cancel_while_queued_behind_another_client(self):
        async def scenario():
            manager = self.manager(executor=InlineExecutor(slots=1))
            blocker = manager.submit(
                SubmitRequest.from_dict({"spec": slow_spec(), "client": "a"})
            )
            victim = manager.submit(
                SubmitRequest.from_dict({"spec": tiny_spec(seed=99), "client": "b"})
            )
            manager.cancel(victim.id)
            final = await manager.wait(victim.id)
            assert final.state == "cancelled"
            assert final.done == 0
            assert (await manager.wait(blocker.id)).state == "done"
            assert manager.gate.busy == 0
            await manager.close()

        run(scenario())

    def test_double_cancel_is_idempotent(self):
        async def scenario():
            manager = self.manager(executor=InlineExecutor(slots=1))
            record = manager.submit(SubmitRequest.from_dict({"spec": slow_spec()}))
            manager.cancel(record.id)
            manager.cancel(record.id)
            final = await manager.wait(record.id)
            assert final.state == "cancelled"
            manager.cancel(record.id)  # after terminal: no state change
            assert final.state == "cancelled"
            assert manager.counters["cancelled"] == 1
            cancel_events = [
                e for e in final.events if e["event"] == "cancel_requested"
            ]
            assert len(cancel_events) == 1
            await manager.close()

        run(scenario())

    def test_worker_crash_fails_job_with_traceback(self):
        async def scenario():
            manager = self.manager()
            record = manager.submit(SubmitRequest.from_dict({"spec": crash_spec()}))
            final = await manager.wait(record.id)
            assert final.state == "failed"
            assert final.error is not None
            assert "no_such_policy" in final.error
            # the executor is not wedged: the next job completes
            follow_up = manager.submit(SubmitRequest.from_dict({"spec": tiny_spec()}))
            assert (await manager.wait(follow_up.id)).state == "done"
            await manager.close()

        run(scenario())

    def test_worker_crash_does_not_wedge_the_process_pool(self):
        async def scenario():
            manager = self.manager(executor=ProcessExecutor(workers=2))
            crash = manager.submit(SubmitRequest.from_dict({"spec": crash_spec()}))
            final = await manager.wait(crash.id)
            assert final.state == "failed"
            assert final.error is not None and "no_such_policy" in final.error
            # same pool, fresh job: still serves
            good = manager.submit(SubmitRequest.from_dict({"spec": tiny_spec()}))
            assert (await manager.wait(good.id)).state == "done"
            await manager.close()

        run(scenario())

    def test_crash_fails_coalesced_followers_too(self):
        async def scenario():
            manager = self.manager(executor=InlineExecutor(slots=1))
            records = [
                manager.submit(
                    SubmitRequest.from_dict({"spec": crash_spec(), "client": f"c{i}"})
                )
                for i in range(3)
            ]
            finals = [await manager.wait(r.id) for r in records]
            assert all(f.state == "failed" for f in finals)
            assert all(f.error and "no_such_policy" in f.error for f in finals)
            await manager.close()

        run(scenario())

    def test_unknown_scenario_is_a_protocol_error(self):
        async def scenario():
            manager = self.manager()
            with pytest.raises(ProtocolError) as exc:
                manager.submit(SubmitRequest.from_dict({"scenario": "nope"}))
            assert exc.value.status == 404
            await manager.close()

        run(scenario())

    def test_settings_override_changes_the_cache_key(self):
        async def scenario():
            manager = self.manager()
            base = manager.submit(SubmitRequest.from_dict({"spec": tiny_spec()}))
            await manager.wait(base.id)
            tweaked = manager.submit(
                SubmitRequest.from_dict(
                    {"spec": tiny_spec(), "settings": {"noise_seed": 5}}
                )
            )
            final = await manager.wait(tweaked.id)
            assert final.state == "done"
            assert final.simulated == 1  # different settings: no store hit
            with pytest.raises(ProtocolError, match="unknown settings"):
                manager.submit(
                    SubmitRequest.from_dict(
                        {"spec": tiny_spec(), "settings": {"bogus": 1}}
                    )
                )
            await manager.close()

        run(scenario())


# ----------------------------------------------------------------------
# the HTTP layer, end to end
# ----------------------------------------------------------------------
class TestServiceHTTP:
    def test_health_stats_and_routing(self):
        with run_service(slots=1) as server:
            client = ServiceClient(server.address)
            assert client.health() == (200, {"status": "ok"})
            status, stats = client.stats()
            assert status == 200
            assert stats["active"] == 0
            assert stats["gate"]["capacity"] == 1
            assert client.status("j999999")[0] == 404
            assert client.cancel("j999999")[0] == 404
            assert client.request("GET", "/nope")[0] == 404
            assert client.request("GET", "/scenarios")[0] == 405

    def test_submit_poll_result_roundtrip(self):
        with run_service(slots=2) as server:
            client = ServiceClient(server.address)
            status, body = client.submit(
                spec=tiny_spec(policies=("met", "spn")), client="roundtrip"
            )
            assert status == 202
            job = client.wait(body["job"]["id"])
            assert job["state"] == "done"
            assert job["total"] == 2
            status, page = client.result(job["id"], offset=0, limit=1)
            assert status == 200
            assert page["complete"] is True
            assert page["total"] == 2
            assert page["next_offset"] == 1
            rows = client.fetch_rows(job["id"], limit=1)
            assert [r["policy_name"] for r in rows] == ["met", "spn"]

    def test_bad_requests(self):
        with run_service(slots=1) as server:
            client = ServiceClient(server.address)
            status, body = client.request("POST", "/scenarios", {"spec": {}})
            assert status == 400
            status, body = client.request("POST", "/scenarios", {})
            assert status == 400
            assert "error" in body
            status, body = client.submit(scenario="no_such_scenario")
            assert status == 404
            # malformed JSON body
            import urllib.request

            req = urllib.request.Request(
                server.address + "/scenarios",
                data=b"{not json",
                method="POST",
            )
            try:
                urllib.request.urlopen(req)
                raised = None
            except urllib.error.HTTPError as exc:
                raised = exc.code
            assert raised == 400

    def test_queue_full_returns_429(self):
        with run_service(slots=1, queue_limit=1) as server:
            client = ServiceClient(server.address)
            status, first = client.submit(spec=slow_spec())
            assert status == 202
            status, body = client.submit(spec=tiny_spec(seed=2))
            assert status == 429
            assert body["limit"] == 1
            assert client.wait(first["job"]["id"])["state"] == "done"

    def test_cancel_over_http_is_idempotent(self):
        with run_service(slots=1) as server:
            client = ServiceClient(server.address)
            _, body = client.submit(spec=slow_spec())
            job_id = body["job"]["id"]
            status, first = client.cancel(job_id)
            assert status == 200
            status, second = client.cancel(job_id)
            assert status == 200
            assert second["job"]["cancel_requested"] is True
            final = client.wait(job_id)
            assert final["state"] == "cancelled"
            # poll-after-cancel keeps answering, bit-stable
            assert client.status(job_id)[1]["job"]["state"] == "cancelled"
            status, page = client.result(job_id)
            assert status == 200
            assert page["complete"] is True
            assert len(page["rows"]) == final["done"]

    def test_failed_job_reports_error_over_http(self):
        with run_service(slots=1) as server:
            client = ServiceClient(server.address)
            _, body = client.submit(spec=crash_spec())
            final = client.wait(body["job"]["id"])
            assert final["state"] == "failed"
            assert "no_such_policy" in final["error"]
            status, page = client.result(final["id"])
            assert status == 200
            assert "no_such_policy" in page["error"]

    def test_registered_scenario_by_name(self):
        with run_service(slots=2) as server:
            client = ServiceClient(server.address)
            # settings overrides must name SimSettings fields
            status, body = client.submit(
                scenario="paper_type1", settings={"backend": None}
            )
            assert status == 400
            assert "unknown settings keys: backend" in body["error"]
            status, body = client.submit(
                scenario="paper_type1", settings={"noise_seed": 0}
            )
            assert status == 202
            job_id = body["job"]["id"]
            # a registered scenario expands to the full policy grid
            job = client.wait(job_id)
            assert job["state"] == "done"
            assert job["total"] == 70
            status, page = client.result(job_id, limit=10)
            assert page["total"] == 70
            assert len(page["rows"]) == 10

    def test_stats_counts_store_activity(self):
        with run_service(slots=2) as server:
            client = ServiceClient(server.address)
            for _ in range(2):
                _, body = client.submit(spec=tiny_spec())
                client.wait(body["job"]["id"])
            _, stats = client.stats()
            assert stats["jobs"]["submitted"] == 2
            assert stats["jobs"]["completed"] == 2
            assert stats["store"]["puts"] == 1
