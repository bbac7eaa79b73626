"""The benchmark's own logic, checked without running a workload."""

from __future__ import annotations

import asyncio
import json
from pathlib import Path

import pytest

from perfbench.calibrate import NOMINAL_S, Calibrator, calibrated, calibrated_units
from perfbench.loadgen import REGISTERED, Request, drive, make_schedule
from perfbench.recorder import Recorder, covered_share, self_times, summarize
from perfbench.stats import tail


# ----------------------------------------------------------------------
# self time
# ----------------------------------------------------------------------
def test_self_time_subtracts_the_union_of_overlapping_children():
    rows = [
        [1, "outer", 0.0, 10.0, None, 1, None],
        [2, "a", 1.0, 4.0, 1, 1, None],
        [3, "b", 3.0, 6.0, 1, 2, None],  # overlaps a (another thread)
        [4, "c", 8.0, 12.0, 1, 2, None],  # runs past its parent's end
        [5, "d", 2.0, 3.5, 2, 1, None],  # grandchild: only a's business
    ]
    own = self_times(rows)
    # children cover [1, 6] and [8, 10] of the parent: 7 of its 10 s
    assert own[1] == pytest.approx(3.0)
    assert own[2] == pytest.approx(3.0 - 1.5)
    assert own[3] == pytest.approx(3.0)
    assert own[5] == pytest.approx(1.5)
    assert summarize(rows)["outer"] == {"calls": 1, "self_s": pytest.approx(3.0)}
    assert covered_share(rows, 0.0, 20.0) == pytest.approx(12.0 / 20.0)


def test_recorder_nests_spans_per_call_chain_and_folds_reentrant_calls():
    ticks = iter(range(100))
    rec = Recorder(clock=lambda: float(next(ticks)))

    inner = rec.wrap("inner", lambda: None)

    def _outer(depth: int) -> None:
        inner()
        if depth:
            outer(depth - 1)  # same span name: no new span

    outer = rec.wrap("outer", _outer)
    outer(1)
    rows = rec.rows()
    names = [row[1] for row in rows]
    assert names == ["outer", "inner", "inner"]
    outer_id = rows[0][0]
    assert all(row[4] == outer_id for row in rows[1:])


def test_recorder_parents_follow_tasks_and_worker_threads():
    rec = Recorder()
    work = rec.wrap("sweep.execute", lambda: None)

    async def _serve() -> None:
        await asyncio.to_thread(work)

    serve = rec.wrap("service.execute", _serve)

    async def _main() -> None:
        await asyncio.gather(serve(), serve())

    asyncio.run(_main())
    rows = rec.rows()
    parents = {row[0]: row for row in rows if row[1] == "service.execute"}
    children = [row for row in rows if row[1] == "sweep.execute"]
    assert len(parents) == 2 and len(children) == 2
    assert {row[4] for row in children} == set(parents)
    assert all(row[5] != parents[row[4]][5] for row in children)  # other thread


def test_spans_of_a_submitted_job_carry_its_request_id():
    rec = Recorder()
    expand = rec.wrap("service.expand", lambda: None)
    tasks = []

    async def _job() -> None:
        await asyncio.sleep(0)
        expand()

    def _submit(name: str) -> str:
        tasks.append(asyncio.get_running_loop().create_task(_job()))
        return name

    submit = rec.tag_requests(_submit, lambda job_id: job_id)

    async def _main() -> None:
        submit("j1")
        submit("j2")
        await asyncio.gather(*tasks)

    asyncio.run(_main())
    assert sorted(row[6] for row in rec.rows()) == ["j1", "j2"]


# ----------------------------------------------------------------------
# the tail rule
# ----------------------------------------------------------------------
def test_tail_leaves_ten_samples_beyond_and_reports_the_count():
    values = [float(v) for v in range(200)]
    value, percentile, n = tail(values)
    assert n == 200
    assert sum(1 for v in values if v > value) == 10
    assert percentile == pytest.approx(95.0)
    assert tail([float(v) for v in range(1000)])[1] == pytest.approx(99.0)
    assert tail([1.0] * 11) == (1.0, pytest.approx(100.0 / 11), 11)
    with pytest.raises(ValueError):
        tail([1.0] * 10)


# ----------------------------------------------------------------------
# calibration
# ----------------------------------------------------------------------
def test_each_unit_is_scaled_by_the_reference_samples_around_it():
    # the host runs at nominal speed, then half speed, then nominal again
    refs = [NOMINAL_S, NOMINAL_S, 2 * NOMINAL_S, 2 * NOMINAL_S, NOMINAL_S]
    seconds = [1.0, 3.0, 4.0, 1.0]
    assert calibrated_units(seconds, refs) == pytest.approx([1.0, 2.0, 2.0, 2.0 / 3.0])
    assert calibrated(2.0, NOMINAL_S / 2) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        calibrated_units(seconds, refs[:-1])


def test_calibrator_answers_one_sample_per_request_and_stops(tmp_path, monkeypatch):
    import perfbench.common

    monkeypatch.setattr(perfbench.common, "WORK", tmp_path)
    calibrator = Calibrator("calibrate", lane=0)
    try:
        samples = [calibrator.sample() for _ in range(2)]
    finally:
        calibrator.stop()
    assert all(0.0 < s < 1.0 for s in samples)
    assert calibrator.child.returncode == 0


# ----------------------------------------------------------------------
# the open loop
# ----------------------------------------------------------------------
class _SlowFirstSubmit:
    """Transport whose first POST stalls; every job is done at once."""

    def __init__(self, stall: float) -> None:
        self.stall = stall
        self.jobs = 0

    async def request(self, method, path, body=None):
        if method == "POST":
            self.jobs += 1
            if self.jobs == 1:
                await asyncio.sleep(self.stall)
            return 202, {"job": {"id": f"j{self.jobs}"}}
        if "/result" in path:
            return 200, {"rows": [{"row": 1}], "next_offset": None}
        return 200, {"job": {"state": "done"}}


def test_open_loop_latency_runs_from_the_due_time():
    requests = [
        Request(0.0, "fresh", "a", {}),
        Request(0.01, "fresh", "b", {}),
    ]
    phase = asyncio.run(drive(_SlowFirstSubmit(0.2), requests, connections=1, poll_s=0.001))
    late = phase.records[1]
    assert late.ok and late.rows == [{"row": 1}]
    # sent only after the stalled POST freed the one connection ...
    assert late.sent >= 0.2 - 1e-3
    assert late.late == pytest.approx(late.sent - 0.01)
    # ... and charged for that wait, not timed from its own send
    assert late.latency == pytest.approx(late.done - 0.01)
    assert late.latency > late.done - late.sent
    assert phase.backlog_max == 2
    assert len(phase.calls["submit"]) == 2


# ----------------------------------------------------------------------
# the seeded request mix
# ----------------------------------------------------------------------
def _fresh(n: int) -> dict:
    return {"workload_seed": n}


def test_same_seed_gives_the_same_request_mix():
    first = make_schedule(7, 0, 20.0, 10.0, _fresh)
    again = make_schedule(7, 0, 20.0, 10.0, _fresh)
    assert first == again
    assert first != make_schedule(8, 0, 20.0, 10.0, _fresh)
    kinds = {req.kind for req in first}
    assert kinds == {"fresh", "repeat", "registered"}
    assert all(req.key in REGISTERED for req in first if req.kind == "registered")
    # every block of 20 requests holds exactly one registered scenario
    assert len(first) >= 40
    for block in (first[:20], first[20:40]):
        assert sum(req.kind == "registered" for req in block) == 1
    fresh_keys = [req.key for req in first if req.kind == "fresh"]
    assert len(fresh_keys) == len(set(fresh_keys))
    # a later phase of the same run never reuses a fresh workload seed
    later = {req.key for req in make_schedule(7, 1, 20.0, 10.0, _fresh) if req.kind == "fresh"}
    assert not later & set(fresh_keys)
    # every repeat re-sends a spec scheduled before it
    seen: set[str] = set()
    for req in first:
        if req.kind == "repeat":
            assert req.key in seen
        seen.add(req.key)


def test_benchmark_json_names_every_workload_the_runner_knows():
    from perfbench.run import WORKLOADS

    spec = json.loads((Path(__file__).parents[2] / "BENCHMARK.json").read_text())
    assert tuple(w["name"] for w in spec["workloads"]) == WORKLOADS
    assert spec["end_to_end"][0]["name"] == "setup_s"
