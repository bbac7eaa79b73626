"""The stream workloads: APT on a lazy scale stream, 12 processors.

Both run ``Simulator.run_stream(..., retain_schedule=False)`` over
``streaming_scale_source`` on ``scale_system()``; they differ only in
the mean inter-arrival time.  Each run starts a few working processes,
one per CPU at a time; each sets up once and runs streams until its
share of the run is spent, at least twice, so the first call is cold
and the later ones warm.

Working process ``i`` of a run with seed ``s`` takes, in turn, the
``SEEDS_PER_WORKER`` stream seeds from ``(WORKERS * s + i) *
SEEDS_PER_WORKER`` on (modulo ``RECORDED_SEEDS``), one per call, so a
run's figures pool dozens of streams, and every stream's simulated
statistics are checked against the digest recorded for its seed
(``perfbench/expected/stream_digests.json``).
"""

from __future__ import annotations

import json
import time
from typing import Any

from perfbench.calibrate import calibrated, calibrated_units
from perfbench.common import LANES, ROOT, WORK, Outcome, run_worker, run_workers
from perfbench.stats import mean, median

STREAMS: dict[str, dict[str, float]] = {
    # arrivals outpace service: the ready set grows through the run
    "stream-saturated": {"n_kernels": 1200, "mean_interarrival_ms": 300.0},
    # near capacity: the ready set stays near a steady size
    "stream-stable": {"n_kernels": 4000, "mean_interarrival_ms": 3000.0},
}

#: Stream seeds with a recorded digest.
RECORDED_SEEDS = 256
#: Distinct streams a working process takes in turn: the time of one
#: stream differs from another's by up to a quarter, so a run pools many.
SEEDS_PER_WORKER = 8

DIGESTS = ROOT / "perfbench" / "expected" / "stream_digests.json"

#: Working processes per run, one per CPU at a time: each gives one
#: cold call and one set-up sample.
WORKERS = 12
WORKER_TIMEOUT_S = 120.0


def recorded_digests() -> dict[str, dict[str, str]]:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def stream_seeds(seed: int, worker: int) -> list[int]:
    first = (WORKERS * seed + worker) * SEEDS_PER_WORKER
    return [(first + k) % RECORDED_SEEDS for k in range(SEEDS_PER_WORKER)]


def _config(workload: str, seed: int, worker: int, **extra: Any) -> dict[str, Any]:
    return {
        **STREAMS[workload],
        "input_seeds": stream_seeds(seed, worker),
        "min_calls": 2,
        "max_calls": 50,
        "budget_s": 0.0,
        "trace_out": None,
        "calibrate": True,
        **extra,
    }


def _check_calls(out: Outcome, calls: list[dict[str, Any]], expected: dict[str, str], label: str) -> None:
    for call in calls:
        want = expected.get(str(call["seed"]))
        out.check(
            want is not None and call["digest"] == want,
            f"{label} stream {call['seed']}: digest {call['digest']} {call['fields']} "
            f"!= recorded {want}",
        )


def run(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    WORK.mkdir(exist_ok=True)
    expected = recorded_digests()[workload]
    if trace:
        return _run_traced(out, workload, seed, expected)

    begin = time.perf_counter()
    setups: list[float] = []
    first: list[float] = []
    later: list[float] = []
    wall: dict[str, list[float]] = {"setup_s": [], "cold_s": [], "warm_s": []}
    rss: list[float] = []
    kernels = 0
    for group in range(0, WORKERS, len(LANES)):
        workers = range(group, min(WORKERS, group + len(LANES)))
        left = seconds - (time.perf_counter() - begin)
        budget = max(0.0, left * len(workers) / (WORKERS - group))
        jobs = [(_config(workload, seed, i, budget_s=budget), f"{workload}-{i}") for i in workers]
        for report, child in run_workers("stream", jobs, WORKER_TIMEOUT_S):
            calls = report["calls"]
            _check_calls(out, calls, expected, workload)
            times = calibrated_units([c["seconds"] for c in calls], report["refs"])
            setups.append(calibrated(report["setup_s"], report["refs"][0]))
            first.append(times[0])
            later.extend(times[1:])
            wall["setup_s"].append(report["setup_s"])
            wall["cold_s"].append(calls[0]["seconds"])
            wall["warm_s"].extend(c["seconds"] for c in calls[1:])
            kernels += sum(c["kernels"] for c in calls)
            rss.append(child.peak_rss_mb)

    out.metrics = {
        "setup_s": median(setups),
        "cold_s": mean(first),
        "warm_s": mean(later),
        "kernels_per_s": kernels / (sum(first) + sum(later)),
        "peak_rss_mb": max(rss),
    }
    out.details = {
        "wall": {
            "setup_s": median(wall["setup_s"]),
            "cold_s": mean(wall["cold_s"]),
            "warm_s": mean(wall["warm_s"]),
        },
        "stream_seeds": [stream_seeds(seed, i)[0] for i in range(WORKERS)],
        "calls": len(first) + len(later),
        "kernels_per_call": kernels // (len(first) + len(later)),
    }
    return out


def _run_traced(out: Outcome, workload: str, seed: int, expected: dict[str, str]) -> Outcome:
    from perfbench.tracing import pass_layers

    one = {"input_seeds": stream_seeds(seed, 0)[:1], "min_calls": 1, "calibrate": False}
    plain, _ = run_worker(
        "stream", _config(workload, seed, 0, **one), f"{workload}-plain", WORKER_TIMEOUT_S
    )
    dump = str(WORK / f"{workload}-trace.json")
    traced, _ = run_worker(
        "stream", _config(workload, seed, 0, trace_out=dump, **one),
        f"{workload}-traced", WORKER_TIMEOUT_S,
    )
    _check_calls(out, plain["calls"] + traced["calls"], expected, workload)
    out.metrics = pass_layers([dump])
    out.metrics["trace.overhead"] = traced["calls"][0]["seconds"] / plain["calls"][0]["seconds"]
    return out
