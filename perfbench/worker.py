"""Working processes of the ``paper`` and stream workloads.

``python -m perfbench.worker <kind> '<json config>' <report path>``

Each process imports what its work needs, notes when it is ready (the
end of set-up), optionally installs the span wrappers, does the work
and writes a JSON report.  Untraced processes take a reference sample
(``perfbench/calibrate.py``) right after set-up and after each unit of
work, so each unit is bracketed by two.  Times are ``time.perf_counter`` readings,
which on Linux share the parent's monotonic clock.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import time
from pathlib import Path
from typing import Any

#: Every paper artifact, as ``apt-sched`` arguments; all but ``figure5``
#: also get ``--seed`` and ``--cache-dir``.
ARTIFACTS: tuple[tuple[str, ...], ...] = (
    *(("table", n) for n in ("8", "9", "10", "11", "12", "13", "15", "16")),
    ("figure5",),
    *(("figure", n) for n in ("6", "7", "8", "9", "10", "11", "12")),
)


def artifact_key(args: tuple[str, ...]) -> str:
    return "".join(args)


def _paper(config: dict[str, Any], ready: float) -> dict[str, Any]:
    from repro.cli import main

    trace = _maybe_trace(config)
    outputs: dict[str, str] = {}
    latencies: list[float] = []
    codes: dict[str, int] = {}
    refs = _references(config)
    start = time.perf_counter()
    for args in ARTIFACTS:
        argv = list(args)
        if args[0] != "figure5":
            argv += ["--seed", str(config["cli_seed"]), "--cache-dir", config["cache_dir"]]
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            codes[artifact_key(args)] = main(argv)
        latencies.append(time.perf_counter() - t0)
        outputs[artifact_key(args)] = buf.getvalue()
        _reference(config, refs)
    end = time.perf_counter()
    _finish_trace(trace, config, start, end)
    return {
        "ready": ready,
        "start": start,
        "end": end,
        "latencies": latencies,
        "refs": refs,
        "outputs": outputs,
        "codes": codes,
    }


def stream_digest(result: Any) -> tuple[str, list[object]]:
    """Digest of a :class:`StreamResult`'s simulated statistics."""
    fields: list[object] = [
        result.stream.n_kernels,
        result.metrics.makespan,
        result.service.mean_response_ms,
        result.stream.peak_resident_kernels,
        result.metrics.n_alternative_assignments,
    ]
    text = json.dumps(fields)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16], fields


def _stream(config: dict[str, Any], _imported: float) -> dict[str, Any]:
    """Run the streams of ``config["input_seeds"]`` in turn, one per call."""
    from repro.core.simulator import Simulator
    from repro.data.paper_tables import paper_lookup_table
    from repro.experiments.workloads import scale_system, streaming_scale_source
    from repro.policies.registry import get_policy

    system = scale_system()
    lookup = paper_lookup_table()
    seeds = config["input_seeds"]
    sources = [
        streaming_scale_source(
            config["n_kernels"], seed=seed, mean_interarrival_ms=config["mean_interarrival_ms"]
        )
        for seed in seeds
    ]
    ready = time.perf_counter()
    trace = _maybe_trace(config)
    calls: list[dict[str, Any]] = []
    refs = _references(config)
    start = time.perf_counter()
    while len(calls) < config["min_calls"] or (
        time.perf_counter() - start < config["budget_s"]
        and len(calls) < config["max_calls"]
    ):
        turn = len(calls) % len(sources)
        sim = Simulator(system, lookup)
        policy = get_policy("apt")
        t0 = time.perf_counter()
        result = sim.run_stream(sources[turn], policy, retain_schedule=False)
        seconds = time.perf_counter() - t0
        digest, fields = stream_digest(result)
        calls.append(
            {"seconds": seconds, "kernels": result.stream.n_kernels, "seed": seeds[turn],
             "digest": digest, "fields": fields}
        )
        _reference(config, refs)
    end = time.perf_counter()
    _finish_trace(trace, config, start, end)
    return {"ready": ready, "start": start, "end": end, "calls": calls, "refs": refs}


def _probe(config: dict[str, Any], ready: float) -> dict[str, Any]:
    return {"ready": ready, "refs": _references(config)}


def _references(config: dict[str, Any]) -> list[float]:
    """The first reference sample, right after set-up (none when the run
    is traced: the loop would count as time outside every span)."""
    refs: list[float] = []
    _reference(config, refs)
    return refs


def _reference(config: dict[str, Any], refs: list[float]) -> None:
    if config.get("calibrate"):
        from perfbench.calibrate import reference

        refs.append(reference())


def _maybe_trace(config: dict[str, Any]) -> Any:
    if not config.get("trace_out"):
        return None
    from perfbench.layers import install
    from perfbench.recorder import Recorder

    rec = Recorder()
    install(rec)
    return rec


def _finish_trace(rec: Any, config: dict[str, Any], start: float, end: float) -> None:
    if rec is not None:
        rec.dump(config["trace_out"], start=start, end=end)


def main(argv: list[str]) -> int:
    kind, raw, out = argv
    config = json.loads(raw)
    if kind == "paper":
        import repro.cli  # noqa: F401  (set-up: the CLI's imports)
    elif kind == "probe":
        __import__(config["module"])
    ready = time.perf_counter()
    work = {"paper": _paper, "stream": _stream, "probe": _probe}[kind]
    report = work(config, ready)
    Path(out).write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
