"""The ``paper`` workload: regenerate every paper artifact through the CLI.

One process regenerates Tables 8–13, 15, 16, ``figure5`` and Figures
6–12 into an empty ``--cache-dir`` (the cold pass); fresh processes then
regenerate them over the filled cache (warm passes).  Passes run one per
CPU at a time, each CPU over a cache of its own.  The benchmark seed
``s`` becomes the CLI's ``--seed 2017+s``, so seed 0 is the published
default and its output is compared with the committed ``results/``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any

from perfbench.calibrate import calibrated, calibrated_units
from perfbench.common import LANES, ROOT, WORK, Outcome, fresh_dir, run_worker, run_workers
from perfbench.stats import mean, median
from perfbench.worker import ARTIFACTS, artifact_key

#: ``repro.experiments.workloads.DEFAULT_SEED``: the seed of ``results/``.
DEFAULT_SEED = 2017

#: Set-up samples per run (each working process gives one; probe
#: processes that only import the CLI make up the rest).
SETUP_SAMPLES = 5

#: Figure 5's published end times (ms), printed by ``apt-sched figure5``.
FIGURE5_END_TIMES = ("318.093", "212.093")

PASS_TIMEOUT_S = 150.0


def _committed(key: str) -> str:
    return "".join(
        path.read_text(encoding="utf-8")
        for path in sorted((ROOT / "results").glob(f"{key}*.txt"))
    )


def _cache_stats(cache: Path) -> tuple[int, int]:
    """``(puts, kernels)``: the cache index's write count and the
    kernels of every stored result (each stored once per simulation)."""
    index = json.loads((cache / "index.meta").read_text(encoding="utf-8"))
    kernels = 0
    for entry in cache.glob("*.json"):
        kernels += int(json.loads(entry.read_text(encoding="utf-8"))["n_kernels"])
    return int(index["puts"]), kernels


def _config(cache: Path, cli_seed: int, trace_out: str | None = None) -> dict[str, Any]:
    return {
        "cli_seed": cli_seed, "cache_dir": str(cache), "trace_out": trace_out,
        "calibrate": trace_out is None,
    }


def _pass(cache: Path, cli_seed: int, name: str, trace_out: str | None = None) -> tuple[dict[str, Any], Any]:
    return run_worker("paper", _config(cache, cli_seed, trace_out), name, PASS_TIMEOUT_S)


def _passes(caches: list[Path], cli_seed: int, name: str) -> list[tuple[dict[str, Any], Any]]:
    """One pass per cache, all at once, cache ``i`` in lane ``i``."""
    jobs = [(_config(cache, cli_seed), f"{name}{lane}") for lane, cache in enumerate(caches)]
    return run_workers("paper", jobs, PASS_TIMEOUT_S)


def _check_pass(out: Outcome, report: dict[str, Any], reference: dict[str, str] | None, cli_seed: int, label: str) -> None:
    for args in ARTIFACTS:
        key = artifact_key(args)
        text = report["outputs"][key]
        ok = report["codes"][key] == 0
        if reference is not None:
            ok = ok and text == reference[key]
        elif key == "figure5":
            # the committed file titles the two schedules differently;
            # every schedule row and end time must match
            committed = _committed(key).splitlines()
            ok = ok and all(
                line in committed
                for line in text.splitlines()
                if line and "paper end time" not in line
            )
        elif cli_seed == DEFAULT_SEED:
            ok = ok and bool(text) and text in _committed(key)
        if key == "figure5":
            ok = ok and all(t in text for t in FIGURE5_END_TIMES)
        out.check(ok, f"{label} pass: {key} output differs from its reference")


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    cli_seed = DEFAULT_SEED + seed
    WORK.mkdir(exist_ok=True)
    begin = time.perf_counter()
    if trace:
        return _run_traced(out, cli_seed)

    caches = [fresh_dir(f"paper-cache{lane}") for lane in range(len(LANES))]
    cold_runs = _passes(caches, cli_seed, "paper-cold")
    colds = [report for report, _ in cold_runs]
    rss = [child.peak_rss_mb for _, child in cold_runs]
    _check_pass(out, colds[0], None, cli_seed, "cold")
    for cold in colds[1:]:
        _check_pass(out, cold, colds[0]["outputs"], cli_seed, "cold")
    stats = [_cache_stats(cache) for cache in caches]
    warms: list[dict[str, Any]] = []
    while not warms or time.perf_counter() - begin < seconds:
        for lane, (warm, warm_child) in enumerate(_passes(caches, cli_seed, f"paper-warm{len(warms)}-")):
            _check_pass(out, warm, colds[lane]["outputs"], cli_seed, "warm")
            out.check(
                _cache_stats(caches[lane])[0] == stats[lane][0],
                "warm pass simulated (cache puts grew)",
            )
            warms.append(warm)
            rss.append(warm_child.peak_rss_mb)
    setups = colds + warms
    while len(setups) < SETUP_SAMPLES:
        probe, _ = run_worker(
            "probe", {"module": "repro.cli", "calibrate": True}, "paper-probe", 60.0
        )
        setups.append(probe)

    cold_times = [_pass_seconds(c) for c in colds]
    warm_times = [_pass_seconds(w) for w in warms]
    kernels = sum(k for _, k in stats)
    latencies = [t for r in colds + warms for t in r["latencies"]]
    out.metrics = {
        "setup_s": median([calibrated(r["setup_s"], r["refs"][0]) for r in setups]),
        "cold_s": mean(cold_times),
        "warm_s": mean(warm_times),
        "kernels_per_s": kernels / sum(cold_times),
        "peak_rss_mb": max(rss),
    }
    out.details = {
        "wall": {
            "setup_s": median([r["setup_s"] for r in setups]),
            "cold_s": mean([sum(c["latencies"]) for c in colds]),
            "warm_s": mean([sum(w["latencies"]) for w in warms]),
        },
        "cli_seed": cli_seed,
        "artifact_p50_ms": 1e3 * median(latencies),
        "passes": {"cold": len(colds), "warm": len(warms)},
        "simulated_jobs": sum(puts for puts, _ in stats),
        "kernels_simulated": kernels,
        "results_compared": cli_seed == DEFAULT_SEED,
    }
    return out


def _pass_seconds(report: dict[str, Any]) -> float:
    """A pass's calibrated seconds: its artifacts', each at nominal speed."""
    return sum(calibrated_units(report["latencies"], report["refs"]))


def _run_traced(out: Outcome, cli_seed: int) -> Outcome:
    from perfbench.tracing import pass_layers

    cache = fresh_dir("paper-cache")
    plain, _ = _pass(cache, cli_seed, "paper-cold")
    cache = fresh_dir("paper-cache")
    dumps = [str(WORK / "paper-cold-trace.json"), str(WORK / "paper-warm-trace.json")]
    cold, _ = _pass(cache, cli_seed, "paper-cold-traced", dumps[0])
    _check_pass(out, cold, plain["outputs"], cli_seed, "traced cold")
    warm, _ = _pass(cache, cli_seed, "paper-warm-traced", dumps[1])
    _check_pass(out, warm, plain["outputs"], cli_seed, "traced warm")
    out.metrics = pass_layers(dumps)
    out.check(pass_layers(dumps[1:])["sweep.simulated"] == 0, "traced warm pass simulated")
    out.metrics["trace.overhead"] = (cold["end"] - cold["start"]) / (
        plain["end"] - plain["start"]
    )
    return out
