"""Per-layer metrics from the span dumps of a traced run."""

from __future__ import annotations

import json
from typing import Any, Iterable, Mapping

from perfbench.recorder import covered_share, merge_summaries, summarize

#: Layers, by the span-name prefix their spans share.
LAYERS = (
    "graphs", "cost", "engine", "policies", "dynamics",
    "metrics", "sweep", "experiments", "service",
)

#: Spans that time a wait, not host work: their self time is no layer's.
WAIT_SPANS = ("service.gate",)


def load(paths: Iterable[str]) -> list[dict[str, Any]]:
    out = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            out.append(json.load(fh))
    return out


def layer_metrics(dumps: list[Mapping[str, Any]]) -> dict[str, float]:
    """Span calls/self time, counters and layer shares of some dumps.

    Each dump is one working process's :meth:`Recorder.dump` with the
    ``start``/``end`` of its work; the traced wall time is their sum.
    """
    summary = merge_summaries(summarize(d["spans"]) for d in dumps)
    counters: dict[str, float] = {}
    for d in dumps:
        for key, value in d["counters"].items():
            if key.endswith("peak_resident_kernels"):
                counters[key] = max(counters.get(key, 0), value)
            else:
                counters[key] = counters.get(key, 0) + value
    wall = sum(d["end"] - d["start"] for d in dumps)
    covered = sum(
        covered_share(d["spans"], d["start"], d["end"]) * (d["end"] - d["start"])
        for d in dumps
    )

    metrics: dict[str, float] = {}
    for name, entry in summary.items():
        if name in WAIT_SPANS:
            continue
        metrics[f"{name}.calls"] = entry["calls"]
        metrics[f"{name}.self_s"] = entry["self_s"]
    for layer in LAYERS:
        busy = sum(
            e["self_s"] for n, e in summary.items()
            if n.split(".", 1)[0] == layer and n not in WAIT_SPANS
        )
        metrics[f"layer.{layer}.share"] = busy / wall if wall else 0.0
    metrics["trace.unattributed_ratio"] = 1.0 - covered / wall if wall else 0.0

    select_calls = summary.get("policies.select", {}).get("calls", 0)
    metrics["policies.ready_scanned"] = counters.get("policies.select.ready_scanned", 0)
    metrics["policies.select.useful_ratio"] = (
        counters.get("policies.select.useful", 0) / select_calls if select_calls else 0.0
    )
    gets = counters.get("sweep.cache.gets", 0)
    metrics["sweep.cache.hit_ratio"] = counters.get("sweep.cache.hits", 0) / gets if gets else 0.0
    for key in (
        "policies.alt_assignments",
        "cost.exec_time.calls",
        "engine.events",
        "engine.epochs",
        "engine.peak_resident_kernels",
        "sweep.cache.put.bytes",
        "sweep.simulated",
    ):
        metrics[key] = counters.get(key, 0)
    gate_waits = [
        row[3] - row[2] for d in dumps for row in d["spans"] if row[1] == "service.gate"
    ]
    metrics["service.gate.calls"] = len(gate_waits)
    metrics["service.gate.wait_s"] = sum(gate_waits)
    return metrics


def pass_layers(paths: Iterable[str]) -> dict[str, float]:
    return layer_metrics(load(paths))
