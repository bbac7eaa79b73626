"""Wrap the public functions of the program's layers with spans.

:func:`install` is the only place the benchmark touches the program's
internals, and only in traced runs.  Span names are
``<layer>.<operation>``; the layer is the part before the first dot and
names the module the wrapped functions live in (``METRICS.md`` has the
table).  Counters are taken at the same call boundaries.

Functions are replaced on their defining module and on every ``repro``
module (and module-level dict, like the CLI's table registry) that
imported them by name, so callers that bound the name at import see the
wrapper too.  Import every module before calling :func:`install`.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from pathlib import Path
from typing import Any, Callable

from perfbench.recorder import Observer, Recorder

#: Modules whose import pulls in every layer the benchmark wraps.
MODULES = (
    "repro.cli",
    "repro.graphs.dfg",
    "repro.graphs.generators",
    "repro.graphs.serialization",
    "repro.core.cost",
    "repro.core.events",
    "repro.core.array_state",
    "repro.core.simulator",
    "repro.core.dynamics",
    "repro.core.metrics",
    "repro.core.energy",
    "repro.policies.registry",
    "repro.experiments.sweep",
    "repro.experiments.tables",
    "repro.experiments.figures",
    "repro.experiments.report",
    "repro.experiments.scenarios",
    "repro.service.jobs",
    "repro.service.store",
)

#: The engine's dynamics hook methods, plus the layer-specific entry
#: points the engine calls directly.
_DYNAMICS_METHODS = (
    "on_run_start",
    "on_run_open",
    "on_event",
    "on_admit",
    "on_kernel_ready",
    "on_kernel_start",
    "on_kernel_finish",
    "on_kernel_abort",
    "on_entry",
    "observe",
    "finalize",
    "begin",
    "abandon",
)


def _replace_everywhere(original: object, replacement: object) -> None:
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")) or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = replacement


def _wrap_function(
    rec: Recorder, module: Any, attr: str, span: str, observe: "Observer | None" = None
) -> None:
    original = getattr(module, attr)
    _replace_everywhere(original, rec.wrap(span, original, observe))


def _wrap_method(
    rec: Recorder, cls: type, attr: str, span: str, observe: "Observer | None" = None
) -> None:
    """Wrap a method defined on ``cls`` itself (inherited ones stay put,
    so the engine's "does this layer override the hook" test holds)."""
    original = cls.__dict__[attr]
    setattr(cls, attr, rec.wrap(span, original, observe))


def _subclasses(base: type) -> list[type]:
    out: list[type] = []
    todo = [base]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in out:
                out.append(sub)
                todo.append(sub)
    return out


def _own_functions(module: Any) -> list[str]:
    return [
        name
        for name, value in vars(module).items()
        if inspect.isfunction(value)
        and value.__module__ == module.__name__
        and not name.startswith("_")
    ]


def install(rec: Recorder) -> None:
    """Wrap every layer the benchmark attributes time to."""
    for name in MODULES:
        importlib.import_module(name)
    _install_graphs(rec)
    _install_cost(rec)
    _install_engine(rec)
    _install_policies(rec)
    _install_dynamics(rec)
    _install_metrics(rec)
    _install_sweep(rec)
    _install_experiments(rec)
    _install_service(rec)


def _install_graphs(rec: Recorder) -> None:
    from repro.graphs import dfg, generators, serialization

    _wrap_method(rec, dfg.DFG, "add_dependency", "graphs.add_dependency")
    _wrap_method(rec, dfg.DFG, "add_dependencies", "graphs.add_dependency")
    _wrap_function(rec, serialization, "dfg_from_dict", "graphs.dfg_from_dict")
    for attr in _own_functions(generators):
        if attr.startswith("make_"):
            _wrap_function(rec, generators, attr, "graphs.generate")


def _install_cost(rec: Recorder) -> None:
    from repro.core.cost import CostModel

    _wrap_method(rec, CostModel, "__init__", "cost.build")
    _patch_counter(rec, CostModel, "exec_time", lambda *_: rec.count("cost.exec_time.calls"))


def _install_engine(rec: Recorder) -> None:
    from repro.core.array_state import ArrayEventHeap
    from repro.core.events import EventQueue
    from repro.core.simulator import Simulator

    def epoch(batch: Any, _args: tuple, _kwargs: dict) -> None:
        rec.count("engine.epochs")
        rec.count("engine.events", len(batch))

    def stream_done(result: Any, _args: tuple, _kwargs: dict) -> None:
        rec.record_max(
            "engine.peak_resident_kernels", result.stream.peak_resident_kernels
        )

    _wrap_method(rec, Simulator, "run", "engine.run")
    _wrap_method(rec, Simulator, "run_stream", "engine.run", stream_done)
    _patch_counter(rec, EventQueue, "pop_simultaneous", epoch)
    _patch_counter(rec, ArrayEventHeap, "pop_simultaneous_records", epoch)


def _patch_counter(
    rec: Recorder, cls: type, attr: str, observe: Callable[[Any, tuple, dict], None]
) -> None:
    """Count at a call boundary without opening a span (the event queue
    is popped once per epoch; a span there would only add overhead)."""
    original = cls.__dict__[attr]

    def counted(*args: Any, **kwargs: Any) -> Any:
        result = original(*args, **kwargs)
        observe(result, args, kwargs)
        return result

    counted.__wrapped__ = original  # type: ignore[attr-defined]
    setattr(cls, attr, counted)


def _install_policies(rec: Recorder) -> None:
    from repro.policies.base import DynamicPolicy, StaticPolicy

    def selected(result: Any, args: tuple, _kwargs: dict) -> None:
        rec.count("policies.select.ready_scanned", len(getattr(args[1], "ready", ())))
        if result:
            rec.count("policies.select.useful")
            rec.count(
                "policies.alt_assignments",
                sum(1 for a in result if getattr(a, "alternative", False)),
            )

    for cls in _subclasses(DynamicPolicy):
        for attr in ("select", "select_batch"):
            if attr in cls.__dict__:
                _wrap_method(rec, cls, attr, "policies.select", selected)
    for cls in _subclasses(StaticPolicy):
        if "plan" in cls.__dict__:
            _wrap_method(rec, cls, "plan", "policies.plan")


def _install_dynamics(rec: Recorder) -> None:
    from repro.core import dynamics

    layers = {
        dynamics.BatchAdmission: "dynamics.admission",
        dynamics.StreamAdmission: "dynamics.admission",
        dynamics.RetirementDynamics: "dynamics.retirement",
        dynamics.MetricsDynamics: "dynamics.metrics",
        dynamics.ContentionDynamics: "dynamics.contention",
        dynamics.FaultDynamics: "dynamics.fault",
        dynamics.PreemptionDynamics: "dynamics.preemption",
    }
    for cls, span in layers.items():
        for attr in _DYNAMICS_METHODS:
            if inspect.isfunction(cls.__dict__.get(attr)):
                _wrap_method(rec, cls, attr, span)


def _install_metrics(rec: Recorder) -> None:
    from repro.core import energy, metrics

    for attr in ("compute_metrics", "compute_service_metrics"):
        _wrap_function(rec, metrics, attr, "metrics.compute")
    for attr in ("energy_of", "energy_from_metrics"):
        _wrap_function(rec, energy, attr, "metrics.compute")


def _install_sweep(rec: Recorder) -> None:
    from repro.experiments import sweep

    def cache_get(result: Any, _args: tuple, _kwargs: dict) -> None:
        rec.count("sweep.cache.gets")
        if result is not None:
            rec.count("sweep.cache.hits")

    def cache_put(_result: Any, args: tuple, _kwargs: dict) -> None:
        cache, key = args[0], args[1]
        rec.count("sweep.cache.put.bytes", Path(cache.path_for(key)).stat().st_size)

    def simulated(_result: Any, _args: tuple, _kwargs: dict) -> None:
        rec.count("sweep.simulated")

    _wrap_function(rec, sweep, "make_job", "sweep.job")
    _wrap_method(rec, sweep.SweepJob, "content_hash", "sweep.hash")
    _wrap_function(rec, sweep, "job_hash", "sweep.hash")
    _wrap_function(rec, sweep, "execute_payload", "sweep.execute", simulated)
    _wrap_method(rec, sweep.ResultCache, "get", "sweep.cache.get", cache_get)
    _wrap_method(rec, sweep.ResultCache, "put", "sweep.cache.put", cache_put)


def _install_experiments(rec: Recorder) -> None:
    from repro.experiments import figures, report, tables

    for module in (tables, figures, report):
        for attr in _own_functions(module):
            _wrap_function(rec, module, attr, "experiments.render")


def _install_service(rec: Recorder) -> None:
    from repro.experiments.scenarios import ScenarioSpec
    from repro.service import jobs
    from repro.service.store import SharedResultStore

    _wrap_method(rec, ScenarioSpec, "jobs", "service.expand")
    _wrap_method(rec, SharedResultStore, "get", "service.store.get")
    _wrap_method(rec, jobs.InlineExecutor, "execute", "service.execute")
    # a span per slot request: its duration is the time the payload waited
    _wrap_method(rec, jobs.FairGate, "acquire", "service.gate")
    jobs.JobManager.submit = rec.tag_requests(  # type: ignore[method-assign]
        jobs.JobManager.submit, lambda record: record.id
    )
