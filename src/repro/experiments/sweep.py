"""Parallel experiment-sweep engine with on-disk result caching.

Every table, figure, ablation and extension study in this repository
boils down to the same unit of work: *simulate one DFG on one system
under one policy configuration and record the metrics*.  This module
turns that unit into a first-class, serializable **job** and provides

* :class:`SweepJob` — a self-contained job description (DFG, system,
  lookup table, policy configuration, simulation settings, optional
  arrival times and power model) that can be shipped to a worker
  process and hashed for caching;
* :class:`JobResult` — the flattened numeric outcome of one job
  (makespan, λ statistics, alternative-assignment counts, energy);
* :class:`ResultCache` — an on-disk JSON store keyed by the job's
  content hash, so re-running a table or figure only simulates what
  changed;
* :class:`SerialExecutor` / :class:`ProcessPoolExecutor` — pluggable
  execution backends; the pool backend fans jobs out over a
  ``multiprocessing`` worker pool;
* :class:`SweepEngine` — orchestration: dedupe → cache lookup →
  execute missing jobs → write back, preserving request order;
* :class:`SweepSpec` — a declarative policy × workload × system ×
  seed grid that expands into jobs.

Determinism contract
--------------------
The simulator guarantees bit-for-bit reproducible runs for a fixed
(DFG, system, lookup, policy config, seed) tuple.  Jobs are executed
from a *serialized* payload — the exact bytes the content hash covers —
so a job produces the same :class:`JobResult` whether it runs in the
parent process, a pool worker, or a different machine.  That is what
makes the cache sound and lets parallel sweeps be asserted bit-identical
to serial ones (see ``tests/test_sweep.py``).
"""

from __future__ import annotations

import hashlib
import importlib
import json
import multiprocessing
import os
import tempfile
import weakref
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

try:  # pragma: no cover - fcntl is stdlib on every POSIX platform
    import fcntl
except ImportError:  # pragma: no cover - Windows fallback: locking no-ops
    fcntl = None  # type: ignore[assignment]

from repro.core.dynamics import DynamicsSpec
from repro.core.energy import DEFAULT_POWER_MODEL, PowerModel, energy_of

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.metrics import AppSpan
from repro.core.lookup import LookupTable
from repro.core.simulator import Simulator
from repro.core.system import Processor, ProcessorType, SystemConfig
from repro.core.topology import Topology
from repro.graphs.dfg import DFG
from repro.graphs.serialization import dfg_from_dict, dfg_to_dict
from repro.policies.base import Policy
from repro.policies.registry import get_policy

#: Bumped whenever the job payload or result layout changes; part of the
#: content hash, so stale cache entries are never misread.
#: v2: the cost-model knobs (element_size / transfer_mode /
#: transfers_enabled) moved into a dedicated ``cost_model`` payload
#: section, mirroring :class:`repro.core.cost.CostModel.signature` — the
#: cache key now names the cost model explicitly.
#: v3: the system section gained a ``topology`` entry (the interconnect
#: graph, including its contention switch), so topology-shaped systems
#: hash differently from flat ones even when their uncontended costs
#: coincide.
#: v4: open-system support — the payload gained ``app_spans`` (per-
#: application kernel-id blocks for service-level metrics) and
#: ``source`` (the declarative arrival-source description), so the cache
#: key is arrival-source-aware; results gained the service-level fields
#: (response time, slowdown, throughput).
#: v5: runtime dynamics — the payload gained ``dynamics`` (the ordered
#: stack of :class:`~repro.core.dynamics.DynamicsSpec` layers: fault
#: injection, preemption), so two runs differing only in their dynamics
#: never share a cache entry; results gained the fault/preemption block
#: (``dynamics``, ``mean_availability``, ``n_faults``,
#: ``n_preemptions``).
#: v6: engine backends — the settings section gained ``backend`` (the
#: *resolved* engine backend, ``"object"`` or ``"array"``), so runs on
#: different hot-path implementations never share a cache entry even
#: though they are contractually bit-identical: a backend bug must not
#: poison the other backend's cache.
#: v7: one engine — the settings section dropped ``backend`` again,
#: together with the array backend it could name.
SWEEP_FORMAT_VERSION = 7


# ----------------------------------------------------------------------
# serializable job ingredients
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SimSettings:
    """Simulator knobs that affect results (all part of the job hash).

    The first three fields are the :class:`repro.core.cost.CostModel`
    knobs; they enter the payload as its own ``cost_model`` section (see
    :meth:`cost_model_dict`) so the cache key names the cost model that
    priced the run.
    """

    element_size: int = 4
    transfer_mode: str = "single"
    transfers_enabled: bool = True
    exec_noise_sigma: float = 0.0
    noise_seed: int = 0

    def cost_model_dict(self) -> dict[str, object]:
        """The cost-model signature (matches ``CostModel.signature()``)."""
        return {
            "element_size": self.element_size,
            "transfer_mode": self.transfer_mode,
            "transfers_enabled": self.transfers_enabled,
        }

    def noise_dict(self) -> dict[str, object]:
        """The execution-noise knobs (everything outside the cost model)."""
        return {
            "exec_noise_sigma": self.exec_noise_sigma,
            "noise_seed": self.noise_seed,
        }

    def to_dict(self) -> dict[str, object]:
        return {**self.cost_model_dict(), **self.noise_dict()}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SimSettings":
        return cls(
            element_size=int(data["element_size"]),  # type: ignore[arg-type]
            transfer_mode=str(data["transfer_mode"]),
            transfers_enabled=bool(data["transfers_enabled"]),
            exec_noise_sigma=float(data["exec_noise_sigma"]),  # type: ignore[arg-type]
            noise_seed=int(data["noise_seed"]),  # type: ignore[arg-type]
        )


@dataclass(frozen=True)
class PolicySpec:
    """A policy configuration by registry name plus constructor kwargs.

    ``params`` is a sorted tuple of (key, value) pairs so specs are
    hashable, order-insensitive and JSON-stable.  ``provider`` optionally
    names a module to import before construction — the hook for policies
    registered outside :mod:`repro.policies.registry` (e.g. the ablation
    variants), so worker processes can reconstruct them.
    """

    name: str
    params: tuple[tuple[str, object], ...] = ()
    provider: str | None = None

    @classmethod
    def of(cls, name: str, *, provider: str | None = None, **params: object) -> "PolicySpec":
        return cls(name=name, params=tuple(sorted(params.items())), provider=provider)

    @property
    def alpha(self) -> float | None:
        """The APT threshold multiplier, if this spec carries one."""
        value = dict(self.params).get("alpha")
        return float(value) if value is not None else None  # type: ignore[arg-type]

    def build(self) -> Policy:
        if self.provider:
            importlib.import_module(self.provider)
        return get_policy(self.name, **dict(self.params))

    def to_dict(self) -> dict[str, object]:
        # provider is deliberately excluded from the serialized form used
        # for hashing: it is plumbing, not semantics — the (name, params)
        # pair identifies the policy configuration.
        return {"name": self.name, "params": dict(self.params)}

    @classmethod
    def from_dict(
        cls, data: Mapping[str, object], provider: str | None = None
    ) -> "PolicySpec":
        params = data.get("params") or {}
        return cls.of(str(data["name"]), provider=provider, **dict(params))  # type: ignore[arg-type]


def system_to_dict(system: SystemConfig) -> dict[str, object]:
    """JSON-safe description of a :class:`SystemConfig`.

    The ``topology`` entry (``None`` for flat systems) is part of the
    job content hash: two systems with identical uncontended costs but
    different interconnect graphs — or the same graph with contention
    toggled — must never share a cache entry.
    """
    return {
        "processors": [[p.name, p.ptype.value] for p in system],
        "rate_gbps": system.default_rate_gbps,
        "link_overrides": sorted(
            [a, b, rate] for (a, b), rate in system.link_overrides.items()
        ),
        "topology": system.topology.to_dict() if system.topology is not None else None,
    }


def system_from_dict(data: Mapping[str, object]) -> SystemConfig:
    """Inverse of :func:`system_to_dict`."""
    procs = [
        Processor(str(name), ProcessorType(str(ptype)))
        for name, ptype in data["processors"]  # type: ignore[union-attr]
    ]
    overrides = {
        (str(a), str(b)): float(rate)
        for a, b, rate in data.get("link_overrides", [])  # type: ignore[union-attr]
    }
    topo_data = data.get("topology")
    return SystemConfig(
        procs,
        transfer_rate_gbps=float(data["rate_gbps"]),  # type: ignore[arg-type]
        link_overrides=overrides or None,
        topology=Topology.from_dict(topo_data) if topo_data else None,  # type: ignore[arg-type]
    )


def power_model_to_dict(model: PowerModel) -> dict[str, object]:
    return {
        "busy": {p.value: w for p, w in sorted(model.busy_watts.items())},
        "idle": {p.value: w for p, w in sorted(model.idle_watts.items())},
        "transfer": (
            {p.value: w for p, w in sorted(model.transfer_watts.items())}
            if model.transfer_watts is not None
            else None
        ),
    }


def power_model_from_dict(data: Mapping[str, object]) -> PowerModel:
    def parse(table: Mapping[str, float]) -> dict[ProcessorType, float]:
        return {ProcessorType(p): float(w) for p, w in table.items()}

    transfer = data.get("transfer")
    return PowerModel(
        busy_watts=parse(data["busy"]),  # type: ignore[arg-type]
        idle_watts=parse(data["idle"]),  # type: ignore[arg-type]
        transfer_watts=parse(transfer) if transfer else None,  # type: ignore[arg-type]
    )


# ----------------------------------------------------------------------
# jobs and results
# ----------------------------------------------------------------------
@dataclass
class SweepJob:
    """One self-contained simulation job.

    All fields except ``tag`` are JSON-safe and enter the content hash;
    ``tag`` carries presentation metadata (graph index, sweep axes) that
    callers want back alongside the result but that must not perturb
    caching.
    """

    dfg: dict[str, object]
    system: dict[str, object]
    lookup: list[dict[str, object]]
    policy: PolicySpec
    settings: SimSettings = SimSettings()
    arrivals: dict[int, float] | None = None
    power_model: dict[str, object] | None = None
    tag: dict[str, object] = field(default_factory=dict)
    lookup_interpolate: bool = True
    #: per-application kernel-id blocks ``[arrival_ms, kid_lo, kid_hi]``;
    #: presence turns on service-level metrics in the result.
    app_spans: list[list[float]] | None = None
    #: declarative arrival-source description (open-system workloads);
    #: part of the content hash, so two streams with coincidentally
    #: identical merged DFGs but different declared sources never share
    #: a cache entry.
    source: dict[str, object] | None = None
    #: ordered runtime-dynamics stack (serialized
    #: :class:`~repro.core.dynamics.DynamicsSpec` dicts); part of the
    #: content hash — a faulty run must never share a cache entry with
    #: its fault-free twin.
    dynamics: list[dict[str, object]] | None = None
    #: Optional precomputed digest of ``lookup`` (set by :func:`make_job`);
    #: purely a hashing shortcut, never semantics.
    lookup_digest: str | None = field(default=None, compare=False)
    _hash: str | None = field(default=None, repr=False, compare=False)

    def payload(self) -> dict[str, object]:
        """The canonical, JSON-safe body a worker executes."""
        return {
            "version": SWEEP_FORMAT_VERSION,
            "dfg": self.dfg,
            "system": self.system,
            "lookup": self.lookup,
            "lookup_interpolate": self.lookup_interpolate,
            "policy": self.policy.to_dict(),
            "cost_model": self.settings.cost_model_dict(),
            "settings": self.settings.noise_dict(),
            "arrivals": (
                {str(k): float(v) for k, v in sorted(self.arrivals.items())}
                if self.arrivals
                else None
            ),
            "power_model": self.power_model
            if self.power_model is not None
            else power_model_to_dict(DEFAULT_POWER_MODEL),
            "app_spans": self.app_spans,
            "source": self.source,
            "dynamics": self.dynamics,
            "provider": None,
        }

    def content_hash(self) -> str:
        """The job's cache key (memoized per instance)."""
        if self._hash is None:
            payload = self.payload()
            if self.lookup_digest is not None:
                payload["lookup"] = self.lookup_digest
            self._hash = hash_payload(payload)
        return self._hash

    def runnable_payload(self) -> dict[str, object]:
        """Like :meth:`payload` but carrying the provider module and the
        precomputed content hash, so workers neither import-guess nor
        re-hash the full payload."""
        out = self.payload()
        out["provider"] = self.policy.provider
        out["job_hash"] = self.content_hash()
        return out


def job_hash(payload: Mapping[str, object]) -> str:
    """SHA-256 over the canonical JSON encoding of a mapping."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def hash_payload(payload: Mapping[str, object]) -> str:
    """Content hash of a job payload.

    Plumbing keys (``provider``, ``job_hash``) are excluded, and inline
    lookup records are collapsed to their digest first — so the hash is
    identical whether the payload carries the full table or a digest
    shortcut, and identical in every process.
    """
    body = {k: v for k, v in payload.items() if k not in ("provider", "job_hash")}
    lookup = body.get("lookup")
    if isinstance(lookup, list):
        body["lookup"] = job_hash({"records": lookup})
    return job_hash(body)


#: Per-object memo of expensive serializations: a lookup table's records
#: + digest, and a DFG's dict form.  Keyed weakly so tables/graphs are
#: serialized once per sweep, not once per job.
_LOOKUP_MEMO: "weakref.WeakKeyDictionary[LookupTable, tuple[list, str]]" = (
    weakref.WeakKeyDictionary()
)
_DFG_MEMO: "weakref.WeakKeyDictionary[DFG, tuple[tuple, dict]]" = (
    weakref.WeakKeyDictionary()
)


def _lookup_records(lookup: LookupTable) -> tuple[list[dict[str, object]], str]:
    memo = _LOOKUP_MEMO.get(lookup)
    if memo is None:
        records = lookup.to_records()
        memo = (records, job_hash({"records": records}))
        _LOOKUP_MEMO[lookup] = memo
    return memo


def _dfg_dict(dfg: DFG) -> dict[str, object]:
    # every public mutation of a DFG moves this signature, invalidating
    # the memo (LookupTable needs no such guard: it is immutable).
    sig = (dfg.name, len(dfg), dfg.n_edges)
    entry = _DFG_MEMO.get(dfg)
    if entry is None or entry[0] != sig:
        entry = (sig, dfg_to_dict(dfg))
        _DFG_MEMO[dfg] = entry
    return entry[1]


def app_spans_to_payload(spans: "Sequence[AppSpan] | None") -> list[list[float]] | None:
    """JSON-safe ``[arrival_ms, kid_lo, kid_hi]`` rows (``None`` passes through)."""
    if spans is None:
        return None
    return [[float(s.arrival_ms), int(s.kid_lo), int(s.kid_hi)] for s in spans]


def make_job(
    dfg: DFG,
    policy: PolicySpec,
    system: SystemConfig,
    lookup: LookupTable,
    settings: SimSettings = SimSettings(),
    arrivals: Mapping[int, float] | None = None,
    power_model: PowerModel | None = None,
    tag: Mapping[str, object] | None = None,
    app_spans: "Sequence[AppSpan] | None" = None,
    source: Mapping[str, object] | None = None,
    dynamics: "Sequence[DynamicsSpec] | None" = None,
) -> SweepJob:
    """Serialize live objects into a :class:`SweepJob`."""
    records, digest = _lookup_records(lookup)
    return SweepJob(
        dfg=_dfg_dict(dfg),
        system=system_to_dict(system),
        lookup=records,
        policy=policy,
        settings=settings,
        arrivals=dict(arrivals) if arrivals else None,
        power_model=power_model_to_dict(power_model) if power_model is not None else None,
        tag=dict(tag) if tag else {},
        lookup_interpolate=lookup.interpolate,
        lookup_digest=digest,
        app_spans=app_spans_to_payload(app_spans),
        source=dict(source) if source else None,
        dynamics=[d.to_dict() for d in dynamics] if dynamics else None,
    )


@dataclass(frozen=True)
class JobResult:
    """Flattened outcome of one job (everything the reports aggregate).

    The service-level block (``n_applications`` onward) is zero for
    closed-system jobs; it is populated when the job carried
    ``app_spans`` — the open-system accounting of
    :mod:`repro.core.metrics`.  The dynamics block (``dynamics``
    onward) is populated when the job carried a runtime-dynamics stack
    (fault injection, preemption); ``mean_availability`` is 1 for every
    other job.
    """

    job_hash: str
    dfg_name: str
    n_kernels: int
    policy_name: str
    makespan: float
    total_lambda: float
    avg_lambda: float
    lambda_stddev: float
    n_alternative: int
    alternative_by_kernel: Mapping[str, int]
    energy_joules: float
    energy_delay_product: float
    n_applications: int = 0
    mean_response_ms: float = 0.0
    p95_response_ms: float = 0.0
    mean_queueing_ms: float = 0.0
    mean_slowdown: float = 0.0
    throughput_apps_per_s: float = 0.0
    dynamics: tuple[str, ...] = ()
    mean_availability: float = 1.0
    n_faults: int = 0
    n_preemptions: int = 0

    def to_dict(self) -> dict[str, object]:
        return {
            "version": SWEEP_FORMAT_VERSION,
            "job_hash": self.job_hash,
            "dfg_name": self.dfg_name,
            "n_kernels": self.n_kernels,
            "policy_name": self.policy_name,
            "makespan": self.makespan,
            "total_lambda": self.total_lambda,
            "avg_lambda": self.avg_lambda,
            "lambda_stddev": self.lambda_stddev,
            "n_alternative": self.n_alternative,
            "alternative_by_kernel": dict(sorted(self.alternative_by_kernel.items())),
            "energy_joules": self.energy_joules,
            "energy_delay_product": self.energy_delay_product,
            "n_applications": self.n_applications,
            "mean_response_ms": self.mean_response_ms,
            "p95_response_ms": self.p95_response_ms,
            "mean_queueing_ms": self.mean_queueing_ms,
            "mean_slowdown": self.mean_slowdown,
            "throughput_apps_per_s": self.throughput_apps_per_s,
            "dynamics": list(self.dynamics),
            "mean_availability": self.mean_availability,
            "n_faults": self.n_faults,
            "n_preemptions": self.n_preemptions,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "JobResult":
        return cls(
            job_hash=str(data["job_hash"]),
            dfg_name=str(data["dfg_name"]),
            n_kernels=int(data["n_kernels"]),  # type: ignore[arg-type]
            policy_name=str(data["policy_name"]),
            makespan=float(data["makespan"]),  # type: ignore[arg-type]
            total_lambda=float(data["total_lambda"]),  # type: ignore[arg-type]
            avg_lambda=float(data["avg_lambda"]),  # type: ignore[arg-type]
            lambda_stddev=float(data["lambda_stddev"]),  # type: ignore[arg-type]
            n_alternative=int(data["n_alternative"]),  # type: ignore[arg-type]
            alternative_by_kernel={
                str(k): int(v)  # type: ignore[arg-type]
                for k, v in dict(data["alternative_by_kernel"]).items()  # type: ignore[arg-type]
            },
            energy_joules=float(data["energy_joules"]),  # type: ignore[arg-type]
            energy_delay_product=float(data["energy_delay_product"]),  # type: ignore[arg-type]
            n_applications=int(data.get("n_applications", 0)),  # type: ignore[arg-type]
            mean_response_ms=float(data.get("mean_response_ms", 0.0)),  # type: ignore[arg-type]
            p95_response_ms=float(data.get("p95_response_ms", 0.0)),  # type: ignore[arg-type]
            mean_queueing_ms=float(data.get("mean_queueing_ms", 0.0)),  # type: ignore[arg-type]
            mean_slowdown=float(data.get("mean_slowdown", 0.0)),  # type: ignore[arg-type]
            throughput_apps_per_s=float(data.get("throughput_apps_per_s", 0.0)),  # type: ignore[arg-type]
            dynamics=tuple(str(k) for k in data.get("dynamics") or ()),  # type: ignore[union-attr]
            mean_availability=float(data.get("mean_availability", 1.0)),  # type: ignore[arg-type]
            n_faults=int(data.get("n_faults", 0)),  # type: ignore[arg-type]
            n_preemptions=int(data.get("n_preemptions", 0)),  # type: ignore[arg-type]
        )


def execute_payload(payload: Mapping[str, object]) -> dict[str, object]:
    """Run one serialized job and return its result dict.

    This is the function worker processes execute; it rebuilds every
    object from the payload (never from parent-process state), which is
    what guarantees cross-process determinism and hash soundness.
    """
    provider = payload.get("provider")
    dfg = dfg_from_dict(payload["dfg"])  # type: ignore[arg-type]
    system = system_from_dict(payload["system"])  # type: ignore[arg-type]
    lookup = LookupTable.from_records(
        payload["lookup"],  # type: ignore[arg-type]
        interpolate=bool(payload.get("lookup_interpolate", True)),
    )
    policy_spec = PolicySpec.from_dict(
        payload["policy"], provider=str(provider) if provider else None  # type: ignore[arg-type]
    )
    settings = SimSettings.from_dict(
        {**payload["cost_model"], **payload["settings"]}  # type: ignore[dict-item]
    )
    power_model = power_model_from_dict(payload["power_model"])  # type: ignore[arg-type]
    raw_arrivals = payload.get("arrivals") or {}
    arrivals = {int(k): float(v) for k, v in raw_arrivals.items()}  # type: ignore[union-attr]
    dynamics = [
        DynamicsSpec.from_dict(d) for d in payload.get("dynamics") or ()  # type: ignore[union-attr]
    ]

    sim = Simulator(
        system,
        lookup,
        element_size=settings.element_size,
        transfer_mode=settings.transfer_mode,
        transfers_enabled=settings.transfers_enabled,
        exec_noise_sigma=settings.exec_noise_sigma,
        noise_seed=settings.noise_seed,
        dynamics=dynamics,
    )
    result = sim.run(dfg, policy_spec.build(), arrivals=arrivals or None)
    energy = energy_of(result.schedule, system, power_model)
    alt_by_kernel: dict[str, int] = {}
    for entry in result.schedule:
        if entry.used_alternative:
            alt_by_kernel[entry.kernel] = alt_by_kernel.get(entry.kernel, 0) + 1

    raw_spans = payload.get("app_spans")
    service_fields: dict[str, object] = {}
    if raw_spans:
        from repro.core.metrics import AppSpan, compute_service_metrics

        spans = tuple(
            AppSpan(float(a), int(lo), int(hi)) for a, lo, hi in raw_spans  # type: ignore[union-attr]
        )
        service = compute_service_metrics(
            result.schedule, spans, dfg=dfg, cost=sim.cost
        )
        service_fields = {
            "n_applications": service.n_applications,
            "mean_response_ms": service.mean_response_ms,
            "p95_response_ms": service.p95_response_ms,
            "mean_queueing_ms": service.mean_queueing_ms,
            "mean_slowdown": service.mean_slowdown,
            "throughput_apps_per_s": service.throughput_apps_per_s,
        }

    dynamics_fields: dict[str, object] = {}
    if dynamics:
        fault_stats = result.dynamics_stats.get("fault", {})
        preempt_stats = result.dynamics_stats.get("preemption", {})
        dynamics_fields = {
            "dynamics": tuple(d.kind for d in dynamics),
            "mean_availability": float(fault_stats.get("mean_availability", 1.0)),
            "n_faults": int(fault_stats.get("n_faults", 0)),
            "n_preemptions": int(preempt_stats.get("n_preemptions", 0)),
        }

    key = payload.get("job_hash") or hash_payload(payload)
    return JobResult(
        job_hash=str(key),
        dfg_name=dfg.name,
        n_kernels=len(dfg),
        policy_name=result.policy_name,
        makespan=result.makespan,
        total_lambda=result.metrics.lambda_stats.total,
        avg_lambda=result.metrics.lambda_stats.average,
        lambda_stddev=result.metrics.lambda_stats.stddev,
        n_alternative=result.metrics.n_alternative_assignments,
        alternative_by_kernel=alt_by_kernel,
        energy_joules=energy.total_joules,
        energy_delay_product=energy.energy_delay_product,
        **service_fields,  # type: ignore[arg-type]
        **dynamics_fields,  # type: ignore[arg-type]
    ).to_dict()


# ----------------------------------------------------------------------
# executors
# ----------------------------------------------------------------------
#: Progress hook: called as ``progress(done, total)`` after each payload
#: completes (and, at the engine level, once for the cache-hit batch).
ProgressHook = Callable[[int, int], None]

#: Cancellation hook: polled between payloads; truthy → stop the sweep.
CancelHook = Callable[[], bool]


class SweepCancelled(RuntimeError):
    """Raised when a sweep stops at a cancellation point.

    Carries how much work finished before the stop plus the result
    records produced so far (``partial``, in payload order), so callers
    up the stack can still cache completed work: a cancelled sweep is
    never lost work, and a re-run resumes from the cache.
    """

    def __init__(
        self,
        done: int,
        total: int,
        partial: Sequence[Mapping[str, object]] = (),
    ) -> None:
        super().__init__(f"sweep cancelled after {done}/{total} jobs")
        self.done = done
        self.total = total
        self.partial = list(partial)


class SerialExecutor:
    """Run jobs one after another in the calling process."""

    workers = 1

    def run(
        self,
        payloads: Sequence[Mapping[str, object]],
        progress: ProgressHook | None = None,
        cancel: CancelHook | None = None,
    ) -> list[dict[str, object]]:
        total = len(payloads)
        results: list[dict[str, object]] = []
        for payload in payloads:
            if cancel is not None and cancel():
                raise SweepCancelled(len(results), total, partial=results)
            results.append(execute_payload(payload))
            if progress is not None:
                progress(len(results), total)
        return results


class ProcessPoolExecutor:
    """Fan jobs out over a ``multiprocessing`` pool.

    A worker exception cancels the batch and propagates to the caller —
    a sweep never silently returns partial or fabricated results.
    Batches of one job (or ``workers=1``) run inline to skip pool
    startup cost.

    ``cancel`` is polled between completed payloads; when it fires the
    pool is torn down (in-flight workers are terminated by the context
    manager) and :class:`SweepCancelled` propagates with the count of
    payloads that completed first.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)

    def run(
        self,
        payloads: Sequence[Mapping[str, object]],
        progress: ProgressHook | None = None,
        cancel: CancelHook | None = None,
    ) -> list[dict[str, object]]:
        if self.workers == 1 or len(payloads) <= 1:
            return SerialExecutor().run(payloads, progress=progress, cancel=cancel)
        total = len(payloads)
        if cancel is not None and cancel():
            raise SweepCancelled(0, total)
        ctx = multiprocessing.get_context()
        results: list[dict[str, object]] = []
        with ctx.Pool(processes=min(self.workers, total)) as pool:
            # chunksize=1: jobs vary widely in cost (46..157-kernel graphs),
            # so fine-grained dispatch load-balances the pool.  imap (not
            # map) keeps the parent in the loop between completions — the
            # seam where progress is reported and cancellation observed.
            # imap preserves input order, so ``results[:n]`` always pairs
            # with ``payloads[:n]`` — the invariant SweepCancelled.partial
            # relies on.
            for record in pool.imap(execute_payload, list(payloads), chunksize=1):
                results.append(record)
                if progress is not None:
                    progress(len(results), total)
                if cancel is not None and cancel() and len(results) < total:
                    raise SweepCancelled(len(results), total, partial=results)
        return results


def resolve_workers(workers: int | None) -> int:
    """Normalize a worker-count request: None/0/negative → all cores."""
    if workers is None or workers <= 0:
        return os.cpu_count() or 1
    return int(workers)


# ----------------------------------------------------------------------
# cache
# ----------------------------------------------------------------------
class FileLock:
    """Cross-process advisory lock over a sidecar file (``flock``).

    Reentrant-free, context-manager only.  On platforms without
    :mod:`fcntl` the lock degrades to a no-op — single-process safety is
    still guaranteed by atomic renames; only the index counters lose
    their multi-writer exactness there.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._fh: object | None = None

    def __enter__(self) -> "FileLock":
        fh = open(self.path, "a+", encoding="utf-8")
        if fcntl is not None:
            fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
        self._fh = fh
        return self

    def __exit__(self, *exc: object) -> None:
        fh = self._fh
        self._fh = None
        assert fh is not None
        if fcntl is not None:
            fcntl.flock(fh.fileno(), fcntl.LOCK_UN)  # type: ignore[union-attr]
        fh.close()  # type: ignore[union-attr]


#: Cache index version (independent of SWEEP_FORMAT_VERSION: the index
#: is bookkeeping, never a source of results).
CACHE_INDEX_VERSION = 1

#: Index + lock live beside the entries but deliberately do NOT match
#: the ``*.json`` entry glob, so ``__len__``/``clear`` never count them.
CACHE_INDEX_NAME = "index.meta"
CACHE_LOCK_NAME = "index.lock"


class ResultCache:
    """On-disk JSON result store, one file per job content hash.

    Entry writes are atomic (temp file + ``os.replace``) so concurrent
    sweeps sharing a cache directory never observe torn files;
    unreadable or corrupt entries are treated as misses.

    The cache also maintains an ``index.meta`` sidecar with cumulative
    counters (``puts``: total writes ever, ``entries``: distinct keys
    written).  That file is a read-modify-write, which atomic renames
    alone cannot make safe across processes — updates therefore happen
    under a cross-process :class:`FileLock`, and the new-key check +
    entry rename + index rewrite form one critical section
    (``tests/test_sweep.py::test_concurrent_cache_writers`` hammers this
    with N processes).
    """

    def __init__(self, cache_dir: str | Path) -> None:
        self.dir = Path(cache_dir)
        if self.dir.exists() and not self.dir.is_dir():
            raise ValueError(f"cache_dir exists but is not a directory: {self.dir}")
        self.dir.mkdir(parents=True, exist_ok=True)
        self._lock = FileLock(self.dir / CACHE_LOCK_NAME)

    def path_for(self, key: str) -> Path:
        return self.dir / f"{key}.json"

    def get(self, key: str) -> dict[str, object] | None:
        path = self.path_for(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(data, dict) or data.get("version") != SWEEP_FORMAT_VERSION:
            return None
        return data

    def put(self, key: str, record: Mapping[str, object]) -> None:
        fd, tmp = tempfile.mkstemp(dir=self.dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(record, fh)
            with self._lock:
                fresh = not self.path_for(key).exists()
                os.replace(tmp, self.path_for(key))
                index = self._read_index()
                index["puts"] = int(index.get("puts", 0)) + 1
                if fresh:
                    index["entries"] = int(index.get("entries", 0)) + 1
                self._write_index(index)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def stats(self) -> dict[str, int]:
        """The index counters: ``{"puts": ..., "entries": ...}``."""
        with self._lock:
            index = self._read_index()
        return {
            "puts": int(index.get("puts", 0)),
            "entries": int(index.get("entries", 0)),
        }

    def _read_index(self) -> dict[str, object]:
        try:
            with open(self.dir / CACHE_INDEX_NAME, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError):
            return {"version": CACHE_INDEX_VERSION, "puts": 0, "entries": 0}
        if not isinstance(data, dict) or data.get("version") != CACHE_INDEX_VERSION:
            return {"version": CACHE_INDEX_VERSION, "puts": 0, "entries": 0}
        return data

    def _write_index(self, index: Mapping[str, object]) -> None:
        # atomic even though callers hold the lock: lock-free readers
        # (stats of a dying process, humans with cat) never see torn JSON.
        fd, tmp = tempfile.mkstemp(dir=self.dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(index, fh)
            os.replace(tmp, self.dir / CACHE_INDEX_NAME)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def __len__(self) -> int:
        return sum(1 for _ in self.dir.glob("*.json"))

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).exists()

    def clear(self) -> int:
        """Delete all entries (and reset the index); returns how many."""
        n = 0
        with self._lock:
            for path in self.dir.glob("*.json"):
                path.unlink()
                n += 1
            self._write_index({"version": CACHE_INDEX_VERSION, "puts": 0, "entries": 0})
        return n


# ----------------------------------------------------------------------
# engine
# ----------------------------------------------------------------------
@dataclass
class SweepStats:
    """Cumulative cache/execution counters of a :class:`SweepEngine`."""

    requested: int = 0
    memory_hits: int = 0
    disk_hits: int = 0
    simulated: int = 0

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits


class SweepEngine:
    """Orchestrates sweep execution: dedupe → cache → execute → store.

    Parameters
    ----------
    workers:
        Worker-pool size for missing jobs.  ``1`` (default) runs
        serially; ``None`` or ``<= 0`` uses every core.
    cache_dir:
        Optional directory for the persistent :class:`ResultCache`.
        Without it, only the in-memory memo (per engine) applies.
    use_cache:
        Master switch; ``False`` disables both memo layers, so every
        requested job simulates.
    """

    def __init__(
        self,
        workers: int | None = 1,
        cache_dir: str | Path | None = None,
        use_cache: bool = True,
    ) -> None:
        self.executor = ProcessPoolExecutor(resolve_workers(workers))
        self.use_cache = bool(use_cache)
        self.disk = ResultCache(cache_dir) if (cache_dir and self.use_cache) else None
        self._memory: dict[str, JobResult] = {}
        self.stats = SweepStats()

    @property
    def workers(self) -> int:
        return self.executor.workers

    def run_jobs(
        self,
        jobs: Sequence[SweepJob],
        progress: ProgressHook | None = None,
        cancel: CancelHook | None = None,
    ) -> list[JobResult]:
        """Execute (or recall) every job, preserving request order.

        Duplicate jobs within a batch are simulated once.  Results of
        fresh simulations are written to both cache layers.

        ``progress`` is called as ``progress(done, total)`` over the
        *deduplicated* work: once after the cache-resolution phase
        (counting every hit at once) and once per executed payload.
        ``cancel`` is polled between payloads; a truthy return raises
        :class:`SweepCancelled` — results already produced stay cached,
        so a re-run resumes where the cancellation landed.
        """
        hashes = [job.content_hash() for job in jobs]
        self.stats.requested += len(jobs)
        resolved: dict[str, JobResult] = {}
        pending: list[tuple[str, SweepJob]] = []
        pending_keys: set[str] = set()
        for key, job in zip(hashes, jobs):
            if key in resolved or key in pending_keys:
                self.stats.memory_hits += 1
                continue
            if self.use_cache:
                cached = self._memory.get(key)
                if cached is not None:
                    resolved[key] = cached
                    self.stats.memory_hits += 1
                    continue
                if self.disk is not None:
                    record = self.disk.get(key)
                    if record is not None:
                        result = JobResult.from_dict(record)
                        resolved[key] = result
                        self._memory[key] = result
                        self.stats.disk_hits += 1
                        continue
            pending.append((key, job))
            pending_keys.add(key)
        total = len(resolved) + len(pending)
        if progress is not None and resolved:
            progress(len(resolved), total)
        if pending:
            hits = len(resolved)

            def _executor_progress(done: int, _total: int) -> None:
                if progress is not None:
                    progress(hits + done, total)

            payloads = [job.runnable_payload() for _, job in pending]
            try:
                outputs = self.executor.run(
                    payloads, progress=_executor_progress, cancel=cancel
                )
            except SweepCancelled as exc:
                # cancelled mid-batch: completed payloads are still real
                # results — cache them so a re-run resumes, not restarts.
                self.stats.simulated += exc.done
                if self.use_cache:
                    for (key, _), record in zip(pending, exc.partial):
                        self._memory[key] = JobResult.from_dict(record)
                        if self.disk is not None:
                            self.disk.put(key, record)
                raise SweepCancelled(
                    hits + exc.done, total, partial=exc.partial
                ) from None
            self.stats.simulated += len(outputs)
            for (key, _), record in zip(pending, outputs):
                result = JobResult.from_dict(record)
                resolved[key] = result
                if self.use_cache:
                    self._memory[key] = result
                    if self.disk is not None:
                        self.disk.put(key, record)
        return [resolved[key] for key in hashes]

    def run(self, spec: "SweepSpec", lookup: LookupTable | None = None) -> list[JobResult]:
        """Expand a declarative spec and run the resulting grid."""
        return self.run_jobs(spec.expand(lookup))


# ----------------------------------------------------------------------
# declarative grid
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepSpec:
    """A declarative policy × workload × system-config × seed grid.

    ``expand`` materializes the grid into independent :class:`SweepJob`
    items in a deterministic order (seed-major, then DFG type, rate,
    policy, graph).  Each job's ``tag`` records its grid coordinates.
    """

    policies: tuple[PolicySpec, ...]
    dfg_types: tuple[int, ...] = (1,)
    seeds: tuple[int, ...] = ()
    rates_gbps: tuple[float, ...] = (4.0,)
    n_graphs: int | None = None
    settings: SimSettings = SimSettings()

    def expand(self, lookup: LookupTable | None = None) -> list[SweepJob]:
        from repro.core.system import CPU_GPU_FPGA
        from repro.data.paper_tables import paper_lookup_table
        from repro.experiments.workloads import DEFAULT_SEED, paper_suite

        lookup = lookup if lookup is not None else paper_lookup_table()
        seeds = self.seeds or (DEFAULT_SEED,)
        jobs: list[SweepJob] = []
        for seed in seeds:
            for dfg_type in self.dfg_types:
                suite = paper_suite(dfg_type, seed)
                if self.n_graphs is not None:
                    suite = suite[: self.n_graphs]
                for rate in self.rates_gbps:
                    system = CPU_GPU_FPGA(transfer_rate_gbps=rate)
                    for policy in self.policies:
                        for index, dfg in enumerate(suite):
                            jobs.append(
                                make_job(
                                    dfg,
                                    policy,
                                    system,
                                    lookup,
                                    settings=self.settings,
                                    tag={
                                        "seed": seed,
                                        "dfg_type": dfg_type,
                                        "rate_gbps": rate,
                                        "policy": policy.name,
                                        "graph_index": index,
                                    },
                                )
                            )
        return jobs


__all__ = [
    "SWEEP_FORMAT_VERSION",
    "CACHE_INDEX_VERSION",
    "SimSettings",
    "PolicySpec",
    "SweepJob",
    "JobResult",
    "SweepSpec",
    "SweepStats",
    "SweepCancelled",
    "SweepEngine",
    "SerialExecutor",
    "ProcessPoolExecutor",
    "FileLock",
    "ResultCache",
    "app_spans_to_payload",
    "execute_payload",
    "job_hash",
    "make_job",
    "resolve_workers",
    "system_to_dict",
    "system_from_dict",
    "power_model_to_dict",
    "power_model_from_dict",
]
