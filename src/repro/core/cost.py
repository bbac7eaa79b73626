"""The unified assignment cost model.

Every "what does this assignment cost" question in the system — static
planning (HEFT/PEFT/CPOP rank and EFT computations), dynamic selection
(APT's threshold test, AG's waiting-time metric, the batch-mode
completion costs) and execution (the simulator charging a kernel's
inbound transfer and compute time) — is answered by one
:class:`CostModel` object, built once per :class:`~repro.core.simulator.
Simulator` from its configuration.

The model is the paper's (§3.2): a kernel pays one inbound transfer,
the slowest from a cross-processor predecessor (its ``d_jk``), of
:data:`ELEMENT_SIZE`-byte single-precision elements.

Centralizing the model closes two historical leaks:

* static plans used to budget transfer costs at the configured link rate
  even when the simulator ran with ``transfers_enabled=False`` (the
  Figure 5 mode), so plans optimized for costs the run then zeroed;
* :meth:`~repro.policies.base.SchedulingContext.transfer_time` used to
  ignore ``transfers_enabled`` entirely, so dynamic policies (APT's
  ``exec + transfer ≤ α·x`` test) paid phantom transfers in
  transfers-disabled runs.

The model also memoizes the pure lookup-table queries and the per-size
average communication cost, which the simulator hot path and the static
planners hit millions of times on large workloads.  A kernel's prices
are fixed for the whole run by its ``(kernel, data_size)`` cost class,
so :meth:`CostModel.cost_row` files them once per class as a shared
:class:`CostRow` — its time on every processor, its p_min category and
``x`` — which the engine files beside each admitted kernel's spec.
Memoized answers are bit-identical to the uncached computation —
caching is a speedup, never a semantic.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, NamedTuple

from repro.core.lookup import LookupTable
from repro.core.system import ProcessorType, SystemConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.graphs.dfg import DFG

#: Bytes per data element: single-precision words, matching the OpenCL
#: kernels the paper measures (transfer bytes = elements × size).
ELEMENT_SIZE = 4


class CostRow(NamedTuple):
    """One cost class's execution prices, fixed for the run.

    ``times[i]`` is the class's lookup-table time on
    ``system.processors[i]`` (declaration order); ``best_ptype`` and
    ``x`` are its p_min category and time.  Each value is the very float
    :meth:`CostModel.exec_time` / :meth:`CostModel.best_processor`
    return.
    """

    times: tuple[float, ...]
    best_ptype: ProcessorType
    x: float


class CostModel:
    """Execution + transfer costs of kernel→processor assignments.

    Parameters
    ----------
    system:
        The hardware platform (processors and links).
    lookup:
        Execution-time table.
    transfers_enabled:
        When false, every transfer cost is exactly 0.0 — planning,
        selection and execution all see the same zero.

    Execution prices are memoized per ``(kernel, data_size, category)``
    and, per cost class, as one shared :class:`CostRow`
    (:meth:`cost_row`): every kernel of a class reads the same object.
    """

    __slots__ = (
        "system",
        "lookup",
        "transfers_enabled",
        "_ptypes",
        "_exec_memo",
        "_rows",
        "_avg_comm_memo",
    )

    def __init__(
        self,
        system: SystemConfig,
        lookup: LookupTable,
        transfers_enabled: bool = True,
    ) -> None:
        self.system = system
        self.lookup = lookup
        self.transfers_enabled = bool(transfers_enabled)
        self._ptypes = system.processor_types()
        self._exec_memo: dict[tuple[str, int, ProcessorType], float] = {}
        self._rows: dict[tuple[str, int], CostRow] = {}
        self._avg_comm_memo: dict[int, float] = {}

    # ------------------------------------------------------------------
    # execution costs (lookup-table side, memoized)
    # ------------------------------------------------------------------
    def exec_time(self, kernel: str, data_size: int, ptype: ProcessorType) -> float:
        """Lookup-table execution time of ``kernel`` at ``data_size`` on ``ptype``."""
        key = (kernel, data_size, ptype)
        t = self._exec_memo.get(key)
        if t is None:
            t = self.lookup.time(kernel, data_size, ptype)
            self._exec_memo[key] = t
        return t

    def cost_row(self, kernel: str, data_size: int) -> CostRow:
        """The cost class's :class:`CostRow`, built on first request."""
        key = (kernel, data_size)
        row = self._rows.get(key)
        if row is None:
            exec_time = self.exec_time
            times = tuple(
                exec_time(kernel, data_size, p.ptype) for p in self.system.processors
            )
            best = self.lookup.best_processor(kernel, data_size, self._ptypes)
            row = self._rows[key] = CostRow(times, *best)
        return row

    def best_processor(self, kernel: str, data_size: int) -> tuple[ProcessorType, float]:
        """The system's p_min category for the kernel, and its time ``x``."""
        row = self.cost_row(kernel, data_size)
        return row.best_ptype, row.x

    # ------------------------------------------------------------------
    # transfer costs
    # ------------------------------------------------------------------
    def data_bytes(self, data_size: int) -> int:
        """Bytes moved for a kernel of ``data_size`` elements."""
        return data_size * ELEMENT_SIZE

    def transfer_time_ms(self, src: str, dst: str, nbytes: float) -> float:
        """Link transfer time — exactly 0.0 when transfers are disabled.

        On topology systems this is the *uncontended* route time
        (bottleneck bandwidth + latency).  Planning and selection always
        price transfers uncontended — a policy cannot know the future
        flow set — while execution layers fair-share contention on top
        when the topology enables it.
        """
        if not self.transfers_enabled:
            return 0.0
        return self.system.transfer_time_ms(src, dst, nbytes)

    def route(self, src: str, dst: str):
        """The interconnect route ``src -> dst``; ``None`` on flat systems."""
        return self.system.route(src, dst)

    def transfer_flow_sources(
        self,
        predecessors: "list[int]",
        assignment_of: Mapping[int, str],
        target: str,
        nbytes: int,
    ) -> list[str]:
        """Distinct source processors that would open an inbound flow.

        The single source of truth for the contended-transfer source
        filter, shared by the simulator's event path and
        :meth:`~repro.policies.base.SchedulingContext.transfer_sources`:
        already-placed predecessors on a different processor than
        ``target``, deduplicated in predecessor order, excluding sources
        whose route charges nothing (infinite bandwidth and zero
        latency — or transfers disabled), since those open no flow.
        """
        if not self.transfers_enabled:
            return []
        sources: list[str] = []
        for pred in predecessors:
            src = assignment_of.get(pred)
            if (
                src is not None
                and src != target
                and src not in sources
                and self.system.transfer_time_ms(src, target, nbytes) > 0.0
            ):
                sources.append(src)
        return sources

    def inbound_transfer(
        self,
        dfg: "DFG",
        kernel_id: int,
        target: str,
        assignment_of: Mapping[int, str],
        predecessors: list[int] | None = None,
        nbytes: int | None = None,
    ) -> float:
        """Inbound transfer time if ``kernel_id`` ran on ``target``: the
        largest transfer from a cross-processor predecessor.

        Predecessors not yet assigned (or assigned to ``target`` itself)
        contribute nothing.  ``predecessors`` and ``nbytes`` may be passed
        by callers holding precomputed adjacency/spec tables (hot path);
        they must equal ``dfg.predecessors(kernel_id)`` and
        ``data_bytes(dfg.spec(kernel_id).data_size)``.
        """
        if not self.transfers_enabled:
            return 0.0
        preds = predecessors if predecessors is not None else dfg.predecessors(kernel_id)
        if not preds:
            return 0.0
        if nbytes is None:
            nbytes = dfg.spec(kernel_id).data_size * ELEMENT_SIZE
        slowest = 0.0
        for pred in preds:
            src = assignment_of.get(pred)
            if src is None or src == target:
                continue
            c = self.system.transfer_time_ms(src, target, nbytes)
            if c > slowest:
                slowest = c
        return slowest

    def avg_comm(self, data_size: int) -> float:
        """Average inbound-edge communication cost for a ``data_size`` kernel.

        Averaged over all ordered processor pairs including the zero-cost
        same-processor pairs — the standard HEFT convention for
        :math:`\\bar c_{i,j}`.  Zero when transfers are disabled.
        """
        cached = self._avg_comm_memo.get(data_size)
        if cached is None:
            if not self.transfers_enabled:
                cached = 0.0
            else:
                nbytes = data_size * ELEMENT_SIZE
                procs = self.system.processors
                total = sum(
                    self.system.transfer_time_ms(a.name, b.name, nbytes)
                    for a in procs
                    for b in procs
                )
                cached = total / (len(procs) ** 2)
            self._avg_comm_memo[data_size] = cached
        return cached

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CostModel(transfers_enabled={self.transfers_enabled})"
