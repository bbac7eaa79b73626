"""The kernel dataflow graph (DFG).

The paper models an application stream as ``G = (V, E)`` where ``V`` is a
set of kernels — each with a kernel type (e.g. ``"bfs"``) and a data size —
and ``E`` captures data/computational dependencies (§2.5.1).  Kernel ids
double as arrival order: dynamic schedulers fill their ready queue
"on [a] first-come, first-serve basis" (§3.1), which we realize as
ascending kernel id.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Iterable, Iterator


@dataclass(frozen=True)
class KernelSpec:
    """One kernel instance in a DFG.

    Parameters
    ----------
    kernel:
        Kernel type name; must match a lookup-table kernel (e.g. ``"bfs"``,
        ``"matmul"``).
    data_size:
        Problem size in elements; used both for the lookup-table query and
        for transfer-time computation (bytes = size ×
        :data:`~repro.core.cost.ELEMENT_SIZE`).
    """

    kernel: str
    data_size: int

    def __post_init__(self) -> None:
        if not self.kernel:
            raise ValueError("kernel name must be non-empty")
        if self.data_size <= 0:
            raise ValueError(f"data_size must be positive, got {self.data_size}")


class DFG:
    """A directed acyclic graph of kernels.

    Nodes are integer kernel ids (arrival order); each carries a
    :class:`KernelSpec`.  Edges are dependencies: ``u -> v`` means ``v``
    consumes ``u``'s output and cannot start before ``u`` completes.

    Acyclicity is an insertion invariant.  While every edge points
    forward (``u < v``), ascending id is a topological order, so a new
    forward edge cannot close a cycle and is linked without a search;
    any other edge is first checked for a path back to its source.
    """

    def __init__(self, name: str = "dfg") -> None:
        self.name = name
        self._next_id = 0
        self._specs: dict[int, KernelSpec] = {}
        # adjacency lists, each kept sorted by id
        self._preds: dict[int, list[int]] = {}
        self._succs: dict[int, list[int]] = {}
        self._n_edges = 0
        self._forward = True  # every edge points from a lower to a higher id

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_kernel(self, spec: KernelSpec, kid: int | None = None) -> int:
        """Add a kernel; returns its id.

        If ``kid`` is omitted, ids are assigned sequentially (arrival
        order).  Explicit ids must not collide with existing nodes.
        """
        if kid is None:
            kid = self._next_id
        if kid in self._specs:
            raise ValueError(f"kernel id {kid} already present")
        if kid < 0:
            raise ValueError(f"kernel ids must be non-negative, got {kid}")
        self._specs[kid] = spec
        self._preds[kid] = []
        self._succs[kid] = []
        self._next_id = max(self._next_id, kid + 1)
        return kid

    def add_dependency(self, src: int, dst: int) -> None:
        """Declare that ``dst`` depends on (consumes output of) ``src``."""
        self._check_endpoints(src, dst)
        if self._has_edge(src, dst):
            return
        if not (self._forward and src < dst) and self._reaches(dst, src):
            raise ValueError(f"edge {(src, dst)} would create a cycle")
        self._link(src, dst)

    def add_dependencies(self, edges: Iterable[tuple[int, int]]) -> None:
        """Add a batch of edges, all or nothing."""
        batch = [(src, dst) for src, dst in edges]
        for src, dst in batch:
            self._check_endpoints(src, dst)
        was_forward = self._forward
        fresh: list[tuple[int, int]] = []
        for src, dst in batch:
            if not self._has_edge(src, dst):
                self._link(src, dst)
                fresh.append((src, dst))
        if not self._forward and len(self.topological_order()) < len(self):
            for src, dst in fresh:
                self._succs[src].remove(dst)
                self._preds[dst].remove(src)
            self._n_edges -= len(fresh)
            self._forward = was_forward
            raise ValueError("edge batch would create a cycle")

    def _check_endpoints(self, src: int, dst: int) -> None:
        if src not in self._specs or dst not in self._specs:
            raise KeyError(f"both endpoints must exist: {(src, dst)}")
        if src == dst:
            raise ValueError(f"self-dependency on kernel {src}")

    def _has_edge(self, src: int, dst: int) -> bool:
        succs = self._succs[src]
        i = bisect_left(succs, dst)
        return i < len(succs) and succs[i] == dst

    def _reaches(self, start: int, target: int) -> bool:
        """Whether a path of edges leads from ``start`` to ``target``."""
        seen = {start}
        stack = [start]
        while stack:
            for nxt in self._succs[stack.pop()]:
                if nxt == target:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return False

    def _link(self, src: int, dst: int) -> None:
        insort(self._succs[src], dst)
        insort(self._preds[dst], src)
        self._n_edges += 1
        if src > dst:
            self._forward = False

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def spec(self, kid: int) -> KernelSpec:
        return self._specs[kid]

    def kernel_ids(self) -> list[int]:
        """All kernel ids in arrival (ascending id) order."""
        return sorted(self._specs)

    def predecessors(self, kid: int) -> list[int]:
        return list(self._preds[kid])

    def successors(self, kid: int) -> list[int]:
        return list(self._succs[kid])

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in sorted(self._succs) for v in self._succs[u]]

    def entry_kernels(self) -> list[int]:
        """Kernels with no dependencies (ready at time zero)."""
        return sorted(k for k, preds in self._preds.items() if not preds)

    def exit_kernels(self) -> list[int]:
        """Kernels nothing depends on."""
        return sorted(k for k, succs in self._succs.items() if not succs)

    def topological_order(self) -> list[int]:
        """A deterministic topological order (lexicographic tie-break).

        Kahn's algorithm, always taking the smallest ready id next.
        """
        indegree = {k: len(preds) for k, preds in self._preds.items()}
        heap = [k for k, d in indegree.items() if d == 0]
        heapq.heapify(heap)
        order: list[int] = []
        while heap:
            kid = heapq.heappop(heap)
            order.append(kid)
            for nxt in self._succs[kid]:
                indegree[nxt] -= 1
                if indegree[nxt] == 0:
                    heapq.heappush(heap, nxt)
        return order

    def __len__(self) -> int:
        return len(self._specs)

    def __contains__(self, kid: int) -> bool:
        return kid in self._specs

    def __iter__(self) -> Iterator[int]:
        return iter(self.kernel_ids())

    @property
    def n_edges(self) -> int:
        return self._n_edges

    def is_empty(self) -> bool:
        return len(self) == 0

    def validate(self) -> None:
        """Check structural invariants; raises ``ValueError`` on violation."""
        if len(self.topological_order()) < len(self):
            raise ValueError("DFG contains a cycle")

    # ------------------------------------------------------------------
    def subgraph_counts(self) -> dict[str, int]:
        """Count kernel instances by kernel type (for workload summaries)."""
        counts: dict[str, int] = {}
        for spec in self._specs.values():
            counts[spec.kernel] = counts.get(spec.kernel, 0) + 1
        return dict(sorted(counts.items()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DFG({self.name!r}, kernels={len(self)}, edges={self.n_edges})"

    # ------------------------------------------------------------------
    @classmethod
    def from_kernels(
        cls,
        specs: Iterable[KernelSpec],
        dependencies: Iterable[tuple[int, int]] = (),
        name: str = "dfg",
    ) -> "DFG":
        """Convenience constructor: kernels in arrival order plus edges."""
        dfg = cls(name)
        for spec in specs:
            dfg.add_kernel(spec)
        for u, v in dependencies:
            dfg.add_dependency(u, v)
        return dfg
