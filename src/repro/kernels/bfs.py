"""Breadth-first search (graph traversal dwarf).

Level-synchronous BFS over the edge list — the standard "frontier"
formulation GPU/FPGA implementations use (paper §3.2): each level marks
the heads of every edge whose tail is on the frontier.  Data size is
the number of directed edges in the random input graph.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.kernels.base import Kernel, kernel_registry
from repro.kernels.dwarfs import Dwarf


class BFSKernel(Kernel):
    """BFS levels from vertex 0 of a random sparse digraph."""

    name = "bfs"
    dwarf = Dwarf.GRAPH_TRAVERSAL

    #: average out-degree of generated graphs.
    MEAN_DEGREE = 8

    def prepare(self, data_size: int, rng: np.random.Generator) -> dict[str, Any]:
        n_edges = int(data_size)
        if n_edges < 1:
            raise ValueError("need at least one edge")
        n_nodes = max(2, n_edges // self.MEAN_DEGREE)
        src = rng.integers(0, n_nodes, size=n_edges)
        dst = rng.integers(0, n_nodes, size=n_edges)
        # Chain edges keep the graph connected so BFS reaches everything.
        chain_src = np.arange(n_nodes - 1)
        chain_dst = chain_src + 1
        return {
            "src": np.concatenate([src, chain_src]),
            "dst": np.concatenate([dst, chain_dst]),
            "n_nodes": n_nodes,
            "source": 0,
        }

    def run(
        self, src: np.ndarray, dst: np.ndarray, n_nodes: int, source: int
    ) -> np.ndarray:
        levels = np.full(n_nodes, -1, dtype=np.int64)
        levels[source] = 0
        frontier = np.zeros(n_nodes, dtype=bool)
        frontier[source] = True
        level = 0
        while frontier.any():
            # next frontier: any unvisited vertex reachable from the frontier
            reach = np.zeros(n_nodes, dtype=bool)
            reach[dst[frontier[src]]] = True
            nxt = reach & (levels < 0)
            level += 1
            levels[nxt] = level
            frontier = nxt
        return levels

    def verify(
        self,
        output: np.ndarray,
        src: np.ndarray,
        dst: np.ndarray,
        n_nodes: int,
        source: int,
    ) -> bool:
        if output.shape != (n_nodes,) or output[source] != 0:
            return False
        lu, lv = output[src], output[dst]
        # Every edge from a reached vertex bounds its head's level.
        reached = lu >= 0
        if not np.all(lv[reached] >= 0):
            return False
        if not np.all(lv[reached] <= lu[reached] + 1):
            return False
        # Every reached non-source vertex has a predecessor one level up.
        for level in range(1, int(output.max()) + 1):
            members = np.flatnonzero(output == level)
            if members.size == 0:
                return False  # levels must be contiguous
            has_parent = np.zeros(n_nodes, dtype=bool)
            parents = output[src] == level - 1
            has_parent[dst[parents]] = True
            if not np.all(has_parent[members]):
                return False
        return True


kernel_registry.register(BFSKernel())
