"""Workload generators.

The paper's input-stream generator "accepts for an input a series of
kernels [with] different number of kernels and different data sizes for
each kernel … then fit into the model/type of DFG" (§3.2).  Two shapes
are used:

* **DFG Type-1** (Figure 3): with *n* kernels, *n−1* are independent
  ("level-1", all executable in parallel) and one final kernel runs after
  all of them.
* **DFG Type-2** (Figure 4): chains of individual kernels interleaved
  with exactly three "kernel graph blocks" — diamonds with one kernel at
  the top, multiple independent kernels in the middle, one at the bottom.
  Growing *n* grows only the diamond middles; the structure is fixed.

Both draw kernel types and data sizes from a :class:`KernelPopulation`.
General-purpose generators (layered DAG, chain, fork-join, independent)
round out the library for workloads beyond the paper's.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graphs.dfg import DFG, KernelSpec

#: Number of diamond blocks in a Type-2 graph (fixed by Figure 4).
_TYPE2_BLOCKS = 3
#: Individual chain kernels in a Type-2 graph: one before each block and a
#: final one after the last block.
_TYPE2_CHAIN = _TYPE2_BLOCKS + 1
#: Smallest Type-2 graph: chain kernels + three blocks of (top, 1 middle, bottom).
TYPE2_MIN_KERNELS = _TYPE2_CHAIN + _TYPE2_BLOCKS * 3


@dataclass(frozen=True)
class KernelPopulation:
    """A sampling distribution over kernel types and data sizes.

    ``choices`` is a flat tuple of ``(kernel, data_size)`` pairs.
    Sampling picks a kernel *type* uniformly, then one of its measured
    sizes uniformly.  The paper's appendix B implies this weighting: in
    its α = 4 allocation tables, SRAD and NW — single-size kernels — each
    account for ~10-15 % of a graph's kernels, which pair-uniform
    sampling over Table 14 (where the linear-algebra kernels have 7 sizes
    each) could not produce.
    """

    choices: tuple[tuple[str, int], ...]
    #: ``choices`` grouped once per population: one tuple of specs per
    #: kernel type, types in name order, sizes in choice order.
    _groups: tuple[tuple[KernelSpec, ...], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.choices:
            raise ValueError("population must have at least one (kernel, size) choice")
        by_kernel: dict[str, list[KernelSpec]] = {}
        for kernel, size in self.choices:
            by_kernel.setdefault(kernel, []).append(KernelSpec(kernel, size))
        groups = tuple(tuple(by_kernel[kernel]) for kernel in sorted(by_kernel))
        object.__setattr__(self, "_groups", groups)

    def sample(self, rng: np.random.Generator) -> KernelSpec:
        # two draws, type then size: every seeded graph depends on this order
        group = self._groups[int(rng.integers(len(self._groups)))]
        return group[int(rng.integers(len(group)))]

    def sample_many(self, n: int, rng: np.random.Generator) -> list[KernelSpec]:
        return [self.sample(rng) for _ in range(n)]

    @classmethod
    def uniform_kernels(
        cls, sizes_by_kernel: dict[str, tuple[int, ...]]
    ) -> "KernelPopulation":
        return cls(
            tuple(
                (kernel, size)
                for kernel, sizes in sorted(sizes_by_kernel.items())
                for size in sizes
            )
        )


#: The paper's kernel/data-size population (every Table 14 row).
PAPER_KERNEL_POPULATION = KernelPopulation.uniform_kernels(
    {
        "matmul": (250_000, 698_896, 1_000_000, 4_000_000, 16_000_000, 36_000_000, 64_000_000),
        "matinv": (250_000, 698_896, 1_000_000, 4_000_000, 16_000_000, 36_000_000, 64_000_000),
        "cholesky": (250_000, 698_896, 1_000_000, 4_000_000, 16_000_000, 36_000_000, 64_000_000),
        "nw": (16_777_216,),
        "bfs": (2_034_736,),
        "srad": (134_217_728,),
        "gem": (2_070_376,),
    }
)


def _resolve_specs(
    n_kernels: int,
    rng: np.random.Generator | None,
    population: KernelPopulation,
    specs: list[KernelSpec] | None,
) -> list[KernelSpec]:
    if specs is not None:
        if len(specs) != n_kernels:
            raise ValueError(f"need {n_kernels} specs, got {len(specs)}")
        return list(specs)
    if rng is None:
        raise ValueError("pass either rng (to sample) or explicit specs")
    return population.sample_many(n_kernels, rng)


def make_type1_dfg(
    n_kernels: int,
    rng: np.random.Generator | None = None,
    population: KernelPopulation = PAPER_KERNEL_POPULATION,
    specs: list[KernelSpec] | None = None,
    name: str | None = None,
) -> DFG:
    """DFG Type-1: *n−1* independent kernels, then one join kernel.

    Kernels 0…n−2 form level-1 (no dependencies); kernel n−1 depends on
    all of them.
    """
    if n_kernels < 2:
        raise ValueError(f"Type-1 needs at least 2 kernels, got {n_kernels}")
    all_specs = _resolve_specs(n_kernels, rng, population, specs)
    dfg = DFG(name or f"type1_n{n_kernels}")
    for spec in all_specs:
        dfg.add_kernel(spec)
    last = n_kernels - 1
    for kid in range(last):
        dfg.add_dependency(kid, last)
    return dfg


def make_type2_dfg(
    n_kernels: int,
    rng: np.random.Generator | None = None,
    population: KernelPopulation = PAPER_KERNEL_POPULATION,
    specs: list[KernelSpec] | None = None,
    name: str | None = None,
) -> DFG:
    """DFG Type-2: a chain threading three diamond kernel-graph blocks.

    Layout (ids in arrival order)::

        c0 -> [top, middles..., bottom] -> c1 -> [block] -> c2 -> [block] -> c3

    where each block's top depends on the preceding chain kernel, the
    middles depend on the top and run in parallel, the bottom joins the
    middles, and the next chain kernel depends on the bottom.  Growing
    ``n_kernels`` widens the diamond middles only.
    """
    if n_kernels < TYPE2_MIN_KERNELS:
        raise ValueError(
            f"Type-2 needs at least {TYPE2_MIN_KERNELS} kernels, got {n_kernels}"
        )
    all_specs = _resolve_specs(n_kernels, rng, population, specs)
    n_middle_total = n_kernels - _TYPE2_CHAIN - 2 * _TYPE2_BLOCKS
    base, rem = divmod(n_middle_total, _TYPE2_BLOCKS)
    middles = [base + (1 if b < rem else 0) for b in range(_TYPE2_BLOCKS)]

    dfg = DFG(name or f"type2_n{n_kernels}")
    it = iter(all_specs)

    def add() -> int:
        return dfg.add_kernel(next(it))

    prev = add()  # c0
    for b in range(_TYPE2_BLOCKS):
        top = add()
        dfg.add_dependency(prev, top)
        mids = [add() for _ in range(middles[b])]
        for m in mids:
            dfg.add_dependency(top, m)
        bottom = add()
        for m in mids:
            dfg.add_dependency(m, bottom)
        if not mids:  # degenerate diamond: straight edge
            dfg.add_dependency(top, bottom)
        chain = add()  # c_{b+1}
        dfg.add_dependency(bottom, chain)
        prev = chain
    return dfg


def make_independent_dfg(
    n_kernels: int,
    rng: np.random.Generator | None = None,
    population: KernelPopulation = PAPER_KERNEL_POPULATION,
    specs: list[KernelSpec] | None = None,
    name: str | None = None,
) -> DFG:
    """A bag of fully independent kernels (no edges at all)."""
    if n_kernels < 1:
        raise ValueError("need at least 1 kernel")
    all_specs = _resolve_specs(n_kernels, rng, population, specs)
    dfg = DFG(name or f"independent_n{n_kernels}")
    for spec in all_specs:
        dfg.add_kernel(spec)
    return dfg


def make_chain_dfg(
    n_kernels: int,
    rng: np.random.Generator | None = None,
    population: KernelPopulation = PAPER_KERNEL_POPULATION,
    specs: list[KernelSpec] | None = None,
    name: str | None = None,
) -> DFG:
    """A fully serial chain: kernel i depends on kernel i−1."""
    if n_kernels < 1:
        raise ValueError("need at least 1 kernel")
    all_specs = _resolve_specs(n_kernels, rng, population, specs)
    dfg = DFG(name or f"chain_n{n_kernels}")
    for spec in all_specs:
        dfg.add_kernel(spec)
    for kid in range(1, n_kernels):
        dfg.add_dependency(kid - 1, kid)
    return dfg


def make_fork_join_dfg(
    width: int,
    rng: np.random.Generator | None = None,
    population: KernelPopulation = PAPER_KERNEL_POPULATION,
    specs: list[KernelSpec] | None = None,
    name: str | None = None,
) -> DFG:
    """One source forking to ``width`` parallel kernels joined by one sink."""
    if width < 1:
        raise ValueError("width must be >= 1")
    n = width + 2
    all_specs = _resolve_specs(n, rng, population, specs)
    dfg = DFG(name or f"forkjoin_w{width}")
    for spec in all_specs:
        dfg.add_kernel(spec)
    for kid in range(1, width + 1):
        dfg.add_dependency(0, kid)
        dfg.add_dependency(kid, width + 1)
    return dfg


def make_pipeline_dfg(
    n_kernels: int,
    rng: np.random.Generator | None = None,
    population: KernelPopulation = PAPER_KERNEL_POPULATION,
    specs: list[KernelSpec] | None = None,
    stage_width: int = 8,
    name: str | None = None,
) -> DFG:
    """A streaming pipeline: chained fork-join stages of ``stage_width``.

    Stage *s* is ``stage_width`` independent kernels that all depend on
    every kernel of stage *s − 1* (the classic frame/batch pipeline: a
    batch fans out, synchronizes, and feeds the next batch).  The last
    stage takes the remainder when ``n_kernels`` is not a multiple of the
    width.

    This is the scale-scenario shape: parallelism (and therefore the
    simulator's ready set) stays bounded by ``stage_width`` no matter how
    large ``n_kernels`` grows, so 10k-kernel streams exercise the *length*
    of a run rather than one enormous ready front — the regime the
    incremental simulator hot path is built for.
    """
    if n_kernels < 1:
        raise ValueError("need at least 1 kernel")
    if stage_width < 1:
        raise ValueError("stage_width must be >= 1")
    all_specs = _resolve_specs(n_kernels, rng, population, specs)
    dfg = DFG(name or f"pipeline_n{n_kernels}_w{stage_width}")
    for spec in all_specs:
        dfg.add_kernel(spec)
    edges: list[tuple[int, int]] = []
    prev_stage: list[int] = []
    for start in range(0, n_kernels, stage_width):
        stage = list(range(start, min(start + stage_width, n_kernels)))
        edges.extend((pred, kid) for kid in stage for pred in prev_stage)
        prev_stage = stage
    dfg.add_dependencies(edges)
    return dfg


def make_layered_dfg(
    n_kernels: int,
    n_layers: int,
    rng: np.random.Generator,
    population: KernelPopulation = PAPER_KERNEL_POPULATION,
    edge_probability: float = 0.35,
    name: str | None = None,
) -> DFG:
    """A random layered DAG: kernels split across layers, edges only
    between consecutive layers, every non-entry kernel has ≥1 predecessor.

    This is the classic synthetic-DAG family of the HEFT/PEFT literature,
    included so the library generalizes beyond the paper's two shapes.
    """
    if n_layers < 1 or n_kernels < n_layers:
        raise ValueError("need n_layers >= 1 and n_kernels >= n_layers")
    if not (0.0 <= edge_probability <= 1.0):
        raise ValueError("edge_probability must be in [0, 1]")
    # Every layer gets at least one kernel; remainder spread randomly.
    layer_of = list(range(n_layers)) + [
        int(rng.integers(n_layers)) for _ in range(n_kernels - n_layers)
    ]
    layer_of.sort()
    dfg = DFG(name or f"layered_n{n_kernels}_l{n_layers}")
    for spec in population.sample_many(n_kernels, rng):
        dfg.add_kernel(spec)
    layers: dict[int, list[int]] = {}
    for kid, layer in enumerate(layer_of):
        layers.setdefault(layer, []).append(kid)
    for layer in range(1, n_layers):
        prev = layers[layer - 1]
        for kid in layers[layer]:
            preds = [u for u in prev if rng.random() < edge_probability]
            if not preds:  # guarantee a predecessor
                preds = [prev[int(rng.integers(len(prev)))]]
            for u in preds:
                dfg.add_dependency(u, kid)
    return dfg
