"""Unit tests for workload generators."""

import numpy as np
import pytest

from repro.graphs.analysis import levels, parallelism_profile
from repro.graphs.dfg import KernelSpec
from repro.graphs.generators import (
    PAPER_KERNEL_POPULATION,
    TYPE2_MIN_KERNELS,
    KernelPopulation,
    make_chain_dfg,
    make_fork_join_dfg,
    make_independent_dfg,
    make_layered_dfg,
    make_type1_dfg,
    make_type2_dfg,
)


def regrouping_sample(
    choices: "tuple[tuple[str, int], ...]", rng: np.random.Generator
) -> KernelSpec:
    """The population's draw as first written: regroup every time, then
    draw a kernel type and one of its sizes."""
    by_kernel: dict[str, list[int]] = {}
    for kernel, size in choices:
        by_kernel.setdefault(kernel, []).append(size)
    names = sorted(by_kernel)
    kernel = names[int(rng.integers(len(names)))]
    sizes = by_kernel[kernel]
    return KernelSpec(kernel, sizes[int(rng.integers(len(sizes)))])


class TestKernelPopulation:
    @pytest.mark.parametrize(
        "population",
        [PAPER_KERNEL_POPULATION, KernelPopulation((("b", 1), ("a", 2), ("b", 3)))],
        ids=["paper", "interleaved-unsorted"],
    )
    def test_sample_matches_the_regrouping_draw(self, population):
        ours, reference = np.random.default_rng(5), np.random.default_rng(5)
        drawn = [population.sample(ours) for _ in range(10_000)]
        expected = [regrouping_sample(population.choices, reference) for _ in range(10_000)]
        assert drawn == expected
        # the same draws, too: both generators end in the same state
        assert ours.integers(1 << 62) == reference.integers(1 << 62)

    def test_grouping_is_not_part_of_identity(self):
        choices = (("b", 1), ("a", 2))
        assert KernelPopulation(choices) == KernelPopulation(choices)
        assert hash(KernelPopulation(choices)) == hash(KernelPopulation(choices))
        assert repr(KernelPopulation(choices)) == f"KernelPopulation(choices={choices!r})"

    def test_sample_draws_from_choices(self, rng):
        pop = KernelPopulation((("a", 10), ("b", 20)))
        seen = {pop.sample(rng).kernel for _ in range(50)}
        assert seen == {"a", "b"}

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError):
            KernelPopulation(())

    def test_paper_population_covers_all_seven_kernels(self):
        kernels = {k for k, _ in PAPER_KERNEL_POPULATION.choices}
        assert kernels == {"matmul", "matinv", "cholesky", "nw", "bfs", "srad", "gem"}

    def test_sample_many_length(self, rng):
        assert len(PAPER_KERNEL_POPULATION.sample_many(17, rng)) == 17


class TestType1:
    def test_structure(self, rng):
        dfg = make_type1_dfg(9, rng=rng)
        # Figure 3: 8 parallel kernels at level 0, the 9th joins them all.
        assert len(dfg) == 9
        assert dfg.entry_kernels() == list(range(8))
        assert dfg.exit_kernels() == [8]
        assert dfg.predecessors(8) == list(range(8))
        assert parallelism_profile(dfg) == [8, 1]

    def test_minimum_size(self, rng):
        with pytest.raises(ValueError):
            make_type1_dfg(1, rng=rng)
        dfg = make_type1_dfg(2, rng=rng)
        assert dfg.edges() == [(0, 1)]

    def test_deterministic_given_seed(self):
        a = make_type1_dfg(20, rng=np.random.default_rng(5))
        b = make_type1_dfg(20, rng=np.random.default_rng(5))
        assert [a.spec(i) for i in a] == [b.spec(i) for i in b]

    def test_explicit_specs(self):
        specs = [KernelSpec("bfs", 2_034_736)] * 5
        dfg = make_type1_dfg(5, specs=specs)
        assert all(dfg.spec(i).kernel == "bfs" for i in dfg)

    def test_spec_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            make_type1_dfg(5, specs=[KernelSpec("bfs", 10)] * 4)

    def test_needs_rng_or_specs(self):
        with pytest.raises(ValueError):
            make_type1_dfg(5)


class TestType2:
    def test_kernel_count_exact(self, rng):
        for n in (TYPE2_MIN_KERNELS, 46, 73, 157):
            dfg = make_type2_dfg(n, rng=np.random.default_rng(n))
            assert len(dfg) == n

    def test_minimum_enforced(self, rng):
        with pytest.raises(ValueError):
            make_type2_dfg(TYPE2_MIN_KERNELS - 1, rng=rng)

    def test_single_entry_single_exit(self, rng):
        dfg = make_type2_dfg(46, rng=rng)
        assert len(dfg.entry_kernels()) == 1
        assert len(dfg.exit_kernels()) == 1

    def test_has_three_diamond_blocks(self, rng):
        # Each diamond contributes one level whose width is its middle
        # count; the chain contributes width-1 levels.  With n=46 the
        # 46 - 4 chain - 6 top/bottom = 36 middles split 12/12/12.
        dfg = make_type2_dfg(46, rng=rng)
        widths = parallelism_profile(dfg)
        assert sorted(widths, reverse=True)[:3] == [12, 12, 12]
        assert widths.count(1) == len(widths) - 3

    def test_depth_is_fixed_regardless_of_n(self, rng):
        # Growing n only widens the diamonds (paper: "the structure
        # remains the same").
        d46 = make_type2_dfg(46, rng=np.random.default_rng(1))
        d157 = make_type2_dfg(157, rng=np.random.default_rng(2))
        assert len(parallelism_profile(d46)) == len(parallelism_profile(d157))

    def test_validates_as_dag(self, rng):
        make_type2_dfg(93, rng=rng).validate()


class TestOtherGenerators:
    def test_independent_has_no_edges(self, rng):
        dfg = make_independent_dfg(12, rng=rng)
        assert dfg.n_edges == 0
        assert len(dfg) == 12

    def test_chain_is_serial(self, rng):
        dfg = make_chain_dfg(6, rng=rng)
        assert dfg.edges() == [(i, i + 1) for i in range(5)]
        assert parallelism_profile(dfg) == [1] * 6

    def test_fork_join_shape(self, rng):
        dfg = make_fork_join_dfg(4, rng=rng)
        assert len(dfg) == 6
        assert parallelism_profile(dfg) == [1, 4, 1]

    def test_layered_every_nonentry_has_predecessor(self, rng):
        dfg = make_layered_dfg(40, 5, rng=rng)
        lv = levels(dfg)
        for kid in dfg:
            if lv[kid] > 0:
                assert dfg.predecessors(kid)

    def test_layered_respects_layer_count(self, rng):
        dfg = make_layered_dfg(30, 6, rng=rng)
        assert len(parallelism_profile(dfg)) <= 6
        assert len(dfg) == 30

    def test_layered_parameter_validation(self, rng):
        with pytest.raises(ValueError):
            make_layered_dfg(3, 5, rng=rng)
        with pytest.raises(ValueError):
            make_layered_dfg(10, 2, rng=rng, edge_probability=1.5)

    def test_chain_and_forkjoin_validation(self, rng):
        with pytest.raises(ValueError):
            make_chain_dfg(0, rng=rng)
        with pytest.raises(ValueError):
            make_fork_join_dfg(0, rng=rng)
        with pytest.raises(ValueError):
            make_independent_dfg(0, rng=rng)


class TestPipelineDFG:
    def test_stage_structure(self, rng, synth_population):
        from repro.graphs.generators import make_pipeline_dfg

        dfg = make_pipeline_dfg(10, rng=rng, population=synth_population, stage_width=4)
        assert len(dfg) == 10
        # stages: [0-3], [4-7], [8-9]; each kernel depends on full prior stage
        assert dfg.predecessors(4) == [0, 1, 2, 3]
        assert dfg.predecessors(8) == [4, 5, 6, 7]
        assert dfg.entry_kernels() == [0, 1, 2, 3]

    def test_parallelism_bounded_by_stage_width(self, rng, synth_population):
        from repro.graphs.analysis import parallelism_profile
        from repro.graphs.generators import make_pipeline_dfg

        dfg = make_pipeline_dfg(40, rng=rng, population=synth_population, stage_width=5)
        assert max(parallelism_profile(dfg)) <= 5

    def test_single_stage_is_independent(self, rng, synth_population):
        from repro.graphs.generators import make_pipeline_dfg

        dfg = make_pipeline_dfg(3, rng=rng, population=synth_population, stage_width=8)
        assert dfg.n_edges == 0

    def test_validation(self, rng, synth_population):
        from repro.graphs.generators import make_pipeline_dfg

        with pytest.raises(ValueError):
            make_pipeline_dfg(0, rng=rng, population=synth_population)
        with pytest.raises(ValueError):
            make_pipeline_dfg(5, rng=rng, population=synth_population, stage_width=0)
