"""Unit tests for the DFG container."""

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.dfg import DFG, KernelSpec


def k(name="k", size=100) -> KernelSpec:
    return KernelSpec(name, size)


class TestKernelSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            KernelSpec("", 10)
        with pytest.raises(ValueError):
            KernelSpec("k", 0)

    def test_frozen_and_hashable(self):
        s = k()
        assert hash(s) == hash(KernelSpec("k", 100))
        with pytest.raises(AttributeError):
            s.kernel = "other"


class TestConstruction:
    def test_sequential_ids(self):
        dfg = DFG()
        assert dfg.add_kernel(k()) == 0
        assert dfg.add_kernel(k()) == 1

    def test_explicit_ids(self):
        dfg = DFG()
        assert dfg.add_kernel(k(), kid=7) == 7
        # sequential allocation continues after the explicit id
        assert dfg.add_kernel(k()) == 8

    def test_duplicate_id_rejected(self):
        dfg = DFG()
        dfg.add_kernel(k(), kid=0)
        with pytest.raises(ValueError):
            dfg.add_kernel(k(), kid=0)

    def test_negative_id_rejected(self):
        with pytest.raises(ValueError):
            DFG().add_kernel(k(), kid=-1)

    def test_dependency_endpoints_must_exist(self):
        dfg = DFG()
        dfg.add_kernel(k())
        with pytest.raises(KeyError):
            dfg.add_dependency(0, 99)

    def test_self_dependency_rejected(self):
        dfg = DFG()
        dfg.add_kernel(k())
        with pytest.raises(ValueError):
            dfg.add_dependency(0, 0)

    def test_cycle_rejected_and_rolled_back(self):
        dfg = DFG()
        for _ in range(3):
            dfg.add_kernel(k())
        dfg.add_dependency(0, 1)
        dfg.add_dependency(1, 2)
        with pytest.raises(ValueError, match="cycle"):
            dfg.add_dependency(2, 0)
        # the offending edge was rolled back
        assert (2, 0) not in dfg.edges()
        dfg.validate()

    def test_from_kernels_constructor(self):
        dfg = DFG.from_kernels([k("a"), k("b")], dependencies=[(0, 1)], name="x")
        assert len(dfg) == 2
        assert dfg.edges() == [(0, 1)]
        assert dfg.name == "x"


class TestQueries:
    @pytest.fixture
    def diamond(self) -> DFG:
        #   0
        #  / \
        # 1   2
        #  \ /
        #   3
        return DFG.from_kernels(
            [k("a"), k("b"), k("c"), k("d")],
            dependencies=[(0, 1), (0, 2), (1, 3), (2, 3)],
        )

    def test_entry_and_exit(self, diamond):
        assert diamond.entry_kernels() == [0]
        assert diamond.exit_kernels() == [3]

    def test_predecessors_successors(self, diamond):
        assert diamond.predecessors(3) == [1, 2]
        assert diamond.successors(0) == [1, 2]
        assert diamond.predecessors(0) == []

    def test_topological_order_respects_edges(self, diamond):
        order = diamond.topological_order()
        pos = {kid: i for i, kid in enumerate(order)}
        for u, v in diamond.edges():
            assert pos[u] < pos[v]

    def test_iteration_in_id_order(self, diamond):
        assert list(diamond) == [0, 1, 2, 3]

    def test_contains_and_len(self, diamond):
        assert 2 in diamond
        assert 9 not in diamond
        assert len(diamond) == 4
        assert diamond.n_edges == 4

    def test_spec_retrieval(self, diamond):
        assert diamond.spec(1).kernel == "b"

    def test_subgraph_counts(self):
        dfg = DFG.from_kernels([k("x"), k("x"), k("y")])
        assert dfg.subgraph_counts() == {"x": 2, "y": 1}

    def test_empty_dfg(self):
        dfg = DFG()
        assert dfg.is_empty()
        assert dfg.entry_kernels() == []
        dfg.validate()

    def test_neighbours_of_unknown_id_raise_keyerror(self, diamond):
        with pytest.raises(KeyError):
            diamond.predecessors(9)
        with pytest.raises(KeyError):
            diamond.successors(9)

    def test_neighbour_lists_are_fresh_copies(self, diamond):
        diamond.predecessors(3).append(0)
        diamond.successors(0).clear()
        diamond.edges().clear()
        assert diamond.predecessors(3) == [1, 2]
        assert diamond.successors(0) == [1, 2]
        assert diamond.n_edges == 4

    def test_hashable_by_identity_and_weakrefable(self, diamond):
        # the sweep memoizes per DFG in a WeakKeyDictionary
        twin = DFG.from_kernels(
            [k("a"), k("b"), k("c"), k("d")],
            dependencies=[(0, 1), (0, 2), (1, 3), (2, 3)],
        )
        assert diamond != twin
        memo = weakref.WeakKeyDictionary({diamond: 1, twin: 2})
        assert memo[diamond] == 1 and memo[twin] == 2
        del twin
        gc.collect()
        assert list(memo) == [diamond]


class TestBulkDependencies:
    def test_bulk_matches_per_edge(self):
        specs = [KernelSpec("k", 10) for _ in range(5)]
        a = DFG.from_kernels(specs)
        b = DFG.from_kernels(specs)
        edges = [(0, 2), (1, 2), (2, 3), (2, 4)]
        for u, v in edges:
            a.add_dependency(u, v)
        b.add_dependencies(edges)
        assert a.edges() == b.edges()

    def test_bulk_rejects_cycle_and_rolls_back(self):
        dfg = DFG.from_kernels([KernelSpec("k", 10) for _ in range(3)])
        dfg.add_dependency(0, 1)
        with pytest.raises(ValueError, match="cycle"):
            dfg.add_dependencies([(1, 2), (2, 0)])
        assert dfg.edges() == [(0, 1)]

    def test_bulk_rejects_unknown_endpoint(self):
        dfg = DFG.from_kernels([KernelSpec("k", 10)])
        with pytest.raises(KeyError):
            dfg.add_dependencies([(0, 99)])

    def test_bulk_rejects_self_dependency(self):
        dfg = DFG.from_kernels([KernelSpec("k", 10) for _ in range(2)])
        with pytest.raises(ValueError, match="self-dependency"):
            dfg.add_dependencies([(1, 1)])


# ----------------------------------------------------------------------
# differential property test: DFG ≡ a brute-force edge-set model
# ----------------------------------------------------------------------
def _reachable(nodes, edges):
    """``reach[k]``: every node a path leads to from ``k``, found by
    relaxing every edge until nothing changes."""
    reach = {k: set() for k in nodes}
    changed = True
    while changed:
        changed = False
        for u, v in edges:
            new = {v} | reach[v]
            if not new <= reach[u]:
                reach[u] |= new
                changed = True
    return reach


class _Oracle:
    """A DAG over kernels ``0..n-1`` kept as a plain edge set."""

    def __init__(self, n):
        self.nodes = range(n)
        self.edges = set()

    def add(self, batch):
        """Insert all of ``batch`` or none of it; returns the exception
        type :meth:`DFG.add_dependencies` should raise, or ``None``."""
        for u, v in batch:
            if u not in self.nodes or v not in self.nodes:
                return KeyError
            if u == v:
                return ValueError
        candidate = self.edges | set(batch)
        reach = _reachable(self.nodes, candidate)
        if any(k in reach[k] for k in self.nodes):
            return ValueError
        self.edges = candidate
        return None

    def predecessors(self, kid):
        return sorted(u for u, v in self.edges if v == kid)

    def successors(self, kid):
        return sorted(v for u, v in self.edges if u == kid)

    def topological_order(self):
        """Repeatedly place the smallest id whose predecessors are placed."""
        order = []
        while len(order) < len(self.nodes):
            order.append(
                min(
                    k
                    for k in self.nodes
                    if k not in order
                    and all(u in order for u in self.predecessors(k))
                )
            )
        return order


@st.composite
def _programs(draw):
    """``n`` kernels and a sequence of single-edge and batch insertions.

    Forward, backward, duplicate, self and unknown-endpoint edges all
    occur, alone and mixed in batches.  Each existing id is drawn three
    times as often as each of the unknown ids ``-1`` and ``n``, so most
    batches get past the endpoint check, and programs are at least ten
    operations long, so a backward edge is usually followed by edges
    that would close a cycle through it.
    """
    n = draw(st.integers(1, 12))
    kid = st.sampled_from([*range(n)] * 3 + [-1, n])
    edge = st.tuples(kid, kid)
    op = st.one_of(
        edge.map(lambda e: ("one", [e])),
        st.lists(edge, max_size=5).map(lambda batch: ("batch", batch)),
    )
    return n, draw(st.lists(op, min_size=10, max_size=40))


class TestMatchesOracle:
    """Drive random insertion programs through the DFG and the oracle and
    require the same decision, exception type and graph after every
    step."""

    @settings(max_examples=200, deadline=None)
    @given(program=_programs())
    def test_same_graph_after_every_operation(self, program):
        n, ops = program
        dfg = DFG.from_kernels([k() for _ in range(n)])
        oracle = _Oracle(n)
        for kind, batch in ops:
            before = dfg.edges()
            expected = oracle.add(batch)
            raised = None
            try:
                if kind == "one":
                    dfg.add_dependency(*batch[0])
                else:
                    dfg.add_dependencies(batch)
            except (KeyError, ValueError) as exc:
                raised = type(exc)
            assert raised is expected
            if raised is not None:
                assert dfg.edges() == before
            assert dfg.edges() == sorted(oracle.edges)
            assert dfg.n_edges == len(oracle.edges)
            for kid in range(n):
                assert dfg.predecessors(kid) == oracle.predecessors(kid)
                assert dfg.successors(kid) == oracle.successors(kid)
            assert dfg.entry_kernels() == [
                kid for kid in range(n) if not oracle.predecessors(kid)
            ]
            assert dfg.exit_kernels() == [
                kid for kid in range(n) if not oracle.successors(kid)
            ]
            assert dfg.topological_order() == oracle.topological_order()
