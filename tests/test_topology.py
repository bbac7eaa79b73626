"""Unit tests for the interconnect-topology model (`repro.core.topology`)."""

import math

import pytest

from repro.core.system import Processor, ProcessorType, SystemConfig
from repro.core.topology import (
    ContentionManager,
    TopoLink,
    Topology,
    bus_topology,
    fat_tree_topology,
    mesh_topology,
    star_topology,
    tree_topology,
)


class TestTopoLink:
    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ValueError):
            TopoLink("a", "b", 0.0)
        with pytest.raises(ValueError):
            TopoLink("a", "b", -4.0)

    def test_rejects_nan_bandwidth_and_latency(self):
        with pytest.raises(ValueError):
            TopoLink("a", "b", float("nan"))
        with pytest.raises(ValueError):
            TopoLink("a", "b", 4.0, latency_ms=float("nan"))

    def test_accepts_infinite_bandwidth(self):
        assert math.isinf(TopoLink("a", "b", float("inf")).bandwidth_gbps)

    def test_rejects_negative_latency_and_self_link(self):
        with pytest.raises(ValueError):
            TopoLink("a", "b", 4.0, latency_ms=-1.0)
        with pytest.raises(ValueError):
            TopoLink("a", "a", 4.0)


class TestTopologyConstruction:
    def test_rejects_duplicate_links(self):
        with pytest.raises(ValueError, match="duplicate"):
            Topology([TopoLink("a", "b", 4.0), TopoLink("b", "a", 8.0)])

    def test_rejects_disconnected_processors(self):
        with pytest.raises(ValueError, match="disconnected"):
            Topology([TopoLink("a", "b", 4.0), TopoLink("c", "d", 4.0)])

    def test_rejects_all_switch_topology(self):
        with pytest.raises(ValueError, match="processor node"):
            Topology([TopoLink("s1", "s2", 4.0)], switches=["s1", "s2"])

    def test_rejects_medium_bandwidth_disagreement(self):
        with pytest.raises(ValueError, match="disagree"):
            Topology(
                [
                    TopoLink("a", "x", 4.0, medium="bus"),
                    TopoLink("b", "x", 8.0, medium="bus"),
                ],
                switches=["x"],
            )

    def test_processor_nodes_exclude_switches(self):
        topo = star_topology(["a", "b"], 4.0, switch="hub")
        assert topo.processor_nodes == ("a", "b")
        assert topo.switches == frozenset({"hub"})


class TestRoutes:
    def test_star_route_two_hops_bottleneck(self):
        topo = star_topology(["a", "b", "c"], 4.0)
        route = topo.route("a", "b")
        assert route.hops == ("a", "hub", "b")
        assert route.bottleneck_gbps == 4.0
        assert route.latency_ms == 0.0

    def test_route_bottleneck_is_min_bandwidth(self):
        topo = tree_topology({"l0": ["a"], "l1": ["b"]}, leaf_gbps=4.0, uplink_gbps=16.0)
        assert topo.route("a", "b").bottleneck_gbps == 4.0

    def test_route_latency_sums_over_hops(self):
        topo = Topology(
            [
                TopoLink("a", "s", 4.0, latency_ms=0.25),
                TopoLink("s", "b", 4.0, latency_ms=0.5),
            ],
            switches=["s"],
        )
        assert topo.route("a", "b").latency_ms == pytest.approx(0.75)

    def test_transfer_time_is_latency_plus_bottleneck_division(self):
        topo = Topology(
            [
                TopoLink("a", "s", 4.0, latency_ms=1.0),
                TopoLink("s", "b", 8.0),
            ],
            switches=["s"],
        )
        # bottleneck 4 GB/s = 4e6 bytes/ms; 4e6 bytes = 1 ms, plus 1 ms latency
        assert topo.transfer_time_ms("a", "b", 4_000_000) == pytest.approx(2.0)

    def test_same_node_transfer_is_free(self):
        topo = star_topology(["a", "b"], 4.0)
        assert topo.transfer_time_ms("a", "a", 1e9) == 0.0

    def test_unknown_route_rejected(self):
        topo = star_topology(["a", "b"], 4.0)
        with pytest.raises(KeyError):
            topo.route("a", "ghost")

    def test_mesh_prefers_direct_link(self):
        topo = mesh_topology(["g0", "g1", "g2"], mesh_gbps=25.0)
        assert topo.route("g0", "g2").hops == ("g0", "g2")

    def test_shared_medium_counts_once_per_route(self):
        topo = bus_topology(["a", "b"], 1.0)
        route = topo.route("a", "b")
        # two hops over the bus medium collapse to one contention channel
        assert len(route.channels) == 1

    def test_fat_tree_shape(self):
        procs = [f"p{i}" for i in range(12)]
        topo = fat_tree_topology(procs, leaf_size=3, edge_gbps=8.0, uplink_gbps=16.0)
        assert topo.processor_nodes == tuple(sorted(procs))
        # intra-leaf: 2 hops through the leaf; cross-leaf: 4 hops via root
        assert len(topo.route("p0", "p1").hops) == 3
        assert len(topo.route("p0", "p3").hops) == 5
        assert topo.route("p0", "p3").bottleneck_gbps == 8.0


class TestSerialization:
    def test_round_trip(self):
        topo = tree_topology(
            {"s0": ["a", "b"], "s1": ["c"]},
            leaf_gbps=8.0,
            uplink_gbps=16.0,
            contention=True,
            name="t",
        )
        clone = Topology.from_dict(topo.to_dict())
        assert clone.to_dict() == topo.to_dict()
        assert clone.contended is True
        assert clone.route("a", "c").hops == topo.route("a", "c").hops

    def test_infinite_bandwidth_round_trips_via_json(self):
        import json

        topo = Topology([TopoLink("a", "b", float("inf"))])
        blob = json.dumps(topo.to_dict())
        clone = Topology.from_dict(json.loads(blob))
        assert math.isinf(clone.links[0].bandwidth_gbps)


class TestContentionManager:
    def make(self, n=3, bw=1.0):
        topo = bus_topology([f"p{i}" for i in range(n)], bw)
        return topo, ContentionManager(topo)

    def test_single_flow_drains_at_full_bandwidth(self):
        topo, cman = self.make()
        ests = cman.join("f1", topo.route("p0", "p1"), 1_000_000, now=0.0)
        assert len(ests) == 1
        # 1 GB/s = 1e6 bytes/ms: 1e6 bytes take exactly 1 ms
        assert ests[0].finish_time == pytest.approx(1.0)

    def test_two_flows_share_the_bus_equally(self):
        topo, cman = self.make()
        cman.join("f1", topo.route("p0", "p1"), 1_000_000, now=0.0)
        ests = cman.join("f2", topo.route("p2", "p1"), 1_000_000, now=0.0)
        # both flows now drain at half rate: 2 ms from now
        assert {e.key for e in ests} == {"f1", "f2"}
        for est in ests:
            assert est.finish_time == pytest.approx(2.0)

    def test_departure_restores_full_bandwidth(self):
        topo, cman = self.make()
        cman.join("f1", topo.route("p0", "p1"), 1_000_000, now=0.0)
        ests = cman.join("f2", topo.route("p2", "p1"), 500_000, now=0.0)
        f2 = next(e for e in ests if e.key == "f2")
        # f2's 0.5e6 bytes at half rate (0.5e6 bytes/ms) -> done at t=1
        assert f2.finish_time == pytest.approx(1.0)
        out = cman.complete("f2", f2.version, now=1.0)
        # f1 drained 0.5e6 at half rate; remaining 0.5e6 at full rate -> 1.5
        assert [e.key for e in out] == ["f1"]
        assert out[0].finish_time == pytest.approx(1.5)

    def test_stale_version_returns_none(self):
        topo, cman = self.make()
        ests = cman.join("f1", topo.route("p0", "p1"), 1_000_000, now=0.0)
        stale = ests[0].version - 1
        assert cman.complete("f1", stale, now=1.0) is None
        assert "f1" in cman

    def test_duplicate_flow_key_rejected(self):
        topo, cman = self.make()
        cman.join("f1", topo.route("p0", "p1"), 1_000, now=0.0)
        with pytest.raises(ValueError):
            cman.join("f1", topo.route("p0", "p1"), 1_000, now=0.0)

    def test_disjoint_channels_do_not_contend(self):
        topo = star_topology(["a", "b", "c", "d"], 4.0)
        cman = ContentionManager(topo)
        cman.join("f1", topo.route("a", "b"), 4_000_000, now=0.0)
        ests = cman.join("f2", topo.route("c", "d"), 4_000_000, now=0.0)
        # routes a-hub-b and c-hub-d share no edge: both run at full rate
        for est in ests:
            assert est.finish_time == pytest.approx(1.0)


class TestSystemIntegration:
    def procs(self):
        return [
            Processor("cpu0", ProcessorType.CPU),
            Processor("gpu0", ProcessorType.GPU),
        ]

    def test_topology_must_cover_system_processors(self):
        with pytest.raises(ValueError, match="match"):
            SystemConfig(self.procs(), topology=star_topology(["cpu0"], 4.0))

    def test_star_transfer_matches_flat_bit_for_bit(self):
        flat = SystemConfig(self.procs(), transfer_rate_gbps=4.0)
        star = SystemConfig(
            self.procs(), topology=star_topology(["cpu0", "gpu0"], 4.0)
        )
        for nbytes in (1, 1234, 4_000_000, 123_456_789):
            assert star.transfer_time_ms("cpu0", "gpu0", nbytes) == flat.transfer_time_ms(
                "cpu0", "gpu0", nbytes
            )

    def test_route_query_none_on_flat_systems(self):
        flat = SystemConfig(self.procs())
        assert flat.route("cpu0", "gpu0") is None
        star = SystemConfig(
            self.procs(), topology=star_topology(["cpu0", "gpu0"], 4.0)
        )
        assert star.route("cpu0", "gpu0").hops == ("cpu0", "hub", "gpu0")

    def test_context_transfer_sources_skip_zero_cost_routes(self):
        # SchedulingContext.transfer_sources mirrors the simulator's
        # contended-transfer source filter: a route that charges nothing
        # (infinite bandwidth, zero latency) opens no flow.
        from repro.core.cost import CostModel
        from repro.data.paper_tables import paper_lookup_table
        from repro.graphs.dfg import DFG, KernelSpec
        from repro.policies.base import SchedulingContext

        procs = [
            Processor("a", ProcessorType.CPU),
            Processor("b", ProcessorType.GPU),
            Processor("c", ProcessorType.FPGA),
        ]
        topo = Topology(
            [
                TopoLink("a", "c", float("inf")),
                TopoLink("b", "c", 4.0),
                TopoLink("a", "b", 4.0),
            ]
        )
        system = SystemConfig(procs, topology=topo)
        dfg = DFG("t")
        k0 = dfg.add_kernel(KernelSpec("matmul", 1000))
        k1 = dfg.add_kernel(KernelSpec("bfs", 1000))
        k2 = dfg.add_kernel(KernelSpec("srad", 1000))
        dfg.add_dependencies([(k0, k2), (k1, k2)])
        ctx = SchedulingContext(
            time=0.0,
            ready=(k2,),
            dfg=dfg,
            system=system,
            cost=CostModel(system, paper_lookup_table()),
            assignment_of={k0: "a", k1: "b"},
        )
        assert ctx.transfer_sources(k2, "c") == ["b"]  # a->c is free (inf bw)
        assert ctx.transfer_sources(k2, "a") == ["b"]  # k0 already on target
        assert ctx.transfer_sources(k0, "c") == []  # entry kernel

    def test_describe_mentions_topology(self):
        star = SystemConfig(
            self.procs(), topology=star_topology(["cpu0", "gpu0"], 4.0, name="mystar")
        )
        assert "mystar" in star.describe()
