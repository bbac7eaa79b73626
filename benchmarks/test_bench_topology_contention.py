"""Benchmark: contention-aware topologies vs the fixed-charge path.

Scenario: the dual-socket PCIe-switch tree from the scenario catalog —
six processors, 8 GB/s leaf links, 16 GB/s inter-socket uplinks — on the
paper's Type-1 suite.  Asserts the shapes the topology subsystem
promises:

* the contended run is never faster than the uncontended one on the same
  topology (fair-share can only stretch transfers), and both are
  deterministic across repeats;
* the uniform star expression of the flat platform is bit-for-bit the
  flat platform (the equivalence guarantee the paper-number tests rest
  on);
* the contended event path's overhead over the fixed-charge path stays
  within a coarse wall-clock gate (it adds transfer events, not
  asymptotics).  Each side is timed as the best of :data:`REPEATS`
  runs with the garbage collector paused inside each timed window, so
  a fixed pause (a gen-2 collection of the long-lived test process, a
  host stall) lands in no ratio.

Writes the deterministic makespan/stretch table to
``results/topology_contention.txt`` and the machine-dependent timing
column to the untracked ``results/local/topology_contention_timing.txt``.
"""

from __future__ import annotations

import gc
import time

from benchmarks.conftest import write_artifact
from repro.core.simulator import Simulator
from repro.core.system import CPU_GPU_FPGA, Processor, ProcessorType, SystemConfig
from repro.core.topology import star_topology, tree_topology
from repro.data.paper_tables import paper_lookup_table
from repro.experiments.workloads import paper_suite
from repro.policies.registry import get_policy

POLICIES = ("apt", "met", "heft")
#: The contended path touches only kernels with cross-processor inbound
#: data; a generous gate still catches an accidentally quadratic reshare.
OVERHEAD_GATE = 3.0
#: Timed runs per suite; the best one counts.
REPEATS = 5


def _tree_system(contention: bool) -> SystemConfig:
    procs = [
        Processor(f"{kind.value}{i}", kind)
        for i in range(2)
        for kind in (ProcessorType.CPU, ProcessorType.GPU, ProcessorType.FPGA)
    ]
    topo = tree_topology(
        {"socket0": ["cpu0", "gpu0", "fpga0"], "socket1": ["cpu1", "gpu1", "fpga1"]},
        leaf_gbps=8.0,
        uplink_gbps=16.0,
        contention=contention,
        name="dual_socket_tree",
    )
    return SystemConfig(procs, topology=topo)


def _run_suite(system, lookup, suite, policy_name):
    """The suite's best wall time over :data:`REPEATS` runs, each timed
    with the collector paused, and every run's results."""
    best, runs = float("inf"), []
    for _ in range(REPEATS):
        gc.disable()
        try:
            t0 = time.perf_counter()
            results = [
                Simulator(system, lookup).run(dfg, get_policy(policy_name))
                for dfg in suite
            ]
            best = min(best, time.perf_counter() - t0)
        finally:
            gc.enable()
        runs.append(results)
    return best, runs


def test_bench_topology_contention(results_dir, local_results_dir):
    lookup = paper_lookup_table()
    suite = paper_suite(1)
    contended_sys = _tree_system(True)
    uncontended_sys = _tree_system(False)

    lines = [
        "Topology contention benchmark — dual-socket PCIe tree, Type-1 suite",
        f"system: {len(contended_sys)} processors, "
        f"{len(contended_sys.topology.links)} links",
        "",
        f"{'policy':<8} {'uncontended ms':>15} {'contended ms':>13} "
        f"{'stretch':>8}",
    ]
    timing_lines = [
        "Topology contention — wall-clock overhead (machine-dependent)",
        "",
        f"{'policy':<8} {'time x':>7}   (contended / fixed-charge, gate "
        f"{OVERHEAD_GATE}x)",
    ]
    for policy_name in POLICIES:
        t_off, (off, *_) = _run_suite(uncontended_sys, lookup, suite, policy_name)
        t_on, (on, *repeats) = _run_suite(contended_sys, lookup, suite, policy_name)
        # determinism: every repeat run is bit-for-bit identical
        for on2 in repeats:
            for r1, r2 in zip(on, on2):
                assert list(r1.schedule) == list(r2.schedule)
        mean_off = sum(r.makespan for r in off) / len(off)
        mean_on = sum(r.makespan for r in on) / len(on)
        # fair share can only stretch transfers, never shrink them
        for r_on, r_off in zip(on, off):
            assert r_on.makespan >= r_off.makespan - 1e-9, (
                f"{policy_name} on {r_on.dfg_name}: contention sped the run up"
            )
        overhead = t_on / t_off
        assert overhead < OVERHEAD_GATE, (
            f"{policy_name}: contended path {overhead:.2f}x slower than the "
            f"fixed-charge path (gate {OVERHEAD_GATE}x)"
        )
        lines.append(
            f"{policy_name:<8} {mean_off:>15,.1f} {mean_on:>13,.1f} "
            f"{mean_on / mean_off:>8.4f}"
        )
        timing_lines.append(f"{policy_name:<8} {overhead:>7.2f}")

    # star-vs-flat equivalence on one graph per policy (the cheap smoke
    # version of the exhaustive tests in test_simulator_equivalence.py)
    flat = CPU_GPU_FPGA(transfer_rate_gbps=4.0)
    star = SystemConfig(
        [Processor(p.name, p.ptype) for p in flat],
        topology=star_topology([p.name for p in flat], 4.0),
    )
    for policy_name in POLICIES:
        flat_run = Simulator(flat, lookup).run(suite[0], get_policy(policy_name))
        star_run = Simulator(star, lookup).run(suite[0], get_policy(policy_name))
        assert list(flat_run.schedule) == list(star_run.schedule)
    lines += ["", "star topology == flat link table: bit-for-bit OK"]

    write_artifact(results_dir, "topology_contention.txt", "\n".join(lines))
    write_artifact(
        local_results_dir, "topology_contention_timing.txt", "\n".join(timing_lines)
    )
