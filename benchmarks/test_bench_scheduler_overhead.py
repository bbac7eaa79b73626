"""Scheduler-overhead microbenchmarks.

The paper motivates APT partly on scheduling cost: "for applications with
high degree of parallelism and very deep DFG, the ranking step [of static
policies] can be very time consuming" (§2.5.3).  These benches measure the
actual decision cost of each policy on the largest evaluation graph
(157 kernels) so the claim is quantified, not asserted.
"""

import pytest

from repro.core.simulator import Simulator
from repro.core.system import CPU_GPU_FPGA
from repro.experiments.workloads import paper_type2_suite
from repro.policies.registry import PAPER_POLICIES, get_policy
from repro.core.cost import CostModel
from repro.data.paper_tables import paper_lookup_table


@pytest.fixture(scope="module")
def biggest_graph():
    return max(paper_type2_suite(), key=len)


@pytest.mark.parametrize("policy_name", PAPER_POLICIES)
def test_bench_policy_end_to_end(benchmark, biggest_graph, policy_name):
    sim = Simulator(CPU_GPU_FPGA(transfer_rate_gbps=4.0), paper_lookup_table())
    policy_kwargs = {"alpha": 4.0} if policy_name == "apt" else {}

    def run():
        return sim.run(biggest_graph, get_policy(policy_name, **policy_kwargs))

    result = benchmark(run)
    assert len(result.schedule) == len(biggest_graph)
    benchmark.extra_info["makespan_ms"] = result.makespan


@pytest.mark.parametrize("policy_name", ["heft", "peft"])
def test_bench_static_planning_phase_alone(benchmark, biggest_graph, policy_name):
    """Just the pre-computation (rank/OCT + processor selection) phase."""
    policy = get_policy(policy_name)
    system = CPU_GPU_FPGA(transfer_rate_gbps=4.0)
    lookup = paper_lookup_table()

    plan = benchmark(lambda: policy.plan(biggest_graph, CostModel(system, lookup)))
    plan.validate(biggest_graph, system)
