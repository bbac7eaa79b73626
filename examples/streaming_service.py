#!/usr/bin/env python
"""An online inference/analytics service on a heterogeneous node.

The thesis evaluates batch submission, but frames the general problem as
"a stream of applications" (§3.2).  This example runs the genuinely
*online* case: requests — small fork-join applications built from the
paper's kernels — arrive as a Poisson process, and only dynamic policies
compete (a static planner would need to know the future).

Three operating points are swept, from idle to saturated, showing where
APT's threshold starts paying: under light load every informed policy
just tracks arrivals, under saturation MET leaves devices idle while
requests queue and APT converts that idle capacity into throughput.

Run:  python examples/streaming_service.py
"""

import numpy as np

from repro import (
    CPU_GPU_FPGA,
    GeneratorSource,
    PoissonProfile,
    Simulator,
    get_policy,
    paper_lookup_table,
)
from repro.graphs.generators import make_fork_join_dfg

N_REQUESTS = 30
POLICIES = ("apt", "met", "spn", "sufferage")
LOADS_MS = {"light (IA 5 s)": 5000.0, "busy (IA 1 s)": 1000.0, "saturated (IA 0.2 s)": 200.0}

system = CPU_GPU_FPGA(transfer_rate_gbps=8.0)
lookup = paper_lookup_table()
sim = Simulator(system, lookup)


def request_factory(index: int, rng: np.random.Generator):
    # each request: fan out 3 kernels from one input, join the results
    return make_fork_join_dfg(3, rng=rng, name=f"request{index}")


print(f"{N_REQUESTS} Poisson-arriving requests, {len(system)} processors\n")
header = f"{'policy':<11}" + "".join(f"{label:>24}" for label in LOADS_MS)
print(header)
print("-" * len(header))

for name in POLICIES:
    cells = []
    for label, mean_ia in LOADS_MS.items():
        stream = GeneratorSource(
            N_REQUESTS, request_factory, PoissonProfile(mean_ia), seed=42
        ).materialize()
        merged, arrivals = stream.merged()
        policy = get_policy(name, alpha=4.0) if name == "apt" else get_policy(name)
        result = sim.run(merged, policy, arrivals=arrivals)
        # service residence: completion of the last request past its arrival
        cells.append(f"{result.makespan - stream.last_arrival_ms:>20,.0f} ms")
    print(f"{name.upper():<11}" + "".join(f"{c:>24}" for c in cells))

print()
print("cells: time from the LAST request's arrival to full drain —")
print("a latency-style view of how far each policy falls behind the stream.")

# Drill into the saturated point with per-kernel λ statistics.
print()
stream = GeneratorSource(
    N_REQUESTS, request_factory, PoissonProfile(200.0), seed=42
).materialize()
merged, arrivals = stream.merged()
for name in ("apt", "met"):
    policy = get_policy(name, alpha=4.0) if name == "apt" else get_policy(name)
    result = sim.run(merged, policy, arrivals=arrivals)
    lam = result.metrics.lambda_stats
    print(
        f"{name.upper():<4} saturated: makespan {result.makespan:>9,.0f} ms, "
        f"λ avg {lam.average:>8,.1f} ms over {lam.count} delayed kernels, "
        f"alternatives used: {result.metrics.n_alternative_assignments}"
    )
