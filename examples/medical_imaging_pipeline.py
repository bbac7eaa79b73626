#!/usr/bin/env python
"""A medical-imaging pipeline on a heterogeneous system.

The thesis motivates heterogeneous scheduling with exactly this workload
family: Skalicky et al. ran transmural electrophysiological imaging and
Binotto et al. X-ray image processing on CPU+GPU+FPGA systems (§1.1).

This example hand-builds that kind of pipeline as a DFG — ultrasound
frames are despeckled (SRAD), features matched against a reference
(Needleman-Wunsch), and a linear inverse problem reconstructs the source
(Cholesky + matrix ops) — and shows why a fixed "always use the GPU"
mapping loses to APT's placement:

* SRAD is 3.2× faster on the GPU than the CPU,
* Cholesky is 500× faster on the FPGA than the CPU,
* NW is fastest on the CPU.

Run:  python examples/medical_imaging_pipeline.py
"""

from repro import APT, CPU_GPU_FPGA, DFG, MET, KernelSpec, Simulator, paper_lookup_table
from repro.analysis.gantt import ascii_gantt

N_FRAMES = 4

system = CPU_GPU_FPGA(transfer_rate_gbps=8.0)  # PCIe 2.0 ×16
lookup = paper_lookup_table()

# ---------------------------------------------------------------------
# Build the pipeline DFG: per frame, despeckle → align; then a global
# reconstruction stage joins all frames (diamond shape, like DFG Type-2).
# ---------------------------------------------------------------------
dfg = DFG("imaging_pipeline")
align_stages = []
for frame in range(N_FRAMES):
    despeckle = dfg.add_kernel(KernelSpec("srad", 134_217_728))
    align = dfg.add_kernel(KernelSpec("nw", 16_777_216))
    dfg.add_dependency(despeckle, align)
    align_stages.append(align)

# Global reconstruction: assemble the system matrix, factor it, solve.
assemble = dfg.add_kernel(KernelSpec("matmul", 16_000_000))
for align in align_stages:
    dfg.add_dependency(align, assemble)
factor = dfg.add_kernel(KernelSpec("cholesky", 16_000_000))
dfg.add_dependency(assemble, factor)
solve = dfg.add_kernel(KernelSpec("matinv", 1_000_000))
dfg.add_dependency(factor, solve)

print(f"pipeline: {len(dfg)} kernels, {dfg.n_edges} dependencies")
print(f"kernel mix: {dfg.subgraph_counts()}")
print()

# ---------------------------------------------------------------------
# Compare MET (wait for the perfect device) against APT (divert within
# the threshold) on the same pipeline.
# ---------------------------------------------------------------------
sim = Simulator(system, lookup)
for label, policy in (("MET", MET()), ("APT α=4", APT(alpha=4.0))):
    result = sim.run(dfg, policy)
    m = result.metrics
    print(f"--- {label} ---")
    print(f"end-to-end latency : {result.makespan:,.1f} ms")
    print(f"total λ delay      : {m.lambda_stats.total:,.1f} ms")
    print(f"mean utilization   : {m.mean_utilization() * 100:.1f} %")
    print(ascii_gantt(result.schedule, system))
    print()

# ---------------------------------------------------------------------
# Where did APT deviate from "best device only"?
# ---------------------------------------------------------------------
result = sim.run(dfg, APT(alpha=4.0))
diverted = [e for e in result.schedule if e.used_alternative]
if diverted:
    print("APT alternative-processor decisions:")
    for e in diverted:
        print(
            f"  kernel {e.kernel_id} ({e.kernel}) → {e.processor} "
            f"(exec {e.exec_time:,.1f} ms, started {e.exec_start:,.1f} ms)"
        )
else:
    print("APT never needed an alternative processor for this pipeline.")
