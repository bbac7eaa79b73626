"""Measured data published in the paper, transcribed verbatim.

* :data:`_TABLE14` — the complete lookup table (Appendix A, Table 14):
  execution time in **milliseconds** of each kernel, per data size, on the
  CPU / GPU / FPGA platforms of Table 6.  Sources: Skalicky et al. (linear
  algebra kernels) and Krommydas et al. (OpenDwarfs kernels).
* :data:`FIGURE5_KERNELS` — the 5-kernel workload of the Figure 5
  MET-vs-APT example (Table 7).
* :data:`PAPER_GRAPH_SIZES` — kernel counts of the ten evaluation graphs
  (Tables 15/16).
* :data:`HARDWARE_PLATFORMS` — the physical testbeds of Table 6 (metadata
  only; the simulator never needs them, but users re-calibrating with
  :mod:`repro.kernels.calibration` will want the provenance).

Note: the paper's Cholesky/CPU series is non-monotonic in data size
(6.284 ms at 1 M elements between 86.585 ms at ~0.7 M and 86.585 ms at
4 M).  We transcribe it as printed rather than "fixing" the data.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.lookup import LookupEntry, LookupTable
from repro.core.system import ProcessorType
from repro.graphs.dfg import KernelSpec

#: Kernel roster of the paper (Table 5) with their dwarf classes.
PAPER_KERNELS: dict[str, str] = {
    "nw": "dynamic_programming",  # Needleman-Wunsch
    "bfs": "graph_traversal",  # Breadth First Search
    "srad": "structured_grids",  # Speckle Reducing Anisotropic Diffusion
    "gem": "n_body",  # Gaussian Electrostatic Model
    "cholesky": "dense_linear_algebra",  # Cholesky Decomposition
    "matmul": "dense_linear_algebra",  # Matrix-Matrix Multiplication
    "matinv": "dense_linear_algebra",  # Matrix Inverse
}

#: Kernel counts of the 10 evaluation graphs (paper Tables 15/16), shared
#: by DFG Type-1 and Type-2 suites.
PAPER_GRAPH_SIZES: tuple[int, ...] = (46, 58, 50, 73, 69, 81, 125, 93, 132, 157)

# Table 14 rows: kernel -> {data_size: (cpu_ms, gpu_ms, fpga_ms)}
_TABLE14: dict[str, dict[int, tuple[float, float, float]]] = {
    "matmul": {
        250_000: (29.631, 0.062, 149.011),
        698_896: (131.183, 0.061, 696.512),
        1_000_000: (220.806, 0.061, 1192.092),
        4_000_000: (259.291, 0.062, 9536.743),
        16_000_000: (1967.286, 0.061, 76293.945),
        36_000_000: (6676.706, 0.106, 257492.065),
        64_000_000: (15487.652, 0.147, 610351.562),
    },
    "matinv": {
        250_000: (42.952, 9.652, 24.247),
        698_896: (148.387, 22.352, 110.597),
        1_000_000: (235.810, 29.078, 188.188),
        4_000_000: (432.330, 129.156, 1482.717),
        16_000_000: (40636.878, 596.582, 11770.520),
        36_000_000: (133917.655, 1702.537, 39623.932),
        64_000_000: (312902.299, 3600.423, 93802.080),
    },
    "cholesky": {
        250_000: (17.064, 2.749, 0.093),
        698_896: (86.585, 4.940, 0.258),
        1_000_000: (6.284, 6.453, 0.361),
        4_000_000: (86.585, 21.219, 1.382),
        16_000_000: (60.806, 90.581, 5.407),
        36_000_000: (132.677, 220.819, 12.194),
        64_000_000: (307.539, 458.603, 21.543),
    },
    "nw": {16_777_216: (112.0, 146.0, 397.0)},
    "bfs": {2_034_736: (332.0, 173.0, 106.0)},
    "srad": {134_217_728: (5092.0, 1600.0, 92287.0)},
    "gem": {2_070_376: (21592.0, 4001.0, 585760.0)},
}

#: The Figure 5 / Table 7 example workload: 1×NW, 3×BFS, 1×CD, in arrival
#: order (kernel 0 = nw, kernels 1-3 = bfs, kernel 4 = cd).
FIGURE5_KERNELS: tuple[KernelSpec, ...] = (
    KernelSpec("nw", 16_777_216),
    KernelSpec("bfs", 2_034_736),
    KernelSpec("bfs", 2_034_736),
    KernelSpec("bfs", 2_034_736),
    KernelSpec("cholesky", 250_000),
)


@dataclass(frozen=True)
class HardwarePlatform:
    """One testbed row of paper Table 6."""

    source: str
    cpu: str
    gpu: str
    fpga: str


HARDWARE_PLATFORMS: tuple[HardwarePlatform, ...] = (
    HardwarePlatform(
        source="Krommydas et al.",
        cpu="AMD Opteron 6272, 16 cores @ 2.1 GHz",
        gpu="AMD Radeon HD 6550D @ 600 MHz",
        fpga="Xilinx Virtex-6 LX760",
    ),
    HardwarePlatform(
        source="Skalicky et al.",
        cpu="Intel Core i7 2600 @ 3.4 GHz, 16 GB DDR3-1333",
        gpu="Nvidia Tesla K20 @ 706 MHz, 5 GB GDDR5",
        fpga="Xilinx Virtex-7 VX485T (VC707), 1 GB DDR3-1600",
    ),
)


def paper_lookup_table() -> LookupTable:
    """The complete Table 14 lookup table as a :class:`LookupTable`."""
    entries: list[LookupEntry] = []
    for kernel, series in _TABLE14.items():
        for size, (cpu, gpu, fpga) in series.items():
            entries.append(LookupEntry(kernel, size, ProcessorType.CPU, cpu))
            entries.append(LookupEntry(kernel, size, ProcessorType.GPU, gpu))
            entries.append(LookupEntry(kernel, size, ProcessorType.FPGA, fpga))
    return LookupTable(entries)


def figure5_lookup_table() -> LookupTable:
    """The Table 7 subset used by the Figure 5 schedule example."""
    entries: list[LookupEntry] = []
    for kernel, size in (("nw", 16_777_216), ("bfs", 2_034_736), ("cholesky", 250_000)):
        cpu, gpu, fpga = _TABLE14[kernel][size]
        entries.append(LookupEntry(kernel, size, ProcessorType.CPU, cpu))
        entries.append(LookupEntry(kernel, size, ProcessorType.GPU, gpu))
        entries.append(LookupEntry(kernel, size, ProcessorType.FPGA, fpga))
    return LookupTable(entries)
