"""Real implementations of the paper's seven workload kernels.

The lookup table drives the *simulator*, but the kernels themselves are
first-class citizens here: every kernel of Table 5 is implemented in
numpy, classified by its Berkeley dwarf (§2.4), and measurable
through :mod:`repro.kernels.calibration` to produce a fresh
:class:`~repro.core.lookup.LookupTable` for the user's own machine.

Kernels: Needleman-Wunsch (dynamic programming), BFS (graph traversal),
SRAD (structured grids), GEM (N-body), Cholesky decomposition,
matrix-matrix multiplication and matrix inversion (dense linear algebra).
"""

from repro.kernels.base import Kernel, KernelRegistry, kernel_registry
from repro.kernels.dwarfs import Dwarf, DWARF_DESCRIPTIONS, dwarfs_of_application
from repro.kernels.matmul import MatMulKernel
from repro.kernels.matinv import MatInvKernel
from repro.kernels.cholesky import CholeskyKernel
from repro.kernels.nw import NeedlemanWunschKernel
from repro.kernels.bfs import BFSKernel
from repro.kernels.srad import SRADKernel
from repro.kernels.gem import GEMKernel
from repro.kernels.calibration import Calibrator, CalibrationResult

__all__ = [
    "Kernel",
    "KernelRegistry",
    "kernel_registry",
    "Dwarf",
    "DWARF_DESCRIPTIONS",
    "dwarfs_of_application",
    "MatMulKernel",
    "MatInvKernel",
    "CholeskyKernel",
    "NeedlemanWunschKernel",
    "BFSKernel",
    "SRADKernel",
    "GEMKernel",
    "Calibrator",
    "CalibrationResult",
]
