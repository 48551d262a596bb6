"""GPU-style data-parallel NoC simulation (the paper's coprocessor path).

:class:`GpuExecutionModel` is the calibrated host-cost model that
reproduces the paper's 16%/65% CPU+GPU co-simulation speedups.  The
data-parallel simulator itself — structure-of-arrays state, lock-step
whole-array kernels, the SIMT decomposition a GPU NoC simulator uses,
realized with NumPy (the environment has no CUDA device) — lives in
:mod:`repro.engine`; :func:`SimdNetwork` is re-exported here under its
historical name.
"""

from ..engine.network import SimdNetwork
from .gpu_model import GpuCostParams, GpuExecutionModel

__all__ = [
    "SimdNetwork",
    "GpuCostParams",
    "GpuExecutionModel",
]
