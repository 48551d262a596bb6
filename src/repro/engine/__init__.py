"""repro.engine: the vectorised (GPU-style) cycle-level NoC.

One structure-of-arrays state (:mod:`repro.engine.layout`), one set of
NumPy kernels (:mod:`repro.engine.kernels`) where one vectorised step
advances *all* routers of *N same-shape simulations* as array ops over
flat ``(lane, router, port, VC)`` cells.  Each simulation is a lane of
:class:`~repro.engine.network.SimdBatch`, and a single network is a
batch of one: :func:`SimdNetwork` is that constructor.  Per-lane results
do not depend on the lane count.

``build_cosim`` runs every engine-compatible ``simd`` config on these
kernels and everything else on the OO router loop of :mod:`repro.noc`,
with the reason logged (see :mod:`repro.engine.api`).  Lockstep
multi-job execution lives in :mod:`repro.engine.batch`.
"""

from .api import (
    EngineDecision,
    KERNEL_VERSION,
    batch_supported,
    resolve_engine,
)
from .batch import BatchCosimResult, run_cosim_batch
from .network import BatchedSimdNetwork, SimdBatch, SimdNetwork

__all__ = [
    "BatchCosimResult",
    "BatchedSimdNetwork",
    "EngineDecision",
    "KERNEL_VERSION",
    "SimdBatch",
    "SimdNetwork",
    "batch_supported",
    "resolve_engine",
    "run_cosim_batch",
]
