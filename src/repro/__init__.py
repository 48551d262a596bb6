"""repro — reciprocal abstraction for computer architecture co-simulation.

A from-scratch reproduction of Moeng, Jones & Melhem, *"Reciprocal
abstraction for computer architecture co-simulation"*, ISPASS 2015.

The package couples a coarse-grain full-system CMP simulator with network
models of different fidelities:

>>> from repro import TargetConfig, build_cosim
>>> cfg = TargetConfig(width=4, height=4, app="fft", network_model="cycle")
>>> result = build_cosim(cfg).run()
>>> result.mean_latency()  # doctest: +SKIP

Subpackages:

* :mod:`repro.core` — the reciprocal-abstraction co-simulation framework
* :mod:`repro.noc` — cycle-level VC-wormhole NoC simulator
* :mod:`repro.engine` — GPU-style data-parallel NoC simulator (one
  vectorised kernel stack; a single network is a batch of one lane)
* :mod:`repro.noc_gpu` — the calibrated CPU+GPU host-cost model
* :mod:`repro.abstractnet` — message-level latency models
* :mod:`repro.fullsys` — full-system CMP simulator (cores, caches, MSI
  directory coherence, memory controllers)
* :mod:`repro.workloads` — synthetic traffic, statistical app models, traces
* :mod:`repro.harness` — experiment runners for every table/figure
"""

from .abstractnet import (
    AbstractNetworkModel,
    FixedLatencyModel,
    QueueingLatencyModel,
    TableLatencyModel,
)
from .core import (
    AbstractModelAdapter,
    AdaptiveQuantum,
    CoSimResult,
    CoSimulator,
    DetailedNetworkAdapter,
    FixedQuantum,
    LatencyFeedback,
    MessageBridge,
    NetworkModel,
    TargetConfig,
    build_cosim,
    default_target_table,
)
from .dram import DramConfig, DramController
from .errors import (
    ConfigError,
    ProtocolError,
    ReproError,
    RoutingError,
    SimulationError,
    TopologyError,
    WorkloadError,
)
from .fullsys import CmpConfig, CmpSystem, Message, MessageKind
from .noc import (
    ConcentratedMesh,
    CycleNetwork,
    Mesh,
    MessageClass,
    NetworkStats,
    NocConfig,
    Packet,
    Torus,
    make_routing,
)
from .noc_gpu import GpuCostParams, GpuExecutionModel, SimdNetwork
from .workloads import APPS, SyntheticTraffic, app_names, make_programs

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "CoSimulator",
    "CoSimResult",
    "NetworkModel",
    "MessageBridge",
    "LatencyFeedback",
    "FixedQuantum",
    "AdaptiveQuantum",
    "DetailedNetworkAdapter",
    "AbstractModelAdapter",
    "TargetConfig",
    "build_cosim",
    "default_target_table",
    # noc
    "Mesh",
    "Torus",
    "ConcentratedMesh",
    "CycleNetwork",
    "NocConfig",
    "Packet",
    "MessageClass",
    "NetworkStats",
    "make_routing",
    # noc_gpu
    "SimdNetwork",
    "GpuExecutionModel",
    "GpuCostParams",
    # dram
    "DramConfig",
    "DramController",
    # abstractnet
    "AbstractNetworkModel",
    "FixedLatencyModel",
    "QueueingLatencyModel",
    "TableLatencyModel",
    # fullsys
    "CmpSystem",
    "CmpConfig",
    "Message",
    "MessageKind",
    # workloads
    "APPS",
    "app_names",
    "make_programs",
    "SyntheticTraffic",
    # errors
    "ReproError",
    "ConfigError",
    "TopologyError",
    "RoutingError",
    "ProtocolError",
    "SimulationError",
    "WorkloadError",
]
