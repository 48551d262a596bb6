"""Analytical host-cost model of the CPU+GPU co-simulation.

There is no CUDA device in this environment (see DESIGN.md's substitution
table), so the paper's *measured* host times are reproduced two ways:

1. **Measured shape** — the NumPy :func:`~repro.engine.network.SimdNetwork`
   genuinely has the GPU cost profile (fixed per-cycle kernel
   overhead, near-flat per-router cost), so benchmark E6 also reports real
   wall-clock times of the two Python simulators.
2. **Calibrated model** — this module: closed-form host-time expressions
   whose constants are calibrated so the CPU+GPU co-simulation time
   reduction matches the paper's anchors, **16% at 256 cores and 65% at 512
   cores**, with the small-target penalty the paper implies.

Model structure (per simulated cycle, in abstract host-time units):

* full-system simulator: ``fullsys_unit × cores``
* CPU detailed network:  ``cpu_net_unit × routers^1.5`` — per-cycle work
  tracks flits in flight, which grows superlinearly with the target size
  (more nodes × longer paths at constant per-node load)
* GPU detailed network:  ``gpu_launch_unit + gpu_net_fraction × (CPU cost)``
  — a fixed kernel-launch/synchronization term plus a small data-parallel
  compute term.

Amortizing launches over larger synchronization quanta is exposed via
``quantum_batching``: with quantum Q, per-cycle launch overhead scales by
``(1-batching) + batching/Q`` (batched kernels replay Q cycles per launch).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError

__all__ = ["GpuCostParams", "GpuExecutionModel"]


@dataclass
class GpuCostParams:
    """Calibrated host-cost constants (abstract units per simulated cycle).

    Defaults satisfy the paper's anchors exactly for a per-tile-cycle
    full-system cost of 1.0:

    * 256-core target: CPU+GPU co-simulation 16% faster than CPU-only.
    * 512-core target: 65% faster.
    * 64-core target: GPU clearly slower (overhead dominated), matching the
      paper's restriction of reported gains to large targets.
    """

    fullsys_unit: float = 1.0  # per tile-cycle (coarse-grain simulator)
    cpu_net_unit: float = 1.1875  # per routers^1.5-cycle (serial flit work)
    gpu_launch_unit: float = 3801.6  # per simulated cycle (kernel launches)
    gpu_net_fraction: float = 0.05  # data-parallel share of the CPU net cost
    quantum_batching: float = 0.0  # 0 = one launch set per cycle

    def __post_init__(self) -> None:
        for name in ("fullsys_unit", "cpu_net_unit", "gpu_launch_unit"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if not 0.0 <= self.gpu_net_fraction <= 1.0:
            raise ConfigError("gpu_net_fraction must be in [0, 1]")
        if not 0.0 <= self.quantum_batching <= 1.0:
            raise ConfigError("quantum_batching must be in [0, 1]")


class GpuExecutionModel:
    """Host-time predictions for the three co-simulation configurations."""

    def __init__(self, params: GpuCostParams | None = None) -> None:
        self.params = params or GpuCostParams()

    # ------------------------------------------------------------------
    # Per-cycle costs
    # ------------------------------------------------------------------
    def fullsys_cost(self, cores: int) -> float:
        """Coarse-grain full-system cost per simulated cycle."""
        return self.params.fullsys_unit * cores

    def cpu_network_cost(self, routers: int) -> float:
        """Serial cycle-level network cost per simulated cycle."""
        return self.params.cpu_net_unit * routers**1.5

    def gpu_network_cost(self, routers: int, quantum: int = 1) -> float:
        """GPU cycle-level network cost per simulated cycle."""
        if quantum < 1:
            raise ConfigError(f"quantum must be >= 1, got {quantum}")
        b = self.params.quantum_batching
        launch = self.params.gpu_launch_unit * ((1.0 - b) + b / quantum)
        return launch + self.params.gpu_net_fraction * self.cpu_network_cost(routers)

    # ------------------------------------------------------------------
    # Whole co-simulation runs
    # ------------------------------------------------------------------
    def cosim_time(
        self,
        cores: int,
        cycles: int,
        network: str = "cpu",
        routers: int | None = None,
        quantum: int = 1,
    ) -> float:
        """Total host time for one co-simulation of ``cycles`` target cycles.

        ``network`` is ``"none"`` (abstract model, negligible network cost),
        ``"cpu"`` (serial detailed network), or ``"gpu"`` (coprocessor).
        """
        routers = cores if routers is None else routers
        per_cycle = self.fullsys_cost(cores)
        if network == "cpu":
            per_cycle += self.cpu_network_cost(routers)
        elif network == "gpu":
            per_cycle += self.gpu_network_cost(routers, quantum)
        elif network != "none":
            raise ConfigError(f"unknown network kind {network!r}")
        return per_cycle * cycles

    def gpu_time_reduction(
        self, cores: int, cycles: int = 1, routers: int | None = None, quantum: int = 1
    ) -> float:
        """Fractional co-simulation time saved by offloading to the GPU.

        This is the quantity the paper reports: 0.16 at 256 cores, 0.65 at
        512 cores (cycles cancel out).
        """
        cpu = self.cosim_time(cores, cycles, "cpu", routers, quantum)
        gpu = self.cosim_time(cores, cycles, "gpu", routers, quantum)
        return 1.0 - gpu / cpu

    def crossover_cores(self, max_cores: int = 4096, quantum: int = 1) -> int:
        """Smallest power-of-two core count where the GPU wins."""
        cores = 2
        while cores <= max_cores:
            if self.gpu_time_reduction(cores, quantum=quantum) > 0.0:
                return cores
            cores *= 2
        raise ConfigError(f"no GPU crossover below {max_cores} cores")
