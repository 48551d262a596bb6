"""K same-shape co-simulations on one kernel batch.

:func:`run_cosim_batch` builds one :class:`~repro.engine.network.SimdBatch`
with K lanes, one full :class:`~repro.core.cosim.CoSimulator` per lane
(each with its own system, feedback table, and quantum), and hands them to
:func:`~repro.core.cosim.run_lanes`, the window loop ``run()`` also uses.
Each lane opens windows at its own quantum; the shared batch steps to the
earliest open boundary (the first due lane's ``advance`` does the kernel
work, the rest see the clock already there and no-op), and only the lanes
due there collect.  Per-lane results are bit-identical to running each
config alone through the batched engine — the heterogeneity between lanes
(seed, app, CMP parameters, quantum) lives entirely in the per-lane
co-simulations.

Lanes may finish at different times.  A finished lane's system stops;
its empty lane rides along in the shared arrays (masked work only) while
the remaining lanes drain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..core.config import TargetConfig, build_cosim
from ..core.cosim import CoSimResult, CoSimulator, run_lanes
from ..errors import ConfigError
from .api import EngineDecision, KERNEL_VERSION, batch_supported
from .network import SimdBatch

__all__ = ["BatchCosimResult", "configs_batchable", "run_cosim_batch"]


@dataclass
class BatchCosimResult:
    """Per-lane results plus whole-batch execution evidence."""

    results: List[CoSimResult]
    lanes: int
    #: kernel invocations for the entire batch — K lanes share every
    #: launch, which is the point; compare with K * (a single run's).
    kernel_launches: int
    engine: EngineDecision


def _shape_key(config: TargetConfig) -> Tuple:
    """What must coincide for two configs to share one kernel batch.

    Workload identity (app, seed, scale, CMP parameters) and the quantum
    may differ — they live in the per-lane co-simulations; the shared
    arrays only care about the network shape.
    """
    return (
        config.width,
        config.height,
        config.concentration,
        config.topology,
        repr(config.noc),
    )


def configs_batchable(configs: Sequence[TargetConfig]) -> Tuple[bool, str]:
    """Whether ``configs`` may run as lanes of one batch (and why not)."""
    if not configs:
        return False, "empty batch"
    for config in configs:
        ok, reason = batch_supported(config)
        if not ok:
            return False, reason
    shape = _shape_key(configs[0])
    for config in configs[1:]:
        if _shape_key(config) != shape:
            return False, (
                "configs disagree on network shape; "
                "only same-shape simulations can share a batch"
            )
    return True, "batchable"


def run_cosim_batch(
    configs: Sequence[TargetConfig],
    max_cycles: int = 5_000_000,
    check_invariants: bool = False,
    verify: str = "warn",
) -> BatchCosimResult:
    """Run every config as one lane of a shared batched kernel.

    Raises :class:`~repro.errors.ConfigError` when the configs cannot
    share a batch (callers gate on :func:`configs_batchable` first).
    """
    configs = list(configs)
    ok, reason = configs_batchable(configs)
    if not ok:
        raise ConfigError(f"configs are not batchable: {reason}")
    lanes = len(configs)
    batch = SimdBatch(configs[0].make_topology(), configs[0].noc, lanes=lanes)
    decision = EngineDecision(
        "batched", f"lockstep batch of {lanes}", KERNEL_VERSION
    )
    cosims: List[CoSimulator] = []
    for index, config in enumerate(configs):
        lane = batch.lane(index)
        cosim = build_cosim(
            config,
            simd_network_factory=lambda topo, noc, _lane=lane: _lane,
            check_invariants=check_invariants,
            verify=verify,
        )
        cosim.engine_decision = decision
        cosims.append(cosim)
    return BatchCosimResult(
        results=run_lanes(cosims, max_cycles),
        lanes=lanes,
        kernel_launches=batch.kernel_launches,
        engine=decision,
    )
