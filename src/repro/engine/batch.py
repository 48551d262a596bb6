"""Lockstep execution of K same-shape co-simulations on one kernel batch.

:func:`run_cosim_batch` builds one :class:`~repro.engine.network.SimdBatch`
with K lanes, one full :class:`~repro.core.cosim.CoSimulator` per lane
(each with its own system, feedback table, and quantum bookkeeping), and
advances them window by window in *global lockstep*: every lane runs its
system phase and flushes its messages, then the shared batch steps once
to the window boundary (the first lane's ``advance`` does the kernel
work; the rest see the clock already there and no-op), then every lane
collects its deliveries.  Per-lane results are bit-identical to running
each config alone through the batched engine — the heterogeneity between
lanes (seed, app, CMP parameters) lives entirely in the per-lane systems.

Lanes may finish at different times.  A finished lane's system stops;
its empty lane rides along in the shared arrays (masked work only) while
the remaining lanes drain.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..core.config import TargetConfig, build_cosim
from ..core.cosim import CoSimResult, CoSimulator
from ..errors import ConfigError
from .api import EngineDecision, KERNEL_VERSION, batch_supported
from .network import SimdBatch

__all__ = ["BatchCosimResult", "configs_batchable", "run_cosim_batch"]

_MAIN, _DRAIN, _DONE = 0, 1, 2


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

    Workload identity (app, seed, scale, CMP parameters) may differ —
    it lives in the per-lane systems; the shared arrays only care about
    the network shape and the synchronization cadence.
    """
    return (
        config.width,
        config.height,
        config.concentration,
        config.topology,
        config.quantum,
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
                "configs disagree on network shape or quantum; "
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
    results = _run_lockstep(batch, cosims, max_cycles)
    return BatchCosimResult(
        results=results,
        lanes=lanes,
        kernel_launches=batch.kernel_launches,
        engine=decision,
    )


def _run_lockstep(
    batch: SimdBatch, cosims: List[CoSimulator], max_cycles: int
) -> List[CoSimResult]:
    wall_start = time.perf_counter()  # simlint: allow[wall-clock]
    n = len(cosims)
    phase = [_MAIN] * n
    results: List[Optional[CoSimResult]] = [None] * n
    # Same-shape implies identical fixed quanta (part of the shape key).
    window = cosims[0].quantum.next_quantum()

    def finish(i: int) -> None:
        phase[i] = _DONE
        results[i] = cosims[i]._result(
            time.perf_counter() - wall_start  # simlint: allow[wall-clock]
        )

    def enter_drain(i: int) -> None:
        # Mirrors run(): after the last core finishes, either the tail is
        # already empty or we keep draining windows under its progress guard.
        if not cosims[i]._tail_pending():
            finish(i)
        else:
            phase[i] = _DRAIN

    for i, cosim in enumerate(cosims):
        cosim._begin()
        if cosim.system.all_finished:
            enter_drain(i)

    while any(p != _DONE for p in phase):
        if any(p == _MAIN for p in phase):
            target = min(batch.cycle + window, max_cycles)
        else:
            target = batch.cycle + window
        sent_before = [0] * n

        # System half of the window, then flush, for every active lane —
        # all injections must be buffered before the shared clock moves.
        for i, cosim in enumerate(cosims):
            if phase[i] == _MAIN:
                cosim._check_wedge()
                sent_before[i] = cosim.messages_sent
                cosim._phase_system(target)
                cosim._phase_flush()
            elif phase[i] == _DRAIN:
                if cosim._tail_stalled():
                    raise cosim._tail_error(f" in lane {i}")
                cosim.system.run_until(target)
                cosim._phase_flush()

        # One kernel advance for the whole batch: the first active lane
        # steps the shared clock to the boundary, the rest no-op.
        for i, cosim in enumerate(cosims):
            if phase[i] != _DONE:
                cosim._phase_advance(target)

        # Deliveries and window bookkeeping, per lane.
        for i, cosim in enumerate(cosims):
            if phase[i] == _MAIN:
                cosim._phase_collect()
                cosim._phase_finish(target, sent_before[i])
                if cosim.system.all_finished:
                    enter_drain(i)
                elif target >= max_cycles:
                    finish(i)
            elif phase[i] == _DRAIN:
                cosim._phase_collect()
                if cosim.invariants is not None:
                    cosim.invariants.after_window(cosim, target)
                if not cosim._tail_pending():
                    finish(i)

    return [r for r in results if r is not None]
