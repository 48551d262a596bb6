"""Shared experiment-execution helpers.

Experiments compose three runner primitives:

* :func:`run_cosim` — one full co-simulation from a
  :class:`~repro.core.config.TargetConfig`;
* :func:`run_isolated` — a network alone under a traffic generator (the
  vacuum methodology);
* :func:`sweep_injection` — the classic load–latency curve.

``run_cosim`` results are memoized per process keyed on the configuration,
because several experiments share runs (E3/E4 reuse the same sweeps) and
co-simulations are the expensive primitive.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..core.config import TargetConfig, build_cosim
from ..core.cosim import CoSimResult
from ..engine.network import SimdNetwork
from ..errors import ConfigError
from ..noc.config import NocConfig
from ..noc.network import CycleNetwork
from ..noc.stats import NetworkStats
from ..noc.topology import Topology
from ..workloads.traces import TraceRecorder

__all__ = [
    "run_cosim",
    "run_cosim_traced",
    "make_network",
    "run_isolated",
    "sweep_injection",
    "clear_run_cache",
    "set_check_invariants",
]

_cache: Dict[Tuple, CoSimResult] = {}

#: process-wide default for installing the runtime invariant checker on
#: every co-simulation this module builds (set by the CLI's
#: ``--check-invariants``; experiments need no per-call plumbing).
_check_invariants_default = False


def set_check_invariants(enabled: bool) -> None:
    """Toggle invariant checking for all subsequent :func:`run_cosim` calls."""
    global _check_invariants_default
    _check_invariants_default = bool(enabled)


def _config_key(config: TargetConfig, max_cycles: Optional[int]) -> Tuple:
    return (
        _check_invariants_default,
        config.width,
        config.height,
        config.concentration,
        config.topology,
        config.routing,
        config.app,
        config.seed,
        config.scale,
        config.network_model,
        config.quantum,
        repr(config.noc),
        repr(config.cmp),
        repr(config.faults),
        config.stall_quanta,
        max_cycles,
    )


def run_cosim(
    config: TargetConfig, max_cycles: Optional[int] = None, cache: bool = True
) -> CoSimResult:
    """Build and run one co-simulation (memoized by configuration).

    When a campaign worker has opened a
    :func:`repro.resilience.checkpoint.job_checkpoint` scope, the run
    checkpoints periodically, resumes from an existing snapshot left by a
    killed previous attempt, and skips the in-process memo cache (a resumed
    attempt must actually run, and its checkpoint file must not leak into
    unrelated runs).
    """
    from ..resilience.checkpoint import active_job_checkpoint  # deferred

    key = _config_key(config, max_cycles)
    spec = active_job_checkpoint()
    if spec is None:
        if cache and key in _cache:
            return _cache[key]
        cosim = build_cosim(config, check_invariants=_check_invariants_default)
        result = cosim.run(
            **({} if max_cycles is None else {"max_cycles": max_cycles})
        )
        if cache:
            _cache[key] = result
        return result

    import os

    from ..errors import CheckpointCorruptError
    from ..resilience.checkpoint import Checkpointer, load_checkpoint

    token = repr(key)
    cosim = None
    if os.path.exists(spec.path):
        try:
            cosim = load_checkpoint(spec.path, expect_config=token)
        except CheckpointCorruptError:
            # A torn snapshot (e.g. power cut mid-write on the previous
            # attempt) costs the resume, never the job: discard it and
            # restart from cycle 0.  Determinism makes the rerun
            # byte-identical, so nothing downstream can tell.
            os.remove(spec.path)
    if cosim is None:
        cosim = build_cosim(config, check_invariants=_check_invariants_default)
    cosim.checkpointer = Checkpointer(
        spec.path, every=spec.every, config_token=token
    )
    result = cosim.run(**({} if max_cycles is None else {"max_cycles": max_cycles}))
    # A finished run owes nobody a resume point; remove it so a later job
    # reusing the path can never restore a stale simulation.
    try:
        os.remove(spec.path)
    except OSError:  # simlint: allow[swallowed-exception] — best-effort cleanup
        pass
    return result


def run_cosim_traced(
    config: TargetConfig, max_cycles: Optional[int] = None
) -> Tuple[CoSimResult, TraceRecorder, object]:
    """Run a co-simulation recording its network-message trace.

    Returns ``(result, trace_recorder, cosim)`` — the co-simulator itself is
    returned so callers can inspect the live network's own statistics (the
    component's in-context view, needed by the vacuum experiment).
    """
    cosim = build_cosim(config, check_invariants=_check_invariants_default)
    recorder = TraceRecorder(cosim._on_message)
    cosim.system.transport = recorder
    result = cosim.run(**({} if max_cycles is None else {"max_cycles": max_cycles}))
    return result, recorder, cosim


def clear_run_cache() -> None:
    _cache.clear()


# ----------------------------------------------------------------------
# Isolated (vacuum) network runs
# ----------------------------------------------------------------------
def make_network(kind: str, topo: Topology, noc: Optional[NocConfig] = None):
    """A flit-level simulator by name: ``cycle`` (OO) or ``simd``."""
    noc = noc or NocConfig()
    if kind == "cycle":
        return CycleNetwork(topo, noc)
    if kind == "simd":
        return SimdNetwork(topo, noc)
    raise ConfigError(f"unknown network kind {kind!r} (cycle|simd)")


def run_isolated(
    topo: Topology,
    traffic,
    cycles: int,
    kind: str = "cycle",
    noc: Optional[NocConfig] = None,
    drain: bool = True,
) -> NetworkStats:
    """Drive a lone network with a traffic generator; returns its stats.

    ``traffic`` is anything with ``drive(network, cycles, drain=...)`` —
    synthetic generators and matched-load trace reductions both qualify.
    """
    network = make_network(kind, topo, noc)
    traffic.drive(network, cycles, drain=drain)
    return network.stats


def sweep_injection(
    topo: Topology,
    make_traffic: Callable[[float], object],
    rates: List[float],
    cycles: int,
    kind: str = "cycle",
    noc: Optional[NocConfig] = None,
) -> List[Tuple[float, NetworkStats]]:
    """Load–latency curve: one isolated run per injection rate.

    Runs ``cycles`` of injection plus a cooldown of the same length with
    injection stopped, *without* requiring a full drain: past saturation the
    source queues grow without bound and a drain would never finish — the
    hockey-stick left in the statistics is the figure's saturated tail.
    """
    points = []
    for rate in rates:
        network = make_network(kind, topo, noc)
        traffic = make_traffic(rate)
        traffic.drive(network, cycles, drain=False)
        network.run(cycles)
        points.append((rate, network.stats))
    return points
