"""Whole-experiment configuration and the target-machine table.

:class:`TargetConfig` bundles everything one co-simulation run needs —
topology, CMP parameters, NoC parameters, workload, network-model choice,
and quantum — and knows how to build the pieces.  The experiment harness
(:mod:`repro.harness.experiments`) composes runs from these.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict

from ..abstractnet import (
    FixedLatencyModel,
    QueueingLatencyModel,
    TableLatencyModel,
)
from ..errors import ConfigError
from ..fullsys.cmp import CmpSystem
from ..fullsys.config import CmpConfig
from ..noc.config import NocConfig
from ..noc.network import CycleNetwork
from ..noc.routing import make_routing
from ..noc.topology import ConcentratedMesh, Mesh, Topology, Torus
from ..workloads.apps import make_mixed_programs, make_programs
from .adapters import AbstractModelAdapter, DetailedNetworkAdapter
from .cosim import CoSimulator
from .feedback import LatencyFeedback

__all__ = ["TargetConfig", "default_target_table", "build_cosim"]

_NETWORK_MODELS = ("cycle", "simd", "fixed", "queueing", "table", "table-shadow")


@dataclass
class TargetConfig:
    """One runnable co-simulation configuration."""

    width: int = 8
    height: int = 8
    concentration: int = 1
    topology: str = "mesh"  # mesh | torus | cmesh
    routing: str = "xy"
    #: application name, or "mix:<a>+<b>+..." for a multiprogrammed mix
    app: str = "fft"
    seed: int = 1
    scale: float = 1.0
    network_model: str = "cycle"
    quantum: int = 4
    noc: NocConfig = field(default_factory=NocConfig)
    cmp: CmpConfig = field(default_factory=CmpConfig)
    #: optional :class:`repro.resilience.faults.FaultConfig` (typed loosely
    #: so the core never imports resilience at module level); requires the
    #: cycle network model.  None keeps every fault hook disabled.
    faults: object = None
    #: watchdog threshold in synchronization quanta: 0 = automatic (a
    #: watchdog is installed only when faults are injected, with its
    #: default threshold); > 0 = always install one with this threshold.
    stall_quanta: int = 0

    def __post_init__(self) -> None:
        if self.network_model not in _NETWORK_MODELS:
            raise ConfigError(
                f"unknown network model {self.network_model!r}; "
                f"known: {_NETWORK_MODELS}"
            )
        if self.stall_quanta < 0:
            raise ConfigError(
                f"stall_quanta must be >= 0, got {self.stall_quanta}"
            )
        if self.faults is not None and self.network_model != "cycle":
            raise ConfigError(
                "fault injection requires network_model='cycle' "
                f"(got {self.network_model!r})"
            )

    # ------------------------------------------------------------------
    def make_topology(self) -> Topology:
        if self.topology == "mesh" and self.concentration == 1:
            return Mesh(self.width, self.height)
        if self.topology == "torus":
            return Torus(self.width, self.height, self.concentration)
        if self.topology in ("mesh", "cmesh"):
            return ConcentratedMesh(self.width, self.height, self.concentration)
        raise ConfigError(f"unknown topology {self.topology!r}")

    @property
    def num_cores(self) -> int:
        return self.width * self.height * self.concentration

    def variant(self, **changes) -> "TargetConfig":
        """A copy with some fields replaced (ablation sweeps)."""
        return replace(self, **changes)


def build_cosim(
    config: TargetConfig,
    simd_network_factory=None,
    check_invariants: bool = False,
    verify: str = "warn",
    engine: str = "auto",
) -> CoSimulator:
    """Assemble system + network model + co-simulator from a config.

    ``simd_network_factory(topo, noc)`` supplies the ``simd`` model's
    network in place of a fresh :func:`~repro.engine.network.SimdNetwork`
    (the lockstep batch driver hands each co-simulator its lane this
    way).  ``check_invariants`` installs a
    :class:`~repro.analysis.invariants.InvariantChecker` that validates
    message conservation, time monotonicity, and NoC credit/VC conservation
    at every quantum boundary.

    ``engine`` (``"auto"``, ``"batched"`` or ``"oo"``) changes no
    computation: engine-compatible ``simd`` configs run on the vectorised
    kernels of :mod:`repro.engine`, everything else on the OO router
    loop, and ``"batched"`` only logs that fallback louder.  What ran is
    recorded on the returned co-simulator's ``engine_decision`` (and in
    every result's ``network_description``).  A ``simd`` config outside
    the kernels' scope (torus, ``class_partition``) is a
    :class:`ConfigError`.

    ``verify`` gates construction on :mod:`repro.verify`'s static checks
    (deadlock-freedom of the routing triple, protocol safety): ``"warn"``
    (default) emits a :class:`RuntimeWarning` per refuted property,
    ``"strict"`` raises :class:`ConfigError`, ``"off"`` skips the pass.
    Verification is memoized per process, so sweeps pay for each distinct
    configuration shape once.
    """
    if verify not in ("off", "warn", "strict"):
        raise ConfigError(
            f"verify must be 'off', 'warn', or 'strict', got {verify!r}"
        )
    if verify != "off":
        from ..verify import verify_target_config  # deferred: optional pass

        failed = [r for r in verify_target_config(config) if not r.ok]
        if failed:
            text = "\n".join(r.render() for r in failed)
            if verify == "strict":
                raise ConfigError(
                    "configuration failed pre-simulation verification:\n" + text
                )
            import warnings

            warnings.warn(
                "configuration failed pre-simulation verification "
                "(simulating anyway; pass verify='strict' to refuse):\n" + text,
                RuntimeWarning,
                stacklevel=2,
            )
    topo = config.make_topology()
    if config.app.startswith("mix:"):
        # Multiprogrammed mix, e.g. "mix:fft+canneal": apps round-robin over
        # cores with disjoint shared regions and no barriers.
        names = config.app[len("mix:"):].split("+")
        programs = make_mixed_programs(
            names, topo.num_nodes, seed=config.seed, scale=config.scale
        )
    else:
        programs = make_programs(
            config.app, topo.num_nodes, seed=config.seed, scale=config.scale
        )
    system = CmpSystem(topo, config.cmp, programs)
    feedback = LatencyFeedback(topo)
    routing = make_routing(config.routing)

    # Deferred so the core's module graph stays engine-free (the engine
    # package imports core back for the lockstep batch driver).
    from ..engine.api import resolve_engine

    engine_decision = resolve_engine(config, engine)

    name = config.network_model
    shadow = None
    faults_state = None
    if config.faults is not None:
        # Deferred: the core never imports resilience at module level (the
        # harness package eagerly imports this module, and resilience
        # imports the harness-facing core surface back).
        from ..resilience import (
            DegradedRouting,
            FaultState,
            ResilientNetworkAdapter,
            compile_schedule,
        )

        schedule = compile_schedule(config.faults, topo)
        faults_state = FaultState(schedule, topo)
        degraded = DegradedRouting(routing, faults_state, topo, noc=config.noc)
        faults_state.attach_routing(degraded)
        cycle_net = CycleNetwork(topo, config.noc, routing=degraded)
        cycle_net.attach_faults(faults_state)
        network = ResilientNetworkAdapter(cycle_net, faults=faults_state)
    elif name == "cycle":
        network = DetailedNetworkAdapter(
            CycleNetwork(topo, config.noc, routing=routing)
        )
    elif name == "simd":
        if not engine_decision.is_batched:
            # The kernels are the only 'simd' implementation; the
            # reason reads "fallback: <what is out of their scope>".
            raise ConfigError(
                f"network_model='simd' has no {engine_decision.reason}"
            )
        if simd_network_factory is None:
            from ..engine.network import SimdNetwork  # deferred heavy import

            simd_network_factory = SimdNetwork
        network = DetailedNetworkAdapter(simd_network_factory(topo, config.noc))
    elif name == "fixed":
        network = AbstractModelAdapter(FixedLatencyModel(topo, config.noc))
    elif name == "queueing":
        network = AbstractModelAdapter(
            QueueingLatencyModel(topo, config.noc, routing=routing)
        )
    elif name == "table":
        model = TableLatencyModel(topo, config.noc)
        feedback.attach(model)
        network = AbstractModelAdapter(model)
    elif name == "table-shadow":
        model = TableLatencyModel(topo, config.noc)
        feedback.attach(model)
        network = AbstractModelAdapter(model)
        shadow = DetailedNetworkAdapter(
            CycleNetwork(topo, config.noc, routing=routing)
        )
    else:  # pragma: no cover - guarded in __post_init__
        raise ConfigError(f"unknown network model {name!r}")

    invariants = None
    if check_invariants:
        from ..analysis.invariants import InvariantChecker  # deferred: optional

        invariants = InvariantChecker()
    watchdog = None
    if config.stall_quanta > 0 or faults_state is not None:
        from ..resilience.watchdog import Watchdog  # deferred: optional

        watchdog = (
            Watchdog(config.stall_quanta) if config.stall_quanta > 0 else Watchdog()
        )
    cosim = CoSimulator(
        system,
        network,
        quantum=config.quantum,
        feedback=feedback,
        shadow=shadow,
        invariants=invariants,
        watchdog=watchdog,
    )
    cosim.engine_decision = engine_decision
    return cosim


def default_target_table() -> Dict[str, str]:
    """The target-system configuration table (the paper's Table 1 analogue)."""
    noc = NocConfig()
    cmp = CmpConfig()
    return {
        "Cores": "64 in-order tiles (8x8 mesh), IPC 2, MLP 4",
        "L1 data cache": f"{cmp.l1_lines} lines, {cmp.l1_ways}-way LRU, "
        f"{cmp.l1_hit_latency}-cycle hit",
        "L2 cache": f"distributed S-NUCA, {cmp.l2_lines} lines/bank, "
        f"{cmp.l2_ways}-way, {cmp.l2_latency}-cycle array",
        "Coherence": "directory MSI, blocking home, explicit PutM/PutAck",
        "Memory": f"{cmp.mem_latency}-cycle DRAM, 1 req/{cmp.mem_service} cycles "
        "per controller, controllers at mesh corners",
        "NoC": f"{noc.num_vcs} VCs x {noc.buffer_depth} flits, "
        f"{noc.router_delay}-cycle routers, {noc.link_delay}-cycle links, "
        "XY wormhole, credit flow control",
        "Messages": f"control {cmp.ctrl_flits} flit, data {cmp.data_flits} flits",
        "Co-simulation": "reciprocal abstraction, quantum 4 (ground truth: 1)",
    }
