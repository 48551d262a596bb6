"""Engine selection: which kernel executes a co-simulation's NoC.

An *engine* decides how the cycle-level network of a
:class:`~repro.core.config.TargetConfig` is executed; it never changes
what is computed.  :func:`resolve_engine` is the single policy point:
``build_cosim`` consults it for every construction, campaign records its
verdict in result provenance, and serve's scheduler asks it whether a
shape-batch may take the fast path.

Fallback is never an error: requesting ``engine="batched"`` for an
incompatible config logs the reason on the ``repro.engine`` logger and
runs the reference engine, because both engines are bit-identical on
any config they share (``tests/test_engine_cosim.py``).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import List, Protocol, Tuple

from ..errors import ConfigError
from ..noc.topology import Mesh

__all__ = [
    "BatchedSimdEngine",
    "ENGINE_NAMES",
    "EngineDecision",
    "KERNEL_VERSION",
    "NocEngine",
    "OoEngine",
    "batch_supported",
    "get_engine",
    "resolve_engine",
]

log = logging.getLogger("repro.engine")

#: version tag of the batched kernel pipeline, recorded in result
#: provenance so a cached row can be traced to the kernels that made it.
KERNEL_VERSION = "batched-simd-2"

#: version tag recorded for runs executed by the reference engine.
OO_KERNEL_VERSION = "oo-loop-1"

ENGINE_NAMES = ("auto", "oo", "batched")


@dataclass(frozen=True)
class EngineDecision:
    """The outcome of engine selection for one config."""

    name: str  #: "oo" or "batched"
    reason: str  #: why this engine was chosen (or why batched was refused)
    kernel_version: str  #: version tag for provenance

    @property
    def is_batched(self) -> bool:
        return self.name == "batched"


class NocEngine(Protocol):
    """What an execution engine must provide."""

    name: str
    kernel_version: str

    def supports(self, config) -> Tuple[bool, str]:
        """Whether this engine can execute ``config`` (and why not)."""

    def make_networks(self, config, lanes: int) -> List[object]:
        """``lanes`` driveable network objects for same-shape simulations."""


class OoEngine:
    """The reference engine: the existing per-object simulator loop.

    Executes any config — it builds exactly the network ``build_cosim``
    has always built (the OO router loop, or the single-simulation SIMD
    model for ``network_model="simd"``).
    """

    name = "oo"
    kernel_version = OO_KERNEL_VERSION

    def supports(self, config) -> Tuple[bool, str]:
        return True, "reference engine"

    def make_networks(self, config, lanes: int) -> List[object]:
        from ..noc.network import CycleNetwork
        from ..noc.routing import make_routing
        from ..noc_gpu import SimdNetwork

        out = []
        for _ in range(lanes):
            topo = config.make_topology()
            if config.network_model == "simd":
                out.append(SimdNetwork(topo, config.noc))
            else:
                out.append(
                    CycleNetwork(
                        topo, config.noc, routing=make_routing(config.routing)
                    )
                )
        return out


class BatchedSimdEngine:
    """The fast path: lane-batched NumPy kernels (:mod:`repro.engine`)."""

    name = "batched"
    kernel_version = KERNEL_VERSION

    def supports(self, config) -> Tuple[bool, str]:
        return batch_supported(config)

    def make_networks(self, config, lanes: int) -> List[object]:
        from .network import SimdBatch

        ok, reason = self.supports(config)
        if not ok:
            raise ConfigError(f"config not batchable: {reason}")
        batch = SimdBatch(config.make_topology(), config.noc, lanes=lanes)
        return [batch.lane(i) for i in range(lanes)]


def batch_supported(config) -> Tuple[bool, str]:
    """Whether ``config`` can run on :class:`BatchedSimdEngine`.

    The batched kernels implement exactly the functional scope of the
    single-simulation SIMD network: the ``simd`` network model on a mesh
    with ``any_free`` VC selection and no fault injection.
    """
    if config.network_model != "simd":
        return False, (
            f"network_model={config.network_model!r} "
            "(batched kernels implement the 'simd' model)"
        )
    if config.faults is not None:
        return False, "fault injection requires the OO router loop"
    if config.noc.vc_select != "any_free":
        return False, f"vc_select={config.noc.vc_select!r} (need 'any_free')"
    if not isinstance(config.make_topology(), Mesh):
        return False, f"topology={config.topology!r} (batched kernels need a mesh)"
    return True, "engine-compatible"


def get_engine(name: str):
    """The engine instance for ``name`` ("oo" or "batched")."""
    if name == "oo":
        return OoEngine()
    if name == "batched":
        return BatchedSimdEngine()
    raise ConfigError(f"unknown engine {name!r}; known: ('oo', 'batched')")


def resolve_engine(config, engine: str = "auto") -> EngineDecision:
    """Pick the engine that will execute ``config``.

    ``engine`` is the caller's request: ``"auto"`` takes the batched
    fast path whenever the config is compatible, ``"batched"`` does the
    same but logs the fallback at WARNING (the caller asked for speed it
    is not getting), and ``"oo"`` pins the reference engine.
    """
    if engine not in ENGINE_NAMES:
        raise ConfigError(f"unknown engine {engine!r}; known: {ENGINE_NAMES}")
    if engine == "oo":
        return EngineDecision("oo", "explicitly requested", OO_KERNEL_VERSION)
    ok, reason = batch_supported(config)
    if ok:
        return EngineDecision("batched", reason, KERNEL_VERSION)
    level = logging.WARNING if engine == "batched" else logging.INFO
    log.log(
        level,
        "engine fallback to the OO loop for %s/%s: %s",
        config.network_model,
        config.topology,
        reason,
    )
    return EngineDecision("oo", f"fallback: {reason}", OO_KERNEL_VERSION)
