"""Engine selection: what executes a co-simulation's NoC.

There is one vectorised implementation (:mod:`repro.engine.kernels`) and
one reference (the OO router loop of :mod:`repro.noc`), and a config's
``network_model`` already says which it wants — so :func:`resolve_engine`
has nothing to select, only to *say what will run*: the kernels iff
:func:`batch_supported`, else the OO loop with the reason logged on the
``repro.engine`` logger.  ``build_cosim`` consults it for every
construction, campaign records its verdict in result provenance, and
serve's scheduler asks :func:`batch_supported` whether a shape-batch may
share lanes.

The caller's ``engine`` request changes no computation.  ``"batched"``
raises the log level of a fallback to WARNING (the caller asked for
speed it is not getting); ``"oo"`` is accepted because the perf ledger's
reference cut passes it.  Nothing above ``build_cosim`` makes a request.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Tuple

from ..errors import ConfigError
from ..noc.topology import Mesh

__all__ = [
    "ENGINE_NAMES",
    "EngineDecision",
    "KERNEL_VERSION",
    "batch_supported",
    "resolve_engine",
]

log = logging.getLogger("repro.engine")

#: version tag of the batched kernel pipeline, recorded in result
#: provenance so a cached row can be traced to the kernels that made it.
KERNEL_VERSION = "batched-simd-3"

#: version tag recorded for runs executed by the OO router loop.
OO_KERNEL_VERSION = "oo-loop-1"

ENGINE_NAMES = ("auto", "oo", "batched")


@dataclass(frozen=True)
class EngineDecision:
    """What executes one config's NoC, and why."""

    name: str  #: "oo" or "batched"
    reason: str  #: why the kernels run it (or why they cannot)
    kernel_version: str  #: version tag for provenance

    @property
    def is_batched(self) -> bool:
        return self.name == "batched"


def batch_supported(config) -> Tuple[bool, str]:
    """Whether the vectorised kernels can execute ``config`` (and why not).

    Their functional scope: the ``simd`` network model on a mesh with
    ``any_free`` VC selection and no fault injection.
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


def resolve_engine(config, engine: str = "auto") -> EngineDecision:
    """What will execute ``config``'s NoC: the kernels iff they support it."""
    if engine not in ENGINE_NAMES:
        raise ConfigError(f"unknown engine {engine!r}; known: {ENGINE_NAMES}")
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
