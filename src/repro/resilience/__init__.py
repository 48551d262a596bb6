"""``repro.resilience`` — runtime robustness for the co-simulator.

Four cooperating pieces (see ``docs/resilience.md``):

``faults``      deterministic, seeded fault schedules (link fail-stop,
                transient link outages, router fail-stop, flit corruption)
                applied through narrow hooks in the cycle-level NoC
``degrade``     graceful degradation: failed channels masked from routing
                candidate sets with an up*/down* spanning-tree fallback,
                re-certified by the ``repro.verify`` CDG pass on every
                topology-affecting fault event
``transport``   end-to-end retransmission over the degraded network:
                simulated-cycle timeouts, bounded exponential backoff,
                duplicate suppression, per-fault drop/retry accounting
``watchdog``    quantum-boundary progress monitoring on the co-simulator;
                stalls raise a structured :class:`~repro.errors.StallError`
                carrying a diagnostic dump instead of burning the job's
                wall-clock timeout budget
``checkpoint``  content-hashed snapshots of full co-simulator state at
                quantum boundaries, with bit-identical restore

Everything is *opt in*: with no fault schedule attached and no checkpointer
installed, the simulator takes exactly the code paths it took before this
package existed and produces bit-identical metrics.

``repro.resilience.fixtures`` (livelock fixtures) and ``.cli`` (``python -m
repro resilience``) are imported on demand rather than here to keep the
package import light.  The E11 fault sweep that exercises this package is an
entry of the experiment table, :mod:`repro.harness.experiments`.
"""

from .checkpoint import (
    Checkpointer,
    active_job_checkpoint,
    job_checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from .degrade import DegradedRouting, verify_degraded
from .faults import FaultConfig, FaultEvent, FaultSchedule, FaultState, compile_schedule
from .transport import ResilientNetworkAdapter
from .watchdog import StallDiagnostics, Watchdog, network_diagnostics, stall_diagnostics

__all__ = [
    "FaultConfig",
    "FaultEvent",
    "FaultSchedule",
    "FaultState",
    "compile_schedule",
    "DegradedRouting",
    "verify_degraded",
    "ResilientNetworkAdapter",
    "Watchdog",
    "StallDiagnostics",
    "network_diagnostics",
    "stall_diagnostics",
    "Checkpointer",
    "save_checkpoint",
    "load_checkpoint",
    "job_checkpoint",
    "active_job_checkpoint",
]
