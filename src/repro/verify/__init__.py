"""repro.verify — configuration-level verification before any cycle runs.

A static-analysis pass over a *concrete configuration* (Topology x
RoutingFunction x VC allocation, plus the coherence-protocol tables) that
proves or refutes, before simulation starts:

* **network deadlock-freedom** — the extended channel-dependency graph
  (Dally & Seitz) is acyclic (:mod:`repro.verify.cdg`);
* **coherence-protocol safety** — SWMR, no unhandled transition, drain,
  and message-dependency acyclicity over the exhaustively enumerated
  small-N state space (:mod:`repro.verify.protocol`).

Entry points: ``python -m repro verify`` (:mod:`repro.verify.cli`) and the
warn-by-default gate :func:`verify_target_config` that
:func:`repro.core.config.build_cosim` calls on every construction.
Verification is memoized per process — one CDG per distinct (topology,
routing, VC) triple and one protocol enumeration per table set — so the
gate adds nothing to sweeps that rebuild the same configuration.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..noc.config import NocConfig
from ..noc.routing import make_routing
from ..noc.topology import Topology
from .cdg import CdgResult, build_cdg, check_network, find_cycle
from .fixtures import FullyAdaptiveMinimalRouting, broken_cache_table
from .protocol import check_message_dependencies, check_protocol
from .report import Finding, VerifyReport

__all__ = [
    "CdgResult",
    "Finding",
    "FullyAdaptiveMinimalRouting",
    "VerifyReport",
    "broken_cache_table",
    "build_cdg",
    "check_message_dependencies",
    "check_network",
    "check_protocol",
    "find_cycle",
    "verify_noc",
    "verify_protocol",
    "verify_target_config",
]

#: network models whose transport is a detailed (wormhole, credit-based)
#: network and can therefore deadlock; abstract latency models always sink.
DETAILED_NETWORK_MODELS = ("cycle", "simd", "table-shadow")

_network_cache: Dict[Tuple[str, str, int, str], VerifyReport] = {}
_protocol_cache: Dict[int, VerifyReport] = {}


def verify_noc(topo: Topology, routing_name: str, noc: NocConfig) -> VerifyReport:
    """Memoized :func:`check_network` keyed on what determines the CDG.

    Returns a copy, so a caller that extends it cannot change the verdict
    later callers see.
    """
    key = (repr(topo), routing_name, noc.num_vcs, noc.vc_select)
    report = _network_cache.get(key)
    if report is None:
        report = check_network(topo, make_routing(routing_name), noc)
        _network_cache[key] = report
    return report.copy()


def verify_protocol(num_cores: int = 2) -> VerifyReport:
    """Memoized :func:`check_protocol` for the shipped tables (a copy)."""
    report = _protocol_cache.get(num_cores)
    if report is None:
        report = check_protocol(num_cores=num_cores)
        _protocol_cache[num_cores] = report
    return report.copy()


def verify_target_config(config, num_cores: int = 2) -> List[VerifyReport]:
    """Verify everything a :class:`~repro.core.config.TargetConfig` implies.

    Returns one report per checked subject: the network triple (only when
    the configured network model is a detailed one) and the coherence
    protocol.  Used as the pre-simulation gate by ``build_cosim``.
    """
    reports: List[VerifyReport] = []
    if config.network_model in DETAILED_NETWORK_MODELS:
        reports.append(
            verify_noc(config.make_topology(), config.routing, config.noc)
        )
    reports.append(verify_protocol(num_cores=num_cores))
    return reports
