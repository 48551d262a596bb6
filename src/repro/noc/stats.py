"""Statistics collection for network simulators.

:class:`NetworkStats` is shared by the object-oriented cycle network and the
SIMD (GPU-style) network so experiments can compare them directly.  It keeps
streaming aggregates plus the full latency sample list (experiments need
percentiles and distribution comparisons, and even long runs stay in the
low millions of packets).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from .packet import Packet

__all__ = ["ClassStats", "NetworkStats"]


@dataclass
class ClassStats:
    """Aggregates for one message class."""

    packets: int = 0
    flits: int = 0
    total_latency: int = 0
    total_network_latency: int = 0
    total_hops: int = 0

    @property
    def mean_latency(self) -> float:
        return self.total_latency / self.packets if self.packets else 0.0

    @property
    def mean_network_latency(self) -> float:
        return self.total_network_latency / self.packets if self.packets else 0.0

    @property
    def mean_hops(self) -> float:
        return self.total_hops / self.packets if self.packets else 0.0


@dataclass
class NetworkStats:
    """Aggregate and per-class statistics for a simulated network."""

    injected_packets: int = 0
    injected_flits: int = 0
    ejected_packets: int = 0
    ejected_flits: int = 0
    cycles: int = 0
    per_class: Dict[int, ClassStats] = field(
        default_factory=lambda: defaultdict(ClassStats)
    )
    latencies: List[int] = field(default_factory=list)
    network_latencies: List[int] = field(default_factory=list)

    # ------------------------------------------------------------------
    def record_injection(self, packet: Packet) -> None:
        self.injected_packets += 1
        self.injected_flits += packet.size_flits

    def record_ejection(self, packet: Packet) -> None:
        size, latency = packet.size_flits, packet.latency
        self.ejected_packets += 1
        self.ejected_flits += size
        cls = self.per_class[packet.msg_class]
        cls.packets += 1
        cls.flits += size
        cls.total_latency += latency
        cls.total_hops += packet.hops
        self.latencies.append(latency)
        if packet.network_entry_cycle is not None:
            network_latency = packet.network_latency
            cls.total_network_latency += network_latency
            self.network_latencies.append(network_latency)

    # ------------------------------------------------------------------
    @property
    def in_flight_packets(self) -> int:
        return self.injected_packets - self.ejected_packets

    @property
    def mean_latency(self) -> float:
        """Mean end-to-end packet latency (cycles), incl. source queueing."""
        return float(np.mean(self.latencies)) if self.latencies else 0.0

    @property
    def mean_network_latency(self) -> float:
        return float(np.mean(self.network_latencies)) if self.network_latencies else 0.0

    def latency_percentile(self, q: float) -> float:
        """``q``-th percentile of packet latency (``q`` in [0, 100])."""
        if not self.latencies:
            return 0.0
        return float(np.percentile(self.latencies, q))

    @property
    def mean_hops(self) -> float:
        pkts = sum(c.packets for c in self.per_class.values())
        hops = sum(c.total_hops for c in self.per_class.values())
        return hops / pkts if pkts else 0.0

    def throughput_flits_per_cycle(self) -> float:
        """Accepted throughput: ejected flits per elapsed cycle."""
        return self.ejected_flits / self.cycles if self.cycles else 0.0

    def offered_load(self, num_nodes: int) -> float:
        """Injected flits per node per cycle."""
        if not self.cycles or not num_nodes:
            return 0.0
        return self.injected_flits / (self.cycles * num_nodes)

    def latency_histogram(self, bin_width: int = 8) -> Dict[int, int]:
        """Histogram of end-to-end latency, keyed by bin lower edge."""
        hist: Dict[int, int] = defaultdict(int)
        for lat in self.latencies:
            hist[(lat // bin_width) * bin_width] += 1
        return dict(sorted(hist.items()))

    def summary(self) -> Dict[str, float]:
        """Flat summary dict, convenient for reports and tests."""
        return {
            "cycles": float(self.cycles),
            "injected_packets": float(self.injected_packets),
            "ejected_packets": float(self.ejected_packets),
            "mean_latency": self.mean_latency,
            "mean_network_latency": self.mean_network_latency,
            "p95_latency": self.latency_percentile(95.0),
            "mean_hops": self.mean_hops,
            "throughput_flits_per_cycle": self.throughput_flits_per_cycle(),
        }

    def class_summary(self, msg_class: int) -> ClassStats:
        return self.per_class[msg_class]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"NetworkStats(cycles={self.cycles}, in={self.injected_packets}, "
            f"out={self.ejected_packets}, lat={self.mean_latency:.1f})"
        )
