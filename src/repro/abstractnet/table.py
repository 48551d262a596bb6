"""Retunable latency-table model.

The model keeps an EWMA latency estimate per (hop distance, message class)
bucket, seeded from the zero-load formula.  Standing alone it behaves like
the fixed model; fed with observations (either from a short cycle-level
calibration run or continuously, as the reciprocal-abstraction feedback path
does) it converges to the detailed simulator's *average* behaviour while
remaining O(1) per message.

This is the "model-based co-simulation" design point: cheaper than keeping
the detailed simulator in the loop, more accurate than a static formula, but
blind to transient congestion — exactly the gap experiment E8 quantifies.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..util import ewma
from .base import AbstractNetworkModel

__all__ = ["TableLatencyModel"]


class TableLatencyModel(AbstractNetworkModel):
    """Per-(distance, class) EWMA latency table.

    Args:
        alpha: EWMA weight for each observation.
        per_flit: extra cycles charged per body flit beyond the bucket's
            base (buckets are keyed by distance and class only, so packet
            size is factored out before averaging and added back after).
    """

    def __init__(self, topo, config, alpha: float = 0.1) -> None:
        super().__init__(topo, config)
        self.alpha = alpha
        #: (distance, msg_class) -> EWMA of size-normalized latency
        self._table: Dict[Tuple[int, int], float] = {}
        #: distance -> the zero-load seed of its buckets, filled on first use
        self._seeds: Dict[int, float] = {}
        self.observations = 0

    # ------------------------------------------------------------------
    def _base(self, hops: int) -> float:
        """Size-normalized zero-load latency for a distance bucket."""
        return float(self.config.min_latency(hops, 1))

    def latency(
        self, src: int, dst: int, size_flits: int, msg_class: int, now: int
    ) -> int:
        hops = self.topo.node_distance(src, dst)
        normalized = self._table.get((hops, msg_class))
        if normalized is None:
            normalized = self._seeds.get(hops)
            if normalized is None:
                normalized = self._seeds[hops] = self._base(hops)
        return max(1, round(normalized + (size_flits - 1)))

    def observe(
        self, src: int, dst: int, size_flits: int, msg_class: int, measured: int
    ) -> None:
        hops = self.topo.node_distance(src, dst)
        key = (hops, msg_class)
        sample = float(measured - (size_flits - 1))
        current = self._table.get(key)
        if current is None:
            # First observation replaces the seed outright: the seed is a
            # lower bound, not a sample, and should not drag the average.
            self._table[key] = sample
        else:
            self._table[key] = ewma(current, sample, self.alpha)
        self.observations += 1

    # ------------------------------------------------------------------
    def table_snapshot(self) -> Dict[Tuple[int, int], float]:
        """Copy of the learned table (tests and reports)."""
        return dict(self._table)

    def describe(self) -> Dict[str, object]:
        return {
            "model": "table",
            "alpha": self.alpha,
            "observations": self.observations,
            "buckets": len(self._table),
        }
