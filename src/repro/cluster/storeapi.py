"""``PeerBackedStore`` — the networked tier of :class:`ResultStoreAPI`.

A decorator over the local SQLite :class:`~repro.campaign.store.ResultStore`
that adds exactly one behaviour: when a job id is *unknown locally*, ask
the ring for it before admitting defeat.  Everything else — every write,
every transition, every query of a job the local store knows — delegates
verbatim, so a single-node cluster is byte-identical to plain serve.

The miss path is deliberately narrow:

* a local row in **any** status short-circuits — status polls of queued
  or running jobs never generate peer traffic;
* only a genuinely unknown id triggers the injected ``fill`` callable
  (the cluster node wires it to "probe the ring preference list"), and a
  fetched result is committed via :meth:`adopt_done` **verbatim** before
  being re-read locally — after a fill the store is indistinguishable
  from one that computed the job itself;
* a fill that finds nothing re-raises the local "unknown job" error, so
  callers see the same exception surface as the SQLite tier.

The ``fill`` callable keeps this module network-agnostic (unit tests
inject a dict lookup; the node injects :class:`PeerClient` probes) and
the hit/miss counters feed the node's ``peer_fill`` metrics.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from ..campaign.storeapi import ResultStoreAPI
from ..errors import ConfigError
from .peer import PeerResult

__all__ = ["PeerBackedStore", "ResultStoreAPI"]

#: a fill probe: job id → the peer's result, or None when no peer has it
FillFn = Callable[[str], Optional[PeerResult]]


class PeerBackedStore(ResultStoreAPI):
    """A local store that fills lookup misses from ring peers.

    Args:
        local: the durable tier every operation ultimately lands in.
        fill: the miss probe (see module docstring).  ``None`` disables
            peer fill entirely — useful while a node is still joining.
    """

    def __init__(self, local: ResultStoreAPI, fill: Optional[FillFn] = None) -> None:
        self.local = local
        self.path = local.path
        self._fill = fill
        self.fill_hits = 0
        self.fill_misses = 0

    def set_fill(self, fill: Optional[FillFn]) -> None:
        """Swap the miss probe (the node rewires it as the ring changes)."""
        self._fill = fill

    # -- the one behaviour this tier adds -------------------------------
    def get_job(self, job_id: str):
        try:
            return self.local.get_job(job_id)
        except ConfigError:
            if self._fill is None:
                raise
        result = self._fill(job_id)
        if result is None:
            self.fill_misses += 1
            raise ConfigError(f"unknown job id: {job_id}")
        if result.spec.job_id != job_id:
            raise ConfigError(
                f"peer fill returned job {result.spec.job_id} for {job_id} "
                "(content-identity violation)"
            )
        self.fill_hits += 1
        self.local.adopt_done(
            result.spec,
            result.payload_text,
            result.wall_s,
            engine=result.engine,
            kernel_version=result.kernel_version,
        )
        return self.local.get_job(job_id)

    # -- pure delegation ------------------------------------------------
    def close(self) -> None:
        self.local.close()

    def get_meta(self, key: str) -> Optional[str]:
        return self.local.get_meta(key)

    def set_meta(self, key: str, value: str) -> None:
        self.local.set_meta(key, value)

    def add_jobs(self, jobs: Sequence) -> int:
        return self.local.add_jobs(jobs)

    def requeue_one(self, job_id: str) -> bool:
        return self.local.requeue_one(job_id)

    def discard_pending(self, job_id: str) -> bool:
        return self.local.discard_pending(job_id)

    def reset_running(self) -> int:
        return self.local.reset_running()

    def requeue_failed(self, max_attempts: int) -> int:
        return self.local.requeue_failed(max_attempts)

    def pending_jobs(self) -> List:
        return self.local.pending_jobs()

    def mark_running(self, job_id: str, worker: str) -> None:
        self.local.mark_running(job_id, worker)

    def mark_done(self, job_id: str, payload: dict, wall_s: float) -> None:
        self.local.mark_done(job_id, payload, wall_s)

    def mark_failed(
        self, job_id: str, error: str, wall_s: Optional[float], requeue: bool
    ) -> None:
        self.local.mark_failed(job_id, error, wall_s, requeue)

    def adopt_done(
        self,
        spec,
        payload_text: str,
        wall_s: Optional[float],
        engine: Optional[str] = None,
        kernel_version: Optional[str] = None,
    ) -> bool:
        return self.local.adopt_done(
            spec, payload_text, wall_s, engine=engine, kernel_version=kernel_version
        )

    def counts(self) -> Dict[str, int]:
        return self.local.counts()

    def all_jobs(self) -> List:
        return self.local.all_jobs()
