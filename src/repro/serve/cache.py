"""The content-addressed result cache behind the daemon.

Identity is the campaign layer's SHA-256 job hash: two submissions that
canonicalize to the same :class:`~repro.campaign.spec.JobSpec` share one
cache entry, whatever their field order or client.  Payloads are stored
*as the canonical JSON text the store committed* and returned verbatim,
so a cache hit is byte-identical to the first computation — across the
in-memory LRU, the SQLite tier, and daemon restarts.

Two tiers:

* an in-memory LRU (``OrderedDict``) for the hot set — hits cost a dict
  move-to-end, no SQLite round trip;
* the :class:`~repro.campaign.store.ResultStore` SQLite database as the
  durable tier — the same schema ``python -m repro campaign`` writes, so
  a finished campaign database can be mounted read-hot as a serve cache
  and a serve cache can be inspected with ``campaign status``.

On a cluster node the cache has a third source behind the two: a
``fill`` probe asks ring peers for a job id the store has never seen
(see :meth:`ResultCache._read`), and a found result is adopted verbatim
before it is answered.

The store connection is shared across the daemon's threads (asyncio
frontier, scheduler, and on a cluster node its HTTP handlers and agent),
so every store access is serialized behind one lock; WAL mode on the
store keeps any *other* process's readers unblocked.  The peer probe is
not a store access and runs outside the lock: a miss that waits on the
ring never holds up another thread's commit or read.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

from ..campaign.spec import JobSpec
from ..campaign.store import JobRow, ResultStore
from ..errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - serve never imports the cluster layer
    from ..cluster.peer import PeerResult

#: a peer-fill probe: job id -> a ring peer's result, or None when none has it
FillFn = Callable[[str], Optional["PeerResult"]]

__all__ = ["ResultCache"]


class ResultCache:
    """LRU-over-SQLite result cache keyed by job content hash.

    Args:
        path: SQLite database path (``":memory:"`` for ephemeral daemons).
        lru_size: entries kept in the in-memory tier (0 disables it).
        fill: the peer-fill probe a cluster node wires to its ring; None
            (plain serve) answers an unknown id as unknown.
    """

    def __init__(
        self,
        path: str,
        lru_size: int = 256,
        fill: Optional[FillFn] = None,
    ) -> None:
        if lru_size < 0:
            raise ConfigError(f"lru_size must be >= 0, got {lru_size}")
        self._lock = threading.RLock()
        self._store = ResultStore(path, cross_thread=True)
        self._lru: "OrderedDict[str, str]" = OrderedDict()
        self._lru_size = lru_size
        self._fill = fill
        #: unknown ids a peer answered / no peer could answer
        self.fill_hits = 0
        self.fill_misses = 0
        # Tag fresh databases so `campaign run` refuses to mix a campaign
        # grid into a serve cache (spec_hash is its refusal key).
        if self._store.get_meta("spec_hash") is None:
            self._store.set_meta("spec_hash", "serve")
            self._store.set_meta("spec", json.dumps({"service": "repro.serve"}))

    # -- lookups --------------------------------------------------------
    def lookup(self, job_id: str) -> Optional[str]:
        """The cached payload text for ``job_id``, or None on miss.

        The text is exactly what :meth:`commit` stored — byte-identical
        replay is the whole contract.
        """
        return self.fetch(job_id)[0]

    def fetch(self, job_id: str) -> Tuple[Optional[str], Optional[JobRow]]:
        """``(payload text, store row)`` for ``job_id`` in at most one store read.

        An id in the memory tier answers ``(text, None)`` with no read at
        all.  Otherwise the one row read either carries the payload of a
        ``done`` job (remembered, returned as the text) or says why there
        is none: ``(None, row)`` for a job not done, ``(None, None)`` for
        an unknown id.
        """
        with self._lock:
            text = self._lru.get(job_id)
            if text is not None:
                self._lru.move_to_end(job_id)
                return text, None
        try:
            row = self._read(job_id)
        except ConfigError:
            return None, None
        if row.status != "done" or row.payload is None:
            return None, row
        with self._lock:
            self._remember(job_id, row.payload)
        return row.payload, row

    def job_row(self, job_id: str) -> Optional[JobRow]:
        """The store row for ``job_id`` (status/attempts/provenance), or None."""
        try:
            return self._read(job_id)
        except ConfigError:
            return None

    def local_row(self, job_id: str) -> Optional[JobRow]:
        """The store row for ``job_id`` without peer fill, or None.

        What a cluster node reads about its *own* rows: answering a
        peer's fill probe, pushing a stolen result home, re-admitting a
        lent job.  Taken under the cache lock like every store access, so
        it never sees a transition whose commit has not finished.
        """
        with self._lock:
            try:
                return self._store.get_job(job_id)
            except ConfigError:
                return None

    # -- admission ------------------------------------------------------
    def admit(self, spec: JobSpec) -> bool:
        """Ensure a pending row exists for ``spec``.

        A brand-new job inserts ``pending``; a previously ``failed`` job is
        re-queued (fresh submission, preserved attempt count).  Returns
        False when the job is already ``done`` (caller should answer from
        cache instead of queueing).
        """
        with self._lock:
            inserted = self._store.add_jobs([spec])
            if inserted:
                return True
            row = self._store.get_job(spec.job_id)
            if row.status == "done":
                return False
            if row.status == "failed":
                self._store.requeue_one(spec.job_id)
            return True

    def retract(self, job_id: str) -> bool:
        """Roll back an admission that never made it into the queue.

        Deletes the job's ``pending`` row iff it has never been attempted
        — the compensation for :meth:`admit` when the admission queue
        refuses the job (429).  Without it the rejected submission would
        survive as a pending row and a restart's recovery pass would
        silently execute work the client was told to retry elsewhere.
        """
        with self._lock:
            return self._store.discard_pending(job_id)

    # -- scheduler side -------------------------------------------------
    def mark_running(self, job_id: str, worker: str) -> None:
        with self._lock:
            self._store.mark_running(job_id, worker)

    def commit(self, job_id: str, payload: dict, wall_s: float) -> str:
        """Record a computed result; returns the canonical payload text."""
        with self._lock:
            self._store.mark_done(job_id, payload, wall_s)
            text = self._store.get_job(job_id).payload
            if text is None:  # pragma: no cover - mark_done always writes
                raise ConfigError(f"store lost the payload for {job_id}")
            self._remember(job_id, text)
            return text

    def adopt(
        self,
        spec: JobSpec,
        payload_text: str,
        wall_s: Optional[float],
        engine: Optional[str] = None,
        kernel_version: Optional[str] = None,
    ) -> bool:
        """Commit a result computed elsewhere, verbatim (cluster fill/steal).

        Delegates to the store's :meth:`~ResultStore.adopt_done` and
        warms the LRU with the adopted text.  Returns True when the row
        was created or promoted to ``done``; False when it was already
        done (the first, byte-identical copy is kept).
        """
        with self._lock:
            adopted = self._store.adopt_done(
                spec, payload_text, wall_s,
                engine=engine, kernel_version=kernel_version,
            )
            self._remember(spec.job_id, self._store.get_job(spec.job_id).payload)
            return adopted

    def mark_failed(self, job_id: str, error: str, wall_s: Optional[float],
                    requeue: bool) -> None:
        with self._lock:
            self._store.mark_failed(job_id, error, wall_s, requeue=requeue)

    def attempts(self, job_id: str) -> int:
        with self._lock:
            return self._store.get_job(job_id).attempts

    def bump_meta(self, key: str) -> int:
        """Increment the integer meta value ``key`` (unset reads 0); return it."""
        with self._lock:
            value = int(self._store.get_meta(key) or "0") + 1
            self._store.set_meta(key, str(value))
            return value

    # -- restart recovery -----------------------------------------------
    def recover(self) -> Tuple[List[JobSpec], int]:
        """Re-queue interrupted work after a restart.

        Returns ``(specs, reclaimed)``: every job the previous daemon had
        accepted but not finished (``running`` rows are first reset to
        ``pending`` — the SIGTERM-drain signature), ready for re-admission
        to the queue.
        """
        with self._lock:
            reclaimed = self._store.reset_running()
            specs = [row.job_spec() for row in self._store.pending_jobs()]
            return specs, reclaimed

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            self._store.close()
            self._lru.clear()

    def __enter__(self) -> "ResultCache":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- internals ------------------------------------------------------
    def _read(self, job_id: str) -> JobRow:
        """The store row for ``job_id``, filled from a peer on a miss.

        Takes the lock for the store steps only.  A local row in any
        status answers — status polls of queued or running jobs never
        generate peer traffic.  Only an unknown id asks ``fill``, with the
        lock released: a probe can take ``fill_peers × peer_timeout_s``,
        and the scheduler's commits and the node's ``local_row`` reads
        must not wait on it.  Then, under the lock again, the id is
        re-read — a local row that appeared meanwhile (the job computed
        or adopted here) wins and the probe's answer is dropped — and
        otherwise a found result is committed verbatim through
        ``adopt_done`` and read back, so after a fill the store is
        indistinguishable from one that computed the job itself.  Raises
        ``ConfigError`` for an id no peer has (the local "unknown job id"
        surface) and for a peer answering with another job.
        """
        row = self.local_row(job_id)
        if row is not None:
            return row
        if self._fill is None:
            raise ConfigError(f"unknown job id: {job_id}")
        result = self._fill(job_id)
        with self._lock:
            row = self.local_row(job_id)
            if row is not None:
                return row
            if result is None:
                self.fill_misses += 1
                raise ConfigError(f"unknown job id: {job_id}")
            if result.spec.job_id != job_id:
                raise ConfigError(
                    f"peer fill returned job {result.spec.job_id} for {job_id} "
                    "(content-identity violation)"
                )
            self.fill_hits += 1
            self._store.adopt_done(
                result.spec,
                result.payload_text,
                result.wall_s,
                engine=result.engine,
                kernel_version=result.kernel_version,
            )
            return self._store.get_job(job_id)

    def _remember(self, job_id: str, text: str) -> None:
        if not self._lru_size:
            return
        self._lru[job_id] = text
        self._lru.move_to_end(job_id)
        while len(self._lru) > self._lru_size:
            self._lru.popitem(last=False)

    def lru_contents(self) -> Sequence[str]:
        """Job ids currently in the memory tier, oldest first (tests)."""
        with self._lock:
            return tuple(self._lru)
