"""``ResultStoreAPI`` — the abstract face of a content-addressed job store.

Extracted from :mod:`repro.campaign.store` so the components that *use* a
store — the campaign engine, the serve scheduler, and the serve result
cache — depend on one interface instead of on SQLite.  Two tiers
implement it:

* :class:`repro.campaign.store.ResultStore` — the durable SQLite tier
  (one database file, WAL mode, crash-safe transitions);
* :class:`repro.cluster.storeapi.PeerBackedStore` — the networked tier: a
  local SQLite store that, on a lookup miss, asks ring peers for the
  content-hashed result before reporting the job unknown.

The contract every implementation keeps:

* **identity is content** — a job's key is its canonical-JSON SHA-256
  hash, so the same work has the same row everywhere;
* **payloads are verbatim text** — whatever text :meth:`mark_done`
  committed is what every later read returns, byte for byte;
* **transitions are atomic** — a crash between any two calls leaves a
  row some caller-visible state (``pending``/``running``/``done``/
  ``failed``), never half of one.

:meth:`adopt_done` is the cluster-enabling addition: committing a result
*computed elsewhere* without re-serializing it, so a peer-filled or
steal-completed payload stays byte-identical to its origin.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (store imports spec)
    from .spec import JobSpec
    from .store import JobRow

__all__ = ["ResultStoreAPI"]


class ResultStoreAPI(abc.ABC):
    """What the engine, scheduler, and cache require of a job store.

    Implementations expose ``path`` (a human-readable location string —
    a file path for the SQLite tier, the local tier's path for a
    networked store) and the lifecycle/query methods below.
    """

    path: str

    # -- lifecycle ------------------------------------------------------
    @abc.abstractmethod
    def close(self) -> None:
        """Release the store's resources; further calls are undefined."""

    # -- meta -----------------------------------------------------------
    @abc.abstractmethod
    def get_meta(self, key: str) -> Optional[str]:
        """The meta value for ``key``, or None when unset."""

    @abc.abstractmethod
    def set_meta(self, key: str, value: str) -> None:
        """Durably set one meta key."""

    # -- admission ------------------------------------------------------
    @abc.abstractmethod
    def add_jobs(self, jobs: Sequence["JobSpec"]) -> int:
        """Insert ``pending`` rows for new jobs; existing rows are kept.

        Returns the number of rows actually inserted.
        """

    @abc.abstractmethod
    def requeue_one(self, job_id: str) -> bool:
        """Put one ``failed`` job back to ``pending`` (fresh submission)."""

    @abc.abstractmethod
    def discard_pending(self, job_id: str) -> bool:
        """Delete a never-attempted ``pending`` row (admission rollback)."""

    @abc.abstractmethod
    def reset_running(self) -> int:
        """Re-queue jobs a crashed runner left ``running``; returns count."""

    @abc.abstractmethod
    def requeue_failed(self, max_attempts: int) -> int:
        """Re-queue ``failed`` jobs with attempts remaining; returns count."""

    @abc.abstractmethod
    def pending_jobs(self) -> List["JobRow"]:
        """Every pending job, in a deterministic order."""

    # -- transitions ----------------------------------------------------
    @abc.abstractmethod
    def mark_running(self, job_id: str, worker: str) -> None:
        """Record that ``worker`` started the job (attempts increment)."""

    @abc.abstractmethod
    def mark_done(self, job_id: str, payload: dict, wall_s: float) -> None:
        """Commit a locally computed result as canonical payload text."""

    @abc.abstractmethod
    def mark_failed(
        self, job_id: str, error: str, wall_s: Optional[float], requeue: bool
    ) -> None:
        """Record a failure; ``requeue`` returns the job to ``pending``."""

    @abc.abstractmethod
    def adopt_done(
        self,
        spec: "JobSpec",
        payload_text: str,
        wall_s: Optional[float],
        engine: Optional[str] = None,
        kernel_version: Optional[str] = None,
    ) -> bool:
        """Commit a result computed *elsewhere*, verbatim.

        The payload text is stored exactly as given — never re-parsed or
        re-serialized — so a peer-filled or steal-completed result stays
        byte-identical to the store that computed it.  Idempotent: a row
        already ``done`` is left untouched (the first copy wins; copies
        are byte-identical by the determinism contract anyway).  Returns
        True when the row was created or promoted to ``done``.
        """

    # -- queries --------------------------------------------------------
    @abc.abstractmethod
    def get_job(self, job_id: str) -> "JobRow":
        """The row for ``job_id``; raises ``ConfigError`` when unknown."""

    @abc.abstractmethod
    def counts(self) -> Dict[str, int]:
        """Job counts by status (all four statuses always present)."""

    @abc.abstractmethod
    def all_jobs(self) -> List["JobRow"]:
        """Every row, in a deterministic order (audit and report paths)."""
