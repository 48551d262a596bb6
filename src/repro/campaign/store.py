"""The SQLite-backed campaign job store.

One database file per campaign.  The ``jobs`` table holds one row per
content-hashed job: its spec, lifecycle status (``pending`` -> ``running``
-> ``done`` | ``failed``), attempt count, result payload (the same JSON
schema :mod:`repro.harness.persist` writes), and provenance — which worker
ran it, when, and for how long.  The ``meta`` table pins the store schema
version and the campaign spec, so ``--resume`` can verify it is continuing
the *same* campaign and refuse to mix grids.

Concurrency model: a campaign has exactly one *writer* — the engine
process (the pool's parent) — and workers report results over pipes, so
writes never race each other.  Readers are another matter: the serve
daemon (:mod:`repro.serve`) opens additional connections to answer status
and result queries while the writer commits, so file-backed stores run in
WAL mode with a busy timeout — readers see consistent snapshots instead
of ``database is locked`` errors, and the writer never blocks on them.
Every status change is still its own committed transaction, which is what
makes the store survive ``kill -9`` at any instant.

Timestamps (``started_at`` / ``finished_at``) are written by SQLite's own
``datetime('now')``: provenance wants host wall-clock, but keeping the
reads inside SQL means no Python-level wall-clock calls in this module —
per-job durations come from ``time.monotonic`` in the worker instead
(see :mod:`repro.campaign.pool`).
"""

from __future__ import annotations

import json
import os
import sqlite3
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from ..errors import ConfigError, StoreCorruptError, StoreIOError
from .spec import CampaignSpec, JobSpec

__all__ = ["ResultStore", "JobRow", "STORE_SCHEMA_VERSION"]

#: chaos-injection shim (see :mod:`repro.chaos.inject`): when armed, called
#: with the store before every transaction commit.  ``None`` (the default)
#: costs one identity check — the store never imports chaos.
CHAOS_COMMIT_HOOK = None

#: bump on incompatible store-layout change
STORE_SCHEMA_VERSION = 2

#: how long a connection waits on a competing writer before erroring (ms)
BUSY_TIMEOUT_MS = 5_000

_STATUSES = ("pending", "running", "done", "failed")

_TABLES = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS jobs (
    job_id      TEXT PRIMARY KEY,
    eid         TEXT NOT NULL,
    point_index INTEGER NOT NULL,
    replicate   INTEGER NOT NULL DEFAULT 0,
    spec        TEXT NOT NULL,
    status      TEXT NOT NULL DEFAULT 'pending',
    attempts    INTEGER NOT NULL DEFAULT 0,
    worker      TEXT,
    started_at  TEXT,
    finished_at TEXT,
    wall_s      REAL,
    error       TEXT,
    payload     TEXT,
    engine      TEXT,
    kernel_version TEXT
);
CREATE INDEX IF NOT EXISTS idx_jobs_status ON jobs(status);
CREATE INDEX IF NOT EXISTS idx_jobs_eid ON jobs(eid, replicate, point_index);
"""

#: schema version -> SQL that upgrades it one step.  v1 -> v2 adds the
#: engine-provenance columns; old rows keep NULL (engine unrecorded) and
#: stay fully readable.
_MIGRATIONS: Dict[int, str] = {
    1: "ALTER TABLE jobs ADD COLUMN engine TEXT;\n"
    "ALTER TABLE jobs ADD COLUMN kernel_version TEXT;",
}


class JobRow:
    """One row of the ``jobs`` table, attribute-accessed."""

    __slots__ = (
        "job_id",
        "eid",
        "point_index",
        "replicate",
        "spec",
        "status",
        "attempts",
        "worker",
        "started_at",
        "finished_at",
        "wall_s",
        "error",
        "payload",
        "engine",
        "kernel_version",
    )

    def __init__(self, row: sqlite3.Row) -> None:
        for name in self.__slots__:
            setattr(self, name, row[name])

    def job_spec(self) -> JobSpec:
        return JobSpec.from_json(self.spec)

    def record(self):
        """The job's result record (from the payload JSON), or None."""
        if self.payload is None:
            return None
        return json.loads(self.payload).get("record")


class ResultStore:
    """Open (creating if needed) the campaign database at ``path``.

    ``":memory:"`` is accepted for ephemeral campaigns (benchmarks, tests).

    Args:
        path: database file (created with its parent directories).
        cross_thread: allow this store to be used from threads other than
            the creating one.  The store does **not** become lock-free —
            the caller must serialize access (the serve daemon wraps its
            shared store in an ``RLock``); this only lifts sqlite3's
            same-thread ownership check.
    """

    def __init__(self, path: str | Path, cross_thread: bool = False) -> None:
        self.path = str(path)
        self._conn: Optional[sqlite3.Connection] = None
        if self.path != ":memory:":
            Path(self.path).parent.mkdir(parents=True, exist_ok=True)
        preexisting = self.path != ":memory:" and Path(self.path).exists()
        try:
            self._conn = sqlite3.connect(
                self.path, check_same_thread=not cross_thread
            )
            self._conn.row_factory = sqlite3.Row
            if self.path != ":memory:":
                # WAL lets the serve daemon's reader connections see consistent
                # snapshots while the single writer commits; the busy timeout
                # absorbs the brief writer-vs-writer window on requeue paths.
                # NORMAL sync is the standard WAL pairing (durable except power
                # loss mid-checkpoint; a campaign re-runs the lost job anyway).
                self._conn.execute("PRAGMA journal_mode=WAL")
                self._conn.execute(f"PRAGMA busy_timeout={BUSY_TIMEOUT_MS}")
                self._conn.execute("PRAGMA synchronous=NORMAL")
            if preexisting:
                # Campaign databases are resumed and trusted as provenance;
                # a torn page must never masquerade as completed work.  The
                # stores are small (one row per job), so the full check is
                # cheap relative to one simulation job.
                verdict = self._conn.execute(
                    "PRAGMA integrity_check"
                ).fetchone()[0]
                if verdict != "ok":
                    self._quarantine(f"integrity_check: {verdict}")
            self._conn.executescript(_TABLES)
        except sqlite3.DatabaseError as exc:
            # "file is not a database" and friends: quarantine, never a raw
            # sqlite3 traceback out of the constructor.
            self._quarantine(str(exc))
        self._commit()
        found = self.get_meta("store_schema")
        if found is None:
            self.set_meta("store_schema", str(STORE_SCHEMA_VERSION))
        else:
            self._migrate(found)

    def _quarantine(self, reason: str) -> None:
        """Move a corrupt database aside and refuse to open it.

        The rename frees ``self.path`` for a fresh store while preserving
        the damaged bytes (and their WAL/SHM sidecars — a stale WAL must
        never be replayed into a replacement database) for forensics.
        """
        if self._conn is not None:
            try:
                self._conn.close()
            except sqlite3.Error:  # simlint: allow[swallowed-exception] — already corrupt
                pass
            self._conn = None
        quarantined = ""
        if self.path != ":memory:":
            target = f"{self.path}.corrupt"
            suffix = 0
            while Path(target).exists():
                suffix += 1
                target = f"{self.path}.corrupt-{suffix}"
            os.replace(self.path, target)
            for sidecar in (f"{self.path}-wal", f"{self.path}-shm"):
                if Path(sidecar).exists():
                    os.replace(sidecar, f"{target}{sidecar[len(self.path):]}")
            quarantined = target
        raise StoreCorruptError(
            f"{self.path}: store failed its opening integrity check "
            f"({reason}); quarantined to {quarantined or 'nowhere (in-memory)'}"
            " — resume from a fresh database",
            path=self.path,
            quarantined_to=quarantined,
        )

    def rollback(self) -> None:
        """Discard the open transaction (error paths and crash simulation)."""
        self._conn.rollback()

    def _commit(self) -> None:
        """Commit the open transaction, crash-safely.

        Every mutation in this module funnels through here: the chaos shim
        fires first (when armed), and a real ``sqlite3``/OS failure rolls
        the transaction back and surfaces as a structured
        :class:`~repro.errors.StoreIOError` — the connection stays usable,
        so the caller may retry the whole state transition.
        """
        hook = CHAOS_COMMIT_HOOK
        if hook is not None:
            hook(self)
        try:
            self._conn.commit()
        except (sqlite3.Error, OSError) as exc:
            try:
                self._conn.rollback()
            except sqlite3.Error:  # simlint: allow[swallowed-exception] — txn already dead
                pass
            raise StoreIOError(f"{self.path}: commit failed: {exc}") from exc

    def _migrate(self, found: str) -> None:
        """Upgrade an older on-disk schema in place, one step at a time.

        Each step is committed with its version bump in one transaction,
        so a crash mid-upgrade leaves a database some *complete* older
        version still recognizes.  Newer-than-supported schemas refuse.
        """
        try:
            version = int(found)
        except ValueError:
            version = -1
        while version < STORE_SCHEMA_VERSION:
            if version not in _MIGRATIONS:
                break
            self._conn.executescript(_MIGRATIONS[version])
            version += 1
            self._conn.execute(
                "UPDATE meta SET value = ? WHERE key = 'store_schema'",
                (str(version),),
            )
            self._commit()
        if version != STORE_SCHEMA_VERSION:
            raise ConfigError(
                f"{self.path}: campaign store schema {found} is not the "
                f"supported version {STORE_SCHEMA_VERSION} (a different "
                "version of repro wrote this database)"
            )

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- meta -----------------------------------------------------------
    def get_meta(self, key: str) -> Optional[str]:
        row = self._conn.execute("SELECT value FROM meta WHERE key = ?", (key,)).fetchone()
        return None if row is None else row["value"]

    def set_meta(self, key: str, value: str) -> None:
        self._conn.execute(
            "INSERT INTO meta(key, value) VALUES(?, ?) "
            "ON CONFLICT(key) DO UPDATE SET value = excluded.value",
            (key, value),
        )
        self._commit()

    # -- campaign initialization ---------------------------------------
    def initialize(self, spec: CampaignSpec) -> bool:
        """Pin ``spec`` to this store and insert its job grid.

        Returns True when the store was empty (fresh campaign), False when
        it already held the same campaign (resume).  A store holding a
        *different* campaign raises: resuming must never silently mix
        grids, because job ids from the old grid would be skipped as
        "done" while meaning something else.
        """
        existing = self.get_meta("spec_hash")
        if existing is not None and existing != spec.spec_hash:
            raise ConfigError(
                f"{self.path} already holds campaign {existing} "
                f"(spec {self.get_meta('spec')}); refusing to reuse it for "
                f"campaign {spec.spec_hash} — pass a fresh --db or matching "
                "arguments"
            )
        fresh = existing is None
        if fresh:
            self.set_meta("spec_hash", spec.spec_hash)
            self.set_meta("spec", spec.to_json())
            self._conn.execute(
                "INSERT INTO meta(key, value) VALUES('created_at', datetime('now')) "
                "ON CONFLICT(key) DO NOTHING"
            )
        # INSERT OR IGNORE: on resume the grid is already there, and the
        # content-hashed primary key guarantees identity.
        self._conn.executemany(
            "INSERT OR IGNORE INTO jobs(job_id, eid, point_index, replicate, spec) "
            "VALUES(?, ?, ?, ?, ?)",
            [
                (job.job_id, job.eid, job.point_index, job.replicate, job.to_json())
                for job in spec.expand()
            ],
        )
        self._commit()
        return fresh

    def add_jobs(self, jobs: Sequence[JobSpec]) -> int:
        """Insert ad-hoc job rows (serve-daemon admission path).

        Unlike :meth:`initialize` this pins no campaign spec: the serve
        daemon grows its job set one submission at a time.  Rows that
        already exist (same content hash) are left untouched — a completed
        job stays ``done`` and becomes a cache hit.  Returns the number of
        rows actually inserted.
        """
        before = self._conn.total_changes
        self._conn.executemany(
            "INSERT OR IGNORE INTO jobs(job_id, eid, point_index, replicate, spec) "
            "VALUES(?, ?, ?, ?, ?)",
            [
                (job.job_id, job.eid, job.point_index, job.replicate, job.to_json())
                for job in jobs
            ],
        )
        self._commit()
        return self._conn.total_changes - before

    def requeue_one(self, job_id: str) -> bool:
        """Put one ``failed`` job back in the queue (fresh submission).

        Attempt counts are preserved — provenance, not punishment.  Returns
        True when the row was failed and is now pending again.
        """
        cur = self._conn.execute(
            "UPDATE jobs SET status = 'pending', error = NULL "
            "WHERE job_id = ? AND status = 'failed'",
            (job_id,),
        )
        self._commit()
        return cur.rowcount == 1

    def discard_pending(self, job_id: str) -> bool:
        """Delete a never-attempted ``pending`` row (admission rollback).

        Only rows with zero attempts qualify: a requeued failure carries
        provenance worth keeping, and anything past ``pending`` has been
        (or is being) executed.  Returns True when a row was deleted.
        """
        cur = self._conn.execute(
            "DELETE FROM jobs WHERE job_id = ? AND status = 'pending' "
            "AND attempts = 0",
            (job_id,),
        )
        self._commit()
        return cur.rowcount == 1

    def campaign_spec(self) -> CampaignSpec:
        text = self.get_meta("spec")
        if text is None:
            raise ConfigError(f"{self.path} holds no campaign spec (empty store?)")
        return CampaignSpec.from_json(text)

    # -- job transitions ------------------------------------------------
    def reset_running(self) -> int:
        """Re-queue jobs a crashed engine left ``running``; returns count."""
        cur = self._conn.execute(
            "UPDATE jobs SET status = 'pending', worker = NULL WHERE status = 'running'"
        )
        self._commit()
        return cur.rowcount

    def requeue_failed(self, max_attempts: int) -> int:
        """Re-queue ``failed`` jobs that still have attempts left."""
        cur = self._conn.execute(
            "UPDATE jobs SET status = 'pending', error = NULL "
            "WHERE status = 'failed' AND attempts < ?",
            (max_attempts,),
        )
        self._commit()
        return cur.rowcount

    def pending_jobs(self) -> List[JobRow]:
        """Every pending job, in deterministic (eid, replicate, point) order."""
        rows = self._conn.execute(
            "SELECT * FROM jobs WHERE status = 'pending' "
            "ORDER BY eid, replicate, point_index"
        ).fetchall()
        return [JobRow(r) for r in rows]

    def mark_running(self, job_id: str, worker: str) -> None:
        self._mark(
            job_id,
            "UPDATE jobs SET status = 'running', worker = ?, attempts = attempts + 1, "
            "started_at = datetime('now'), finished_at = NULL, error = NULL "
            "WHERE job_id = ?",
            (worker, job_id),
        )

    def mark_done(self, job_id: str, payload: dict, wall_s: float) -> None:
        """Commit a result.

        A ``_provenance`` key in ``payload`` (``{"engine": ...,
        "kernel_version": ...}``, attached by the worker-side executor) is
        *lifted out* into the provenance columns rather than stored: the
        canonical payload text stays byte-identical whichever engine
        computed it — the engines' bit-identity contract is what keeps a
        cached row valid — while the columns record which engine did.
        """
        provenance = payload.get("_provenance") or {}
        payload = {k: v for k, v in payload.items() if k != "_provenance"}
        self._mark(
            job_id,
            "UPDATE jobs SET status = 'done', payload = ?, wall_s = ?, "
            "engine = ?, kernel_version = ?, "
            "finished_at = datetime('now') WHERE job_id = ?",
            (
                json.dumps(payload, sort_keys=True),
                wall_s,
                provenance.get("engine"),
                provenance.get("kernel_version"),
                job_id,
            ),
        )

    def adopt_done(
        self,
        spec: JobSpec,
        payload_text: str,
        wall_s: Optional[float],
        engine: Optional[str] = None,
        kernel_version: Optional[str] = None,
    ) -> bool:
        """Commit a result computed elsewhere, verbatim (cluster tier).

        Unlike :meth:`mark_done` the payload is stored as the exact text
        given — never parsed and re-serialized — so a peer-filled or
        steal-completed row is byte-identical to the store that computed
        it.  Attempts are *not* incremented: this store did no work, and
        the audit's "computed at least once" check relies on attempt
        counts recording real executions.  Idempotent: an existing
        ``done`` row is left untouched (first copy wins).  Returns True
        when a row was created or promoted to ``done``.
        """
        row = self._conn.execute(
            "SELECT status FROM jobs WHERE job_id = ?", (spec.job_id,)
        ).fetchone()
        if row is None:
            self._conn.execute(
                "INSERT INTO jobs(job_id, eid, point_index, replicate, spec, "
                "status, payload, wall_s, engine, kernel_version, finished_at) "
                "VALUES(?, ?, ?, ?, ?, 'done', ?, ?, ?, ?, datetime('now'))",
                (
                    spec.job_id,
                    spec.eid,
                    spec.point_index,
                    spec.replicate,
                    spec.to_json(),
                    payload_text,
                    wall_s,
                    engine,
                    kernel_version,
                ),
            )
            self._commit()
            return True
        if row["status"] == "done":
            return False
        self._conn.execute(
            "UPDATE jobs SET status = 'done', payload = ?, wall_s = ?, "
            "engine = ?, kernel_version = ?, error = NULL, "
            "finished_at = datetime('now') WHERE job_id = ?",
            (payload_text, wall_s, engine, kernel_version, spec.job_id),
        )
        self._commit()
        return True

    def mark_failed(
        self, job_id: str, error: str, wall_s: Optional[float], requeue: bool
    ) -> None:
        """Record a failure; ``requeue`` puts the job back in the queue."""
        status = "pending" if requeue else "failed"
        self._mark(
            job_id,
            "UPDATE jobs SET status = ?, error = ?, wall_s = ?, "
            "finished_at = datetime('now') WHERE job_id = ?",
            (status, error, wall_s, job_id),
        )

    def _mark(self, job_id: str, sql: str, params: Sequence) -> None:
        cur = self._conn.execute(sql, params)
        if cur.rowcount != 1:
            self._conn.rollback()
            raise ConfigError(f"unknown job id {job_id!r} in {self.path}")
        self._commit()

    # -- queries --------------------------------------------------------
    def get_job(self, job_id: str) -> JobRow:
        row = self._conn.execute(
            "SELECT * FROM jobs WHERE job_id = ?", (job_id,)
        ).fetchone()
        if row is None:
            raise ConfigError(f"unknown job id {job_id!r} in {self.path}")
        return JobRow(row)

    def counts(self) -> Dict[str, int]:
        """Job counts by status (all four statuses always present)."""
        tally = dict.fromkeys(_STATUSES, 0)
        for row in self._conn.execute(
            "SELECT status, COUNT(*) AS n FROM jobs GROUP BY status"
        ):
            tally[row["status"]] = row["n"]
        return tally

    def counts_by_eid(self) -> Dict[str, Dict[str, int]]:
        out: Dict[str, Dict[str, int]] = {}
        for row in self._conn.execute(
            "SELECT eid, status, COUNT(*) AS n FROM jobs GROUP BY eid, status"
        ):
            out.setdefault(row["eid"], dict.fromkeys(_STATUSES, 0))[row["status"]] = row["n"]
        return out

    def eids(self) -> List[str]:
        rows = self._conn.execute("SELECT DISTINCT eid FROM jobs ORDER BY eid").fetchall()
        return [r["eid"] for r in rows]

    def jobs_for(self, eid: str, replicate: Optional[int] = None) -> List[JobRow]:
        """Jobs of one experiment, ordered by (replicate, point_index)."""
        if replicate is None:
            rows = self._conn.execute(
                "SELECT * FROM jobs WHERE eid = ? ORDER BY replicate, point_index",
                (eid,),
            ).fetchall()
        else:
            rows = self._conn.execute(
                "SELECT * FROM jobs WHERE eid = ? AND replicate = ? ORDER BY point_index",
                (eid, replicate),
            ).fetchall()
        return [JobRow(r) for r in rows]

    def all_jobs(self) -> List[JobRow]:
        rows = self._conn.execute(
            "SELECT * FROM jobs ORDER BY eid, replicate, point_index"
        ).fetchall()
        return [JobRow(r) for r in rows]
