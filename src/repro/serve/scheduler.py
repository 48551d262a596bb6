"""The dispatch thread: admission queue -> worker pool -> result cache.

One scheduler thread owns the :class:`~repro.campaign.pool.WorkerPool`
(fresh process per job, SIGTERM->SIGKILL escalation, per-job timeouts)
and is the only writer of job *lifecycle* transitions.  Its loop:

1. keep the pool full from the admission queue, taking shape-coalesced
   batches (jobs sharing ``(eid, quick)`` dispatch together);
2. collect outcomes under a small wait budget so new arrivals are
   dispatched while long jobs run;
3. commit results to the content-addressed cache (canonical payload
   text), re-queue failures while retry attempts remain, and feed the
   service-time summary.

Graceful drain (SIGTERM): the loop stops dispatching, the pool shuts
down politely — workers get the grace window to flush resilience-layer
checkpoints — and every interrupted job is reset to ``pending`` in the
store, so a restarted daemon resumes exactly where this one stopped and
no accepted job is ever executed twice.
"""

from __future__ import annotations

import os
import threading
from typing import Deque, Dict, List, Optional, Set

from collections import deque

from ..campaign.pool import WorkerPool
from ..campaign.spec import get_experiment, job_wire, jobs_batchable
from ..errors import ChaosCrash, ConfigError, StoreIOError
from .breaker import CircuitBreaker
from .cache import ResultCache
from .metrics import PREFIX, Metrics
from .queuein import AdmissionQueue, QueuedJob

__all__ = ["Scheduler"]

#: how long one collect pass may block while dispatch slots are free (s)
_WAIT_BUDGET_S = 0.1
#: queue wait while the pool is idle (s) — the loop's only sleep
_IDLE_WAIT_S = 0.2

#: chaos-injection shim (see :mod:`repro.chaos.inject`): when armed, called
#: with the crash-point name at each named crash point below.  ``None``
#: (the default) costs one identity check — the scheduler never imports
#: chaos.
CHAOS_CRASH_HOOK = None


class Scheduler:
    """Run admitted jobs on a worker pool, committing results to the cache.

    Args:
        queue: the admission queue to drain.
        cache: the result cache / job store.
        metrics: the daemon's metric registry.
        workers: pool concurrency.
        batch_max: max jobs coalesced into one dispatch round.  Same-shape
            engine-aware jobs meeting in one round run as lanes of a single
            batched kernel invocation, but only after
            :func:`repro.campaign.spec.jobs_batchable` confirms the engine
            supports the shared shape; refused groups fall back to
            individual dispatch (counted in
            ``repro_serve_engine_fallback_total``).
        retries: extra attempts per failed/timed-out job.
        timeout: per-job wall-clock budget in seconds (None: unlimited).
        checkpoint_dir: give each job a resilience-layer checkpoint file
            here, so a drained or killed attempt resumes mid-simulation.
            Checkpointing disables kernel batching: lanes of a shared
            batch cannot snapshot independently.
        checkpoint_every: snapshot period in synchronization windows.
        start_method: multiprocessing start method override.
        breaker_threshold: consecutive infrastructure failures (store
            commit errors, worker spawn failures) that trip the circuit
            breaker open; while open the scheduler stops dispatching and
            the frontier answers 503.
        breaker_cooldown_s: how long the breaker stays open before a
            single half-open probe dispatch is allowed.
    """

    def __init__(
        self,
        queue: AdmissionQueue,
        cache: ResultCache,
        metrics: Metrics,
        workers: int = 1,
        batch_max: int = 8,
        retries: int = 0,
        timeout: Optional[float] = None,
        checkpoint_dir: Optional[str] = None,
        checkpoint_every: int = 256,
        start_method: Optional[str] = None,
        breaker_threshold: int = 5,
        breaker_cooldown_s: float = 10.0,
    ) -> None:
        if batch_max < 1:
            raise ConfigError(f"batch_max must be >= 1, got {batch_max}")
        if retries < 0:
            raise ConfigError(f"retries must be >= 0, got {retries}")
        self.queue = queue
        self.cache = cache
        self.metrics = metrics
        self.retries = retries
        self.batch_max = batch_max
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_every = checkpoint_every
        self._pool = WorkerPool(
            workers=workers, timeout=timeout, start_method=start_method
        )
        self._lock = threading.Lock()
        self._running: Set[str] = set()
        self._buffer: Deque[QueuedJob] = deque()
        self._entries: Dict[str, QueuedJob] = {}
        #: synthetic pool id -> members of an in-flight kernel batch
        self._batches: Dict[str, List[QueuedJob]] = {}
        self._batch_seq = 0
        #: job ids demoted to individual dispatch after a batch failure
        self._no_batch: Set[str] = set()
        self._stop = threading.Event()
        self._abort = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.breaker = CircuitBreaker(
            threshold=breaker_threshold, cooldown_s=breaker_cooldown_s
        )
        #: latched when a chaos-injected crash killed the dispatch thread
        self._crashed = threading.Event()
        metrics.register_gauge(
            f"{PREFIX}_jobs_in_flight",
            "Jobs currently executing on worker processes.",
            lambda: float(len(self.running_ids())),
        )
        metrics.register_gauge(
            f"{PREFIX}_retry_budget",
            "Extra attempts each failed job is allowed (the --retries knob).",
            lambda: float(self.retries),
        )
        metrics.register_gauge(
            f"{PREFIX}_breaker_open",
            "1 while the dispatch circuit breaker refuses new work.",
            lambda: 1.0 if self.breaker.blocked else 0.0,
        )
        metrics.register_gauge(
            f"{PREFIX}_breaker_trips",
            "Times the dispatch circuit breaker has tripped open.",
            lambda: float(self.breaker.trips),
        )

    # -- observers ------------------------------------------------------
    def running_ids(self) -> Set[str]:
        with self._lock:
            return set(self._running)

    def is_tracked(self, job_id: str) -> bool:
        """Queued-in-scheduler or running (dedupe check for submissions)."""
        with self._lock:
            return job_id in self._running or job_id in self._entries

    @property
    def crashed(self) -> bool:
        """True once a chaos-injected crash has killed the dispatch thread.

        A crashed scheduler took nothing down gracefully (that is the
        point); restart recovery — ``reset_running`` at the next daemon's
        cache recover — is what reclaims its in-flight jobs.
        """
        return self._crashed.is_set()

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        if self._thread is not None:
            raise ConfigError("scheduler already started")
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-scheduler", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop dispatching and shut the pool down politely.

        In-flight workers get the pool's SIGTERM grace window — long
        enough to flush a resilience-layer checkpoint — before SIGKILL;
        their jobs, and everything still queued, are reset to ``pending``
        in the store so the next daemon instance resumes them.
        """
        self._stop.set()
        self.queue.close()
        if self._thread is not None:
            self._thread.join(timeout=30.0)
            self._thread = None

    def crash_stop(self) -> None:
        """Die like ``kill -9``: no drain, no hand-back, workers SIGKILLed.

        The cluster chaos audit's in-process node kill.  Store rows stay
        exactly as the crash left them (``running`` rows and all) — the
        next instance's restart recovery is what reclaims them, same as
        after a real process death.
        """
        self._abort.set()
        self._stop.set()
        self.queue.close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self._pool.kill_all()

    # -- the loop -------------------------------------------------------
    def _run(self) -> None:
        pool = self._pool
        while not self._stop.is_set():
            try:
                self._run_once()
            except StoreIOError as exc:
                # The store refused a commit (disk full, I/O error).  The
                # transaction rolled back, the row kept its previous state,
                # so the loop may simply try again later; the breaker is
                # what stops an endless retry storm against a dead disk.
                self.breaker.record_failure(cause="store")
                self.metrics.inc(
                    f"{PREFIX}_store_errors_total",
                    "Store commits refused by the disk (rolled back).",
                )
                self.metrics.inc(
                    f"{PREFIX}_errors_total",
                    "Unexpected scheduler errors.",
                    kind="store-io",
                )
                del exc
            except ChaosCrash:
                # A chaos-injected process death in "raise" mode: this
                # thread is the process under test.  Die *without* the
                # graceful drain below — a real SIGKILL flushes nothing —
                # and let restart recovery reclaim the running rows.
                self._crashed.set()
                return
        if self._abort.is_set():
            # Crash-stop: skip the graceful tail entirely; kill_all and
            # restart recovery are the caller's business.
            return
        # Drain: polite shutdown, then hand interrupted work back to the
        # store as pending rows (the restart-resume contract).
        pool.shutdown()
        with self._lock:
            self._running.clear()
            self._buffer.clear()
            self._entries.clear()
            self._batches.clear()
        interrupted, _ = self.cache.recover()
        if interrupted:
            self.metrics.inc(
                f"{PREFIX}_drained_jobs_total",
                "Jobs handed back to the store as pending during drain.",
                amount=float(len(interrupted)),
            )

    def _run_once(self) -> None:
        """One pass of the dispatch loop (split out for fault handling)."""
        pool = self._pool
        self._fill_pool()
        if pool.active:
            for outcome in pool.wait(poll_s=0.05, budget_s=_WAIT_BUDGET_S):
                self._handle_outcome(outcome)
        elif not self._buffer:
            batch = self.queue.take_batch(self.batch_max, timeout_s=_IDLE_WAIT_S)
            self._admit_batch(batch)
        else:
            # Work is buffered but nothing could dispatch (breaker open,
            # spawn failures): idle instead of spinning hot.
            self._stop.wait(_IDLE_WAIT_S)

    def _admit_batch(self, batch: List[QueuedJob]) -> None:
        if not batch:
            return
        admitted = 0
        with self._lock:
            for entry in batch:
                # Between the queue's take_batch (which forgets the id)
                # and this registration, the job is tracked nowhere, so
                # the frontier's dedupe check can re-admit it.  Dropping
                # the duplicate here closes that window — dispatching it
                # would double the work and, worse, make pool.submit
                # raise on the id collision and kill this thread.
                if entry.job_id in self._entries or entry.job_id in self._running:
                    continue
                self._buffer.append(entry)
                self._entries[entry.job_id] = entry
                admitted += 1
        self.metrics.inc(
            f"{PREFIX}_batches_total",
            "Dispatch rounds taken off the admission queue.",
        )
        if admitted:
            self.metrics.inc(
                f"{PREFIX}_batched_jobs_total",
                "Jobs admitted to dispatch, counted per batch member.",
                amount=float(admitted),
            )
        if admitted != len(batch):
            self.metrics.inc(
                f"{PREFIX}_duplicate_admissions_total",
                "Batch members dropped because their job was already "
                "buffered or running (admission handoff race).",
                amount=float(len(batch) - admitted),
            )

    def _fill_pool(self) -> None:
        pool = self._pool
        while pool.has_capacity():
            if self.breaker.blocked:
                return
            if not self._buffer:
                batch = self.queue.take_batch(self.batch_max, timeout_s=None)
                self._admit_batch(batch)
                if not self._buffer:
                    return
            with self._lock:
                entry = self._buffer.popleft()
            if self.cache.lookup(entry.job_id) is not None:
                # A racing duplicate finished while this entry waited in
                # the buffer; its result is committed — spawning a worker
                # would recompute (and re-commit) done work.
                with self._lock:
                    self._entries.pop(entry.job_id, None)
                self.metrics.inc(
                    f"{PREFIX}_duplicate_dispatches_skipped_total",
                    "Buffered jobs skipped at dispatch because their "
                    "result was already committed.",
                )
                continue
            group = self._take_batch_group(entry)
            if group is not None:
                self._dispatch_group(group)
                continue
            try:
                if self.checkpoint_dir is not None:
                    os.makedirs(self.checkpoint_dir, exist_ok=True)
                worker = pool.submit(entry.job_id, job_wire(
                    entry.spec, self.checkpoint_dir, self.checkpoint_every
                ))
            except OSError as exc:
                self._spawn_failure([entry], exc)
                return
            self.cache.mark_running(entry.job_id, worker)
            with self._lock:
                self._running.add(entry.job_id)
            hook = CHAOS_CRASH_HOOK
            if hook is not None:
                hook("scheduler.after-mark-running")
            self.metrics.inc(
                f"{PREFIX}_jobs_dispatched_total",
                "Worker processes spawned (cache hits never increment this).",
            )
            if get_experiment(entry.spec.eid).engine_aware:
                self._observe_batch_size(1)

    def _spawn_failure(self, entries: List[QueuedJob], exc: OSError) -> None:
        """Re-buffer ``entries`` after a failed worker spawn.

        A spawn failure is a host fault (fd/process exhaustion), not the
        jobs': they go back to the head of the buffer without a
        ``mark_running`` transition, so the failure burns none of their
        retry budget.  The breaker is what turns a *persistent* spawn
        failure into refused admissions instead of a hot retry loop.
        """
        with self._lock:
            for entry in reversed(entries):
                self._buffer.appendleft(entry)
                self._entries[entry.job_id] = entry
        self.breaker.record_failure(cause="pool")
        self.metrics.inc(
            f"{PREFIX}_spawn_failures_total",
            "Worker spawns refused by the host (jobs re-buffered).",
            amount=float(len(entries)),
        )
        del exc

    # -- kernel batching ------------------------------------------------
    def _observe_batch_size(self, lanes: int) -> None:
        self.metrics.observe_histogram(
            f"{PREFIX}_engine_batch_size",
            "Engine-aware jobs per batched kernel dispatch "
            "(1 = individual dispatch).",
            float(lanes),
        )

    def _take_batch_group(self, entry: QueuedJob) -> Optional[List[QueuedJob]]:
        """Grow ``entry`` into a kernel batch from same-shape buffered jobs.

        Returns the member list (companions removed from the buffer), or
        None when ``entry`` must dispatch individually.  The group is only
        formed when the engine layer confirms every member's config can
        share one batch — the scheduler never guesses shape support.
        """
        if self.checkpoint_dir is not None or entry.job_id in self._no_batch:
            return None
        # Buffer mutation is scheduler-thread-only, so the peeked
        # companions stay valid until the removal below; the lock only
        # orders the reads against is_tracked/running_ids observers.
        with self._lock:
            companions = [
                queued
                for queued in self._buffer
                if queued.shape == entry.shape
                and queued.job_id not in self._no_batch
            ][: self.batch_max - 1]
        if not companions:
            return None
        group = [entry] + companions
        ok, reason = jobs_batchable([queued.spec.to_dict() for queued in group])
        if not ok:
            if get_experiment(entry.spec.eid).engine_aware:
                self.metrics.inc(
                    f"{PREFIX}_engine_fallback_total",
                    "Engine-aware dispatches that fell back to the "
                    "individual path instead of a shared kernel batch.",
                    reason=reason,
                )
            return None
        with self._lock:
            for queued in companions:
                self._buffer.remove(queued)
        return group

    def _dispatch_group(self, group: List[QueuedJob]) -> None:
        """Submit one synthetic pool job running ``group`` as kernel lanes."""
        self._batch_seq += 1
        batch_id = f"batch-{self._batch_seq}-{group[0].job_id[:8]}"
        job = {"_batch_members": [queued.spec.to_dict() for queued in group]}
        try:
            worker = self._pool.submit(batch_id, job)
        except OSError as exc:
            # Demote every member to individual dispatch: a batch that
            # could not even spawn must not keep re-forming around the
            # same host fault, and individual retries make progress the
            # moment one process slot frees up.
            with self._lock:
                for queued in group:
                    self._no_batch.add(queued.job_id)
            for queued in group:
                if get_experiment(queued.spec.eid).engine_aware:
                    self.metrics.inc(
                        f"{PREFIX}_engine_fallback_total",
                        "Engine-aware dispatches that fell back to the "
                        "individual path instead of a shared kernel batch.",
                        reason="spawn-failure",
                    )
            self._spawn_failure(group, exc)
            return
        with self._lock:
            self._batches[batch_id] = list(group)
            for queued in group:
                self._running.add(queued.job_id)
        for queued in group:
            self.cache.mark_running(queued.job_id, worker)
        self.metrics.inc(
            f"{PREFIX}_jobs_dispatched_total",
            "Worker processes spawned (cache hits never increment this).",
        )
        self._observe_batch_size(len(group))

    def _handle_outcome(self, outcome) -> None:
        with self._lock:
            members = self._batches.pop(outcome.job_id, None)
        if members is not None:
            self._handle_batch_outcome(outcome, members)
            return
        with self._lock:
            self._running.discard(outcome.job_id)
            entry = self._entries.pop(outcome.job_id, None)
        if outcome.ok:
            hook = CHAOS_CRASH_HOOK
            if hook is not None:
                hook("scheduler.before-commit")
            try:
                self.cache.commit(outcome.job_id, outcome.payload, outcome.wall_s)
            except StoreIOError:
                # The result is computed but not durable.  Re-buffer the
                # job: determinism makes the redo byte-identical, and
                # "redo the work" is the only path that keeps the
                # store's exactly-once accounting honest.
                self._requeue_entry(outcome.job_id, entry)
                raise
            self.breaker.record_success()
            self.metrics.inc(
                f"{PREFIX}_jobs_completed_total",
                "Jobs that finished successfully and entered the cache.",
            )
            self.metrics.observe_service_time(outcome.wall_s)
            return
        attempts = self.cache.attempts(outcome.job_id)
        requeue = attempts < self.retries + 1
        self.cache.mark_failed(
            outcome.job_id,
            outcome.error or "unknown error",
            outcome.wall_s,
            requeue=requeue,
        )
        self.metrics.inc(
            f"{PREFIX}_worker_restarts_total",
            "Worker processes that died, timed out, or failed their job.",
        )
        if requeue:
            self._requeue_entry(outcome.job_id, entry)
        else:
            self.metrics.inc(
                f"{PREFIX}_jobs_failed_total",
                "Jobs that exhausted their attempts and stayed failed.",
            )

    def _requeue_entry(self, job_id: str, entry: Optional[QueuedJob]) -> None:
        """Put ``job_id`` back on the dispatch buffer for another attempt."""
        if entry is None:
            row = self.cache.job_row(job_id)
            if row is None:  # pragma: no cover - outcome implies a row
                return
            entry = QueuedJob(spec=row.job_spec(), client="retry")
        with self._lock:
            self._buffer.append(entry)
            self._entries[entry.job_id] = entry

    def _handle_batch_outcome(self, outcome, members: List[QueuedJob]) -> None:
        """Fan one batched-worker outcome back out to its member jobs.

        Success commits each member's payload individually (the member
        payloads are byte-identical to what individual runs would have
        produced — the engine layer's contract).  Failure demotes every
        member: each is marked failed and, while attempts remain,
        re-queued for *individual* dispatch so one poisonous lane cannot
        wedge its batch-mates forever.
        """
        with self._lock:
            for queued in members:
                self._running.discard(queued.job_id)
                self._entries.pop(queued.job_id, None)
        if outcome.ok:
            payloads = {
                member["job_id"]: member["payload"]
                for member in outcome.payload.get("_batch", [])
            }
            for index, queued in enumerate(members):
                payload = payloads.get(queued.job_id)
                if payload is None:  # pragma: no cover - engine returns all
                    self.cache.mark_failed(
                        queued.job_id, "batch outcome missing this member",
                        outcome.wall_s, requeue=False,
                    )
                    continue
                try:
                    self.cache.commit(queued.job_id, payload, outcome.wall_s)
                except StoreIOError:
                    # As in _handle_outcome: re-buffer this member and
                    # every one not yet committed, so none is left
                    # ``running`` and untracked, then let _run_once count
                    # the store error.
                    for pending in members[index:]:
                        self._requeue_entry(pending.job_id, pending)
                    raise
                self.metrics.inc(
                    f"{PREFIX}_jobs_completed_total",
                    "Jobs that finished successfully and entered the cache.",
                )
            self.breaker.record_success()
            self.metrics.observe_service_time(outcome.wall_s)
            return
        self.metrics.inc(
            f"{PREFIX}_worker_restarts_total",
            "Worker processes that died, timed out, or failed their job.",
        )
        for queued in members:
            attempts = self.cache.attempts(queued.job_id)
            requeue = attempts < self.retries + 1
            self.cache.mark_failed(
                queued.job_id,
                outcome.error or "unknown error",
                outcome.wall_s,
                requeue=requeue,
            )
            if requeue:
                self._no_batch.add(queued.job_id)
                self.metrics.inc(
                    f"{PREFIX}_engine_fallback_total",
                    "Engine-aware dispatches that fell back to the "
                    "individual path instead of a shared kernel batch.",
                    reason="batch-member-retry",
                )
                with self._lock:
                    self._buffer.append(queued)
                    self._entries[queued.job_id] = queued
            else:
                self.metrics.inc(
                    f"{PREFIX}_jobs_failed_total",
                    "Jobs that exhausted their attempts and stayed failed.",
                )
