"""The campaign engine: claim pending jobs, fan out, retry, summarize.

The engine is the single writer of the job store.  Its loop is:

1. re-queue jobs a crashed run left ``running`` (their provenance shows a
   start but no finish — the resume-after-kill signature);
2. re-queue ``failed`` jobs that still have attempts left under
   ``--retries``;
3. keep the worker pool full from the pending queue, marking each job
   ``running`` (with worker provenance) before its process starts;
4. on each outcome, commit ``done`` (payload + wall time) or ``failed``
   (error text), re-queueing failures onto a fresh process while attempts
   remain;
5. emit a progress line (done/failed/running and an ETA extrapolated from
   completed-job wall times — no host-clock reads in this module).

Completed jobs are never re-executed: ``--resume`` only ever sees them as
rows to skip, which is what makes a campaign crash-proof.
"""

from __future__ import annotations

import heapq
import os
import sys
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from ..errors import ConfigError
from .pool import WorkerPool, now_monotonic, sleep_s
from .spec import CampaignSpec, get_experiment, job_wire
from .store import JobRow, ResultStore

__all__ = ["CampaignEngine", "CampaignSummary", "run_experiment_parallel"]


@dataclass
class CampaignSummary:
    """What one engine run did (counts are this run's, totals the store's)."""

    total: int
    executed: int
    skipped: int
    done: int
    failed: int
    retried: int
    reset_running: int

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def render(self) -> str:
        return (
            f"campaign: {self.done}/{self.total} done, {self.failed} failed "
            f"({self.executed} executed, {self.skipped} skipped, "
            f"{self.retried} retried, {self.reset_running} reclaimed)"
        )


class _Progress:
    """A single mutating status line (TTY) or sparse log lines (pipes)."""

    def __init__(self, stream, total: int) -> None:
        self.stream = stream
        self.total = total
        self._last_len = 0
        self._tty = bool(getattr(stream, "isatty", lambda: False)())
        # Non-TTY consumers (CI logs) get at most ~20 updates per campaign.
        self._every = max(1, total // 20)
        self._updates = 0

    def update(self, done: int, failed: int, running: int, eta_s: Optional[float]) -> None:
        self._updates += 1
        if not self._tty and self._updates % self._every:
            return
        eta = "?" if eta_s is None else f"~{eta_s:.0f}s"
        text = (
            f"campaign: {done}/{self.total} done, {failed} failed, "
            f"{running} running, ETA {eta}"
        )
        if self._tty:
            pad = " " * max(0, self._last_len - len(text))
            self.stream.write(f"\r{text}{pad}")
            self._last_len = len(text)
        else:
            self.stream.write(text + "\n")
        self.stream.flush()

    def finish(self) -> None:
        if self._tty and self._last_len:
            self.stream.write("\n")
            self.stream.flush()


class CampaignEngine:
    """Drive one campaign store to completion.

    Args:
        store: the campaign's job store (already initialized).
        workers: pool concurrency.
        retries: extra attempts per job after its first failure/timeout.
        timeout: per-job wall-clock budget in seconds (None: unlimited).
        start_method: multiprocessing start method override.
        progress: write a live progress line to ``stream``.
        stream: where progress goes (default stderr, keeping stdout clean
            for the report tables).
        retry_backoff: base delay in seconds before re-running a failed
            job; attempt ``n`` waits ``min(cap, backoff * 2**(n-1))``.
            0 (default) re-queues immediately (the historic behaviour).
            The delay gives transient host conditions (memory pressure, a
            dying disk, a noisy neighbour) time to clear instead of
            burning every retry in the same bad second.
        retry_backoff_cap: ceiling for the backed-off delay, in seconds.
        checkpoint_dir: when set, each job is executed inside a
            :func:`repro.resilience.checkpoint.job_checkpoint` scope with a
            per-job file in this directory — a killed or timed-out attempt
            resumes from its last quantum-boundary snapshot instead of
            restarting from cycle 0.
        checkpoint_every: snapshot period in synchronization windows.
    """

    def __init__(
        self,
        store: ResultStore,
        workers: int = 1,
        retries: int = 0,
        timeout: Optional[float] = None,
        start_method: Optional[str] = None,
        progress: bool = True,
        stream=None,
        retry_backoff: float = 0.0,
        retry_backoff_cap: float = 60.0,
        checkpoint_dir: Optional[str] = None,
        checkpoint_every: int = 256,
    ) -> None:
        if retries < 0:
            raise ConfigError(f"retries must be >= 0, got {retries}")
        if retry_backoff < 0:
            raise ConfigError(f"retry_backoff must be >= 0, got {retry_backoff}")
        if retry_backoff_cap < 0:
            raise ConfigError(
                f"retry_backoff_cap must be >= 0, got {retry_backoff_cap}"
            )
        if checkpoint_every < 1:
            raise ConfigError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        self.store = store
        self.workers = workers
        self.retries = retries
        self.timeout = timeout
        self.start_method = start_method
        self.progress = progress
        self.stream = stream if stream is not None else sys.stderr
        self.retry_backoff = retry_backoff
        self.retry_backoff_cap = retry_backoff_cap
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_every = checkpoint_every

    # -- helpers --------------------------------------------------------
    def _retry_delay(self, attempts: int) -> float:
        """Bounded exponential backoff before attempt ``attempts + 1``."""
        if self.retry_backoff <= 0:
            return 0.0
        return min(
            self.retry_backoff_cap,
            self.retry_backoff * (2.0 ** max(0, attempts - 1)),
        )

    def run(self) -> CampaignSummary:
        store = self.store
        reset = store.reset_running()
        retried = store.requeue_failed(max_attempts=self.retries + 1)
        pending: Deque[JobRow] = deque(store.pending_jobs())
        counts = store.counts()
        total = sum(counts.values())
        skipped = counts["done"]
        executed = 0
        run_failures = 0
        spawn_failures = 0  # consecutive; any successful spawn resets it
        # wall-time provenance of completed jobs drives the ETA
        wall_done: List[float] = []

        progress = _Progress(self.stream, total) if self.progress else None
        jobs_by_id: Dict[str, JobRow] = {}
        #: (ready_at, seq, job) — retries waiting out their backoff delay
        delayed: List[Tuple[float, int, JobRow]] = []
        delayed_seq = 0
        if self.checkpoint_dir is not None:
            os.makedirs(self.checkpoint_dir, exist_ok=True)

        with WorkerPool(
            workers=self.workers,
            timeout=self.timeout,
            start_method=self.start_method,
        ) as pool:
            while pending or delayed or pool.active:
                while delayed and delayed[0][0] <= now_monotonic():
                    pending.append(heapq.heappop(delayed)[2])
                while pending and pool.has_capacity():
                    job = pending.popleft()
                    try:
                        worker = pool.submit(
                            job.job_id,
                            job_wire(job.job_spec(), self.checkpoint_dir,
                                     self.checkpoint_every),
                        )
                    except OSError as exc:
                        # A failed spawn (fd/process exhaustion) is a host
                        # fault, not the job's: put it back at the head of
                        # the queue without burning a retry attempt, give
                        # the host a beat to recover, and only give up
                        # after a long run of consecutive failures.
                        pending.appendleft(job)
                        spawn_failures += 1
                        if spawn_failures >= 25:
                            raise ConfigError(
                                f"worker spawn failed {spawn_failures} times "
                                f"in a row; giving up: {exc}"
                            ) from exc
                        sleep_s(0.05)
                        break
                    spawn_failures = 0
                    jobs_by_id[job.job_id] = job
                    store.mark_running(job.job_id, worker)
                if not pending and not pool.active and delayed:
                    # Nothing runnable until the next backoff delay elapses.
                    sleep_s(min(0.2, max(0.0, delayed[0][0] - now_monotonic())))
                    continue
                for outcome in pool.wait():
                    executed += 1
                    job = jobs_by_id.pop(outcome.job_id)
                    if outcome.ok:
                        store.mark_done(outcome.job_id, outcome.payload, outcome.wall_s)
                        wall_done.append(outcome.wall_s)
                    else:
                        attempts = store.get_job(outcome.job_id).attempts
                        requeue = attempts < self.retries + 1
                        store.mark_failed(
                            outcome.job_id, outcome.error or "unknown error",
                            outcome.wall_s, requeue=requeue,
                        )
                        if requeue:
                            delay = self._retry_delay(attempts)
                            row = store.get_job(outcome.job_id)
                            if delay > 0:
                                heapq.heappush(
                                    delayed,
                                    (now_monotonic() + delay, delayed_seq, row),
                                )
                                delayed_seq += 1
                            else:
                                pending.append(row)
                        else:
                            run_failures += 1
                    if progress is not None:
                        counts = store.counts()
                        progress.update(
                            counts["done"],
                            counts["failed"],
                            pool.active,
                            self._eta(wall_done, counts),
                        )
        if progress is not None:
            progress.finish()
        counts = store.counts()
        return CampaignSummary(
            total=total,
            executed=executed,
            skipped=skipped,
            done=counts["done"],
            failed=counts["failed"],
            retried=retried,
            reset_running=reset,
        )

    def _eta(self, wall_done: List[float], counts: Dict[str, int]) -> Optional[float]:
        """Remaining wall time, extrapolated from this run's finished jobs."""
        if not wall_done:
            return None
        remaining = counts["pending"] + counts["running"]
        mean = sum(wall_done) / len(wall_done)
        return mean * remaining / max(1, self.workers)


def run_experiment_parallel(
    eid: str,
    quick: bool = False,
    seed: Optional[int] = None,
    workers: int = 2,
    retries: int = 0,
    timeout: Optional[float] = None,
    db_path: str = ":memory:",
    progress: bool = False,
):
    """Run one experiment's sweep through the campaign engine and assemble
    its :class:`~repro.harness.experiments.ExperimentResult`.

    This is the benchmarks' full-mode entry point: same rows as the
    sequential ``run_eN`` (host wall-clock columns aside), but the sweep
    points fan out across ``workers`` processes.  The default in-memory
    store makes it a drop-in replacement where resume is not needed.
    """
    from .report import assemble_results  # deferred: avoids import cycle

    spec = CampaignSpec(experiments=(eid,), quick=quick, seed=seed)
    with ResultStore(db_path) as store:
        store.initialize(spec)
        summary = CampaignEngine(
            store,
            workers=workers,
            retries=retries,
            timeout=timeout,
            progress=progress,
        ).run()
        if not summary.ok:
            failures = [
                f"{job.job_id} ({job.error})"
                for job in store.jobs_for(eid)
                if job.status == "failed"
            ]
            raise ConfigError(
                f"campaign for {eid} left {summary.failed} job(s) failed: "
                + "; ".join(failures)
            )
        results = assemble_results(store, eids=[eid])
    experiment = get_experiment(eid)  # validates eid even for empty stores
    if not results:
        raise ConfigError(f"campaign for {experiment.eid} produced no results")
    return results[0][2]
