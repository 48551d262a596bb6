"""Serve-side kernel batching: shape coalescing, metrics, failure demotion.

These drive the :class:`~repro.serve.scheduler.Scheduler` directly (no
dispatch thread) so the batching decisions are deterministic: jobs are
admitted to the buffer first, then one ``_fill_pool`` pass shows exactly
what was coalesced and what was dispatched individually.
"""

import json

import pytest

from repro.campaign.spec import JobSpec, execute_job
from repro.engine.api import KERNEL_VERSION
from repro.errors import StoreIOError
from repro.serve.cache import ResultCache
from repro.serve.metrics import PREFIX, Metrics
from repro.serve.queuein import AdmissionQueue, QueuedJob
from repro.serve.scheduler import Scheduler


def _demo_noc_jobs(k=4):
    """K distinct same-shape engine-aware jobs (demo-noc, quick)."""
    return [
        JobSpec(
            eid="demo-noc", point_index=i % 2, point=[i % 2], quick=True,
            seed=1, replicate=i // 2,
        )
        for i in range(k)
    ]


def _demo_jobs(k=2):
    """Same-shape jobs of the legacy (non-engine-aware) demo experiment."""
    return [
        JobSpec(eid="demo", point_index=i % 2, point=[i % 2], quick=True,
                seed=1, replicate=i // 2)
        for i in range(k)
    ]


def _make_scheduler(tmp_path, **kwargs):
    cache = ResultCache(str(tmp_path / "serve.db"))
    metrics = Metrics()
    scheduler = Scheduler(
        AdmissionQueue(max_depth=64), cache, metrics, workers=1, **kwargs
    )
    return scheduler, cache, metrics


def _admit(scheduler, cache, specs):
    entries = [QueuedJob(spec=spec, client="pytest") for spec in specs]
    for entry in entries:
        assert cache.admit(entry.spec)
    scheduler._admit_batch(entries)
    return entries


def _drain(scheduler, timeout_s=180.0):
    """Collect outcomes until the pool is idle and the buffer is empty."""
    pool = scheduler._pool
    waited = 0.0
    while pool.active or scheduler._buffer:
        scheduler._fill_pool()
        for outcome in pool.wait(poll_s=0.05, budget_s=0.5):
            scheduler._handle_outcome(outcome)
        waited += 0.5
        assert waited < timeout_s, "scheduler did not drain in time"


class TestBatchedDispatch:
    def test_four_jobs_one_dispatch_byte_identical(self, tmp_path):
        """The acceptance check: K=4 same-shape jobs run as ONE batched
        kernel invocation whose per-member results are byte-identical to
        individually-executed jobs."""
        scheduler, cache, metrics = _make_scheduler(tmp_path, batch_max=8)
        specs = _demo_noc_jobs(4)
        try:
            _admit(scheduler, cache, specs)
            scheduler._fill_pool()
            # One synthetic pool job carries all four members.
            assert metrics.counter_total(f"{PREFIX}_jobs_dispatched_total") == 1
            assert metrics.histogram_count(f"{PREFIX}_engine_batch_size") == 1
            assert metrics.histogram_sum(f"{PREFIX}_engine_batch_size") == 4.0
            assert len(scheduler._batches) == 1
            assert scheduler.running_ids() == {spec.job_id for spec in specs}
            _drain(scheduler)
        finally:
            scheduler._pool.shutdown()
        assert metrics.counter_total(f"{PREFIX}_jobs_completed_total") == 4
        for spec in specs:
            cached = cache.lookup(spec.job_id)
            assert cached is not None
            single = execute_job(spec.to_dict())
            single.pop("_provenance", None)
            assert cached == json.dumps(single, sort_keys=True)

    def test_batch_max_caps_group_size(self, tmp_path):
        scheduler, cache, metrics = _make_scheduler(tmp_path, batch_max=2)
        specs = _demo_noc_jobs(4)
        try:
            _admit(scheduler, cache, specs)
            scheduler._fill_pool()
            sizes = sorted(
                len(members) for members in scheduler._batches.values()
            )
            assert sizes and all(size <= 2 for size in sizes)
            _drain(scheduler)
        finally:
            scheduler._pool.shutdown()
        assert metrics.counter_total(f"{PREFIX}_jobs_completed_total") == 4


class TestBatchingGates:
    def test_non_engine_aware_jobs_dispatch_individually(self, tmp_path):
        scheduler, cache, metrics = _make_scheduler(tmp_path)
        try:
            _admit(scheduler, cache, _demo_jobs(2))
            scheduler._fill_pool()
            assert not scheduler._batches
            # demo is not engine-aware: no histogram point, no fallback
            # counter — the engine layer was never in play.
            assert metrics.histogram_count(f"{PREFIX}_engine_batch_size") == 0
            assert metrics.counter_total(f"{PREFIX}_engine_fallback_total") == 0
            _drain(scheduler)
        finally:
            scheduler._pool.shutdown()
        assert metrics.counter_total(f"{PREFIX}_jobs_completed_total") == 2

    def test_checkpointing_disables_batching(self, tmp_path):
        scheduler, cache, metrics = _make_scheduler(
            tmp_path, checkpoint_dir=str(tmp_path / "ckpt")
        )
        specs = _demo_noc_jobs(2)
        try:
            entries = _admit(scheduler, cache, specs)
            assert scheduler._take_batch_group(entries[0]) is None
            scheduler._fill_pool()
            assert not scheduler._batches
            _drain(scheduler)
        finally:
            scheduler._pool.shutdown()
        assert metrics.counter_total(f"{PREFIX}_jobs_dispatched_total") == 2
        # Individual engine-aware dispatches still chart as lanes=1.
        assert metrics.histogram_count(f"{PREFIX}_engine_batch_size") == 2
        assert metrics.histogram_sum(f"{PREFIX}_engine_batch_size") == 2.0
        # Provenance says what ran: there is one 'simd' implementation.
        for spec in specs:
            row = cache.job_row(spec.job_id)
            assert (row.engine, row.kernel_version) == ("batched", KERNEL_VERSION)

    def test_lone_job_has_no_companions(self, tmp_path):
        scheduler, cache, _ = _make_scheduler(tmp_path)
        try:
            entries = _admit(scheduler, cache, _demo_noc_jobs(1))
            with scheduler._lock:
                scheduler._buffer.remove(entries[0])
            assert scheduler._take_batch_group(entries[0]) is None
        finally:
            scheduler._pool.shutdown()


class _StubPool:
    """Records submissions; outcomes are injected by the test."""

    def __init__(self):
        self.submitted = []

    @property
    def active(self):
        return 0

    def has_capacity(self):
        return True

    def submit(self, job_id, job):
        self.submitted.append((job_id, job))
        return f"worker-{len(self.submitted)}"

    def shutdown(self):
        pass


class _Outcome:
    def __init__(self, job_id, ok, payload=None, error=None):
        self.job_id = job_id
        self.ok = ok
        self.payload = payload
        self.error = error
        self.wall_s = 0.01


class TestBatchFailureDemotion:
    def _build(self, tmp_path, retries=1):
        scheduler, cache, metrics = _make_scheduler(tmp_path, retries=retries)
        scheduler._pool.shutdown()
        scheduler._pool = _StubPool()
        return scheduler, cache, metrics

    def test_failed_batch_requeues_members_individually(self, tmp_path):
        scheduler, cache, metrics = self._build(tmp_path, retries=1)
        specs = _demo_noc_jobs(3)
        _admit(scheduler, cache, specs)
        scheduler._fill_pool()
        pool = scheduler._pool
        assert len(pool.submitted) == 1
        batch_id, job = pool.submitted[0]
        assert batch_id.startswith("batch-")
        assert len(job["_batch_members"]) == 3

        scheduler._handle_outcome(_Outcome(batch_id, ok=False, error="lane oom"))
        # Every member is demoted: marked failed, requeued, never batched
        # again; the batch itself counts as one worker restart.
        assert metrics.counter_total(f"{PREFIX}_worker_restarts_total") == 1
        assert metrics.counter_value(
            f"{PREFIX}_engine_fallback_total", reason="batch-member-retry"
        ) == 3
        assert {spec.job_id for spec in specs} <= scheduler._no_batch
        assert len(scheduler._buffer) == 3

        scheduler._fill_pool()
        # The retry pass dispatches each member on its own worker.
        singles = pool.submitted[1:]
        assert len(singles) == 3
        assert all("_batch_members" not in job for _, job in singles)
        assert metrics.counter_total(f"{PREFIX}_jobs_dispatched_total") == 4

    def test_exhausted_members_stay_failed(self, tmp_path):
        scheduler, cache, metrics = self._build(tmp_path, retries=0)
        specs = _demo_noc_jobs(2)
        _admit(scheduler, cache, specs)
        scheduler._fill_pool()
        batch_id, _ = scheduler._pool.submitted[0]
        scheduler._handle_outcome(_Outcome(batch_id, ok=False, error="boom"))
        assert metrics.counter_total(f"{PREFIX}_jobs_failed_total") == 2
        assert not scheduler._buffer
        for spec in specs:
            assert cache.job_row(spec.job_id).status == "failed"

    def test_successful_batch_commits_every_member(self, tmp_path):
        scheduler, cache, metrics = self._build(tmp_path)
        specs = _demo_noc_jobs(2)
        _admit(scheduler, cache, specs)
        scheduler._fill_pool()
        batch_id, _ = scheduler._pool.submitted[0]
        payload = {
            "_batch": [
                {"job_id": spec.job_id, "payload": {"record": [i]}}
                for i, spec in enumerate(specs)
            ]
        }
        scheduler._handle_outcome(_Outcome(batch_id, ok=True, payload=payload))
        assert metrics.counter_total(f"{PREFIX}_jobs_completed_total") == 2
        for i, spec in enumerate(specs):
            assert cache.lookup(spec.job_id) == json.dumps(
                {"record": [i]}, sort_keys=True
            )
        assert not scheduler._batches and not scheduler.running_ids()


class TestBatchCommitRefused:
    def test_refused_commit_rebuffers_uncommitted_members(
        self, tmp_path, monkeypatch
    ):
        """The store refusing one member's commit must not orphan the
        members after it: each is either done or back with the scheduler,
        and a further drain finishes all of them byte-identically."""
        scheduler, cache, metrics = _make_scheduler(tmp_path, batch_max=8)
        specs = _demo_noc_jobs(4)
        commit = cache.commit
        calls = []

        def refuse_second(job_id, payload, wall_s):
            calls.append(job_id)
            if len(calls) == 2:
                raise StoreIOError("disk full")
            return commit(job_id, payload, wall_s)

        monkeypatch.setattr(cache, "commit", refuse_second)
        try:
            _admit(scheduler, cache, specs)
            scheduler._fill_pool()
            assert len(scheduler._batches) == 1
            with pytest.raises(StoreIOError):
                _drain(scheduler)
            for spec in specs:
                assert (
                    cache.job_row(spec.job_id).status == "done"
                    or scheduler.is_tracked(spec.job_id)
                ), spec.job_id
            _drain(scheduler)
        finally:
            scheduler._pool.shutdown()
        assert metrics.counter_total(f"{PREFIX}_jobs_completed_total") == 4
        for spec in specs:
            assert cache.job_row(spec.job_id).status == "done"
            single = execute_job(spec.to_dict())
            single.pop("_provenance", None)
            assert cache.lookup(spec.job_id) == json.dumps(single, sort_keys=True)
