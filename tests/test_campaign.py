"""Tests for the campaign engine: specs, store, pool, engine, report.

The fast tests run on the built-in ``demo`` experiment (milliseconds-scale
2x2 co-simulations) or on tiny experiments registered at test time — the
pool's default ``fork`` start method lets workers inherit those.  The
slow sequential-vs-campaign equivalence check for real experiments lives
in ``test_campaign_equivalence.py``.
"""

import dataclasses
import json
import pickle
import time

import pytest

from repro.campaign import (
    REGISTRY,
    CampaignEngine,
    CampaignSpec,
    JobSpec,
    ResultStore,
    assemble_results,
    campaign_report,
    campaign_status,
    execute_job,
    register,
    run_experiment_parallel,
)
from repro.campaign.pool import WorkerPool
from repro.errors import ConfigError
from repro.harness.experiments import Experiment, ExperimentResult
from repro.util import derive_seed


# ----------------------------------------------------------------------
# Tiny registered experiments (inherited by forked workers)
# ----------------------------------------------------------------------
def _tiny_points(quick):
    return [[i] for i in range(3)]


def _tiny_run_point(point, quick, seed):
    (index,) = point
    return [index, derive_seed(seed, index) % 1000]


def _tiny_assemble(records, quick, seed):
    return ExperimentResult(
        eid="TINY",
        title="tiny",
        headers=["i", "value"],
        rows=list(records),
        notes={"n": float(len(records))},
    )


def _flaky_run_point(point, quick, seed):
    # Fails on the first attempt, succeeds on the retry: the marker file
    # is the only state that survives the fresh retry process.
    import pathlib

    index, scratch = point
    marker = pathlib.Path(scratch) / f"attempted-{index}"
    if not marker.exists():
        marker.write_text("first attempt")
        raise RuntimeError(f"transient failure on point {index}")
    return [index, "recovered"]


def _sleepy_run_point(point, quick, seed):
    time.sleep(60)
    return point


@pytest.fixture
def registry_cleanup():
    added = []

    def _register(experiment):
        added.append(experiment.eid)
        register(experiment)

    yield _register
    for eid in added:
        REGISTRY.pop(eid, None)


@pytest.fixture
def tiny(registry_cleanup):
    registry_cleanup(
        Experiment(
            eid="TINY",
            points=_tiny_points,
            run_point=_tiny_run_point,
            assemble=_tiny_assemble,
            default_seed=7,
        )
    )
    return "TINY"


# ----------------------------------------------------------------------
# Specs and job ids
# ----------------------------------------------------------------------
class TestJobSpec:
    def test_job_id_is_content_hash(self):
        a = JobSpec(eid="E5", point_index=0, point=[2, 2], quick=True, seed=3)
        b = JobSpec(eid="E5", point_index=0, point=[2, 2], quick=True, seed=3)
        assert a.job_id == b.job_id
        assert a.job_id != a.to_dict() and len(a.job_id) == 16

    @pytest.mark.parametrize(
        "change",
        [
            {"seed": 4},
            {"quick": False},
            {"point": [2, 4]},
            {"point_index": 1},
            {"eid": "E7"},
            {"replicate": 1},
        ],
    )
    def test_any_field_changes_the_id(self, change):
        base = dict(eid="E5", point_index=0, point=[2, 2], quick=True, seed=3)
        assert (
            JobSpec(**base).job_id != JobSpec(**{**base, **change}).job_id
        )

    def test_json_roundtrip(self):
        job = JobSpec(eid="E7", point_index=2, point=[16], quick=True, seed=9)
        assert JobSpec.from_json(job.to_json()) == job

    def test_job_id_is_hashed_once_and_changes_nothing_else(self, monkeypatch):
        from repro.campaign import spec as spec_mod

        grid = [
            job
            for quick in (True, False)
            for job in CampaignSpec(
                experiments=tuple(sorted(REGISTRY)), quick=quick
            ).expand()
        ]
        assert len(grid) >= 2 * len(REGISTRY)
        for job in grid:
            assert job.job_id == spec_mod._content_hash(job.to_dict())
        job = grid[0]
        fresh = JobSpec.from_dict(job.to_dict())  # never asked for its id
        assert fresh == job and "job_id" not in vars(fresh)
        clone = pickle.loads(pickle.dumps(job))
        assert clone == job and clone.job_id == job.job_id
        moved = dataclasses.replace(job, seed=job.seed + 1)
        assert moved != job and moved.job_id != job.job_id
        assert moved.job_id == spec_mod._content_hash(moved.to_dict())
        assert dataclasses.asdict(job) == dataclasses.asdict(fresh)
        hashable = JobSpec(eid="demo", point_index=0, point=None, quick=True, seed=1)
        twin = dataclasses.replace(hashable)
        hashable.job_id
        assert hash(hashable) == hash(twin) and {hashable: 1}[twin] == 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            job.seed = 0
        hashed = []
        real = spec_mod._content_hash
        monkeypatch.setattr(
            spec_mod, "_content_hash", lambda data: hashed.append(1) or real(data)
        )
        probe = JobSpec(eid="demo", point_index=0, point=[1], quick=True, seed=2)
        assert len({probe.job_id for _ in range(100)}) == 1
        assert len(hashed) == 1

    def test_future_version_rejected(self):
        data = JobSpec(eid="E5", point_index=0, point=None, quick=True, seed=1).to_dict()
        data["v"] = 99
        with pytest.raises(ConfigError):
            JobSpec.from_dict(data)


class TestCampaignSpec:
    def test_grid_expansion(self):
        spec = CampaignSpec(experiments=("E5", "E7"), quick=True)
        jobs = spec.expand()
        # quick E5 has 2 points, quick E7 has 3 quanta.
        assert [j.eid for j in jobs] == ["E5", "E5", "E7", "E7", "E7"]
        assert len({j.job_id for j in jobs}) == 5

    def test_default_seeds_match_sequential(self):
        spec = CampaignSpec(experiments=("E5", "E1"), quick=True)
        by_eid = {j.eid: j for j in spec.expand()}
        assert by_eid["E5"].seed == 3  # run_e5's default
        assert by_eid["E1"].seed == 11  # run_e1's default

    def test_replicates_derive_seeds(self):
        spec = CampaignSpec(experiments=("E7",), quick=True, seed=5, replicates=3)
        jobs = spec.expand()
        assert len(jobs) == 9
        seeds = sorted({j.seed for j in jobs})
        assert len(seeds) == 3
        assert 5 in seeds  # replicate 0 keeps the root seed
        # replicate seeds are the documented derivation, shared across points
        assert {j.seed for j in jobs if j.replicate == 1} == {derive_seed(5, "E7", 1)}

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigError):
            CampaignSpec(experiments=("E99",))

    def test_empty_and_bad_replicates_rejected(self):
        with pytest.raises(ConfigError):
            CampaignSpec(experiments=())
        with pytest.raises(ConfigError):
            CampaignSpec(experiments=("E5",), replicates=0)

    def test_spec_hash_stable_and_discriminating(self):
        a = CampaignSpec(experiments=("E5",), quick=True)
        b = CampaignSpec(experiments=("E5",), quick=True)
        c = CampaignSpec(experiments=("E5",), quick=False)
        assert a.spec_hash == b.spec_hash != c.spec_hash
        assert CampaignSpec.from_json(a.to_json()) == a

    def test_execute_job_runs_the_point(self, tiny):
        job = CampaignSpec(experiments=(tiny,)).expand()[1]
        payload = execute_job(job.to_dict())
        assert payload["record"] == _tiny_run_point(job.point, False, 7)


# ----------------------------------------------------------------------
# Store
# ----------------------------------------------------------------------
class TestStore:
    def _store(self, tmp_path, spec=None):
        store = ResultStore(tmp_path / "c.db")
        if spec is not None:
            store.initialize(spec)
        return store

    def test_initialize_and_counts(self, tmp_path, tiny):
        spec = CampaignSpec(experiments=(tiny,))
        store = self._store(tmp_path, spec)
        assert store.counts() == {"pending": 3, "running": 0, "done": 0, "failed": 0}
        assert store.campaign_spec() == spec

    def test_reinitialize_same_spec_is_resume(self, tmp_path, tiny):
        spec = CampaignSpec(experiments=(tiny,))
        store = self._store(tmp_path, spec)
        assert store.initialize(spec) is False  # second time: not fresh
        assert store.counts()["pending"] == 3

    def test_different_spec_refused(self, tmp_path, tiny):
        store = self._store(tmp_path, CampaignSpec(experiments=(tiny,)))
        with pytest.raises(ConfigError):
            store.initialize(CampaignSpec(experiments=(tiny,), quick=True))

    def test_job_lifecycle_and_provenance(self, tmp_path, tiny):
        spec = CampaignSpec(experiments=(tiny,))
        store = self._store(tmp_path, spec)
        job = store.pending_jobs()[0]
        store.mark_running(job.job_id, "pid123")
        row = store.get_job(job.job_id)
        assert row.status == "running" and row.worker == "pid123"
        assert row.attempts == 1 and row.started_at is not None
        store.mark_done(job.job_id, {"record": [0, 1]}, wall_s=0.25)
        row = store.get_job(job.job_id)
        assert row.status == "done" and row.record() == [0, 1]
        assert row.wall_s == 0.25 and row.finished_at is not None

    def test_mark_failed_requeue_and_final(self, tmp_path, tiny):
        store = self._store(tmp_path, CampaignSpec(experiments=(tiny,)))
        a, b = store.pending_jobs()[:2]
        store.mark_running(a.job_id, "w")
        store.mark_failed(a.job_id, "boom", 0.1, requeue=True)
        assert store.get_job(a.job_id).status == "pending"
        store.mark_running(b.job_id, "w")
        store.mark_failed(b.job_id, "boom", 0.1, requeue=False)
        assert store.get_job(b.job_id).status == "failed"
        assert store.get_job(b.job_id).error == "boom"

    def test_reset_running(self, tmp_path, tiny):
        store = self._store(tmp_path, CampaignSpec(experiments=(tiny,)))
        job = store.pending_jobs()[0]
        store.mark_running(job.job_id, "w")
        assert store.reset_running() == 1
        row = store.get_job(job.job_id)
        assert row.status == "pending" and row.attempts == 1

    def test_requeue_failed_respects_attempts(self, tmp_path, tiny):
        store = self._store(tmp_path, CampaignSpec(experiments=(tiny,)))
        job = store.pending_jobs()[0]
        for _ in range(2):
            store.mark_running(job.job_id, "w")
            store.mark_failed(job.job_id, "boom", 0.1, requeue=False)
        assert store.requeue_failed(max_attempts=2) == 0  # already used both
        assert store.requeue_failed(max_attempts=3) == 1

    def test_unknown_job_id_raises(self, tmp_path, tiny):
        store = self._store(tmp_path, CampaignSpec(experiments=(tiny,)))
        with pytest.raises(ConfigError):
            store.mark_done("nope", {}, 0.0)
        with pytest.raises(ConfigError):
            store.get_job("nope")

    def test_future_store_schema_rejected(self, tmp_path):
        path = tmp_path / "c.db"
        store = ResultStore(path)
        store.set_meta("store_schema", "99")
        store.close()
        with pytest.raises(ConfigError):
            ResultStore(path)

    def test_memory_store(self, tiny):
        store = ResultStore(":memory:")
        store.initialize(CampaignSpec(experiments=(tiny,)))
        assert store.counts()["pending"] == 3


# ----------------------------------------------------------------------
# Pool
# ----------------------------------------------------------------------
class TestPool:
    def _drain(self, pool, jobs):
        outcomes = []
        queue = list(jobs)
        while queue or pool.active:
            while queue and pool.has_capacity():
                job = queue.pop(0)
                pool.submit(job.job_id, job.to_dict())
            outcomes.extend(pool.wait())
        return outcomes

    def test_jobs_run_in_parallel_workers(self, tiny):
        jobs = CampaignSpec(experiments=(tiny,)).expand()
        with WorkerPool(workers=2) as pool:
            outcomes = self._drain(pool, jobs)
        assert len(outcomes) == 3
        assert all(o.ok for o in outcomes)
        by_id = {o.job_id: o for o in outcomes}
        for job in jobs:
            assert by_id[job.job_id].payload["record"] == _tiny_run_point(
                job.point, False, 7
            )
            assert by_id[job.job_id].wall_s >= 0

    def test_worker_exception_is_an_error_outcome(self, registry_cleanup, tmp_path):
        registry_cleanup(
            Experiment(
                eid="BOOM",
                points=lambda quick: [[0, str(tmp_path)]],
                run_point=_flaky_run_point,
                assemble=_tiny_assemble,
            )
        )
        job = CampaignSpec(experiments=("BOOM",)).expand()[0]
        with WorkerPool(workers=1) as pool:
            pool.submit(job.job_id, job.to_dict())
            (outcome,) = pool.wait()
        assert not outcome.ok and not outcome.timed_out
        assert "transient failure" in outcome.error

    def test_timeout_kills_the_worker(self, registry_cleanup):
        registry_cleanup(
            Experiment(
                eid="SLEEPY",
                points=lambda quick: [[0]],
                run_point=_sleepy_run_point,
                assemble=_tiny_assemble,
            )
        )
        job = CampaignSpec(experiments=("SLEEPY",)).expand()[0]
        with WorkerPool(workers=1, timeout=0.5) as pool:
            pool.submit(job.job_id, job.to_dict())
            start = time.monotonic()
            (outcome,) = pool.wait()
            elapsed = time.monotonic() - start
        assert outcome.timed_out and not outcome.ok
        assert elapsed < 30  # killed, not joined to completion

    def test_capacity_enforced(self, tiny):
        jobs = CampaignSpec(experiments=(tiny,)).expand()
        with WorkerPool(workers=1) as pool:
            pool.submit(jobs[0].job_id, jobs[0].to_dict())
            with pytest.raises(ConfigError):
                pool.submit(jobs[1].job_id, jobs[1].to_dict())
            pool.wait()

    def test_validation(self):
        with pytest.raises(ConfigError):
            WorkerPool(workers=0)
        with pytest.raises(ConfigError):
            WorkerPool(workers=1, timeout=0)


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------
def _run_campaign(store, **kwargs):
    kwargs.setdefault("progress", False)
    return CampaignEngine(store, **kwargs).run()


class TestEngine:
    def test_full_run(self, tmp_path, tiny):
        store = ResultStore(tmp_path / "c.db")
        store.initialize(CampaignSpec(experiments=(tiny,)))
        summary = _run_campaign(store, workers=2)
        assert summary.ok and summary.done == 3 and summary.executed == 3
        assert store.counts()["done"] == 3

    def test_resume_skips_done_jobs(self, tmp_path, tiny):
        store = ResultStore(tmp_path / "c.db")
        store.initialize(CampaignSpec(experiments=(tiny,)))
        _run_campaign(store, workers=2)
        before = {j.job_id: (j.attempts, j.finished_at, j.payload) for j in store.all_jobs()}
        summary = _run_campaign(store, workers=2)
        assert summary.executed == 0 and summary.skipped == 3 and summary.ok
        after = {j.job_id: (j.attempts, j.finished_at, j.payload) for j in store.all_jobs()}
        assert after == before  # completed jobs untouched — not re-executed

    def test_crash_recovery_reclaims_running_jobs(self, tmp_path, tiny):
        # Simulate a kill -9 mid-run: one job done, one left 'running'
        # (started, never finished), one still pending.
        store = ResultStore(tmp_path / "c.db")
        store.initialize(CampaignSpec(experiments=(tiny,)))
        done, crashed, _ = store.pending_jobs()
        store.mark_running(done.job_id, "w")
        record = _tiny_run_point(done.job_spec().point, False, 7)
        store.mark_done(done.job_id, {"record": record}, 0.5)
        store.mark_running(crashed.job_id, "w")
        summary = _run_campaign(store, workers=2)
        assert summary.reset_running == 1
        assert summary.executed == 2  # the crashed job + the pending one
        assert summary.done == 3 and summary.ok
        assert store.get_job(done.job_id).attempts == 1  # never re-run

    def test_retries_requeue_on_fresh_process(self, registry_cleanup, tmp_path):
        registry_cleanup(
            Experiment(
                eid="FLAKY",
                points=lambda quick: [[i, str(tmp_path / "scratch")] for i in range(2)],
                run_point=_flaky_run_point,
                assemble=_tiny_assemble,
            )
        )
        (tmp_path / "scratch").mkdir()
        store = ResultStore(tmp_path / "c.db")
        store.initialize(CampaignSpec(experiments=("FLAKY",)))
        failed = _run_campaign(store, workers=2, retries=0)
        assert not failed.ok and failed.failed == 2
        # Resume with retries: the failed jobs get one more fresh process,
        # which sees the marker files and succeeds.
        summary = _run_campaign(store, workers=2, retries=1)
        assert summary.ok and summary.retried == 2
        assert [j.record() for j in store.jobs_for("FLAKY")] == [
            [0, "recovered"],
            [1, "recovered"],
        ]
        assert all(j.attempts == 2 for j in store.all_jobs())

    def test_timeout_marks_failed(self, registry_cleanup, tmp_path):
        registry_cleanup(
            Experiment(
                eid="SLEEPY",
                points=lambda quick: [[0]],
                run_point=_sleepy_run_point,
                assemble=_tiny_assemble,
            )
        )
        store = ResultStore(tmp_path / "c.db")
        store.initialize(CampaignSpec(experiments=("SLEEPY",)))
        summary = _run_campaign(store, workers=1, timeout=0.5)
        assert not summary.ok
        (job,) = store.all_jobs()
        assert job.status == "failed" and "timeout" in job.error

    def test_determinism_across_worker_counts(self, tmp_path):
        # Same spec, different pools: bit-identical rows.  The demo
        # experiment derives per-job seeds, so any scheduling sensitivity
        # would show up as differing rows.
        spec = CampaignSpec(experiments=("demo",), seed=42)
        records = {}
        for workers in (1, 3):
            store = ResultStore(tmp_path / f"w{workers}.db")
            store.initialize(spec)
            assert _run_campaign(store, workers=workers).ok
            records[workers] = [j.record() for j in store.jobs_for("demo")]
        assert records[1] == records[3]

    def test_run_experiment_parallel(self):
        result = run_experiment_parallel("demo", workers=2)
        assert result.eid == "demo" and len(result.rows) == 4


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
class TestReport:
    def _completed_store(self, tmp_path, eids=("demo",), **spec_kwargs):
        store = ResultStore(tmp_path / "c.db")
        store.initialize(CampaignSpec(experiments=tuple(eids), **spec_kwargs))
        assert _run_campaign(store, workers=2).ok
        return store

    def test_assemble_matches_direct_run(self, tmp_path, tiny):
        store = self._completed_store(tmp_path, eids=(tiny,))
        ((eid, replicate, result),) = assemble_results(store)
        assert (eid, replicate) == (tiny, 0)
        direct = _tiny_assemble(
            [_tiny_run_point([i], False, 7) for i in range(3)], False, 7
        )
        assert result == direct

    def test_partial_campaign_not_assembled(self, tmp_path, tiny):
        store = ResultStore(tmp_path / "c.db")
        store.initialize(CampaignSpec(experiments=(tiny,)))
        job = store.pending_jobs()[0]
        store.mark_running(job.job_id, "w")
        store.mark_done(job.job_id, {"record": [0, 0]}, 0.1)
        assert assemble_results(store) == []
        assert "incomplete" in campaign_report(store)

    def test_rows_off_the_current_grid_are_not_assembled(self, tmp_path, tiny):
        # A store written when the experiment was one whole-result job,
        # resumed after it became per-point: the old row stays but is
        # not the grid's, so it must not reach the assembler.
        store = ResultStore(tmp_path / "c.db")
        store.initialize(CampaignSpec(experiments=(tiny,)))
        stale = JobSpec(eid=tiny, point_index=0, point=None, quick=False, seed=7)
        store.add_jobs([stale])
        store.mark_running(stale.job_id, "w")
        store.mark_done(stale.job_id, {"record": {"schema": 1}}, 0.1)
        assert _run_campaign(store, workers=2).ok
        ((_, _, result),) = assemble_results(store)
        direct = _tiny_assemble(
            [_tiny_run_point([i], False, 7) for i in range(3)], False, 7
        )
        assert result == direct

    def test_report_renders_tables(self, tmp_path):
        store = self._completed_store(tmp_path)
        text = campaign_report(store)
        assert "[demo]" in text and "mean_lat" in text

    def test_report_save_roundtrips_via_persist(self, tmp_path):
        from repro.harness.persist import load_result

        store = self._completed_store(tmp_path)
        campaign_report(store, save_dir=tmp_path / "out")
        loaded = load_result(tmp_path / "out" / "demo.json")
        ((_, _, assembled),) = assemble_results(store)
        assert loaded == assembled

    def test_replicates_reported_separately(self, tmp_path):
        store = self._completed_store(tmp_path, seed=42, replicates=2)
        assembled = assemble_results(store)
        assert [(e, r) for e, r, _ in assembled] == [("demo", 0), ("demo", 1)]
        # Different derived seeds -> different rows.
        assert assembled[0][2].rows != assembled[1][2].rows
        campaign_report(store, save_dir=tmp_path / "out")
        assert (tmp_path / "out" / "demo.json").exists()
        assert (tmp_path / "out" / "demo-rep1.json").exists()

    def test_status_shows_provenance(self, tmp_path):
        store = self._completed_store(tmp_path)
        text = campaign_status(store)
        assert "Job provenance" in text and "pid" in text

    def test_payload_is_persist_schema_for_whole_experiments(self, tmp_path, tiny):
        # Single-job experiments store the full persist.py dict as payload.
        spec = CampaignSpec(experiments=("E5",), quick=True)
        job = [j for j in spec.expand()][0]
        assert job.point == [2, 2]  # E5 decomposes per point, not whole
        whole = CampaignSpec(experiments=("E9",), quick=True).expand()
        assert len(whole) == 1 and whole[0].point is None

    def test_job_payload_json_stays_canonical(self, tmp_path, tiny):
        store = self._completed_store(tmp_path, eids=(tiny,))
        job = store.all_jobs()[0]
        assert json.loads(job.payload) == {"record": job.record()}
