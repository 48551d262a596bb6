"""Campaign-side resilience: kill escalation, retry backoff, job checkpoints.

The cross-process kill/restore acceptance test for the resilience CLI lives
in ``test_resilience_checkpoint.py``; this module covers the campaign
engine's half of the contract — SIGTERM-then-SIGKILL termination, bounded
exponential backoff between retry attempts, and the per-job checkpoint
scope workers execute inside.
"""

import os
import time

import pytest

from repro.campaign import (
    REGISTRY,
    CampaignEngine,
    CampaignSpec,
    ResultStore,
    execute_job,
    register,
)
from repro.campaign.pool import WorkerPool
from repro.core.config import TargetConfig, build_cosim
from repro.errors import ConfigError
from repro.harness.experiments import Experiment, ExperimentResult
from repro.harness.runner import _config_key, run_cosim
from repro.resilience.checkpoint import (
    Checkpointer,
    active_job_checkpoint,
    job_checkpoint,
)

SMALL = TargetConfig(width=2, height=2, app="water", seed=3, scale=0.2,
                     network_model="cycle")


# ----------------------------------------------------------------------
# Registered-at-test-time experiments (inherited by forked workers)
# ----------------------------------------------------------------------
def _tiny_points(quick):
    return [[i] for i in range(2)]


def _tiny_run_point(point, quick, seed):
    return [point[0], point[0] * 10]


def _tiny_assemble(records, quick, seed):
    return ExperimentResult(
        eid="RTINY", title="rtiny", headers=["i", "v"], rows=list(records),
        notes={},
    )


def _stubborn_run_point(point, quick, seed):
    # Ignore the pool's polite SIGTERM; only SIGKILL can stop this job.
    import signal

    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    time.sleep(120)
    return point


def _flaky_run_point(point, quick, seed):
    import pathlib

    index, scratch = point
    marker = pathlib.Path(scratch) / f"attempted-{index}"
    if not marker.exists():
        marker.write_text("first attempt")
        raise RuntimeError(f"transient failure on point {index}")
    return [index, "recovered"]


@pytest.fixture
def registry_cleanup():
    added = []

    def _register(experiment):
        added.append(experiment.eid)
        register(experiment)

    yield _register
    for eid in added:
        REGISTRY.pop(eid, None)


def _make_store(spec):
    store = ResultStore(":memory:")
    store.initialize(spec)
    return store


# ----------------------------------------------------------------------
# SIGTERM -> SIGKILL escalation
# ----------------------------------------------------------------------
class TestKillEscalation:
    def test_sigterm_immune_worker_is_sigkilled(self, registry_cleanup):
        registry_cleanup(
            Experiment(
                eid="STUBBORN",
                points=_tiny_points,
                run_point=_stubborn_run_point,
                assemble=_tiny_assemble,
            )
        )
        spec = CampaignSpec(experiments=("STUBBORN",), quick=True)
        job = spec.expand()[0]
        pool = WorkerPool(workers=1, timeout=0.5, term_grace_s=0.5)
        with pool:
            pool.submit(job.job_id, job.to_dict())
            start = time.monotonic()
            (outcome,) = pool.wait()
            elapsed = time.monotonic() - start
        assert outcome.timed_out
        assert not outcome.ok
        # SIGTERM alone would leave the worker sleeping for 120s; the
        # escalation must have SIGKILLed it shortly after the grace period.
        assert elapsed < 30

    def test_shutdown_escalates_too(self, registry_cleanup):
        registry_cleanup(
            Experiment(
                eid="STUBBORN",
                points=_tiny_points,
                run_point=_stubborn_run_point,
                assemble=_tiny_assemble,
            )
        )
        spec = CampaignSpec(experiments=("STUBBORN",), quick=True)
        job = spec.expand()[0]
        pool = WorkerPool(workers=1, term_grace_s=0.2)
        pool.submit(job.job_id, job.to_dict())
        process = pool._live[job.job_id].process
        time.sleep(0.3)  # let the child install its SIGTERM handler
        start = time.monotonic()
        pool.shutdown()
        assert time.monotonic() - start < 30
        assert not process.is_alive()
        assert pool.active == 0

    def test_negative_grace_rejected(self):
        with pytest.raises(ConfigError):
            WorkerPool(workers=1, term_grace_s=-1.0)


# ----------------------------------------------------------------------
# Retry backoff
# ----------------------------------------------------------------------
class TestRetryBackoff:
    def _engine(self, store, **kwargs):
        return CampaignEngine(store, workers=1, progress=False, **kwargs)

    def test_delay_schedule_is_bounded_exponential(self):
        store = ResultStore(":memory:")
        engine = self._engine(
            store, retry_backoff=2.0, retry_backoff_cap=5.0
        )
        assert engine._retry_delay(1) == 2.0
        assert engine._retry_delay(2) == 4.0
        assert engine._retry_delay(3) == 5.0  # capped, not 8.0
        assert engine._retry_delay(9) == 5.0

    def test_zero_backoff_requeues_immediately(self):
        engine = self._engine(ResultStore(":memory:"))
        assert engine._retry_delay(1) == 0.0
        assert engine._retry_delay(5) == 0.0

    def test_validation(self):
        store = ResultStore(":memory:")
        with pytest.raises(ConfigError):
            self._engine(store, retry_backoff=-0.1)
        with pytest.raises(ConfigError):
            self._engine(store, retry_backoff_cap=-1.0)
        with pytest.raises(ConfigError):
            self._engine(store, checkpoint_every=0)

    def test_retry_waits_out_the_backoff(self, registry_cleanup, tmp_path):
        registry_cleanup(
            Experiment(
                eid="FLAKY",
                points=lambda quick: [[0, str(tmp_path)]],
                run_point=_flaky_run_point,
                assemble=_tiny_assemble,
            )
        )
        store = _make_store(CampaignSpec(experiments=("FLAKY",), quick=True))
        engine = self._engine(store, retries=1, retry_backoff=0.6)
        start = time.monotonic()
        summary = engine.run()
        elapsed = time.monotonic() - start
        assert summary.ok
        assert summary.done == 1
        assert summary.executed == 2  # failure + backed-off retry
        assert elapsed >= 0.6


# ----------------------------------------------------------------------
# Per-job checkpoint scope
# ----------------------------------------------------------------------
class TestJobCheckpoints:
    def test_scope_is_visible_and_restored(self, tmp_path):
        assert active_job_checkpoint() is None
        with job_checkpoint(str(tmp_path / "job.ckpt"), every=32) as spec:
            assert active_job_checkpoint() is spec
            assert spec.every == 32
        assert active_job_checkpoint() is None

    def test_execute_job_strips_checkpoint_key(self, registry_cleanup, tmp_path):
        registry_cleanup(
            Experiment(
                eid="RTINY",
                points=_tiny_points,
                run_point=_tiny_run_point,
                assemble=_tiny_assemble,
            )
        )
        spec = CampaignSpec(experiments=("RTINY",), quick=True)
        job = spec.expand()[0].to_dict()
        job["_checkpoint"] = {
            "path": str(tmp_path / "job.ckpt"), "every": 64,
        }
        payload = execute_job(job)
        assert payload == {"record": [0, 0]}

    def test_run_cosim_resumes_from_a_killed_attempts_snapshot(self, tmp_path):
        path = str(tmp_path / "job.ckpt")
        reference = run_cosim(SMALL, cache=False)
        # Simulate a killed first attempt: the worker got partway through
        # and left its last quantum-boundary snapshot behind.
        victim = build_cosim(SMALL)
        victim.checkpointer = Checkpointer(
            path, every=16, config_token=repr(_config_key(SMALL, None))
        )
        victim.run(max_cycles=600)
        assert os.path.exists(path)
        # The retry attempt (same job -> same checkpoint path) must resume
        # from the snapshot and still produce the uninterrupted result.
        with job_checkpoint(path, every=16):
            result = run_cosim(SMALL)
        assert result.finish_cycle == reference.finish_cycle
        assert result.applied_latencies == reference.applied_latencies
        assert result.system_summary == reference.system_summary
        # A finished run removes its snapshot so nothing stale can leak.
        assert not os.path.exists(path)

    def test_engine_aware_job_resumes_from_a_killed_attempts_snapshot(
        self, tmp_path, monkeypatch
    ):
        import repro.resilience.checkpoint as checkpoint_module

        path = str(tmp_path / "job.ckpt")
        job = CampaignSpec(experiments=("demo-noc",), quick=True).expand()[0]
        reference = execute_job(job.to_dict())
        # A killed first attempt of this demo-noc point left its last
        # quantum-boundary snapshot behind.
        config = REGISTRY["demo-noc"].point_config(job.point, job.quick, job.seed)
        victim = build_cosim(config)
        victim.checkpointer = Checkpointer(
            path, every=16, config_token=repr(_config_key(config, None))
        )
        victim.run(max_cycles=1200)
        assert os.path.exists(path)
        loaded = []
        original = checkpoint_module.load_checkpoint

        def spy(*args, **kwargs):
            loaded.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(checkpoint_module, "load_checkpoint", spy)
        retry = dict(job.to_dict(), _checkpoint={"path": path, "every": 16})
        assert execute_job(retry) == reference
        assert loaded == [path]  # resumed from the snapshot, not cycle 0
        assert not os.path.exists(path)

    def test_checkpoint_scope_bypasses_the_memo_cache(self, tmp_path):
        path = str(tmp_path / "job.ckpt")
        baseline = run_cosim(SMALL)  # primes the memo cache
        with job_checkpoint(path, every=16):
            rerun = run_cosim(SMALL)
        assert rerun is not baseline  # actually ran, not a cache hit
        assert rerun.finish_cycle == baseline.finish_cycle

    def test_engine_checkpoint_dir_leaves_no_stale_snapshots(
        self, registry_cleanup, tmp_path
    ):
        registry_cleanup(
            Experiment(
                eid="RTINY",
                points=_tiny_points,
                run_point=_tiny_run_point,
                assemble=_tiny_assemble,
            )
        )
        store = _make_store(CampaignSpec(experiments=("RTINY",), quick=True))
        ckpt_dir = tmp_path / "ckpts"
        summary = CampaignEngine(
            store, workers=2, progress=False,
            checkpoint_dir=str(ckpt_dir), checkpoint_every=32,
        ).run()
        assert summary.ok
        assert ckpt_dir.is_dir()
        assert list(ckpt_dir.glob("*.ckpt")) == []
