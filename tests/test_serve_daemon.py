"""End-to-end daemon tests: HTTP API, caching, backpressure, drain/resume.

These run a real :class:`ServeDaemon` in-process on an ephemeral port and
drive it with :class:`ServeClient` over loopback HTTP — same wire path as
production, but against the millisecond-scale ``demo`` experiment so the
whole file stays tier-1 fast.  The long-haul SIGTERM/equivalence story
lives in ``scripts/serve_smoke.py``.
"""

import time

import pytest

from repro.campaign.spec import REGISTRY, register
from repro.errors import BackpressureError, ServeError
from repro.harness.experiments import Experiment
from repro.serve import ServeClient, ServeConfig, ServeDaemon
from repro.serve.metrics import PREFIX


# A deliberately slow experiment for backpressure tests.  Defined at module
# top level so fork-started workers inherit it (see ``register`` docs).
def _slow_points(quick):
    return [[i] for i in range(8)]


def _slow_run_point(point, quick, seed):
    time.sleep(2.0)  # simlint: allow[wall-clock] -- test stand-in workload
    return {"idx": point[0]}


def _slow_assemble(records, quick, seed):
    return {"records": list(records)}


if "slowtest" not in REGISTRY:
    register(
        Experiment(
            eid="slowtest",
            points=_slow_points,
            run_point=_slow_run_point,
            assemble=_slow_assemble,
            default_seed=1,
        )
    )


@pytest.fixture
def daemon(tmp_path):
    d = ServeDaemon(
        ServeConfig(port=0, db=str(tmp_path / "serve.db"), workers=2)
    )
    d.start()
    yield d
    d.stop()


@pytest.fixture
def client(daemon):
    with ServeClient(port=daemon.port, client_id="pytest") as c:
        yield c


class TestEndpoints:
    def test_health(self, client):
        health = client.health()
        assert health["ok"] and not health["draining"]

    def test_catalog_lists_the_registry(self, client):
        catalog = client.catalog()
        assert "demo" in catalog["experiments"]
        demo = catalog["experiments"]["demo"]
        assert demo["points"]["quick"] == 2
        assert demo["points"]["full"] == 4

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServeError) as err:
            client.status("feedfacedeadbeef")
        assert err.value.status == 404

    def test_unknown_path_is_404(self, client):
        status, payload, _ = client._request("GET", "/api/v1/nope")
        assert status == 404 and "error" in payload

    def test_bad_submission_is_400(self, client):
        status, payload, _ = client._request(
            "POST", "/api/v1/jobs", {"v": 1, "eid": "E99", "client": "pytest"}
        )
        assert status == 400 and "unknown" in payload["error"]

    def test_metrics_endpoint_serves_prometheus_text(self, client):
        text = client.metrics_text()
        assert f"# TYPE {PREFIX}_uptime_seconds gauge" in text
        assert f"# TYPE {PREFIX}_queue_depth gauge" in text


class TestCachingLifecycle:
    def test_submit_wait_result(self, client):
        result = client.submit_and_wait("demo", point_index=0, quick=True)
        # demo records are [label, finish_cycle, mean_latency] rows
        assert result["record"][0] == "job0"
        assert result["record"][1] > 0

    def test_repeat_submission_is_a_hit_and_spawns_no_worker(
        self, daemon, client
    ):
        """The headline acceptance check: a repeated identical submission
        must come back from the cache byte-identically with zero worker
        spawns, asserted by the dispatch counter."""
        ack = client.submit("demo", point_index=1, quick=True)
        client.wait(ack["job_id"], timeout_s=60)
        first = client.result_text(ack["job_id"])
        dispatched = daemon.metrics.counter_total(
            f"{PREFIX}_jobs_dispatched_total"
        )
        for _ in range(3):
            again = client.submit("demo", point_index=1, quick=True)
            assert again["status"] == "done" and again["cached"]
            assert client.result_text(ack["job_id"]) == first
        assert (
            daemon.metrics.counter_total(f"{PREFIX}_jobs_dispatched_total")
            == dispatched
        ), "cache hits must never spawn a worker"
        assert daemon.metrics.counter_total(f"{PREFIX}_cache_hits_total") >= 3

    def test_distinct_seeds_are_distinct_jobs(self, client):
        client.submit_and_wait("demo", point_index=0, quick=True, seed=1)
        client.submit_and_wait("demo", point_index=0, quick=True, seed=2)
        ack1 = client.submit("demo", point_index=0, quick=True, seed=1)
        ack2 = client.submit("demo", point_index=0, quick=True, seed=2)
        assert ack1["job_id"] != ack2["job_id"]
        assert ack1["cached"] and ack2["cached"]

    def test_status_reports_lifecycle_fields(self, client):
        ack = client.submit("demo", point_index=0, quick=True, seed=5)
        client.wait(ack["job_id"], timeout_s=60)
        state = client.status(ack["job_id"])
        assert state["status"] == "done"
        assert state["eid"] == "demo"
        assert state["attempts"] == 1
        assert state["wall_s"] >= 0


class TestBackpressure:
    def test_over_capacity_burst_gets_429_with_retry_after(self, tmp_path):
        d = ServeDaemon(
            ServeConfig(
                port=0, db=str(tmp_path / "bp.db"), workers=1, max_queue=2
            )
        )
        d.start()
        try:
            # retries=0: this test asserts the *raw* 429 contract, so the
            # client's transparent shed-retry must stay out of the way.
            client = ServeClient(port=d.port, client_id="burst", retries=0)
            acks = []
            rejected = None
            # Slow jobs glue up the single worker; the bounded queue must
            # start shedding within max_queue + in-flight submissions.
            for idx in range(6):
                try:
                    acks.append(
                        client.submit("slowtest", point_index=idx, quick=True)
                    )
                except BackpressureError as exc:
                    rejected = exc
                    break
            assert rejected is not None, "queue never pushed back"
            assert rejected.status == 429
            assert 1.0 <= rejected.retry_after_s <= 300.0
            assert len(acks) >= 2, "bound must admit up to its depth first"
            assert (
                d.metrics.counter_total(f"{PREFIX}_rejected_total") >= 1
            )
        finally:
            d.stop()


class TestDrainAndResume:
    def test_drain_mid_queue_then_restart_completes_exactly_once(
        self, tmp_path
    ):
        db = str(tmp_path / "drain.db")
        d1 = ServeDaemon(
            ServeConfig(port=0, db=db, workers=1, max_queue=32)
        )
        d1.start()
        client = ServeClient(port=d1.port, client_id="drain")
        job_ids = [
            client.submit("slowtest", point_index=i, quick=True, seed=9)["job_id"]
            for i in range(3)
        ]
        # Stop with the queue still loaded: accepted jobs must persist.
        d1.stop()

        d2 = ServeDaemon(
            ServeConfig(port=0, db=db, workers=2, max_queue=32)
        )
        d2.start()
        try:
            recovered = d2.metrics.counter_total(
                f"{PREFIX}_recovered_jobs_total"
            )
            drained = d2.metrics.counter_total(f"{PREFIX}_drained_jobs_total")
            assert recovered + drained >= 1, "pending jobs must be re-admitted"
            c2 = ServeClient(port=d2.port, client_id="drain")
            for job_id in job_ids:
                state = c2.wait(job_id, timeout_s=120)
                assert state["status"] == "done"
                # exactly-once: one attempt unless the drain interrupted a
                # running worker (that one may legitimately retry), and
                # never more than one *completion*.
                assert state["attempts"] in (1, 2)
        finally:
            d2.stop()

    def test_submissions_during_drain_are_refused(self, tmp_path):
        d = ServeDaemon(ServeConfig(port=0, db=str(tmp_path / "x.db"), workers=1))
        d.start()
        client = ServeClient(port=d.port, client_id="late")
        ack = client.shutdown()
        assert ack["draining"]
        with pytest.raises(ServeError) as err:
            # retry until the drain flag is visible or the socket dies;
            # both are acceptable spellings of "go away"
            for _ in range(50):
                client.submit("demo", point_index=0, quick=True)
                time.sleep(0.05)  # simlint: allow[wall-clock] -- test poll
        assert err.value.status in (0, 503)
        d.stop()


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-q"]))
