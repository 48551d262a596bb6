"""Multi-node cluster integration tests: gossip, routing, fill, stealing.

These start real :class:`ClusterNode` s in-process on ephemeral ports and
drive them with :class:`ServeClient` over loopback HTTP — the production
wire path end to end (membership gossip, 307 redirects, peer cache-fill,
work-stealing, the chaos kill/restart cycle) against the
millisecond-scale ``demo`` experiment so the file stays tier-1 fast.
"""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.campaign.spec import CampaignSpec
from repro.campaign import store as store_module
from repro.cluster import ClusterConfig, ClusterNode
from repro.errors import ConfigError, StoreIOError
from repro.serve import ServeClient, ServeConfig
from repro.serve.metrics import PREFIX

CPREFIX = f"{PREFIX}_cluster"

#: the demo quick grid, expanded once (specs are pure data)
GRID = CampaignSpec(experiments=("demo",), quick=True).expand()


def _node(tmp_path, node_id, peers=(), workers=2, **overrides):
    serve = ServeConfig(
        port=0, db=str(tmp_path / f"{node_id}.db"), workers=workers,
        max_queue=64,
    )
    config = ClusterConfig(
        node_id=node_id, serve=serve, peers=tuple(peers),
        gossip_interval_s=0.1, fail_after_s=2.0, re_admit_after_s=2.0,
        **overrides,
    )
    return ClusterNode(config)


def _wait_converged(nodes, timeout_s=10.0):
    want = {n.cluster.node_id for n in nodes}
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if all(set(n.membership.alive_ids()) == want for n in nodes):
            return
        time.sleep(0.05)
    views = {n.cluster.node_id: n.membership.alive_ids() for n in nodes}
    raise AssertionError(f"gossip never converged: {views}")


@pytest.fixture()
def ring(tmp_path):
    """A converged two-node ring, torn down even on assertion failure."""
    a = _node(tmp_path, "a")
    a.start()
    b = _node(tmp_path, "b", peers=(f"127.0.0.1:{a.port}",))
    b.start()
    try:
        _wait_converged([a, b])
        yield a, b
    finally:
        a.stop()
        b.stop()


def _owner_split(node):
    split = {}
    for spec in GRID:
        split.setdefault(node.router.owner_id(spec.job_id), []).append(spec)
    return split


def _submit(client, spec):
    return client.submit(
        spec.eid, point_index=spec.point_index, replicate=spec.replicate,
        quick=spec.quick,
    )


class TestGossipAndRing:
    def test_membership_converges_and_rings_agree(self, ring):
        a, b = ring
        assert a.router.describe()["nodes"] == b.router.describe()["nodes"]

    def test_healthz_reports_cluster_state(self, ring):
        a, _ = ring
        with ServeClient(port=a.port, client_id="hz") as client:
            body = client.health()
        cluster = body["cluster"]
        assert cluster["node_id"] == "a"
        assert sorted(cluster["membership"]["alive"]) == ["a", "b"]
        assert cluster["ring"]["nodes"] == ["a", "b"]
        assert cluster["generation"] >= 1

    def test_generation_bumps_across_restart(self, ring, tmp_path):
        a, _ = ring
        first = a.generation
        # Same database, new node instance: the restart signature gossip
        # uses to tell a resurrection from a stale echo.
        again = _node(tmp_path / "g", "solo")
        try:
            gen1 = again.generation
        finally:
            again.cache.close()
        again2 = _node(tmp_path / "g", "solo")
        try:
            assert again2.generation == gen1 + 1
        finally:
            again2.cache.close()
        assert first >= 1


class TestRedirectAndFill:
    def test_non_owner_redirects_submit_to_owner(self, ring):
        a, b = ring
        spec = _owner_split(a)["b"][0]
        with ServeClient(port=a.port, client_id="c1") as client:
            ack = _submit(client, spec)
            assert ack["job_id"] == spec.job_id
            assert client.redirects_followed >= 1
            client.wait(spec.job_id, timeout_s=60)
        # The owner computed it; the non-owner never had a row of its own
        # until (at most) peer fill later adopts one.
        assert b.cache.local_row(spec.job_id).status == "done"

    def test_raw_307_carries_location(self, ring):
        a, _ = ring
        spec = _owner_split(a)["b"][0]
        body = json.dumps({
            "eid": spec.eid, "point_index": spec.point_index,
            "replicate": spec.replicate, "quick": spec.quick,
        }).encode("utf-8")
        request = urllib.request.Request(
            f"http://127.0.0.1:{a.port}/api/v1/jobs", data=body, method="POST"
        )

        class NoRedirect(urllib.request.HTTPRedirectHandler):
            def redirect_request(self, *args, **kwargs):
                return None

        opener = urllib.request.build_opener(NoRedirect)
        with pytest.raises(urllib.error.HTTPError) as err:
            opener.open(request, timeout=5)
        assert err.value.code == 307
        assert err.value.headers["Location"].endswith("/api/v1/jobs")

    def test_peer_fill_answers_without_respawning_workers(self, ring):
        a, b = ring
        spec = _owner_split(a)["a"][0]
        with ServeClient(port=a.port, client_id="c1") as owner_client:
            _submit(owner_client, spec)
            owner_client.wait(spec.job_id, timeout_s=60)
        dispatched_before = b.metrics.counter_total(
            f"{PREFIX}_jobs_dispatched_total"
        )
        with ServeClient(port=b.port, client_id="c2") as peer_client:
            ack = _submit(peer_client, spec)
            assert ack["status"] == "done"
            assert ack["cached"] is True
            text_b = peer_client.result_text(spec.job_id)
        # Zero new worker spawns on b: the answer came from the ring.
        assert b.metrics.counter_total(
            f"{PREFIX}_jobs_dispatched_total"
        ) == dispatched_before
        assert b.cache.fill_hits >= 1
        assert text_b == a.cache.local_row(spec.job_id).payload

    def test_client_keepalive_reuses_one_connection(self, ring):
        a, _ = ring
        spec = _owner_split(a)["a"][0]
        with ServeClient(port=a.port, client_id="ka") as client:
            _submit(client, spec)
            client.wait(spec.job_id, timeout_s=60)
            client.result_text(spec.job_id)
            assert client.connections_opened == 1


class TestResultEndpointServesOnlyDurableRows:
    def test_fetch_during_a_refused_commit_never_serves_the_row(
        self, tmp_path, monkeypatch
    ):
        """A peer's fetch racing a ``mark_done`` whose commit is refused.

        The refused commit has already run its ``UPDATE`` on the shared
        connection; a read beside the cache lock would see that row as
        ``done`` and serve a payload that never became durable.
        """
        node = _node(tmp_path, "a")
        spec = GRID[0]
        answers = []
        fetch = threading.Thread(
            target=lambda: answers.append(node._handle_result_fetch(spec.job_id)[0])
        )

        def refuse_commit(store):
            fetch.start()
            fetch.join(timeout=1.0)  # the fetch runs now, or waits on the lock
            store.rollback()
            raise StoreIOError(f"{store.path}: commit failed: disk I/O error")

        try:
            assert node.cache.admit(spec)
            node.cache.mark_running(spec.job_id, "w1")
            monkeypatch.setattr(store_module, "CHAOS_COMMIT_HOOK", refuse_commit)
            with pytest.raises(StoreIOError):
                node.cache.commit(spec.job_id, {"v": 1}, 0.1)
            monkeypatch.setattr(store_module, "CHAOS_COMMIT_HOOK", None)
            fetch.join(timeout=10.0)
            assert not fetch.is_alive()
            assert answers == [404]
            assert node.cache.local_row(spec.job_id).status == "running"
        finally:
            node.cache.close()


class TestWorkStealing:
    def test_idle_peer_steals_from_flooded_victim(self, tmp_path):
        # One worker on the victim, a grid flood, an idle thief.
        a = _node(tmp_path, "a", workers=1, steal_batch=4)
        a.start()
        b = _node(
            tmp_path, "b", peers=(f"127.0.0.1:{a.port}",), workers=2,
            steal_batch=4,
        )
        b.start()
        try:
            _wait_converged([a, b])
            # The slow experiment first: only jobs still *queued* can be
            # stolen, and the victim's scheduler buffers the whole queue
            # the moment its one worker frees up.  With the ms-scale demo
            # point in front that is ~80 ms after the flood, inside one
            # gossip tick in a warm process; demo-noc holds it ~0.8 s.
            grid = CampaignSpec(
                experiments=("demo-noc", "demo"), quick=True
            ).expand()
            with ServeClient(port=a.port, client_id="flood") as client:
                jids = [_submit(client, spec)["job_id"] for spec in grid]
                for jid in jids:
                    client.wait(jid, timeout_s=120)
            assert b.steals_taken + a.steals_taken >= 1
            assert a.steals_served + b.steals_served >= 1
        finally:
            a.stop()
            b.stop()


class TestClusterConfigValidation:
    def test_rejects_bad_values(self, tmp_path):
        serve = ServeConfig(port=0, db=str(tmp_path / "x.db"))
        with pytest.raises(ConfigError):
            ClusterConfig(node_id="", serve=serve)
        with pytest.raises(ConfigError):
            ClusterConfig(node_id="x", serve=serve, vnodes=0)
        with pytest.raises(ConfigError):
            ClusterConfig(node_id="x", serve=serve, gossip_interval_s=0)
        with pytest.raises(ConfigError):
            ClusterConfig(node_id="x", serve=serve, fill_peers=-1)

    def test_rejects_malformed_peer_address(self, tmp_path):
        serve = ServeConfig(port=0, db=str(tmp_path / "x.db"))
        with pytest.raises(ConfigError):
            ClusterConfig(node_id="x", serve=serve, peers=("nocolon",))
