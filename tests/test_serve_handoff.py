"""The cache-hit hand-off: a ``done`` ack carries the stored text.

``ServeDaemon._submit`` answers a cache hit with the stored payload text
as the ack's ``payload`` field; ``ServeClient.submit`` keeps it in a
one-job slot and the next ``result_text`` of that id answers from it, so
a hit is one round trip.  What must not change is the text: whatever the
slot hands over must be byte for byte what ``GET .../result`` answers for
the same id — from the LRU, from SQLite, after a peer fill, after a
restart — and a slot must never answer for another job.
"""

import http.client
import json
import threading

import pytest

from repro.campaign.spec import CampaignSpec
from repro.campaign.store import ResultStore
from repro.serve import ServeClient, ServeConfig, ServeDaemon
from repro.serve.cli import main as serve_main
from repro.serve.metrics import PREFIX
from tests.test_cluster_node import _node, _owner_split, _wait_converged

HELD = 6

SPECS = CampaignSpec(experiments=("demo",), quick=True, replicates=HELD).expand()[:HELD]


def _seed(db_path) -> None:
    with ResultStore(str(db_path)) as store:
        store.add_jobs(SPECS)
        for index, spec in enumerate(SPECS):
            store.mark_running(spec.job_id, "handoff")
            store.mark_done(spec.job_id, {"index": index, "text": "é\"\\" * index}, 0.01)


def _submit(client, spec):
    return client.submit(
        spec.eid, point_index=spec.point_index, quick=spec.quick,
        seed=spec.seed, replicate=spec.replicate,
    )


def _raw(port, method, path, body=None):
    """One stdlib exchange: ``(status, body bytes)``."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        payload = None if body is None else json.dumps(body)
        conn.request(method, path, body=payload)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _raw_result(port, job_id) -> str:
    status, body = _raw(port, "GET", f"/api/v1/jobs/{job_id}/result")
    assert status == 200
    return body.decode("utf-8")


def _result_requests(daemon) -> float:
    return daemon.metrics.counter_value(f"{PREFIX}_requests_total", endpoint="result")


def _daemon(tmp_path, lru_size=8):
    daemon = ServeDaemon(
        ServeConfig(port=0, db=str(tmp_path / "serve.db"), workers=1, lru_size=lru_size)
    )
    daemon.start()
    return daemon


@pytest.fixture()
def served(tmp_path):
    """A daemon over ``HELD`` done demo jobs and a client; both closed after."""
    _seed(tmp_path / "serve.db")
    daemon = _daemon(tmp_path)
    client = ServeClient(port=daemon.port, client_id="handoff", retries=0)
    try:
        yield daemon, client
    finally:
        client.close()
        daemon.stop()


class TestTheHandedTextIsTheStoredText:
    def test_lru_resident(self, served):
        daemon, client = served
        spec = SPECS[1]
        client.result_text(spec.job_id)  # warm the LRU
        assert spec.job_id in daemon.cache.lru_contents()
        before = _result_requests(daemon)
        assert _submit(client, spec)["cached"] is True
        text = client.result_text(spec.job_id)
        assert _result_requests(daemon) == before
        assert text == _raw_result(daemon.port, spec.job_id)

    def test_sqlite_cold(self, tmp_path):
        _seed(tmp_path / "serve.db")
        daemon = _daemon(tmp_path, lru_size=0)
        try:
            with ServeClient(port=daemon.port, client_id="cold", retries=0) as client:
                for spec in SPECS:
                    assert daemon.cache.lru_contents() == ()
                    before = _result_requests(daemon)
                    assert _submit(client, spec)["status"] == "done"
                    text = client.result_text(spec.job_id)
                    assert _result_requests(daemon) == before
                    assert text == _raw_result(daemon.port, spec.job_id)
        finally:
            daemon.stop()

    def test_restarted_daemon_on_the_same_db(self, tmp_path):
        _seed(tmp_path / "serve.db")
        texts = {}
        for generation in range(2):
            daemon = _daemon(tmp_path)
            try:
                with ServeClient(port=daemon.port, client_id="restart") as client:
                    for spec in SPECS:
                        _submit(client, spec)
                        text = client.result_text(spec.job_id)
                        assert text == _raw_result(daemon.port, spec.job_id)
                        texts.setdefault(spec.job_id, text)
                        assert texts[spec.job_id] == text
                assert _result_requests(daemon) == len(SPECS)  # the raw GETs only
            finally:
                daemon.stop()

    def test_peer_filled_on_a_ring_node(self, tmp_path):
        a = _node(tmp_path, "a")
        a.start()
        b = _node(tmp_path, "b", peers=(f"127.0.0.1:{a.port}",))
        b.start()
        try:
            _wait_converged([a, b])
            spec = _owner_split(a)["a"][0]
            with ServeClient(port=a.port, client_id="owner") as client:
                _submit(client, spec)
                client.wait(spec.job_id, timeout_s=60)
            assert b.cache.local_row(spec.job_id) is None
            with ServeClient(port=b.port, client_id="filler") as client:
                before = _result_requests(b)
                ack = _submit(client, spec)
                assert ack["cached"] is True
                text = client.result_text(spec.job_id)
                assert _result_requests(b) == before
                assert client.redirects_followed == 0
            assert b.cache.fill_hits == 1
            assert text == _raw_result(b.port, spec.job_id)
            assert text == _raw_result(a.port, spec.job_id)
        finally:
            a.stop()
            b.stop()


class TestTheSlot:
    def test_the_ack_keeps_its_documented_keys(self, served):
        _, client = served
        ack = _submit(client, SPECS[0])
        assert ack == {"job_id": SPECS[0].job_id, "status": "done", "cached": True}

    def test_one_shot(self, served):
        daemon, client = served
        spec = SPECS[2]
        _submit(client, spec)
        first = client.result_text(spec.job_id)
        before = _result_requests(daemon)
        assert client.result_text(spec.job_id) == first
        assert _result_requests(daemon) == before + 1

    def test_a_later_submit_replaces_it(self, served):
        daemon, client = served
        first, second = SPECS[3], SPECS[4]
        _submit(client, first)
        _submit(client, second)
        before = _result_requests(daemon)
        text = client.result_text(first.job_id)
        assert _result_requests(daemon) == before + 1
        # the slot still holds the second job's text, for that id only
        second_text = client.result_text(second.job_id)
        assert _result_requests(daemon) == before + 1
        assert text == _raw_result(daemon.port, first.job_id)
        assert second_text == _raw_result(daemon.port, second.job_id)

    def test_threads_sharing_a_client_get_their_own_jobs(self, served):
        daemon, client = served
        expected = {spec.job_id: _raw_result(daemon.port, spec.job_id) for spec in SPECS}
        wrong = []

        def hammer(offset: int) -> None:
            for index in range(60):
                spec = SPECS[(index + offset) % HELD]
                _submit(client, spec)
                if client.result_text(spec.job_id) != expected[spec.job_id]:
                    wrong.append(spec.job_id)

        threads = [threading.Thread(target=hammer, args=(k,)) for k in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)
        assert not wrong

    def test_raw_acks(self, served):
        daemon, _ = served
        spec = SPECS[0]
        body = {"eid": spec.eid, "point_index": spec.point_index, "quick": spec.quick,
                "seed": spec.seed, "replicate": spec.replicate}
        status, raw = _raw(daemon.port, "POST", "/api/v1/jobs", body)
        ack = json.loads(raw)
        assert status == 200 and ack["status"] == "done"
        assert ack["payload"] == _raw_result(daemon.port, spec.job_id)

        fresh = dict(body, replicate=HELD + 1)
        status, raw = _raw(daemon.port, "POST", "/api/v1/jobs", fresh)
        ack = json.loads(raw)
        assert status == 200 and ack["status"] == "queued"
        assert "payload" not in ack

    def test_a_done_ack_without_text_falls_back_to_a_get(self, served, monkeypatch):
        daemon, client = served
        spec = SPECS[5]
        # The racing-duplicate branch: the lookup misses, then the admit
        # finds the job already done and there is no text in hand.
        monkeypatch.setattr(daemon.cache, "lookup", lambda job_id: None)
        ack = _submit(client, spec)
        assert ack == {"job_id": spec.job_id, "status": "done", "cached": True}
        before = _result_requests(daemon)
        assert client.result_text(spec.job_id) == _raw_result(daemon.port, spec.job_id)
        assert _result_requests(daemon) == before + 2  # the client's GET + the raw one


class TestServeSubmitCli:
    def _argv(self, daemon, spec, *extra):
        return ["submit", spec.eid, "--port", str(daemon.port),
                "--point-index", str(spec.point_index), "--quick",
                "--seed", str(spec.seed), "--replicate", str(spec.replicate), *extra]

    def test_wait_prints_the_stored_bytes_without_a_result_request(self, served, capsys):
        daemon, _ = served
        spec = SPECS[4]
        before = _result_requests(daemon)
        assert serve_main(self._argv(daemon, spec, "--wait")) == 0
        assert _result_requests(daemon) == before
        assert capsys.readouterr().out == _raw_result(daemon.port, spec.job_id)

    def test_without_wait_prints_the_ack(self, served, capsys):
        daemon, _ = served
        spec = SPECS[4]
        assert serve_main(self._argv(daemon, spec)) == 0
        ack = json.loads(capsys.readouterr().out)
        assert ack == {"job_id": spec.job_id, "status": "done", "cached": True}
