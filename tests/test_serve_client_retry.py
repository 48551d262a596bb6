"""ServeClient auto-retry: backoff, Retry-After, and the retries=0 hatch.

All monkeypatched — no sockets, no daemon, no real sleeping — so the
retry policy itself is pinned down: which failures consume attempts,
how long each wait is, and what surfaces when the budget runs out.
"""

import json

import pytest

from repro.errors import BackpressureError, ServeError
from repro.serve import client as client_mod
from repro.serve.client import ServeClient, _Shed
from repro.serve.protocol import Response


def _response(status, payload=None, headers=None):
    raw = json.dumps(payload if payload is not None else {}).encode("utf-8")
    lowered = {k.lower(): v for k, v in (headers or {}).items()}
    return Response(status, lowered, raw, keep_alive=True)


@pytest.fixture()
def no_sleep(monkeypatch):
    slept = []
    monkeypatch.setattr(client_mod.time, "sleep", slept.append)
    return slept


def _scripted(client, outcomes):
    """Replace the transport with a canned outcome sequence."""
    remaining = list(outcomes)

    def fake_request_once(method, path, body=None):
        outcome = remaining.pop(0)
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome

    client._request_once = fake_request_once
    return remaining


class TestConnectionRetry:
    def test_transient_connection_errors_are_retried(self, no_sleep):
        client = ServeClient(retries=3, backoff_s=0.25)
        remaining = _scripted(client, [
            ConnectionRefusedError("refused"),
            ConnectionResetError("reset"),
            _response(200, {"job_id": "abc", "status": "queued"}),
        ])
        ack = client.submit("demo", point_index=0, quick=True)
        assert ack["job_id"] == "abc"
        assert remaining == []
        assert len(no_sleep) == 2  # one backoff per failed attempt

    def test_exhausted_retries_surface_a_serve_error(self, no_sleep):
        client = ServeClient(retries=2)
        _scripted(client, [ConnectionRefusedError("refused")] * 3)
        with pytest.raises(ServeError, match="after 3 attempt"):
            client.submit("demo", point_index=0, quick=True)
        assert len(no_sleep) == 2

    def test_retries_zero_fails_on_first_error(self, no_sleep):
        client = ServeClient(retries=0)
        _scripted(client, [ConnectionRefusedError("refused")])
        with pytest.raises(ServeError, match="after 1 attempt"):
            client.submit("demo", point_index=0, quick=True)
        assert no_sleep == []  # single-attempt semantics: no backoff at all

    def test_spoken_5xx_is_not_retried(self, no_sleep):
        # The daemon answered: 5xx is a definitive refusal, not transient
        # unreachability, and must come back on the first attempt.
        client = ServeClient(retries=5)
        _scripted(client, [_response(503, {"error": "breaker open"})])
        with pytest.raises(ServeError, match="breaker open"):
            client.submit("demo", point_index=0, quick=True)
        assert no_sleep == []


class TestShedRetry:
    def _shed(self, retry_after=0.5):
        payload = {"error": "queue full", "retry_after_s": retry_after}
        return _Shed(
            _response(429, payload, {"Retry-After": str(retry_after)}),
            retry_after,
        )

    def test_429_is_retried_honoring_retry_after(self, no_sleep):
        client = ServeClient(retries=3, backoff_s=0.01, backoff_cap_s=8.0)
        _scripted(client, [
            self._shed(retry_after=0.5),
            self._shed(retry_after=0.5),
            _response(200, {"job_id": "abc", "status": "queued"}),
        ])
        ack = client.submit("demo", point_index=0, quick=True)
        assert ack["status"] == "queued"
        assert len(no_sleep) == 2
        # every wait at least the daemon's estimate, never past the cap
        assert all(0.5 <= delay <= 8.0 for delay in no_sleep)

    def test_exhausted_sheds_surface_backpressure(self, no_sleep):
        client = ServeClient(retries=2, backoff_s=0.01)
        _scripted(client, [self._shed()] * 3)
        with pytest.raises(BackpressureError) as err:
            client.submit("demo", point_index=0, quick=True)
        # the final 429's Retry-After still reaches the caller
        assert err.value.retry_after_s == pytest.approx(0.5)
        assert len(no_sleep) == 2

    def test_retries_zero_restores_raw_429_contract(self, no_sleep):
        client = ServeClient(retries=0)
        _scripted(client, [self._shed()])
        with pytest.raises(BackpressureError):
            client.submit("demo", point_index=0, quick=True)
        assert no_sleep == []


class TestBackoffDelay:
    def test_delay_grows_exponentially_within_jitter(self):
        client = ServeClient(retries=3, backoff_s=1.0, backoff_cap_s=64.0)
        for attempt in range(4):
            base = 1.0 * (2.0 ** attempt)
            for _ in range(20):
                delay = client._backoff_delay(attempt)
                assert 0.5 * base <= delay <= 1.5 * base

    def test_cap_bounds_both_backoff_and_retry_after(self):
        client = ServeClient(retries=3, backoff_s=1.0, backoff_cap_s=2.0)
        # a pathological Retry-After must not park the client for minutes
        assert client._backoff_delay(10, retry_after_s=600.0) == 2.0

    def test_retry_after_raises_small_delays(self):
        client = ServeClient(retries=3, backoff_s=0.001, backoff_cap_s=8.0)
        assert client._backoff_delay(0, retry_after_s=3.0) == pytest.approx(3.0)

    def test_jitter_is_deterministic_per_client_id(self):
        a1 = ServeClient(client_id="alpha")._backoff_delay(0)
        a2 = ServeClient(client_id="alpha")._backoff_delay(0)
        assert a1 == a2

    def test_negative_retries_refused(self):
        with pytest.raises(ServeError, match="retries"):
            ServeClient(retries=-1)
        with pytest.raises(ServeError, match="backoff"):
            ServeClient(backoff_s=-0.1)


class TestWaitPolling:
    def test_poll_interval_doubles_up_to_the_cap(self, monkeypatch):
        intervals = []
        monkeypatch.setattr(client_mod.time, "sleep", intervals.append)
        monkeypatch.setattr(client_mod.time, "monotonic", lambda: 0.0)
        client = ServeClient()
        states = (["running"] * 7) + ["done"]
        monkeypatch.setattr(
            client, "status",
            lambda job_id: {"status": states.pop(0), "attempts": 1},
        )
        final = client.wait("abc", timeout_s=300.0, poll_s=0.1, poll_cap_s=2.0)
        assert final["status"] == "done"
        assert intervals == [0.1, 0.2, 0.4, 0.8, 1.6, 2.0, 2.0]

    def test_failed_job_raises_with_its_error(self, monkeypatch):
        monkeypatch.setattr(client_mod.time, "sleep", lambda s: None)
        client = ServeClient()
        monkeypatch.setattr(
            client, "status",
            lambda job_id: {"status": "failed", "attempts": 3,
                            "error": "kernel exploded"},
        )
        with pytest.raises(ServeError, match="kernel exploded"):
            client.wait("abc")

    def test_timeout_raises(self, monkeypatch):
        clock = iter([0.0, 0.0, 10.0, 10.0, 20.0, 20.0])
        monkeypatch.setattr(client_mod.time, "sleep", lambda s: None)
        monkeypatch.setattr(
            client_mod.time, "monotonic", lambda: next(clock)
        )
        client = ServeClient()
        monkeypatch.setattr(
            client, "status", lambda job_id: {"status": "running"}
        )
        with pytest.raises(ServeError, match="still running"):
            client.wait("abc", timeout_s=5.0)
