"""The serve wire, both directions, at the byte level.

``ServeClient`` and the daemon share one definition of the HTTP/1.1
subset they speak (:mod:`repro.serve.protocol`), so neither proves the
other standard any more.  This file holds each end to the wire itself:

* raw bytes against a live daemon — every way a request can be split,
  pipelined, cut short or malformed, and the status each refusal carries;
* a scripted fake server against ``ServeClient`` — every way a response
  can arrive, and the pooling / retry / redirect / backoff contract;
* one property: any chunking of a valid request parses to the same
  ``Request``, and arbitrary bytes raise nothing but ``ConfigError``;
* the stdlib clients (``http.client``, ``urllib.request``) against the
  daemon, because nothing in ``src/`` uses them any more.
"""

import gc
import http.client
import json
import os
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import BackpressureError, ConfigError, FramingError, ServeError
from repro.serve import ServeClient, ServeConfig, ServeDaemon
from repro.serve import client as client_mod
from repro.serve.protocol import (
    MAX_BODY_BYTES,
    MAX_HEAD_BYTES,
    Request,
    parse_request,
    parse_response,
    render_request,
    render_response,
)
from repro.serve.server import _LISTENER_FDS, _HttpProtocol

#: the ``slept`` fixture replaces ``time.sleep`` itself; the fake server
#: and the tests' own pauses keep the real one
pause = time.sleep

SUBMIT = json.dumps({"eid": "demo", "point_index": 0, "quick": True, "seed": 5}).encode()


@pytest.fixture
def daemon(tmp_path):
    d = ServeDaemon(ServeConfig(port=0, db=str(tmp_path / "serve.db"), workers=1))
    d.start()
    yield d
    d.stop()


# ----------------------------------------------------------------------
# Raw bytes against a live daemon
# ----------------------------------------------------------------------
class Wire:
    """A raw client socket that reads whole responses."""

    def __init__(self, port, rcvbuf=None):
        self.sock = socket.socket()
        if rcvbuf:
            self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
        self.sock.settimeout(10.0)
        self.sock.connect(("127.0.0.1", port))
        self.buffer = bytearray()

    def send(self, data):
        self.sock.sendall(data)

    def half_close(self):
        self.sock.shutdown(socket.SHUT_WR)

    def response(self):
        """The next response, or None when the daemon closed instead."""
        while True:
            response = parse_response(self.buffer)
            if response is not None:
                # a Content-Length answer: find where it ended
                head = self.buffer.index(b"\r\n\r\n") + 4
                del self.buffer[: head + len(response.body)]
                return response
            chunk = self.sock.recv(65536)
            if not chunk:
                assert not self.buffer, f"daemon closed mid-response: {bytes(self.buffer)!r}"
                return None
            self.buffer += chunk

    def closed(self):
        """True when the daemon's next move is to close the connection."""
        return self.response() is None

    def close(self):
        self.sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _get(path, extra=b""):
    return b"GET " + path.encode() + b" HTTP/1.1\r\nHost: t\r\n" + extra + b"\r\n"


REFUSED = [
    # (name, bytes sent, half-close after?, status)
    ("header-without-colon", b"GET /healthz HTTP/1.1\r\nHost t\r\n\r\n", False, 400),
    ("bad-request-line", b"GET /healthz\r\n\r\n", False, 400),
    ("not-http", b"GET /healthz FTP/1.1\r\n\r\n", False, 400),
    ("non-integer-length", _get("/healthz", b"Content-Length: ten\r\n"), False, 400),
    ("negative-length", _get("/healthz", b"Content-Length: -1\r\n"), False, 400),
    ("signed-length", _get("/healthz", b"Content-Length: +1\r\n"), False, 400),
    ("chunked", _get("/healthz", b"Transfer-Encoding: chunked\r\n"), False, 400),
    ("eof-mid-head", b"GET /healthz HTTP/1.1\r\nHost: t\r\n", True, 400),
    ("eof-mid-body", b"POST /api/v1/jobs HTTP/1.1\r\nContent-Length: 50\r\n\r\n{\"eid\":",
     True, 400),
    ("oversize-body",
     b"POST /api/v1/jobs HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % (MAX_BODY_BYTES + 1),
     False, 413),
    ("oversize-head", b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * (MAX_HEAD_BYTES + 1),
     False, 431),
    ("oversize-complete-head",
     _get("/healthz", b"X-Pad: " + b"a" * (MAX_HEAD_BYTES + 1) + b"\r\n"), False, 431),
]


class TestDaemonWire:
    @pytest.mark.parametrize("name,data,half_close,status", REFUSED,
                             ids=[case[0] for case in REFUSED])
    def test_refusals_carry_their_status_and_close(self, daemon, name, data,
                                                   half_close, status):
        with Wire(daemon.port) as wire:
            wire.send(data)
            if half_close:
                wire.half_close()
            response = wire.response()
            assert response.status == status
            assert response.headers["connection"] == "close"
            assert "error" in json.loads(response.body)
            assert wire.closed()
        # and the daemon is none the worse for it
        with ServeClient(port=daemon.port) as client:
            assert client.health()["ok"] is True

    def test_request_split_at_every_byte_boundary(self, daemon):
        request = (b"POST /api/v1/jobs HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n"
                   b"Content-Length: %d\r\n\r\n" % len(SUBMIT)) + SUBMIT
        with Wire(daemon.port) as wire:
            job_ids = set()
            for cut in range(1, len(request)):
                wire.send(request[:cut])
                pause(0.0005)  # let the first part arrive on its own
                wire.send(request[cut:])
                response = wire.response()
                assert response.status == 200, (cut, response)
                job_ids.add(json.loads(response.body)["job_id"])
            assert len(job_ids) == 1  # every split was the same submission

    def test_two_pipelined_requests_in_one_segment(self, daemon):
        with Wire(daemon.port) as wire:
            wire.send(_get("/healthz") + _get("/api/v1/catalog"))
            first, second = wire.response(), wire.response()
            assert "circuit" in json.loads(first.body)
            assert "experiments" in json.loads(second.body)
            assert first.headers["connection"] == second.headers["connection"] == "keep-alive"

    def test_pipelined_requests_before_a_half_close_are_all_answered(self, daemon):
        with Wire(daemon.port) as wire:
            wire.send(_get("/healthz") * 3)
            wire.half_close()
            assert [wire.response().status for _ in range(3)] == [200, 200, 200]
            assert wire.closed()

    def test_bare_lf_head_and_leading_blank_lines(self, daemon):
        with Wire(daemon.port) as wire:
            wire.send(b"\r\n\nGET /healthz HTTP/1.1\nHost: t\n\n")
            assert wire.response().status == 200
            wire.send(b"POST /api/v1/jobs HTTP/1.1\nContent-Length: %d\n\n" % len(SUBMIT) + SUBMIT)
            assert wire.response().status == 200

    def test_connection_close_is_honoured(self, daemon):
        with Wire(daemon.port) as wire:
            wire.send(_get("/healthz", b"Connection: close\r\n") + _get("/healthz"))
            response = wire.response()
            assert response.status == 200 and response.headers["connection"] == "close"
            assert wire.closed()  # the second request is never answered

    def test_a_body_at_the_limit_is_read(self, daemon):
        body = b" " * (MAX_BODY_BYTES - len(SUBMIT)) + SUBMIT
        with Wire(daemon.port) as wire:
            wire.send(b"POST /api/v1/jobs HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % len(body))
            wire.send(body)
            assert wire.response().status == 200

    def test_a_reader_that_stops_reading_holds_bounded_memory(self, daemon):
        count = 200
        # Shrink the kernel's share of the buffering (accepted sockets
        # inherit the listener's SO_SNDBUF), so the backlog has to sit in
        # the daemon's transport — where the high-water mark bounds it.
        (listener_fd,) = _LISTENER_FDS
        with socket.socket(fileno=os.dup(listener_fd)) as listener:
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        with Wire(daemon.port, rcvbuf=4096) as wire:
            sender = threading.Thread(
                target=wire.send, args=(_get("/metrics") * count,), daemon=True
            )
            sender.start()
            pause(0.3)  # not reading: the answers pile up daemon-side
            seen = []
            done = threading.Event()

            def sample():
                for transport in daemon._transports:
                    protocol = transport.get_protocol()
                    seen.append((transport.get_write_buffer_size(), protocol._paused,
                                 len(protocol._buffer)))
                done.set()

            daemon._loop.call_soon_threadsafe(sample)
            assert done.wait(5.0)
            with ServeClient(port=daemon.port) as other:
                metrics = other.metrics_text()  # nobody else is held up
            ((unsent, paused, unparsed),) = seen
            # over the high-water mark by the one response that crossed
            # it, never by the whole backlog; and not reading meanwhile
            assert paused and 16 * 1024 < unsent <= 64 * 1024 + 2 * len(metrics)
            assert unparsed <= 256 * 1024
            responses = [wire.response() for _ in range(count)]
            sender.join(5.0)
            assert not sender.is_alive()
            assert all(r.status == 200 and b"repro_serve" in r.body for r in responses)
            wire.send(_get("/healthz"))  # and the connection is live again
            assert wire.response().status == 200


class _FakeTransport:
    """Records writes; crosses its high-water mark after ``pause_after``."""

    def __init__(self, protocol, pause_after):
        self.protocol, self.pause_after = protocol, pause_after
        self.writes, self.reading, self.closing = [], True, False

    def write(self, data):
        self.writes.append(data)
        if len(self.writes) == self.pause_after:
            self.protocol.pause_writing()

    def pause_reading(self):
        self.reading = False

    def resume_reading(self):
        self.reading = True

    def is_closing(self):
        return self.closing

    def close(self):
        self.closing = True

    def abort(self):
        self.closing = True


class TestWriteBackpressure:
    def test_parsing_stops_at_the_high_water_mark_and_resumes(self, daemon):
        protocol = _HttpProtocol(daemon)
        transport = _FakeTransport(protocol, pause_after=3)
        protocol.connection_made(transport)
        try:
            protocol.data_received(_get("/healthz") * 10)
            assert len(transport.writes) == 3 and not transport.reading
            protocol.data_received(b"")  # nothing moves while paused
            assert len(transport.writes) == 3
            protocol.resume_writing()
            assert len(transport.writes) == 10 and transport.reading
            assert all(parse_response(w).status == 200 for w in transport.writes)
        finally:
            protocol.connection_lost(None)

    def test_eof_while_paused_answers_the_backlog_then_closes(self, daemon):
        protocol = _HttpProtocol(daemon)
        transport = _FakeTransport(protocol, pause_after=1)
        protocol.connection_made(transport)
        try:
            protocol.data_received(_get("/healthz") * 2)
            assert protocol.eof_received() is True  # we close it ourselves
            assert len(transport.writes) == 1 and not transport.closing
            protocol.resume_writing()
            assert len(transport.writes) == 2 and transport.closing
        finally:
            protocol.connection_lost(None)


class TestConnectionsDoNotOutliveTheDaemon:
    @pytest.mark.filterwarnings("error")
    def test_stop_closes_every_socket_and_a_pooled_client_fails_fast(self, tmp_path):
        daemon = ServeDaemon(ServeConfig(port=0, db=str(tmp_path / "s.db"), workers=1))
        daemon.start()
        client = ServeClient(port=daemon.port, retries=0, timeout_s=30.0)
        idle, mid_request = Wire(daemon.port), Wire(daemon.port)
        try:
            assert client.health()["ok"] is True
            assert client.connections_opened == 1
            mid_request.send(b"GET /healthz HTTP/1.1\r\nHost:")
            daemon.stop()
            assert daemon._transports == set()
            assert idle.closed() and mid_request.closed()
            start = time.monotonic()
            with pytest.raises(ServeError, match="after 1 attempt"):
                client.health()
            # the pooled socket was seen closed at once (no wait for the
            # 30 s timeout), one fresh connection was tried, and that was all
            assert time.monotonic() - start < 5.0
            assert client.connections_opened == 2
        finally:
            client.close()
            idle.close()
            mid_request.close()
            daemon.stop()
        del daemon
        gc.collect()  # an unclosed socket would raise its ResourceWarning here

    def test_drain_closes_after_the_in_flight_response(self, tmp_path):
        daemon = ServeDaemon(ServeConfig(port=0, db=str(tmp_path / "s.db"), workers=1))
        daemon.start()
        try:
            with Wire(daemon.port) as wire, Wire(daemon.port) as bystander:
                wire.send(b"POST /api/v1/shutdown HTTP/1.1\r\nContent-Length: 0\r\n\r\n")
                response = wire.response()
                assert response.status == 200 and json.loads(response.body)["draining"]
                assert response.headers["connection"] == "close"
                assert wire.closed()
                assert bystander.closed()
        finally:
            daemon.stop()


# ----------------------------------------------------------------------
# A scripted fake server against ServeClient
# ----------------------------------------------------------------------
class FakeServer:
    """Accepts one connection per script; a script is a list of steps.

    Each step waits for one whole request (recorded in ``requests``),
    then sends its ``chunks`` a few milliseconds apart and, with
    ``close``, shuts the connection.  A step of ``None`` reads the request
    and never answers.
    """

    def __init__(self, *scripts):
        self.listener = socket.socket()
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(8)
        self.port = self.listener.getsockname()[1]
        self.requests = []
        self.errors = []
        self._release = threading.Event()
        self._thread = threading.Thread(target=self._run, args=(scripts,), daemon=True)
        self._thread.start()

    def _run(self, scripts):
        try:
            for script in scripts:
                conn, _ = self.listener.accept()
                with conn:
                    self._serve(conn, script)
        except Exception as exc:  # surfaced by close()
            self.errors.append(exc)

    def _serve(self, conn, script):
        conn.settimeout(10.0)
        buffer = bytearray()
        for step in script:
            request = None
            while request is None:
                request, consumed = parse_request(buffer)
                del buffer[:consumed]
                if request is None:
                    chunk = conn.recv(65536)
                    if not chunk:
                        return
                    buffer += chunk
            self.requests.append(request)
            if step is None:
                self._release.wait(10.0)
                return
            chunks, close = step
            for chunk in chunks:
                conn.sendall(chunk)
                pause(0.003)
            if close:
                return

    def close(self):
        self._release.set()
        self._thread.join(5.0)
        self.listener.close()
        assert not self.errors, self.errors

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _ok(payload, keep_alive=True, headers=None, status=200):
    body = json.dumps(payload).encode()
    return render_response(status, body, extra_headers=headers, keep_alive=keep_alive)


def _step(*chunks, close=False):
    return (list(chunks), close)


@pytest.fixture()
def slept(monkeypatch):
    delays = []
    monkeypatch.setattr(client_mod.time, "sleep", delays.append)
    return delays


class TestClientWire:
    def test_response_split_across_recvs(self):
        answer = _ok({"ok": True, "pad": "x" * 300})
        pieces = [answer[:7], answer[7:40], answer[40:answer.index(b"\r\n\r\n") + 2],
                  answer[answer.index(b"\r\n\r\n") + 2:-100], answer[-100:]]
        with FakeServer([_step(*pieces), _step(_ok({"n": 2}))]) as server:
            with ServeClient(port=server.port, retries=0) as client:
                assert client.health() == {"ok": True, "pad": "x" * 300}
                assert client.health() == {"n": 2}
                assert client.connections_opened == 1
        assert [(r.method, r.path) for r in server.requests] == [("GET", "/healthz")] * 2

    def test_no_content_length_reads_to_eof_and_does_not_pool(self):
        unframed = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n" + b'{"ok": 1}'
        with FakeServer([_step(unframed[:30], unframed[30:], close=True)],
                        [_step(_ok({"ok": 2}))]) as server:
            with ServeClient(port=server.port, retries=0) as client:
                assert client.health() == {"ok": 1}
                assert client._pool == {}
                assert client.health() == {"ok": 2}
                assert client.connections_opened == 2

    def test_connection_close_is_not_pooled(self):
        with FakeServer([_step(_ok({"ok": 1}, keep_alive=False), close=True)],
                        [_step(_ok({"ok": 2}))]) as server:
            with ServeClient(port=server.port, retries=0) as client:
                assert client.health() == {"ok": 1}
                assert client._pool == {}
                assert client.health() == {"ok": 2}
                assert client.connections_opened == 2

    def test_close_mid_body_is_a_transport_error(self):
        answer = _ok({"pad": "y" * 200})
        with FakeServer([_step(answer[:-50], close=True)]) as server:
            with ServeClient(port=server.port, retries=0) as client:
                with pytest.raises(ServeError, match="mid-response"):
                    client.health()
                assert client._pool == {}

    @pytest.mark.parametrize("answer", [
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
        b"SSH-2.0-OpenSSH_9.6\r\n\r\n",
        b"HTTP/1.1 two-hundred OK\r\nContent-Length: 2\r\n\r\n{}",
        b"HTTP/1.1 200 OK\r\nContent-Length 2\r\n\r\n{}",
        b"HTTP/1.1 200 OK\r\nContent-Length: 2x\r\n\r\n{}",
        b"HTTP/1.1 200 OK\r\nX-Pad: " + b"p" * (MAX_HEAD_BYTES + 1),
    ], ids=["chunked", "not-http", "bad-status", "no-colon", "bad-length", "endless-head"])
    def test_a_response_outside_the_subset_is_a_transport_error(self, answer):
        with FakeServer([_step(answer, close=True)]) as server:
            with ServeClient(port=server.port, retries=0) as client:
                with pytest.raises(ServeError, match="unusable response"):
                    client.health()
                assert client._pool == {}

    def test_a_transport_error_spends_the_retry_budget(self, slept):
        with FakeServer([_step(b"garbage\r\n\r\n", close=True)],
                        [_step(_ok({"ok": True}))]) as server:
            with ServeClient(port=server.port, retries=1) as client:
                assert client.health() == {"ok": True}
                assert len(slept) == 1 and client.connections_opened == 2

    def test_stale_pooled_socket_gets_one_fresh_retry_outside_the_budget(self, slept):
        with FakeServer([_step(_ok({"n": 1}))],  # keep-alive promised, then closed
                        [_step(_ok({"n": 2}))]) as server:
            with ServeClient(port=server.port, retries=0) as client:
                assert client.health() == {"n": 1}
                assert len(client._pool) == 1
                pause(0.05)  # the server's close lands
                assert client.health() == {"n": 2}  # retries=0, and still answered
                assert client.connections_opened == 2
                assert slept == []

    def test_absolute_location_307_is_followed_with_method_and_body(self):
        with FakeServer([_step(_ok({"job_id": "abc", "status": "queued"}))]) as owner:
            location = f"http://127.0.0.1:{owner.port}/api/v1/jobs"
            redirect = _ok({"redirect": location}, status=307, headers={"Location": location})
            with FakeServer([_step(redirect), _step(_ok({"ok": True}))]) as entry:
                with ServeClient(port=entry.port, client_id="r", retries=0) as client:
                    ack = client.submit("demo", point_index=0, quick=True, seed=7)
                    assert ack == {"job_id": "abc", "status": "queued"}
                    assert client.redirects_followed == 1
                    assert client.health() == {"ok": True}  # entry's socket was pooled
                    assert client.connections_opened == 2
                    assert sorted(client._pool) == sorted(
                        [("127.0.0.1", entry.port), ("127.0.0.1", owner.port)])
            first, second = entry.requests[0], owner.requests[0]
            assert (first.method, first.path) == (second.method, second.path) == (
                "POST", "/api/v1/jobs")
            assert first.body == second.body and json.loads(second.body)["seed"] == 7
            assert second.headers["host"] == f"127.0.0.1:{owner.port}"

    def test_a_redirect_loop_ends(self):
        with FakeServer([_step(_ok({}, status=307, headers={"Location": "/healthz"}))
                         for _ in range(client_mod.MAX_REDIRECTS + 1)]) as server:
            with ServeClient(port=server.port, retries=0) as client:
                with pytest.raises(ServeError) as err:
                    client.health()
                assert err.value.status == 307
                assert client.redirects_followed == client_mod.MAX_REDIRECTS

    def test_429_backs_off_honouring_retry_after(self, slept):
        shed = _ok({"error": "queue full", "retry_after_s": 3}, status=429,
                   headers={"Retry-After": "3"})
        with FakeServer([_step(shed), _step(_ok({"job_id": "j", "status": "queued"}))]) as server:
            with ServeClient(port=server.port, retries=2, backoff_s=0.01) as client:
                assert client.submit("demo", quick=True)["job_id"] == "j"
                assert client.connections_opened == 1  # a shed keeps its socket
        assert len(slept) == 1 and 3.0 <= slept[0] <= 8.0

    def test_429_without_retry_after_defaults_to_a_second(self, slept):
        shed = _ok({"error": "queue full"}, status=429)
        with FakeServer([_step(shed), _step(shed)]) as server:
            with ServeClient(port=server.port, retries=1, backoff_s=0.01) as client:
                with pytest.raises(BackpressureError) as err:
                    client.submit("demo", quick=True)
                assert err.value.retry_after_s == 1.0
        assert slept == [1.0]

    def test_socket_timeout_is_a_serve_error(self):
        with FakeServer([None]) as server:
            with ServeClient(port=server.port, retries=0, timeout_s=0.2) as client:
                start = time.monotonic()
                with pytest.raises(ServeError, match="timed out"):
                    client.health()
                assert time.monotonic() - start < 5.0

    def test_payload_bytes_are_verbatim(self):
        text = '{"b":  [1,\t2.50, "é\\u00e9"],\n "a": 1e-09 }\n\n'
        answer = render_response(200, text.encode("utf-8"), keep_alive=True)
        with FakeServer([_step(answer)]) as server:
            with ServeClient(port=server.port, retries=0) as client:
                assert client.result_text("abc") == text

    def test_one_sendall_per_request(self, monkeypatch):
        sent = []

        class Counting(socket.socket):
            def sendall(self, data, *args):
                sent.append(bytes(data))
                return super().sendall(data, *args)

        monkeypatch.setattr(client_mod.socket, "socket", Counting)
        with FakeServer([_step(_ok({"job_id": "j", "status": "queued"}))]) as server:
            with ServeClient(port=server.port, retries=0) as client:
                client.submit("demo", quick=True)
        # (the fake server's accepted socket is a Counting one too)
        sent = [data for data in sent if not data.startswith(b"HTTP/1.1 ")]
        assert len(sent) == 1  # head and body left in one segment
        request, consumed = parse_request(sent[0])
        assert consumed == len(sent[0]) and json.loads(request.body)["eid"] == "demo"


# ----------------------------------------------------------------------
# The parsers as pure functions
# ----------------------------------------------------------------------
TOKEN = st.text("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_",
                min_size=1, max_size=12)
VALUE = st.text(st.characters(min_codepoint=0x21, max_codepoint=0x7E), max_size=30)


@st.composite
def requests_and_cuts(draw):
    method = draw(st.sampled_from(["GET", "POST", "PUT", "get"]))
    path = "/" + draw(TOKEN)
    body = draw(st.one_of(st.none(), st.binary(max_size=200)))
    headers = draw(st.dictionaries(TOKEN.map(lambda t: "x-" + t.lower()), VALUE, max_size=4))
    newline = draw(st.sampled_from([b"\r\n", b"\n"]))
    lines = [f"{method} {path} HTTP/1.1".encode()]
    lines += [f"{name}: {value}".encode() for name, value in headers.items()]
    if body is not None:
        lines.append(b"Content-Length: %d" % len(body))
    wire = draw(st.sampled_from([b"", b"\r\n", b"\n\n"])) + newline.join(lines) + newline * 2
    wire += body or b""
    cuts = sorted(draw(st.lists(st.integers(0, len(wire)), max_size=8)))
    expected_headers = {name: value.strip() for name, value in headers.items()}
    if body is not None:
        expected_headers["content-length"] = str(len(body))
    return wire, cuts, Request(method.upper(), path, expected_headers, body or b"")


def _feed(chunks):
    """Parse a chunked byte stream the way the daemon does."""
    buffer, parsed = bytearray(), []
    for chunk in chunks:
        buffer += chunk
        while buffer:
            request, consumed = parse_request(buffer)
            del buffer[:consumed]
            if request is None:
                break
            parsed.append(request)
    return parsed, bytes(buffer)


class TestParsers:
    @given(requests_and_cuts(), st.integers(1, 3))
    def test_any_chunking_parses_to_the_same_requests(self, case, copies):
        wire, cuts, expected = case
        stream = wire * copies
        pieces = [stream[a:b] for a, b in zip([0] + cuts, cuts + [len(stream)])]
        parsed, left = _feed(pieces)
        assert parsed == [expected] * copies and left == b""
        assert _feed([stream]) == (parsed, b"")

    @given(st.binary(max_size=400))
    def test_arbitrary_bytes_raise_nothing_but_config_error(self, data):
        for parse in (parse_request, parse_response,
                      lambda b: parse_response(b, eof=True)):
            try:
                parse(data)
            except ConfigError as exc:
                assert isinstance(exc, FramingError) and exc.status in (400, 413, 431)

    @given(st.binary(max_size=60), st.binary(max_size=60))
    def test_bytes_around_a_valid_head_raise_nothing_but_config_error(self, before, after):
        data = before + b"GET / HTTP/1.1\r\nContent-Length: " + after + b"\r\n\r\n"
        try:
            request, consumed = parse_request(data)
        except ConfigError:
            return
        assert request is None or 0 < consumed <= len(data)

    def test_an_incomplete_request_consumes_nothing_but_blank_lines(self):
        assert parse_request(b"") == (None, 0)
        assert parse_request(b"\r\n\r\n") == (None, 4)
        assert parse_request(b"\r\nGET / HT") == (None, 2)
        assert parse_request(b"POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\n1234") == (None, 0)

    def test_request_and_response_round_trip_through_their_renderers(self):
        wire = render_request("POST", "/api/v1/jobs", "h:1", b'{"a": 1}')
        request, consumed = parse_request(wire)
        assert consumed == len(wire)
        assert request == Request("POST", "/api/v1/jobs", {
            "host": "h:1", "content-type": "application/json", "content-length": "8",
        }, b'{"a": 1}')
        assert parse_request(render_request("GET", "/healthz", "h:1"))[0] == Request(
            "GET", "/healthz", {"host": "h:1"}, b"")
        answer = render_response(429, b"{}", extra_headers={"Retry-After": "2"},
                                 keep_alive=True)
        response = parse_response(answer)
        assert (response.status, response.body, response.keep_alive) == (429, b"{}", True)
        assert response.headers["retry-after"] == "2"
        assert parse_response(answer[:-1]) is None
        assert parse_response(answer + b"x").keep_alive is False  # unsolicited bytes
        assert parse_response(render_response(200, b"{}")).keep_alive is False

    def test_an_http_1_0_answer_is_not_pooled(self):
        response = parse_response(b"HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\n{}")
        assert response.body == b"{}" and response.keep_alive is False


# ----------------------------------------------------------------------
# Standard clients still work
# ----------------------------------------------------------------------
class TestStdlibInterop:
    def test_http_client_keep_alive_submit_status_result(self, daemon):
        conn = http.client.HTTPConnection("127.0.0.1", daemon.port, timeout=10)
        try:
            conn.request("POST", "/api/v1/jobs", body=SUBMIT,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            ack = json.loads(response.read())
            assert response.status == 200 and not response.will_close
            job_id = ack["job_id"]
            deadline = time.monotonic() + 60
            while True:
                conn.request("GET", f"/api/v1/jobs/{job_id}")
                state = json.loads(conn.getresponse().read())
                if state["status"] == "done" or time.monotonic() > deadline:
                    break
                pause(0.05)
            assert state["status"] == "done"
            conn.request("GET", f"/api/v1/jobs/{job_id}/result")
            response = conn.getresponse()
            raw = response.read()
            assert response.status == 200
            assert response.getheader("Content-Type") == "application/json"
        finally:
            conn.close()
        with ServeClient(port=daemon.port) as client:
            assert client.result_text(job_id).encode("utf-8") == raw
            assert client.connections_opened == 1

    def test_urllib_reads_healthz_metrics_and_errors(self, daemon):
        base = f"http://127.0.0.1:{daemon.port}"
        with urllib.request.urlopen(f"{base}/healthz", timeout=10) as response:
            assert response.status == 200 and json.loads(response.read())["ok"] is True
        with urllib.request.urlopen(f"{base}/metrics", timeout=10) as response:
            assert response.headers["Content-Type"].startswith("text/plain")
            assert b"repro_serve_requests_total" in response.read()
        request = urllib.request.Request(
            f"{base}/api/v1/jobs", data=b'{"eid": "nope"}', method="POST")
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10)
        assert err.value.code == 400 and "error" in json.loads(err.value.read())
