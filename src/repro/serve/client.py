"""``ServeClient`` — the programmatic face of the serve daemon.

A thin, dependency-free synchronous client over plain sockets, speaking
the wire subset :mod:`repro.serve.protocol` defines for both ends.
Submissions are plain keyword arguments; the client never computes job
hashes itself — identity is the daemon's business — but it does surface
the daemon's backpressure contract as typed exceptions:

* :class:`repro.errors.BackpressureError` on ``429`` (carries the
  daemon's ``Retry-After`` estimate);
* :class:`repro.errors.ServeError` on any other non-2xx answer or
  transport failure (carries the HTTP status).

Transient failures — a dropped connection (the daemon restarting, a
chaos-injected crash before the ack) or a ``429`` shed — are retried
automatically with capped exponential backoff plus jitter, honoring the
daemon's ``Retry-After`` estimate.  Every request is idempotent (job
identity is the content hash, so a resubmission joins rather than
duplicates), which is what makes blanket retry safe.  ``retries=0`` is
the escape hatch restoring single-attempt semantics.

``wait()`` polls status until the job completes (exponential poll
interval, capped); ``submit_and_wait()`` is the one-call happy path the
CLI and the smoke script use.

A cache hit is one round trip: the daemon's ``done`` acknowledgement
carries the stored text as ``payload``, ``submit`` keeps it in a one-job
slot (and takes it out of the ack it returns), and the next
``result_text`` of that job id answers from the slot instead of a GET.
The text of a ``done`` job never changes, so a slot can be consumed late
or by another thread and still be the daemon's bytes for that id.

Transport: connections are kept alive and pooled per ``(host, port)``
target, so a submit/poll/result sequence rides one TCP handshake, and
``307`` redirects from a cluster's non-owner nodes are followed
transparently (same method and body, bounded hop count) — the client
ends up holding one pooled socket per ring node it has spoken to.
"""

from __future__ import annotations

import json
import socket
import threading
import time
import urllib.parse
from typing import Any, Dict, Optional, Tuple

from ..errors import BackpressureError, FramingError, ServeError
from ..util import Rng, derive_seed
from .protocol import (
    API_PREFIX,
    PROTOCOL_VERSION,
    Response,
    parse_response,
    render_request,
)

__all__ = ["Connection", "ServeClient"]

#: 307 hops followed per logical request before giving up (a routing loop
#: in the cluster would otherwise bounce a submission forever)
MAX_REDIRECTS = 4

Target = Tuple[str, int]


class Connection:
    """One TCP connection to a daemon, carrying one exchange at a time.

    ``exchange`` is one ``sendall`` of head and body, then ``recv`` until
    :func:`parse_response` has a whole message — bounded by the head
    limit, then by ``Content-Length`` (or the peer's close when there is
    none); every send and receive is bounded by ``timeout_s``.  Any
    failure is an ``OSError``: a timeout, a connection closed
    mid-response, or a response outside the wire subset (malformed head,
    ``Transfer-Encoding``) — what arrived cannot be trusted, so it is a
    transport failure, not an answer.  After one, or an answer with
    ``keep_alive`` False, the connection is spent and must be closed.
    """

    __slots__ = ("_sock",)

    def __init__(self, target: Target, timeout_s: float) -> None:
        self._sock = socket.create_connection(target, timeout=timeout_s)
        # one request is one segment; never hold it back for an earlier ACK
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def exchange(self, request: bytes) -> Response:
        sock = self._sock
        sock.sendall(request)
        buffer = bytearray()
        while True:
            chunk = sock.recv(65536)
            buffer += chunk
            try:
                response = parse_response(buffer, eof=not chunk)
            except FramingError as exc:
                raise ConnectionError(f"unusable response: {exc}") from exc
            if response is not None:
                return response
            if not chunk:
                raise ConnectionResetError(
                    "connection closed mid-response" if buffer
                    else "connection closed without a response"
                )

    def close(self) -> None:
        self._sock.close()

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ServeClient:
    """Talk to one serve daemon.

    Args:
        host: daemon host.
        port: daemon port.
        client_id: fairness identity — the daemon round-robins across
            client ids, so share one id per logical tenant.
        timeout_s: per-request socket timeout.
        retries: extra attempts after a transient failure (connection
            error or 429 shed).  0 restores single-attempt semantics —
            each 429 then raises :class:`BackpressureError` immediately.
        backoff_s: base retry delay; attempt ``n`` waits about
            ``backoff_s * 2**n``, jittered to half–1.5× so a burst of
            rejected clients does not retry in lockstep.
        backoff_cap_s: ceiling on any single retry delay (also caps an
            honored ``Retry-After``, so a pathological estimate cannot
            park the client for minutes).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8421,
        client_id: str = "anon",
        timeout_s: float = 30.0,
        retries: int = 3,
        backoff_s: float = 0.25,
        backoff_cap_s: float = 8.0,
    ) -> None:
        if retries < 0:
            raise ServeError(f"retries must be >= 0, got {retries}")
        if backoff_s < 0 or backoff_cap_s < 0:
            raise ServeError("backoff delays must be >= 0")
        self.host = host
        self.port = port
        self.client_id = client_id
        self.timeout_s = timeout_s
        self.retries = retries
        self.backoff_s = backoff_s
        self.backoff_cap_s = backoff_cap_s
        # Seeded per client id: deterministic for tests, decorrelated
        # across the tenants that matter for the thundering-herd case.
        self._rng = Rng(derive_seed(0, "serve-client", client_id), "backoff")
        # Keep-alive pool: one cached connection per (host, port) target,
        # checked out under the lock so a multi-threaded caller never
        # shares a socket mid-request.  Redirect targets get their own
        # pooled connection, so a cluster client holds one socket per
        # node it has talked to.
        self._pool_lock = threading.Lock()
        self._pool: Dict[Target, Connection] = {}
        #: sockets actually opened (tests assert reuse keeps this at 1)
        self.connections_opened = 0
        #: 307/308 redirects transparently followed
        self.redirects_followed = 0
        #: ``(job_id, stored text)`` from the last cached submit, or None
        self._handoff: Optional[Tuple[str, str]] = None

    # -- submissions ----------------------------------------------------
    def submit(
        self,
        eid: str,
        point_index: Optional[int] = None,
        point: Any = None,
        quick: bool = False,
        seed: Optional[int] = None,
        replicate: int = 0,
    ) -> Dict[str, Any]:
        """Submit one job; returns the daemon's acknowledgement.

        The acknowledgement carries ``job_id`` (the content hash),
        ``status`` (``done`` for a cache hit, else ``queued``) and
        ``cached``.  The stored text a cache hit's ack carries is kept
        for the next :meth:`result_text` of that id, not returned.
        Raises :class:`BackpressureError` when the daemon sheds load.
        """
        body: Dict[str, Any] = {
            "v": PROTOCOL_VERSION,
            "eid": eid,
            "quick": quick,
            "replicate": replicate,
            "client": self.client_id,
        }
        if point_index is not None:
            body["point_index"] = point_index
        if point is not None:
            body["point"] = point
        if seed is not None:
            body["seed"] = seed
        status, payload, headers = self._request("POST", f"{API_PREFIX}/jobs", body)
        if status == 429:
            retry_after = float(
                payload.get("retry_after_s", headers.get("retry-after", 1))
            )
            raise BackpressureError(
                payload.get("error", "queue full"), retry_after_s=retry_after
            )
        self._raise_unless_ok(status, payload)
        text = payload.pop("payload", None)
        self._handoff = (payload["job_id"], text) if isinstance(text, str) else None
        return payload

    def status(self, job_id: str) -> Dict[str, Any]:
        status, payload, _ = self._request("GET", f"{API_PREFIX}/jobs/{job_id}")
        self._raise_unless_ok(status, payload)
        return payload

    def result_text(self, job_id: str) -> str:
        """The job's payload as verbatim text (byte-identical contract).

        Answered from the last cached submit's text when it is this job's
        (once), else fetched from the daemon.
        """
        handoff = self._handoff
        if handoff is not None and handoff[0] == job_id:
            self._handoff = None
            return handoff[1]
        response = self._request_raw("GET", f"{API_PREFIX}/jobs/{job_id}/result")
        if response.status != 200:
            payload = _parse_json(response.body)
            raise ServeError(
                payload.get("error", f"result fetch failed ({response.status})"),
                status=response.status,
            )
        return response.body.decode("utf-8")

    def result(self, job_id: str) -> Dict[str, Any]:
        return json.loads(self.result_text(job_id))

    def wait(
        self,
        job_id: str,
        timeout_s: float = 300.0,
        poll_s: float = 0.1,
        poll_cap_s: float = 2.0,
    ) -> Dict[str, Any]:
        """Poll until the job is ``done``; returns its final status.

        The poll interval starts at ``poll_s`` and doubles up to
        ``poll_cap_s``: short jobs are noticed within ~100 ms, long jobs
        cost a couple of status requests per second of runtime instead of
        ten.  Raises :class:`ServeError` when the job fails or the wait
        times out (host wall clock: this module is on the serve allowlist).
        """
        deadline = time.monotonic() + timeout_s
        interval = poll_s
        while True:
            state = self.status(job_id)
            if state["status"] == "done":
                return state
            if state["status"] == "failed":
                raise ServeError(
                    f"job {job_id} failed after {state['attempts']} attempt(s): "
                    f"{state.get('error')}",
                    status=200,
                )
            if time.monotonic() > deadline:
                raise ServeError(
                    f"job {job_id} still {state['status']} after {timeout_s}s"
                )
            time.sleep(interval)
            interval = min(poll_cap_s, interval * 2.0)

    def submit_and_wait(
        self, eid: str, timeout_s: float = 300.0, **kwargs: Any
    ) -> Dict[str, Any]:
        """Submit, wait, and fetch the result payload in one call."""
        ack = self.submit(eid, **kwargs)
        if ack["status"] != "done":
            self.wait(ack["job_id"], timeout_s=timeout_s)
        return self.result(ack["job_id"])

    # -- daemon introspection -------------------------------------------
    def catalog(self) -> Dict[str, Any]:
        status, payload, _ = self._request("GET", f"{API_PREFIX}/catalog")
        self._raise_unless_ok(status, payload)
        return payload

    def health(self) -> Dict[str, Any]:
        status, payload, _ = self._request("GET", "/healthz")
        self._raise_unless_ok(status, payload)
        return payload

    def metrics_text(self) -> str:
        response = self._request_raw("GET", "/metrics")
        if response.status != 200:
            raise ServeError(
                f"metrics fetch failed ({response.status})", status=response.status
            )
        return response.body.decode("utf-8")

    def shutdown(self) -> Dict[str, Any]:
        """Ask the daemon to drain (the remote spelling of SIGTERM)."""
        status, payload, _ = self._request("POST", f"{API_PREFIX}/shutdown", {})
        self._raise_unless_ok(status, payload)
        return payload

    # -- plumbing -------------------------------------------------------
    def _request(
        self, method: str, path: str, body: Optional[dict] = None
    ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        response = self._request_raw(method, path, body)
        return response.status, _parse_json(response.body), response.headers

    def _request_raw(
        self, method: str, path: str, body: Optional[dict] = None
    ) -> Response:
        """One request with transparent transient-failure retry.

        Transport errors and ``429`` sheds consume retry attempts with
        jittered, capped exponential backoff; any other answer (including
        5xx — the daemon *spoke*, it is not transiently unreachable) is
        returned to the caller as-is.  With ``retries=0`` the first
        failure surfaces immediately.
        """
        attempt = 0
        while True:
            try:
                return self._request_once(method, path, body)
            except OSError as exc:  # refused, reset, timed out, unusable answer
                if attempt >= self.retries:
                    raise ServeError(
                        f"cannot reach serve daemon at {self.host}:{self.port} "
                        f"after {attempt + 1} attempt(s): {exc}"
                    ) from exc
                time.sleep(self._backoff_delay(attempt))
                attempt += 1
                continue
            except _Shed as shed:
                if attempt >= self.retries:
                    return shed.response
                time.sleep(self._backoff_delay(attempt, shed.retry_after_s))
                attempt += 1

    def _request_once(
        self, method: str, path: str, body: Optional[dict] = None
    ) -> Response:
        """One logical request: pooled keep-alive exchange + 307 follow.

        A ``307``/``308`` answer with a ``Location`` header (a cluster
        node redirecting to the ring owner) is followed transparently —
        same method, same body, up to :data:`MAX_REDIRECTS` hops — and
        each hop's target keeps its own pooled connection.
        """
        payload = None if body is None else json.dumps(body).encode("utf-8")
        target = (self.host, self.port)
        redirects = 0
        while True:
            response = self._exchange(target, method, path, payload)
            status = response.status
            if status in (307, 308) and redirects < MAX_REDIRECTS:
                location = response.headers.get("location")
                if location:
                    target, path = _resolve_redirect(target, location)
                    redirects += 1
                    self.redirects_followed += 1
                    continue
            if status == 429:
                try:
                    retry_after = float(response.headers.get("retry-after", 1.0))
                except ValueError:
                    retry_after = 1.0
                raise _Shed(response, retry_after)
            return response

    def _exchange(
        self, target: Target, method: str, path: str, payload: Optional[bytes]
    ) -> Response:
        """One HTTP exchange against ``target`` over a pooled connection.

        A reused keep-alive socket may have been closed server-side
        between requests (daemon drain, idle timeout); that exact failure
        retries once on a fresh connection without consuming the caller's
        transient-retry budget — a stale socket is bookkeeping, not an
        unreachable daemon.
        """
        request = render_request(method, path, f"{target[0]}:{target[1]}", payload)
        conn = self._checkout(target)
        if conn is not None:
            try:
                response = conn.exchange(request)
            except OSError:  # stale keep-alive socket: one fresh retry
                conn.close()
                conn = None
        if conn is None:
            self.connections_opened += 1
            conn = Connection(target, self.timeout_s)
            try:
                response = conn.exchange(request)
            except OSError:
                conn.close()
                raise
        if response.keep_alive:
            self._checkin(target, conn)
        else:
            conn.close()
        return response

    def _checkout(self, target: Target) -> Optional[Connection]:
        with self._pool_lock:
            return self._pool.pop(target, None)

    def _checkin(self, target: Target, conn: Connection) -> None:
        with self._pool_lock:
            parked = self._pool.setdefault(target, conn)
        if parked is not conn:  # another thread refilled the slot first
            conn.close()

    def close(self) -> None:
        """Close every pooled keep-alive connection."""
        with self._pool_lock:
            conns = list(self._pool.values())
            self._pool.clear()
        for conn in conns:
            conn.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _backoff_delay(
        self, attempt: int, retry_after_s: Optional[float] = None
    ) -> float:
        """Jittered exponential delay before retry ``attempt + 1``.

        An honored ``Retry-After`` raises the delay to at least the
        daemon's estimate; the cap bounds both, so a pathological header
        can never park the client for minutes.
        """
        delay = min(self.backoff_cap_s, self.backoff_s * (2.0 ** attempt))
        delay *= 0.5 + self._rng.random()  # jitter: half to 1.5x
        if retry_after_s is not None:
            delay = max(delay, retry_after_s)
        return min(self.backoff_cap_s, delay)

    @staticmethod
    def _raise_unless_ok(status: int, payload: Dict[str, Any]) -> None:
        if not 200 <= status < 300:
            raise ServeError(
                payload.get("error", f"request failed ({status})"), status=status
            )


class _Shed(Exception):
    """Internal: a 429 answer, carried through the retry loop.

    Never escapes :meth:`ServeClient._request_raw` — once attempts are
    exhausted the original response is returned and the caller's 429
    handling (``BackpressureError``) takes over.
    """

    def __init__(self, response: Response, retry_after_s: float) -> None:
        super().__init__("429")
        self.response = response
        self.retry_after_s = retry_after_s


def _resolve_redirect(target: Target, location: str) -> Tuple[Target, str]:
    """Turn a ``Location`` header into the next ``(host, port)`` and path.

    Absolute URLs (the cluster's cross-node form) switch targets; bare
    paths stay on the current one.
    """
    parts = urllib.parse.urlsplit(location)
    if parts.netloc:
        host = parts.hostname or target[0]
        port = parts.port or 80
        target = (host, port)
    path = parts.path or "/"
    if parts.query:
        path = f"{path}?{parts.query}"
    return target, path


def _parse_json(raw: bytes) -> Dict[str, Any]:
    try:
        parsed = json.loads(raw.decode("utf-8")) if raw else {}
    except (UnicodeDecodeError, json.JSONDecodeError):
        return {}
    return parsed if isinstance(parsed, dict) else {}
