"""The simulation-as-a-service daemon: asyncio HTTP frontier + lifecycle.

``ServeDaemon`` wires the serve components together and owns their
lifecycle:

* the asyncio HTTP frontier (this module) answers submissions, status
  and result queries, the experiment catalog, ``/metrics`` and
  ``/healthz`` — it never simulates and never blocks on a job;
* the :class:`~repro.serve.scheduler.Scheduler` thread drains the
  :class:`~repro.serve.queuein.AdmissionQueue` onto the campaign
  :class:`~repro.campaign.pool.WorkerPool`;
* the :class:`~repro.serve.cache.ResultCache` answers repeats
  byte-identically with zero recomputation.

Endpoints (all JSON unless noted)::

    POST /api/v1/jobs          submit one canonicalized job
    GET  /api/v1/jobs/<id>     lifecycle status + provenance
    GET  /api/v1/jobs/<id>/result   the cached payload, verbatim bytes
    GET  /api/v1/catalog       the experiment registry (service catalog)
    GET  /healthz              liveness + drain state
    GET  /metrics              Prometheus text format
    POST /api/v1/shutdown      graceful drain (same path as SIGTERM)

Backpressure contract: a full admission queue answers ``429`` with a
``Retry-After`` header estimated from observed service times; while
draining every submission answers ``503``.  Accepted jobs are durable
(a ``pending`` row commits before the submission is acknowledged), so a
SIGTERM between acceptance and execution never loses work — the next
daemon on the same database resumes it.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import threading
from dataclasses import dataclass
from typing import Any, Dict, Optional, Set, Tuple

from ..campaign.spec import REGISTRY
from ..errors import ChaosCrash, ConfigError, FramingError, ServeError
from .cache import FillFn, ResultCache
from .metrics import PREFIX, Metrics
from .protocol import (
    API_PREFIX,
    PROTOCOL_VERSION,
    Request,
    canonicalize_submission,
    parse_request,
    render_response,
)
from .queuein import AdmissionQueue, QueueFull, QueuedJob
from .scheduler import Scheduler

__all__ = ["ServeConfig", "ServeDaemon"]

#: chaos-injection shim (see :mod:`repro.chaos.inject`): when armed, called
#: with the crash-point name at ``serve.submit.before-ack`` — after the
#: pending row is durable and the job queued, before the 200 is written.
#: ``None`` (the default) costs one identity check — the frontier never
#: imports chaos.
CHAOS_CRASH_HOOK = None

#: live listening-socket fds, closed in forked children.  Workers forked
#: while a daemon serves inherit its server socket; a worker that outlives
#: the daemon would then hold the port at the OS level (EADDRINUSE on a
#: same-port restart — the cluster audit's kill/restart hits exactly this).
_LISTENER_FDS: Set[int] = set()


def _close_inherited_listeners() -> None:  # pragma: no cover - forked child
    for fd in list(_LISTENER_FDS):
        try:
            os.close(fd)
        except OSError:  # simlint: allow[swallowed-exception]
            pass  # already closed; nothing a worker could do anyway
    _LISTENER_FDS.clear()


os.register_at_fork(after_in_child=_close_inherited_listeners)


@dataclass(frozen=True)
class ServeConfig:
    """Everything a daemon instance needs to start."""

    host: str = "127.0.0.1"
    port: int = 0  # 0: pick a free port (the daemon reports it)
    db: str = "serve.db"
    workers: int = 2
    max_queue: int = 64
    batch_max: int = 8
    retries: int = 0
    timeout: Optional[float] = None
    checkpoint_dir: Optional[str] = None
    checkpoint_every: int = 256
    lru_size: int = 256
    start_method: Optional[str] = None
    #: fallback Retry-After before any service time has been observed (s)
    retry_after_floor_s: float = 2.0
    #: consecutive infrastructure failures that trip the dispatch breaker
    breaker_threshold: int = 5
    #: seconds the tripped breaker refuses work before a half-open probe
    breaker_cooldown_s: float = 10.0


class ServeDaemon:
    """One serve instance: start, serve, drain.

    Embeddable: ``start()`` runs the asyncio loop on a background thread
    and returns once the socket is bound (``daemon.port`` is then real),
    which is how the tests and the smoke script drive it.  The CLI calls
    ``run_forever()`` instead, which installs SIGTERM/SIGINT handlers and
    blocks until a signal (or ``POST /api/v1/shutdown``) drains it.
    """

    def __init__(self, config: ServeConfig, fill: Optional[FillFn] = None) -> None:
        self.config = config
        self.metrics = Metrics()
        # ``fill`` is the cluster node's peer probe behind cache misses.
        self.cache = ResultCache(config.db, lru_size=config.lru_size, fill=fill)
        self.queue = AdmissionQueue(max_depth=config.max_queue)
        self.scheduler = Scheduler(
            queue=self.queue,
            cache=self.cache,
            metrics=self.metrics,
            workers=config.workers,
            batch_max=config.batch_max,
            retries=config.retries,
            timeout=config.timeout,
            checkpoint_dir=config.checkpoint_dir,
            checkpoint_every=config.checkpoint_every,
            start_method=config.start_method,
            breaker_threshold=config.breaker_threshold,
            breaker_cooldown_s=config.breaker_cooldown_s,
        )
        self.port: Optional[int] = None
        self._draining = threading.Event()
        self._stopped = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._loop_done: Optional[asyncio.Event] = None
        self._thread: Optional[threading.Thread] = None
        #: open client transports (touched on the loop thread only)
        self._transports: Set[asyncio.Transport] = set()
        self.metrics.register_gauge(
            f"{PREFIX}_queue_depth",
            "Jobs admitted and waiting for dispatch.",
            lambda: float(self.queue.depth),
        )

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        """Bind, recover interrupted work, and serve on a background thread."""
        if self._thread is not None:
            raise ConfigError("daemon already started")
        self._recover()
        self.scheduler.start()
        bound = threading.Event()
        failure: Dict[str, BaseException] = {}
        self._thread = threading.Thread(
            target=self._run_loop,
            args=(bound, failure),
            name="repro-serve-http",
            daemon=True,
        )
        self._thread.start()
        bound_ok = bound.wait(timeout=10.0)
        if not bound_ok or "error" in failure:
            # Don't leave a started scheduler thread behind a dead bind.
            self.scheduler.stop()
            if not bound_ok:
                raise ServeError("daemon failed to bind within 10s")
            raise ServeError(f"daemon failed to start: {failure['error']}")

    def run_forever(self) -> int:
        """CLI mode: serve until SIGTERM/SIGINT, then drain gracefully."""
        signal.signal(signal.SIGTERM, lambda *_: self.begin_drain())
        signal.signal(signal.SIGINT, lambda *_: self.begin_drain())
        if self._thread is None:
            self.start()
        self._stopped.wait()
        return 0

    def begin_drain(self) -> None:
        """Refuse new work and stop the daemon (signal-handler safe)."""
        self._draining.set()
        # The actual teardown must not run on the signal frame; hand it to
        # a plain thread so HTTP responses in flight can still complete.
        threading.Thread(target=self.stop, name="repro-serve-drain", daemon=True).start()

    def stop(self) -> None:
        """Drain: stop intake, stop the scheduler (checkpoints flush,
        interrupted jobs return to ``pending``), stop the loop."""
        if self._stopped.is_set():
            return
        self._draining.set()
        self.scheduler.stop()
        loop, done = self._loop, self._loop_done
        if loop is not None and done is not None:
            try:
                loop.call_soon_threadsafe(done.set)
            except RuntimeError:  # simlint: allow[swallowed-exception]
                pass  # loop already closed (startup failure path)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self.cache.close()
        self._stopped.set()

    def _recover(self) -> None:
        """Re-admit every accepted-but-unfinished job from the store."""
        specs, reclaimed = self.cache.recover()
        for spec in specs:
            try:
                self.queue.offer(QueuedJob(spec=spec, client="recovered"))
            except QueueFull:
                # Deeper backlogs than the queue bound stay pending in the
                # store; the scheduler re-admits them as capacity frees up
                # via subsequent recover passes on restart.  Record it.
                self.metrics.inc(
                    f"{PREFIX}_recovery_overflow_total",
                    "Recovered jobs that exceeded the queue bound at startup.",
                )
                break
        if specs:
            self.metrics.inc(
                f"{PREFIX}_recovered_jobs_total",
                "Accepted jobs re-admitted after a restart.",
                amount=float(len(specs)),
            )
        if reclaimed:
            self.metrics.inc(
                f"{PREFIX}_reclaimed_running_total",
                "Jobs a previous daemon left running (drained or killed).",
                amount=float(reclaimed),
            )

    # -- asyncio plumbing ----------------------------------------------
    def _run_loop(self, bound: threading.Event, failure: Dict[str, BaseException]) -> None:
        try:
            asyncio.run(self._serve(bound))
        except BaseException as exc:  # surfaced to start() via `failure`
            failure["error"] = exc
            bound.set()
        finally:
            self._stopped.set()

    async def _serve(self, bound: threading.Event) -> None:
        self._loop = loop = asyncio.get_running_loop()
        self._loop_done = asyncio.Event()
        server = await loop.create_server(
            lambda: _HttpProtocol(self), host=self.config.host, port=self.config.port
        )
        self.port = server.sockets[0].getsockname()[1]
        listener_fd = server.sockets[0].fileno()
        _LISTENER_FDS.add(listener_fd)
        bound.set()
        try:
            async with server:
                await self._loop_done.wait()
        finally:
            _LISTENER_FDS.discard(listener_fd)
            await self._close_connections()

    async def _close_connections(self, grace_s: float = 1.0) -> None:
        """Close every open connection before the loop goes away.

        ``close()`` flushes a response still in the transport's buffer;
        a peer that will not take it within ``grace_s`` is aborted, so no
        socket outlives the daemon (a client parked on one would wait out
        its whole timeout instead of seeing the close at once).
        """
        loop = asyncio.get_running_loop()
        for transport in list(self._transports):
            transport.close()
        deadline = loop.time() + grace_s
        while self._transports and loop.time() < deadline:
            await asyncio.sleep(0.005)
        for transport in list(self._transports):
            transport.abort()
        await asyncio.sleep(0)  # lets the aborted transports' close callbacks run

    def _respond(self, request: Request) -> Tuple[bytes, bool]:
        """Route one request; returns (response bytes, keep the connection)."""
        status, payload, raw, headers = self._route(request)
        keep_alive = (
            request.headers.get("connection", "").lower() != "close"
            and not self._draining.is_set()
        )
        if raw is None:
            return _json_response(status, payload, headers, keep_alive=keep_alive), keep_alive
        body, content_type = raw
        return render_response(
            status, body, content_type, extra_headers=headers, keep_alive=keep_alive
        ), keep_alive

    # -- routing --------------------------------------------------------
    def _route(
        self, request: Request
    ) -> Tuple[int, Any, Optional[Tuple[bytes, str]], Optional[Dict[str, str]]]:
        """Dispatch one request; returns (status, json, raw-body, headers)."""
        method, path = request.method, request.path.rstrip("/")
        path = path or "/"
        self.metrics.inc(
            f"{PREFIX}_requests_total",
            "HTTP requests, by endpoint.",
            endpoint=_endpoint_label(method, path),
        )
        try:
            if method == "GET" and path == "/healthz":
                body = {
                    "ok": True,
                    "draining": self._draining.is_set(),
                    "protocol": PROTOCOL_VERSION,
                    "circuit": self.scheduler.breaker.describe(),
                    "scheduler_crashed": self.scheduler.crashed,
                }
                body.update(self._healthz_extra())
                return 200, body, None, None
            if method == "GET" and path == "/metrics":
                body = self.metrics.render_prometheus().encode("utf-8")
                return 200, None, (body, "text/plain; version=0.0.4"), None
            if method == "GET" and path == f"{API_PREFIX}/catalog":
                return 200, self._catalog(), None, None
            if method == "POST" and path == f"{API_PREFIX}/jobs":
                return self._submit(request)
            if method == "GET" and path.startswith(f"{API_PREFIX}/jobs/"):
                tail = path[len(f"{API_PREFIX}/jobs/"):]
                if tail.endswith("/result"):
                    return self._result(tail[: -len("/result")])
                if "/" not in tail:
                    return self._status(tail)
            if method == "POST" and path == f"{API_PREFIX}/shutdown":
                self.begin_drain()
                return 200, {"ok": True, "draining": True}, None, None
            extra = self._route_extra(request, method, path)
            if extra is not None:
                return extra
            return 404, {"error": f"no route for {method} {path}"}, None, None
        except ConfigError as exc:
            return 400, {"error": str(exc)}, None, None

    # -- cluster extension hooks ----------------------------------------
    def _route_extra(self, request: Request, method: str, path: str):
        """Subclass hook: extra routes consulted before the 404.

        Returns a ``_route``-shaped tuple, or None when the path is not
        handled.  The single-node daemon serves nothing extra.
        """
        return None

    def _healthz_extra(self) -> Dict[str, Any]:
        """Subclass hook: extra ``/healthz`` fields (cluster ring state)."""
        return {}

    def _redirect_for(self, spec):
        """Subclass hook: route a cache-missed submission elsewhere.

        Called after the cache lookup missed and before the job is
        admitted locally.  A cluster node answers a 307 to the ring
        owner here; the single-node daemon always executes locally.
        Returns a ``_route``-shaped tuple, or None to admit locally.
        """
        del spec
        return None

    def _lookup_redirect(self, job_id: str, suffix: str = ""):
        """Subclass hook: route a status/result miss elsewhere.

        Called when ``GET /jobs/<id>`` (or ``.../result``) finds no local
        row.  A cluster node answers a 307 to the ring owner so pollers
        can follow an in-flight job that was redirected at submit time;
        the single-node daemon keeps the plain 404.
        """
        del job_id, suffix
        return None

    # -- endpoint bodies -------------------------------------------------
    def _submit(self, request: Request):
        if self._draining.is_set():
            return 503, {"error": "daemon is draining; resubmit to the next instance"}, None, None
        breaker = self.scheduler.breaker
        if breaker.blocked:
            # Accepting work the dispatch path cannot durably finish would
            # only grow an unservable backlog; refuse until the cooldown
            # lets a probe through.
            retry_after = max(1, round(breaker.retry_after_s()))
            self.metrics.inc(
                f"{PREFIX}_breaker_rejections_total",
                "Submissions refused with 503 while the breaker was open.",
            )
            return 503, {
                "error": "dispatch circuit breaker is open "
                "(infrastructure failures); retry later",
                "circuit": breaker.describe(),
                "retry_after_s": retry_after,
            }, None, {"Retry-After": str(retry_after)}
        spec, client = canonicalize_submission(request.json())
        job_id = spec.job_id
        cached = self.cache.lookup(job_id)
        if cached is not None:
            self.metrics.inc(
                f"{PREFIX}_cache_hits_total",
                "Submissions answered from the content-addressed cache.",
            )
            # The stored text rides the ack (same field as the peer-fill
            # wire), so a client needs no second round trip for it.
            return 200, {
                "job_id": job_id,
                "status": "done",
                "cached": True,
                "payload": cached,
            }, None, None
        self.metrics.inc(
            f"{PREFIX}_cache_misses_total",
            "Submissions that required (or joined) a computation.",
        )
        redirect = self._redirect_for(spec)
        if redirect is not None:
            return redirect
        if self.queue.contains(job_id) or self.scheduler.is_tracked(job_id):
            # Identical work is already on its way; this submission joins it.
            return 200, {
                "job_id": job_id,
                "status": "queued",
                "cached": False,
                "joined": True,
            }, None, None
        if not self.cache.admit(spec):
            # A racing duplicate completed between lookup and admit; no
            # text is in hand, so the client fetches it with a GET.
            return 200, {"job_id": job_id, "status": "done", "cached": True}, None, None
        try:
            self.queue.offer(QueuedJob(spec=spec, client=client))
        except QueueFull as exc:
            # Roll the admission back: the client is being told to retry
            # elsewhere, so the pending row must not survive for a
            # restart's recovery pass to execute behind its back.
            self.cache.retract(job_id)
            retry_after = self._retry_after_s()
            self.metrics.inc(
                f"{PREFIX}_rejected_total",
                "Submissions refused with 429 backpressure.",
            )
            return 429, {
                "error": str(exc),
                "retry_after_s": retry_after,
            }, None, {"Retry-After": str(retry_after)}
        hook = CHAOS_CRASH_HOOK
        if hook is not None:
            # The accepted-but-unacked window the durability contract
            # exists for: the pending row is committed, the job queued,
            # and the 200 not yet written.
            hook("serve.submit.before-ack")
        return 200, {
            "job_id": job_id,
            "status": "queued",
            "cached": False,
            "queue_depth": self.queue.depth,
        }, None, None

    def _status(self, job_id: str):
        row = self.cache.job_row(job_id)
        if row is None:
            redirect = self._lookup_redirect(job_id)
            if redirect is not None:
                return redirect
            return 404, {"error": f"unknown job id {job_id!r}"}, None, None
        status = row.status
        if status == "pending" and (
            self.queue.contains(job_id) or self.scheduler.is_tracked(job_id)
        ):
            status = "queued"
        body = {
            "job_id": job_id,
            "status": "running" if job_id in self.scheduler.running_ids() else status,
            "eid": row.eid,
            "attempts": row.attempts,
            "error": row.error,
            "wall_s": row.wall_s,
            "worker": row.worker,
        }
        return 200, body, None, None

    def _result(self, job_id: str):
        # At most one store read: none for an id the LRU holds, and a cold
        # id's single row supplies both the payload and, failing that, the
        # status.  (On a cluster node a store read of an unknown id is a
        # peer probe, so a second read here would be a second probe.)
        text, row = self.cache.fetch(job_id)
        if text is not None:
            # Verbatim stored bytes: the byte-identical replay contract.
            return 200, None, (text.encode("utf-8"), "application/json"), None
        if row is None:
            redirect = self._lookup_redirect(job_id, suffix="/result")
            if redirect is not None:
                return redirect
            return 404, {"error": f"unknown job id {job_id!r}"}, None, None
        return 404, {
            "error": f"job {job_id} is {row.status}, not done",
            "status": row.status,
        }, None, None

    def _catalog(self) -> dict:
        experiments = {}
        for eid in sorted(REGISTRY, key=lambda e: (len(e), e)):
            experiment = REGISTRY[eid]
            experiments[eid] = {
                "default_seed": experiment.default_seed,
                "host_time_columns": list(experiment.host_time_columns),
                "points": {
                    "quick": len(experiment.points(True)),
                    "full": len(experiment.points(False)),
                },
            }
        return {"protocol": PROTOCOL_VERSION, "experiments": experiments}

    def _retry_after_s(self) -> int:
        """Seconds until capacity plausibly frees up, from observed times."""
        mean = self.metrics.mean_service_time()
        if mean is None:
            estimate = self.config.retry_after_floor_s
        else:
            estimate = mean * (self.queue.depth + 1) / max(1, self.config.workers)
        return max(1, min(300, round(estimate)))


class _HttpProtocol(asyncio.Protocol):
    """One client socket: bytes in, parsed requests routed, bytes out.

    Persistent and pipelined: every complete request in the buffer is
    answered in order with one ``transport.write`` each, until the client
    closes (or asks to), framing fails, or the daemon drains.  While the
    transport's write buffer is over its high-water mark the connection
    neither reads nor parses, so a client that stops reading its answers
    holds a bounded amount of the daemon's memory.
    """

    __slots__ = ("_daemon", "_transport", "_buffer", "_paused", "_eof")

    def __init__(self, daemon: "ServeDaemon") -> None:
        self._daemon = daemon
        self._transport: Any = None
        self._buffer = bytearray()
        self._paused = False
        self._eof = False

    def connection_made(self, transport) -> None:
        self._transport = transport
        self._daemon._transports.add(transport)

    def connection_lost(self, exc) -> None:
        self._daemon._transports.discard(self._transport)

    def data_received(self, data: bytes) -> None:
        self._buffer += data
        self._pump()

    def eof_received(self) -> bool:
        # The peer is done sending but may still be reading: requests
        # already buffered are answered before this side closes.
        self._eof = True
        self._pump()
        return True

    def pause_writing(self) -> None:
        self._paused = True
        self._transport.pause_reading()

    def resume_writing(self) -> None:
        self._paused = False
        self._transport.resume_reading()
        self._pump()

    def _pump(self) -> None:
        buffer, transport = self._buffer, self._transport
        while buffer and not self._paused and not transport.is_closing():
            try:
                request, consumed = parse_request(buffer)
            except FramingError as exc:
                self._finish(_json_response(exc.status, {"error": str(exc)}))
                break
            del buffer[:consumed]
            if request is None:
                break
            try:
                response, keep_alive = self._daemon._respond(request)
            except ChaosCrash:
                # Simulated death between durable admission and the ack:
                # the client sees exactly what a real crash gives it — a
                # dropped connection and no acknowledgement — while the
                # in-process harness keeps the loop alive to observe the
                # recovery.  (In crash_mode="exit" the process already
                # died before this.)
                transport.abort()
                break
            if keep_alive:
                transport.write(response)
            else:
                self._finish(response)
        if self._eof and not self._paused and not transport.is_closing():
            if buffer:
                self._finish(_json_response(400, {"error": "connection closed mid-request"}))
            else:
                transport.close()

    def _finish(self, response: bytes) -> None:
        """Write the last response of this connection and close after it."""
        self._buffer.clear()
        self._transport.write(response)
        self._transport.close()


def _endpoint_label(method: str, path: str) -> str:
    """Collapse per-job paths to one label so cardinality stays bounded."""
    if path.startswith(f"{API_PREFIX}/jobs/"):
        return "result" if path.endswith("/result") else "status"
    if path == f"{API_PREFIX}/jobs":
        return "submit"
    if path == f"{API_PREFIX}/catalog":
        return "catalog"
    if path in ("/healthz", "/metrics"):
        return path.strip("/")
    if path == f"{API_PREFIX}/shutdown":
        return "shutdown"
    if path.startswith("/cluster/"):
        return "cluster"
    return "other"


def _json_response(
    status: int,
    payload: Any,
    headers: Optional[Dict[str, str]] = None,
    keep_alive: bool = False,
) -> bytes:
    body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    return render_response(
        status, body, "application/json",
        extra_headers=headers, keep_alive=keep_alive,
    )
