"""``ClusterNode`` — one serve daemon participating in a sharded ring.

A cluster node *is* a :class:`~repro.serve.server.ServeDaemon` — same
frontier, scheduler, pool, cache, and durability contract — with four
cluster behaviours layered on through the daemon's subclass hooks:

* **routing** — every node accepts every request; a cache-missed
  submission whose ring owner is another live node answers ``307`` with
  the owner's submit URL (clients follow it transparently);
* **peer cache-fill** — the cache's miss path
  (:meth:`~repro.serve.cache.ResultCache._read`): a lookup of a job id
  this node has never seen probes the ring preference list (owner, then
  successors) and adopts a found result *verbatim* before answering, so
  a repeat submission to the wrong node is still a zero-compute hit;
* **work-stealing** — an idle node asks the most-loaded peer for queued
  jobs, runs them locally, and pushes the results back to the victim
  under content identity; the victim keeps the jobs' ``pending`` rows
  and re-admits them after a deadline, so a thief dying mid-steal delays
  work but never loses it, and a double execution commits byte-identical
  payloads (``adopt_done`` keeps the first);
* **gossip membership** — a background agent thread heartbeats peers,
  merges tables, sweeps the dead, and rebuilds the ring (one *rebalance
  event* per change).

Cluster RPC rides the same HTTP server under ``/cluster/v1``::

    GET  /cluster/v1/ring          ring + membership view (diagnostics)
    POST /cluster/v1/heartbeat     gossip exchange (tables cross)
    GET  /cluster/v1/results/<id>  local-store result for peer fill
    POST /cluster/v1/results/<id>  adopt a pushed (stolen) result
    POST /cluster/v1/steal         hand queued jobs to an idle thief

``kill()`` is the chaos audit's in-process ``kill -9``: scheduler
crash-stopped (workers SIGKILLed, no drain hand-back), agent and HTTP
loop stopped abruptly, store rows left exactly as the crash found them.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..errors import ClusterError, ConfigError
from ..serve.metrics import PREFIX
from ..serve.protocol import API_PREFIX, Request
from ..serve.queuein import QueueFull, QueuedJob
from ..serve.server import ServeConfig, ServeDaemon
from .membership import MembershipTable, NodeInfo
from .peer import CLUSTER_PREFIX, PeerClient, PeerResult
from .ring import DEFAULT_VNODES
from .router import Router

__all__ = ["ClusterConfig", "ClusterNode"]

#: metric family prefix for everything cluster-level
CPREFIX = f"{PREFIX}_cluster"


@dataclass(frozen=True)
class ClusterConfig:
    """One node's cluster identity and tuning, over its serve config."""

    node_id: str
    serve: ServeConfig = field(default_factory=ServeConfig)
    #: seed addresses ("host:port") used to bootstrap gossip
    peers: Tuple[str, ...] = ()
    vnodes: int = DEFAULT_VNODES
    gossip_interval_s: float = 0.5
    #: a peer whose freshness stalls this long is declared dead
    fail_after_s: float = 5.0
    #: ring nodes probed per cache-fill miss (owner + successors)
    fill_peers: int = 2
    #: max jobs taken per steal request
    steal_batch: int = 4
    #: a lent (stolen-from-us) job still unfinished after this long is
    #: re-admitted locally — the thief-died safety net
    re_admit_after_s: float = 15.0
    peer_timeout_s: float = 2.0

    def __post_init__(self) -> None:
        if not self.node_id:
            raise ConfigError("cluster node_id must be non-empty")
        if self.vnodes < 1:
            raise ConfigError(f"vnodes must be >= 1, got {self.vnodes}")
        for knob in ("gossip_interval_s", "fail_after_s", "re_admit_after_s",
                     "peer_timeout_s"):
            if getattr(self, knob) <= 0:
                raise ConfigError(f"{knob} must be positive")
        if self.fill_peers < 0:
            raise ConfigError(f"fill_peers must be >= 0, got {self.fill_peers}")
        if self.steal_batch < 1:
            raise ConfigError(f"steal_batch must be >= 1, got {self.steal_batch}")
        for address in self.peers:
            _split_address(address)  # validates


def _split_address(address: str) -> Tuple[str, int]:
    host, _, port = address.rpartition(":")
    if not host or not port.isdigit():
        raise ConfigError(f"peer address must be host:port, got {address!r}")
    return host, int(port)


class _Lent:
    """A job handed to a thief, remembered for the re-admit safety net."""

    __slots__ = ("spec", "client", "thief", "deadline")

    def __init__(self, spec, client, thief, deadline) -> None:
        self.spec = spec
        self.client = client
        self.thief = thief
        self.deadline = deadline


class ClusterNode(ServeDaemon):
    """A serve daemon that shards, fills, and steals across a ring."""

    def __init__(self, cluster: ClusterConfig) -> None:
        self.cluster = cluster
        super().__init__(cluster.serve, fill=self._peer_fill)
        # Every process start outranks the stale gossip of the last one.
        self.generation = self.cache.bump_meta("cluster_generation")

        self_info = NodeInfo(
            node_id=cluster.node_id,
            host=cluster.serve.host,
            port=cluster.serve.port,  # patched after bind if 0
            generation=self.generation,
        )
        self.membership = MembershipTable(self_info, fail_after_s=cluster.fail_after_s)
        self.router = Router(self.membership, vnodes=cluster.vnodes)
        self.peer_client = PeerClient(timeout_s=cluster.peer_timeout_s)
        self._seeds = [_split_address(address) for address in cluster.peers]
        #: stolen-by-us jobs awaiting push-back: job_id -> victim node id
        self._stolen: Dict[str, str] = {}
        #: stolen-from-us jobs awaiting completion or re-admission
        self._lent: Dict[str, _Lent] = {}
        self._cluster_lock = threading.Lock()
        self._agent_stop = threading.Event()
        self._agent: Optional[threading.Thread] = None
        self._killed = False
        self.steals_taken = 0
        self.steals_served = 0
        self._register_cluster_metrics()

    def _register_cluster_metrics(self) -> None:
        register = self.metrics.register_gauge
        register(
            f"{CPREFIX}_alive_nodes",
            "Live ring members from this node's view (self included).",
            lambda: float(len(self.membership.alive_ids())),
        )
        register(
            f"{CPREFIX}_rebalances",
            "Ring rebuilds caused by membership changes.",
            lambda: float(self.router.rebalances),
        )
        register(
            f"{CPREFIX}_peer_fill_hits",
            "Lookup misses answered by adopting a ring peer's result.",
            lambda: float(self.cache.fill_hits),
        )
        register(
            f"{CPREFIX}_peer_fill_misses",
            "Lookup misses no ring peer could answer.",
            lambda: float(self.cache.fill_misses),
        )
        register(
            f"{CPREFIX}_lent_jobs",
            "Jobs currently lent to thieves (re-admit safety net size).",
            lambda: float(len(self._lent)),
        )

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        super().start()
        # A port-0 config only learns its real port at bind time; gossip
        # must advertise the real one.
        self.membership.self_info.port = int(self.port or 0)
        self._agent = threading.Thread(
            target=self._agent_loop, name=f"repro-cluster-{self.cluster.node_id}",
            daemon=True,
        )
        self._agent.start()

    def stop(self) -> None:
        self._agent_stop.set()
        if self._agent is not None:
            self._agent.join(timeout=10.0)
            self._agent = None
        super().stop()

    def kill(self) -> None:
        """Die like ``kill -9`` (the cluster chaos audit's node death).

        No drain, no hand-back: workers are SIGKILLed, the agent and HTTP
        loop stop abruptly, and store rows stay exactly as the crash left
        them — ``running`` rows and all.  Restart recovery on the same
        database is what reclaims the work, same as a real process death.
        """
        self._killed = True
        self._agent_stop.set()
        self._draining.set()
        if self._agent is not None:
            self._agent.join(timeout=10.0)
            self._agent = None
        self.scheduler.crash_stop()
        loop, done = self._loop, self._loop_done
        if loop is not None and done is not None:
            try:
                loop.call_soon_threadsafe(done.set)
            except RuntimeError:  # simlint: allow[swallowed-exception]
                pass  # loop already gone
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        # In-process stand-in for process death: the SQLite handle must be
        # released so a restarted node can own the same file.  Closing a
        # connection commits nothing extra — every transition committed on
        # its own call — so the rows are crash-faithful.
        self.cache.close()
        self._stopped.set()

    # -- peer cache-fill ------------------------------------------------
    def _peer_fill(self, job_id: str) -> Optional[PeerResult]:
        """The cache's miss probe: ask the ring, owner first."""
        if self.cluster.fill_peers == 0 or len(self.membership.alive_ids()) < 2:
            return None
        try:
            targets = self.router.fill_targets(job_id, count=self.cluster.fill_peers)
        except ClusterError:
            return None
        for target in targets:
            try:
                result = self.peer_client.fetch_result(target, job_id)
            except ClusterError:
                continue
            if result is not None:
                return result
        return None

    # -- routing hooks ---------------------------------------------------
    def _redirect_for(self, spec):
        """307 a cache-missed submission to its ring owner, if not us."""
        owner = self.router.owner_info(spec.job_id)
        if owner is None or owner.node_id == self.cluster.node_id:
            return None
        self.metrics.inc(
            f"{CPREFIX}_redirects_total",
            "Submissions 307-redirected to their ring owner.",
        )
        return 307, {
            "job_id": spec.job_id,
            "owner": owner.node_id,
            "redirect": owner.address,
        }, None, {"Location": f"http://{owner.address}{API_PREFIX}/jobs"}

    def _lookup_redirect(self, job_id: str, suffix: str = ""):
        """307 a status/result miss to the ring owner, if not us.

        A poller that submitted through a non-owner (and was redirected)
        keeps polling the node it connected to; without this the job is
        invisible here until it is *done* and peer fill can adopt it.
        """
        owner = self.router.owner_info(job_id)
        if owner is None or owner.node_id == self.cluster.node_id:
            return None
        self.metrics.inc(
            f"{CPREFIX}_redirects_total",
            "Submissions 307-redirected to their ring owner.",
        )
        return 307, {
            "job_id": job_id,
            "owner": owner.node_id,
            "redirect": owner.address,
        }, None, {
            "Location":
                f"http://{owner.address}{API_PREFIX}/jobs/{job_id}{suffix}",
        }

    def _healthz_extra(self) -> Dict[str, Any]:
        return {
            "cluster": {
                "node_id": self.cluster.node_id,
                "generation": self.generation,
                "ring": self.router.describe(),
                "membership": self.membership.describe(),
                "peer_fill": {
                    "hits": self.cache.fill_hits,
                    "misses": self.cache.fill_misses,
                },
                "steals": {
                    "taken": self.steals_taken,
                    "served": self.steals_served,
                },
            }
        }

    # -- cluster endpoints ----------------------------------------------
    def _route_extra(self, request: Request, method: str, path: str):
        if not path.startswith(CLUSTER_PREFIX):
            return None
        tail = path[len(CLUSTER_PREFIX):]
        if method == "GET" and tail == "/ring":
            body = self.router.describe()
            body["membership"] = self.membership.describe()
            return 200, body, None, None
        if method == "POST" and tail == "/heartbeat":
            return self._handle_heartbeat(request)
        if tail.startswith("/results/") and "/" not in tail[len("/results/"):]:
            job_id = tail[len("/results/"):]
            if method == "GET":
                return self._handle_result_fetch(job_id)
            if method == "POST":
                return self._handle_result_push(job_id, request)
        if method == "POST" and tail == "/steal":
            return self._handle_steal(request)
        return None

    def _handle_heartbeat(self, request: Request):
        body = request.json()
        rows = [NodeInfo.from_wire(row) for row in body.get("rows", [])]
        self.membership.merge(rows)
        if self.router.rebuild():
            self._note_rebalance()
        return 200, {"rows": self.membership.to_wire()}, None, None

    def _handle_result_fetch(self, job_id: str):
        """Peer fill, victim side: the *local* store only (no recursion)."""
        row = self.cache.local_row(job_id)
        if row is None:
            return 404, {"error": f"unknown job id {job_id!r}"}, None, None
        if row.status != "done" or row.payload is None:
            return 404, {"error": f"job {job_id} is {row.status}, not done"}, None, None
        result = PeerResult(
            spec=row.job_spec(),
            payload_text=row.payload,
            wall_s=row.wall_s or 0.0,
            engine=row.engine,
            kernel_version=row.kernel_version,
        )
        self.metrics.inc(
            f"{CPREFIX}_fills_served_total",
            "Results served to peers' cache-fill probes.",
        )
        return 200, result.to_wire(), None, None

    def _handle_result_push(self, job_id: str, request: Request):
        """A thief handing back a stolen job's result (adopt verbatim)."""
        result = PeerResult.from_wire(request.json())
        if result.spec.job_id != job_id:
            return 400, {
                "error": f"pushed result is for {result.spec.job_id}, "
                f"path says {job_id} (content-identity violation)"
            }, None, None
        adopted = self.cache.adopt(
            result.spec, result.payload_text, result.wall_s,
            engine=result.engine, kernel_version=result.kernel_version,
        )
        with self._cluster_lock:
            self._lent.pop(job_id, None)
        self.metrics.inc(
            f"{CPREFIX}_results_pushed_total",
            "Stolen-job results pushed back by thieves.",
            adopted=str(bool(adopted)).lower(),
        )
        return 200, {"adopted": adopted}, None, None

    def _handle_steal(self, request: Request):
        """Victim side of work-stealing: hand queued jobs to a thief."""
        body = request.json()
        thief = str(body.get("thief") or "unknown")
        try:
            max_jobs = int(body.get("max_jobs") or 1)
        except (TypeError, ValueError):
            return 400, {"error": "max_jobs must be an integer"}, None, None
        if self._draining.is_set():
            return 200, {"jobs": []}, None, None
        taken = self.queue.steal(max(1, min(max_jobs, self.cluster.steal_batch)))
        deadline = time.monotonic() + self.cluster.re_admit_after_s
        with self._cluster_lock:
            for entry in taken:
                self._lent[entry.job_id] = _Lent(
                    entry.spec, entry.client, thief, deadline
                )
        if taken:
            self.steals_served += len(taken)
            self.metrics.inc(
                f"{CPREFIX}_steals_served_total",
                "Queued jobs handed to idle thieves.",
                amount=float(len(taken)),
            )
        return 200, {"jobs": [entry.spec.to_dict() for entry in taken]}, None, None

    # -- the agent loop --------------------------------------------------
    def _agent_loop(self) -> None:
        """Gossip, sweep, rebuild, steal, push back, re-admit — forever."""
        while not self._agent_stop.wait(self.cluster.gossip_interval_s):
            try:
                self._agent_tick()
            except Exception:  # noqa: BLE001 - the agent must survive anything
                self.metrics.inc(
                    f"{CPREFIX}_agent_errors_total",
                    "Unexpected errors swallowed by the cluster agent loop.",
                )

    def _agent_tick(self) -> None:
        self.membership.bump_self(
            queue_depth=self.queue.depth,
            in_flight=len(self.scheduler.running_ids()),
        )
        self._gossip_round()
        self.membership.sweep()
        if self.router.rebuild():
            self._note_rebalance()
        self._push_back_stolen()
        self._re_admit_lent()
        self._maybe_steal()

    def _gossip_round(self) -> None:
        rows = self.membership.to_wire()
        known = {peer.address for peer in self.membership.peers()}
        targets = list(self.membership.peers())
        # Seed addresses we have not yet learned a row for (bootstrap).
        for host, port in self._seeds:
            if f"{host}:{port}" not in known:
                targets.append(NodeInfo(node_id=f"seed@{host}:{port}",
                                        host=host, port=port))
        for target in targets:
            try:
                merged = self.peer_client.heartbeat(target, rows)
            except ClusterError:
                continue  # unreachable; the sweep decides its fate
            self.membership.merge(merged)

    def _note_rebalance(self) -> None:
        self.metrics.inc(
            f"{CPREFIX}_rebalance_events_total",
            "Membership changes that rebuilt the ring.",
        )

    def _push_back_stolen(self) -> None:
        """Ship finished stolen jobs' results home, under content identity."""
        with self._cluster_lock:
            pending = list(self._stolen.items())
        for job_id, victim_id in pending:
            row = self.cache.local_row(job_id)
            if row is None or row.status != "done" or row.payload is None:
                continue  # not admitted yet, or not finished
            victim = self.membership.get(victim_id)
            if victim is None:
                # The victim died; our store has the result and ring fill
                # can serve it — nothing left to push.
                with self._cluster_lock:
                    self._stolen.pop(job_id, None)
                continue
            result = PeerResult(
                spec=row.job_spec(), payload_text=row.payload,
                wall_s=row.wall_s or 0.0, engine=row.engine,
                kernel_version=row.kernel_version,
            )
            try:
                self.peer_client.push_result(victim, result)
            except ClusterError:
                continue  # retry next tick
            with self._cluster_lock:
                self._stolen.pop(job_id, None)

    def _re_admit_lent(self) -> None:
        """The thief-died safety net: reclaim lent jobs past deadline."""
        now = time.monotonic()
        with self._cluster_lock:
            due = [
                (job_id, lent) for job_id, lent in self._lent.items()
                if lent.deadline <= now
            ]
        for job_id, lent in due:
            row = self.cache.local_row(job_id)
            if row is not None and row.status == "done":
                with self._cluster_lock:
                    self._lent.pop(job_id, None)
                continue
            try:
                self.queue.offer(QueuedJob(spec=lent.spec, client=lent.client))
            except QueueFull:
                lent.deadline = now + self.cluster.re_admit_after_s
                continue
            with self._cluster_lock:
                self._lent.pop(job_id, None)
            self.metrics.inc(
                f"{CPREFIX}_re_admitted_total",
                "Lent jobs re-admitted after their thief went quiet.",
            )

    def _maybe_steal(self) -> None:
        """Thief side: an idle node pulls queued work from a loaded peer."""
        if self._draining.is_set() or self.queue.depth > 0:
            return
        if len(self.scheduler.running_ids()) >= self.config.workers:
            return
        victims = [peer for peer in self.membership.peers() if peer.queue_depth > 0]
        if not victims:
            return
        victim = max(victims, key=lambda peer: (peer.queue_depth, peer.node_id))
        try:
            specs = self.peer_client.steal(
                victim, self.cluster.steal_batch, self.cluster.node_id
            )
        except ClusterError:
            return
        admitted = 0
        for spec in specs:
            with self._cluster_lock:
                self._stolen[spec.job_id] = victim.node_id
            if not self.cache.admit(spec):
                continue  # already done here; push-back alone remains
            try:
                if self.queue.offer(QueuedJob(spec=spec, client=f"steal:{victim.node_id}")):
                    admitted += 1
            except QueueFull:
                # Our queue filled while stealing; the victim's pending
                # row (plus its re-admit deadline) keeps the job safe.
                self.cache.retract(spec.job_id)
                with self._cluster_lock:
                    self._stolen.pop(spec.job_id, None)
        if specs:
            self.steals_taken += admitted
            self.metrics.inc(
                f"{CPREFIX}_steals_total",
                "Jobs stolen from loaded peers and run locally.",
                amount=float(admitted),
            )
