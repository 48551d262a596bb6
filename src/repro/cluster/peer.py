"""The node-to-node RPC client: gossip, result fetch/push, work-stealing.

One :class:`PeerClient` per node talks to every peer over the same HTTP
surface external clients use, just under the ``/cluster/v1`` prefix:

========  =========================  =====================================
method    path                       purpose
========  =========================  =====================================
POST      /cluster/v1/heartbeat      push our membership table, get theirs
GET       /cluster/v1/results/<id>   peer cache-fill: spec + verbatim
                                     payload of a ``done`` job, or 404
POST      /cluster/v1/results/<id>   hand a stolen job's result back to
                                     its owner (``adopt_done`` semantics)
POST      /cluster/v1/steal          ask a loaded victim for queued jobs
========  =========================  =====================================

Peer calls are *best effort*: the caller always has a correct fallback
(recompute locally, skip this gossip round, don't steal), so the client
uses one short timeout, no retries, and raises :class:`ClusterError` for
any transport failure — the agent loop treats that as "peer unreachable"
and the membership sweep does the rest.  Results payloads travel as the
store's verbatim text (never re-serialized) so adoption stays
byte-identical.
"""

from __future__ import annotations

import json
from typing import List, Optional

from ..campaign.spec import JobSpec
from ..errors import ClusterError
from ..serve.client import Connection
from ..serve.protocol import render_request
from .membership import NodeInfo

__all__ = ["PeerClient", "PeerResult"]

CLUSTER_PREFIX = "/cluster/v1"


class PeerResult:
    """A completed job fetched from (or pushed to) a peer.

    ``payload_text`` is the owner store's verbatim JSON text; carrying the
    text (not a decoded dict) is what makes adoption byte-identical.
    """

    __slots__ = ("spec", "payload_text", "wall_s", "engine", "kernel_version")

    def __init__(
        self,
        spec: JobSpec,
        payload_text: str,
        wall_s: float,
        engine: Optional[str] = None,
        kernel_version: Optional[str] = None,
    ) -> None:
        self.spec = spec
        self.payload_text = payload_text
        self.wall_s = wall_s
        self.engine = engine
        self.kernel_version = kernel_version

    def to_wire(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "payload": self.payload_text,
            "wall_s": self.wall_s,
            "engine": self.engine,
            "kernel_version": self.kernel_version,
        }

    @classmethod
    def from_wire(cls, body: dict) -> "PeerResult":
        try:
            return cls(
                spec=JobSpec.from_dict(body["spec"]),
                payload_text=str(body["payload"]),
                wall_s=float(body.get("wall_s") or 0.0),
                engine=body.get("engine"),
                kernel_version=body.get("kernel_version"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ClusterError(f"malformed peer result body: {exc}") from exc


class PeerClient:
    """Short-timeout, no-retry, no-pooling client for cluster-internal RPC
    (one fresh :class:`~repro.serve.client.Connection` per call).

    Args:
        timeout_s: per-call socket budget.  Deliberately short — every
            caller has a local fallback, and a slow peer must not stall
            the gossip agent or a request handler.
    """

    def __init__(self, timeout_s: float = 2.0) -> None:
        if timeout_s <= 0:
            raise ClusterError(f"peer timeout must be positive, got {timeout_s}")
        self.timeout_s = timeout_s

    # -- transport ------------------------------------------------------
    def _call(
        self, peer: NodeInfo, method: str, path: str, body: Optional[dict] = None
    ) -> tuple:
        """One request/response against ``peer``; returns (status, dict)."""
        payload = None if body is None else json.dumps(body).encode("utf-8")
        try:
            with Connection((peer.host, peer.port), self.timeout_s) as conn:
                response = conn.exchange(
                    render_request(method, path, peer.address, payload)
                )
        except OSError as exc:
            raise ClusterError(
                f"peer {peer.node_id}@{peer.address} unreachable: {exc}"
            ) from exc
        raw = response.body
        try:
            decoded = json.loads(raw.decode("utf-8")) if raw else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ClusterError(
                f"peer {peer.node_id} sent a non-JSON body for {path}"
            ) from exc
        return response.status, decoded

    # -- gossip ---------------------------------------------------------
    def heartbeat(self, peer: NodeInfo, rows: List[dict]) -> List[NodeInfo]:
        """Exchange membership tables; returns the peer's rows."""
        status, body = self._call(
            peer, "POST", f"{CLUSTER_PREFIX}/heartbeat", {"rows": rows}
        )
        if status != 200:
            raise ClusterError(
                f"peer {peer.node_id} answered heartbeat with {status}", status=status
            )
        return [NodeInfo.from_wire(row) for row in body.get("rows", [])]

    # -- peer cache-fill ------------------------------------------------
    def fetch_result(self, peer: NodeInfo, job_id: str) -> Optional[PeerResult]:
        """A ``done`` job's spec + verbatim payload, or None (miss)."""
        status, body = self._call(
            peer, "GET", f"{CLUSTER_PREFIX}/results/{job_id}"
        )
        if status == 404:
            return None
        if status != 200:
            raise ClusterError(
                f"peer {peer.node_id} answered result fetch with {status}",
                status=status,
            )
        return PeerResult.from_wire(body)

    def push_result(self, peer: NodeInfo, result: PeerResult) -> bool:
        """Hand a stolen job's result to its owner; True if it adopted."""
        status, body = self._call(
            peer,
            "POST",
            f"{CLUSTER_PREFIX}/results/{result.spec.job_id}",
            result.to_wire(),
        )
        if status != 200:
            raise ClusterError(
                f"peer {peer.node_id} answered result push with {status}",
                status=status,
            )
        return bool(body.get("adopted"))

    # -- work-stealing --------------------------------------------------
    def steal(self, peer: NodeInfo, max_jobs: int, thief: str) -> List[JobSpec]:
        """Ask ``peer`` to hand over queued jobs; returns their specs."""
        status, body = self._call(
            peer,
            "POST",
            f"{CLUSTER_PREFIX}/steal",
            {"max_jobs": max_jobs, "thief": thief},
        )
        if status != 200:
            raise ClusterError(
                f"peer {peer.node_id} answered steal with {status}", status=status
            )
        try:
            return [JobSpec.from_dict(item) for item in body.get("jobs", [])]
        except (KeyError, TypeError, ValueError) as exc:
            raise ClusterError(
                f"peer {peer.node_id} sent malformed stolen jobs"
            ) from exc
