"""``python -m repro cluster`` — run and inspect the sharded service.

Examples::

    # a 3-node ring on one host (each node gets its own database)
    python -m repro cluster start --node-id a --port 9301 --db a.db \\
        --peers 127.0.0.1:9302,127.0.0.1:9303
    python -m repro cluster start --node-id b --port 9302 --db b.db \\
        --peers 127.0.0.1:9301,127.0.0.1:9303
    python -m repro cluster start --node-id c --port 9303 --db c.db \\
        --peers 127.0.0.1:9301,127.0.0.1:9302

    # any node answers for the whole ring
    python -m repro cluster status --port 9302
    python -m repro cluster route --nodes a,b,c deadbeef01234567 ...

``start`` runs one node in the foreground (SIGTERM drains it, exactly
like ``serve start``).  ``status`` prints a live node's ring and
membership view.  ``route`` is offline: given a node set it prints each
key's owner and preference list, and with ``--without NODE`` also the
fraction of the keys that would move if that node left — the bounded
K/N remap consistent hashing exists for.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, List, Optional

from ..errors import (
    ClusterError,
    ConfigError,
    ServeError,
    StoreCorruptError,
    StoreIOError,
)
from ..serve.client import ServeClient
from ..serve.server import ServeConfig
from .node import ClusterConfig, ClusterNode
from .ring import DEFAULT_VNODES, HashRing, remap_fraction

__all__ = ["build_parser", "main"]

#: default base port — one above serve's so a lone node of each coexists
DEFAULT_PORT = 9301


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro cluster",
        description="Sharded multi-node simulation service: consistent-hash "
        "routing, peer cache-fill, work-stealing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    start = sub.add_parser("start", help="run one cluster node in the foreground")
    start.add_argument("--node-id", required=True, help="this node's ring identity")
    start.add_argument("--host", default="127.0.0.1")
    start.add_argument(
        "--port", type=int, default=DEFAULT_PORT,
        help="listen port; 0 picks a free one (default: %(default)s)",
    )
    start.add_argument(
        "--db", default=None,
        help="this node's result store (default: <node-id>.db)",
    )
    start.add_argument(
        "--peers", default="",
        help="comma-separated seed addresses host:port of the other nodes",
    )
    start.add_argument("--workers", type=int, default=2)
    start.add_argument("--max-queue", type=int, default=64)
    start.add_argument("--batch-max", type=int, default=8)
    start.add_argument("--retries", type=int, default=0)
    start.add_argument("--timeout", type=float, default=None)
    start.add_argument(
        "--vnodes", type=int, default=DEFAULT_VNODES,
        help="virtual nodes per physical node (default: %(default)s)",
    )
    start.add_argument(
        "--gossip-interval", type=float, default=0.5, metavar="S",
        help="seconds between gossip/steal agent ticks",
    )
    start.add_argument(
        "--fail-after", type=float, default=5.0, metavar="S",
        help="declare a silent peer dead after this many seconds",
    )
    start.add_argument(
        "--steal-batch", type=int, default=4,
        help="max jobs taken per work-steal request",
    )
    start.add_argument(
        "--fill-peers", type=int, default=2,
        help="ring nodes probed per cache-fill miss (0 disables fill)",
    )

    status = sub.add_parser("status", help="a live node's ring + health view")
    status.add_argument("--host", default="127.0.0.1")
    status.add_argument("--port", type=int, default=DEFAULT_PORT)

    route = sub.add_parser(
        "route", help="offline placement: who owns which keys on a given ring"
    )
    route.add_argument(
        "--nodes", required=True,
        help="comma-separated node ids forming the ring",
    )
    route.add_argument(
        "--vnodes", type=int, default=DEFAULT_VNODES,
    )
    route.add_argument(
        "--without", default=None, metavar="NODE",
        help="also report the remap fraction if NODE left the ring",
    )
    route.add_argument("keys", nargs="+", help="job ids (or any keys) to place")
    return parser


def _cmd_start(args: argparse.Namespace) -> int:
    peers = tuple(part.strip() for part in args.peers.split(",") if part.strip())
    serve = ServeConfig(
        host=args.host,
        port=args.port,
        db=args.db if args.db is not None else f"{args.node_id}.db",
        workers=args.workers,
        max_queue=args.max_queue,
        batch_max=args.batch_max,
        retries=args.retries,
        timeout=args.timeout,
    )
    config = ClusterConfig(
        node_id=args.node_id,
        serve=serve,
        peers=peers,
        vnodes=args.vnodes,
        gossip_interval_s=args.gossip_interval,
        fail_after_s=args.fail_after,
        steal_batch=args.steal_batch,
        fill_peers=args.fill_peers,
    )
    node = ClusterNode(config)
    node.start()
    print(
        f"repro cluster: node {config.node_id} listening on "
        f"{serve.host}:{node.port} (db={serve.db}, "
        f"peers={','.join(peers) or 'none'})",
        file=sys.stderr,
        flush=True,
    )
    code = node.run_forever()
    print(f"repro cluster: node {config.node_id} drained and stopped",
          file=sys.stderr)
    return code


def _print_json(payload: Any) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _cmd_status(args: argparse.Namespace) -> int:
    client = ServeClient(host=args.host, port=args.port, client_id="cluster-cli")
    try:
        _print_json(client.health())
    finally:
        client.close()
    return 0


def _cmd_route(args: argparse.Namespace) -> int:
    node_ids = [part.strip() for part in args.nodes.split(",") if part.strip()]
    if not node_ids:
        raise ConfigError("--nodes must name at least one node")
    ring = HashRing(node_ids, vnodes=args.vnodes)
    placement = {
        key: {
            "owner": ring.owner(key),
            "preference": ring.preference(key, min(3, len(ring))),
        }
        for key in args.keys
    }
    body: dict = {"ring": ring.describe(), "placement": placement}
    if args.without is not None:
        if args.without not in ring:
            raise ConfigError(f"--without {args.without!r} is not in --nodes")
        remaining = [node for node in node_ids if node != args.without]
        if not remaining:
            raise ConfigError("--without would empty the ring")
        after = HashRing(remaining, vnodes=args.vnodes)
        body["without"] = {
            "node": args.without,
            "remap_fraction": remap_fraction(ring, after, args.keys),
        }
    _print_json(body)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "start":
            return _cmd_start(args)
        if args.command == "status":
            return _cmd_status(args)
        return _cmd_route(args)
    except (
        ClusterError, ConfigError, ServeError, StoreCorruptError, StoreIOError,
    ) as exc:
        print(f"cluster: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
