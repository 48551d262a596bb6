"""``python -m repro serve`` — run and talk to the simulation service.

Examples::

    python -m repro serve start --db serve.db --workers 4 --port 8421
    python -m repro serve submit E5 --point-index 1 --quick --wait
    python -m repro serve status <job_id>
    python -m repro serve result <job_id>
    python -m repro serve catalog
    python -m repro serve metrics
    python -m repro serve stop

``start`` runs the daemon in the foreground until SIGTERM/SIGINT, then
drains gracefully (in-flight jobs checkpoint, the queue persists, and a
restart on the same ``--db`` resumes every accepted job exactly once).
All other subcommands are thin :class:`~repro.serve.client.ServeClient`
wrappers that print JSON (or, for ``metrics``, Prometheus text).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, List, Optional

from ..errors import (
    BackpressureError,
    ChaosError,
    ConfigError,
    ServeError,
    StoreCorruptError,
    StoreIOError,
)
from .client import ServeClient
from .server import ServeConfig, ServeDaemon

__all__ = ["build_parser", "main"]

#: default port — fixed so client subcommands find the daemon without flags
DEFAULT_PORT = 8421


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Simulation-as-a-service: a caching, batching daemon "
        "over the experiment registry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    start = sub.add_parser("start", help="run the daemon in the foreground")
    start.add_argument("--host", default="127.0.0.1")
    start.add_argument(
        "--port", type=int, default=DEFAULT_PORT,
        help="listen port; 0 picks a free one (default: %(default)s)",
    )
    start.add_argument(
        "--db", default="serve.db",
        help="content-addressed result store (default: %(default)s)",
    )
    start.add_argument("--workers", type=int, default=2, help="worker processes")
    start.add_argument(
        "--max-queue", type=int, default=64,
        help="admission-queue bound; beyond it submissions get 429",
    )
    start.add_argument(
        "--batch-max", type=int, default=8,
        help="max same-shape jobs coalesced into one dispatch round",
    )
    start.add_argument(
        "--retries", type=int, default=0,
        help="extra attempts per failed/stuck job, each on a fresh process",
    )
    start.add_argument(
        "--timeout", type=float, default=None,
        help="per-job wall-clock budget in seconds",
    )
    start.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="checkpoint jobs here so drained attempts resume mid-simulation",
    )
    start.add_argument("--checkpoint-every", type=int, default=256)
    start.add_argument(
        "--lru-size", type=int, default=256,
        help="in-memory cache entries in front of the SQLite tier",
    )
    start.add_argument(
        "--chaos-arm", default=None, metavar="JSON",
        help="arm a chaos schedule before serving: ChaosConfig keyword "
        'arguments as JSON, e.g. \'{"seed": 7, "crash_points": '
        '["serve.submit.before-ack"]}\' (testing only)',
    )
    start.add_argument(
        "--chaos-crash-mode", default="exit", choices=["raise", "exit"],
        help="how armed crash points kill the daemon: 'exit' (real "
        "process death, exit code 86) or 'raise' (in-process signal)",
    )

    def client_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--host", default="127.0.0.1")
        p.add_argument("--port", type=int, default=DEFAULT_PORT)
        p.add_argument("--client", default="cli", help="fairness identity")

    submit = sub.add_parser("submit", help="submit one job")
    client_flags(submit)
    submit.add_argument("eid", help="experiment id (see 'serve catalog')")
    submit.add_argument("--point-index", type=int, default=None)
    submit.add_argument(
        "--point", default=None,
        help="sweep point as JSON (alternative to --point-index)",
    )
    submit.add_argument("--quick", action="store_true")
    submit.add_argument("--seed", type=int, default=None)
    submit.add_argument("--replicate", type=int, default=0)
    submit.add_argument(
        "--wait", action="store_true",
        help="block until done and print the result payload",
    )
    submit.add_argument("--wait-timeout", type=float, default=600.0)

    status = sub.add_parser("status", help="one job's lifecycle status")
    client_flags(status)
    status.add_argument("job_id")

    result = sub.add_parser("result", help="one job's result payload (verbatim)")
    client_flags(result)
    result.add_argument("job_id")

    for name, help_text in (
        ("catalog", "the experiment registry as a service catalog"),
        ("metrics", "Prometheus metrics text"),
        ("stop", "ask the daemon to drain gracefully"),
    ):
        p = sub.add_parser(name, help=help_text)
        client_flags(p)
    return parser


def _cmd_start(args: argparse.Namespace) -> int:
    config = ServeConfig(
        host=args.host,
        port=args.port,
        db=args.db,
        workers=args.workers,
        max_queue=args.max_queue,
        batch_max=args.batch_max,
        retries=args.retries,
        timeout=args.timeout,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        lru_size=args.lru_size,
    )
    state = None
    if args.chaos_arm is not None:
        from ..chaos import ChaosConfig, arm  # deferred: testing-only path

        try:
            kwargs = json.loads(args.chaos_arm)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"--chaos-arm must be JSON: {exc}") from exc
        if not isinstance(kwargs, dict):
            raise ConfigError("--chaos-arm must be a JSON object")
        try:
            chaos_config = ChaosConfig(**kwargs)
        except TypeError as exc:
            raise ConfigError(f"--chaos-arm: {exc}") from exc
        state = arm(chaos_config, crash_mode=args.chaos_crash_mode)
    daemon = ServeDaemon(config)
    if state is not None:
        state.bind_metrics(daemon.metrics)
    daemon.start()
    print(
        f"repro serve: listening on {config.host}:{daemon.port} "
        f"(db={config.db}, workers={config.workers}, "
        f"max_queue={config.max_queue})",
        file=sys.stderr,
        flush=True,
    )
    code = daemon.run_forever()
    print("repro serve: drained and stopped", file=sys.stderr)
    return code


def _client(args: argparse.Namespace) -> ServeClient:
    return ServeClient(
        host=args.host, port=args.port, client_id=getattr(args, "client", "cli")
    )


def _print_json(payload: Any) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _cmd_submit(args: argparse.Namespace) -> int:
    client = _client(args)
    point = None
    if args.point is not None:
        try:
            point = json.loads(args.point)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"--point must be JSON: {exc}") from exc
    ack = client.submit(
        args.eid,
        point_index=args.point_index,
        point=point,
        quick=args.quick,
        seed=args.seed,
        replicate=args.replicate,
    )
    if not args.wait:
        _print_json(ack)
        return 0
    if ack["status"] != "done":
        client.wait(ack["job_id"], timeout_s=args.wait_timeout)
    print(client.result_text(ack["job_id"]), end="")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "start":
            return _cmd_start(args)
        if args.command == "submit":
            return _cmd_submit(args)
        client = _client(args)
        if args.command == "status":
            _print_json(client.status(args.job_id))
        elif args.command == "result":
            print(client.result_text(args.job_id), end="")
        elif args.command == "catalog":
            _print_json(client.catalog())
        elif args.command == "metrics":
            print(client.metrics_text(), end="")
        elif args.command == "stop":
            _print_json(client.shutdown())
        return 0
    except BackpressureError as exc:
        print(
            f"serve: {exc} (retry after ~{exc.retry_after_s}s)", file=sys.stderr
        )
        return 3
    except (
        ChaosError, ConfigError, ServeError, StoreCorruptError, StoreIOError,
    ) as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
