"""``python -m repro campaign`` — run, resume, and report campaigns.

Examples::

    python -m repro campaign run E5 E7 --quick --workers 4 --db sweep.db
    python -m repro campaign run all --db full.db --retries 2 --timeout 1800
    python -m repro campaign run --resume --db sweep.db      # after a crash
    python -m repro campaign report --db sweep.db --save results/
    python -m repro campaign status --db sweep.db

``run`` executes the grid and prints the assembled tables on completion;
``--resume`` continues an interrupted campaign, skipping every completed
job.  ``report``/``status`` never simulate — they only read the store.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import List, Optional

from ..errors import ConfigError, StoreCorruptError, StoreIOError
from ..harness.experiments import ALL_EXPERIMENTS
from .engine import CampaignEngine
from .report import campaign_report, campaign_status
from .spec import CampaignSpec
from .store import ResultStore

__all__ = ["build_parser", "main"]


def _default_workers() -> int:
    return max(1, os.cpu_count() or 1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro campaign",
        description="Parallel, resumable experiment campaigns with a SQLite job store.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute (or resume) a campaign")
    run.add_argument(
        "experiments",
        nargs="*",
        help="experiment ids (E1..E11, demo) or 'all'; may be omitted with "
        "--resume (the stored spec is reused)",
    )
    run.add_argument("--db", default="campaign.db", help="job-store path (default: %(default)s)")
    run.add_argument("--quick", action="store_true", help="shrunken (test-sized) variants")
    run.add_argument("--seed", type=int, default=None, help="campaign root seed")
    run.add_argument(
        "--replicates", type=int, default=1,
        help="seed replicates per experiment (derived from the root seed)",
    )
    run.add_argument(
        "--workers", type=int, default=None,
        help="worker processes (default: all CPUs)",
    )
    run.add_argument(
        "--retries", type=int, default=0,
        help="extra attempts per failed/stuck job, each on a fresh process",
    )
    run.add_argument(
        "--timeout", type=float, default=None,
        help="per-job wall-clock budget in seconds (stuck jobs are killed)",
    )
    run.add_argument(
        "--retry-backoff", type=float, default=0.0,
        help="base seconds between retry attempts (doubles per attempt, "
        "capped at 60s; 0 retries immediately)",
    )
    run.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="checkpoint each job here; killed/timed-out attempts resume "
        "from their last quantum-boundary snapshot",
    )
    run.add_argument(
        "--checkpoint-every", type=int, default=256,
        help="snapshot period in synchronization windows (default: %(default)s)",
    )
    run.add_argument(
        "--resume", action="store_true",
        help="continue an existing campaign, skipping completed jobs",
    )
    run.add_argument(
        "--start-method", default=None, choices=["fork", "spawn", "forkserver"],
        help="multiprocessing start method (default: fork where available)",
    )
    run.add_argument("--no-report", action="store_true", help="skip the final report")
    run.add_argument("--no-progress", action="store_true", help="no progress line")

    report = sub.add_parser("report", help="render tables/figures from the store")
    report.add_argument("--db", default="campaign.db")
    report.add_argument("--save", default=None, metavar="DIR", help="also save JSON results")
    report.add_argument("experiments", nargs="*", help="restrict to these experiment ids")

    status = sub.add_parser("status", help="job counts and provenance")
    status.add_argument("--db", default="campaign.db")
    return parser


def _expand_eids(names: List[str]) -> List[str]:
    eids: List[str] = []
    for name in names:
        if name == "all":
            eids.extend(sorted(ALL_EXPERIMENTS, key=lambda e: (len(e), e)))
        else:
            eids.append(name)
    return eids


def _cmd_run(args: argparse.Namespace) -> int:
    db_exists = args.db != ":memory:" and Path(args.db).exists()
    spec: Optional[CampaignSpec] = None
    if args.experiments:
        spec = CampaignSpec(
            experiments=tuple(_expand_eids(args.experiments)),
            quick=args.quick,
            seed=args.seed,
            replicates=args.replicates,
        )
    if args.resume:
        if not db_exists and args.db != ":memory:":
            raise ConfigError(f"--resume: no campaign store at {args.db}")
    elif db_exists:
        raise ConfigError(
            f"{args.db} already exists; pass --resume to continue it or use a new --db"
        )
    if spec is None:
        if not args.resume:
            raise ConfigError("name experiments to run, or pass --resume")
        with ResultStore(args.db) as store:
            spec = store.campaign_spec()

    with ResultStore(args.db) as store:
        store.initialize(spec)  # raises on spec mismatch with the stored campaign
        engine = CampaignEngine(
            store,
            workers=args.workers or _default_workers(),
            retries=args.retries,
            timeout=args.timeout,
            start_method=args.start_method,
            progress=not args.no_progress,
            retry_backoff=args.retry_backoff,
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_every=args.checkpoint_every,
        )
        summary = engine.run()
        print(summary.render())
        if not args.no_report:
            print()
            print(campaign_report(store))
        return 0 if summary.ok else 1


def _cmd_report(args: argparse.Namespace) -> int:
    if args.db != ":memory:" and not Path(args.db).exists():
        raise ConfigError(f"no campaign store at {args.db}")
    with ResultStore(args.db) as store:
        print(campaign_report(store, eids=args.experiments or None, save_dir=args.save))
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    if args.db != ":memory:" and not Path(args.db).exists():
        raise ConfigError(f"no campaign store at {args.db}")
    with ResultStore(args.db) as store:
        print(campaign_status(store))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "report":
            return _cmd_report(args)
        return _cmd_status(args)
    except (ConfigError, StoreCorruptError, StoreIOError) as exc:
        # Structured refusals (bad flags, a corrupt/unwritable store):
        # an operator diagnostic, never a raw traceback.
        print(f"campaign: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
