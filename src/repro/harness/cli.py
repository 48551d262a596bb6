"""Command-line interface: run any reproduced experiment from the shell.

Examples::

    python -m repro E3              # the headline accuracy table
    python -m repro E6 --quick      # shrunken variant
    python -m repro table1          # target configuration table
    python -m repro all --quick     # everything
    python -m repro lint            # simulation-correctness static analysis
    python -m repro verify          # deadlock/protocol verification
    python -m repro E1 --quick --check-invariants
    python -m repro campaign run E5 E7 --workers 4 --db sweep.db
    python -m repro resilience run --link-failures 2 --corrupt-rate 0.005
    python -m repro serve start --db serve.db --workers 4
    python -m repro cluster start --node-id a --port 9301 --peers 127.0.0.1:9302
    python -m repro chaos audit --mode campaign --torn-commits 1

Results print as the same fixed-width tables the benchmark suite saves.
``--check-invariants`` installs the runtime invariant checker
(:mod:`repro.analysis.invariants`) on every co-simulation the experiments
build.

Tool subcommands (``lint``, ``verify``, ``campaign``, ``resilience``,
``serve``, ``cluster``, ``chaos``) each own their flags and dispatch through one registry,
:data:`SUBCOMMANDS` — the single source of truth that the ``--help``
epilog, the dispatcher, and the dispatch-agreement test all read, so a
new subcommand cannot be wired into one and forgotten in another.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from .experiments import ALL_EXPERIMENTS, run_table1
from .runner import set_check_invariants

__all__ = ["main", "build_parser", "SUBCOMMANDS", "Subcommand"]

#: a subcommand entry point: argv (after the subcommand name) -> exit code
SubMain = Callable[[Optional[List[str]]], int]


@dataclass(frozen=True)
class Subcommand:
    """One registered tool subcommand.

    ``load`` returns the subcommand's ``main`` lazily, so ``python -m
    repro E3`` never pays the import cost of the tool packages.
    """

    name: str
    help: str
    load: Callable[[], SubMain]


def _load_lint() -> SubMain:
    return _lint_main


def _load_verify() -> SubMain:
    from ..verify.cli import main as verify_main

    return verify_main


def _load_campaign() -> SubMain:
    from ..campaign.cli import main as campaign_main

    return campaign_main


def _load_resilience() -> SubMain:
    from ..resilience.cli import main as resilience_main

    return resilience_main


def _load_serve() -> SubMain:
    from ..serve.cli import main as serve_main

    return serve_main


def _load_cluster() -> SubMain:
    from ..cluster.cli import main as cluster_main

    return cluster_main


def _load_chaos() -> SubMain:
    from ..chaos.cli import main as chaos_main

    return chaos_main


#: every tool subcommand, in display order — the one dispatch table
SUBCOMMANDS: Dict[str, Subcommand] = {
    sub.name: sub
    for sub in (
        Subcommand(
            "lint",
            "simulation-correctness static analysis (simlint rules)",
            _load_lint,
        ),
        Subcommand(
            "verify",
            "pre-simulation deadlock and protocol-safety verification",
            _load_verify,
        ),
        Subcommand(
            "campaign",
            "parallel, resumable experiment campaigns (run/report/status)",
            _load_campaign,
        ),
        Subcommand(
            "resilience",
            "fault injection, watchdog, and checkpoint/restore",
            _load_resilience,
        ),
        Subcommand(
            "serve",
            "simulation-as-a-service daemon (start/submit/status/result)",
            _load_serve,
        ),
        Subcommand(
            "cluster",
            "sharded multi-node service (start/status/route a hash ring)",
            _load_cluster,
        ),
        Subcommand(
            "chaos",
            "infrastructure fault injection and the crash-consistency audit",
            _load_chaos,
        ),
    )
}


def _subcommand_epilog() -> str:
    width = max(len(name) for name in SUBCOMMANDS)
    lines = ["tool subcommands (each owns its flags; try 'repro <name> --help'):"]
    for name, sub in SUBCOMMANDS.items():
        lines.append(f"  {name:<{width}}  {sub.help}")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce experiments from 'Reciprocal abstraction for "
        "computer architecture co-simulation' (ISPASS 2015).",
        epilog=_subcommand_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "experiment",
        choices=sorted(ALL_EXPERIMENTS) + ["table1", "all"],
        help="experiment id (E1..E11), 'table1', or 'all'",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="run the shrunken (test-sized) variant",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="override the workload seed"
    )
    parser.add_argument(
        "--check-invariants",
        action="store_true",
        help="install the runtime invariant checker (message conservation, "
        "time monotonicity, NoC credit conservation) on every co-simulation",
    )
    return parser


def _lint_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="Simulation-correctness static analysis of a Python tree.",
    )
    parser.add_argument(
        "--path",
        default=None,
        help="tree to analyse (default: the installed repro package)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (json feeds CI annotations, sarif feeds "
        "GitHub code scanning)",
    )
    parser.add_argument(
        "--deep",
        action="store_true",
        help="also run the interprocedural SIM2xx pass "
        "(repro.analysis.flow) and apply the suppression baseline",
    )
    parser.add_argument(
        "--kernels",
        action="store_true",
        help="run the SIM3xx kernel array-semantics pass "
        "(repro.analysis.arrays): lane isolation, dtype bounds, "
        "fancy-index aliasing, shape contracts; composes with --deep",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="suppression baseline file (default: .simlint-baseline.json "
        "in the working directory or the repo root)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline to suppress every current finding "
        "(deep runs only); exits 0",
    )
    parser.add_argument(
        "--prefix",
        default=None,
        help="prepend to file paths in SARIF output (e.g. src/repro/)",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print per-rule finding counts and analyzer coverage for "
        "both passes, then exit 0",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="summary cache directory for --deep (default: "
        "$REPRO_LINT_CACHE or .simlint_cache)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the --deep summary cache",
    )
    args = parser.parse_args(argv)
    import json
    import os
    from pathlib import Path

    from ..analysis.flow import render_sarif, write_baseline
    from ..analysis.simlint import (
        default_lint_root,
        render_json,
        render_report,
        render_stats,
        run_lint,
    )

    root = Path(args.path) if args.path else default_lint_root()
    if not root.exists():
        # A typo'd --path must not read as "clean" to CI.
        error = f"path {root} does not exist"
        json_error = json.dumps({"ok": False, "error": error})
        print(json_error if args.format == "json" else f"simlint: {error}")
        return 2

    if args.kernels and not args.deep:
        families: Tuple[str, ...] = ("kernels",)
    elif args.deep or args.stats or args.update_baseline:
        families = ("classic", "deep") + (("kernels",) if args.kernels else ())
    else:
        families = ("classic",)
    repo_baseline = default_lint_root().parent.parent / ".simlint-baseline.json"
    if args.baseline:
        baseline_path: Optional[Path] = Path(args.baseline)
    else:
        baseline_path = next(
            (c for c in (Path.cwd() / ".simlint-baseline.json", repo_baseline) if c.exists()),
            None,
        )
    # the classic family alone reads no baseline; an update starts from none
    reads_baseline = families != ("classic",) and not args.update_baseline
    cache_dir = None if args.no_cache else Path(
        args.cache_dir or os.environ.get("REPRO_LINT_CACHE") or ".simlint_cache"
    )
    report = run_lint(
        [root],
        families,
        cache_dir=cache_dir,
        baseline_path=baseline_path if reads_baseline else None,
    )

    if args.update_baseline:
        target = baseline_path or repo_baseline
        count = write_baseline(target, report.violations)
        print(f"simlint: baseline updated ({count} finding(s) -> {target})")
        return 0
    if args.stats:
        print(render_stats(report, families))
        # statistics report, they do not gate -- except on a kernel that
        # indexes state its contract does not declare: the numbers would
        # then describe an analysis with a hole in it
        return 1 if report.stats.get("undeclared_fields") else 0
    if args.format == "sarif":
        print(render_sarif(report.violations, prefix=args.prefix))
    elif args.format == "json":
        print(render_json(report.violations))
    else:
        print(render_report(report.violations))
        if report.suppressed:
            print(f"simlint: {report.suppressed} baselined finding(s) suppressed")
    return 1 if report.violations else 0


def _run_one(eid: str, quick: bool, seed: Optional[int]) -> None:
    runner = ALL_EXPERIMENTS[eid]
    kwargs = {"quick": quick}
    if seed is not None:
        kwargs["seed"] = seed
    start = time.perf_counter()
    result = runner(**kwargs)
    elapsed = time.perf_counter() - start
    print(result.render())
    print(f"\n  [{eid} completed in {elapsed:.1f}s]\n")


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # Tool subcommands own their flags: dispatch through the registry
    # before argparse so the experiment chooser stays a simple positional.
    if argv and argv[0] in SUBCOMMANDS:
        return SUBCOMMANDS[argv[0]].load()(argv[1:])
    args = build_parser().parse_args(argv)
    if args.check_invariants:
        set_check_invariants(True)
    try:
        if args.experiment == "table1":
            print(run_table1())
            return 0
        targets = (
            sorted(ALL_EXPERIMENTS) if args.experiment == "all" else [args.experiment]
        )
        for eid in targets:
            _run_one(eid, args.quick, args.seed)
        return 0
    finally:
        if args.check_invariants:
            set_check_invariants(False)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
