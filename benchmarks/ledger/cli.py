"""Command line of the perf ledger.

Driver form (one workload, this process, one JSON result line)::

    python3 benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1

Human form (every workload, each in its own fresh subprocess)::

    PYTHONPATH=src python -m benchmarks.ledger run [--seed 42] [--workload NAME]
        [--traced] [--runs N] [--out FILE] [--regen-golden]
    PYTHONPATH=src python -m benchmarks.ledger compare A.json [B.json ...]
    PYTHONPATH=src python -m benchmarks.ledger selftest
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Sequence

from . import harness
from .harness import Context, Outcome, WatchdogTimeout

__all__ = ["main", "run_child"]


def _workload_runner(name: str):
    from . import cosim, service

    for module in (cosim, service):
        if name in module.WORKLOADS:
            return module.run
    raise SystemExit(f"ledger: unknown workload {name!r}")


def _one_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="benchmarks/ledger/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=harness.GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", type=float, default=1.0,
                        help="input-size factor (the self-test uses 0.05)")
    parser.add_argument("--golden", type=Path, default=harness.GOLDEN_PATH)
    parser.add_argument("--regen-golden", action="store_true")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up seconds, tear down")
    return parser


def run_one(argv: Sequence[str], process_start: float) -> int:
    """The driver contract: one workload, one result line."""
    args = _one_parser().parse_args(argv)
    contract = harness.load_contract()
    seconds = args.seconds if args.seconds is not None else contract["run_seconds"]
    ctx = Context(
        workload=args.workload, seed=args.seed, seconds=seconds,
        trace=bool(args.trace), size=args.size, process_start=process_start,
        golden_path=args.golden, regen_golden=args.regen_golden,
        setup_only=args.setup_only,
    )
    runner = _workload_runner(ctx.workload)
    harness.arm_watchdog()
    stolen = harness.host_steal_s()
    try:
        outcome = runner(ctx)
    except WatchdogTimeout as exc:
        # Whatever was still to run counts as one failed operation.
        outcome = Outcome(attempted=1)
        outcome.fail(str(exc))
    if ctx.setup_only:
        return 0
    # stolen CPU over the run's wall: a run with more than a few percent
    # measured the neighbours, not the program
    outcome.detail["host_steal_share"] = (
        (harness.host_steal_s() - stolen) / ctx.since_start())
    return harness.emit(ctx, outcome, harness.metric_units(contract, ctx.trace))


def run_child(workload: str, seed: int, seconds: float, trace: bool,
              extra: Sequence[str] = (), echo: bool = True) -> Dict[str, Any]:
    """Run one workload in a fresh subprocess; returns its parsed result
    (plus ``returncode``), or a failed stand-in when it printed none."""
    command = [
        sys.executable, str(harness.HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(int(trace)),
        *extra,
    ]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=harness.WATCHDOG_S + 30)
    if echo:
        sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        table = lines[:-1]
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        table = lines
    if echo:
        print("\n".join(table))
    result.update(workload=workload, seed=seed, trace=int(trace),
                  returncode=done.returncode)
    return result


def run_all(argv: Sequence[str]) -> int:
    contract = harness.load_contract()
    names = [entry["name"] for entry in contract["workloads"]]
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger run")
    parser.add_argument("--seed", type=int, default=harness.GOLDEN_SEED)
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeatable; default: all five")
    parser.add_argument("--traced", action="store_true",
                        help="the per-layer pass instead of the end-to-end pass")
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"])
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload, on seeds seed, seed+1, ...")
    parser.add_argument("--out", type=Path, default=None,
                        help="write every result to this JSON file (for compare)")
    parser.add_argument("--regen-golden", action="store_true")
    args = parser.parse_args(argv)

    extra: List[str] = ["--regen-golden"] if args.regen_golden else []
    results = []
    for workload in args.workload or names:
        for index in range(args.runs):
            results.append(run_child(workload, args.seed + index, args.seconds,
                                     args.traced, extra))
            print()
    if args.out is not None:
        document = {"schema": 1, "seconds": args.seconds, "results": results}
        args.out.write_text(json.dumps(document, indent=1) + "\n")
    bad = [r for r in results if not r["correct"] or r["returncode"] != 0]
    for result in bad:
        print(f"ledger: {result['workload']} seed {result['seed']}: "
              f"{result['failed']} of {result['attempted']} operations failed",
              file=sys.stderr)
    return 1 if bad else 0


def main(argv: Sequence[str], process_start: float) -> int:
    if argv and argv[0] == "run":
        return run_all(argv[1:])
    if argv and argv[0] == "compare":
        from .compare import main as compare_main

        return compare_main(argv[1:])
    if argv and argv[0] == "selftest":
        from .selftest import main as selftest_main

        return selftest_main(argv[1:])
    return run_one(argv, process_start)
