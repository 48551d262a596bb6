"""``selftest``: the benchmark checks itself against its own contract.

Runs all five workloads at 1/20 size in both passes and asserts that
``BENCHMARK.json`` stays within the driver's limits, that every metric it
names is emitted with its unit, and that a planted golden mismatch flips
the failure count and the exit code.
"""

from __future__ import annotations

import argparse
import json
import re
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Sequence

from . import harness
from .cli import run_child

__all__ = ["main"]

SIZE = 0.05
SECONDS = 0.5
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
#: the workload whose golden entry the planted-mismatch check corrupts
PLANT_IN = "cosim_batch4_16"


def _check_contract(contract: Dict[str, Any], problems: List[str]) -> None:
    if set(contract) != {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}:
        problems.append(f"BENCHMARK.json keys are {sorted(contract)}")
    limits = (("workloads", 2, 8), ("end_to_end", 1, 16), ("per_layer", 1, 128))
    names: List[str] = []
    for section, low, high in limits:
        entries = contract[section]
        if not low <= len(entries) <= high:
            problems.append(f"{section} has {len(entries)} entries, allowed {low}..{high}")
        names += [entry["name"] for entry in entries]
    for name in names:
        if not NAME_RE.fullmatch(name):
            problems.append(f"name {name!r} is outside [A-Za-z0-9_.-]")
    if len(set(names)) != len(names):
        problems.append("a name is used twice")
    setup = [e for e in contract["end_to_end"] if e["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("end_to_end lacks setup_s in s, lower is better")
    for entry in contract["end_to_end"]:
        if not 0 < entry["bound"] <= 0.25:
            problems.append(f"{entry['name']} bound {entry['bound']} is outside (0, 0.25]")


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger selftest")
    parser.add_argument("--regen-golden", action="store_true",
                        help="rewrite the 1/20-size entries of golden.json")
    args = parser.parse_args(argv)
    contract = harness.load_contract()
    problems: List[str] = []
    _check_contract(contract, problems)
    size = ["--size", repr(SIZE)]

    def one(job):
        workload, trace = job
        extra = size + (["--regen-golden"] if args.regen_golden and not trace else [])
        return run_child(workload, harness.GOLDEN_SEED, SECONDS, bool(trace), extra,
                         echo=False)

    jobs = [(entry["name"], trace) for entry in contract["workloads"] for trace in (0, 1)]
    # Two at a time (the host has two cores): only names, units and
    # correctness are checked here, never a timing.
    with ThreadPoolExecutor(max_workers=1 if args.regen_golden else 2) as pool:
        results = list(pool.map(one, jobs))
    for result in results:
        label = f"{result['workload']} trace={result['trace']}"
        expected = harness.metric_units(contract, bool(result["trace"]))
        emitted = {name: metric.get("unit") for name, metric in result["metrics"].items()}
        if result["returncode"] != 0 or not result["correct"]:
            problems.append(f"{label}: exit {result['returncode']}, "
                            f"{result['failed']} of {result['attempted']} failed")
        if emitted != expected:
            wrong = sorted(set(expected.items()) ^ set(emitted.items()))
            problems.append(f"{label}: metrics differ from BENCHMARK.json: {wrong[:6]}")
        print(f"selftest: {label}: {len(emitted)} metrics, "
              f"{result['attempted']} operations, {result['failed']} failed")

    # A planted golden mismatch must be caught.
    golden = json.loads(harness.GOLDEN_PATH.read_text())
    key = f"{PLANT_IN}@{SIZE:g}"
    if key not in golden:
        problems.append(f"golden.json has no {key}; run selftest --regen-golden")
    else:
        golden[key]["lanes"][0]["deliveries"] += 1
        workdir = harness.make_workdir()
        try:
            planted = workdir / "golden.json"
            planted.write_text(json.dumps(golden))
            result = run_child(PLANT_IN, harness.GOLDEN_SEED, SECONDS, False,
                               size + ["--golden", str(planted)], echo=False)
        finally:
            harness.remove_workdir(workdir)
        caught = result["returncode"] != 0 and result["failed"] > 0 and not result["correct"]
        print(f"selftest: planted golden mismatch {'caught' if caught else 'MISSED'}")
        if not caught:
            problems.append("a planted golden mismatch did not fail the run")

    for problem in problems:
        print(f"selftest: FAIL: {problem}")
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0
