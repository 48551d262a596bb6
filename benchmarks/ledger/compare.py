"""``compare A.json [B.json ...]``: the verdict table every later claim uses.

Each file is what ``run --runs N --out FILE`` wrote.  One row per
(workload, end-to-end metric) and file: the median and quartiles over the
file's runs, the run-to-run spread (quartile distance over median), and —
for every file after the first — the ratio of its median to the first
file's (the base of every ratio is file A), the bound from
``BENCHMARK.json``, and a verdict:

* ``worse``      the median is worse than A's by more than the bound;
* ``unresolved`` it is not, but a spread (A's or this file's) is wider
  than the bound, so "unchanged" cannot be claimed either;
* ``ok``         otherwise.

Exit code 1 when any row is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

from . import harness

__all__ = ["main", "spread", "verdict"]


def spread(values: Sequence[float]) -> Tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median) as the driver computes them."""
    if len(values) < 2:
        value = values[0] if values else 0.0
        return value, value, value, 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def verdict(base: Sequence[float], other: Sequence[float], better: str,
            bound: float) -> Tuple[float, str]:
    """(ratio other/base, ``ok`` | ``worse`` | ``unresolved``)."""
    base_median, _, _, base_spread = spread(base)
    median, _, _, other_spread = spread(other)
    ratio = median / base_median if base_median else 0.0
    loss = 1.0 - ratio if better == "higher" else ratio - 1.0
    if loss > bound:
        return ratio, "worse"
    if max(base_spread, other_spread) > bound:
        return ratio, "unresolved"
    return ratio, "ok"


def _samples(path: Path) -> Dict[Tuple[str, str], List[float]]:
    """(workload, metric) -> one value per untraced run in the file."""
    out: Dict[Tuple[str, str], List[float]] = {}
    for result in json.loads(path.read_text())["results"]:
        if result.get("trace"):
            continue
        for name, metric in result["metrics"].items():
            out.setdefault((result["workload"], name), []).append(metric["value"])
    return out


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger compare")
    parser.add_argument("files", nargs="+", type=Path)
    args = parser.parse_args(argv)
    contract = harness.load_contract()
    specs: Dict[str, Any] = {entry["name"]: entry for entry in contract["end_to_end"]}
    files = [(path.name, _samples(path)) for path in args.files]
    base_name, base = files[0]

    print(f"{'workload':20s} {'metric':14s} {'file':18s} {'n':>3s} {'median':>12s} "
          f"{'q1':>12s} {'q3':>12s} {'spread':>7s} {'ratio/A':>8s} {'bound':>6s} verdict")
    worse = 0
    for workload in [entry["name"] for entry in contract["workloads"]]:
        for name, spec in specs.items():
            for label, samples in files:
                values = samples.get((workload, name), [])
                if not values:
                    continue
                median, q1, q3, rel = spread(values)
                row = (f"{workload:20s} {name:14s} {label:18s} {len(values):3d} "
                       f"{median:12.4f} {q1:12.4f} {q3:12.4f} {rel:7.3f}")
                if samples is base:
                    mark = "wide" if rel > spec["bound"] else ""
                    print(f"{row} {'(base)':>8s} {spec['bound']:6.2f} {mark}")
                    continue
                ratio, word = verdict(base.get((workload, name), values), values,
                                      spec["better"], spec["bound"])
                worse += word == "worse"
                print(f"{row} {ratio:8.3f} {spec['bound']:6.2f} {word}")
    print(f"# base of every ratio: {base_name}; spread = (q3 - q1) / median over runs; "
          "units as in BENCHMARK.json")
    return 1 if worse else 0
