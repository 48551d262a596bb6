"""What every workload shares: the contract, the run context, the result line.

``BENCHMARK.json`` at the repository root is the contract: it names the
workloads and every end-to-end and per-layer metric with its unit.  A run
of one workload (``run.py --workload W --seed N --seconds S --trace T``)
prints every metric of the requested pass by name with its unit, then one
JSON object as the last line of standard output.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CONTRACT_PATH = ROOT / "BENCHMARK.json"
GOLDEN_PATH = HERE / "golden.json"
#: scratch space for databases and logs; inside the checkout, git-ignored
WORK_ROOT = HERE / ".work"
#: the seed whose outputs are committed in golden.json
GOLDEN_SEED = 42
#: a workload that runs longer than this reports failure instead of hanging
WATCHDOG_S = 150


class WatchdogTimeout(Exception):
    """The per-workload wall-clock budget ran out."""


def load_contract() -> Dict[str, Any]:
    return json.loads(CONTRACT_PATH.read_text())


def metric_units(contract: Dict[str, Any], trace: bool) -> Dict[str, str]:
    """Metric name -> unit for the pass ``trace`` selects."""
    section = contract["per_layer" if trace else "end_to_end"]
    return {entry["name"]: entry["unit"] for entry in section}


def summarize(samples: Sequence[float]) -> Dict[str, float]:
    """Sample count, median and quartiles of one timing."""
    values = sorted(samples)
    if not values:
        return {"n": 0, "median": 0.0, "q1": 0.0, "q3": 0.0}
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3}


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 of nothing."""
    values = sorted(samples)
    if not values:
        return 0.0
    return values[min(len(values) - 1, int(q * len(values)))]


def tail(samples: Sequence[float]) -> float:
    """The highest percentile, up to p99, with ten samples beyond it; the
    maximum when there are too few samples for any."""
    values = sorted(samples)
    if not values:
        return 0.0
    if len(values) <= 10:
        return values[-1]
    return values[min(int(0.99 * len(values)), len(values) - 11)]


def peak_rss_mib() -> float:
    """Max RSS over this process and its waited-for descendants (Linux: KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


@dataclass
class Context:
    """Everything one run of one workload is given."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    #: input-size factor; 1.0 is the committed size, the self-test uses 1/20
    size: float
    #: ``time.perf_counter()`` taken as the process's first statement
    process_start: float
    golden_path: Path = GOLDEN_PATH
    regen_golden: bool = False
    setup_only: bool = False

    @property
    def golden_key(self) -> Optional[str]:
        """Key into golden.json, or None when this run has no golden."""
        if self.seed != GOLDEN_SEED:
            return None
        return f"{self.workload}@{self.size:g}"

    def since_start(self) -> float:
        return time.perf_counter() - self.process_start


@dataclass
class Outcome:
    """What a workload hands back: metric values and the failure count."""

    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: ``summarize()`` of each timing behind the metrics, printed with them
    detail: Dict[str, Any] = field(default_factory=dict)
    #: human-readable reasons for each failure (stderr)
    problems: List[str] = field(default_factory=list)
    #: span-table entries whose symbol no longer exists (their metrics read 0)
    missing: List[str] = field(default_factory=list)

    def fail(self, reason: str) -> None:
        self.failed += 1
        self.problems.append(reason)


class Golden:
    """The committed expected outputs for seed 42 (``--regen-golden`` rewrites)."""

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.key = ctx.golden_key
        self.data: Dict[str, Any] = {}
        if ctx.golden_path.exists():
            self.data = json.loads(ctx.golden_path.read_text())

    def check(self, observed: Any, outcome: Outcome) -> None:
        """Compare ``observed`` with the golden entry (or record it)."""
        if self.key is None:
            return
        observed = json.loads(json.dumps(observed))
        if self.ctx.regen_golden:
            self.data[self.key] = observed
            self.ctx.golden_path.write_text(
                json.dumps(self.data, indent=1, sort_keys=True) + "\n"
            )
            return
        expected = self.data.get(self.key)
        if expected is None:
            print(f"ledger: no golden entry for {self.key}; run --regen-golden",
                  file=sys.stderr)
            return
        if expected != observed:
            outcome.fail(f"golden mismatch for {self.key}: expected {expected}, "
                         f"observed {observed}")


def host_steal_s() -> float:
    """CPU seconds the hypervisor has withheld from this VM so far (Linux)."""
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def make_workdir() -> Path:
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))


def remove_workdir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


def arm_watchdog(seconds: int = WATCHDOG_S) -> None:
    """SIGALRM raises :class:`WatchdogTimeout` in the main thread, so the
    workload's ``finally`` blocks still tear its processes down."""

    def on_alarm(signum, frame):
        raise WatchdogTimeout(f"workload exceeded its {seconds}s wall-clock budget")

    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(seconds)


def emit(ctx: Context, outcome: Outcome, units: Dict[str, str]) -> int:
    """Print every metric by name with its unit, then the result line."""
    for symbol in outcome.missing:
        print(f"ledger: warning: span {symbol} names a symbol that no longer "
              "exists; its metrics read 0", file=sys.stderr)
    for reason in outcome.problems:
        print(f"ledger: FAILED: {reason}", file=sys.stderr)
    unknown = sorted(set(outcome.metrics) - set(units))
    if unknown:
        raise AssertionError(f"metrics not in BENCHMARK.json: {unknown}")
    metrics = {}
    print(f"# {ctx.workload} seed={ctx.seed} seconds={ctx.seconds:g} "
          f"trace={int(ctx.trace)} size={ctx.size:g}")
    for name, summary in outcome.detail.items():
        if isinstance(summary, dict):
            print(f"# {name}: n={summary['n']} median={summary['median']:.6g} "
                  f"q1={summary['q1']:.6g} q3={summary['q3']:.6g}")
        else:
            print(f"# {name}: {summary:.6g}")
    for name, unit in units.items():
        # A layer this workload never enters spent 0 there: that is the
        # measurement, and the JSON contract wants a number for every name.
        value = float(outcome.metrics.get(name, 0.0))
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:44s} {value:16.6f} {unit}")
    share = outcome.failed / max(1, outcome.attempted)
    print(f"{'failed_share':44s} {share:16.6f} ratio "
          f"({outcome.failed} of {outcome.attempted})")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if outcome.failed == 0 else 1
