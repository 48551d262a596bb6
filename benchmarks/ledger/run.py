"""Driver entry point of the perf ledger.

``python3 benchmarks/ledger/run.py --workload W --seed N --seconds S --trace T``
runs one workload in this (fresh) process and prints one JSON object as
the last line of standard output; ``run`` / ``compare`` / ``selftest`` as
the first argument select the human-facing subcommands instead.
"""

import time

PROCESS_START = time.perf_counter()  # set-up time is counted from here

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[2]

if __name__ == "__main__":
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"ledger: no program to measure: {ROOT / 'src' / 'repro'} is missing")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from benchmarks.ledger.cli import main

    sys.exit(main(sys.argv[1:], process_start=PROCESS_START))
