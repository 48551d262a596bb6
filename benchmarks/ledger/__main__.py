"""``PYTHONPATH=src python -m benchmarks.ledger run|compare|selftest``."""

import sys
import time

from .cli import main

sys.exit(main(sys.argv[1:], process_start=time.perf_counter()))
