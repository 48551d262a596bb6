#!/usr/bin/env python3
"""Smoke test for the deep lint pass and its summary cache (CI gate).

1. **Cold run** — ``lint --deep`` over the shipped tree with a fresh
   cache directory must exit 0 against the committed baseline and
   report zero cache hits.
2. **Warm run** — an immediate rerun must hit the cache for every
   module, produce the identical report, and be measurably faster
   (parsing dominates the cold run, so we assert warm <= 0.8 * cold;
   the threshold is deliberately loose for noisy CI machines).
3. **Incremental run** — touching one file's *content* must re-extract
   exactly that file and leave every other summary cached.

Run from the repository root: ``python scripts/lint_deep_smoke.py``.
Exits non-zero (with a diagnostic) on any violation.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.analysis import run_lint  # noqa: E402

PACKAGE = REPO / "src" / "repro"
BASELINE = REPO / ".simlint-baseline.json"
#: what ``python -m repro lint --deep`` runs
DEEP = ("classic", "deep")


def fail(msg: str) -> None:
    print(f"FAIL: {msg}")
    sys.exit(1)


def timed_run(cache_dir: Path):
    start = time.perf_counter()
    report = run_lint(
        [PACKAGE], DEEP, cache_dir=cache_dir, baseline_path=BASELINE
    )
    return report, time.perf_counter() - start


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="simlint-smoke-"))
    try:
        cache_dir = workdir / "cache"

        cold, cold_s = timed_run(cache_dir)
        if cold.violations:
            fail(
                "deep lint is not clean against the baseline: "
                + "; ".join(
                    f"{v.path}:{v.line} {v.code}" for v in cold.violations
                )
            )
        if cold.stats["cache_hits"] != 0:
            fail(f"cold run reported {cold.stats['cache_hits']} cache hits")
        modules = cold.stats["modules"]
        if cold.stats["cache_misses"] != modules:
            fail("cold run did not miss once per module")
        print(
            f"cold run: {modules} modules, "
            f"{cold.stats['call_edges']} call edges, {cold_s:.2f}s"
        )

        warm, warm_s = timed_run(cache_dir)
        if warm.violations != cold.violations:
            fail("warm run changed the findings")
        if warm.stats["cache_hits"] != modules:
            fail(
                f"warm run hit {warm.stats['cache_hits']}/{modules} modules"
            )
        if warm.stats["cache_misses"] != 0:
            fail(f"warm run re-extracted {warm.stats['cache_misses']} files")
        print(f"warm run: all {modules} summaries cached, {warm_s:.2f}s")
        if warm_s > 0.8 * cold_s:
            fail(
                f"warm run not faster: cold {cold_s:.2f}s vs warm "
                f"{warm_s:.2f}s (expected warm <= 0.8 * cold)"
            )

        # Incremental: re-analyze a copied tree after editing one file.
        tree = workdir / "tree"
        shutil.copytree(PACKAGE, tree)
        inc_cache = workdir / "inc-cache"
        run_lint([tree], DEEP, cache_dir=inc_cache, baseline_path=BASELINE)
        target = tree / "errors.py"
        target.write_text(
            target.read_text(encoding="utf-8") + "\n# touched\n",
            encoding="utf-8",
        )
        inc = run_lint([tree], DEEP, cache_dir=inc_cache, baseline_path=BASELINE)
        if inc.stats["cache_misses"] != 1:
            fail(
                "editing one file re-extracted "
                f"{inc.stats['cache_misses']} files (expected 1)"
            )
        if inc.stats["cache_hits"] != modules - 1:
            fail("unedited files were not served from cache")
        print("incremental run: 1 re-extract after a single-file edit")

        speedup = cold_s / warm_s if warm_s else float("inf")
        print(f"OK: deep lint clean; warm speedup {speedup:.1f}x")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
