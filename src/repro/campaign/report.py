"""Reassemble experiment tables and figures from a campaign store.

``campaign report`` renders exactly what the sequential ``run_eN`` would
have printed — same tables, same notes, same ASCII figures — but from the
stored job payloads, without re-simulating anything.  ``campaign status``
summarizes the store itself: per-experiment job counts, attempts, and
wall-time provenance.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..harness.experiments import ExperimentResult
from ..harness.persist import save_result
from ..harness.report import format_table
from .spec import get_experiment
from .store import _STATUSES, ResultStore

__all__ = ["assemble_results", "campaign_report", "campaign_status", "save_results"]

def assemble_results(
    store: ResultStore, eids: Optional[Sequence[str]] = None
) -> List[Tuple[str, int, ExperimentResult]]:
    """Rebuild every fully-completed ``(eid, replicate)`` result.

    Returns ``(eid, replicate, result)`` tuples in store order.  Partially
    completed groups are skipped — their gaps are what ``campaign status``
    is for, and a half-assembled sweep table would silently lie.  Only the
    jobs of the spec's current grid are assembled: a store resumed after
    an experiment's points changed keeps its old rows, which no longer fit
    the assembler.
    """
    wanted = list(eids) if eids is not None else store.eids()
    spec = store.campaign_spec()
    grid = {job.job_id for job in spec.expand()}
    out: List[Tuple[str, int, ExperimentResult]] = []
    for eid in wanted:
        experiment = get_experiment(eid)
        for replicate in range(spec.replicates):
            jobs = [
                job
                for job in store.jobs_for(eid, replicate=replicate)
                if job.job_id in grid
            ]
            if not jobs or any(job.status != "done" for job in jobs):
                continue
            records = [job.record() for job in jobs]
            result = experiment.assemble(
                records, spec.quick, spec.seed_for(eid, replicate)
            )
            out.append((eid, replicate, result))
    return out


def save_results(store: ResultStore, directory: str | Path) -> List[Path]:
    """Persist every assembled result as JSON under ``directory``.

    Replicate 0 gets the plain ``<eid>.json`` name (what
    :func:`repro.harness.persist.load_all` and the regression tooling
    expect); later replicates get ``<eid>-rep<k>.json``.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths: List[Path] = []
    for eid, replicate, result in assemble_results(store):
        name = f"{eid}.json" if replicate == 0 else f"{eid}-rep{replicate}.json"
        path = directory / name
        save_result(result, path)
        paths.append(path)
    return paths


def campaign_report(
    store: ResultStore,
    eids: Optional[Sequence[str]] = None,
    save_dir: Optional[str | Path] = None,
) -> str:
    """The rendered tables/figures for every completed experiment."""
    assembled = assemble_results(store, eids)
    chunks: List[str] = []
    for eid, replicate, result in assembled:
        if replicate:
            chunks.append(f"--- {eid} replicate {replicate} ---")
        chunks.append(result.render())
    incomplete = _incomplete_eids(store, eids)
    if incomplete:
        chunks.append(
            "incomplete (run with --resume to finish): " + ", ".join(incomplete)
        )
    if not assembled and not incomplete:
        chunks.append("campaign store holds no jobs")
    if save_dir is not None:
        paths = save_results(store, save_dir)
        chunks.append(f"saved {len(paths)} result file(s) under {save_dir}")
    return "\n\n".join(chunks)


def _incomplete_eids(
    store: ResultStore, eids: Optional[Sequence[str]] = None
) -> List[str]:
    wanted = set(eids) if eids is not None else None
    out = []
    for eid, tally in sorted(store.counts_by_eid().items()):
        if wanted is not None and eid not in wanted:
            continue
        missing = sum(tally.values()) - tally["done"]
        if missing:
            out.append(f"{eid} ({missing} of {sum(tally.values())} jobs unfinished)")
    return out


def campaign_status(store: ResultStore) -> str:
    """Per-experiment job counts plus per-job provenance.

    Only the jobs of the spec's current grid are counted and listed; rows
    a resumed store kept from an earlier grid get one line of their own.
    """
    spec = store.campaign_spec()
    grid = {job.job_id for job in spec.expand()}
    jobs = store.all_jobs()
    on_grid = [job for job in jobs if job.job_id in grid]
    counts: Dict[str, Dict[str, int]] = {}
    for job in on_grid:
        tally = counts.setdefault(job.eid, dict.fromkeys(_STATUSES, 0))
        tally[job.status] += 1
    summary_rows = [
        (eid, *(tally[status] for status in _STATUSES))
        for eid, tally in sorted(counts.items())
    ]
    lines = [
        format_table(
            ["eid", *_STATUSES],
            summary_rows,
            title=f"Campaign {spec.spec_hash} ({store.path})",
        )
    ]
    off_grid = Counter(job.eid for job in jobs if job.job_id not in grid)
    if off_grid:
        kept = ", ".join(f"{eid} {n}" for eid, n in sorted(off_grid.items()))
        lines.append(f"off the current grid, not counted: {kept} job(s)")
    job_rows = [
        (
            job.job_id,
            job.eid,
            job.status,
            job.attempts,
            job.worker or "-",
            job.started_at or "-",
            job.wall_s if job.wall_s is not None else "-",
        )
        for job in on_grid
    ]
    lines.append("")
    lines.append(
        format_table(
            ["job", "eid", "status", "attempts", "worker", "started_at", "wall_s"],
            job_rows,
            title="Job provenance",
        )
    )
    return "\n".join(lines)
