"""``repro.campaign`` — parallel, resumable experiment campaigns.

A *campaign* turns an experiment sweep (experiment id x sweep point x seed
replicate) into a grid of independent, content-hashed jobs, executes them on
a ``multiprocessing`` worker pool, and records every outcome in a SQLite
job store.  Because each job's identity (and therefore its seed) is derived
purely from the campaign spec, results are bit-identical regardless of how
many workers ran them — and a campaign killed mid-run resumes exactly where
it stopped.

Modules
-------

``spec``    job/campaign specs, content-hash ids, the experiment registry
            (the experiment table plus the ``demo`` smoke sweeps)
``store``   the SQLite-backed job + result store (status, provenance, rows)
``pool``    the host-side worker pool (fresh process per job, timeout kill)
``engine``  the dispatch loop: claim, submit, retry, progress, summary
``report``  reassemble :class:`~repro.harness.experiments.ExperimentResult`
            tables/figures from the store without re-simulating
``cli``     ``python -m repro campaign {run,report,status}``
"""

from .engine import CampaignEngine, CampaignSummary, run_experiment_parallel
from .report import assemble_results, campaign_report, campaign_status
from .spec import (
    REGISTRY,
    CampaignSpec,
    JobSpec,
    execute_job,
    get_experiment,
    register,
)
from .store import ResultStore

__all__ = [
    "CampaignEngine",
    "CampaignSummary",
    "run_experiment_parallel",
    "assemble_results",
    "campaign_report",
    "campaign_status",
    "REGISTRY",
    "CampaignSpec",
    "JobSpec",
    "execute_job",
    "get_experiment",
    "register",
    "ResultStore",
]
