"""Campaign and job specifications, content-hashed ids, and the registry.

A :class:`CampaignSpec` names a grid — experiment ids x their sweep points
x seed replicates — and expands it into :class:`JobSpec` rows.  A job's id
is a content hash of everything that determines its result (experiment,
point, quick flag, seed), so the same spec always expands to the same ids:
that is what lets the store skip completed jobs on ``--resume`` and what
makes results independent of worker count or scheduling order.

The registry is the experiment table
(:data:`repro.harness.experiments.ALL_EXPERIMENTS`) as it is, plus two
campaign extras.  Every :class:`~repro.harness.experiments.Experiment`
decomposes into one job per sweep point; single-point experiments' one job
carries the full persisted result.  ``demo`` is a deliberately tiny sweep
(2x2 targets, milliseconds per job) for smoke-testing pools and resume
logic without burning minutes of simulation; ``demo-noc`` is its
engine-aware twin.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.config import TargetConfig
from ..errors import ConfigError
from ..harness.experiments import ALL_EXPERIMENTS, Experiment, ExperimentResult
from ..harness.runner import run_cosim
from ..util import derive_seed

__all__ = [
    "JobSpec",
    "CampaignSpec",
    "REGISTRY",
    "register",
    "get_experiment",
    "execute_job",
    "execute_job_batch",
    "job_wire",
    "jobs_batchable",
]

#: bump when the job-hash preimage or payload layout changes incompatibly
SPEC_VERSION = 1


def _canonical_json(data: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace drift."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _content_hash(data: Any) -> str:
    return hashlib.sha256(_canonical_json(data).encode("utf-8")).hexdigest()[:16]


# ----------------------------------------------------------------------
# Campaign extras: the smoke sweeps
# ----------------------------------------------------------------------
def _demo_points(quick: bool) -> List[Any]:
    return [[i] for i in range(2 if quick else 4)]


def _demo_run_point(point: Any, quick: bool, seed: int) -> Any:
    """A milliseconds-scale real co-simulation (2x2 CMP, abstract network)."""
    (index,) = point
    config = TargetConfig(
        width=2,
        height=2,
        app="water",
        seed=derive_seed(seed, "demo", index),
        scale=0.2,
        network_model="fixed",
    )
    result = run_cosim(config, cache=False)
    return [f"job{index}", float(result.finish_cycle or 0), result.mean_latency()]


def _demo_assemble(records: Sequence[Any], quick: bool, seed: int):
    return ExperimentResult(
        eid="demo",
        title="Campaign smoke sweep (tiny 2x2 co-simulations)",
        headers=["job", "finish", "mean_lat"],
        rows=list(records),
        notes={"jobs": float(len(records))},
    )


# -- demo-noc: the engine-aware smoke sweep -----------------------------
#
# Like ``demo`` but on the detailed simd network model, with the point
# declared via ``point_config``/``point_record`` — the exemplar (and smoke
# test) for engine provenance and lockstep batching.  Every point shares
# one 4x4 mesh shape, so a serve daemon holding K of these dispatches them
# as lanes of a single batched kernel invocation.


def _demo_noc_config(point: Any, quick: bool, seed: int) -> TargetConfig:
    (index,) = point
    return TargetConfig(
        width=4,
        height=4,
        app="water",
        seed=derive_seed(seed, "demo-noc", index),
        scale=0.05 if quick else 0.1,
        network_model="simd",
        quantum=4,
    )


def _demo_noc_record(result: Any, point: Any, quick: bool, seed: int) -> Any:
    # Deterministic fields only: records must be byte-identical across
    # engines and batch sizes (no wall-clock values).
    (index,) = point
    return [
        f"job{index}",
        float(result.finish_cycle or 0),
        result.mean_latency(),
        float(result.deliveries),
    ]


def _demo_noc_assemble(records: Sequence[Any], quick: bool, seed: int):
    return ExperimentResult(
        eid="demo-noc",
        title="Engine smoke sweep (4x4 simd-model co-simulations)",
        headers=["job", "finish", "mean_lat", "deliveries"],
        rows=list(records),
        notes={"jobs": float(len(records))},
    )


#: experiment id -> :class:`Experiment` (extensible via :func:`register`)
REGISTRY: Dict[str, Experiment] = {
    **ALL_EXPERIMENTS,
    "demo": Experiment(
        eid="demo",
        points=_demo_points,
        run_point=_demo_run_point,
        assemble=_demo_assemble,
        default_seed=1,
    ),
    "demo-noc": Experiment(
        eid="demo-noc",
        points=_demo_points,
        run_point=lambda point, quick, seed: _demo_noc_record(
            run_cosim(_demo_noc_config(point, quick, seed), cache=False),
            point, quick, seed,
        ),
        assemble=_demo_noc_assemble,
        default_seed=1,
        point_config=_demo_noc_config,
        point_record=_demo_noc_record,
    ),
}


def register(experiment: Experiment) -> None:
    """Add (or replace) a campaign experiment.

    Registered callables must be importable/inheritable by worker processes:
    with the default ``fork`` start method anything defined before the pool
    starts works; under ``spawn`` they must live at module top level.
    """
    REGISTRY[experiment.eid] = experiment


def get_experiment(eid: str) -> Experiment:
    try:
        return REGISTRY[eid]
    except KeyError:
        known = ", ".join(sorted(REGISTRY))
        raise ConfigError(f"unknown campaign experiment {eid!r}; known: {known}") from None


# ----------------------------------------------------------------------
# Job and campaign specs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class JobSpec:
    """One independent unit of work, identified by a content hash."""

    eid: str
    point_index: int
    point: Any
    quick: bool
    seed: int
    replicate: int = 0

    @cached_property
    def job_id(self) -> str:
        """Content hash of everything that determines this job's result.

        Hashed once per instance (the fields are frozen; ``cached_property``
        writes the instance ``__dict__`` directly, which a frozen dataclass
        still has) — the scheduler, queue and router read it repeatedly.
        """
        return _content_hash(self.to_dict())

    def to_dict(self) -> dict:
        return {
            "v": SPEC_VERSION,
            "eid": self.eid,
            "point_index": self.point_index,
            "point": self.point,
            "quick": self.quick,
            "seed": self.seed,
            "replicate": self.replicate,
        }

    def to_json(self) -> str:
        return _canonical_json(self.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "JobSpec":
        if data.get("v") != SPEC_VERSION:
            raise ConfigError(
                f"unsupported job-spec version {data.get('v')!r} "
                f"(this library reads version {SPEC_VERSION})"
            )
        return cls(
            eid=data["eid"],
            point_index=data["point_index"],
            point=data["point"],
            quick=data["quick"],
            seed=data["seed"],
            replicate=data.get("replicate", 0),
        )

    @classmethod
    def from_json(cls, text: str) -> "JobSpec":
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class CampaignSpec:
    """A campaign: which experiments, at which size, with which seeds.

    The grid is ``experiments x points(quick) x replicates``.  Replicate 0
    uses each experiment's own seed (``seed`` if given, else the
    experiment's sequential default) so campaign output matches a
    sequential ``run_eN`` exactly; replicates >= 1 derive fresh seeds with
    :func:`repro.util.derive_seed` — one seed per (experiment, replicate),
    shared by all of that experiment's points, because cross-point
    aggregates (e.g. E7's error vs its quantum-1 reference) only make
    sense within one seed.
    """

    experiments: Tuple[str, ...]
    quick: bool = False
    seed: Optional[int] = None
    replicates: int = 1

    def __post_init__(self) -> None:
        if not self.experiments:
            raise ConfigError("a campaign needs at least one experiment")
        deduped: List[str] = []
        for eid in self.experiments:
            get_experiment(eid)  # validates
            if eid not in deduped:
                deduped.append(eid)
        object.__setattr__(self, "experiments", tuple(deduped))
        if self.replicates < 1:
            raise ConfigError(f"replicates must be >= 1, got {self.replicates}")

    def seed_for(self, eid: str, replicate: int) -> int:
        base = self.seed if self.seed is not None else get_experiment(eid).default_seed
        if replicate == 0:
            return base
        return derive_seed(base, eid, replicate)

    def expand(self) -> List[JobSpec]:
        """The full job grid, in deterministic order."""
        jobs: List[JobSpec] = []
        for eid in self.experiments:
            experiment = get_experiment(eid)
            points = experiment.points(self.quick)
            for replicate in range(self.replicates):
                seed = self.seed_for(eid, replicate)
                for index, point in enumerate(points):
                    jobs.append(
                        JobSpec(
                            eid=eid,
                            point_index=index,
                            point=point,
                            quick=self.quick,
                            seed=seed,
                            replicate=replicate,
                        )
                    )
        return jobs

    def to_dict(self) -> dict:
        return {
            "v": SPEC_VERSION,
            "experiments": list(self.experiments),
            "quick": self.quick,
            "seed": self.seed,
            "replicates": self.replicates,
        }

    def to_json(self) -> str:
        return _canonical_json(self.to_dict())

    @property
    def spec_hash(self) -> str:
        return _content_hash(self.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignSpec":
        if data.get("v") != SPEC_VERSION:
            raise ConfigError(
                f"unsupported campaign-spec version {data.get('v')!r} "
                f"(this library reads version {SPEC_VERSION})"
            )
        return cls(
            experiments=tuple(data["experiments"]),
            quick=data["quick"],
            seed=data["seed"],
            replicates=data.get("replicates", 1),
        )

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        return cls.from_dict(json.loads(text))


def _run_point(experiment: Experiment, spec: JobSpec) -> dict:
    """Run one point; an engine-aware one also gets engine provenance.

    The provenance is what :func:`~repro.engine.api.resolve_engine` decides
    for the point's config — the decision ``build_cosim`` makes for the run.
    The ``_provenance`` key rides in the payload only as far as the store's
    ``mark_done``, which lifts it into dedicated columns — the canonical
    payload text stays byte-identical across engines.
    """
    payload = {"record": experiment.run_point(spec.point, spec.quick, spec.seed)}
    if experiment.engine_aware:
        from ..engine.api import resolve_engine  # deferred: workers import lazily

        decision = resolve_engine(
            experiment.point_config(spec.point, spec.quick, spec.seed)
        )
        payload["_provenance"] = {
            "engine": decision.name,
            "kernel_version": decision.kernel_version,
        }
    return payload


def job_wire(spec: JobSpec, checkpoint_dir: Optional[str], checkpoint_every: int) -> dict:
    """The plain-dict job :func:`execute_job` reads, from ``spec``.

    With ``checkpoint_dir`` set it carries the ``_checkpoint`` request:
    snapshot every ``checkpoint_every`` windows to
    ``<checkpoint_dir>/<job_id>.ckpt``.  The caller creates the directory.
    """
    data = spec.to_dict()
    if checkpoint_dir is not None:
        data["_checkpoint"] = {
            "path": os.path.join(checkpoint_dir, f"{spec.job_id}.ckpt"),
            "every": checkpoint_every,
        }
    return data


def execute_job(job: dict) -> dict:
    """Run one job (worker-side): look up the experiment, run its point.

    ``job`` is the plain-dict form of a :class:`JobSpec` (what travels over
    the pipe to a worker process).  The returned payload is JSON-serializable
    and goes into the store verbatim.

    Underscore keys are execution hints, not job identity:

    - ``_checkpoint`` (``{"path": ..., "every": ...}``, written by
      :func:`job_wire` when ``--checkpoint-dir`` is set) wraps execution in a
      :func:`repro.resilience.checkpoint.job_checkpoint` scope: the run
      snapshots periodically and, if a previous attempt was killed mid-run,
      resumes from its last snapshot instead of restarting from cycle 0.
    - ``_batch_members`` (a list of job dicts) turns this into a synthetic
      batch job: every member runs as one lane of a shared kernel batch and
      the payload is ``{"_batch": [{"job_id", "payload"}, ...]}``.
    """
    if "_batch_members" in job:
        return execute_job_batch(job["_batch_members"])
    checkpoint = job.get("_checkpoint")
    spec = JobSpec.from_dict({k: v for k, v in job.items() if not k.startswith("_")})
    experiment = get_experiment(spec.eid)
    if not checkpoint:
        return _run_point(experiment, spec)
    from ..resilience.checkpoint import job_checkpoint  # deferred

    with job_checkpoint(checkpoint["path"], checkpoint["every"]):
        return _run_point(experiment, spec)


def jobs_batchable(jobs: Sequence[dict]) -> Tuple[bool, str]:
    """Whether these job dicts may run as lanes of one kernel batch.

    True only when there are at least two jobs, every job's experiment is
    engine-aware, and the configs they declare agree on network shape
    (per :func:`repro.engine.batch.configs_batchable`); quanta may differ.
    """
    if len(jobs) < 2:
        return False, "batching needs at least two jobs"
    configs = []
    for job in jobs:
        spec = JobSpec.from_dict(
            {k: v for k, v in job.items() if not k.startswith("_")}
        )
        experiment = get_experiment(spec.eid)
        if not experiment.engine_aware:
            return False, f"experiment {spec.eid!r} is not engine-aware"
        configs.append(experiment.point_config(spec.point, spec.quick, spec.seed))
    from ..engine.batch import configs_batchable  # deferred

    return configs_batchable(configs)


def execute_job_batch(jobs: Sequence[dict]) -> dict:
    """Run several same-shape jobs as lanes of one batched kernel.

    Returns ``{"_batch": [{"job_id": ..., "payload": ...}, ...]}`` in job
    order; each member payload is exactly what :func:`execute_job` would
    have produced for that job, with batched-engine provenance attached.
    """
    from ..engine.batch import run_cosim_batch  # deferred

    specs: List[JobSpec] = []
    experiments: List[Experiment] = []
    configs = []
    for job in jobs:
        spec = JobSpec.from_dict(
            {k: v for k, v in job.items() if not k.startswith("_")}
        )
        experiment = get_experiment(spec.eid)
        if not experiment.engine_aware:
            raise ConfigError(
                f"experiment {spec.eid!r} cannot join a kernel batch "
                "(no point_config/point_record)"
            )
        specs.append(spec)
        experiments.append(experiment)
        configs.append(experiment.point_config(spec.point, spec.quick, spec.seed))
    batch = run_cosim_batch(configs)
    members = []
    for spec, experiment, result in zip(specs, experiments, batch.results):
        record = experiment.point_record(result, spec.point, spec.quick, spec.seed)
        members.append(
            {
                "job_id": spec.job_id,
                "payload": {
                    "record": record,
                    "_provenance": {
                        "engine": batch.engine.name,
                        "kernel_version": batch.engine.kernel_version,
                    },
                },
            }
        )
    return {"_batch": members}
