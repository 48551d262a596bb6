"""The experiment table: every reproduced experiment (E1..E11), declared once.

Each entry of :data:`ALL_EXPERIMENTS` is an :class:`Experiment` — a sweep
grid (``points``), one independent unit of work per point (``run_point``)
and a combiner (``assemble``) — shaped like mplc's
``Experiment(scenarios_list, nb_repeats)``.  Calling an entry runs its points
in order and assembles them: ``run_e3(quick=True)`` is the sequential
driver, and the campaign engine and the serve daemon fan the very same
points out as jobs, which is why their output equals a sequential run.
E1/E2/E8/E9/E10 are single-point entries whose record is the whole
persisted result.  ``quick=True`` shrinks workloads/target sizes for test
suites; the benchmark harness runs the full versions.

The detailed network in accuracy experiments is the SIMD simulator (it is
statistically interchangeable with the OO simulator — validated by E1 and
``tests/test_simd_vs_oo.py`` — and several times faster, which keeps full
sweeps tractable in pure Python).  Ground truth is always the detailed
network at quantum 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.config import TargetConfig, default_target_table
from ..errors import ConfigError
from ..noc.config import NocConfig
from ..noc.topology import Mesh
from ..util import derive_seed
from ..workloads.apps import splash_apps
from ..workloads.synthetic import SyntheticTraffic
from ..workloads.traces import TraceInjector, matched_load_synthetic
from . import metrics
from .figures import AsciiChart
from .report import format_kv, format_percent, format_table
from .runner import make_network, run_cosim, run_cosim_traced, sweep_injection
from .timing import HostTimingModel, measured_reduction

__all__ = [
    "Experiment",
    "ExperimentResult",
    "run_table1",
    "run_e1",
    "run_e2",
    "run_e3",
    "run_e4",
    "run_e5",
    "run_e6",
    "run_e7",
    "run_e8",
    "run_e9",
    "run_e10",
    "run_e11",
    "accuracy_points",
    "run_accuracy_point",
    "assemble_e3",
    "assemble_e4",
    "e5_points",
    "run_e5_point",
    "assemble_e5",
    "e6_points",
    "run_e6_point",
    "assemble_e6",
    "e7_points",
    "run_e7_point",
    "assemble_e7",
    "e11_points",
    "run_e11_point",
    "assemble_e11",
    "shipped_target_configs",
    "ALL_EXPERIMENTS",
]


def shipped_target_configs() -> List[tuple]:
    """Every distinctive ``(label, TargetConfig)`` the experiments build.

    This is the enumeration ``python -m repro verify`` (and the CI verify
    job) walks: one entry per configuration shape that differs in anything
    the verifier looks at — topology, routing, VC count, VC-selection
    policy, or network model.  Sweep dimensions the verifier is blind to
    (apps, seeds, scales, quanta) are collapsed to one representative.
    """
    configs: List[tuple] = [
        ("E1/E2 4x4 mesh, cycle network", TargetConfig(width=4, height=4)),
        (
            "E3/E4/E7-E10 4x4 mesh, SIMD network",
            TargetConfig(width=4, height=4, network_model="simd"),
        ),
        (
            "E3 abstract baselines (fixed latency)",
            TargetConfig(width=4, height=4, network_model="fixed"),
        ),
        (
            "table-shadow calibration",
            TargetConfig(width=4, height=4, network_model="table-shadow"),
        ),
    ]
    for num_vcs, depth in e5_points(quick=False):
        configs.append(
            (
                f"E5 router design point {num_vcs}vc x {depth}f",
                TargetConfig(
                    width=4,
                    height=4,
                    network_model="simd",
                    noc=NocConfig(num_vcs=num_vcs, buffer_depth=depth),
                ),
            )
        )
    for width, height in e6_points(quick=False):
        configs.append(
            (
                f"E6 measured target {width}x{height}",
                TargetConfig(width=width, height=height, network_model="simd"),
            )
        )
    return configs


@dataclass
class ExperimentResult:
    """Rows plus headline aggregates for one experiment."""

    eid: str
    title: str
    headers: List[str]
    rows: List[Sequence]
    notes: Dict[str, float] = field(default_factory=dict)
    #: optional pre-rendered ASCII figures (appended after the table)
    figures: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        # Rows normalize to tuples so persistence round-trips compare equal
        # (JSON has no tuple type) and assembled-from-store results match
        # the in-process originals exactly.
        self.rows = [tuple(row) for row in self.rows]

    def render(self) -> str:
        lines = [format_table(self.headers, self.rows, title=f"[{self.eid}] {self.title}")]
        if self.notes:
            lines.append("")
            for key, value in self.notes.items():
                shown = (
                    format_percent(value)
                    if "reduction" in key or "error" in key
                    else f"{value:.4g}"
                )
                lines.append(f"  {key}: {shown}")
        for figure in self.figures:
            lines.append("")
            lines.append(figure)
        return "\n".join(lines)


@dataclass(frozen=True)
class Experiment:
    """One experiment: its sweep grid, point function and assembler.

    Args:
        eid: experiment id (``E1``..``E11``, or a campaign extra such as
            ``demo``).
        points: ``quick -> [point, ...]`` — the sweep grid; each point must
            be JSON-serializable (it is part of a campaign job's id hash).
        run_point: ``(point, quick, seed) -> record`` — one independent unit
            of work returning a JSON-serializable record.
        assemble: ``(records, quick, seed) -> ExperimentResult`` — combine
            the records (in ``points`` order) into the experiment's table.
        default_seed: the seed used when none is given, by a call and by an
            unseeded campaign alike.
        host_time_columns: header names whose values are host wall-clock
            measurements — the sanctioned nondeterminism, excluded from
            determinism/equivalence comparisons.
        point_config: optional ``(point, quick, seed) -> TargetConfig`` —
            declares the point as *one engine-executable co-simulation*.
            Experiments that provide it (together with ``point_record``)
            get engine provenance in the campaign store and — when several
            same-shape jobs meet in serve's admission queue — lockstep
            batched execution.  ``run_point`` stays the sequential
            reference; the pair must agree with it exactly.
        point_record: optional ``(CoSimResult, point, quick, seed) ->
            record`` — the deterministic record extractor for
            ``point_config`` runs.  Must not include wall-clock fields:
            records are compared byte-for-byte across engines and batch
            sizes.
    """

    eid: str
    points: Callable[[bool], List[Any]]
    run_point: Callable[[Any, bool, int], Any]
    assemble: Callable[[Sequence[Any], bool, int], ExperimentResult]
    default_seed: int = 3
    host_time_columns: Tuple[str, ...] = ()
    point_config: Optional[Callable[[Any, bool, int], Any]] = None
    point_record: Optional[Callable[[Any, Any, bool, int], Any]] = None

    @property
    def engine_aware(self) -> bool:
        """Whether jobs of this experiment can run as engine lanes."""
        return self.point_config is not None and self.point_record is not None

    @property
    def __name__(self) -> str:
        """The entry's ``run_eN`` name, as the function it stands for had."""
        return f"run_{self.eid.lower()}"

    def __call__(self, quick: bool = False, seed: Optional[int] = None) -> ExperimentResult:
        """Run every point in order and assemble the records."""
        if seed is None:
            seed = self.default_seed
        records = [self.run_point(point, quick, seed) for point in self.points(quick)]
        return self.assemble(records, quick, seed)


def _whole_experiment(
    eid: str, run: Callable[[bool, int], ExperimentResult], default_seed: int = 3
) -> Experiment:
    """A single-point experiment: the record is the full persisted result."""

    def run_point(point: Any, quick: bool, seed: int) -> dict:
        from .persist import result_to_dict  # deferred: persist imports us

        return result_to_dict(run(quick, seed))

    def assemble(records: Sequence[Any], quick: bool, seed: int) -> ExperimentResult:
        from .persist import result_from_dict

        return result_from_dict(records[0], source=f"{eid} job payload")

    return Experiment(
        eid=eid,
        points=lambda quick: [None],
        run_point=run_point,
        assemble=assemble,
        default_seed=default_seed,
    )


def run_table1() -> str:
    """The target-machine configuration table (paper Table 1 analogue)."""
    return format_kv(default_target_table(), title="Target system configuration")


# ----------------------------------------------------------------------
# E1: load-latency validation of the network simulators and models
# ----------------------------------------------------------------------
def _abstract_curve(topo, noc, model, pattern, rate, cycles, seed) -> float:
    """Mean latency an abstract model predicts for a synthetic stream."""
    traffic = SyntheticTraffic(topo, pattern, rate=rate, size_flits=4, seed=seed)
    total = 0
    count = 0
    for cycle in range(cycles):
        for packet in traffic.packets_for_cycle(cycle):
            total += model.latency(
                packet.src, packet.dst, packet.size_flits, packet.msg_class, cycle
            )
            count += 1
        if cycle % 64 == 63:
            model.on_quantum(cycle + 1, 64)
    return total / count if count else 0.0


def _e1(quick: bool, seed: int) -> ExperimentResult:
    """Latency vs offered load: cycle-level (OO), SIMD, fixed, queueing."""
    from ..abstractnet import FixedLatencyModel, QueueingLatencyModel

    topo = Mesh(8, 8)
    noc = NocConfig()
    patterns = ["uniform"] if quick else ["uniform", "transpose", "hotspot"]
    rates = [0.02, 0.06] if quick else [0.01, 0.03, 0.05, 0.08, 0.11]
    cycles = 400 if quick else 1500

    rows = []
    for pattern in patterns:
        def traffic_at(rate, pattern=pattern):
            return SyntheticTraffic(topo, pattern, rate=rate, size_flits=4, seed=seed)

        oo = sweep_injection(topo, traffic_at, rates, cycles, kind="cycle", noc=noc)
        simd = sweep_injection(topo, traffic_at, rates, cycles, kind="simd", noc=noc)
        for (rate, oo_stats), (_, simd_stats) in zip(oo, simd):
            fixed = _abstract_curve(
                topo, noc, FixedLatencyModel(topo, noc), pattern, rate, cycles, seed
            )
            queueing = _abstract_curve(
                topo, noc, QueueingLatencyModel(topo, noc), pattern, rate, cycles, seed
            )
            rows.append(
                (
                    pattern,
                    rate,
                    oo_stats.mean_latency,
                    simd_stats.mean_latency,
                    fixed,
                    queueing,
                )
            )

    # Headline: SIMD-vs-OO agreement (validates using SIMD as ground truth).
    # Saturated points (latency dominated by unbounded source queues) are
    # reported separately: there the absolute latency reflects how long the
    # run lasted, so only loose agreement is meaningful.
    unsaturated = [
        metrics.relative_error(r[3], r[2]) for r in rows if 0 < r[2] < 100
    ]
    saturated = [
        metrics.relative_error(r[3], r[2]) for r in rows if r[2] >= 100
    ]
    figures = []
    for pattern in patterns:
        points = [r for r in rows if r[0] == pattern]
        if len(points) < 2:
            continue
        chart = AsciiChart(
            width=56, height=12, title=f"{pattern}: latency vs offered load", log_y=True
        )
        xs = [r[1] for r in points]
        chart.add_series("cycle", xs, [r[2] for r in points], marker="*")
        chart.add_series("simd", xs, [r[3] for r in points], marker="s")
        chart.add_series("fixed", xs, [r[4] for r in points], marker="f")
        chart.add_series("queueing", xs, [r[5] for r in points], marker="q")
        figures.append(chart.render())
    return ExperimentResult(
        eid="E1",
        title="Load-latency curves: detailed simulators vs abstract models (8x8 mesh)",
        headers=["pattern", "rate", "cycle_oo", "cycle_simd", "fixed", "queueing"],
        rows=rows,
        notes={
            "max_simd_vs_oo_error": max(unsaturated) if unsaturated else 0.0,
            "max_simd_vs_oo_error_saturated": max(saturated) if saturated else 0.0,
        },
        figures=figures,
    )


# ----------------------------------------------------------------------
# E2: vacuum (isolated) simulation vs in-context simulation
# ----------------------------------------------------------------------
def _e2(quick: bool, seed: int) -> ExperimentResult:
    """Isolated NoC evaluation error: trace replay and matched-load Bernoulli
    traffic vs the same network in full-system context."""
    apps = ["radix"] if quick else ["fft", "radix", "ocean", "barnes"]
    rows = []
    for app in apps:
        config = TargetConfig(
            width=4,
            height=4,
            app=app,
            seed=seed,
            network_model="cycle",
            quantum=4,
            scale=0.4 if quick else 1.0,
        )
        result, recorder, cosim = run_cosim_traced(config)
        topo = config.make_topology()
        # In-context latency: what the cycle network itself measured inside
        # the co-simulation (the component's own view — the quantity a
        # component study reports; excludes quantum clamping).
        context_lat = cosim.network.network.stats.mean_latency
        # Replay the trace open loop.
        replay_net = make_network("cycle", topo, config.noc)
        TraceInjector(recorder.records).drive(replay_net, drain=True)
        # Matched-average-load Bernoulli traffic, same duration.
        matched_net = make_network("cycle", topo, config.noc)
        matched = matched_load_synthetic(recorder.records, topo, seed=seed)
        matched.drive(matched_net, cycles=max(1, recorder.duration), drain=False)
        matched_net.run(2000)

        replay_lat = replay_net.stats.mean_latency
        matched_lat = matched_net.stats.mean_latency
        rows.append(
            (
                app,
                context_lat,
                replay_lat,
                matched_lat,
                metrics.relative_error(replay_lat, context_lat),
                metrics.relative_error(matched_lat, context_lat),
            )
        )
    mean_matched_err = sum(r[5] for r in rows) / len(rows)
    return ExperimentResult(
        eid="E2",
        title="Vacuum evaluation error: isolated NoC runs vs in-context (4x4 CMP)",
        headers=[
            "app",
            "in_context_lat",
            "trace_replay_lat",
            "matched_load_lat",
            "replay_error",
            "matched_error",
        ],
        rows=rows,
        notes={"mean_matched_load_error": mean_matched_err},
    )


# ----------------------------------------------------------------------
# E3/E4: accuracy of abstract model vs reciprocal abstraction
# ----------------------------------------------------------------------
# E3 and E4 share one per-app grid and one point function: each point runs
# the ground truth (detailed, quantum 1), RA (detailed, quantum 4) and the
# two abstract models once, and the record carries what both tables need.


def accuracy_points(quick: bool = False) -> List[List[str]]:
    """One point per application."""
    apps = ["fft", "water"] if quick else splash_apps()
    return [[app] for app in apps]


def run_accuracy_point(point: Sequence[str], quick: bool = False, seed: int = 3) -> tuple:
    """One app: ``(app, truth/fixed/queueing/RA latency, truth/fixed/RA finish)``."""
    (app,) = point
    scale = 0.4 if quick else 1.0
    base = TargetConfig(width=4, height=4, app=app, seed=seed, scale=scale)
    truth = run_cosim(base.variant(network_model="simd", quantum=1))
    ra = run_cosim(base.variant(network_model="simd", quantum=4))
    fixed = run_cosim(base.variant(network_model="fixed"))
    queueing = run_cosim(base.variant(network_model="queueing"))
    return (
        app,
        truth.mean_latency(), fixed.mean_latency(),
        queueing.mean_latency(), ra.mean_latency(),
        float(truth.finish_cycle or truth.cycles),
        float(fixed.finish_cycle or 0), float(ra.finish_cycle or 0),
    )


def assemble_e3(
    records: Sequence[Sequence], quick: bool = False, seed: int = 3
) -> ExperimentResult:
    """Packet latency error: abstract network model vs RA co-simulation.

    The paper's headline: RA reduces latency error vs the abstract model by
    69% on average.
    """
    rows = []
    for app, truth, fixed, queueing, ra, *_ in records:
        errors = [metrics.relative_error(lat, truth) for lat in (fixed, queueing, ra)]
        rows.append((app, truth, fixed, queueing, ra, *errors))
    reduction = metrics.mean_error_reduction([(row[5], row[7]) for row in rows])
    return ExperimentResult(
        eid="E3",
        title="Packet latency error vs cycle-accurate ground truth (per app)",
        headers=["app", "truth_lat", "fixed_lat", "queueing_lat", "ra_lat",
                 "fixed_err", "queueing_err", "ra_err"],
        rows=rows,
        notes={"ra_error_reduction_vs_fixed": reduction, "paper_anchor_reduction": 0.69},
    )


def assemble_e4(
    records: Sequence[Sequence], quick: bool = False, seed: int = 3
) -> ExperimentResult:
    """Full-system execution-time error from the network-model choice."""
    rows = []
    for app, *_, truth, fixed, ra in records:
        errors = [metrics.relative_error(finish, truth) for finish in (fixed, ra)]
        rows.append((app, truth, fixed, ra, *errors))
    reduction = metrics.mean_error_reduction([(row[4], row[5]) for row in rows])
    return ExperimentResult(
        eid="E4",
        title="Target execution-time error from the network model (per app)",
        headers=["app", "truth_finish", "fixed_finish", "ra_finish", "fixed_err", "ra_err"],
        rows=rows,
        notes={"ra_runtime_error_reduction": reduction},
    )


# ----------------------------------------------------------------------
# E5: design-space exploration through the detailed component
# ----------------------------------------------------------------------
# A router design sweep (VCs x buffers): visible through RA, invisible to
# the abstract model.


def e5_points(quick: bool = False) -> List[List[int]]:
    """The (num_vcs, buffer_depth) grid, ordered weakest-first so the
    RA-visible runtime trend is monotone."""
    return [[2, 2], [8, 8]] if quick else [[2, 2], [2, 4], [4, 4], [8, 8]]


def run_e5_point(point: Sequence[int], quick: bool = False, seed: int = 3) -> tuple:
    """One router design point: RA co-sim + abstract-model run; one row."""
    num_vcs, depth = point
    noc = NocConfig(num_vcs=num_vcs, buffer_depth=depth)
    scale = 0.4 if quick else 1.0
    base = TargetConfig(
        width=4, height=4, app="fft", seed=seed, scale=scale, noc=noc
    )
    ra = run_cosim(base.variant(network_model="simd", quantum=4))
    fixed = run_cosim(base.variant(network_model="fixed"))
    return (
        f"{num_vcs}vc x {depth}f",
        float(ra.finish_cycle or 0),
        ra.mean_latency(),
        float(fixed.finish_cycle or 0),
        fixed.mean_latency(),
    )


def assemble_e5(
    rows: Sequence[Sequence], quick: bool = False, seed: int = 3
) -> ExperimentResult:
    """Combine per-point rows (in :func:`e5_points` order) into the result."""
    ra_finishes = [float(row[1]) for row in rows]
    spread = (max(ra_finishes) - min(ra_finishes)) / max(ra_finishes)
    return ExperimentResult(
        eid="E5",
        title="Design-space exploration: router design, RA co-sim vs abstract model",
        headers=["design", "ra_finish", "ra_lat", "fixed_finish", "fixed_lat"],
        rows=list(rows),
        notes={"ra_visible_runtime_spread": spread},
    )


# ----------------------------------------------------------------------
# E6: CPU vs CPU+GPU co-simulation time
# ----------------------------------------------------------------------
# Host co-simulation time at 64/256/512-core targets.  Measured part: wall
# clock of real co-simulations with the OO network ("CPU") vs the SIMD
# network ("GPU") over a fixed window of target cycles.  Modelled part: the
# paper-calibrated cost model (16% @ 256, 65% @ 512).


def e6_points(quick: bool = False) -> List[List[int]]:
    """The measured (width, height) target sizes."""
    return [[4, 4], [8, 8]] if quick else [[8, 8], [16, 16], [32, 16]]


def run_e6_point(point: Sequence[int], quick: bool = False, seed: int = 3) -> tuple:
    """One measured target size: CPU-network vs GPU-network wall clock.

    Both runs happen inside the same job so the reduction ratio compares
    like with like even when jobs share a loaded host.
    """
    width, height = point
    window = 800 if quick else 3000
    cores = width * height
    base = TargetConfig(
        width=width, height=height, app="ocean", seed=seed, quantum=16
    )
    cpu = run_cosim(base.variant(network_model="cycle"), max_cycles=window)
    gpu = run_cosim(base.variant(network_model="simd"), max_cycles=window)
    return (
        f"measured-{cores}",
        cores,
        cpu.wall_total,
        gpu.wall_total,
        measured_reduction(cpu, gpu),
    )


def assemble_e6(
    rows: Sequence[Sequence], quick: bool = False, seed: int = 3
) -> ExperimentResult:
    """Measured rows (in :func:`e6_points` order) + paper-calibrated model."""
    rows = list(rows)
    model = HostTimingModel()
    for entry in model.sweep((64, 256, 512)):
        rows.append(
            (
                f"model-{int(entry['cores'])}",
                int(entry["cores"]),
                entry["cpu_cosim"],
                entry["gpu_cosim"],
                entry["gpu_reduction"],
            )
        )
    anchors = model.paper_anchor_errors()
    return ExperimentResult(
        eid="E6",
        title="Co-simulation host time: CPU-only vs CPU+GPU detailed network",
        headers=["row", "cores", "cpu_time", "gpu_time", "gpu_reduction"],
        rows=rows,
        notes={
            "model_anchor_err_256": anchors["err_256"],
            "model_anchor_err_512": anchors["err_512"],
        },
    )


# ----------------------------------------------------------------------
# E7: synchronization-quantum ablation
# ----------------------------------------------------------------------
# Quantum size vs accuracy and host cost of the RA coupling.


def e7_points(quick: bool = False) -> List[List[int]]:
    """The quantum grid; quantum 1 leads and serves as the reference."""
    quanta = [1, 16, 64] if quick else [1, 4, 16, 64, 256]
    return [[q] for q in quanta]


def run_e7_point(point: Sequence[int], quick: bool = False, seed: int = 3) -> tuple:
    """One quantum: the raw per-run record; errors are assembled later
    against the quantum-1 record, so every point is an independent job."""
    (quantum,) = point
    scale = 0.4 if quick else 1.0
    base = TargetConfig(
        width=4, height=4, app="fft", seed=seed, scale=scale, network_model="simd"
    )
    result = run_cosim(base.variant(quantum=quantum))
    return (
        quantum,
        result.mean_latency(),
        float(result.finish_cycle or 0),
        result.clamped_deliveries,
        result.deliveries,
        result.windows,
        result.wall_total,
    )


def assemble_e7(
    records: Sequence[Sequence], quick: bool = False, seed: int = 3
) -> ExperimentResult:
    """Turn raw per-quantum records (in :func:`e7_points` order) into the
    accuracy/clamping/host-cost table relative to the quantum-1 record."""
    truth = records[0]
    if truth[0] != 1:
        raise ConfigError(
            f"E7 assembly needs the quantum-1 reference first, got {truth[0]!r}"
        )
    truth_lat = truth[1]
    truth_finish = float(truth[2]) or 1.0
    rows = []
    for quantum, mean_lat, finish, clamped, deliveries, windows, wall in records:
        rows.append(
            (
                quantum,
                mean_lat,
                metrics.relative_error(mean_lat, truth_lat),
                metrics.relative_error(float(finish), truth_finish),
                clamped / max(1, deliveries),
                windows,
                wall,
            )
        )
    return ExperimentResult(
        eid="E7",
        title="Synchronization-quantum sweep (reference: quantum 1)",
        headers=[
            "quantum",
            "mean_lat",
            "lat_err",
            "finish_err",
            "clamped_frac",
            "windows",
            "wall_s",
        ],
        rows=rows,
        notes={},
    )


# ----------------------------------------------------------------------
# E8: which direction of reciprocity matters
# ----------------------------------------------------------------------
def _e8(quick: bool, seed: int) -> ExperimentResult:
    """Full RA vs table-feedback hybrid vs pure abstract model."""
    scale = 0.4 if quick else 1.0
    base = TargetConfig(width=4, height=4, app="fft", seed=seed, scale=scale)
    truth = run_cosim(base.variant(network_model="simd", quantum=1))
    modes = [
        ("full-ra", base.variant(network_model="simd", quantum=4)),
        ("table-feedback", base.variant(network_model="table-shadow", quantum=4)),
        ("table-static", base.variant(network_model="table")),
        ("fixed", base.variant(network_model="fixed")),
    ]
    truth_lat = truth.mean_latency()
    truth_finish = float(truth.finish_cycle or truth.cycles)
    truth_dist = truth.applied_latencies.get(-1, [])
    rows = []
    errors = {}
    for name, config in modes:
        result = run_cosim(config)
        lat_err = metrics.relative_error(result.mean_latency(), truth_lat)
        finish_err = metrics.relative_error(
            float(result.finish_cycle or 0), truth_finish
        )
        # A retuned table can match the *mean* while collapsing the
        # latency *distribution* (every same-distance message gets the same
        # latency); the KS distance exposes what only per-message detailed
        # feedback preserves.
        ks = metrics.distribution_distance(
            result.applied_latencies.get(-1, [0]), truth_dist
        )
        errors[name] = lat_err
        rows.append((name, result.mean_latency(), lat_err, finish_err, ks))
    return ExperimentResult(
        eid="E8",
        title="Reciprocity ablation: latency error by coupling mode (truth: Q=1)",
        headers=["mode", "mean_lat", "lat_err", "finish_err", "ks_distance"],
        rows=rows,
        notes={
            "full_ra_error": errors.get("full-ra", 0.0),
            "fixed_error": errors.get("fixed", 0.0),
        },
    )


# ----------------------------------------------------------------------
# E9 (extension): adaptive synchronization quantum
# ----------------------------------------------------------------------
def _e9(quick: bool, seed: int) -> ExperimentResult:
    """Adaptive vs fixed quantum: accuracy per synchronization window.

    This is the natural refinement of the paper's coupling (not evaluated
    there, hence an *extension* experiment): size the quantum by observed
    traffic so busy phases couple finely and idle phases coarsely.  The
    adaptive controller should approach small-fixed-quantum accuracy with
    markedly fewer synchronization windows than quantum-1 coupling.
    """
    from ..core.config import build_cosim
    from ..core.quantum import AdaptiveQuantum, FixedQuantum

    scale = 0.4 if quick else 1.0
    base = TargetConfig(
        width=4, height=4, app="fft", seed=seed, scale=scale, network_model="simd"
    )

    def run_with(controller):
        cosim = build_cosim(base)
        cosim.quantum = controller
        return cosim.run()

    truth = run_with(FixedQuantum(1))
    modes = [
        ("fixed-1", truth),
        ("fixed-4", run_with(FixedQuantum(4))),
        ("fixed-16", run_with(FixedQuantum(16))),
        (
            "adaptive-2..32",
            run_with(
                AdaptiveQuantum(min_cycles=2, max_cycles=32, target_messages=24)
            ),
        ),
    ]
    rows = []
    for name, result in modes:
        rows.append(
            (
                name,
                result.mean_latency(),
                metrics.relative_error(result.mean_latency(), truth.mean_latency()),
                result.windows,
                result.clamped_deliveries / max(1, result.deliveries),
            )
        )
    adaptive = rows[-1]
    fixed1 = rows[0]
    return ExperimentResult(
        eid="E9",
        title="Extension: adaptive synchronization quantum (truth: fixed-1)",
        headers=["mode", "mean_lat", "lat_err", "windows", "clamped_frac"],
        rows=rows,
        notes={
            "adaptive_lat_error": adaptive[2],
            "adaptive_window_saving_vs_q1": 1.0 - adaptive[3] / fixed1[3],
        },
    )


# ----------------------------------------------------------------------
# E10 (extension): memory-model fidelity under reciprocal abstraction
# ----------------------------------------------------------------------
def _e10(quick: bool, seed: int) -> ExperimentResult:
    """Fidelity mixing beyond the NoC: flat memory vs detailed DRAM.

    Reciprocal abstraction's premise is that *any* component can be swapped
    to a different fidelity inside the same full-system context.  This
    extension experiment swaps the memory controllers: the simple
    service-interval model vs the banked open-page FR-FCFS DRAM controller
    (:mod:`repro.dram`), with the RA network coupling unchanged.  The
    detailed model exposes row-buffer and bank-conflict behaviour the flat
    model cannot represent, shifting full-system results substantially —
    the same vacuum argument, applied to memory.
    """
    from ..fullsys.config import CmpConfig

    apps = ["ocean"] if quick else ["ocean", "radix", "water"]
    scale = 0.3 if quick else 0.6
    rows = []
    shifts = []
    for app in apps:
        base = TargetConfig(
            width=4, height=4, app=app, seed=seed, scale=scale,
            network_model="simd", quantum=4,
        )
        simple = run_cosim(base)
        dram = run_cosim(
            base.variant(cmp=CmpConfig(memory_model="dram"))
        )
        simple_finish = float(simple.finish_cycle or simple.cycles)
        dram_finish = float(dram.finish_cycle or dram.cycles)
        shift = metrics.relative_error(simple_finish, dram_finish)
        shifts.append(shift)
        rows.append(
            (
                app,
                simple_finish,
                dram_finish,
                simple.system_summary["mean_miss_latency"],
                dram.system_summary["mean_miss_latency"],
                shift,
            )
        )
    return ExperimentResult(
        eid="E10",
        title="Extension: memory-model fidelity (flat vs banked FR-FCFS DRAM)",
        headers=[
            "app",
            "flat_finish",
            "dram_finish",
            "flat_misslat",
            "dram_misslat",
            "runtime_shift",
        ],
        rows=rows,
        notes={"mean_runtime_shift_from_memory_fidelity": sum(shifts) / len(shifts)},
    )


# ----------------------------------------------------------------------
# E11 (extension): fault injection and graceful degradation
# ----------------------------------------------------------------------
# A fault-severity sweep: ``level`` link fail-stops plus a proportional
# flit-corruption rate on the cycle-level network, with the fixed-latency
# model alongside as the control (no links to fail, so its curve is flat by
# construction) — fault response is behaviour only the detailed model shows.
# Level 0 attaches no fault schedule (``faults=None``): its row is the
# pre-resilience code path and the zero-overhead control.


def e11_points(quick: bool = False) -> List[List[int]]:
    """The fault-severity grid: permanent link failures per level."""
    return [[0], [2]] if quick else [[0], [1], [2], [4]]


def _fault_config(level: int, quick: bool, seed: int):
    """The fault schedule for one severity level (deterministic in seed)."""
    # Deferred: the harness never pays for the resilience package unless
    # E11 runs.
    from ..resilience.faults import FaultConfig

    return FaultConfig(
        seed=derive_seed(seed, "e11", level),
        link_failures=level,
        corrupt_rate=0.003 * level,
        window=4_000 if quick else 12_000,
    )


def run_e11_point(point: Sequence[int], quick: bool = False, seed: int = 3) -> tuple:
    """One severity level: faulty detailed run + fault-blind abstract run."""
    (level,) = point
    scale = 0.15 if quick else 0.5
    base = TargetConfig(
        width=4, height=4, app="fft", seed=seed, scale=scale,
        network_model="cycle", quantum=4,
    )
    if level == 0:
        detailed = run_cosim(base)  # faults=None: the pre-resilience code path
    else:
        detailed = run_cosim(base.variant(faults=_fault_config(level, quick, seed)))
    abstract = run_cosim(base.variant(network_model="fixed"))
    resil = detailed.network_description.get("resilience") or {}
    return (
        f"{level} faults",
        float(detailed.finish_cycle or detailed.cycles),
        detailed.mean_latency(),
        abstract.mean_latency(),
        float(resil.get("retransmits", 0)),
        float(resil.get("corrupt_drops", 0)),
    )


def assemble_e11(
    rows: Sequence[Sequence], quick: bool = False, seed: int = 3
) -> ExperimentResult:
    """Append the degradation-vs-baseline column and the latency curve."""
    rows = [tuple(row) for row in rows]
    base_lat = float(rows[0][2]) or 1.0
    base_finish = float(rows[0][1]) or 1.0
    full = [row + (float(row[2]) / base_lat,) for row in rows]
    levels = [float(str(row[0]).split()[0]) for row in full]
    chart = AsciiChart(
        title="E11: mean latency vs fault level (x: link failures, y: cycles)"
    )
    chart.add_series("detailed", levels, [float(r[2]) for r in full], marker="*")
    chart.add_series("abstract", levels, [float(r[3]) for r in full], marker="o")
    worst = full[-1]
    return ExperimentResult(
        eid="E11",
        title="Extension: fault injection — latency degradation visible only "
        "to the detailed model",
        headers=[
            "faults", "finish", "detailed_lat", "abstract_lat",
            "retransmits", "corrupt_drops", "lat_degradation",
        ],
        rows=full,
        notes={
            "max_latency_degradation": float(worst[6]),
            "max_runtime_degradation": float(worst[1]) / base_finish,
            "abstract_model_degradation": float(full[-1][3]) / (float(full[0][3]) or 1.0),
        },
        figures=[chart.render()],
    )


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------
#: experiment id -> :class:`Experiment`; the campaign registry and the serve
#: catalog read these entries as they are.
ALL_EXPERIMENTS: Dict[str, Experiment] = {
    experiment.eid: experiment
    for experiment in (
        _whole_experiment("E1", _e1, default_seed=11),
        _whole_experiment("E2", _e2, default_seed=5),
        Experiment("E3", accuracy_points, run_accuracy_point, assemble_e3),
        Experiment("E4", accuracy_points, run_accuracy_point, assemble_e4),
        Experiment("E5", e5_points, run_e5_point, assemble_e5),
        Experiment(
            "E6", e6_points, run_e6_point, assemble_e6,
            host_time_columns=("cpu_time", "gpu_time", "gpu_reduction"),
        ),
        Experiment("E7", e7_points, run_e7_point, assemble_e7, host_time_columns=("wall_s",)),
        _whole_experiment("E8", _e8),
        _whole_experiment("E9", _e9),
        _whole_experiment("E10", _e10),
        Experiment("E11", e11_points, run_e11_point, assemble_e11),
    )
}

# ``run_eN`` is the table's entry itself (insertion order is E1..E11).
(run_e1, run_e2, run_e3, run_e4, run_e5, run_e6,
 run_e7, run_e8, run_e9, run_e10, run_e11) = ALL_EXPERIMENTS.values()
