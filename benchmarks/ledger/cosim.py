"""The three co-simulation workloads: host speed of ``run()`` / ``run_cosim_batch()``.

A *repeat* is a freshly built co-simulation run over the workload's fixed
inputs; ``--seconds`` sets how many are timed (three at 10 s, 10-13 s of
measured time on this host), so a slower program is given the same work,
not less.  A single-lane repeat is driven as consecutive
``run(max_cycles=...)`` calls on quantum-aligned boundaries — same windows,
same results as one call — and each such *slice* is one timed operation;
``run_cosim_batch`` cannot be resumed, so there the whole call is.

This host's interference comes in bursts of a few seconds that slow
whatever runs by 20-35%.  Slice ``k`` does identical simulated work in
every repeat, so its host time is taken as the *median across repeats*: a
burst has to hit the same slice in two of three repeats to move it.  The
workload's wall is the sum of these, and the operation percentiles are
taken over them.

Every repeat's simulated statistics must equal the first repeat's and, at
seed 42, ``golden.json``.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from .harness import Context, Golden, Outcome, HERE, peak_rss_mib, summarize, tail
from .spans import Tracer

__all__ = ["WORKLOADS", "run"]

#: timed repeats per second of --seconds: a count, not a deadline, so every
#: run takes the per-slice median over the same number of repeats (a repeat
#: takes 3.4-4.3 s here, so --seconds 10 measures for 10-13 s)
REPEATS_PER_SECOND = 0.3
#: extra fresh-process set-up samples per untraced run (median of 1 + this)
SETUP_SAMPLES = 2
#: warm-up window (target cycles): lets lazy imports and first-call paths finish
WARMUP_CYCLES = 200
#: reference-point window at --seconds 10 (the E6 / noc / noc_gpu cuts)
REFERENCE_CYCLES = 500
#: the paper's E6 sizes: 64, 256 and 512 cores
E6_MESHES = ((64, 8, 8), (256, 16, 16), (512, 32, 16))


@dataclass(frozen=True)
class CosimSpec:
    width: int
    height: int
    app: str
    scale: float
    network_model: str
    lanes: int
    #: fixed window in target cycles, or None to run to completion
    window: Optional[int]
    #: about how many cycles a run to completion takes (sizes the 1/20 cut)
    nominal_cycles: int
    #: target cycles per timed slice (a multiple of the quantum); 0 = one call
    slice_cycles: int
    #: also measure the noc / noc_gpu / E6 reference points when traced
    references: bool = False

    def configs(self, name: str, seed: int) -> List[Any]:
        from repro.core import TargetConfig
        from repro.util import derive_seed

        return [
            TargetConfig(
                width=self.width, height=self.height, app=self.app,
                scale=self.scale, network_model=self.network_model, quantum=4,
                seed=derive_seed(seed, name, lane),
            )
            for lane in range(self.lanes)
        ]

    def max_cycles(self, size: float) -> Optional[int]:
        if self.window is not None:
            return max(WARMUP_CYCLES, int(self.window * size))
        return None if size >= 1 else max(WARMUP_CYCLES, int(self.nominal_cycles * size))


WORKLOADS: Dict[str, CosimSpec] = {
    "cosim_detailed_256": CosimSpec(16, 16, "ocean", 1.0, "simd", 1, 6000, 6000, 160,
                                    references=True),
    "cosim_abstract_64": CosimSpec(8, 8, "fft", 0.4, "table", 1, None, 48000, 400),
    "cosim_batch4_16": CosimSpec(4, 4, "water", 0.2, "simd", 4, None, 6400, 0),
}


@dataclass
class Repeat:
    #: host seconds of each timed slice, in order
    slices_s: List[float]
    results: List[Any]
    kernel_launches: int

    @property
    def wall_s(self) -> float:
        return sum(self.slices_s)

    @property
    def cycles(self) -> int:
        return sum(result.cycles for result in self.results)

    def signature(self) -> Dict[str, Any]:
        """The simulated statistics that must repeat exactly."""
        return {
            "kernel_launches": self.kernel_launches,
            "lanes": [
                {
                    "cycles": r.cycles,
                    "finish_cycle": r.finish_cycle,
                    "windows": r.windows,
                    "messages_sent": r.messages_sent,
                    "deliveries": r.deliveries,
                    "clamped_deliveries": r.clamped_deliveries,
                    "applied_latency_sum": sum(r.applied_latencies.get(-1, [])),
                }
                for r in self.results
            ],
        }


def _execute(configs: List[Any], max_cycles: Optional[int], slice_cycles: int = 0,
             engine: str = "auto", tracer: Optional[Tracer] = None) -> Repeat:
    """One repeat.  A single lane times ``run()`` alone, slice by slice; a
    batch times ``run_cosim_batch()``, which builds its lanes itself."""
    from repro.core import build_cosim
    from repro.engine.batch import run_cosim_batch

    def timed(call):
        start = time.perf_counter()
        if tracer is not None:
            with tracer.span("run"):
                out = call()
        else:
            out = call()
        return out, time.perf_counter() - start

    kwargs = {} if max_cycles is None else {"max_cycles": max_cycles}
    if len(configs) > 1:
        batch, wall = timed(lambda: run_cosim_batch(configs, **kwargs))
        return Repeat([wall], list(batch.results), batch.kernel_launches)
    cosim = build_cosim(configs[0], engine=engine)
    slices: List[float] = []
    if not slice_cycles:
        result, wall = timed(lambda: cosim.run(**kwargs))
        slices.append(wall)
    else:
        upto = 0
        while True:
            upto += slice_cycles
            if max_cycles is not None:
                upto = min(upto, max_cycles)
            result, wall = timed(lambda: cosim.run(max_cycles=upto))
            slices.append(wall)
            if result.completed or upto == max_cycles:
                break
    network = getattr(cosim.network, "network", None)
    return Repeat(slices, [result], int(getattr(network, "kernel_launches", 0)))


def robust_slices(repeats: List[Repeat]) -> List[float]:
    """For each slice, the median across repeats of its host seconds."""
    return [statistics.median(walls)
            for walls in zip(*(repeat.slices_s for repeat in repeats))]


def _setup_sample(ctx: Context) -> float:
    """Set-up time of a fresh process (``--setup-only`` prints it last)."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", ctx.workload,
         "--seed", str(ctx.seed), "--size", repr(ctx.size), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def run(ctx: Context) -> Outcome:
    from repro.core import build_cosim

    spec = WORKLOADS[ctx.workload]
    outcome = Outcome()
    tracer = Tracer()
    configs = spec.configs(ctx.workload, ctx.seed)
    max_cycles = spec.max_cycles(ctx.size)

    # -- set-up: imports, the first build (un-memoised verify), warm-up ----
    if ctx.trace:
        tracer.install()
    start = time.perf_counter()
    build_cosim(configs[0])
    build_first_s = time.perf_counter() - start
    if ctx.trace:
        first_build = tracer.aggregate()
        tracer.clear()
        build_cosim(configs[0])  # same shape again: the verify pass is memoised
        memo_build = tracer.aggregate()
        tracer.clear()
        tracer.uninstall()
    _execute(configs, WARMUP_CYCLES)
    setup_samples = [ctx.since_start()]
    if ctx.setup_only:
        print(repr(setup_samples[0]))
        return outcome

    # -- timed operations, after one discarded full repeat ------------------
    # (the first full-size run in a process is reliably the slowest: the
    # 200-cycle warm-up leaves allocator and array growth still to happen)
    _execute(configs, max_cycles)
    repeats: List[Repeat] = []
    traced: Optional[Repeat] = None
    if ctx.trace:
        repeats.append(_execute(configs, max_cycles, spec.slice_cycles))
        tracer.install()
        traced = _execute(configs, max_cycles, spec.slice_cycles, tracer=tracer)
        tracer.uninstall()
        repeats.append(traced)
    else:
        for _ in range(max(2, round(REPEATS_PER_SECOND * ctx.seconds))):
            repeats.append(_execute(configs, max_cycles, spec.slice_cycles))

    # -- verification -----------------------------------------------------
    first = repeats[0].signature()
    outcome.attempted = len(repeats)
    for index, repeat in enumerate(repeats[1:], start=1):
        if repeat.signature() != first:
            outcome.fail(f"repeat {index} differs from repeat 0")
    Golden(ctx).check(first, outcome)
    one_lane_s: Optional[float] = None
    if spec.lanes > 1:
        # batched == single-lane: lane 0 alone must reproduce lane 0 of the batch
        outcome.attempted += 1
        start = time.perf_counter()
        one_lane = _execute(configs[:1], max_cycles)
        one_lane_s = time.perf_counter() - start  # builds included, as in the batch
        if one_lane.signature()["lanes"][0] != first["lanes"][0]:
            outcome.fail("lane 0 of the batch differs from its single-lane run")

    operations = robust_slices(repeats)
    outcome.detail = {
        "repeat_wall_s": summarize([r.wall_s for r in repeats]),
        "operation_s": summarize(operations),
    }
    if not ctx.trace:
        setup_samples += [_setup_sample(ctx) for _ in range(SETUP_SAMPLES)]
        outcome.detail["setup_s"] = summarize(setup_samples)
        outcome.metrics = {
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mib": peak_rss_mib(),
            "work_per_s": repeats[0].cycles / sum(operations),
            "op_p50_ms": statistics.median(operations) * 1e3,
            "op_tail_ms": tail(operations) * 1e3,
        }
        return outcome

    # -- per-layer pass ---------------------------------------------------
    assert traced is not None
    tracer.reconcile("run")
    outcome.missing = list(tracer.missing)
    spans = tracer.aggregate()
    untraced = repeats[0]
    metrics = outcome.metrics

    # slice by slice, so a burst of host noise moves one ratio, not the result
    metrics["bench.trace_overhead_share"] = statistics.median(
        with_spans / without
        for with_spans, without in zip(traced.slices_s, untraced.slices_s)) - 1.0
    # core: the program's own window-phase timers, from the untraced repeat
    system = sum(r.wall_system for r in untraced.results)
    network = sum(r.wall_network for r in untraced.results)
    metrics["core.build_s"] = build_first_s
    metrics["core.system_share"] = system / untraced.wall_s
    metrics["core.network_share"] = network / untraced.wall_s
    metrics["core.coupling_share"] = max(0.0, 1.0 - (system + network) / untraced.wall_s)
    metrics["core.adapter_send_s"] = spans["core.adapter_send"].total_s
    metrics["core.adapter_collect_s"] = spans["core.adapter_collect"].total_s
    metrics["core.windows"] = sum(r.windows for r in traced.results)
    metrics["core.messages_sent"] = sum(r.messages_sent for r in traced.results)
    metrics["core.deliveries"] = sum(r.deliveries for r in traced.results)
    metrics["core.clamped_deliveries"] = sum(r.clamped_deliveries for r in traced.results)
    root = spans["run"]
    metrics["core.unattributed_share"] = root.self_s / root.total_s
    metrics["workloads.make_programs_s"] = first_build["workloads.make_programs"].total_s
    metrics["verify.first_s"] = first_build["verify.target_config"].total_s
    metrics["verify.memo_s"] = memo_build["verify.target_config"].total_s
    metrics["fullsys.run_until_s"] = spans["fullsys.run_until"].total_s
    metrics["fullsys.us_per_window"] = (
        spans["fullsys.run_until"].total_s / max(1, metrics["core.windows"]) * 1e6
    )
    metrics["abstractnet.send_us"] = spans.per_call("abstractnet.send", 1e6)
    metrics["engine.step_s"] = spans["engine.step"].total_s
    metrics["engine.us_per_cycle"] = spans.per_call("engine.step", 1e6)
    for stage in ("route_compute", "vc_allocate", "switch_traverse", "credit",
                  "admit", "inject", "eject"):
        metrics[f"engine.{stage}_s"] = spans[f"engine.{stage}"].total_s
    metrics["engine.step_self_s"] = spans["engine.step"].self_s
    metrics["engine.kernel_launches"] = traced.kernel_launches
    if one_lane_s is not None:
        metrics["engine.lane_efficiency"] = spec.lanes * one_lane_s / untraced.wall_s
    if spec.references:
        metrics.update(_reference_points(ctx))
    return outcome


def _reference_points(ctx: Context) -> Dict[str, float]:
    """noc / noc_gpu rates and the paper's E6 as measurement, on short cuts.

    These move no end-to-end metric; they place the engine between the
    reference loop and the single-simulation SIMD network, and show the
    network's share of host time growing with target size.
    """
    from repro.core import TargetConfig
    from repro.harness.timing import measured_reduction, measured_split
    from repro.util import derive_seed

    cycles = max(WARMUP_CYCLES, int(REFERENCE_CYCLES * ctx.size * ctx.seconds / 10))
    seed = derive_seed(ctx.seed, "e6")
    out: Dict[str, float] = {}
    for cores, width, height in E6_MESHES:
        def cut(model: str, engine: str = "auto") -> Tuple[Repeat, Any]:
            config = TargetConfig(width=width, height=height, app="ocean",
                                  network_model=model, quantum=4, seed=seed)
            repeat = _execute([config], cycles, engine=engine)
            return repeat, repeat.results[0]

        cycle_run, cycle_result = cut("cycle")
        simd_run, simd_result = cut("simd")
        split = measured_split(cycle_result)
        out[f"harness.e6_network_share_{cores}"] = split["network"] / split["total"]
        out[f"harness.e6_reduction_{cores}"] = measured_reduction(cycle_result, simd_result)
        if cores == 256:
            oo_run, _ = cut("simd", engine="oo")
            engine_rate = simd_run.cycles / simd_run.wall_s
            out["noc.target_cycles_per_s"] = cycle_run.cycles / cycle_run.wall_s
            out["noc_gpu.target_cycles_per_s"] = oo_run.cycles / oo_run.wall_s
            out["engine.speedup_vs_noc"] = engine_rate / out["noc.target_cycles_per_s"]
            out["engine.single_lane_gap"] = out["noc_gpu.target_cycles_per_s"] / engine_rate
    return out
