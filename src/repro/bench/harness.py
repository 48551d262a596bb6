"""Benchmark definitions, the ``BENCH_noc.json`` schema, and comparison.

Two benchmark families, all under pinned seeds:

* **cycle kernel** — the same deterministic traffic schedule driven
  through the two NoC implementations on the 16x16 (256-router) mesh:
  the object-per-router reference loop (``oo_loop``) and the vectorised
  kernels as a one-lane batch (``batched``).  The headline derived metric,
  ``cycle_kernel_speedup``, is ``oo_loop`` wall time over ``batched``
  wall time.
* **end-to-end** — a full co-simulation through :func:`build_cosim`
  (``e2e_single``) and four same-shape co-simulations through the
  lockstep batch driver (``e2e_batch``), with the derived
  ``batch_efficiency`` = (lanes x single wall) / batch wall.

The document carries named *profiles* (``quick``, ``full``) because the
two workload sizes have different compute/overhead mixes and their ratios
are not mutually comparable; a full ``bench run`` measures both so the
committed baseline can gate quick CI runs like-for-like.

Comparison policy: absolute wall times are host-dependent, so ``bench
compare`` only *fails* on ratios measured within one file — a candidate
whose ``cycle_kernel_speedup`` drops more than ``threshold`` below the
baseline's (same profile) means the batched kernel regressed relative to
the reference loop on the same host.  Absolute throughput changes are
reported but advisory.
"""

from __future__ import annotations

import json
import platform
import random
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

from ..errors import ConfigError

__all__ = [
    "BENCH_FILENAME",
    "BENCH_SCHEMA_VERSION",
    "compare_bench",
    "load_bench",
    "run_bench",
    "write_bench",
]

BENCH_SCHEMA_VERSION = 1
BENCH_FILENAME = "BENCH_noc.json"

#: every benchmark derives its workload from this seed
PINNED_SEED = 42

#: cycle-kernel workload shape: (mesh side, cycles, packets per cycle)
_KERNEL_FULL = (16, 400, 16)
_KERNEL_QUICK = (16, 300, 16)

#: cycle-kernel timing repeats; the minimum wall time is reported
#: (standard microbenchmark practice — the min is the least noisy
#: estimate of the achievable time, which matters doubly here because
#: the regression gate is a ratio of two such times)
_KERNEL_REPEATS = 5

#: end-to-end lanes in the batch benchmark
_E2E_LANES = 4


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def _traffic_schedule(
    num_nodes: int, cycles: int, per_cycle: int, seed: int
) -> List[Tuple[int, int, int, int]]:
    """A deterministic ``(cycle, src, dst, size)`` injection schedule."""
    rng = random.Random(seed)
    schedule: List[Tuple[int, int, int, int]] = []
    for cycle in range(cycles):
        for _ in range(per_cycle):
            src = rng.randrange(num_nodes)
            dst = rng.randrange(num_nodes)
            if dst == src:
                continue
            schedule.append((cycle, src, dst, rng.choice((1, 5))))
    return schedule


def _drive(network, schedule, cycles: int) -> Tuple[float, int]:
    """Inject the schedule cycle by cycle; returns (wall_s, delivered)."""
    from ..noc.packet import Packet

    index = 0
    delivered = 0
    start = time.perf_counter()
    for cycle in range(cycles):
        while index < len(schedule) and schedule[index][0] == cycle:
            _, src, dst, size = schedule[index]
            network.inject(
                Packet(
                    src=src, dst=dst, size_flits=size,
                    msg_class=0, inject_cycle=cycle,
                ),
                cycle,
            )
            index += 1
        network.step()
        delivered += len(network.pop_delivered())
    return time.perf_counter() - start, delivered


def _bench_cycle_kernels(quick: bool) -> Dict[str, Dict[str, Any]]:
    from ..engine.network import SimdNetwork
    from ..noc.config import NocConfig
    from ..noc.network import CycleNetwork
    from ..noc.topology import Mesh

    side, cycles, per_cycle = _KERNEL_QUICK if quick else _KERNEL_FULL
    topo = Mesh(side, side)
    noc = NocConfig()
    schedule = _traffic_schedule(topo.num_nodes, cycles, per_cycle, PINNED_SEED)

    out: Dict[str, Dict[str, Any]] = {}
    variants = (
        ("oo_loop", lambda: CycleNetwork(topo, noc)),
        ("batched", lambda: SimdNetwork(topo, noc)),
    )
    for name, make in variants:
        wall = None
        delivered = 0
        for _ in range(_KERNEL_REPEATS):
            repeat_wall, delivered = _drive(make(), schedule, cycles)
            wall = repeat_wall if wall is None else min(wall, repeat_wall)
        out[f"cycle_kernel_{name}"] = {
            "wall_s": wall,
            "cycles": cycles,
            "routers": topo.num_routers,
            "injections": len(schedule),
            "delivered": delivered,
            "cycles_per_s": cycles / wall if wall > 0 else 0.0,
        }
    return out


def _e2e_config(index: int, quick: bool):
    from ..core.config import TargetConfig
    from ..util import derive_seed

    return TargetConfig(
        width=4,
        height=4,
        app="water",
        seed=derive_seed(PINNED_SEED, "bench-e2e", index),
        scale=0.05 if quick else 0.2,
        network_model="simd",
        quantum=4,
    )


def _bench_e2e(quick: bool) -> Dict[str, Dict[str, Any]]:
    from ..core.config import build_cosim
    from ..engine.batch import run_cosim_batch

    out: Dict[str, Dict[str, Any]] = {}
    cosim = build_cosim(_e2e_config(0, quick), verify="off")
    start = time.perf_counter()
    result = cosim.run()
    single_wall = time.perf_counter() - start
    out["e2e_single"] = {
        "wall_s": single_wall,
        "finish_cycle": float(result.finish_cycle or 0),
        "deliveries": float(result.deliveries),
        "engine": cosim.engine_decision.name,
    }

    configs = [_e2e_config(i, quick) for i in range(_E2E_LANES)]
    start = time.perf_counter()
    batch = run_cosim_batch(configs, verify="off")
    batch_wall = time.perf_counter() - start
    out["e2e_batch"] = {
        "wall_s": batch_wall,
        "lanes": batch.lanes,
        "kernel_launches": batch.kernel_launches,
        "deliveries": float(sum(r.deliveries for r in batch.results)),
    }
    return out


# ----------------------------------------------------------------------
# The artifact
# ----------------------------------------------------------------------
def _run_profile(quick: bool) -> Dict[str, Any]:
    """One profile's benchmarks and derived ratios."""
    benchmarks: Dict[str, Dict[str, Any]] = {}
    benchmarks.update(_bench_cycle_kernels(quick))
    benchmarks.update(_bench_e2e(quick))

    oo = benchmarks["cycle_kernel_oo_loop"]["wall_s"]
    batched = benchmarks["cycle_kernel_batched"]["wall_s"]
    single = benchmarks["e2e_single"]["wall_s"]
    batch = benchmarks["e2e_batch"]["wall_s"]
    derived = {
        "cycle_kernel_speedup": oo / batched if batched > 0 else 0.0,
        "batch_efficiency": (
            _E2E_LANES * single / batch if batch > 0 else 0.0
        ),
    }
    return {"benchmarks": benchmarks, "derived": derived}


def run_bench(quick: bool = False) -> Dict[str, Any]:
    """Run the benchmarks; returns the ``BENCH_noc.json`` document.

    The quick and full workloads have different compute/overhead mixes,
    so their speedup ratios are *not* comparable across profiles — each
    profile is its own named section and ``compare`` only ever diffs a
    profile against the same profile.  A full ``bench run`` measures
    both (so the committed baseline can gate quick CI runs); ``--quick``
    measures only the quick profile.
    """
    from ..engine.api import KERNEL_VERSION

    profiles = {"quick": _run_profile(quick=True)}
    if not quick:
        profiles["full"] = _run_profile(quick=False)
    return {
        "schema": BENCH_SCHEMA_VERSION,
        "kernel_version": KERNEL_VERSION,
        "pinned_seed": PINNED_SEED,
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "profiles": profiles,
    }


def write_bench(document: Dict[str, Any], path: str) -> None:
    Path(path).write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")


def load_bench(path: str) -> Dict[str, Any]:
    target = Path(path)
    if not target.exists():
        raise ConfigError(f"no benchmark file at {path}")
    try:
        document = json.loads(target.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from None
    schema = document.get("schema")
    if schema != BENCH_SCHEMA_VERSION:
        raise ConfigError(
            f"{path} has benchmark schema {schema!r}; "
            f"this library reads version {BENCH_SCHEMA_VERSION}"
        )
    return document


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------
def _compare_profile(
    profile: str,
    baseline: Dict[str, Any],
    candidate: Dict[str, Any],
    threshold: float,
) -> Tuple[bool, List[str]]:
    lines: List[str] = []
    ok = True

    base_speedup = baseline.get("derived", {}).get("cycle_kernel_speedup")
    cand_speedup = candidate.get("derived", {}).get("cycle_kernel_speedup")
    if base_speedup is None or cand_speedup is None:
        raise ConfigError(
            f"profile {profile!r} needs derived.cycle_kernel_speedup "
            "in both documents"
        )
    floor = base_speedup * (1.0 - threshold)
    verdict = "ok" if cand_speedup >= floor else "REGRESSION"
    if cand_speedup < floor:
        ok = False
    lines.append(
        f"[{profile}] cycle_kernel_speedup: baseline {base_speedup:.2f}x -> "
        f"candidate {cand_speedup:.2f}x (floor {floor:.2f}x) [{verdict}]"
    )

    base_eff = baseline.get("derived", {}).get("batch_efficiency")
    cand_eff = candidate.get("derived", {}).get("batch_efficiency")
    if base_eff is not None and cand_eff is not None:
        lines.append(
            f"[{profile}] batch_efficiency: baseline {base_eff:.2f} -> "
            f"candidate {cand_eff:.2f} [advisory]"
        )

    base_marks = baseline.get("benchmarks", {})
    cand_marks = candidate.get("benchmarks", {})
    for name in sorted(set(base_marks) & set(cand_marks)):
        old = base_marks[name].get("wall_s")
        new = cand_marks[name].get("wall_s")
        if not old or new is None:
            continue
        delta = (new - old) / old * 100.0
        lines.append(
            f"[{profile}] {name}: {old:.3f}s -> {new:.3f}s "
            f"({delta:+.0f}%) [advisory]"
        )
    return ok, lines


def compare_bench(
    baseline: Dict[str, Any],
    candidate: Dict[str, Any],
    threshold: float = 0.2,
) -> Tuple[bool, List[str]]:
    """Compare two benchmark documents; returns ``(ok, report lines)``.

    Every profile present in both documents is compared like-for-like.
    Failure is limited to within-host ratios (see the module docstring):
    a profile's ``cycle_kernel_speedup`` dropping more than ``threshold``
    below the baseline's.  Absolute wall-time changes are advisory.
    """
    if threshold <= 0:
        raise ConfigError(f"threshold must be > 0, got {threshold}")
    base_profiles = baseline.get("profiles", {})
    cand_profiles = candidate.get("profiles", {})
    shared = sorted(set(base_profiles) & set(cand_profiles))
    if not shared:
        raise ConfigError(
            "the documents share no benchmark profile "
            f"(baseline: {sorted(base_profiles)}, "
            f"candidate: {sorted(cand_profiles)})"
        )
    ok = True
    lines: List[str] = []
    for profile in shared:
        profile_ok, profile_lines = _compare_profile(
            profile, base_profiles[profile], cand_profiles[profile], threshold
        )
        ok = ok and profile_ok
        lines.extend(profile_lines)
    for profile in sorted(set(base_profiles) - set(cand_profiles)):
        lines.append(f"[{profile}] present in baseline only [advisory]")
    for profile in sorted(set(cand_profiles) - set(base_profiles)):
        lines.append(f"[{profile}] new in candidate [advisory]")
    return ok, lines
