"""Statistical application models.

The paper drives its full-system simulator with SPLASH-2/PARSEC-class
multithreaded benchmarks; those binaries (and the authors' simulator) are
unavailable, so each benchmark is replaced by a *statistical program*: a
multi-phase stochastic access stream with the knobs that matter for network
traffic —

* memory intensity (``mem_ratio``) and burstiness,
* working-set sizes (drives L1/L2 miss rates),
* private/shared split and write fraction (drives coherence traffic:
  invalidations, recalls, 3-hop transactions),
* access skew (``zipf_s``; hot shared lines concentrate directory traffic),
* barrier phases (synchronized traffic bursts).

Twelve models are provided — eight SPLASH-class (the paper-shaped accuracy
suite, :func:`splash_apps`) and four PARSEC-class additions — loosely shaped
after the usual suspects.  :func:`make_mixed_programs` builds
multiprogrammed mixes with disjoint shared regions.  The parameterizations
are *qualitative*: they span light-to-heavy and
private-to-shared behaviour, which is what the accuracy experiments need
(see DESIGN.md, substitution table).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Dict, List, Tuple

import numpy as np

from ..errors import WorkloadError
from ..fullsys.address import AddressMap
from ..fullsys.core_model import Phase
from ..util import Rng, check_probability

__all__ = [
    "PhaseSpec",
    "AppSpec",
    "StatisticalProgram",
    "APPS",
    "make_programs",
    "make_mixed_programs",
    "app_names",
    "splash_apps",
]


@dataclass(frozen=True)
class PhaseSpec:
    """Stochastic parameters of one program phase."""

    instructions: int
    mem_ratio: float = 0.25  # memory accesses per instruction
    shared_frac: float = 0.2  # fraction of accesses to the shared region
    write_frac: float = 0.25  # fraction of *private* accesses that are stores
    shared_write_frac: float = 0.08  # fraction of *shared* accesses that are stores
    private_lines: int = 2048  # private working set (lines)
    shared_lines: int = 8192  # shared working set (lines)
    zipf_s: float = 0.6  # access skew (0 = uniform)
    burstiness: float = 0.3  # probability an access belongs to a burst
    name: str = ""

    def __post_init__(self) -> None:
        if self.instructions < 1:
            raise WorkloadError(f"phase needs >= 1 instruction, got {self.instructions}")
        check_probability(self.mem_ratio, "mem_ratio")
        if self.mem_ratio <= 0:
            raise WorkloadError("mem_ratio must be > 0 (a phase with no memory "
                                "accesses generates no events)")
        check_probability(self.shared_frac, "shared_frac")
        check_probability(self.write_frac, "write_frac")
        check_probability(self.shared_write_frac, "shared_write_frac")
        check_probability(self.burstiness, "burstiness")
        if self.private_lines < 1 or self.shared_lines < 1:
            raise WorkloadError("working sets must be >= 1 line")


@dataclass(frozen=True)
class AppSpec:
    """A named multi-phase application model."""

    name: str
    phases: Tuple[PhaseSpec, ...]
    barriers: bool = True

    def scaled(self, factor: float) -> "AppSpec":
        """Same behaviour, ``factor``× the instruction count per phase."""
        if factor <= 0:
            raise WorkloadError(f"scale factor must be > 0, got {factor}")
        return AppSpec(
            name=self.name,
            phases=tuple(
                replace(p, instructions=max(1, int(p.instructions * factor)))
                for p in self.phases
            ),
            barriers=self.barriers,
        )


@lru_cache(maxsize=256)
def zipf_cdf(n: int, s: float) -> Tuple[float, ...]:
    """Inverse-CDF table of the Zipf distribution over ``[0, n)``.

    ``bisect_left(zipf_cdf(n, s), u)`` is the index drawn by a uniform
    ``u`` — the same index ``np.searchsorted`` finds, without NumPy's
    per-call overhead on a scalar.  The table is immutable and shared by
    every core (and phase) with the same ``(n, s)``: one copy per run
    instead of one per core.
    """
    cdf = np.cumsum(np.arange(1, n + 1, dtype=float) ** -s)
    cdf /= cdf[-1]
    return tuple(cdf.tolist())


class StatisticalProgram:
    """One core's view of an :class:`AppSpec` (implements ``CoreProgram``).

    Private accesses land in the core's own region; shared accesses land in
    a per-phase window of the global shared region so different phases touch
    different data (cold misses at phase starts, as real phases have).  A
    two-state burst process (inside/outside a burst) modulates the gaps so
    traffic is clumped rather than Poisson — one of the properties vacuum
    simulation destroys.
    """

    #: gap while inside a burst (back-to-back accesses)
    BURST_GAP_MEAN = 1.0

    def __init__(
        self,
        core_id: int,
        spec: AppSpec,
        address_map: AddressMap,
        seed: int = 1,
        shared_offset: int = 0,
    ) -> None:
        self.core_id = core_id
        self.spec = spec
        self.address_map = address_map
        self.barriers = spec.barriers
        #: base of this program's window in the shared region; programs of
        #: the same app share a window, different apps in a multiprogrammed
        #: mix get disjoint windows (independent processes share nothing).
        self.shared_offset = shared_offset
        self.phases: List[Phase] = [
            Phase(instructions=p.instructions, name=p.name or f"phase{i}")
            for i, p in enumerate(spec.phases)
        ]
        self.rng = Rng(seed, f"app/{spec.name}/core{core_id}")
        self._in_burst = False
        self._burst_p = 1.0 / (1.0 + self.BURST_GAP_MEAN)
        # Per-phase constants of next_access, resolved (and range-checked by
        # the address map) once: region bases, CDF tables, the gap law.
        private_base = address_map.private_line(core_id, 0)
        shared_base = address_map.shared_line(shared_offset)
        self._phase_consts = []
        for p in spec.phases:
            address_map.private_line(core_id, p.private_lines - 1)
            # Geometric gaps with the mean that preserves the overall
            # mem_ratio in expectation (None: back-to-back accesses).
            mean_gap = max(0.0, 1.0 / p.mem_ratio - 1.0)
            self._phase_consts.append((
                p.burstiness,
                1.0 / (1.0 + mean_gap) if mean_gap > 0.0 else None,
                p.shared_frac,
                shared_base, zipf_cdf(p.shared_lines, p.zipf_s), p.shared_write_frac,
                private_base, zipf_cdf(p.private_lines, p.zipf_s), p.write_frac,
            ))

    # ------------------------------------------------------------------
    def next_access(self, phase: int) -> Tuple[int, int, bool]:
        (burstiness, gap_p, shared_frac, shared_base, shared_cdf, shared_write,
         private_base, private_cdf, private_write) = self._phase_consts[phase]
        random = self.rng.random
        # Burst modulation, a two-state Markov process: bursts keep gaps
        # near zero; between bursts gaps are geometric.
        in_burst = self._in_burst
        if in_burst and random() < 0.5:  # burst continues
            gap = self.rng.geometric(self._burst_p) - 1
        elif not in_burst and random() < burstiness:  # burst starts
            self._in_burst = True
            gap = 0
        else:
            self._in_burst = False
            gap = self.rng.geometric(gap_p) - 1 if gap_p is not None else 0
        if random() < shared_frac:
            # All phases of an app revisit the same shared data structure
            # (window offset 0): phase transitions re-warm rather than
            # recold the shared footprint, as iterative SPLASH-class
            # kernels do.
            line = shared_base + bisect_left(shared_cdf, random())
            return gap, line, random() < shared_write
        line = private_base + bisect_left(private_cdf, random())
        return gap, line, random() < private_write

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StatisticalProgram({self.spec.name}, core={self.core_id})"


def _mk(name: str, *phases: PhaseSpec, barriers: bool = True) -> AppSpec:
    return AppSpec(name=name, phases=phases, barriers=barriers)


#: The benchmark suite.  Instruction counts are per core per phase and sized
#: for tractable pure-Python simulation; use :meth:`AppSpec.scaled` to grow.
APPS: Dict[str, AppSpec] = {
    spec.name: spec
    for spec in [
        _mk(
            "fft",
            PhaseSpec(6000, mem_ratio=0.18, shared_frac=0.10, write_frac=0.30,
                      shared_write_frac=0.05, private_lines=96, shared_lines=256,
                      zipf_s=0.9, burstiness=0.2, name="compute"),
            PhaseSpec(3000, mem_ratio=0.45, shared_frac=0.85, write_frac=0.50,
                      shared_write_frac=0.40, private_lines=48, shared_lines=1024,
                      zipf_s=0.5, burstiness=0.5, name="transpose"),
            PhaseSpec(6000, mem_ratio=0.18, shared_frac=0.10, write_frac=0.30,
                      shared_write_frac=0.05, private_lines=96, shared_lines=256,
                      zipf_s=0.9, burstiness=0.2, name="compute2"),
        ),
        _mk(
            "lu",
            PhaseSpec(5000, mem_ratio=0.30, shared_frac=0.35, write_frac=0.35,
                      shared_write_frac=0.10, private_lines=128, shared_lines=512,
                      zipf_s=1.0, burstiness=0.3, name="factor-outer"),
            PhaseSpec(4000, mem_ratio=0.30, shared_frac=0.45, write_frac=0.35,
                      shared_write_frac=0.10, private_lines=96, shared_lines=256,
                      zipf_s=1.0, burstiness=0.3, name="factor-mid"),
            PhaseSpec(3000, mem_ratio=0.30, shared_frac=0.55, write_frac=0.35,
                      shared_write_frac=0.12, private_lines=64, shared_lines=128,
                      zipf_s=1.0, burstiness=0.3, name="factor-inner"),
        ),
        _mk(
            "radix",
            PhaseSpec(4000, mem_ratio=0.50, shared_frac=0.20, write_frac=0.15,
                      shared_write_frac=0.05, private_lines=256, shared_lines=128,
                      zipf_s=0.7, burstiness=0.4, name="count"),
            PhaseSpec(4000, mem_ratio=0.50, shared_frac=0.75, write_frac=0.70,
                      shared_write_frac=0.50, private_lines=64, shared_lines=2048,
                      zipf_s=0.4, burstiness=0.6, name="permute"),
        ),
        _mk(
            "ocean",
            PhaseSpec(5000, mem_ratio=0.40, shared_frac=0.30, write_frac=0.40,
                      shared_write_frac=0.15, private_lines=512, shared_lines=1024,
                      zipf_s=0.8, burstiness=0.35, name="red-sweep"),
            PhaseSpec(5000, mem_ratio=0.40, shared_frac=0.30, write_frac=0.40,
                      shared_write_frac=0.15, private_lines=512, shared_lines=1024,
                      zipf_s=0.8, burstiness=0.35, name="black-sweep"),
            PhaseSpec(2500, mem_ratio=0.35, shared_frac=0.50, write_frac=0.30,
                      shared_write_frac=0.10, private_lines=128, shared_lines=512,
                      zipf_s=0.9, burstiness=0.3, name="residual"),
        ),
        _mk(
            "barnes",
            PhaseSpec(7000, mem_ratio=0.28, shared_frac=0.55, write_frac=0.15,
                      shared_write_frac=0.03, private_lines=128, shared_lines=1536,
                      zipf_s=1.2, burstiness=0.45, name="force-calc"),
            PhaseSpec(2500, mem_ratio=0.35, shared_frac=0.70, write_frac=0.55,
                      shared_write_frac=0.25, private_lines=48, shared_lines=512,
                      zipf_s=1.1, burstiness=0.4, name="tree-build"),
        ),
        _mk(
            "water",
            PhaseSpec(8000, mem_ratio=0.12, shared_frac=0.15, write_frac=0.20,
                      shared_write_frac=0.05, private_lines=64, shared_lines=192,
                      zipf_s=1.0, burstiness=0.15, name="intra-mol"),
            PhaseSpec(4000, mem_ratio=0.20, shared_frac=0.40, write_frac=0.30,
                      shared_write_frac=0.08, private_lines=64, shared_lines=384,
                      zipf_s=1.0, burstiness=0.25, name="inter-mol"),
        ),
        _mk(
            "cholesky",
            PhaseSpec(6000, mem_ratio=0.32, shared_frac=0.40, write_frac=0.35,
                      shared_write_frac=0.12, private_lines=192, shared_lines=768,
                      zipf_s=1.1, burstiness=0.5, name="supernode"),
            PhaseSpec(4000, mem_ratio=0.32, shared_frac=0.50, write_frac=0.35,
                      shared_write_frac=0.12, private_lines=96, shared_lines=384,
                      zipf_s=1.1, burstiness=0.5, name="update"),
            barriers=False,
        ),
        _mk(
            "raytrace",
            PhaseSpec(9000, mem_ratio=0.26, shared_frac=0.65, write_frac=0.05,
                      shared_write_frac=0.01, private_lines=64, shared_lines=3072,
                      zipf_s=1.2, burstiness=0.3, name="trace"),
            barriers=False,
        ),
        # PARSEC-class additions: pipeline/task-parallel codes with
        # different sharing textures than the SPLASH-class set above.
        _mk(
            "streamcluster",
            PhaseSpec(6000, mem_ratio=0.38, shared_frac=0.60, write_frac=0.10,
                      shared_write_frac=0.04, private_lines=96, shared_lines=2048,
                      zipf_s=0.3, burstiness=0.2, name="distance-sweep"),
            PhaseSpec(2000, mem_ratio=0.25, shared_frac=0.50, write_frac=0.40,
                      shared_write_frac=0.30, private_lines=48, shared_lines=256,
                      zipf_s=0.8, burstiness=0.4, name="recenter"),
        ),
        _mk(
            "canneal",
            PhaseSpec(8000, mem_ratio=0.35, shared_frac=0.80, write_frac=0.30,
                      shared_write_frac=0.20, private_lines=48, shared_lines=4096,
                      zipf_s=0.2, burstiness=0.25, name="swap-elements"),
            barriers=False,
        ),
        _mk(
            "blackscholes",
            PhaseSpec(9000, mem_ratio=0.10, shared_frac=0.08, write_frac=0.25,
                      shared_write_frac=0.02, private_lines=96, shared_lines=512,
                      zipf_s=0.9, burstiness=0.1, name="price-options"),
        ),
        _mk(
            "bodytrack",
            PhaseSpec(5000, mem_ratio=0.22, shared_frac=0.45, write_frac=0.20,
                      shared_write_frac=0.06, private_lines=128, shared_lines=1024,
                      zipf_s=0.9, burstiness=0.35, name="particle-weights"),
            PhaseSpec(3000, mem_ratio=0.30, shared_frac=0.60, write_frac=0.45,
                      shared_write_frac=0.22, private_lines=64, shared_lines=512,
                      zipf_s=0.8, burstiness=0.45, name="resample"),
        ),
    ]
}


def app_names() -> List[str]:
    """The full benchmark suite, in canonical order."""
    return list(APPS)


def splash_apps() -> List[str]:
    """The SPLASH-class subset used by the paper-shaped accuracy sweeps."""
    return list(APPS)[:8]


def make_programs(
    app: str | AppSpec,
    num_cores: int,
    seed: int = 1,
    scale: float = 1.0,
) -> List[StatisticalProgram]:
    """One program per core for ``app`` (name or spec)."""
    spec = APPS.get(app) if isinstance(app, str) else app
    if spec is None:
        raise WorkloadError(f"unknown app {app!r}; known: {app_names()}")
    if scale != 1.0:
        spec = spec.scaled(scale)
    address_map = AddressMap(num_cores)
    return [
        StatisticalProgram(core, spec, address_map, seed=seed)
        for core in range(num_cores)
    ]


def make_mixed_programs(
    apps: List[str | AppSpec],
    num_cores: int,
    seed: int = 1,
    scale: float = 1.0,
) -> List[StatisticalProgram]:
    """A multiprogrammed mix: core ``i`` runs ``apps[i % len(apps)]``.

    Mixed workloads have no global phase structure, so barriers are disabled
    for every core (each program advances through its own phases alone) —
    matching how multiprogrammed studies run independent processes.
    """
    if not apps:
        raise WorkloadError("need at least one app in the mix")
    specs = []
    for app in apps:
        spec = APPS.get(app) if isinstance(app, str) else app
        if spec is None:
            raise WorkloadError(f"unknown app {app!r}; known: {app_names()}")
        if scale != 1.0:
            spec = spec.scaled(scale)
        specs.append(AppSpec(name=spec.name, phases=spec.phases, barriers=False))
    address_map = AddressMap(num_cores)
    # Disjoint shared windows: independent processes share no data.
    window = 1 << 16
    return [
        StatisticalProgram(
            core,
            specs[core % len(specs)],
            address_map,
            seed=seed,
            shared_offset=(core % len(specs)) * window,
        )
        for core in range(num_cores)
    ]
