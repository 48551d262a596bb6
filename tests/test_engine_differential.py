"""Per-cycle differential test: the vectorised kernels vs the recorded oracle.

Until it was folded into ``repro.engine``, ``repro.noc_gpu`` carried an
independent N-d-indexed spelling of the cycle kernels, and this test
stepped one such network per lane beside the batch.  The oracle's last
act was to be recorded: ``fixtures/simd_oracle_digests.json`` holds, for
every ``(case, lane)`` of the seeded grid below, a *chained* digest of
the lane's state — each cycle's canonical projection hashed into one
running hash, sampled every :data:`SAMPLE_EVERY` cycles and at drain —
plus the signature of what the lane delivered.  Every lane of a
:class:`SimdBatch` must reproduce its chain, so all arrays after
**every** cycle are pinned, not just the packets at the end; a mismatch
names the first window of cycles that diverged.

The fixture also carries the whole-run signatures
``tests/test_engine_cosim.py`` holds the shipped ``simd`` configs to.
Re-record only from a commit whose outputs are known good, never to
make a failure go away (``PYTHONPATH`` picks the recording tree; the
header names its commit and the network class that was stepped)::

    PYTHONPATH=src python -m tests.test_engine_differential --record
"""

import dataclasses
import hashlib
import itertools
import json
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.engine.network import SimdBatch
from repro.noc import Mesh, NocConfig, Packet

FIXTURE = Path(__file__).parent / "fixtures" / "simd_oracle_digests.json"

MESHES = ((2, 2), (5, 3), (8, 8))
LANES = (1, 3)
LOADS = ("light", "saturating")
VCS = BUFFERS = (1, 2, 4)
DELAYS = (1, 2, 3)
#: every (mesh, lanes, load) point under three parameter draws
GRID = list(itertools.product(MESHES, LANES, LOADS, range(3)))

#: per-VC arrays hashed cell for cell, in the lane's ``[R,P,V]`` order
STATE_ARRAYS = (
    "count", "head", "credits", "ovc_owner", "route_port", "out_vc", "active",
    "sa_in_ptr", "sa_out_ptr", "va_ptr",
)
INJECT_CYCLES = 30
MAX_CYCLES = 4000
SAMPLE_EVERY = 16


def _noc_config(case: int) -> NocConfig:
    """Timing and buffering drawn per grid case from a fixed seed."""
    rng = random.Random(7000 + case)
    return NocConfig(
        num_vcs=rng.choice(VCS),
        buffer_depth=rng.choice(BUFFERS),
        router_delay=rng.choice(DELAYS),
        link_delay=rng.choice(DELAYS),
        credit_delay=rng.choice(DELAYS),
    )


def _schedule(nodes: int, load: str, seed: int):
    """``[(cycle, src, dst, size), ...]`` for one lane."""
    rng = random.Random(seed)
    rate = 0.05 if load == "light" else 0.9
    out = []
    for cycle in range(INJECT_CYCLES):
        for src in range(nodes):
            if rng.random() < rate:
                dst = rng.randrange(nodes - 1)
                dst += dst >= src
                out.append((cycle, src, dst, rng.choice((1, 2, 5))))
    return out


def _case(case: int):
    """``(topology dims, config, per-lane schedules, label)`` of a grid case."""
    (width, height), lanes, load, _ = GRID[case]
    config = _noc_config(case)
    schedules = [
        _schedule(width * height, load, seed=100 * case + lane)
        for lane in range(lanes)
    ]
    return (width, height), config, schedules, f"{width}x{height} L={lanes} {load} {config}"


def _digest(values) -> str:
    return hashlib.sha256(json.dumps(values).encode("ascii")).hexdigest()[:12]


def _lane_state(network):
    """``(state, lane index)`` behind a driveable network.

    A lane view indexes the batch's arrays with its lane; the lane-less
    twin the fixture was recorded from indexes its own with ``()``.
    """
    batch = getattr(network, "batch", None)
    if batch is None:
        return network.state, ()
    return batch.state, network.lane_index


def lane_projection(network):
    """One lane's canonical state: the int64 arrays two spellings of the
    kernels must agree on.  Ring slots that hold no flit are garbage by
    contract, and packet-table indices are global to a batch, so buffers
    project to their occupied slots and packets to their payload tags.
    """
    state, lane = _lane_state(network)
    head, count = state.head[lane], state.count[lane]
    offset = (np.arange(state.B) - head[..., None]) % state.B
    occupied = offset < count[..., None]
    tags = [state.pkt_objects[i].payload for i in state.buf_pkt[lane][occupied].tolist()]
    arrays = [getattr(state, name)[lane] for name in STATE_ARRAYS]
    arrays += [getattr(state, name)[lane][occupied]
               for name in ("buf_seq", "buf_flags", "buf_ready")]
    arrays.append(np.array(tags).reshape(-1))
    return [np.ascontiguousarray(a, dtype=np.int64) for a in arrays]


def delivery_signature(network) -> dict:
    """What the lane delivered and counted, bulky fields as digests."""
    stats = network.stats
    return {
        "delivered": _digest([p.payload for p in network.pop_delivered()]),
        "packets": [stats.injected_packets, stats.ejected_packets],
        "flits": [stats.injected_flits, stats.ejected_flits],
        "latencies": _digest(stats.latencies),
        "network_latencies": _digest(stats.network_latencies),
        "energy": list(dataclasses.astuple(network.energy_counters())),
        "kernel_launches": network.kernel_launches,
    }


def drive(case: int, networks, step, expect=None):
    """Feed each lane's schedule to its network, ``step()`` once per
    cycle until everything drained, and chain every lane's projection.

    Returns one ``{"cycles", "chain", "signature"}`` record per lane.
    With ``expect`` (the recorded records) each sample is checked as it
    is taken, so a divergence fails inside its window.
    """
    _, _, schedules, label = _case(case)
    cursors = [0] * len(networks)
    hashes = [hashlib.sha256() for _ in networks]
    chains = [[] for _ in networks]

    def sample(cycle):
        for lane, running in enumerate(hashes):
            chains[lane].append(running.hexdigest()[:12])
            if expect is not None:
                want = expect[lane]["chain"]
                at = len(chains[lane]) - 1
                assert at < len(want) and chains[lane][at] == want[at], (
                    f"{label} lane {lane}: state left the oracle's in cycles "
                    f"{cycle - cycle % SAMPLE_EVERY}..{cycle}"
                )

    cycle = 0
    while cycle < INJECT_CYCLES or any(n.in_flight for n in networks):
        assert cycle < MAX_CYCLES, f"{label}: did not drain"
        for lane, schedule in enumerate(schedules):
            while cursors[lane] < len(schedule) and schedule[cursors[lane]][0] == cycle:
                _, src, dst, size = schedule[cursors[lane]]
                networks[lane].inject(
                    Packet(src=src, dst=dst, size_flits=size, msg_class=0,
                           payload=(lane, cursors[lane])),
                    cycle,
                )
                cursors[lane] += 1
        step()
        for network, running in zip(networks, hashes):
            for array in lane_projection(network):
                running.update(array.tobytes())
        if (cycle + 1) % SAMPLE_EVERY == 0:
            sample(cycle)
        cycle += 1
    if cycle % SAMPLE_EVERY:
        sample(cycle - 1)

    assert any(cursors), f"{label}: the schedule injected nothing"
    return [
        {"cycles": cycle, "chain": chain, "signature": delivery_signature(network)}
        for network, chain in zip(networks, chains)
    ]


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(FIXTURE.read_text())


def test_grid_draws_every_parameter_value():
    drawn = [_noc_config(case) for case in range(len(GRID))]
    assert {c.num_vcs for c in drawn} == set(VCS)
    assert {c.buffer_depth for c in drawn} == set(BUFFERS)
    for field in ("router_delay", "link_delay", "credit_delay"):
        assert {getattr(c, field) for c in drawn} == set(DELAYS), field


def test_fixture_covers_the_grid(recorded):
    assert len(recorded["chains"]) == len(GRID)
    for case, lanes in enumerate(recorded["chains"]):
        assert len(lanes) == GRID[case][1]
    assert FIXTURE.stat().st_size <= 64 * 1024


def held_from_wormhole_state(state) -> np.ndarray:
    """What ``held`` must be: the output cell ``(lane, r, route_port,
    out_vc)`` of every active input VC, -1 elsewhere."""
    first_port_cell = np.arange(state.L * state.R)[:, None, None] * state.P
    held = (first_port_cell + state.route_port.reshape(-1, state.P, state.V)) * state.V
    held += state.out_vc.reshape(-1, state.P, state.V)
    return np.where(state.active.reshape(-1), held.reshape(-1), -1)


@pytest.mark.parametrize("case", range(len(GRID)))
def test_every_cycle_matches_the_oracle(case, recorded):
    dims, config, schedules, label = _case(case)
    batch = SimdBatch(Mesh(*dims), config, lanes=len(schedules))
    views = [batch.lane(lane) for lane in range(batch.lanes)]
    expect = recorded["chains"][case]

    def step():
        batch.step()
        # the one derived array the kernels maintain themselves
        assert np.array_equal(batch.state.held, held_from_wormhole_state(batch.state)), (
            f"{label}: held left (route_port, out_vc) in cycle {batch.cycle - 1}"
        )

    got = drive(case, views, step, expect)
    for lane, (mine, theirs) in enumerate(zip(got, expect)):
        assert mine == theirs, f"{label} lane {lane}"


def _record() -> None:  # pragma: no cover - fixture maintenance
    """Step one independent ``SimdNetwork`` per lane (at the commit that
    still had the ``noc_gpu`` twin: the oracle) and write the fixture."""
    from repro.noc_gpu import SimdNetwork

    from .test_engine_cosim import recorded_cosim_signatures

    chains = []
    for case in range(len(GRID)):
        dims, config, schedules, _ = _case(case)
        networks = [SimdNetwork(Mesh(*dims), config) for _ in schedules]

        def step_all():
            for network in networks:
                network.step()

        chains.append(drive(case, networks, step_all))
    tree = Path(repro.__file__).resolve().parent
    commit = subprocess.run(
        ["git", "-C", str(tree), "rev-parse", "HEAD"],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    document = {
        "recorded_from": {
            "commit": commit,
            "network": f"{type(networks[0]).__module__}.{type(networks[0]).__qualname__}",
            "sample_every": SAMPLE_EVERY,
        },
        "chains": chains,
        "cosim": recorded_cosim_signatures(),
    }
    # indented, but one grid case per line: the chains are long
    rows = ",\n".join("  " + json.dumps(lanes) for lanes in chains)
    text = json.dumps({**document, "chains": None}, indent=1)
    FIXTURE.write_text(text.replace("null", f"[\n{rows}\n ]", 1) + "\n")
    print(f"recorded {len(GRID)} cases from {commit[:7]} to {FIXTURE}")


if __name__ == "__main__":  # pragma: no cover - fixture maintenance
    if sys.argv[1:] != ["--record"]:
        raise SystemExit(__doc__)
    _record()
