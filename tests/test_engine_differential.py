"""Per-cycle differential test: flat-index kernels vs the untouched oracle.

``repro.noc_gpu`` keeps the original N-d-indexed kernels and is not
touched by the flat rewrite of ``repro.engine``; here it is the
independent oracle.  Over a seeded grid of shapes and timing parameters,
every lane of a :class:`SimdBatch` must hold, after **every** cycle,
exactly the arrays an independent :class:`SimdNetwork` fed the same
traffic holds — not just the same packets at the end.
"""

import itertools
import random

import numpy as np
import pytest

from repro.engine.network import SimdBatch
from repro.noc import Mesh, NocConfig, Packet
from repro.noc_gpu import SimdNetwork

MESHES = ((2, 2), (5, 3), (8, 8))
LANES = (1, 3)
LOADS = ("light", "saturating")
VCS = BUFFERS = (1, 2, 4)
DELAYS = (1, 2, 3)
#: every (mesh, lanes, load) point under three parameter draws
GRID = list(itertools.product(MESHES, LANES, LOADS, range(3)))

#: per-VC arrays compared cell for cell; batch has the leading lane axis
STATE_ARRAYS = (
    "count", "head", "credits", "ovc_owner", "route_port", "out_vc", "active",
    "sa_in_ptr", "sa_out_ptr", "va_ptr",
)
INJECT_CYCLES = 30
MAX_CYCLES = 4000


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


def _occupied(state_head, state_count, depth):
    """Bool mask over ``[..., B]``: the ring slots that hold a flit."""
    offset = (np.arange(depth) - state_head[..., None]) % depth
    return offset < state_count[..., None]


def _tags(buf_pkt, pkt_objects):
    return [pkt_objects[i].payload for i in buf_pkt.tolist()]


def _assert_lane_equals_oracle(batch, lane, oracle, where):
    mine, theirs = batch.state, oracle.state
    for name in STATE_ARRAYS:
        assert np.array_equal(getattr(mine, name)[lane], getattr(theirs, name)), (
            f"{where}: {name} differs"
        )
    occupied = _occupied(theirs.head, theirs.count, theirs.B)
    for name in ("buf_seq", "buf_flags", "buf_ready"):
        assert np.array_equal(
            getattr(mine, name)[lane][occupied], getattr(theirs, name)[occupied]
        ), f"{where}: occupied {name} slots differ"
    # packet-table indices are global in the batch, per network in the
    # oracle: compare the packets they name
    assert _tags(mine.buf_pkt[lane][occupied], mine.pkt_objects) == _tags(
        theirs.buf_pkt[occupied], theirs.pkt_objects
    ), f"{where}: occupied buf_pkt slots differ"


def test_grid_draws_every_parameter_value():
    drawn = [_noc_config(case) for case in range(len(GRID))]
    assert {c.num_vcs for c in drawn} == set(VCS)
    assert {c.buffer_depth for c in drawn} == set(BUFFERS)
    for field in ("router_delay", "link_delay", "credit_delay"):
        assert {getattr(c, field) for c in drawn} == set(DELAYS), field


@pytest.mark.parametrize("case", range(len(GRID)))
def test_every_cycle_matches_the_oracle(case):
    (width, height), lanes, load, _ = GRID[case]
    config = _noc_config(case)
    batch = SimdBatch(Mesh(width, height), config, lanes=lanes)
    oracles = [SimdNetwork(Mesh(width, height), config) for _ in range(lanes)]
    schedules = [
        _schedule(width * height, load, seed=100 * case + lane)
        for lane in range(lanes)
    ]
    cursors = [0] * lanes
    label = f"{width}x{height} L={lanes} {load} {config}"

    cycle = 0
    while cycle < INJECT_CYCLES or batch.in_flight:
        assert cycle < MAX_CYCLES, f"{label}: did not drain"
        for lane, schedule in enumerate(schedules):
            while cursors[lane] < len(schedule) and schedule[cursors[lane]][0] == cycle:
                _, src, dst, size = schedule[cursors[lane]]
                tag = (lane, cursors[lane])
                for network in (batch.lane(lane), oracles[lane]):
                    network.inject(
                        Packet(src=src, dst=dst, size_flits=size, msg_class=0,
                               payload=tag),
                        cycle,
                    )
                cursors[lane] += 1
        batch.step()
        for lane, oracle in enumerate(oracles):
            oracle.step()
            _assert_lane_equals_oracle(
                batch, lane, oracle, f"{label} lane {lane} cycle {cycle}"
            )
        cycle += 1

    assert any(cursors), f"{label}: the schedule injected nothing"
    for lane, oracle in enumerate(oracles):
        view = batch.lane(lane)
        assert oracle.in_flight == 0
        assert [p.payload for p in view.pop_delivered()] == [
            p.payload for p in oracle.pop_delivered()
        ]
        for name in ("injected_packets", "ejected_packets", "injected_flits",
                     "ejected_flits", "latencies", "network_latencies", "cycles"):
            assert getattr(view.stats, name) == getattr(oracle.stats, name), name
        assert view.energy_counters() == oracle.energy_counters()
        assert view.kernel_launches == oracle.kernel_launches
