"""Lane independence of the SIMD engine at the network level.

The contract under test: lane *k* of a K-lane
:class:`repro.engine.network.SimdBatch` stepping all lanes in one kernel
invocation is *byte-identical* to its own one-lane batch — every state
array after every cycle, per-packet timing, aggregate statistics, and
energy event counts — for heterogeneous per-lane traffic.
"""

import random

import numpy as np
import pytest

from repro.engine.network import BatchedSimdNetwork, SimdBatch, SimdNetwork
from repro.errors import ConfigError, SimulationError
from repro.noc import Mesh, NocConfig, Packet
from repro.noc.topology import Torus

from .test_engine_differential import lane_projection


def _traffic(num_nodes, cycles, rate_inv, seed):
    """Deterministic (cycle, src, dst, size) schedule, heterogeneous by seed."""
    rng = random.Random(seed)
    schedule = []
    for cycle in range(cycles):
        for _ in range(rng.randrange(rate_inv)):
            src = rng.randrange(num_nodes)
            dst = rng.randrange(num_nodes)
            if dst == src:
                continue
            schedule.append((cycle, src, dst, rng.choice((1, 3, 5))))
    return schedule


def _drive(network, schedule, cycles):
    """Inject the schedule cycle by cycle; returns delivered packets."""
    delivered = []
    index = 0
    for cycle in range(cycles):
        while index < len(schedule) and schedule[index][0] == cycle:
            _, src, dst, size = schedule[index]
            network.inject(
                Packet(src=src, dst=dst, size_flits=size, msg_class=0,
                       inject_cycle=cycle),
                cycle,
            )
            index += 1
        network.step()
        delivered.extend(network.pop_delivered())
    network.drain()
    delivered.extend(network.pop_delivered())
    return delivered


def _signature(packets):
    return [
        (p.src, p.dst, p.size_flits, p.inject_cycle, p.network_entry_cycle,
         p.eject_cycle, p.hops)
        for p in packets
    ]


class TestBatchBitIdentity:
    def test_four_heterogeneous_lanes_match_singles(self):
        topo_dims = (6, 6)
        cycles = 160
        seeds = (3, 7, 11, 13)
        schedules = [
            _traffic(topo_dims[0] * topo_dims[1], cycles, 4, seed)
            for seed in seeds
        ]

        singles = [SimdNetwork(Mesh(*topo_dims), NocConfig()) for _ in seeds]
        batch = SimdBatch(Mesh(*topo_dims), NocConfig(), lanes=len(seeds))
        lanes = [batch.lane(i) for i in range(len(seeds))]
        # Interleave: inject every lane's cycle-c packets, then step once.
        indices = [0] * len(seeds)
        delivered = [[] for _ in seeds]
        single_delivered = [[] for _ in seeds]
        cycle = 0
        while cycle < cycles or batch.in_flight:
            for li, schedule in enumerate(schedules):
                while (indices[li] < len(schedule)
                       and schedule[indices[li]][0] == cycle):
                    _, src, dst, size = schedule[indices[li]]
                    for network in (lanes[li], singles[li]):
                        network.inject(
                            Packet(src=src, dst=dst, size_flits=size, msg_class=0,
                                   inject_cycle=cycle, payload=(li, indices[li])),
                            cycle,
                        )
                    indices[li] += 1
            batch.step()
            for li, (lane, single) in enumerate(zip(lanes, singles)):
                single.step()
                for mine, alone in zip(lane_projection(lane), lane_projection(single)):
                    assert np.array_equal(mine, alone), f"lane {li} cycle {cycle}"
                delivered[li].extend(lane.pop_delivered())
                single_delivered[li].extend(single.pop_delivered())
            cycle += 1

        for li, (lane, single) in enumerate(zip(lanes, singles)):
            assert single.in_flight == 0
            assert _signature(delivered[li]) == _signature(single_delivered[li])
            for name in ("injected_packets", "ejected_packets", "injected_flits",
                         "ejected_flits", "latencies", "network_latencies"):
                assert getattr(lane.stats, name) == getattr(single.stats, name), (
                    f"lane {li} {name}"
                )
            assert lane.energy_counters() == single.energy_counters(), f"lane {li}"

    def test_kernel_launches_shared_across_lanes(self):
        batch = SimdBatch(Mesh(4, 4), NocConfig(), lanes=4)
        lane = batch.lane(0)
        lane.inject(Packet(src=0, dst=15, size_flits=2, msg_class=0), 0)
        for _ in range(30):
            batch.step()
        # 4 kernels per step, whatever the lane count.
        assert batch.kernel_launches == 4 * 30
        assert batch.lane(3).kernel_launches == batch.kernel_launches


class TestConstruction:
    def test_lanes_must_be_positive(self):
        with pytest.raises(ConfigError):
            SimdBatch(Mesh(4, 4), NocConfig(), lanes=0)

    def test_mesh_required(self):
        with pytest.raises(ConfigError):
            SimdBatch(Torus(4, 4), NocConfig(), lanes=1)

    def test_class_partition_rejected(self):
        with pytest.raises(ConfigError):
            SimdBatch(Mesh(4, 4), NocConfig(vc_select="class_partition"), lanes=1)

    def test_lane_views_are_stable(self):
        batch = SimdBatch(Mesh(4, 4), NocConfig(), lanes=2)
        assert batch.lane(0) is batch.lane(0)
        assert isinstance(batch.lane(1), BatchedSimdNetwork)
        with pytest.raises(IndexError):
            batch.lane(2)


class TestLaneView:
    def test_past_injection_rejected(self):
        lane = SimdBatch(Mesh(4, 4), NocConfig(), lanes=1).lane(0)
        for _ in range(5):
            lane.step()
        with pytest.raises(SimulationError):
            lane.inject(Packet(src=0, dst=5, size_flits=1, msg_class=0), 2)

    def test_lane_isolation(self):
        """Traffic in lane 0 never surfaces in lane 1's deliveries/stats."""
        batch = SimdBatch(Mesh(4, 4), NocConfig(), lanes=2)
        busy, idle = batch.lane(0), batch.lane(1)
        busy.inject(Packet(src=0, dst=15, size_flits=3, msg_class=0), 0)
        busy.drain()
        assert len(busy.pop_delivered()) == 1
        assert idle.pop_delivered() == []
        assert idle.stats.injected_packets == 0
        assert idle.in_flight == 0

    def test_single_lane_matches_simd_network(self):
        """``SimdNetwork`` *is* the lane of a one-lane batch."""
        calls = []
        network = SimdNetwork(
            Mesh(4, 4), NocConfig(), on_eject=lambda p, c: calls.append(c)
        )
        assert type(network) is BatchedSimdNetwork
        assert network.batch.lanes == 1 and network.batch.lane(0) is network
        cycles = 120
        schedule = _traffic(16, cycles, 3, 99)
        sig = _signature(_drive(network, schedule, cycles))
        lane = SimdBatch(Mesh(4, 4), NocConfig(), lanes=1).lane(0)
        assert _signature(_drive(lane, schedule, cycles)) == sig
        assert calls == [p[5] for p in sig]
