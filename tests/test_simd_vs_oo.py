"""Statistical-equivalence tests: the SIMD network vs the OO network.

The experiments use the SIMD simulator as the cycle-level ground truth
(it is several times faster); these tests bound how far its aggregate
behaviour may drift from the reference OO implementation — the one
live reference the vectorised kernels of ``repro.engine`` are held to
(``docs/simd-network.md`` states the bounds as identities).
"""

import random

import pytest

from repro.noc import CycleNetwork, Mesh, NocConfig, Packet
from repro.noc_gpu import SimdNetwork
from repro.workloads import SyntheticTraffic


def run_pair(pattern, rate, cycles=1200, size=4, config=None, topo_dims=(8, 8)):
    results = []
    for cls in (CycleNetwork, SimdNetwork):
        topo = Mesh(*topo_dims)
        net = cls(topo, config or NocConfig())
        SyntheticTraffic(topo, pattern, rate=rate, size_flits=size, seed=17).drive(
            net, cycles
        )
        results.append(net.stats)
    return results


class TestZeroLoadExactEquality:
    @pytest.mark.parametrize("src,dst,size", [(0, 15, 1), (0, 15, 6), (5, 10, 3), (12, 2, 8)])
    def test_single_packet_identical(self, src, dst, size):
        latencies = []
        for cls in (CycleNetwork, SimdNetwork):
            net = cls(Mesh(4, 4))
            p = Packet(src=src, dst=dst, size_flits=size)
            net.inject(p)
            net.drain()
            latencies.append((p.latency, p.hops))
        assert latencies[0] == latencies[1]

    def test_packet_sequence_identical_when_uncontended(self):
        """Well-separated packets see identical timing in both simulators."""
        for cls in (CycleNetwork, SimdNetwork):
            net = cls(Mesh(4, 4))
            pkts = [
                Packet(src=i, dst=15 - i, size_flits=3) for i in range(4)
            ]
            for i, p in enumerate(pkts):
                net.inject(p, cycle=i * 100)
            net.drain()
            lats = tuple(p.latency for p in pkts)
            if cls is CycleNetwork:
                reference = lats
        assert lats == reference


class TestLoadedAgreement:
    @pytest.mark.parametrize(
        "pattern,rate",
        [("uniform", 0.03), ("uniform", 0.07), ("transpose", 0.05), ("neighbor", 0.10)],
    )
    def test_mean_latency_within_tolerance(self, pattern, rate):
        oo, simd = run_pair(pattern, rate)
        assert oo.ejected_packets == simd.ejected_packets  # same offered stream
        assert simd.mean_latency == pytest.approx(oo.mean_latency, rel=0.05)
        assert simd.mean_hops == pytest.approx(oo.mean_hops, rel=0.01)

    def test_small_buffers_agreement(self):
        oo, simd = run_pair(
            "uniform", 0.04, config=NocConfig(num_vcs=2, buffer_depth=2)
        )
        assert simd.mean_latency == pytest.approx(oo.mean_latency, rel=0.08)

    def test_throughput_matches_at_moderate_load(self):
        oo, simd = run_pair("uniform", 0.06)
        assert simd.throughput_flits_per_cycle() == pytest.approx(
            oo.throughput_flits_per_cycle(), rel=0.03
        )


class TestSaturationAgreement:
    def test_saturation_onset_similar(self):
        """Near saturation both simulators must show congested latencies of
        similar magnitude (within 20%)."""
        oo, simd = run_pair("uniform", 0.12, cycles=800)
        assert oo.mean_latency > 40  # confirms the point is congested
        assert simd.mean_latency == pytest.approx(oo.mean_latency, rel=0.2)


def _pinned_schedule(num_nodes, cycles, per_cycle, seed):
    """A deterministic ``(cycle, src, dst, size)`` injection schedule."""
    rng = random.Random(seed)
    schedule = []
    for cycle in range(cycles):
        for _ in range(per_cycle):
            src = rng.randrange(num_nodes)
            dst = rng.randrange(num_nodes)
            if dst != src:
                schedule.append((cycle, src, dst, rng.choice((1, 5))))
    return schedule


def _delivered(network, schedule, cycles):
    """Inject ``schedule`` cycle by cycle; the packets delivered in ``cycles``."""
    index = delivered = 0
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
        delivered += len(network.pop_delivered())
    return delivered


class TestPinnedScheduleBound:
    def test_bench_schedule_deliveries_within_half_a_percent(self):
        """The "vectorised ≈ OO" identity on a pinned 16x16 schedule (400
        cycles, 16 packets a cycle, seed 42): the two simulators deliver
        the same packets over the same window to within 0.5 % (5409 vs
        5403 when this was written; lock-step grant timing may differ by a
        cycle, see the kernels)."""
        side, cycles = 16, 400
        schedule = _pinned_schedule(side * side, cycles, 16, seed=42)
        oo = _delivered(CycleNetwork(Mesh(side, side), NocConfig()), schedule, cycles)
        simd = _delivered(SimdNetwork(Mesh(side, side), NocConfig()), schedule, cycles)
        assert oo > 5000  # the window is loaded, not idle
        assert simd == pytest.approx(oo, rel=0.005)
