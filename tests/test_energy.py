"""Tests for the NoC energy model and the simulators' event counters."""

import pytest

from repro.errors import ConfigError
from repro.noc import (
    CycleNetwork,
    EnergyParams,
    Mesh,
    NetworkEventCounts,
    NocConfig,
    estimate_energy,
)
from repro.noc_gpu import SimdNetwork
from repro.workloads import SyntheticTraffic


def run_network(cls, rate=0.05, cycles=500, config=None, topo=None):
    topo = topo or Mesh(4, 4)
    net = cls(topo, config or NocConfig())
    SyntheticTraffic(topo, "uniform", rate=rate, seed=4).drive(net, cycles)
    return net


class TestModelArithmetic:
    def test_zero_traffic_is_leakage_only(self):
        counts = NetworkEventCounts(cycles=1000, routers=16)
        energy = estimate_energy(counts, NocConfig())
        assert energy.dynamic == 0.0
        assert energy.leakage > 0.0
        assert energy.total == energy.leakage

    def test_breakdown_sums(self):
        counts = NetworkEventCounts(
            buffer_writes=10,
            switch_grants=8,
            link_traversals=6,
            allocations=12,
            ejected_flits=4,
            cycles=100,
            routers=4,
        )
        energy = estimate_energy(counts, NocConfig())
        assert energy.total == pytest.approx(energy.dynamic + energy.leakage)
        assert energy.dynamic == pytest.approx(
            energy.buffers + energy.switch + energy.links
            + energy.allocators + energy.ejection
        )

    def test_per_flit(self):
        counts = NetworkEventCounts(cycles=10, routers=1)
        energy = estimate_energy(counts, NocConfig())
        assert energy.per_flit(0) == 0.0
        assert energy.per_flit(10) == pytest.approx(energy.total / 10)

    def test_leakage_scales_with_buffering(self):
        counts = NetworkEventCounts(cycles=1000, routers=16)
        small = estimate_energy(counts, NocConfig(num_vcs=2, buffer_depth=2))
        large = estimate_energy(counts, NocConfig(num_vcs=8, buffer_depth=8))
        assert large.leakage > 4 * small.leakage

    def test_negative_params_rejected(self):
        with pytest.raises(ConfigError):
            EnergyParams(buffer_write_pj=-1)

    def test_as_dict_keys(self):
        energy = estimate_energy(NetworkEventCounts(), NocConfig())
        assert {"dynamic_pj", "leakage_pj", "total_pj"} <= set(energy.as_dict())


class TestCounterInvariants:
    """Conservation laws relating energy events to delivered traffic."""

    @pytest.mark.parametrize("cls", [CycleNetwork, SimdNetwork])
    def test_every_flit_written_once_per_router_visited(self, cls):
        net = run_network(cls)
        counts = net.energy_counters()
        # One buffer write at injection plus one per link traversal.
        assert counts.buffer_writes == (
            net.stats.injected_flits + counts.link_traversals
        )

    @pytest.mark.parametrize("cls", [CycleNetwork, SimdNetwork])
    def test_every_grant_moves_or_ejects(self, cls):
        net = run_network(cls)
        counts = net.energy_counters()
        assert counts.switch_grants == (
            counts.ejected_flits + counts.link_traversals
        )

    @pytest.mark.parametrize("cls", [CycleNetwork, SimdNetwork])
    def test_link_traversals_match_hop_counts(self, cls):
        net = run_network(cls)
        counts = net.energy_counters()
        # Total flit-hops = sum over packets of size * hops; the run is
        # drained, so every packet is in the delivered queue (the SIMD
        # packet table releases a packet when it is ejected).
        if cls is SimdNetwork:
            delivered = net.pop_delivered()
            assert len(delivered) == net.stats.injected_packets > 0
            assert counts.link_traversals == sum(
                p.size_flits * p.hops for p in delivered
            )


class TestSimulatorAgreement:
    def test_oo_and_simd_report_equal_energy(self):
        oo = run_network(CycleNetwork)
        simd = run_network(SimdNetwork)
        e_oo = estimate_energy(oo.energy_counters(), oo.config)
        e_simd = estimate_energy(simd.energy_counters(), simd.config)
        # Same traffic, same paths (XY): event counts match to within the
        # small cycle-count difference of the two drains.
        assert e_simd.dynamic == pytest.approx(e_oo.dynamic, rel=0.01)
        assert e_simd.total == pytest.approx(e_oo.total, rel=0.02)

    def test_dynamic_energy_grows_with_load(self):
        low = run_network(CycleNetwork, rate=0.02)
        high = run_network(CycleNetwork, rate=0.08)
        e_low = estimate_energy(low.energy_counters(), low.config)
        e_high = estimate_energy(high.energy_counters(), high.config)
        assert e_high.dynamic > 2 * e_low.dynamic

    def test_energy_per_flit_higher_under_contention(self):
        """Contended flits spend arbitration/requeue effort; per-flit energy
        must not decrease with load."""
        low = run_network(CycleNetwork, rate=0.02)
        high = run_network(CycleNetwork, rate=0.10)
        epf_low = estimate_energy(low.energy_counters(), low.config).per_flit(
            low.stats.ejected_flits
        )
        epf_high = estimate_energy(high.energy_counters(), high.config).per_flit(
            high.stats.ejected_flits
        )
        # Leakage amortizes with load, so compare dynamic-only per flit.
        dyn_low = estimate_energy(low.energy_counters(), low.config).dynamic
        dyn_high = estimate_energy(high.energy_counters(), high.config).dynamic
        assert dyn_high / high.stats.ejected_flits >= 0.95 * (
            dyn_low / low.stats.ejected_flits
        )
        assert epf_low > 0 and epf_high > 0
