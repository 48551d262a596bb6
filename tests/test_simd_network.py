"""Tests for the GPU-style SIMD network simulator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.layout import build_batch_state
from repro.errors import ConfigError, SimulationError
from repro.noc import ConcentratedMesh, Mesh, NocConfig, Packet, Torus
from repro.noc_gpu import SimdNetwork
from repro.workloads import SyntheticTraffic


def build_state(topo, config):
    """The state of a single network: a batch of one lane."""
    return build_batch_state(topo, config, lanes=1)


class TestStateLayout:
    def test_geometry_tables(self):
        state = build_state(Mesh(3, 2), NocConfig())
        assert (state.L, state.R, state.P) == (1, 6, 5)
        assert state.count.shape == (1, 6, 5, state.V)
        assert state.buf_pkt.shape == (1, 6, 5, state.V, state.B)
        # Router 0 is (0,0): east neighbour is 1, no west/south.
        from repro.noc.topology import EAST, SOUTH, WEST

        assert state.nbr_router[0, EAST] == 1
        assert state.nbr_router[0, WEST] == -1
        assert state.nbr_router[0, SOUTH] == -1

    def test_edge_ports_have_zero_credits(self):
        from repro.noc.topology import WEST

        state = build_state(Mesh(2, 2), NocConfig(buffer_depth=4))
        assert (state.credits[0, 0, WEST, :] == 0).all()

    def test_local_port_credits_are_effectively_infinite(self):
        from repro.noc.topology import EAST, LOCAL

        state = build_state(Mesh(2, 2), NocConfig(buffer_depth=4))
        assert (state.credits[0, 0, EAST, :] == 4).all()  # a connected port
        assert (state.credits[0, :, LOCAL, :] > 10**5).all()

    def test_packet_table_growth(self):
        state = build_state(Mesh(2, 2), NocConfig())
        for i in range(3000):
            idx = state.register_packet(Packet(src=0, dst=1, size_flits=1))
            assert idx == i
        assert len(state.pkt_dst_router) >= 3000

    def test_rejects_torus(self):
        with pytest.raises(ConfigError):
            build_state(Torus(4, 4), NocConfig())

    def test_rejects_non_any_free(self):
        with pytest.raises(ConfigError):
            SimdNetwork(Mesh(2, 2), NocConfig(vc_select="class_partition"))


class TestZeroLoad:
    @given(st.integers(0, 15), st.integers(0, 15), st.integers(1, 8))
    @settings(max_examples=30)
    def test_matches_closed_form(self, src, dst, size):
        if src == dst:
            return
        topo = Mesh(4, 4)
        config = NocConfig()
        net = SimdNetwork(topo, config)
        p = Packet(src=src, dst=dst, size_flits=size)
        net.inject(p)
        net.drain(50_000)
        hops = topo.hop_distance(src, dst)
        assert p.latency == config.min_latency(hops, size)
        assert p.hops == hops

    def test_custom_delays(self):
        topo = Mesh(3, 1)
        config = NocConfig(router_delay=4, link_delay=3, ejection_delay=2)
        net = SimdNetwork(topo, config)
        p = Packet(src=0, dst=2, size_flits=2)
        net.inject(p)
        net.drain()
        assert p.latency == config.min_latency(2, 2)


class TestConservation:
    @pytest.mark.parametrize("rate", [0.02, 0.08])
    def test_all_delivered(self, rate):
        topo = Mesh(4, 4)
        net = SimdNetwork(topo)
        SyntheticTraffic(topo, "uniform", rate=rate, seed=13).drive(net, 1000)
        assert net.stats.injected_packets == net.stats.ejected_packets
        assert net.stats.injected_flits == net.stats.ejected_flits
        assert net.buffered_flits() == 0

    def test_tiny_buffers(self):
        topo = Mesh(3, 3)
        net = SimdNetwork(topo, NocConfig(num_vcs=1, buffer_depth=1))
        SyntheticTraffic(topo, "uniform", rate=0.05, size_flits=3, seed=5).drive(
            net, 500
        )
        assert net.stats.injected_packets == net.stats.ejected_packets
        assert net.stats.injected_packets > 0

    def test_no_credit_goes_negative(self):
        topo = Mesh(4, 4)
        net = SimdNetwork(topo, NocConfig(num_vcs=2, buffer_depth=2))
        SyntheticTraffic(topo, "uniform", rate=0.1, size_flits=4, seed=2).drive(
            net, 300, drain=False
        )
        from repro.noc.topology import LOCAL

        credits = net.batch.state.credits[0]
        assert (credits >= 0).all()
        # Non-local credits never exceed the buffer depth.
        non_local = np.delete(credits, LOCAL, axis=1)
        assert (non_local <= net.config.buffer_depth).all()
        net.drain()

    def test_concentrated_mesh(self):
        topo = ConcentratedMesh(2, 2, concentration=2)
        net = SimdNetwork(topo)
        pkts = [Packet(src=n, dst=(n + 3) % 8, size_flits=2) for n in range(8)]
        for p in pkts:
            net.inject(p)
        net.drain()
        assert net.stats.ejected_packets == 8


class TestSemantics:
    def test_single_vc_order_preserved(self):
        topo = Mesh(4, 1)
        net = SimdNetwork(topo, NocConfig(num_vcs=1))
        pkts = [Packet(src=0, dst=3, size_flits=2) for _ in range(10)]
        for p in pkts:
            net.inject(p)
        net.drain()
        ejects = [p.eject_cycle for p in pkts]
        assert ejects == sorted(ejects)

    def test_future_injection(self):
        net = SimdNetwork(Mesh(2, 2))
        p = Packet(src=0, dst=3, size_flits=1)
        net.inject(p, cycle=40)
        net.run(10)
        assert net.stats.injected_packets == 0
        net.drain()
        assert p.network_entry_cycle >= 40

    def test_past_injection_rejected(self):
        net = SimdNetwork(Mesh(2, 2))
        net.run(5)
        with pytest.raises(SimulationError):
            net.inject(Packet(src=0, dst=1, size_flits=1), cycle=1)

    def test_pop_delivered(self):
        net = SimdNetwork(Mesh(2, 2))
        p = Packet(src=0, dst=3, size_flits=1)
        net.inject(p)
        net.drain()
        assert [q.pid for q in net.pop_delivered()] == [p.pid]
        assert net.pop_delivered() == []

    def test_on_eject_callback(self):
        calls = []
        net = SimdNetwork(Mesh(2, 2), on_eject=lambda p, c: calls.append(c))
        net.inject(Packet(src=0, dst=3, size_flits=1))
        net.drain()
        assert len(calls) == 1

    def test_determinism(self):
        def run():
            topo = Mesh(4, 4)
            net = SimdNetwork(topo)
            SyntheticTraffic(topo, "uniform", rate=0.08, seed=21).drive(net, 600)
            return net.stats.summary()

        assert run() == run()

    def test_kernel_launch_accounting(self):
        net = SimdNetwork(Mesh(2, 2))
        net.run(10)
        assert net.kernel_launches == 40  # 4 kernels per cycle

    def test_drain_bound(self):
        net = SimdNetwork(Mesh(2, 2))
        net.inject(Packet(src=0, dst=3, size_flits=1), cycle=10_000)
        with pytest.raises(SimulationError, match="drain"):
            net.drain(max_cycles=100)
