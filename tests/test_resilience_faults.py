"""Fault schedules, zero-overhead guarantee, degradation, retransmission."""

import pytest

from repro.core.config import TargetConfig, build_cosim
from repro.errors import ConfigError, FaultError
from repro.resilience import (
    DegradedRouting,
    FaultConfig,
    FaultState,
    compile_schedule,
    verify_degraded,
)

QUIET = dict(width=4, height=4, app="fft", seed=3, scale=0.05,
             network_model="cycle", quantum=4)


def _run(config):
    return build_cosim(config).run()


class TestScheduleCompilation:
    def test_same_config_compiles_identically(self):
        topo = TargetConfig(**QUIET).make_topology()
        config = FaultConfig(seed=11, link_failures=2, transient_links=1,
                             router_failures=1, allow_partition=True)
        first = compile_schedule(config, topo)
        second = compile_schedule(config, topo)
        assert first.events == second.events
        assert first.num_channels == second.num_channels

    def test_different_seeds_differ(self):
        topo = TargetConfig(**QUIET).make_topology()
        schedules = {
            compile_schedule(
                FaultConfig(seed=s, link_failures=3), topo
            ).events
            for s in range(6)
        }
        assert len(schedules) > 1  # at least two seeds draw different faults

    def test_event_counts_match_config(self):
        topo = TargetConfig(**QUIET).make_topology()
        schedule = compile_schedule(
            FaultConfig(seed=5, link_failures=2, transient_links=2,
                        router_failures=1, allow_partition=True),
            topo,
        )
        kinds = sorted(e.kind for e in schedule.events)
        assert kinds == ["link", "link", "router", "transient", "transient"]
        assert all(e.cycle >= 1 for e in schedule.events)

    def test_partitioning_schedule_refused_without_opt_in(self):
        # 2x2 mesh: failing every channel of router 0 partitions it.  With
        # only 4 channels total and 4 requested failures the alive graph
        # cannot stay connected, so compilation must refuse.
        topo = TargetConfig(width=2, height=2, app="fft").make_topology()
        with pytest.raises(FaultError):
            compile_schedule(FaultConfig(seed=1, link_failures=4), topo)
        # ... and succeed verbatim once partitions are explicitly allowed.
        schedule = compile_schedule(
            FaultConfig(seed=1, link_failures=4, allow_partition=True), topo
        )
        assert len(schedule.events) == 4


class TestZeroOverhead:
    def test_empty_fault_config_is_bit_identical_to_none(self):
        plain = _run(TargetConfig(**QUIET))
        empty = _run(TargetConfig(**QUIET, faults=FaultConfig()))
        assert empty.finish_cycle == plain.finish_cycle
        assert empty.deliveries == plain.deliveries
        assert empty.applied_latencies == plain.applied_latencies
        assert empty.system_summary == plain.system_summary

    def test_faults_require_cycle_network(self):
        with pytest.raises(ConfigError):
            TargetConfig(width=4, height=4, network_model="simd",
                         faults=FaultConfig(link_failures=1))


class TestFaultyRuns:
    @pytest.fixture(scope="class")
    def faulty(self):
        config = TargetConfig(
            **QUIET,
            faults=FaultConfig(seed=9, link_failures=2, corrupt_rate=0.01,
                               window=2_000),
        )
        cosim = build_cosim(config)
        return cosim, cosim.run()

    def test_faulty_run_completes(self, faulty):
        _, result = faulty
        assert result.finish_cycle is not None
        assert result.deliveries > 0

    def test_every_corrupt_drop_is_retransmitted(self, faulty):
        cosim, result = faulty
        counters = result.network_description["resilience"]
        assert counters["corrupt_drops"] > 0
        assert counters["retransmits"] >= counters["corrupt_drops"]
        assert counters["abandoned"] == 0
        assert counters["outstanding"] == 0

    def test_link_flags_mirror_the_mask(self, faulty):
        cosim, _ = faulty
        net = cosim.network.network
        state = net.faults
        assert state.degraded
        failed_links = [
            (rid, port)
            for (rid, port), link in net.links.items()
            if link.failed
        ]
        assert failed_links
        assert all(
            not state.channel_alive(rid, port) for rid, port in failed_links
        )

    def test_degraded_routing_passes_cdg_recheck(self, faulty):
        cosim, _ = faulty
        routing = cosim.network.network.routing
        assert isinstance(routing, DegradedRouting)
        assert routing.rebuilds >= 1
        report = verify_degraded(routing)
        assert report.ok, report.render()

    def test_faulty_runs_are_reproducible(self, faulty):
        _, first = faulty
        config = TargetConfig(
            **QUIET,
            faults=FaultConfig(seed=9, link_failures=2, corrupt_rate=0.01,
                               window=2_000),
        )
        second = _run(config)
        assert second.finish_cycle == first.finish_cycle
        assert second.applied_latencies == first.applied_latencies
        assert (
            second.network_description["resilience"]
            == first.network_description["resilience"]
        )


class TestRouterFailStop:
    def test_sends_to_dead_router_are_refused(self):
        config = TargetConfig(
            **QUIET,
            faults=FaultConfig(seed=4, router_failures=1, window=500,
                               allow_partition=True),
        )
        cosim = build_cosim(config)
        # A dead router's cores never finish; run a bounded window instead.
        result = cosim.run(max_cycles=4_000)
        state = cosim.network.network.faults
        assert state.failed_routers
        counters = cosim.network.resilience_counters()
        assert counters["refused"] >= 0  # refusal path exercised without crash
        dead = next(iter(state.failed_routers))
        router = cosim.network.network.routers[dead]
        assert router.failed


class TestE11Assembly:
    def test_points_and_assembly_shape(self):
        from repro.harness.experiments import assemble_e11, e11_points

        assert e11_points(quick=True) == [[0], [2]]
        assert e11_points(quick=False) == [[0], [1], [2], [4]]
        rows = [
            ("0 faults", 10_000.0, 20.0, 12.0, 0.0, 0.0),
            ("2 faults", 30_000.0, 60.0, 12.0, 40.0, 40.0),
        ]
        result = assemble_e11(rows, quick=True)
        assert result.eid == "E11"
        assert [row[-1] for row in result.rows] == [1.0, 3.0]
        assert result.notes["max_latency_degradation"] == 3.0
        assert result.notes["abstract_model_degradation"] == 1.0
        assert result.figures and "E11" in result.figures[0]

    def test_registered_everywhere(self):
        from repro.campaign.spec import REGISTRY
        from repro.harness.experiments import ALL_EXPERIMENTS

        assert "E11" in ALL_EXPERIMENTS
        assert "E11" in REGISTRY
        assert REGISTRY["E11"].points(True) == [[0], [2]]
