"""End-to-end tests of the reciprocal-abstraction co-simulator."""

import pytest

from repro.core import (
    AdaptiveQuantum,
    CoSimulator,
    FixedQuantum,
    TargetConfig,
    build_cosim,
    default_target_table,
)
from repro.core.cosim import run_lanes
from repro.engine.network import SimdBatch
from repro.errors import ConfigError, SimulationError
from repro.fullsys import CmpConfig
from repro.noc import MessageClass

from .test_engine_cosim import _result_sig


def small(app="water", model="cycle", quantum=4, seed=3, **kw):
    return TargetConfig(
        width=2,
        height=2,
        app=app,
        network_model=model,
        quantum=quantum,
        seed=seed,
        scale=0.3,
        **kw,
    )


def _batch_lanes(configs):
    """One co-simulation per config, each on a lane of one shared batch."""
    batch = SimdBatch(configs[0].make_topology(), configs[0].noc, lanes=len(configs))
    return [
        build_cosim(
            config,
            simd_network_factory=lambda topo, noc, _lane=batch.lane(i): _lane,
            verify="off",
        )
        for i, config in enumerate(configs)
    ]


class TestCompletion:
    @pytest.mark.parametrize("model", ["cycle", "simd", "fixed", "queueing", "table"])
    def test_completes_and_balances(self, model):
        result = build_cosim(small(model=model)).run()
        assert result.completed
        assert result.deliveries == result.messages_sent
        assert result.mean_latency() > 0
        assert result.cycles >= result.finish_cycle

    def test_shadow_mode_completes(self):
        result = build_cosim(small(model="table-shadow")).run()
        assert result.completed
        # Shadow feeds the feedback table with real observations.
        assert result.feedback_snapshot

    def test_max_cycles_bound(self):
        result = build_cosim(small()).run(max_cycles=50)
        assert not result.completed
        assert result.cycles <= 50


class TestTailDrain:
    """The tail guard is a *progress* guard: a long tail that keeps
    delivering drains, a tail that stops moving messages still fails."""

    def test_long_tail_of_hot_line_misses_drains(self):
        # The ledger's known wrong answer: cores finish at 62 025 with
        # misses still serialised at hot-line directories, and the tail
        # needs 15 763 more cycles -- past the old fixed 10 000-cycle guard.
        config = TargetConfig(width=16, height=16, app="fft", scale=0.05,
                              network_model="table", quantum=4, seed=1)
        result = build_cosim(config).run()
        assert result.finish_cycle == 62_025
        assert result.cycles == 77_788
        assert result.messages_sent == result.deliveries == 189_592

    @pytest.mark.parametrize("model", ["table", "simd"])
    def test_shrunk_long_tail_drains(self, model):
        # 36 cores behind a slow directory reproduce the same > 10 000-cycle
        # tail in a couple of seconds on the detailed network too.
        config = TargetConfig(width=6, height=6, app="barnes", scale=0.01,
                              network_model=model, quantum=4, seed=1,
                              cmp=CmpConfig(dir_latency=250))
        result = build_cosim(config).run()
        assert result.cycles - result.finish_cycle > 10_000
        assert result.messages_sent == result.deliveries

    @staticmethod
    def _add_busy_event(cosim):
        events = cosim.system.events

        def tick():  # a self-rescheduling event: busy, but moving no message
            events.schedule_in(1, tick)

        tick()

    def test_stuck_tail_still_fails_within_the_guard(self):
        cosim = build_cosim(small(model="fixed"))
        done = cosim.run()
        self._add_busy_event(cosim)
        with pytest.raises(
            SimulationError,
            match=r"tail failed to drain \(1 events, 0 packets left\)",
        ):
            cosim.run()
        assert cosim.system.now <= done.cycles + 10_000 + 8
        assert cosim.deliveries == done.deliveries

    def test_lockstep_lane_shares_the_guard(self):
        # The lanes of one kernel batch drain window by window under the
        # same check; the error names the stuck lane.
        cosims = _batch_lanes([small(model="simd")] * 2)
        done = run_lanes(cosims, 5_000_000)
        self._add_busy_event(cosims[1])
        with pytest.raises(
            SimulationError,
            match=r"\(1 events, 0 packets left in lane 1\)",
        ):
            run_lanes(cosims, 5_000_000)
        assert cosims[0].system.now == done[0].cycles
        assert cosims[1].system.now <= done[1].cycles + 10_000 + 8
        assert cosims[1].deliveries == done[1].deliveries


class TestQuantumSemantics:
    def test_quantum_one_never_clamps_more_than_boundary(self):
        result = build_cosim(small(model="cycle", quantum=1)).run()
        # At Q=1 every delivery lands at most on the next boundary; the
        # recorded applied latency equals the network latency.
        assert result.clamped_deliveries == 0

    def test_larger_quantum_clamps(self):
        q1 = build_cosim(small(model="cycle", quantum=1)).run()
        q64 = build_cosim(small(model="cycle", quantum=64)).run()
        assert q64.clamped_deliveries > 0
        assert q64.mean_latency() > q1.mean_latency()

    def test_inline_models_never_clamp(self):
        result = build_cosim(small(model="fixed", quantum=64)).run()
        assert result.clamped_deliveries == 0

    def test_window_count(self):
        result = build_cosim(small(model="cycle", quantum=32)).run()
        # Windows are counted for the main loop; the drained tail after the
        # last core finishes adds cycles but no counted windows.
        assert result.windows == pytest.approx(result.finish_cycle / 32, abs=2)

    def test_quantum_object_accepted(self):
        config = small(model="cycle")
        cosim = build_cosim(config)
        assert isinstance(cosim.quantum, FixedQuantum)


class TestAdaptiveQuantum:
    """Whole runs under E9's traffic-sized windows, pinned field by field."""

    @staticmethod
    def _adaptive(cosim):
        cosim.quantum = AdaptiveQuantum(min_cycles=2, max_cycles=32, target_messages=24)
        return cosim

    @staticmethod
    def _fft(model, seed=5):
        return TargetConfig(width=4, height=4, app="fft", seed=seed, scale=0.05,
                            network_model=model)

    @staticmethod
    def _stats(result):
        return (result.finish_cycle, result.cycles, result.windows,
                result.messages_sent, result.deliveries, result.clamped_deliveries,
                sum(result.applied_latencies[-1]))

    @pytest.mark.parametrize("model, expected", [
        ("simd", (5852, 6026, 2898, 9395, 9395, 4597, 138309)),
        ("table", (5386, 5548, 2670, 9392, 9392, 0, 107504)),
        ("cycle", (5874, 6040, 2909, 9391, 9391, 4527, 138209)),
    ])
    def test_pinned_run(self, model, expected):
        cosim = self._adaptive(build_cosim(self._fft(model), verify="off"))
        assert self._stats(cosim.run()) == expected

    def test_adaptive_lanes_share_a_batch(self):
        # Each lane sizes its own windows, so the two lanes' boundaries
        # part after the first window; each must still equal its solo run.
        configs = [self._fft("simd"), self._fft("simd", seed=6).variant(app="water")]
        solo = [self._adaptive(build_cosim(c, verify="off")).run() for c in configs]
        batched = run_lanes([self._adaptive(c) for c in _batch_lanes(configs)], 5_000_000)
        for lane, (got, want) in enumerate(zip(batched, solo)):
            assert _result_sig(got) == _result_sig(want), f"lane {lane}"
        assert batched[0].windows != batched[1].windows


class TestLatencyAccounting:
    def test_applied_latencies_at_least_zero_load(self):
        config = small(model="cycle", quantum=1)
        cosim = build_cosim(config)
        result = cosim.run()
        noc = config.noc
        # Every applied latency is at least the 1-hop zero-load latency.
        floor = noc.min_latency(1, 1)
        assert min(result.applied_latencies[-1]) >= floor

    def test_per_class_breakdown(self):
        result = build_cosim(small(model="cycle")).run()
        assert MessageClass.REQUEST in result.applied_latencies
        assert MessageClass.RESPONSE in result.applied_latencies
        total = sum(
            len(v) for k, v in result.applied_latencies.items() if k != -1
        )
        assert total == len(result.applied_latencies[-1])

    def test_data_messages_slower_than_requests(self):
        """5-flit responses serialize longer than 1-flit requests."""
        result = build_cosim(small(model="fixed")).run()
        assert result.mean_latency(MessageClass.RESPONSE) > result.mean_latency(
            MessageClass.REQUEST
        )

    def test_feedback_recorded_for_detailed_runs(self):
        cosim = build_cosim(small(model="cycle"))
        result = cosim.run()
        assert cosim.feedback.observations == result.deliveries


class TestReciprocalAccuracy:
    def test_detailed_latency_exceeds_zero_load_model(self):
        """The detailed network sees contention the fixed model cannot."""
        truth = build_cosim(small(model="cycle", quantum=1, app="fft")).run()
        fixed = build_cosim(small(model="fixed", app="fft")).run()
        assert truth.mean_latency() > fixed.mean_latency()

    def test_ra_closer_to_truth_than_fixed(self):
        # On a 2x2 target latencies are tiny (~10 cycles), so the quantum
        # must be proportionally small for RA to keep its edge.
        truth = build_cosim(small(model="simd", quantum=1, app="fft")).run()
        ra = build_cosim(small(model="simd", quantum=2, app="fft")).run()
        fixed = build_cosim(small(model="fixed", app="fft")).run()
        t = truth.mean_latency()
        assert abs(ra.mean_latency() - t) < abs(fixed.mean_latency() - t)


class TestConfigSurface:
    def test_variant(self):
        base = small()
        changed = base.variant(quantum=99)
        assert changed.quantum == 99 and base.quantum == 4
        assert changed.app == base.app

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigError):
            TargetConfig(network_model="quantum-annealer")

    def test_num_cores(self):
        assert TargetConfig(width=4, height=2, concentration=2).num_cores == 16

    def test_topology_construction(self):
        from repro.noc import ConcentratedMesh, Mesh, Torus

        assert isinstance(TargetConfig(topology="mesh").make_topology(), Mesh)
        assert isinstance(TargetConfig(topology="torus").make_topology(), Torus)
        assert isinstance(
            TargetConfig(topology="cmesh", concentration=2).make_topology(),
            ConcentratedMesh,
        )

    def test_target_table_mentions_key_parameters(self):
        table = default_target_table()
        text = " ".join(f"{k} {v}" for k, v in table.items())
        assert "MSI" in text and "XY" in text and "quantum" in text

    def test_shadow_requires_inline_main(self):
        from repro.core import CoSimulator, DetailedNetworkAdapter
        from repro.fullsys import CmpSystem
        from repro.noc import CycleNetwork, Mesh
        from repro.workloads import make_programs

        topo = Mesh(2, 2)
        system = CmpSystem(topo, CmpConfig(), make_programs("water", 4))
        detailed = DetailedNetworkAdapter(CycleNetwork(topo))
        shadow = DetailedNetworkAdapter(CycleNetwork(topo))
        with pytest.raises(ConfigError):
            CoSimulator(system, detailed, shadow=shadow)


class TestDeterminism:
    def test_cosim_runs_are_reproducible(self):
        a = build_cosim(small(model="cycle", app="fft")).run()
        b = build_cosim(small(model="cycle", app="fft")).run()
        assert a.finish_cycle == b.finish_cycle
        assert a.mean_latency() == b.mean_latency()
        assert a.messages_sent == b.messages_sent


class TestMixedWorkloads:
    def test_mix_syntax_builds_and_runs(self):
        result = build_cosim(
            small(app="mix:water+blackscholes", model="fixed")
        ).run()
        assert result.completed
        assert result.deliveries == result.messages_sent

    def test_mix_assigns_round_robin(self):
        cosim = build_cosim(small(app="mix:water+blackscholes", model="fixed"))
        names = [core.program.spec.name for core in cosim.system.cores]
        assert names == ["water", "blackscholes", "water", "blackscholes"]
