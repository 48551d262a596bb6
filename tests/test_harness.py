"""Tests for harness metrics, reporting, runners, and host timing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TargetConfig
from repro.engine import BatchedSimdNetwork
from repro.errors import ConfigError
from repro.harness import (
    HostTimingModel,
    clear_run_cache,
    distribution_distance,
    error_reduction,
    format_kv,
    format_percent,
    format_table,
    make_network,
    mean_error_reduction,
    measured_reduction,
    measured_split,
    relative_error,
    run_cosim,
    run_isolated,
    summarize,
    sweep_injection,
)
from repro.noc import CycleNetwork, Mesh
from repro.workloads import SyntheticTraffic


class TestMetrics:
    def test_relative_error(self):
        assert relative_error(12, 10) == pytest.approx(0.2)
        assert relative_error(8, 10) == pytest.approx(0.2)

    def test_relative_error_zero_truth(self):
        with pytest.raises(ValueError):
            relative_error(1, 0)

    def test_error_reduction(self):
        assert error_reduction(0.4, 0.1) == pytest.approx(0.75)
        assert error_reduction(0.1, 0.2) == pytest.approx(-1.0)
        assert error_reduction(0.0, 0.0) == 0.0

    def test_mean_error_reduction(self):
        assert mean_error_reduction([(0.4, 0.1), (0.2, 0.1)]) == pytest.approx(
            (0.75 + 0.5) / 2
        )

    def test_mean_error_reduction_empty(self):
        with pytest.raises(ValueError):
            mean_error_reduction([])

    def test_ks_identical_distributions(self):
        assert distribution_distance([1, 2, 3], [1, 2, 3]) == 0.0

    def test_ks_disjoint_distributions(self):
        assert distribution_distance([1, 2], [10, 11]) == 1.0

    @given(
        st.lists(st.floats(0, 100), min_size=2, max_size=50),
        st.lists(st.floats(0, 100), min_size=2, max_size=50),
    )
    @settings(max_examples=25)
    def test_ks_bounded_and_symmetric(self, a, b):
        d = distribution_distance(a, b)
        assert 0.0 <= d <= 1.0
        assert d == pytest.approx(distribution_distance(b, a))

    def test_summarize(self):
        s = summarize(list(range(1, 101)))
        assert s["mean"] == pytest.approx(50.5)
        assert s["max"] == 100
        assert s["p95"] == pytest.approx(95, abs=1)

    def test_summarize_empty(self):
        assert summarize([])["mean"] == 0.0


class TestReport:
    def test_table_alignment(self):
        text = format_table(["name", "v"], [("alpha", 1.0), ("b", 12345.678)])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "-----" in lines[1]
        assert "alpha" in lines[2] and "12,346" in lines[3]

    def test_table_title(self):
        text = format_table(["a"], [(1,)], title="T")
        assert text.splitlines()[0] == "T"

    def test_kv(self):
        text = format_kv({"k": "v", "longer": 2})
        assert "k       v" in text or "k" in text

    def test_percent(self):
        assert format_percent(0.691) == "69.1%"


class TestRunners:
    def test_make_network(self):
        assert isinstance(make_network("cycle", Mesh(2, 2)), CycleNetwork)
        assert isinstance(make_network("simd", Mesh(2, 2)), BatchedSimdNetwork)
        with pytest.raises(ConfigError):
            make_network("fpga", Mesh(2, 2))

    def test_run_isolated(self):
        topo = Mesh(3, 3)
        stats = run_isolated(
            topo, SyntheticTraffic(topo, rate=0.05, seed=2), cycles=200
        )
        assert stats.ejected_packets == stats.injected_packets > 0

    def test_sweep_shapes_monotonic_latency(self):
        topo = Mesh(4, 4)
        points = sweep_injection(
            topo,
            lambda r: SyntheticTraffic(topo, "uniform", rate=r, seed=4),
            rates=[0.02, 0.10],
            cycles=400,
            kind="simd",
        )
        assert len(points) == 2
        assert points[1][1].mean_latency > points[0][1].mean_latency

    def test_sweep_empty_rates(self):
        topo = Mesh(2, 2)
        points = sweep_injection(
            topo,
            lambda r: SyntheticTraffic(topo, rate=r, seed=4),
            rates=[],
            cycles=100,
        )
        assert points == []

    def test_sweep_single_point(self):
        topo = Mesh(2, 2)
        points = sweep_injection(
            topo,
            lambda r: SyntheticTraffic(topo, rate=r, seed=4),
            rates=[0.05],
            cycles=300,
        )
        assert len(points) == 1
        rate, stats = points[0]
        assert rate == 0.05
        assert stats.ejected_packets > 0

    def test_sweep_saturating_load_keeps_backlog(self):
        # Past saturation the sources inject faster than the mesh drains;
        # the sweep must still terminate (no full drain) and the backlog
        # must show up as injected > ejected in the saturated point.
        topo = Mesh(4, 4)
        points = sweep_injection(
            topo,
            lambda r: SyntheticTraffic(topo, "uniform", rate=r, seed=4),
            rates=[0.02, 0.9],
            cycles=400,
            kind="simd",
        )
        light, saturated = points[0][1], points[1][1]
        assert light.injected_packets == light.ejected_packets
        assert saturated.injected_packets > saturated.ejected_packets
        assert saturated.mean_latency > light.mean_latency

    def test_run_cosim_cache(self):
        clear_run_cache()
        config = TargetConfig(width=2, height=2, app="water", scale=0.2,
                              network_model="fixed")
        first = run_cosim(config)
        second = run_cosim(config)
        assert first is second  # memoized
        third = run_cosim(config, cache=False)
        assert third is not first
        assert third.finish_cycle == first.finish_cycle


class TestHostTiming:
    def _result(self, wall_system, wall_network, wall_total, cycles):
        from repro.core.cosim import CoSimResult

        return CoSimResult(
            finish_cycle=cycles,
            cycles=cycles,
            windows=1,
            messages_sent=0,
            deliveries=0,
            clamped_deliveries=0,
            wall_system=wall_system,
            wall_network=wall_network,
            wall_total=wall_total,
        )

    def test_measured_split(self):
        split = measured_split(self._result(1.0, 2.0, 3.5, 100))
        assert split["system"] == 1.0
        assert split["network"] == 2.0
        assert split["coupling"] == pytest.approx(0.5)

    def test_measured_reduction_normalizes_by_cycles(self):
        cpu = self._result(1, 9, 10.0, 1000)
        gpu = self._result(1, 2, 3.0, 500)  # half the cycles!
        # Rates: cpu 10/1000 = 0.01, gpu 3/500 = 0.006 -> 40% reduction.
        assert measured_reduction(cpu, gpu) == pytest.approx(0.4)

    def test_sweep_rows(self):
        rows = HostTimingModel().sweep((64, 256, 512))
        assert [int(r["cores"]) for r in rows] == [64, 256, 512]
        assert rows[1]["gpu_reduction"] == pytest.approx(0.16, abs=0.01)
        assert rows[2]["gpu_reduction"] == pytest.approx(0.65, abs=0.01)

    def test_anchor_errors_tiny(self):
        errors = HostTimingModel().paper_anchor_errors()
        assert errors["err_256"] < 0.001
        assert errors["err_512"] < 0.001
