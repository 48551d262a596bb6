"""Integration tests: every experiment runs (quick mode) and its headline
claims hold in the reproduced direction."""

import json

import pytest

from repro.campaign.spec import REGISTRY, CampaignSpec
from repro.harness import ALL_EXPERIMENTS, run_table1
from repro.harness.experiments import (
    accuracy_points,
    assemble_e3,
    assemble_e4,
    run_accuracy_point,
    run_e1,
    run_e2,
    run_e3,
    run_e4,
    run_e5,
    run_e6,
    run_e7,
    run_e8,
    run_e9,
)


@pytest.fixture(scope="module", autouse=True)
def _shared_cache():
    """E3/E4 and E7/E8 share memoized co-simulations within this module."""
    yield


class TestExperimentSurface:
    def test_registry_complete(self):
        assert set(ALL_EXPERIMENTS) == {f"E{i}" for i in range(1, 12)}

    def test_table1_renders(self):
        text = run_table1()
        assert "Coherence" in text and "NoC" in text


class TestE1Validation:
    @pytest.fixture(scope="class")
    def result(self):
        return run_e1(quick=True)

    def test_rows_well_formed(self, result):
        assert result.rows
        assert all(len(r) == len(result.headers) for r in result.rows)

    def test_simd_matches_oo(self, result):
        assert result.notes["max_simd_vs_oo_error"] < 0.05

    def test_fixed_model_underestimates_under_load(self, result):
        # At the higher rate, the cycle-level latency exceeds the fixed
        # model's prediction (contention the fixed model cannot see).
        loaded = result.rows[-1]
        assert loaded[2] > loaded[4]

    def test_latency_grows_with_rate(self, result):
        latencies = [r[2] for r in result.rows]
        assert latencies == sorted(latencies)


class TestE2Vacuum:
    @pytest.fixture(scope="class")
    def result(self):
        return run_e2(quick=True)

    def test_matched_load_misses_context(self, result):
        assert result.notes["mean_matched_load_error"] > 0.02

    def test_trace_replay_is_close(self, result):
        # Exact-timestamp replay of the same traffic must roughly reproduce
        # the in-context latencies (it is the validation column).
        assert all(r[4] < 0.1 for r in result.rows)


class TestE3E4Accuracy:
    @pytest.fixture(scope="class")
    def e3(self):
        return run_e3(quick=True)

    def test_ra_beats_fixed_model(self, e3):
        assert e3.notes["ra_error_reduction_vs_fixed"] > 0.3

    def test_every_app_improves(self, e3):
        for row in e3.rows:
            fixed_err, ra_err = row[5], row[7]
            assert ra_err < fixed_err

    def test_queueing_between_fixed_and_ra(self, e3):
        for row in e3.rows:
            assert row[6] <= row[5]  # queueing no worse than fixed

    def test_e4_runtime_errors(self):
        e4 = run_e4(quick=True)
        assert e4.rows
        for row in e4.rows:
            assert row[1] > 0  # truth finish cycles


class TestOneDeclaration:
    """The experiment table is the only declaration of each experiment."""

    def test_campaign_registry_is_the_table(self):
        for eid in (f"E{i}" for i in range(1, 12)):
            assert REGISTRY[eid] is ALL_EXPERIMENTS[eid]

    def test_default_seeds_are_declared_once(self):
        assert run_e1.default_seed == 11
        assert run_e2.default_seed == 5
        spec = CampaignSpec(experiments=("E1", "E2"))
        assert spec.seed_for("E1", 0) == 11
        assert spec.seed_for("E2", 0) == 5

    def test_e3_e4_assemble_from_persisted_records(self):
        # Memoized: the same points TestE3E4Accuracy already ran.
        records = [run_accuracy_point(p, True, 3) for p in accuracy_points(True)]
        stored = json.loads(json.dumps(records))
        assert assemble_e3(stored, True, 3).render() == run_e3(quick=True).render()
        assert assemble_e4(stored, True, 3).render() == run_e4(quick=True).render()


class TestE5DesignSpace:
    def test_ra_sees_vc_sensitivity_fixed_does_not(self):
        result = run_e5(quick=True)
        fixed_finishes = {row[3] for row in result.rows}
        assert len(fixed_finishes) == 1  # abstract model blind to VCs
        assert result.notes["ra_visible_runtime_spread"] >= 0.0


class TestE6Speed:
    def test_model_anchors_and_measured_shape(self):
        result = run_e6(quick=True)
        assert result.notes["model_anchor_err_256"] < 0.01
        assert result.notes["model_anchor_err_512"] < 0.01
        measured = [r for r in result.rows if str(r[0]).startswith("measured")]
        assert len(measured) == 2
        # The GPU-style network gains (or loses less) as the target grows.
        assert measured[1][4] > measured[0][4]


class TestE7Quantum:
    def test_error_grows_with_quantum(self):
        result = run_e7(quick=True)
        errors = [row[2] for row in result.rows]
        assert errors[0] == 0.0  # the reference row
        assert errors == sorted(errors)

    def test_clamping_fraction_grows(self):
        result = run_e7(quick=True)
        clamps = [row[4] for row in result.rows]
        assert clamps == sorted(clamps)


class TestE8Reciprocity:
    @pytest.fixture(scope="class")
    def result(self):
        return run_e8(quick=True)

    def test_full_ra_beats_fixed(self, result):
        assert result.notes["full_ra_error"] < result.notes["fixed_error"]

    def test_feedback_helps_the_table(self, result):
        rows = {r[0]: r for r in result.rows}
        assert rows["table-feedback"][2] < rows["fixed"][2]

    def test_full_ra_preserves_distribution_better_than_fixed(self, result):
        # Full RA and the table hybrid are close on KS distance (quantum
        # clamping vs bucket collapse trade off); both must beat the static
        # models, which miss the contention tail entirely.
        rows = {r[0]: r for r in result.rows}
        assert rows["full-ra"][4] < rows["fixed"][4]
        assert rows["table-feedback"][4] < rows["fixed"][4]

    def test_render_includes_notes(self, result):
        text = result.render()
        assert "[E8]" in text and "full_ra_error" in text


class TestE9AdaptiveQuantum:
    @pytest.fixture(scope="class")
    def result(self):
        return run_e9(quick=True)

    def test_adaptive_accurate(self, result):
        assert result.notes["adaptive_lat_error"] < 0.10

    def test_adaptive_saves_windows(self, result):
        assert result.notes["adaptive_window_saving_vs_q1"] > 0.2

    def test_adaptive_beats_coarse_fixed(self, result):
        rows = {r[0]: r for r in result.rows}
        assert rows["adaptive-2..32"][2] < rows["fixed-16"][2]


class TestE10MemoryFidelity:
    def test_memory_fidelity_shifts_results(self):
        from repro.harness import run_e10

        result = run_e10(quick=True)
        assert result.notes["mean_runtime_shift_from_memory_fidelity"] > 0.05
        for row in result.rows:
            assert row[4] != row[3]  # miss latencies differ between models
