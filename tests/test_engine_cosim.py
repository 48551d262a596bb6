"""Engine selection and co-simulation-level equivalence.

Two layers of guarantee:

* :func:`repro.engine.resolve_engine` reports the vectorised kernels
  only for compatible configs, whatever engine the caller requested,
  and logs every fallback with its reason.
* ``build_cosim`` reproduces, for every shipped ``simd`` target
  configuration (shrunk to test size), the :class:`CoSimResult`
  signature recorded from ``build_cosim(engine="oo")`` at the last
  commit where that built the independent ``noc_gpu`` twin
  (``fixtures/simd_oracle_digests.json``, written by
  ``tests/test_engine_differential.py``), and
  :func:`repro.engine.run_cosim_batch` reproduces K individual runs
  byte for byte from one shared kernel batch.
"""

import json
import logging
from pathlib import Path

import pytest

from repro.core.config import TargetConfig, build_cosim
from repro.engine import (
    KERNEL_VERSION,
    resolve_engine,
    run_cosim_batch,
)
from repro.engine.api import OO_KERNEL_VERSION
from repro.engine.batch import configs_batchable
from repro.errors import ConfigError
from repro.harness.experiments import shipped_target_configs
from repro.noc import NocConfig

from .test_engine_differential import _digest

_SIMD_MESH = TargetConfig(width=4, height=4, network_model="simd")
_FIXTURE = Path(__file__).parent / "fixtures" / "simd_oracle_digests.json"


def _shrunk(config):
    """A fast variant of a shipped config: same shape, tiny workload."""
    return config.variant(app="water", scale=0.05)


def _result_sig(result):
    """Every deterministic field of a CoSimResult (no wall-clock)."""
    return (
        result.finish_cycle,
        result.cycles,
        result.windows,
        result.messages_sent,
        result.deliveries,
        result.clamped_deliveries,
        result.applied_latencies,
        result.feedback_snapshot,
    )


def _shipped_run(config):
    """One shrunk shipped config run as the recorded signatures were:
    ``engine="oo"`` built the ``noc_gpu`` twin at the recording commit
    and builds what every request builds today.

    Large meshes: truncated-run equivalence over the same bounded window
    sequence; a full run at test-sized workloads takes minutes on 256+
    routers (and `water` at degenerate scale has a pathological protocol
    tail there that predates the engine layer — see the drain guard in
    cosim.py).
    """
    small = _shrunk(config)
    kwargs = {}
    if small.width * small.height > 16:
        kwargs["max_cycles"] = 1024
    return build_cosim(small, verify="off", engine="oo").run(**kwargs)


def _sig_digest(result) -> str:
    *scalars, applied, feedback = _result_sig(result)
    return _digest([*scalars, sorted(applied.items()), sorted(feedback.items())])


def recorded_cosim_signatures() -> dict:
    """``label -> signature digest`` of every shipped ``simd`` config
    (the fixture's ``cosim`` section; see test_engine_differential)."""
    return {
        label: _sig_digest(_shipped_run(config))
        for label, config in shipped_target_configs()
        if config.network_model == "simd"
    }


class TestResolveEngine:
    def test_oo_request_still_runs_the_kernels(self):
        decision = resolve_engine(_SIMD_MESH, engine="oo")
        assert decision.is_batched
        assert decision.kernel_version == KERNEL_VERSION

    def test_auto_picks_batched_when_compatible(self):
        decision = resolve_engine(_SIMD_MESH, engine="auto")
        assert decision.is_batched
        assert decision.kernel_version == KERNEL_VERSION

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigError):
            resolve_engine(_SIMD_MESH, engine="turbo")

    @pytest.mark.parametrize(
        "config, expect_in_reason",
        [
            (TargetConfig(width=4, height=4), "network_model"),
            (
                TargetConfig(
                    width=4, height=4, network_model="simd", topology="torus"
                ),
                "topology",
            ),
            (
                TargetConfig(
                    width=4,
                    height=4,
                    network_model="simd",
                    noc=NocConfig(vc_select="class_partition"),
                ),
                "vc_select",
            ),
        ],
    )
    def test_fallback_reasons(self, config, expect_in_reason):
        decision = resolve_engine(config, engine="auto")
        assert decision.name == "oo"
        assert expect_in_reason in decision.reason

    def test_fallback_log_levels(self, caplog):
        cycle = TargetConfig(width=4, height=4)  # cycle model: unsupported
        for request in ("auto", "oo"):
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="repro.engine"):
                resolve_engine(cycle, engine=request)
            assert caplog.records[-1].levelno == logging.INFO

        caplog.clear()
        with caplog.at_level(logging.INFO, logger="repro.engine"):
            resolve_engine(cycle, engine="batched")
        record = caplog.records[-1]
        assert record.levelno == logging.WARNING
        assert "fallback" in record.getMessage()


class TestFallbackProvenance:
    """One test per unsupported-config cause.

    Each asserts the full provenance chain: the reason logged on the
    ``repro.engine`` logger at build time, and the ``engine_decision``
    recorded on the result's network description after the run.
    """

    def _run_and_check(self, config, expect_in_reason, caplog):
        with caplog.at_level(logging.INFO, logger="repro.engine"):
            cosim = build_cosim(config, verify="off")
        record = caplog.records[-1]
        assert record.name == "repro.engine"
        assert expect_in_reason in record.getMessage()
        assert cosim.engine_decision.name == "oo"
        assert expect_in_reason in cosim.engine_decision.reason
        result = cosim.run(max_cycles=200)
        provenance = result.network_description["engine"]
        assert provenance["name"] == "oo"
        assert provenance["kernel_version"] == OO_KERNEL_VERSION
        return result

    def test_non_simd_model(self, caplog):
        config = TargetConfig(
            width=4, height=4, app="water", scale=0.05
        )  # default cycle model: not the simd kernels' scope
        self._run_and_check(config, "network_model", caplog)

    def _check_unbuildable(self, config, expect_in_reason, caplog):
        # The kernels are the only 'simd' implementation, so no result
        # exists to stamp; the provenance contract here is the logged
        # reason, the decision fields, and one ConfigError naming the
        # cause instead of a silent wrong answer.
        with caplog.at_level(logging.INFO, logger="repro.engine"):
            decision = resolve_engine(config, engine="auto")
        record = caplog.records[-1]
        assert record.name == "repro.engine"
        assert expect_in_reason in record.getMessage()
        assert decision.name == "oo"
        assert expect_in_reason in decision.reason
        assert decision.kernel_version == OO_KERNEL_VERSION
        for request in ("auto", "oo", "batched"):
            with pytest.raises(ConfigError, match=expect_in_reason):
                build_cosim(config, verify="off", engine=request)

    def test_non_mesh_topology(self, caplog):
        config = TargetConfig(
            width=4, height=4, network_model="simd", topology="torus",
            app="water", scale=0.05,
        )
        self._check_unbuildable(config, "topology", caplog)

    def test_class_partition_vc_select(self, caplog):
        config = TargetConfig(
            width=4, height=4, network_model="simd",
            noc=NocConfig(vc_select="class_partition"),
            app="water", scale=0.05,
        )
        self._check_unbuildable(config, "vc_select", caplog)

    def test_fault_injection(self, caplog):
        from repro.resilience.faults import FaultConfig

        config = TargetConfig(
            width=4, height=4, network_model="simd",
            app="water", scale=0.05,
        )
        # TargetConfig refuses simd+faults up front, which is exactly
        # why resolve_engine must still answer for the combination: the
        # campaign layer can hand it configs built field-by-field.
        config.faults = FaultConfig(seed=3)
        self._run_and_check(config, "fault injection", caplog)


class TestBuildCosimSelection:
    def test_decision_recorded_on_cosim(self):
        cosim = build_cosim(_SIMD_MESH, verify="off")
        assert cosim.engine_decision.is_batched

    @staticmethod
    def _recorded_engine(cosim):
        return cosim.run(max_cycles=64).network_description["engine"]

    def test_oo_request_records_batched(self):
        # "oo" is still accepted (the ledger's reference cut passes it),
        # but provenance says what ran: there is one 'simd' implementation
        cosim = build_cosim(
            _SIMD_MESH.variant(app="water", scale=0.05), verify="off", engine="oo"
        )
        assert cosim.engine_decision.is_batched
        assert self._recorded_engine(cosim) == {
            "name": "batched", "kernel_version": KERNEL_VERSION,
        }

    def test_injected_factory_records_batched(self):
        from repro.noc_gpu import SimdNetwork

        cosim = build_cosim(
            _SIMD_MESH.variant(app="water", scale=0.05),
            simd_network_factory=SimdNetwork,
            verify="off",
        )
        assert cosim.engine_decision.is_batched
        assert self._recorded_engine(cosim) == {
            "name": "batched", "kernel_version": KERNEL_VERSION,
        }

    def test_fault_config_falls_back(self):
        from repro.resilience.faults import FaultConfig

        config = TargetConfig(
            width=4, height=4, app="water", scale=0.05,
            faults=FaultConfig(seed=3),
        )
        cosim = build_cosim(config, verify="off", engine="batched")
        assert cosim.engine_decision.name == "oo"
        assert "fallback" in cosim.engine_decision.reason


class TestShippedConfigEquivalence:
    """Recorded-twin bit-identity for every shipped target configuration."""

    @pytest.mark.parametrize(
        "label, config",
        [pytest.param(label, config, id=label.replace(" ", "_"))
         for label, config in shipped_target_configs()],
    )
    def test_engines_agree(self, label, config):
        decision = resolve_engine(_shrunk(config), engine="auto")
        if not decision.is_batched:
            # Unsupported configs must fall back, never fail.
            assert decision.name == "oo"
            assert "fallback" in decision.reason
            return
        recorded = json.loads(_FIXTURE.read_text())["cosim"]
        assert _sig_digest(_shipped_run(config)) == recorded[label], label


class TestRunCosimBatch:
    def _configs(self, k=4):
        # Heterogeneous lanes: seed, app, and scale differ; shape agrees.
        apps = ("water", "fft", "water", "lu")
        return [
            TargetConfig(
                width=4, height=4, app=apps[i % len(apps)],
                seed=10 + 3 * i, scale=0.05 + 0.01 * i,
                network_model="simd", quantum=4,
            )
            for i in range(k)
        ]

    def test_batch_matches_individual_runs(self):
        configs = self._configs()
        batch = run_cosim_batch(configs, verify="off")
        assert batch.lanes == len(configs)
        assert batch.engine.is_batched
        singles = [
            build_cosim(c, verify="off", engine="auto").run() for c in configs
        ]
        for lane, (got, want) in enumerate(zip(batch.results, singles)):
            assert _result_sig(got) == _result_sig(want), f"lane {lane}"
        # The whole batch shares one kernel stream: far fewer launches
        # than K independent runs would have made.
        assert batch.kernel_launches > 0

    @staticmethod
    def _assert_lanes_match_solo_runs(configs, max_cycles):
        batch = run_cosim_batch(configs, max_cycles=max_cycles, verify="off")
        for lane, config in enumerate(configs):
            want = build_cosim(config, verify="off").run(max_cycles=max_cycles)
            got = batch.results[lane]
            assert _result_sig(got) == _result_sig(want), (max_cycles, lane)

    @pytest.mark.parametrize("cut", [3105, 3106, 3109, 3111])
    def test_unaligned_cut_while_a_lane_drains(self, cut):
        # Lane 0 finishes at 3100 and drains to 3200 while lane 1 still
        # runs: the main lane's cut at max_cycles must not cut the
        # draining lane's windows.
        configs = [
            TargetConfig(width=4, height=4, app="water", seed=10, scale=0.05,
                         network_model="simd", quantum=4),
            TargetConfig(width=4, height=4, app="lu", seed=19, scale=0.08,
                         network_model="simd", quantum=4),
        ]
        self._assert_lanes_match_solo_runs(configs, cut)

    @pytest.mark.parametrize("cut", [5_000_000, 1001])
    def test_mixed_quanta_match_individual_runs(self, cut):
        configs = [
            config.variant(quantum=quantum)
            for config, quantum in zip(self._configs(), (1, 3, 4, 7))
        ]
        self._assert_lanes_match_solo_runs(configs, cut)

    def test_unbatchable_configs_rejected(self):
        configs = self._configs(2)
        bad = configs[1].variant(width=8)
        with pytest.raises(ConfigError, match="not batchable"):
            run_cosim_batch([configs[0], bad], verify="off")


class TestConfigsBatchable:
    def test_empty(self):
        ok, reason = configs_batchable([])
        assert not ok and "empty" in reason

    def test_shape_mismatch(self):
        a = TargetConfig(width=4, height=4, network_model="simd")
        b = TargetConfig(width=8, height=8, network_model="simd")
        ok, reason = configs_batchable([a, b])
        assert not ok and "shape" in reason

    def test_noc_mismatch(self):
        a = TargetConfig(width=4, height=4, network_model="simd")
        b = a.variant(noc=NocConfig(num_vcs=8))
        ok, _ = configs_batchable([a, b])
        assert not ok

    def test_unsupported_member(self):
        a = TargetConfig(width=4, height=4, network_model="simd")
        b = TargetConfig(width=4, height=4)  # cycle model
        ok, reason = configs_batchable([a, b])
        assert not ok and "network_model" in reason

    def test_heterogeneous_workloads_ok(self):
        a = TargetConfig(width=4, height=4, network_model="simd", seed=1)
        b = a.variant(seed=2, app="water", scale=0.5)
        ok, reason = configs_batchable([a, b])
        assert ok, reason

    def test_differing_quanta_ok(self):
        a = TargetConfig(width=4, height=4, network_model="simd", quantum=1)
        ok, reason = configs_batchable([a, a.variant(quantum=7)])
        assert ok, reason
