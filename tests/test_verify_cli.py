"""Tests for ``python -m repro verify`` and the build_cosim gate."""

import json
import warnings

import pytest

from repro.core.config import TargetConfig, build_cosim
from repro.errors import ConfigError
from repro.harness.cli import main as repro_main
from repro.harness.experiments import shipped_target_configs
from repro.noc.config import NocConfig
from repro.verify.cli import main as verify_main


class TestVerifyCommand:
    def test_default_run_certifies_everything(self, capsys):
        assert verify_main([]) == 0
        out = capsys.readouterr().out
        assert "all" in out and "certified" in out
        # The acceptance bar: all four shipped routings appear.
        for routing in ("XYRouting", "YXRouting", "WestFirstRouting", "OddEvenRouting"):
            assert routing in out
        assert "directory protocol" in out

    def test_filter_selects_matching_subjects(self, capsys):
        assert verify_main(["protocol"]) == 0
        out = capsys.readouterr().out
        assert "directory protocol" in out
        assert "XYRouting" not in out

    def test_unmatched_filter_exits_two(self, capsys):
        assert verify_main(["no-such-subject"]) == 2

    @pytest.mark.parametrize("cores", ["0", "-1", "1"])
    def test_too_few_cores_exits_two_with_one_line(self, capsys, cores):
        assert repro_main(["verify", "coherence", "--cores", cores]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("verify: ") and ">= 2 cachers" in line
        assert "Traceback" not in captured.err

    def test_dispatch_through_repro_cli(self, capsys):
        assert repro_main(["verify", "protocol"]) == 0
        assert "directory protocol" in capsys.readouterr().out

    def test_json_format(self, capsys):
        assert verify_main(["protocol", "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        assert all("label" in r and "certified" in r for r in report["reports"])


class TestSelfTest:
    def test_self_test_refutes_both_fixtures(self, capsys):
        assert verify_main(["--self-test"]) == 0
        out = capsys.readouterr().out
        # Both counterexample styles are printed.
        assert "cdg-cycle" in out
        assert "unhandled-transition" in out
        assert "refuted" in out

    def test_self_test_json(self, capsys):
        assert verify_main(["--self-test", "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["self_test"] is True and report["ok"] is True
        assert any(not r["ok"] for r in report["reports"])


class TestBuildCosimGate:
    def test_clean_config_builds_without_warning(self):
        config = TargetConfig(width=2, height=2, scale=0.05)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            build_cosim(config)

    def _refutable_config(self):
        # 1-VC 5x5 torus: dateline starvation, refuted by the verifier.
        return TargetConfig(
            width=5,
            height=5,
            topology="torus",
            scale=0.05,
            noc=NocConfig(num_vcs=1),
        )

    def test_warn_by_default(self):
        with pytest.warns(RuntimeWarning, match="failed pre-simulation"):
            build_cosim(self._refutable_config())

    def test_strict_raises_config_error(self):
        with pytest.raises(ConfigError, match="failed pre-simulation"):
            build_cosim(self._refutable_config(), verify="strict")

    def test_off_skips_the_pass(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            build_cosim(self._refutable_config(), verify="off")

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError, match="verify must be"):
            build_cosim(TargetConfig(width=2, height=2), verify="maybe")

    def test_abstract_models_skip_network_check(self):
        # fixed-latency transport cannot deadlock; only the protocol is
        # checked, so even a refutable NoC shape builds clean.
        config = self._refutable_config().variant(network_model="fixed")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            build_cosim(config)


class TestShippedConfigs:
    def test_enumeration_covers_distinct_shapes(self):
        configs = shipped_target_configs()
        assert len(configs) >= 8
        labels = [label for label, _ in configs]
        assert len(set(labels)) == len(labels)
        sizes = {(c.width, c.height) for _, c in configs}
        assert (32, 16) in sizes  # the largest measured E6 target

    def test_every_shipped_config_certifies(self):
        from repro.verify import verify_target_config

        for label, config in shipped_target_configs():
            for report in verify_target_config(config):
                assert report.ok, f"{label}: {report.render()}"
