"""SARIF rendering, suppression baseline round-trip, and the lint CLI."""

import json
import shutil
from pathlib import Path

import pytest

from repro.analysis import run_lint
from repro.analysis.flow import (
    DeepConfig,
    apply_baseline,
    fingerprint_all,
    load_baseline,
    render_sarif,
    write_baseline,
)
from repro.analysis.rules import RULE_CODES
from repro.harness.cli import main

FIXTURES = Path(__file__).parent / "fixtures" / "flow"

OPEN_CONFIG = DeepConfig(
    taint_sink_paths=("*",),
    async_state_paths=("*",),
    fork_paths=("*",),
    unit_paths=("*",),
    resource_paths=("*",),
)


def _fixture_violations():
    violations = run_lint([FIXTURES], ("deep",), deep_config=OPEN_CONFIG).violations
    assert violations, "fixture tree should not be empty"
    return violations


class TestSarifDocument:
    def test_document_shape(self):
        violations = _fixture_violations()
        doc = json.loads(render_sarif(violations))
        assert doc["version"] == "2.1.0"
        assert "sarif-schema-2.1.0" in doc["$schema"]
        (run,) = doc["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "simlint"
        # the rule table covers both passes' registries
        ids = {r["id"] for r in driver["rules"]}
        assert {code for code, _ in RULE_CODES.values()} == ids
        assert len(run["results"]) == len(violations)

    def test_result_regions_and_fingerprints(self):
        violations = _fixture_violations()
        doc = json.loads(render_sarif(violations))
        prints = fingerprint_all(violations)
        for result, violation, fp in zip(
            json.loads(render_sarif(violations))["runs"][0]["results"],
            violations,
            prints,
        ):
            assert result["ruleId"] == violation.code
            loc = result["locations"][0]["physicalLocation"]
            assert loc["artifactLocation"]["uri"] == violation.path
            region = loc["region"]
            assert region["startLine"] == violation.line
            if violation.end_line:
                assert region["endLine"] == violation.end_line
            assert result["partialFingerprints"]["simlint/v1"] == fp
        assert doc  # parsed once above; shape already checked

    def test_prefix_rebases_uris(self):
        violations = _fixture_violations()
        doc = json.loads(render_sarif(violations, prefix="src/repro/"))
        uris = [
            r["locations"][0]["physicalLocation"]["artifactLocation"]["uri"]
            for r in doc["runs"][0]["results"]
        ]
        assert uris and all(u.startswith("src/repro/") for u in uris)

    def test_rule_index_is_consistent(self):
        violations = _fixture_violations()
        doc = json.loads(render_sarif(violations))
        rules = doc["runs"][0]["tool"]["driver"]["rules"]
        for result in doc["runs"][0]["results"]:
            assert rules[result["ruleIndex"]]["id"] == result["ruleId"]


class TestBaselineRoundTrip:
    def test_suppress_then_regress(self, tmp_path):
        violations = _fixture_violations()
        baseline_path = tmp_path / "baseline.json"
        count = write_baseline(baseline_path, violations)
        assert count == len(violations)
        baseline = load_baseline(baseline_path)
        kept, suppressed = apply_baseline(violations, baseline)
        assert kept == [] and suppressed == len(violations)
        # a new finding (same rule, different anchor) must reappear
        tree = tmp_path / "tree"
        shutil.copytree(FIXTURES, tree, ignore=shutil.ignore_patterns("pkg"))
        (tree / "fresh.py").write_text(
            "import sqlite3\n\n\n"
            "def fresh(path):\n"
            "    conn = sqlite3.connect(path)\n"
            "    conn.execute('SELECT 1')\n"
        )
        regressed = run_lint([tree], ("deep",), deep_config=OPEN_CONFIG).violations
        kept, _ = apply_baseline(regressed, baseline)
        assert [v.path for v in kept] == ["fresh.py"]
        assert kept[0].rule == "resource-lifecycle"

    def test_fingerprints_survive_line_shifts(self, tmp_path):
        tree = tmp_path / "tree"
        tree.mkdir()
        src = (FIXTURES / "sim205_pos.py").read_text()
        (tree / "mod.py").write_text(src)
        before = run_lint([tree], ("deep",), deep_config=OPEN_CONFIG).violations
        (tree / "mod.py").write_text("# a new header comment\n\n" + src)
        after = run_lint([tree], ("deep",), deep_config=OPEN_CONFIG).violations
        assert [v.line for v in after] == [v.line + 2 for v in before]
        assert fingerprint_all(before) == fingerprint_all(after)

    def test_repeated_anchor_occurrences_distinct(self):
        violations = _fixture_violations()
        prints = fingerprint_all(violations)
        assert len(prints) == len(set(prints))

    def test_missing_or_invalid_baseline_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "absent.json") == {}
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert load_baseline(bad) == {}
        wrong = tmp_path / "wrong.json"
        wrong.write_text('{"version": 99, "fingerprints": {"x": "y"}}')
        assert load_baseline(wrong) == {}


class TestLintCli:
    """End-to-end through ``python -m repro lint ...``."""

    def _deep(self, *extra, path=FIXTURES, capsys=None):
        rc = main(
            ["lint", "--deep", "--no-cache", "--path", str(path), *extra]
        )
        out = capsys.readouterr().out if capsys else ""
        return rc, out

    def test_deep_text_exit_code_and_output(self, capsys, tmp_path):
        # scope defaults hide the flat fixtures; the CLI runs the
        # shipped DeepConfig, so mirror one fixture into a scoped path
        tree = tmp_path / "core"
        tree.mkdir()
        shutil.copy(FIXTURES / "sim201_pos.py", tree / "mod.py")
        rc, out = self._deep(path=tmp_path, capsys=capsys)
        assert rc == 1
        assert "SIM201" in out and "nondeterminism-taint" in out

    def test_deep_clean_tree_exits_zero(self, capsys, tmp_path):
        (tmp_path / "mod.py").write_text("def ok():\n    return 1\n")
        rc, out = self._deep(path=tmp_path, capsys=capsys)
        assert rc == 0
        assert "clean" in out

    def test_sarif_format_is_valid_json(self, capsys, tmp_path):
        tree = tmp_path / "core"
        tree.mkdir()
        shutil.copy(FIXTURES / "sim201_pos.py", tree / "mod.py")
        rc, out = self._deep(
            "--format", "sarif", path=tmp_path, capsys=capsys
        )
        assert rc == 1
        doc = json.loads(out)
        assert doc["version"] == "2.1.0"
        assert doc["runs"][0]["results"]

    def test_classic_sarif_without_deep(self, capsys, tmp_path):
        (tmp_path / "mod.py").write_text(
            "import time\n\n\ndef f():\n    return time.time()\n"
        )
        rc = main(
            ["lint", "--path", str(tmp_path), "--format", "sarif"]
        )
        out = capsys.readouterr().out
        assert rc == 1
        doc = json.loads(out)
        assert any(
            r["ruleId"] == "SIM102" for r in doc["runs"][0]["results"]
        )

    def test_update_baseline_then_rerun_is_clean(self, capsys, tmp_path):
        tree = tmp_path / "core"
        tree.mkdir()
        shutil.copy(FIXTURES / "sim201_pos.py", tree / "mod.py")
        baseline = tmp_path / "baseline.json"
        rc, out = self._deep(
            "--update-baseline", "--baseline", str(baseline),
            path=tmp_path, capsys=capsys,
        )
        assert rc == 0 and baseline.exists()
        assert "baseline updated" in out
        rc, out = self._deep(
            "--baseline", str(baseline), path=tmp_path, capsys=capsys
        )
        assert rc == 0
        assert "suppressed" in out

    def test_stats_output(self, capsys, tmp_path):
        tree = tmp_path / "core"
        tree.mkdir()
        shutil.copy(FIXTURES / "sim201_pos.py", tree / "mod.py")
        rc, out = self._deep("--stats", path=tmp_path, capsys=capsys)
        assert rc == 0
        assert "modules analyzed" in out
        assert "call edges" in out
        assert "nondeterminism-taint" in out

    def test_json_format_carries_spans(self, capsys, tmp_path):
        tree = tmp_path / "core"
        tree.mkdir()
        shutil.copy(FIXTURES / "sim201_pos.py", tree / "mod.py")
        rc, out = self._deep(
            "--format", "json", path=tmp_path, capsys=capsys
        )
        assert rc == 1
        report = json.loads(out)
        assert report["count"] and not report["ok"]
        assert {"end_line", "end_col"} <= set(report["violations"][0])

    def test_missing_path_exits_two(self, capsys):
        rc = main(["lint", "--path", "/nonexistent/nowhere"])
        assert rc == 2
        assert "does not exist" in capsys.readouterr().out

    def test_cache_dir_warm_run(self, capsys, tmp_path):
        tree = tmp_path / "core"
        tree.mkdir()
        shutil.copy(FIXTURES / "sim201_neg.py", tree / "mod.py")
        cache = tmp_path / "cache"
        argv = [
            "lint", "--deep", "--path", str(tmp_path),
            "--cache-dir", str(cache), "--stats",
        ]
        main(argv)
        cold = capsys.readouterr().out
        assert "0 hit(s)" in cold
        main(argv)
        warm = capsys.readouterr().out
        assert "0 miss(es)" in warm


@pytest.fixture(autouse=True)
def _no_repo_baseline(monkeypatch, tmp_path_factory):
    """Keep CLI tests from picking up a baseline via the cwd fallback."""
    monkeypatch.chdir(tmp_path_factory.mktemp("cli-cwd"))
