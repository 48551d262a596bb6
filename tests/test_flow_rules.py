"""SIM2xx rule precision: mirrored fixtures, scoping, pragma sharing."""

from pathlib import Path

import pytest

import repro
from repro.analysis import run_lint
from repro.analysis.flow import DEEP_RULES, DeepConfig

FIXTURES = Path(__file__).parent / "fixtures" / "flow"
PACKAGE = Path(repro.__file__).resolve().parent

#: scope every rule onto the flat fixture directory
OPEN_CONFIG = DeepConfig(
    taint_sink_paths=("*",),
    async_state_paths=("*",),
    fork_paths=("*",),
    unit_paths=("*",),
    resource_paths=("*",),
)


def _lint(path, config=OPEN_CONFIG):
    return run_lint([path], ("deep",), deep_config=config).violations


class TestMirroredFixtures:
    @pytest.mark.parametrize(
        "rule, count",
        [
            ("nondeterminism-taint", 1),
            ("await-atomicity", 1),
            ("fork-unsafety", 1),
            ("unit-confusion", 1),
            ("resource-lifecycle", 2),
        ],
    )
    def test_positive_fixture_fires(self, rule, count):
        code = DEEP_RULES[rule][0].lower()
        violations = _lint(FIXTURES / f"{code}_pos.py")
        assert [v.rule for v in violations] == [rule] * count

    @pytest.mark.parametrize(
        "rule", list(DEEP_RULES)
    )
    def test_negative_fixture_is_clean(self, rule):
        code = DEEP_RULES[rule][0].lower()
        assert _lint(FIXTURES / f"{code}_neg.py") == []

    def test_violations_carry_codes_and_spans(self):
        (violation,) = _lint(FIXTURES / "sim202_pos.py")
        assert violation.code == "SIM202"
        assert violation.line > 0
        assert violation.end_line >= violation.line
        assert violation.context  # the baseline's semantic anchor


class TestScoping:
    def test_default_config_scopes_each_rule(self):
        config = DeepConfig()
        assert config.applies("await-atomicity", "serve/server.py")
        assert not config.applies("await-atomicity", "core/cosim.py")
        assert config.applies("fork-unsafety", "campaign/pool.py")
        assert not config.applies("fork-unsafety", "noc/router.py")
        assert config.applies("nondeterminism-taint", "core/cosim.py")
        assert not config.applies("nondeterminism-taint", "harness/cli.py")
        assert config.applies("unit-confusion", "anything.py")
        assert config.applies("resource-lifecycle", "anything.py")

    def test_disabled_rule_never_applies(self):
        config = DeepConfig(enabled=("unit-confusion",))
        assert not config.applies("resource-lifecycle", "anything.py")

    def test_allow_paths_suppress(self):
        config = DeepConfig(
            unit_paths=("*",),
            allow_paths={"unit-confusion": ("sim204_*.py",)},
        )
        assert run_lint(
            [FIXTURES / "sim204_pos.py"], ("deep",), deep_config=config
        ).violations == []

    def test_out_of_scope_fixture_is_clean_by_default(self):
        # Default DeepConfig scopes SIM202 to serve/*; the flat fixture
        # path is outside that scope, so the same hazard stays quiet.
        assert run_lint(
            [FIXTURES / "sim202_pos.py"], ("deep",), deep_config=DeepConfig()
        ).violations == []


class TestPragmaSharing:
    """The classic pass's inline pragma machinery excuses deep findings."""

    def test_pragma_excuses_a_deep_finding(self, tmp_path):
        src = (FIXTURES / "sim204_pos.py").read_text()
        src = src.replace(
            "return elapsed_cycles > now_wall - start_wall",
            "return elapsed_cycles > now_wall - start_wall"
            "  # simlint: allow[unit-confusion]",
        )
        excused = tmp_path / "excused.py"
        excused.write_text(src)
        assert _lint(excused) == []

    def test_wildcard_pragma_excuses_everything(self, tmp_path):
        src = tmp_path / "wild.py"
        src.write_text(
            "import sqlite3\n\n\n"
            "def f(path):\n"
            "    conn = sqlite3.connect(path)  # simlint: allow[*]\n"
            "    conn.execute('SELECT 1')\n"
            "    conn.close()\n"
        )
        assert _lint(src) == []


class TestOwnConnectionIsAResource:
    """``repro.serve.client.Connection`` is tracked like the stdlib's."""

    @pytest.mark.parametrize("imported", [
        "from repro.serve.client import Connection",
        "from ..serve.client import Connection",  # how cluster/peer.py spells it
    ])
    def test_unguarded_close_fires_and_with_is_clean(self, tmp_path, imported):
        leaky = tmp_path / "leaky.py"
        leaky.write_text(
            f"{imported}\n\n\n"
            "def call(target, request):\n"
            "    conn = Connection(target, 2.0)\n"
            "    response = conn.exchange(request)\n"
            "    conn.close()\n"
            "    return response\n"
        )
        (violation,) = _lint(leaky)
        assert violation.rule == "resource-lifecycle"
        assert "HTTP connection" in violation.message
        managed = tmp_path / "managed.py"
        managed.write_text(
            f"{imported}\n\n\n"
            "def call(target, request):\n"
            "    with Connection(target, 2.0) as conn:\n"
            "        return conn.exchange(request)\n"
        )
        assert _lint(managed) == []


class TestTreeIsClean:
    def test_shipped_tree_is_deep_clean(self):
        # against the committed baseline (which is empty: every true
        # positive found in-tree was fixed instead of suppressed)
        baseline = (
            Path(repro.__file__).resolve().parents[2]
            / ".simlint-baseline.json"
        )
        report = run_lint([PACKAGE], ("classic", "deep"), baseline_path=baseline)
        assert report.violations == []

    def test_stats_describe_coverage(self):
        report = run_lint([PACKAGE], ("classic", "deep"))
        assert report.stats["modules"] > 40
        assert report.stats["functions"] > 200
        assert report.stats["call_edges"] > 100
