"""CLI surface of the SIM3xx pass: --kernels alone and with --deep."""

import json
import shutil
from pathlib import Path

import pytest

import repro
from repro.harness.cli import main

FIXTURES = Path(__file__).parent / "fixtures" / "arrays"
PACKAGE = Path(repro.__file__).resolve().parent


@pytest.fixture
def bad_tree(tmp_path):
    """Fixture modules rehomed under engine/ so default scoping applies."""
    root = tmp_path / "tree"
    (root / "engine").mkdir(parents=True)
    for name in ("sim301_pos.py", "sim302_pos.py", "sim303_pos.py"):
        shutil.copy(FIXTURES / name, root / "engine" / name)
    return root


def _cache_args(tmp_path):
    return ["--cache-dir", str(tmp_path / "cache")]


class TestKernelsCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        code = main(["lint", "--kernels", *_cache_args(tmp_path)])
        assert code == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_nonzero(self, bad_tree, tmp_path, capsys):
        code = main(
            ["lint", "--kernels", "--path", str(bad_tree)]
            + _cache_args(tmp_path)
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "SIM301" in out and "SIM302" in out and "SIM303" in out

    def test_json_report(self, bad_tree, tmp_path, capsys):
        code = main(
            ["lint", "--kernels", "--path", str(bad_tree), "--format", "json"]
            + _cache_args(tmp_path)
        )
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is False
        codes = {v["code"] for v in report["violations"]}
        assert {"SIM301", "SIM302", "SIM303"} <= codes

    def test_sarif_registers_kernel_rules(self, bad_tree, tmp_path, capsys):
        main(
            ["lint", "--kernels", "--path", str(bad_tree), "--format", "sarif"]
            + _cache_args(tmp_path)
        )
        sarif = json.loads(capsys.readouterr().out)
        rules = {
            r["id"]
            for r in sarif["runs"][0]["tool"]["driver"]["rules"]
        }
        assert {"SIM301", "SIM302", "SIM303"} <= rules

    def test_stats_reports_kernel_lines(self, tmp_path, capsys):
        code = main(["lint", "--kernels", "--stats", *_cache_args(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "kernel modules" in out
        assert "shape contracts" in out
        assert "kernel cache" in out
        assert "derived tables   : 24 declared, 0 undeclared field(s) indexed" in out

    def test_an_unsighted_table_fails_the_lint_and_the_stats_step(
        self, tmp_path, capsys
    ):
        # a kernel starts indexing a table nobody declared: both steps of
        # the lint-kernels CI job (the gate and --stats) must go red
        root = tmp_path / "tree"
        (root / "engine").mkdir(parents=True)
        for name in ("layout.py", "kernels.py"):
            shutil.copy(PACKAGE / "engine" / name, root / "engine" / name)
        kernels = root / "engine" / "kernels.py"
        source = kernels.read_text()
        assert source.count("st.nbr_cell[credit]") == 1
        kernels.write_text(source.replace("st.nbr_cell[credit]", "st.upstream[credit]"))
        argv = ["lint", "--kernels", "--path", str(root), *_cache_args(tmp_path)]
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert "SIM305" in out and "'upstream' is indexed" in out
        assert main([*argv, "--stats"]) == 1
        assert "1 undeclared field(s) indexed" in capsys.readouterr().out

    def test_deep_and_kernels_compose(self, tmp_path, capsys):
        # the merged run must keep the tree clean and retain SIM3xx in
        # the registered SARIF rule set alongside the SIM2xx pass
        code = main(
            ["lint", "--deep", "--kernels", "--format", "sarif"]
            + _cache_args(tmp_path)
        )
        assert code == 0
        sarif = json.loads(capsys.readouterr().out)
        rules = {
            r["id"]
            for r in sarif["runs"][0]["tool"]["driver"]["rules"]
        }
        assert "SIM301" in rules and "SIM201" in rules

    def test_update_baseline_covers_kernel_findings(
        self, bad_tree, tmp_path, capsys
    ):
        baseline = tmp_path / "baseline.json"
        code = main(
            [
                "lint",
                "--kernels",
                "--path",
                str(bad_tree),
                "--update-baseline",
                "--baseline",
                str(baseline),
            ]
            + _cache_args(tmp_path)
        )
        assert code == 0
        capsys.readouterr()
        code = main(
            [
                "lint",
                "--kernels",
                "--path",
                str(bad_tree),
                "--baseline",
                str(baseline),
            ]
            + _cache_args(tmp_path)
        )
        assert code == 0
        assert "suppressed" in capsys.readouterr().out
