"""Tests for the command-line interface."""

import pytest

from repro.harness.cli import SUBCOMMANDS, build_parser, main


class TestParser:
    def test_experiment_ids_accepted(self):
        parser = build_parser()
        args = parser.parse_args(["E3", "--quick"])
        assert args.experiment == "E3" and args.quick

    def test_table1_accepted(self):
        assert build_parser().parse_args(["table1"]).experiment == "table1"

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["E42"])

    def test_seed_override(self):
        assert build_parser().parse_args(["E1", "--seed", "9"]).seed == 9


class TestMain:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Target system configuration" in out

    def test_quick_experiment(self, capsys):
        assert main(["E1", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "[E1]" in out and "completed in" in out

    def test_seed_passthrough(self, capsys):
        assert main(["E1", "--quick", "--seed", "23"]) == 0
        assert "[E1]" in capsys.readouterr().out


class TestCampaignDispatch:
    """``python -m repro campaign ...`` hands off to repro.campaign.cli."""

    def test_run_and_report(self, tmp_path, capsys):
        db = str(tmp_path / "c.db")
        code = main(
            ["campaign", "run", "demo", "--db", db, "--workers", "2",
             "--no-progress"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "campaign: 4/4 done, 0 failed" in out
        assert "[demo]" in out  # the final report renders the table
        assert main(["campaign", "status", "--db", db]) == 0
        assert "Job provenance" in capsys.readouterr().out
        assert main(["campaign", "report", "--db", db]) == 0
        assert "[demo]" in capsys.readouterr().out

    def test_resume_skips_done_jobs(self, tmp_path, capsys):
        db = str(tmp_path / "c.db")
        assert main(["campaign", "run", "demo", "--db", db, "--no-progress"]) == 0
        capsys.readouterr()
        code = main(
            ["campaign", "run", "demo", "--db", db, "--resume", "--no-progress"]
        )
        assert code == 0
        assert "0 executed, 4 skipped" in capsys.readouterr().out

    def test_existing_db_without_resume_refused(self, tmp_path, capsys):
        db = str(tmp_path / "c.db")
        assert main(["campaign", "run", "demo", "--db", db, "--no-progress"]) == 0
        capsys.readouterr()
        assert main(["campaign", "run", "demo", "--db", db, "--no-progress"]) == 2
        assert "--resume" in capsys.readouterr().err

    def test_unknown_experiment_is_config_error(self, tmp_path, capsys):
        db = str(tmp_path / "c.db")
        assert main(["campaign", "run", "E42", "--db", db]) == 2
        assert "unknown campaign experiment" in capsys.readouterr().err


class TestSubcommandRegistry:
    """The SUBCOMMANDS table is the single source of truth for tool
    dispatch; these tests keep the table, the dispatcher, and --help in
    lockstep so a new tool cannot be wired into one and forgotten in
    another."""

    EXPECTED = {
        "lint", "verify", "campaign", "resilience", "serve", "chaos", "cluster",
    }

    def test_table_names_every_tool(self):
        assert set(SUBCOMMANDS) == self.EXPECTED

    def test_table_entries_are_consistent(self):
        for name, sub in SUBCOMMANDS.items():
            assert sub.name == name
            assert sub.help, f"{name} needs a help line for the epilog"

    def test_help_epilog_lists_every_subcommand(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--help"])
        assert err.value.code == 0
        out = capsys.readouterr().out
        for name, sub in SUBCOMMANDS.items():
            assert f"\n  {name}" in out
            assert sub.help in out

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_every_subcommand_dispatches_to_a_real_parser(self, name, capsys):
        """main([name, "--help"]) must reach the tool's own argparse: the
        loader resolves, the tool's parser exists, and it exits cleanly."""
        with pytest.raises(SystemExit) as err:
            main([name, "--help"])
        assert err.value.code == 0
        out = capsys.readouterr().out
        assert "usage:" in out

    def test_loaders_resolve_to_callables(self):
        for sub in SUBCOMMANDS.values():
            assert callable(sub.load())

    def test_subcommand_names_never_collide_with_experiments(self):
        from repro.harness.experiments import ALL_EXPERIMENTS

        assert not set(SUBCOMMANDS) & set(ALL_EXPERIMENTS)


class TestServeDispatch:
    """``python -m repro serve ...`` hands off to repro.serve.cli."""

    def test_serve_requires_a_command(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["serve"])
        assert err.value.code == 2
        assert "command" in capsys.readouterr().err

    def test_serve_client_without_daemon_fails_cleanly(self, capsys):
        # port 1 is never listening; the client must map the socket error
        # to exit code 2, not a traceback
        assert main(["serve", "catalog", "--port", "1"]) == 2
        assert "cannot reach serve daemon" in capsys.readouterr().err
