"""The benchmark-trajectory harness: document shape, compare gating, CLI."""

import json

import pytest

from repro.bench import (
    BENCH_FILENAME,
    BENCH_SCHEMA_VERSION,
    compare_bench,
    load_bench,
    write_bench,
)
from repro.bench.cli import main as bench_main
from repro.bench.harness import _traffic_schedule
from repro.errors import ConfigError


def _document(quick_speedup=4.0, full_speedup=None, wall=0.5):
    """A synthetic schema-valid benchmark document."""
    profiles = {}
    sections = {"quick": quick_speedup}
    if full_speedup is not None:
        sections["full"] = full_speedup
    for profile, speedup in sections.items():
        profiles[profile] = {
            "benchmarks": {
                "cycle_kernel_oo_loop": {"wall_s": wall * speedup},
                "cycle_kernel_batched": {"wall_s": wall},
                "e2e_single": {"wall_s": wall},
                "e2e_batch": {"wall_s": wall * 2},
            },
            "derived": {
                "cycle_kernel_speedup": speedup,
                "batch_efficiency": 2.0,
            },
        }
    return {
        "schema": BENCH_SCHEMA_VERSION,
        "kernel_version": "batched-simd-3",
        "pinned_seed": 42,
        "host": {"python": "3.11.0", "machine": "x86_64"},
        "profiles": profiles,
    }


class TestLoadWrite:
    def test_roundtrip(self, tmp_path):
        doc = _document()
        path = tmp_path / BENCH_FILENAME
        write_bench(doc, str(path))
        assert load_bench(str(path)) == doc
        # Canonical form: sorted keys, trailing newline (clean diffs).
        text = path.read_text()
        assert text.endswith("\n")
        assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="no benchmark file"):
            load_bench(str(tmp_path / "nope.json"))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_bench(str(path))

    def test_schema_mismatch(self, tmp_path):
        doc = _document()
        doc["schema"] = BENCH_SCHEMA_VERSION + 1
        path = tmp_path / "future.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="schema"):
            load_bench(str(path))


class TestCompare:
    def test_equal_documents_ok(self):
        ok, lines = compare_bench(_document(), _document())
        assert ok
        assert any("cycle_kernel_speedup" in line for line in lines)

    def test_small_drop_within_threshold(self):
        ok, _ = compare_bench(_document(4.0), _document(3.5), threshold=0.2)
        assert ok

    def test_large_drop_is_regression(self):
        ok, lines = compare_bench(_document(4.0), _document(2.0), threshold=0.2)
        assert not ok
        assert any("REGRESSION" in line for line in lines)

    def test_improvement_ok(self):
        ok, _ = compare_bench(_document(4.0), _document(8.0))
        assert ok

    def test_wall_changes_are_advisory(self):
        # 10x slower walls but the same ratio: advisory lines only.
        ok, lines = compare_bench(
            _document(4.0, wall=0.1), _document(4.0, wall=1.0)
        )
        assert ok
        assert any("advisory" in line for line in lines)

    def test_only_shared_profiles_gate(self):
        # Baseline has quick+full; candidate quick-only (the CI shape).
        baseline = _document(4.0, full_speedup=6.0)
        candidate = _document(3.8)
        ok, lines = compare_bench(baseline, candidate)
        assert ok
        assert any("present in baseline only" in line for line in lines)

    def test_candidate_only_profile_advisory(self):
        ok, lines = compare_bench(_document(4.0), _document(4.0, full_speedup=5.0))
        assert ok
        assert any("new in candidate" in line for line in lines)

    def test_no_shared_profile_is_an_error(self):
        baseline = _document(4.0)
        candidate = _document(4.0, full_speedup=5.0)
        del candidate["profiles"]["quick"]
        with pytest.raises(ConfigError, match="share no benchmark profile"):
            compare_bench(baseline, candidate)

    def test_missing_derived_is_an_error(self):
        candidate = _document(4.0)
        del candidate["profiles"]["quick"]["derived"]["cycle_kernel_speedup"]
        with pytest.raises(ConfigError, match="cycle_kernel_speedup"):
            compare_bench(_document(4.0), candidate)

    def test_bad_threshold(self):
        with pytest.raises(ConfigError, match="threshold"):
            compare_bench(_document(), _document(), threshold=0.0)


class TestCli:
    def test_compare_ok_exit_zero(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        cand = tmp_path / "cand.json"
        write_bench(_document(4.0), str(base))
        write_bench(_document(3.9), str(cand))
        assert bench_main(["compare", str(base), str(cand)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_compare_regression_exit_one(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        cand = tmp_path / "cand.json"
        write_bench(_document(4.0), str(base))
        write_bench(_document(1.5), str(cand))
        assert bench_main(["compare", str(base), str(cand)]) == 1
        assert "regression" in capsys.readouterr().out

    def test_compare_missing_file_exit_two(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        write_bench(_document(), str(base))
        code = bench_main(["compare", str(base), str(tmp_path / "nope.json")])
        assert code == 2
        assert "bench:" in capsys.readouterr().err

    def test_run_quick_writes_document(self, tmp_path, capsys, monkeypatch):
        # Patch the profile runner: the real benchmarks take minutes.
        from repro.bench import harness

        monkeypatch.setattr(
            harness,
            "_run_profile",
            lambda quick: _document()["profiles"]["quick"],
        )
        out = tmp_path / "bench.json"
        assert bench_main(["run", "--quick", "--out", str(out)]) == 0
        document = load_bench(str(out))
        assert sorted(document["profiles"]) == ["quick"]
        assert document["kernel_version"]
        assert "cycle_kernel_speedup" in capsys.readouterr().out

    def test_run_full_measures_both_profiles(self, tmp_path, monkeypatch):
        from repro.bench import harness

        seen = []
        monkeypatch.setattr(
            harness,
            "_run_profile",
            lambda quick: seen.append(quick)
            or _document()["profiles"]["quick"],
        )
        out = tmp_path / "bench.json"
        assert bench_main(["run", "--out", str(out)]) == 0
        assert sorted(load_bench(str(out))["profiles"]) == ["full", "quick"]
        assert seen == [True, False]


class TestTrafficSchedule:
    def test_deterministic(self):
        a = _traffic_schedule(16, 50, 4, seed=7)
        b = _traffic_schedule(16, 50, 4, seed=7)
        assert a == b and a

    def test_seed_changes_schedule(self):
        assert _traffic_schedule(16, 50, 4, seed=7) != _traffic_schedule(
            16, 50, 4, seed=8
        )

    def test_no_self_sends(self):
        for _, src, dst, _size in _traffic_schedule(16, 50, 4, seed=3):
            assert src != dst
