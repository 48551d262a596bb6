"""The flow engine itself: summaries, call graph, taint, summary cache."""

from pathlib import Path

import repro
from repro.analysis import run_lint
from repro.analysis.flow import (
    SummaryCache,
    TaintAnalysis,
    build_callgraph,
    load_modules,
)
from repro.analysis.flow.summaries import extract_module

FIXTURES = Path(__file__).parent / "fixtures" / "flow"
PKG = FIXTURES / "pkg"
PACKAGE = Path(repro.__file__).resolve().parent


def _pkg_graph():
    mods = load_modules([PKG])
    return mods, build_callgraph(mods.modules)


class TestCallGraph:
    def test_same_module_edge(self):
        _, graph = _pkg_graph()
        assert "b.py::base" in graph.edges["b.py::helper"] or (
            "a.py::base" in graph.edges["b.py::helper"]
        )

    def test_cross_module_from_import_edge(self):
        # top() calls helper(), imported with `from .b import helper`
        _, graph = _pkg_graph()
        assert "b.py::helper" in graph.edges["a.py::top"]

    def test_relative_back_import_edge(self):
        # helper() calls base(), imported back with `from .a import base`
        _, graph = _pkg_graph()
        assert "a.py::base" in graph.edges["b.py::helper"]

    def test_decorator_edge(self):
        _, graph = _pkg_graph()
        assert "a.py::timed" in graph.edges["a.py::top"]

    def test_functools_partial_target_edge(self):
        _, graph = _pkg_graph()
        assert "a.py::base" in graph.edges["a.py::make_adder"]

    def test_mutual_recursion_cycle_terminates(self):
        _, graph = _pkg_graph()
        assert "b.py::pong" in graph.edges["b.py::ping"]
        assert "b.py::ping" in graph.edges["b.py::pong"]
        reach = graph.reachable("b.py::ping")
        assert {"b.py::ping", "b.py::pong"} <= reach

    def test_reachability_depth_bound(self):
        _, graph = _pkg_graph()
        assert graph.reachable("a.py::top", max_depth=0) == {"a.py::top"}

    def test_edge_count_is_positive(self):
        _, graph = _pkg_graph()
        assert graph.edge_count() >= 5


class TestTaintPropagation:
    def test_return_taint_crosses_calls(self):
        _, graph = _pkg_graph()
        taint = TaintAnalysis(graph)
        assert taint.returns_taint["a.py::noisy"] is not None
        assert "unseeded RNG" in taint.returns_taint["a.py::noisy"]

    def test_param_passthrough_is_transitive(self):
        # helper(x) returns base(x) * 2; base returns x + 1 — x flows
        # through two hops into helper's return value.
        _, graph = _pkg_graph()
        taint = TaintAnalysis(graph)
        assert taint.params_to_return["a.py::base"] == {0}
        assert taint.params_to_return["b.py::helper"] == {0}

    def test_param_to_state_recorded(self):
        # stash(state, value) writes `value` into a module global
        _, graph = _pkg_graph()
        taint = TaintAnalysis(graph)
        assert taint.params_to_state["a.py::stash"] == {1: "g:_last"}

    def test_taint_through_kwarg_reaches_state(self):
        # caller() passes noisy() as value= into stash()
        _, graph = _pkg_graph()
        taint = TaintAnalysis(graph)
        findings = taint.findings_for("a.py")
        assert any(
            f["attr"] == "g:_last" and "unseeded RNG" in f["source"]
            for f in findings
        )

    def test_cycle_fixpoint_terminates(self):
        _, graph = _pkg_graph()
        taint = TaintAnalysis(graph)  # would hang on unbroken recursion
        assert taint.params_to_return["b.py::ping"] <= {0}


class TestSummaryExtraction:
    def test_unparseable_module_is_skipped(self, tmp_path):
        assert extract_module("bad.py", "def broken(:") is None
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        mods = load_modules([tmp_path])
        assert mods.modules == {}
        assert mods.unparsed == ["bad.py"]

    def test_facts_are_json_serializable(self):
        import json

        mods = load_modules([PKG])
        # cache round-trip is only sound if every fact survives JSON
        assert json.loads(json.dumps(mods.modules)) == mods.modules


class TestSummaryCacheIncremental:
    def test_cold_then_warm(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cache = SummaryCache(cache_dir)
        mods = load_modules([PKG], cache)
        n = len(mods.modules)
        assert mods.cache_misses == n and mods.cache_hits == 0
        warm = SummaryCache(cache_dir)
        mods2 = load_modules([PKG], warm)
        assert mods2.cache_hits == n and mods2.cache_misses == 0
        assert mods2.modules == mods.modules

    def test_edit_invalidates_only_the_edited_file(self, tmp_path):
        src = tmp_path / "tree"
        src.mkdir()
        (src / "one.py").write_text("def f():\n    return 1\n")
        (src / "two.py").write_text("def g():\n    return 2\n")
        cache_dir = tmp_path / "cache"
        load_modules([src], SummaryCache(cache_dir))
        (src / "one.py").write_text("def f():\n    return 3\n")
        mods = load_modules([src], SummaryCache(cache_dir))
        assert mods.cache_hits == 1 and mods.cache_misses == 1

    def test_version_mismatch_discards_cache(self, tmp_path):
        cache_dir = tmp_path / "cache"
        load_modules([PKG], SummaryCache(cache_dir))
        payload = (cache_dir / "summaries.json").read_text()
        (cache_dir / "summaries.json").write_text(
            payload.replace('"version": ', '"version": "0.0", "x": ')
        )
        mods = load_modules([PKG], SummaryCache(cache_dir))
        assert mods.cache_hits == 0

    def test_corrupt_cache_is_ignored(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        (cache_dir / "summaries.json").write_text("{not json")
        mods = load_modules([PKG], SummaryCache(cache_dir))
        assert mods.cache_misses == len(mods.modules)

    def test_deleted_file_is_pruned(self, tmp_path):
        src = tmp_path / "tree"
        src.mkdir()
        (src / "one.py").write_text("def f():\n    return 1\n")
        (src / "two.py").write_text("def g():\n    return 2\n")
        cache_dir = tmp_path / "cache"
        load_modules([src], SummaryCache(cache_dir))
        (src / "two.py").unlink()
        load_modules([src], SummaryCache(cache_dir))
        reread = SummaryCache(cache_dir)
        assert sorted(reread.entries) == ["one.py"]

    def test_cached_run_reports_identical_findings(self, tmp_path):
        cache_dir = tmp_path / "cache"
        from repro.analysis.flow import DeepConfig

        cfg = DeepConfig(
            taint_sink_paths=("*",), async_state_paths=("*",),
            fork_paths=("*",), unit_paths=("*",), resource_paths=("*",),
        )
        cold = run_lint([FIXTURES], ("deep",), deep_config=cfg, cache_dir=cache_dir)
        warm = run_lint([FIXTURES], ("deep",), deep_config=cfg, cache_dir=cache_dir)
        assert cold.violations == warm.violations
        assert warm.stats["cache_hits"] == warm.stats["modules"]
        assert cold.violations  # the fixture tree is not silently empty


class TestWholeTreeAnalysis:
    def test_package_summarizes_completely(self):
        mods = load_modules([PACKAGE])
        assert mods.unparsed == []
        assert len(mods.modules) > 40

    def test_package_callgraph_has_cross_module_edges(self):
        mods = load_modules([PACKAGE])
        graph = build_callgraph(mods.modules)
        # serve/scheduler.py calls into campaign/pool.py (WorkerPool)
        sched_edges = set()
        for node, targets in graph.edges.items():
            if node.startswith("serve/scheduler.py::"):
                sched_edges |= targets
        assert any(t.startswith("campaign/pool.py::") for t in sched_edges)
