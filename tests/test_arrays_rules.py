"""SIM3xx rule precision: mirrored fixtures, contracts, pragma scoping."""

from pathlib import Path

import pytest

import repro
from repro.analysis.arrays import ARRAY_RULES, ArraysConfig, build_registry
from repro.analysis.arrays.contracts import harvest_module
from repro.analysis.arrays.engine import kernels_lint_paths

FIXTURES = Path(__file__).parent / "fixtures" / "arrays"
PACKAGE = Path(repro.__file__).resolve().parent

#: scope every rule onto the flat fixture directory
OPEN_CONFIG = ArraysConfig(kernel_paths=("*",), lane_loop_paths=("*",))


def _lint(path, config=OPEN_CONFIG, cache_dir=None):
    report = kernels_lint_paths([path], config, cache_dir=cache_dir)
    return report.violations


class TestMirroredFixtures:
    @pytest.mark.parametrize(
        "rule, count",
        [
            ("lane-isolation", 4),
            ("dtype-narrowing", 2),
            ("index-aliasing", 3),
            ("lane-loop", 3),
            ("shape-contract", 5),
        ],
    )
    def test_positive_fixture_fires(self, rule, count, tmp_path):
        code = ARRAY_RULES[rule][0].lower()
        violations = _lint(FIXTURES / f"{code}_pos.py", cache_dir=tmp_path)
        assert [v.rule for v in violations] == [rule] * count

    @pytest.mark.parametrize("rule", sorted(ARRAY_RULES))
    def test_negative_fixture_is_clean(self, rule, tmp_path):
        code = ARRAY_RULES[rule][0].lower()
        violations = _lint(FIXTURES / f"{code}_neg.py", cache_dir=tmp_path)
        assert violations == []

    def test_every_rule_has_both_fixtures(self):
        for code, _ in ARRAY_RULES.values():
            assert (FIXTURES / f"{code.lower()}_pos.py").is_file()
            assert (FIXTURES / f"{code.lower()}_neg.py").is_file()

    def test_pragma_suppresses_on_the_flagged_line(self, tmp_path):
        # sim301_neg.excused keys a bincount on a router index, which the
        # rule would flag; the allow[lane-isolation] pragma silences it.
        src = (FIXTURES / "sim301_neg.py").read_text()
        stripped = src.replace("  # simlint: allow[lane-isolation]", "")
        bad = tmp_path / "sim301_neg.py"
        bad.write_text(stripped)
        violations = _lint(bad, cache_dir=tmp_path / "cache")
        assert [v.rule for v in violations] == ["lane-isolation"]

    def test_interprocedural_lane_loop_names_the_helper(self, tmp_path):
        violations = _lint(FIXTURES / "sim304_pos.py", cache_dir=tmp_path)
        # the third finding sits inside the unannotated helper, reached
        # only because driver() hands it a contract-typed state
        lines = sorted(v.line for v in violations)
        src = (FIXTURES / "sim304_pos.py").read_text().splitlines()
        assert any("helper" in src[line - 2] for line in lines)


class TestIndexTables:
    """Declared geometry tables: ``st.<table>[flat]`` is a flat index of the
    family the table's ``values`` names."""

    def test_misused_tables_fire(self, tmp_path):
        violations = _lint(FIXTURES / "tables_pos.py", cache_dir=tmp_path)
        src = (FIXTURES / "tables_pos.py").read_text().splitlines()
        found = sorted((src[v.line - 1].split("# ")[1].split(":")[0], v.rule)
                       for v in violations)
        assert found == [
            ("SIM301", "lane-isolation"),
            ("SIM303", "index-aliasing"),
            ("SIM305", "shape-contract"),
            ("SIM305", "shape-contract"),
            ("SIM305", "shape-contract"),
        ]

    def test_undeclared_field_names_the_field(self, tmp_path):
        violations = _lint(FIXTURES / "tables_pos.py", cache_dir=tmp_path)
        (undeclared,) = [v for v in violations if "undeclared-field" in v.context]
        assert "'cell_twin'" in undeclared.message
        report = kernels_lint_paths([FIXTURES / "tables_pos.py"], OPEN_CONFIG,
                                    cache_dir=tmp_path)
        assert report.stats["undeclared_fields"] == 1
        assert report.stats["derived_tables"] == 3

    def test_tables_used_in_their_family_are_clean(self, tmp_path):
        assert _lint(FIXTURES / "tables_neg.py", cache_dir=tmp_path) == []

    def test_contract_carries_stride_injective_and_params(self):
        registry = build_registry([(FIXTURES / "tables_neg.py", "tables_neg.py")])
        contract = registry.contracts["State"]
        slot0 = contract.fields["cell_slot0"]
        assert (slot0.stride, slot0.injective, slot0.derived) == (("B",), True, True)
        assert contract.is_index_table(slot0)
        assert not contract.is_index_table(contract.fields["head_f"])  # a named domain
        assert not contract.fields["cell_lr"].injective
        assert contract.params == {"occ": "L*R*V"}
        edited = (FIXTURES / "tables_neg.py").read_text().replace(
            '"stride": "B", "injective": True', '"stride": "B"')
        other, _ = harvest_module(edited)
        assert other["State"] != contract


class TestContracts:
    def test_registry_harvests_fixture_contract(self):
        registry = build_registry(
            [(FIXTURES / "sim301_pos.py", "sim301_pos.py")]
        )
        contract = registry.contracts["State"]
        assert contract.dims == ("L", "R", "V")
        assert contract.lane_axis == "L"
        assert contract.fields["count"].rank == 3

    def test_registry_harvests_bound_constants(self):
        registry = build_registry(
            [(FIXTURES / "sim302_neg.py", "sim302_neg.py")]
        )
        assert "OWNER_DT" in registry.dtype_bounds

    def test_unannotated_constant_is_not_a_bound(self):
        registry = build_registry(
            [(FIXTURES / "sim302_pos.py", "sim302_pos.py")]
        )
        assert "UNBOUNDED_DT" not in registry.dtype_bounds

    def test_fingerprint_tracks_contract_changes(self):
        src = (FIXTURES / "sim301_pos.py").read_text()
        a_contracts, a_bounds = harvest_module(src)
        b_contracts, b_bounds = harvest_module(
            src.replace('"lane_axis": "L"', '"lane_axis": None')
        )
        assert a_contracts != b_contracts

    def test_in_tree_layouts_declare_contracts(self):
        # the real engine layout module is the production source of
        # truth: the one contract and the dtype bounds must harvest
        files = [(PACKAGE / "engine" / "layout.py", "engine/layout.py")]
        registry = build_registry(files)
        assert list(registry.contracts) == ["BatchState"]
        assert registry.contracts["BatchState"].lane_axis == "L"
        for name in ("PORT_DTYPE", "VC_DTYPE", "OWNER_DTYPE", "PTR_DTYPE"):
            assert name in registry.dtype_bounds


class TestTreeWide:
    def test_kernel_pass_is_clean_on_the_package(self, tmp_path):
        report = kernels_lint_paths([PACKAGE], cache_dir=tmp_path)
        assert report.violations == []
        assert report.stats["kernel_modules"] >= 6
        assert report.stats["contracts"] == 1

    def test_cache_round_trip(self, tmp_path):
        first = kernels_lint_paths(
            [FIXTURES], config=OPEN_CONFIG, cache_dir=tmp_path
        )
        assert first.stats["kernel_cache_hits"] == 0
        second = kernels_lint_paths(
            [FIXTURES], config=OPEN_CONFIG, cache_dir=tmp_path
        )
        assert second.stats["kernel_cache_misses"] == 0
        assert len(second.violations) == len(first.violations)
        assert (tmp_path / "arrays.json").is_file()
