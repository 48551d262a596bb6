"""Seeded-mutation proof: each SIM3xx rule catches its injected kernel bug.

Each case copies the real lane-batched kernel modules into a temp tree,
applies one surgical mutation that reintroduces a class of bug the pass
exists to catch, and asserts the analyzer reports exactly that rule.
The unmutated copy must stay clean, so the signal is the mutation alone.
"""

import shutil
from pathlib import Path

import pytest

import repro
from repro.analysis import run_lint

PACKAGE = Path(repro.__file__).resolve().parent

#: modules the temp tree needs: the contract + the kernels under test
TREE = ("engine/layout.py", "engine/kernels.py")

#: name -> (rule, old substring, new substring) applied to engine/kernels.py
MUTATIONS = {
    "lane-fold-dropped": (
        "lane-isolation",
        # reduce the VC-allocation bucket key modulo one lane's cells, so
        # grants from different lanes collide in lane 0's buckets
        "np.minimum.at(best, target, rank)",
        "np.minimum.at(best, target % (st.R * st.P * st.V), rank)",
    ),
    "owner-cast-deannotated": (
        "dtype-narrowing",
        # replace the bound-annotated owner dtype with a bare int16
        "in_code.astype(OWNER_DTYPE)",
        "in_code.astype(np.int16)",
    ),
    "scatter-min-to-rmw": (
        "index-aliasing",
        # rewrite the unbuffered scatter-min as a gather/scatter RMW,
        # which loses all but one update per duplicated bucket
        "np.minimum.at(best, target, rank)",
        "best[target] = np.minimum(best[target], rank)",
    ),
    "lane-loop": (
        "lane-loop",
        # serialize the lane axis with a python-level loop
        "    best = st.arb_cell\n",
        "    best = st.arb_cell\n"
        "    for _lane in range(st.L):\n"
        "        pass\n",
    ),
    "flat-view-indexed-2d": (
        "shape-contract",
        # index the 1-d buffer view as if it still had a slot axis
        "pkt = st.buf_pkt_f[st.cell_slot0[cell] + st.head_f[cell]]",
        "pkt = st.buf_pkt_f[cell, st.head_f[cell]]",
    ),
    "wrong-flat-family": (
        "shape-contract",
        # forget that the pointer views are per port, not per VC
        "st.sa_in_ptr_f[in_pc] = st.cell_next_v[cell]",
        "st.sa_in_ptr_f[cell] = st.cell_next_v[cell]",
    ),
    "wrong-table": (
        "shape-contract",
        # reach the per-port pointer view through the cell -> v*V table
        # instead of cell -> port cell: a family the view is not laid out in
        "st.sa_in_ptr_f[in_pc] = st.cell_next_v[cell]",
        "st.sa_in_ptr_f[st.cell_vV[cell]] = st.cell_next_v[cell]",
    ),
}


def _build_tree(tmp_path, mutation=None):
    root = tmp_path / "tree"
    for rel in TREE:
        dst = root / rel
        dst.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(PACKAGE / rel, dst)
    if mutation:
        old, new = mutation
        target = root / "engine" / "kernels.py"
        source = target.read_text()
        assert source.count(old) == 1, f"mutation anchor not unique: {old!r}"
        target.write_text(source.replace(old, new, 1))
    return root


def test_unmutated_kernels_are_clean(tmp_path):
    root = _build_tree(tmp_path)
    report = run_lint([root], ("kernels",), cache_dir=tmp_path / "cache")
    assert report.violations == []


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_mutation_is_caught(name, tmp_path):
    rule, old, new = MUTATIONS[name]
    root = _build_tree(tmp_path, (old, new))
    report = run_lint([root], ("kernels",), cache_dir=tmp_path / "cache")
    assert [v.rule for v in report.violations] == [rule]
    (violation,) = report.violations
    assert violation.path == "engine/kernels.py"
