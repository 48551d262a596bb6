"""Identities of the verifier's certificates: every verdict byte for byte.

Making ``build_cdg`` cheaper must not move one edge, one witness or one
line of a rendered counterexample.  Two pins, both compared exactly
against digests recorded from the commit *before* ``build_cdg`` was
rewritten (``fixtures/cdg_digests.json``):

(a) a grid of ``build_cdg`` results and ``check_network`` reports — mesh,
    torus and concentrated mesh from 2x2 to 8x8, every shipped routing
    plus the fully-adaptive fixture, 1 / 2 / 4 VCs, ``any_free`` and
    ``class_partition`` — plus the paper-scale 16x16 and 32x16 meshes and
    a ``resilience.degrade`` view with failed links and a failed router,
    in both its masked and tree-only modes.  A ``CdgResult`` is digested
    canonically: sorted edges, sorted witnesses, findings in order;
(b) the stdout and exit status of ``python -m repro verify`` (text and
    ``--format json``) and of ``--self-test`` (text and JSON).

Making ``check_protocol`` cheaper must not move one state of a trace
either.  A third pin, recorded from the commit *before* its explorer was
rewritten (``fixtures/protocol_digests.json``):

(c) the rendered text and the JSON dictionary of ``check_protocol``
    reports — the shipped tables at two and three cachers, four broken
    tables (a missing cache, directory or memory row, and an emission
    outside its row), a truncated exploration and a finding cap.

Re-record only from a commit whose outputs are known good (name one
fixture, ``cdg`` or ``protocol``, to record only that one)::

    PYTHONPATH=src python -m tests.test_verify_identity --record [cdg|protocol]
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from repro.fullsys.coherence import (
    DIRECTORY_TABLE,
    IDLE,
    MEMORY_READY,
    MEMORY_TABLE,
    MessageKind,
    TransitionSpec,
)
from repro.noc.config import NocConfig
from repro.noc.routing import make_routing
from repro.noc.topology import ConcentratedMesh, Mesh, Torus
from repro.resilience import (
    DegradedRouting,
    FaultConfig,
    FaultState,
    compile_schedule,
    verify_degraded,
)
from repro.resilience.degrade import _AliveView
from repro.verify import FullyAdaptiveMinimalRouting, broken_cache_table
from repro.verify.cdg import build_cdg, check_network
from repro.verify.cli import main as verify_main
from repro.verify.protocol import check_protocol

DIGESTS = Path(__file__).parent / "fixtures" / "cdg_digests.json"
PROTOCOL_DIGESTS = Path(__file__).parent / "fixtures" / "protocol_digests.json"

TOPOLOGIES = {"mesh": Mesh, "torus": Torus, "cmesh": ConcentratedMesh}
DIMS = ((2, 2), (3, 3), (4, 2), (5, 5), (8, 8))
ROUTINGS = ("xy", "yx", "west-first", "odd-even", "fully-adaptive")
NUM_VCS = (1, 2, 4)
VC_SELECTS = ("any_free", "class_partition")

GRID = [
    (kind, width, height, routing, num_vcs, vc_select)
    for kind in TOPOLOGIES
    for width, height in DIMS
    for routing in ROUTINGS
    for num_vcs in NUM_VCS
    for vc_select in VC_SELECTS
] + [
    ("mesh", 16, 16, "xy", 4, "any_free"),
    ("mesh", 32, 16, "xy", 4, "any_free"),
]
DEGRADED = ("masked", "tree-only")
CLI_RUNS = {
    "verify-text": [],
    "verify-json": ["--format", "json"],
    "self-test-text": ["--self-test"],
    "self-test-json": ["--self-test", "--format", "json"],
}


def _without(table, row):
    table = dict(table)
    del table[row]
    return table


def _getx_without_inv():
    """``(idle, GetX)`` no longer lists the ``Inv`` its handler sends."""
    row = DIRECTORY_TABLE[(IDLE, MessageKind.GETX)]
    table = dict(DIRECTORY_TABLE)
    table[(IDLE, MessageKind.GETX)] = TransitionSpec(
        emits=row.emits - {MessageKind.INV}, next_states=row.next_states
    )
    return table


PROTOCOL_CASES = {
    "shipped-2": dict(num_cores=2),
    "shipped-3": dict(num_cores=3),
    "broken-cache": dict(cache_table=broken_cache_table()),
    "directory-without-idle-putm": dict(
        directory_table=_without(DIRECTORY_TABLE, (IDLE, MessageKind.PUTM))
    ),
    "idle-getx-without-inv": dict(directory_table=_getx_without_inv()),
    "memory-without-memwb": dict(
        memory_table=_without(MEMORY_TABLE, (MEMORY_READY, MessageKind.MEM_WB))
    ),
    "truncated-500": dict(max_states=500),
    "broken-cache-and-directory-one-finding": dict(
        cache_table=broken_cache_table(),
        directory_table=_without(DIRECTORY_TABLE, (IDLE, MessageKind.PUTM)),
        max_findings=1,
    ),
}


def _case_id(case) -> str:
    kind, width, height, routing, num_vcs, vc_select = case
    return f"{kind}-{width}x{height}-{routing}-vc{num_vcs}-{vc_select}"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canonical(result) -> str:
    """A ``CdgResult`` as text that does not depend on insertion order."""
    return json.dumps({
        "edges": [[list(node), sorted(succ)] for node, succ in sorted(result.edges.items())],
        "witnesses": sorted(
            [list(c1), list(c2), list(witness)]
            for (c1, c2), witness in result.witnesses.items()
        ),
        "findings": [[f.check, f.summary, f.details] for f in result.findings],
    })


def _routing(name: str):
    if name == "fully-adaptive":
        return FullyAdaptiveMinimalRouting()
    return make_routing(name)


def grid_digests(case) -> dict:
    kind, width, height, routing, num_vcs, vc_select = case
    topo = TOPOLOGIES[kind](width, height)
    noc = NocConfig(num_vcs=num_vcs, vc_select=vc_select)
    result = build_cdg(topo, _routing(routing), num_vcs, vc_select)
    report = check_network(topo, _routing(routing), noc)
    return {"cdg": _sha(canonical(result)), "render": _sha(report.render())}


def degraded_digests(mode: str) -> dict:
    """A 6x6 XY mesh after three link failures and one router failure."""
    topo = Mesh(6, 6)
    noc = NocConfig()
    schedule = compile_schedule(
        FaultConfig(seed=5, link_failures=3, router_failures=1), topo
    )
    state = FaultState(schedule, topo)
    routing = DegradedRouting(make_routing("xy"), state, topo, noc, verify=False)
    state.attach_routing(routing)
    state.on_cycle(None, schedule.config.window)  # every event applied, tree rebuilt
    routing.tree_only = mode == "tree-only"
    result = build_cdg(topo, _AliveView(routing), noc.num_vcs, noc.vc_select)
    return {
        "cdg": _sha(canonical(result)),
        "render": _sha(verify_degraded(routing).render()),
    }


def cli_digest(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = verify_main(list(argv))
    return {"status": status, "stdout": _sha(out.getvalue())}


def protocol_digests(name: str) -> dict:
    report = check_protocol(**PROTOCOL_CASES[name])
    return {
        "render": _sha(report.render()),
        "dict": _sha(json.dumps(report.to_dict(), sort_keys=True)),
    }


def record() -> dict:
    digests = {_case_id(case): grid_digests(case) for case in GRID}
    digests.update({f"degrade-{mode}": degraded_digests(mode) for mode in DEGRADED})
    digests.update({f"cli-{name}": cli_digest(argv) for name, argv in CLI_RUNS.items()})
    return digests


def record_protocol() -> dict:
    return {name: protocol_digests(name) for name in PROTOCOL_CASES}


#: fixture name -> (file, recorder)
FIXTURES = {"cdg": (DIGESTS, record), "protocol": (PROTOCOL_DIGESTS, record_protocol)}


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(DIGESTS.read_text())


@pytest.fixture(scope="module")
def recorded_protocol() -> dict:
    return json.loads(PROTOCOL_DIGESTS.read_text())


def test_fixture_covers_the_grid(recorded):
    expected = [_case_id(case) for case in GRID]
    expected += [f"degrade-{mode}" for mode in DEGRADED]
    expected += [f"cli-{name}" for name in CLI_RUNS]
    assert sorted(recorded) == sorted(expected)


@pytest.mark.parametrize("case", GRID, ids=_case_id)
def test_cdg_and_report_match_parent_commit(case, recorded):
    assert grid_digests(case) == recorded[_case_id(case)]


@pytest.mark.parametrize("mode", DEGRADED)
def test_degraded_view_matches_parent_commit(mode, recorded):
    assert degraded_digests(mode) == recorded[f"degrade-{mode}"]


@pytest.mark.parametrize("name", CLI_RUNS)
def test_cli_output_matches_parent_commit(name, recorded):
    assert cli_digest(CLI_RUNS[name]) == recorded[f"cli-{name}"]


def test_protocol_fixture_covers_the_cases(recorded_protocol):
    assert sorted(recorded_protocol) == sorted(PROTOCOL_CASES)


@pytest.mark.parametrize("name", PROTOCOL_CASES)
def test_protocol_report_matches_parent_commit(name, recorded_protocol):
    assert protocol_digests(name) == recorded_protocol[name]


if __name__ == "__main__":  # pragma: no cover - fixture maintenance
    names = sys.argv[2:] or list(FIXTURES)
    if sys.argv[1:2] != ["--record"] or not set(names) <= set(FIXTURES):
        raise SystemExit(__doc__)
    for name in names:
        path, recorder = FIXTURES[name]
        digests = recorder()
        path.write_text(
            "{\n" + ",\n".join(
                f"{json.dumps(key)}: {json.dumps(value, sort_keys=True)}"
                for key, value in digests.items()
            ) + "\n}\n"
        )
        print(f"recorded {len(digests)} digests to {path}")
