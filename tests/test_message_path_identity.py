"""Identities of the protocol-message path (send -> model -> event -> handler).

The path is pure glue between simulators, so making it cheaper must not
move one output byte.  Four pins:

(a) a seeded grid of whole co-simulations compared exactly against
    signatures recorded from the commit *before* the path was flattened
    (``fixtures/message_path_signatures.json``);
(b) the per-topology geometry tables against the checked geometry
    functions, including that invalid nodes still raise;
(c) the bisect Zipf sampler against ``np.searchsorted``;
(d) the argument-carrying ``EventQueue`` against its old contract.

Re-record (a) only from a commit whose outputs are known good::

    PYTHONPATH=src python -m tests.test_message_path_identity --record
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import TargetConfig, build_cosim
from repro.errors import SimulationError, TopologyError
from repro.fullsys.events import EventQueue
from repro.noc import ConcentratedMesh, Mesh, Torus

SIGNATURES = Path(__file__).parent / "fixtures" / "message_path_signatures.json"

MODELS = ("fixed", "table", "table-shadow", "queueing", "cycle", "simd")
MESHES = ((4, 4), (5, 3))
APPS = ("fft", "water")
QUANTA = (1, 4)
GRID = [
    (model, width, height, app, quantum)
    for model in MODELS
    for width, height in MESHES
    for app in APPS
    for quantum in QUANTA
]


def _case_id(case) -> str:
    model, width, height, app, quantum = case
    return f"{model}-{width}x{height}-{app}-q{quantum}"


def _digest(values) -> str:
    text = json.dumps(values, sort_keys=True)
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:16]


def signature(case) -> dict:
    """Everything one run produces except wall times; the bulky fields as
    digests (floats by ``repr``), so a mismatch still names its field."""
    model, width, height, app, quantum = case
    config = TargetConfig(
        width=width, height=height, app=app, scale=0.025, network_model=model,
        quantum=quantum, seed=1000 + GRID.index(case),
    )
    cosim = build_cosim(config)
    result = cosim.run()
    description = dict(result.network_description)
    # engine provenance names the kernel version, which may move without
    # any metric moving; everything else describes the model's end state
    description.pop("engine", None)
    return {
        "finish_cycle": result.finish_cycle,
        "cycles": result.cycles,
        "windows": result.windows,
        "messages_sent": result.messages_sent,
        "deliveries": result.deliveries,
        "clamped_deliveries": result.clamped_deliveries,
        "applied_latencies": {
            str(cls): [len(lats), _digest(lats)]
            for cls, lats in sorted(result.applied_latencies.items())
        },
        "system_summary": _digest(
            {k: repr(v) for k, v in result.system_summary.items()}
        ),
        "network_description": _digest(description),
        "feedback_snapshot": _digest([
            [distance, cls, repr(value)]
            for (distance, cls), value in sorted(result.feedback_snapshot.items())
        ]),
        "events_processed": cosim.system.events.events_processed,
    }


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(SIGNATURES.read_text())


class TestRecordedGrid:
    def test_fixture_covers_the_grid(self, recorded):
        assert sorted(recorded) == sorted(_case_id(case) for case in GRID)

    @pytest.mark.parametrize("case", GRID, ids=_case_id)
    def test_signature_matches_parent_commit(self, case, recorded):
        assert signature(case) == recorded[_case_id(case)]


TOPOLOGIES = [Mesh(5, 3), Torus(4, 4), ConcentratedMesh(3, 2, concentration=2)]


class TestGeometryTables:
    @pytest.mark.parametrize("topo", TOPOLOGIES, ids=repr)
    def test_tables_equal_the_checked_functions_for_every_pair(self, topo):
        nodes = range(topo.num_nodes)
        for src in nodes:
            assert topo.node_router(src) == src // topo.concentration
            for dst in nodes:
                expected = topo.hop_distance(topo.node_router(src), topo.node_router(dst))
                assert topo.node_distance(src, dst) == expected
        for router in topo.routers():
            assert topo.coords(router) == (router % topo.width, router // topo.width)

    @pytest.mark.parametrize("topo", [Mesh(5, 3), ConcentratedMesh(3, 2, 2)], ids=repr)
    def test_mesh_hops_are_manhattan(self, topo):
        for src in range(topo.num_nodes):
            sx, sy = topo.coords(src // topo.concentration)
            for dst in range(topo.num_nodes):
                dx, dy = topo.coords(dst // topo.concentration)
                assert topo.node_distance(src, dst) == abs(sx - dx) + abs(sy - dy)

    @pytest.mark.parametrize("make", [
        lambda: Mesh(5, 3), lambda: Torus(4, 4), lambda: ConcentratedMesh(3, 2, 2),
    ])
    def test_invalid_nodes_raise_cold_and_warm(self, make):
        topo = make()  # fresh: no hop row filled yet
        n = topo.num_nodes
        for warm in (False, True):
            for bad in (-1, n, n + 7):
                with pytest.raises(TopologyError):
                    topo.node_router(bad)
                with pytest.raises(TopologyError):
                    topo.node_distance(bad, 0)
                with pytest.raises(TopologyError):
                    topo.node_distance(0, bad)
            for bad in (-1, topo.num_routers, topo.num_routers + 7):
                with pytest.raises(TopologyError):
                    topo.coords(bad)
            if not warm:  # fill every row, then ask again
                for src in range(n):
                    topo.node_distance(src, n - 1)

    def test_hop_rows_are_one_byte_per_router_pair(self):
        topo = Mesh(8, 8)
        topo.node_distance(0, 63)
        filled = [row for row in topo._hop_rows if row is not None]
        assert len(filled) == 1 and filled[0].itemsize == 1 and len(filled[0]) == 64
        # a grid too wide for one byte widens the rows instead of wrapping
        wide = Mesh(300, 1)
        assert wide.node_distance(0, 299) == 299


class TestBisectSampler:
    @pytest.mark.parametrize("n,s", [(96, 0.9), (1024, 0.5), (1, 1.0), (4096, 0.2)])
    def test_equals_searchsorted(self, n, s):
        from bisect import bisect_left

        from repro.workloads.apps import zipf_cdf

        cdf = zipf_cdf(n, s)
        reference = np.cumsum(np.arange(1, n + 1, dtype=float) ** -s)
        reference /= reference[-1]
        assert cdf == tuple(reference.tolist())
        draws = np.random.Generator(np.random.PCG64(n)).random(10_000).tolist()
        edges = [0.0, cdf[0], cdf[-1], *cdf[:: max(1, n // 50)]]
        for u in draws + edges:
            assert bisect_left(cdf, u) == int(np.searchsorted(reference, u))

    def test_table_is_shared_across_cores_and_phases(self):
        from repro.workloads.apps import make_programs, zipf_cdf

        programs = make_programs("fft", 4, seed=3)
        tables = {id(c) for p in programs for consts in p._phase_consts
                  for c in consts if isinstance(c, tuple)}
        # fft: (96, .9) (256, .9) (48, .5) (1024, .5) -- four tables, not 4 x 6
        assert len(tables) == 4
        assert zipf_cdf(96, 0.9) is zipf_cdf(96, 0.9)


class TestEventQueueContract:
    def test_ties_fire_in_scheduling_order_with_their_arguments(self):
        queue, log = EventQueue(), []
        for tag in "abc":
            queue.schedule(7, log.append, tag)
        queue.schedule(3, log.extend, ("x", "y"))
        queue.schedule_in(7, log.append, "d")
        queue.run_until(7)
        assert log == ["x", "y", "a", "b", "c", "d"]
        assert queue.events_processed == 5

    def test_past_times_rejected(self):
        queue = EventQueue()
        queue.run_until(10)
        with pytest.raises(SimulationError):
            queue.schedule(9, print)
        with pytest.raises(SimulationError):
            queue.run_until(9)

    @pytest.mark.parametrize("drive", ["run_until", "run_all"])
    def test_raising_callback_is_not_counted(self, drive):
        queue, log = EventQueue(), []
        queue.schedule(1, log.append, 1)
        queue.schedule(2, [].pop)  # raises IndexError
        queue.schedule(3, log.append, 3)
        with pytest.raises(IndexError):
            queue.run_until(5) if drive == "run_until" else queue.run_all()
        # as before the rewrite: the failed event is consumed but not
        # counted, the clock stands at its timestamp, later events remain
        assert (queue.events_processed, queue.now, queue.pending) == (1, 2, 1)
        queue.run_all()
        assert log == [1, 3] and queue.events_processed == 2

    def test_pending_events_pickle(self):
        import pickle

        queue, log = EventQueue(), []
        queue.schedule(4, log.append, "late")
        clone = pickle.loads(pickle.dumps(queue))
        clone.run_all()
        assert clone.events_processed == 1 and clone.now == 4


if __name__ == "__main__":  # pragma: no cover - fixture maintenance
    if sys.argv[1:] != ["--record"]:
        raise SystemExit(__doc__)
    SIGNATURES.write_text(
        "{\n" + ",\n".join(
            f"{json.dumps(_case_id(case))}: {json.dumps(signature(case), sort_keys=True)}"
            for case in GRID
        ) + "\n}\n"
    )
    print(f"recorded {len(GRID)} signatures to {SIGNATURES}")
