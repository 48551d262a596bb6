"""Flat views are derived state: a pickled batched engine resumes bit-identically.

``BatchState`` indexes its arrays through 1-d views of the same memory.
Pickling an array and a view of it yields two unrelated arrays, so the
views must be rebuilt on restore, never restored: a stale view makes the
kernels read and write arrays nobody else sees, and the run wedges on
its watchdog.  A checkpoint is a pickle of the whole ``CoSimulator``.
"""

import gzip
import os
import pickle
import random
from pathlib import Path

import numpy as np

from repro.core.config import TargetConfig, build_cosim
from repro.engine.layout import _DERIVED
from repro.engine.network import SimdBatch
from repro.noc import Mesh, NocConfig, Packet
from repro.resilience import load_checkpoint, save_checkpoint
from repro.resilience.checkpoint import CHECKPOINT_VERSION

from .test_engine_differential import held_from_wormhole_state

#: ``save_checkpoint`` of :data:`CONFIG` at cycle 400, written by the commit
#: before the kernels became table-driven (``batched-simd-2``, d2897bb): three
#: sources are mid-packet, on VCs 0, 0 and 2.  Delete it, and the test that
#: reads it, with the next ``CHECKPOINT_VERSION`` bump.
PARENT_SNAPSHOT = Path(__file__).parent / "fixtures" / "checkpoint_v4_batched_simd_2.ckpt.gz"

CONFIG = TargetConfig(width=4, height=4, app="water", seed=5, scale=0.2,
                      network_model="simd", quantum=4)


def _outcome(result):
    return (
        result.completed,
        result.finish_cycle,
        result.messages_sent,
        result.deliveries,
        sum(result.applied_latencies.get(-1, [])),
    )


def _drive(batch, seed, cycles):
    """Inject seeded traffic into every lane for ``cycles``, then drain."""
    rng = random.Random(seed)
    nodes = batch.topo.num_nodes
    for _ in range(cycles):
        for lane in range(batch.lanes):
            for _ in range(rng.randrange(3)):
                src, dst = rng.randrange(nodes), rng.randrange(nodes)
                if src != dst:
                    batch.lane(lane).inject(
                        Packet(src=src, dst=dst, size_flits=rng.choice((1, 3, 5)),
                               msg_class=0),
                        batch.cycle,
                    )
        batch.step()
    while batch.in_flight:
        batch.step()
    return [
        [(p.src, p.dst, p.inject_cycle, p.eject_cycle, p.hops)
         for p in batch.lane(lane).pop_delivered()]
        for lane in range(batch.lanes)
    ]


def _state_of(cosim):
    return cosim.network.network.batch.state


def _assert_held_is_derivable(state):
    assert (state.held >= 0).any(), "nothing in flight: the check would be vacuous"
    assert np.array_equal(state.held, held_from_wormhole_state(state))


def test_views_alias_their_arrays_after_a_round_trip():
    batch = SimdBatch(Mesh(3, 3), NocConfig(), lanes=2)
    batch.lane(1).inject(Packet(src=0, dst=8, size_flits=3, msg_class=0), 0)
    for _ in range(5):
        batch.step()
    state = batch.state
    # derived state only: the pickled dict is the dataclass's init fields,
    # so no table, view or ``held`` ever reaches a checkpoint
    assert not set(_DERIVED) & set(state.__getstate__())
    assert {"held", "nbr_cell", "cell_pc", "xy_route", "rank_code"} <= set(_DERIVED)
    copy = pickle.loads(pickle.dumps(batch)).state
    for name in _DERIVED:
        assert np.array_equal(getattr(copy, name), getattr(state, name)), name
        if name.endswith(("_f", "_pv")):
            base = name[: name.rindex("_")]
            assert np.shares_memory(getattr(copy, name), getattr(copy, base)), name


def test_cosim_pickled_mid_run_finishes_like_the_original():
    straight = _outcome(build_cosim(CONFIG).run())
    cosim = build_cosim(CONFIG)
    assert cosim.engine_decision.is_batched
    partial = cosim.run(max_cycles=400)
    assert not partial.completed
    clone = pickle.loads(pickle.dumps(cosim))
    _assert_held_is_derivable(_state_of(cosim))
    _assert_held_is_derivable(_state_of(clone))
    assert _outcome(cosim.run()) == straight
    assert _outcome(clone.run()) == straight


def test_two_lane_batch_pickled_mid_run_delivers_the_same_packets():
    batch = SimdBatch(Mesh(4, 4), NocConfig(), lanes=2)
    rng_seed = 11
    for lane in range(2):
        batch.lane(lane).inject(Packet(src=lane, dst=15 - lane, size_flits=5,
                                       msg_class=0), 0)
    for _ in range(7):  # flits buffered mid-network, credits in flight
        batch.step()
    clone = pickle.loads(pickle.dumps(batch))
    assert clone.cycle == batch.cycle
    assert _drive(clone, rng_seed, 60) == _drive(batch, rng_seed, 60)
    assert clone.kernel_launches == batch.kernel_launches


def test_save_and_load_checkpoint_on_the_batched_engine(tmp_path):
    straight = _outcome(build_cosim(CONFIG).run())
    cosim = build_cosim(CONFIG)
    cosim.run(max_cycles=400)
    path = str(tmp_path / "batched.ckpt")
    save_checkpoint(cosim, path, config_token="simd-4x4")
    restored = load_checkpoint(path, expect_config="simd-4x4")
    assert restored.engine_decision.is_batched
    _assert_held_is_derivable(_state_of(restored))
    assert _outcome(restored.run()) == straight


def test_a_snapshot_written_by_the_parent_commit_loads_and_finishes_identically(tmp_path):
    """The tables, ``held`` and the sources' cached cells are all derived:
    a v4 checkpoint from ``batched-simd-2`` is still a v4 checkpoint."""
    assert CHECKPOINT_VERSION == 4, "a version bump retires this fixture"
    straight = _outcome(build_cosim(CONFIG).run())
    path = tmp_path / "parent.ckpt"
    path.write_bytes(gzip.decompress(PARENT_SNAPSHOT.read_bytes()))
    restored = load_checkpoint(str(path), expect_config="simd-4x4")
    view = restored.network.network
    state = view.batch.state
    _assert_held_is_derivable(state)
    # the parent pickled each source's VC; it comes back as the flat cell
    local_vcs = {
        rid: (source.cell // state.V % state.P, source.cell % state.V)
        for rid, source in enumerate(view._sources) if source.flits_left
    }
    assert local_vcs == {0: (0, 0), 4: (0, 0), 15: (0, 2)}
    assert all(source.cell // (state.P * state.V) == rid
               for rid, source in enumerate(view._sources) if source.flits_left)
    assert _outcome(restored.run()) == straight


def test_checkpoints_grow_with_packets_in_flight_not_with_history(tmp_path):
    """The packet table releases a packet when it is ejected.  Before, a
    checkpoint at cycle 4000 was 6.2x the one at cycle 400 (every
    ``Packet`` and its ``Message`` ever delivered rode along); what still
    grows is the system's own state, the latency sample lists and 12 bytes
    of integer tables per packet."""
    cosim = build_cosim(CONFIG)
    sizes = []
    for cycle in (400, 4000):
        assert not cosim.run(max_cycles=cycle).completed
        path = str(tmp_path / f"at{cycle}.ckpt")
        save_checkpoint(cosim, path)
        sizes.append(os.path.getsize(path))
        view = cosim.network.network
        live = [p for p in _state_of(cosim).pkt_objects if p is not None]
        assert all(p.eject_cycle is None for p in live)
        assert 0 < len(live) <= view.stats.in_flight_packets
    assert sizes[1] < 3 * sizes[0], sizes
