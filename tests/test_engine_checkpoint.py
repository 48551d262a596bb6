"""Flat views are derived state: a pickled batched engine resumes bit-identically.

``BatchState`` indexes its arrays through 1-d views of the same memory.
Pickling an array and a view of it yields two unrelated arrays, so the
views must be rebuilt on restore, never restored: a stale view makes the
kernels read and write arrays nobody else sees, and the run wedges on
its watchdog.  A checkpoint is a pickle of the whole ``CoSimulator``.
"""

import pickle
import random

import numpy as np

from repro.core.config import TargetConfig, build_cosim
from repro.engine.layout import _DERIVED
from repro.engine.network import SimdBatch
from repro.noc import Mesh, NocConfig, Packet
from repro.resilience import load_checkpoint, save_checkpoint

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


def test_views_alias_their_arrays_after_a_round_trip():
    batch = SimdBatch(Mesh(3, 3), NocConfig(), lanes=2)
    batch.lane(1).inject(Packet(src=0, dst=8, size_flits=3, msg_class=0), 0)
    for _ in range(5):
        batch.step()
    state = batch.state
    assert not set(_DERIVED) & set(state.__getstate__())
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
    assert _outcome(restored.run()) == straight
