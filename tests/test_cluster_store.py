"""Unit tests for the result cache's peer-fill miss path and the peer wire format.

``ResultCache(fill=...)`` is exercised over a real SQLite store with a
dict-backed fill callable — no network — so every assertion is about the
miss path itself: local rows short-circuit, genuine misses fill-and-adopt
verbatim, failed fills keep the local "unknown job id" surface, and a
peer answering with the *wrong* job is rejected outright.
"""

import json
import threading
from types import SimpleNamespace

import pytest

from repro.campaign.spec import CampaignSpec
from repro.cluster import PeerResult
from repro.errors import ConfigError
from repro.serve.cache import ResultCache


@pytest.fixture()
def grid():
    return CampaignSpec(experiments=("demo",), quick=True).expand()


@pytest.fixture()
def open_cache(tmp_path):
    """``open_cache(fill)`` -> a cache over ``local.db``, closed at teardown."""
    caches = []

    def build(fill=None):
        caches.append(ResultCache(str(tmp_path / "local.db"), fill=fill))
        return caches[-1]

    yield build
    for cache in caches:
        cache.close()


def _done_result(spec, marker="peer"):
    payload = json.dumps({"from": marker, "spec": spec.job_id})
    return PeerResult(
        spec=spec, payload_text=payload, wall_s=1.25,
        engine="reference", kernel_version="test",
    )


class TestPeerFill:
    def test_local_row_short_circuits_fill(self, open_cache, grid):
        spec = grid[0]

        def exploding_fill(job_id):
            raise AssertionError("fill must not run for a known id")

        cache = open_cache(exploding_fill)
        cache.admit(spec)  # pending row, not done
        assert cache.job_row(spec.job_id).status == "pending"
        text, row = cache.fetch(spec.job_id)
        assert text is None and row.status == "pending"
        assert cache.fill_hits == cache.fill_misses == 0

    def test_miss_fills_and_adopts_verbatim(self, open_cache, grid):
        spec = grid[0]
        result = _done_result(spec)
        asked = []
        cache = open_cache(lambda job_id: asked.append(job_id) or result)
        row = cache.job_row(spec.job_id)
        assert row.status == "done"
        assert row.payload == result.payload_text  # byte-identical adoption
        assert row.engine == "reference"
        assert row.attempts == 0  # adoption is not computation
        assert cache.fill_hits == 1
        # The adopted row is now local: a second lookup is a pure read.
        assert cache.lookup(spec.job_id) == result.payload_text
        assert cache.job_row(spec.job_id).status == "done"
        assert asked == [spec.job_id]

    def test_miss_with_no_peer_reraises_unknown(self, open_cache, grid):
        cache = open_cache(lambda job_id: None)
        with pytest.raises(ConfigError, match="unknown job id"):
            cache._read(grid[0].job_id)
        assert cache.fill_misses == 1
        assert cache.job_row(grid[0].job_id) is None
        assert cache.fetch(grid[0].job_id) == (None, None)

    def test_no_fill_configured_keeps_local_surface(self, open_cache, grid):
        cache = open_cache()
        with pytest.raises(ConfigError, match="unknown job id"):
            cache._read(grid[0].job_id)
        assert cache.job_row(grid[0].job_id) is None

    def test_wrong_job_from_peer_is_rejected(self, open_cache, grid):
        right, wrong = grid[0], grid[1]
        cache = open_cache(lambda job_id: _done_result(wrong))
        with pytest.raises(ConfigError, match="content-identity"):
            cache._read(right.job_id)
        assert cache.lookup(right.job_id) is None
        # Nothing was adopted under either id.
        assert cache.local_row(right.job_id) is None
        assert cache.local_row(wrong.job_id) is None
        assert cache.fill_hits == cache.fill_misses == 0

    def test_local_row_never_fills(self, open_cache, grid):
        def exploding_fill(job_id):
            raise AssertionError("local_row must not ask the ring")

        cache = open_cache(exploding_fill)
        assert cache.local_row(grid[0].job_id) is None

    def test_adoption_is_idempotent_through_the_tier(self, open_cache, grid):
        spec = grid[0]
        result = _done_result(spec)
        cache = open_cache({spec.job_id: result}.get)
        first = cache.job_row(spec.job_id)
        assert cache.adopt(spec, '{"other": "bytes"}', 9.9) is False
        assert cache.job_row(spec.job_id).payload == first.payload


class TestTheProbeHoldsNoLock:
    """A fill waits on the ring with the cache lock released."""

    @pytest.fixture()
    def parked(self, open_cache, grid):
        """A cache whose fill parks until released, and a thread parked in it."""
        probe = SimpleNamespace(
            entered=threading.Event(), release=threading.Event(), answer={},
            fetched=[],
        )

        def parked_fill(job_id):
            probe.entered.set()
            probe.release.wait(10.0)
            return probe.answer.get(job_id)

        probe.cache = cache = open_cache(parked_fill)
        cache.admit(grid[1])  # another id, pending, before the probe starts
        probe.thread = threading.Thread(
            target=lambda: probe.fetched.append(cache.fetch(grid[0].job_id))
        )
        probe.thread.start()
        try:
            assert probe.entered.wait(5.0)
            yield probe
        finally:
            probe.release.set()
            probe.thread.join(10.0)

    def test_other_ids_commit_while_a_probe_waits(self, parked, grid):
        cache, other = parked.cache, grid[1]
        finished = threading.Event()

        def second_thread():
            assert cache.local_row(other.job_id).status == "pending"
            cache.mark_running(other.job_id, "w1")
            cache.commit(other.job_id, {"other": 1}, 0.1)
            finished.set()

        worker = threading.Thread(target=second_thread)
        worker.start()
        try:
            assert finished.wait(5.0), "a parked peer probe held up the cache lock"
        finally:
            parked.release.set()
            worker.join(10.0)
        assert cache.local_row(other.job_id).status == "done"

    def test_a_local_row_that_appeared_meanwhile_wins(self, parked, grid):
        cache, spec = parked.cache, grid[0]
        parked.answer[spec.job_id] = _done_result(spec, marker="late peer")
        cache.admit(spec)
        cache.mark_running(spec.job_id, "w1")
        local = cache.commit(spec.job_id, {"from": "here"}, 0.1)
        parked.release.set()
        parked.thread.join(10.0)
        text, row = parked.fetched[0]
        assert text == local and row.payload == local
        assert cache.local_row(spec.job_id).payload == local
        assert cache.fill_hits == cache.fill_misses == 0


class TestPeerResultWire:
    def test_round_trip(self, grid):
        result = _done_result(grid[0])
        back = PeerResult.from_wire(result.to_wire())
        assert back.to_wire() == result.to_wire()
        assert back.spec.job_id == grid[0].job_id
        assert back.payload_text == result.payload_text  # verbatim text

    def test_optional_provenance_survives_as_none(self, grid):
        result = PeerResult(spec=grid[0], payload_text="{}", wall_s=0.0)
        back = PeerResult.from_wire(result.to_wire())
        assert back.engine is None and back.kernel_version is None

    def test_malformed_body_raises_cluster_error(self, grid):
        from repro.errors import ClusterError
        with pytest.raises(ClusterError, match="malformed peer result"):
            PeerResult.from_wire({"payload": "{}"})
