"""A cost budget for one cache hit on the request path that cannot flake.

A *hit* is what the ledger's ``serve_zipf`` / ``ring3_zipf`` time:
``ServeClient.submit`` of a job the daemon already holds, then
``result_text``.  None of it simulates; it is framing, routing, one
socket round trip (the ``done`` ack carries the stored text, which
``result_text`` then answers from) and at most one row read, so its cost
is a handful of counts — and counts, unlike the wall clock of a shared host, repeat
exactly.  Same rule as ``test_engine_dispatch_budget.py``: an **equality**
gate; a change that lowers a count updates the constant below and the
history, one that raises it fails until it argues why.

Per hit, on a keep-alive connection to an in-process daemon:

(a) ``sendall`` calls on the client thread — one per request, head and
    body in one segment (two ``sendall`` per POST woke the daemon twice);
(b) ``ResultStore.get_job`` calls — none when the id is in the daemon's
    LRU, one when it is not (the submit's lookup, whose text the ack
    carries);
(c) ``connections_opened`` over the whole run — one;
(d) Python calls into ``src/repro`` on the client thread and on the
    daemon's loop thread (``sys.setprofile`` ``call`` events).  Frames of
    the standard library (``json``, ``asyncio``, ``dataclasses``-generated
    ``__init__``) vary by release and are held to a bound instead.

History, per hit — (a) / (b) hot, cold / (d) client + daemon in-package
[+ client, daemon standard-library frames on CPython 3.11]:

* streams + ``http.client`` (8a88d8e): 3 / 1, 2 / 21 + 39.757 [+ 267, 149]
* one shared framing, protocol frontier: 2 / 0, 1 / 25 + 39     [+   9,  43]
* the ``done`` ack carries the text:      1 / 0, 1 / 15 + 27     [+   8,  30]

The in-package counts barely moved with the shared framing (the client
gained its own parser's four frames); what left the path is the standard
library's layers — ``http.client`` / ``email.feedparser`` on one side,
asyncio streams and their futures on the other — which is what the bound
below watches.  The hand-off removed the whole ``GET .../result``
exchange: its request render, parse and routing on both sides.
"""

import sys
import threading
from pathlib import Path

import pytest

import repro
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import ResultStore
from repro.serve import ServeClient, ServeConfig, ServeDaemon

PACKAGE = str(Path(repro.__file__).resolve().parent)

HOT_HITS = 1000
LRU = 8
HELD = 16

#: (a) client ``sendall`` calls per hit
SENDALL_PER_HIT = 1
#: (b) ``ResultStore.get_job`` calls per hit: id in the LRU / id not in it
GET_JOB_PER_HOT_HIT, GET_JOB_PER_COLD_HIT = 0, 1
#: (d) calls into ``src/repro`` per hit
CLIENT_CALLS_PER_HIT = 15
DAEMON_CALLS_PER_HIT = 27
#: calls into Python code outside the package per hit, each side, at most
FOREIGN_CALLS_PER_HIT = 60


class CallCounter:
    """A ``sys.setprofile`` function for one thread."""

    def __init__(self) -> None:
        self.calls = self.foreign = self.sendall = 0
        self.by_function: dict = {}

    def __call__(self, frame, event, arg) -> None:
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(PACKAGE):
                self.calls += 1
                name = getattr(code, "co_qualname", code.co_name)
                self.by_function[name] = self.by_function.get(name, 0) + 1
            else:
                self.foreign += 1
        elif event == "c_call" and getattr(arg, "__name__", "") == "sendall":
            self.sendall += 1

    def breakdown(self, hits: int) -> str:
        return "\n".join(
            f"{count / hits:8.3f}  {name}"
            for name, count in sorted(self.by_function.items(), key=lambda kv: -kv[1])
        )


def _on_loop(daemon, fn, *args) -> None:
    """Run ``fn(*args)`` on the daemon's loop thread and wait for it."""
    done = threading.Event()
    daemon._loop.call_soon_threadsafe(lambda: (fn(*args), done.set()))
    assert done.wait(5.0)


@pytest.fixture()
def held(tmp_path, monkeypatch):
    """A daemon over ``HELD`` finished demo jobs, LRU ``LRU``; counts row reads."""
    specs = CampaignSpec(experiments=("demo",), quick=True, replicates=HELD).expand()[:HELD]
    assert len(specs) == HELD
    with ResultStore(str(tmp_path / "serve.db")) as store:
        store.add_jobs(specs)
        for index, spec in enumerate(specs):
            store.mark_running(spec.job_id, "budget")
            store.mark_done(spec.job_id, {"index": index, "pad": "x" * 40}, 0.01)
    reads = []
    real_get_job = ResultStore.get_job
    monkeypatch.setattr(
        ResultStore, "get_job",
        lambda self, job_id: reads.append(job_id) or real_get_job(self, job_id),
    )
    daemon = ServeDaemon(
        ServeConfig(port=0, db=str(tmp_path / "serve.db"), workers=1, lru_size=LRU)
    )
    daemon.start()
    client = ServeClient(port=daemon.port, client_id="budget", retries=0)
    try:
        yield daemon, client, specs, reads
    finally:
        client.close()
        daemon.stop()


def _hit(client, spec) -> None:
    ack = client.submit(
        spec.eid, point_index=spec.point_index, quick=spec.quick,
        seed=spec.seed, replicate=spec.replicate,
    )
    assert ack == {"job_id": spec.job_id, "status": "done", "cached": True}
    assert '"pad"' in client.result_text(ack["job_id"])


def test_a_hit_costs_exactly_its_budget(held):
    daemon, client, specs, reads = held
    hot = specs[:4]
    for spec in hot:  # first touch: into the LRU, connection opened
        _hit(client, spec)
    del reads[:]

    client_side, daemon_side = CallCounter(), CallCounter()
    _on_loop(daemon, sys.setprofile, daemon_side)
    sys.setprofile(client_side)
    try:
        for index in range(HOT_HITS):
            _hit(client, hot[index % len(hot)])
    finally:
        sys.setprofile(None)
        _on_loop(daemon, sys.setprofile, None)

    assert client_side.sendall == SENDALL_PER_HIT * HOT_HITS
    assert len(reads) == GET_JOB_PER_HOT_HIT * HOT_HITS
    assert client_side.calls == CLIENT_CALLS_PER_HIT * HOT_HITS, (
        f"{client_side.calls / HOT_HITS:.3f} in-package calls per hit on the client "
        f"thread, budget {CLIENT_CALLS_PER_HIT} (down: update the constant and the "
        "history in this file's docstring; up: justify it)\n"
        + client_side.breakdown(HOT_HITS)
    )
    assert daemon_side.calls == DAEMON_CALLS_PER_HIT * HOT_HITS, (
        f"{daemon_side.calls / HOT_HITS:.3f} in-package calls per hit on the daemon's "
        f"loop thread, budget {DAEMON_CALLS_PER_HIT} (down: update the constant and "
        "the history in this file's docstring; up: justify it)\n"
        + daemon_side.breakdown(HOT_HITS)
    )
    for side, counter in (("client", client_side), ("daemon", daemon_side)):
        assert counter.foreign <= FOREIGN_CALLS_PER_HIT * HOT_HITS, (
            f"{counter.foreign / HOT_HITS:.1f} calls per hit into Python code outside "
            f"the package on the {side} side: a standard-library layer "
            "(http.client, email, asyncio streams) is back on the hit path"
        )

    # Cold ids: a round robin over twice the LRU never finds one resident.
    for spec in specs:
        _hit(client, spec)
    del reads[:]
    cold_hits = 10 * HELD
    for index in range(cold_hits):
        _hit(client, specs[index % HELD])
    assert len(reads) == GET_JOB_PER_COLD_HIT * cold_hits

    assert client.connections_opened == 1
    assert client.redirects_followed == 0
