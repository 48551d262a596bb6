"""The two request-path workloads: a ``serve`` daemon and a 3-node ``cluster`` ring.

Load is closed loop from this one process: two client threads, each sending
its next request only when the previous one has answered (the host has two
cores, and a ``ServeClient`` caller waits for its reply).  One *hit*
operation is ``submit`` + ``result_text`` for a job the service already
holds; one *miss* is ``submit`` -> ``wait`` (tight 25 ms poll) ->
``result_text`` for a job nobody has seen.  Job popularity is zipf(1.1)
over the held ids, a working set twice the daemon's LRU, so hot ids answer
from memory and the tail from SQLite.

Every fetched text must parse equal to the in-process ``execute_job``
payload for its spec, and every hit acknowledgement must say ``cached:
true``; anything else, and any refused or timed-out request, is a failed
operation.
"""

from __future__ import annotations

import json
import os
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

from .harness import (
    Context, Outcome, ROOT, make_workdir, peak_rss_mib, percentile, remove_workdir,
    summarize, tail,
)
from .spans import Tracer

__all__ = ["WORKLOADS", "run"]

CLIENTS = 2
ZIPF_S = 1.1
#: share of --seconds the timed hit phase lasts (the miss phase takes the rest)
HIT_SHARE = 0.8
#: hit requests a client sends after each of its misses (reads beside writes)
HITS_PER_MISS = 10
#: untraced/traced segment pairs the traced pass splits its hit phase into
TRACE_SEGMENTS = 8
NODE_IDS = ("n0", "n1", "n2")
LISTEN_RE = re.compile(r"listening on [\d.]+:(\d+)")


@dataclass(frozen=True)
class ServiceSpec:
    #: distinct computed jobs the service holds before the first request
    held_jobs: int
    ring: bool


WORKLOADS: Dict[str, ServiceSpec] = {
    "serve_zipf": ServiceSpec(held_jobs=128, ring=False),
    "ring3_zipf": ServiceSpec(held_jobs=48, ring=True),
}


# ----------------------------------------------------------------------
# Inputs, all derived from --seed
# ----------------------------------------------------------------------
def demo_spec(seed: int, tag: str, index: int):
    from repro.campaign.spec import JobSpec, get_experiment
    from repro.util import derive_seed

    points = get_experiment("demo").points(False)
    point_index = index % len(points)
    return JobSpec("demo", point_index, points[point_index], False,
                   derive_seed(seed, tag, index), 0)


def _generator(seed: int, *parts) -> np.random.Generator:
    from repro.util import derive_seed

    return np.random.Generator(np.random.PCG64(derive_seed(seed, *parts)))


def zipf_sequence(seed: int, client: int, ids: int, length: int = 65536) -> np.ndarray:
    """Indices into the held jobs, zipf(1.1)-popular; wraps if ever exhausted."""
    cdf = np.cumsum(np.arange(1, ids + 1, dtype=float) ** -ZIPF_S)
    return np.searchsorted(cdf / cdf[-1], _generator(seed, "zipf", client).random(length))


def entry_sequence(seed: int, client: int, length: int = 65536) -> np.ndarray:
    """The ring node each request enters through, drawn per request."""
    return _generator(seed, "entry", client).integers(0, len(NODE_IDS), length)


class Oracle:
    """In-process ``execute_job`` payloads: what every fetched text must equal."""

    def __init__(self) -> None:
        self.payloads: Dict[str, Any] = {}
        self.walls: List[float] = []
        self._verified: Dict[str, str] = {}

    def compute(self, spec) -> Tuple[Any, float]:
        from repro.campaign.spec import execute_job

        start = time.perf_counter()
        payload = execute_job(spec.to_dict())
        wall = time.perf_counter() - start
        self.walls.append(wall)
        self.payloads[spec.job_id] = json.loads(json.dumps(payload))
        return payload, wall

    def matches(self, spec, text: str) -> bool:
        if self._verified.get(spec.job_id) == text:
            return True
        if spec.job_id not in self.payloads:
            self.compute(spec)
        try:
            equal = json.loads(text) == self.payloads[spec.job_id]
        except json.JSONDecodeError:
            return False
        if equal:
            self._verified[spec.job_id] = text
        return equal


def seed_store(path: Path, entries: Sequence[Tuple[Any, Any, float]]) -> None:
    """Commit computed ``(spec, payload, wall_s)`` rows the way a worker would."""
    from repro.campaign.store import ResultStore

    with ResultStore(str(path)) as store:
        store.add_jobs([spec for spec, _, _ in entries])
        for spec, payload, wall in entries:
            store.mark_running(spec.job_id, "ledger-seed")
            store.mark_done(spec.job_id, payload, wall)


# ----------------------------------------------------------------------
# Client side
# ----------------------------------------------------------------------
@dataclass
class ClientLog:
    """What one client thread measured."""

    hit_s: List[float] = field(default_factory=list)
    submit_s: List[float] = field(default_factory=list)
    result_s: List[float] = field(default_factory=list)
    hit_keys: List[Tuple[int, str]] = field(default_factory=list)
    miss_s: List[float] = field(default_factory=list)
    miss_row_wall_s: List[float] = field(default_factory=list)
    fetched: List[Tuple[Any, str]] = field(default_factory=list)
    joined: int = 0
    attempted: int = 0
    problems: List[str] = field(default_factory=list)
    started: float = 0.0
    finished: float = 0.0


def _submit(client, spec) -> Dict[str, Any]:
    return client.submit("demo", point_index=spec.point_index, seed=spec.seed)


def do_hit(client, spec, oracle: Oracle, log: ClientLog, node: int = 0) -> None:
    from repro.errors import ServeError

    log.attempted += 1
    try:
        start = time.perf_counter()
        ack = _submit(client, spec)
        middle = time.perf_counter()
        text = client.result_text(ack["job_id"])
        end = time.perf_counter()
    except (ServeError, KeyError) as exc:
        log.problems.append(f"hit {spec.job_id}: {exc!r}")
        return
    if ack.get("cached") is not True or ack.get("job_id") != spec.job_id:
        log.problems.append(f"hit {spec.job_id}: acknowledged {ack}")
    elif not oracle.matches(spec, text):
        log.problems.append(f"hit {spec.job_id}: payload differs from execute_job")
    else:
        log.hit_s.append(end - start)
        log.submit_s.append(middle - start)
        log.result_s.append(end - middle)
        log.hit_keys.append((node, spec.job_id))


def do_miss(client, spec, log: ClientLog, tight: bool = True) -> None:
    """A never-seen job; its text is verified after the phase, off the clock."""
    from repro.errors import ServeError

    log.attempted += 1
    wait = {"poll_s": 0.025, "poll_cap_s": 0.025} if tight else {}
    try:
        start = time.perf_counter()
        ack = _submit(client, spec)
        state = client.wait(ack["job_id"], timeout_s=30.0, **wait)
        text = client.result_text(ack["job_id"])
        end = time.perf_counter()
    except (ServeError, KeyError) as exc:
        log.problems.append(f"miss {spec.job_id}: {exc!r}")
        return
    log.miss_s.append(end - start)
    log.joined += bool(ack.get("joined"))
    log.miss_row_wall_s.append(float(state.get("wall_s") or 0.0))
    log.fetched.append((spec, text))


def run_clients(body: Callable[[int, ClientLog], None]) -> List[ClientLog]:
    """One thread per client, closed loop; returns their logs."""
    logs = [ClientLog() for _ in range(CLIENTS)]
    errors: List[BaseException] = []

    def target(index: int) -> None:
        logs[index].started = time.perf_counter()
        try:
            body(index, logs[index])
        except BaseException as exc:  # re-raised on the main thread below
            errors.append(exc)
        finally:
            logs[index].finished = time.perf_counter()

    threads = [threading.Thread(target=target, args=(i,), daemon=True)
               for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return logs


def phase_wall(logs: Sequence[ClientLog]) -> float:
    return max(log.finished for log in logs) - min(log.started for log in logs)


def merged(logs: Sequence[ClientLog], attr: str) -> List[Any]:
    return [item for log in logs for item in getattr(log, attr)]


def account(outcome: Outcome, oracle: Oracle, *phases: Sequence[ClientLog]) -> None:
    """Count attempts and failures; verify miss texts against the oracle."""
    for logs in phases:
        for log in logs:
            outcome.attempted += log.attempted
            for problem in log.problems:
                outcome.fail(problem)
            for spec, text in log.fetched:
                if not oracle.matches(spec, text):
                    outcome.fail(f"miss {spec.job_id}: payload differs from execute_job")


def scrape(metrics_text: str, name: str) -> float:
    """Sum of every sample of one Prometheus family."""
    value = 0.0
    for line in metrics_text.splitlines():
        if line.startswith(f"{name} ") or line.startswith(f"{name}{{"):
            value += float(line.rsplit(" ", 1)[1])
    return value


def ms(seconds: float) -> float:
    return seconds * 1e3


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples) if samples else 0.0


# ----------------------------------------------------------------------
# serve_zipf
# ----------------------------------------------------------------------
def run(ctx: Context) -> Outcome:
    spec = WORKLOADS[ctx.workload]
    workdir = make_workdir()
    try:
        outcome = (_run_ring if spec.ring else _run_serve)(ctx, spec, workdir)
    finally:
        remove_workdir(workdir)
    if not ctx.trace and not ctx.setup_only:
        # the daemon's workers / the ring's nodes are reaped by now
        outcome.metrics["peak_rss_mib"] = peak_rss_mib()
    return outcome


def _sizes(ctx: Context, spec: ServiceSpec) -> Tuple[int, int, float]:
    """(held jobs, misses per client, seconds of the timed hit phase)."""
    held = max(8, int(spec.held_jobs * ctx.size))
    return held, max(1, round(ctx.seconds)), ctx.seconds * HIT_SHARE


def _hit_loop(client_for: Callable[[int], Tuple[int, Any]], held: Sequence[Any],
              sequence: np.ndarray, oracle: Oracle, log: ClientLog,
              seconds: float) -> None:
    deadline = time.perf_counter() + seconds
    position = 0
    while time.perf_counter() < deadline:
        node, client = client_for(position)
        do_hit(client, held[sequence[position % len(sequence)]], oracle, log, node)
        position += 1


def _end_to_end(setup_s: float, hit_logs: Sequence[ClientLog]) -> Dict[str, float]:
    hits = merged(hit_logs, "hit_s")
    return {
        "setup_s": setup_s,
        "work_per_s": len(hits) / phase_wall(hit_logs),
        "op_p50_ms": ms(median(hits)),
        "op_tail_ms": ms(tail(hits)),
    }


def _run_serve(ctx: Context, spec: ServiceSpec, workdir: Path) -> Outcome:
    from repro.serve import ServeClient, ServeConfig, ServeDaemon

    outcome = Outcome()
    oracle = Oracle()
    tracer = Tracer()
    held_count, misses, hit_seconds = _sizes(ctx, spec)

    # -- set-up: imports, a store of computed jobs, a listening daemon -----
    held = [demo_spec(ctx.seed, "held", i) for i in range(held_count)]
    seed_store(workdir / "serve.db", [(job, *oracle.compute(job)) for job in held])
    warm_job_ms = ms(median(oracle.walls))
    daemon = ServeDaemon(ServeConfig(db=str(workdir / "serve.db"), workers=2,
                                     lru_size=held_count // 2))
    daemon.start()
    clients = [ServeClient(port=daemon.port, client_id=f"ledger{i}", timeout_s=20.0)
               for i in range(CLIENTS)]
    try:
        setup_s = ctx.since_start()
        if ctx.setup_only:
            print(repr(setup_s))
            return outcome
        sequences = [zipf_sequence(ctx.seed, i, held_count) for i in range(CLIENTS)]

        def miss_phase(tag: str, count: int, tight: bool = True) -> List[ClientLog]:
            """Never-seen jobs; after each tight-polled one, hits on held jobs
            (drawn from the far end of the client's zipf sequence)."""
            def body(index: int, log: ClientLog) -> None:
                for k in range(count):
                    do_miss(clients[index], demo_spec(ctx.seed, f"{tag}{index}", k),
                            log, tight)
                    for j in range(HITS_PER_MISS if tight else 0):
                        job = held[sequences[index][-1 - k * HITS_PER_MISS - j]]
                        do_hit(clients[index], job, oracle, log)
            return run_clients(body)

        def hit_phase(seconds: float) -> List[ClientLog]:
            return run_clients(lambda index, log: _hit_loop(
                lambda _: (0, clients[index]), held, sequences[index], oracle,
                log, seconds))

        if not ctx.trace:
            miss_logs = miss_phase("miss", misses)
            hit_logs = hit_phase(hit_seconds)
            account(outcome, oracle, miss_logs, hit_logs)
            outcome.detail = {"hit_s": summarize(merged(hit_logs, "hit_s")),
                              "miss_s": summarize(merged(miss_logs, "miss_s"))}
            outcome.metrics = _end_to_end(setup_s, hit_logs)
            return outcome

        # -- per-layer pass: traced misses, then untraced and traced hits ----
        pool = PoolTimes()
        tracer.install(pool.hooks())
        miss_logs = miss_phase("miss", misses)
        spans = tracer.aggregate()
        slow_logs = miss_phase("slow", max(1, misses // 3), tight=False)
        tracer.uninstall()
        # Alternating short segments, compared pair by pair: in-process hit
        # latency has two regimes (who holds the GIL when a reply lands,
        # ~1.6 vs ~2.1 ms) that flip every few seconds, which pooled phases
        # would report as tracing overhead.
        untraced_logs: List[ClientLog] = []
        traced_logs: List[ClientLog] = []
        pair_ratios: List[float] = []
        for _ in range(TRACE_SEGMENTS):
            without = hit_phase(hit_seconds / (2 * TRACE_SEGMENTS))
            tracer.install()
            with_spans = hit_phase(hit_seconds / (2 * TRACE_SEGMENTS))
            tracer.uninstall()
            untraced_logs += without
            traced_logs += with_spans
            if merged(without, "hit_s") and merged(with_spans, "hit_s"):
                pair_ratios.append(median(merged(with_spans, "hit_s"))
                                   / median(merged(without, "hit_s")))
        status_s = []
        for _ in range(200):
            start = time.perf_counter()
            clients[0].status(held[0].job_id)
            status_s.append(time.perf_counter() - start)
        exposition = clients[0].metrics_text()
        account(outcome, oracle, miss_logs, slow_logs, untraced_logs, traced_logs)
        outcome.missing = list(tracer.missing)

        miss_s = merged(miss_logs, "miss_s")
        untraced = merged(untraced_logs, "hit_s")
        commits = spans["campaign.store_mark_done"].count
        metrics = outcome.metrics
        metrics["bench.trace_overhead_share"] = median(pair_ratios) - 1.0 if pair_ratios else 0.0
        metrics["campaign.execute_job_warm_ms"] = warm_job_ms
        metrics["campaign.execute_job_cold_ms"] = ms(median(
            [_cold_execute_job(job) for job in held[:3]]))
        metrics.update(pool.metrics())
        metrics["campaign.store_commit_ms"] = ms(
            (spans["campaign.store_mark_running"].total_s
             + spans["campaign.store_mark_done"].total_s) / commits) if commits else 0.0
        metrics["campaign.store_lookup_us"] = spans.per_call("campaign.store_lookup", 1e6)
        metrics["campaign.store_add_jobs_us"] = spans.per_call("campaign.store_add_jobs", 1e6)
        metrics["serve.miss_p50_ms"] = ms(median(miss_s))
        metrics["serve.miss_p90_ms"] = ms(percentile(miss_s, 0.9))
        metrics["serve.miss_jobs_per_s"] = len(miss_s) / phase_wall(miss_logs)
        metrics["serve.submit_rtt_ms"] = ms(median(merged(untraced_logs, "submit_s")))
        metrics["serve.result_rtt_ms"] = ms(median(merged(untraced_logs, "result_s")))
        metrics["serve.status_rtt_ms"] = ms(median(status_s))
        metrics["serve.miss_overhead_ms"] = ms(median(
            [lat - wall for lat, wall in zip(miss_s, merged(miss_logs, "miss_row_wall_s"))]))
        metrics["serve.hit_under_miss_p50_ms"] = ms(median(merged(miss_logs, "hit_s")))
        metrics["serve.client_default_wait_overshoot_ms"] = ms(
            median(merged(slow_logs, "miss_s")) - median(miss_s))
        metrics["serve.polls_per_miss"] = (
            spans["serve.client_status"].count / len(miss_s) if miss_s else 0.0)
        for metric, family in (
            ("cache_hits", "cache_hits_total"), ("cache_misses", "cache_misses_total"),
            ("jobs_dispatched", "jobs_dispatched_total"), ("rejected_429", "rejected_total"),
        ):
            metrics[f"serve.{metric}"] = scrape(exposition, f"repro_serve_{family}")
        metrics["serve.joined"] = sum(log.joined for log in miss_logs)
        outcome.detail = {"hit_s": summarize(untraced), "miss_s": summarize(miss_s)}
        return outcome
    finally:
        tracer.uninstall()
        for client in clients:
            client.close()
        daemon.stop()


class PoolTimes:
    """Submit -> outcome round trips of the daemon's worker pool, by job id."""

    def __init__(self) -> None:
        self._submitted: Dict[str, float] = {}
        self.roundtrip_s: List[float] = []
        self.worker_wall_s: List[float] = []

    def hooks(self):
        def on_submit(args, kwargs, result, start, end) -> None:
            self._submitted[args[1]] = start

        def on_wait(args, kwargs, result, start, end) -> None:
            for job in result:
                begun = self._submitted.pop(job.job_id, None)
                if begun is not None:
                    self.roundtrip_s.append(end - begun)
                    self.worker_wall_s.append(job.wall_s)

        return {"campaign.pool_submit": on_submit, "campaign.pool_wait": on_wait}

    def metrics(self) -> Dict[str, float]:
        roundtrip, wall = median(self.roundtrip_s), median(self.worker_wall_s)
        return {
            "campaign.pool_roundtrip_ms": ms(roundtrip),
            "campaign.worker_wall_ms": ms(wall),
            "campaign.pool_overhead_ms": ms(roundtrip - wall),
        }


def _cold_execute_job(spec) -> float:
    """``execute_job`` in a fresh interpreter, its imports included."""
    script = (
        "import sys, json, time\n"
        "start = time.perf_counter()\n"
        "from repro.campaign.spec import execute_job\n"
        "execute_job(json.loads(sys.argv[1]))\n"
        "print(time.perf_counter() - start)\n"
    )
    done = subprocess.run([sys.executable, "-c", script, spec.to_json()],
                          env=_child_env(), capture_output=True, text=True,
                          timeout=60, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


# ----------------------------------------------------------------------
# ring3_zipf
# ----------------------------------------------------------------------
class RingNode:
    """One ``python -m repro cluster start`` subprocess on an ephemeral port."""

    def __init__(self, node_id: str, workdir: Path, peers: Sequence[int]) -> None:
        self.node_id = node_id
        self.log_path = workdir / f"{node_id}.log"
        command = [
            sys.executable, "-m", "repro", "cluster", "start", "--node-id", node_id,
            "--db", str(workdir / f"{node_id}.db"), "--port", "0", "--workers", "1",
        ]
        if peers:
            command += ["--peers", ",".join(f"127.0.0.1:{port}" for port in peers)]
        with open(self.log_path, "w") as log:
            self.process = subprocess.Popen(
                command, cwd=str(workdir), env=_child_env(),
                stdout=subprocess.DEVNULL, stderr=log,
            )
        self.port = self._await_port()

    def _await_port(self, budget_s: float = 30.0) -> int:
        deadline = time.monotonic() + budget_s
        while time.monotonic() < deadline:
            match = LISTEN_RE.search(self.log_path.read_text())
            if match:
                return int(match.group(1))
            if self.process.poll() is not None:
                break
            time.sleep(0.02)
        raise RuntimeError(f"ring node {self.node_id} never listened: "
                           f"{self.log_path.read_text()[-500:]}")

    def terminate(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)

    def reap(self, grace_s: float = 10.0) -> None:
        try:
            self.process.wait(timeout=grace_s)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()


def _await_converged(clients: Sequence[Any], budget_s: float = 30.0) -> None:
    deadline = time.monotonic() + budget_s
    want = sorted(NODE_IDS)
    while time.monotonic() < deadline:
        views = [sorted(c.health()["cluster"]["membership"]["alive"]) for c in clients]
        if all(view == want for view in views):
            return
        time.sleep(0.05)
    raise RuntimeError(f"ring never converged to {want}: {views}")


def _run_ring(ctx: Context, spec: ServiceSpec, workdir: Path) -> Outcome:
    from repro.cluster.ring import HashRing
    from repro.serve import ServeClient

    outcome = Outcome()
    oracle = Oracle()
    held_count, misses, hit_seconds = _sizes(ctx, spec)

    # -- set-up: computed jobs in their owners' stores, three nodes, gossip --
    held = [demo_spec(ctx.seed, "held", i) for i in range(held_count)]
    ring = HashRing(NODE_IDS)
    by_owner: Dict[str, List[Tuple[Any, Any, float]]] = {node: [] for node in NODE_IDS}
    for job in held:
        by_owner[ring.owner(job.job_id)].append((job, *oracle.compute(job)))
    for node_id, entries in by_owner.items():
        seed_store(workdir / f"{node_id}.db", entries)
    nodes: List[RingNode] = []
    clients: List[List[Any]] = []
    try:
        for node_id in NODE_IDS:
            nodes.append(RingNode(node_id, workdir, [n.port for n in nodes]))
        clients = [
            [ServeClient(port=node.port, client_id=f"ledger{i}", timeout_s=20.0)
             for node in nodes]
            for i in range(CLIENTS)
        ]
        start = time.perf_counter()
        _await_converged(clients[0])
        converge_s = time.perf_counter() - start
        # First touch of a job on a node that does not own it is a peer
        # fill, a blocking probe inside the node's event loop: two nodes
        # filling from each other at once stall for the 2 s peer timeout.
        # One client walks every (node, job) pair once, so the timed phase
        # measures the filled ring and no run's share of stalls.
        fill_log = ClientLog()
        pairs = [(node, job) for node in range(len(NODE_IDS)) for job in held]
        for index in _generator(ctx.seed, "fill").permutation(len(pairs)):
            node, job = pairs[index]
            do_hit(clients[0][node], job, oracle, fill_log, node)
        setup_s = ctx.since_start()
        if ctx.setup_only:
            print(repr(setup_s))
            return outcome
        sequences = [zipf_sequence(ctx.seed, i, held_count) for i in range(CLIENTS)]
        entries = [entry_sequence(ctx.seed, i) for i in range(CLIENTS)]

        def hit_phase(seconds: float):
            def body(index: int, log: ClientLog) -> None:
                def client_for(position: int):
                    node = int(entries[index][position % len(entries[index])])
                    return node, clients[index][node]
                _hit_loop(client_for, held, sequences[index], oracle, log, seconds)
            return run_clients(body)

        if not ctx.trace:
            hit_logs = hit_phase(hit_seconds)
            account(outcome, oracle, [fill_log], hit_logs)
            outcome.detail = {"hit_s": summarize(merged(hit_logs, "hit_s"))}
            outcome.metrics = _end_to_end(setup_s, hit_logs)
            return outcome

        # -- per-layer pass: a time-boxed miss phase, then hits --------------
        miss_budget = ctx.seconds * (1.0 - HIT_SHARE)

        def miss_body(index: int, log: ClientLog) -> None:
            deadline = time.perf_counter() + miss_budget
            k = 0
            while k < misses and (k == 0 or time.perf_counter() < deadline):
                do_miss(clients[index][(k + index) % len(nodes)],
                        demo_spec(ctx.seed, f"miss{index}", k), log)
                k += 1

        miss_logs = run_clients(miss_body)
        hit_logs = hit_phase(hit_seconds)
        account(outcome, oracle, [fill_log], miss_logs, hit_logs)
        exposition = [clients[0][i].metrics_text() for i in range(len(nodes))]
        start = time.perf_counter()
        for job in held * 20:
            ring.owner(job.job_id)
        owner_us = (time.perf_counter() - start) / (len(held) * 20) * 1e6

        first = [latency for latency, (node, job_id) in zip(fill_log.hit_s, fill_log.hit_keys)
                 if NODE_IDS[node] != ring.owner(job_id)]
        hits = merged(hit_logs, "hit_s")
        miss_s = merged(miss_logs, "miss_s")
        metrics = outcome.metrics
        metrics["cluster.converge_s"] = converge_s
        metrics["cluster.hit_first_touch_p50_ms"] = ms(median(first))
        metrics["cluster.hit_repeat_p50_ms"] = ms(median(hits))
        metrics["cluster.hit_p99_ms"] = ms(percentile(hits, 0.99))
        metrics["cluster.miss_p50_ms"] = ms(median(miss_s))
        metrics["cluster.miss_p90_ms"] = ms(percentile(miss_s, 0.9))
        metrics["cluster.miss_over_1s_share"] = (
            sum(1 for s in miss_s if s > 1.0) / len(miss_s) if miss_s else 0.0)
        metrics["cluster.miss_jobs_per_s"] = len(miss_s) / phase_wall(miss_logs)
        metrics["cluster.ring_owner_us"] = owner_us
        for metric, family in (
            ("redirects", "redirects_total"), ("peer_fill_hits", "peer_fill_hits"),
            ("peer_fill_misses", "peer_fill_misses"), ("steals", "steals_total"),
            ("re_admitted", "re_admitted_total"),
        ):
            metrics[f"cluster.{metric}"] = sum(
                scrape(text, f"repro_serve_cluster_{family}") for text in exposition)
        outcome.detail = {"hit_s": summarize(hits), "miss_s": summarize(miss_s),
                          "first_touch_s": summarize(first)}
        return outcome
    finally:
        for group in clients:
            for client in group:
                client.close()
        for node in nodes:
            node.terminate()
        for node in nodes:
            node.reap()
