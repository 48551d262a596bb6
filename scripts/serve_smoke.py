#!/usr/bin/env python3
"""End-to-end smoke test for the serve daemon (CI gate).

Drives a real ``python -m repro serve start`` subprocess through the
full service contract:

1. **Concurrency + caching** — N concurrent clients submit a mix of
   duplicate and distinct jobs; every duplicate must resolve to one
   computation (asserted via the ``jobs_dispatched_total`` counter and
   the cache hit ratio scraped from ``/metrics``), and a cached
   resubmission plus ``result_text`` must cost one ``submit`` request
   and no ``result`` request (the ack carries the stored text).
2. **Equivalence** — E1 (one job carrying the whole persisted result),
   and E3 and E5 (assembled from one job per sweep point) fetched through
   the service must be identical to direct in-process runs, excluding only
   each experiment's declared ``host_time_columns``.
3. **SIGTERM drain + restart** — the daemon is SIGTERMed with jobs
   still queued; a restart on the same ``--db`` must complete every
   accepted job exactly once, and previously cached payloads must come
   back byte-identical.
4. **Standard clients** — ``urllib.request`` reads ``/healthz`` and
   ``/metrics`` and ``http.client`` submits and fetches over one
   keep-alive connection: ``ServeClient`` speaks the daemon's own
   framing, so it no longer shows that a stock HTTP client is served.
5. **Kernel batching** — four same-shape engine-aware jobs buffered
   behind a busy single worker must dispatch as ONE batched engine
   invocation (asserted via the ``engine_batch_size`` histogram), with
   per-member payloads byte-identical to individual runs.

Run from the repository root: ``python scripts/serve_smoke.py``.
Exits non-zero (with a diagnostic) on any violation.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.campaign.spec import JobSpec, execute_job, get_experiment  # noqa: E402
from repro.harness.experiments import run_e1, run_e3, run_e5  # noqa: E402
from repro.harness.persist import result_from_dict  # noqa: E402
from repro.serve import ServeClient  # noqa: E402

LISTEN_RE = re.compile(r"listening on ([\d.]+):(\d+)")
START_BUDGET_S = 60.0
N_CLIENTS = 4


def fail(message: str) -> None:
    print(f"serve_smoke: FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def step(message: str) -> None:
    print(f"serve_smoke: {message}", flush=True)


class Daemon:
    """One serve daemon subprocess on an ephemeral port."""

    def __init__(self, db: str, workers: int = 2) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "start",
                "--db", db, "--workers", str(workers), "--port", "0",
            ],
            cwd=str(REPO),
            env=env,
            stderr=subprocess.PIPE,
            text=True,
        )
        self.port = self._await_port()
        # keep draining stderr so the pipe never fills and blocks the daemon
        threading.Thread(target=self._drain, daemon=True).start()

    def _await_port(self) -> int:
        deadline = time.monotonic() + START_BUDGET_S
        assert self.proc.stderr is not None
        while time.monotonic() < deadline:
            line = self.proc.stderr.readline()
            if not line:
                break
            match = LISTEN_RE.search(line)
            if match:
                return int(match.group(2))
        fail("daemon never announced its listen port")
        raise AssertionError  # unreachable

    def _drain(self) -> None:
        assert self.proc.stderr is not None
        for _ in self.proc.stderr:
            pass

    def sigterm_and_wait(self, timeout_s: float = 180.0) -> int:
        self.proc.send_signal(signal.SIGTERM)
        try:
            return self.proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            fail("daemon did not drain within the SIGTERM budget")
            raise AssertionError  # unreachable


def masked_rows(result, eid):
    """Rows with the experiment's host wall-clock columns blanked out."""
    host = set(get_experiment(eid).host_time_columns)
    keep = [i for i, h in enumerate(result.headers) if h not in host]
    return [tuple(row[i] for i in keep) for row in result.rows]


def scrape(metrics_text: str, name: str, default: float | None = None) -> float:
    """The first sample of ``name``; ``default`` for a series not exported
    yet (a counter appears with its first increment), else a failure."""
    for line in metrics_text.splitlines():
        if line.startswith(f"{name} ") or line.startswith(f"{name}{{"):
            return float(line.rsplit(" ", 1)[1])
    if default is not None:
        return default
    fail(f"metric {name} missing from /metrics")
    raise AssertionError  # unreachable


def phase_concurrency(port: int) -> str:
    """N clients, duplicate + distinct demo jobs; returns a cached text."""
    step(f"phase 1: {N_CLIENTS} concurrent clients, duplicate+distinct jobs")
    errors = []

    def one_client(idx: int) -> None:
        try:
            client = ServeClient(port=port, client_id=f"smoke{idx}")
            # everyone submits the same duplicate job ...
            client.submit_and_wait("demo", point_index=0, quick=True,
                                   timeout_s=300)
            # ... and one distinct job of their own (seed = identity)
            client.submit_and_wait("demo", point_index=1, quick=True,
                                   seed=100 + idx, timeout_s=300)
            # ... then resubmits the shared job, which must now be a hit
            ack = client.submit("demo", point_index=0, quick=True)
            if not ack["cached"]:
                errors.append((idx, "repeat submission missed the cache"))
        except Exception as exc:  # noqa: BLE001 - smoke harness boundary
            errors.append((idx, exc))

    threads = [
        threading.Thread(target=one_client, args=(i,)) for i in range(N_CLIENTS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=600)
    if errors:
        fail(f"client errors: {errors[:3]}")

    client = ServeClient(port=port, client_id="probe")
    metrics = client.metrics_text()
    # the contract: queue depth, in-flight, hit ratio, p50/p99 all exposed
    scrape(metrics, "repro_serve_queue_depth")
    scrape(metrics, "repro_serve_jobs_in_flight")
    for quantile in ("0.5", "0.99"):
        if f'repro_serve_service_time_seconds{{quantile="{quantile}"}}' not in metrics:
            fail(f"p{quantile} service time missing from /metrics")
    dispatched = scrape(metrics, "repro_serve_jobs_dispatched_total")
    ratio = scrape(metrics, "repro_serve_cache_hit_ratio")
    # N_CLIENTS+1 distinct jobs exist; 2*N_CLIENTS submissions were made.
    if dispatched > N_CLIENTS + 1:
        fail(f"{dispatched:.0f} workers spawned for {N_CLIENTS + 1} distinct jobs")
    if ratio <= 0.0:
        fail(f"cache hit ratio {ratio} after duplicate submissions")
    step(f"  ok: dispatched={dispatched:.0f}, hit_ratio={ratio:.2f}")
    # A hit is one round trip: the done ack carries the stored text.
    before = client.metrics_text()
    ack = client.submit("demo", point_index=0, quick=True)
    if not ack["cached"]:
        fail("repeat submission missed the cache")
    text = client.result_text(ack["job_id"])
    after = client.metrics_text()
    for endpoint, want in (("submit", 1), ("result", 0)):
        series = f'repro_serve_requests_total{{endpoint="{endpoint}"}}'
        moved = scrape(after, series, 0.0) - scrape(before, series, 0.0)
        if moved != want:
            fail(f"a cached submit + result_text made {moved:.0f} {endpoint} "
                 f"request(s), expected {want}")
    step("  ok: a cached submit + result_text is one submit request, no result request")
    return text


def phase_stdlib_clients(port: int, cached_text: str) -> None:
    """The daemon as the standard library's HTTP clients see it."""
    step("phase 1b: urllib.request + http.client against the daemon")
    import http.client
    import urllib.request

    base = f"http://127.0.0.1:{port}"
    with urllib.request.urlopen(f"{base}/healthz", timeout=30) as response:
        if response.status != 200 or json.loads(response.read()).get("ok") is not True:
            fail("urllib: /healthz did not answer ok")
    with urllib.request.urlopen(f"{base}/metrics", timeout=30) as response:
        if b"repro_serve_requests_total" not in response.read():
            fail("urllib: /metrics is missing the request counter")
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        body = json.dumps({"eid": "demo", "point_index": 0, "quick": True})
        conn.request("POST", "/api/v1/jobs", body=body,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        ack = json.loads(response.read())
        if response.status != 200 or ack.get("cached") is not True:
            fail(f"http.client: submit answered {response.status} {ack}")
        if response.will_close:
            fail("http.client: the daemon did not keep the connection alive")
        conn.request("GET", f"/api/v1/jobs/{ack['job_id']}/result")
        response = conn.getresponse()
        if response.read().decode("utf-8") != cached_text:
            fail("http.client: GET payload differs from the text ServeClient "
                 "took from the cached ack")
    finally:
        conn.close()
    step("  ok: stock clients are served, keep-alive included")


def served_by_points(client: ServeClient, eid: str):
    """``eid`` in quick mode, assembled from one served job per point."""
    experiment = get_experiment(eid)
    records = [
        client.submit_and_wait(eid, point_index=i, quick=True,
                               timeout_s=900)["record"]
        for i in range(len(experiment.points(True)))
    ]
    return experiment.assemble(records, True, experiment.default_seed)


def check_matches(served, direct, eid: str, how: str) -> None:
    if served.headers != direct.headers:
        fail(f"{eid} headers differ")
    if masked_rows(served, eid) != masked_rows(direct, eid):
        fail(f"{eid} rows differ beyond host-time columns")
    step(f"  ok: {eid} matches ({how})")


def phase_equivalence(port: int) -> None:
    """Served E1/E3/E5 results == direct runs, modulo host_time_columns."""
    step("phase 2: served E1/E3/E5 vs direct sequential runs")
    client = ServeClient(port=port, client_id="equiv")

    served_e1 = result_from_dict(
        client.submit_and_wait("E1", quick=True, timeout_s=900)["record"],
        source="served E1",
    )
    check_matches(served_e1, run_e1(quick=True), "E1", "one job, whole result")
    check_matches(served_by_points(client, "E3"), run_e3(quick=True), "E3",
                  "assembled from per-point service jobs")
    check_matches(served_by_points(client, "E5"), run_e5(quick=True), "E5",
                  "assembled from per-point service jobs")


def phase_batched(db_dir: str) -> None:
    """K=4 same-shape jobs through ONE batched kernel invocation.

    Runs against its own single-worker daemon on a fresh db: the first
    engine-aware job occupies the worker, the next four accumulate in the
    dispatch buffer, and when the worker frees they must coalesce into a
    single batched engine invocation — whose per-member payloads are
    byte-identical to individually-executed jobs.
    """
    step("phase 4: kernel batching (4 same-shape jobs, one dispatch)")
    db = os.path.join(db_dir, "serve_batch.db")
    daemon = Daemon(db, workers=1)
    step(f"  daemon 3 up on port {daemon.port} (workers=1, db={db})")
    try:
        client = ServeClient(port=daemon.port, client_id="batch")
        specs = [
            JobSpec(eid="demo-noc", point_index=i % 2, point=[i % 2],
                    quick=True, seed=1, replicate=i // 2)
            for i in range(5)
        ]
        # Pilot job: dispatches solo and pins the only worker ...
        ack = client.submit("demo-noc", point_index=0, quick=True, seed=1)
        if ack["job_id"] != specs[0].job_id:
            fail("client/server job-id mismatch for the pilot job")
        deadline = time.monotonic() + 60
        while scrape(client.metrics_text(),
                     "repro_serve_jobs_dispatched_total", default=0) < 1:
            if time.monotonic() > deadline:
                fail("pilot job never dispatched")
            time.sleep(0.02)
        # ... so these four buffer together and share one kernel batch.
        for spec in specs[1:]:
            client.submit("demo-noc", point_index=spec.point_index,
                          quick=True, seed=1, replicate=spec.replicate)
        for spec in specs:
            state = client.wait(spec.job_id, timeout_s=600)
            if state["status"] != "done":
                fail(f"batched job {spec.job_id} not done: {state}")

        metrics = client.metrics_text()
        dispatched = scrape(metrics, "repro_serve_jobs_dispatched_total")
        count = scrape(metrics, "repro_serve_engine_batch_size_count")
        lanes = scrape(metrics, "repro_serve_engine_batch_size_sum")
        if dispatched != 2:
            fail(f"expected 2 dispatches (pilot + one batch), got {dispatched:.0f}")
        if count != 2 or lanes != 5:
            fail(f"batch-size histogram shows {lanes:.0f} lanes over "
                 f"{count:.0f} dispatches; expected 5 over 2")
        step("  ok: 4 jobs ran as one batched invocation (1+4 dispatches)")

        for spec in specs:
            served = client.result_text(spec.job_id)
            direct = execute_job(spec.to_dict())
            direct.pop("_provenance", None)
            if served != json.dumps(direct, sort_keys=True):
                fail(f"batched result for {spec.job_id} is not "
                     "byte-identical to an individual run")
        step("  ok: every batched payload byte-identical to individual runs")
    finally:
        code = daemon.sigterm_and_wait()
        if code != 0:
            fail(f"daemon 3 exited {code}")


def phase_drain_load(port: int) -> list:
    """Queue the E7 quantum sweep; the caller SIGTERMs with it pending."""
    step("phase 3: SIGTERM mid-queue, restart, drain to completion")
    client = ServeClient(port=port, client_id="drain")
    n_points = len(get_experiment("E7").points(True))
    return [
        client.submit("E7", point_index=i, quick=True)["job_id"]
        for i in range(n_points)
    ]


def main() -> int:
    tmp = tempfile.mkdtemp(prefix="serve_smoke_")
    db = os.path.join(tmp, "serve.db")

    daemon = Daemon(db)
    step(f"daemon 1 up on port {daemon.port} (db={db})")
    cached_text = phase_concurrency(daemon.port)
    phase_stdlib_clients(daemon.port, cached_text)
    phase_equivalence(daemon.port)

    job_ids = phase_drain_load(daemon.port)
    code = daemon.sigterm_and_wait()
    if code != 0:
        fail(f"daemon exited {code} on SIGTERM drain")
    step("  daemon 1 drained cleanly with jobs still queued")

    daemon2 = Daemon(db)
    step(f"daemon 2 up on port {daemon2.port} (same db)")
    client = ServeClient(port=daemon2.port, client_id="drain")
    for job_id in job_ids:
        state = client.wait(job_id, timeout_s=900)
        if state["status"] != "done":
            fail(f"job {job_id} not done after restart: {state}")
        if state["attempts"] > 2:
            fail(f"job {job_id} ran {state['attempts']} times; expected <= 2")
    step(f"  ok: all {len(job_ids)} accepted jobs completed after restart")

    # byte-identical replay across the restart
    ack = client.submit("demo", point_index=0, quick=True)
    if not ack["cached"]:
        fail("restart lost the cache")
    replay = client.result_text(ack["job_id"])
    if replay != cached_text:
        fail("cached payload changed across restart (not byte-identical)")
    json.loads(replay)  # and it is well-formed JSON
    step("  ok: cached payload byte-identical across restart")

    code = daemon2.sigterm_and_wait()
    if code != 0:
        fail(f"daemon 2 exited {code}")

    phase_batched(tmp)
    step("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
