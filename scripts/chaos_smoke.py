#!/usr/bin/env python3
"""Chaos + crash-consistency smoke test (CI gate).

Drives the ``repro.chaos`` substrate end to end:

1. **Schedule determinism** — ``chaos show --json`` twice must print the
   identical schedule.
2. **Campaign audit matrix** — torn-commit and worker-kill/spawn-failure
   schedules through ``python -m repro chaos audit --mode campaign``;
   every audit must PASS (exactly-once, byte-identical payloads).
3. **Serve audit** — the in-process serve daemon under a torn commit plus
   a crash in the accepted-but-unacked submit window.  **Cluster audit**
   — a three-node in-process ring through ``--mode cluster``, one member
   killed mid-queue and restarted on its own database and port.
4. **Daemon crash (exit mode)** — a real ``serve start`` subprocess armed
   with ``--chaos-arm`` dies with the distinctive exit code 86 at the
   before-ack crash point; a restarted plain daemon on the same database
   completes the accepted job with a byte-identical payload.
5. **Breaker under spawn-failure storm** — an in-process daemon armed
   with spawn failures trips the dispatch circuit breaker (503 +
   ``Retry-After``, breaker gauges and injected-fault counts scraped
   from ``/metrics``), then recovers through a half-open probe once the
   schedule is exhausted.
6. **Corrupt store refusal** — a garbage database is quarantined with a
   structured error (never a raw traceback) by the campaign CLI.
7. **Torn checkpoint refusal** — a half-written snapshot is refused by
   the resilience CLI with a structured error.

Run from the repository root: ``python scripts/chaos_smoke.py``.
Exits non-zero (with a diagnostic) on any violation.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.campaign.spec import execute_job  # noqa: E402
from repro.chaos.inject import CRASH_EXIT_CODE  # noqa: E402
from repro.errors import ServeError  # noqa: E402
from repro.serve import ServeClient  # noqa: E402
from repro.serve.protocol import canonicalize_submission  # noqa: E402

LISTEN_RE = re.compile(r"listening on ([\d.]+):(\d+)")
START_BUDGET_S = 60.0


def fail(message: str) -> None:
    print(f"chaos_smoke: FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def step(message: str) -> None:
    print(f"chaos_smoke: {message}", flush=True)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    return env


def run_cli(*args: str, timeout: float = 900.0) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        cwd=str(REPO), env=_env(), capture_output=True, text=True,
        timeout=timeout,
    )


def phase_determinism() -> None:
    step("phase 1: schedule determinism (chaos show --json, twice)")
    args = [
        "chaos", "show", "--json", "--seed", "7", "--window", "16",
        "--torn-commits", "1", "--worker-kills", "2", "--spawn-failures", "1",
        "--crash-point", "serve.submit.before-ack",
    ]
    first, second = run_cli(*args), run_cli(*args)
    if first.returncode != 0:
        fail(f"chaos show exited {first.returncode}: {first.stderr}")
    if first.stdout != second.stdout:
        fail("the same config compiled to two different schedules")
    events = json.loads(first.stdout)["events"]
    if len(events) != 5:
        fail(f"expected 5 scheduled events, got {events}")
    step(f"  ok: {len(events)} events, byte-identical across compiles")


def phase_campaign_audits() -> None:
    step("phase 2: campaign audit matrix (exactly-once + byte-identity)")
    matrix = [
        ("torn-commit", ["--torn-commits", "1", "--window", "2", "--seed", "1"]),
        ("kill+spawn-fail", ["--worker-kills", "1", "--spawn-failures", "1",
                             "--window", "3", "--seed", "3", "--retries", "3"]),
        ("io-error+disk-full", ["--store-io-errors", "1",
                                "--disk-full-errors", "1", "--window", "4",
                                "--seed", "5"]),
    ]
    for name, flags in matrix:
        proc = run_cli("chaos", "audit", "--mode", "campaign", "--run-seed",
                       "1", *flags)
        if proc.returncode != 0:
            fail(f"campaign audit [{name}] exited {proc.returncode}:\n"
                 f"{proc.stdout}\n{proc.stderr}")
        if "PASS" not in proc.stdout:
            fail(f"campaign audit [{name}] did not report PASS:\n{proc.stdout}")
        step(f"  ok: {name} -> {proc.stdout.splitlines()[0]}")


def phase_serve_audit() -> None:
    step("phase 3: serve audit (crash in the accepted-but-unacked window)")
    proc = run_cli(
        "chaos", "audit", "--mode", "serve", "--run-seed", "1",
        "--crash-point", "serve.submit.before-ack",
        "--torn-commits", "1", "--window", "2", "--seed", "1",
    )
    if proc.returncode != 0:
        fail(f"serve audit exited {proc.returncode}:\n"
             f"{proc.stdout}\n{proc.stderr}")
    if "PASS" not in proc.stdout:
        fail(f"serve audit did not report PASS:\n{proc.stdout}")
    step(f"  ok: {proc.stdout.splitlines()[0]}")


def phase_cluster_audit() -> None:
    step("phase 3b: cluster audit (one ring member killed and restarted)")
    proc = run_cli(
        "chaos", "audit", "--mode", "cluster", "--nodes", "3",
        "--node-kills", "1", "--run-seed", "1", "--seed", "7",
    )
    if proc.returncode != 0:
        fail(f"cluster audit exited {proc.returncode}:\n"
             f"{proc.stdout}\n{proc.stderr}")
    if "PASS" not in proc.stdout or "cluster.node" not in proc.stdout:
        fail(f"cluster audit did not report a PASS with a node kill:\n"
             f"{proc.stdout}")
    step(f"  ok: {proc.stdout.splitlines()[0]}")


class Daemon:
    """One serve daemon subprocess on an ephemeral port."""

    def __init__(self, db: str, *extra: str) -> None:
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "start",
                "--db", db, "--workers", "1", "--port", "0", *extra,
            ],
            cwd=str(REPO), env=_env(),
            stderr=subprocess.PIPE, text=True,
        )
        self.port = self._await_port()

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


def phase_daemon_crash(tmp: str) -> None:
    step("phase 4: armed daemon dies at before-ack (exit 86), restart recovers")
    db = os.path.join(tmp, "crash.db")
    chaos = json.dumps({
        "seed": 1, "window": 1,
        "crash_points": ["serve.submit.before-ack"],
    })
    daemon = Daemon(db, "--chaos-arm", chaos, "--chaos-crash-mode", "exit")
    step(f"  armed daemon up on port {daemon.port}")
    client = ServeClient(port=daemon.port, client_id="smoke", retries=0)
    submission = dict(point_index=0, quick=True, seed=1)
    try:
        client.submit("demo", **submission)
        fail("submit was acknowledged; the armed daemon should have died first")
    except ServeError:
        pass  # the ack was lost with the process — exactly the scenario
    code = daemon.proc.wait(timeout=60)
    if code != CRASH_EXIT_CODE:
        fail(f"armed daemon exited {code}, expected {CRASH_EXIT_CODE}")
    step(f"  ok: daemon died with exit code {CRASH_EXIT_CODE}")

    reborn = Daemon(db)  # no chaos: the operator's restart
    try:
        client = ServeClient(port=reborn.port, client_id="smoke")
        # The idempotent resubmission joins the recovered pending row.
        ack = client.submit("demo", **submission)
        state = client.wait(ack["job_id"], timeout_s=300)
        if state["status"] != "done":
            fail(f"recovered job not done: {state}")
        served = client.result_text(ack["job_id"])
        spec, _ = canonicalize_submission(
            {"eid": "demo", "quick": True, "seed": 1, **submission}
        )
        direct = execute_job(spec.to_dict())
        direct.pop("_provenance", None)
        if served != json.dumps(direct, sort_keys=True):
            fail("recovered payload is not byte-identical to a direct run")
        step("  ok: accepted job completed once, payload byte-identical")
    finally:
        reborn.proc.terminate()
        reborn.proc.wait(timeout=120)


def _scrape(metrics_text: str, name: str, missing_ok: bool = False) -> float:
    total = 0.0
    found = False
    for line in metrics_text.splitlines():
        if line.startswith(f"{name} ") or line.startswith(f"{name}{{"):
            total += float(line.rsplit(" ", 1)[1])
            found = True
    if not found and not missing_ok:
        fail(f"metric {name} missing from /metrics")
    return total


def phase_breaker(tmp: str) -> None:
    step("phase 5: spawn-failure storm trips the breaker; probe recovers")
    from repro.chaos import ChaosConfig, armed
    from repro.serve.server import ServeConfig, ServeDaemon

    db = os.path.join(tmp, "breaker.db")
    config = ChaosConfig(seed=1, window=5, spawn_failures=5)
    with armed(config, crash_mode="raise") as state:
        daemon = ServeDaemon(ServeConfig(
            port=0, db=db, workers=1,
            breaker_threshold=3, breaker_cooldown_s=0.5,
        ))
        state.bind_metrics(daemon.metrics)
        daemon.start()
        try:
            client = ServeClient(port=daemon.port, client_id="storm",
                                 retries=0)
            ack = client.submit("demo", point_index=0, quick=True, seed=1)
            deadline = time.monotonic() + 60
            while client.health()["circuit"]["state"] != "open":
                if time.monotonic() > deadline:
                    fail("breaker never opened under the spawn-failure storm")
                time.sleep(0.05)
            step("  ok: breaker open after 3 consecutive spawn failures")

            # While open, the frontier must refuse with 503 + Retry-After.
            refused = 0
            try:
                client.submit("demo", point_index=1, quick=True, seed=1)
            except ServeError as exc:
                if exc.status != 503:
                    fail(f"expected 503 while open, got {exc.status}")
                refused = 1
            if not refused:
                # the breaker may have gone half-open between the health
                # poll and the submit; the metrics check below still gates
                step("  note: breaker cooled down before the 503 probe")

            metrics = client.metrics_text()
            _scrape(metrics, "repro_serve_retry_budget")
            _scrape(metrics, "repro_serve_breaker_open")
            if _scrape(metrics, "repro_serve_breaker_trips") < 1:
                fail("breaker trip count not exposed in /metrics")
            if _scrape(metrics, "repro_serve_spawn_failures_total") < 3:
                fail("spawn failures not counted in /metrics")
            injected = _scrape(
                metrics, "repro_serve_chaos_injected_total", missing_ok=True
            )
            if injected < 3:
                fail(f"injected-fault counter shows {injected}, expected >= 3")
            if refused and _scrape(
                metrics, "repro_serve_breaker_rejections_total",
                missing_ok=True,
            ) < 1:
                fail("503 rejection not counted in /metrics")
            step("  ok: breaker state, retry budget, injected faults all "
                 "exposed in /metrics")

            # The schedule holds 5 failures; once consumed, a half-open
            # probe succeeds, the breaker closes, and the job completes.
            state_final = client.wait(ack["job_id"], timeout_s=300)
            if state_final["status"] != "done":
                fail(f"job never completed after recovery: {state_final}")
            health = client.health()
            if health["circuit"]["state"] != "closed":
                fail(f"breaker did not close after recovery: {health}")
            step("  ok: half-open probe recovered; job done, breaker closed")
        finally:
            daemon.stop()
    if len(state.fired) != 5:
        fail(f"expected 5 fired faults, got {state.fired}")


def phase_corrupt_store(tmp: str) -> None:
    step("phase 6: corrupt campaign store is quarantined, never a traceback")
    db = os.path.join(tmp, "corrupt.db")
    Path(db).write_bytes(b"this was never sqlite\n" * 64)
    proc = run_cli("campaign", "status", "--db", db)
    if proc.returncode != 2:
        fail(f"campaign status on a corrupt db exited {proc.returncode}, "
             f"expected 2:\n{proc.stdout}\n{proc.stderr}")
    if "Traceback" in proc.stderr:
        fail(f"corrupt store produced a raw traceback:\n{proc.stderr}")
    if "quarantined" not in proc.stderr:
        fail(f"corrupt store refusal does not mention quarantine:\n{proc.stderr}")
    if not Path(db + ".corrupt").exists():
        fail("corrupt database was not preserved for forensics")
    step("  ok: structured refusal, evidence moved to .corrupt")


def phase_torn_checkpoint(tmp: str) -> None:
    step("phase 7: torn checkpoint is refused with a structured error")
    from repro.core.config import TargetConfig, build_cosim
    from repro.resilience import save_checkpoint

    path = os.path.join(tmp, "torn.ckpt")
    cosim = build_cosim(TargetConfig(width=2, height=2, app="water", seed=3,
                                     scale=0.2, network_model="cycle"))
    cosim.run(max_cycles=400)
    save_checkpoint(cosim, path)
    blob = Path(path).read_bytes()
    Path(path).write_bytes(blob[: len(blob) // 2])  # the torn write
    proc = run_cli("resilience", "run", "--restore-from", path)
    if proc.returncode != 2:
        fail(f"restore from a torn checkpoint exited {proc.returncode}, "
             f"expected 2:\n{proc.stdout}\n{proc.stderr}")
    if "Traceback" in proc.stderr:
        fail(f"torn checkpoint produced a raw traceback:\n{proc.stderr}")
    if "torn write" not in proc.stderr:
        fail(f"refusal does not diagnose the torn write:\n{proc.stderr}")
    step("  ok: structured refusal names the torn write")


def main() -> int:
    tmp = tempfile.mkdtemp(prefix="chaos_smoke_")
    phase_determinism()
    phase_campaign_audits()
    phase_serve_audit()
    phase_cluster_audit()
    phase_daemon_crash(tmp)
    phase_breaker(tmp)
    phase_corrupt_store(tmp)
    phase_torn_checkpoint(tmp)
    step("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
