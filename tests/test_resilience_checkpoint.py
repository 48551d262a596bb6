"""Checkpoint/restore: bit-identical resume, corruption detection, SIGKILL.

The subprocess test is the package's acceptance scenario (the analogue of
``test_campaign_equivalence.py`` for resilience): a faulty co-simulation is
SIGKILLed mid-flight, restored from its last quantum-boundary snapshot in a
fresh process, and must produce the *byte-identical* JSON metric dump an
uninterrupted run produces.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.core.config import TargetConfig, build_cosim
from repro.errors import CheckpointCorruptError, CheckpointError
from repro.resilience import (
    FaultConfig,
    load_checkpoint,
    save_checkpoint,
)
from repro.resilience.checkpoint import CHECKPOINT_VERSION, Checkpointer

SRC = str(Path(repro.__file__).resolve().parent.parent)

SMALL = dict(width=2, height=2, app="water", seed=3, scale=0.2,
             network_model="cycle")


class TestRoundTrip:
    def test_restore_is_bit_identical(self, tmp_path):
        reference = build_cosim(TargetConfig(**SMALL)).run()
        partial = build_cosim(TargetConfig(**SMALL))
        partial.run(max_cycles=800)
        path = str(tmp_path / "run.ckpt")
        save_checkpoint(partial, path, config_token="t")
        restored = load_checkpoint(path, expect_config="t")
        result = restored.run()
        assert result.finish_cycle == reference.finish_cycle
        assert result.deliveries == reference.deliveries
        assert result.applied_latencies == reference.applied_latencies
        assert result.system_summary == reference.system_summary

    def test_restore_under_faults_is_bit_identical(self, tmp_path):
        config = TargetConfig(
            width=4, height=4, app="fft", seed=3, scale=0.05,
            network_model="cycle", quantum=4,
            faults=FaultConfig(seed=9, link_failures=1, corrupt_rate=0.01,
                               window=1_000),
        )
        reference = build_cosim(config).run()
        partial = build_cosim(config)
        partial.run(max_cycles=2_000)  # past the fault window: degraded state
        path = str(tmp_path / "faulty.ckpt")
        save_checkpoint(partial, path)
        result = load_checkpoint(path).run()
        assert result.finish_cycle == reference.finish_cycle
        assert result.applied_latencies == reference.applied_latencies
        assert (
            result.network_description["resilience"]
            == reference.network_description["resilience"]
        )

    def test_inline_model_restore_is_bit_identical(self, tmp_path):
        # The inline (table) model schedules its deliveries straight into
        # the event heap, so a mid-run snapshot holds argument-carrying
        # send, dispatch and delivery events for messages still in flight.
        config = TargetConfig(**{**SMALL, "network_model": "table"})
        reference = build_cosim(config).run()
        partial = build_cosim(config)
        partial.run(max_cycles=800)
        assert partial.system.events.pending > 0
        path = str(tmp_path / "inline.ckpt")
        save_checkpoint(partial, path, config_token="t")
        result = load_checkpoint(path, expect_config="t").run()
        for name in ("wall_system", "wall_network", "wall_total"):
            setattr(result, name, getattr(reference, name))
        assert result == reference

    def test_checkpointer_saves_periodically(self, tmp_path):
        path = str(tmp_path / "auto.ckpt")
        cosim = build_cosim(TargetConfig(**SMALL))
        cosim.checkpointer = Checkpointer(path, every=16)
        cosim.run(max_cycles=600)
        assert cosim.checkpointer.saves >= 1
        assert os.path.exists(path)
        restored = load_checkpoint(path)
        assert restored.system.now == cosim.checkpointer.last_cycle


class TestValidation:
    def _snapshot(self, tmp_path, token=""):
        cosim = build_cosim(TargetConfig(**SMALL))
        cosim.run(max_cycles=200)
        path = str(tmp_path / "snap.ckpt")
        save_checkpoint(cosim, path, config_token=token)
        return path

    def test_corrupt_body_detected_by_hash(self, tmp_path):
        path = self._snapshot(tmp_path)
        blob = bytearray(Path(path).read_bytes())
        blob[-20] ^= 0xFF  # flip one byte deep in the pickled body
        Path(path).write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="hash"):
            load_checkpoint(path)

    def test_config_mismatch_refused(self, tmp_path):
        path = self._snapshot(tmp_path, token="config-a")
        with pytest.raises(CheckpointError, match="config"):
            load_checkpoint(path, expect_config="config-b")

    def test_truncated_file_refused(self, tmp_path):
        path = self._snapshot(tmp_path)
        Path(path).write_bytes(Path(path).read_bytes()[:40])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_not_a_checkpoint_refused(self, tmp_path):
        path = tmp_path / "noise.ckpt"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))


class TestEnvelopeV2:
    """The v2 envelope: verify-before-unpickle, torn-write taxonomy."""

    def _snapshot(self, tmp_path):
        cosim = build_cosim(TargetConfig(**SMALL))
        cosim.run(max_cycles=200)
        path = str(tmp_path / "snap.ckpt")
        save_checkpoint(cosim, path)
        return path

    def test_envelope_leads_with_magic_and_json_header(self, tmp_path):
        path = self._snapshot(tmp_path)
        blob = Path(path).read_bytes()
        assert blob.startswith(b"REPROCKPT2\n")
        header = json.loads(
            blob[len(b"REPROCKPT2\n"):].split(b"\n", 1)[0]
        )
        assert header["version"] == CHECKPOINT_VERSION == 4
        assert len(header["sha256"]) == 64
        assert header["body_len"] > 0

    def test_torn_body_is_corrupt_not_generic(self, tmp_path):
        # The chaos tear: half the file is gone, the header may survive.
        path = self._snapshot(tmp_path)
        blob = Path(path).read_bytes()
        Path(path).write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointCorruptError, match="torn write"):
            load_checkpoint(path)

    def test_torn_header_is_corrupt(self, tmp_path):
        path = self._snapshot(tmp_path)
        # cut inside the header line: magic intact, no newline follows
        Path(path).write_bytes(Path(path).read_bytes()[:20])
        with pytest.raises(CheckpointCorruptError, match="header"):
            load_checkpoint(path)

    def test_flipped_body_byte_never_reaches_pickle(self, tmp_path, monkeypatch):
        import pickle

        path = self._snapshot(tmp_path)
        blob = bytearray(Path(path).read_bytes())
        blob[-30] ^= 0xFF
        Path(path).write_bytes(bytes(blob))

        def forbidden(*a, **k):  # pragma: no cover - the assertion
            raise AssertionError("pickle.loads ran on unverified bytes")

        monkeypatch.setattr(pickle, "loads", forbidden)
        with pytest.raises(CheckpointCorruptError, match="hash mismatch"):
            load_checkpoint(path)

    def test_v1_bare_pickle_refused_with_version_message(self, tmp_path):
        import pickle

        path = str(tmp_path / "old.ckpt")
        Path(path).write_bytes(
            pickle.dumps({"version": 1}, protocol=pickle.HIGHEST_PROTOCOL)
        )
        with pytest.raises(CheckpointError, match="format v1"):
            load_checkpoint(path)

    @staticmethod
    def _stale_body_refused(version, tmp_path, monkeypatch):
        # Same envelope, older body: it must be refused with the
        # structured version message, not unpickled into a crash later.
        import hashlib
        import pickle

        body = f"a v{version} pickle body".encode("ascii")
        header = json.dumps({
            "version": version, "config": "", "cycle": 0, "body_len": len(body),
            "sha256": hashlib.sha256(body).hexdigest(),
        }).encode("utf-8")
        path = tmp_path / f"v{version}.ckpt"
        path.write_bytes(b"REPROCKPT2\n" + header + b"\n" + body)

        def forbidden(*a, **k):  # pragma: no cover - the assertion
            raise AssertionError("pickle.loads ran on a stale-format body")

        monkeypatch.setattr(pickle, "loads", forbidden)
        with pytest.raises(
            CheckpointError, match=f"format v{version} != supported v4"
        ):
            load_checkpoint(str(path))

    def test_v2_body_refused_by_version_before_unpickling(self, tmp_path, monkeypatch):
        # A snapshot written before events carried their arguments.
        self._stale_body_refused(2, tmp_path, monkeypatch)

    def test_v3_body_refused_by_version_before_unpickling(self, tmp_path, monkeypatch):
        # A snapshot written when ``engine="oo"`` pickled the since-deleted
        # ``repro.noc_gpu.simd_network.SimdNetwork``: past the version gate
        # ``pickle.loads`` would die with ModuleNotFoundError.
        self._stale_body_refused(3, tmp_path, monkeypatch)

    def test_corrupt_error_is_a_checkpoint_error(self):
        # Callers catching the broad class keep working.
        assert issubclass(CheckpointCorruptError, CheckpointError)

    def test_runner_discards_corrupt_checkpoint_and_restarts(self, tmp_path):
        # The campaign-worker resume path: a torn snapshot costs the
        # resume, never the job — run_cosim deletes it, restarts from
        # cycle 0, and determinism makes the rerun indistinguishable.
        from repro.harness.runner import run_cosim
        from repro.resilience.checkpoint import job_checkpoint

        reference = build_cosim(TargetConfig(**SMALL)).run()
        path = tmp_path / "job.ckpt"
        cosim = build_cosim(TargetConfig(**SMALL))
        cosim.run(max_cycles=400)
        save_checkpoint(cosim, str(path))
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])  # the torn write
        with job_checkpoint(str(path), every=10_000):
            result = run_cosim(TargetConfig(**SMALL), cache=False)
        assert result.finish_cycle == reference.finish_cycle
        assert result.deliveries == reference.deliveries
        assert not path.exists()  # finished runs owe nobody a resume point


class TestSigkillRestore:
    """Kill a faulty run mid-flight; the restored run must match byte-for-byte."""

    ARGS = [
        "--width", "4", "--height", "4", "--app", "fft", "--seed", "3",
        "--scale", "0.05", "--link-failures", "1", "--corrupt-rate", "0.01",
        "--fault-window", "1000",
    ]

    def _cli(self, *args):
        env = dict(os.environ, PYTHONPATH=SRC)
        return subprocess.run(
            [sys.executable, "-m", "repro", "resilience", "run", *args],
            capture_output=True, text=True, env=env, timeout=300,
        )

    def test_sigkill_then_restore_matches_uninterrupted(self, tmp_path):
        reference_json = tmp_path / "reference.json"
        proc = self._cli(*self.ARGS, "--json-out", str(reference_json))
        assert proc.returncode == 0, proc.stderr

        ckpt = tmp_path / "victim.ckpt"
        victim_json = tmp_path / "victim.json"
        env = dict(os.environ, PYTHONPATH=SRC)
        victim = subprocess.Popen(
            [sys.executable, "-m", "repro", "resilience", "run",
             *self.ARGS, "--checkpoint", str(ckpt), "--checkpoint-every", "32"],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env,
        )
        # Wait for at least one snapshot to land, then kill without warning.
        deadline = time.monotonic() + 120
        while not ckpt.exists() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert ckpt.exists(), "victim produced no checkpoint before deadline"
        victim.send_signal(signal.SIGKILL)
        victim.wait(timeout=30)
        assert victim.returncode != 0

        proc = self._cli("--restore-from", str(ckpt),
                         "--json-out", str(victim_json))
        assert proc.returncode == 0, proc.stderr
        assert "restored snapshot" in proc.stdout
        assert victim_json.read_bytes() == reference_json.read_bytes()
        restored = json.loads(victim_json.read_text())
        assert restored["finish_cycle"] is not None
        assert restored["network_description"]["resilience"]["outstanding"] == 0
