"""Content-hashed checkpoint/restore for the co-simulator.

A checkpoint is a pickle of the complete :class:`~repro.core.cosim.CoSimulator`
object graph taken at a synchronization-quantum boundary — the one point
where the system and the network agree on time and no delivery is half
transferred — plus the two module-global id counters (packet ids, message
ids) that live outside the graph.  The body is wrapped in an envelope
carrying a format version, the run's configuration token, and a SHA-256
digest of the body, so a restore refuses stale formats, checkpoints from a
*different* configuration, and truncated/corrupted files instead of silently
resuming the wrong simulation.

Because every scheduled event in the simulator is a bound method plus its
arguments (never a lambda or closure) the whole graph pickles, and because
restore reinstates the id counters, a restored run issues the same
packet/message ids it would have — the continuation is bit-identical to the
uninterrupted run.

:func:`job_checkpoint` / :func:`active_job_checkpoint` pass a checkpoint
request through the campaign layer without threading new parameters through
every call: the worker opens the context, and ``run_cosim`` deep inside
consults it.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pickle
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterator, Optional

from ..errors import CheckpointCorruptError, CheckpointError

__all__ = [
    "CHECKPOINT_VERSION",
    "Checkpointer",
    "save_checkpoint",
    "load_checkpoint",
    "job_checkpoint",
    "active_job_checkpoint",
    "JobCheckpoint",
]

#: v2 moved the envelope from a pickled dict to magic + JSON header + raw
#: body, so the content hash is verified *before* any ``pickle.loads`` —
#: a torn file can never reach the deserializer.  v3 keeps that envelope;
#: the body changed shape (pending events carry their arguments, messages
#: are slotted), so a v2 body is refused by version, never unpickled.
#: v4: a v3 body may pickle ``repro.noc_gpu.simd_network.SimdNetwork``, a
#: module that no longer exists (folded into :mod:`repro.engine`).
CHECKPOINT_VERSION = 4

#: file magic; also the format discriminator (v1 files started with the
#: pickle opcode ``\x80`` and are refused with a version message)
_MAGIC = b"REPROCKPT2\n"

#: chaos-injection shim (see :mod:`repro.chaos.inject`): when armed, called
#: with the final path after every atomic replace, so tests can model a
#: torn write that the rename could not prevent.  ``None`` (the default)
#: costs one identity check — this module never imports chaos.
CHAOS_SAVE_HOOK = None


def save_checkpoint(cosim, path: str, config_token: str = "") -> str:
    """Snapshot ``cosim`` to ``path`` atomically; returns the body digest.

    Layout: :data:`_MAGIC`, one JSON header line (version, config token,
    cycle, body SHA-256, body length), then the raw pickle body.  Keeping
    the header out of the pickle stream is what lets a restore authenticate
    the body without deserializing anything.
    """
    from ..fullsys.coherence import message_id_state
    from ..noc.packet import packet_id_state

    body = pickle.dumps(
        {
            "cosim": cosim,
            "packet_ids": packet_id_state(),
            "message_ids": message_id_state(),
        },
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    digest = hashlib.sha256(body).hexdigest()
    header = json.dumps(
        {
            "version": CHECKPOINT_VERSION,
            "config": config_token,
            "cycle": cosim.system.now,
            "sha256": digest,
            "body_len": len(body),
        },
        sort_keys=True,
    ).encode("utf-8")
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(header)
        fh.write(b"\n")
        fh.write(body)
    os.replace(tmp, path)  # atomic: a reader sees the old or the new file
    hook = CHAOS_SAVE_HOOK
    if hook is not None:
        hook(path)
    return digest


def _parse_envelope(path: str, blob: bytes):
    """Split ``blob`` into (header dict, body bytes), verifying structure.

    Raises :class:`CheckpointCorruptError` for anything that looks like a
    torn write and plain :class:`CheckpointError` for files that were never
    checkpoints (or are a stale format).
    """
    if not blob.startswith(_MAGIC):
        if blob.startswith(b"\x80"):  # a bare pickle: the v1 envelope
            raise CheckpointError(
                f"{path}: checkpoint format v1 != supported "
                f"v{CHECKPOINT_VERSION} (re-run to regenerate)"
            )
        raise CheckpointError(f"{path} is not a checkpoint envelope")
    try:
        newline = blob.index(b"\n", len(_MAGIC))
    except ValueError:
        raise CheckpointCorruptError(
            f"{path}: truncated checkpoint header (torn write)"
        ) from None
    try:
        header = json.loads(blob[len(_MAGIC) : newline].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointCorruptError(
            f"{path}: garbled checkpoint header (torn write): {exc}"
        ) from exc
    if not isinstance(header, dict):
        raise CheckpointCorruptError(f"{path}: garbled checkpoint header")
    return header, blob[newline + 1 :]


def load_checkpoint(path: str, expect_config: Optional[str] = None):
    """Restore a co-simulator from ``path``.

    The body's SHA-256 is verified against the header **before**
    ``pickle.loads`` runs — a truncated or corrupted snapshot raises
    :class:`~repro.errors.CheckpointCorruptError` without the torn bytes
    ever reaching the deserializer.
    """
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    header, body = _parse_envelope(path, blob)
    if header.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: checkpoint format v{header.get('version')} "
            f"!= supported v{CHECKPOINT_VERSION}"
        )
    if len(body) != header.get("body_len"):
        raise CheckpointCorruptError(
            f"{path}: body is {len(body)} bytes, header promised "
            f"{header.get('body_len')} (torn write)"
        )
    digest = hashlib.sha256(body).hexdigest()
    if digest != header.get("sha256"):
        raise CheckpointCorruptError(
            f"{path}: content hash mismatch (truncated or corrupted file)"
        )
    if expect_config is not None and header.get("config") != expect_config:
        raise CheckpointError(
            f"{path}: checkpoint belongs to a different configuration "
            f"({header.get('config')!r} != {expect_config!r})"
        )
    state = pickle.loads(body)

    from ..fullsys.coherence import restore_message_id_state
    from ..noc.packet import restore_packet_id_state

    restore_packet_id_state(state["packet_ids"])
    restore_message_id_state(state["message_ids"])
    return state["cosim"]


class Checkpointer:
    """Periodic checkpoint writer installed on a co-simulator.

    Args:
        path: checkpoint file (rewritten in place, atomically).
        every: take a snapshot every ``every`` synchronization windows.
        config_token: provenance string stored in the envelope; restore
            verifies it so a checkpoint can never resume a different run.
    """

    def __init__(self, path: str, every: int = 256, config_token: str = "") -> None:
        if every < 1:
            raise CheckpointError(f"checkpoint interval must be >= 1, got {every}")
        self.path = str(path)
        self.every = int(every)
        self.config_token = config_token
        self.saves = 0
        self.last_cycle: Optional[int] = None
        self._windows = 0

    def after_window(self, cosim, target: int) -> None:
        """Called by the co-simulator after every synchronization window."""
        self._windows += 1
        if self._windows % self.every != 0:
            return
        save_checkpoint(cosim, self.path, self.config_token)
        self.saves += 1
        self.last_cycle = target

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Checkpointer({self.path!r}, every={self.every}, saves={self.saves})"


@dataclass(frozen=True)
class JobCheckpoint:
    """A campaign worker's checkpoint request for the run it executes."""

    path: str
    every: int = 256


_active_checkpoint: ContextVar[Optional[JobCheckpoint]] = ContextVar(
    "repro_active_job_checkpoint", default=None
)


@contextlib.contextmanager
def job_checkpoint(path: str, every: int = 256) -> Iterator[JobCheckpoint]:
    """Scope within which ``run_cosim`` checkpoints to ``path``.

    The campaign worker wraps job execution in this context; the harness
    consults :func:`active_job_checkpoint` when building the simulator, and
    resumes from ``path`` if a previous (killed) attempt left one behind.
    """
    spec = JobCheckpoint(path=str(path), every=int(every))
    token = _active_checkpoint.set(spec)
    try:
        yield spec
    finally:
        _active_checkpoint.reset(token)


def active_job_checkpoint() -> Optional[JobCheckpoint]:
    """The enclosing :func:`job_checkpoint` request, if any."""
    return _active_checkpoint.get()
