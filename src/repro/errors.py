"""Exception hierarchy for the :mod:`repro` library.

Every error raised deliberately by the library derives from
:class:`ReproError`, so callers can catch library failures without also
swallowing programming errors such as :class:`TypeError`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """A configuration value is invalid or inconsistent with another value."""


class TopologyError(ReproError):
    """A topology query referenced a router, node, or port that does not exist."""


class RoutingError(ReproError):
    """A routing function could not produce a legal output port."""


class ProtocolError(ReproError):
    """The coherence protocol reached a state it should never reach.

    Raised instead of silently corrupting simulation state; it always
    indicates a bug in the protocol tables, not a user mistake.
    """


class SimulationError(ReproError):
    """A simulator was driven in an unsupported way (e.g. stepping backwards)."""


class InvariantError(SimulationError):
    """A runtime invariant check failed (see :mod:`repro.analysis.invariants`).

    Raised when a co-simulation run violates message conservation,
    time monotonicity, or NoC credit/VC conservation — always a bug in
    the simulator or a model, never a user mistake.
    """


class WorkloadError(ReproError):
    """A workload description is malformed or exhausted unexpectedly."""


class StallError(SimulationError):
    """A simulation stopped making forward progress (stall or livelock).

    Raised by the resilience watchdog (:mod:`repro.resilience.watchdog`) and
    by ``drain`` paths when a cycle cap is hit.  Carries a structured
    diagnostic dump (``diagnostics``) describing per-router VC occupancy,
    the oldest in-flight packet, and the invariant-checker summary, so a
    stalled job fails loudly with evidence instead of burning its whole
    wall-clock timeout budget.
    """

    def __init__(self, message: str, diagnostics: object = None) -> None:
        super().__init__(message)
        self.diagnostics = diagnostics


class FaultError(ReproError):
    """A fault schedule is unsatisfiable or degradation cannot preserve safety.

    Raised when a requested fault schedule would partition the network (and
    partitions were not explicitly allowed) or when the degraded routing
    function fails the channel-dependency-graph re-check.
    """


class ServeError(ReproError):
    """A simulation-service request failed (daemon side or client side).

    Carries the HTTP status code the daemon answered with (0 when the
    failure happened before a response arrived, e.g. connection refused).
    """

    def __init__(self, message: str, status: int = 0) -> None:
        super().__init__(message)
        self.status = status


class FramingError(ConfigError):
    """An HTTP message does not fit the wire subset ``repro.serve`` speaks.

    ``status`` is what the daemon answers before closing the connection:
    400 for malformed framing, 413 for a body past the size limit, 431
    for a head past it.  A client treats one as a transport failure.
    """

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


class BackpressureError(ServeError):
    """The daemon refused a submission because its queue is full.

    ``retry_after_s`` is the daemon's own estimate of when capacity will
    free up (the ``Retry-After`` header); clients should back off at least
    that long before resubmitting.
    """

    def __init__(self, message: str, retry_after_s: float) -> None:
        super().__init__(message, status=429)
        self.retry_after_s = retry_after_s


class CheckpointError(ReproError):
    """A checkpoint could not be written, read, or safely restored.

    Raised on content-hash mismatch (corrupt snapshot), version skew, or an
    attempt to restore a checkpoint into a different configuration than the
    one that produced it.
    """


class CheckpointCorruptError(CheckpointError):
    """A checkpoint file failed content verification *before* deserializing.

    Raised when the recorded SHA-256 does not match the body bytes, or the
    file is truncated/garbled — i.e. a torn write.  Distinct from plain
    :class:`CheckpointError` (version skew, wrong configuration) because the
    safe reaction differs: a torn snapshot is discarded and the run restarts
    from cycle 0, whereas skew/config mismatches are caller bugs.
    """


class StoreIOError(ReproError):
    """The campaign result store could not durably commit a transaction.

    Wraps the underlying ``sqlite3``/``OSError`` (disk full, I/O error,
    database locked beyond the busy timeout).  The transaction has been
    rolled back; the connection remains usable, so callers may retry the
    whole state transition.
    """


class StoreCorruptError(ReproError):
    """The campaign result store failed its opening integrity check.

    The damaged file has been quarantined (renamed aside, path in
    ``quarantined_to``) so no writer can extend a corrupt database and no
    resume can trust rows from one; the original path is free for a fresh
    store.
    """

    def __init__(self, message: str, path: str = "", quarantined_to: str = "") -> None:
        super().__init__(message)
        self.path = path
        self.quarantined_to = quarantined_to


class ClusterError(ServeError):
    """A cluster-level operation failed (ring, membership, or peer RPC).

    A :class:`ServeError` subtype: the cluster is the multi-node face of
    the serve layer, and callers that already handle serve failures get
    cluster failures for free.
    """


class ChaosError(ReproError):
    """A chaos schedule is invalid or an audit could not be carried out.

    Configuration mistakes (negative counts, unknown crash points) and
    audit-harness failures (component would not restart within budget)
    raise this; *audit verdicts* do not — a failed audit is a report, not
    an exception.
    """


class ChaosCrash(BaseException):
    """A simulated process death injected by :mod:`repro.chaos`.

    Deliberately **not** a :class:`ReproError` — not even an
    :class:`Exception` — because a crash is not a condition to handle:
    generic ``except Exception`` recovery paths must not swallow it, exactly
    as they could not swallow a real SIGKILL.  Only chaos-aware restart
    harnesses (the audit loop, the scheduler's crash latch) may catch it,
    and their reaction must be "the component died; restart it", never
    "carry on".
    """

    def __init__(self, point: str) -> None:
        super().__init__(f"chaos: simulated crash at {point}")
        self.point = point
