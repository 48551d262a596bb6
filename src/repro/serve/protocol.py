"""The serve wire protocol: submission canonicalization + HTTP framing.

Two halves live here so that :mod:`repro.serve.server` is routing and
lifecycle only:

* **canonicalization** — a client submission (a JSON object) becomes the
  exact :class:`repro.campaign.spec.JobSpec` the campaign engine would
  build for the same work, so the job's SHA-256 content hash — and
  therefore its cache identity — is shared between ``python -m repro
  campaign`` and the daemon.  Key order, omitted defaults, and equivalent
  spellings all collapse to one id; anything that changes the result
  (seed, sweep point, quick flag, replicate) changes the id.

* **HTTP framing** — a deliberately small HTTP/1.1 subset, defined once
  for both ends as pure functions over byte buffers: a start line,
  ``Name: value`` headers, a ``Content-Length`` body, persistent
  connections by default (``Connection: keep-alive`` unless the client
  asked to close or the daemon is draining).  :func:`parse_request` /
  :func:`render_response` are the daemon's half, :func:`render_request`
  / :func:`parse_response` the half :class:`~repro.serve.client.ServeClient`
  and the cluster's peer RPC share.  No chunked transfer, no
  continuation lines, no trailers: enough for ``curl``, the stdlib
  clients and Prometheus scrapers; nothing more.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from ..campaign.spec import JobSpec, get_experiment
from ..errors import ConfigError, FramingError

__all__ = [
    "PROTOCOL_VERSION",
    "API_PREFIX",
    "MAX_BODY_BYTES",
    "MAX_HEAD_BYTES",
    "Request",
    "Response",
    "canonicalize_submission",
    "parse_request",
    "parse_response",
    "render_request",
    "render_response",
]

#: bump on incompatible wire-format change (clients send it, daemon checks)
PROTOCOL_VERSION = 1

API_PREFIX = "/api/v1"

#: request bodies past this size are refused with 413 (a submission is
#: a few hundred bytes; anything larger is a client bug)
MAX_BODY_BYTES = 1 << 20

#: a start line plus headers past this size is refused with 431
MAX_HEAD_BYTES = 64 << 10

#: what the parsers read from: a socket's accumulated bytes
Buffer = Union[bytes, bytearray]

#: submission keys that are part of the job identity
_SPEC_KEYS = {"eid", "point", "point_index", "quick", "seed", "replicate"}
#: submission keys that are transport metadata, never hashed
_META_KEYS = {"client", "v"}


def canonicalize_submission(data: Mapping[str, Any]) -> Tuple[JobSpec, str]:
    """Turn a submission JSON object into ``(job_spec, client_id)``.

    The spec is validated against the campaign experiment registry (the
    service catalog): the experiment must exist, the point index must be
    in range, and an explicit ``point`` must match the registry's grid —
    otherwise two spellings of the same work would hash apart, or a job
    would be admitted that no worker can run.
    """
    if not isinstance(data, Mapping):
        raise ConfigError(
            f"submission must be a JSON object, got {type(data).__name__}"
        )
    unknown = sorted(set(data) - _SPEC_KEYS - _META_KEYS)
    if unknown:
        raise ConfigError(
            f"unknown submission field(s) {', '.join(unknown)}; "
            f"accepted: {', '.join(sorted(_SPEC_KEYS | _META_KEYS))}"
        )
    version = data.get("v", PROTOCOL_VERSION)
    if version != PROTOCOL_VERSION:
        raise ConfigError(
            f"unsupported serve protocol version {version!r} "
            f"(this daemon speaks version {PROTOCOL_VERSION})"
        )
    eid = data.get("eid")
    if not isinstance(eid, str):
        raise ConfigError("submission needs an 'eid' string (see /api/v1/catalog)")
    experiment = get_experiment(eid)  # raises ConfigError on unknown eid
    quick = data.get("quick", False)
    if not isinstance(quick, bool):
        raise ConfigError(f"'quick' must be a boolean, got {quick!r}")
    replicate = data.get("replicate", 0)
    if not isinstance(replicate, int) or replicate < 0:
        raise ConfigError(f"'replicate' must be a non-negative integer, got {replicate!r}")
    seed = data.get("seed")
    if seed is None:
        seed = experiment.default_seed
    if not isinstance(seed, int):
        raise ConfigError(f"'seed' must be an integer, got {seed!r}")

    points = experiment.points(quick)
    if "point" in data and "point_index" not in data:
        # Submissions may name the sweep point itself; resolve it to its
        # grid position so both spellings share one content hash.
        try:
            point_index = points.index(data["point"])
        except ValueError:
            raise ConfigError(
                f"point {data['point']!r} is not on {eid}'s grid "
                f"(quick={quick}); see /api/v1/catalog"
            ) from None
    else:
        point_index = data.get("point_index", 0)
    if not isinstance(point_index, int) or not 0 <= point_index < len(points):
        raise ConfigError(
            f"'point_index' must be in [0, {len(points)}) for {eid} "
            f"(quick={quick}), got {point_index!r}"
        )
    point = points[point_index]
    if "point" in data and data["point"] != point:
        raise ConfigError(
            f"submitted point {data['point']!r} is not {eid}'s point "
            f"#{point_index} ({point!r}); submit by point_index against "
            "the catalog grid"
        )
    client = data.get("client", "anon")
    if not isinstance(client, str) or not client:
        raise ConfigError(f"'client' must be a non-empty string, got {client!r}")
    spec = JobSpec(
        eid=eid,
        point_index=point_index,
        point=point,
        quick=quick,
        seed=seed,
        replicate=replicate,
    )
    return spec, client


# ----------------------------------------------------------------------
# HTTP framing
# ----------------------------------------------------------------------
_REASONS = {
    200: "OK",
    307: "Temporary Redirect",
    400: "Bad Request",
    404: "Not Found",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    headers: Dict[str, str]
    body: bytes

    def json(self) -> Any:
        if not self.body:
            return {}
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"request body is not valid JSON: {exc}") from exc


@dataclass
class Response:
    """One parsed HTTP response (header names lower-cased).

    ``keep_alive`` is False when the socket cannot carry another
    exchange: the peer said ``Connection: close``, the body was delimited
    by EOF, or bytes followed the body.
    """

    status: int
    headers: Dict[str, str]
    body: bytes
    keep_alive: bool


def _split_head(buffer: Buffer, start: int) -> Optional[Tuple[str, Dict[str, str], int]]:
    """``(start line, headers, body offset)`` of the message at ``start``.

    None while the blank line that ends the head has not arrived.  Lines
    may end in CRLF or a bare LF.  A head past :data:`MAX_HEAD_BYTES`,
    complete or not, raises :class:`FramingError` with status 431.
    """
    crlf, lf = buffer.find(b"\n\r\n", start), buffer.find(b"\n\n", start)
    if lf < 0 or 0 <= crlf < lf:
        end, body = crlf, crlf + 3
    else:
        end, body = lf, lf + 2
    if (len(buffer) if end < 0 else end) - start > MAX_HEAD_BYTES:
        raise FramingError(
            f"HTTP head exceeds the {MAX_HEAD_BYTES}-byte limit", status=431
        )
    if end < 0:
        return None
    lines = buffer[start:end].decode("latin-1").split("\n")
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        name, colon, value = line.partition(":")
        if not colon:
            raise FramingError(f"malformed HTTP header {line.strip()!r}")
        headers[name.strip().lower()] = value.strip()
    if "transfer-encoding" in headers:
        raise FramingError(
            "Transfer-Encoding is not supported; bodies are Content-Length framed"
        )
    return lines[0].rstrip("\r"), headers, body


def _content_length(headers: Mapping[str, str]) -> Optional[int]:
    text = headers.get("content-length")
    if text is None:
        return None
    if not (text.isascii() and text.isdigit()):
        raise FramingError(f"bad Content-Length {text!r}")
    return int(text)


def parse_request(buffer: Buffer) -> Tuple[Optional[Request], int]:
    """Parse the first request in ``buffer``: ``(request, bytes consumed)``.

    ``(None, n)`` while the request is incomplete (``n`` counts only blank
    lines skipped before the request line); the caller drops ``consumed``
    bytes and calls again when more arrive, so any chunking of a byte
    stream parses to the same requests.  Raises :class:`FramingError` —
    400 malformed, 413 body past :data:`MAX_BODY_BYTES`, 431 head past
    :data:`MAX_HEAD_BYTES` — as soon as the bytes seen decide it.
    """
    start, size = 0, len(buffer)
    while start < size and buffer[start] in b"\r\n":
        start += 1
    head = _split_head(buffer, start)
    if head is None:
        return None, start
    line, headers, body = head
    parts = line.split()
    if len(parts) != 3 or not line.isascii() or not parts[2].startswith("HTTP/1."):
        raise FramingError("malformed HTTP request line")
    length = _content_length(headers) or 0
    if length > MAX_BODY_BYTES:
        raise FramingError(
            f"request body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte limit",
            status=413,
        )
    end = body + length
    if size < end:
        return None, start
    request = Request(parts[0].upper(), parts[1], headers, bytes(buffer[body:end]))
    return request, end


def parse_response(buffer: Buffer, eof: bool = False) -> Optional[Response]:
    """Parse the response in ``buffer``; None while it is incomplete.

    ``eof`` says the peer has closed: a response without
    ``Content-Length`` then ends there (and its socket is not reusable);
    one cut short of its ``Content-Length`` stays None — the caller
    decides what a truncated answer means.  Raises :class:`FramingError`
    for a malformed head or a ``Transfer-Encoding`` this subset omits.
    """
    head = _split_head(buffer, 0)
    if head is None:
        return None
    line, headers, body = head
    parts = line.split(None, 2)
    if (
        len(parts) < 2
        or not parts[0].startswith("HTTP/1.")
        or len(parts[1]) != 3
        or not (parts[1].isascii() and parts[1].isdigit())
    ):
        raise FramingError(f"malformed HTTP status line {line[:80]!r}")
    length = _content_length(headers)
    if length is None:
        if not eof:
            return None
        return Response(int(parts[1]), headers, bytes(buffer[body:]), False)
    end = body + length
    if len(buffer) < end:
        return None
    keep_alive = (
        len(buffer) == end
        and parts[0] != "HTTP/1.0"
        and headers.get("connection", "").lower() != "close"
    )
    return Response(int(parts[1]), headers, bytes(buffer[body:end]), keep_alive)


def render_request(
    method: str,
    path: str,
    host: str,
    body: Optional[bytes] = None,
    content_type: str = "application/json",
) -> bytes:
    """One full HTTP/1.1 request, head and body in one buffer."""
    lines = [f"{method} {path} HTTP/1.1", f"Host: {host}"]
    if body is not None:
        lines.append(f"Content-Type: {content_type}")
        lines.append(f"Content-Length: {len(body)}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")
    return head + body if body else head


def render_response(
    status: int,
    body: bytes,
    content_type: str = "application/json",
    extra_headers: Optional[Mapping[str, str]] = None,
    keep_alive: bool = False,
) -> bytes:
    """One full HTTP/1.1 response.

    ``keep_alive`` controls the ``Connection`` header: the server passes
    True while it intends to read another request off the same socket,
    False on close/drain paths.
    """
    reason = _REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")
    return head + body
