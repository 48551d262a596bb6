"""Persistence for experiment results.

Experiments are minutes-long; saving their row data lets reports, plots, and
regression comparisons run without re-simulating.  The format is plain JSON
with a schema version, so saved results stay readable as the library evolves.

:func:`result_to_dict` / :func:`result_from_dict` expose the schema itself:
the campaign job store (:mod:`repro.campaign.store`) records exactly these
payloads, so ``campaign report`` and the file-based workflow read one format.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List

from ..errors import ConfigError
from .experiments import ExperimentResult

__all__ = [
    "SCHEMA_VERSION",
    "result_to_dict",
    "result_from_dict",
    "save_result",
    "load_result",
    "save_all",
    "load_all",
]

#: current experiment-result schema version (bump on incompatible change)
SCHEMA_VERSION = 1


def result_to_dict(result: ExperimentResult) -> dict:
    """The JSON-able form of one result (schema-versioned)."""
    return {
        "schema": SCHEMA_VERSION,
        "eid": result.eid,
        "title": result.title,
        "headers": list(result.headers),
        "rows": [list(row) for row in result.rows],
        # [key, value] pairs, not an object: a campaign store writes
        # sorted-key JSON, and notes render in the order they were written
        "notes": [[key, value] for key, value in result.notes.items()],
        "figures": list(result.figures),
    }


def result_from_dict(data: dict, source: str = "result") -> ExperimentResult:
    """Rebuild a result from :func:`result_to_dict` output.

    ``notes`` may also be a JSON object, as payloads written before notes
    became pairs store it.  Raises :class:`ConfigError` — never ``KeyError`` — on files from a
    different schema version or with missing/malformed fields, so callers
    can distinguish "bad file" from a library bug.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{source}: expected a JSON object, got {type(data).__name__}")
    found = data.get("schema")
    if found != SCHEMA_VERSION:
        raise ConfigError(
            f"{source}: unsupported experiment-result schema {found!r} "
            f"(this library reads schema {SCHEMA_VERSION}; a newer version "
            "of repro probably wrote this file)"
        )
    try:
        return ExperimentResult(
            eid=data["eid"],
            title=data["title"],
            headers=list(data["headers"]),
            rows=[tuple(row) for row in data["rows"]],
            notes=dict(data["notes"]),
            figures=list(data.get("figures", [])),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{source}: malformed experiment-result payload: {exc!r}") from exc


def save_result(result: ExperimentResult, path: str | Path) -> None:
    """Write one result as JSON."""
    Path(path).write_text(
        json.dumps(result_to_dict(result), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def load_result(path: str | Path) -> ExperimentResult:
    """Read a result written by :func:`save_result`."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    return result_from_dict(data, source=str(path))


def save_all(results: List[ExperimentResult], directory: str | Path) -> List[Path]:
    """Save every result as ``<eid>.json`` under ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for result in results:
        path = directory / f"{result.eid}.json"
        save_result(result, path)
        paths.append(path)
    return paths


def load_all(directory: str | Path) -> List[ExperimentResult]:
    """Load every ``*.json`` result under ``directory``, sorted by eid."""
    directory = Path(directory)
    results = [load_result(p) for p in sorted(directory.glob("*.json"))]
    return sorted(results, key=lambda r: (len(r.eid), r.eid))
