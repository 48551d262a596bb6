"""The lint pipeline: one walk, one parse per file, one report.

``python -m repro lint`` runs the classic, deep and kernel rule families
over one collection of files; ``--deep`` and ``--kernels`` only choose
families.  Each file is parsed at most once per run, however many
families read its tree.
"""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import io
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro.harness.cli import main

PACKAGE = Path(repro.__file__).resolve().parent
REPO = PACKAGE.parent.parent
MISSING = "/nonexistent/lint-root"


def _lint(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(["lint", *argv])
    return status, out.getvalue()


def test_deep_kernels_parses_each_file_at_most_once(monkeypatch, tmp_path):
    parsed = []
    real_parse = ast.parse

    def counting_parse(source, filename="<unknown>", *args, **kwargs):
        parsed.append(filename)
        return real_parse(source, filename, *args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    status, out = _lint([
        "--path", str(PACKAGE), "--deep", "--kernels", "--no-cache",
        "--baseline", str(tmp_path / "baseline.json"),
    ])
    files = [p for p in PACKAGE.rglob("*.py") if "__pycache__" not in p.parts]
    assert (status, out) == (0, "simlint: clean\n")
    assert len(parsed) <= len(files)
    assert Counter(parsed).most_common(1)[0][1] == 1


@pytest.mark.parametrize("families", [[], ["--deep"], ["--kernels"]])
def test_missing_path_answers_json_under_format_json(families):
    status, out = _lint(["--format", "json", "--path", MISSING, *families])
    assert status == 2
    assert json.loads(out) == {"ok": False, "error": f"path {MISSING} does not exist"}


def test_missing_path_becomes_one_ci_annotation(monkeypatch, capsys):
    _, out = _lint(["--format", "json", "--path", MISSING])
    spec = importlib.util.spec_from_file_location(
        "lint_annotations", REPO / "scripts" / "lint_annotations.py"
    )
    annotations = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(annotations)
    monkeypatch.setattr(sys, "stdin", io.StringIO(out))
    assert annotations.main(["lint_annotations.py"]) == 2
    assert capsys.readouterr().out == f"::error::path {MISSING} does not exist\n"
