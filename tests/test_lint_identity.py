"""Identity of ``python -m repro lint``: every report byte for byte.

Running the classic (SIM1xx), deep (SIM2xx) and kernel (SIM3xx) rule
families through one pipeline must not move one finding, one statistic
or one byte of a report.  ``fixtures/lint_digests.json`` holds digests
recorded from the commit *before* the three passes became one pipeline: the
stdout and exit status of in-process ``main(["lint", ...])`` for

(a) seven roots — the package tree, the five lint fixture directories,
    and a kernel root (the SIM3xx fixtures laid out under ``engine/``,
    where the default scoping analyses them) — times four family sets
    (none, ``--deep``, ``--kernels``, ``--deep --kernels``) times three
    formats (text, json, ``sarif --prefix src/repro/``);
(b) ``--stats --no-cache`` bare, with ``--kernels`` and with ``--deep
    --kernels`` over every root but the tree (the tree's function and
    edge counts move with every commit; its reports only read "clean");
(c) a one-entry ``--baseline`` per family set that names a finding of
    that family (a classic-only run must not read it);
(d) the stdout and the file ``--update-baseline`` writes, for
    ``--deep`` and for ``--kernels``, over every root but the tree;
(e) the text answer to a ``--path`` that does not exist.

Every run names its ``--baseline`` and uses ``--no-cache`` or a
temporary ``--cache-dir``, so nothing in the working directory leaks in.
A SARIF report lists the rules of all three families whatever the
process imported, so the digests do not depend on which tests ran before.

Re-record only from a commit whose outputs are known good::

    PYTHONPATH=src python -m tests.test_lint_identity --record
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

import repro
from repro.harness.cli import main

DIGESTS = Path(__file__).parent / "fixtures" / "lint_digests.json"
FIXTURES = Path(__file__).parent / "fixtures"
PACKAGE = Path(repro.__file__).resolve().parent

FIXTURE_ROOTS = ("simlint", "simlint_serve", "simlint_cluster", "flow", "arrays", "kernels")
ROOTS = ("tree",) + FIXTURE_ROOTS
FAMILIES = {
    "classic": [],
    "deep": ["--deep"],
    "kernels": ["--kernels"],
    "deep-kernels": ["--deep", "--kernels"],
}
FORMATS = {
    "text": [],
    "json": ["--format", "json"],
    "sarif": ["--format", "sarif", "--prefix", "src/repro/"],
}
STATS = {
    "stats": ["--stats"],
    "stats-kernels": ["--stats", "--kernels"],
    "stats-deep-kernels": ["--stats", "--deep", "--kernels"],
}
#: family set -> (root, rule-code prefix of the one finding its baseline names)
ONE_ENTRY_BASELINES = {
    "classic": ("simlint", "SIM1"),
    "deep": ("flow", "SIM2"),
    "kernels": ("kernels", "SIM3"),
    "deep-kernels": ("kernels", "SIM3"),
}
UPDATE_FAMILIES = ("deep", "kernels")
MISSING = "/nonexistent/lint-root"

CASES = (
    [f"{root}/{family}/{fmt}" for root in ROOTS for family in FAMILIES for fmt in FORMATS]
    + [f"{root}/{stats}" for root in FIXTURE_ROOTS for stats in STATS]
    + [f"baseline-one/{family}/{fmt}" for family in ONE_ENTRY_BASELINES for fmt in ("text", "json")]
    + [f"{root}/update-baseline-{family}" for root in FIXTURE_ROOTS for family in UPDATE_FAMILIES]
    + ["missing-path/text"]
)


def _sha(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _lint(argv, workdir: Path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(["lint", *argv])
    return status, out.getvalue().replace(str(workdir), "<tmp>")


def cli_digest(argv, workdir: Path) -> dict:
    status, stdout = _lint(argv, workdir)
    return {"status": status, "stdout": _sha(stdout)}


def _roots(workdir: Path) -> dict:
    kernels = workdir / "kernels" / "engine"
    kernels.mkdir(parents=True)
    for source in sorted((FIXTURES / "arrays").glob("*.py")):
        shutil.copy(source, kernels / source.name)
    roots = {name: FIXTURES / name for name in FIXTURE_ROOTS if name != "kernels"}
    roots.update(tree=PACKAGE, kernels=workdir / "kernels")
    return roots


def _one_entry_baseline(root: Path, code: str, workdir: Path, name: str) -> Path:
    """A baseline naming the first (by fingerprint) finding with ``code``."""
    full = workdir / f"full-{name}.json"
    _lint(["--path", str(root), "--deep", "--kernels", "--update-baseline",
           "--baseline", str(full), "--no-cache"], workdir)
    payload = json.loads(full.read_text())
    fingerprint = min(
        fp for fp, descr in payload["fingerprints"].items() if descr.startswith(code)
    )
    payload["fingerprints"] = {fingerprint: payload["fingerprints"][fingerprint]}
    one = workdir / f"one-{name}.json"
    one.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return one


def record(workdir: Path) -> dict:
    roots = _roots(workdir)
    empty = workdir / "empty-baseline.json"
    empty.write_text('{\n  "fingerprints": {},\n  "version": 1\n}\n')
    digests = {}
    for root in ROOTS:
        cache = ["--cache-dir", str(workdir / f"cache-{root}")]
        for family, family_argv in FAMILIES.items():
            for fmt, fmt_argv in FORMATS.items():
                argv = ["--path", str(roots[root]), *family_argv, *fmt_argv,
                        "--baseline", str(empty), *cache]
                digests[f"{root}/{family}/{fmt}"] = cli_digest(argv, workdir)
    for root in FIXTURE_ROOTS:
        for stats, stats_argv in STATS.items():
            argv = ["--path", str(roots[root]), *stats_argv, "--no-cache",
                    "--baseline", str(empty)]
            digests[f"{root}/{stats}"] = cli_digest(argv, workdir)
    for family, (root, code) in ONE_ENTRY_BASELINES.items():
        baseline = _one_entry_baseline(roots[root], code, workdir, family)
        for fmt in ("text", "json"):
            argv = ["--path", str(roots[root]), *FAMILIES[family], *FORMATS[fmt],
                    "--baseline", str(baseline), "--no-cache"]
            digests[f"baseline-one/{family}/{fmt}"] = cli_digest(argv, workdir)
    for root in FIXTURE_ROOTS:
        for family in UPDATE_FAMILIES:
            target = workdir / f"update-{root}-{family}.json"
            argv = ["--path", str(roots[root]), *FAMILIES[family], "--update-baseline",
                    "--baseline", str(target), "--no-cache"]
            digest = cli_digest(argv, workdir)
            digest["file"] = _sha(target.read_bytes())
            digests[f"{root}/update-baseline-{family}"] = digest
    digests["missing-path/text"] = cli_digest(
        ["--path", MISSING, "--baseline", str(empty), "--no-cache"], workdir
    )
    return digests


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(DIGESTS.read_text())


@pytest.fixture(scope="module")
def current(tmp_path_factory) -> dict:
    return record(tmp_path_factory.mktemp("lint-identity"))


def test_fixture_covers_the_cases(recorded):
    assert sorted(recorded) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_lint_output_matches_parent_commit(case, current, recorded):
    assert current[case] == recorded[case]


if __name__ == "__main__":  # pragma: no cover - fixture maintenance
    if sys.argv[1:] != ["--record"]:
        raise SystemExit(__doc__)
    with tempfile.TemporaryDirectory() as tmp:
        digests = record(Path(tmp))
    DIGESTS.write_text(
        "{\n" + ",\n".join(
            f"{json.dumps(key)}: {json.dumps(value, sort_keys=True)}"
            for key, value in digests.items()
        ) + "\n}\n"
    )
    print(f"recorded {len(digests)} digests to {DIGESTS}")
