#!/usr/bin/env python3
"""Reachability census: which ``src/repro`` functions does a workload enter?

A profile hook records the first entry of every code object defined
under ``src/repro`` and appends one line per function to a log per
process.  Two subcommands::

    python scripts/census.py run --out DIR -- CMD [ARG ...]
    python scripts/census.py report DIR [--title TEXT]

``run`` executes CMD with the hook installed in every Python process it
starts: an env-guarded ``sitecustomize`` written under DIR goes first on
``PYTHONPATH``, so forked workers and subprocesses that keep the
environment are counted too.  Runs accumulate: point several ``run``
calls at one DIR, then ``report`` once.  ``report`` prints, as
Markdown, every ``def`` under ``src/repro`` that no log in DIR records.

How the hook keeps up with the workload:

* forked workers leave through ``os._exit``, which flushes nothing, so
  each first entry is written at once with ``os.write``, to
  ``census-<pid>.log``; a fork re-opens the log under the child's pid;
* ``threading.setprofile`` covers threads started after the install;
* under pytest this module is also a plugin (``PYTEST_PLUGINS``) that
  re-installs the hook around every test, because the call-budget tests
  end with ``sys.setprofile(None)``.  Functions a budget test enters
  only while its own profiler is installed are not seen.

Stdlib only.  PYTEST_DONT_REWRITE: the plugin is imported before pytest
could rewrite it.
"""

from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
import threading
from collections import defaultdict
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
ENV = "REPRO_CENSUS_DIR"
_MARK = os.sep + os.path.join("src", "repro") + os.sep

_SITECUSTOMIZE = """\
import os
if os.environ.get({env!r}):
    import importlib.util
    import sys
    _spec = importlib.util.spec_from_file_location("census", {path!r})
    _census = importlib.util.module_from_spec(_spec)
    sys.modules["census"] = _census
    _spec.loader.exec_module(_census)
    _census.install()
"""

#: id -> code object of every code object entered (held, so ids stay unique)
_seen: dict = {}
_fd = None


def _open_log() -> None:
    global _fd
    path = os.path.join(os.environ[ENV], f"census-{os.getpid()}.log")
    _fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)


def _hook(frame, event, arg):
    if event != "call":
        return
    code = frame.f_code
    if id(code) in _seen:
        return
    _seen[id(code)] = code
    if _MARK in code.co_filename:
        line = f"{code.co_filename}\t{code.co_firstlineno}\t{code.co_qualname}\n"
        os.write(_fd, line.encode("utf-8"))


def install() -> None:
    """Install the first-entry hook in this process (and its forks)."""
    if _fd is None:
        _open_log()
        os.register_at_fork(after_in_child=_open_log)
    sys.setprofile(_hook)
    threading.setprofile(_hook)


# pytest plugin hooks: the budget tests remove every profiler they find
def pytest_runtest_setup(item) -> None:
    install()


def pytest_runtest_teardown(item) -> None:
    install()


def run(out: Path, cmd: list) -> int:
    site = out / "site"
    site.mkdir(parents=True, exist_ok=True)
    (site / "sitecustomize.py").write_text(
        _SITECUSTOMIZE.format(env=ENV, path=str(Path(__file__).resolve()))
    )
    env = dict(os.environ)
    env[ENV] = str(out.resolve())
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(site), str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    env["PYTEST_PLUGINS"] = ",".join(
        p for p in ("census", env.get("PYTEST_PLUGINS")) if p
    )
    return subprocess.run(cmd, env=env).returncode


def _defs():
    """``(relpath, first line, last line, qualname, outermost)`` per def."""
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        stack = [(tree, "", False)]
        while stack:
            node, prefix, in_def = stack.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                    qual = prefix + child.name
                    yield rel, first, child.end_lineno, qual, not in_def
                    stack.append((child, qual + ".<locals>.", True))
                elif isinstance(child, ast.ClassDef):
                    stack.append((child, prefix + child.name + ".", in_def))
                else:
                    stack.append((child, prefix, in_def))


def report(out: Path, title: str) -> str:
    entered = set()
    logs = sorted(out.glob("census-*.log"))
    for log in logs:
        for line in log.read_text(encoding="utf-8").splitlines():
            filename, first, _ = line.split("\t", 2)
            entered.add((os.path.realpath(filename), int(first)))
    defs = list(_defs())
    missed = [d for d in defs if (os.path.realpath(SRC / d[0]), d[1]) not in entered]
    by_file = defaultdict(list)
    for rel, first, last, qual, outermost in missed:
        by_file[rel].append((first, last, qual, outermost))
    spans = sum(last - first + 1 for _, first, last, _, outer in missed if outer)
    lines = [
        f"# {title}",
        "",
        f"{len(defs)} defs under `src/repro`; {len(defs) - len(missed)} entered, "
        f"{len(missed)} never entered ({spans} lines in the outermost of them), "
        f"from {len(logs)} process logs.",
        "",
    ]
    for rel in sorted(by_file):
        lines.append(f"- `{rel}`")
        for first, last, qual, _ in sorted(by_file[rel]):
            lines.append(f"  - {first}–{last} `{qual}`")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a command with the hook installed")
    run_p.add_argument("--out", required=True, type=Path, help="log directory")
    run_p.add_argument("cmd", nargs=argparse.REMAINDER, help="-- CMD [ARG ...]")
    rep = sub.add_parser("report", help="list the defs no log records")
    rep.add_argument("out", type=Path, help="log directory")
    rep.add_argument("--title", default="Reachability census")
    args = parser.parse_args(argv)
    if args.command == "run":
        cmd = args.cmd[1:] if args.cmd[:1] == ["--"] else args.cmd
        if not cmd:
            parser.error("run needs a command after --")
        return run(args.out, cmd)
    print(report(args.out, args.title))
    return 0


if __name__ == "__main__":
    sys.exit(main())
