"""The perf ledger's span table names symbols that exist in the tree.

``benchmarks/ledger/spans.py`` wraps program functions by name, from
outside the program.  A target that no longer resolves is only reported
on stderr and its per-layer metrics read 0, so a refactor that renames or
moves one of them must fail here instead.
"""

import importlib

from benchmarks.ledger.spans import SPAN_TABLE, Tracer


def _originals():
    """``target -> the object stored under it`` (None if it does not resolve)."""
    out = {}
    for target, _ in SPAN_TABLE:
        module_name, _, path = target.partition(":")
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        out[target] = vars(owner).get(attr) if owner is not None else None
    return out


def test_every_span_target_resolves():
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()


def test_install_wraps_and_uninstall_restores_the_same_objects():
    before = _originals()
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = _originals()
    finally:
        tracer.uninstall()
    for target, original in before.items():
        assert wrapped[target] is not original, target
        assert wrapped[target].__wrapped__ is original, target
    for target, original in _originals().items():
        assert original is before[target], target
