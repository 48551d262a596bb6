"""The one span table, and the tracer that applies it from outside the program.

Every symbol the traced pass wraps is listed in :data:`SPAN_TABLE` as
``"module:attr"`` or ``"module:Class.attr"`` -> span name.  The attribute
is the one *looked up at call time* (``repro.engine.network`` binds the
kernels into its own namespace, so that is where they are wrapped).  A
symbol that no longer resolves is recorded in :attr:`Tracer.missing` and
its metrics read 0 — a refactor of the program must never crash the
benchmark.

Spans are kept in memory, one list per thread, as ``(name, parent, start,
end)`` and aggregated once at the end: a span's *self time* is its
duration minus the part its child spans cover, so self times over a tree
sum to the root's duration (``reconcile`` asserts it).
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["SPAN_TABLE", "Agg", "Spans", "Tracer"]

SPAN_TABLE: Tuple[Tuple[str, str], ...] = (
    # core: set-up, the per-window coupling phases and the adapter boundary
    # (what is left of run()'s own loop is the root span's self time,
    # reported as core.unattributed_share)
    ("repro.engine.batch:build_cosim", "core.build"),
    ("repro.core.config:make_programs", "workloads.make_programs"),
    ("repro.verify:verify_target_config", "verify.target_config"),
    ("repro.core.cosim:CoSimulator._phase_flush", "core.phase_flush"),
    ("repro.core.cosim:CoSimulator._phase_collect", "core.phase_collect"),
    ("repro.core.cosim:CoSimulator._phase_finish", "core.phase_finish"),
    ("repro.core.adapters:DetailedNetworkAdapter.send", "core.adapter_send"),
    ("repro.core.adapters:DetailedNetworkAdapter.advance", "core.adapter_advance"),
    ("repro.core.adapters:DetailedNetworkAdapter.pop_deliveries", "core.adapter_collect"),
    # fullsys / abstractnet
    ("repro.fullsys.cmp:CmpSystem.run_until", "fullsys.run_until"),
    ("repro.core.adapters:AbstractModelAdapter.send", "abstractnet.send"),
    # engine: one step and its stages
    ("repro.engine.network:SimdBatch.step", "engine.step"),
    ("repro.engine.network:route_compute", "engine.route_compute"),
    ("repro.engine.network:vc_allocate", "engine.vc_allocate"),
    ("repro.engine.network:switch_traverse", "engine.switch_traverse"),
    ("repro.engine.network:SimdBatch._apply_credits", "engine.credit"),
    ("repro.engine.network:BatchedSimdNetwork._admit", "engine.admit"),
    ("repro.engine.network:BatchedSimdNetwork._inject_flits", "engine.inject"),
    ("repro.engine.network:SimdBatch._dispatch_eject", "engine.eject"),
    # campaign: store and pool, as the serve daemon drives them
    ("repro.campaign.store:ResultStore.mark_running", "campaign.store_mark_running"),
    ("repro.campaign.store:ResultStore.mark_done", "campaign.store_mark_done"),
    ("repro.campaign.store:ResultStore.get_job", "campaign.store_lookup"),
    ("repro.campaign.store:ResultStore.add_jobs", "campaign.store_add_jobs"),
    ("repro.campaign.pool:WorkerPool.submit", "campaign.pool_submit"),
    ("repro.campaign.pool:WorkerPool.wait", "campaign.pool_wait"),
    # serve: the client's polls (ring nodes are other processes: nothing of
    # cluster can be wrapped, it is measured from the client side)
    ("repro.serve.client:ServeClient.status", "serve.client_status"),
)

#: ``hook(args, kwargs, result, start, end)`` called after a wrapped call
Hook = Callable[[tuple, dict, object, float, float], None]


@dataclass
class Agg:
    """Aggregate of every span sharing one name."""

    count: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Spans(Dict[str, Agg]):
    """Aggregates by span name; a name never recorded reads as zeros."""

    def __missing__(self, name: str) -> Agg:
        return Agg()

    def per_call(self, name: str, scale: float = 1.0) -> float:
        """Mean duration of one ``name`` span, times ``scale``."""
        agg = self[name]
        return agg.total_s / agg.count * scale if agg.count else 0.0


def _covered(spans: List[Optional[tuple]]) -> List[float]:
    """For each span, the seconds its direct children cover."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span is not None and span[1] >= 0:
            covered[span[1]] += span[3] - span[2]
    return covered


class Tracer:
    """Wraps the span table's symbols and records their calls."""

    def __init__(self) -> None:
        self.missing: List[str] = []
        self._threads: List[List[Optional[tuple]]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: List[Tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------
    def _state(self) -> Tuple[list, list]:
        try:
            return self._local.state
        except AttributeError:
            spans: List[Optional[tuple]] = []
            with self._lock:
                self._threads.append(spans)
            self._local.state = (spans, [])
            return self._local.state

    def _wrap(self, fn: Callable, name: str, hook: Optional[Hook]) -> Callable:
        clock = time.perf_counter
        local = self._local
        new_state = self._state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                spans, stack = local.state
            except AttributeError:
                spans, stack = new_state()
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, parent, start, end)
            if hook is not None:
                hook(args, kwargs, result, start, end)
            return result

        return wrapper

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span of the benchmark's own, e.g. the root around ``run()``."""
        spans, stack = self._state()
        index = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            spans[index] = (name, parent, start, end)

    # -- the table ------------------------------------------------------
    def install(self, hooks: Optional[Dict[str, Hook]] = None) -> None:
        """Wrap every resolvable table entry; remember the rest as missing."""
        hooks = hooks or {}
        self.missing = []
        for target, name in SPAN_TABLE:
            module_name, _, path = target.partition(":")
            try:
                owner: object = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(name)
                continue
            setattr(owner, attr, self._wrap(original, name, hooks.get(name)))
            self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- aggregation ----------------------------------------------------
    def clear(self) -> None:
        """Forget recorded spans (between an untraced and a traced phase)."""
        with self._lock:
            for spans in self._threads:
                del spans[:]

    def aggregate(self) -> Spans:
        out = Spans()
        with self._lock:
            threads = [list(spans) for spans in self._threads]
        for spans in threads:
            covered = _covered(spans)
            for index, span in enumerate(spans):
                if span is None:
                    continue
                name, _, start, end = span
                agg = out.setdefault(name, Agg())
                agg.count += 1
                agg.total_s += end - start
                agg.self_s += (end - start) - covered[index]
        return out

    def reconcile(self, root: str, tolerance: float = 0.01) -> float:
        """Self times under ``root`` spans must sum to their durations.

        Returns the relative gap; raises ``AssertionError`` beyond
        ``tolerance``.  Only the calling thread's spans are checked (a
        root span and its subtree live on one thread).
        """
        spans, _ = self._state()
        covered = _covered(spans)
        in_tree = [False] * len(spans)
        wall = self_sum = 0.0
        for index, span in enumerate(spans):
            if span is None:
                continue
            name, parent, start, end = span
            if name == root:
                in_tree[index] = True
                wall += end - start
            elif parent >= 0 and in_tree[parent]:
                in_tree[index] = True
            if in_tree[index]:
                self_sum += (end - start) - covered[index]
        gap = abs(self_sum - wall) / wall if wall > 0 else 0.0
        if gap > tolerance:
            raise AssertionError(
                f"span self times ({self_sum:.6f}s) do not reconcile with "
                f"{root} wall ({wall:.6f}s): gap {gap:.4f}"
            )
        return gap
