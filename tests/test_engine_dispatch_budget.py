"""A cost budget for the engine's per-cycle path that cannot flake.

The kernels are dispatch-bound: at the 40-240 active cells of a cycle a
stage costs NumPy's per-call overhead times the number of calls, and the
host phases cost the interpreter's per-call overhead times theirs.  Wall
clocks drift by 1.5x an hour on a shared host; *counts* do not.  So the
budget is two exact counts with committed values and an **equality**
gate — a change that lowers one updates a line below (and says so in its
description), a change that raises one fails until it argues why:

(a) Python calls made inside one ``SimdBatch.step`` — ``sys.setprofile``
    ``call`` events for code under ``src/repro``, averaged over cycles
    200-1200 of the pinned-seed 16x16 ``ocean`` co-simulation (the
    ledger's ``cosim_detailed_256`` inputs at seed 42).  Frames of NumPy's
    own Python-level wrappers (``np.flatnonzero``, ``np.argmax`` ...)
    depend on the NumPy release, so they are held to a bound instead: the
    per-cycle path calls none (array methods and ``ufunc.at`` are C), only
    the rare table growth does;
(b) NumPy operations per stage, counted statically over the source of
    ``route_compute`` / ``vc_allocate`` / ``switch_traverse``.
    ``sys.setprofile`` cannot see these: an operator or a subscript on an
    array is not a ``c_call`` event.

The same walk asserts that no ``//`` or ``%`` is left in a stage: every
decomposition of a flat index is a gather from a geometry table.

History, per step — (a) in-package calls [+ NumPy wrapper frames, NumPy
2.4] / (b) as route + vc + switch:

* ``batched-simd-2`` (d2897bb): 73.046 [+ 24.005] / 25 + 45 + 124 = 194
* ``batched-simd-3``:           48.395 [+  0.005] / 13 + 38 + 104 = 155
"""

import ast
import inspect
import sys
import textwrap
from pathlib import Path

import repro
from repro.core import TargetConfig, build_cosim
from repro.engine import kernels
from repro.engine.network import SimdBatch

PACKAGE = str(Path(repro.__file__).resolve().parent)

STAGES = ("route_compute", "vc_allocate", "switch_traverse")

#: (a) Python calls per step, cycles 200-1200 (a total over 1000 steps)
CALLS_PER_1000_STEPS = 48395
#: calls into Python code outside the package, per 1000 steps, at most
FOREIGN_CALLS_PER_1000_STEPS = 50
#: (b) NumPy operations per stage
NUMPY_OPS = {"route_compute": 13, "vc_allocate": 38, "switch_traverse": 104}


def _is_len(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "len")


def numpy_ops(fn) -> dict:
    """Array operations in the body of ``fn`` by AST node kind.

    Counted: every ``BinOp``, ``Compare``, ``UnaryOp``, ``AugAssign``,
    ``Subscript`` (a gather when loaded, a scatter when stored) and
    ``Call`` in the statements of the body.  Not counted, because no array
    is involved: ``len(x)`` and comparisons / ``not`` over it, a negative
    literal (``-1`` parses as a ``UnaryOp``), the ``[0]`` that unpacks
    ``nonzero()``, and the ``eject`` callback.  Annotations and the
    docstring are not statements of the body.
    """
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    counts = {"BinOp": 0, "Compare": 0, "UnaryOp": 0, "AugAssign": 0,
              "Subscript": 0, "Call": 0, "floor_div_or_mod": 0}
    for stmt in tree.body[0].body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.BinOp):
                counts["BinOp"] += 1
                if isinstance(node.op, (ast.FloorDiv, ast.Mod)):
                    counts["floor_div_or_mod"] += 1
            elif isinstance(node, ast.Compare):
                counts["Compare"] += not _is_len(node.left)
            elif isinstance(node, ast.UnaryOp):
                scalar = isinstance(node.operand, ast.Constant) or _is_len(node.operand)
                counts["UnaryOp"] += not scalar
            elif isinstance(node, ast.AugAssign):
                counts["AugAssign"] += 1
            elif isinstance(node, ast.Subscript):
                unpack = isinstance(node.slice, ast.Constant) and node.slice.value == 0
                counts["Subscript"] += not unpack
            elif isinstance(node, ast.Call):
                callback = isinstance(node.func, ast.Name) and node.func.id == "eject"
                counts["Call"] += not (_is_len(node) or callback)
    return counts


def _table(rows) -> str:
    kinds = ("Subscript", "Call", "BinOp", "Compare", "UnaryOp", "AugAssign")
    lines = [f"{'stage':16s} {'total':>5s}  " + " ".join(f"{k:>9s}" for k in kinds)]
    for stage, counts in rows.items():
        total = sum(counts[k] for k in kinds)
        lines.append(f"{stage:16s} {total:5d}  " + " ".join(f"{counts[k]:9d}" for k in kinds))
    return "\n".join(lines)


def test_numpy_operations_per_stage_equal_the_committed_budget():
    rows = {stage: numpy_ops(getattr(kernels, stage)) for stage in STAGES}
    got = {stage: sum(v for k, v in counts.items() if k != "floor_div_or_mod")
           for stage, counts in rows.items()}
    assert got == NUMPY_OPS, (
        "the per-stage NumPy operation count moved (down: update NUMPY_OPS and "
        "the history in this file's docstring; up: justify it)\n" + _table(rows)
    )


def test_no_index_arithmetic_is_left_in_the_stages():
    for stage in STAGES:
        counts = numpy_ops(getattr(kernels, stage))
        assert counts["floor_div_or_mod"] == 0, (
            f"{stage} decomposes a flat index with // or %: add a geometry table "
            "to BatchState._bind_derived (and to SHAPE_CONTRACT) instead"
        )


def test_python_calls_per_step_equal_the_committed_budget():
    config = TargetConfig(width=16, height=16, app="ocean", scale=1.0,
                          network_model="simd", quantum=4, seed=42)
    cosim = build_cosim(config)
    cosim.run(max_cycles=200)
    step_code = SimdBatch.step.__code__
    inside = steps = calls = foreign = 0
    by_function: dict = {}

    def profile(frame, event, _arg):
        nonlocal inside, steps, calls, foreign
        code = frame.f_code
        if event == "call":
            if code is step_code:
                inside += 1
                steps += 1
            elif inside and code.co_filename.startswith(PACKAGE):
                calls += 1
                name = getattr(code, "co_qualname", code.co_name)
                by_function[name] = by_function.get(name, 0) + 1
            elif inside:
                foreign += 1
        elif event == "return" and code is step_code:
            inside -= 1

    sys.setprofile(profile)
    try:
        cosim.run(max_cycles=1200)
    finally:
        sys.setprofile(None)
    assert steps == 1000
    breakdown = "\n".join(
        f"{count / steps:8.3f}  {name}"
        for name, count in sorted(by_function.items(), key=lambda kv: -kv[1])
    )
    assert calls == CALLS_PER_1000_STEPS, (
        f"{calls / steps:.3f} Python calls per SimdBatch.step, budget "
        f"{CALLS_PER_1000_STEPS / steps:.3f} (down: update CALLS_PER_1000_STEPS "
        "and the history in this file's docstring; up: justify it)\n" + breakdown
    )
    assert foreign <= FOREIGN_CALLS_PER_1000_STEPS, (
        f"{foreign / steps:.3f} calls per step into Python code outside the package: "
        "a NumPy function with a Python-level wrapper (np.flatnonzero, np.argmin, "
        "np.where ...) is back on the per-cycle path; use the array method"
    )
