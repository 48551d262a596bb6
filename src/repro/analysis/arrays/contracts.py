"""Shape contracts: the declared tensor layouts the kernel pass checks.

A layout module declares its state classes' array layouts once, as a
module-level ``SHAPE_CONTRACT`` dict literal (see
:mod:`repro.engine.layout` for the canonical example).  This module
*parses* those declarations — ``ast.literal_eval``, never an import, so
fixture trees and mutated copies need no importable package — and builds
a :class:`ContractRegistry` the interpreter consults.

The registry also harvests **annotated dtype constants**: module-level
``NAME = np.int8  # bound: ...`` assignments.  The ``# bound:`` comment
states why the narrow dtype can never overflow, and SIM302 accepts an
``astype(NAME)`` through any such name as sanctioned narrowing.
"""

from __future__ import annotations

import ast
import hashlib
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from ..flow.parser import SourceFile

__all__ = [
    "FieldSpec",
    "Contract",
    "ContractRegistry",
    "build_registry",
    "harvest_module",
    "DTYPE_WIDTH",
]

#: dtype name -> bit width (bool is widthless: never a narrowing target)
DTYPE_WIDTH: Dict[str, int] = {
    "int8": 8,
    "uint8": 8,
    "int16": 16,
    "uint16": 16,
    "int32": 32,
    "uint32": 32,
    "int64": 64,
    "uint64": 64,
    "intp": 64,
    "float32": 32,
    "float64": 64,
}


@dataclass(frozen=True)
class FieldSpec:
    """One declared array field: its axis symbols, dtype, value domain.

    An axis is a dim symbol or a ``*``-product of them (``"L*R*P*V"``):
    a flattened run of axes, indexed by one C-order flat index over
    those dims.  ``flat_of`` names the N-d field a view shares memory
    with; its dtype and value domain are that field's.

    An *index table* — ``values`` spelled as a dim product — may declare
    ``stride`` (trailing dims that are zero in every entry: ``cell*B`` has
    stride ``B``, so adding a slot stays in the family) and ``injective``
    (distinct indices give distinct entries, so a gather through it keeps
    its index's uniqueness).  ``derived`` marks state the class rebuilds
    instead of pickling; it is counted, not interpreted.
    """

    name: str
    axes: Tuple[str, ...]
    dtype: str
    values: Optional[str] = None
    flat_of: Optional[str] = None
    stride: Tuple[str, ...] = ()
    injective: bool = False
    derived: bool = False

    @property
    def rank(self) -> int:
        return len(self.axes)


@dataclass
class Contract:
    """Declared layout of one state class."""

    name: str
    dims: Tuple[str, ...]
    lane_axis: Optional[str]
    fields: Dict[str, FieldSpec]
    domains: Dict[str, Dict] = field(default_factory=dict)
    #: kernel parameters that are not state: name -> the dim product a
    #: duplicate-free ascending flat index passed under that name covers
    params: Dict[str, str] = field(default_factory=dict)

    def lane_partitioned(self, domain: Optional[str]) -> bool:
        """Whether values of ``domain`` never cross lanes by contract."""
        if domain is None:
            return False
        return bool(self.domains.get(domain, {}).get("lane_partitioned"))

    def family(self, symbol: Optional[str]) -> Optional[Tuple[str, ...]]:
        """The dims a flat index over ``symbol`` enumerates, in C order.

        ``symbol`` is an axis (``"R"``, ``"L*R*P"``) or a value domain: a
        domain declaring ``dim`` holds values in ``[0, dim)``, and a
        domain spelled as a dim product holds flat indices over it.
        ``None`` when ``symbol`` is not made of this contract's dims.
        """
        if symbol is None:
            return None
        symbol = self.domains.get(symbol, {}).get("dim", symbol)
        factors = tuple(symbol.split("*"))
        return factors if all(f in self.dims for f in factors) else None

    def is_index_table(self, spec: FieldSpec) -> bool:
        """Whether ``spec``'s entries are flat indices (a dim-product
        ``values``, not a named domain such as ``port``)."""
        return (
            spec.values is not None
            and spec.values not in self.domains
            and self.family(spec.values) is not None
        )


@dataclass
class ContractRegistry:
    """All contracts plus the annotated dtype constants, tree-wide.

    Contracts are keyed by class name globally: an annotation ``st:
    BatchState`` in any analyzed module binds the single ``BatchState``
    contract, wherever it was declared.
    """

    contracts: Dict[str, Contract] = field(default_factory=dict)
    #: annotated constant name -> dtype string ("int8", ...)
    dtype_bounds: Dict[str, str] = field(default_factory=dict)
    #: relpath of each module that declared something (for stats)
    sources: List[str] = field(default_factory=list)

    def fingerprint(self) -> str:
        """Stable hash of everything that affects analysis results.

        Folded into the summary-cache stamp so a contract edit
        invalidates cached per-module facts.
        """
        doc = {
            "contracts": {
                name: {
                    "dims": list(c.dims),
                    "lane_axis": c.lane_axis,
                    "fields": {
                        f: [list(s.axes), s.dtype, s.values, s.flat_of,
                            list(s.stride), s.injective, s.derived]
                        for f, s in sorted(c.fields.items())
                    },
                    "domains": c.domains,
                    "params": c.params,
                }
                for name, c in sorted(self.contracts.items())
            },
            "dtype_bounds": dict(sorted(self.dtype_bounds.items())),
        }
        raw = json.dumps(doc, sort_keys=True)
        return hashlib.sha256(raw.encode("utf-8")).hexdigest()[:16]


def _parse_axes(shape: str) -> Tuple[str, ...]:
    return tuple(s.strip() for s in shape.split(",") if s.strip())


def _field_from_literal(fname: str, fspec: Dict, declared: Dict) -> FieldSpec:
    axes = _parse_axes(fspec["shape"])
    base = fspec.get("flat_of")
    if base is None:
        return FieldSpec(
            name=fname,
            axes=axes,
            dtype=str(fspec.get("dtype", "int64")),
            values=fspec.get("values"),
            stride=tuple(str(fspec["stride"]).split("*")) if fspec.get("stride") else (),
            injective=bool(fspec.get("injective", False)),
            derived=bool(fspec.get("derived", False)),
        )
    # A view flattens runs of its base's axes, nothing else.
    base_spec = declared[base]
    flattened = tuple(f for axis in axes for f in axis.split("*"))
    if flattened != _parse_axes(base_spec["shape"]):
        raise KeyError(f"{fname}: shape is not a flattening of {base}")
    return FieldSpec(
        name=fname,
        axes=axes,
        dtype=str(base_spec.get("dtype", "int64")),
        values=base_spec.get("values"),
        flat_of=base,
    )


def _contract_from_literal(name: str, spec: Dict) -> Optional[Contract]:
    try:
        declared = spec.get("fields", {})
        fields = {
            fname: _field_from_literal(fname, fspec, declared)
            for fname, fspec in declared.items()
        }
        return Contract(
            name=name,
            dims=tuple(spec.get("dims", ())),
            lane_axis=spec.get("lane_axis"),
            fields=fields,
            domains=dict(spec.get("domains", {})),
            params={str(k): str(v) for k, v in spec.get("params", {}).items()},
        )
    except (KeyError, TypeError, AttributeError):
        return None


def _np_dtype_name(node: ast.AST) -> Optional[str]:
    """``np.int8`` / ``numpy.int8`` → ``"int8"`` (when it is a dtype)."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in ("np", "numpy")
        and node.attr in DTYPE_WIDTH
    ):
        return node.attr
    return None


def harvest_module(
    source: str,
) -> Tuple[Dict[str, Contract], Dict[str, str]]:
    """``(contracts, dtype_bounds)`` declared by one module's source."""
    try:
        tree = ast.parse(source)
    except SyntaxError:
        return {}, {}
    return _harvest(tree, source.splitlines())


def _harvest(
    tree: ast.Module, lines: Sequence[str]
) -> Tuple[Dict[str, Contract], Dict[str, str]]:
    """``(contracts, dtype_bounds)`` declared by one parsed module.

    A dtype constant counts as annotated only when its assignment line
    carries a ``# bound:`` comment — the comment *is* the contract.
    """
    contracts: Dict[str, Contract] = {}
    bounds: Dict[str, str] = {}
    for node in tree.body:
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            continue
        if target.id == "SHAPE_CONTRACT":
            try:
                literal = ast.literal_eval(node.value)
            except (ValueError, SyntaxError):
                continue
            if not isinstance(literal, dict):
                continue
            for cls_name, spec in literal.items():
                contract = _contract_from_literal(str(cls_name), spec)
                if contract is not None:
                    contracts[contract.name] = contract
            continue
        dtype = _np_dtype_name(node.value)
        if dtype is not None and 0 < node.lineno <= len(lines):
            if "# bound:" in lines[node.lineno - 1]:
                bounds[target.id] = dtype
    return contracts, bounds


def build_registry(files: Sequence["SourceFile"]) -> ContractRegistry:
    """Scan collected files for contract declarations.

    A cheap textual prescan keeps this fast: only files whose bytes
    mention ``SHAPE_CONTRACT`` or ``# bound:`` are parsed.
    """
    registry = ContractRegistry()
    for src in files:
        raw = src.raw
        if raw is None or (b"SHAPE_CONTRACT" not in raw and b"# bound:" not in raw):
            continue
        if src.tree is None:
            continue
        contracts, bounds = _harvest(src.tree, src.lines)
        if contracts or bounds:
            registry.sources.append(src.rel)
        registry.contracts.update(contracts)
        registry.dtype_bounds.update(bounds)
    return registry
