"""Abstract interpretation of NumPy kernel functions.

One linear pass per function (the kernels are straight-line with early
returns, so no join points are needed) propagating an abstract value per
local name:

* **symbolic shape** — a tuple of axis symbols from the shape contract
  (``("L","R","P","V")``), ``"n"`` for data-dependent gather lengths,
  ``"?"`` for unknown extents;
* **dtype** — contract field dtypes, ``np.nonzero`` indices as int64,
  promotion through arithmetic, ``astype`` casts;
* **provenance** — whether a value is *known* (built only from contract
  fields, nonzero indices, dims, and constants), whether it carries the
  **lane** index (an axis-0 component of a nonzero over a lane-major
  mask, or arithmetic folding one in), whether its values come from a
  **lane-partitioned** contract domain, and whether it is **winnowed**.

Winnowing is the kernels' alias discipline: after
``np.minimum.at(best, key, score)`` the mask ``score == best[key]``
selects at most one winner per bucket, so index arrays filtered by it
(and gathers through them) are duplicate-free — in-place updates through
winnowed indices cannot alias.  Likewise the full component tuple of one
``np.nonzero`` (same filter chain, every axis) indexes distinct cells.
Everything else that reaches an in-place update through integer fancy
indices is a SIM303 candidate.

Flat indices.  Kernels may address a contract's arrays through 1-d views
(``"shape": "L*R*P*V"``) and one flat index.  The interpreter tracks the
**family** of such an index — the dims it enumerates in C order:
``np.flatnonzero`` of a mask over a view (or ``mask.nonzero()[0]``)
yields a duplicate-free index of the view's family that carries the lane
when the family starts with the lane axis; ``// dims`` strips trailing
dims (keeping the lane, losing uniqueness), ``% dims`` keeps only them
(losing the lane); ``index * dims + small`` appends dims when ``small``
is known to lie in their range (a ``% dims`` result, an argmax over that
axis, a value of a domain declaring that ``dim``) and stays duplicate-
free; a gather from a field whose value domain is a dim product is a
flat index of that family — an *index table* (``cell_pc``, ``nbr_cell``):
the gather carries the lane when the family leads with it, has the
table's declared ``stride`` as trailing zeros (so ``+ small`` stays in
the family), and keeps its index's uniqueness only through a table
declared ``injective``.  Indexing a view with a flat index of another
family is SIM305, and so is subscripting an attribute of a contract
class that the contract does not declare: an undeclared table would
make everything gathered through it invisible to the other rules.  ``keep = mask.nonzero()[0]`` over a data-dependent
mask is a *selection*: ``a[keep]`` filters exactly like ``a[mask]``.

The pass records rule *candidates* plus the call/loop events the rule
phase resolves interprocedurally; results are JSON-serializable so the
flow summary cache can store them.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Tuple

from .contracts import DTYPE_WIDTH, Contract, ContractRegistry

__all__ = ["ARRAYS_FACTS_VERSION", "extract_kernel_module"]

#: bump to invalidate cached per-module kernel facts
ARRAYS_FACTS_VERSION = 4

_REDUCERS = ("sum", "min", "max", "mean", "prod", "any", "all")
_ALLOCATORS = ("zeros", "ones", "empty", "full", "arange")


class AV:
    """Abstract value: symbolic shape, dtype, and index provenance."""

    __slots__ = (
        "kind", "shape", "dtype", "known", "lane", "lane_part",
        "winnow", "nz", "chain", "bounded", "values", "contract",
        "dim", "scatter", "flat", "zeros", "select", "lossy",
    )

    def __init__(
        self,
        kind: str = "unknown",
        shape: Optional[Tuple[str, ...]] = None,
        dtype: Optional[str] = None,
        known: bool = False,
        lane: bool = False,
        lane_part: bool = False,
        winnow: bool = False,
        nz: Optional[Tuple[int, int, int]] = None,  # (id, axis, arity)
        chain: Tuple[str, ...] = (),
        bounded: bool = False,
        values: Optional[str] = None,
        contract: Optional[Contract] = None,
        dim: Optional[str] = None,
        flat: Optional[Tuple[str, ...]] = None,
        zeros: int = 0,
        select: bool = False,
        lossy: bool = False,
    ) -> None:
        self.kind = kind
        self.shape = shape
        self.dtype = dtype
        self.known = known
        self.lane = lane
        self.lane_part = lane_part
        self.winnow = winnow
        self.nz = nz
        self.chain = chain
        self.bounded = bounded
        self.values = values
        self.contract = contract
        self.dim = dim
        #: the dims this flat index enumerates in C order (its family)
        self.flat = flat
        #: how many trailing dims of ``flat`` are known to be zero
        self.zeros = zeros
        #: a ``mask.nonzero()[0]`` selection: indexes like the mask itself
        #: (``winnow`` then says whether the *mask* was a winner mask)
        self.select = select
        #: a many-to-one index table: gathers through it are not unique
        self.lossy = lossy
        #: (key name, score name) after np.minimum.at(self, key, score)
        self.scatter: Optional[Tuple[str, str]] = None

    @property
    def rank(self) -> Optional[int]:
        return None if self.shape is None else len(self.shape)

    @property
    def is_array(self) -> bool:
        return self.kind in ("array", "mask")

    def copy(self, **overrides) -> "AV":
        av = AV(
            kind=self.kind, shape=self.shape, dtype=self.dtype,
            known=self.known, lane=self.lane, lane_part=self.lane_part,
            winnow=self.winnow, nz=self.nz, chain=self.chain,
            bounded=self.bounded, values=self.values,
            contract=self.contract, dim=self.dim,
            flat=self.flat, zeros=self.zeros, select=self.select,
            lossy=self.lossy,
        )
        for name, value in overrides.items():
            setattr(av, name, value)
        return av


_UNKNOWN = AV()


def _loc(node: ast.AST) -> List[int]:
    return [getattr(node, "lineno", 0), getattr(node, "col_offset", 0)]


def _end(node: ast.AST) -> List[int]:
    return [getattr(node, "end_lineno", 0) or 0,
            getattr(node, "end_col_offset", 0) or 0]


def _family_of_shape(shape: Optional[Tuple[str, ...]]) -> Optional[Tuple[str, ...]]:
    """The dims a C-order flat index over ``shape`` enumerates."""
    if not shape:
        return None
    family: List[str] = []
    for axis in shape:
        if axis in ("n", "?", "1"):
            return None
        family.extend(axis.split("*"))
    return tuple(family)


def _dim_factors(av: "AV") -> Optional[Tuple[str, ...]]:
    """``st.V`` / ``st.P * st.V`` → the dims multiplied together."""
    if av.kind == "dim" and av.dim:
        return tuple(av.dim.split("*"))
    return None


def _np_attr(node: ast.AST) -> Optional[str]:
    """``np.foo`` / ``numpy.foo`` → ``"foo"``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in ("np", "numpy")
    ):
        return node.attr
    return None


def _np_ufunc_at(node: ast.AST) -> Optional[str]:
    """``np.minimum.at`` → ``"minimum"``."""
    if isinstance(node, ast.Attribute) and node.attr == "at":
        return _np_attr(node.value)
    return None


def _dotted(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return f"{base}.{node.attr}" if base else None
    return None


def _annotation_contract(
    node: Optional[ast.AST], registry: ContractRegistry
) -> Optional[Contract]:
    if node is None:
        return None
    name = None
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        name = node.value.strip().strip("'\"")
    elif isinstance(node, ast.Attribute):
        name = node.attr
    if name and '"' in name:
        name = name.strip('"')
    return registry.contracts.get(name) if name else None


class _FuncInterp:
    """Linear abstract interpretation of one function body."""

    def __init__(
        self,
        qual: str,
        node: ast.AST,
        registry: ContractRegistry,
        owner_class: Optional[str],
    ) -> None:
        self.qual = qual
        self.node = node
        self.registry = registry
        self.env: Dict[str, AV] = {}
        self.candidates: List[Dict] = []
        self.dim_loops: List[Dict] = []
        self.calls: List[Dict] = []
        self.params: List[str] = []
        self.contract_params: Dict[str, str] = {}
        self._nz_counter = 0
        self._chain_counter = 0
        self.lane_contract: Optional[Contract] = None

        args = node.args
        all_args = list(args.posonlyargs) + list(args.args) + list(
            args.kwonlyargs
        )
        for i, arg in enumerate(all_args):
            self.params.append(arg.arg)
            contract = _annotation_contract(arg.annotation, registry)
            if contract is None and i == 0 and arg.arg in ("self", "cls"):
                contract = registry.contracts.get(owner_class or "")
            if contract is not None:
                self.contract_params[arg.arg] = contract.name
                self.env[arg.arg] = AV(
                    kind="contract", known=True, contract=contract
                )
                if contract.lane_axis and self.lane_contract is None:
                    self.lane_contract = contract
        # declared index parameters of a kernel over that contract: a
        # duplicate-free flat index, as ``np.flatnonzero`` would give
        for contract_name in set(self.contract_params.values()):
            contract = registry.contracts[contract_name]
            for name, product in contract.params.items():
                family = contract.family(product)
                if name in self.params and name not in self.env and family:
                    self.env[name] = AV(
                        kind="array", shape=("n",), dtype="int64", known=True,
                        flat=family, winnow=True, lane=self.lane_major(family),
                    )

    # -- bookkeeping ----------------------------------------------------
    @property
    def lane_ctx(self) -> bool:
        return self.lane_contract is not None

    @property
    def lane_symbol(self) -> Optional[str]:
        return self.lane_contract.lane_axis if self.lane_contract else None

    def lane_major(self, family: Optional[Tuple[str, ...]]) -> bool:
        """Whether a flat index (or shape) over ``family`` leads with the lane."""
        if not family:
            return False
        return self.lane_ctx and family[0] == self.lane_symbol

    def flag(self, rule: str, node: ast.AST, message: str, anchor: str) -> None:
        self.candidates.append({
            "rule": rule,
            "loc": _loc(node),
            "end": _end(node),
            "message": message,
            "anchor": f"{self.qual}:{anchor}",
        })

    def _chain_id(self, node: ast.AST) -> str:
        if isinstance(node, ast.Name):
            return node.id
        self._chain_counter += 1
        return f"?{self._chain_counter}"

    # -- interpretation entry ------------------------------------------
    def run(self) -> None:
        self.exec_block(self.node.body)

    def exec_block(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self.exec_stmt(stmt)

    # -- statements -----------------------------------------------------
    def exec_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            self._exec_assign(stmt.targets, stmt.value)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._exec_assign([stmt.target], stmt.value)
        elif isinstance(stmt, ast.AugAssign):
            self._exec_augassign(stmt)
        elif isinstance(stmt, ast.Expr):
            self.eval(stmt.value)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.eval(stmt.value)
        elif isinstance(stmt, ast.For):
            self._exec_for(stmt)
        elif isinstance(stmt, ast.While):
            self.eval(stmt.test)
            self.exec_block(stmt.body)
            self.exec_block(stmt.orelse)
        elif isinstance(stmt, ast.If):
            self.eval(stmt.test)
            self.exec_block(stmt.body)
            self.exec_block(stmt.orelse)
        elif isinstance(stmt, ast.With):
            for item in stmt.items:
                self.eval(item.context_expr)
            self.exec_block(stmt.body)
        elif isinstance(stmt, ast.Try):
            self.exec_block(stmt.body)
            for handler in stmt.handlers:
                self.exec_block(handler.body)
            self.exec_block(stmt.orelse)
            self.exec_block(stmt.finalbody)
        # function/class defs, imports, etc.: no array semantics

    def _exec_for(self, stmt: ast.For) -> None:
        self._check_lane_loop(stmt)
        self._bind_unknown(stmt.target)
        self.exec_block(stmt.body)
        self.exec_block(stmt.orelse)

    def _check_lane_loop(self, stmt: ast.For) -> None:
        """SIM304: python-level iteration over the lane axis."""
        it = stmt.iter
        seq = it
        if (
            isinstance(it, ast.Call)
            and isinstance(it.func, ast.Name)
            and it.func.id in ("range", "enumerate")
            and it.args
        ):
            seq = it.args[-1] if it.func.id == "range" else it.args[0]
        av = self.eval(seq)
        lane_dim = (
            av.kind == "dim"
            and av.contract is not None
            and av.contract.lane_axis == av.dim
        )
        lane_major = (
            av.is_array
            and av.shape
            and self.lane_symbol is not None
            and av.shape[0] == self.lane_symbol
        )
        if lane_dim or lane_major:
            self.flag(
                "lane-loop", stmt,
                "python-level loop over the lane axis devectorizes the "
                "kernel; lift the lane dimension into the array operation",
                "lane-loop",
            )
            return
        # loop over <param>.<attr> of an unannotated param: record for
        # interprocedural resolution against the caller's contract args
        if (
            isinstance(seq, ast.Attribute)
            and isinstance(seq.value, ast.Name)
            and seq.value.id in self.params
            and seq.value.id not in self.contract_params
        ):
            self.dim_loops.append({
                "param": seq.value.id,
                "attr": seq.attr,
                "loc": _loc(stmt),
                "end": _end(stmt),
            })

    def _bind_unknown(self, target: ast.AST) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = _UNKNOWN
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind_unknown(elt)

    # -- assignment -----------------------------------------------------
    def _exec_assign(self, targets: Sequence[ast.AST], value: ast.expr) -> None:
        # tuple-unpack forms first: nonzero, tuple-of-exprs
        target = targets[0] if len(targets) == 1 else None
        if isinstance(target, (ast.Tuple, ast.List)):
            if self._assign_unpack(target, value):
                return
        av = self.eval(value)
        for tgt in targets:
            self._assign_single(tgt, value, av)

    def _assign_unpack(self, target: ast.Tuple, value: ast.expr) -> bool:
        names = [e.id for e in target.elts if isinstance(e, ast.Name)]
        if len(names) != len(target.elts):
            self._bind_unknown(target)
            self.eval(value)
            return True
        # lane, r, p, v = np.nonzero(mask)
        if (
            isinstance(value, ast.Call)
            and _np_attr(value.func) in ("nonzero", "where")
            and len(value.args) == 1
        ):
            mask = self.eval(value.args[0])
            self._bind_nonzero(names, mask, value)
            return True
        # a, b = a[m], b[m]  (tuple of expressions)
        if isinstance(value, ast.Tuple) and len(value.elts) == len(names):
            avs = [self.eval(e) for e in value.elts]
            for name, av in zip(names, avs):
                self.env[name] = av
            return True
        self._bind_unknown(target)
        self.eval(value)
        return True

    def _bind_nonzero(
        self, names: List[str], mask: AV, node: ast.Call
    ) -> None:
        self._nz_counter += 1
        nz_id = self._nz_counter
        arity = len(names)
        if mask.rank is not None and mask.rank != arity:
            self.flag(
                "shape-contract", node,
                f"np.nonzero over a rank-{mask.rank} array unpacked into "
                f"{arity} names; the declared layout has {mask.rank} axes",
                "nonzero-arity",
            )
        for axis, name in enumerate(names):
            lane = (
                self.lane_ctx
                and axis == 0
                and mask.shape is not None
                and bool(mask.shape)
                and mask.shape[0] == self.lane_symbol
            )
            self.env[name] = AV(
                kind="array", shape=("n",), dtype="int64",
                known=mask.known, lane=lane,
                nz=(nz_id, axis, arity),
            )

    def _assign_single(
        self, target: ast.AST, value: ast.expr, av: AV
    ) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = av
        elif isinstance(target, ast.Subscript):
            entries = self._index_entries(target)
            base = self.eval(target.value)
            self._check_layout(base, entries, target)
            if self._reads_same_cell(target, value):
                self._check_alias(
                    base, entries, target,
                    "fancy-indexed read-modify-write through possibly-"
                    "duplicate indices; duplicates drop updates — use "
                    "np.<ufunc>.at or winnowed (winner-unique) indices",
                )
        elif isinstance(target, (ast.Tuple, ast.List)):
            self._bind_unknown(target)
        # attribute targets: state rebinding, no array semantics

    def _exec_augassign(self, stmt: ast.AugAssign) -> None:
        self.eval(stmt.value)
        target = stmt.target
        if isinstance(target, ast.Name):
            current = self.env.get(target.id, _UNKNOWN)
            self.env[target.id] = current.copy(winnow=False, bounded=False)
            return
        if isinstance(target, ast.Subscript):
            entries = self._index_entries(target)
            base = self.eval(target.value)
            self._check_layout(base, entries, target)
            self._check_alias(
                base, entries, target,
                "in-place augmented update through possibly-duplicate "
                "fancy indices; duplicated buckets lose increments — use "
                "np.<ufunc>.at or winnowed (winner-unique) indices",
            )

    def _reads_same_cell(self, target: ast.Subscript, value: ast.expr) -> bool:
        """``a[idx] = f(a[idx])`` — the value re-reads the written cells."""
        want = (ast.dump(target.value), ast.dump(target.slice))
        for node in ast.walk(value):
            if isinstance(node, ast.Subscript):
                got = (ast.dump(node.value), ast.dump(node.slice))
                if got == want:
                    return True
        return False

    # -- SIM303/SIM305 index analysis ----------------------------------
    def _index_entries(
        self, node: ast.Subscript
    ) -> List[Tuple[str, Optional[AV]]]:
        """Classify each index component of a subscript."""
        raw = node.slice
        parts = list(raw.elts) if isinstance(raw, ast.Tuple) else [raw]
        entries: List[Tuple[str, Optional[AV]]] = []
        for part in parts:
            if isinstance(part, ast.Slice):
                entries.append(("slice", None))
            elif isinstance(part, ast.Constant) and part.value is None:
                entries.append(("newaxis", None))
            elif isinstance(part, ast.Constant) and part.value is Ellipsis:
                entries.append(("ellipsis", None))
            elif isinstance(part, ast.Constant):
                entries.append(("int", None))
            else:
                av = self.eval(part)
                if av.kind == "mask" or av.select:
                    entries.append(("mask", av))
                elif av.is_array:
                    entries.append(("fancy", av))
                else:
                    entries.append(("int", None))
        return entries

    def _check_layout(
        self,
        base: AV,
        entries: List[Tuple[str, Optional[AV]]],
        node: ast.Subscript,
    ) -> None:
        """SIM305: an index that disagrees with the declared layout."""
        if not self._check_arity(base, entries, node):
            self._check_family(base, entries, node)

    def _check_arity(
        self,
        base: AV,
        entries: List[Tuple[str, Optional[AV]]],
        node: ast.Subscript,
    ) -> bool:
        """More axes consumed than the declared layout has (flags; True)."""
        if base.rank is None:
            return False
        consumed = 0
        for kind, av in entries:
            if kind in ("slice", "int", "fancy"):
                consumed += 1
            elif kind == "mask":
                consumed += av.rank if av and av.rank is not None else 1
            # ellipsis consumes the remainder, newaxis consumes nothing
        if consumed > base.rank:
            layout = ",".join(base.shape or ())
            self.flag(
                "shape-contract", node,
                f"index consumes {consumed} axes but the declared layout "
                f"[{layout}] has rank {base.rank}",
                "index-arity",
            )
            return True
        return False

    def _check_family(
        self,
        base: AV,
        entries: List[Tuple[str, Optional[AV]]],
        node: ast.Subscript,
    ) -> None:
        """A flat index of one family into an axis laid out as another."""
        if base.shape is None:
            return
        for axis, (kind, av) in zip(base.shape, entries):
            if kind in ("ellipsis", "newaxis"):
                return  # positions no longer line up with axes
            layout = _family_of_shape((axis,))
            if (
                kind == "fancy"
                and av is not None
                and av.flat
                and layout
                and av.flat != layout
            ):
                self.flag(
                    "shape-contract", node,
                    f"flat index over [{','.join(av.flat)}] indexes an axis "
                    f"laid out [{','.join(layout)}]",
                    "index-family",
                )

    def _check_alias(
        self,
        base: AV,
        entries: List[Tuple[str, Optional[AV]]],
        node: ast.AST,
        message: str,
    ) -> None:
        """SIM303: in-place update through maybe-duplicate fancy indices."""
        fancy = [av for kind, av in entries if kind == "fancy" and av]
        if not fancy:
            return  # slices, scalars, and bool masks cannot duplicate
        if any(av.kind == "unknown" or not av.known for av in fancy):
            return  # unknown provenance: stay quiet rather than guess
        if all(av.winnow for av in fancy):
            return  # winner-unique by the scatter-min discipline
        if self._full_nonzero_tuple(fancy):
            return  # the complete component tuple of one nonzero
        self.flag("index-aliasing", node, message, "index-aliasing")

    @staticmethod
    def _full_nonzero_tuple(fancy: List[AV]) -> bool:
        """All components of a single nonzero, identically filtered."""
        if any(av.nz is None for av in fancy):
            return False
        ids = {av.nz[0] for av in fancy}
        chains = {av.chain for av in fancy}
        axes = [av.nz[1] for av in fancy]
        arity = fancy[0].nz[2]
        if len(ids) != 1 or len(chains) != 1:
            return False
        if any("?" in c for chain in chains for c in chain):
            return False
        return len(set(axes)) == len(axes) and len(axes) == arity

    # -- expressions ----------------------------------------------------
    def eval(self, node: ast.expr) -> AV:
        if isinstance(node, ast.Name):
            return self.env.get(node.id, _UNKNOWN)
        if isinstance(node, ast.Constant):
            if isinstance(node.value, (int, float)) and not isinstance(
                node.value, bool
            ):
                return AV(kind="const", known=True, dtype="int64"
                          if isinstance(node.value, int) else "float64")
            return _UNKNOWN
        if isinstance(node, ast.Attribute):
            return self._eval_attribute(node)
        if isinstance(node, ast.Subscript):
            self._check_declared(node.value)
            base = self.eval(node.value)
            return self._subscript(base, node.slice, node)
        if isinstance(node, ast.BinOp):
            return self._eval_binop(node)
        if isinstance(node, ast.UnaryOp):
            inner = self.eval(node.operand)
            if isinstance(node.op, ast.Invert) and inner.kind == "mask":
                return inner.copy(winnow=False)
            return inner.copy(winnow=False, nz=None)
        if isinstance(node, ast.Compare):
            return self._eval_compare(node)
        if isinstance(node, ast.BoolOp):
            for v in node.values:
                self.eval(v)
            return _UNKNOWN
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.IfExp):
            self.eval(node.test)
            a, b = self.eval(node.body), self.eval(node.orelse)
            return a if a.kind != "unknown" else b
        if isinstance(node, (ast.Tuple, ast.List)):
            for elt in node.elts:
                self.eval(elt)
            return _UNKNOWN
        return _UNKNOWN

    def _eval_attribute(self, node: ast.Attribute) -> AV:
        base = self.eval(node.value)
        if base.kind == "contract" and base.contract is not None:
            contract = base.contract
            if node.attr in contract.fields:
                spec = contract.fields[node.attr]
                return AV(
                    kind="array", shape=spec.axes, dtype=spec.dtype,
                    known=True, values=spec.values, contract=contract,
                    lane_part=contract.lane_partitioned(spec.values),
                    zeros=len(spec.stride),
                    lossy=contract.is_index_table(spec) and not spec.injective,
                )
            if node.attr in contract.dims:
                return AV(kind="dim", known=True, dim=node.attr,
                          contract=contract, dtype="int64")
        return _UNKNOWN

    def _check_declared(self, node: ast.expr) -> None:
        """SIM305: ``st.<attr>[...]`` where the contract declares no ``attr``."""
        if not isinstance(node, ast.Attribute):
            return
        owner = self.eval(node.value)
        contract = owner.contract if owner.kind == "contract" else None
        if contract is None or node.attr in contract.fields or node.attr in contract.dims:
            return
        self.flag(
            "shape-contract", node,
            f"'{node.attr}' is indexed but {contract.name}'s SHAPE_CONTRACT does "
            "not declare it; whatever is gathered through it is invisible to "
            "the kernel rules — declare its shape, dtype and value domain",
            f"undeclared-field:{node.attr}",
        )

    def _eval_binop(self, node: ast.BinOp) -> AV:
        left = self.eval(node.left)
        right = self.eval(node.right)
        operands = [left, right]
        arrays = [o for o in operands if o.is_array]
        known = all(o.known for o in operands)
        dtype = self._promote(operands)
        op = node.op
        left_dims, right_dims = _dim_factors(left), _dim_factors(right)
        if isinstance(op, ast.Mult) and left_dims and right_dims:
            return AV(
                kind="dim", known=True, dtype="int64", contract=left.contract,
                dim="*".join(left_dims + right_dims),
            )
        if arrays and all(o.kind == "mask" for o in arrays) and isinstance(
            op, (ast.BitAnd, ast.BitOr, ast.BitXor)
        ):
            # a subset of a winner mask still has one winner per bucket
            return AV(
                kind="mask", shape=arrays[0].shape, dtype="bool", known=known,
                winnow=isinstance(op, ast.BitAnd) and any(o.winnow for o in arrays),
            )
        flat = self._flat_binop(op, left, right)
        if flat is not None:
            flat.known, flat.dtype = known, dtype
            return flat
        lane = any(o.lane for o in operands)
        lane_part = any(o.lane_part for o in operands)
        shape = arrays[0].shape if arrays else None
        kind = "array" if arrays else "const"
        if not arrays and not all(o.kind in ("const", "dim") for o in operands):
            kind = "unknown"
            known = False
        # only shifting or scaling one index array keeps it duplicate-free
        winnow = (
            len(arrays) == 1
            and arrays[0].winnow
            and isinstance(op, (ast.Add, ast.Sub, ast.Mult))
        )
        bounded = isinstance(op, ast.Mod)
        if bounded:
            lane = False  # a remainder no longer determines the lane
        return AV(
            kind=kind, shape=shape, dtype=dtype, known=known, lane=lane,
            lane_part=lane_part, winnow=winnow, bounded=bounded,
        )

    def _flat_binop(self, op: ast.operator, left: AV, right: AV) -> Optional[AV]:
        """Flat-index algebra; ``None`` when ``op`` is not part of it."""

        def of_family(index: AV, family: Tuple[str, ...], **kw) -> AV:
            return AV(
                kind="array", shape=index.shape, flat=family,
                lane=self.lane_major(family), **kw,
            )

        if isinstance(op, ast.Mult):
            for index, other in ((left, right), (right, left)):
                family, dims = index.flat, _dim_factors(other)
                if index.is_array and family and dims:
                    return of_family(
                        index, family + dims, zeros=len(dims), winnow=index.winnow
                    )
        elif isinstance(op, ast.Add):
            for index, other in ((left, right), (right, left)):
                family, digits = index.flat, other.flat
                if (
                    index.is_array
                    and family
                    and digits
                    and len(digits) <= index.zeros
                    and family[-len(digits):] == digits
                ):
                    return of_family(index, family, winnow=index.winnow)
        elif isinstance(op, (ast.FloorDiv, ast.Mod)):
            index, dims = left, _dim_factors(right)
            if not (index.is_array and dims):
                return None
            family, k = index.flat or (), len(dims)
            trailing = sorted(family[-k:]) == sorted(dims)
            if isinstance(op, ast.Mod):
                # in [0, prod dims) whatever the left side was
                return AV(
                    kind="array", shape=index.shape, bounded=True,
                    flat=family[-k:] if trailing else dims,
                    lane=trailing and k == len(family) and index.lane,
                )
            if trailing and k < len(family):
                return of_family(index, family[:-k])
            # dividing by dims that are not the trailing ones: no family,
            # and whether the lane survives is not known
            return AV(kind="array", shape=index.shape)
        return None

    @staticmethod
    def _promote(operands: Sequence[AV]) -> Optional[str]:
        width, name = 0, None
        for o in operands:
            if o.dtype is None:
                return None
            w = DTYPE_WIDTH.get(o.dtype, 0)
            if w >= width:
                width, name = w, o.dtype
        return name

    def _eval_compare(self, node: ast.Compare) -> AV:
        left = self.eval(node.left)
        rights = [self.eval(c) for c in node.comparators]
        operands = [left] + rights
        arrays = [o for o in operands if o.is_array]
        shape = arrays[0].shape if arrays else None
        winnow = len(node.ops) == 1 and isinstance(
            node.ops[0], ast.Eq
        ) and self._is_winnow_compare(node)
        return AV(
            kind="mask", shape=shape,
            known=all(o.known for o in operands),
            winnow=winnow, dtype="bool",
        )

    def _is_winnow_compare(self, node: ast.Compare) -> bool:
        """``score == best[key]`` after ``np.minimum.at(best, key, score)``."""
        for a, b in ((node.left, node.comparators[0]),
                     (node.comparators[0], node.left)):
            if not (isinstance(a, ast.Name) and isinstance(b, ast.Subscript)):
                continue
            if not (isinstance(b.value, ast.Name)
                    and isinstance(b.slice, ast.Name)):
                continue
            best = self.env.get(b.value.id)
            if best is not None and best.scatter == (b.slice.id, a.id):
                return True
        return False

    # -- subscripting ---------------------------------------------------
    def _subscript(
        self, base: AV, index: ast.expr, node: ast.Subscript
    ) -> AV:
        if base.kind == "nonzero":
            return self._nonzero_component(base, index)
        entries = self._index_entries(node)
        self._check_layout(base, entries, node)
        if base.kind == "unknown" or base.shape is None:
            return _UNKNOWN

        has_fancy = any(k in ("fancy", "mask") for k, _ in entries)
        if not has_fancy:
            # ints/slices/ellipsis/newaxis only: drop int axes, keep slices
            return self._basic_subscript(base, entries)

        fancy_avs = [av for k, av in entries if k in ("fancy", "mask") and av]
        result_winnow = (
            all(av.winnow for av in fancy_avs) if fancy_avs else False
        )
        # a 1-D filter over an index array keeps its provenance
        if (
            base.rank == 1
            and len(entries) == 1
            and entries[0][0] == "mask"
        ):
            mask_node = (
                node.slice if not isinstance(node.slice, ast.Tuple)
                else node.slice.elts[0]
            )
            mask_av = entries[0][1]
            return base.copy(
                winnow=base.winnow or (mask_av.winnow if mask_av else False),
                chain=base.chain + (self._chain_id(mask_node),),
            )
        # general gather: data-dependent leading axis + surviving slices
        kept: List[str] = []
        consumed = 0
        axes = list(base.shape)
        explicit = 0
        for kind, av in entries:
            if kind in ("slice", "int", "fancy"):
                explicit += 1
            elif kind == "mask":
                explicit += av.rank if av and av.rank is not None else 1
        for kind, av in entries:
            if kind == "slice":
                if consumed < len(axes):
                    kept.append(axes[consumed])
                consumed += 1
            elif kind in ("int", "fancy"):
                consumed += 1
            elif kind == "mask":
                consumed += av.rank if av and av.rank is not None else 1
            elif kind == "ellipsis":
                take = max(0, len(axes) - explicit)
                kept.extend(axes[consumed:consumed + take])
                consumed += take
        kept.extend(axes[consumed:])
        shape = ("n",) + tuple(kept)
        known = base.known and all(
            av is None or av.known for _, av in entries
        )
        # values of a dim(-product) domain are flat indices of that family
        family = base.contract.family(base.values) if base.contract else None
        return AV(
            kind="mask" if base.kind == "mask" else "array",
            shape=shape,
            dtype=base.dtype,
            known=known,
            lane=base.lane or self.lane_major(family),
            lane_part=base.lane_part,
            winnow=(result_winnow and not base.lossy) or base.winnow,
            values=base.values,
            contract=base.contract,
            flat=family,
            zeros=base.zeros if family else 0,
        )

    def _flat_nonzero(self, mask: AV) -> AV:
        """``np.flatnonzero(mask)`` / ``mask.nonzero()[0]`` of a 1-d mask
        (``mask.winnow``: it is a winner mask, not merely duplicate-free)."""
        family = _family_of_shape(mask.shape)
        if family is None:
            # over a data-dependent extent: a selection, filters like the mask
            return AV(
                kind="array", shape=("n",), dtype="int64", known=mask.known,
                select=True, winnow=mask.winnow,
            )
        return AV(
            kind="array", shape=("n",), dtype="int64", known=mask.known,
            flat=family, winnow=True,  # each cell at most once
            lane=self.lane_major(family),
        )

    def _nonzero_component(self, nonzero: AV, index: ast.expr) -> AV:
        """``mask.nonzero()[k]``."""
        if nonzero.rank == 1:
            return self._flat_nonzero(nonzero)
        first = isinstance(index, ast.Constant) and index.value == 0
        return AV(
            kind="array", shape=("n",), dtype="int64", known=nonzero.known,
            lane=first and self.lane_major(nonzero.shape),
        )

    def _basic_subscript(
        self, base: AV, entries: List[Tuple[str, Optional[AV]]]
    ) -> AV:
        axes = list(base.shape or ())
        explicit = sum(1 for k, _ in entries if k in ("slice", "int"))
        shape: List[str] = []
        pos = 0
        for kind, _ in entries:
            if kind == "slice":
                if pos < len(axes):
                    shape.append(axes[pos])
                pos += 1
            elif kind == "int":
                pos += 1
            elif kind == "newaxis":
                shape.append("1")
            elif kind == "ellipsis":
                take = max(0, len(axes) - explicit)
                shape.extend(axes[pos:pos + take])
                pos += take
        shape.extend(axes[pos:])
        if not shape:
            return AV(kind="const", known=base.known, dtype=base.dtype,
                      values=base.values)
        return base.copy(shape=tuple(shape), nz=None, winnow=base.winnow)

    # -- calls ----------------------------------------------------------
    def _eval_call(self, node: ast.Call) -> AV:
        for kw in node.keywords:
            if kw.arg != "axis":
                self.eval(kw.value)

        ufunc = _np_ufunc_at(node.func)
        if ufunc is not None:
            return self._eval_ufunc_at(node, ufunc)

        np_name = _np_attr(node.func)
        if np_name is not None:
            return self._eval_np_call(node, np_name)

        if isinstance(node.func, ast.Attribute):
            return self._eval_method(node)

        # plain call: record for interprocedural lane-loop resolution
        fn = _dotted(node.func)
        args = []
        for arg in node.args:
            av = self.eval(arg)
            args.append(
                av.contract.name
                if av.kind == "contract" and av.contract else None
            )
        self.calls.append({
            "fn": fn or "?", "loc": _loc(node), "args": args,
        })
        return _UNKNOWN

    def _eval_ufunc_at(self, node: ast.Call, ufunc: str) -> AV:
        """``np.<ufunc>.at(target, key, val)`` — sanctioned scatter."""
        if len(node.args) < 2:
            return _UNKNOWN
        target, key = node.args[0], node.args[1]
        key_av = self.eval(key)
        if len(node.args) > 2:
            self.eval(node.args[2])
        self._check_lane_key(key, key_av, node)
        # record the scatter-min so `score == best[key]` winnows
        if (
            ufunc in ("minimum", "maximum")
            and isinstance(target, ast.Name)
            and isinstance(key, ast.Name)
            and len(node.args) > 2
            and isinstance(node.args[2], ast.Name)
        ):
            base = self.env.get(target.id)
            if base is not None:
                updated = base.copy()
                updated.scatter = (key.id, node.args[2].id)
                self.env[target.id] = updated
        return _UNKNOWN

    def _check_lane_key(
        self, key_node: ast.expr, key_av: AV, node: ast.AST
    ) -> None:
        """SIM301: a scatter bucket key must fold the lane index in."""
        if not self.lane_ctx:
            return
        if isinstance(key_node, (ast.Tuple, ast.List)):
            avs = [self.eval(e) for e in key_node.elts]
            if not avs or not all(a.known for a in avs):
                return
            if any(a.lane or a.lane_part for a in avs):
                return
        else:
            if not key_av.known:
                return
            if key_av.lane or key_av.lane_part:
                return
            if not key_av.is_array:
                return
        self.flag(
            "lane-isolation", node,
            "scatter bucket key does not fold the lane index in; "
            "arbitration buckets from different lanes collide",
            "scatter-key",
        )

    def _eval_np_call(self, node: ast.Call, name: str) -> AV:
        if name == "bincount" and node.args:
            av = self.eval(node.args[0])
            if (
                self.lane_ctx
                and av.known
                and av.is_array
                and not (av.lane or av.lane_part)
            ):
                self.flag(
                    "lane-isolation", node,
                    "np.bincount over a non-lane key collapses counts "
                    "across lanes; fold the lane index into the key or "
                    "bincount per lane",
                    "bincount",
                )
            return AV(kind="array", shape=("?",), dtype="int64",
                      known=av.known)
        if name == "where" and len(node.args) == 3:
            cond = self.eval(node.args[0])
            a, b = self.eval(node.args[1]), self.eval(node.args[2])
            return AV(
                kind="array", shape=cond.shape,
                dtype=self._promote([a, b]),
                known=cond.known and a.known and b.known,
                lane=a.lane or b.lane,
                lane_part=a.lane_part and b.lane_part,
            )
        if name == "flatnonzero" and node.args:
            mask = self.eval(node.args[0])
            if mask.shape is None:
                return _UNKNOWN
            # C order: a flat index over all of the mask's axes
            return self._flat_nonzero(mask.copy(
                shape=("*".join(mask.shape),),
                winnow=mask.kind == "mask" and mask.winnow,
            ))
        if name == "nonzero" and node.args:
            self.eval(node.args[0])
            return _UNKNOWN
        if name in ("argmax", "argmin") and node.args:
            return self._arg_extreme(node, self.eval(node.args[0]))
        if name in _REDUCERS and node.args:
            arr = self.eval(node.args[0])
            return self._reduce(node, arr, name)
        if name in _ALLOCATORS:
            return self._allocate(node, name)
        if name in ("asarray", "ascontiguousarray", "copy"):
            if node.args:
                return self.eval(node.args[0])
        for arg in node.args:
            self.eval(arg)
        return _UNKNOWN

    def _arg_extreme(self, node: ast.Call, arr: AV) -> AV:
        """``np.argmax(arr, axis=k)`` / ``arr.argmin(axis=k)``."""
        axis = self._check_axis(node, arr)
        shape: Tuple[str, ...] = ("n",)
        reduced = None
        if arr.shape is not None and axis is not None:
            shape = tuple(
                s for i, s in enumerate(arr.shape) if i != axis
            ) or ("n",)
            # an argmax along one axis is a position in that axis
            reduced = _family_of_shape((arr.shape[axis],))
        return AV(kind="array", shape=shape, dtype="int64",
                  known=arr.known, flat=reduced)

    def _eval_method(self, node: ast.Call) -> AV:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return _UNKNOWN
        base = self.eval(func.value)
        method = func.attr
        if method == "astype":
            return self._eval_astype(node, base)
        if method in _REDUCERS:
            return self._reduce(node, base, method)
        if method in ("argmax", "argmin"):
            return self._arg_extreme(node, base)
        if method == "copy":
            return base
        if method == "nonzero" and base.is_array and base.shape is not None:
            return base.copy(
                kind="nonzero", nz=None,
                winnow=base.kind == "mask" and base.winnow,
            )
        if method in ("ravel", "flatten") or (
            method == "reshape"
            and len(node.args) == 1
            and isinstance(node.args[0], ast.UnaryOp)
            and isinstance(node.args[0].op, ast.USub)
        ):
            # C-order flattening: one product axis over the same family
            shape = base.shape
            if base.is_array and shape and _family_of_shape(shape):
                return base.copy(shape=("*".join(shape),), nz=None, winnow=False)
            return _UNKNOWN
        for arg in node.args:
            self.eval(arg)
        if base.kind == "contract":
            self.calls.append({
                "fn": f"self.{method}" if isinstance(func.value, ast.Name)
                and func.value.id in ("self", "cls") else (_dotted(func) or "?"),
                "loc": _loc(node),
                "args": [],
            })
        return _UNKNOWN

    def _eval_astype(self, node: ast.Call, base: AV) -> AV:
        """SIM302: narrowing casts need a bound."""
        if not node.args:
            return base
        arg = node.args[0]
        target_dtype: Optional[str] = None
        annotated = False
        if isinstance(arg, ast.Name):
            if arg.id in self.registry.dtype_bounds:
                target_dtype = self.registry.dtype_bounds[arg.id]
                annotated = True
        else:
            name = _np_attr(arg)
            if name in DTYPE_WIDTH:
                target_dtype = name
        result = base.copy(winnow=base.winnow, bounded=False)
        if target_dtype is None:
            return result
        result.dtype = target_dtype
        if annotated or base.bounded:
            return result
        src = base.dtype
        if (
            src is not None
            and src in DTYPE_WIDTH
            and DTYPE_WIDTH[target_dtype] < DTYPE_WIDTH[src]
            and base.known
        ):
            self.flag(
                "dtype-narrowing", node,
                f"astype narrows {src} to {target_dtype} without a bound: "
                "use a # bound:-annotated dtype constant from the layout "
                "module, or reduce the value modulo its range first",
                f"astype-{target_dtype}",
            )
        return result

    def _reduce(self, node: ast.Call, base: AV, name: str) -> AV:
        axis = self._check_axis(node, base)
        if axis is None:
            # full reduction (or unknown axis): scalar-ish, deliberate
            return AV(kind="const", known=base.known,
                      dtype=base.dtype if name not in ("any", "all") else "bool")
        if (
            self.lane_ctx
            and base.shape is not None
            and 0 <= axis < len(base.shape)
            and base.shape[axis] == self.lane_symbol
        ):
            self.flag(
                "lane-isolation", node,
                f"axis={axis} reduction collapses the lane axis "
                f"'{self.lane_symbol}'; per-lane results leak across lanes",
                "axis-reduce",
            )
        shape = None
        if base.shape is not None and 0 <= axis < len(base.shape):
            shape = tuple(
                s for i, s in enumerate(base.shape) if i != axis
            ) or None
        kind = "mask" if name in ("any", "all") else "array"
        return AV(
            kind=kind if shape else "const",
            shape=shape,
            dtype="bool" if name in ("any", "all") else base.dtype,
            known=base.known,
        )

    def _check_axis(self, node: ast.Call, base: AV) -> Optional[int]:
        """Evaluate an ``axis=`` argument; SIM305 when out of range."""
        axis_node = None
        for kw in node.keywords:
            if kw.arg == "axis":
                axis_node = kw.value
        if axis_node is None:
            return None
        if not (isinstance(axis_node, ast.Constant)
                and isinstance(axis_node.value, int)):
            return None
        axis = axis_node.value
        rank = base.rank
        if rank is not None:
            normalized = axis + rank if axis < 0 else axis
            if not 0 <= normalized < rank:
                layout = ",".join(base.shape or ())
                self.flag(
                    "shape-contract", node,
                    f"axis={axis} is out of range for the declared "
                    f"layout [{layout}] (rank {rank})",
                    "axis-range",
                )
                return None
            return normalized
        return axis

    def _allocate(self, node: ast.Call, name: str) -> AV:
        if not node.args:
            return _UNKNOWN
        shape = self._shape_from_arg(node.args[0])
        for arg in node.args[1:]:
            self.eval(arg)
        dtype = None
        for kw in node.keywords:
            if kw.arg == "dtype":
                dt = _np_attr(kw.value)
                if dt in DTYPE_WIDTH:
                    dtype = dt
                elif (isinstance(kw.value, ast.Name)
                      and kw.value.id in self.registry.dtype_bounds):
                    dtype = self.registry.dtype_bounds[kw.value.id]
                elif isinstance(kw.value, ast.Name) and kw.value.id == "bool":
                    dtype = "bool"
        return AV(kind="array", shape=shape, dtype=dtype, known=True)

    def _shape_from_arg(self, arg: ast.expr) -> Optional[Tuple[str, ...]]:
        if isinstance(arg, (ast.Tuple, ast.List)):
            syms = []
            for elt in arg.elts:
                av = self.eval(elt)
                syms.append(av.dim if av.kind == "dim" and av.dim else "?")
            return tuple(syms)
        av = self.eval(arg)
        if av.kind == "dim" and av.dim:
            return (av.dim,)
        return ("?",)


# -- module extraction --------------------------------------------------
def _functions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node, None
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{sub.name}", sub, node.name


def extract_kernel_module(tree: ast.Module, registry: ContractRegistry) -> Dict:
    """Per-module kernel facts (JSON-serializable) of one parsed module."""
    functions: Dict[str, Dict] = {}
    for qual, node, owner in _functions(tree):
        interp = _FuncInterp(qual, node, registry, owner)
        interp.run()
        functions[qual] = {
            "loc": _loc(node),
            "params": interp.params,
            "contract_params": interp.contract_params,
            "lane_ctx": interp.lane_ctx,
            "candidates": interp.candidates,
            "dim_loops": interp.dim_loops,
            "calls": interp.calls,
        }
    return {"functions": functions}
