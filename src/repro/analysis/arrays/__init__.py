"""SIM3xx kernel analysis: array semantics for the vectorized NoC layer.

An abstract interpreter over the NumPy-using kernel modules that tracks
symbolic tensor shapes (declared once as machine-readable shape
contracts next to the state dataclasses), dtypes, and index provenance,
and checks the invariants the lane-batched engine hand-maintains:

* **SIM301 lane-isolation** — a scatter/bincount bucket key or an
  ``axis=`` reduction collapses the lane axis without folding the lane
  index in;
* **SIM302 dtype-narrowing** — an ``astype`` downcast whose value is
  neither modulo-bounded nor stored via a ``# bound:``-annotated dtype
  constant;
* **SIM303 index-aliasing** — an in-place read-modify-write through
  possibly-duplicate fancy indices without ``np.ufunc.at``;
* **SIM304 lane-loop** — a Python-level loop over the lane axis inside a
  kernel module (silent devectorization);
* **SIM305 shape-contract** — indexing arity, unpack arity, or ``axis=``
  disagreeing with the declared layout.

It reuses the SIM2xx flow machinery: the content-hashed summary cache
(its own ``arrays.json`` document in the same cache dir), the call
graph for propagating contract types into helpers, the suppression
baseline, and the SARIF renderer.  Entry point:
``python -m repro lint --kernels``.
"""

from .contracts import ContractRegistry, build_registry
from .rules import ARRAY_RULES, ArraysConfig

__all__ = [
    "ARRAY_RULES",
    "ArraysConfig",
    "ContractRegistry",
    "build_registry",
]
