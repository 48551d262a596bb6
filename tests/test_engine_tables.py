"""The geometry tables of ``BatchState`` equal the arithmetic they replaced.

The kernels never decompose a flat index: every ``cell // V``, ``cell * B``,
``(v - ptr) % V`` and XY route is one gather from a table
``BatchState._bind_derived`` built once.  This file is the other half of
that bargain — over generated shapes (non-square meshes, ``V = 1``,
``B = 1``, one lane and three) each table is compared, entry for entry,
with the formula the ``batched-simd-2`` kernels computed per cycle.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.engine.layout import (
    _DERIVED,
    _XY_PORT,
    OWNER_DTYPE,
    PTR_DTYPE,
    SHAPE_CONTRACT,
    build_batch_state,
)
from repro.noc import Mesh, NocConfig

SHAPES = st.tuples(
    st.integers(1, 5),  # width
    st.integers(1, 4),  # height
    st.sampled_from((1, 3)),  # lanes
    st.integers(1, 4),  # V
    st.integers(1, 4),  # B
)


def _state(width, height, lanes, V, B):
    config = NocConfig(num_vcs=V, buffer_depth=B)
    return build_batch_state(Mesh(width, height), config, lanes)


@given(SHAPES)
def test_every_table_equals_the_arithmetic_it_replaced(shape):
    s = _state(*shape)
    L, R, P, V, B = s.L, s.R, s.P, s.V, s.B
    PV = P * V
    cell = np.arange(L * R * PV)
    pc = np.arange(L * R * P)
    v, p, code = cell % V, pc % P, cell % PV

    expected = {
        "cell_pc": cell // V,
        "cell_pc0": cell // PV * P,
        "cell_slot0": cell * B,
        "cell_rR": cell // PV % R * R,
        "cell_vV": v * V,
        "cell_code": code,
        "cell_codePV": code * PV,
        "cell_next_v": (v + 1) % V,
        "cell_lane": cell // (R * PV),
        "pc_cell0": pc * V,
        "pc_pP": p * P,
        "pc_next_p": (p + 1) % P,
        "slot_next": (np.arange(L * R * PV * B) % B + 1) % B,
        "ring_wrap": np.arange(2 * B) % B,
        "next_code": (np.arange(PV) + 1) % PV,
    }
    for n, name in ((V, "rank_v"), (P, "rank_p"), (PV, "rank_code")):
        i = np.arange(n * n)
        expected[name] = (i // n - i % n) % n  # rank[i*n + ptr] = (i - ptr) % n
    for name, want in expected.items():
        assert np.array_equal(getattr(s, name), want), name

    # what is used as an index or a scatter-min score is int64 (NumPy casts
    # any other index dtype per call; a mixed-dtype minimum.at is 8x slower),
    # what is scattered into a pointer array has that array's dtype
    for name in ("cell_pc", "cell_pc0", "cell_slot0", "cell_rR", "cell_vV",
                 "cell_code", "cell_codePV", "cell_lane", "nbr_cell", "held",
                 "pc_cell0", "pc_pP", "ring_wrap", "rank_v", "rank_p", "rank_code"):
        assert getattr(s, name).dtype == np.int64, name
    assert s.cell_next_v.dtype == s.sa_in_ptr.dtype == PTR_DTYPE
    assert s.pc_next_p.dtype == s.sa_out_ptr.dtype == PTR_DTYPE
    assert s.next_code.dtype == s.va_ptr.dtype == PTR_DTYPE
    assert s.slot_next.dtype == s.head.dtype
    assert s.xy_route.dtype == s.route_port.dtype
    assert np.iinfo(OWNER_DTYPE).max >= PV


@given(SHAPES)
def test_route_table_is_xy_for_every_router_pair(shape):
    s = _state(*shape)
    R = s.R
    for r in range(R):
        for dst in range(R):
            dx = int(np.sign(s.x[dst] - s.x[r]))
            dy = int(np.sign(s.y[dst] - s.y[r]))
            assert s.xy_route[r * R + dst] == _XY_PORT[dx * 3 + dy + 4], (r, dst)


@given(SHAPES)
def test_nbr_cell_is_the_same_vc_across_the_link_and_its_own_inverse(shape):
    s = _state(*shape)
    L, R, P, V = s.L, s.R, s.P, s.V
    for cell in range(L * R * P * V):
        v = cell % V
        port = cell // V % P
        r = cell // (P * V) % R
        lane = cell // (R * P * V)
        far_router = s.nbr_router[r, port]
        if far_router < 0:
            assert s.nbr_cell[cell] == -1 and not s.cell_linked[cell]
            continue
        far = ((lane * R + far_router) * P + s.nbr_port[r, port]) * V + v
        assert s.nbr_cell[cell] == far and s.cell_linked[cell]
        assert s.nbr_cell[far] == cell


def test_a_fresh_state_holds_nothing():
    s = _state(3, 2, 2, 2, 2)
    assert (s.held == -1).all()


def test_contract_declares_exactly_the_derived_state():
    """The lint's contract and the runtime agree on what is derived: an
    array ``_bind_derived`` builds is either a view (``flat_of``) or
    declared ``derived`` — so the kernel lint can never be handed a table
    it has not been told about."""
    fields = SHAPE_CONTRACT["BatchState"]["fields"]
    declared = {name for name, spec in fields.items()
                if "flat_of" in spec or spec.get("derived")}
    assert declared == set(_DERIVED)
    s = _state(2, 2, 1, 2, 2)
    arrays = {name for name, value in vars(s).items() if isinstance(value, np.ndarray)}
    assert arrays <= set(fields)
