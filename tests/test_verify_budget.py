"""A cost budget for the verifier's certificates that cannot flake.

Every fresh process that builds a paper-scale target certifies its
network before the first cycle, and most of what ``build_cdg`` used to
spend went on asking the routing function the same question again.  So, like ``tests/test_engine_dispatch_budget.py``, the
budget is a set of exact counts under an **equality** gate — a change
that lowers one updates a line below (and says so in its description), a
change that raises one fails until it argues why.

``sys.setprofile`` ``call`` events, for one ``build_cdg`` of a 16x16 mesh
under ``xy`` routing, ``any_free``, 4 VCs (256 routers, 960 channels, one
message class), and for filling all 256 hop rows of a fresh 16x16 mesh:

* ``routing.candidates`` — one row per destination, R·(R−1);
* ``routing.forbidden_turns`` — once per router;
* ``legal_output_vcs`` — once per (dateline class, message class);
* ``topology.neighbor`` — once per channel;
* ``hop_distance`` while hop rows fill — none: a row is one comprehension
  over the coordinates (``_hop_counts``, once per row).

History — candidates / forbidden_turns / legal_output_vcs / neighbor /
hop_distance per 256 rows:

* parent (0d81952): 129 600 / 64 320 / 129 600 / 65 280 / 65 536
* now:               65 280 /    256 /       2 /    960 /      0

The coherence certificate is paid for by every fresh process too.  For
one ``check_protocol(2)`` with the shipped tables (6 978 states), each
transition is computed once per distinct input, not once per state that
offers it: deliveries to the simulator's own controllers —
``HomeController.handle_message``, ``Core.handle_message`` and
``CmpSystem._on_mem_read`` (one per distinct message and receiver
state) — ``_msgs_remove`` (one per distinct multiset and message
delivered), ``_msgs_add`` (one per distinct multiset and non-empty set of
sends) and ``_msg_str`` (only while a trace is printed: none when it
certifies).

History — home / core / memory deliveries / add / remove / msg_str:

* parent (69d5242): 8 262 / 3 520 / 478 / 21 756 / 12 260 / 12 260
* a169a96:            740 /    70 /   2 /    226 /    332 /      0
  (deliveries counted on the checker's mirror: ``_home_deliver``,
  ``_core_deliver``, ``_mem_deliver``)
* now:                740 /    70 /   2 /    226 /    332 /      0
  (the mirror is gone; the same deliveries reach the controllers above)
"""

import sys

from repro.fullsys.cmp import CmpSystem
from repro.fullsys.core_model import Core
from repro.fullsys.directory import HomeController
from repro.noc.routing import XYRouting, make_routing
from repro.noc.topology import Mesh
from repro.noc.vcalloc import legal_output_vcs
from repro.verify import protocol
from repro.verify.cdg import build_cdg

#: calls per build_cdg(Mesh(16, 16), xy, num_vcs=4, any_free)
BUILD_CALLS = {
    "candidates": 65_280,
    "forbidden_turns": 256,
    "legal_output_vcs": 2,
    "neighbor": 960,
}
#: calls while every hop row of a fresh Mesh(16, 16) fills
ROW_CALLS = {"hop_distance": 0, "_hop_counts": 256}
#: calls per check_protocol(2) with the shipped tables
PROTOCOL_CALLS = {
    "HomeController.handle_message": 740,
    "Core.handle_message": 70,
    "CmpSystem._on_mem_read": 2,
    "_msgs_add": 226,
    "_msgs_remove": 332,
    "_msg_str": 0,
}
#: where each counted function lives
PROTOCOL_CODE = {
    "HomeController.handle_message": HomeController.handle_message.__code__,
    "Core.handle_message": Core.handle_message.__code__,
    "CmpSystem._on_mem_read": CmpSystem._on_mem_read.__code__,
    "_msgs_add": protocol._msgs_add.__code__,
    "_msgs_remove": protocol._msgs_remove.__code__,
    "_msg_str": protocol._msg_str.__code__,
}


def _count(watched, action) -> dict:
    """``call`` events of the watched functions while ``action`` runs.

    ``watched`` maps a name to a code object, or to ``None`` to count every
    function of that name (so an override in any class is caught too).
    """
    codes = {code: name for name, code in watched.items() if code is not None}
    by_name = {name for name, code in watched.items() if code is None}
    counts = dict.fromkeys(watched, 0)

    def profile(frame, event, _arg):
        if event != "call":
            return
        code = frame.f_code
        name = codes.get(code)
        if name is None and code.co_name in by_name:
            name = code.co_name
        if name is not None:
            counts[name] += 1

    sys.setprofile(profile)
    try:
        action()
    finally:
        sys.setprofile(None)
    return counts


def test_one_cdg_build_asks_each_question_once():
    topo, routing = Mesh(16, 16), make_routing("xy")
    counts = _count(
        {
            "candidates": XYRouting.candidates.__code__,
            "forbidden_turns": XYRouting.forbidden_turns.__code__,
            "legal_output_vcs": legal_output_vcs.__code__,
            "neighbor": Mesh.neighbor.__code__,
        },
        lambda: build_cdg(topo, routing, 4, "any_free"),
    )
    assert counts == BUILD_CALLS, (
        f"build_cdg call counts moved: {counts} vs budget {BUILD_CALLS} (down: "
        "update BUILD_CALLS and the history in this file's docstring; up: justify it)"
    )


def test_hop_rows_fill_without_hop_distance():
    topo = Mesh(16, 16)

    def fill_every_row():
        for router in topo.routers():
            topo.node_distance(router, 0)

    counts = _count({"hop_distance": None, "_hop_counts": None}, fill_every_row)
    assert counts == ROW_CALLS, (
        f"hop-row fill call counts moved: {counts} vs budget {ROW_CALLS}"
    )


def test_protocol_computes_each_transition_once():
    counts = _count(PROTOCOL_CODE, lambda: protocol.check_protocol(2))
    assert counts == PROTOCOL_CALLS, (
        f"check_protocol call counts moved: {counts} vs budget {PROTOCOL_CALLS} "
        "(down: update PROTOCOL_CALLS and the history in this file's docstring; "
        "up: justify it)"
    )
