"""Index-table positives: what a declared table must *not* let through."""

import numpy as np

SHAPE_CONTRACT = {
    "State": {
        "dims": ["L", "R", "V", "B"],
        "lane_axis": "L",
        "fields": {
            "count": {"shape": "L,R,V", "dtype": "int32"},
            "count_f": {"shape": "L*R*V", "flat_of": "count"},
            "head_f": {"shape": "L*R*V", "dtype": "int32", "values": "slot"},
            "ptr_f": {"shape": "L*R", "dtype": "int32", "values": "vc"},
            "buf_f": {"shape": "L*R*V*B", "dtype": "int32"},
            "arb": {"shape": "L*R", "dtype": "int64"},
            # cell -> its router (many-to-one), -> v*V (lane-less), -> cell*B
            "cell_lr": {"shape": "L*R*V", "dtype": "int64", "values": "L*R",
                        "derived": True},
            "cell_vV": {"shape": "L*R*V", "dtype": "int64", "values": "V*V",
                        "stride": "V", "derived": True},
            "cell_slot0": {"shape": "L*R*V", "dtype": "int64", "values": "L*R*V*B",
                           "stride": "B", "injective": True, "derived": True},
        },
        "domains": {"vc": {"dim": "V"}, "slot": {"dim": "B"}},
        "params": {"occ": "L*R*V"},
    },
}


def wrong_table(st: "State", occ: np.ndarray) -> np.ndarray:
    return st.ptr_f[st.cell_vV[occ]]  # SIM305: a (V,V) index into an (L,R) view


def undeclared_table(st: "State", occ: np.ndarray) -> np.ndarray:
    return st.count_f[st.cell_twin[occ]]  # SIM305: the contract has no cell_twin


def lossy_table_rmw(st: "State", occ: np.ndarray) -> None:
    st.ptr_f[st.cell_lr[occ]] += 1  # SIM303: many cells share one router


def laneless_table_key(st: "State", occ: np.ndarray, score: np.ndarray) -> None:
    np.minimum.at(st.arb, st.cell_vV[occ], score)  # SIM301: v*V has no lane


def slot_into_the_cell_view(st: "State", occ: np.ndarray) -> np.ndarray:
    front = st.cell_slot0[occ] + st.head_f[occ]  # stride B + a slot: (L,R,V,B)
    return st.count_f[front]  # SIM305: a buffer-slot index into an (L,R,V) view
