"""Index-table negatives: gathers from declared tables, each in its family."""

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
            "rank_v": {"shape": "V*V", "dtype": "int64", "derived": True},
            "cell_lr": {"shape": "L*R*V", "dtype": "int64", "values": "L*R",
                        "derived": True},
            "cell_vV": {"shape": "L*R*V", "dtype": "int64", "values": "V*V",
                        "stride": "V", "derived": True},
            "cell_slot0": {"shape": "L*R*V", "dtype": "int64", "values": "L*R*V*B",
                           "stride": "B", "injective": True, "derived": True},
            "twin": {"shape": "L*R*V", "dtype": "int64", "values": "L*R*V",
                     "injective": True, "derived": True},
        },
        "domains": {"vc": {"dim": "V"}, "slot": {"dim": "B"}},
        "params": {"occ": "L*R*V"},
    },
}


def front_slots(st: "State", occ: np.ndarray) -> np.ndarray:
    return st.buf_f[st.cell_slot0[occ] + st.head_f[occ]]  # cell*B + slot


def arbitrate(st: "State", occ: np.ndarray) -> np.ndarray:
    router = st.cell_lr[occ]  # carries the lane: a lane-safe bucket key
    rank = st.rank_v[st.cell_vV[occ] + st.ptr_f[router]]  # v*V + ptr
    np.minimum.at(st.arb, router, rank)
    won = rank == st.arb[router]
    return occ[won.nonzero()[0]]


def update_through_injective_tables(st: "State", occ: np.ndarray) -> None:
    st.count_f[st.twin[occ]] += 1  # distinct cells have distinct twins
    st.buf_f[st.cell_slot0[occ] + st.head_f[occ]] -= 1
