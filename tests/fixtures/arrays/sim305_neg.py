"""SIM305 negatives: arities and axes that match the contract."""

import numpy as np

SHAPE_CONTRACT = {
    "State": {
        "dims": ["L", "R", "V"],
        "lane_axis": "L",
        "fields": {
            "count": {"shape": "L,R,V", "dtype": "int32"},
            "count_f": {"shape": "L*R*V", "flat_of": "count"},
            "ptr_f": {"shape": "L*R", "dtype": "int32"},
        },
        "domains": {},
    },
}


def unpack(st: "State") -> np.ndarray:
    lane, r, v = np.nonzero(st.count > 0)  # rank-3 mask, 3 targets
    return lane


def gather(st: "State") -> np.ndarray:
    lane, r, v = np.nonzero(st.count > 0)
    return st.count[lane, r, v]


def reduce_vc(st: "State") -> np.ndarray:
    return st.count.sum(axis=2)


def tail_slice(st: "State") -> np.ndarray:
    return st.count[..., 0]  # ellipsis absorbs the leading axes


def expand(st: "State") -> np.ndarray:
    lane, r, v = np.nonzero(st.count > 0)
    return st.count[lane, r, v][:, None]  # newaxis adds, not consumes


def gather_flat(st: "State") -> np.ndarray:
    cell = np.flatnonzero(st.count_f > 0)
    return st.ptr_f[cell // st.V] + st.count_f[cell]  # each in its family


def flatten(st: "State") -> np.ndarray:
    cell = np.flatnonzero(st.count.ravel() > 0)  # C order: an (L,R,V) index
    return st.count_f[cell]
