"""SIM305 positives: index arity, unpack arity, axis out of range, flat families."""

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


def bad_unpack(st: "State") -> np.ndarray:
    lane, r = np.nonzero(st.count > 0)  # SIM305: rank-3 mask, 2 targets
    return lane


def too_many_axes(st: "State") -> np.ndarray:
    lane, r, v = np.nonzero(st.count > 0)
    return st.count[lane, r, v, v]  # SIM305: 4 indices into rank 3


def bad_axis(st: "State") -> np.ndarray:
    return st.count.sum(axis=3)  # SIM305: axis 3 out of range for rank 3


def wrong_family(st: "State") -> np.ndarray:
    cell = np.flatnonzero(st.count_f > 0)
    return st.ptr_f[cell]  # SIM305: an (L,R,V) index into an (L,R) view


def flat_view_as_2d(st: "State") -> np.ndarray:
    cell = np.flatnonzero(st.count_f > 0)
    return st.count_f[cell // st.V, cell % st.V]  # SIM305: 2 indices, rank 1
