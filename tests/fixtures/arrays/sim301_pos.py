"""SIM301 positives: bucket keys and reductions that collapse lanes."""

import numpy as np

SHAPE_CONTRACT = {
    "State": {
        "dims": ["L", "R", "V"],
        "lane_axis": "L",
        "fields": {
            "count": {"shape": "L,R,V", "dtype": "int32"},
            "count_f": {"shape": "L*R*V", "flat_of": "count"},
            "score_tbl": {"shape": "L,R,V", "dtype": "int64"},
        },
        "domains": {},
    },
}


def allocate(st: "State") -> np.ndarray:
    req = st.count > 0
    lane, r, v = np.nonzero(req)
    score = r * st.V + v
    key = r * st.V + v  # lane dropped: buckets collide across lanes
    best = np.full(st.R * st.V, 1 << 60, dtype=np.int64)
    np.minimum.at(best, key, score)  # SIM301
    return best


def allocate_flat(st: "State") -> np.ndarray:
    cell = np.flatnonzero(st.count_f > 0)
    score = cell % st.V
    key = cell // st.V % st.R  # the remainder drops the lane
    best = np.full(st.R, 1 << 60, dtype=np.int64)
    np.minimum.at(best, key, score)  # SIM301
    return best


def tally(st: "State") -> np.ndarray:
    lane, r, v = np.nonzero(st.count > 0)
    return np.bincount(r, minlength=st.R)  # SIM301: counts merge lanes


def aggregate(st: "State") -> np.ndarray:
    return st.count.sum(axis=0)  # SIM301: reduces over the lane axis
