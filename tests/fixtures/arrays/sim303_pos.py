"""SIM303 positives: in-place updates through duplicating indices."""

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


def accumulate(st: "State") -> np.ndarray:
    lane, r, v = np.nonzero(st.count > 0)
    key = lane * st.R + r  # several v share one (lane, r): duplicates
    tallies = np.zeros(st.L * st.R, dtype=np.int64)
    tallies[key] += 1  # SIM303: duplicated buckets lose increments
    return tallies


def arbitrate(st: "State") -> np.ndarray:
    lane, r, v = np.nonzero(st.count > 0)
    key = lane * st.R + r
    score = r * st.V + v
    best = np.full(st.L * st.R, 1 << 60, dtype=np.int64)
    best[key] = np.minimum(best[key], score)  # SIM303: RMW gather-scatter
    return best


def accumulate_flat(st: "State") -> None:
    cell = np.flatnonzero(st.count_f > 0)
    st.ptr_f[cell // st.V] += 1  # SIM303: several v share one (lane, r)
