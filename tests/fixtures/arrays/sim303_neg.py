"""SIM303 negatives: ufunc.at, winnowed winners, full nonzero tuples."""

import numpy as np

SHAPE_CONTRACT = {
    "State": {
        "dims": ["L", "R", "V"],
        "lane_axis": "L",
        "fields": {
            "count": {"shape": "L,R,V", "dtype": "int32"},
            "count_f": {"shape": "L*R*V", "flat_of": "count"},
            "ptr_f": {"shape": "L*R", "dtype": "int32"},
            "score_tbl": {"shape": "L,R,V", "dtype": "int64"},
        },
        "domains": {},
    },
}


def accumulate(st: "State") -> np.ndarray:
    lane, r, v = np.nonzero(st.count > 0)
    key = lane * st.R + r
    tallies = np.zeros(st.L * st.R, dtype=np.int64)
    np.add.at(tallies, key, 1)  # sanctioned unbuffered scatter
    return tallies


def arbitrate(st: "State") -> None:
    lane, r, v = np.nonzero(st.count > 0)
    key = (lane * st.R + r) * st.V + v
    score = r * st.V + v
    best = np.full(st.L * st.R * st.V, 1 << 60, dtype=np.int64)
    np.minimum.at(best, key, score)
    won = score == best[key]  # winnow: at most one winner per bucket
    lw = lane[won]
    rw = r[won]
    st.count[lw, rw, 0] -= 1  # winnowed indices are duplicate-free


def decrement_all(st: "State") -> None:
    lane, r, v = np.nonzero(st.count > 0)
    # full nonzero tuple over distinct axes: each cell addressed once
    st.score_tbl[lane, r, v] -= 1


def overwrite(st: "State") -> None:
    lane, r, v = np.nonzero(st.count > 0)
    key = lane * st.R + r
    marks = np.zeros(st.L * st.R, dtype=np.int64)
    marks[key] = 1  # plain overwrite, not read-modify-write


def decrement_flat(st: "State") -> None:
    cell = np.flatnonzero(st.count_f > 0)  # each cell at most once
    keep = (st.count_f[cell] > 1).nonzero()[0]
    st.count_f[cell[keep]] -= 1  # a selection of distinct cells


def arbitrate_flat(st: "State") -> None:
    cell = np.flatnonzero(st.count_f > 0)
    key = cell // st.V
    score = cell % st.V
    best = np.full(st.L * st.R, 1 << 60, dtype=np.int64)
    np.minimum.at(best, key, score)
    won = score == best[key]
    keep = won.nonzero()[0]  # selecting by a winner mask winnows
    st.ptr_f[key[keep]] += 1
    st.count_f[key[keep] * st.V + score[keep]] -= 1  # rebuilt cell, still unique
