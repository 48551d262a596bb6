"""SIM301 negatives: lane-folded keys, lane-partitioned values, pragma."""

import numpy as np

SHAPE_CONTRACT = {
    "State": {
        "dims": ["L", "R", "V"],
        "lane_axis": "L",
        "fields": {
            "count": {"shape": "L,R,V", "dtype": "int32"},
            "count_f": {"shape": "L*R*V", "flat_of": "count"},
            "buf": {"shape": "L,R,V", "dtype": "int32", "values": "pkt"},
        },
        "domains": {"pkt": {"lane_partitioned": True}},
    },
}


def allocate(st: "State") -> np.ndarray:
    req = st.count > 0
    lane, r, v = np.nonzero(req)
    score = r * st.V + v
    key = (lane * st.R + r) * st.V + v  # lane folded in: isolated buckets
    best = np.full(st.L * st.R * st.V, 1 << 60, dtype=np.int64)
    np.minimum.at(best, key, score)
    return best


def allocate_flat(st: "State") -> np.ndarray:
    cell = np.flatnonzero(st.count_f > 0)
    score = cell % st.V
    key = cell // st.V  # (lane, r): the quotient keeps the lane
    best = np.full(st.L * st.R, 1 << 60, dtype=np.int64)
    np.minimum.at(best, key, score)
    return best


def tally_flat(st: "State") -> np.ndarray:
    cell = st.count_f.nonzero()[0]
    return np.bincount(cell // (st.R * st.V), minlength=st.L)  # the lane


def tally(st: "State") -> np.ndarray:
    lane, r, v = np.nonzero(st.count > 0)
    return np.bincount(lane, minlength=st.L)  # keyed by lane itself


def aggregate(st: "State") -> np.ndarray:
    return st.count.sum(axis=2)  # reduces a non-lane axis


def per_packet(st: "State", hops: np.ndarray) -> None:
    lane, r, v = np.nonzero(st.count > 0)
    pkt = st.buf[lane, r, v]
    # pkt values are contract-declared lane-partitioned: lane-safe key
    np.add.at(hops, pkt, 1)


def excused(st: "State") -> np.ndarray:
    lane, r, v = np.nonzero(st.count > 0)
    return np.bincount(r, minlength=st.R)  # simlint: allow[lane-isolation]
