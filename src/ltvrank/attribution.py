"""Multi-dimensional within-session attribution.

For every ordered pair (j, i) with i > j in a session, seven binary
sub-dimension flags are computed (adjacency, collection linkage, retrieval
source, v2v similarity, multimodal similarity, author, category). A pair is
attributed when any of its flags is set, and the attributed slide time
replaces the raw suffix sum with the sum over attributed successors.

``pair_flags`` is the per-pair reference implementation; the session-level
matrix helpers are the vectorized production path and must agree with it
exactly (tests enforce this).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import artifacts
from .artifacts import fmt_real
from .datamodel import Dataset, Session, DEFAULT_CAP_Q

FLAG_NAMES = ("pos", "col", "rec", "v2v", "mm", "auth", "cat")


@dataclass
class AttributionConfig:
    v2v_threshold: float = 0.5
    mm_threshold: float = 0.9
    adjacency_window: int = 6

    def validate(self) -> None:
        if not 0.0 <= self.v2v_threshold <= 1.0:
            raise ValueError(f"v2v_threshold must be in [0,1], got {self.v2v_threshold}")
        if not 0.0 <= self.mm_threshold <= 1.0:
            raise ValueError(f"mm_threshold must be in [0,1], got {self.mm_threshold}")
        if self.adjacency_window < 0:
            raise ValueError(f"adjacency_window must be >= 0, got {self.adjacency_window}")


def _v2v_hit(a, b, threshold: float) -> bool:
    for vid, score in a.v2v_neighbors:
        if vid == b.video_id and score > threshold:
            return True
    return False


def pair_flags(session: Session, j: int, i: int, config: AttributionConfig) -> dict[str, int]:
    """Seven binary sub-dimension flags for the ordered pair (j, i)."""
    if i <= j:
        raise ValueError(f"need j < i, got j={j}, i={i}")
    rj = session.records[j]
    ri = session.records[i]
    w = config.adjacency_window
    pos = 1 if (i - j) <= w else 0
    # Collection linkage rides on the adjacency window: i shares a collection
    # with some other record inside j's window.
    col = 0
    if ri.collection_id is not None:
        hi = min(len(session.records), j + w + 1)
        for m in range(j + 1, hi):
            if m == i:
                continue
            if session.records[m].collection_id == ri.collection_id:
                col = 1
                break
    rec = 1 if rj.retrieval_source_id == ri.retrieval_source_id else 0
    v2v = 1 if (_v2v_hit(rj, ri, config.v2v_threshold)
                or _v2v_hit(ri, rj, config.v2v_threshold)) else 0
    cos = float(np.asarray(rj.content_embedding) @ np.asarray(ri.content_embedding))
    mm = 1 if cos > config.mm_threshold else 0
    auth = 1 if rj.author_id == ri.author_id else 0
    cat = 1 if rj.category_id == ri.category_id else 0
    return {"pos": pos, "col": col, "rec": rec, "v2v": v2v, "mm": mm,
            "auth": auth, "cat": cat}


def session_flag_matrices(session: Session, config: AttributionConfig) -> dict[str, np.ndarray]:
    """Boolean (n, n) flag matrices over ordered pairs; entry [j, i] is set
    only for i > j (strict upper triangle)."""
    n = len(session)
    idx = np.arange(n)
    upper = idx[None, :] > idx[:, None]
    w = config.adjacency_window

    pos = upper & ((idx[None, :] - idx[:, None]) <= w)

    auth, cat, src = (session[f] for f in ("author_id", "category_id", "retrieval_source_id"))
    emb = np.array(session["content_embedding"].tolist(), dtype=np.float64)
    cos = emb @ emb.T

    v2v = np.zeros((n, n), dtype=bool)
    vid_index: dict[int, list[int]] = {}
    for i, vid in enumerate(session["video_id"].tolist()):
        vid_index.setdefault(vid, []).append(i)
    for i, neighbors in enumerate(session["v2v_neighbors"]):
        for vid, score in neighbors:
            if score > config.v2v_threshold and vid in vid_index:
                for other in vid_index[vid]:
                    v2v[i, other] = True
                    v2v[other, i] = True

    col = np.zeros((n, n), dtype=bool)
    col_groups: dict[int, list[int]] = {}
    for i, c in enumerate(session["collection_id"].tolist()):
        if c >= 0:
            col_groups.setdefault(c, []).append(i)
    for positions in col_groups.values():
        for m in positions:
            for i in positions:
                if i == m:
                    continue
                lo = max(0, m - w)
                col[lo:m, i] = True

    return {
        "pos": pos,
        "col": col & upper,
        "rec": (src[:, None] == src[None, :]) & upper,
        "v2v": v2v & upper,
        "mm": (cos > config.mm_threshold) & upper,
        "auth": (auth[:, None] == auth[None, :]) & upper,
        "cat": (cat[:, None] == cat[None, :]) & upper,
    }


def attributed_slide_time(session: Session, j: int, config: AttributionConfig,
                          Q: float = DEFAULT_CAP_Q) -> float:
    """Watch-time sum over the successors that any flag attributes to j,
    capped at Q.

    The per-position contributions are reduced with numpy's pairwise
    summation so the result is bitwise identical to the session-level
    vectorized path.
    """
    n = len(session.records)
    contrib = np.zeros(n)
    for i in range(j + 1, n):
        if any(pair_flags(session, j, i, config).values()):
            contrib[i] = session.records[i].watch_time
    return float(min(contrib.sum(), float(Q)))


def session_attributed_slide_times(session: Session, config: AttributionConfig,
                                   Q: float = DEFAULT_CAP_Q) -> np.ndarray:
    """attributed_slide_time for every position, sharing pair computations."""
    flags = session_flag_matrices(session, config)
    attributed = np.logical_or.reduce([flags[d] for d in FLAG_NAMES])
    t = session["watch_time"]
    totals = np.where(attributed, t[None, :], 0.0).sum(axis=1)
    return np.minimum(totals, float(Q))


def table1_diagnostics(dataset: Dataset, config: AttributionConfig) -> dict[str, tuple[float, float]]:
    """Per-dimension (S_ratio, V_ratio).

    S_ratio: share of total downstream watch time over all (j, i) pairs
    carried by pairs with the flag set. V_ratio: share of pairs flagged.
    """
    if dataset.n_records() == 0:
        raise ValueError("dataset is empty")
    total_time = 0.0
    total_pairs = 0
    time_by_dim = {d: 0.0 for d in FLAG_NAMES}
    pairs_by_dim = {d: 0 for d in FLAG_NAMES}
    for sess in dataset.sessions:
        n = len(sess)
        if n < 2:
            continue
        t = sess["watch_time"]
        # every pair (j, i) contributes t_i once
        pair_time = t * np.arange(n)  # t_i counted i times (one per predecessor)
        total_time += float(pair_time.sum())
        total_pairs += n * (n - 1) // 2
        flags = session_flag_matrices(sess, config)
        for d in FLAG_NAMES:
            m = flags[d]
            pairs_by_dim[d] += int(m.sum())
            time_by_dim[d] += float((m * t[None, :]).sum())
    if total_pairs == 0:
        raise ValueError("dataset has no (j, i) pairs")
    out = {}
    for d in FLAG_NAMES:
        s_ratio = time_by_dim[d] / total_time if total_time > 0 else 0.0
        v_ratio = pairs_by_dim[d] / total_pairs
        out[d] = (s_ratio, v_ratio)
    return out


def save_diagnostics(path, diag: dict[str, tuple[float, float]],
                     meta: str | None = None) -> None:
    """Plot-ready diagnostics table: dimension, S_ratio, V_ratio."""
    def lines():
        yield "dimension\ts_ratio\tv_ratio"
        for d in FLAG_NAMES:
            s, v = diag[d]
            yield f"{d}\t{fmt_real(s)}\t{fmt_real(v)}"

    artifacts.write(path, "attribution-diagnostics", lines(), meta)
