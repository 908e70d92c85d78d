"""Day-level author-value labels and the dual-stream sample schedule.

The author label for (user, author) anchored at day t is a decayed sum of
the user's watch time on that author's videos over the trailing N-day
window. Because labels need N days to mature, training pairs each fresh
day t with the matured day t-N, whose labels are complete by day t. A plan
names its impressions by row: the position of the impression in dataset
order, the row convention ``labeled.txt`` and the feature matrix share.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import artifacts
from .artifacts import fmt_real
from .datamodel import Dataset

DEFAULT_WINDOW_N = 7
DEFAULT_DECAY_ALPHA = 0.8


@dataclass
class DualStreamBatchPlan:
    """Sample schedule for one training day, as int64 rows in dataset order.

    standard: rows of the day-t impressions, which carry no author label.
    delayed: rows of the day-(t-N) impressions; ``author_labels[i]`` is the
    author label of row ``delayed[i]``, whose window ends at that row's
    anchor day + N, i.e. no later than t.
    """

    training_day: int
    window_n: int
    standard: np.ndarray
    delayed: np.ndarray
    author_labels: np.ndarray


Aggregates = dict[tuple[int, int, int], float]


def aggregate_author_days(dataset: Dataset) -> Aggregates:
    """Exact watch-time sums grouped by (user, author, day), each added in
    dataset order."""
    c = dataset.columns
    keys, inverse = np.unique(np.stack([c["user_id"], c["author_id"], c["day"]], axis=1),
                              axis=0, return_inverse=True)
    sums = np.bincount(inverse.reshape(-1), weights=c["watch_time"], minlength=len(keys))
    return dict(zip(map(tuple, keys.tolist()), sums.tolist()))


def author_ltv_label(aggregates: Aggregates, user_id: int, author_id: int,
                     t: int, N: int = DEFAULT_WINDOW_N,
                     alpha: float = DEFAULT_DECAY_ALPHA) -> float:
    """Decayed window sum over days t-N+1..t; 0 when the window is empty."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0,1], got {alpha}")
    total = 0.0
    for d in range(t - N + 1, t + 1):
        watch = aggregates.get((user_id, author_id, d))
        if watch is not None:
            total += (alpha ** (t - d)) * watch
    return total


def plan_dual_stream(dataset: Dataset, t: int, N: int = DEFAULT_WINDOW_N,
                     alpha: float = DEFAULT_DECAY_ALPHA, *,
                     aggregates: Aggregates) -> DualStreamBatchPlan:
    """Standard day-t rows plus matured day-(t-N) rows with author labels,
    from the log's ``aggregate_author_days``.

    A delayed example anchored at day d = t-N carries the label over days
    [d+1 .. d+N], which is complete once day t has been observed.
    """
    if t < 0:
        raise ValueError(f"training day must be >= 0, got {t}")
    delayed_day = t - N
    if delayed_day < 0:
        warnings.warn(f"training day {t} < N={N}: delayed stream is empty",
                      stacklevel=2)
    c = dataset.columns
    delayed = np.flatnonzero(c["day"] == delayed_day)
    # one label per distinct (user, author), scattered to its rows
    pairs, inverse = np.unique(np.stack([c["user_id"][delayed], c["author_id"][delayed]], axis=1),
                               axis=0, return_inverse=True)
    labels = np.array([author_ltv_label(aggregates, user, author, t=t, N=N, alpha=alpha)
                       for user, author in pairs.tolist()], dtype=np.float64)
    return DualStreamBatchPlan(training_day=t, window_n=N,
                               standard=np.flatnonzero(c["day"] == t),
                               delayed=delayed, author_labels=labels[inverse.reshape(-1)])


def audit_no_leakage(plan: DualStreamBatchPlan, dataset: Dataset,
                     N: int, alpha: float) -> list[str]:
    """Recompute every delayed label from raw logs; flag any mismatch or
    any label window that extends past the plan's training day."""
    violations: list[str] = []
    aggregates_by_day: Aggregates = {}
    for sess in dataset.sessions:
        if sess.day > plan.training_day:
            continue  # only past-or-present days may inform labels
        for r in sess.records:
            key = (r.user_id, r.author_id, r.day)
            aggregates_by_day[key] = aggregates_by_day.get(key, 0.0) + r.watch_time
    rows = [(sess.day, r) for sess in dataset.sessions for r in sess.records]
    if len(plan.author_labels) != len(plan.delayed):
        violations.append(f"{len(plan.author_labels)} author labels for "
                          f"{len(plan.delayed)} delayed rows")
    for row, label in zip(plan.delayed, plan.author_labels):
        anchor, r = rows[row]
        window_end = anchor + N
        if window_end > plan.training_day:
            violations.append(
                f"delayed row {row} window ends day {window_end} > training day "
                f"{plan.training_day}")
        expect = author_ltv_label(aggregates_by_day, r.user_id, r.author_id,
                                  t=window_end, N=N, alpha=alpha)
        if not np.isclose(label, expect, rtol=1e-12, atol=1e-12):
            violations.append(
                f"delayed row {row} label {label} != recomputed {expect}")
    return violations


def save_aggregates(path, aggregates: Aggregates, meta: str | None = None) -> None:
    artifacts.write(path, "author-aggregates",
                    (f"{user}\t{author}\t{day}\t{fmt_real(watch)}"
                     for (user, author, day), watch in sorted(aggregates.items())), meta)


def load_aggregates(path) -> Aggregates:
    """Read ``save_aggregates``'s records. Raises DatasetFormatError naming
    ``path:line`` on a malformed record or a repeated (user, author, day)."""
    aggregates: Aggregates = {}

    def parse(parts: list[str]) -> None:
        user, author, day, watch = parts
        key = (int(user), int(author), int(day))
        if key in aggregates:
            raise ValueError(f"repeated (user, author, day) {key}")
        aggregates[key] = float(watch)

    artifacts.read(path, "author-aggregates", parse)
    return aggregates
