"""Day-level author-value labels and the dual-stream sample schedule.

The author label for (user, author) anchored at day t is a decayed sum of
the user's watch time on that author's videos over the trailing N-day
window. Because labels need N days to mature, training pairs each fresh
day t with the matured day t-N, whose labels are complete by day t.
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


@dataclass(frozen=True)
class AuthorDayAggregate:
    user_id: int
    author_id: int
    day: int
    total_watch: float


@dataclass
class DualStreamBatchPlan:
    """Sample schedule for one training day.

    standard: (session_id, index) keys of day-t impressions, no author label.
    delayed: (session_id, index, author_ltv) for day t-N impressions, with
    labels whose windows end at that impression's own anchor day + N - 1,
    i.e. no later than t.
    """

    training_day: int
    window_n: int
    standard: list[tuple[int, int]]
    delayed: list[tuple[int, int, float]]


Aggregates = dict[tuple[int, int, int], float]


def aggregate_author_days(dataset: Dataset) -> Aggregates:
    """Exact watch-time sums grouped by (user, author, day)."""
    out: Aggregates = {}
    for sess in dataset.sessions:
        for r in sess.records:
            key = (r.user_id, r.author_id, r.day)
            out[key] = out.get(key, 0.0) + r.watch_time
    return out


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
                     alpha: float = DEFAULT_DECAY_ALPHA,
                     aggregates: Aggregates | None = None) -> DualStreamBatchPlan:
    """Standard day-t samples plus matured day-(t-N) author-labeled samples.

    A delayed example anchored at day d = t-N carries the label over days
    [d+1 .. d+N], which is complete once day t has been observed.
    """
    if t < 0:
        raise ValueError(f"training day must be >= 0, got {t}")
    if aggregates is None:
        aggregates = aggregate_author_days(dataset)
    standard: list[tuple[int, int]] = []
    delayed: list[tuple[int, int, float]] = []
    delayed_day = t - N
    if delayed_day < 0:
        warnings.warn(f"training day {t} < N={N}: delayed stream is empty",
                      stacklevel=2)
    for sess in dataset.sessions:
        if sess.day == t:
            for i in range(len(sess.records)):
                standard.append((sess.session_id, i))
        elif sess.day == delayed_day:
            for i, r in enumerate(sess.records):
                label = author_ltv_label(aggregates, r.user_id, r.author_id,
                                         t=delayed_day + N, N=N, alpha=alpha)
                delayed.append((sess.session_id, i, label))
    return DualStreamBatchPlan(training_day=t, window_n=N,
                               standard=standard, delayed=delayed)


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
    by_sid = {sess.session_id: sess for sess in dataset.sessions}
    for sid, idx, label in plan.delayed:
        sess = by_sid[sid]
        r = sess.records[idx]
        window_end = sess.day + N
        if window_end > plan.training_day:
            violations.append(
                f"delayed example (session {sid}, idx {idx}) window ends day "
                f"{window_end} > training day {plan.training_day}")
        expect = author_ltv_label(aggregates_by_day, r.user_id, r.author_id,
                                  t=window_end, N=N, alpha=alpha)
        if not np.isclose(label, expect, rtol=1e-12, atol=1e-12):
            violations.append(
                f"delayed example (session {sid}, idx {idx}) label {label} != "
                f"recomputed {expect}")
    return violations


def save_aggregates(path, aggregates: Aggregates, meta: str | None = None) -> None:
    artifacts.write(path, "author-aggregates",
                    (f"{user}\t{author}\t{day}\t{fmt_real(watch)}"
                     for (user, author, day), watch in sorted(aggregates.items())), meta)


def _parse_aggregate(parts: list[str]) -> tuple[tuple[int, int, int], float]:
    user, author, day, watch = parts
    return (int(user), int(author), int(day)), float(watch)


def load_aggregates(path) -> Aggregates:
    return dict(artifacts.read(path, "author-aggregates", _parse_aggregate))
