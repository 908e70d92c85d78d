"""Position-debiased quantile labels.

Slide times are re-expressed as within-page-group empirical-CDF positions:
the page groups are ``PAGE_GROUPS`` (Table 4's boundaries), each group gets
an isofrequency threshold table with an explicit starting index for the
censored zero mass, and every impression's label is ``(B + S_k) / T``
where ``B`` counts the strictly positive thresholds the slide time
strictly exceeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import artifacts
from .artifacts import fmt_real

#: Default quantization granularity.
DEFAULT_T = 50

#: The page groups of every PDQ label, Table 4's half-open page-index ranges
#: 0 / 1-2 / 3-5 / 6-9 / 10-15 / 16-29 / 30+ (``hi=None`` is the open end).
PAGE_GROUPS: tuple[tuple[int, int | None], ...] = (
    (0, 1), (1, 3), (3, 6), (6, 10), (10, 16), (16, 30), (30, None),
)

_EDGES = np.array([lo for lo, _ in PAGE_GROUPS[1:]], dtype=np.int64)


def page_groups(pages: np.ndarray) -> np.ndarray:
    """The ``PAGE_GROUPS`` index of each page index."""
    if len(pages) and pages.min() < 0:
        raise ValueError(f"page_index must be >= 0, got {pages.min()}")
    return np.searchsorted(_EDGES, pages, side="right")


@dataclass(frozen=True)
class QuantileTable:
    """Isofrequency thresholds for one page group, with zero starting index."""

    T: int
    thresholds: tuple[float, ...]   # non-decreasing, length T
    S_k: int                        # number of leading zero thresholds

    def __post_init__(self):
        if len(self.thresholds) != self.T:
            raise ValueError(f"need {self.T} thresholds, got {len(self.thresholds)}")
        arr = np.asarray(self.thresholds)
        if np.any(np.diff(arr) < 0):
            raise ValueError("thresholds must be non-decreasing")
        leading_zeros = int(np.sum(np.cumsum(arr != 0.0) == 0))
        if self.S_k != leading_zeros:
            raise ValueError(f"S_k={self.S_k} but table has {leading_zeros} leading zeros")


def fit_quantile_table(slide_times, T: int = DEFAULT_T) -> QuantileTable:
    """Empirical j/T-quantiles via the order statistic at ceil(n*j/T).

    Requires at least T samples. S_k is the count of leading zero
    thresholds (the censored zero mass).
    """
    s = np.sort(np.asarray(slide_times, dtype=np.float64))
    n = len(s)
    if n < T:
        raise ValueError(f"need at least T={T} samples, got {n}")
    if np.any(s < 0):
        raise ValueError("slide times must be non-negative")
    js = np.arange(1, T + 1)
    ranks = np.ceil(n * js / T).astype(np.int64) - 1
    thresholds = s[ranks]
    S_k = int(np.sum(np.cumsum(thresholds != 0.0) == 0))
    return QuantileTable(T=T, thresholds=tuple(float(x) for x in thresholds), S_k=S_k)


def bucketize(s: float, table: QuantileTable) -> int:
    """Count of strictly positive thresholds strictly below s."""
    if s < 0:
        raise ValueError(f"slide time must be >= 0, got {s}")
    arr = np.asarray(table.thresholds)
    return int(np.sum((arr > 0.0) & (arr < s)))


def quantile_label(s: float, table: QuantileTable) -> float:
    """Within-group quantile label: (B + S_k) / T, in [0, 1]."""
    return (bucketize(s, table) + table.S_k) / table.T


def quantile_labels(s: np.ndarray, table: QuantileTable) -> np.ndarray:
    """Vectorized quantile_label."""
    s = np.asarray(s, dtype=np.float64)
    if np.any(s < 0):
        raise ValueError("slide times must be >= 0")
    pos = np.asarray([t for t in table.thresholds if t > 0.0])
    if len(pos) == 0:
        b = np.zeros(len(s), dtype=np.int64)
    else:
        b = np.searchsorted(pos, s, side="left")
    return (b + table.S_k) / table.T


def fit_tables(slide: np.ndarray, groups: np.ndarray,
               T: int = DEFAULT_T) -> dict[int, QuantileTable]:
    """Fit one quantile table per page group from the slide time and
    ``page_groups`` index of every impression.

    A group too sparse to estimate T quantiles (fewer than T samples but at
    least one) shares the nearest shallower group's table, so every
    observed page maps to a usable table; raises ValueError if there is
    none to share.
    """
    tables: dict[int, QuantileTable] = {}
    for k in range(len(PAGE_GROUPS)):
        values = slide[groups == k]
        if len(values) >= T:
            tables[k] = fit_quantile_table(values, T=T)
        elif len(values):
            if not tables:
                raise ValueError(f"page group {k} has {len(values)} rows, fewer than "
                                 f"pdq.T={T}, and no shallower group to inherit a "
                                 f"table from")
            tables[k] = tables[max(tables)]
    return tables


def build_pdq_labels(slide: np.ndarray, groups: np.ndarray,
                     tables: dict[int, QuantileTable]) -> np.ndarray:
    """PDQ label of every impression, from its slide time and group as
    for ``fit_tables``.

    Raises if any impression maps to a group without a fitted table.
    """
    unfitted = ~np.isin(groups, list(tables))
    if unfitted.any():
        row = int(np.argmax(unfitted))
        raise KeyError(f"no quantile table fitted for page group {groups[row]} "
                       f"(impression {row})")
    labels = np.empty(len(slide), dtype=np.float64)
    for k, table in tables.items():
        in_group = groups == k
        labels[in_group] = quantile_labels(slide[in_group], table)
    return labels


# ---------------------------------------------------------------------------
# Sidecar persistence (page groups, then group, T, S_k, thresholds)
# ---------------------------------------------------------------------------

_GROUPS_FIELD = ",".join(f"{lo}:{'inf' if hi is None else hi}" for lo, hi in PAGE_GROUPS)


def save_tables(path, tables: dict[int, QuantileTable], meta: str | None = None) -> None:
    lines = [f"G\t{_GROUPS_FIELD}"] + [
        f"Q\t{k}\t{t.T}\t{t.S_k}\t" + ",".join(fmt_real(x) for x in t.thresholds)
        for k, t in sorted(tables.items())]
    artifacts.write(path, "quantile-tables", lines, meta)


def load_tables(path) -> dict[int, QuantileTable]:
    """Read ``save_tables``'s records. Raises DatasetFormatError naming
    ``path:line`` on a malformed record, a missing or repeated ``G`` record,
    a ``G`` record other than ``PAGE_GROUPS``'s, or a ``Q`` record whose
    group is repeated or not in ``PAGE_GROUPS``."""
    seen_g = False
    tables: dict[int, QuantileTable] = {}

    def parse(parts: list[str]) -> None:
        nonlocal seen_g
        if parts[0] == "G":
            if seen_g:
                raise ValueError("repeated G record")
            if parts[1] != _GROUPS_FIELD:
                raise ValueError(f"page groups {parts[1]!r} are not {_GROUPS_FIELD!r}")
            seen_g = True
        elif parts[0] == "Q":
            k, T, S_k = int(parts[1]), int(parts[2]), int(parts[3])
            if not 0 <= k < len(PAGE_GROUPS):
                raise ValueError(f"group {k} is not in [0, {len(PAGE_GROUPS)})")
            if k in tables:
                raise ValueError(f"repeated group {k}")
            thresholds = tuple(float(x) for x in parts[4].split(","))
            tables[k] = QuantileTable(T=T, thresholds=thresholds, S_k=S_k)
        else:
            raise ValueError(f"unknown record tag {parts[0]!r}")

    artifacts.read(path, "quantile-tables", parse)
    if not seen_g:
        raise artifacts.DatasetFormatError(path, artifacts.line_no(path), "missing G record")
    return tables
