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
from .datamodel import Dataset, DEFAULT_CAP_Q, slide_times

#: Default quantization granularity.
DEFAULT_T = 50

#: Page-group boundaries: 0 / 1-2 / 3-5 / 6-9 / 10-15 / 16-29 / 30+.
TABLE4_BOUNDARIES: tuple[tuple[int, int | None], ...] = (
    (0, 1), (1, 3), (3, 6), (6, 10), (10, 16), (16, 30), (30, None),
)


@dataclass(frozen=True)
class PageGroupSpec:
    """Disjoint, exhaustive half-open page-index ranges; ``hi=None`` = open end."""

    ranges: tuple[tuple[int, int | None], ...]

    def __post_init__(self):
        if not self.ranges:
            raise ValueError("at least one page group required")
        expect = 0
        for i, (lo, hi) in enumerate(self.ranges):
            if lo != expect:
                raise ValueError(f"group {i} starts at {lo}, expected {expect}")
            if hi is None:
                if i != len(self.ranges) - 1:
                    raise ValueError("only the last group may be unbounded")
            else:
                if hi <= lo:
                    raise ValueError(f"group {i} range ({lo},{hi}) is empty")
                expect = hi
        if self.ranges[-1][1] is not None:
            raise ValueError("last group must be unbounded to cover all pages")

    @property
    def n_groups(self) -> int:
        return len(self.ranges)

    def group_of(self, page_index: int) -> int:
        if page_index < 0:
            raise ValueError(f"page_index must be >= 0, got {page_index}")
        for k, (lo, hi) in enumerate(self.ranges):
            if lo <= page_index and (hi is None or page_index < hi):
                return k
        raise AssertionError("exhaustive ranges cannot miss")

    def group_array(self, page_indices: np.ndarray) -> np.ndarray:
        """Vectorized ``group_of``."""
        if len(page_indices) and page_indices.min() < 0:
            raise ValueError(f"page_index must be >= 0, got {page_indices.min()}")
        edges = np.array([lo for lo, _ in self.ranges[1:]], dtype=np.int64)
        return np.searchsorted(edges, page_indices, side="right")


#: The page groups of every PDQ label.
PAGE_GROUPS = PageGroupSpec(ranges=TABLE4_BOUNDARIES)


@dataclass(frozen=True)
class QuantileTable:
    """Isofrequency thresholds for one page group, with zero starting index."""

    group: int
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


def fit_quantile_table(slide_times, T: int = DEFAULT_T, group: int = 0) -> QuantileTable:
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
    return QuantileTable(group=group, T=T, thresholds=tuple(float(x) for x in thresholds),
                         S_k=S_k)


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


def fit_tables(dataset: Dataset, spec: PageGroupSpec, T: int = DEFAULT_T,
               Q: float = DEFAULT_CAP_Q, slide: np.ndarray | None = None
               ) -> dict[int, QuantileTable]:
    """Fit one quantile table per page group from a dataset's slide times
    (``slide``, if the caller has ``slide_times(dataset, Q)`` already).

    A group too sparse to estimate T quantiles (fewer than T samples but at
    least one) inherits the nearest shallower group's table, so every
    observed page maps to a usable table; raises ValueError if there is
    none to inherit.
    """
    slide = slide_times(dataset, Q) if slide is None else slide
    groups = spec.group_array(dataset.columns["page_index"])
    tables: dict[int, QuantileTable] = {}
    for k in range(spec.n_groups):
        values = slide[groups == k]
        if len(values) >= T:
            tables[k] = fit_quantile_table(values, T=T, group=k)
        elif len(values):
            if not tables:
                raise ValueError(f"page group {k} has {len(values)} rows, fewer than "
                                 f"pdq.T={T}, and no shallower group to inherit a "
                                 f"table from")
            donor = tables[max(tables)]
            tables[k] = QuantileTable(group=k, T=donor.T, thresholds=donor.thresholds,
                                      S_k=donor.S_k)
    return tables


def build_pdq_labels(dataset: Dataset, spec: PageGroupSpec,
                     tables: dict[int, QuantileTable],
                     Q: float = DEFAULT_CAP_Q, slide: np.ndarray | None = None) -> np.ndarray:
    """PDQ label of every impression, in dataset order (``slide`` as for
    ``fit_tables``).

    Raises if any impression maps to a group without a fitted table.
    """
    slide = slide_times(dataset, Q) if slide is None else slide
    pages = dataset.columns["page_index"]
    groups = spec.group_array(pages)
    unfitted = ~np.isin(groups, list(tables))
    if unfitted.any():
        row = int(np.argmax(unfitted))
        raise KeyError(f"no quantile table fitted for page group {groups[row]} "
                       f"(page {pages[row]}, session {dataset.columns['session_id'][row]})")
    labels = np.empty(len(slide), dtype=np.float64)
    for k, table in tables.items():
        in_group = groups == k
        labels[in_group] = quantile_labels(slide[in_group], table)
    return labels


# ---------------------------------------------------------------------------
# Sidecar persistence (group, T, S_k, thresholds)
# ---------------------------------------------------------------------------

def _ranges_field(spec: PageGroupSpec) -> str:
    return ",".join(f"{lo}:{'inf' if hi is None else hi}" for lo, hi in spec.ranges)


def save_tables(path, spec: PageGroupSpec, tables: dict[int, QuantileTable],
                meta: str | None = None) -> None:
    lines = [f"G\t{_ranges_field(spec)}"] + [
        f"Q\t{k}\t{t.T}\t{t.S_k}\t" + ",".join(fmt_real(x) for x in t.thresholds)
        for k, t in sorted(tables.items())]
    artifacts.write(path, "quantile-tables", lines, meta)


def load_tables(path) -> tuple[PageGroupSpec, dict[int, QuantileTable]]:
    """Read ``save_tables``'s records. Raises DatasetFormatError naming
    ``path:line`` on a malformed record, a missing or repeated ``G`` record,
    a ``G`` record other than ``PAGE_GROUPS``'s, or a ``Q`` record whose
    group is repeated or not in ``PAGE_GROUPS``."""
    groups = _ranges_field(PAGE_GROUPS)
    seen_g = False
    tables: dict[int, QuantileTable] = {}

    def parse(parts: list[str]) -> None:
        nonlocal seen_g
        if parts[0] == "G":
            if seen_g:
                raise ValueError("repeated G record")
            if parts[1] != groups:
                raise ValueError(f"page groups {parts[1]!r} are not {groups!r}")
            seen_g = True
        elif parts[0] == "Q":
            k, T, S_k = int(parts[1]), int(parts[2]), int(parts[3])
            if not 0 <= k < PAGE_GROUPS.n_groups:
                raise ValueError(f"group {k} is not in [0, {PAGE_GROUPS.n_groups})")
            if k in tables:
                raise ValueError(f"repeated group {k}")
            thresholds = tuple(float(x) for x in parts[4].split(","))
            tables[k] = QuantileTable(group=k, T=T, thresholds=thresholds, S_k=S_k)
        else:
            raise ValueError(f"unknown record tag {parts[0]!r}")

    artifacts.read(path, "quantile-tables", parse)
    if not seen_g:
        raise artifacts.DatasetFormatError(path, artifacts.line_no(path), "missing G record")
    return PAGE_GROUPS, tables
