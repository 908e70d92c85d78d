"""Offline evaluation: MSE, MAE, XAUC, grouped XAUC, PCOC, LT_N.

XAUC is the fraction of strictly label-ordered pairs that the predictions
order the same way; label ties are excluded from the denominator and
prediction ties contribute nothing to the numerator. The large-n path
counts concordant pairs with a Fenwick tree over compressed prediction
ranks, handling ties exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import artifacts
from .artifacts import fmt_real
from .datamodel import Dataset


class _Fenwick:
    def __init__(self, n: int):
        self.n = n
        self.tree = np.zeros(n + 1, dtype=np.int64)

    def add(self, i: int) -> None:
        i += 1
        while i <= self.n:
            self.tree[i] += 1
            i += i & (-i)

    def prefix(self, i: int) -> int:
        # count of added values with index < i
        total = 0
        while i > 0:
            total += self.tree[i]
            i -= i & (-i)
        return int(total)


def xauc_pair_counts(preds, labels) -> tuple[int, int]:
    """(concordant pairs, label-ordered pairs), exact under ties."""
    preds = np.asarray(preds, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if len(preds) != len(labels):
        raise ValueError("preds and labels must have equal length")
    n = len(labels)
    if n < 2:
        raise ValueError("need at least two samples")
    # denominator: all pairs minus label-tied pairs
    _, tie_counts = np.unique(labels, return_counts=True)
    denom = n * (n - 1) // 2 - int(np.sum(tie_counts * (tie_counts - 1) // 2))
    if denom == 0:
        raise ValueError("all labels tied: XAUC undefined")
    # numerator: pairs with label_i < label_j and pred_i < pred_j
    pred_rank = {v: i for i, v in enumerate(np.unique(preds))}
    order = np.lexsort((preds, labels))
    tree = _Fenwick(len(pred_rank))
    concordant = 0
    i = 0
    while i < n:
        j = i
        while j < n and labels[order[j]] == labels[order[i]]:
            j += 1
        for k in range(i, j):  # query the whole label-tie block before inserting it
            concordant += tree.prefix(pred_rank[preds[order[k]]])
        for k in range(i, j):
            tree.add(pred_rank[preds[order[k]]])
        i = j
    return concordant, denom


def xauc(preds, labels) -> float:
    """Order agreement between predictions and labels, in [0, 1]."""
    concordant, denom = xauc_pair_counts(preds, labels)
    return concordant / denom


def xauc_grouped(preds, labels, groups) -> dict[int, tuple[float | None, int]]:
    """XAUC restricted to within-group pairs.

    Returns group -> (xauc or None when the group is degenerate, pair count).
    """
    preds = np.asarray(preds, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    groups = np.asarray(groups)
    out: dict[int, tuple[float | None, int]] = {}
    for g in np.unique(groups):
        mask = groups == g
        sub_p, sub_l = preds[mask], labels[mask]
        if len(sub_l) < 2:
            out[int(g)] = (None, 0)
            continue
        try:
            concordant, denom = xauc_pair_counts(sub_p, sub_l)
        except ValueError:
            out[int(g)] = (None, 0)  # all ties: skipped, noted by the None
            continue
        out[int(g)] = (concordant / denom, denom)
    return out


def mae(preds, labels) -> float:
    preds = np.asarray(preds, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    return float(np.mean(np.abs(preds - labels)))


def pcoc(preds, labels) -> float:
    """Aggregate predicted-over-observed ratio; 1.0 is calibrated."""
    preds = np.asarray(preds, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    total = labels.sum()
    if total <= 0:
        raise ValueError("PCOC needs positive label mass")
    return float(preds.sum() / total)


def lt_n(cohort, dataset: Dataset, N: int, anchor_day: int = 0) -> float:
    """Fraction of cohort users with any revisit within the N days after
    the anchor day (days anchor+1 .. anchor+N)."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    cohort = set(cohort)
    if not cohort:
        raise ValueError("cohort is empty")
    c = dataset.columns
    day = c["day"]
    revisit = ((c["revisit_flag"] == 1) & (anchor_day < day) & (day <= anchor_day + N)
               & np.isin(c["user_id"], list(cohort)))
    return len(np.unique(c["user_id"][revisit])) / len(cohort)


# ---------------------------------------------------------------------------
# Report container and persistence
# ---------------------------------------------------------------------------

@dataclass
class MetricsReport:
    dataset_id: str
    model_id: str
    seed: int
    per_head: dict[str, dict] = field(default_factory=dict)
    lt_n: dict[int, float] = field(default_factory=dict)

    def add_head(self, head: str, preds, labels, groups=None) -> None:
        entry: dict = {
            "mse": float(np.mean((np.asarray(preds) - np.asarray(labels)) ** 2)),
            "mae": mae(preds, labels),
        }
        try:
            entry["xauc"] = xauc(preds, labels)
        except ValueError:
            entry["xauc"] = None
        try:
            entry["pcoc"] = pcoc(preds, labels)
        except ValueError:
            entry["pcoc"] = None
        if groups is not None:
            entry["xauc_grouped"] = xauc_grouped(preds, labels, groups)
        self.per_head[head] = entry


def save_report(path, report: MetricsReport, meta: str | None = None) -> None:
    """Machine-readable table; one metric per line."""
    def fmt(v):
        return "-" if v is None else fmt_real(v)

    def lines():
        yield f"M\tdataset_id\t{report.dataset_id}"
        yield f"M\tmodel_id\t{report.model_id}"
        yield f"M\tseed\t{report.seed}"
        for head in sorted(report.per_head):
            entry = report.per_head[head]
            for key in ("mse", "mae", "xauc", "pcoc"):
                yield f"S\t{head}\t{key}\t{fmt(entry.get(key))}"
            for g, (value, pairs) in sorted(entry.get("xauc_grouped", {}).items()):
                yield f"G\t{head}\t{g}\t{fmt(value)}\t{pairs}"
        for n in sorted(report.lt_n):
            yield f"L\t{n}\t{fmt_real(report.lt_n[n])}"

    artifacts.write(path, "metrics", lines(), meta)


def render_summary(report: MetricsReport) -> str:
    """Human-readable summary of a metrics report."""
    lines = [f"dataset={report.dataset_id} model={report.model_id} seed={report.seed}"]
    for head in sorted(report.per_head):
        entry = report.per_head[head]
        parts = []
        for key in ("mse", "mae", "xauc", "pcoc"):
            v = entry.get(key)
            parts.append(f"{key}={v:.4f}" if v is not None else f"{key}=n/a")
        lines.append(f"  {head:12s} " + "  ".join(parts))
        for g, (value, pairs) in sorted(entry.get("xauc_grouped", {}).items()):
            vtxt = f"{value:.4f}" if value is not None else "skipped (all ties)"
            lines.append(f"    group {g}: xauc={vtxt} pairs={pairs}")
    for n in sorted(report.lt_n):
        lines.append(f"  LT_{n} = {report.lt_n[n]:.4f}")
    return "\n".join(lines) + "\n"
