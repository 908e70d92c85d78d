"""Output checks for one ``ltvrank all`` working directory.

The checks read the program's artifacts with their own minimal parsers and
compare them with quantities computed here from ``dataset.txt``, so they
share no code with the package they check. Each failure is reported as
``"<check name>: <message>"``; an empty list means every check passed.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

#: every check name, in the order they run
CHECKS = ("labeled.rows", "labeled.slide_time", "aggregates.total_watch",
          "labeled.pdq_grid", "labeled.pdq_monotone", "labeled.attr_bounds",
          "labeled.attr_next", "report.counts", "plot_page_slide.n",
          "plot_slide_hist.counts", "metrics.xauc_range", "loss_trace.finite",
          "upstream.identical")

REL = 1e-9
HIST_BINS = 30


class Log:
    """The columns of ``dataset.txt`` that the checks need, one entry per
    impression in file order, plus session boundaries."""

    def __init__(self, path: Path):
        self.session: list[int] = []
        self.day: list[int] = []
        self.page: list[int] = []
        self.watch: list[float] = []
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("#"):
                    continue
                f = line.split("\t", 12)
                self.session.append(int(f[6]))
                self.day.append(int(f[7]))
                self.page.append(int(f[8]))
                self.watch.append(float(f[11]))
        self.starts = [i for i in range(len(self.session))
                       if i == 0 or self.session[i] != self.session[i - 1]]

    def __len__(self) -> int:
        return len(self.session)

    def spans(self):
        """(start, end) index range of every session."""
        ends = self.starts[1:] + [len(self.session)]
        return zip(self.starts, ends)

    def slide_times(self, Q: float) -> list[float]:
        """Capped suffix sum of watch time after each impression."""
        out = [0.0] * len(self.watch)
        for lo, hi in self.spans():
            total = 0.0
            for i in range(hi - 1, lo - 1, -1):
                out[i] = min(total, Q)
                total += self.watch[i]
        return out

    def heldout_rows(self, test_days: int) -> int:
        """Impressions on the last ``test_days`` observed days."""
        held = set(sorted(set(self.day))[-test_days:])
        return sum(1 for d in self.day if d in held)


def content_digest(path: Path) -> str:
    """sha256 of a file with its ``#meta`` lines left out."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for line in fh:
            if not line.startswith(b"#meta "):
                h.update(line)
    return h.hexdigest()


def _rows(path: Path, skip_header_row: bool = False):
    """Tab-split data lines of a text artifact, comment lines dropped."""
    with open(path, "r", encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split("\t") for line in fh
                if line.strip() and not line.startswith("#")]
    return rows[1:] if skip_header_row else rows


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL * max(abs(a), abs(b), 1.0)


def _histogram(values, Q: float) -> list[int]:
    """Counts on HIST_BINS equal bins over [0, Q], last bin closed."""
    edges = [Q * b / HIST_BINS for b in range(HIST_BINS + 1)]
    counts = [0] * HIST_BINS
    for v in values:
        if 0.0 <= v <= Q:
            b = min(int(v / Q * HIST_BINS), HIST_BINS - 1)
            # settle values that land on an edge the way half-open bins do
            while b > 0 and v < edges[b]:
                b -= 1
            while b < HIST_BINS - 1 and v >= edges[b + 1]:
                b += 1
            counts[b] += 1
    return counts


def check_workdir(workdir: Path, log: Log, Q: float,
                  upstream: dict[str, str] | None = None) -> list[str]:
    """Run every check on ``workdir``; ``upstream`` maps artifact name to the
    content digest it must still have."""
    fails: list[str] = []

    def fail(name: str, message: str) -> None:
        fails.append(f"{name}: {message}")

    slide = log.slide_times(Q)
    labeled = _rows(workdir / "labeled.txt")
    keys = [(int(r[0]), int(r[1])) for r in labeled]
    expect_keys = [(log.session[i], i - lo) for lo, hi in log.spans() for i in range(lo, hi)]
    if keys != expect_keys:
        fail("labeled.rows", f"{len(keys)} rows do not match the {len(expect_keys)} "
             "impressions of dataset.txt in order")
        return fails
    l_slide = [float(r[2]) for r in labeled]
    l_pdq = [float(r[3]) for r in labeled]
    l_attr = [float(r[4]) for r in labeled]

    bad = [i for i in range(len(slide)) if not _close(l_slide[i], slide[i])]
    if bad:
        fail("labeled.slide_time", f"{len(bad)} slide times differ from the capped "
             f"suffix sum, first at row {bad[0]}: {l_slide[bad[0]]!r} != {slide[bad[0]]!r}")

    agg_total = sum(float(r[3]) for r in _rows(workdir / "aggregates.txt"))
    log_total = math.fsum(log.watch)
    if not _close(agg_total, log_total):
        fail("aggregates.total_watch", f"aggregates sum to {agg_total!r}, "
             f"the log to {log_total!r}")

    tables = _rows(workdir / "tables.txt")
    ranges = [tuple(x.split(":")) for x in tables[0][1].split(",")]
    bounds = [(int(lo), math.inf if hi == "inf" else int(hi)) for lo, hi in ranges]
    T = {int(r[1]): int(r[2]) for r in tables[1:]}

    def group(page: int) -> int:
        return next(k for k, (lo, hi) in enumerate(bounds) if lo <= page < hi)

    groups = [group(p) for p in log.page]
    off = [i for i, (g, y) in enumerate(zip(groups, l_pdq))
           if not (0.0 <= y <= 1.0) or abs(y * T[g] - round(y * T[g])) > 1e-9]
    if off:
        fail("labeled.pdq_grid", f"{len(off)} PDQ labels off the 1/T grid in [0, 1], "
             f"first at row {off[0]}: {l_pdq[off[0]]!r}")
    order = sorted(range(len(slide)), key=lambda i: (groups[i], slide[i]))
    for a, b in zip(order, order[1:]):
        if groups[a] == groups[b] and (
                l_pdq[b] < l_pdq[a] or (slide[b] == slide[a] and l_pdq[b] != l_pdq[a])):
            fail("labeled.pdq_monotone", f"PDQ label decreases with slide time in "
                 f"group {groups[a]}: rows {a} and {b}")
            break

    over = [i for i in range(len(slide))
            if not (0.0 <= l_attr[i] <= l_slide[i] * (1 + REL))]
    if over:
        fail("labeled.attr_bounds", f"{len(over)} attributed slide times outside "
             f"[0, slide time], first at row {over[0]}")
    under = [i for lo, hi in log.spans() for i in range(lo, hi - 1)
             if l_attr[i] < min(log.watch[i + 1], Q) * (1 - REL)]
    if under:
        fail("labeled.attr_next", f"{len(under)} attributed slide times below the "
             f"next impression's capped watch, first at row {under[0]}")

    report = (workdir / "report.txt").read_text(encoding="utf-8")
    counts_line = f"sessions={len(log.starts)} impressions={len(log)}"
    if counts_line not in report.splitlines():
        fail("report.counts", f"report.txt lacks {counts_line!r}")

    per_page: dict[int, int] = {}
    for p in log.page:
        per_page[p] = per_page.get(p, 0) + 1
    plotted = {int(r[0]): int(r[1]) for r in _rows(workdir / "plot_page_slide.txt", True)}
    if plotted != per_page:
        fail("plot_page_slide.n", "per-page impression counts differ from the log")

    hist = _rows(workdir / "plot_slide_hist.txt", True)
    if ([int(r[2]) for r in hist] != _histogram(slide, Q)
            or [int(r[3]) for r in hist] != _histogram(l_attr, Q)):
        fail("plot_slide_hist.counts", "histogram columns differ from counts of the "
             "log's slide times and labeled.txt's attributed slide times")

    xaucs = [float(r[3]) for r in _rows(workdir / "metrics.txt")
             if r[0] == "S" and r[2] == "xauc" and r[3] != "-"]
    xaucs += [float(r[3]) for r in _rows(workdir / "metrics.txt")
              if r[0] == "G" and r[3] != "-"]
    if not xaucs or not all(0.0 <= x <= 1.0 for x in xaucs):
        fail("metrics.xauc_range", f"XAUC values outside [0, 1] or none: {xaucs[:5]}")

    losses = [float(r[2]) for r in _rows(workdir / "loss_trace.txt", True)]
    if not losses or not all(math.isfinite(x) for x in losses):
        fail("loss_trace.finite", "loss_trace.txt holds a non-finite loss or none")

    for name, digest in (upstream or {}).items():
        if content_digest(workdir / name) != digest:
            fail("upstream.identical", f"{name} differs from the set-up run")
    return fails
