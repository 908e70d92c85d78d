"""Self-test of the output checks: each corruption of a copy of a good
working directory must make its matching check fail.

    python3 perfbench/selftest.py

Runs ``ltvrank all`` once on a small corpus, checks that the clean output
passes every check, then corrupts one artifact per case in a fresh copy and
checks again. Prints one line per case and exits 1 if any corruption goes
undetected or the clean output fails.
"""

from __future__ import annotations

import math
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checks import CHECKS, Log, check_workdir, content_digest  # noqa: E402
from run import CORPUS, Q, RUNS, WORKLOADS, Runner  # noqa: E402

SEED = 5


def _edit_rows(path: Path, edit, log: Log) -> None:
    """Apply ``edit(rows, log) -> rows`` to the tab-split lines of an
    artifact that are not comments; comment lines stay first."""
    lines = path.read_text(encoding="utf-8").splitlines()
    head = [ln + "\n" for ln in lines if ln.startswith("#")]
    rows = edit([ln.split("\t") for ln in lines if not ln.startswith("#")], log)
    path.write_text("".join(head) + "".join("\t".join(r) + "\n" for r in rows),
                    encoding="utf-8")


def _set(row: list[str], col: int, value: float) -> None:
    row[col] = repr(float(value))


def drop_labeled_row(rows, log):
    return rows[:-1]


def shift_slide_time(rows, log):
    row = next(r for r in rows if 0.0 < float(r[2]) < Q - 1)
    _set(row, 2, float(row[2]) + 1.0)
    return rows


def drop_aggregate_row(rows, log):
    i = next(i for i, r in enumerate(rows) if float(r[3]) > 0)
    return rows[:i] + rows[i + 1:]


def pdq_off_grid(rows, log):
    _set(rows[0], 3, float(rows[0][3]) + 0.001)
    return rows


def swap_pdq_labels(rows, log):
    """Swap the labels of the lowest- and highest-labelled rows of page 0."""
    page0 = [i for i, p in enumerate(log.page) if p == 0]
    lo = min(page0, key=lambda i: float(rows[i][3]))
    hi = max(page0, key=lambda i: float(rows[i][3]))
    rows[lo][3], rows[hi][3] = rows[hi][3], rows[lo][3]
    return rows


def attr_above_slide(rows, log):
    row = next(r for r in rows if 0.0 < float(r[2]) < Q - 1)
    _set(row, 4, float(row[2]) + 1.0)
    return rows


def attr_below_next(rows, log):
    i = next(i for i in range(len(rows) - 1)
             if log.session[i] == log.session[i + 1] and log.watch[i + 1] > 0)
    _set(rows[i], 4, 0.0)
    return rows


def add_session(rows, log):
    row = next(r for r in rows if r[0].startswith("sessions="))
    n = int(row[0].split()[0].split("=")[1])
    row[0] = row[0].replace(f"sessions={n}", f"sessions={n + 1}")
    return rows


def add_page_impression(rows, log):
    rows[1][1] = str(int(rows[1][1]) + 1)      # rows[0] is the column header
    return rows


def move_hist_count(rows, log):
    rows[1][2] = str(int(rows[1][2]) - 1)
    rows[2][2] = str(int(rows[2][2]) + 1)
    return rows


def xauc_out_of_range(rows, log):
    row = next(r for r in rows if r[0] == "S" and r[2] == "xauc")
    row[3] = "1.5"
    return rows


def loss_not_finite(rows, log):
    rows[1][2] = repr(math.nan)
    return rows


def change_threshold_digit(rows, log):
    last = rows[-1][-1]
    i = max(i for i, c in enumerate(last) if c in "123456789")
    rows[-1][-1] = last[:i] + str(int(last[i]) % 9 + 1) + last[i + 1:]
    return rows


#: (check expected to fail, artifact, corruption of the artifact's rows)
CASES = (
    ("labeled.rows", "labeled.txt", drop_labeled_row),
    ("labeled.slide_time", "labeled.txt", shift_slide_time),
    ("aggregates.total_watch", "aggregates.txt", drop_aggregate_row),
    ("labeled.pdq_grid", "labeled.txt", pdq_off_grid),
    ("labeled.pdq_monotone", "labeled.txt", swap_pdq_labels),
    ("labeled.attr_bounds", "labeled.txt", attr_above_slide),
    ("labeled.attr_next", "labeled.txt", attr_below_next),
    ("report.counts", "report.txt", add_session),
    ("plot_page_slide.n", "plot_page_slide.txt", add_page_impression),
    ("plot_slide_hist.counts", "plot_slide_hist.txt", move_hist_count),
    ("metrics.xauc_range", "metrics.txt", xauc_out_of_range),
    ("loss_trace.finite", "loss_trace.txt", loss_not_finite),
    ("upstream.identical", "tables.txt", change_threshold_digit),
)


def main() -> int:
    if {c for c, _, _ in CASES} != set(CHECKS):
        print("every check needs a corruption case")
        return 1
    root = RUNS / "selftest"
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    try:
        runner = Runner(root)
        wl = WORKLOADS["fusion-sweep"]
        inv = runner.ltvrank({**CORPUS, "gen.n_users": "30", "train.epochs": "1",
                              "replay.n_seeds": "1"}, SEED, "clean.log")
        if inv.returncode != 0:
            print(f"ltvrank all failed:\n{inv.stdout}")
            return 1
        clean = root / "work"
        log = Log(clean / "dataset.txt")
        upstream = {name: content_digest(clean / name) for name in wl.upstream}
        fails = check_workdir(clean, log, Q, upstream)
        print(f"{'clean copy':24s} {'passes' if not fails else 'FAILS: ' + '; '.join(fails)}")
        ok = not fails
        for check, artifact, corrupt in CASES:
            case = root / check
            shutil.copytree(clean, case)
            _edit_rows(case / artifact, corrupt, log)
            # compare upstream artifacts only in their own case, so that each
            # case shows the check it targets
            digests = upstream if check == "upstream.identical" else None
            failed = [f.split(":")[0] for f in check_workdir(case, log, Q, digests)]
            detected = check in failed
            ok &= detected
            print(f"{check:24s} {corrupt.__name__:20s} on {artifact:20s} "
                  f"{'detected' if detected else 'MISSED'}  (failed: {', '.join(failed)})")
        return 0 if ok else 1
    finally:
        shutil.rmtree(root, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
