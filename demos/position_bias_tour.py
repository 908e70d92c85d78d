"""A tour of position bias and the quantile fix.

Generates a synthetic feed log, shows how mean slide time climbs with page
depth (active users both scroll deeper and watch longer, so raw slide time
rewards placement rather than content), then fits per-page-group quantile
tables and shows the labels are flat across depth by construction.

Run with:  python3 demos/position_bias_tour.py
"""

import numpy as np

from ltvrank.datamodel import slide_times
from ltvrank.pdq import PAGE_GROUPS, build_pdq_labels, fit_tables, page_groups
from ltvrank.synthgen import GenConfig, generate


def main():
    cfg = GenConfig(n_users=1500, n_videos=6000, n_authors=120,
                    n_categories=16, n_days=6, seed=21)
    print("generating", cfg.n_users, "users over", cfg.n_days, "days ...")
    dataset, _ = generate(cfg)
    n_imp = dataset.n_records()
    print(f"{len(dataset.sessions)} sessions, {n_imp} impressions\n")

    # raw slide time by page depth
    pages = dataset.columns["page_index"]
    slide = slide_times(dataset)
    counts = np.bincount(pages)
    sums = np.bincount(pages, weights=slide)

    print("page  impressions  mean slide time (s)")
    for p in np.flatnonzero(counts):
        if counts[p] < 200:
            continue
        bar = "#" * int(sums[p] / counts[p] / 4)
        print(f"{p:4d}  {counts[p]:11d}  {sums[p] / counts[p]:8.1f}  {bar}")

    print("\nThe ramp above is position bias: nobody made page-20 videos "
          "better,\nheavy watchers just end up there. A regressor trained on "
          "raw slide\ntime learns to predict the page, not the video.\n")

    # quantile labels within page groups
    groups = page_groups(pages)
    tables = fit_tables(slide, groups)
    labels = build_pdq_labels(slide, groups, tables)

    lab_sum = np.bincount(groups, weights=labels)
    lab_n = np.bincount(groups)

    print("group  pages        zero-start S_k/T  mean quantile label")
    for g, (lo, hi) in enumerate(PAGE_GROUPS):
        if g not in tables:
            continue
        t = tables[g]
        span = f"[{lo},{'inf' if hi is None else hi})"
        print(f"{g:5d}  {span:11s}  {t.S_k / t.T:16.2f}  "
              f"{lab_sum[g] / lab_n[g]:8.3f}")

    print("\nRaw means ramp from a few seconds to hundreds; the labels stay "
          "on one\n[0,1] scale at every depth (deep groups average lower "
          "only because\nmuch of their mass ties at the slide-time cap). "
          "Within a group, the\nlabel says how a video did against peers "
          "served at the same depth,\nwhich is exactly the question a "
          "ranker asks.")


if __name__ == "__main__":
    main()
