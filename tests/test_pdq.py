import numpy as np
import pytest

from ltvrank.datamodel import session_slide_times, slide_times
from ltvrank.pdq import (
    PAGE_GROUPS,
    QuantileTable,
    bucketize,
    build_pdq_labels,
    fit_quantile_table,
    fit_tables,
    load_tables,
    page_groups,
    quantile_label,
    quantile_labels,
    save_tables,
)

from conftest import as_dataset, make_session


def table(thresholds, S_k=None):
    arr = np.asarray(thresholds, dtype=float)
    if S_k is None:
        S_k = int(np.sum(np.cumsum(arr != 0.0) == 0))
    return QuantileTable(T=len(thresholds),
                         thresholds=tuple(float(x) for x in thresholds), S_k=S_k)


def columns(dataset):
    """The slide-time and page-group columns of ``dataset``."""
    return slide_times(dataset), page_groups(dataset.columns["page_index"])


def group_of(page: int) -> int:
    """The ``PAGE_GROUPS`` range holding ``page``, by a scalar scan."""
    return next(k for k, (lo, hi) in enumerate(PAGE_GROUPS)
                if lo <= page and (hi is None or page < hi))


class TestPageGroups:
    def test_table4_mode(self):
        """``PAGE_GROUPS`` runs contiguously from page 0 to an open last range."""
        los = [lo for lo, _ in PAGE_GROUPS]
        his = [hi for _, hi in PAGE_GROUPS]
        assert los[0] == 0 and his[-1] is None
        assert his[:-1] == los[1:] and all(lo < hi for lo, hi in PAGE_GROUPS[:-1])
        assert page_groups(np.array([4]))[0] == 2  # page 4 lives in the 3-5 group

    def test_group_array_matches_group_of(self, small_dataset):
        pages = np.concatenate([np.arange(80, dtype=np.int64),
                                small_dataset.columns["page_index"][:200]])
        assert page_groups(pages).tolist() == [group_of(int(p)) for p in pages]

    def test_group_array_rejects_negative_page_like_group_of(self):
        with pytest.raises(ValueError, match="page_index must be >= 0, got -2"):
            page_groups(np.array([-2], dtype=np.int64))
        with pytest.raises(ValueError, match="page_index must be >= 0, got -2"):
            page_groups(np.array([0, 5, -2], dtype=np.int64))

    def test_invalid_spec_rejected(self, tmp_path):
        """A tables file whose page groups are not ``PAGE_GROUPS`` is rejected."""
        p = tmp_path / "tables.txt"
        for field in ("0:3,4:inf", "0:3"):  # gap at 3; bounded tail
            save_tables(p, {0: table([0.0, 1.0])})
            lines = p.read_text().splitlines(keepends=True)
            p.write_text("".join(f"G\t{field}\n" if line.startswith("G\t") else line
                                 for line in lines))
            with pytest.raises(ValueError, match=f"page groups '{field}'"):
                load_tables(p)


class TestFitQuantileTable:
    def test_degenerate_distribution(self):
        t = fit_quantile_table([5.0] * 100, T=4)
        assert t.thresholds == (5.0, 5.0, 5.0, 5.0)
        assert t.S_k == 0

    def test_half_zero_sample(self):
        rng = np.random.default_rng(0)
        values = np.concatenate([np.zeros(50), rng.uniform(1e-9, 10.0, 50)])
        t = fit_quantile_table(values, T=4)
        assert t.thresholds[0] == 0.0 and t.thresholds[1] == 0.0
        assert t.thresholds[2] > 0.0
        assert t.S_k == 2

    def test_32_percent_zeros_gives_starting_index_16(self):
        rng = np.random.default_rng(1)
        values = np.concatenate([np.zeros(3200), rng.uniform(0.1, 50.0, 6800)])
        t = fit_quantile_table(values, T=50)
        assert t.S_k == 16

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="at least T"):
            fit_quantile_table([1.0, 2.0], T=4)

    def test_isofrequency_bucket_sizes(self):
        rng = np.random.default_rng(2)
        values = rng.gamma(1.0, 10.0, size=5000) + 1e-9
        T = 50
        t = fit_quantile_table(values, T=T)
        buckets = np.searchsorted(np.asarray(t.thresholds), values, side="left")
        counts = np.bincount(buckets, minlength=T)
        n = len(values)
        assert counts[counts > 0].min() >= n // T - 1
        assert counts.max() <= -(-n // T) + 1


class TestBucketizeAndLabel:
    def test_zero_slide(self):
        assert bucketize(0.0, table([0, 0, 2, 5])) == 0

    def test_one_positive_below(self):
        assert bucketize(3.0, table([0, 0, 2, 5])) == 1

    def test_both_positive_below(self):
        assert bucketize(9.0, table([0, 0, 2, 5])) == 2

    def test_label_examples(self):
        t = table([0, 0, 2, 5])
        assert quantile_label(0.0, t) == 0.5
        assert quantile_label(3.0, t) == 0.75

    def test_label_zero_when_no_zero_mass(self):
        t = table([1, 2, 3, 4])
        assert quantile_label(0.5, t) == 0.0

    def test_vectorized_agrees_with_scalar(self):
        t = table([0, 0, 2, 2, 5, 9])
        s = np.array([0.0, 1.0, 2.0, 2.5, 5.0, 5.1, 100.0])
        vec = quantile_labels(s, t)
        for si, vi in zip(s, vec):
            assert quantile_label(float(si), t) == vi

    def test_monotone(self):
        rng = np.random.default_rng(3)
        t = fit_quantile_table(np.concatenate([np.zeros(30),
                                               rng.gamma(1, 8, 70)]), T=10)
        s = np.sort(rng.uniform(0, 40, 200))
        labels = quantile_labels(s, t)
        assert np.all(np.diff(labels) >= 0)


class TestBuildLabels:
    def test_single_group_matches_cdf_oracle(self, small_dataset):
        T = 50
        slide = np.concatenate([session_slide_times(s)
                                for s in small_dataset.sessions])
        one_group = np.zeros(len(slide), dtype=np.int64)
        tables = fit_tables(slide, one_group, T=T)
        labels = build_pdq_labels(slide, one_group, tables)
        # oracle: empirical CDF floor at resolution 1/T; the censored zero
        # mass is counted inclusively (a zero maps to the zero quantile S_k/T)
        order = np.sort(slide)
        n = len(order)
        for s, lab in zip(slide[:500], labels[:500]):
            side = "right" if s == 0.0 else "left"
            ecdf = np.searchsorted(order, s, side=side) / n
            assert abs(lab - ecdf) <= 1.0 / T + 0.01

    def test_all_identical_slide_times(self):
        ds = as_dataset(*(make_session([3.0] * 8, session_id=i)
                          for i in range(20)))
        slide = slide_times(ds)
        one_group = np.zeros(len(slide), dtype=np.int64)
        tables = fit_tables(slide, one_group, T=4)
        labels = build_pdq_labels(slide, one_group, tables)
        # within a session the final suffix is shorter, so compare per position
        per_pos = labels.reshape(20, 8)
        assert np.all(per_pos == per_pos[0])

    def test_debias_across_shifted_groups(self):
        # group 1's slide times are a monotone transform (x10) of group 0's;
        # equal within-group ranks must receive equal labels
        rng = np.random.default_rng(4)
        base = rng.gamma(1.0, 5.0, size=400)
        t0 = fit_quantile_table(base, T=10)
        t1 = fit_quantile_table(base * 10.0, T=10)
        probe = np.quantile(base, [0.1, 0.3, 0.5, 0.7, 0.9])
        l0 = quantile_labels(probe, t0)
        l1 = quantile_labels(probe * 10.0, t1)
        assert np.allclose(l0, l1)

    def test_missing_table_raises(self, small_dataset):
        slide, groups = columns(small_dataset)
        tables = fit_tables(slide, groups)
        tables.pop(0)
        with pytest.raises(KeyError, match="page group 0"):
            build_pdq_labels(slide, groups, tables)

    def test_sparse_group_shares_shallower_table(self):
        """A group with fewer than T rows shares the table of the nearest
        shallower fitted group; an empty group gets none."""
        slide = np.arange(30, dtype=np.float64)
        groups = np.repeat([0, 2, 5], [10, 15, 5])
        tables = fit_tables(slide, groups, T=10)
        assert sorted(tables) == [0, 2, 5] and tables[5] is tables[2]

    def test_sparse_first_group_raises(self):
        """A group with too few rows for T quantiles and no shallower group
        to inherit a table from fails, naming the group, its rows and T."""
        ds = as_dataset(make_session([1.0] * 8))
        with pytest.raises(ValueError, match=r"page group 0 has 4 rows, fewer than pdq\.T=10"):
            fit_tables(*columns(ds), T=10)


def test_tables_round_trip(tmp_path, small_dataset):
    tables = fit_tables(*columns(small_dataset))
    p = tmp_path / "tables.txt"
    save_tables(p, tables, meta="config=abc seed=0")
    assert load_tables(p) == tables
