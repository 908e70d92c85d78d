import numpy as np
import pytest

from ltvrank.datamodel import session_slide_times, slide_times
from ltvrank.pdq import (
    PAGE_GROUPS,
    PageGroupSpec,
    QuantileTable,
    TABLE4_BOUNDARIES,
    bucketize,
    build_pdq_labels,
    fit_quantile_table,
    fit_tables,
    load_tables,
    quantile_label,
    quantile_labels,
    save_tables,
)

from conftest import as_dataset, make_session


def table(thresholds, S_k=None):
    arr = np.asarray(thresholds, dtype=float)
    if S_k is None:
        S_k = int(np.sum(np.cumsum(arr != 0.0) == 0))
    return QuantileTable(group=0, T=len(thresholds),
                         thresholds=tuple(float(x) for x in thresholds), S_k=S_k)


class TestPageGroups:
    def test_table4_mode(self):
        assert PAGE_GROUPS.ranges == TABLE4_BOUNDARIES
        assert PAGE_GROUPS.group_of(4) == 2  # page 4 lives in the 3-5 group

    def test_group_array_matches_group_of(self, small_dataset):
        spec = PAGE_GROUPS
        pages = small_dataset.columns["page_index"]
        grouped = spec.group_array(pages)
        for p, g in zip(pages[:200], grouped[:200]):
            assert spec.group_of(int(p)) == g

    def test_group_array_rejects_negative_page_like_group_of(self):
        spec = PageGroupSpec(ranges=TABLE4_BOUNDARIES)
        with pytest.raises(ValueError, match="page_index must be >= 0"):
            spec.group_of(-2)
        with pytest.raises(ValueError, match="page_index must be >= 0"):
            spec.group_array(np.array([0, 5, -2], dtype=np.int64))

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            PageGroupSpec(ranges=((0, 3), (4, None)))  # gap at 3
        with pytest.raises(ValueError):
            PageGroupSpec(ranges=((0, 3),))  # bounded tail


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
        spec = PageGroupSpec(ranges=((0, None),))
        T = 50
        tables = fit_tables(small_dataset, spec, T=T)
        labels = build_pdq_labels(small_dataset, spec, tables)
        slide = np.concatenate([session_slide_times(s)
                                for s in small_dataset.sessions])
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
        spec = PageGroupSpec(ranges=((0, None),))
        tables = fit_tables(ds, spec, T=4)
        labels = build_pdq_labels(ds, spec, tables)
        # within a session the final suffix is shorter, so compare per position
        per_pos = labels.reshape(20, 8)
        assert np.all(per_pos == per_pos[0])

    def test_debias_across_shifted_groups(self):
        # group 1's slide times are a monotone transform (x10) of group 0's;
        # equal within-group ranks must receive equal labels
        rng = np.random.default_rng(4)
        base = rng.gamma(1.0, 5.0, size=400)
        t0 = fit_quantile_table(base, T=10, group=0)
        t1 = fit_quantile_table(base * 10.0, T=10, group=1)
        probe = np.quantile(base, [0.1, 0.3, 0.5, 0.7, 0.9])
        l0 = quantile_labels(probe, t0)
        l1 = quantile_labels(probe * 10.0, t1)
        assert np.allclose(l0, l1)

    def test_missing_table_raises(self, small_dataset):
        spec = PAGE_GROUPS
        tables = fit_tables(small_dataset, spec)
        tables.pop(0)
        with pytest.raises(KeyError, match="page group 0"):
            build_pdq_labels(small_dataset, spec, tables)

    def test_sparse_first_group_raises(self):
        """A group with too few rows for T quantiles and no shallower group
        to inherit a table from fails, naming the group, its rows and T."""
        ds = as_dataset(make_session([1.0] * 8))
        with pytest.raises(ValueError, match=r"page group 0 has 4 rows, fewer than pdq\.T=10"):
            fit_tables(ds, PAGE_GROUPS, T=10)


def test_given_slide_times_change_nothing(small_dataset):
    """Tables and labels from slide times the caller already holds equal
    those computed from the dataset."""
    spec = PAGE_GROUPS
    slide = slide_times(small_dataset, Q=120.0)
    tables = fit_tables(small_dataset, spec, Q=120.0)
    assert fit_tables(small_dataset, spec, Q=120.0, slide=slide) == tables
    assert np.array_equal(build_pdq_labels(small_dataset, spec, tables, Q=120.0, slide=slide),
                          build_pdq_labels(small_dataset, spec, tables, Q=120.0))


def test_tables_round_trip(tmp_path, small_dataset):
    spec = PAGE_GROUPS
    tables = fit_tables(small_dataset, spec)
    p = tmp_path / "tables.txt"
    save_tables(p, spec, tables, meta="config=abc seed=0")
    spec2, tables2 = load_tables(p)
    assert spec2 == spec
    assert tables2 == tables
