import numpy as np
import pytest

from ltvrank.metrics import (
    MetricsReport,
    lt_n,
    mae,
    pcoc,
    render_summary,
    save_report,
    xauc,
    xauc_grouped,
    xauc_pair_counts,
)

from conftest import as_dataset, make_session


def brute_force_xauc(preds, labels):
    """O(n^2) reference: strict label order, strict prediction agreement."""
    num = denom = 0
    n = len(labels)
    for i in range(n):
        for j in range(i + 1, n):
            if labels[i] == labels[j]:
                continue
            denom += 1
            lo, hi = (i, j) if labels[i] < labels[j] else (j, i)
            if preds[lo] < preds[hi]:
                num += 1
    return num / denom


class TestXauc:
    def test_perfect_order(self):
        assert xauc([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0

    def test_reversed_order(self):
        assert xauc([3.0, 2.0, 1.0], [1.0, 2.0, 3.0]) == 0.0

    def test_tied_prediction_example(self):
        # labels give three ordered pairs, predictions concord on two of
        # them and tie on the third; the brute force settles the value
        preds = [1.0, 1.0, 2.0]
        labels = [1.0, 2.0, 3.0]
        expect = brute_force_xauc(preds, labels)
        assert expect == pytest.approx(2 / 3)
        assert xauc(preds, labels) == pytest.approx(expect)

    def test_matches_brute_force_with_ties(self):
        rng = np.random.default_rng(0)
        for trial in range(10):
            n = int(rng.integers(5, 300))
            preds = rng.integers(0, 6, size=n).astype(float)
            labels = rng.integers(0, 4, size=n).astype(float)
            if len(np.unique(labels)) < 2:
                continue
            assert xauc(preds, labels) == pytest.approx(
                brute_force_xauc(preds, labels))

    def test_antisymmetry_without_pred_ties(self):
        rng = np.random.default_rng(1)
        preds = rng.random(100)
        labels = rng.integers(0, 5, size=100).astype(float)
        assert xauc(preds, labels) + xauc(-preds, labels) == pytest.approx(1.0)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(2)
        preds = rng.random(200)
        labels = rng.random(200)
        assert xauc(np.exp(3 * preds) + 7, labels) == xauc(preds, labels)

    def test_random_predictions_near_half(self):
        rng = np.random.default_rng(3)
        preds = rng.random(10000)
        labels = rng.random(10000)
        assert abs(xauc(preds, labels) - 0.5) < 0.02

    def test_all_labels_tied(self):
        with pytest.raises(ValueError, match="tied"):
            xauc([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            xauc([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="two samples"):
            xauc([1.0], [1.0])

    def test_pair_counts_exact(self):
        concordant, denom = xauc_pair_counts([1.0, 1.0, 2.0], [1.0, 2.0, 3.0])
        assert (concordant, denom) == (2, 3)


class TestXaucGrouped:
    def test_single_group_matches_plain(self):
        rng = np.random.default_rng(4)
        preds = rng.random(80)
        labels = rng.random(80)
        out = xauc_grouped(preds, labels, np.zeros(80, dtype=int))
        assert out[0][0] == pytest.approx(xauc(preds, labels))

    def test_within_group_perfect_despite_global_mix(self):
        # each group is perfectly ordered on its own scale, but the global
        # ranking across groups is scrambled
        preds = np.array([10.0, 20.0, 30.0, 1.0, 2.0, 3.0])
        labels = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        groups = np.array([0, 0, 0, 1, 1, 1])
        out = xauc_grouped(preds, labels, groups)
        assert out[0] == (1.0, 3)
        assert out[1] == (1.0, 3)
        assert xauc(preds, labels) < 1.0

    def test_degenerate_groups(self):
        preds = np.array([1.0, 2.0, 3.0, 4.0])
        labels = np.array([1.0, 5.0, 5.0, 9.0])
        groups = np.array([0, 1, 1, 2])
        out = xauc_grouped(preds, labels, groups)
        assert out[0] == (None, 0)   # single sample
        assert out[1] == (None, 0)   # all labels tied
        assert out[2] == (None, 0)


class TestPointMetrics:
    def test_pcoc_calibrated(self):
        assert pcoc([1.0, 2.0], [1.0, 2.0]) == 1.0

    def test_pcoc_underprediction(self):
        assert pcoc([1.0, 1.0], [2.0, 2.0]) == 0.5

    def test_pcoc_example(self):
        assert pcoc([1.0, 2.0], [2.0, 2.0]) == 0.75

    def test_pcoc_scale_equivariance(self):
        rng = np.random.default_rng(5)
        preds = rng.random(50) + 0.1
        labels = rng.random(50) + 0.1
        assert pcoc(3.0 * preds, labels) == pytest.approx(3.0 * pcoc(preds, labels))

    def test_pcoc_zero_mass(self):
        with pytest.raises(ValueError, match="positive label mass"):
            pcoc([1.0, 2.0], [0.0, 0.0])

    def test_mae(self):
        assert mae([1.0, 3.0], [2.0, 5.0]) == 1.5
        assert mae([4.0], [4.0]) == 0.0


class TestLtN:
    def make_dataset(self):
        # user 0 revisits day 1, user 1 day 3, user 2 never (flag 0),
        # user 3 day 2, user 4 day 9 (outside the window)
        spec = [(0, 1, 1), (1, 3, 1), (2, 2, 0), (3, 2, 1), (4, 9, 1)]
        sessions = []
        for sid, (user, day, flag) in enumerate(spec):
            sessions.append(make_session([1.0, 2.0], session_id=sid,
                                         user_id=user, day=day,
                                         revisit=flag))
        return as_dataset(*sessions)

    def test_window_fraction(self):
        ds = self.make_dataset()
        # within days 1..3: users 0, 1, 3 revisit out of cohort of five
        assert lt_n(range(5), ds, N=3) == pytest.approx(0.6)

    def test_wide_window_excludes_flagless(self):
        ds = self.make_dataset()
        assert lt_n(range(5), ds, N=20) == pytest.approx(0.8)

    def test_cohort_of_revisitors(self):
        ds = self.make_dataset()
        assert lt_n([0, 1, 3], ds, N=3) == 1.0

    def test_no_revisits(self):
        ds = self.make_dataset()
        assert lt_n([2], ds, N=20) == 0.0

    def test_errors(self):
        ds = self.make_dataset()
        with pytest.raises(ValueError, match="N"):
            lt_n([0], ds, N=0)
        with pytest.raises(ValueError, match="empty"):
            lt_n([], ds, N=3)


class TestReport:
    def test_add_head_and_save(self, tmp_path):
        rng = np.random.default_rng(7)
        report = MetricsReport(dataset_id="d0", model_id="m0", seed=7)
        preds = rng.random(60)
        labels = rng.random(60)
        groups = rng.integers(0, 3, size=60)
        report.add_head("slide", preds, labels, groups=groups)
        report.lt_n[3] = 0.42
        assert report.per_head["slide"]["xauc"] is not None
        path = tmp_path / "metrics.txt"
        save_report(path, report, meta="config=x seed=7")
        text = path.read_text()
        assert text.startswith("#ltvrank-metrics v1\n")
        assert "S\tslide\txauc\t" in text
        assert "L\t3\t" in text

    def test_render_summary_mentions_heads(self):
        report = MetricsReport(dataset_id="d", model_id="m", seed=0)
        report.add_head("watch", [1.0, 2.0, 3.0], [1.0, 2.0, 4.0])
        text = render_summary(report)
        assert "watch" in text and "pcoc" in text
