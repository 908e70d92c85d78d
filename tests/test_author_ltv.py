import numpy as np
import pytest

from ltvrank.author_ltv import (
    aggregate_author_days,
    audit_no_leakage,
    author_ltv_label,
    load_aggregates,
    plan_dual_stream,
    save_aggregates,
)

from conftest import as_dataset, make_session


def row_sessions(dataset):
    """(session, record) of every row, in dataset order."""
    for sess in dataset.sessions:
        for r in sess.records:
            yield sess, r


def sessions_for(user, day, watch_by_author, session_id):
    """One session where record i has author watch_by_author[i][0]."""
    authors = [a for a, _ in watch_by_author]
    watches = [w for _, w in watch_by_author]
    return make_session(watches, session_id=session_id, user_id=user,
                        day=day, authors=authors)


class TestAggregates:
    def test_hand_sum(self):
        ds = as_dataset(sessions_for(0, 2, [(7, 3.0), (7, 7.0)], 0))
        agg = aggregate_author_days(ds)
        assert agg == {(0, 7, 2): 10.0}

    def test_unwatched_author_absent(self):
        ds = as_dataset(sessions_for(0, 1, [(7, 4.0)], 0))
        agg = aggregate_author_days(ds)
        assert (0, 8, 1) not in agg

    def test_two_users_independent_rows(self):
        ds = as_dataset(sessions_for(0, 1, [(7, 4.0)], 0),
                        sessions_for(1, 1, [(7, 6.0)], 1))
        agg = aggregate_author_days(ds)
        assert agg == {(0, 7, 1): 4.0, (1, 7, 1): 6.0}

    def test_round_trip(self, tmp_path):
        agg = {(0, 7, 1): 4.25, (3, 2, 0): 0.0, (1, 7, 8): 123.456}
        path = tmp_path / "agg.txt"
        save_aggregates(path, agg, meta="config=x seed=0")
        assert load_aggregates(path) == agg

    def test_bad_header(self, tmp_path):
        path = tmp_path / "agg.txt"
        path.write_text("#nope\n")
        with pytest.raises(ValueError, match="bad header"):
            load_aggregates(path)


class TestLabel:
    AGG = {(0, 7, 4): 10.0, (0, 7, 3): 4.0, (0, 7, 0): 100.0}

    def test_n1_single_day(self):
        assert author_ltv_label(self.AGG, 0, 7, t=4, N=1, alpha=0.3) == 10.0

    def test_decay_example(self):
        # 10 on day t plus 0.5 * 4 on day t-1
        assert author_ltv_label(self.AGG, 0, 7, t=4, N=2, alpha=0.5) == 12.0

    def test_alpha_one_plain_sum(self):
        assert author_ltv_label(self.AGG, 0, 7, t=4, N=7, alpha=1.0) == 114.0

    def test_empty_window_zero(self):
        assert author_ltv_label(self.AGG, 0, 7, t=2, N=2, alpha=0.5) == 0.0
        assert author_ltv_label(self.AGG, 5, 7, t=4, N=7, alpha=0.5) == 0.0

    def test_invalid_args(self):
        with pytest.raises(ValueError, match="N"):
            author_ltv_label(self.AGG, 0, 7, t=4, N=0)
        with pytest.raises(ValueError, match="alpha"):
            author_ltv_label(self.AGG, 0, 7, t=4, N=2, alpha=0.0)
        with pytest.raises(ValueError, match="alpha"):
            author_ltv_label(self.AGG, 0, 7, t=4, N=2, alpha=1.5)

    def test_monotone_in_alpha_and_n(self, small_corpus):
        ds, _ = small_corpus
        agg = aggregate_author_days(ds)
        keys = list(agg)[:50]
        for user, author, day in keys:
            for a_lo, a_hi in ((0.3, 0.6), (0.6, 1.0)):
                assert author_ltv_label(agg, user, author, day, 5, a_hi) >= \
                    author_ltv_label(agg, user, author, day, 5, a_lo)
            for n_lo, n_hi in ((1, 3), (3, 7)):
                assert author_ltv_label(agg, user, author, day, n_hi, 0.8) >= \
                    author_ltv_label(agg, user, author, day, n_lo, 0.8)

    def test_brute_force_equality(self, small_corpus):
        """Label equals a double loop over (day, record) on raw logs."""
        ds, _ = small_corpus
        agg = aggregate_author_days(ds)
        N, alpha = 4, 0.8
        pairs = sorted({(u, a) for (u, a, _) in agg})[:200]
        max_day = max(s.day for s in ds.sessions)
        for user, author in pairs:
            for t in range(max_day + 1):
                expect = 0.0
                for d in range(t - N + 1, t + 1):
                    day_sum = 0.0
                    seen = False
                    for sess in ds.sessions:
                        if sess.user_id != user or sess.day != d:
                            continue
                        for r in sess.records:
                            if r.author_id == author:
                                day_sum += r.watch_time
                                seen = True
                    if seen:
                        expect += (alpha ** (t - d)) * day_sum
                assert author_ltv_label(agg, user, author, t, N, alpha) == expect


class TestDualStream:
    def build_dataset(self, n_days=10):
        sessions = []
        sid = 0
        for user in range(3):
            for day in range(n_days):
                sessions.append(sessions_for(
                    user, day, [(7, 10.0 + day), (8, 2.0 * user + 1)], sid))
                sid += 1
        return as_dataset(*sessions)

    def test_boundary_t_equals_n(self):
        ds = self.build_dataset()
        plan = plan_dual_stream(ds, t=7, N=7, aggregates=aggregate_author_days(ds))
        rows = list(row_sessions(ds))
        assert len(plan.delayed)
        for row in plan.delayed:
            assert rows[row][0].day == 0  # all delayed rows come from day 0
        assert audit_no_leakage(plan, ds, N=7, alpha=0.8) == []

    def test_t_below_n_warns_empty(self):
        ds = self.build_dataset()
        with pytest.warns(UserWarning, match="delayed stream is empty"):
            plan = plan_dual_stream(ds, t=3, N=7, aggregates=aggregate_author_days(ds))
        assert len(plan.delayed) == 0 and len(plan.author_labels) == 0
        assert len(plan.standard)

    def test_ten_day_n7_t9_anchors_day2(self):
        ds = self.build_dataset(n_days=10)
        agg = aggregate_author_days(ds)
        plan = plan_dual_stream(ds, t=9, N=7, aggregates=agg)
        rows = list(row_sessions(ds))
        assert len(plan.delayed)
        for row, label in zip(plan.delayed, plan.author_labels, strict=True):
            sess, r = rows[row]
            assert sess.day == 2
            assert label == author_ltv_label(agg, r.user_id, r.author_id,
                                             t=9, N=7, alpha=0.8)
        assert audit_no_leakage(plan, ds, N=7, alpha=0.8) == []

    def test_negative_day_rejected(self):
        ds = self.build_dataset()
        with pytest.raises(ValueError, match=">= 0"):
            plan_dual_stream(ds, t=-1, N=7, aggregates=aggregate_author_days(ds))

    def test_audit_flags_tampered_label(self):
        ds = self.build_dataset()
        plan = plan_dual_stream(ds, t=9, N=7, aggregates=aggregate_author_days(ds))
        plan.author_labels[0] += 1.0
        violations = audit_no_leakage(plan, ds, N=7, alpha=0.8)
        assert len(violations) == 1 and "!=" in violations[0]

    def test_audit_flags_future_window(self):
        ds = self.build_dataset()
        plan = plan_dual_stream(ds, t=9, N=7, aggregates=aggregate_author_days(ds))
        plan.training_day = 8  # pretend the plan ran a day earlier
        violations = audit_no_leakage(plan, ds, N=7, alpha=0.8)
        assert violations
        assert any("window ends day 9 > training day 8" in v for v in violations)

    def test_plan_rows_are_day_rows_in_dataset_order(self, small_corpus):
        """``standard`` holds every day-t row and ``delayed`` every
        day-(t-N) row, as ascending int64 positions in dataset order, and
        each delayed row's label is its ``author_ltv_label`` at day t."""
        ds, _ = small_corpus
        agg = aggregate_author_days(ds)
        rows = list(row_sessions(ds))
        max_day = max(s.day for s in ds.sessions)
        for t in range(4, max_day + 1):
            plan = plan_dual_stream(ds, t, N=4, alpha=0.7, aggregates=agg)
            assert plan.standard.dtype == plan.delayed.dtype == np.int64
            assert plan.author_labels.dtype == np.float64
            assert list(plan.standard) == [i for i, (s, _) in enumerate(rows) if s.day == t]
            assert list(plan.delayed) == [i for i, (s, _) in enumerate(rows) if s.day == t - 4]
            assert len(plan.delayed)
            expect = [author_ltv_label(agg, rows[i][1].user_id, rows[i][1].author_id,
                                       t=t, N=4, alpha=0.7) for i in plan.delayed]
            assert list(plan.author_labels) == expect

    def test_all_plans_leak_free_on_generated_corpus(self, small_corpus):
        ds, _ = small_corpus
        agg = aggregate_author_days(ds)
        max_day = max(s.day for s in ds.sessions)
        for t in range(7, max_day + 1):
            plan = plan_dual_stream(ds, t, N=7, aggregates=agg)
            assert audit_no_leakage(plan, ds, N=7, alpha=0.8) == []
