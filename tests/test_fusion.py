import numpy as np
import pytest

from ltvrank import fusion, synthgen
from ltvrank.fusion import (
    FusionWeights,
    fused_score,
    qa_authors,
    replay,
    replay_eval,
    save_replay_report,
)
from ltvrank.synthgen import GenConfig, generate

from conftest import SMALL_GEN


def flat_preds(n, **over):
    base = {"watch": 1.0, "attr": 1.0, "author": 1.0,
            "pdq": 0.5, "completion": 0.5, "interaction": 0.5}
    base.update(over)
    return {h: np.full(n, v) for h, v in base.items()}


def affinity_scorer(gt):
    """Score records by planted author affinity, everything else flat."""
    def scorer(session):
        n = len(session.records)
        preds = flat_preds(n)
        preds["author"] = np.array(
            [gt.affinity(r.user_id, r.author_id) + 0.01 for r in session.records])
        return preds
    return scorer


class TestFusedScore:
    def test_hand_oracle(self):
        preds = {"watch": np.array([2.0]), "attr": np.array([3.0]),
                 "author": np.array([5.0]), "pdq": np.array([0.5]),
                 "completion": np.array([1.0]), "interaction": np.array([1.0])}
        w = FusionWeights(1.0, 1.0, 1.0)
        assert fused_score(preds, w)[0] == pytest.approx(5.0)

    def test_zero_exponents_purely_additive(self):
        preds = flat_preds(4, watch=2.0, attr=3.0, author=5.0, pdq=0.25)
        w = FusionWeights(1.0, 1.0, 1.0, exponents={})
        np.testing.assert_allclose(fused_score(preds, w), 10.0)

    def test_single_weight_isolates_head(self):
        preds = flat_preds(3, attr=7.0)
        w = FusionWeights(0.0, 2.0, 0.0, exponents={})
        np.testing.assert_allclose(fused_score(preds, w), 14.0)

    def test_strictly_increasing_in_additive_heads(self):
        rng = np.random.default_rng(0)
        preds = flat_preds(10)
        w = FusionWeights(1.0, 1.0, 1.0)
        base = fused_score(preds, w)
        preds["watch"] = preds["watch"] + rng.random(10) + 0.01
        assert np.all(fused_score(preds, w) > base)

    def test_rank_invariant_under_additive_scaling(self):
        rng = np.random.default_rng(1)
        preds = {h: rng.random(50) + 0.1 for h in
                 ("watch", "attr", "author", "pdq", "completion", "interaction")}
        w = FusionWeights(1.0, 2.0, 0.5)
        ranks = np.argsort(fused_score(preds, w))
        scaled = dict(preds)
        for h in ("watch", "attr", "author"):
            scaled[h] = 3.0 * preds[h]
        np.testing.assert_array_equal(np.argsort(fused_score(scaled, w)), ranks)

    def test_rejects_nonpositive_multiplicative_head(self):
        preds = flat_preds(2, pdq=0.0)
        with pytest.raises(ValueError, match="pdq"):
            fused_score(preds, FusionWeights())

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError, match="non-negative"):
            fused_score(flat_preds(2), FusionWeights(-1.0, 1.0, 1.0))

    def test_rejects_all_zero_additive(self):
        with pytest.raises(ValueError, match="positive"):
            fused_score(flat_preds(2), FusionWeights(0.0, 0.0, 0.0))

    def test_rejects_negative_exponent(self):
        w = FusionWeights(exponents={"pdq": -1.0})
        with pytest.raises(ValueError, match="exponent"):
            fused_score(flat_preds(2), w)


class TestQaAuthors:
    def test_size_is_top_decile(self, small_corpus):
        _, gt = small_corpus
        qa = qa_authors(gt)
        assert len(qa) == int(np.ceil(0.1 * len(gt.author_quality)))
        assert all(0 <= a < len(gt.author_quality) for a in qa)

    def test_members_carry_most_affinity_mass(self, small_corpus):
        _, gt = small_corpus
        qa = qa_authors(gt)
        mass = np.zeros(len(gt.author_quality))
        for affs in gt.user_affinity:
            for a, v in affs.items():
                mass[a] += v
        inside = min(mass[a] for a in qa)
        outside = max((mass[a] for a in range(len(mass)) if a not in qa),
                      default=0.0)
        assert inside >= outside


class TestReplay:
    def test_deterministic(self, small_corpus):
        ds, gt = small_corpus
        scorer = affinity_scorer(gt)
        days = [max(s.day for s in ds.sessions)]
        w = FusionWeights(1.0, 1.0, 1.0)
        o1 = replay(ds, gt, SMALL_GEN, scorer, w, days, seed=3)
        o2 = replay(ds, gt, SMALL_GEN, scorer, w, days, seed=3)
        assert (o1.vv, o1.watch, o1.qa_watch, o1.lt_n) == \
            (o2.vv, o2.watch, o2.qa_watch, o2.lt_n)

    def test_empty_holdout_rejected(self, small_corpus):
        ds, gt = small_corpus
        with pytest.raises(ValueError, match="empty"):
            replay(ds, gt, SMALL_GEN, affinity_scorer(gt),
                   FusionWeights(), [999], seed=0)

    def test_identical_weights_zero_deltas(self, small_corpus):
        ds, gt = small_corpus
        scorer = affinity_scorer(gt)
        days = [max(s.day for s in ds.sessions)]
        w = FusionWeights(1.0, 1.0, 2.0)
        report = replay_eval(ds, gt, SMALL_GEN, scorer, w, w, days, n_seeds=3)
        for m, vals in report.per_seed.items():
            assert vals == [0.0, 0.0, 0.0], m

    def test_report_shape_and_ci(self, small_corpus):
        ds, gt = small_corpus
        scorer = affinity_scorer(gt)
        days = [max(s.day for s in ds.sessions)]
        report = replay_eval(ds, gt, SMALL_GEN, scorer,
                             FusionWeights(1.0, 1.0, 2.0),
                             FusionWeights(1.0, 1.0, 0.0),
                             days, n_seeds=5)
        for m in ("vv", "watch", "qa_watch", "lt_n"):
            assert len(report.per_seed[m]) == 5
            lo, hi = report.ci[m]
            assert lo <= hi
            assert lo <= report.deltas[m] <= hi or len(set(report.per_seed[m])) > 1

    def test_scores_each_session_once(self, small_corpus):
        ds, gt = small_corpus
        scorer = affinity_scorer(gt)
        calls = []
        days = [max(s.day for s in ds.sessions)]
        replay_eval(ds, gt, SMALL_GEN, lambda s: calls.append(s.session_id) or scorer(s),
                    FusionWeights(1.0, 1.0, 2.0), FusionWeights(1.0, 1.0, 0.0),
                    days, n_seeds=3)
        held_out = [s.session_id for s in ds.sessions if s.day in days]
        assert calls == held_out

    def test_shared_slates_change_no_draw(self, small_corpus, monkeypatch):
        """``replay_eval``'s replays share the scored and ordered sessions,
        fusing each once per weighting, and still give each seed the
        outcomes of replays that share nothing."""
        ds, gt = small_corpus
        scorer = affinity_scorer(gt)
        days = [max(s.day for s in ds.sessions)]
        weights, baseline = FusionWeights(1.0, 1.0, 2.0), FusionWeights(1.0, 1.0, 0.0)
        fusions = []
        monkeypatch.setattr(fusion, "fused_score",
                            lambda p, w, _f=fusion.fused_score: fusions.append(1) or _f(p, w))
        report = replay_eval(ds, gt, SMALL_GEN, scorer, weights, baseline, days,
                             n_seeds=3, base_seed=4)
        held_out = sum(1 for s in ds.sessions if s.day in days)
        assert len(fusions) == 2 * held_out
        for k in range(3):
            test = replay(ds, gt, SMALL_GEN, scorer, weights, days, seed=4 + k)
            base = replay(ds, gt, SMALL_GEN, scorer, baseline, days, seed=4 + k)
            for m in ("vv", "watch", "qa_watch", "lt_n"):
                assert report.per_seed[m][k] == getattr(test, m) - getattr(base, m), (k, m)

    def test_save_report(self, small_corpus, tmp_path):
        ds, gt = small_corpus
        scorer = affinity_scorer(gt)
        days = [max(s.day for s in ds.sessions)]
        report = replay_eval(ds, gt, SMALL_GEN, scorer,
                             FusionWeights(1.0, 1.0, 2.0),
                             FusionWeights(1.0, 1.0, 0.0),
                             days, n_seeds=2)
        path = tmp_path / "replay.txt"
        save_replay_report(path, report, meta="config=x seed=0")
        lines = path.read_text().splitlines()
        assert lines[0] == "#ltvrank-replay-report v1"
        assert any(line.startswith("qa_watch\t") for line in lines)


@pytest.mark.parametrize("seed", [100, 101, 102])
def test_replay_user_model_matches_log(seed):
    """Replay's user model, given the factors replay builds from the ground
    truth and run on every logged session in its logged order with no exit,
    draws the world the generator logged: its mean watch time and its
    carryover links per impression each differ from the log's by less than
    a 95 % bootstrap interval of the difference. The interval resamples the
    sessions of the two worlds independently."""
    cfg = GenConfig(n_users=800, n_videos=4000, n_authors=100, n_days=4, seed=seed)
    ds, gt = generate(cfg)
    n, watch, links, log_watch, log_links = (np.zeros(len(ds.sessions)) for _ in range(5))
    for k, sess in enumerate(ds.sessions):
        slate = fusion._slate(cfg, gt, sess, {}, set())
        zero_p, scale, related, _, _ = slate.shown(np.arange(len(sess)))
        rng = np.random.default_rng([seed, sess.session_id])
        _, contribs, drawn = synthgen.draw_watch(cfg, rng, zero_p, scale, related)
        n[k], watch[k], links[k] = len(sess), sum(drawn), sum(map(len, contribs))
        log_watch[k] = sess["watch_time"].sum()
        log_links[k] = sum(len(gt.contributions[(sess.session_id, i)][1])
                           for i in range(len(sess)))
    boot = np.random.default_rng(seed)
    a, b = (boot.integers(0, len(n), size=(1000, len(n)), dtype=np.int32) for _ in range(2))
    for name, ours, logged in (("watch", watch, log_watch), ("links", links, log_links)):
        diff = ours[a].sum(1) / n[a].sum(1) - logged[b].sum(1) / n[b].sum(1)
        lo, hi = np.quantile(diff, [0.025, 0.975])
        assert lo < 0.0 < hi, (name, ours.sum() / n.sum(), logged.sum() / n.sum(), lo, hi)
