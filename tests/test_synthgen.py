import numpy as np
import pytest

from ltvrank.datamodel import session_slide_times, validate_session
from ltvrank.synthgen import (
    GenConfig,
    draw_from_cdf,
    draw_watch,
    empirical_zero_fraction,
    generate,
    load_ground_truth,
    save_ground_truth,
)

from conftest import SMALL_GEN, as_dataset, make_session


@pytest.fixture(scope="module")
def medium_corpus():
    """Enough sessions for the distributional checks to be stable."""
    cfg = GenConfig(n_users=2500, n_videos=8000, n_authors=150,
                    n_categories=20, n_days=8, seed=5)
    return cfg, generate(cfg)


class TestConfigValidation:
    def test_defaults_valid(self):
        GenConfig().validate()

    @pytest.mark.parametrize("field,value", [
        ("n_users", 0), ("n_days", 0), ("embedding_dim", 0),
        ("zero_watch_prob", 1.5), ("session_prob", -0.1),
        ("watch_gamma_scale", 0.0), ("carryover_scale", -1.0),
        ("position_bias_strength", -0.5), ("promotion_noise", -0.1),
    ])
    def test_bad_field_rejected(self, field, value):
        cfg = GenConfig(**{field: value})
        with pytest.raises(ValueError, match=field):
            cfg.validate()


class TestStructure:
    def test_sessions_are_valid(self, small_corpus):
        ds, _ = small_corpus
        for sess in ds.sessions:
            assert validate_session(sess) == []

    def test_same_seed_identical(self):
        cfg = GenConfig(n_users=30, n_videos=200, n_authors=10,
                        n_categories=5, n_days=3, seed=42)
        ds1, _ = generate(cfg)
        ds2, _ = generate(cfg)
        assert ds1 == ds2

    def test_different_seed_differs(self):
        base = dict(n_users=30, n_videos=200, n_authors=10,
                    n_categories=5, n_days=3)
        ds1, _ = generate(GenConfig(seed=1, **base))
        ds2, _ = generate(GenConfig(seed=2, **base))
        assert ds1 != ds2

    def test_session_ids_unique_and_sorted(self, small_corpus):
        ds, _ = small_corpus
        sids = [s.session_id for s in ds.sessions]
        assert sids == sorted(sids)
        assert len(set(sids)) == len(sids)


class TestPositionBias:
    def test_no_bias_flat_watch_profile(self):
        # with the activity coupling and the carryover channel both off,
        # per-page mean watch time has no reason to drift with depth
        cfg = GenConfig(n_users=2500, n_videos=8000, n_authors=150,
                        n_categories=20, n_days=8, seed=5,
                        position_bias_strength=0.0,
                        category_carryover_strength=0.0)
        ds, _ = generate(cfg)
        sums, counts = {}, {}
        for sess in ds.sessions:
            for r in sess.records:
                sums[r.page_index] = sums.get(r.page_index, 0.0) + r.watch_time
                counts[r.page_index] = counts.get(r.page_index, 0) + 1
        means = [sums[p] / counts[p] for p in counts if counts[p] >= 2000]
        assert len(means) >= 4
        assert max(means) / min(means) < 1.2

    def test_bias_on_deep_pages_slide_longer(self, medium_corpus):
        _, (ds, _) = medium_corpus
        deep_sum = deep_n = shallow_sum = shallow_n = 0
        for sess in ds.sessions:
            st = session_slide_times(sess)
            for r, s in zip(sess.records, st):
                if 16 <= r.page_index < 30:
                    deep_sum += s
                    deep_n += 1
                elif 1 <= r.page_index < 3:
                    shallow_sum += s
                    shallow_n += 1
        assert deep_n > 100
        assert deep_sum / deep_n > shallow_sum / shallow_n


class TestZeroFraction:
    def test_all_zero_group(self):
        ds = as_dataset(make_session([0.0, 0.0, 0.0, 0.0]))
        assert empirical_zero_fraction(ds, (0, 1), "watch_time") == 1.0

    def test_no_zero_group(self):
        ds = as_dataset(make_session([5.0, 5.0, 5.0, 5.0]))
        assert empirical_zero_fraction(ds, (0, 1), "watch_time") == 0.0

    def test_matches_configured_zero_mass(self, medium_corpus):
        cfg, (ds, _) = medium_corpus
        frac = empirical_zero_fraction(ds, (0, 1), "watch_time")
        # preferred-author impressions halve the zero probability, so the
        # observed mass sits slightly below the configured one
        assert abs(frac - cfg.zero_watch_prob) <= 0.05

    def test_unknown_field_rejected(self, small_dataset):
        with pytest.raises(ValueError, match="field"):
            empirical_zero_fraction(small_dataset, (0, 1), "clicks")

    def test_empty_range_rejected(self, small_dataset):
        with pytest.raises(ValueError, match="page range"):
            empirical_zero_fraction(small_dataset, (1000, None))


class TestGroundTruth:
    def test_watch_reconstruction_exact(self, small_corpus):
        ds, gt = small_corpus
        for sess in ds.sessions:
            for i, r in enumerate(sess.records):
                assert gt.reconstruct_watch(sess, i) == r.watch_time

    def test_planted_outgoing_conserves_mass(self, small_corpus):
        ds, gt = small_corpus
        for sess in ds.sessions[:200]:
            out = gt.planted_outgoing(sess)
            planted = sum(v for i in range(len(sess.records))
                          for _, v in gt.contributions[(sess.session_id, i)][1])
            assert out.sum() == pytest.approx(planted)
            assert out[-1] == 0.0  # the last impression has no successors

    def test_affinity_raises_watch(self, medium_corpus):
        _, (ds, gt) = medium_corpus
        pref, other = [], []
        for sess in ds.sessions:
            for r in sess.records:
                (pref if gt.affinity(r.user_id, r.author_id) > 0
                 else other).append(r.watch_time)
        assert np.mean(pref) > np.mean(other)

    def test_promotion_shapes_placement(self, medium_corpus):
        _, (ds, gt) = medium_corpus
        early, late = [], []
        for sess in ds.sessions:
            n = len(sess.records)
            if n < 8:
                continue
            for i, r in enumerate(sess.records):
                (early if i < n // 2 else late).append(
                    np.log(gt.video_promotion[r.video_id]))
        assert np.mean(early) > np.mean(late) + 0.2

    def test_round_trip(self, small_corpus, tmp_path):
        _, gt = small_corpus
        path = tmp_path / "gt.txt"
        save_ground_truth(path, gt, meta="config=x seed=0")
        back = load_ground_truth(path)
        np.testing.assert_array_equal(gt.user_activity, back.user_activity)
        np.testing.assert_array_equal(gt.video_author, back.video_author)
        np.testing.assert_array_equal(gt.video_quality, back.video_quality)
        np.testing.assert_array_equal(gt.video_promotion, back.video_promotion)
        np.testing.assert_array_equal(gt.author_quality, back.author_quality)
        assert gt.user_affinity == back.user_affinity
        assert gt.contributions == back.contributions

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "gt.txt"
        path.write_text("#wrong\n")
        with pytest.raises(ValueError, match="bad header"):
            load_ground_truth(path)


@pytest.mark.parametrize("seed", range(10))
def test_cdf_draw_matches_generator_choice(seed):
    """``draw_from_cdf`` draws ``Generator.choice``'s indices and leaves the
    stream in the state ``choice`` leaves it, so a numpy whose ``choice``
    draws otherwise shows here rather than as a changed log."""
    rng = np.random.default_rng(seed)
    p = rng.lognormal(size=int(rng.integers(1, 3000)))
    p /= p.sum()
    cdf = p.cumsum()
    cdf /= cdf[-1]
    for n in (0, 1, 2, 17, 1000):
        ours, numpy_ = np.random.default_rng([seed, n]), np.random.default_rng([seed, n])
        assert np.array_equal(draw_from_cdf(ours, cdf, n), numpy_.choice(len(p), size=n, p=p))
        assert ours.bit_generator.state == numpy_.bit_generator.state


def _kernel_inputs(n, seed):
    """Per-row zero-watch chances and scales, and every pair related."""
    rng = np.random.default_rng([seed, n])
    return rng.uniform(0.1, 0.5, size=n), rng.lognormal(size=n), [[True] * n] * n


class TestDrawWatch:
    @pytest.mark.parametrize("off", [{"category_carryover_strength": 0.0},
                                     {"carryover_window": 0}], ids=["strength", "window"])
    def test_no_carryover_draws_no_exponential(self, off):
        """With carryover off the kernel draws ``random(n)`` and ``gamma(n)``
        and nothing else, and each watch time is its base."""
        cfg = GenConfig(**off)
        zero_p, scale, related = _kernel_inputs(40, 1)
        rng, twin = np.random.default_rng(3), np.random.default_rng(3)
        base, contribs, watch = draw_watch(cfg, rng, zero_p, scale, related)
        twin.random(40)
        twin.gamma(cfg.watch_gamma_shape, cfg.watch_gamma_scale, size=40)
        assert rng.bit_generator.state == twin.bit_generator.state
        assert watch == base and contribs == [[]] * 40
        assert 0 < sum(w > 0 for w in watch) < 40

    def test_carryover_adds_one_draw_per_link(self):
        cfg = GenConfig()
        zero_p, scale, related = _kernel_inputs(40, 1)
        rng, twin = np.random.default_rng(3), np.random.default_rng(3)
        base, contribs, watch = draw_watch(cfg, rng, zero_p, scale, related)
        twin.random(40)
        twin.gamma(cfg.watch_gamma_shape, cfg.watch_gamma_scale, size=40)
        links = sum(map(len, contribs))
        assert links > 0
        twin.exponential(size=links)
        assert rng.bit_generator.state == twin.bit_generator.state
        for i, row in enumerate(contribs):
            assert all(0 < gap <= min(i, cfg.carryover_window) and base[i - gap] > 0
                       for gap, _ in row)
            assert not row or base[i] > 0

    @pytest.mark.parametrize("seed", range(5))
    def test_exit_returns_nonempty_prefix(self, seed):
        """With an exit the kernel returns the first rows up to the one the
        user left after; their bases are those drawn without an exit."""
        cfg = GenConfig()
        zero_p, scale, related = _kernel_inputs(60, seed)
        full, _, _ = draw_watch(cfg, np.random.default_rng(seed), zero_p, scale, related)
        base, contribs, watch = draw_watch(cfg, np.random.default_rng(seed), zero_p, scale,
                                           related, stay=(0.8, 0.9))
        assert 1 <= len(base) < 60 and len(contribs) == len(watch) == len(base)
        assert base == full[:len(base)]
        for stay, n in (((0.0, 0.0), 1), ((1.0, 1.0), 60)):
            shown, _, _ = draw_watch(cfg, np.random.default_rng(seed), zero_p, scale,
                                     related, stay=stay)
            assert shown == full[:n]
