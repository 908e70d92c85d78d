"""Acceptance suite: the twelve release criteria.

Each test is numbered; the suite is property-based and directional where
desk-scale data cannot reproduce production magnitudes, and exact wherever
the math permits.
"""

import time

import numpy as np
import pytest

from ltvrank.attribution import (
    AttributionConfig,
    attributed_slide_time,
    pair_flags,
    session_attributed_slide_times,
    session_flag_matrices,
)
from ltvrank.author_ltv import (
    aggregate_author_days,
    audit_no_leakage,
    author_ltv_label,
    plan_dual_stream,
)
from ltvrank.config import load_config
from ltvrank.datamodel import session_slide_times
from ltvrank.fusion import FusionWeights, replay_eval
from ltvrank.metrics import pcoc, xauc, xauc_grouped, xauc_pair_counts
from ltvrank.pdq import (
    build_pdq_labels,
    fit_quantile_table,
    fit_tables,
    page_groups,
    quantile_label,
    quantile_labels,
)
from ltvrank.pipeline import STAGES, make_scorer, run_stages
from ltvrank.predictor import (
    FEATURE_FIELDS,
    ID_COLUMNS,
    VOCAB,
    PredictorParams,
    StreamData,
    TrainConfig,
    encode_features,
    gradient_check,
    load_params,
    predict,
    train,
)
from ltvrank.synthgen import GenConfig, generate, load_ground_truth
from ltvrank import datamodel

from conftest import random_session

N_SEEDS = 5


def _acc_gen(seed):
    return GenConfig(n_users=800, n_videos=4000, n_authors=100,
                     n_days=6, seed=100 + seed)


@pytest.fixture(scope="module")
def corpora():
    """Five generator corpora with position bias and planted causal links."""
    return [generate(_acc_gen(s)) for s in range(N_SEEDS)]


@pytest.fixture(scope="module")
def debias_models(corpora):
    """Per seed: within-group XAUCs and test MSEs of a PDQ-label model
    versus a raw slide-time model.

    Page index is deliberately withheld from the features (a ranker cannot
    condition on a position it has not served yet), so any debiasing must
    come from the labels.
    """
    results = []
    for s, (ds, _) in enumerate(corpora):
        slide = np.concatenate([session_slide_times(sess) for sess in ds.sessions])
        page_group = page_groups(ds.columns["page_index"])
        pdq_labels = build_pdq_labels(slide, page_group, fit_tables(slide, page_group))

        test_day = max(sess.day for sess in ds.sessions)
        test = ds.columns["day"] == test_day
        # every row on page 0, so in one page group: the features hold no position
        ids = np.column_stack([ds.columns[c] for c in ID_COLUMNS[:-1]]
                              + [np.zeros(ds.n_records(), dtype=np.int64)])
        tr_slide, tr_pdq = slide[~test], pdq_labels[~test]
        test_slide, test_pdq = slide[test], pdq_labels[test]

        feats_tr = encode_features(ids[~test])
        cfg = TrainConfig(epochs=3, seed=s)
        pdq_params, _ = train(
            [(StreamData(feats_tr, {"pdq": tr_pdq}), None)],
            cfg, heads=("pdq",))
        slide_params, _ = train(
            [(StreamData(feats_tr, {"slide": tr_slide}), None)],
            cfg, heads=("slide",))

        feats_test = encode_features(ids[test])
        pdq_pred = predict(pdq_params, feats_test)["pdq"]
        slide_pred = predict(slide_params, feats_test)["slide"]
        groups = page_group[test]
        results.append({
            "xauc_pdq": xauc_grouped(pdq_pred, test_slide, groups),
            "xauc_slide": xauc_grouped(slide_pred, test_slide, groups),
            "mse_pdq": float(np.mean((pdq_pred - test_pdq) ** 2)),
            "mse_slide": float(np.mean((slide_pred - test_slide) ** 2)),
        })
    return results


def test_criterion_01_pdq_label_matches_cdf_oracle():
    start = time.monotonic()
    T = 50
    rng = np.random.default_rng(0)
    for group in range(7):
        n = 10000
        zero_mass = 0.1 + 0.05 * group
        raw = np.where(rng.random(n) < zero_mass, 0.0,
                       rng.gamma(0.9, 6.0 * (1 + group), size=n))
        table = fit_quantile_table(raw, T=T)
        order = np.sort(raw)
        probes = np.concatenate([raw[:2000], rng.uniform(0, raw.max(), 500)])
        labels = quantile_labels(probes, table)
        for s, lab in zip(probes, labels):
            side = "right" if s == 0.0 else "left"
            ecdf = np.searchsorted(order, s, side=side) / n
            assert abs(lab - ecdf) <= 1.0 / T
            assert lab == quantile_label(float(s), table)
        sorted_probes = np.sort(probes)
        assert np.all(np.diff(quantile_labels(sorted_probes, table)) >= 0)
    assert time.monotonic() - start < 10.0


def test_criterion_02_pdq_beats_raw_mse_within_groups(debias_models):
    deltas = {}
    for res in debias_models:
        for g in res["xauc_pdq"]:
            if g == 0:
                continue  # page 0 has no upstream positions to debias
            xp, _ = res["xauc_pdq"][g]
            xs, _ = res["xauc_slide"][g]
            if xp is None or xs is None:
                continue
            deltas.setdefault(g, []).append(xp - xs)
    assert sorted(deltas) == [1, 2, 3, 4, 5, 6]
    for g, vals in deltas.items():
        assert len(vals) == N_SEEDS
        assert float(np.mean(vals)) >= 0.01, f"group {g}: {np.mean(vals):.4f}"


def test_criterion_03_bounded_label_stability(debias_models):
    res = debias_models[0]
    assert res["mse_pdq"] < 0.1
    assert res["mse_slide"] >= 10.0 * res["mse_pdq"]


def test_criterion_04_attribution_matches_exhaustive_oracle():
    cfg = AttributionConfig()
    rng = np.random.default_rng(17)
    for trial in range(1000):
        n = int(rng.integers(2, 13))
        sess = random_session(rng, n, session_id=trial)
        mats = session_flag_matrices(sess, cfg)
        for j in range(n):
            for i in range(j + 1, n):
                expect = pair_flags(sess, j, i, cfg)
                for d, m in mats.items():
                    assert int(m[j, i]) == expect[d], (trial, j, i, d)
        fast = session_attributed_slide_times(sess, cfg)
        for j in range(n):
            assert fast[j] == attributed_slide_time(sess, j, cfg), (trial, j)


def test_criterion_05_attribution_correlates_with_planted_cause(corpora):
    cfg = AttributionConfig()
    deltas = []
    for ds, gt in corpora:
        raw, att, planted = [], [], []
        for sess in ds.sessions:
            raw.append(session_slide_times(sess))
            att.append(session_attributed_slide_times(sess, cfg))
            planted.append(gt.planted_outgoing(sess))
        raw = np.concatenate(raw)
        att = np.concatenate(att)
        planted = np.concatenate(planted)
        deltas.append(np.corrcoef(att, planted)[0, 1]
                      - np.corrcoef(raw, planted)[0, 1])
    assert float(np.mean(deltas)) >= 0.05, deltas


def test_criterion_06_hybrid_loss_improves_calibration():
    vocab = tuple(VOCAB[f] for f in FEATURE_FIELDS)
    wins = 0
    for seed in range(1000, 1000 + N_SEEDS):
        rng = np.random.default_rng(seed)
        n = 28000
        X = np.column_stack([rng.integers(0, v, size=n) for v in vocab])
        eff = [rng.normal(size=v) * 0.05 for v in vocab]
        mu = 0.05 * np.exp(sum(eff[i][X[:, i]] for i in range(len(vocab))))
        shape = 1.0
        y = np.where(rng.random(n) < 0.9, 0.0,
                     rng.gamma(shape, mu / (shape * 0.1)))
        tr, te = slice(0, 20000), slice(20000, n)
        day = [(StreamData(features=X[tr], labels={"watch": y[tr]}), None)]
        preds = {}
        # lam=0 drops the hybrid loss's Tweedie term, leaving MSE
        for name, extra in (("hybrid", {}), ("mse", {"lam": 0.0})):
            cfg = TrainConfig(epochs=3, learning_rate=0.005, seed=seed, **extra)
            params, _ = train(day, cfg, heads=("watch",))
            preds[name] = predict(params, X[te])["watch"]
        gap_hybrid = abs(pcoc(preds["hybrid"], y[te]) - 1.0)
        gap_mse = abs(pcoc(preds["mse"], y[te]) - 1.0)
        wins += int(gap_hybrid < gap_mse)
    assert wins >= (N_SEEDS // 2) + 1, f"hybrid closer on {wins}/{N_SEEDS} seeds"


def test_criterion_07_author_label_matches_brute_force():
    ds, _ = generate(GenConfig(n_users=200, n_videos=800, n_authors=30,
                               n_categories=8, n_days=6, seed=3))
    agg = aggregate_author_days(ds)
    N, alpha = 4, 0.8
    max_day = max(s.day for s in ds.sessions)

    # independent day sums, accumulated in dataset order
    brute: dict[tuple[int, int, int], float] = {}
    for sess in ds.sessions:
        for r in sess.records:
            key = (sess.user_id, r.author_id, sess.day)
            brute[key] = brute.get(key, 0.0) + r.watch_time

    pairs = sorted({(u, a) for (u, a, _) in agg})
    for user, author in pairs:
        for t in range(max_day + 1):
            expect = 0.0
            for d in range(t - N + 1, t + 1):
                if (user, author, d) in brute:
                    expect += (alpha ** (t - d)) * brute[(user, author, d)]
            assert author_ltv_label(agg, user, author, t, N, alpha) == expect
            # degenerate cases: N=1 is the day itself, alpha=1 a plain sum
            assert author_ltv_label(agg, user, author, t, 1, alpha) == \
                brute.get((user, author, t), 0.0)
            plain = sum(brute.get((user, author, d), 0.0)
                        for d in range(t - N + 1, t + 1))
            assert author_ltv_label(agg, user, author, t, N, 1.0) == \
                pytest.approx(plain, rel=1e-12, abs=1e-12)


def test_criterion_08_dual_stream_hygiene(corpora):
    ds, _ = corpora[0]
    agg = aggregate_author_days(ds)
    N = 4
    max_day = max(s.day for s in ds.sessions)
    for t in range(N, max_day + 1):
        plan = plan_dual_stream(ds, t, N=N, aggregates=agg)
        assert len(plan.delayed)
        assert audit_no_leakage(plan, ds, N=N, alpha=0.8) == []

    # author-only steps must not touch the shared trunk
    rng = np.random.default_rng(8)
    feats = np.column_stack([rng.integers(0, VOCAB[f] + 1, size=256)
                             for f in FEATURE_FIELDS]).astype(np.int64)
    cfg = TrainConfig(epochs=2, seed=8)
    init = PredictorParams.init(cfg, heads=("author",))
    before = {k: v.copy() for k, v in init.arrays.items()}
    delayed = StreamData(features=feats,
                         labels={"author": rng.gamma(1.0, 10.0, size=256)})
    empty = StreamData(features=np.empty((0, 5), dtype=np.int64), labels={})
    out, _ = train([(empty, delayed)], cfg, heads=("author",), params=init)
    for k in before:
        if not k.startswith("tower/author/"):
            np.testing.assert_array_equal(before[k], out.arrays[k], err_msg=k)


@pytest.mark.parametrize("head,loss", [
    ("slide", "mse"), ("watch", "tweedie"), ("attr", "hybrid"),
])
def test_criterion_09_gradient_checks(head, loss):
    rng = np.random.default_rng(9)
    params = PredictorParams.init(TrainConfig(seed=9), heads=(head,))
    feats = np.column_stack([rng.integers(0, VOCAB[f] + 1, size=48)
                             for f in FEATURE_FIELDS]).astype(np.int64)
    labels = rng.gamma(1.0, 5.0, size=48)
    err = gradient_check(params, head, loss, feats, labels,
                         n_probes=100, seed=19)
    assert err < 1e-4


def test_criterion_10_metric_identities():
    rng = np.random.default_rng(10)
    n = 2000
    preds = rng.integers(0, 40, size=n).astype(float)
    labels = rng.integers(0, 25, size=n).astype(float)
    # vectorized exhaustive double loop
    li, lj = labels[:, None], labels[None, :]
    pi, pj = preds[:, None], preds[None, :]
    ordered = li < lj
    denom = int(ordered.sum())
    concordant = int((ordered & (pi < pj)).sum())
    assert xauc_pair_counts(preds, labels) == (concordant, denom)

    smooth = rng.random(n)
    assert xauc(smooth, labels) + xauc(-smooth, labels) == pytest.approx(1.0)
    assert xauc(np.exp(5 * smooth), labels) == xauc(smooth, labels)

    big = rng.random(10000)
    noise = rng.random(10000)
    assert abs(xauc(big, noise) - 0.5) < 0.02

    p = rng.random(500) + 0.1
    y = rng.random(500) + 0.1
    assert pcoc(2.0 * p, y) == 2.0 * pcoc(p, y)  # binary scaling is exact


def test_criterion_11_author_weight_lifts_qa_watch(tmp_path):
    overrides = {
        "seed": "7", "author.window_n": "4", "train.epochs": "15",
        "train.learning_rate": "0.05", "train.test_days": "2",
        "gen.n_users": "1000", "gen.n_videos": "5000",
        "gen.n_authors": "100", "gen.n_days": "8",
    }
    cfg = load_config(overrides=overrides)
    run_stages(("gen", "labels", "train"), cfg, tmp_path)
    ds = datamodel.load_dataset(tmp_path / "dataset.txt")
    gt = load_ground_truth(tmp_path / "groundtruth.txt")
    params = load_params(tmp_path / "params.txt")
    report = replay_eval(
        ds, gt, cfg.gen_config(), make_scorer(params),
        FusionWeights(1.0, 1.0, w_author=2.0),
        FusionWeights(1.0, 1.0, w_author=0.0),
        holdout_days=[6, 7], n_seeds=20, base_seed=0)
    wins = sum(1 for d in report.per_seed["qa_watch"] if d > 0)
    assert wins >= 15, f"qa_watch improved on {wins}/20 seeds"


def test_criterion_12_end_to_end_deterministic(tmp_path):
    cfg = load_config()
    dirs = [tmp_path / "run_a", tmp_path / "run_b"]
    for d in dirs:
        start = time.monotonic()
        statuses = run_stages(STAGES, cfg, d)
        assert statuses == {s: "ok" for s in STAGES}
        assert time.monotonic() - start < 15 * 60
    for name in ("dataset.txt", "videos.txt", "groundtruth.txt", "tables.txt", "labeled.txt",
                 "aggregates.txt", "diagnostics.txt", "params.txt",
                 "loss_trace.txt", "metrics.txt", "replay.txt", "report.txt"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name
