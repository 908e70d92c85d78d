import dataclasses
import tracemalloc

import numpy as np
import pytest

from ltvrank import predictor
from ltvrank.pdq import PAGE_GROUPS
from ltvrank.predictor import (
    FEATURE_FIELDS,
    HEAD_SPECS,
    ID_COLUMNS,
    VOCAB,
    AdaptiveAccumulator,
    PredictorParams,
    StreamData,
    TrainConfig,
    TrainingDiverged,
    Workspace,
    _loss_grad,
    _train_step,
    _transform_grad,
    backward,
    encode_features,
    forward,
    gradient_check,
    hybrid_loss,
    load_params,
    mse_loss,
    predict,
    save_params,
    train,
    tweedie_loss,
)

import predictor_oracle
from conftest import make_session, random_session


def random_features(rng, n):
    cols = [rng.integers(0, VOCAB[f] + 1, size=n) for f in FEATURE_FIELDS]
    return np.column_stack(cols).astype(np.int64)


def raw_ids(records):
    """The ``ID_COLUMNS`` ids of each record, as ``encode_features`` takes them."""
    return np.array([[getattr(r, c) for c in ID_COLUMNS] for r in records],
                    dtype=np.int64).reshape(-1, len(ID_COLUMNS))


def encode_oracle(records):
    """Per-record ``encode_features``: a scan of ``PAGE_GROUPS`` and
    Python-int hashing."""
    rows = []
    for r in records:
        group = next(k for k, (lo, hi) in enumerate(PAGE_GROUPS)
                     if lo <= r.page_index and (hi is None or r.page_index < hi))
        ids = (r.user_id, r.video_id, r.author_id, r.category_id, group)
        rows.append([(int(i) * 2654435761) % VOCAB[f] for i, f in zip(ids, FEATURE_FIELDS)])
    return np.array(rows, dtype=np.int64).reshape(-1, len(FEATURE_FIELDS))


class TestEncodeFeatures:
    def test_shape_and_determinism(self):
        sess = make_session([1.0] * 6)
        f1 = encode_features(raw_ids(sess.records))
        f2 = encode_features(raw_ids(sess.records))
        assert f1.shape == (6, 5)
        np.testing.assert_array_equal(f1, f2)

    def test_indices_within_vocab(self):
        sess = make_session([1.0] * 8)
        feats = encode_features(raw_ids(sess.records))
        for i, f in enumerate(FEATURE_FIELDS):
            assert feats[:, i].max() <= VOCAB[f]

    def test_matches_per_record_oracle(self):
        rng = np.random.default_rng(5)
        records = [r for k in range(20)
                   for r in random_session(rng, int(rng.integers(1, 30)), session_id=k,
                                           user_id=int(rng.integers(0, 10**6))).records]
        np.testing.assert_array_equal(encode_features(raw_ids(records)),
                                      encode_oracle(records))

    def test_ids_above_2_32_hash_exactly(self):
        big = [2**32 + 7, 2**40 + 3, 2**62 + 11, 2**63 - 1]
        sess = make_session([1.0] * 4, user_id=big[3], videos=big, authors=big[::-1],
                            cats=[2**33, 2**34 + 1, 2**35 + 2, 2**36 + 3])
        np.testing.assert_array_equal(encode_features(raw_ids(sess.records)),
                                      encode_oracle(sess.records))

    def test_empty_input_has_five_columns(self):
        assert encode_features(np.zeros((0, 5), dtype=np.int64)).shape == (0, 5)

    def test_negative_page_rejected(self):
        sess = make_session([1.0] * 3)
        bad = sess.records[:2] + (dataclasses.replace(sess.records[2], page_index=-1),)
        with pytest.raises(ValueError, match="page_index must be >= 0"):
            encode_features(raw_ids(bad))


class TestForward:
    def test_zero_init_head_values(self):
        config = TrainConfig(seed=0)
        params = PredictorParams.init(config)
        for name in params.arrays:
            params.arrays[name][:] = 0.0
        feats = random_features(np.random.default_rng(0), 4)
        preds, _ = forward(params, feats)
        np.testing.assert_allclose(preds["pdq"], 0.5)          # squash(0)
        np.testing.assert_allclose(preds["watch"], 1.0)        # exp(0)
        np.testing.assert_allclose(preds["slide"], 0.0)        # identity(0)

    def test_determinism(self):
        params = PredictorParams.init(TrainConfig(seed=3))
        feats = random_features(np.random.default_rng(1), 16)
        p1, _ = forward(params, feats)
        p2, _ = forward(params, feats)
        for h in p1:
            np.testing.assert_array_equal(p1[h], p2[h])

    def test_head_ranges(self):
        params = PredictorParams.init(TrainConfig(seed=4))
        feats = random_features(np.random.default_rng(2), 64)
        preds, _ = forward(params, feats)
        assert np.all((preds["pdq"] > 0) & (preds["pdq"] < 1))
        assert np.all(preds["watch"] > 0)
        assert np.all(preds["attr"] > 0)

    @pytest.mark.parametrize("field, value", [("user", VOCAB["user"] + 1), ("video", -1)])
    def test_feature_id_outside_its_table_rejected(self, field, value):
        """An id past its own table raises instead of reading a row of the
        next table in the packed block."""
        params = PredictorParams.init(TrainConfig(seed=6))
        feats = random_features(np.random.default_rng(4), 8)
        feats[3, FEATURE_FIELDS.index(field)] = value
        with pytest.raises(IndexError):
            forward(params, feats)

    def test_predict_matches_forward_chunked(self):
        params = PredictorParams.init(TrainConfig(seed=5))
        feats = random_features(np.random.default_rng(3), 50)
        whole, _ = forward(params, feats)
        chunked = predict(params, feats, batch_size=7)
        for h in whole:
            # BLAS may block the matmuls differently per batch shape, so
            # agreement is to rounding, not bitwise
            np.testing.assert_allclose(whole[h], chunked[h],
                                       rtol=1e-12, atol=1e-12)


class TestLosses:
    def test_tweedie_zero_label(self):
        assert tweedie_loss(np.array([1.0]), np.array([0.0]), rho=1.5) == 2.0

    def test_tweedie_unit_label(self):
        assert tweedie_loss(np.array([1.0]), np.array([1.0]), rho=1.5) == 4.0

    def test_tweedie_rejects_nonpositive_mu(self):
        with pytest.raises(ValueError, match="mu > 0"):
            tweedie_loss(np.array([0.0]), np.array([1.0]))

    def test_tweedie_rejects_bad_rho(self):
        for rho in (1.0, 2.0, 0.5):
            with pytest.raises(ValueError, match="rho"):
                tweedie_loss(np.array([1.0]), np.array([1.0]), rho=rho)

    def test_mse_zero_on_match(self):
        x = np.array([1.0, 2.0, 3.0])
        assert mse_loss(x, x) == 0.0

    def test_hybrid_lambda_zero_is_mse(self):
        p = np.array([1.0, 2.0])
        y = np.array([0.5, 2.5])
        assert hybrid_loss(p, y, lam=0.0) == mse_loss(p, y)

    def test_hybrid_composed_oracle(self):
        # unit gap MSE (1.0) plus 0.1 times the zero-label Tweedie value (2.0)
        p = np.array([1.0])
        y = np.array([0.0])
        assert hybrid_loss(p, y, lam=0.1, rho=1.5) == pytest.approx(1.2)

    def test_hybrid_rejects_negative_lambda(self):
        with pytest.raises(ValueError, match="lam"):
            hybrid_loss(np.array([1.0]), np.array([1.0]), lam=-0.1)


class TestTrainConfig:
    def test_validate_bounds(self):
        with pytest.raises(ValueError, match="rho"):
            TrainConfig(rho=2.5).validate()
        with pytest.raises(ValueError, match="lam"):
            TrainConfig(lam=-1.0).validate()
        with pytest.raises(ValueError, match="batch_size"):
            TrainConfig(batch_size=0).validate()

    @pytest.mark.parametrize("setting, message", [
        ({"embedding_dim": 0}, "embedding_dim must be >= 1"),
        ({"learning_rate": -0.05}, "learning_rate must be finite and >= 0"),
        ({"learning_rate": float("inf")}, "learning_rate must be finite and >= 0"),
        ({"accumulator_decay": 1.5}, "accumulator_decay must be in"),
        ({"accumulator_decay": 0.0}, "accumulator_decay must be in"),
    ], ids=["embedding-dim", "negative-lr", "inf-lr", "decay-above-one", "decay-zero"])
    def test_validate_rejects_training_settings(self, setting, message):
        with pytest.raises(ValueError, match=message):
            TrainConfig(**setting).validate()
        TrainConfig(accumulator_decay=1.0).validate()


class TestTraining:
    def make_day(self, rng, n=256, heads=("slide",)):
        feats = random_features(rng, n)
        labels = {h: rng.gamma(1.0, 10.0, size=n) for h in heads}
        return StreamData(features=feats, labels=labels)

    def test_lr_zero_leaves_params_unchanged(self):
        rng = np.random.default_rng(0)
        cfg = TrainConfig(epochs=2, learning_rate=0.0, seed=1)
        init = PredictorParams.init(cfg, heads=("slide",))
        before = {k: v.copy() for k, v in init.arrays.items()}
        out, _ = train([(self.make_day(rng), None)], cfg, heads=("slide",),
                       params=init)
        for k in before:
            np.testing.assert_array_equal(before[k], out.arrays[k])

    def test_author_step_stop_gradient(self):
        rng = np.random.default_rng(1)
        cfg = TrainConfig(epochs=1, seed=2)
        init = PredictorParams.init(cfg, heads=("author",))
        before = {k: v.copy() for k, v in init.arrays.items()}
        delayed = StreamData(features=random_features(rng, 128),
                             labels={"author": rng.gamma(1.0, 10.0, size=128)})
        empty_std = StreamData(features=np.empty((0, 5), dtype=np.int64), labels={})
        out, _ = train([(empty_std, delayed)], cfg, heads=("author",), params=init)
        for k in before:
            if k.startswith("tower/author/"):
                assert not np.array_equal(before[k], out.arrays[k]), k
            else:
                np.testing.assert_array_equal(before[k], out.arrays[k])

    def test_toy_regression_loss_decreases(self):
        # labels are a deterministic function of one id column, so the
        # embeddings can memorize them and the loss must come down
        rng = np.random.default_rng(2)
        feats = random_features(rng, 512)
        labels = {"slide": (feats[:, 0] % 7).astype(float)}
        day = StreamData(features=feats, labels=labels)
        cfg = TrainConfig(epochs=5, seed=3, learning_rate=0.05)
        _, trace = train([(day, None)], cfg, heads=("slide",))
        losses = [row["slide"] for row in trace]
        assert losses[-1] < 0.6 * losses[0]

    def test_determinism(self):
        rng = np.random.default_rng(3)
        day = self.make_day(rng, n=300, heads=("slide", "watch"))
        cfg = TrainConfig(epochs=2, seed=4)
        p1, t1 = train([(day, None)], cfg, heads=("slide", "watch"))
        p2, t2 = train([(day, None)], cfg, heads=("slide", "watch"))
        assert t1 == t2
        for k in p1.arrays:
            np.testing.assert_array_equal(p1.arrays[k], p2.arrays[k])

    def test_divergence_names_head(self):
        rng = np.random.default_rng(4)
        feats = random_features(rng, 256)
        labels = {"slide": rng.gamma(1.0, 10.0, size=256)}
        day = StreamData(features=feats, labels=labels)
        cfg = TrainConfig(epochs=5, seed=5, learning_rate=1e40)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(TrainingDiverged, match="slide") as info:
            train([(day, None)], cfg, heads=("slide",))
        assert info.value.head == "slide"
        assert 0 <= info.value.epoch < cfg.epochs
        # 256 rows in one batch of 512: one optimizer step per epoch
        assert info.value.step == info.value.epoch
        assert f"at epoch {info.value.epoch}, optimizer step {info.value.step}" \
            in str(info.value)
        # the failing step's gradient norms name the failing head's tower
        # and the backbone
        assert sorted(info.value.grad_norms) == ["backbone", "slide"]
        assert "slide=" in str(info.value) and "backbone=" in str(info.value)


def dense_embedding_grads(params, cache, head_grads):
    """The embedding gradients of a shared step as whole tables: the
    backward pass down to the embedding inputs, then ``np.add.at`` into a
    zero table per field."""
    a = params.arrays
    features, x, z1, h1, z2, h2, head_cache = cache
    dh2 = np.zeros_like(h2)
    for head, dpred in head_grads.items():
        zt, ht, z, out = head_cache[head]
        dz = dpred * _transform_grad(z, out, HEAD_SPECS[head][0])
        dh2 += (np.outer(dz, a[f"tower/{head}/wo"]) * (zt > 0)) @ a[f"tower/{head}/W"].T
    dh1 = (dh2 * (z2 > 0)) @ a["backbone/W2"].T
    dx = (dh1 * (z1 > 0)) @ a["backbone/W1"].T
    d = a["emb/user"].shape[1]
    grads = {}
    for i, f in enumerate(FEATURE_FIELDS):
        g = np.zeros_like(a[f"emb/{f}"])
        np.add.at(g, features[:, i], dx[:, i * d:(i + 1) * d])
        grads[f"emb/{f}"] = g
    return grads


def dense_step(params, acc, grads, lr, decay, eps=1e-8):
    """The accumulator step on whole arrays."""
    for name, g in grads.items():
        acc[name] *= decay
        acc[name] += g * g
        params.arrays[name] -= lr * g / (np.sqrt(acc[name]) + eps)


def bits(arr):
    return arr.view(np.int64)


class TestRowSparseEmbeddings:
    def test_matches_dense_reference_bitwise(self):
        """Ten steps of row-sparse backward and accumulator updates leave
        params and accumulators bitwise equal to the dense reference; ids
        repeat within each batch and most rows are never touched."""
        rng = np.random.default_rng(21)
        heads = ("slide", "watch")
        cfg = TrainConfig(seed=8)
        sparse = PredictorParams.init(cfg, heads=heads)
        # an untouched row of -0.0 must keep its sign under the update
        sparse.arrays["emb/video"][VOCAB["video"]] = -0.0
        dense = PredictorParams(
            {k: v.copy() for k, v in sparse.arrays.items()}, heads, sparse.seed)
        opt = AdaptiveAccumulator(sparse, lr=0.05, decay=0.9)
        acc = {k: np.zeros_like(v) for k, v in dense.arrays.items()}
        for _ in range(10):
            feats = np.column_stack([rng.integers(0, min(40, VOCAB[f]), size=64)
                                     for f in FEATURE_FIELDS])
            labels = rng.gamma(1.0, 5.0, size=64)
            preds, cache = forward(sparse, feats, heads)
            grads = backward(sparse, cache, {h: _loss_grad("mse", preds[h], labels, 0.1, 1.5)
                                             for h in heads})
            for i, f in enumerate(FEATURE_FIELDS):
                np.testing.assert_array_equal(grads[f"emb/{f}"][0], np.unique(feats[:, i]))
            preds, cache = forward(dense, feats, heads)
            head_grads = {h: _loss_grad("mse", preds[h], labels, 0.1, 1.5) for h in heads}
            dgrads = backward(dense, cache, head_grads)
            dgrads.update(dense_embedding_grads(dense, cache, head_grads))
            opt.step(sparse, grads)
            dense_step(dense, acc, dgrads, lr=0.05, decay=0.9)
        for k in sparse.arrays:
            assert np.array_equal(bits(sparse.arrays[k]), bits(dense.arrays[k])), k
            assert np.array_equal(bits(opt.acc[k]), bits(acc[k])), k
        assert bits(sparse.arrays["emb/video"][VOCAB["video"]]).tolist() == \
            bits(np.full(cfg.embedding_dim, -0.0)).tolist()


def oracle_days(rng):
    """Three days of standard and delayed streams: the second day labels
    only two standard heads and has no delayed stream. No stream's length is
    a multiple of 64, so each ends in a short batch."""
    def feats(n):
        return np.column_stack([rng.integers(0, min(VOCAB[f], 300) + 1, size=n)
                                for f in FEATURE_FIELDS]).astype(np.int64)

    def labels(h, n):
        return rng.random(n) if h == "pdq" else rng.gamma(1.0, 5.0, size=n)

    days = []
    for n, nd, heads in ((150, 70, ("pdq", "slide", "attr", "watch")),
                         (90, 0, ("slide", "watch")),
                         (200, 130, ("pdq", "slide", "attr", "watch"))):
        std = StreamData(feats(n), {h: labels(h, n) for h in heads})
        delayed = StreamData(feats(nd), {"author": labels("author", nd)}) if nd else None
        days.append((std, delayed))
    return days


class TestPackedTrainingMatchesOracle:
    @pytest.mark.parametrize("batch_size", [64, 512])
    def test_params_accumulators_and_trace_bitwise(self, monkeypatch, batch_size):
        """``train`` on the packed buffers gives the per-array oracle's
        params, accumulators and loss trace bit for bit, with mse and hybrid
        (attr, author, watch) losses, a head subset that must not decay the
        towers it skips, and short last batches."""
        opts = []

        class Recording(AdaptiveAccumulator):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                opts.append(self)

        monkeypatch.setattr(predictor, "AdaptiveAccumulator", Recording)
        days = oracle_days(np.random.default_rng(31))
        heads = ("pdq", "slide", "attr", "author", "watch")
        cfg = TrainConfig(batch_size=batch_size, epochs=3, seed=4)
        params, trace = train(days, cfg, heads=heads)
        arrays, opt, oracle_trace = predictor_oracle.train(days, cfg, heads)
        assert trace == oracle_trace
        assert opts[0].steps == opt.steps
        assert sorted(params.arrays) == sorted(arrays)
        for k in arrays:
            assert np.array_equal(bits(params.arrays[k]), bits(arrays[k])), k
            assert np.array_equal(bits(opts[0].acc[k]), bits(opt.acc[k])), k

    def test_init_is_the_oracle_draw(self):
        cfg = TrainConfig(seed=17)
        params = PredictorParams.init(cfg)
        arrays = predictor_oracle.init_arrays(cfg, tuple(HEAD_SPECS))
        assert sorted(params.arrays) == sorted(arrays)
        for k in arrays:
            assert np.array_equal(bits(params.arrays[k]), bits(arrays[k])), k

    def test_arrays_are_views_of_the_packed_buffers(self):
        params = PredictorParams.init(TrainConfig(seed=2))
        for name, arr in params.arrays.items():
            assert np.shares_memory(arr, params.emb if name.startswith("emb/") else params.dense)
        # the author tower ends the dense buffer, so an author-only step
        # updates one slice and a standard step the one before it
        lo, hi = params.blocks["author"]
        assert hi == params.dense.size
        assert max(end for name, (_, end) in params.blocks.items() if name != "author") == lo

    def test_warm_step_allocates_little(self):
        """After one warm-up step, a 512-row step with the six standard heads
        allocates less than 1.5 MiB at its peak: the batch-sized
        intermediates live in the workspace."""
        rng = np.random.default_rng(3)
        heads = ("pdq", "slide", "attr", "watch", "completion", "interaction")
        data = StreamData(random_features(rng, 512), {h: rng.random(512) for h in heads})
        cfg = TrainConfig()
        params = PredictorParams.init(cfg, heads=heads)
        opt = AdaptiveAccumulator(params, cfg.learning_rate, cfg.accumulator_decay)
        work = Workspace(512)
        sums, counts = dict.fromkeys(heads, 0.0), dict.fromkeys(heads, 0)
        idx = np.arange(512)
        _train_step(params, opt, work, data, idx, heads, cfg, True, sums, counts, 0)
        tracemalloc.start()
        try:
            _train_step(params, opt, work, data, idx, heads, cfg, True, sums, counts, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20, peak


class TestGradientCheck:
    @pytest.mark.parametrize("head,loss", [
        ("slide", "mse"), ("watch", "tweedie"), ("attr", "hybrid"),
        ("pdq", "mse"), ("completion", "mse"),
    ])
    def test_all_losses(self, head, loss):
        rng = np.random.default_rng(7)
        params = PredictorParams.init(TrainConfig(seed=7), heads=(head,))
        feats = random_features(rng, 32)
        if head in ("pdq", "completion"):
            labels = rng.random(32)
        else:
            labels = rng.gamma(1.0, 5.0, size=32)
        err = gradient_check(params, head, loss, feats, labels,
                             n_probes=25, seed=11)
        assert err < 1e-4


class TestPersistence:
    def test_round_trip_bitwise(self, tmp_path):
        params = PredictorParams.init(TrainConfig(seed=9))
        path = tmp_path / "params.txt"
        save_params(path, params, meta="config=x seed=9")
        back = load_params(path)
        assert back.heads == params.heads
        assert sorted(back.arrays) == sorted(params.arrays)
        for k in params.arrays:
            np.testing.assert_array_equal(params.arrays[k], back.arrays[k])

    def test_trained_round_trip_bitwise(self, tmp_path):
        """Trained params survive the row-sparse artifact bit for bit, and
        it lists only rows that some training id hashes to."""
        rng = np.random.default_rng(12)
        feats = random_features(rng, 300)
        day = StreamData(features=feats, labels={"slide": rng.gamma(1.0, 10.0, size=300),
                                                 "watch": rng.gamma(1.0, 10.0, size=300)})
        params, _ = train([(day, None)], TrainConfig(epochs=2, seed=13),
                          heads=("slide", "watch"))
        path = tmp_path / "params.txt"
        save_params(path, params)
        back = load_params(path)
        assert back.heads == params.heads and back.seed == params.seed == 13
        assert sorted(back.arrays) == sorted(params.arrays)
        for k in params.arrays:
            assert np.array_equal(bits(params.arrays[k]), bits(back.arrays[k])), k
        written = {line.split("\t")[1]: line.split("\t")[2]
                   for line in path.read_text().splitlines() if line.startswith("E\t")}
        for i, f in enumerate(FEATURE_FIELDS):
            rows = {int(r) for r in written[f"emb/{f}"].split(",")}
            assert rows and rows <= set(feats[:, i].tolist()), f

    def test_bad_header(self, tmp_path):
        path = tmp_path / "params.txt"
        path.write_text("#nope\n")
        with pytest.raises(ValueError, match="bad header"):
            load_params(path)
