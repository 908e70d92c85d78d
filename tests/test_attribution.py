import numpy as np
import pytest

from ltvrank.attribution import (
    FLAG_NAMES,
    AttributionConfig,
    attributed_slide_time,
    pair_flags,
    session_attributed_slide_times,
    session_flag_matrices,
    table1_diagnostics,
)
from ltvrank.datamodel import compute_slide_time

from conftest import DEFAULT_DIM, as_dataset, make_session, random_session, unit_embedding


CFG = AttributionConfig()


def brute_force_attributed(session, j, config, Q=300.0):
    """Independent double-loop oracle for Eq.-style attributed slide time."""
    total = 0.0
    for i in range(j + 1, len(session.records)):
        flags = {}
        rj, ri = session.records[j], session.records[i]
        flags["pos"] = int(i - j <= config.adjacency_window)
        col = 0
        for m in range(j + 1, min(len(session.records), j + config.adjacency_window + 1)):
            if m != i and ri.collection_id is not None \
                    and session.records[m].collection_id == ri.collection_id:
                col = 1
        flags["col"] = col
        flags["rec"] = int(rj.retrieval_source_id == ri.retrieval_source_id)
        v2v = 0
        for vid, score in rj.v2v_neighbors:
            if vid == ri.video_id and score > config.v2v_threshold:
                v2v = 1
        for vid, score in ri.v2v_neighbors:
            if vid == rj.video_id and score > config.v2v_threshold:
                v2v = 1
        flags["v2v"] = v2v
        cos = float(np.dot(rj.content_embedding, ri.content_embedding))
        flags["mm"] = int(cos > config.mm_threshold)
        flags["auth"] = int(rj.author_id == ri.author_id)
        flags["cat"] = int(rj.category_id == ri.category_id)
        c = 1.0 if sum(flags.values()) > 0 else 0.0
        total += c * ri.watch_time
    return min(total, Q)


class TestPairFlags:
    def test_adjacent_same_author(self):
        sess = make_session([1.0, 1.0], authors=[7, 7])
        flags = pair_flags(sess, 0, 1, CFG)
        assert flags["pos"] == 1 and flags["auth"] == 1

    def test_distant_unrelated_pair_all_zero(self):
        sess = make_session([1.0] * 9)
        flags = pair_flags(sess, 0, 8, CFG)
        assert all(v == 0 for v in flags.values())

    def test_mm_threshold(self):
        e0 = (1.0, 0.0, 0.0, 0.0)
        for cos, expect in ((0.95, 1), (0.85, 0)):
            e1 = (cos, float(np.sqrt(1 - cos ** 2)), 0.0, 0.0)
            sess = make_session([1.0, 1.0], embeddings=[e0, e1])
            assert pair_flags(sess, 0, 1, CFG)["mm"] == expect

    def test_collection_rides_on_window(self):
        # record 2 shares collection 9 with record 1 inside record 0's window
        sess = make_session([1.0, 1.0, 1.0], collections=[None, 9, 9])
        assert pair_flags(sess, 0, 2, CFG)["col"] == 1
        # but not when the shared-collection partner sits outside the window
        far = make_session([1.0] * 10,
                           collections=[None] * 8 + [9, 9])
        assert pair_flags(far, 0, 9, CFG)["col"] == 0

    def test_requires_ordered_pair(self):
        sess = make_session([1.0, 1.0])
        with pytest.raises(ValueError):
            pair_flags(sess, 1, 1, CFG)


class TestCombineStrength:
    """A pair's strength is 1 when any of its flags is set, else 0: j is
    credited with all of i's watch time or with none of it."""

    def test_binary_zero(self):
        sess = make_session([1.0, 10.0, 20.0])
        cfg = AttributionConfig(adjacency_window=0)
        assert not any(pair_flags(sess, 0, 1, cfg).values())
        assert not any(pair_flags(sess, 0, 2, cfg).values())
        assert attributed_slide_time(sess, 0, cfg) == 0.0
        assert session_attributed_slide_times(sess, cfg)[0] == 0.0

    def test_binary_any_flag(self):
        """Each flag alone credits the pair in full."""
        same = unit_embedding(DEFAULT_DIM, 0)
        cases = {  # flag -> (session, adjacency window, the flagged successor)
            "pos": (make_session([1.0, 10.0]), 6, 1),
            # record 1 shares record 2's collection inside record 0's window;
            # it watches nothing, so only the pair (0, 2) adds credit
            "col": (make_session([1.0, 0.0, 10.0], collections=[None, 9, 9]), 1, 2),
            "rec": (make_session([1.0, 10.0], sources=[5, 5]), 0, 1),
            "v2v": (make_session([1.0, 10.0], v2v=[((1001, 0.9),), ()]), 0, 1),
            "mm": (make_session([1.0, 10.0], embeddings=[same, same]), 0, 1),
            "auth": (make_session([1.0, 10.0], authors=[7, 7]), 0, 1),
            "cat": (make_session([1.0, 10.0], cats=[3, 3]), 0, 1),
        }
        assert sorted(cases) == sorted(FLAG_NAMES)
        for d, (sess, window, i) in cases.items():
            cfg = AttributionConfig(adjacency_window=window)
            assert pair_flags(sess, 0, i, cfg) == {k: int(k == d) for k in FLAG_NAMES}, d
            assert attributed_slide_time(sess, 0, cfg) == 10.0, d
            assert session_attributed_slide_times(sess, cfg)[0] == 10.0, d

    def test_binary_equals_flag_or(self):
        """The vectorized path sums the successors whose ``pair_flags`` are
        not all zero, bit for bit."""
        rng = np.random.default_rng(0)
        for k in range(20):
            sess = random_session(rng, int(rng.integers(2, 12)), session_id=k)
            t = sess["watch_time"]
            vec = session_attributed_slide_times(sess, CFG)
            for j in range(len(sess)):
                strength = np.array([float(i > j and any(pair_flags(sess, j, i, CFG).values()))
                                     for i in range(len(sess))])
                assert vec[j] == min(float((strength * t).sum()), 300.0), (k, j)


class TestAttributedSlideTime:
    def test_all_related_reduces_to_slide_time(self):
        sess = make_session([1.0, 10.0, 20.0, 5.0], authors=[3, 3, 3, 3])
        assert attributed_slide_time(sess, 0, CFG) == \
            compute_slide_time(sess, 0)

    def test_all_unrelated_is_zero(self):
        sess = make_session([1.0] * 9)
        assert attributed_slide_time(sess, 0, CFG.__class__(adjacency_window=0)) == 0.0

    def test_masked_suffix_sum(self):
        # successors with flags {1, 0, 1} and watch {10, 20, 5} -> 15
        sess = make_session([1.0, 10.0, 20.0, 5.0], authors=[3, 3, 4, 3],
                            cats=[1, 2, 3, 1], sources=[0, 0, 1, 0])
        cfg = AttributionConfig(adjacency_window=0)
        assert attributed_slide_time(sess, 0, cfg) == 15.0

    def test_binary_dominance(self):
        rng = np.random.default_rng(1)
        for k in range(20):
            sess = random_session(rng, int(rng.integers(2, 14)), session_id=k)
            for j in range(len(sess.records)):
                assert attributed_slide_time(sess, j, CFG) <= \
                    compute_slide_time(sess, j) + 1e-12

    def test_oracle_equivalence(self):
        rng = np.random.default_rng(2)
        for k in range(30):
            sess = random_session(rng, int(rng.integers(2, 12)), session_id=k)
            vec = session_attributed_slide_times(sess, CFG)
            for j in range(len(sess.records)):
                expect = brute_force_attributed(sess, j, CFG)
                assert attributed_slide_time(sess, j, CFG) == pytest.approx(expect)
                assert vec[j] == pytest.approx(expect)

    def test_flag_matrices_match_pair_flags(self):
        rng = np.random.default_rng(3)
        for k in range(15):
            sess = random_session(rng, int(rng.integers(2, 12)), session_id=k)
            mats = session_flag_matrices(sess, CFG)
            n = len(sess.records)
            for j in range(n):
                for i in range(j + 1, n):
                    flags = pair_flags(sess, j, i, CFG)
                    for d in FLAG_NAMES:
                        assert bool(mats[d][j, i]) == bool(flags[d]), (k, j, i, d)


class TestDiagnostics:
    def test_same_author_everywhere(self):
        ds = as_dataset(make_session([5.0, 5.0, 5.0], authors=[1, 1, 1]))
        diag = table1_diagnostics(ds, CFG)
        assert diag["auth"] == (1.0, 1.0)

    def test_no_collections(self, small_dataset):
        ds = as_dataset(make_session([5.0, 5.0, 5.0]))
        diag = table1_diagnostics(ds, CFG)
        assert diag["col"] == (0.0, 0.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(4)
        ds = as_dataset(*(random_session(rng, int(rng.integers(2, 9)),
                                         session_id=i) for i in range(3)))
        diag = table1_diagnostics(ds, CFG)
        total_t, total_p = 0.0, 0
        sums = {d: 0.0 for d in FLAG_NAMES}
        pairs = {d: 0 for d in FLAG_NAMES}
        for sess in ds.sessions:
            n = len(sess.records)
            for j in range(n):
                for i in range(j + 1, n):
                    t = sess.records[i].watch_time
                    total_t += t
                    total_p += 1
                    flags = pair_flags(sess, j, i, CFG)
                    for d in FLAG_NAMES:
                        if flags[d]:
                            sums[d] += t
                            pairs[d] += 1
        for d in FLAG_NAMES:
            s, v = diag[d]
            assert s == pytest.approx(sums[d] / total_t)
            assert v == pytest.approx(pairs[d] / total_p)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            table1_diagnostics(as_dataset(), CFG)
