import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ltvrank.datamodel import (
    FIELDS,
    Dataset,
    DatasetFormatError,
    Session,
    compute_slide_time,
    load_dataset,
    save_dataset,
    session_slide_times,
    validate_session,
)

from conftest import as_dataset, make_session, random_session


class TestValidateSession:
    def test_well_formed_session_has_no_violations(self):
        sess = make_session([5.0] * 8)
        assert validate_session(sess) == []

    def test_negative_watch_time_named(self):
        sess = make_session([5.0, -1.0, 3.0])
        violations = validate_session(sess)
        assert len(violations) == 1
        assert "record 1" in violations[0] and "watch_time" in violations[0]

    def test_five_records_on_one_page_cites_rule(self):
        sess = make_session([1.0] * 5)
        bad = dataclasses.replace(sess.records[4], page_index=0,
                                  position_in_page=3)
        sess = Dataset.from_records(sess.records[:4] + (bad,)).sessions[0]
        violations = validate_session(sess)
        assert any("exceed 4 per page" in v for v in violations)

    def test_non_unit_embedding_flagged(self):
        sess = make_session([1.0])
        bad = dataclasses.replace(sess.records[0],
                                  content_embedding=(2.0, 0.0, 0.0, 0.0))
        sess = Dataset.from_records([bad]).sessions[0]
        assert any("norm" in v for v in validate_session(sess))

    def test_empty_session_flagged(self):
        sess = Session(Dataset.from_records([]), 0, 0, session_id=0, user_id=0, day=0)
        assert validate_session(sess) == ["session 0: empty session"]


class TestSlideTime:
    def test_last_record_is_zero(self):
        sess = make_session([10.0, 20.0, 5.0])
        assert compute_slide_time(sess, 2, Q=1000) == 0.0

    def test_plain_suffix_sum(self):
        sess = make_session([99.0, 10.0, 20.0, 5.0])
        assert compute_slide_time(sess, 0, Q=1000) == 35.0

    def test_cap_applies(self):
        sess = make_session([1.0, 200.0, 200.0])
        assert compute_slide_time(sess, 0, Q=300) == 300.0

    def test_out_of_range_index(self):
        sess = make_session([1.0, 2.0])
        with pytest.raises(IndexError):
            compute_slide_time(sess, 2)

    def test_nonpositive_cap_rejected(self):
        sess = make_session([1.0, 2.0])
        with pytest.raises(ValueError):
            compute_slide_time(sess, 0, Q=0.0)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(5)
        sess = random_session(rng, 13)
        st_vec = session_slide_times(sess, Q=40.0)
        for j in range(13):
            assert st_vec[j] == pytest.approx(compute_slide_time(sess, j, Q=40.0))

    @given(st.lists(st.floats(min_value=0.0, max_value=500.0), min_size=1,
                    max_size=20),
           st.floats(min_value=1.0, max_value=400.0))
    @settings(max_examples=50, deadline=None)
    def test_never_exceeds_cap_and_monotone(self, watch, q):
        sess = make_session(watch)
        values = [compute_slide_time(sess, j, Q=q) for j in range(len(watch))]
        assert all(v <= q for v in values)
        assert all(values[j] >= values[j + 1] for j in range(len(values) - 1))


class TestRoundTrip:
    def test_empty_dataset(self, tmp_path):
        p = tmp_path / "d.txt"
        save_dataset(p, Dataset.from_records([]))
        assert load_dataset(p) == Dataset.from_records([])

    def test_generated_round_trip(self, tmp_path, small_dataset):
        p = tmp_path / "d.txt"
        save_dataset(p, small_dataset)
        assert load_dataset(p) == small_dataset

    def test_random_sessions_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        ds = as_dataset(*(random_session(rng, int(rng.integers(1, 10)),
                                         session_id=i) for i in range(20)))
        p = tmp_path / "d.txt"
        save_dataset(p, ds)
        assert load_dataset(p) == ds

    def test_truncated_record_names_line(self, tmp_path):
        p = tmp_path / "d.txt"
        save_dataset(p, as_dataset(make_session([1.0, 2.0])))
        text = p.read_text()
        p.write_text(text[:-30])  # chop mid-record
        with pytest.raises(DatasetFormatError) as exc:
            load_dataset(p)
        assert str(p) in str(exc.value) and ":3:" in str(exc.value)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("nonsense\n")
        with pytest.raises(DatasetFormatError, match="bad header"):
            load_dataset(p)

    def test_malformed_field_names_line(self, tmp_path):
        p = tmp_path / "d.txt"
        save_dataset(p, as_dataset(make_session([1.0])))
        lines = p.read_text().splitlines()
        parts = lines[1].split("\t")
        parts[11] = "not-a-number"
        p.write_text(lines[0] + "\n" + "\t".join(parts) + "\n")
        with pytest.raises(DatasetFormatError, match=":2:"):
            load_dataset(p)

    def _one_line_dataset(self, tmp_path, field, value):
        p = tmp_path / "d.txt"
        save_dataset(p, as_dataset(make_session([1.0, 2.0], v2v=[((3, 0.5),), ()])))
        lines = p.read_text().splitlines()
        parts = lines[2].split("\t")
        parts[field] = value
        lines[2] = "\t".join(parts)
        p.write_text("\n".join(lines) + "\n")
        return p

    def test_malformed_embedding_value_names_line(self, tmp_path):
        p = self._one_line_dataset(tmp_path, 12, "1.0,0.0,x,0.0")
        with pytest.raises(DatasetFormatError, match=f"{p}:3:"):
            load_dataset(p)

    def test_malformed_v2v_item_names_line(self, tmp_path):
        p = self._one_line_dataset(tmp_path, 13, "3:0.5,7")
        with pytest.raises(DatasetFormatError, match=f"{p}:3:"):
            load_dataset(p)

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.lists(st.integers(min_value=1, max_value=12), min_size=0, max_size=6))
    @settings(max_examples=25, deadline=None)
    def test_random_session_datasets_round_trip(self, tmp_path_factory, seed, lengths):
        rng = np.random.default_rng(seed)
        ds = as_dataset(*(random_session(rng, n, session_id=i, user_id=int(rng.integers(0, 9)),
                                         day=int(rng.integers(0, 4)))
                          for i, n in enumerate(lengths)))
        p = tmp_path_factory.mktemp("rt") / "d.txt"
        save_dataset(p, ds)
        assert load_dataset(p) == ds


class TestColumns:
    def test_from_records_of_every_session_rebuilds_dataset(self, small_dataset):
        rebuilt = Dataset.from_records(r for s in small_dataset.sessions for r in s.records)
        assert rebuilt == small_dataset
        assert len(rebuilt) == len(small_dataset)

    def test_session_view_slices_columns(self, small_dataset):
        sess = small_dataset.sessions[3]
        assert len(sess) == len(sess.records) == sess.hi - sess.lo
        for f in FIELDS:
            values = [getattr(r, f) for r in sess.records]
            if f == "collection_id":
                values = [-1 if v is None else v for v in values]
            assert sess[f].tolist() == values
        assert {sess.session_id} == set(sess["session_id"].tolist())

    def test_rows_of_one_embedding_share_a_tuple_after_load(self, tmp_path, small_dataset):
        p = tmp_path / "d.txt"
        save_dataset(p, small_dataset)
        loaded = load_dataset(p)
        by_text: dict[tuple, set[int]] = {}
        for emb in loaded.columns["content_embedding"]:
            by_text.setdefault(emb, set()).add(id(emb))
        assert len(by_text) < loaded.n_records()
        assert all(len(ids) == 1 for ids in by_text.values())
        v2v_ids = {id(v) for v in loaded.columns["v2v_neighbors"]}
        assert len(v2v_ids) == len(set(loaded.columns["v2v_neighbors"].tolist()))
