import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ltvrank.datamodel import (
    FIELDS,
    ROW_FIELDS,
    Dataset,
    DatasetFormatError,
    Session,
    compute_slide_time,
    load_dataset,
    save_dataset,
    row_faults,
    session_slide_times,
    validate_session,
    video_faults,
    video_table_path,
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

    def _corrupt_table(self, tmp_path, field, value):
        """Save a two-video log and set ``field`` of the second video's table
        line (line 3) to ``value``."""
        p = tmp_path / "d.txt"
        save_dataset(p, as_dataset(make_session([1.0, 2.0], v2v=[((3, 0.5),), ()])))
        table = video_table_path(p)
        lines = table.read_text().splitlines()
        parts = lines[2].split("\t")
        parts[field] = value
        lines[2] = "\t".join(parts)
        table.write_text("\n".join(lines) + "\n")
        return table

    def test_malformed_embedding_value_names_line(self, tmp_path):
        table = self._corrupt_table(tmp_path, 1, "1.0,0.0,x,0.0")
        with pytest.raises(DatasetFormatError, match=f"{table}:3:"):
            load_dataset(tmp_path / "d.txt")

    def test_malformed_v2v_item_names_line(self, tmp_path):
        table = self._corrupt_table(tmp_path, 2, "3:0.5,7")
        with pytest.raises(DatasetFormatError, match=f"{table}:3:"):
            load_dataset(tmp_path / "d.txt")

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


def _save_two_sessions(tmp_path):
    """Save sessions 0 and 1, six impressions each (videos 1000-1005) on
    user 0, days 0 and 1; returns the log's path. Without a ``#meta`` line,
    row ``i`` of session 1 is on line ``8 + i``."""
    p = tmp_path / "d.txt"
    save_dataset(p, as_dataset(make_session([1.0] * 6, session_id=0, day=0),
                               make_session([2.0] * 6, session_id=1, day=1)))
    return p


def _edit(path, line_no, field, value):
    """Set tab-separated ``field`` of line ``line_no`` (1-based) to ``value``."""
    lines = path.read_text().splitlines()
    parts = lines[line_no - 1].split("\t")
    parts[field] = value
    lines[line_no - 1] = "\t".join(parts)
    path.write_text("\n".join(lines) + "\n")


class TestVideoTable:
    """The per-video table beside ``dataset.txt`` and what it cannot hold."""

    def test_layout(self, tmp_path):
        p = _save_two_sessions(tmp_path)
        rows = p.read_text().splitlines()[1:]
        assert len(rows) == 12 and all(len(r.split("\t")) == len(ROW_FIELDS) == 13
                                       for r in rows)
        table = video_table_path(p).read_text().splitlines()
        assert table[0] == "#ltvrank-videos v1"
        assert [int(r.split("\t")[0]) for r in table[1:]] == list(range(1000, 1006))

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.lists(st.integers(min_value=1, max_value=12), min_size=0, max_size=6))
    @settings(max_examples=25, deadline=None)
    def test_two_file_round_trip(self, tmp_path_factory, seed, lengths):
        rng = np.random.default_rng(seed)
        ds = as_dataset(*(random_session(rng, n, session_id=i, user_id=int(rng.integers(0, 9)),
                                         day=int(rng.integers(0, 4)))
                          for i, n in enumerate(lengths)))
        p = tmp_path_factory.mktemp("rt") / "dataset.txt"
        save_dataset(p, ds, meta="key=0 seed=0")
        table = video_table_path(p).read_text().splitlines()
        assert table[1] == "#meta key=0 seed=0"
        ids = [int(r.split("\t")[0]) for r in table[2:]]
        assert ids == np.unique(ds.columns["video_id"]).tolist()
        loaded = load_dataset(p)
        assert loaded == ds
        save_dataset(tmp_path_factory.mktemp("again") / "dataset.txt", loaded)

    @pytest.mark.parametrize("field, other", [
        ("content_embedding", (0.0, 1.0, 0.0, 0.0)),
        ("content_embedding", (-0.0, 0.0, 1.0, 0.0)),
        ("v2v_neighbors", ((5, 0.5),)),
    ], ids=["embedding", "negative-zero", "v2v"])
    def test_save_rejects_video_with_two_texts(self, tmp_path, field, other):
        first = make_session([1.0, 1.0], videos=[7, 8], embeddings=[(0.0, 0.0, 1.0, 0.0)] * 2)
        bad = dataclasses.replace(first.records[1], video_id=7, **{field: other})
        p = tmp_path / "d.txt"
        with pytest.raises(ValueError, match=f"video 7: .*{field}"):
            save_dataset(p, Dataset.from_records(first.records[:1] + (bad,)))
        assert not p.exists() and not video_table_path(p).exists()

    def test_missing_table(self, tmp_path):
        p = _save_two_sessions(tmp_path)
        video_table_path(p).unlink()
        with pytest.raises(DatasetFormatError, match=f"{video_table_path(p)}:1: missing"):
            load_dataset(p)

    def test_table_of_another_log_rejected(self, tmp_path, capsys):
        """The ``videos.txt`` of another corpus over the same video ids is
        refused by its ``#meta`` line; the CLI, whose stage check reads the
        same line, exits 1 naming the table."""
        import shutil

        from ltvrank.cli import main

        sets = ["--set", "gen.n_users=200", "--set", "gen.n_videos=100"]
        for seed in (0, 1):
            assert main(["gen", "--workdir", str(tmp_path / str(seed)),
                         "--seed", str(seed), *sets]) == 0
        p = tmp_path / "1" / "dataset.txt"
        table = video_table_path(p)
        own = table.read_text().splitlines()[1]
        shutil.copy(tmp_path / "0" / "videos.txt", table)
        assert table.read_text().splitlines()[1] != own
        with pytest.raises(DatasetFormatError, match=f"{table}:2: #meta .* is not the #meta"):
            load_dataset(p)
        capsys.readouterr()
        assert main(["labels", "--workdir", str(tmp_path / "1"), "--seed", "1", *sets]) == 1
        assert str(table) in capsys.readouterr().err

    def _table_lines(self, p):
        return video_table_path(p).read_text().splitlines(keepends=True)

    @pytest.mark.parametrize("edit, line_no, message", [
        (lambda t: t[:1] + [t[2], t[1]] + t[3:], 3, "video 1000 follows 1001"),
        (lambda t: t[:2] + [t[1]] + t[2:], 3, "video 1000 follows 1000"),
        (lambda t: t + ["2000" + t[-1][t[-1].index("\t"):]], 8,
         "video 2000 is referenced by no impression"),
        (lambda t: t[:2] + t[3:], 3, "video 1001 has no row"),
        (lambda t: t[:3] + [t[3].replace("\t0.0,", "\t", 1)] + t[4:], 4,
         "video 1002: content_embedding has dimension 63, the first has 64"),
    ], ids=["unsorted", "repeated", "unreferenced", "no-row", "dimension"])
    def test_load_rejects_table(self, tmp_path, edit, line_no, message):
        p = _save_two_sessions(tmp_path)
        table = video_table_path(p)
        table.write_text("".join(edit(self._table_lines(p))))
        where = p if message.endswith("has no row") else table
        with pytest.raises(DatasetFormatError, match=f"{where}:{line_no}: {message}"):
            load_dataset(p)


class TestIngestValidation:
    """``load_dataset`` checks ``validate_session``'s rules once, by column,
    and raises at the first bad record with its file's ``path:line``."""

    @pytest.mark.parametrize("line_no, field, value, message", [
        (9, 0, "3", "session 1: user_id must be constant within a session"),
        (9, 7, "2", "session 1: day must be constant within a session"),
        (9, 11, "-1.0", "session 1: watch_time must be finite and >= 0"),
        (9, 11, "nan", "session 1: watch_time must be finite and >= 0"),
        (9, 11, "inf", "session 1: watch_time must be finite and >= 0"),
        (9, 9, "4", "session 1: position_in_page must be in 0..3"),
        (8, 8, "-1", "session 1: page_index must be >= 0"),
        (8, 7, "-1", "session 1: day must be >= 0"),
        (9, 12, "2", "session 1: revisit_flag must be 0 or 1"),
        (9, 10, "0", "session 1: global_position must strictly increase"),
        (12, 8, "0", "session 1: page_index must not repeat on more than 4 rows"),
        (13, 8, "0", "session 1: page_index must not decrease"),
    ], ids=["user", "day-constant", "watch-negative", "watch-nan", "watch-inf",
            "position", "page-negative", "day-negative", "revisit", "global-position",
            "page-overfull", "page-decreases"])
    def test_row_rule(self, tmp_path, line_no, field, value, message):
        p = _save_two_sessions(tmp_path)
        _edit(p, line_no, field, value)
        with pytest.raises(DatasetFormatError, match=f"{p}:{line_no}: {message}"):
            load_dataset(p)

    @pytest.mark.parametrize("field, value, message", [
        (1, ",".join(["0.5"] * 64), "video 1001: content_embedding norm must be within 1e-6"),
        (2, "3:0.5,4:1.5", r"video 1001: v2v_neighbors scores must be in \[0, 1\]"),
        (2, "3:nan", r"video 1001: v2v_neighbors scores must be in \[0, 1\]"),
    ], ids=["norm", "v2v-score", "v2v-nan"])
    def test_video_rule(self, tmp_path, field, value, message):
        p = _save_two_sessions(tmp_path)
        table = video_table_path(p)
        _edit(table, 3, field, value)
        with pytest.raises(DatasetFormatError, match=f"{table}:3: {message}"):
            load_dataset(p)

    def test_cli_exits_one_on_invalid_log(self, tmp_path, capsys):
        from ltvrank.cli import main

        from test_config import TINY
        sets = [arg for k, v in TINY.items() for arg in ("--set", f"{k}={v}")]
        assert main(["gen", "--workdir", str(tmp_path), *sets]) == 0
        p = tmp_path / "dataset.txt"
        _edit(p, 5, 11, "-3.0")
        capsys.readouterr()
        assert main(["labels", "--workdir", str(tmp_path), *sets]) == 1
        err = capsys.readouterr().err
        assert f"{p}:5: session" in err and "watch_time" in err


def _plant(rule, rng, records):
    """Break ``rule`` in one session's list of ``ImpressionRecord``s."""
    i = int(rng.integers(1, len(records)))
    r = records[i]
    if rule == "user":
        records[i] = dataclasses.replace(r, user_id=r.user_id + 1)
    elif rule == "day-constant":
        records[i] = dataclasses.replace(r, day=r.day + 1)
    elif rule == "watch":
        records[i] = dataclasses.replace(r, watch_time=float(rng.choice([-1.0, np.nan, np.inf])))
    elif rule == "position":
        records[i] = dataclasses.replace(r, position_in_page=int(rng.choice([-1, 4])))
    elif rule == "page-negative":
        records[0] = dataclasses.replace(records[0], page_index=-1)
    elif rule == "day-negative":
        records[:] = [dataclasses.replace(x, day=-1) for x in records]
    elif rule == "revisit":
        records[i] = dataclasses.replace(r, revisit_flag=2)
    elif rule == "global-position":
        records[i] = dataclasses.replace(r, global_position=records[i - 1].global_position)
    elif rule == "page-decreases":
        records[i] = dataclasses.replace(r, page_index=records[i - 1].page_index - 1)
    elif rule == "page-overfull":
        records[4] = dataclasses.replace(records[4], page_index=0)
    elif rule == "norm":
        records[i] = dataclasses.replace(r, content_embedding=tuple(
            2.0 * x for x in r.content_embedding))
    elif rule == "v2v":
        records[i] = dataclasses.replace(r, v2v_neighbors=((1, 1.5),))


PLANTED = ("user", "day-constant", "watch", "position", "page-negative", "day-negative",
           "revisit", "global-position", "page-decreases", "page-overfull", "norm", "v2v")


@pytest.mark.parametrize("seed", range(10))
def test_ingest_checks_flag_what_validate_session_flags(seed):
    """With one fault per rule planted in random sessions, the column checks
    behind ``load_dataset`` flag exactly the sessions ``validate_session``
    flags."""
    rng = np.random.default_rng(seed)
    sessions = [list(random_session(rng, int(rng.integers(5, 14)), session_id=k,
                                    user_id=k % 3, day=k % 4).records) for k in range(30)]
    for rule, k in zip(PLANTED, rng.choice(len(sessions), size=len(PLANTED), replace=False)):
        _plant(rule, rng, sessions[k])
    ds = Dataset.from_records(r for records in sessions for r in records)
    cols = ds.columns
    faults = row_faults(ds) + video_faults(cols["content_embedding"], cols["v2v_neighbors"])
    bad = np.logical_or.reduce([mask for _, _, mask in faults])
    expect = {s.session_id for s in ds.sessions if validate_session(s)}
    assert len(expect) == len(PLANTED)
    assert set(cols["session_id"][bad].tolist()) == expect
