"""The session log as columns (``Dataset``) with row-range session views,
its scalar oracles, its ingest checks, and the record formats of
``dataset.txt``, its per-video table ``videos.txt`` and ``labeled.txt``.
Only the oracles build ``ImpressionRecord``s.

The artifact envelope (header, meta line, atomic write, strict reading)
belongs to ``ltvrank.artifacts``. Integers are base-10; reals use Python
``repr`` (shortest round-trip form), so ``load(save(D)) == D`` holds
bit-exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from . import artifacts
from .artifacts import DatasetFormatError, fmt_real  # noqa: F401 (re-exported)

#: Feed pages return four videos each.
RECORDS_PER_PAGE = 4

#: Default cap Q on a video's influence over subsequent watch time (seconds).
DEFAULT_CAP_Q = 300.0


@dataclass(frozen=True)
class ImpressionRecord:
    """One video exposure: ids, position, timing, engagement, content."""

    user_id: int
    video_id: int
    author_id: int
    category_id: int
    retrieval_source_id: int
    collection_id: int | None
    session_id: int
    day: int
    page_index: int
    position_in_page: int
    global_position: int
    watch_time: float
    content_embedding: tuple[float, ...]
    v2v_neighbors: tuple[tuple[int, float], ...]
    revisit_flag: int


#: The log's columns, in ``ImpressionRecord`` and ``dataset.txt`` field order.
FIELDS = tuple(f.name for f in fields(ImpressionRecord))

#: dtypes of the columns that are not int64
_DTYPES = {"watch_time": np.float64, "content_embedding": object, "v2v_neighbors": object}


def _column(values, name: str, n: int) -> np.ndarray:
    return np.fromiter(values, dtype=_DTYPES.get(name, np.int64), count=n)


@dataclass(frozen=True, eq=False)
class Session:
    """View of rows ``lo:hi`` of a dataset: one session's impressions, which
    share its session, user and day. ``session[f]`` is that slice of column
    ``f``."""

    dataset: Dataset = field(repr=False)
    lo: int
    hi: int
    session_id: int
    user_id: int
    day: int

    def __len__(self) -> int:
        return self.hi - self.lo

    def __getitem__(self, name: str) -> np.ndarray:
        return self.dataset.columns[name][self.lo:self.hi]

    @cached_property
    def records(self) -> tuple[ImpressionRecord, ...]:
        """The rows as ``ImpressionRecord``s (collection -1 as None), built once."""
        rows = zip(*(self[f].tolist() for f in FIELDS))
        return tuple(ImpressionRecord(*row[:5], None if row[5] < 0 else row[5], *row[6:])
                     for row in rows)


class Dataset:
    """The session log as columns: ``columns[f]`` holds field ``f`` of every
    impression in dataset order. Ids are int64 (``collection_id`` is -1 for
    none), ``watch_time`` float64, and the embedding and v2v columns object
    arrays of tuples. A session is a run of equal ``session_id``s;
    ``bounds[k]:bounds[k + 1]`` are the rows of ``sessions[k]``.
    ``len(dataset)`` counts sessions. Immutable by convention."""

    def __init__(self, columns: dict[str, np.ndarray]):
        self.columns = columns
        sid = columns["session_id"]
        self.bounds = np.append(np.flatnonzero(np.r_[len(sid) > 0, sid[1:] != sid[:-1]]), len(sid))
        lo = self.bounds[:-1]
        self.sessions = [
            Session(self, a, b, s, u, d) for a, b, s, u, d in zip(
                lo.tolist(), self.bounds[1:].tolist(), sid[lo].tolist(),
                columns["user_id"][lo].tolist(), columns["day"][lo].tolist())]

    @classmethod
    def from_records(cls, records) -> Dataset:
        """The dataset of ``ImpressionRecord``s given in dataset order."""
        records = list(records)
        values = {f: [getattr(r, f) for r in records] for f in FIELDS}
        values["collection_id"] = [-1 if c is None else c for c in values["collection_id"]]
        return cls({f: _column(values[f], f, len(records)) for f in FIELDS})

    def __len__(self) -> int:
        return len(self.sessions)

    def __eq__(self, other: Dataset) -> bool:
        return all(np.array_equal(self.columns[f], other.columns[f]) for f in FIELDS)

    def n_records(self) -> int:
        return len(self.columns["session_id"])


#: Per-impression label columns of ``labeled.txt``, each named after the
#: predictor head it trains.
LABEL_COLUMNS = ("slide", "pdq", "attr", "watch", "completion", "interaction")

#: Columns that place a label row in the log: the session and the
#: impression's position within it.
KEY_COLUMNS = ("session_id", "index")


def validate_session(session: Session) -> list[str]:
    """Check every record-level and session-level invariant.

    Returns an empty list iff the session is well formed; each violation
    is a human-readable string naming the record and field.
    """
    violations: list[str] = []
    if len(session.records) == 0:
        return [f"session {session.session_id}: empty session"]
    per_page: dict[int, int] = {}
    prev_global = None
    prev_page = None
    for idx, r in enumerate(session.records):
        where = f"session {session.session_id} record {idx}"
        if r.session_id != session.session_id:
            violations.append(f"{where}: session_id {r.session_id} != {session.session_id}")
        if r.user_id != session.user_id:
            violations.append(f"{where}: user_id {r.user_id} != {session.user_id}")
        if r.day != session.day:
            violations.append(f"{where}: day {r.day} != {session.day}")
        if not (math.isfinite(r.watch_time) and r.watch_time >= 0):
            violations.append(f"{where}: watch_time {r.watch_time} must be finite and >= 0")
        if r.position_in_page not in (0, 1, 2, 3):
            violations.append(f"{where}: position_in_page {r.position_in_page} not in [0,3]")
        if r.page_index < 0:
            violations.append(f"{where}: page_index {r.page_index} < 0")
        if r.day < 0:
            violations.append(f"{where}: day {r.day} < 0")
        if r.revisit_flag not in (0, 1):
            violations.append(f"{where}: revisit_flag {r.revisit_flag} not 0/1")
        if prev_global is not None and r.global_position <= prev_global:
            violations.append(f"{where}: global_position {r.global_position} not strictly increasing")
        if prev_page is not None and r.page_index < prev_page:
            violations.append(f"{where}: page_index {r.page_index} decreased")
        prev_global = r.global_position
        prev_page = r.page_index
        per_page[r.page_index] = per_page.get(r.page_index, 0) + 1
        norm = float(np.linalg.norm(np.asarray(r.content_embedding)))
        if not abs(norm - 1.0) <= 1e-6:
            violations.append(f"{where}: content_embedding norm {norm:.8f} not within 1e-6 of 1")
        for vid, score in r.v2v_neighbors:
            if not (0.0 <= score <= 1.0):
                violations.append(f"{where}: v2v score {score} for video {vid} not in [0,1]")
    for page, count in sorted(per_page.items()):
        if count > RECORDS_PER_PAGE:
            violations.append(
                f"session {session.session_id} page {page}: {count} records exceed "
                f"{RECORDS_PER_PAGE} per page"
            )
    return violations


def compute_slide_time(session: Session, j: int, Q: float = DEFAULT_CAP_Q) -> float:
    """Capped suffix watch-time sum: min(sum of watch times after j, Q).

    The last record of a session has slide time 0 (empty suffix).
    """
    if not 0 <= j < len(session.records):
        raise IndexError(f"record index {j} out of range for session of length {len(session.records)}")
    if Q <= 0:
        raise ValueError(f"cap Q must be positive, got {Q}")
    total = 0.0
    for r in session.records[j + 1:]:
        total += r.watch_time
        if total >= Q:
            return float(Q)
    return min(total, float(Q))


def session_slide_times(session: Session, Q: float = DEFAULT_CAP_Q) -> np.ndarray:
    """Slide time for every position of one session, vectorized."""
    t = session["watch_time"]
    suffix = np.concatenate([np.cumsum(t[::-1])[::-1][1:], [0.0]])
    return np.minimum(suffix, float(Q))


def slide_times(dataset: Dataset, Q: float = DEFAULT_CAP_Q) -> np.ndarray:
    """Slide time of every impression, in dataset order."""
    return np.concatenate([session_slide_times(s, Q=Q) for s in dataset.sessions]
                          or [np.empty(0)])


# ---------------------------------------------------------------------------
# Ingest checks
# ---------------------------------------------------------------------------

def row_faults(dataset: Dataset) -> list[tuple[str, str, np.ndarray]]:
    """``validate_session``'s per-row rules as whole-log column checks, in
    its order: per rule, the field it checks, the rule, and the mask of the
    rows that break it. A session is a run of equal ``session_id``s."""
    c = dataset.columns
    n = dataset.n_records()
    starts = dataset.bounds[:-1]
    first = np.repeat(starts, np.diff(dataset.bounds))  # each row's session start
    later = np.ones(n, dtype=bool)
    later[starts] = False
    watch, page, pos, day = c["watch_time"], c["page_index"], c["position_in_page"], c["day"]
    glob, revisit = c["global_position"], c["revisit_flag"]

    def prev(x):
        return np.concatenate([x[:1], x[:-1]])

    # each row's rank among its session's rows of its page, in row order
    order = np.lexsort((page, first))
    in_order = first[order], page[order]
    group_start = np.ones(n, dtype=bool)
    group_start[1:] = np.logical_or.reduce([x[1:] != x[:-1] for x in in_order])
    rank = np.arange(n) - np.maximum.accumulate(np.where(group_start, np.arange(n), 0))
    overfull = np.zeros(n, dtype=bool)
    overfull[order[rank >= RECORDS_PER_PAGE]] = True
    return [
        ("user_id", "must be constant within a session", c["user_id"] != c["user_id"][first]),
        ("day", "must be constant within a session", day != day[first]),
        ("watch_time", "must be finite and >= 0", ~(np.isfinite(watch) & (watch >= 0))),
        ("position_in_page", "must be in 0..3", (pos < 0) | (pos > 3)),
        ("page_index", "must be >= 0", page < 0),
        ("day", "must be >= 0", day < 0),
        ("revisit_flag", "must be 0 or 1", (revisit != 0) & (revisit != 1)),
        ("global_position", "must strictly increase within a session",
         later & (glob <= prev(glob))),
        ("page_index", "must not decrease within a session", later & (page < prev(page))),
        ("page_index", f"must not repeat on more than {RECORDS_PER_PAGE} rows of a session",
         overfull),
    ]


def video_faults(embeddings: np.ndarray,
                 v2v: np.ndarray) -> list[tuple[str, str, np.ndarray]]:
    """``validate_session``'s per-video rules, checked once per entry of an
    embedding column and a v2v column of equal-length tuples: per rule, the
    field, the rule, and the mask of the entries that break it."""
    n = len(embeddings)
    emb = np.array(embeddings.tolist(), dtype=np.float64).reshape(n, -1) if n else np.zeros((0, 0))
    norm = np.linalg.norm(emb, axis=1)
    counts = np.fromiter(map(len, v2v), dtype=np.int64, count=n)
    scores = np.fromiter((s for pairs in v2v for _, s in pairs), dtype=np.float64,
                         count=int(counts.sum()))
    bad_score = np.zeros(n, dtype=bool)
    bad_score[np.repeat(np.arange(n), counts)[~((scores >= 0.0) & (scores <= 1.0))]] = True
    return [
        ("content_embedding", "norm must be within 1e-6 of 1", ~(np.abs(norm - 1.0) <= 1e-6)),
        ("v2v_neighbors", "scores must be in [0, 1]", bad_score),
    ]


def _fail(path, record: int, message: str):
    """DatasetFormatError at the line of record ``record`` of ``path``."""
    return DatasetFormatError(path, artifacts.line_of(path, record), message)


def _raise_first(path, what: str, names: np.ndarray, faults) -> None:
    """Raise at the first record of ``path`` that breaks a rule of
    ``faults``, naming it as ``what`` ``names[record]``."""
    hits = [(int(np.argmax(mask)), i) for i, (_, _, mask) in enumerate(faults) if mask.any()]
    if hits:
        record, i = min(hits)
        field_name, rule, _ = faults[i]
        raise _fail(path, record, f"{what} {names[record]}: {field_name} {rule}")


# ---------------------------------------------------------------------------
# Record formats
# ---------------------------------------------------------------------------

#: Per-video fields. ``save_dataset`` writes them once per video, to the
#: table beside ``dataset.txt``, and ``load_dataset`` gathers them by
#: ``video_id``.
VIDEO_FIELDS = ("content_embedding", "v2v_neighbors")

#: The fields of a ``dataset.txt`` row, in order.
ROW_FIELDS = tuple(f for f in FIELDS if f not in VIDEO_FIELDS)

_ROW_DTYPE = np.dtype([(f, _DTYPES.get(f, np.int64)) for f in ROW_FIELDS])

#: rows that ``save_dataset`` formats at a time
_BATCH = 1 << 16


def video_table_path(path) -> Path:
    """The per-video table of the log at ``path``: ``videos.txt`` beside it."""
    return Path(path).with_name("videos.txt")


def _fmt_embedding(emb) -> str:
    return ",".join(map(fmt_real, emb))


def _fmt_v2v(v2v) -> str:
    return ",".join(f"{vid}:{fmt_real(s)}" for vid, s in v2v)


def _video_texts(dataset: Dataset, name: str, fmt, first, inverse) -> list[str]:
    """Text of column ``name`` for each distinct video, given ``np.unique``'s
    ``first`` and ``inverse`` of the ``video_id`` column. Each tuple object
    is formatted once. Raises ValueError naming a video whose rows carry
    different text."""
    column = dataset.columns[name]
    ids = np.fromiter(map(id, column), dtype=np.int64, count=len(column))
    _, obj_first, obj_inverse = np.unique(ids, return_index=True, return_inverse=True)
    texts = [fmt(column[i]) for i in obj_first.tolist()]
    codes: dict[str, int] = {}
    code = np.array([codes.setdefault(t, len(codes)) for t in texts], dtype=np.int64)[obj_inverse]
    differs = code != code[first][inverse]
    if differs.any():
        row = int(np.argmax(differs))
        raise ValueError(
            f"video {dataset.columns['video_id'][row]}: rows {first[inverse[row]]} and {row} "
            f"carry different {name} text, but the per-video table holds one per video")
    return [texts[k] for k in obj_inverse[first].tolist()]


def save_dataset(path, dataset: Dataset, meta: str | None = None) -> None:
    """Write a dataset atomically as two artifacts: ``path`` holds one
    impression per line with the ``ROW_FIELDS``, and ``video_table_path(path)``
    one line per distinct ``video_id``, in ascending order, with its
    embedding and v2v list. Raises ValueError, before writing, if two rows
    of one video carry different text in a per-video field."""
    ids, first, inverse = np.unique(dataset.columns["video_id"], return_index=True,
                                    return_inverse=True)
    emb = _video_texts(dataset, "content_embedding", _fmt_embedding, first, inverse)
    v2v = _video_texts(dataset, "v2v_neighbors", _fmt_v2v, first, inverse)
    # %r of a float is fmt_real's shortest round-trip repr
    line = "\t".join("%r" if f == "watch_time" else "%s" for f in ROW_FIELDS)
    col = ROW_FIELDS.index("collection_id")

    def rows():
        for lo in range(0, dataset.n_records(), _BATCH):
            values = [dataset.columns[f][lo:lo + _BATCH].tolist() for f in ROW_FIELDS]
            values[col] = ["-" if c < 0 else c for c in values[col]]
            yield from map(line.__mod__, zip(*values))

    artifacts.write(path, "dataset", rows(), meta)
    artifacts.write(video_table_path(path), "videos",
                    map("\t".join, zip(map(str, ids.tolist()), emb, v2v)), meta)


def _collection(text: str) -> int:
    return -1 if text == "-" else int(text)


def _parse_row(parts: list[str]) -> tuple:
    if len(parts) != len(ROW_FIELDS):
        raise ValueError(f"expected {len(ROW_FIELDS)} fields, got {len(parts)}")
    return (*map(int, parts[:5]), _collection(parts[5]), *map(int, parts[6:11]),
            float(parts[11]), int(parts[12]))


def _parse_video(parts: list[str]) -> tuple:
    if len(parts) != 3:
        raise ValueError(f"expected 3 fields, got {len(parts)}")
    emb = tuple(map(float, parts[1].split(","))) if parts[1] else ()
    v2v = tuple((int(vid), float(score)) for vid, score in (
        item.split(":") for item in parts[2].split(","))) if parts[2] else ()
    return int(parts[0]), emb, v2v


def load_dataset(path) -> Dataset:
    """Load the dataset that ``save_dataset`` wrote to ``path`` and
    ``video_table_path(path)``; consecutive rows of one ``session_id`` form
    a session, and every impression of a video shares the video's embedding
    and v2v tuples.

    Raises DatasetFormatError with ``path:line`` of the file at fault on a
    malformed record, a missing table, a table whose ``#meta`` line is not
    the log's (or one has none and the other does), table ids that do not
    strictly increase, an embedding whose dimension differs from the first, a table
    row that no impression references, an impression whose video has no
    table row, or a break of ``validate_session``'s rules (``video_faults``
    per video, then ``row_faults``), naming the video or session and field.
    """
    path = Path(path)
    rows = artifacts.read_array(path, "dataset", _ROW_DTYPE, _parse_row,
                                converters={5: _collection})
    table_path = video_table_path(path)
    if not table_path.exists():
        raise DatasetFormatError(table_path, 1, f"missing: the per-video table of {path}")
    meta, table_meta = artifacts.meta_of(path), artifacts.meta_of(table_path)
    if table_meta != meta:
        raise DatasetFormatError(table_path, 2, f"#meta {table_meta!r} is not the #meta "
                                                f"{meta!r} of {path}: another log's table")
    table = artifacts.read(table_path, "videos", _parse_video)
    ids = np.fromiter((t[0] for t in table), dtype=np.int64, count=len(table))
    emb = np.fromiter((t[1] for t in table), dtype=object, count=len(table))
    v2v = np.fromiter((t[2] for t in table), dtype=object, count=len(table))
    del table
    step = np.flatnonzero(ids[1:] <= ids[:-1])
    if len(step):
        k = int(step[0]) + 1
        raise _fail(table_path, k, f"video {ids[k]} follows {ids[k - 1]}: "
                                   f"ids must strictly increase")
    dims = np.fromiter(map(len, emb), dtype=np.int64, count=len(emb))
    if len(dims) and (dims != dims[0]).any():
        k = int(np.argmax(dims != dims[0]))
        raise _fail(table_path, k, f"video {ids[k]}: content_embedding has dimension "
                                   f"{dims[k]}, the first has {dims[0]}")

    video = rows["video_id"]
    at = np.searchsorted(ids, video)
    found = at < len(ids)
    found[found] = ids[at[found]] == video[found]
    if not found.all():
        row = int(np.argmin(found))
        raise _fail(path, row, f"video {video[row]} has no row in {table_path}")
    used = np.zeros(len(ids), dtype=bool)
    used[at] = True
    if not used.all():
        k = int(np.argmin(used))
        raise _fail(table_path, k, f"video {ids[k]} is referenced by no impression of {path}")
    _raise_first(table_path, "video", ids, video_faults(emb, v2v))

    columns = {f: rows[f].copy() for f in ROW_FIELDS}
    del rows
    columns.update(content_embedding=emb[at], v2v_neighbors=v2v[at])
    dataset = Dataset({f: columns[f] for f in FIELDS})
    _raise_first(path, "session", dataset.columns["session_id"], row_faults(dataset))
    return dataset


def _fmt_labeled(row) -> str:
    return "\t".join([str(row[0]), str(row[1])] + [fmt_real(x) for x in row[2:]])


def _parse_labeled(parts: list[str]) -> tuple:
    if len(parts) != 8:
        raise ValueError(f"expected 8 fields, got {len(parts)}")
    return (int(parts[0]), int(parts[1]), *(float(x) for x in parts[2:]))


def save_labeled(path, labels: dict[str, np.ndarray], meta: str | None = None) -> None:
    """Write label columns atomically, one impression per line in row order:
    ``session_id``, ``index``, then the ``LABEL_COLUMNS``."""
    columns = [labels[name].tolist() for name in KEY_COLUMNS + LABEL_COLUMNS]
    artifacts.write(path, "labeled", map(_fmt_labeled, zip(*columns)), meta)


def load_labeled(path) -> dict[str, np.ndarray]:
    """Label columns keyed by name: int64 ``KEY_COLUMNS``, float64
    ``LABEL_COLUMNS``, one row per record line."""
    rows = artifacts.read(path, "labeled", _parse_labeled)
    columns = list(zip(*rows)) or [()] * (len(KEY_COLUMNS) + len(LABEL_COLUMNS))
    out = {name: np.array(col, dtype=np.int64)
           for name, col in zip(KEY_COLUMNS, columns)}
    out.update((name, np.array(col, dtype=np.float64))
               for name, col in zip(LABEL_COLUMNS, columns[len(KEY_COLUMNS):]))
    return out
