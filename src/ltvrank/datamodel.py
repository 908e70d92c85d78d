"""The session log as columns (``Dataset``) with row-range session views,
its scalar oracles, and the record formats of ``dataset.txt`` and
``labeled.txt``. Only the oracles build ``ImpressionRecord``s.

The artifact envelope (header, meta line, atomic write, strict reading)
belongs to ``ltvrank.artifacts``. Integers are base-10; reals use Python
``repr`` (shortest round-trip form), so ``load(save(D)) == D`` holds
bit-exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cache, cached_property
from operator import itemgetter

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
        if abs(norm - 1.0) > 1e-6:
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
# Record formats
# ---------------------------------------------------------------------------

def save_dataset(path, dataset: Dataset, meta: str | None = None) -> None:
    """Write a dataset atomically, one impression per line. Each embedding
    and v2v tuple object is formatted once: rows of one video share them."""
    texts: dict[int, str] = {}  # id of a tuple the dataset keeps alive -> its text

    def lines():
        for sess in dataset.sessions:
            for (user, video, author, cat, src, col, sid, day, page, pos, glob,
                 watch, emb, v2v, revisit) in zip(*(sess[f].tolist() for f in FIELDS)):
                if id(emb) not in texts:
                    texts[id(emb)] = ",".join(map(fmt_real, emb))
                if id(v2v) not in texts:
                    texts[id(v2v)] = ",".join(f"{vid}:{fmt_real(s)}" for vid, s in v2v)
                yield (f"{user}\t{video}\t{author}\t{cat}\t{src}\t"
                       f"{'-' if col < 0 else col}\t{sid}\t{day}\t{page}\t{pos}\t{glob}\t"
                       f"{fmt_real(watch)}\t{texts[id(emb)]}\t{texts[id(v2v)]}\t{revisit}")

    artifacts.write(path, "dataset", lines(), meta)


def load_dataset(path) -> Dataset:
    """Load a dataset; consecutive rows of one session_id form a session.
    Each distinct embedding or v2v field text is parsed once, and every
    row with that text shares the one tuple."""
    parse_embedding = cache(lambda text: tuple(map(float, text.split(","))) if text else ())
    parse_v2v = cache(lambda text: tuple((int(vid), float(score)) for vid, score in (
        item.split(":") for item in text.split(","))) if text else ())

    def parse_row(parts: list[str]) -> tuple:
        if len(parts) != 15:
            raise ValueError(f"expected 15 fields, got {len(parts)}")
        return (*map(int, parts[:5]), -1 if parts[5] == "-" else int(parts[5]),
                *map(int, parts[6:11]), float(parts[11]), parse_embedding(parts[12]),
                parse_v2v(parts[13]), int(parts[14]))

    rows = artifacts.read(path, "dataset", parse_row)
    return Dataset({f: _column(map(itemgetter(i), rows), f, len(rows))
                    for i, f in enumerate(FIELDS)})


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
