"""Canonical impression/session records, the dataset container, and the
record formats of ``dataset.txt`` and ``labeled.txt``.

The artifact envelope (header, meta line, atomic write, strict reading)
belongs to ``ltvrank.artifacts``. Integers are base-10; reals use Python
``repr`` (shortest round-trip form), so ``load(save(D)) == D`` holds
bit-exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import groupby
from operator import attrgetter
from typing import Iterator

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

    def embedding_array(self) -> np.ndarray:
        return np.asarray(self.content_embedding, dtype=np.float64)


@dataclass(frozen=True)
class Session:
    """An ordered, non-empty run of impressions sharing session/user/day."""

    session_id: int
    user_id: int
    day: int
    records: tuple[ImpressionRecord, ...]

    def __len__(self) -> int:
        return len(self.records)


@dataclass
class Dataset:
    """Ordered collection of sessions. Immutable by convention after load."""

    sessions: list[Session] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.sessions)

    def iter_records(self) -> Iterator[ImpressionRecord]:
        for sess in self.sessions:
            yield from sess.records

    def n_records(self) -> int:
        return sum(len(s) for s in self.sessions)


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
        norm = float(np.linalg.norm(r.embedding_array()))
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
    t = np.array([r.watch_time for r in session.records], dtype=np.float64)
    suffix = np.concatenate([np.cumsum(t[::-1])[::-1][1:], [0.0]])
    return np.minimum(suffix, float(Q))


# ---------------------------------------------------------------------------
# Record formats
# ---------------------------------------------------------------------------

def _fmt_record(r: ImpressionRecord) -> str:
    emb = ",".join(fmt_real(x) for x in r.content_embedding)
    v2v = ",".join(f"{vid}:{fmt_real(score)}" for vid, score in r.v2v_neighbors)
    col = "-" if r.collection_id is None else str(r.collection_id)
    return "\t".join([
        str(r.user_id), str(r.video_id), str(r.author_id), str(r.category_id),
        str(r.retrieval_source_id), col, str(r.session_id), str(r.day),
        str(r.page_index), str(r.position_in_page), str(r.global_position),
        fmt_real(r.watch_time), emb, v2v, str(r.revisit_flag),
    ])


def _parse_record(parts: list[str]) -> ImpressionRecord:
    if len(parts) != 15:
        raise ValueError(f"expected 15 fields, got {len(parts)}")
    emb = tuple(float(x) for x in parts[12].split(",")) if parts[12] else ()
    v2v = []
    if parts[13]:
        for item in parts[13].split(","):
            vid, score = item.split(":")
            v2v.append((int(vid), float(score)))
    return ImpressionRecord(
        user_id=int(parts[0]), video_id=int(parts[1]), author_id=int(parts[2]),
        category_id=int(parts[3]), retrieval_source_id=int(parts[4]),
        collection_id=None if parts[5] == "-" else int(parts[5]),
        session_id=int(parts[6]), day=int(parts[7]), page_index=int(parts[8]),
        position_in_page=int(parts[9]), global_position=int(parts[10]),
        watch_time=float(parts[11]), content_embedding=emb,
        v2v_neighbors=tuple(v2v), revisit_flag=int(parts[14]),
    )


def save_dataset(path, dataset: Dataset, meta: str | None = None) -> None:
    """Write a dataset atomically, one impression per line."""
    artifacts.write(path, "dataset",
                    (_fmt_record(r) for r in dataset.iter_records()), meta)


def load_dataset(path) -> Dataset:
    """Load a dataset, grouping consecutive records by session_id."""
    records = artifacts.read(path, "dataset", _parse_record)
    sessions = []
    for _, group in groupby(records, key=attrgetter("session_id")):
        recs = tuple(group)
        sessions.append(Session(session_id=recs[0].session_id, user_id=recs[0].user_id,
                                day=recs[0].day, records=recs))
    return Dataset(sessions=sessions)


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
