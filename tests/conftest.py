"""Shared builders for hand-crafted sessions and small generated corpora."""

import functools

import numpy as np
import pytest

from ltvrank.datamodel import Dataset, ImpressionRecord
from ltvrank.synthgen import GenConfig, generate


def unit_embedding(dim: int, axis: int) -> tuple:
    e = np.zeros(dim)
    e[axis % dim] = 1.0
    return tuple(e)


#: dimension of the default embeddings of ``make_session``
DEFAULT_DIM = 64


def make_session(watch_times, session_id=0, user_id=0, day=0, authors=None,
                 cats=None, sources=None, collections=None, videos=None,
                 embeddings=None, v2v=None, revisit=0):
    """Build a valid session with sensible defaults for unspecified fields.

    A default embedding is the unit vector on the axis that the video id
    picks, so every session gives a video the same embedding, as a saved
    log requires. The default videos (1000, 1001, ...) thus get
    pairwise-orthogonal embeddings, and no mm flag fires, in sessions of up
    to ``DEFAULT_DIM`` records unless embeddings are supplied.
    """
    records = []
    for i, w in enumerate(watch_times):
        video = videos[i] if videos else 1000 + i
        records.append(ImpressionRecord(
            user_id=user_id,
            video_id=video,
            author_id=authors[i] if authors else 100 + i,
            category_id=cats[i] if cats else 10 + i,
            retrieval_source_id=sources[i] if sources else i,
            collection_id=collections[i] if collections else None,
            session_id=session_id, day=day,
            page_index=i // 4, position_in_page=i % 4, global_position=i,
            watch_time=float(w),
            content_embedding=embeddings[i] if embeddings else unit_embedding(DEFAULT_DIM, video),
            v2v_neighbors=v2v[i] if v2v else (),
            revisit_flag=revisit,
        ))
    return Dataset.from_records(records).sessions[0]


@functools.cache
def video_fields(video: int, dim: int) -> tuple[tuple, tuple]:
    """A random unit embedding and v2v list that the video id and ``dim``
    fix, so every session of ``random_session`` gives a video the same
    per-video fields."""
    rng = np.random.default_rng([video, dim])
    emb = rng.normal(size=dim)
    emb /= np.linalg.norm(emb)
    v2v = tuple((int(rng.integers(0, 50)), float(rng.random()))
                for _ in range(int(rng.integers(0, 3))))
    return tuple(emb.tolist()), v2v


def random_session(rng, n, session_id=0, user_id=0, day=0, dim=8):
    """A structurally valid session with random ids, and unit embeddings and
    v2v lists fixed per video."""
    videos = [int(v) for v in rng.integers(0, 50, size=n)]
    return make_session(
        watch_times=np.where(rng.random(n) < 0.3, 0.0,
                             rng.gamma(1.0, 20.0, size=n)),
        session_id=session_id, user_id=user_id, day=day,
        authors=list(rng.integers(0, 8, size=n)),
        cats=list(rng.integers(0, 5, size=n)),
        sources=list(rng.integers(0, 4, size=n)),
        collections=[int(c) if c >= 0 else None
                     for c in rng.integers(-3, 4, size=n)],
        videos=videos,
        embeddings=[video_fields(v, dim)[0] for v in videos],
        v2v=[video_fields(v, dim)[1] for v in videos],
    )


SMALL_GEN = GenConfig(n_users=120, n_videos=800, n_authors=40, n_categories=10,
                      n_days=9, n_collections=60, seed=11)


@pytest.fixture(scope="session")
def small_corpus():
    """One small generated corpus shared by read-only tests."""
    return generate(SMALL_GEN)


@pytest.fixture(scope="session")
def small_dataset(small_corpus):
    return small_corpus[0]


def as_dataset(*sessions) -> Dataset:
    return Dataset.from_records(r for s in sessions for r in s.records)
