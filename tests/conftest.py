"""Shared builders for hand-crafted sessions and small generated corpora."""

import numpy as np
import pytest

from ltvrank.datamodel import Dataset, ImpressionRecord
from ltvrank.synthgen import GenConfig, generate


def unit_embedding(dim: int, axis: int) -> tuple:
    e = np.zeros(dim)
    e[axis % dim] = 1.0
    return tuple(e)


def make_session(watch_times, session_id=0, user_id=0, day=0, authors=None,
                 cats=None, sources=None, collections=None, videos=None,
                 embeddings=None, v2v=None, revisit=0):
    """Build a valid session with sensible defaults for unspecified fields.

    Default embeddings are pairwise-orthogonal unit vectors, so no mm flag
    fires unless embeddings are supplied.
    """
    n = len(watch_times)
    dim = max(4, n)
    records = []
    for i, w in enumerate(watch_times):
        records.append(ImpressionRecord(
            user_id=user_id,
            video_id=videos[i] if videos else 1000 + i,
            author_id=authors[i] if authors else 100 + i,
            category_id=cats[i] if cats else 10 + i,
            retrieval_source_id=sources[i] if sources else i,
            collection_id=collections[i] if collections else None,
            session_id=session_id, day=day,
            page_index=i // 4, position_in_page=i % 4, global_position=i,
            watch_time=float(w),
            content_embedding=embeddings[i] if embeddings else unit_embedding(dim, i),
            v2v_neighbors=v2v[i] if v2v else (),
            revisit_flag=revisit,
        ))
    return Dataset.from_records(records).sessions[0]


def random_session(rng, n, session_id=0, user_id=0, day=0, dim=8):
    """A structurally valid session with random ids and unit embeddings."""
    embs = rng.normal(size=(n, dim))
    embs /= np.linalg.norm(embs, axis=1, keepdims=True)
    videos = list(rng.integers(0, 50, size=n))
    v2v = []
    for i in range(n):
        pairs = []
        for _ in range(int(rng.integers(0, 3))):
            pairs.append((int(rng.integers(0, 50)), float(rng.random())))
        v2v.append(tuple(pairs))
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
        embeddings=[tuple(e) for e in embs],
        v2v=v2v,
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
