"""Synthetic multi-day session log generator with planted ground truth.

Every downstream claim in this package is checked against structure the
generator plants on purpose:

* position bias arises mechanistically: a user's latent activity drives both
  session depth and engagement scale, so deep pages are reached only by
  heavy watchers;
* watch times are zero-inflated gamma draws, scaled by latent video quality
  and user-author affinity;
* a causal channel adds explicit contributions from recent related
  impressions (same category / same author / near-duplicate embeddings) to a
  successor's watch time, bookkept exactly so attribution can be audited;
* users revisit preferred authors across days, populating revisit_flag.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import artifacts
from .artifacts import fmt_real
from .datamodel import Dataset, Session, slide_times


@dataclass
class GenConfig:
    n_users: int = 5000
    n_videos: int = 20000
    n_authors: int = 500
    n_categories: int = 40
    n_days: int = 10
    n_retrieval_sources: int = 8
    n_collections: int = 400
    embedding_dim: int = 16
    activity_shape: float = 1.2          # gamma shape of per-user activity, mean 1
    zero_watch_prob: float = 0.35
    watch_gamma_shape: float = 0.9
    watch_gamma_scale: float = 6.0
    author_affinity_strength: float = 1.0
    category_carryover_strength: float = 1.0
    carryover_scale: float = 30.0        # mean seconds of one planted contribution
    carryover_window: int = 6
    position_bias_strength: float = 1.0
    promotion_strength: float = 1.0      # how strongly placement follows promotion
    promotion_noise: float = 0.5
    revisit_base_prob: float = 0.15
    base_pages: float = 2.0              # mean pages/session for a unit-activity user
    max_pages: int = 60
    session_prob: float = 1.0
    pref_watch_prob: float = 0.2         # chance an impression comes from a preferred author
    n_preferred_authors: int = 3
    v2v_top_k: int = 4
    mm_sim_threshold: float = 0.9        # embedding cosine above this plants a causal link
    embedding_noise: float = 0.55
    seed: int = 0

    def validate(self) -> None:
        counts = ["n_users", "n_videos", "n_authors", "n_categories", "n_days",
                  "n_retrieval_sources", "n_collections", "embedding_dim",
                  "n_preferred_authors", "max_pages"]
        for name in counts:
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        probs = ["zero_watch_prob", "revisit_base_prob", "session_prob", "pref_watch_prob"]
        for name in probs:
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0,1], got {v}")
        positives = ["activity_shape", "watch_gamma_shape", "watch_gamma_scale",
                     "carryover_scale", "base_pages"]
        for name in positives:
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        nonneg = ["author_affinity_strength", "category_carryover_strength",
                  "position_bias_strength", "carryover_window",
                  "promotion_strength", "promotion_noise", "v2v_top_k"]
        for name in nonneg:
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")


@dataclass
class GroundTruth:
    """Planted latents and per-impression causal bookkeeping."""

    user_activity: np.ndarray                    # (n_users,)
    user_revisit_prob: np.ndarray                # (n_users,)
    user_affinity: list[dict[int, float]]        # author_id -> affinity level
    video_author: np.ndarray                     # (n_videos,)
    video_category: np.ndarray
    video_collection: np.ndarray                 # -1 for none
    video_quality: np.ndarray
    video_promotion: np.ndarray                  # placement score, independent of quality
    author_quality: np.ndarray
    # (session_id, index) -> (base_watch, ((gap_back, contribution), ...))
    contributions: dict[tuple[int, int], tuple[float, tuple[tuple[int, float], ...]]] = field(
        default_factory=dict)

    def affinity(self, user_id: int, author_id: int) -> float:
        return self.user_affinity[user_id].get(int(author_id), 0.0)

    def planted_outgoing(self, session: Session) -> np.ndarray:
        """Total planted causal contribution each impression made to its successors."""
        out = np.zeros(len(session), dtype=np.float64)
        for i in range(len(session)):
            _, contribs = self.contributions[(session.session_id, i)]
            for gap, value in contribs:
                out[i - gap] += value
        return out

    def reconstruct_watch(self, session: Session, i: int) -> float:
        """base + planted contributions, summed in generation order."""
        base, contribs = self.contributions[(session.session_id, i)]
        total = base
        for _, value in contribs:
            total += value
        return total


def _unit_rows(x: np.ndarray) -> np.ndarray:
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _build_latents(cfg: GenConfig, rng: np.random.Generator):
    author_quality = rng.lognormal(mean=0.0, sigma=0.8, size=cfg.n_authors)
    author_p = author_quality / author_quality.sum()
    video_author = rng.choice(cfg.n_authors, size=cfg.n_videos, p=author_p)
    video_category = rng.integers(0, cfg.n_categories, size=cfg.n_videos)
    video_collection = np.where(
        rng.random(cfg.n_videos) < 0.3,
        rng.integers(0, cfg.n_collections, size=cfg.n_videos),
        -1,
    )
    video_quality = rng.lognormal(mean=0.0, sigma=0.4, size=cfg.n_videos)
    # promotion drives where the feed places a video inside a session; it is
    # drawn independently of quality, the confound PDQ labels neutralize
    video_promotion = rng.lognormal(mean=0.0, sigma=1.0, size=cfg.n_videos)
    centers = _unit_rows(rng.normal(size=(cfg.n_categories, cfg.embedding_dim)))
    emb = centers[video_category] + cfg.embedding_noise * rng.normal(
        size=(cfg.n_videos, cfg.embedding_dim))
    emb = _unit_rows(emb)
    return (author_quality, video_author, video_category, video_collection,
            video_quality, video_promotion, emb)


def _build_v2v(cfg: GenConfig, rng: np.random.Generator,
               video_category: np.ndarray, emb: np.ndarray) -> list[tuple[tuple[int, float], ...]]:
    """Top-k noisy cosine neighbors, searched within each category cluster."""
    neighbors: list[tuple[tuple[int, float], ...]] = [()] * len(emb)
    for cat in range(cfg.n_categories):
        idx = np.flatnonzero(video_category == cat)
        if len(idx) < 2:
            continue
        sims = emb[idx] @ emb[idx].T
        sims += 0.05 * rng.normal(size=sims.shape)
        np.fill_diagonal(sims, -np.inf)
        k = min(cfg.v2v_top_k, len(idx) - 1)
        top = np.argsort(-sims, axis=1)[:, :k]
        for row, vi in enumerate(idx):
            pairs = []
            for col in top[row]:
                score = float(np.clip(sims[row, col], 0.0, 1.0))
                if score > 0.0:
                    pairs.append((int(idx[col]), score))
            neighbors[vi] = tuple(pairs)
    return neighbors


def generate(config: GenConfig) -> tuple[Dataset, GroundTruth]:
    """Generate a multi-day session log and its planted ground truth.

    Deterministic given ``config.seed``; each user draws from an independent
    sub-seed, so per-user generation order does not affect the output.
    """
    cfg = config
    cfg.validate()
    root = np.random.SeedSequence(cfg.seed)
    global_ss, users_ss = root.spawn(2)
    rng = np.random.default_rng(global_ss)

    (author_quality, video_author, video_category, video_collection,
     video_quality, video_promotion, emb) = _build_latents(cfg, rng)
    v2v = _build_v2v(cfg, rng, video_category, emb)

    user_activity = rng.gamma(cfg.activity_shape, 1.0 / cfg.activity_shape,
                              size=cfg.n_users)
    pop = video_quality / video_quality.sum()
    # feed videos are drawn by inverting this CDF, as Generator.choice(p=pop)
    # does, but without rebuilding it for every session
    cdf = pop.cumsum()
    cdf /= cdf[-1]
    videos_by_author: list[np.ndarray] = [
        np.flatnonzero(video_author == a) for a in range(cfg.n_authors)
    ]
    author_p = author_quality / author_quality.sum()

    gt = GroundTruth(
        user_activity=user_activity,
        user_revisit_prob=np.zeros(cfg.n_users),
        user_affinity=[{} for _ in range(cfg.n_users)],
        video_author=video_author, video_category=video_category,
        video_collection=video_collection, video_quality=video_quality,
        video_promotion=video_promotion, author_quality=author_quality,
    )

    # per session, in ascending session_id: session_id, user, day, revisit,
    # then the session's videos, retrieval sources and watch times
    sessions: list[tuple] = []
    user_seeds = users_ss.spawn(cfg.n_users)
    for user in range(cfg.n_users):
        urng = np.random.default_rng(user_seeds[user])
        n_pref = min(cfg.n_preferred_authors, cfg.n_authors)
        pref_authors = urng.choice(cfg.n_authors, size=n_pref, replace=False, p=author_p)
        pref_aff = urng.uniform(0.5, 1.5, size=n_pref)
        gt.user_affinity[user] = {int(a): float(v) for a, v in zip(pref_authors, pref_aff)}
        mean_aff = float(np.mean(pref_aff))
        p_rev = float(np.clip(
            cfg.revisit_base_prob + 0.3 * cfg.author_affinity_strength * mean_aff, 0.0, 1.0))
        gt.user_revisit_prob[user] = p_rev
        pref_videos = np.concatenate([videos_by_author[a] for a in pref_authors]) \
            if n_pref else np.array([], dtype=int)

        for day in range(cfg.n_days):
            if urng.random() >= cfg.session_prob:
                continue
            session_id = user * cfg.n_days + day
            revisit = 1 if (day > 0 and urng.random() < p_rev) else 0
            sessions.append((session_id, user, day, revisit, *_generate_session(
                cfg, gt, urng, user, session_id, pref_videos, cdf, emb)))

    # per-video fields are gathered by video id once for the whole log, so
    # every impression of a video shares its embedding and v2v tuples
    lengths = np.array([len(s[4]) for s in sessions], dtype=np.int64)
    per_session = np.array([s[:4] for s in sessions], dtype=np.int64).reshape(-1, 4)
    session_id, user, day, revisit = np.repeat(per_session.T, lengths, axis=1)
    video, source, watch = (np.concatenate([np.zeros(0, dtype)] + [s[k] for s in sessions])
                            for k, dtype in ((4, np.int64), (5, np.int64), (6, np.float64)))
    index = np.arange(len(video)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    emb_tuples = np.fromiter(map(tuple, emb.tolist()), dtype=object, count=len(emb))
    return Dataset({
        "user_id": user, "video_id": video, "author_id": video_author[video],
        "category_id": video_category[video], "retrieval_source_id": source,
        "collection_id": video_collection[video], "session_id": session_id, "day": day,
        "page_index": index // 4, "position_in_page": index % 4, "global_position": index,
        "watch_time": watch, "content_embedding": emb_tuples[video],
        "v2v_neighbors": np.fromiter(v2v, dtype=object, count=len(v2v))[video],
        "revisit_flag": revisit,
    }), gt


def draw_from_cdf(rng: np.random.Generator, cdf: np.ndarray, n: int) -> np.ndarray:
    """``n`` indices drawn with probabilities ``p`` whose cumulative sum,
    divided by its last entry, is ``cdf``: the indices, and the stream
    state after, of ``rng.choice(len(p), size=n, p=p)``, without
    re-deriving the CDF."""
    return cdf.searchsorted(rng.random(n), side="right")


def _generate_session(cfg, gt, urng, user, session_id, pref_videos, cdf, emb):
    """One session's videos, retrieval sources and watch times; its planted
    contributions go to ``gt``. ``cdf`` is the cumulative feed popularity
    of the videos, normalized to end at 1."""
    mean_pages = cfg.base_pages * (1.0 + cfg.position_bias_strength * gt.user_activity[user])
    pages = int(urng.geometric(1.0 / max(mean_pages, 1.0)))
    n = 4 * min(max(pages, 1), cfg.max_pages)

    from_pref = (urng.random(n) < cfg.pref_watch_prob if len(pref_videos)
                 else np.zeros(n, dtype=bool))
    vids = draw_from_cdf(urng, cdf, n)
    n_pref = int(from_pref.sum())
    if n_pref:
        vids[from_pref] = pref_videos[urng.integers(0, len(pref_videos), size=n_pref)]

    if cfg.promotion_strength > 0:
        # the feed surfaces heavily promoted videos first, regardless of
        # their quality; this plants the position confound on the item side
        placement = cfg.promotion_strength * np.log(gt.video_promotion[vids])
        placement += cfg.promotion_noise * urng.normal(size=n)
        vids = vids[np.argsort(-placement, kind="stable")]

    zero_p, scale, related = session_factors(
        cfg, gt, user, vids, gt.video_author[vids], gt.video_category[vids], emb[vids])
    base, contribs, watch = draw_watch(cfg, urng, zero_p, scale, related.tolist())
    retrieval = urng.integers(0, cfg.n_retrieval_sources, size=n)
    for i, (b, c) in enumerate(zip(base, contribs)):
        gt.contributions[(session_id, i)] = (b, tuple(c))
    return vids, retrieval, np.array(watch)


def session_factors(cfg: GenConfig, gt: GroundTruth, user: int, videos: np.ndarray,
                    authors: np.ndarray, cats: np.ndarray, emb: np.ndarray):
    """``draw_watch``'s inputs for ``user`` shown ``videos`` with these
    ``authors``, categories ``cats`` and embeddings ``emb``: per row the
    chance of no watch and the gamma scale, and the (n, n) boolean matrix of
    related rows: rows that share a category or an author, or whose
    embeddings' cosine exceeds ``mm_sim_threshold``."""
    aff = np.array([gt.affinity(user, a) for a in authors.tolist()])
    zero_p = np.where(aff > 0, cfg.zero_watch_prob * 0.5, cfg.zero_watch_prob)
    engagement = 1.0 + cfg.position_bias_strength * gt.user_activity[user]
    scale = gt.video_quality[videos] * (1.0 + cfg.author_affinity_strength * aff) * engagement
    related = ((cats[:, None] == cats) | (authors[:, None] == authors)
               | (emb @ emb.T > cfg.mm_sim_threshold))
    return zero_p, scale, related


def draw_watch(cfg: GenConfig, rng: np.random.Generator, zero_p: np.ndarray,
               scale: np.ndarray, related: list[list[bool]],
               stay: tuple[float, float] | None = None):
    """The user model: draw the watch times of a session's rows, shown in
    this order.

    Row ``i`` is watched with chance ``1 - zero_p[i]``: a gamma draw times
    ``scale[i]`` (its base), plus one exponential contribution from each
    earlier watched row in the last ``carryover_window`` positions that
    ``related[i]`` marks (``session_factors``' matrix as nested lists). With
    ``stay = (after_skip, after_watch)`` the user sees the next row with
    that chance, else leaves. Draws: ``random(n)``, ``gamma(n)``, then per
    row its contributions and, with ``stay``, its exit draw. Returns, for
    each row shown, its base, its ``(gap, contribution)`` list and its watch
    time: base plus contributions, summed in order.
    """
    n = len(scale)
    watched = rng.random(n) >= zero_p
    gamma = rng.gamma(cfg.watch_gamma_shape, cfg.watch_gamma_scale, size=n)
    base = np.where(watched, gamma * scale, 0.0).tolist()
    window = cfg.carryover_window if cfg.category_carryover_strength > 0 else 0
    contribs, watch = [], []
    for i in range(n):
        total, row = base[i], []
        if total > 0:
            rel = related[i]
            for j in range(max(0, i - window), i):
                if base[j] > 0 and rel[j]:
                    value = float(cfg.category_carryover_strength
                                  * rng.exponential(cfg.carryover_scale))
                    row.append((i - j, value))
                    total += value
        contribs.append(row)
        watch.append(total)
        if stay is not None and i + 1 < n and rng.random() >= stay[base[i] > 0]:
            return base[:i + 1], contribs, watch
    return base, contribs, watch


def empirical_zero_fraction(dataset: Dataset, pages: tuple[int, int | None],
                            field_name: str = "slide_time") -> float:
    """Fraction of impressions in a page range whose value is zero.

    ``pages`` is a half-open ``(lo, hi)`` range of page indices; ``hi=None``
    means unbounded. ``field_name`` selects slide_time (default) or
    watch_time.
    """
    lo, hi = pages
    if field_name == "slide_time":
        values = slide_times(dataset, Q=np.inf)
    elif field_name == "watch_time":
        values = dataset.columns["watch_time"]
    else:
        raise ValueError(f"unknown field {field_name!r}")
    page = dataset.columns["page_index"]
    in_range = (lo <= page) & (page < hi if hi is not None else True)
    total = int(in_range.sum())
    if total == 0:
        raise ValueError(f"no impressions in page range {pages}")
    return int((values[in_range] == 0.0).sum()) / total


# ---------------------------------------------------------------------------
# Ground-truth sidecar persistence
# ---------------------------------------------------------------------------

def save_ground_truth(path, gt: GroundTruth, meta: str | None = None) -> None:
    def lines():
        for u in range(len(gt.user_activity)):
            affs = ",".join(f"{a}:{fmt_real(v)}" for a, v in sorted(gt.user_affinity[u].items()))
            yield (f"U\t{u}\t{fmt_real(gt.user_activity[u])}\t"
                   f"{fmt_real(gt.user_revisit_prob[u])}\t{affs}")
        for v in range(len(gt.video_author)):
            yield (f"V\t{v}\t{gt.video_author[v]}\t{gt.video_category[v]}\t"
                   f"{gt.video_collection[v]}\t{fmt_real(gt.video_quality[v])}\t"
                   f"{fmt_real(gt.video_promotion[v])}")
        for a in range(len(gt.author_quality)):
            yield f"A\t{a}\t{fmt_real(gt.author_quality[a])}"
        for (sid, idx), (base, contribs) in sorted(gt.contributions.items()):
            cstr = ",".join(f"{gap}:{fmt_real(val)}" for gap, val in contribs)
            yield f"C\t{sid}\t{idx}\t{fmt_real(base)}\t{cstr}"

    artifacts.write(path, "groundtruth", lines(), meta)


def load_ground_truth(path) -> GroundTruth:
    """Read ``save_ground_truth``'s records. Raises DatasetFormatError naming
    ``path:line`` on a malformed record, a ``U``, ``V`` or ``A`` record whose
    id is not the count of that tag's records before it, or a repeated ``C``
    key."""
    users: list[tuple[float, float, dict[int, float]]] = []
    videos: list[tuple[int, int, int, float, float]] = []
    authors: list[float] = []
    contributions: dict[tuple[int, int], tuple[float, tuple[tuple[int, float], ...]]] = {}
    indexed = {"U": users, "V": videos, "A": authors}

    def parse(parts: list[str]) -> None:
        tag = parts[0]
        if tag in indexed and int(parts[1]) != len(indexed[tag]):
            raise ValueError(f"{tag} record for id {parts[1]}, expected id {len(indexed[tag])}")
        if tag == "U":
            affs = {}
            if parts[4]:
                for item in parts[4].split(","):
                    a, v = item.split(":")
                    affs[int(a)] = float(v)
            users.append((float(parts[2]), float(parts[3]), affs))
        elif tag == "V":
            videos.append((int(parts[2]), int(parts[3]), int(parts[4]),
                           float(parts[5]), float(parts[6])))
        elif tag == "A":
            authors.append(float(parts[2]))
        elif tag == "C":
            key = (int(parts[1]), int(parts[2]))
            if key in contributions:
                raise ValueError(f"repeated C record for session {key[0]}, index {key[1]}")
            contribs = []
            if parts[4]:
                for item in parts[4].split(","):
                    gap, val = item.split(":")
                    contribs.append((int(gap), float(val)))
            contributions[key] = (float(parts[3]), tuple(contribs))
        else:
            raise ValueError(f"unknown record tag {tag!r}")

    artifacts.read(path, "groundtruth", parse)
    return GroundTruth(
        user_activity=np.array([u[0] for u in users]),
        user_revisit_prob=np.array([u[1] for u in users]),
        user_affinity=[u[2] for u in users],
        video_author=np.array([v[0] for v in videos], dtype=int),
        video_category=np.array([v[1] for v in videos], dtype=int),
        video_collection=np.array([v[2] for v in videos], dtype=int),
        video_quality=np.array([v[3] for v in videos]),
        video_promotion=np.array([v[4] for v in videos]),
        author_quality=np.array(authors),
        contributions=contributions,
    )
