"""Serving-time score fusion and counterfactual replay.

The fused score is a weighted sum of the three LTV heads (watch time,
attributed slide time, author value) multiplicatively calibrated by the
bounded heads (quantile, completion, interaction) raised to configurable
exponents. The replay loop re-ranks each held-out session's slate by the
fused score and re-simulates the generator's user model (zero-inflated
gamma watch, affinity scaling, carryover, early exit), reporting
directional metric deltas against a baseline weighting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import artifacts
from .artifacts import fmt_real
from .datamodel import Dataset, Session
from .synthgen import GenConfig, GroundTruth

MULTIPLICATIVE_HEADS = ("pdq", "completion", "interaction")
ADDITIVE_HEADS = ("watch", "attr", "author")


@dataclass
class FusionWeights:
    w_watch: float = 1.0
    w_attr: float = 1.0
    w_author: float = 1.0
    exponents: dict[str, float] = field(
        default_factory=lambda: {h: 1.0 for h in MULTIPLICATIVE_HEADS})

    def validate(self) -> None:
        if self.w_watch < 0 or self.w_attr < 0 or self.w_author < 0:
            raise ValueError("additive weights must be non-negative")
        if self.w_watch + self.w_attr + self.w_author <= 0:
            raise ValueError("at least one additive weight must be positive")
        for h, e in self.exponents.items():
            if e < 0:
                raise ValueError(f"exponent for {h} must be >= 0, got {e}")


def fused_score(preds: dict[str, np.ndarray], weights: FusionWeights) -> np.ndarray:
    """(w_watch*y_watch + w_attr*y_attr + w_author*y_author) * prod(y_h^e_h)."""
    weights.validate()
    additive = (weights.w_watch * np.asarray(preds["watch"], dtype=np.float64)
                + weights.w_attr * np.asarray(preds["attr"], dtype=np.float64)
                + weights.w_author * np.asarray(preds["author"], dtype=np.float64))
    out = additive
    for h in MULTIPLICATIVE_HEADS:
        e = weights.exponents.get(h, 0.0)
        if e == 0.0:
            continue
        vals = np.asarray(preds[h], dtype=np.float64)
        if np.any(vals <= 0):
            raise ValueError(f"multiplicative head {h!r} must be positive")
        out = out * vals ** e
    return out


def qa_authors(gt: GroundTruth, top_fraction: float = 0.1) -> set[int]:
    """High-quality author set: top decile by planted affinity mass."""
    n_authors = len(gt.author_quality)
    mass = np.zeros(n_authors)
    for affs in gt.user_affinity:
        for a, v in affs.items():
            mass[a] += v
    k = max(1, int(np.ceil(top_fraction * n_authors)))
    top = np.argsort(-mass, kind="stable")[:k]
    return {int(a) for a in top}


@dataclass
class ReplayOutcome:
    vv: float = 0.0
    watch: float = 0.0
    qa_watch: float = 0.0
    lt_n: float = 0.0


@dataclass
class ReplayReport:
    """Per-metric deltas (re-weighted minus baseline) with bootstrap CIs."""

    deltas: dict[str, float]
    ci: dict[str, tuple[float, float]]
    per_seed: dict[str, list[float]]


def _replay_session(rng, cfg: GenConfig, gt: GroundTruth, session: Session,
                    order: np.ndarray, qa: set[int],
                    cont_base: float = 0.75, cont_bonus: float = 0.2):
    """Simulate one user consuming a re-ranked slate with early exit."""
    user = session.user_id
    activity = gt.user_activity[user]
    engagement = 1.0 + cfg.position_bias_strength * activity
    videos = session["video_id"].tolist()
    authors = session["author_id"].tolist()
    cats = session["category_id"].tolist()
    watched_vids: list[int] = []
    vv = 0
    watch_total = 0.0
    qa_watch = 0.0
    pref_watch = 0.0
    for rank, idx in enumerate(order.tolist()):
        video, author, cat = videos[idx], authors[idx], cats[idx]
        aff = gt.affinity(user, author)
        zero_p = cfg.zero_watch_prob * (0.5 if aff > 0 else 1.0)
        if rng.random() >= zero_p:
            w = rng.gamma(cfg.watch_gamma_shape, cfg.watch_gamma_scale)
            w *= gt.video_quality[video] * (1.0 + cfg.author_affinity_strength * aff)
            w *= engagement
            # carryover from recently watched related videos
            for prev in watched_vids[-cfg.carryover_window:]:
                related = (gt.video_category[prev] == cat
                           or gt.video_author[prev] == author)
                if related and cfg.category_carryover_strength > 0:
                    w += cfg.category_carryover_strength * rng.exponential(cfg.carryover_scale)
        else:
            w = 0.0
        if w > 0:
            vv += 1
            watch_total += w
            watched_vids.append(video)
            if author in qa:
                qa_watch += w
            if aff > 0:
                pref_watch += w
        p_cont = min(0.98, cont_base + (cont_bonus if w > 0 else 0.0))
        if rank + 1 < len(order) and rng.random() >= p_cont:
            break
    return vv, watch_total, qa_watch, pref_watch


def replay(dataset: Dataset, gt: GroundTruth, gen_config: GenConfig,
           scorer, weights: FusionWeights, holdout_days, seed: int,
           lt_window: int = 3) -> ReplayOutcome:
    """Replay every held-out session re-ranked by fused score.

    ``scorer(session) -> dict[head, np.ndarray]`` supplies per-record head
    predictions. Deterministic under ``seed``.
    """
    weights.validate()
    holdout = set(holdout_days)
    sessions = [s for s in dataset.sessions if s.day in holdout]
    if not sessions:
        raise ValueError("held-out split is empty")
    anchor = min(holdout) - 1
    qa = qa_authors(gt)
    revisit_by_user: dict[int, int] = {}
    users: set[int] = set()
    total = ReplayOutcome()
    for sess in sessions:
        preds = scorer(sess)
        scores = fused_score(preds, weights)
        order = np.lexsort((np.arange(len(scores)), -scores))
        rng = np.random.default_rng(np.random.SeedSequence((seed, sess.session_id)))
        vv, watch, qa_w, pref_watch = _replay_session(
            rng, gen_config, gt, sess, order, qa)
        total.vv += vv
        total.watch += watch
        total.qa_watch += qa_w
        users.add(sess.user_id)
        # revisit propensity grows with preferred-author watch in this session
        if sess.day <= anchor + lt_window:
            p_rev = min(1.0, gen_config.revisit_base_prob
                        + 0.4 * (1.0 - np.exp(-pref_watch / 60.0)))
            if rng.random() < p_rev:
                revisit_by_user[sess.user_id] = 1
    total.lt_n = sum(revisit_by_user.values()) / len(users)
    return total


def replay_eval(dataset: Dataset, gt: GroundTruth, gen_config: GenConfig,
                scorer, weights: FusionWeights, baseline_weights: FusionWeights,
                holdout_days, n_seeds: int = 20, base_seed: int = 0,
                lt_window: int = 3) -> ReplayReport:
    """Directional report: metric deltas of ``weights`` over ``baseline_weights``
    across ``n_seeds`` replay seeds, with percentile confidence intervals."""
    metrics = ("vv", "watch", "qa_watch", "lt_n")
    per_seed: dict[str, list[float]] = {m: [] for m in metrics}
    # every seed and both weightings replay the same sessions: score each once
    scored: dict[int, dict[str, np.ndarray]] = {}

    def scorer_once(session):
        if session.session_id not in scored:
            scored[session.session_id] = scorer(session)
        return scored[session.session_id]

    for s in range(n_seeds):
        seed = base_seed + s
        test = replay(dataset, gt, gen_config, scorer_once, weights, holdout_days,
                      seed=seed, lt_window=lt_window)
        base = replay(dataset, gt, gen_config, scorer_once, baseline_weights,
                      holdout_days, seed=seed, lt_window=lt_window)
        for m in metrics:
            per_seed[m].append(getattr(test, m) - getattr(base, m))
    deltas = {m: float(np.mean(per_seed[m])) for m in metrics}
    ci = {}
    for m in metrics:
        arr = np.sort(np.asarray(per_seed[m]))
        lo = arr[max(0, int(0.05 * len(arr)))]
        hi = arr[min(len(arr) - 1, int(np.ceil(0.95 * len(arr))) - 1)]
        ci[m] = (float(lo), float(hi))
    return ReplayReport(deltas=deltas, ci=ci, per_seed=per_seed)


def save_replay_report(path, report: ReplayReport, meta: str | None = None) -> None:
    def lines():
        yield "metric\tdelta\tci_lo\tci_hi"
        for m in sorted(report.deltas):
            lo, hi = report.ci[m]
            yield f"{m}\t{fmt_real(report.deltas[m])}\t{fmt_real(lo)}\t{fmt_real(hi)}"

    artifacts.write(path, "replay-report", lines(), meta)
