"""Serving-time score fusion and counterfactual replay.

The fused score is a weighted sum of the three LTV heads (watch time,
attributed slide time, author value) multiplicatively calibrated by the
bounded heads (quantile, completion, interaction) raised to configurable
exponents. The replay loop re-ranks each held-out session's slate by the
fused score and draws the user's watch times through the generator's own
user model (``synthgen.session_factors`` and ``synthgen.draw_watch``), with
an early exit, reporting directional metric deltas against a baseline
weighting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import artifacts, synthgen
from .artifacts import fmt_real
from .datamodel import Dataset, Session
from .synthgen import GenConfig, GroundTruth

MULTIPLICATIVE_HEADS = ("pdq", "completion", "interaction")


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


@dataclass
class _Slate:
    """A held-out session's replay inputs that no draw changes: its head
    predictions, its per-row factors (``synthgen.session_factors``' three,
    then whether the row's author is in the QA set and preferred by the
    user), and those factors in the row order of each weighting replayed."""

    session: Session
    preds: dict[str, np.ndarray]
    factors: tuple
    orders: dict[tuple, tuple] = field(default_factory=dict)

    def shown(self, order: np.ndarray) -> tuple:
        """The factors in ``order``, as ``draw_watch`` and ``replay`` read them."""
        zero_p, scale, related, in_qa, preferred = self.factors
        return (zero_p[order], scale[order], related[np.ix_(order, order)].tolist(),
                in_qa[order].tolist(), preferred[order].tolist())


def _slate(cfg: GenConfig, gt: GroundTruth, session: Session, preds, qa: set[int]) -> _Slate:
    user, authors = session.user_id, session["author_id"].tolist()
    emb = np.array(session["content_embedding"].tolist())
    factors = synthgen.session_factors(cfg, gt, user, session["video_id"], session["author_id"],
                                       session["category_id"], emb)
    in_qa = np.array([a in qa for a in authors])
    preferred = np.array([a in gt.user_affinity[user] for a in authors])
    return _Slate(session, preds, (*factors, in_qa, preferred))


def replay(dataset: Dataset, gt: GroundTruth, gen_config: GenConfig,
           scorer, weights: FusionWeights, holdout_days, seed: int,
           lt_window: int = 3, slates: list | None = None) -> ReplayOutcome:
    """Replay every held-out session re-ranked by fused score.

    ``scorer(session) -> dict[head, np.ndarray]`` supplies per-record head
    predictions. Deterministic under ``seed``. Replays of one held-out split
    may share a ``slates`` list: the first fills it with each held-out
    session's predictions and user-model factors, and each session keeps its
    order under every weighting replayed, so later replays only draw.
    """
    weights.validate()
    holdout = set(holdout_days)
    slates = [] if slates is None else slates
    if not slates:
        qa = qa_authors(gt)
        slates.extend(_slate(gen_config, gt, s, scorer(s), qa)
                      for s in dataset.sessions if s.day in holdout)
    if not slates:
        raise ValueError("held-out split is empty")
    anchor = min(holdout) - 1
    key = (weights.w_watch, weights.w_attr, weights.w_author,
           tuple(sorted(weights.exponents.items())))
    revisited: set[int] = set()
    vv = watch_total = qa_watch = 0.0
    for slate in slates:
        if key not in slate.orders:
            scores = fused_score(slate.preds, weights)
            slate.orders[key] = slate.shown(np.lexsort((np.arange(len(scores)), -scores)))
        zero_p, scale, related, in_qa, preferred = slate.orders[key]
        sess = slate.session
        rng = np.random.default_rng(np.random.SeedSequence((seed, sess.session_id)))
        # after each row the user stays with chance min(0.98, 0.75 + 0.2 * watched)
        _, _, watch = synthgen.draw_watch(gen_config, rng, zero_p, scale, related,
                                          stay=(0.75, 0.95))
        pref_watch = 0.0
        for w, qa, preferred_author in zip(watch, in_qa, preferred):
            if w > 0:
                vv += 1
                watch_total += w
                if qa:
                    qa_watch += w
                if preferred_author:
                    pref_watch += w
        # revisit propensity grows with preferred-author watch in this session
        if sess.day <= anchor + lt_window:
            p_rev = min(1.0, gen_config.revisit_base_prob
                        + 0.4 * (1.0 - np.exp(-pref_watch / 60.0)))
            if rng.random() < p_rev:
                revisited.add(sess.user_id)
    return ReplayOutcome(vv, watch_total, qa_watch,
                         len(revisited) / len({slate.session.user_id for slate in slates}))


def replay_eval(dataset: Dataset, gt: GroundTruth, gen_config: GenConfig,
                scorer, weights: FusionWeights, baseline_weights: FusionWeights,
                holdout_days, n_seeds: int = 20, base_seed: int = 0,
                lt_window: int = 3) -> ReplayReport:
    """Directional report: metric deltas of ``weights`` over ``baseline_weights``
    across ``n_seeds`` replay seeds, with percentile confidence intervals."""
    if n_seeds < 1:
        raise ValueError(f"replay.n_seeds must be >= 1, got {n_seeds}")
    metrics = ("vv", "watch", "qa_watch", "lt_n")
    per_seed: dict[str, list[float]] = {m: [] for m in metrics}
    # every seed and both weightings replay the same sessions: the first
    # replay scores each once, and each weighting orders each once
    slates: list[_Slate] = []
    for s in range(n_seeds):
        seed = base_seed + s
        test = replay(dataset, gt, gen_config, scorer, weights, holdout_days,
                      seed=seed, lt_window=lt_window, slates=slates)
        base = replay(dataset, gt, gen_config, scorer, baseline_weights,
                      holdout_days, seed=seed, lt_window=lt_window, slates=slates)
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
