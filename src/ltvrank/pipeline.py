"""End-to-end pipeline stages: gen, labels, train, eval, replay, report.

Each stage reads the artifacts of earlier stages from a working directory,
writes its own atomically, and embeds the resolved config hash plus master
seed in a ``#meta`` line. Rerunning a stage whose outputs already carry the
current hash is a no-op ("cached").
"""

from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np

from . import (artifacts, attribution, author_ltv, datamodel, fusion, metrics, pdq,
               predictor, synthgen)
from .artifacts import fmt_real
from .config import PipelineConfig
from .datamodel import Dataset, LabeledExample

STAGES = ("gen", "labels", "train", "eval", "replay", "report")

#: stage -> (input artifact names, output artifact names)
STAGE_FILES: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "gen": ((), ("dataset.txt", "groundtruth.txt")),
    "labels": (("dataset.txt",),
               ("tables.txt", "labeled.txt", "aggregates.txt", "diagnostics.txt")),
    "train": (("dataset.txt", "labeled.txt", "tables.txt", "aggregates.txt"),
              ("params.txt", "loss_trace.txt")),
    "eval": (("dataset.txt", "labeled.txt", "tables.txt", "aggregates.txt", "params.txt"),
             ("metrics.txt", "metrics_summary.txt")),
    "replay": (("dataset.txt", "groundtruth.txt", "tables.txt", "params.txt"),
               ("replay.txt",)),
    "report": (("dataset.txt", "labeled.txt", "tables.txt", "diagnostics.txt",
                "metrics_summary.txt", "replay.txt"),
               ("report.txt", "plot_page_slide.txt", "plot_quantiles.txt",
                "plot_slide_hist.txt")),
}


class StageInputError(ValueError):
    """A stage precondition failed: required input artifacts are missing."""


def _meta(config: PipelineConfig) -> str:
    return f"config={config.config_hash()} seed={config['seed']}"


def _check_inputs(stage: str, workdir: Path) -> None:
    missing = [str(workdir / name) for name in STAGE_FILES[stage][0]
               if not (workdir / name).exists()]
    if missing:
        raise StageInputError(
            f"stage {stage!r} is missing input artifacts: {', '.join(missing)}; "
            f"run the earlier stages first")


def _is_cached(stage: str, workdir: Path, meta: str) -> bool:
    outputs = STAGE_FILES[stage][1]
    return all(artifacts.has_meta(workdir / name, meta) for name in outputs)


def _split_days(dataset: Dataset, test_days: int) -> tuple[list[int], list[int]]:
    days = sorted({s.day for s in dataset.sessions})
    if test_days < 1 or test_days >= len(days):
        raise ValueError(f"train.test_days={test_days} must leave at least one "
                         f"training day out of {len(days)} observed days")
    return days[:-test_days], days[-test_days:]


def run_stage(stage: str, config: PipelineConfig, workdir) -> str:
    """Run one pipeline stage. Returns "ok" or "cached"."""
    if stage not in STAGES:
        raise ValueError(f"unknown stage {stage!r}; expected one of {', '.join(STAGES)}")
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    _check_inputs(stage, workdir)
    meta = _meta(config)
    if _is_cached(stage, workdir, meta):
        return "cached"
    runner = {
        "gen": _run_gen, "labels": _run_labels, "train": _run_train,
        "eval": _run_eval, "replay": _run_replay, "report": _run_report,
    }[stage]
    runner(config, workdir, meta)
    return "ok"


def run_stages(stages, config: PipelineConfig, workdir) -> dict[str, str]:
    """Run stages in pipeline order; returns stage -> status."""
    order = [s for s in STAGES if s in set(stages)]
    return {s: run_stage(s, config, workdir) for s in order}


# ---------------------------------------------------------------------------
# Stage bodies
# ---------------------------------------------------------------------------

def _run_gen(config: PipelineConfig, workdir: Path, meta: str) -> None:
    dataset, gt = synthgen.generate(config.gen_config())
    datamodel.save_dataset(workdir / "dataset.txt", dataset, meta=meta)
    synthgen.save_ground_truth(workdir / "groundtruth.txt", gt, meta=meta)


def _run_labels(config: PipelineConfig, workdir: Path, meta: str) -> None:
    dataset = datamodel.load_dataset(workdir / "dataset.txt")
    Q = float(config["cap_q"])
    spec = pdq.fit_page_groups(dataset, M=int(config["pdq.M"]),
                               mode=str(config["pdq.mode"]))
    tables = pdq.fit_tables(dataset, spec, T=int(config["pdq.T"]), Q=Q)
    pdq_labels = pdq.build_pdq_labels(dataset, spec, tables, Q=Q)
    att_cfg = config.attribution_config()
    att_cfg.validate()
    halflife = float(config["labels.completion_halflife"])
    threshold = float(config["labels.interaction_threshold"])
    examples: list[LabeledExample] = []
    for sess, labels in zip(dataset.sessions, pdq_labels):
        slide = datamodel.session_slide_times(sess, Q=Q)
        attr = attribution.session_attributed_slide_times(sess, att_cfg, Q=Q)
        for i, r in enumerate(sess.records):
            w = r.watch_time
            examples.append(LabeledExample(
                session_id=sess.session_id, index=i,
                slide_time=float(slide[i]), pdq_label=float(labels[i]),
                attributed_slide_time=float(attr[i]), watch_time_label=w,
                completion_label=float(1.0 - np.exp(-w / halflife)),
                interaction_label=1.0 if w > threshold else 0.0,
            ))
    aggregates = author_ltv.aggregate_author_days(dataset)
    diag = attribution.table1_diagnostics(dataset, att_cfg)
    pdq.save_tables(workdir / "tables.txt", spec, tables, meta=meta)
    datamodel.save_labeled(workdir / "labeled.txt", examples, meta=meta)
    author_ltv.save_aggregates(workdir / "aggregates.txt", aggregates, meta=meta)
    attribution.save_diagnostics(workdir / "diagnostics.txt", diag, meta=meta)


def _build_streams(dataset: Dataset, examples, spec, config: PipelineConfig,
                   aggregates=None):
    """Per-day (standard, delayed) StreamData for the training split."""
    by_key = {(e.session_id, e.index): e for e in examples}
    by_day: dict[int, list] = {}
    record_of: dict[tuple[int, int], object] = {}
    for sess in dataset.sessions:
        for i, r in enumerate(sess.records):
            record_of[(sess.session_id, i)] = r
        by_day.setdefault(sess.day, []).append(sess)

    train_days, _ = _split_days(dataset, int(config["train.test_days"]))
    N = int(config["author.window_n"])
    alpha = float(config["author.decay_alpha"])
    if aggregates is None:
        aggregates = author_ltv.aggregate_author_days(dataset)

    total = sum(len(s.records) for d in train_days for s in by_day.get(d, []))
    max_n = int(config["train.max_examples"])
    keep = min(1.0, max_n / total) if total > max_n else 1.0
    rng = np.random.default_rng(np.random.SeedSequence((int(config["seed"]), 0x50b)))

    days = []
    hc = predictor.HashConfig()
    for t in train_days:
        with warnings.catch_warnings():
            # early days legitimately have no matured delayed stream
            warnings.simplefilter("ignore", UserWarning)
            plan = author_ltv.plan_dual_stream(dataset, t, N=N, alpha=alpha,
                                               aggregates=aggregates)
        std_keys = plan.standard
        if keep < 1.0:
            mask = rng.random(len(std_keys)) < keep
            std_keys = [k for k, m in zip(std_keys, mask) if m]
        recs = [record_of[k] for k in std_keys]
        if not recs:
            continue
        feats = predictor.encode_features(recs, spec, hc)
        labels = {
            "pdq": np.array([by_key[k].pdq_label for k in std_keys]),
            "slide": np.array([by_key[k].slide_time for k in std_keys]),
            "attr": np.array([by_key[k].attributed_slide_time for k in std_keys]),
            "watch": np.array([by_key[k].watch_time_label for k in std_keys]),
            "completion": np.array([by_key[k].completion_label for k in std_keys]),
            "interaction": np.array([by_key[k].interaction_label for k in std_keys]),
        }
        std = predictor.StreamData(features=feats, labels=labels)
        delayed = None
        if plan.delayed:
            # delayed labels mature within the training split only if their
            # window ends on a training day
            usable = [(sid, i, y) for sid, i, y in plan.delayed]
            if keep < 1.0:
                mask = rng.random(len(usable)) < keep
                usable = [u for u, m in zip(usable, mask) if m]
            if usable:
                drecs = [record_of[(sid, i)] for sid, i, _ in usable]
                dfeats = predictor.encode_features(drecs, spec, hc)
                delayed = predictor.StreamData(
                    features=dfeats,
                    labels={"author": np.array([y for _, _, y in usable])})
        days.append((std, delayed))
    if not days:
        raise ValueError("training split is empty")
    return days


def _run_train(config: PipelineConfig, workdir: Path, meta: str) -> None:
    dataset = datamodel.load_dataset(workdir / "dataset.txt")
    examples = datamodel.load_labeled(workdir / "labeled.txt")
    spec, _ = pdq.load_tables(workdir / "tables.txt")
    aggregates = author_ltv.load_aggregates(workdir / "aggregates.txt")
    days = _build_streams(dataset, examples, spec, config, aggregates=aggregates)
    params, trace = predictor.train(days, config.train_config())
    predictor.save_params(workdir / "params.txt", params, meta=meta)
    artifacts.write(workdir / "loss_trace.txt", "loss-trace",
                    ["epoch\thead\tmean_loss"]
                    + [f"{epoch}\t{head}\t{fmt_real(row[head])}"
                       for epoch, row in enumerate(trace) for head in sorted(row)], meta)


def _test_examples(dataset: Dataset, examples, config: PipelineConfig):
    _, test_days = _split_days(dataset, int(config["train.test_days"]))
    test_set = set(test_days)
    by_key = {(e.session_id, e.index): e for e in examples}
    recs, exs, pages = [], [], []
    for sess in dataset.sessions:
        if sess.day in test_set:
            for i, r in enumerate(sess.records):
                recs.append(r)
                exs.append(by_key[(sess.session_id, i)])
                pages.append(r.page_index)
    return recs, exs, np.asarray(pages, dtype=np.int64), test_days


def _run_eval(config: PipelineConfig, workdir: Path, meta: str) -> None:
    dataset = datamodel.load_dataset(workdir / "dataset.txt")
    examples = datamodel.load_labeled(workdir / "labeled.txt")
    spec, _ = pdq.load_tables(workdir / "tables.txt")
    params = predictor.load_params(workdir / "params.txt")
    aggregates = author_ltv.load_aggregates(workdir / "aggregates.txt")
    seed = int(config["seed"])

    recs, exs, pages, _ = _test_examples(dataset, examples, config)
    max_n = int(config["eval.max_n"])
    if len(recs) > max_n:
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0xe7a1)))
        idx = np.sort(rng.choice(len(recs), size=max_n, replace=False))
        recs = [recs[i] for i in idx]
        exs = [exs[i] for i in idx]
        pages = pages[idx]
    feats = predictor.encode_features(recs, spec, params.hash_config)
    preds = predictor.predict(params, feats)
    groups = spec.group_array(pages)

    report = metrics.MetricsReport(dataset_id=str(workdir / "dataset.txt"),
                                   model_id=str(workdir / "params.txt"),
                                   seed=seed)
    label_of = {
        "pdq": np.array([e.pdq_label for e in exs]),
        "slide": np.array([e.slide_time for e in exs]),
        "attr": np.array([e.attributed_slide_time for e in exs]),
        "watch": np.array([e.watch_time_label for e in exs]),
        "completion": np.array([e.completion_label for e in exs]),
        "interaction": np.array([e.interaction_label for e in exs]),
    }
    for head, labels in label_of.items():
        if head in preds:
            g = groups if head in ("pdq", "slide") else None
            report.add_head(head, preds[head], labels, groups=g)

    # the author head needs matured labels: evaluate on the latest day whose
    # N-day window is fully observed
    N = int(config["author.window_n"])
    alpha = float(config["author.decay_alpha"])
    max_day = max(s.day for s in dataset.sessions)
    anchor = max_day - N
    if "author" in preds and anchor >= 0:
        arecs = [r for s in dataset.sessions if s.day == anchor for r in s.records]
        if arecs:
            afeats = predictor.encode_features(arecs, spec, params.hash_config)
            apreds = predictor.predict(params, afeats, heads=("author",))
            alabels = np.array([
                author_ltv.author_ltv_label(aggregates, r.user_id, r.author_id,
                                            t=anchor + N, N=N, alpha=alpha)
                for r in arecs])
            report.add_head("author", apreds["author"], alabels)

    cohort = {s.user_id for s in dataset.sessions if s.day == 0}
    for n in config.lt_windows():
        report.lt_n[n] = metrics.lt_n(cohort, dataset, n, anchor_day=0)

    metrics.save_report(workdir / "metrics.txt", report, meta=meta)
    artifacts.write(workdir / "metrics_summary.txt", "metrics-summary",
                    metrics.render_summary(report).splitlines(), meta)


def make_scorer(params, spec):
    """Session scorer for replay: session -> per-record head predictions."""
    def scorer(session):
        feats = predictor.encode_features(session.records, spec, params.hash_config)
        return predictor.predict(params, feats)
    return scorer


def _run_replay(config: PipelineConfig, workdir: Path, meta: str) -> None:
    dataset = datamodel.load_dataset(workdir / "dataset.txt")
    gt = synthgen.load_ground_truth(workdir / "groundtruth.txt")
    spec, _ = pdq.load_tables(workdir / "tables.txt")
    params = predictor.load_params(workdir / "params.txt")
    _, test_days = _split_days(dataset, int(config["train.test_days"]))
    report = fusion.replay_eval(
        dataset, gt, config.gen_config(), make_scorer(params, spec),
        config.fusion_weights(), config.fusion_weights(baseline=True),
        holdout_days=test_days, n_seeds=int(config["replay.n_seeds"]),
        base_seed=int(config["seed"]), lt_window=int(config["replay.lt_window"]))
    fusion.save_replay_report(workdir / "replay.txt", report, meta=meta)


def _run_report(config: PipelineConfig, workdir: Path, meta: str) -> None:
    dataset = datamodel.load_dataset(workdir / "dataset.txt")
    examples = datamodel.load_labeled(workdir / "labeled.txt")
    spec, tables = pdq.load_tables(workdir / "tables.txt")
    Q = float(config["cap_q"])

    # page index vs mean slide time and zero share (position-bias picture)
    sums: dict[int, float] = {}
    zeros: dict[int, int] = {}
    counts: dict[int, int] = {}
    for sess in dataset.sessions:
        st = datamodel.session_slide_times(sess, Q=Q)
        for r, s in zip(sess.records, st):
            p = r.page_index
            sums[p] = sums.get(p, 0.0) + float(s)
            zeros[p] = zeros.get(p, 0) + int(s == 0.0)
            counts[p] = counts.get(p, 0) + 1
    artifacts.write(workdir / "plot_page_slide.txt", "plot-page-slide",
                    ["page_index\tn\tmean_slide_time\tzero_fraction"]
                    + [f"{p}\t{counts[p]}\t{fmt_real(sums[p] / counts[p])}\t"
                       f"{fmt_real(zeros[p] / counts[p])}" for p in sorted(counts)], meta)

    # per-group quantile thresholds
    artifacts.write(workdir / "plot_quantiles.txt", "plot-quantiles",
                    ["group\tj\tthreshold"]
                    + [f"{k}\t{j}\t{fmt_real(th)}" for k in sorted(tables)
                       for j, th in enumerate(tables[k].thresholds, start=1)], meta)

    # slide-time and attributed-slide-time histograms on a shared grid
    slide = np.array([e.slide_time for e in examples])
    attr = np.array([e.attributed_slide_time for e in examples])
    edges = np.linspace(0.0, Q, 31)
    hist_s, _ = np.histogram(slide, bins=edges)
    hist_a, _ = np.histogram(attr, bins=edges)
    artifacts.write(workdir / "plot_slide_hist.txt", "plot-slide-hist",
                    ["bin_lo\tbin_hi\tslide_count\tattr_count"]
                    + [f"{fmt_real(edges[b])}\t{fmt_real(edges[b + 1])}\t{hist_s[b]}\t{hist_a[b]}"
                       for b in range(len(hist_s))], meta)

    # narrative report combining upstream summaries verbatim
    sections = [
        ("attribution coverage (share of downstream time / pairs per dimension)",
         "diagnostics.txt", "attribution-diagnostics"),
        ("head metrics", "metrics_summary.txt", "metrics-summary"),
        ("replay deltas (re-weighted minus baseline)", "replay.txt", "replay-report"),
    ]

    def lines():
        yield f"sessions={len(dataset.sessions)} impressions={dataset.n_records()}"
        yield "page groups: " + ", ".join(
            f"[{lo},{'inf' if hi is None else hi})" for lo, hi in spec.ranges)
        for k in sorted(tables):
            yield f"group {k}: S_k={tables[k].S_k} T={tables[k].T}"
        for title, name, kind in sections:
            yield f"\n== {title} =="
            yield from artifacts.read(workdir / name, kind, "\t".join)

    artifacts.write(workdir / "report.txt", "report", lines(), meta)
