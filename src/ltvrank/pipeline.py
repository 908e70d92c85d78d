"""End-to-end pipeline stages: gen, labels, train, eval, replay, report.

Each stage reads the artifacts of earlier stages from a working directory
and writes its own atomically, with a ``#meta key=<key> seed=<seed>`` line.
A stage's key hashes its name, the config keys it reads (``STAGE_READS``)
and the keys on the ``#meta`` lines of its input artifacts, so it covers
everything upstream of the stage and nothing else: a key only replay reads
reruns replay and report, not the stages before them. Rerunning a stage
whose outputs already carry its key is a no-op ("cached"). Before that
check, a stage refuses a stale input: one whose key, or the key of any
artifact it was built from, differs from the key its writer has under the
current config.

Stages run in one invocation (``run_stages``, ``ltvrank all``) share a dict
from artifact name to object. A stage stores each artifact it saves there,
and a later stage takes its inputs from it, so each artifact is parsed at
most once per invocation. An input whose writer did not run in this
invocation (it was cached, or the stages run one command at a time) is
loaded from disk by the artifact's strict loader and then kept in the dict
too. Every writer formats reals with shortest round-trip ``repr``, so the
object a stage saved equals what the loader would return from its bytes;
stage bodies never mutate an object they take from the dict.
"""

from __future__ import annotations

import hashlib
import warnings
from pathlib import Path

import numpy as np

from . import (artifacts, attribution, author_ltv, datamodel, fusion, metrics, pdq,
               predictor, synthgen)
from .artifacts import fmt_real
from .config import DEFAULTS, PipelineConfig
from .datamodel import KEY_COLUMNS, LABEL_COLUMNS, Dataset

STAGES = ("gen", "labels", "train", "eval", "replay", "report")

#: stage -> (input artifact names, output artifact names)
STAGE_FILES: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "gen": ((), ("dataset.txt", "videos.txt", "groundtruth.txt")),
    "labels": (("dataset.txt", "videos.txt"),
               ("tables.txt", "labeled.txt", "aggregates.txt", "diagnostics.txt")),
    "train": (("dataset.txt", "videos.txt", "labeled.txt", "aggregates.txt"),
              ("params.txt", "loss_trace.txt")),
    "eval": (("dataset.txt", "videos.txt", "labeled.txt", "aggregates.txt", "params.txt"),
             ("metrics.txt", "metrics_summary.txt")),
    "replay": (("dataset.txt", "videos.txt", "groundtruth.txt", "params.txt"),
               ("replay.txt",)),
    "report": (("dataset.txt", "videos.txt", "labeled.txt", "tables.txt", "diagnostics.txt",
                "metrics_summary.txt", "replay.txt"),
               ("report.txt", "plot_page_slide.txt", "plot_quantiles.txt",
                "plot_slide_hist.txt")),
}

#: stage -> the config keys its body reads; ``p.*`` stands for every key
#: that starts with ``p.``
STAGE_READS: dict[str, tuple[str, ...]] = {
    "gen": ("seed", "gen.*"),
    "labels": ("cap_q", "pdq.*", "attribution.*", "labels.*"),
    "train": ("seed", "train.*", "author.*"),
    "eval": ("seed", "train.test_days", "eval.*", "author.*"),
    "replay": ("seed", "gen.*", "train.test_days", "fusion.*", "replay.*"),
    "report": ("cap_q",),
}


#: artifact name -> the stage that writes it
_WRITER = {name: stage for stage, (_, outputs) in STAGE_FILES.items() for name in outputs}


class StageInputError(ValueError):
    """A stage precondition failed: an input artifact is missing or stale."""


def declared_keys(stage: str) -> list[str]:
    """The config keys ``stage`` reads, with each ``p.*`` expanded."""
    reads = STAGE_READS[stage]
    return sorted(k for k in DEFAULTS if k in reads or any(
        r.endswith(".*") and k.startswith(r[:-1]) for r in reads))


def stage_key(stage: str, config: PipelineConfig, workdir) -> str:
    """Cache key of ``stage``: sha256 of its name, its declared config keys
    and the ``#meta`` keys of its input artifacts in ``workdir``."""
    text = (f"{stage}\n" + config.canonical(declared_keys(stage))
            + "".join(f"{name} {artifacts.meta_key(Path(workdir) / name)}\n"
                      for name in STAGE_FILES[stage][0]))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _check_inputs(stage: str, workdir: Path) -> None:
    missing = [str(workdir / name) for name in STAGE_FILES[stage][0]
               if not (workdir / name).exists()]
    if missing:
        raise StageInputError(
            f"stage {stage!r} is missing input artifacts: {', '.join(missing)}; "
            f"run the earlier stages first")


def _check_current(stage: str, config: PipelineConfig, workdir: Path,
                   keys: dict[str, str]) -> None:
    """Raise unless every input of ``stage``, and every artifact those were
    built from, carries the key its writer has under ``config``. ``keys``
    holds the writers already checked, with their keys."""
    for name in STAGE_FILES[stage][0]:
        writer = _WRITER[name]
        if writer not in keys:
            _check_inputs(writer, workdir)
            _check_current(writer, config, workdir, keys)
            keys[writer] = stage_key(writer, config, workdir)
        if artifacts.meta_key(workdir / name) != keys[writer]:
            raise StageInputError(
                f"input artifact {workdir / name} is stale: it was not written by "
                f"stage {writer!r} under this config and inputs; rerun {writer!r} "
                f"and the stages after it")


def _is_cached(stage: str, workdir: Path, meta: str) -> bool:
    outputs = STAGE_FILES[stage][1]
    return all(artifacts.has_meta(workdir / name, meta) for name in outputs)


def _split_days(dataset: Dataset, test_days: int) -> tuple[list[int], list[int]]:
    days = np.unique(dataset.columns["day"]).tolist()
    if test_days < 1 or test_days >= len(days):
        raise ValueError(f"train.test_days={test_days} must leave at least one "
                         f"training day out of {len(days)} observed days")
    return days[:-test_days], days[-test_days:]


def _row_keys(dataset: Dataset) -> dict[str, np.ndarray]:
    """``session_id`` and ``index`` of every impression, in dataset order."""
    starts = dataset.bounds[:-1]
    return {"session_id": dataset.columns["session_id"],
            "index": np.arange(dataset.n_records()) - np.repeat(starts, np.diff(dataset.bounds))}


def _raw_ids(columns, rows=slice(None)) -> np.ndarray:
    """``predictor.ID_COLUMNS`` of ``rows`` of a dataset's columns or a session."""
    return np.column_stack([columns[name][rows] for name in predictor.ID_COLUMNS])


def _load_labels(workdir: Path, loaded: dict) -> dict[str, np.ndarray]:
    """``labeled.txt``'s columns, checked to hold one row per impression of
    ``dataset.txt`` in dataset order, so that row ``i`` of every column
    labels the dataset's ``i``-th impression."""
    path = workdir / "labeled.txt"
    labels = datamodel.load_labeled(path)
    keys = _row_keys(_input("dataset.txt", workdir, loaded))
    if not all(np.array_equal(labels[name], keys[name]) for name in KEY_COLUMNS):
        raise ValueError(f"{path} does not hold one row per impression of "
                         f"{workdir / 'dataset.txt'} in dataset order; "
                         f"rerun the labels stage")
    return labels


def _load_ground_truth(workdir: Path, loaded: dict) -> synthgen.GroundTruth:
    """``groundtruth.txt``, checked to hold every user, video and author of
    ``dataset.txt``, and to give each logged video the log's author and category."""
    path = workdir / "groundtruth.txt"
    gt = synthgen.load_ground_truth(path)
    columns = _input("dataset.txt", workdir, loaded).columns
    for tag, name, records in (("U", "user_id", gt.user_activity),
                               ("V", "video_id", gt.video_author),
                               ("A", "author_id", gt.author_quality)):
        if columns[name].max() >= len(records):
            raise ValueError(f"{path} holds {len(records)} {tag} records, but the log "
                             f"references {name} {columns[name].max()}; rerun the gen stage")
    for name, planted in (("author_id", gt.video_author), ("category_id", gt.video_category)):
        if not np.array_equal(planted[columns["video_id"]], columns[name]):
            raise ValueError(f"{path} disagrees with the log on a video's {name}; "
                             f"rerun the gen stage")
    return gt


#: input artifact -> its loader from disk, given (workdir, loaded). Loaders
#: are looked up on their modules at call time, so wrappers installed there
#: see every disk load. ``dataset.txt``'s loader also reads ``videos.txt``.
_LOADERS = {
    "dataset.txt": lambda workdir, _: datamodel.load_dataset(workdir / "dataset.txt"),
    "groundtruth.txt": _load_ground_truth,
    "labeled.txt": _load_labels,
    "tables.txt": lambda workdir, _: pdq.load_tables(workdir / "tables.txt"),
    "aggregates.txt": lambda workdir, _: author_ltv.load_aggregates(
        workdir / "aggregates.txt"),
    "params.txt": lambda workdir, _: predictor.load_params(workdir / "params.txt"),
}


def _input(name: str, workdir: Path, loaded: dict):
    """Input artifact ``name``: the object this invocation already holds,
    else the one its loader reads from disk (then held for later stages)."""
    if name not in loaded:
        loaded[name] = _LOADERS[name](workdir, loaded)
    return loaded[name]


def run_stage(stage: str, config: PipelineConfig, workdir, loaded=None) -> str:
    """Run one pipeline stage. Returns "ok" or "cached".

    ``loaded`` maps artifact names to the objects earlier stages of the same
    invocation saved or loaded; the stage takes its inputs from it and adds
    the artifacts it saves.
    """
    if stage not in STAGES:
        raise ValueError(f"unknown stage {stage!r}; expected one of {', '.join(STAGES)}")
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    _check_inputs(stage, workdir)
    _check_current(stage, config, workdir, {})
    meta = f"key={stage_key(stage, config, workdir)} seed={config['seed']}"
    if _is_cached(stage, workdir, meta):
        return "cached"
    loaded = {} if loaded is None else loaded
    for name in STAGE_FILES[stage][1]:
        loaded.pop(name, None)
    RUNNERS[stage](config, workdir, meta, loaded)
    return "ok"


def run_stages(stages, config: PipelineConfig, workdir) -> dict[str, str]:
    """Run stages in pipeline order, each handing its artifacts to the
    later ones in memory; returns stage -> status."""
    order = [s for s in STAGES if s in set(stages)]
    loaded: dict = {}
    return {s: run_stage(s, config, workdir, loaded) for s in order}


# ---------------------------------------------------------------------------
# Stage bodies
# ---------------------------------------------------------------------------

def _run_gen(config: PipelineConfig, workdir: Path, meta: str, loaded: dict) -> None:
    dataset, gt = synthgen.generate(config.gen_config())
    datamodel.save_dataset(workdir / "dataset.txt", dataset, meta=meta)
    synthgen.save_ground_truth(workdir / "groundtruth.txt", gt, meta=meta)
    loaded.update({"dataset.txt": dataset, "groundtruth.txt": gt})


def _run_labels(config: PipelineConfig, workdir: Path, meta: str, loaded: dict) -> None:
    T, Q = int(config["pdq.T"]), float(config["cap_q"])
    for key, value in (("pdq.T", T), ("cap_q", Q)):
        if value <= 0:
            raise ValueError(f"{key} must be positive, got {value}")
    dataset = _input("dataset.txt", workdir, loaded)
    slide = datamodel.slide_times(dataset, Q=Q)
    groups = pdq.page_groups(dataset.columns["page_index"])
    tables = pdq.fit_tables(slide, groups, T=T)
    att_cfg = config.attribution_config()
    att_cfg.validate()
    watch = dataset.columns["watch_time"]
    labels = {
        **_row_keys(dataset),
        "slide": slide,
        "pdq": pdq.build_pdq_labels(slide, groups, tables),
        "attr": np.concatenate([attribution.session_attributed_slide_times(s, att_cfg, Q=Q)
                                for s in dataset.sessions]),
        "watch": watch,
        "completion": 1.0 - np.exp(-watch / float(config["labels.completion_halflife"])),
        "interaction": (watch > float(config["labels.interaction_threshold"])).astype(np.float64),
    }
    aggregates = author_ltv.aggregate_author_days(dataset)
    diag = attribution.table1_diagnostics(dataset, att_cfg)
    pdq.save_tables(workdir / "tables.txt", tables, meta=meta)
    datamodel.save_labeled(workdir / "labeled.txt", labels, meta=meta)
    author_ltv.save_aggregates(workdir / "aggregates.txt", aggregates, meta=meta)
    attribution.save_diagnostics(workdir / "diagnostics.txt", diag, meta=meta)
    loaded.update({"tables.txt": tables, "labeled.txt": labels,
                   "aggregates.txt": aggregates})


def _build_streams(dataset: Dataset, labels, config: PipelineConfig, aggregates):
    """Per-day (standard, delayed) StreamData for the training split."""
    feats = predictor.encode_features(_raw_ids(dataset.columns))
    train_days, _ = _split_days(dataset, int(config["train.test_days"]))
    N = int(config["author.window_n"])
    alpha = float(config["author.decay_alpha"])

    total = int(np.isin(dataset.columns["day"], train_days).sum())
    max_n = int(config["train.max_examples"])
    keep = min(1.0, max_n / total) if total > max_n else 1.0
    rng = np.random.default_rng(np.random.SeedSequence((int(config["seed"]), 0x50b)))

    days = []
    for t in train_days:
        with warnings.catch_warnings():
            # early days legitimately have no matured delayed stream
            warnings.simplefilter("ignore", UserWarning)
            plan = author_ltv.plan_dual_stream(dataset, t, N=N, alpha=alpha,
                                               aggregates=aggregates)
        rows = plan.standard
        if keep < 1.0:
            rows = rows[rng.random(len(rows)) < keep]
        if not len(rows):
            continue
        std = predictor.StreamData(features=feats[rows],
                                   labels={head: labels[head][rows] for head in LABEL_COLUMNS})
        delayed = None
        if len(plan.delayed):
            # delayed labels mature within the training split only if their
            # window ends on a training day
            drows, author = plan.delayed, plan.author_labels
            if keep < 1.0:
                mask = rng.random(len(drows)) < keep
                drows, author = drows[mask], author[mask]
            if len(drows):
                delayed = predictor.StreamData(features=feats[drows],
                                               labels={"author": author})
        days.append((std, delayed))
    if not days:
        raise ValueError("training split is empty")
    return days


def _run_train(config: PipelineConfig, workdir: Path, meta: str, loaded: dict) -> None:
    dataset = _input("dataset.txt", workdir, loaded)
    labels = _input("labeled.txt", workdir, loaded)
    aggregates = _input("aggregates.txt", workdir, loaded)
    days = _build_streams(dataset, labels, config, aggregates)
    params, trace = predictor.train(days, config.train_config())
    predictor.save_params(workdir / "params.txt", params, meta=meta)
    loaded["params.txt"] = params
    artifacts.write(workdir / "loss_trace.txt", "loss-trace",
                    ["epoch\thead\tmean_loss"]
                    + [f"{epoch}\t{head}\t{fmt_real(row[head])}"
                       for epoch, row in enumerate(trace) for head in sorted(row)], meta)


def _run_eval(config: PipelineConfig, workdir: Path, meta: str, loaded: dict) -> None:
    dataset = _input("dataset.txt", workdir, loaded)
    labels = _input("labeled.txt", workdir, loaded)
    params = _input("params.txt", workdir, loaded)
    aggregates = _input("aggregates.txt", workdir, loaded)
    seed = int(config["seed"])

    _, test_days = _split_days(dataset, int(config["train.test_days"]))
    day = dataset.columns["day"]
    rows = np.flatnonzero(np.isin(day, test_days))
    max_n = int(config["eval.max_n"])
    if len(rows) > max_n:
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0xe7a1)))
        rows = rows[np.sort(rng.choice(len(rows), size=max_n, replace=False))]
    # encode only the rows predicted: the test rows here, the author rows below
    preds = predictor.predict(params, predictor.encode_features(
        _raw_ids(dataset.columns, rows)))
    groups = pdq.page_groups(dataset.columns["page_index"][rows])

    report = metrics.MetricsReport(dataset_id=artifacts.meta_key(workdir / "dataset.txt"),
                                   model_id=artifacts.meta_key(workdir / "params.txt"),
                                   seed=seed)
    for head in LABEL_COLUMNS:
        if head in preds:
            g = groups if head in ("pdq", "slide") else None
            report.add_head(head, preds[head], labels[head][rows], groups=g)

    # the author head needs matured labels: evaluate on the delayed stream of
    # the last day, whose anchor day's N-day window is fully observed
    N = int(config["author.window_n"])
    alpha = float(config["author.decay_alpha"])
    max_day = int(day.max())
    if "author" in preds and max_day >= N:
        plan = author_ltv.plan_dual_stream(dataset, max_day, N, alpha, aggregates=aggregates)
        if len(plan.delayed):
            feats = predictor.encode_features(_raw_ids(dataset.columns, plan.delayed))
            apreds = predictor.predict(params, feats, heads=("author",))
            report.add_head("author", apreds["author"], plan.author_labels)

    cohort = set(dataset.columns["user_id"][day == 0].tolist())
    for n in config.lt_windows():
        report.lt_n[n] = metrics.lt_n(cohort, dataset, n, anchor_day=0)

    metrics.save_report(workdir / "metrics.txt", report, meta=meta)
    artifacts.write(workdir / "metrics_summary.txt", "metrics-summary",
                    metrics.render_summary(report).splitlines(), meta)


def make_scorer(params):
    """Session scorer for replay: session -> per-record head predictions."""
    def scorer(session):
        feats = predictor.encode_features(_raw_ids(session))
        return predictor.predict(params, feats)
    return scorer


def _run_replay(config: PipelineConfig, workdir: Path, meta: str, loaded: dict) -> None:
    dataset = _input("dataset.txt", workdir, loaded)
    gt = _input("groundtruth.txt", workdir, loaded)
    params = _input("params.txt", workdir, loaded)
    _, test_days = _split_days(dataset, int(config["train.test_days"]))
    report = fusion.replay_eval(
        dataset, gt, config.gen_config(), make_scorer(params),
        config.fusion_weights(), config.fusion_weights(baseline=True),
        holdout_days=test_days, n_seeds=int(config["replay.n_seeds"]),
        base_seed=int(config["seed"]), lt_window=int(config["replay.lt_window"]))
    fusion.save_replay_report(workdir / "replay.txt", report, meta=meta)


def _run_report(config: PipelineConfig, workdir: Path, meta: str, loaded: dict) -> None:
    dataset = _input("dataset.txt", workdir, loaded)
    labels = _input("labeled.txt", workdir, loaded)
    tables = _input("tables.txt", workdir, loaded)
    Q = float(config["cap_q"])

    # page index vs mean slide time and zero share (position-bias picture)
    slide = labels["slide"]
    pages = dataset.columns["page_index"]
    counts = np.bincount(pages)
    sums = np.bincount(pages, weights=slide)
    zeros = np.bincount(pages[slide == 0.0], minlength=len(counts))
    artifacts.write(workdir / "plot_page_slide.txt", "plot-page-slide",
                    ["page_index\tn\tmean_slide_time\tzero_fraction"]
                    + [f"{p}\t{counts[p]}\t{fmt_real(sums[p] / counts[p])}\t"
                       f"{fmt_real(zeros[p] / counts[p])}" for p in np.flatnonzero(counts)],
                    meta)

    # per-group quantile thresholds
    artifacts.write(workdir / "plot_quantiles.txt", "plot-quantiles",
                    ["group\tj\tthreshold"]
                    + [f"{k}\t{j}\t{fmt_real(th)}" for k in sorted(tables)
                       for j, th in enumerate(tables[k].thresholds, start=1)], meta)

    # slide-time and attributed-slide-time histograms on a shared grid
    edges = np.linspace(0.0, Q, 31)
    hist_s, _ = np.histogram(slide, bins=edges)
    hist_a, _ = np.histogram(labels["attr"], bins=edges)
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
            f"[{lo},{'inf' if hi is None else hi})" for lo, hi in pdq.PAGE_GROUPS)
        for k in sorted(tables):
            yield f"group {k}: S_k={tables[k].S_k} T={tables[k].T}"
        for title, name, kind in sections:
            yield f"\n== {title} =="
            yield from artifacts.read(workdir / name, kind, "\t".join)

    artifacts.write(workdir / "report.txt", "report", lines(), meta)


#: stage -> its body, called as ``body(config, workdir, meta, loaded)``
RUNNERS = {"gen": _run_gen, "labels": _run_labels, "train": _run_train,
           "eval": _run_eval, "replay": _run_replay, "report": _run_report}
