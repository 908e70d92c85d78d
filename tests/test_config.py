import hashlib
import importlib.util
import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from ltvrank import datamodel
from ltvrank.config import (
    ConfigError,
    DEFAULTS,
    PipelineConfig,
    load_config,
    parse_config_text,
)
from ltvrank.pipeline import (RUNNERS, STAGE_FILES, STAGES, StageInputError, declared_keys,
                              run_stage, run_stages, stage_key)

TINY = {
    "gen.n_users": "40", "gen.n_videos": "300", "gen.n_authors": "15",
    "gen.n_categories": "5", "gen.n_days": "9",
    "pdq.T": "20", "train.epochs": "1", "replay.n_seeds": "2",
}


class TestConfig:
    def test_defaults(self):
        cfg = PipelineConfig()
        assert cfg["seed"] == 0
        assert cfg["pdq.T"] == 50
        assert cfg["author.window_n"] == 7
        assert cfg["fusion.baseline_w_author"] == 0.0

    def test_unknown_keys_all_listed(self):
        with pytest.raises(ConfigError, match="bogus.*nope") as err:
            PipelineConfig({"nope": "1", "bogus": "2"})
        assert "unknown config keys" in str(err.value)

    def test_coercion_from_strings(self):
        cfg = PipelineConfig({"seed": "7", "train.lam": "0.25",
                              "eval.lt_windows": "1,7"})
        assert cfg["seed"] == 7
        assert cfg["train.lam"] == 0.25
        assert cfg["eval.lt_windows"] == "1,7"

    def test_coercion_failure_names_key(self):
        with pytest.raises(ConfigError, match="train.epochs"):
            PipelineConfig({"train.epochs": "three"})

    def test_hash_stable_and_sensitive(self, tmp_path):
        a = PipelineConfig({"seed": "1"})
        b = PipelineConfig({"seed": "1"})
        c = PipelineConfig({"seed": "2"})
        d = PipelineConfig({"seed": "1", "fusion.w_author": "2.0"})
        assert stage_key("gen", a, tmp_path) == stage_key("gen", b, tmp_path)
        assert stage_key("gen", a, tmp_path) != stage_key("gen", c, tmp_path)
        # a key only replay reads leaves the generator's key alone
        assert stage_key("gen", a, tmp_path) == stage_key("gen", d, tmp_path)
        assert stage_key("replay", a, tmp_path) != stage_key("replay", d, tmp_path)
        assert len(stage_key("gen", a, tmp_path)) == 16

    def test_parse_config_text(self):
        text = "# a comment\nseed = 3\n\ntrain.lam = 0.2  # inline\n"
        assert parse_config_text(text) == {"seed": "3", "train.lam": "0.2"}

    def test_parse_rejects_bad_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("seed = 1\nnot a pair\n")

    def test_load_config_file_plus_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 5\ntrain.epochs = 2\n")
        cfg = load_config(path, overrides={"train.epochs": "9"})
        assert cfg["seed"] == 5
        assert cfg["train.epochs"] == 9

    def test_sub_config_mapping(self):
        cfg = PipelineConfig({"seed": "4", "gen.n_users": "77",
                              "train.lam": "0.3", "fusion.w_author": "2.5",
                              "eval.lt_windows": "1,3,7"})
        gen = cfg.gen_config()
        assert gen.seed == 4 and gen.n_users == 77
        train = cfg.train_config()
        assert train.lam == 0.3 and train.seed == 4
        assert cfg.fusion_weights().w_author == 2.5
        assert cfg.fusion_weights(baseline=True).w_author == 0.0
        assert cfg.lt_windows() == [1, 3, 7]

    def test_every_default_round_trips_through_canonical(self):
        cfg = PipelineConfig()
        text = cfg.canonical()
        for key in DEFAULTS:
            assert f"{key} = " in text


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("pipe")
    config = load_config(overrides=TINY)
    statuses = run_stages(STAGES, config, workdir)
    return workdir, config, statuses


def _import_perfbench(name):
    """A module of the benchmark, loaded from its file."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestPipeline:
    def test_all_stages_ok(self, pipeline_dir):
        _, _, statuses = pipeline_dir
        assert statuses == {s: "ok" for s in STAGES}

    def test_rerun_is_cached(self, pipeline_dir):
        workdir, config, _ = pipeline_dir
        for stage in STAGES:
            assert run_stage(stage, config, workdir) == "cached"

    def test_artifacts_carry_meta(self, pipeline_dir):
        """Each artifact's ``#meta`` line carries the key of the stage that
        wrote it, and each key hashes the stage's name, its declared config
        keys and the keys of the stages that wrote its inputs."""
        workdir, config, _ = pipeline_dir
        writer = {name: stage for stage in STAGES for name in STAGE_FILES[stage][1]}
        keys = {}
        for stage in STAGES:
            text = (f"{stage}\n" + config.canonical(declared_keys(stage))
                    + "".join(f"{name} {keys[writer[name]]}\n"
                              for name in STAGE_FILES[stage][0]))
            keys[stage] = hashlib.sha256(text.encode()).hexdigest()[:16]
            assert stage_key(stage, config, workdir) == keys[stage], stage
            for name in STAGE_FILES[stage][1]:
                head = (workdir / name).read_text().splitlines()[:2]
                assert head[1] == f"#meta key={keys[stage]} seed={config['seed']}", name
        assert len(writer) == 16 and len(set(keys.values())) == len(STAGES)
        assert declared_keys("gen") == sorted(
            k for k in DEFAULTS if k == "seed" or k.startswith("gen."))

    def test_changed_config_reruns(self, pipeline_dir, tmp_path):
        workdir, _, _ = pipeline_dir
        changed = load_config(overrides={**TINY, "seed": "1"})
        assert run_stage("gen", changed, workdir) == "ok"
        # restore the original artifacts for the other tests
        original = load_config(overrides=TINY)
        assert run_stage("gen", original, workdir) == "ok"

    def test_missing_inputs_name_paths(self, tmp_path):
        config = load_config(overrides=TINY)
        with pytest.raises(StageInputError, match="dataset.txt"):
            run_stage("train", config, tmp_path)

    def test_unknown_stage(self, tmp_path):
        config = load_config(overrides=TINY)
        with pytest.raises(ValueError, match="unknown stage"):
            run_stage("deploy", config, tmp_path)

    def test_same_seed_byte_identical(self, pipeline_dir, tmp_path_factory):
        workdir, config, _ = pipeline_dir
        other = tmp_path_factory.mktemp("pipe2")
        run_stages(STAGES, config, other)
        for name in ("dataset.txt", "labeled.txt", "params.txt",
                     "metrics.txt", "replay.txt", "report.txt"):
            assert (workdir / name).read_bytes() == (other / name).read_bytes(), name

    def test_test_days_must_leave_training_days(self, pipeline_dir):
        workdir, _, _ = pipeline_dir
        bad = load_config(overrides={**TINY, "train.test_days": "9"})
        with pytest.raises(ValueError, match="test_days"):
            run_stage("train", bad, workdir)

    def test_benchmark_checks_pass(self, pipeline_dir):
        workdir, config, _ = pipeline_dir
        checks = _import_perfbench("checks")
        log = checks.Log(workdir / "dataset.txt")
        assert checks.check_workdir(workdir, log, float(config["cap_q"])) == []

    def test_labeled_round_trip(self, pipeline_dir, tmp_path):
        workdir, _, _ = pipeline_dir
        original = workdir / "labeled.txt"
        labels = datamodel.load_labeled(original)
        meta = original.read_text().splitlines()[1].removeprefix("#meta ")
        copy = tmp_path / "labeled.txt"
        datamodel.save_labeled(copy, labels, meta=meta)
        assert copy.read_bytes() == original.read_bytes()
        again = datamodel.load_labeled(copy)
        assert list(again) == list(datamodel.KEY_COLUMNS + datamodel.LABEL_COLUMNS)
        for name, column in again.items():
            expect = np.int64 if name in datamodel.KEY_COLUMNS else np.float64
            assert column.dtype == expect, name
            assert np.array_equal(column, labels[name]), name


class _RecordingValues(dict):
    """A config's ``values`` dict that records every key looked up."""

    def __init__(self, values):
        super().__init__(values)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


@pytest.mark.parametrize("stage", STAGES)
def test_stage_reads_exactly_its_declared_keys(stage, pipeline_dir, tmp_path):
    """A stage body reads every config key its cache key covers and no
    other, helper methods such as ``gen_config()`` included."""
    workdir, _, _ = pipeline_dir
    copy = tmp_path / "work"
    shutil.copytree(workdir, copy)
    config = load_config(overrides=TINY)
    config.values = _RecordingValues(config.values)
    RUNNERS[stage](config, copy, "key=0 seed=0", {})
    assert sorted(config.values.read) == declared_keys(stage)


def test_labels_computes_slide_times_once(pipeline_dir, tmp_path, monkeypatch):
    """The labels stage hands its one slide-time column to ``fit_tables``
    and ``build_pdq_labels`` instead of each recomputing it."""
    workdir, config, _ = pipeline_dir
    copy = tmp_path / "work"
    shutil.copytree(workdir, copy)
    calls = []
    monkeypatch.setattr(datamodel, "slide_times", lambda *a, _f=datamodel.slide_times, **k:
                        calls.append(1) or _f(*a, **k))
    RUNNERS["labels"](config, copy, "key=0 seed=0", {})
    assert len(calls) == 1
    for name in STAGE_FILES["labels"][1]:
        assert (copy / name).read_text().splitlines()[2:] == \
            (workdir / name).read_text().splitlines()[2:], name


def test_traced_functions_exist():
    """Every function the benchmark's tracer wraps is still a public
    function of its module, so ``--trace 1`` keeps reporting it."""
    tracer = _import_perfbench("tracer")
    for module_name, functions in tracer.TRACED.items():
        module = importlib.import_module(f"ltvrank.{module_name}")
        for fn_name in functions:
            assert callable(getattr(module, fn_name, None)), f"{module_name}.{fn_name}"


def test_tracer_counts_work_of_a_traced_run(tmp_path):
    """``perfbench/tracer.py`` runs the pipeline with its wrappers in place
    and counts the rows each encode call received, the pairs of each
    session's attribution (through ``Session.records``) and the calls of
    ``backward`` and ``save_params``, so a change to the shape of a traced
    function's arguments shows up here. Training calls ``forward`` as often
    as ``backward``, so the per-layer spans cover every step."""
    root = Path(__file__).resolve().parent.parent
    sets = [arg for k, v in TINY.items() for arg in ("--set", f"{k}={v}")]
    out = tmp_path / "trace"
    subprocess.run([sys.executable, str(root / "perfbench" / "tracer.py"), "--out", str(out),
                    "--", "all", "--workdir", str(tmp_path / "work"), *sets],
                   check=True, capture_output=True, text=True, timeout=300)
    totals = json.loads((out / "trace.json").read_text())["totals"]
    assert totals["predictor.encode_features"]["work"] > 0
    assert totals["attribution.session_attributed_slide_times"]["work"] > 0
    assert totals["author_ltv.plan_dual_stream"]["calls"] > 0
    assert totals["predictor.backward"]["calls"] > 0
    assert totals["predictor.save_params"]["calls"] == 1
    # every training step runs forward and backward through the traced
    # module attributes, so each has one span per step under the train span
    spans = [line.split("\t") for line in
             (out / "spans.tsv").read_text().splitlines()[1:]]
    train_spans = {index for index, name, *_ in spans if name == "predictor.train"}
    under_train = Counter(name for _, name, _, _, parent in spans if parent in train_spans)
    assert under_train["predictor.forward"] == under_train["predictor.backward"] \
        == totals["predictor.backward"]["calls"] > 0
