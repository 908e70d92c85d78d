import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import ltvrank
from ltvrank import author_ltv, datamodel, pdq, predictor, synthgen
from ltvrank.cli import build_parser, main
from ltvrank.config import load_config
from ltvrank.pipeline import STAGES, run_stages

TINY_SETS = []
for pair in ("gen.n_users=40", "gen.n_videos=300", "gen.n_authors=15",
             "gen.n_categories=5", "gen.n_days=9", "pdq.T=20",
             "train.epochs=1", "replay.n_seeds=2"):
    TINY_SETS += ["--set", pair]


def run(stage, workdir, *extra):
    return main([stage, "--workdir", str(workdir), *TINY_SETS, *extra])


class TestParser:
    def test_stage_required(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])
        capsys.readouterr()

    def test_accepts_all_flags(self):
        args = build_parser().parse_args(
            ["gen", "--config", "c.cfg", "--set", "seed=1", "--set",
             "pdq.T=20", "--threads", "2", "--seed", "9", "--workdir", "w"])
        assert args.stage == "gen"
        assert args.overrides == ["seed=1", "pdq.T=20"]
        assert args.threads == 2 and args.seed == 9 and args.workdir == "w"


class TestExitCodes:
    def test_gen_succeeds(self, tmp_path, capsys):
        assert run("gen", tmp_path) == 0
        out = capsys.readouterr().out
        assert "ltvrank gen: ok" in out
        assert (tmp_path / "dataset.txt").exists()

    def test_missing_inputs_exit_one(self, tmp_path, capsys):
        assert run("labels", tmp_path) == 1
        err = capsys.readouterr().err
        assert "validation error" in err and "dataset.txt" in err

    def test_unknown_set_key_exit_one(self, tmp_path, capsys):
        assert run("gen", tmp_path, "--set", "no.such=1") == 1
        assert "no.such" in capsys.readouterr().err

    def test_malformed_set_exit_one(self, tmp_path, capsys):
        assert run("gen", tmp_path, "--set", "justakey") == 1
        assert "key=value" in capsys.readouterr().err

    def test_bad_config_file_exit_one(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("train.epochs = three\n")
        assert main(["gen", "--workdir", str(tmp_path),
                     "--config", str(cfg)]) == 1
        assert "train.epochs" in capsys.readouterr().err

    def test_missing_config_file_exit_one(self, tmp_path, capsys):
        assert main(["gen", "--workdir", str(tmp_path),
                     "--config", str(tmp_path / "absent.cfg")]) == 1
        capsys.readouterr()

    def test_bad_threads_exit_one(self, tmp_path, capsys):
        assert run("gen", tmp_path, "--threads", "0") == 1
        assert "--threads" in capsys.readouterr().err

    @pytest.mark.parametrize("stage", ["train", "all"])
    def test_corrupt_artifact_exit_one(self, tmp_path, capsys, stage):
        assert run("gen", tmp_path) == 0
        assert run("labels", tmp_path) == 0
        path = tmp_path / "labeled.txt"
        lines = path.read_text().splitlines(keepends=True)
        lines[2] = "not\ta\trecord\n"
        path.write_text("".join(lines))
        capsys.readouterr()
        # the #meta line is intact, so under `all` the labels stage is cached
        # and train reads the corrupt file from disk
        assert run(stage, tmp_path) == 1
        assert f"{path}:3:" in capsys.readouterr().err

    @pytest.mark.parametrize("setting, key", [
        ("train.embedding_dim=0", "embedding_dim"),
        ("train.learning_rate=-0.05", "learning_rate"),
        ("train.learning_rate=nan", "learning_rate"),
        ("train.accumulator_decay=1.5", "accumulator_decay"),
    ], ids=["embedding-dim", "negative-lr", "nan-lr", "decay"])
    def test_invalid_training_setting_exit_one(self, tmp_path, capsys, setting, key):
        assert run("all", tmp_path, "--set", setting) == 1
        out, err = capsys.readouterr()
        assert "ltvrank labels: ok" in out and "ltvrank train" not in out
        assert "validation error" in err and key in err
        assert not (tmp_path / "params.txt").exists()
        assert not (tmp_path / "loss_trace.txt").exists()

    def test_labels_of_other_dataset_exit_one(self, tmp_path, capsys):
        own, other = tmp_path / "own", tmp_path / "other"
        for workdir, seed in ((own, "1"), (other, "2")):
            assert run("gen", workdir, "--seed", seed) == 0
            assert run("labels", workdir, "--seed", seed) == 0
        shutil.copyfile(other / "labeled.txt", own / "labeled.txt")
        capsys.readouterr()
        assert run("train", own, "--seed", "1") == 1
        err = capsys.readouterr().err
        assert "validation error" in err and str(own / "labeled.txt") in err

    def test_report_missing_summary_exit_one(self, tmp_path, capsys):
        assert run("all", tmp_path) == 0
        (tmp_path / "metrics_summary.txt").unlink()
        (tmp_path / "report.txt").unlink()
        capsys.readouterr()
        assert run("report", tmp_path) == 1
        err = capsys.readouterr().err
        assert "missing input" in err and "metrics_summary.txt" in err

    def test_too_small_corpus_exit_one(self, tmp_path, capsys):
        """A first page group too sparse for ``pdq.T`` quantiles, with no
        shallower group to inherit a table from, is a validation error."""
        assert main(["all", "--workdir", str(tmp_path), "--set", "gen.n_users=2",
                     "--set", "gen.n_days=3", "--set", "gen.n_videos=200",
                     "--set", "gen.n_authors=20"]) == 1
        err = capsys.readouterr().err
        assert "validation error: page group 0 has 24 rows, fewer than pdq.T=50" in err

    def test_negative_v2v_top_k_exit_one(self, tmp_path, capsys):
        assert run("gen", tmp_path, "--set", "gen.v2v_top_k=-1") == 1
        assert "validation error: v2v_top_k must be non-negative, got -1" in \
            capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("key", ["attribution.mode=binary", "pdq.mode=table4", "pdq.M=7"])
    def test_removed_key_exit_one(self, tmp_path, capsys, key):
        assert run("gen", tmp_path, "--set", key) == 1
        assert f"unknown config keys: {key.split('=')[0]}" in capsys.readouterr().err

    def test_runtime_error_exit_two(self, tmp_path, capsys):
        blocker = tmp_path / "not_a_dir"
        blocker.write_text("occupied\n")
        assert run("gen", blocker / "deeper") == 2
        assert "runtime error" in capsys.readouterr().err


class TestBehaviour:
    def test_second_run_cached(self, tmp_path, capsys):
        assert run("gen", tmp_path) == 0
        capsys.readouterr()
        assert run("gen", tmp_path) == 0
        assert "ltvrank gen: cached" in capsys.readouterr().out

    def test_threads_flag_keeps_cache(self, tmp_path, capsys):
        assert run("gen", tmp_path) == 0
        capsys.readouterr()
        assert run("gen", tmp_path, "--threads", "2") == 0
        assert "ltvrank gen: cached" in capsys.readouterr().out

    def test_seed_flag_changes_artifacts(self, tmp_path, capsys):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert run("gen", a, "--seed", "1") == 0
        assert run("gen", b, "--seed", "2") == 0
        capsys.readouterr()
        assert (a / "dataset.txt").read_bytes() != (b / "dataset.txt").read_bytes()

    def test_all_runs_every_stage(self, tmp_path, capsys):
        assert run("all", tmp_path) == 0
        out = capsys.readouterr().out
        for stage in ("gen", "labels", "train", "eval", "replay", "report"):
            assert f"ltvrank {stage}: ok" in out
        assert (tmp_path / "report.txt").exists()


ARTIFACTS = ("dataset.txt", "videos.txt", "groundtruth.txt", "tables.txt", "labeled.txt",
             "aggregates.txt", "diagnostics.txt", "params.txt", "loss_trace.txt",
             "metrics.txt", "metrics_summary.txt", "replay.txt", "report.txt",
             "plot_page_slide.txt", "plot_quantiles.txt", "plot_slide_hist.txt")


def _artifact_bytes(workdir):
    return {name: (workdir / name).read_bytes() for name in ARTIFACTS}


class TestInMemoryHandOff:
    """``all`` hands each artifact to later stages in memory; stages run one
    command at a time read them from disk. Both must write the same bytes."""

    @pytest.fixture(scope="class")
    def cold(self, tmp_path_factory):
        workdir = tmp_path_factory.mktemp("cold")
        assert run("all", workdir) == 0
        return workdir

    def test_compares_every_artifact(self, cold):
        assert sorted(p.name for p in cold.iterdir()) == sorted(ARTIFACTS)

    def test_stage_by_stage_matches_all(self, tmp_path, cold, capsys):
        for stage in STAGES:
            assert run(stage, tmp_path) == 0
        assert capsys.readouterr().out.count(": ok") == len(STAGES)
        assert _artifact_bytes(tmp_path) == _artifact_bytes(cold)

    def test_all_after_cached_stages_matches_all(self, tmp_path, cold, capsys):
        assert run("gen", tmp_path) == 0
        assert run("labels", tmp_path) == 0
        capsys.readouterr()
        assert run("all", tmp_path) == 0
        out = capsys.readouterr().out
        assert "ltvrank gen: cached" in out and "ltvrank labels: cached" in out
        assert _artifact_bytes(tmp_path) == _artifact_bytes(cold)

    def test_each_artifact_parsed_at_most_once(self, tmp_path, monkeypatch):
        assert run("gen", tmp_path) == 0
        assert run("labels", tmp_path) == 0
        calls = []
        for module, name in ((datamodel, "load_dataset"), (datamodel, "load_labeled"),
                             (pdq, "load_tables"), (author_ltv, "load_aggregates"),
                             (predictor, "load_params"),
                             (synthgen, "load_ground_truth")):
            def counted(path, _load=getattr(module, name)):
                calls.append(Path(path).name)
                return _load(path)
            monkeypatch.setattr(module, name, counted)
        assert run("all", tmp_path) == 0
        # gen and labels were cached, so their outputs come from disk, once
        assert sorted(calls) == sorted(["dataset.txt", "groundtruth.txt", "labeled.txt",
                                        "tables.txt", "aggregates.txt"])


class TestScopedCache:
    """A rerun under a changed config runs only the stages that read a
    changed key or a changed input, and leaves the same bytes as a cold run
    under the new config."""

    @pytest.fixture(scope="class")
    def cold(self, tmp_path_factory):
        workdir = tmp_path_factory.mktemp("scoped")
        assert run("all", workdir) == 0
        return workdir

    @pytest.mark.parametrize("change, rerun", [
        (["--set", "fusion.w_author=2.0"], ("replay", "report")),
        (["--set", "train.learning_rate=0.03"], ("train", "eval", "replay", "report")),
        (["--seed", "3"], STAGES),
    ], ids=["fusion", "train", "seed"])
    def test_rerun_matches_cold_run(self, cold, tmp_path, capsys, change, rerun):
        work, fresh = tmp_path / "work", tmp_path / "fresh"
        shutil.copytree(cold, work)
        capsys.readouterr()
        assert run("all", work, *change) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == [f"ltvrank {stage}: {'ok' if stage in rerun else 'cached'}"
                       for stage in STAGES]
        assert run("all", fresh, *change) == 0
        assert _artifact_bytes(work) == _artifact_bytes(fresh)

    def test_replaced_input_is_not_cached(self, cold, tmp_path, capsys):
        work, other = tmp_path / "work", tmp_path / "other"
        shutil.copytree(cold, work)
        assert run("gen", other, "--seed", "3") == 0
        assert run("labels", other, "--seed", "3") == 0
        shutil.copyfile(other / "labeled.txt", work / "labeled.txt")
        capsys.readouterr()
        # train's key covers its inputs' keys, so it reruns on the new file
        # (and rejects it) instead of answering cached
        assert run("train", work) == 1
        assert str(work / "labeled.txt") in capsys.readouterr().err
        # labels rewrites its stale output; the stages after it then find
        # the inputs they were built from and stay cached
        assert run("all", work) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == [f"ltvrank {stage}: {'ok' if stage == 'labels' else 'cached'}"
                       for stage in STAGES]
        assert _artifact_bytes(work) == _artifact_bytes(cold)

    def test_stale_input_exit_one(self, cold, tmp_path, capsys):
        """A single stage refuses an input built under another config,
        here ``params.txt`` trained at the default learning rate."""
        work = tmp_path / "work"
        shutil.copytree(cold, work)
        before = _artifact_bytes(work)
        capsys.readouterr()
        assert run("eval", work, "--set", "train.learning_rate=0.03") == 1
        err = capsys.readouterr().err
        assert "validation error" in err and str(work / "params.txt") in err
        assert "'train'" in err
        # report does not read params.txt, but metrics_summary.txt was built
        # from it, so the check follows the inputs upstream
        assert run("report", work, "--set", "train.learning_rate=0.03") == 1
        err = capsys.readouterr().err
        assert str(work / "params.txt") in err and "'train'" in err
        assert _artifact_bytes(work) == before

    def test_stage_after_current_inputs_runs(self, cold, tmp_path, capsys):
        work = tmp_path / "work"
        shutil.copytree(cold, work)
        capsys.readouterr()
        assert run("replay", work, "--set", "fusion.w_author=2.0") == 0
        assert capsys.readouterr().out.splitlines() == ["ltvrank replay: ok"]


class TestStageInputs:
    """What single-stage commands read from a workdir after a TINY ``all``."""

    @pytest.fixture(scope="class")
    def cold(self, tmp_path_factory):
        workdir = tmp_path_factory.mktemp("inputs")
        assert run("all", workdir) == 0
        return workdir

    @pytest.mark.parametrize("case", ["U", "V", "A", "mismatch"])
    def test_replay_rejects_ground_truth_not_covering_log(self, cold, tmp_path, capsys, case):
        """Ground truth cut from the log's highest user, video or author id
        onward keeps its ids in sequence, and one ``V`` record with another
        author is well-formed, yet replay must refuse both."""
        work = tmp_path / "work"
        shutil.copytree(cold, work)
        columns = datamodel.load_dataset(work / "dataset.txt").columns
        path = work / "groundtruth.txt"
        lines = path.read_text().splitlines(keepends=True)
        if case == "mismatch":
            prefix = f"V\t{columns['video_id'][0]}\t"
            k = next(i for i, line in enumerate(lines) if line.startswith(prefix))
            fields = lines[k].split("\t")
            fields[2] = str(int(fields[2]) + 1)
            lines[k] = "\t".join(fields)
            expected = "author_id"
        else:
            name = {"U": "user_id", "V": "video_id", "A": "author_id"}[case]
            top = int(columns[name].max())
            lines = [line for line in lines if not (
                line.startswith(f"{case}\t") and int(line.split("\t")[1]) >= top)]
            expected = f"{top} {case} records"
        path.write_text("".join(lines))
        capsys.readouterr()
        assert run("replay", work, "--set", "fusion.w_author=2.0") == 1
        err = capsys.readouterr().err
        assert "validation error" in err and str(path) in err and expected in err

    def test_tables_read_by_report_alone(self, cold, tmp_path, capsys):
        """train, eval and replay need only the constant page groups, not
        ``tables.txt``; report prints its thresholds, so it needs the file."""
        work = tmp_path / "work"
        shutil.copytree(cold, work)
        (work / "tables.txt").unlink()
        for stage in ("train", "eval", "replay"):
            assert run(stage, work, "--set", "train.learning_rate=0.03") == 0, stage
        capsys.readouterr()
        assert run("report", work, "--set", "train.learning_rate=0.03") == 1
        err = capsys.readouterr().err
        assert "missing input" in err and str(work / "tables.txt") in err

    @pytest.mark.parametrize("setting, message", [
        ("pdq.T=0", "pdq.T must be positive, got 0"),
        ("cap_q=0", "cap_q must be positive, got 0.0"),
    ], ids=["T", "cap_q"])
    def test_labels_rejects_nonpositive_key(self, cold, tmp_path, capsys, setting, message):
        """Labels refuses the key before it writes anything."""
        work = tmp_path / "work"
        shutil.copytree(cold, work)
        capsys.readouterr()
        assert run("labels", work, "--set", setting) == 1
        assert f"validation error: {message}" in capsys.readouterr().err
        assert _artifact_bytes(work) == _artifact_bytes(cold)

    def test_replay_rejects_no_seeds(self, cold, tmp_path, capsys):
        work = tmp_path / "work"
        shutil.copytree(cold, work)
        capsys.readouterr()
        assert run("replay", work, "--set", "replay.n_seeds=0") == 1
        assert "validation error: replay.n_seeds must be >= 1, got 0" in \
            capsys.readouterr().err
        assert _artifact_bytes(work) == _artifact_bytes(cold)

    def test_report_failing_mid_write_leaves_no_temp_file(self, cold, tmp_path, capsys):
        """Report reads ``replay.txt`` while it writes ``report.txt``; a
        ``replay.txt`` cut short of its last newline fails that write, and
        no ``report.txt.tmp`` is left behind."""
        work = tmp_path / "work"
        shutil.copytree(cold, work)
        (work / "report.txt").unlink()
        replay = work / "replay.txt"
        replay.write_bytes(replay.read_bytes()[:-1])
        capsys.readouterr()
        assert run("report", work) == 1
        assert f"{replay}:" in capsys.readouterr().err
        assert not (work / "report.txt").exists()
        assert not list(work.glob("*.tmp"))


def test_cli_import_leaves_numpy_unloaded():
    """``--threads`` must reach the environment before numpy starts its
    thread pools, so importing the entry point must not import numpy."""
    code = ("import sys, ltvrank.cli, ltvrank\n"
            "print('numpy' in sys.modules)\n"
            "missing = [n for n in ltvrank.__all__ if not hasattr(ltvrank, n)]\n"
            "print(missing)\n")
    src = str(Path(ltvrank.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.splitlines() == ["False", "[]"]


def test_no_stage_builds_impression_records(tmp_path, monkeypatch, capsys):
    """Every stage reads the log's columns: with ``Session.records`` and the
    ``ImpressionRecord`` constructor made to raise, ``all`` in one process
    and the six single-stage commands still succeed."""
    def refuse(*args, **kwargs):
        raise AssertionError("a pipeline stage built ImpressionRecords")

    monkeypatch.setattr(datamodel.Session, "records", property(refuse))
    monkeypatch.setattr(datamodel.ImpressionRecord, "__init__", refuse)
    overrides = dict(pair.split("=") for pair in TINY_SETS[1::2])
    statuses = run_stages(STAGES, load_config(overrides=overrides), tmp_path / "all")
    assert set(statuses.values()) == {"ok"}
    for stage in STAGES:
        assert run(stage, tmp_path / "single") == 0, capsys.readouterr().err
    capsys.readouterr()
