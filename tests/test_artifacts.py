import pytest

from ltvrank import author_ltv, datamodel, pdq, predictor, synthgen
from ltvrank.artifacts import DatasetFormatError
from ltvrank.config import load_config
from ltvrank.pipeline import run_stages

from test_config import TINY

#: loader -> the artifact it reads
LOADERS = {
    "dataset": (datamodel.load_dataset, "dataset.txt"),
    "labeled": (datamodel.load_labeled, "labeled.txt"),
    "tables": (pdq.load_tables, "tables.txt"),
    "aggregates": (author_ltv.load_aggregates, "aggregates.txt"),
    "params": (predictor.load_params, "params.txt"),
    "groundtruth": (synthgen.load_ground_truth, "groundtruth.txt"),
}


@pytest.fixture(scope="module")
def artifact_dir(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("artifacts")
    run_stages(("gen", "labels", "train"), load_config(overrides=TINY), workdir)
    return workdir


def _bad_header(lines):
    return ["#ltvrank-bogus v1\n"] + lines[1:], 1


def _cut_last_line(lines):
    return lines[:-1] + [lines[-1][:-6]], len(lines)


def _malformed_last_field(lines):
    fields = lines[-1].rstrip("\n").split("\t")
    return lines[:-1] + ["\t".join(fields[:-1] + ["x"]) + "\n"], len(lines)


@pytest.mark.parametrize("corrupt", [_bad_header, _cut_last_line, _malformed_last_field])
@pytest.mark.parametrize("loader", sorted(LOADERS))
def test_loader_rejects_corrupt_artifact_with_path_and_line(
        loader, corrupt, artifact_dir, tmp_path):
    load, name = LOADERS[loader]
    lines = (artifact_dir / name).read_text(encoding="utf-8").splitlines(keepends=True)
    bad, line_no = corrupt(lines)
    path = tmp_path / name
    path.write_text("".join(bad), encoding="utf-8")
    with pytest.raises(DatasetFormatError) as exc:
        load(path)
    assert f"{path}:{line_no}:" in str(exc.value)


def test_params_rejects_non_numeric_value(artifact_dir, tmp_path):
    """A ``P`` record with one bad value among its numbers, of the right
    count for its shape, fails with the line of that record."""
    lines = (artifact_dir / "params.txt").read_text(encoding="utf-8").splitlines(keepends=True)
    line_no = next(i for i, line in enumerate(lines, start=1) if line.startswith("P\t"))
    fields = lines[line_no - 1].rstrip("\n").split("\t")
    values = fields[3].split(",")
    values[len(values) // 2] = "0.5x"
    lines[line_no - 1] = "\t".join(fields[:3] + [",".join(values)]) + "\n"
    path = tmp_path / "params.txt"
    path.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(DatasetFormatError) as exc:
        predictor.load_params(path)
    assert f"{path}:{line_no}:" in str(exc.value)


def test_params_rejects_other_vocabulary(artifact_dir, tmp_path):
    """Features are hashed into ``VOCAB``, so a ``V`` record naming any
    other vocabulary fails with its line instead of being adopted."""
    lines = (artifact_dir / "params.txt").read_text(encoding="utf-8").splitlines(keepends=True)
    line_no = next(i for i, line in enumerate(lines, start=1) if line.startswith("V\t"))
    assert lines[line_no - 1] == "V\t" + ",".join(
        f"{f}:{predictor.VOCAB[f]}" for f in predictor.FEATURE_FIELDS) + "\n"
    lines[line_no - 1] = lines[line_no - 1].replace("user:4096", "user:2048")
    path = tmp_path / "params.txt"
    path.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(DatasetFormatError) as exc:
        predictor.load_params(path)
    assert f"{path}:{line_no}:" in str(exc.value) and "user:2048" in str(exc.value)
