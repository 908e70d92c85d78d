import shutil

import pytest

from ltvrank import artifacts, author_ltv, datamodel, pdq, predictor, synthgen
from ltvrank.artifacts import DatasetFormatError
from ltvrank.cli import main
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


@pytest.mark.parametrize("corrupt", [_bad_header, _cut_last_line, _malformed_last_field])
def test_dataset_rejects_corrupt_video_table_with_path_and_line(corrupt, artifact_dir, tmp_path):
    """``load_dataset`` reads the per-video table beside ``dataset.txt`` as
    strictly as the log itself."""
    shutil.copy(artifact_dir / "dataset.txt", tmp_path / "dataset.txt")
    lines = (artifact_dir / "videos.txt").read_text(encoding="utf-8").splitlines(keepends=True)
    bad, line_no = corrupt(lines)
    path = tmp_path / "videos.txt"
    path.write_text("".join(bad), encoding="utf-8")
    with pytest.raises(DatasetFormatError) as exc:
        datamodel.load_dataset(tmp_path / "dataset.txt")
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


def _line_index(lines, prefix):
    return next(i for i, line in enumerate(lines) if line.startswith(prefix))


def _records_only_header(lines):
    return lines[:2], 2, "missing H record"


def _drop(prefixes, message):
    """Drop every line that starts with one of ``prefixes``."""
    def edit(lines):
        bad = [line for line in lines if not line.startswith(prefixes)]
        assert len(bad) < len(lines)
        return bad, len(bad), message
    return edit


def _e_before_i(lines):
    i, e = _line_index(lines, "I\t"), _line_index(lines, "E\t")
    bad = lines[:i] + lines[i + 1:e] + [lines[e], lines[i]] + lines[e + 1:]
    return bad, e, "before the I record"


def _edit_rows(change, message):
    """Apply ``change`` to the row ids of the ``emb/video`` record."""
    def edit(lines):
        i = _line_index(lines, "E\temb/video\t")
        fields = lines[i].rstrip("\n").split("\t")
        rows = fields[2].split(",")
        change(rows)
        bad = list(lines)
        bad[i] = "\t".join(fields[:2] + [",".join(rows)] + fields[3:]) + "\n"
        return bad, i + 1, message
    return edit


def _drop_value(lines):
    i = _line_index(lines, "E\temb/user\t")
    bad = list(lines)
    bad[i] = lines[i].rstrip("\n").rsplit(",", 1)[0] + "\n"
    return bad, i + 1, "values for"


def _transposed_shape(lines):
    i = _line_index(lines, "P\tbackbone/W1\t")
    bad = list(lines)
    bad[i] = lines[i].replace("\t80,64\t", "\t64,80\t")
    return bad, i + 1, "is not (80, 64)"


def _extra_array(lines):
    return lines + ["P\ttower/extra/bo\t1\t0.0\n"], len(lines) + 1, "unexpected array"


def _set(rows, i, value):
    rows[i] = value


PARAMS_DEFECTS = {
    "header-only": _records_only_header,
    "no-H": _drop("H\t", "missing H record"),
    "no-V": _drop("V\t", "missing V record"),
    # without its E records too, which would fail first as rows before I
    "no-I": _drop(("I\t", "E\t"), "missing I record"),
    "no-tower-array": _drop("P\ttower/slide/bo\t", "missing array 'tower/slide/bo'"),
    "no-embedding-table": _drop("E\temb/author\t", "missing array 'emb/author'"),
    "rows-before-I": _e_before_i,
    "row-out-of-range": _edit_rows(lambda rows: _set(rows, -1, "8193"), "must lie in"),
    "row-negative": _edit_rows(lambda rows: _set(rows, 0, "-1"), "must lie in"),
    "rows-unsorted": _edit_rows(lambda rows: rows.insert(0, rows.pop(1)), "strictly increasing"),
    "row-repeated": _edit_rows(lambda rows: _set(rows, 1, rows[0]), "strictly increasing"),
    "value-count": _drop_value,
    "wrong-shape": _transposed_shape,
    "unexpected-array": _extra_array,
}


@pytest.mark.parametrize("defect", sorted(PARAMS_DEFECTS))
def test_params_rejects_incomplete_or_inconsistent_records(defect, artifact_dir, tmp_path):
    """Each defect fails with ``path:line``: a missing record or array at
    the file's last line, a bad record at its own line."""
    lines = (artifact_dir / "params.txt").read_text(encoding="utf-8").splitlines(keepends=True)
    bad, line_no, message = PARAMS_DEFECTS[defect](lines)
    path = tmp_path / "params.txt"
    path.write_text("".join(bad), encoding="utf-8")
    with pytest.raises(DatasetFormatError) as exc:
        predictor.load_params(path)
    assert f"{path}:{line_no}:" in str(exc.value) and message in str(exc.value)


def test_eval_exits_one_on_params_without_records(artifact_dir, tmp_path, capsys):
    """A ``params.txt`` cut to its header and ``#meta`` line is a corrupt
    artifact (exit 1), not a runtime error in ``predict``."""
    for path in artifact_dir.iterdir():
        shutil.copy(path, tmp_path / path.name)
    params = tmp_path / "params.txt"
    params.write_text("".join(params.read_text(encoding="utf-8")
                              .splitlines(keepends=True)[:2]), encoding="utf-8")
    sets = [arg for k, v in TINY.items() for arg in ("--set", f"{k}={v}")]
    assert main(["eval", "--workdir", str(tmp_path), *sets]) == 1
    err = capsys.readouterr().err
    assert f"{params}:2: missing H record" in err


def _repeat_first(prefix, message):
    """Repeat the first line that starts with ``prefix`` right after it."""
    def edit(lines):
        i = _line_index(lines, prefix)
        return lines[:i + 1] + [lines[i]] + lines[i + 1:], i + 2, message
    return edit


def _drop_line(prefix, message):
    """Drop the line that starts with ``prefix``; the next record takes its
    line number."""
    def edit(lines):
        i = _line_index(lines, prefix)
        return lines[:i] + lines[i + 1:], i + 1, message
    return edit


def _swap_first_two(prefix, message):
    def edit(lines):
        i = _line_index(lines, prefix)
        return lines[:i] + [lines[i + 1], lines[i]] + lines[i + 2:], i + 1, message
    return edit


def _replace_field(prefix, field, value, message):
    """Set field ``field`` of the first line that starts with ``prefix``."""
    def edit(lines):
        i = _line_index(lines, prefix)
        fields = lines[i].rstrip("\n").split("\t")
        fields[field] = value
        return lines[:i] + ["\t".join(fields) + "\n"] + lines[i + 1:], i + 1, message
    return edit


def _last_q_group(lines):
    i = max(i for i, line in enumerate(lines) if line.startswith("Q\t"))
    fields = lines[i].split("\t")
    bad = lines[:i] + ["\t".join(["Q", "7"] + fields[2:])] + lines[i + 1:]
    return bad, i + 1, "group 7 is not in [0, 7)"


#: (loader, defect) -> edit returning (lines, line number, message)
RECORD_DEFECTS = {
    ("groundtruth", "user-dropped"): _drop_line("U\t5\t", "U record for id 6, expected id 5"),
    ("groundtruth", "videos-swapped"): _swap_first_two(
        "V\t", "V record for id 1, expected id 0"),
    ("groundtruth", "author-dropped"): _drop_line("A\t0\t", "A record for id 1, expected id 0"),
    ("groundtruth", "contribution-repeated"): _repeat_first(
        "C\t", "repeated C record for session 0, index 0"),
    ("aggregates", "key-repeated"): _repeat_first("0\t0\t0\t", "repeated (user, author, day)"),
    ("tables", "no-G"): _drop("G\t", "missing G record"),
    ("tables", "G-repeated"): _repeat_first("G\t", "repeated G record"),
    ("tables", "G-foreign"): _replace_field("G\t", 1, "0:1,1:inf", "page groups '0:1,1:inf'"),
    ("tables", "Q-repeated"): _repeat_first("Q\t", "repeated group 0"),
    ("tables", "Q-outside-groups"): _last_q_group,
}


@pytest.mark.parametrize("loader, defect", sorted(RECORD_DEFECTS),
                         ids=[f"{loader}-{defect}" for loader, defect in sorted(RECORD_DEFECTS)])
def test_loader_rejects_inconsistent_records(loader, defect, artifact_dir, tmp_path):
    """A record that another one contradicts fails with ``path:line``
    instead of being adopted: an id out of sequence, a repeated key, page
    groups other than ``pdq.PAGE_GROUPS``, or a missing ``G`` record (at
    the last line)."""
    load, name = LOADERS[loader]
    lines = (artifact_dir / name).read_text(encoding="utf-8").splitlines(keepends=True)
    bad, line_no, message = RECORD_DEFECTS[loader, defect](lines)
    path = tmp_path / name
    path.write_text("".join(bad), encoding="utf-8")
    with pytest.raises(DatasetFormatError) as exc:
        load(path)
    assert f"{path}:{line_no}:" in str(exc.value) and message in str(exc.value)


def test_failed_write_leaves_no_temp_file(tmp_path):
    """A record source that raises mid-write leaves neither ``<path>.tmp``
    nor a change to the old ``<path>``."""
    path = tmp_path / "out.txt"
    artifacts.write(path, "demo", ["old"], meta="key=0 seed=0")
    before = path.read_bytes()

    def lines():
        yield "new"
        raise ValueError("source failed")

    with pytest.raises(ValueError, match="source failed"):
        artifacts.write(path, "demo", lines(), meta="key=1 seed=0")
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]
