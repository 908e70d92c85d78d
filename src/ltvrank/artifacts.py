"""The envelope every pipeline artifact shares, and its atomic writer and
strict reader.

An artifact is UTF-8 text with ``\\n`` line ends: a ``#ltvrank-<kind> v1``
header, an optional ``#meta <meta>`` line, then one record per line with
tab-separated fields. It is written to ``<path>.tmp`` and renamed into
place, so a reader sees either the old file or the whole new one. Each
module keeps only its own record format.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Callable, Iterable

import numpy as np


class DatasetFormatError(ValueError):
    """An artifact could not be parsed; names the file and line."""

    def __init__(self, path, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = str(path)
        self.line_no = line_no


def fmt_real(x: float) -> str:
    """Serialize a real with shortest round-trip precision."""
    return repr(float(x))


def _header(kind: str) -> str:
    return f"#ltvrank-{kind} v1"


def write(path, kind: str, lines: Iterable[str], meta: str | None = None) -> None:
    """Write the header, the ``#meta`` line if given and one line per record,
    then rename the finished file into place. If writing raises, the
    partial file is removed and any old ``path`` is left as it was."""
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(_header(kind) + "\n")
            if meta:
                fh.write(f"#meta {meta}\n")
            for line in lines:
                fh.write(line + "\n")
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)


def read(path, kind: str, parse: Callable[[list[str]], object]) -> list:
    """``parse(fields)`` of every record line, in file order.

    Comment and blank lines are skipped. A wrong header, a last line cut
    short of its newline, or a ``ValueError``/``IndexError`` from ``parse``
    raises DatasetFormatError naming ``path:line``.
    """
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
        if first.rstrip("\n") != _header(kind):
            raise DatasetFormatError(path, 1, f"bad header {first.rstrip()!r}")
        for line_no, line in enumerate(fh, start=2):
            if not line.endswith("\n"):
                raise DatasetFormatError(path, line_no, "truncated record (missing newline)")
            if line == "\n" or line.startswith("#"):
                continue
            try:
                out.append(parse(line[:-1].split("\t")))
            except (ValueError, IndexError) as exc:
                raise DatasetFormatError(path, line_no, f"malformed record: {exc}") from None
    return out


def read_array(path, kind: str, dtype: np.dtype, parse: Callable[[list[str]], tuple],
               converters=None) -> np.ndarray:
    """Every record line as one row of the structured ``dtype``.

    numpy parses the tab-separated fields in bulk (``converters`` as for
    ``np.loadtxt``). It accepts no text that ``read`` rejects, so where it
    fails, ``read(path, kind, parse)`` parses line by line instead and
    raises DatasetFormatError at the first bad line; ``parse`` returns one
    row's fields as a tuple in ``dtype``'s order.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    if lines[0] == _header(kind) and lines[-1] == "":
        records = [line for line in lines[1:-1] if line and not line.startswith("#")]
        del lines
        if not records:
            return np.empty(0, dtype)
        try:
            return np.loadtxt(records, dtype=dtype, delimiter="\t", comments=None,
                              converters=converters, ndmin=1)
        except ValueError:
            pass
    return np.array(read(path, kind, parse), dtype=dtype)


def line_of(path, index: int) -> int:
    """Line number of record ``index`` (0-based, in file order) of an
    artifact that ``read`` accepts."""
    records = 0
    with open(path, "r", encoding="utf-8") as fh:
        fh.readline()
        for line_no, line in enumerate(fh, start=2):
            if line != "\n" and not line.startswith("#"):
                if records == index:
                    return line_no
                records += 1
    raise IndexError(f"{path} has no record {index}")


def line_no(path, prefix: str | None = None) -> int:
    """Number of the first line of ``path`` that starts with ``prefix``, or
    of its last line if none does (or ``prefix`` is None)."""
    n = 0
    with open(path, "r", encoding="utf-8") as fh:
        for n, line in enumerate(fh, start=1):
            if prefix is not None and line.startswith(prefix):
                break
    return n


def _meta_line(path) -> str | None:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            fh.readline()
            return fh.readline()
    except OSError:
        return None


def meta_of(path) -> str | None:
    """``<meta>`` of a ``#meta <meta>`` second line of ``path``; None if
    ``path`` is missing or its second line is not of that form."""
    line = _meta_line(path)
    return line[len("#meta "):].rstrip("\n") if line and line.startswith("#meta ") else None


def has_meta(path, meta: str) -> bool:
    """Whether ``path`` exists and its second line is ``#meta <meta>``."""
    return _meta_line(path) == f"#meta {meta}\n"


def meta_key(path) -> str | None:
    """``<key>`` of a ``#meta key=<key> ...`` second line of ``path``; None
    if ``path`` is missing or its second line is not of that form."""
    line = _meta_line(path)
    if not line or not line.startswith("#meta key="):
        return None
    return line.split()[1].removeprefix("key=")
