"""Bit-stable file formats: headerless matrix CSVs, 0/1 label columns,
scenario directories, and flat key=value config files.

Every file goes through one writer, `_write_lines`, which stages it
inside an `_all_or_none` block. Floats are written with 17 significant
digits (`_FLOAT`), which round-trips every finite double exactly. Matrix
CSVs cost little more than that text conversion: a file of plain decimal
text (digits, signs, points, exponents, commas, blanks and line breaks)
with finite values is parsed once by numpy's C parser, and any other
file goes through a line loop that alone decides what is accepted and
names the offending line. The matrix writer formats each row with one
`%` and writes a row of +0.0 entries from one prebuilt line.
"""

from __future__ import annotations

import io
import os
from contextlib import contextmanager
from contextvars import ContextVar
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .linalg import _as_matrix
from .traffic import Scenario

__all__ = [
    "write_table",
    "read_matrix_csv",
    "write_matrix_csv",
    "read_labels_csv",
    "write_labels_csv",
    "write_scenario",
    "read_scenario",
    "read_config_file",
    "write_config_file",
]

_FLOAT = "%.17g"
# every text file is UTF-8 whatever the locale; a path the OS gave as
# undecodable bytes goes back to disk as the same bytes
_TEXT = {"encoding": "utf-8", "errors": "surrogateescape"}

# (NAME.tmp, NAME) of every output written inside the open `_all_or_none`
# block; context-local, so no other thread or caller sees the list
_staged: ContextVar[list[tuple[Path, Path]] | None] = ContextVar("_staged", default=None)


@contextmanager
def _all_or_none() -> Iterator[None]:
    """Output files written in the block appear together or not at all:
    each stays staged under its NAME.tmp sibling until the block succeeds,
    then all are renamed into place; the temps are removed either way. A
    nested block joins the outermost one."""
    if _staged.get() is not None:
        yield
        return
    staged: list[tuple[Path, Path]] = []
    token = _staged.set(staged)
    try:
        yield
        for tmp, path in staged:
            os.replace(tmp, path)
    finally:
        _staged.reset(token)
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)


def _write_lines(path: Path, lines: Iterable[str]) -> None:
    """No output file is ever half-written: the lines, each ending in a
    newline, go to the staged temp file of an `_all_or_none` block (a
    block of its own if none is open). `lines` may be lazy; it is read
    only once the file is open and staged."""
    tmp = path.with_name(path.name + ".tmp")
    with _all_or_none(), open(tmp, "w", **_TEXT) as handle:
        # staged once created, so a failed open never removes what it did not create
        _staged.get().append((tmp, path))
        handle.writelines(lines)


def write_table(header: Sequence[str], rows: Iterable[Sequence[object]], path: str | Path) -> None:
    """Comma-separated table under a header line: floats at 17
    significant digits, every other value through `str`."""
    lines = [",".join(header) + "\n"]
    for row in rows:
        lines.append(",".join(_FLOAT % x if isinstance(x, float) else str(x) for x in row) + "\n")
    _write_lines(Path(path), lines)


def _content_lines(path: Path) -> Iterator[tuple[int, str]]:
    """(line number, stripped text) of each nonblank line."""
    with open(path, **_TEXT) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if line:
                yield lineno, line


def _matrix_lines(matrix: np.ndarray) -> Iterator[str]:
    """The text of each row of a finite 2-D matrix, as `np.savetxt` with
    fmt=_FLOAT writes it, converted one row at a time."""
    cols = matrix.shape[1]
    line = ",".join([_FLOAT] * cols) + "\n"
    zero_line = ",".join(["0"] * cols) + "\n"
    # a -0.0 entry prints as -0, so only rows of +0.0 take the prebuilt line
    nonzero = matrix.any(axis=1) | np.signbit(matrix).any(axis=1)
    for row, keep in zip(matrix, nonzero.tolist()):
        yield line % tuple(row.tolist()) if keep else zero_line


def write_matrix_csv(matrix: np.ndarray, path: str | Path) -> None:
    """Headerless comma-separated matrix, one row per line, each float at
    17 significant digits; a row of +0.0 entries is written from one
    prebuilt line. The matrix must be finite with at least one row and one
    column, so that `read_matrix_csv` reads back every file written here."""
    matrix = _as_matrix(matrix)
    if 0 in matrix.shape:
        raise ValueError(f"matrix must have at least one row and one column, got shape {matrix.shape}")
    _write_lines(Path(path), _matrix_lines(matrix))


# the bytes of plain decimal text: only such files go to numpy's parser,
# which also strips characters around a field that `float` rejects (\x1c)
_PLAIN_BYTES = b"0123456789+-.eE, \t\r\n"


def read_matrix_csv(path: str | Path) -> np.ndarray:
    """Parse a headerless numeric CSV; errors name the offending line.

    A nonblank file of plain decimal text is parsed once by numpy's C
    parser. Every other file (blank, or with other bytes such as `1_0` or
    non-ASCII digits), and any file that parse rejects (whitespace-only
    lines among them) or that holds a non-finite value, goes through
    `_read_matrix_lines`, which alone decides what is accepted and what
    each error says. Both paths give the same bits."""
    path = Path(path)
    data = path.read_bytes()
    if data and not data.isspace() and not data.translate(None, _PLAIN_BYTES):
        try:
            matrix = np.loadtxt(io.BytesIO(data), delimiter=",", comments=None, ndmin=2)
        except ValueError:
            pass
        else:
            if np.isfinite(matrix).all():
                return matrix
    return _read_matrix_lines(path)


def _read_matrix_lines(path: Path) -> np.ndarray:
    """The line loop: each nonblank line split at commas, each field
    through `float`."""
    rows: list[list[float]] = []
    width: int | None = None
    for lineno, line in _content_lines(path):
        fields = line.split(",")
        if width is None:
            width = len(fields)
        elif len(fields) != width:
            raise ValueError(f"{path}: line {lineno} has {len(fields)} fields, expected {width}")
        try:
            values = [float(field) for field in fields]
        except ValueError:
            raise ValueError(f"{path}: line {lineno} contains a non-numeric field") from None
        if not all(np.isfinite(values)):
            raise ValueError(f"{path}: line {lineno} contains a non-finite value")
        rows.append(values)
    if not rows:
        raise ValueError(f"{path}: empty matrix file")
    return np.array(rows, dtype=float)


def write_labels_csv(labels: np.ndarray, path: str | Path) -> None:
    """Single column of 0/1, one snapshot per line."""
    labels = np.asarray(labels, dtype=bool)
    if labels.ndim != 1 or labels.size == 0:
        raise ValueError(f"labels must be a nonempty 1-D array, got shape {labels.shape}")
    _write_lines(Path(path), ["1\n" if flag else "0\n" for flag in labels.tolist()])


def read_labels_csv(path: str | Path) -> np.ndarray:
    path = Path(path)
    labels = []
    for lineno, line in _content_lines(path):
        if line not in ("0", "1"):
            raise ValueError(f"{path}: line {lineno} must be 0 or 1, got {line!r}")
        labels.append(line == "1")
    if not labels:
        raise ValueError(f"{path}: empty labels file")
    return np.array(labels, dtype=bool)


def write_config_file(entries: Mapping[str, object], path: str | Path) -> None:
    """Flat `key = value` lines in the given order."""
    _write_lines(Path(path), [f"{key} = {value}\n" for key, value in entries.items()])


def read_config_file(path: str | Path) -> dict[str, str]:
    path = Path(path)
    entries: dict[str, str] = {}
    for lineno, line in _content_lines(path):
        if line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}: line {lineno} is not a key = value pair")
        key, _, value = line.partition("=")
        entries[key.strip()] = value.strip()
    return entries


def write_scenario(scenario: Scenario, directory: str | Path) -> None:
    """Write one CSV per scenario matrix plus the label column, all or
    none (config echoing is the CLI's job)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    with _all_or_none():
        write_matrix_csv(scenario.y, directory / "Y.csv")
        write_matrix_csv(scenario.routing, directory / "R.csv")
        write_matrix_csv(scenario.x, directory / "X.csv")
        write_matrix_csv(scenario.a, directory / "A.csv")
        write_matrix_csv(scenario.v, directory / "V.csv")
        write_labels_csv(scenario.labels, directory / "labels.csv")


def _read_traffic(y_path: str | Path, labels_path: str | Path | None
                  ) -> tuple[np.ndarray, np.ndarray | None]:
    """A traffic matrix CSV and, when labels_path is given, its labels,
    which must number one per snapshot."""
    y = read_matrix_csv(y_path)
    if labels_path is None:
        return y, None
    labels = read_labels_csv(labels_path)
    if labels.shape[0] != y.shape[1]:
        raise ValueError(
            f"{labels_path}: {labels.shape[0]} labels do not match {y.shape[1]} snapshots"
        )
    return y, labels


def read_scenario(directory: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Read back the traffic matrix and labels of a scenario directory."""
    directory = Path(directory)
    return _read_traffic(directory / "Y.csv", directory / "labels.csv")
