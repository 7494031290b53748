"""Bit-stable file formats: headerless matrix CSVs, 0/1 label columns,
scenario directories, and flat key=value config files.

Every file goes through one writer, `_write_lines`, which stages it
inside an `_all_or_none` block; the block renames its staged files into
place together and puts every earlier file back if a rename fails.
Floats are written with 17 significant digits (`_FLOAT`), which
round-trips every finite double exactly. Matrix CSVs cost little more
than that text conversion: a file of plain decimal text (digits, signs,
points, exponents, commas, blanks and line breaks) with finite values
is parsed once by numpy's C parser, and any other file goes through a
line loop that alone decides what is accepted and names the bad line.
"""

from __future__ import annotations

import io
import os
from contextlib import contextmanager, suppress
from contextvars import ContextVar
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .linalg import _as_labels, _as_matrix
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

# the open `_all_or_none` block's (NAME.tmp, NAME) pairs and the directories
# it made; context-local, so no other thread or caller sees them
_block: ContextVar[tuple[list[tuple[Path, Path]], list[Path]]] = ContextVar("_block")


@contextmanager
def _all_or_none(directory: Path | None = None) -> Iterator[None]:
    """Output written in the block appears together or not at all: each
    file stays staged under its NAME.tmp sibling until the block succeeds,
    then all are renamed into place (`_commit`); the temps are removed
    either way. A failed block removes each directory it made for
    `directory`, deepest first, unless it holds something. A nested block
    joins the outermost."""
    token = _block.set(([], [])) if _block.get(None) is None else None
    staged, made = _block.get()
    try:
        if directory is not None:
            made[:0] = [path for path in (directory, *directory.parents) if not path.exists()]
            directory.mkdir(parents=True, exist_ok=True)
        yield
        if token is not None:
            _commit(staged)
            made.clear()  # the block succeeded, so its directories stay
    finally:
        if token is not None:
            _block.reset(token)
            for tmp, _ in staged:
                tmp.unlink(missing_ok=True)
            for path in made:
                with suppress(OSError):  # one that holds something stays
                    path.rmdir()


def _commit(staged: Sequence[tuple[Path, Path]]) -> None:
    """Rename each staged NAME.tmp onto its NAME, all or none. Every
    target must be absent or a regular file, and its backup name NAME.bak
    free. An existing NAME is moved to NAME.bak before its temp takes its
    place; if any rename fails, the renames done so far are undone in
    reverse order, so every earlier file is back as it was. The backups
    are deleted once all are in place."""
    for _, path in staged:
        if os.path.lexists(path) and not path.is_file():
            raise FileExistsError(f"{path} exists and is not a regular file")
        if os.path.lexists(_backup(path)):
            raise FileExistsError(f"{_backup(path)} exists and may hold an earlier {path.name}")
    done: list[tuple[Path, bool]] = []  # (NAME, whether NAME.bak holds its earlier file)
    try:
        for tmp, path in staged:
            kept = os.path.lexists(path)
            if kept:
                os.replace(path, _backup(path))
            done.append((path, kept))
            os.replace(tmp, path)
    except BaseException:
        for path, kept in reversed(done):
            if kept:
                os.replace(_backup(path), path)
            else:
                path.unlink(missing_ok=True)
        raise
    for path, kept in done:
        if kept:
            _backup(path).unlink()


def _backup(path: Path) -> Path:
    return path.with_name(path.name + ".bak")


def _write_lines(path: Path, lines: Iterable[str]) -> None:
    """No output file is ever half-written: the lines, each ending in a
    newline, go to the staged temp file of an `_all_or_none` block (a
    block of its own if none is open). `lines` may be lazy; it is read
    only once the file is open and staged."""
    tmp = path.with_name(path.name + ".tmp")
    with _all_or_none(), open(tmp, "w", **_TEXT) as handle:
        # staged once created, so a failed open never removes what it did not create
        _block.get()[0].append((tmp, path))
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
    line = ",".join([_FLOAT] * matrix.shape[1]) + "\n"
    for row in matrix:
        yield line % tuple(row.tolist())


def write_matrix_csv(matrix: np.ndarray, path: str | Path) -> None:
    """Headerless comma-separated matrix, one row per line, each float at
    17 significant digits; it must be finite with at least one row and one
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
    """Single column of 0/1, one snapshot per line (labels as `_as_labels` takes them)."""
    _write_lines(Path(path), ["1\n" if flag else "0\n" for flag in _as_labels(labels).tolist()])


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
    """Flat `key = value` lines in the given order, each entry one that
    `read_config_file` reads back as it was given: a key or value text
    with leading or trailing whitespace or a line break in it, or a key
    that holds `=` or starts with `#`, raises a ValueError naming the key."""
    lines = []
    for key, value in entries.items():
        key, value = f"{key}", f"{value}"
        loose = [text != text.strip() or "\n" in text or "\r" in text for text in (key, value)]
        if loose[0] or "=" in key or key.startswith("#"):
            raise ValueError(f"config key {key!r} would not read back: it has leading or "
                             "trailing whitespace, a line break, '=' or a leading '#'")
        if loose[1]:
            raise ValueError(f"config value of {key!r} would not read back: {value!r} has "
                             "leading or trailing whitespace or a line break")
        lines.append(f"{key} = {value}\n")
    _write_lines(Path(path), lines)


def read_config_file(path: str | Path) -> dict[str, str]:
    path = Path(path)
    entries: dict[str, str] = {}
    linenos: dict[str, int] = {}
    for lineno, line in _content_lines(path):
        if line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}: line {lineno} is not a key = value pair")
        key, _, value = (part.strip() for part in line.partition("="))
        if key in linenos:
            raise ValueError(f"{path}: key {key!r} is set on line {linenos[key]} "
                             f"and again on line {lineno}")
        entries[key], linenos[key] = value, lineno
    return entries


def write_scenario(scenario: Scenario, directory: str | Path) -> None:
    """Write a scenario's traffic, labels and draws (the CLI adds
    config.echo), all or none, including the directories it makes.

    Y.csv, R.csv and V.csv are matrix CSVs and labels.csv the label
    column. The flows X = U W^T and the anomalies A are written as their
    draws, not as n x t matrices: U.csv and W.csv, and anomalies.csv, a
    `flow,snapshot,value` table with one row per anomaly in
    `anomaly_positions` order. With r_true = 0, U.csv and W.csv hold one
    zero column, so that U W^T is still X, which is zero."""
    directory = Path(directory)
    u, w = scenario.u, scenario.w
    if u.shape[1] == 0:
        u, w = np.zeros((u.shape[0], 1)), np.zeros((w.shape[0], 1))
    flows, snapshots = np.divmod(scenario.anomaly_positions, scenario.config.t)
    anomalies = zip(flows.tolist(), snapshots.tolist(), scenario.anomaly_values.tolist())
    with _all_or_none(directory):
        write_matrix_csv(scenario.y, directory / "Y.csv")
        write_matrix_csv(scenario.routing, directory / "R.csv")
        write_matrix_csv(u, directory / "U.csv")
        write_matrix_csv(w, directory / "W.csv")
        write_table(("flow", "snapshot", "value"), anomalies, directory / "anomalies.csv")
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


def read_scenario(directory: str | Path, labels: bool = True
                  ) -> tuple[np.ndarray, np.ndarray | None]:
    """Read back the traffic matrix and labels of a scenario directory;
    with labels=False only the traffic matrix is read, and None stands
    for the labels."""
    directory = Path(directory)
    return _read_traffic(directory / "Y.csv", directory / "labels.csv" if labels else None)
