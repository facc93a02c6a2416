"""Plain-text data formats: matrices, vectors and CSV tables.

Matrices go to a diffable, language-neutral format: a comment header, one
line ``rows cols iscomplex``, then row-major entries with "re im" pairs for
complex data. CSV tables are named columns: a header line, then one
CRLF-terminated row per entry. All floats are written with 17 significant
digits, which round-trips every double exactly, so re-running a
deterministic pipeline reproduces files byte for byte.
"""

from __future__ import annotations

import contextlib
from pathlib import Path

import numpy as np

_MAGIC = "# wavereg matrix v1"


def _fmt(x):
    return f"{x:.17g}"


def save_matrix(path, M):
    """Write a real or complex matrix (or vector) to ``path``; a complex
    matrix is written as the real array of its "re im" pairs."""
    A = np.atleast_2d(np.asarray(M))
    complex_flag = int(np.iscomplexobj(A))
    values = np.ascontiguousarray(A, dtype=complex if complex_flag else float).view(float)
    lines = [_MAGIC, f"{A.shape[0]} {A.shape[1]} {complex_flag}"]
    lines += [" ".join(map(_fmt, row)) for row in values.tolist()]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_matrix(path):
    """Read a matrix written by :func:`save_matrix`."""
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != _MAGIC:
        raise ValueError(f"{path} is not a wavereg matrix file")
    header = lines[1].split() if len(lines) > 1 else []
    if len(header) != 3 or not all(tok.isdigit() for tok in header) or header[2] not in ("0", "1"):
        raise ValueError(f"{path}: missing or malformed 'rows cols iscomplex' line")
    rows, cols, complex_flag = (int(tok) for tok in header)
    width = cols * (1 + complex_flag)  # the real entries of a row
    data = [[float(tok) for tok in ln.split()] for ln in lines[2:]]
    if any(len(vals) != width for vals in data):
        raise ValueError(f"{path}: malformed {'complex ' * complex_flag}row")
    if cols and len(data) != rows:  # the rows of a zero-column matrix are blank
        raise ValueError(f"{path}: expected {rows} rows, found {len(data)}")
    values = np.array(data, dtype=float).reshape(rows, width)
    return values.view(complex) if complex_flag else values


def load_vector(path):
    """Read a matrix file and flatten it to a vector."""
    return load_matrix(path).ravel()


@contextlib.contextmanager
def csv_table(path, names):
    """Write a CSV table with the columns ``names`` to ``path``: a header line, then
    the rows of each ``{name: column}`` passed to the yielded function, one per entry
    of its first column. Each column is an array, flattened in row-major order; a
    shorter column ends in empty cells, and a longer one raises ``ValueError``. Floats
    get 17 significant digits (exact round trip), other values are written with
    ``str``. The file is removed if the block raises."""

    def write_rows(columns):
        cells = [[_fmt(v) if isinstance(v, float) else str(v) for v in np.ravel(col).tolist()]
                 for col in columns.values()]
        n = len(cells[0])
        for name, col in zip(columns, cells):
            if len(col) > n:
                raise ValueError(f"column {name!r} has {len(col)} entries, the first has {n}")
        rows = zip(*(col + [""] * (n - len(col)) for col in cells))
        fh.write("".join(",".join(row) + "\r\n" for row in rows))

    try:
        with open(path, "w", newline="", encoding="ascii") as fh:
            fh.write(",".join(names) + "\r\n")
            yield write_rows
    except BaseException:
        Path(path).unlink(missing_ok=True)
        raise


def save_csv(path, columns):
    """Write the named ``columns``, in order, as a CSV table (:func:`csv_table`)."""
    with csv_table(path, columns) as write_rows:
        write_rows(columns)
