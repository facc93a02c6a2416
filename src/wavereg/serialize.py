"""Plain-text data formats: matrices, vectors and CSV tables.

Matrices go to a diffable, language-neutral format: a comment header, one
line ``rows cols iscomplex``, then row-major entries with "re im" pairs for
complex data. All floats are written with 17 significant digits, which
round-trips every double exactly, so re-running a deterministic pipeline
reproduces files byte for byte.
"""

from __future__ import annotations

import csv

import numpy as np

_MAGIC = "# wavereg matrix v1"


def _fmt(x):
    return f"{x:.17g}"


def save_matrix(path, M):
    """Write a real or complex matrix (or vector) to ``path``."""
    A = np.atleast_2d(np.asarray(M))
    complex_flag = int(np.iscomplexobj(A))
    lines = [_MAGIC, f"{A.shape[0]} {A.shape[1]} {complex_flag}"]
    for row in A:
        if complex_flag:
            lines.append(" ".join(f"{_fmt(z.real)} {_fmt(z.imag)}" for z in row))
        else:
            lines.append(" ".join(_fmt(float(x)) for x in row))
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
    data = []
    for ln in lines[2:]:
        vals = [float(tok) for tok in ln.split()]
        if complex_flag:
            if len(vals) != 2 * cols:
                raise ValueError(f"{path}: malformed complex row")
            data.append([complex(vals[2 * j], vals[2 * j + 1]) for j in range(cols)])
        else:
            if len(vals) != cols:
                raise ValueError(f"{path}: malformed row")
            data.append(vals)
    if cols and len(data) != rows:  # the rows of a zero-column matrix are blank
        raise ValueError(f"{path}: expected {rows} rows, found {len(data)}")
    return np.array(data, dtype=complex if complex_flag else float).reshape(rows, cols)


def load_vector(path):
    """Read a matrix file and flatten it to a vector."""
    return load_matrix(path).ravel()


def save_csv(path, header, rows):
    """Write a CSV table; floats get 17 significant digits (exact round trip)."""
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) if isinstance(v, float) else v for v in row])
