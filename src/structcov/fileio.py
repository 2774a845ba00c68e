"""CSV formats for samples, dictionaries, scatter matrices, and results.

Real data is written as plain CSV. Complex data doubles the columns,
interleaving real and imaginary parts, and is marked by a leading
``# field=complex`` header line. Floats are written with ``repr`` so a
rewrite of identical values is byte-identical.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .exceptions import InvalidInputError
from .tyler import SampleSet

_COMPLEX_HEADER = "# field=complex"


def _fmt(x: float) -> str:
    return repr(float(x))


def _interleave(arr: np.ndarray) -> np.ndarray:
    out = np.empty((arr.shape[0], 2 * arr.shape[1]))
    out[:, 0::2] = arr.real
    out[:, 1::2] = arr.imag
    return out


def _deinterleave(arr: np.ndarray) -> np.ndarray:
    if arr.shape[1] % 2 != 0:
        raise InvalidInputError("complex CSV must have an even number of columns")
    return arr[:, 0::2] + 1j * arr[:, 1::2]


def write_array(path, arr) -> None:
    """Write a 2-D real or complex array as CSV."""
    arr = np.atleast_2d(np.asarray(arr))
    path = Path(path)
    is_complex = np.iscomplexobj(arr)
    rows = _interleave(arr) if is_complex else arr
    with path.open("w", newline="") as fh:
        if is_complex:
            fh.write(_COMPLEX_HEADER + "\n")
        writer = csv.writer(fh)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def read_array(path) -> np.ndarray:
    """Read a 2-D array written by :func:`write_array` (or any numeric CSV).

    Blank and ``#`` lines are skipped; only the first non-blank line can be the complex header.
    """
    path = Path(path)
    if not path.exists():
        raise InvalidInputError(f"no such file: {path}")
    lines = [line for line in map(str.strip, path.read_text().split("\n")) if line]
    rows = [line for line in lines if not line.startswith("#")]
    if not rows:
        raise InvalidInputError(f"{path} contains no data rows")
    try:
        arr = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:
        raise InvalidInputError(f"bad row in {path}: {exc}") from None
    is_complex = lines[0].startswith("#") and "field=complex" in lines[0]
    return _deinterleave(arr) if is_complex else arr


def read_samples(path) -> SampleSet:
    """Load a sample file: one sample per row."""
    return SampleSet.from_array(read_array(path))


def read_dictionary(path) -> np.ndarray:
    """Load dictionary atoms (one atom per row) as a K x L column matrix."""
    return read_array(path).T


def write_results_csv(path, rows, columns) -> None:
    """Write bench result rows (list of dicts) with a fixed column order."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            out = []
            for col in columns:
                v = row.get(col, "")
                if isinstance(v, float):
                    out.append(_fmt(v))
                else:
                    out.append("" if v is None else str(v))
            writer.writerow(out)
