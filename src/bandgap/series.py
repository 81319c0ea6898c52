"""Finite real-valued sample sequences on integer windows, plus CSV I/O.

A Series stores one float64 value per window index (a vector in 1D, a
row-major matrix in 2D).  The CSV format has a header `t,value` (1D) or
`t1,t2,value` (2D); missing samples are simply absent rows, so writing a
masked series and reading it back reproduces both values and gaps.

Reading has two paths.  The row parser `_read_rows` defines the format
(comment and blank lines, CSV quoting, `int`/`float` fields) and names
the line of every error.  `read_series_csv` first hands the path of a
regular file to one `np.loadtxt` call, which streams the body to numpy's
C reader in large chunks; whatever that path refuses, the row parser
reads or rejects, so both paths give the same series or the same
exception.  Numpy opens a path by its suffix and decompresses
`.gz`, `.bz2`, `.xz` and `.lzma` files, so files with those suffixes
always go to the row parser, which reads every file as plain text.
"""

from __future__ import annotations

import csv
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, ParameterError
from .masks import Index, IndexWindow, as_indices

# The header of a series file, by dimensionality.
_HEADERS = (["t", "value"], ["t1", "t2", "value"])

# Suffixes that numpy's file opener decompresses (numpy.lib._datasource).
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


@dataclass(frozen=True, eq=False)
class Series:
    """Samples indexed by a window; the sample at t is values[t - window.lo], per axis in 2D."""

    window: IndexWindow
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.shape != self.window.shape:
            raise GeometryError(
                f"values shape {values.shape} does not match window shape {self.window.shape}"
            )
        object.__setattr__(self, "values", values)

    @property
    def ndim(self) -> int:
        return self.window.ndim

    @classmethod
    def zeros(cls, window: IndexWindow) -> "Series":
        return cls(window=window, values=np.zeros(window.shape))


def _parse_header(fields: list[str]) -> int:
    fields = [f.strip().lower() for f in fields]
    if fields not in _HEADERS:
        raise ParameterError(f"unrecognized series header {fields!r}; expected t,value or t1,t2,value")
    return _HEADERS.index(fields) + 1


def read_series_csv(path) -> tuple[Series, list[Index]]:
    """Read a series file; returns (series, absent-in-window indices).

    The window is the bounding box of the indices present in the file; any
    in-window index with no row is reported as absent (a gap) and its value
    is zero in the returned series.  A window above `masks.MAX_WINDOW_SIZE` entries
    is rejected before anything of its size is allocated.

    The body of a regular file is parsed by one `np.loadtxt` call on its
    path.  Any ValueError on that path sends the file to the row parser,
    `_read_rows`, which defines the format and whose result or exception
    is final: comment lines, quotes and malformed rows are read or reported
    exactly as it does, with the error naming the line in the file.  Two
    kinds of file go to the row parser directly: one that is not regular,
    such as a pipe, which may not be readable twice, and one whose suffix
    numpy would decompress (`.gz`, `.bz2`, `.xz`, `.lzma`), which is read
    as plain text like any other.
    """
    if os.path.isfile(path) and os.path.splitext(path)[1] not in _COMPRESSED:
        try:
            return _read_table(path)
        except ValueError:
            pass  # not chained: the row parser's exception stands on its own
    return _read_rows(path)


def _read_table(path) -> tuple[Series, list[Index]]:
    """The fast path: a header on line 1, then only numeric rows and blank lines.

    numpy gets the path, not the text: given a file name it reads the file
    in large chunks, where any other source is fed to it line by line.  The
    path is made absolute, so that numpy's opener cannot take it for a URL.
    Index columns parse as exact int64 (an overflow is a ValueError).  A
    non-finite sample, a repeated index or an empty body is refused too,
    so that the row parser names its line.
    """
    with open(path, "r", newline="", encoding="utf-8") as f:
        ndim = _parse_header(f.readline().split(","))
    with warnings.catch_warnings():
        # older numpy reads "1.5" in an integer column as 1, with only this warning
        warnings.filterwarnings("error", ".*integer via a float", DeprecationWarning)
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        table = np.loadtxt(os.path.abspath(path), delimiter=",", dtype=[("t", np.int64, (ndim,)), ("v", np.float64)],
                           comments=None, quotechar=None, skiprows=1, ndmin=1, encoding="utf-8")
    if not len(table):
        raise ValueError("no data rows")
    if not np.isfinite(table["v"]).all():
        raise ValueError("non-finite sample")
    # The lines the rows would have if no blank line was skipped; an error
    # that names one is a ValueError, so the row parser reports it instead.
    return _from_arrays(path, table["t"], table["v"], range(2, len(table) + 2))


def _read_rows(path) -> tuple[Series, list[Index]]:
    """The reference parser: rows one by one, each error naming its line in the file."""
    idx: list[int] = []
    vals: list[float] = []
    lines: list[int] = []
    with open(path, "r", newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        rows = (r for r in reader if r and not r[0].lstrip().startswith("#"))
        header = next(rows, None)
        if header is None:
            raise ParameterError(f"series file {path} is empty")
        ndim = _parse_header(header)
        for row in rows:
            lines.append(reader.line_num)
            if len(row) != ndim + 1:
                raise ParameterError(f"{path}:{lines[-1]}: expected {ndim + 1} fields, got {len(row)}")
            try:
                idx.extend(map(int, row[:ndim]))
                vals.append(float(row[ndim]))
            except ValueError as exc:
                raise ParameterError(f"{path}:{lines[-1]}: {exc}") from exc
    if not vals:
        raise ParameterError(f"series file {path} has no data rows")
    values = np.array(vals)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ParameterError(f"{path}:{lines[bad[0]]}: non-finite sample {str(values[bad[0]])!r}")
    try:
        coords = np.array(idx, dtype=np.int64).reshape(-1, ndim)
    except OverflowError as exc:
        raise GeometryError(f"{path}: index does not fit in 64 bits") from exc
    return _from_arrays(path, coords, values, lines)


def _from_arrays(path, coords: np.ndarray, values: np.ndarray, lines) -> tuple[Series, list[Index]]:
    """Window, duplicates, fill and absent list of rows (coords[i], values[i]) from line lines[i]."""
    lo = coords.min(axis=0)
    window = IndexWindow(lo, coords.max(axis=0))
    try:
        filled = np.zeros(window.checked_size())
    except GeometryError as exc:
        raise GeometryError(f"{path}: {exc}") from exc
    flat = np.ravel_multi_index(tuple((coords - lo).T), window.shape)
    order = np.argsort(flat, kind="stable")
    repeats = order[1:][flat[order[1:]] == flat[order[:-1]]]
    if repeats.size:
        row = int(repeats.min())
        (t,) = as_indices(coords[row:row + 1])
        raise ParameterError(f"{path}:{lines[row]}: duplicate index {t!r}")
    filled[flat] = values
    present = np.zeros(filled.size, dtype=bool)
    present[flat] = True
    absent = list(as_indices(np.argwhere(~present.reshape(window.shape)) + lo))
    return Series(window=window, values=filled.reshape(window.shape)), absent
