"""Observation container and CSV interchange.

A sample is (D, Y, W, X) per row: a binary selection indicator, an outcome
that is only meaningful where D = 1, one or more instrument columns W and
zero or more covariate columns X. Unobserved outcomes are stored as NaN and
written to CSV as empty fields.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError

INGEST_CHUNK_ROWS = 4096
_BINARY = frozenset(("0", "1"))


@dataclass(frozen=True)
class ObservationSet:
    """Immutable (D, Y, W, X) sample.

    d : (n,) int array with values in {0, 1}
    y : (n,) float array, NaN exactly where d == 0 is allowed
    w : (n, d_w) instrument columns, d_w >= 1
    x : (n, d_x) covariate columns, d_x >= 0

    A 1-D w or x is one column; no other shape is reshaped or transposed.
    """

    d: np.ndarray
    y: np.ndarray
    w: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        # copy before freezing so caller-owned arrays stay writable
        d = np.array(self.d, dtype=int)
        if d.ndim != 1:
            raise InputError(f"d must be 1-D, got shape {d.shape}")
        if d.size == 0:
            raise InputError("a sample needs at least one row")
        y = np.array(self.y, dtype=float)
        w, x = (np.array(a, dtype=float) for a in (self.w, self.x))
        w, x = (a[:, None] if a.ndim == 1 else a for a in (w, x))
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "x", x)
        if not np.isin(d, (0, 1)).all():
            raise InputError("selection indicator must be binary 0/1")
        if y.shape != d.shape or any(a.ndim != 2 or len(a) != len(d) for a in (w, x)):
            raise InputError("d, y, w, x must share the row count; w and x take "
                             "shape (n,) or (n, k)")
        if w.shape[1] < 1:
            raise InputError("at least one instrument column is required")
        if not np.isfinite(y[d == 1]).all():
            raise InputError("outcome missing on a selected (d=1) row")
        if not (np.isfinite(w).all() and np.isfinite(x).all()):
            raise InputError("w and x must be fully observed")
        for a in (d, y, w, x):
            a.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.d)

    @property
    def selected(self) -> np.ndarray:
        return self.d == 1

    @property
    def n_selected(self) -> int:
        return int(self.d.sum())

    def y_filled(self, fill: float = 0.0) -> np.ndarray:
        """Outcome with unselected rows replaced by `fill` (Y = D*Y convention)."""
        return np.where(self.selected, self.y, fill)

    def design_z(self) -> np.ndarray:
        """Quantile-regression design Z = (1, X, W) per row."""
        return np.column_stack([np.ones(self.n), self.x, self.w])

    def z_labels(self) -> list[str]:
        labels = ["intercept"]
        labels += [f"x{i}" for i in range(self.x.shape[1])]
        labels += [f"w{i}" for i in range(self.w.shape[1])]
        return labels


@dataclass(frozen=True)
class ColumnMap:
    """Names of the CSV columns holding d, y, the instruments and covariates."""

    d_column: str
    y_column: str
    w_columns: tuple[str, ...]
    x_columns: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "w_columns", tuple(self.w_columns))
        object.__setattr__(self, "x_columns", tuple(self.x_columns))
        cols = [self.d_column, self.y_column, *self.w_columns, *self.x_columns]
        if len(set(cols)) != len(cols):
            raise InputError("column map assigns one CSV column to two roles")
        if not self.w_columns:
            raise InputError("column map needs at least one instrument column")


def _file_line(path, row_number: int) -> int:
    """Line of the file on which its row_number-th data row ends.

    Data rows are counted from 1 after the header, skipping blank lines, as
    ingest_csv reads them. Only the error path calls this, so reading rows
    never tracks lines.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        next(itertools.islice(filter(None, reader), row_number - 1, None))
        return reader.line_num


def _float_column(cells, name) -> np.ndarray:
    try:
        return np.fromiter(map(float, cells), dtype=float, count=len(cells))
    except ValueError:
        raise InputError(f"column '{name}' not parseable as a number") from None


def _convert_chunk(rows, header, need, di, yi, numeric):
    """(d, y, w and x columns) of one chunk.

    Raises InputError, without a line, for the first check the chunk fails,
    in the order field count, d, y (missing or unparseable), then each w
    and x column. Every check reads one row's cells, so on a one-row chunk
    the error is that row's first.
    """
    if min(map(len, rows)) < need:
        short = next(len(r) for r in rows if len(r) < need)
        raise InputError(f"row has {short} of {len(header)} fields")
    cols = list(zip(*rows))
    dcol = cols[di]
    if not set(dcol) <= _BINARY:
        dcol = [v.strip() for v in dcol]
        if not set(dcol) <= _BINARY:
            bad = next(v for v in dcol if v not in _BINARY)
            raise InputError(f"non-binary selection indicator {bad!r}")
    # every cell is now exactly "0" or "1": one ASCII byte each
    d = np.frombuffer("".join(dcol).encode("ascii"), dtype=np.uint8) - ord("0")
    ycol = cols[yi]
    y = _float_column([v.strip() or "nan" for v in ycol], header[yi])
    nan_sel = np.flatnonzero(np.isnan(y) & (d == 1))
    if any(not ycol[i].strip() for i in nan_sel):
        raise InputError("observed row missing outcome")
    return d, y, np.column_stack([_float_column(cols[i], c) for c, i in numeric])


def ingest_csv(path, colmap: ColumnMap) -> ObservationSet:
    """Read a headered CSV into an ObservationSet.

    d must be 0/1; the y field may be empty only where d = 0; every w and x
    field must be present on every row. Errors name the line of the file
    on which the offending row ends (header = line 1, blank lines counted).

    Fields are split by `csv.reader` (excel dialect) and d and y are
    stripped, so a whitespace-only y is missing. Every number is parsed by
    `float()`, so its grammar (underscores, `nan`, `inf`, Unicode digits)
    is the accepted one. A duplicate header name refers to its last
    column, extra trailing fields are ignored, and a row too short to
    reach every mapped column is an error.

    Rows are read in chunks of INGEST_CHUNK_ROWS and each chunk is
    converted a column at a time, so memory beyond the result is one chunk
    of field strings whatever the file's length: 50 000 rows of four
    numeric columns peak at about 5 MB of traced allocations.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise InputError(f"{path}: empty file, header row required")
        needed = {colmap.d_column, colmap.y_column, *colmap.w_columns, *colmap.x_columns}
        missing = needed - set(header)
        if missing:
            raise InputError(f"{path}: missing column(s) {sorted(missing)}")
        index = {name: i for i, name in enumerate(header)}   # last one wins
        di, yi = index[colmap.d_column], index[colmap.y_column]
        numeric = [(c, index[c]) for c in (*colmap.w_columns, *colmap.x_columns)]
        need = 1 + max(index[c] for c in needed)
        rows_in = filter(None, reader)   # drop blank lines
        chunks, n_read = [], 0
        while rows := list(itertools.islice(rows_in, INGEST_CHUNK_ROWS)):
            try:
                chunks.append(_convert_chunk(rows, header, need, di, yi, numeric))
            except InputError:
                # earlier chunks passed every check: the first row that fails
                # here alone holds the first error in the file
                for k, row in enumerate(rows, start=n_read + 1):
                    try:
                        _convert_chunk([row], header, need, di, yi, numeric)
                    except InputError as exc:
                        line = _file_line(path, k)
                        raise InputError(f"{exc} at line {line}") from None
                raise   # not reached: a chunk fails only where one row does
            n_read += len(rows)
    if not chunks:
        raise InputError(f"{path}: no data rows")
    d, y, wx = (np.concatenate(parts) for parts in zip(*chunks))
    n_w = len(colmap.w_columns)
    return ObservationSet(d=d, y=y, w=wx[:, :n_w], x=wx[:, n_w:])


def write_csv(path, data: ObservationSet, colmap: ColumnMap | None = None) -> ColumnMap:
    """Write an ObservationSet to CSV; round-trips exactly through ingest_csv."""
    if colmap is None:
        colmap = ColumnMap(
            d_column="d", y_column="y",
            w_columns=tuple(f"w{i}" for i in range(data.w.shape[1])),
            x_columns=tuple(f"x{i}" for i in range(data.x.shape[1])),
        )
    header = [colmap.d_column, colmap.y_column, *colmap.w_columns, *colmap.x_columns]
    # the bytes csv.writer gives: repr of each float, "\r\n" line ends; no
    # data field needs quoting, so rows are joined a column at a time
    cols = [list(map(str, data.d.tolist())),
            ["" if v != v else repr(v) for v in data.y.tolist()]]
    cols += [list(map(repr, c)) for c in np.hstack([data.w, data.x]).T.tolist()]
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.write("".join([",".join(row) + "\r\n" for row in zip(*cols)]))
    return colmap
