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
    """

    d: np.ndarray
    y: np.ndarray
    w: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        # copy before freezing so caller-owned arrays stay writable
        d = np.array(self.d, dtype=int)
        y = np.array(self.y, dtype=float)
        w = np.atleast_2d(np.array(self.w, dtype=float))
        x = np.array(self.x, dtype=float).reshape(len(d), -1)
        if w.shape[0] != len(d):
            w = w.T
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "x", x)
        if not np.isin(d, (0, 1)).all():
            raise InputError("selection indicator must be binary 0/1")
        if y.shape != d.shape or w.shape[0] != len(d) or x.shape[0] != len(d):
            raise InputError("d, y, w, x must share the row count")
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

    @property
    def d_z(self) -> int:
        return 1 + self.x.shape[1] + self.w.shape[1]

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


def _parse_cell(raw: str, col: str, line: int) -> float:
    try:
        return float(raw)
    except ValueError:
        raise InputError(f"column '{col}' not parseable as a number at line {line}") from None


def _raise_first_error(rows, first_line, n_fields, need, di, yi, numeric, y_name):
    """Scan a chunk that failed a bulk check row by row; raise its first error.

    Per row the checks run in order: field count, d, a missing y, y, then
    each w and x column. Earlier chunks passed every check, so this is the
    first error in the file.
    """
    for line, row in enumerate(rows, start=first_line):
        if len(row) < need:
            raise InputError(f"row has {len(row)} of {n_fields} fields at line {line}")
        draw = row[di].strip()
        if draw not in _BINARY:
            raise InputError(f"non-binary selection indicator {draw!r} at line {line}")
        yraw = row[yi].strip()
        if draw == "1" and yraw == "":
            raise InputError(f"observed row missing outcome at line {line}")
        if yraw:
            _parse_cell(yraw, y_name, line)
        for c, i in numeric:
            _parse_cell(row[i], c, line)


def _float_column(cells) -> np.ndarray:
    return np.fromiter(map(float, cells), dtype=float, count=len(cells))


def _convert_chunk(rows, need, di, yi, numeric):
    """(d, y, w and x columns) of one chunk; ValueError if any check fails."""
    if min(map(len, rows)) < need:
        raise ValueError("short row")
    cols = list(zip(*rows))
    dcol = cols[di]
    if not set(dcol) <= _BINARY:
        dcol = [v.strip() for v in dcol]
        if not set(dcol) <= _BINARY:
            raise ValueError("non-binary d")
    # every cell is now exactly "0" or "1": one ASCII byte each
    d = np.frombuffer("".join(dcol).encode("ascii"), dtype=np.uint8) - ord("0")
    ycol = cols[yi]
    y = _float_column([v.strip() or "nan" for v in ycol])
    nan_sel = np.flatnonzero(np.isnan(y) & (d == 1))
    if any(not ycol[i].strip() for i in nan_sel):
        raise ValueError("missing y on a selected row")
    return d, y, np.column_stack([_float_column(cols[i]) for _, i in numeric])


def ingest_csv(path, colmap: ColumnMap) -> ObservationSet:
    """Read a headered CSV into an ObservationSet.

    d must be 0/1; the y field may be empty only where d = 0; every w and x
    field must be present on every row. Errors name the offending line
    (header = line 1, blank lines not counted).

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
        chunks, line = [], 2
        while rows := list(itertools.islice(rows_in, INGEST_CHUNK_ROWS)):
            try:
                chunks.append(_convert_chunk(rows, need, di, yi, numeric))
            except ValueError:
                _raise_first_error(rows, line, len(header), need, di, yi, numeric,
                                   colmap.y_column)
                raise   # only if the scan and the bulk checks disagree
            line += len(rows)
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
