import csv
import io
import tracemalloc

import numpy as np
import pytest

from selqr import (ColumnMap, InputError, ObservationSet, SimulationSpec,
                   generate, ingest_csv, write_csv)
from selqr.data import INGEST_CHUNK_ROWS
from oracles import ingest_csv_reference

CHUNK = INGEST_CHUNK_ROWS


def assert_bit_equal(got, want):
    for name in ("d", "y", "w", "x"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        if a.dtype == float:
            a, b = a.view(np.uint64), b.view(np.uint64)   # NaN-aware
        assert np.array_equal(a, b), name


def write_text(tmp_path, text, newline="\n"):
    p = tmp_path / "in.csv"
    with open(p, "w", newline="") as fh:
        fh.write(text.replace("\n", newline))
    return p


def numeric_rows(n, seed=0):
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n):
        d = int(rng.random() < 0.7)
        y = repr(float(rng.standard_normal())) if d else ""
        rows.append(f"{d},{y},{rng.standard_normal()!r},{rng.standard_normal()!r}")
    return rows


class TestIngestMatchesRowReader:
    """ingest_csv against the row-at-a-time DictReader it replaced."""

    @pytest.mark.parametrize("text, colmap", [
        # padded d and y, a blank line, quoted fields, whitespace-only y
        (' 1 , 2.5 ,0.1,1.0\n\n0,,0.2,"2.0"\n"1"," -1e3",0.3,3.0\n'
         '0,   ,0.4,4\n 0\t,\t,0.5,5\n',
         ColumnMap("d", "y", ("w0",), ("x0",))),
        # float() grammar: underscores, nan/inf on d = 0, Unicode digits
        ("1,1_000,0.1,1\n0,nan,0.2,2\n0,inf,0.3,3\n0,-Infinity,1_0.5,4\n"
         "1,１２,0.5,١\n",
         ColumnMap("d", "y", ("w0",), ("x0",))),
    ])
    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_layout_and_grammar(self, tmp_path, text, colmap, newline):
        p = write_text(tmp_path, "d,y,w0,x0\n" + text, newline)
        assert_bit_equal(ingest_csv(p, colmap), ingest_csv_reference(p, colmap))

    @pytest.mark.parametrize("text, colmap", [
        # an extra column, unused and trailing, and an extra unnamed field
        ("d,y,w0,x0,note\n1,1.5,0.25,7,a\n0,,0.5,-0.0,b\n1,-2.5,1e-310,3,c,extra\n",
         ColumnMap("d", "y", ("w0",), ("x0",))),
        # a duplicate header name resolves to its last column; no x column
        ("d,y,w0,w0\n1,1.5,0.25,7\n0,,0.5,-0.0\n1,-2.5,1e-310,3\n",
         ColumnMap("d", "y", ("w0",))),
        # two x columns, mapped out of file order
        ("x1,d,y,w0,x0\n5,1,1.5,0.25,7\n6,0,,0.5,-0.0\n7,1,-2.5,1e-310,3\n",
         ColumnMap("d", "y", ("w0",), ("x0", "x1"))),
    ])
    def test_column_selection(self, tmp_path, text, colmap):
        p = write_text(tmp_path, text)
        got = ingest_csv(p, colmap)
        assert_bit_equal(got, ingest_csv_reference(p, colmap))
        assert got.x.shape == (3, len(colmap.x_columns))

    @pytest.mark.parametrize("n", [CHUNK - 1, CHUNK, CHUNK + 1])
    def test_chunk_boundaries(self, tmp_path, n):
        p = write_text(tmp_path, "\n".join(["d,y,w0,x0", *numeric_rows(n)]) + "\n")
        colmap = ColumnMap("d", "y", ("w0",), ("x0",))
        got = ingest_csv(p, colmap)
        assert got.n == n
        assert_bit_equal(got, ingest_csv_reference(p, colmap))

    @pytest.mark.parametrize("bad_row, message", [
        ("2,1.0,0.5,0.5", "non-binary selection indicator '2'"),
        (" 1 , \t,0.5,0.5", "observed row missing outcome"),
        ("0,,0.5x,0.5", "column 'w0' not parseable"),
        ("1,1.0,0.5,", "column 'x0' not parseable"),
    ])
    def test_errors_past_first_chunk(self, tmp_path, bad_row, message):
        rows = numeric_rows(CHUNK + 400)
        rows[CHUNK + 100] = bad_row
        rows.insert(CHUNK // 2, "")   # a blank line counts as a line
        p = write_text(tmp_path, "\n".join(["d,y,w0,x0", *rows]) + "\n")
        colmap = ColumnMap("d", "y", ("w0",), ("x0",))
        with pytest.raises(InputError) as want:
            ingest_csv_reference(p, colmap)
        with pytest.raises(InputError) as got:
            ingest_csv(p, colmap)
        assert str(got.value) == str(want.value)
        assert message in str(got.value) and f"line {CHUNK + 103}" in str(got.value)

    def test_first_error_wins_across_columns(self, tmp_path):
        # a bad w before a bad d in the same chunk: the earlier line is named
        rows = numeric_rows(CHUNK + 300)
        rows[CHUNK + 10] = "1,1.0,oops,0.5"
        rows[CHUNK + 200] = "7,1.0,0.5,0.5"
        p = write_text(tmp_path, "\n".join(["d,y,w0,x0", *rows]) + "\n")
        with pytest.raises(InputError, match=f"'w0' not parseable .* line {CHUNK + 12}$"):
            ingest_csv(p, ColumnMap("d", "y", ("w0",), ("x0",)))


class TestIngestErrors:
    def test_short_row(self, tmp_path):
        p = write_text(tmp_path, "d,y,w0,x0\n1,2.0,0.5,0.1\n1,3.0\n")
        with pytest.raises(InputError, match="^row has 2 of 4 fields at line 3$"):
            ingest_csv(p, ColumnMap("d", "y", ("w0",), ("x0",)))

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    @pytest.mark.parametrize("text, line", [
        ("d,y,w0\n\n1,,0.1\n", 3),                          # a blank line above
        ('d,y,w0,note\n1,2.0,0.5,"a\nb"\n1,,0.1,c\n', 4),   # a quoted line break
    ])
    def test_error_names_file_line(self, tmp_path, text, line, newline):
        p = write_text(tmp_path, text, newline)
        colmap = ColumnMap("d", "y", ("w0",))
        for reader in (ingest_csv, ingest_csv_reference):
            with pytest.raises(InputError,
                               match=f"^observed row missing outcome at line {line}$"):
                reader(p, colmap)

    def test_row_short_only_in_unmapped_columns(self, tmp_path):
        p = write_text(tmp_path, "d,y,w0,note\n1,2.0,0.5\n0,,0.25,a\n")
        data = ingest_csv(p, ColumnMap("d", "y", ("w0",)))
        assert data.w[:, 0].tolist() == [0.5, 0.25]

    @pytest.mark.parametrize("text, message", [
        ("", "empty file"),
        ("\nd,y,w0\n1,1.0,0.5\n", "missing column"),
        ("d,y,w0\n\n\n", "no data rows"),
        # a literal nan is not an empty field: the sample check rejects it
        ("d,y,w0\n1,nan,0.5\n", "outcome missing on a selected"),
    ])
    def test_same_error_as_row_reader(self, tmp_path, text, message):
        p = write_text(tmp_path, text)
        colmap = ColumnMap("d", "y", ("w0",))
        for reader in (ingest_csv, ingest_csv_reference):
            with pytest.raises(InputError, match=message):
                reader(p, colmap)


def test_ingest_memory_bound(tmp_path):
    """50 000 rows: the traced peak stays well below a row-at-a-time reader's
    17 MB (a dict and a list of floats per row)."""
    gd = generate(SimulationSpec("C", "M2", n=50_000, reps=1, seed=0), 0)
    p = tmp_path / "big.csv"
    colmap = write_csv(p, gd.data)
    tracemalloc.start()
    try:
        data = ingest_csv(p, colmap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert data.n == 50_000
    assert peak < 12e6


def write_csv_reference(data, colmap) -> bytes:
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow([colmap.d_column, colmap.y_column, *colmap.w_columns,
                     *colmap.x_columns])
    for i in range(data.n):
        yi = "" if np.isnan(data.y[i]) else repr(float(data.y[i]))
        writer.writerow([str(int(data.d[i])), yi,
                         *(repr(float(v)) for v in data.w[i]),
                         *(repr(float(v)) for v in data.x[i])])
    return buf.getvalue().encode()


@pytest.mark.parametrize("d_x", [0, 2])
def test_write_csv_bytes_match_csv_writer(tmp_path, d_x):
    d = np.array([1, 0, 1, 0, 1])
    y = np.array([-0.0, np.nan, 5e-324, np.inf, 1.0 / 3.0])
    w = np.array([[2.2250738585072014e-308, 1e16],
                  [-0.0, 1e-300], [0.1, -1.5e17], [3.0, 0.0], [1e-320, 7.0]])
    x = np.arange(5 * d_x, dtype=float).reshape(5, d_x) / 7.0
    data = ObservationSet(d=d, y=y, w=w, x=x)
    for colmap in (None, ColumnMap("sel", "wage, eur", ("iv \"a\"", "w1"),
                                   tuple(f"x{i}" for i in range(d_x)))):
        p = tmp_path / "out.csv"
        used = write_csv(p, data, colmap)
        assert p.read_bytes() == write_csv_reference(data, used)
        assert_bit_equal(ingest_csv(p, used), data)


@pytest.mark.parametrize("role", ["w", "x"])
def test_column_orientation_is_never_guessed(role):
    # a 1-D array is one column; a 2-D array must have n rows, so a
    # transposed (k, n) array is refused instead of reshaped or transposed
    n = 6
    d, y = np.ones(n, dtype=int), np.arange(n, dtype=float)
    cols = np.arange(2 * n, dtype=float).reshape(n, 2)
    given = {"w": cols, "x": cols}
    data = ObservationSet(d=d, y=y, **given)
    assert np.array_equal(getattr(data, role), cols)
    one = ObservationSet(d=d, y=y, **{**given, role: cols[:, 0]})
    assert np.array_equal(getattr(one, role), cols[:, :1])
    for bad in (cols.T, cols.reshape(n, 2, 1), np.float64(1.0)):
        with pytest.raises(InputError, match=r"w and x take shape \(n,\) or \(n, k\)"):
            ObservationSet(d=d, y=y, **{**given, role: bad})


def test_empty_sample_is_an_input_error():
    with pytest.raises(InputError, match="at least one row"):
        ObservationSet(d=[], y=[], w=np.zeros((0, 1)), x=np.zeros((0, 1)))


@pytest.mark.parametrize("d, y", [(1, 1.0), ([[1, 0]], [[1.0, np.nan]])],
                         ids=["scalar", "one_by_two"])
def test_d_must_be_one_dimensional(d, y):
    # a scalar d once raised a raw TypeError, and a (1, 2) d passed as one row
    with pytest.raises(InputError, match="d must be 1-D"):
        ObservationSet(d=d, y=y, w=np.ones((1, 1)), x=np.zeros((1, 0)))
