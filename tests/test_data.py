import csv
import io
import os

import numpy as np
import pytest

from privsvm.data import (
    CsvError,
    Database,
    DomainBox,
    load_csv,
    neighbor_replace_last,
    read_rows,
)

SAMPLE = "1.0,0.0,+1\n-1.0,0.0,-1\n0.5,0.5,+1"


def test_load_csv_basic():
    db = load_csv(io.StringIO(SAMPLE))
    assert db.n == 3
    assert db.dim == 2
    assert np.array_equal(db.points, [[1.0, 0.0], [-1.0, 0.0], [0.5, 0.5]])
    assert np.array_equal(db.labels, [1.0, -1.0, 1.0])


def test_load_csv_accepts_stream_and_bytes(tmp_path):
    assert load_csv(io.BytesIO(SAMPLE.encode())).n == 3
    path = tmp_path / "sample.csv"
    path.write_text(SAMPLE)
    for source in (path, str(path), os.fsencode(path)):
        assert load_csv(source).n == 3


@pytest.mark.parametrize("read", [load_csv, read_rows], ids=["load_csv", "read_rows"])
def test_missing_str_path_is_os_error_naming_it(tmp_path, read):
    # a str is always a path, never CSV text, even when no file has its name
    missing = str(tmp_path / "trian.csv")
    with pytest.raises(OSError, match="trian.csv"):
        read(missing)


def test_load_csv_crlf_and_trailing_newline():
    db = load_csv(io.StringIO("1.0,0.0,+1\r\n-1.0,0.0,-1\r\n"))
    assert db.n == 2


def test_load_csv_header_skipped():
    db = load_csv(io.StringIO("x1,x2,y\n" + SAMPLE), has_header=True)
    assert db.n == 3


def test_load_csv_empty_is_size_error():
    with pytest.raises(CsvError, match="more than one"):
        load_csv(io.StringIO(""))


def test_load_csv_single_row_is_size_error():
    with pytest.raises(CsvError, match="more than one"):
        load_csv(io.StringIO("1.0,0.0,+1"))


def test_load_csv_bad_label():
    with pytest.raises(CsvError, match="label"):
        load_csv(io.StringIO("1.0,0.0,2\n0.0,1.0,-1"))


def test_load_csv_ragged_row_reports_index():
    with pytest.raises(CsvError, match="row 2"):
        load_csv(io.StringIO("1.0,0.0,+1\n1.0,-1\n0.0,1.0,-1"))


def test_load_csv_non_numeric_reports_index():
    with pytest.raises(CsvError, match="row 3"):
        load_csv(io.StringIO("1.0,0.0,+1\n0.0,1.0,-1\nfoo,1.0,-1"))


# padded and quoted tokens, CRLF, blank and whitespace-only lines, a header,
# and tokens whose parse is easy to get wrong
CORNER_CSV = (
    'x1,"x 2",y\r\n'
    "\r\n"
    ' 1.5 ,"-0.0", +1 \r\n'
    "   ,  \r\n"
    "1_000,1e-400,-1\n"
    '"inf",\t2\t,+1\n'
    "\n"
    "nan,-nan,1\r\n"
    '" -0.0 ",+1,-1\n'
)


def per_token_reference(text, has_header):
    """The row-by-row parse: float(tok.strip()) per token, blank rows skipped."""
    rows, line_numbers = [], []
    for lineno, row in enumerate(csv.reader(io.StringIO(text)), start=1):
        if row and not all(tok.strip() == "" for tok in row):
            rows.append(row)
            line_numbers.append(lineno)
    if has_header:
        rows, line_numbers = rows[1:], line_numbers[1:]
    return np.array([[float(tok.strip()) for tok in row] for row in rows]), line_numbers


def test_read_rows_matches_per_token_reference():
    values, line_numbers = read_rows(io.BytesIO(CORNER_CSV.encode()), has_header=True)
    expected, expected_lines = per_token_reference(CORNER_CSV, True)
    assert values.shape == (5, 3) and values.dtype == np.float64
    # bytes, so the sign of -0.0 and the nan payloads count too
    assert values.tobytes() == expected.tobytes()
    assert line_numbers == expected_lines == [3, 5, 6, 8, 9]
    assert np.signbit(values[0, 1]) and values[1].tolist() == [1000.0, 0.0, -1.0]


def test_read_rows_without_rows_is_empty():
    values, line_numbers = read_rows(io.StringIO("\n  ,\r\nx,y\n"), has_header=True)
    assert values.shape == (0, 0) and line_numbers == []


@pytest.mark.parametrize("text, message", [
    ("1.0,2.0\n\n0.5, foo ,\n", "row 3: expected 2 fields, got 3 (ragged row)"),
    ("1.0,2.0\n\n0.5, foo \n1.0\n", "row 3: could not convert string to float: 'foo'"),
    ("1.0,2.0\n0.5,1_\n", "row 2: could not convert string to float: '1_'"),
    ("1.0,2.0\n0.5,\n", "row 2: could not convert string to float: ''"),
])
def test_read_rows_error_names_first_bad_row(text, message):
    with pytest.raises(CsvError) as info:
        read_rows(io.StringIO(text))
    assert str(info.value) == message


def test_csv_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    points = np.concatenate(
        [rng.standard_normal((5, 3)) * 10.0 ** rng.integers(-8, 8, (5, 3)),
         [[0.1, 1 / 3, -1e-300]]]
    )
    labels = rng.choice([-1.0, 1.0], 6)
    db = Database(points, labels)
    path = tmp_path / "round_trip.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for x, y in zip(points.tolist(), labels):
            writer.writerow([repr(v) for v in x] + ["+1" if y > 0 else "-1"])
    back = load_csv(path)
    assert np.array_equal(back.points, db.points)
    assert np.array_equal(back.labels, db.labels)


def test_example_validation():
    # the replacement entry is validated by the Database it lands in
    db = Database(np.zeros((2, 2)), np.array([1.0, -1.0]))
    with pytest.raises(ValueError, match="finite"):
        neighbor_replace_last(db, np.array([1.0, np.nan]), 1)
    with pytest.raises(ValueError, match="labels"):
        neighbor_replace_last(db, np.array([1.0, 0.0]), 0)


def test_database_validation():
    with pytest.raises(ValueError):
        Database(np.ones((1, 2)), np.array([1.0]))
    with pytest.raises(ValueError):
        Database(np.ones((3, 2)), np.array([1.0, 2.0, -1.0]))
    with pytest.raises(ValueError):
        Database(np.array([[np.inf, 0.0], [0.0, 0.0]]), np.array([1.0, -1.0]))


def test_database_is_immutable():
    db = load_csv(io.StringIO(SAMPLE))
    with pytest.raises(ValueError):
        db.points[0, 0] = 5.0


def test_database_copies_arrays_it_could_not_keep_frozen():
    # every array is copied: a writeable one, a read-only view, and a
    # read-only array that owns its memory, whose owner may make it
    # writeable again
    labels = np.array([1.0, -1.0, 1.0])
    writeable = np.arange(6.0).reshape(3, 2)
    db = Database(writeable, labels)
    assert not np.shares_memory(db.points, writeable)
    writeable[0, 0] = 9.0
    assert db.points[0, 0] == 0.0
    base = np.arange(8.0).reshape(4, 2)
    view = base[:3]
    view.setflags(write=False)
    db = Database(view, labels)
    assert not np.shares_memory(db.points, base)
    base[0, 0] = 9.0
    assert db.points[0, 0] == 0.0
    owned = np.arange(6.0).reshape(3, 2).copy()
    owned.setflags(write=False)
    assert not np.shares_memory(Database(owned, labels).points, owned)


def test_database_unchanged_when_owner_unfreezes_its_array():
    a = np.ones((2, 2))
    a.setflags(write=False)
    db = Database(a, np.array([1.0, -1.0]))
    a.setflags(write=True)
    a[0, 0] = 5.0
    assert db.points[0, 0] == 1.0
    assert not db.points.flags.writeable


def test_neighbor_replace_last():
    db = load_csv(io.StringIO(SAMPLE))
    flipped = neighbor_replace_last(db, np.array([0.5, 0.5]), -1)
    assert np.array_equal(flipped.points, db.points)
    assert np.array_equal(flipped.labels[:-1], db.labels[:-1])
    assert flipped.labels[-1] == -1.0
    assert np.array_equal(db.labels, [1.0, -1.0, 1.0])  # original untouched


def test_neighbor_identity_case():
    db = load_csv(io.StringIO(SAMPLE))
    same = neighbor_replace_last(db, db.points[-1], db.labels[-1])
    assert same == db


def test_neighbor_dimension_mismatch():
    db = load_csv(io.StringIO(SAMPLE))
    with pytest.raises(ValueError, match="dimension"):
        neighbor_replace_last(db, np.zeros(3), 1)


def test_neighbor_shares_prefix_randomized():
    rng = np.random.default_rng(7)
    for _ in range(20):
        db = Database(rng.standard_normal((6, 2)), rng.choice([-1.0, 1.0], 6))
        out = neighbor_replace_last(db, rng.standard_normal(2), rng.choice([-1, 1]))
        assert np.array_equal(out.points[:-1], db.points[:-1])
        assert np.array_equal(out.labels[:-1], db.labels[:-1])


def test_domain_box_helpers():
    box = DomainBox(np.array([-1.0, -2.0]), np.array([0.5, 1.0]))
    assert box.max_l2_norm() == pytest.approx(np.sqrt(1.0 + 4.0), rel=1e-15)
    assert box.max_abs_coordinate() == 2.0
    grid = box.grid(3)
    assert grid.shape == (9, 2)
    assert np.array_equal(grid[0], [-1.0, -2.0])
    assert np.array_equal(grid[-1], [0.5, 1.0])
    disp = box.displacement_box()
    assert np.array_equal(disp.lower, [-1.5, -3.0])
    assert np.array_equal(disp.upper, [1.5, 3.0])


def test_domain_box_validation():
    with pytest.raises(ValueError):
        DomainBox(np.array([1.0]), np.array([0.0]))
    with pytest.raises(ValueError):
        DomainBox(np.array([np.inf]), np.array([np.inf]))
