import csv
import io
import os

import numpy as np
import pytest

from privsvm.data import (
    CsvError,
    Database,
    DomainBox,
    Example,
    bounding_box,
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
    with pytest.raises(ValueError):
        Example(np.array([1.0, np.nan]), 1)
    with pytest.raises(ValueError):
        Example(np.array([1.0]), 0)


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
    # a writeable array, or a read-only view of one, could still change
    # under the Database, so it is copied; a read-only array that owns its
    # memory is kept as it is, so a feature matrix is held once
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
    assert Database(owned, labels).points is owned


def test_neighbor_replace_last():
    db = load_csv(io.StringIO(SAMPLE))
    flipped = neighbor_replace_last(db, Example(np.array([0.5, 0.5]), -1))
    assert np.array_equal(flipped.points, db.points)
    assert np.array_equal(flipped.labels[:-1], db.labels[:-1])
    assert flipped.labels[-1] == -1.0
    assert np.array_equal(db.labels, [1.0, -1.0, 1.0])  # original untouched


def test_neighbor_identity_case():
    db = load_csv(io.StringIO(SAMPLE))
    same = neighbor_replace_last(db, Example(db.points[-1], int(db.labels[-1])))
    assert same == db


def test_neighbor_dimension_mismatch():
    db = load_csv(io.StringIO(SAMPLE))
    with pytest.raises(ValueError, match="dimension"):
        neighbor_replace_last(db, Example(np.zeros(3), 1))


def test_neighbor_shares_prefix_randomized():
    rng = np.random.default_rng(7)
    for _ in range(20):
        db = Database(rng.standard_normal((6, 2)), rng.choice([-1.0, 1.0], 6))
        e = Example(rng.standard_normal(2), int(rng.choice([-1, 1])))
        out = neighbor_replace_last(db, e)
        assert np.array_equal(out.points[:-1], db.points[:-1])
        assert np.array_equal(out.labels[:-1], db.labels[:-1])


def test_bounding_box_examples():
    db = Database(np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([1.0, -1.0]))
    box = bounding_box(db)
    assert np.array_equal(box.lower, [0.0, 0.0])
    assert np.array_equal(box.upper, [1.0, 1.0])
    assert box.diameter() == pytest.approx(np.sqrt(2.0), rel=1e-15)

    degenerate = bounding_box(
        Database(np.array([[2.0, 3.0], [2.0, 3.0]]), np.array([1.0, -1.0]))
    )
    assert degenerate.diameter() == 0.0

    padded = bounding_box(db, margin=0.5)
    assert np.array_equal(padded.lower, [-0.5, -0.5])
    assert np.array_equal(padded.upper, [1.5, 1.5])
    assert padded.diameter() == pytest.approx(2.0 * np.sqrt(2.0), rel=1e-15)


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
