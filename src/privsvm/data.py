"""Labelled datasets, the replace-last-entry neighbour relation, and CSV input."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from ._checks import at_least, count

__all__ = [
    "CsvError",
    "Database",
    "DomainBox",
    "read_rows",
    "split_labels",
    "load_csv",
    "neighbor_replace_last",
]


class CsvError(ValueError):
    """Raised when a CSV stream cannot be turned into a Database."""


def _frozen_array(values, dtype=np.float64):
    # always a copy: numpy lets the owner of a read-only array make it writeable again
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class Database:
    """An ordered sequence of n > 1 examples sharing dimension d.

    `points` is the (n, d) matrix of inputs and `labels` the length-n vector
    of -1/+1 labels; both are stored read-only so a Database can be shared
    freely across concurrent audit trials.
    """

    points: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        points = _frozen_array(self.points)
        labels = _frozen_array(self.labels)
        if points.ndim != 2:
            raise ValueError("points must be an (n, d) array")
        if labels.shape != (points.shape[0],):
            raise ValueError("labels must be a length-n vector")
        at_least(2, n=points.shape[0])
        if not np.all(np.isfinite(points)):
            raise ValueError("points must have finite entries")
        if not np.all(np.isin(labels, (-1.0, 1.0))):
            raise ValueError("labels must all be -1 or +1")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __eq__(self, other):
        if not isinstance(other, Database):
            return NotImplemented
        return np.array_equal(self.points, other.points) and np.array_equal(
            self.labels, other.labels
        )


@dataclass(frozen=True, eq=False)
class DomainBox:
    """The declared public domain, an axis-aligned box fixed before the data
    is seen; every domain constant (kappa, Phi, diameter, audit grids) is
    taken from it."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = _frozen_array(self.lower)
        upper = _frozen_array(self.upper)
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ValueError("bounds must be 1-D vectors of equal length")
        at_least(1, **{"box dimension": lower.size})
        if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
            raise ValueError("bounds must be finite")
        if np.any(lower > upper):
            raise ValueError("lower bound exceeds upper bound")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    def diameter(self) -> float:
        """Euclidean length of (upper - lower)."""
        return float(np.linalg.norm(self.upper - self.lower))

    def max_l2_norm(self) -> float:
        """Largest Euclidean norm over the box (attained at a corner)."""
        return float(np.sqrt(np.sum(np.maximum(self.lower**2, self.upper**2))))

    def max_abs_coordinate(self) -> float:
        """Largest coordinate magnitude over the box."""
        return float(np.max(np.maximum(np.abs(self.lower), np.abs(self.upper))))

    def grid(self, resolution: int) -> np.ndarray:
        """Regular grid with `resolution` points per axis, shape (resolution^d, d)."""
        count(2, **{"grid resolution": resolution})
        axes = [
            np.linspace(self.lower[i], self.upper[i], resolution)
            for i in range(self.dim)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def displacement_box(self) -> "DomainBox":
        """Box of pairwise differences x - y for x, y in this box."""
        span = self.upper - self.lower
        return DomainBox(-span, span)


def read_rows(source, has_header: bool = False) -> tuple[np.ndarray, list[int]]:
    """Parse comma-separated rows of reals into an (m, width) matrix.

    `source` is a readable stream (text or bytes) or else a path, opened as
    `open` takes it (str, bytes or os.PathLike), so a missing file is an
    OSError naming it; UTF-8 with LF or CRLF endings. Blank rows are skipped,
    and so is the first row when `has_header` is set. Returns the matrix and
    each row's line number; every row must have the first row's width.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(source, "rb") as fh:
            text = fh.read()
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    rows = []
    line_numbers = []
    for lineno, row in enumerate(csv.reader(io.StringIO(text)), start=1):
        if any(map(str.strip, row)):  # float() ignores the padding itself
            rows.append(row)
            line_numbers.append(lineno)
    if has_header and rows:
        rows = rows[1:]
        line_numbers = line_numbers[1:]
    if not rows:
        return np.empty((0, 0)), line_numbers
    try:
        # numpy converts each str by Python's float rules
        values = np.array(rows, dtype=np.float64)
    except ValueError:
        values = _rows_one_by_one(rows, line_numbers)
    return values, line_numbers


def _rows_one_by_one(rows: list, line_numbers: list[int]) -> np.ndarray:
    """`read_rows`' matrix built row by row, so a CsvError names the first bad row."""
    width = len(rows[0])
    values = np.empty((len(rows), width))
    for r, (row, lineno) in enumerate(zip(rows, line_numbers)):
        if len(row) != width:
            raise CsvError(
                f"row {lineno}: expected {width} fields, got {len(row)} (ragged row)"
            )
        try:
            values[r] = [float(tok.strip()) for tok in row]
        except ValueError as exc:
            raise CsvError(f"row {lineno}: {exc}") from None
    return values


def split_labels(values: np.ndarray, line_numbers: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Split `read_rows` output into features and a final -1/+1 label column."""
    labels = values[:, -1]
    bad = np.flatnonzero((labels != 1.0) & (labels != -1.0))
    if bad.size:
        r = bad[0]
        raise CsvError(
            f"row {line_numbers[r]}: label must be -1 or +1, got {float(labels[r])!r}"
        )
    return values[:, :-1], labels


def load_csv(source, has_header: bool = False) -> Database:
    """Parse comma-separated rows of d real features followed by a -1/+1 label.

    `source` is a path or a readable stream, as for `read_rows`. When
    `has_header` is set the first row is skipped.
    """
    values, line_numbers = read_rows(source, has_header)
    if len(values) <= 1:
        raise CsvError("dataset must contain more than one data row")
    if values.shape[1] < 2:
        raise CsvError(f"row {line_numbers[0]}: need at least one feature and a label")
    return Database(*split_labels(values, line_numbers))


def neighbor_replace_last(db: Database, x, y) -> Database:
    """New database equal to `db` except the last entry is replaced by point
    `x` with label `y`; the new Database validates both."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (db.dim,):
        raise ValueError(
            f"replacement point has shape {x.shape}, database has dimension {db.dim}"
        )
    points = db.points.copy()
    labels = db.labels.copy()
    points[-1] = x
    labels[-1] = y
    return Database(points, labels)
