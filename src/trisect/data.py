"""CSV ingestion, normalization, and split/fold bookkeeping.

A loaded table is a plain feature matrix plus a ±1 label vector. Rows with
missing cells are dropped and counted in the ingestion report; any other
parse problem is a hard :class:`~trisect.errors.DataError`.
"""

from __future__ import annotations

import csv
import math
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .numerics import RngStream

NORMALIZE_MODES = ("min-max", "z-score", "none")


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class Dataset:
    """Immutable feature table with binary ±1 labels.

    ``norm_mode``/``norm_stats`` record the fitted per-feature transform so
    the same mapping can be replayed on rows seen at prediction time.
    """

    features: np.ndarray  # (d, m) float64, read-only
    labels: np.ndarray  # (d,) int64 over {+1, -1}, read-only
    feature_names: tuple[str, ...]
    norm_mode: str = "none"
    norm_stats: tuple[tuple[float, float], ...] = ()
    ingestion: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.features.ndim != 2:
            raise DataError("features must be a 2-d matrix")
        d, m = self.features.shape
        if d < 2 or m < 1:
            raise DataError(f"need at least 2 rows and 1 feature, got {d}x{m}")
        if self.labels.shape != (d,):
            raise DataError("labels length must match row count")
        if not set(np.unique(self.labels)) <= {-1, 1}:
            raise DataError("labels must be +1/-1")
        self.features.setflags(write=False)
        self.labels.setflags(write=False)

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class Split:
    """Disjoint train/validation/test row indices covering the dataset."""

    train: tuple[int, ...]
    validation: tuple[int, ...]
    test: tuple[int, ...]

    def __post_init__(self):
        parts = (set(self.train), set(self.validation), set(self.test))
        total = len(self.train) + len(self.validation) + len(self.test)
        if len(parts[0] | parts[1] | parts[2]) != total:
            raise ValueError("split index sets overlap")


@dataclass(frozen=True)
class FoldPlan:
    """Balanced k-fold assignment; fold ids are 1-based."""

    k: int
    assignments: tuple[int, ...]

    def __post_init__(self):
        sizes = [self.assignments.count(f) for f in range(1, self.k + 1)]
        if sum(sizes) != len(self.assignments):
            raise ValueError("fold assignments must lie in 1..k")
        if sizes and max(sizes) - min(sizes) > 1:
            raise ValueError("fold sizes must differ by at most one")

    def fold_indices(self, fold: int) -> tuple[int, ...]:
        return tuple(i for i, f in enumerate(self.assignments) if f == fold)


def _parse_table(fh, n_columns: int, label_idx: int):
    """Features and raw labels of the rows after the header, by numpy's C reader.

    Returns None unless every row parses: the same cell count as the header,
    a number in every feature cell and a non-empty label. The row scan then
    reads the file instead, and names the fault or drops the incomplete rows.
    """
    codes: dict[str, int] = {}

    def label_code(cell: str) -> int:
        return codes.setdefault(cell.strip(), len(codes))

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # loadtxt's "input contained no data"
            table = np.loadtxt(fh, dtype=np.float64, delimiter=",", quotechar='"',
                               comments=None, ndmin=2, converters={label_idx: label_code})
    except (ValueError, UserWarning):
        return None
    if table.shape[1] != n_columns or "" in codes:
        return None
    names = list(codes)
    raw_labels = [names[c] for c in table[:, label_idx].astype(np.int64).tolist()]
    return np.delete(table, label_idx, axis=1), raw_labels


def _scan_rows(reader, header, label_idx: int, feature_names):
    """Row-by-row parse: drops rows with empty cells and names any other fault."""
    rows_read = 0
    rows_dropped = 0
    feats: list[list[float]] = []
    raw_labels: list[str] = []
    for row in reader:
        if not row or all(c.strip() == "" for c in row):
            continue
        rows_read += 1
        cells = [c.strip() for c in row]
        if len(cells) != len(header):
            raise DataError(f"row {rows_read} has {len(cells)} cells, expected {len(header)}")
        if any(c == "" for c in cells):
            rows_dropped += 1
            continue
        vals = []
        for i, c in enumerate(cells):
            if i == label_idx:
                continue
            try:
                vals.append(float(c))
            except ValueError:
                raise DataError(
                    f"non-numeric value {c!r} in column {header[i]!r}, row {rows_read}"
                ) from None
        if not math.isfinite(sum(vals)):  # a nan/inf cell, or only a sum that overflows
            for name, v in zip(feature_names, vals):
                if not math.isfinite(v):
                    raise DataError(f"non-finite value {v} in column {name!r}, row {rows_read}")
        feats.append(vals)
        raw_labels.append(cells[label_idx])
    return np.array(feats, dtype=np.float64), raw_labels, rows_read, rows_dropped


def load_csv(path: str, label_column, positive_label) -> Dataset:
    """Load a UTF-8, header-first CSV into a Dataset.

    ``label_column`` is a header name or 0-based column index; every other
    column must be numeric. The raw ``positive_label`` value maps to +1 and
    the single remaining label value to -1. Cells may be quoted with ``"``,
    whitespace around a cell is ignored and no character starts a comment.
    Rows containing empty cells are dropped (counted in ``ingestion``);
    non-numeric or non-finite (nan, inf) feature cells and label columns
    without exactly two distinct values are errors.
    """
    if not os.path.isfile(path):
        raise DataError(f"dataset file not found: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError("empty CSV file") from None
        header = [h.strip() for h in header]
        if isinstance(label_column, int):
            label_idx = label_column
        elif label_column in header:
            label_idx = header.index(label_column)
        else:
            try:
                label_idx = int(label_column)
            except (TypeError, ValueError):
                raise DataError(f"label column {label_column!r} not in header") from None
        if not 0 <= label_idx < len(header):
            raise DataError(f"label column index {label_idx} out of range")

        feature_names = tuple(h for i, h in enumerate(header) if i != label_idx)
        table = _parse_table(fh, len(header), label_idx)
        if table is None:
            fh.seek(0)
            reader = csv.reader(fh)
            next(reader)
            features, raw_labels, rows_read, rows_dropped = _scan_rows(
                reader, header, label_idx, feature_names)
        else:
            features, raw_labels = table
            rows_read, rows_dropped = len(raw_labels), 0
            finite = np.isfinite(features)
            if not finite.all():  # blank lines are skipped by both parsers, so row = index + 1
                row, col = np.argwhere(~finite)[0]
                raise DataError(f"non-finite value {float(features[row, col])} in column "
                                f"{feature_names[col]!r}, row {row + 1}")

    if len(features) < 2:
        raise DataError(f"need at least 2 usable data rows, got {len(features)}")
    distinct = sorted(set(raw_labels))
    if len(distinct) == 1:
        raise DataError(f"label column is constant ({distinct[0]!r})")
    if len(distinct) != 2:
        raise DataError(f"label column must have exactly 2 values, got {len(distinct)}")
    pos = str(positive_label).strip()
    if pos not in distinct:
        raise DataError(f"positive label {pos!r} not present (values: {distinct})")
    neg = distinct[0] if distinct[1] == pos else distinct[1]

    labels = np.array([1 if r == pos else -1 for r in raw_labels], dtype=np.int64)
    ingestion = {
        "rows_read": rows_read,
        "rows_dropped": rows_dropped,
        "label_mapping": {pos: 1, neg: -1},
    }
    return Dataset(features, labels, feature_names, ingestion=ingestion)


def apply_normalization(mode: str, stats, X: np.ndarray) -> np.ndarray:
    """Replay a fitted normalization on new rows."""
    if mode == "none":
        return np.array(X, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    out = np.empty_like(X)
    for j, (a, b) in enumerate(stats):
        col = X[:, j]
        if mode == "min-max":
            span = b - a
            out[:, j] = 0.0 if span == 0 else (col - a) / span
        elif mode == "z-score":
            out[:, j] = 0.0 if b == 0 else (col - a) / b
        else:
            raise ValueError(f"unknown normalization mode: {mode!r}")
    return out


def normalize(ds: Dataset, mode: str) -> Dataset:
    """Return a copy of ``ds`` with per-feature normalization applied.

    min-max maps each feature onto [0, 1]; z-score to mean 0, sd 1
    (population sd). Constant columns map to all zeros in either mode.
    """
    if mode not in NORMALIZE_MODES:
        raise ValueError(f"normalization mode must be one of {NORMALIZE_MODES}")
    if mode == "none":
        stats = tuple((0.0, 1.0) for _ in range(ds.n_features))
        return Dataset(ds.features.copy(), ds.labels.copy(), ds.feature_names,
                       "none", stats, dict(ds.ingestion))
    if mode == "min-max":
        stats = tuple(
            (float(ds.features[:, j].min()), float(ds.features[:, j].max()))
            for j in range(ds.n_features)
        )
    else:
        stats = tuple(
            (float(ds.features[:, j].mean()), float(ds.features[:, j].std()))
            for j in range(ds.n_features)
        )
    X = apply_normalization(mode, stats, ds.features)
    return Dataset(X, ds.labels.copy(), ds.feature_names, mode, stats, dict(ds.ingestion))


def split_811(ds: Dataset, stream: RngStream) -> Split:
    """Shuffled 8:1:1 split: round(0.8 d) / round(0.1 d) / remainder.

    Rounding is half-up, so the proportions are exact whenever d is a
    multiple of 10. Requires d >= 10.
    """
    d = ds.n_rows
    if d < 10:
        raise ValueError(f"8:1:1 split needs at least 10 rows, got {d}")
    perm = stream.permutation(d)
    n_train = _round_half_up(0.8 * d)
    n_val = _round_half_up(0.1 * d)
    train = tuple(sorted(perm[:n_train]))
    val = tuple(sorted(perm[n_train:n_train + n_val]))
    test = tuple(sorted(perm[n_train + n_val:]))
    return Split(train, val, test)


def make_folds(ds: Dataset, k: int, stream: RngStream) -> FoldPlan:
    """Balanced shuffled k-fold partition (fold sizes differ by <= 1)."""
    d = ds.n_rows
    if not 2 <= k <= d:
        raise ValueError(f"k must be in [2, {d}], got {k}")
    perm = stream.permutation(d)
    assignments = [0] * d
    for pos, row in enumerate(perm):
        assignments[row] = (pos % k) + 1
    return FoldPlan(k, tuple(assignments))


def fold_split(ds: Dataset, plan: FoldPlan, fold: int, stream: RngStream) -> Split:
    """Split for one cross-validation round: fold = test, rest 8:1 train/val.

    The held-out validation block is round(|rest| / 9) rows drawn from the
    remaining ones, which reproduces 8:1:1 proportions under 10 folds.
    """
    if not 1 <= fold <= plan.k:
        raise ValueError(f"fold must be in 1..{plan.k}")
    test = plan.fold_indices(fold)
    rest = [i for i in range(ds.n_rows) if plan.assignments[i] != fold]
    stream.shuffle(rest)
    n_val = _round_half_up(len(rest) / 9)
    val = tuple(sorted(rest[:n_val]))
    train = tuple(sorted(rest[n_val:]))
    return Split(train, val, test)
