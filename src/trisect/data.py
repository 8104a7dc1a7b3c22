"""CSV ingestion, normalization, and split/fold bookkeeping.

A loaded table is a plain feature matrix plus a ±1 label vector. Rows with
missing cells are dropped and counted in the ingestion report; any other
parse problem is a hard :class:`~trisect.errors.DataError`.
"""

from __future__ import annotations

import contextlib
import csv
import math
import os
import warnings
from dataclasses import dataclass, field, fields

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
        if not ((self.labels == 1) | (self.labels == -1)).all():  # np.unique imports numpy.ma
            raise DataError("labels must be +1/-1")
        self.features.setflags(write=False)
        self.labels.setflags(write=False)

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


def _index_array(values) -> np.ndarray:
    """``values`` as a new read-only int64 array."""
    out = np.array(values, dtype=np.int64)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class Split:
    """Disjoint train/validation/test row indices covering the dataset.

    Each part is stored as a read-only int64 array in the order given;
    ``split_811`` and ``fold_split`` give each part in ascending order.
    """

    train: np.ndarray
    validation: np.ndarray
    test: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _index_array(getattr(self, f.name)))
        rows = np.concatenate([self.train, self.validation, self.test])
        if rows.size and rows.min() < 0:
            raise ValueError("split indices must be non-negative")
        if rows.size and np.bincount(rows).max() > 1:
            raise ValueError("split index sets overlap")

    def __eq__(self, other):
        if not isinstance(other, Split):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))

    def __reduce__(self):  # unpickled through the constructor: read-only copies, checked
        return Split, (self.train, self.validation, self.test)


@dataclass(frozen=True, eq=False)
class FoldPlan:
    """Balanced k-fold assignment; fold ids are 1-based.

    ``assignments[i]`` is row i's fold, stored as a read-only int64 array.
    """

    k: int
    assignments: np.ndarray

    def __post_init__(self):
        folds = _index_array(self.assignments)
        object.__setattr__(self, "assignments", folds)
        if folds.size and not 1 <= folds.min() <= folds.max() <= self.k:
            raise ValueError("fold assignments must lie in 1..k")
        sizes = np.bincount(folds, minlength=self.k + 1)[1:]
        if folds.size and sizes.max() - sizes.min() > 1:
            raise ValueError("fold sizes must differ by at most one")

    def __reduce__(self):  # unpickled through the constructor: read-only copies, checked
        return FoldPlan, (self.k, self.assignments)

    def fold_indices(self, fold: int) -> np.ndarray:
        """The rows of ``fold``, ascending."""
        return np.flatnonzero(self.assignments == fold)


# rows whose feature cells _drop_column moves per step, through a temporary of that many rows
_DROP_CHUNK_ROWS = 4096


def _drop_column(table: np.ndarray, col: int) -> None:
    """Move the cells of ``np.delete(table, col, axis=1)`` of a C-contiguous
    2-d ``table`` to the front of ``table``'s own buffer, which it overwrites.

    Row i's feature cells move to the i-th row of the C-contiguous (d, m)
    view at the front of the buffer, a chunk of rows at a time. That never
    writes past the cells of the chunk being moved, so no later row is
    overwritten before it is read. Each chunk goes through one assignment
    from a copy: two slice assignments in one buffer would overwrite cells
    the second still has to read. The caller then shrinks the buffer to
    the features (``ndarray.resize``), once no view of it is left.
    """
    d, n = table.shape
    front = table.reshape(-1)[:d * (n - 1)].reshape(d, n - 1)
    for start in range(0, d, _DROP_CHUNK_ROWS):
        rows = slice(start, start + _DROP_CHUNK_ROWS)
        front[rows] = np.delete(table[rows], col, axis=1)


def _parse_table(fh, n_columns: int, label_idx: int, max_rows):
    """Features and raw labels of the next ``max_rows`` rows of ``fh`` (every
    row left, if None), by numpy's C reader.

    Returns None unless every row parses: the same cell count as the header,
    a finite number in every feature cell and a non-empty label. The row scan
    then reads the file instead, and names the fault or drops the incomplete rows.
    A read at the end of the file gives 0 rows. The features are the writable
    C-contiguous array numpy's reader filled: the label column is dropped
    inside its buffer (``_drop_column``), which is then shrunk in place to
    the features, so the label column's bytes are freed.
    """
    codes: dict[str, int] = {}

    def label_code(cell: str) -> int:
        return codes.setdefault(cell.strip(), len(codes))

    try:
        with warnings.catch_warnings():
            # "input contained no data", and a blank line that max_rows does not count
            warnings.simplefilter("ignore", UserWarning)
            table = np.loadtxt(fh, dtype=np.float64, delimiter=",", quotechar='"',
                               comments=None, ndmin=2, converters={label_idx: label_code},
                               max_rows=max_rows)
    except ValueError:  # also a byte that is not UTF-8
        return None
    if not len(table):
        return np.empty((0, n_columns - 1)), []
    if table.shape[1] != n_columns or "" in codes or not np.isfinite(table).all():
        return None
    names = list(codes)
    raw_labels = [names[c] for c in table[:, label_idx].astype(np.int64).tolist()]
    _drop_column(table, label_idx)
    table.resize((len(table), n_columns - 1))  # numpy refuses while anything else refers to table
    return table, raw_labels


def _scan_rows(reader, header, label_idx: int, feature_names, path: str):
    """Row-by-row parse: drops rows with empty cells and names any other fault."""
    rows_read = 0
    rows_dropped = 0
    feats: list[list[float]] = []
    raw_labels: list[str] = []
    while True:
        try:
            row = next(reader)
        except StopIteration:
            break
        except csv.Error as err:  # e.g. a cell longer than csv.field_size_limit()
            raise DataError(f"{path}: row {rows_read + 1} cannot be read: {err}") from None
        if not row or all(c.strip() == "" for c in row):
            continue
        rows_read += 1
        cells = [c.strip() for c in row]
        if len(cells) != len(header):
            raise DataError(f"{path}: row {rows_read} has {len(cells)} cells, "
                            f"expected {len(header)}")
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
                    f"{path}: non-numeric value {c!r} in column {header[i]!r}, row {rows_read}"
                ) from None
        if not math.isfinite(sum(vals)):  # a nan/inf cell, or only a sum that overflows
            for name, v in zip(feature_names, vals):
                if not math.isfinite(v):
                    raise DataError(f"{path}: non-finite value {v} in column {name!r}, "
                                    f"row {rows_read}")
        feats.append(vals)
        raw_labels.append(cells[label_idx])
    return np.array(feats, dtype=np.float64), raw_labels, rows_read, rows_dropped


def require_file(path: str, what: str, error: type) -> None:
    """Raise ``error`` naming ``path`` unless it is an existing regular file."""
    if os.path.isdir(path):
        raise error(f"{what} expected, but {path} is a directory")
    if not os.path.isfile(path):
        raise error(f"{what} not found: {path}")


@contextlib.contextmanager
def _open_table(path: str, label_column):
    """``path`` open for reading after its header, as (file, header cells,
    label column index). An error in the header or the label column, and a
    byte that is not UTF-8, also one the caller reads, names the file.
    """
    require_file(path, "dataset file", DataError)
    try:
        # utf-8-sig drops a leading byte-order mark, also after seek(0)
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: empty CSV file") from None
            except csv.Error as err:
                raise DataError(f"{path}: header cannot be read: {err}") from None
            header = [h.strip() for h in header]
            if isinstance(label_column, int):
                label_idx = label_column
            elif label_column in header:
                if header.count(label_column) > 1:
                    raise DataError(f"{path}: label column {label_column!r} appears "
                                    f"{header.count(label_column)} times in the header")
                label_idx = header.index(label_column)
            else:
                try:
                    label_idx = int(label_column)
                except (TypeError, ValueError):
                    raise DataError(f"{path}: label column {label_column!r} "
                                    "not in header") from None
            if not 0 <= label_idx < len(header):
                raise DataError(f"{path}: label column index {label_idx} out of range")
            yield fh, header, label_idx
    except UnicodeDecodeError as err:
        raise DataError(f"{path}: not valid UTF-8 (byte {err.object[err.start]:#04x})") from None


def _labels(path: str, raw_labels, positive_label):
    """The ±1 labels of the rows whose label cells are ``raw_labels``, and the
    label mapping. Needs at least 2 rows and exactly 2 label values, one of
    them ``positive_label``."""
    if len(raw_labels) < 2:
        raise DataError(f"{path}: need at least 2 usable data rows, got {len(raw_labels)}")
    distinct = sorted(set(raw_labels))
    if len(distinct) == 1:
        raise DataError(f"{path}: label column is constant ({distinct[0]!r})")
    if len(distinct) != 2:
        raise DataError(f"{path}: label column must have exactly 2 values, got {len(distinct)}")
    pos = str(positive_label).strip()
    if pos not in distinct:
        raise DataError(f"{path}: positive label {pos!r} not present (values: {distinct})")
    neg = distinct[0] if distinct[1] == pos else distinct[1]
    labels = np.array([1 if r == pos else -1 for r in raw_labels], dtype=np.int64)
    return labels, {pos: 1, neg: -1}


def _block_bounds(n: int, rows, align: int) -> list[tuple[int, int, int]]:
    """The (start, stop, skip) blocks of ``n`` rows at ``rows`` rows (one
    block, if None). A set of at most ``rows`` rows is one block; otherwise
    every block has ``rows`` rows but the final one, the set's last ``rows``
    to ``rows + align - 1`` rows from a multiple of ``align``, whose first
    ``skip`` rows end the block before it and are kept from that block only.
    """
    if rows is None or n <= rows:
        return [(0, n, 0)]
    last = (n - rows) // align * align
    return [(a, a + rows, 0) for a in range(0, last, rows)] + [(last, n, -last % rows)]


def _read_csv(path: str, label_column, positive_label, fn, rows, align: int = 1):
    """``fn`` of each block of the CSV's feature matrix, in order, as (list of
    (skip, ``fn``'s result), labels, feature names, ingestion record).

    The blocks are ``_block_bounds(n, rows, align)``'s; the caller drops each
    result's first ``skip`` rows. A ``rows`` of None reads every row in one
    ``_parse_table`` call. Otherwise the file is read ``rows`` rows at a time
    (``align`` must divide ``rows``), and a full read is held until the next
    one shows whether more rows follow. The final block's rows are copied out
    of the held read and the short last one, which is then freed, before
    ``fn`` runs on the held read, if it is a block, and on the final block.
    ``fn`` gets each block as a writable float64 matrix, which it may
    overwrite, such as a normalization in place.

    When a read does not parse, the results so far are dropped and the row
    scan reads the file from the start: it names the faulty cell, or drops
    the incomplete rows, and ``fn`` runs on the blocks of the rows it keeps.
    The label checks run after the last read, before ``fn`` of the blocks
    that read leaves.
    """
    if rows is not None and rows % align:
        raise ValueError(f"the alignment {align} does not divide the read size {rows}")
    results, raw_labels, held, rows_dropped = [], [], None, 0
    with _open_table(path, label_column) as (fh, header, label_idx):
        feature_names = tuple(h for i, h in enumerate(header) if i != label_idx)
        while (read := _parse_table(fh, len(header), label_idx, rows)) is not None:
            if rows is None or len(read[1]) < rows:  # the end of the file
                break
            if held is not None:
                results.append((0, fn(held[0])))
                raw_labels += held[1]
            held = read
        if read is None:  # the row scan reads the file from the start
            results, raw_labels, held = [], [], None
            fh.seek(0)
            reader = csv.reader(fh)
            next(reader)
            X, kept, _, rows_dropped = _scan_rows(reader, header, label_idx, feature_names, path)
            read = X, kept
    # X holds every block but the final one, which may also take the short last read
    if held is None:  # one read, or the row scan, whose list is not copied
        (X, raw_labels), tail = read, read[0][:0]
    else:
        (X, held_labels), (tail, tail_labels) = held, read
        raw_labels += held_labels + tail_labels
    del read, held
    labels, mapping = _labels(path, raw_labels, positive_label)
    *blocks, (start, _, skip) = _block_bounds(len(X) + len(tail), rows, align)
    # copied before fn overwrites the block before it, or joined with the short read
    final = np.concatenate((X[start:], tail)) if skip or len(tail) else X[start:]
    del tail
    results += [(s, fn(X[a:b])) for a, b, s in blocks]
    del X
    results.append((skip, fn(final)))
    ingestion = {
        "rows_read": len(raw_labels) + rows_dropped,
        "rows_dropped": rows_dropped,
        "label_mapping": mapping,
    }
    return results, labels, feature_names, ingestion


def load_csv(path: str, label_column, positive_label) -> Dataset:
    """Load a UTF-8, header-first CSV into a Dataset; a leading byte-order
    mark is dropped.

    ``label_column`` is a header name or 0-based column index; every other
    column must be numeric. The raw ``positive_label`` value maps to +1 and
    the single remaining label value to -1. Cells may be quoted with ``"``,
    whitespace around a cell is ignored and no character starts a comment.
    Rows containing empty cells are dropped (counted in ``ingestion``);
    non-numeric or non-finite (nan, inf) feature cells, rows the csv module
    cannot read (a cell longer than its field limit) and label columns
    without exactly two distinct values are errors.
    """
    ((_, features),), labels, feature_names, ingestion = _read_csv(
        path, label_column, positive_label, lambda X: X, None)
    return Dataset(features, labels, feature_names, ingestion=ingestion)


def apply_normalization(mode: str, stats, X: np.ndarray, out: np.ndarray | None = None
                        ) -> np.ndarray:
    """Replay a fitted normalization on rows, into ``out`` or a new array.

    Column j becomes ``(x - a) / scale`` for its stats (a, b), with scale
    ``b - a`` (min-max) or ``b`` (z-score); a column whose scale is 0 becomes
    zeros. The whole matrix goes through one subtraction into the output and
    one in-place division, and each entry takes the same two operations as a
    column at a time would. ``out`` is a float64 array of ``X``'s shape;
    ``out=X`` normalizes ``X`` in place, with the same bytes as the new array.
    """
    if mode not in NORMALIZE_MODES:
        raise ValueError(f"unknown normalization mode: {mode!r}")
    if mode == "none":
        if out is None:
            return np.array(X, dtype=np.float64)
        np.copyto(out, X)
        return out
    X = np.asarray(X, dtype=np.float64)
    offset, b = np.array(stats, dtype=np.float64).reshape(len(stats), 2).T
    if len(offset) != X.shape[1]:
        raise ValueError(f"normalization stats cover {len(offset)} features, "
                         f"the rows have {X.shape[1]}")
    scale = b - offset if mode == "min-max" else b
    out = np.subtract(X, offset, out=out)
    np.divide(out, scale, out=out, where=scale != 0)
    out[:, scale == 0] = 0.0
    return out


def _column_extremes(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each column's (min, max), bitwise as ``X[:, j].min()`` and ``.max()``.

    Two axis-0 reductions give every nonzero extreme exactly. A zero extreme
    is taken again from its column alone: 0.0 and -0.0 compare equal, so which
    sign a reduction returns depends on the order it compares them in, and the
    axis-0 and per-column orders differ.
    """
    lo, hi = X.min(axis=0), X.max(axis=0)
    for extremes, reduce in ((lo, np.min), (hi, np.max)):
        for j in np.flatnonzero(extremes == 0):
            extremes[j] = reduce(X[:, j])
    return lo, hi


def normalization_stats(mode: str, X: np.ndarray) -> tuple[tuple[float, float], ...]:
    """Per-feature stats (a, b) of ``mode`` fitted on ``X``, for ``apply_normalization``.

    min-max takes each column's (min, max), z-score its (mean, population
    sd) and none (0, 1).
    """
    if mode not in NORMALIZE_MODES:
        raise ValueError(f"normalization mode must be one of {NORMALIZE_MODES}")
    if mode == "none":
        return tuple((0.0, 1.0) for _ in range(X.shape[1]))
    if mode == "min-max":
        return tuple(zip(*(e.tolist() for e in _column_extremes(X))))
    # per column: a strided column's mean is summed pairwise, while
    # mean(axis=0) adds the rows in order, so the two differ in the last bits
    return tuple((float(X[:, j].mean()), float(X[:, j].std())) for j in range(X.shape[1]))


def normalize(ds: Dataset, mode: str) -> Dataset:
    """Return a copy of ``ds`` with per-feature normalization applied.

    min-max maps each feature onto [0, 1]; z-score to mean 0, sd 1
    (population sd). Constant columns map to all zeros in either mode.
    """
    stats = normalization_stats(mode, ds.features)
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
    perm = np.array(stream.permutation(d), dtype=np.int64)
    n_train = _round_half_up(0.8 * d)
    n_val = _round_half_up(0.1 * d)
    return Split(np.sort(perm[:n_train]), np.sort(perm[n_train:n_train + n_val]),
                 np.sort(perm[n_train + n_val:]))


def make_folds(ds: Dataset, k: int, stream: RngStream) -> FoldPlan:
    """Balanced shuffled k-fold partition (fold sizes differ by <= 1)."""
    d = ds.n_rows
    if not 2 <= k <= d:
        raise ValueError(f"k must be in [2, {d}], got {k}")
    assignments = np.empty(d, dtype=np.int64)
    assignments[stream.permutation(d)] = np.arange(d) % k + 1  # row perm[i] is in fold i % k + 1
    return FoldPlan(k, assignments)


def fold_split(ds: Dataset, plan: FoldPlan, fold: int, stream: RngStream) -> Split:
    """Split for one cross-validation round: fold = test, rest 8:1 train/val.

    The held-out validation block is round(|rest| / 9) rows drawn from the
    remaining ones, which reproduces 8:1:1 proportions under 10 folds.
    """
    if not 1 <= fold <= plan.k:
        raise ValueError(f"fold must be in 1..{plan.k}")
    rest = np.flatnonzero(plan.assignments != fold).tolist()
    stream.shuffle(rest)
    n_val = _round_half_up(len(rest) / 9)
    rest = np.array(rest, dtype=np.int64)
    return Split(np.sort(rest[n_val:]), np.sort(rest[:n_val]), plan.fold_indices(fold))
