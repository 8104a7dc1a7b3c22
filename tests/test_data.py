import csv
import io
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from trisect import DataError, RngStream, load_csv, make_folds, normalize, split_811
from trisect.data import (Dataset, FoldPlan, Split, _parse_table, _read_csv,
                          _scan_rows, apply_normalization, fold_split, normalization_stats)

from conftest import TOY_LABELS, assert_block_rule, block_spans, synthetic_dataset, toy_csv_text


@pytest.fixture
def toy_csv(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text(toy_csv_text())
    return str(path)


class TestLoadCsv:
    def test_loads_toy_table(self, toy_csv):
        ds = load_csv(toy_csv, "D", "1")
        assert ds.n_rows == 10 and ds.n_features == 4
        assert list(ds.labels) == list(TOY_LABELS)
        assert ds.feature_names == ("a1", "a2", "a3", "a4")
        assert ds.ingestion == {"rows_read": 10, "rows_dropped": 0,
                                "label_mapping": {"1": 1, "2": -1}}

    def test_label_column_by_index(self, toy_csv):
        ds = load_csv(toy_csv, 4, "1")
        assert list(ds.labels) == list(TOY_LABELS)

    def test_missing_file(self):
        with pytest.raises(DataError):
            load_csv("/no/such/file.csv", "D", "1")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError):
            load_csv(str(path), "D", "1")

    def test_three_label_values(self, tmp_path):
        path = tmp_path / "three.csv"
        path.write_text("a,D\n1,1\n2,2\n3,3\n")
        with pytest.raises(DataError, match="exactly 2"):
            load_csv(str(path), "D", "1")

    def test_constant_label_column(self, tmp_path):
        path = tmp_path / "const.csv"
        path.write_text("a,D\n1,1\n2,1\n")
        with pytest.raises(DataError, match="constant"):
            load_csv(str(path), "D", "1")

    def test_non_numeric_feature(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,D\nfoo,1\n2,2\n")
        with pytest.raises(DataError, match="non-numeric"):
            load_csv(str(path), "D", "1")

    def test_non_finite_feature_names_row_after_dropped_rows(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("a,b,D\n1,2,1\n,3,2\n4,1e999,2\n")  # 1e999 parses to inf
        with pytest.raises(DataError, match="non-finite value inf in column 'b', row 3"):
            load_csv(str(path), "D", "1")

    def test_finite_cells_whose_sum_overflows_load(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("a,b,D\n1e308,1e308,1\n0,0,2\n")
        assert load_csv(str(path), "D", "1").features[0].tolist() == [1e308, 1e308]

    def test_rows_with_missing_cells_dropped(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("a,D\n1,1\n,2\n3,2\n4,1\n")
        ds = load_csv(str(path), "D", "1")
        assert ds.n_rows == 3
        assert ds.ingestion["rows_dropped"] == 1
        assert ds.ingestion["rows_read"] == 4

    def test_positive_label_must_exist(self, toy_csv):
        with pytest.raises(DataError, match="positive"):
            load_csv(toy_csv, "D", "9")


# (id, CSV text, label column, expected): expected is either the loaded
# (features, labels, feature names, rows_read, rows_dropped, label mapping)
# or the DataError text, which names the file: <path> stands for the table's path
LOAD_CASES = [
    ("quoted-cells-and-header", '"a,1",b,D\n"1","2.5",x\n3,"-4",y\n', "D",
     ([[1.0, 2.5], [3.0, -4.0]], [1, -1], ("a,1", "b"), 2, 0, {"x": 1, "y": -1})),
    ("whitespace-padded", "a,b,D\n 1 ,\t2, x \n3 , 4 ,y\n", "D",
     ([[1.0, 2.0], [3.0, 4.0]], [1, -1], ("a", "b"), 2, 0, {"x": 1, "y": -1})),
    ("blank-lines", "a,D\n\n1,x\n\n\n2,y\n\n", "D",
     ([[1.0], [2.0]], [1, -1], ("a",), 2, 0, {"x": 1, "y": -1})),
    ("whitespace-only-line", "a,D\n1,x\n   \n2,y\n", "D",
     ([[1.0], [2.0]], [1, -1], ("a",), 2, 0, {"x": 1, "y": -1})),
    ("hash-is-not-a-comment", "a,D\n1,x\n#,y\n", "D",
     "<path>: non-numeric value '#' in column 'a', row 2"),
    ("hash-label", "a,D\n1,#\n2,x\n", "D",
     ([[1.0], [2.0]], [-1, 1], ("a",), 2, 0, {"x": 1, "#": -1})),
    ("underscore-digits", "a,D\n1_000,x\n2,y\n", "D",
     ([[1000.0], [2.0]], [1, -1], ("a",), 2, 0, {"x": 1, "y": -1})),
    ("space-before-quote", 'a,D\n "1",x\n2,y\n', "D",
     "<path>: non-numeric value '\"1\"' in column 'a', row 1"),
    ("label-first", "D,a,b\nx,1,2\ny,3,4\n", "D",
     ([[1.0, 2.0], [3.0, 4.0]], [1, -1], ("a", "b"), 2, 0, {"x": 1, "y": -1})),
    ("label-middle", "a,D,b\n1,x,2\n3,y,4\n", 1,
     ([[1.0, 2.0], [3.0, 4.0]], [1, -1], ("a", "b"), 2, 0, {"x": 1, "y": -1})),
    # a label name that two header cells carry is ambiguous; an index is not
    ("label-name-twice", "D,a, D\nx,1,2\ny,3,4\n", "D",
     "<path>: label column 'D' appears 2 times in the header"),
    ("label-index-of-a-repeated-name", "D,a,D\nx,1,2\ny,3,4\n", 0,
     ([[1.0, 2.0], [3.0, 4.0]], [1, -1], ("a", "D"), 2, 0, {"x": 1, "y": -1})),
    ("label-not-in-header", "D,a\nx,1\ny,3\n", "E", "<path>: label column 'E' not in header"),
    ("label-index-out-of-range", "D,a\nx,1\ny,3\n", 2,
     "<path>: label column index 2 out of range"),
    ("single-feature", "a,D\n5,y\n6,x\n7,y\n", "D",
     ([[5.0], [6.0], [7.0]], [-1, 1, -1], ("a",), 3, 0, {"x": 1, "y": -1})),
    ("empty-label-dropped", "a,D\n1,x\n2, \n3,y\n", "D",
     ([[1.0], [3.0]], [1, -1], ("a",), 3, 1, {"x": 1, "y": -1})),
    ("header-only", "a,b,D\n", "D", "<path>: need at least 2 usable data rows, got 0"),
    ("one-row", "a,b,D\n1,2,x\n", "D", "<path>: need at least 2 usable data rows, got 1"),
    ("ragged-row", "a,b,D\n1,2,x\n3,y\n", "D", "<path>: row 2 has 2 cells, expected 3"),
    ("rows-wider-than-header", "a,D\n1,x,2\n3,y,4\n", "D",
     "<path>: row 1 has 3 cells, expected 2"),
    ("rows-narrower-than-header", "D,a,b\nx,1\ny,2\n", "D",
     "<path>: row 1 has 2 cells, expected 3"),
    ("nan-after-blank-lines", "a,b,D\n\n1,2,x\n\n3,nan,y\n", "D",
     "<path>: non-finite value nan in column 'b', row 2"),
    ("inf-after-blank-lines", "a,b,D\n1,2,x\n\n\n1e999,4,y\n", "D",
     "<path>: non-finite value inf in column 'a', row 2"),
    ("inf-after-dropped-rows", "a,b,D\n1,,x\n,2,y\n\n3,4,x\n5,-1e999,y\n", "D",
     "<path>: non-finite value -inf in column 'b', row 4"),
    ("nan-row-first", "a,b,D\n1,nan,x\nz,2,y\n", "D",
     "<path>: non-finite value nan in column 'b', row 1"),
    ("non-numeric-row-first", "a,b,D\nz,2,x\n1,nan,y\n", "D",
     "<path>: non-numeric value 'z' in column 'a', row 1"),
    # a cell longer than the csv module's field limit (131072 characters); the
    # ragged row sends the file to the row scan
    ("oversized-cell-row-first", "a,b,D\n" + "1" * 200_000 + ",2,x\n3,y\n", "D",
     "<path>: row 1 cannot be read: field larger than field limit (131072)"),
    ("oversized-cell-after-blank-lines", "a,b,D\n\n1,2,x\n\n" + "1" * 200_000 + ",2,y\n3,y\n",
     "D", "<path>: row 2 cannot be read: field larger than field limit (131072)"),
    ("oversized-header-cell", "a" * 200_000 + ",D\n1,x\n2,y\n", "D",
     "<path>: header cannot be read: field larger than field limit (131072)"),
    # a spreadsheet's "CSV UTF-8" export starts with a byte-order mark, which
    # belongs to no header name; a row with an empty cell sends the file to
    # the row scan, which reads it again from the start
    ("bom-label-first", "\ufeffD,a,b\nx,1,2\ny,3,4\n", "D",
     ([[1.0, 2.0], [3.0, 4.0]], [1, -1], ("a", "b"), 2, 0, {"x": 1, "y": -1})),
    ("bom-feature-first", "\ufeffa,b,D\n1,2,x\n3,4,y\n", "D",
     ([[1.0, 2.0], [3.0, 4.0]], [1, -1], ("a", "b"), 2, 0, {"x": 1, "y": -1})),
    ("bom-label-first-row-scan", "\ufeffD,a,b\nx,1,2\ny,,5\ny,3,4\n", "D",
     ([[1.0, 2.0], [3.0, 4.0]], [1, -1], ("a", "b"), 3, 1, {"x": 1, "y": -1})),
    ("bom-feature-first-row-scan", "\ufeffa,b,D\n1,2,x\n,5,y\n3,4,y\n", "D",
     ([[1.0, 2.0], [3.0, 4.0]], [1, -1], ("a", "b"), 3, 1, {"x": 1, "y": -1})),
]


@pytest.mark.parametrize("text,label_col,expected", [c[1:] for c in LOAD_CASES],
                         ids=[c[0] for c in LOAD_CASES])
def test_load_csv_parity_table(tmp_path, text, label_col, expected):
    path = tmp_path / "table.csv"
    path.write_bytes(text.encode("utf-8"))
    if isinstance(expected, str):
        with pytest.raises(DataError) as err:
            load_csv(str(path), label_col, "x")
        assert str(err.value) == expected.replace("<path>", str(path))
        return
    features, labels, names, rows_read, rows_dropped, mapping = expected
    ds = load_csv(str(path), label_col, "x")
    assert ds.features.tolist() == features and ds.features.dtype == np.float64
    assert ds.labels.tolist() == labels
    assert ds.feature_names == names
    assert ds.ingestion == {"rows_read": rows_read, "rows_dropped": rows_dropped,
                            "label_mapping": mapping}


@pytest.mark.parametrize("content", [b"a\xff,D\n1,x\n2,y\n", b"a,D\n1,x\n2\xff,y\n",
                                     b"a,D\n1,x\n2,y\xff\n"],
                         ids=["header", "feature-cell", "label-cell"])
def test_bytes_that_are_not_utf8_name_the_file(tmp_path, content):
    path = tmp_path / "latin.csv"
    path.write_bytes(content)
    with pytest.raises(DataError) as err:
        load_csv(str(path), "D", "x")
    assert str(err.value) == f"{path}: not valid UTF-8 (byte 0xff)"


def _oracle(text: str, label_idx: int):
    """csv.reader and float(c.strip()): features, labels, rows read, rows dropped."""
    feats, labels, read, dropped = [], [], 0, 0
    for row in list(csv.reader(io.StringIO(text, newline="")))[1:]:
        cells = [c.strip() for c in row]
        if not any(cells):
            continue
        read += 1
        if "" in cells:
            dropped += 1
            continue
        feats.append([float(c) for i, c in enumerate(cells) if i != label_idx])
        labels.append(cells[label_idx])
    return np.array(feats, dtype=np.float64), labels, read, dropped


_finite = st.floats(allow_nan=False, allow_infinity=False)
_cell = st.one_of(
    _finite.map(repr),
    _finite.map(lambda v: f" {v!r}\t"),
    _finite.map(lambda v: f'"{v!r}"'),
    _finite.map(lambda v: "%.6g" % v),
    st.integers(-10**6, 10**6).map(str),
)


@st.composite
def _tables(draw, cell=_cell, empties=True):
    m = draw(st.integers(1, 4))
    label_idx = draw(st.integers(0, m))
    with_empty = empties and draw(st.booleans())
    rows = []
    for k in range(draw(st.integers(2, 12))):
        cells = [draw(cell) for _ in range(m)]
        if with_empty and k >= 2 and draw(st.booleans()):
            cells[draw(st.integers(0, m - 1))] = draw(st.sampled_from(["", "  "]))
        # the first two rows are complete and carry both labels
        label = ("a", "b")[k] if k < 2 else draw(st.sampled_from(["a", "b", " b ", '"a"']))
        cells.insert(label_idx, label)
        rows.append(",".join(cells))
        if draw(st.integers(0, 9)) == 0:
            rows.append("")
    header = ",".join(f"c{i}" for i in range(m + 1))
    return header + "\n" + "\n".join(rows) + "\n", label_idx


@settings(max_examples=60, deadline=None)
@given(_tables())
def test_load_csv_matches_row_oracle(tmp_path_factory, table):
    text, label_idx = table
    path = tmp_path_factory.mktemp("oracle") / "table.csv"
    path.write_bytes(text.encode("utf-8"))
    ds = load_csv(str(path), label_idx, "a")
    X, labels, read, dropped = _oracle(text, label_idx)
    assert ds.features.shape == X.shape
    assert ds.features.tobytes() == X.tobytes()
    assert ds.labels.tolist() == [1 if v == "a" else -1 for v in labels]
    assert (ds.ingestion["rows_read"], ds.ingestion["rows_dropped"]) == (read, dropped)


def _load_or_error(path, label_idx):
    """The table at ``path``, or its DataError text with the path as <path>."""
    try:
        return load_csv(str(path), label_idx, "a")
    except DataError as err:
        return str(err).replace(str(path), "<path>")


# numpy's reader reads 1e400 as inf, as float() does
_non_finite = st.sampled_from(["nan", "inf", "-inf", "1e400", "-1e400", " NaN ", '"inf"'])


# three finite cell kinds to one non-finite, so that about one table in five is all finite
@settings(max_examples=60, deadline=None)
@given(_tables(st.one_of(_cell, _cell, _cell, _non_finite), empties=False))
def test_both_readers_agree_with_one_more_incomplete_row(tmp_path_factory, table):
    """A table reads as it does with one more row that holds an empty cell,
    a row that sends the file from numpy's reader to the row scan: the same
    features, labels and ingestion, with that row read and dropped, or the
    same DataError."""
    text, label_idx = table
    width = text.split("\n", 1)[0].count(",") + 1
    extra = ["1"] * width
    extra[(label_idx + 1) % width] = ""
    folder = tmp_path_factory.mktemp("agree")
    (folder / "table.csv").write_text(text, encoding="utf-8")
    (folder / "longer.csv").write_text(text + ",".join(extra) + "\n", encoding="utf-8")
    table_ds = _load_or_error(folder / "table.csv", label_idx)
    longer_ds = _load_or_error(folder / "longer.csv", label_idx)
    if isinstance(table_ds, str):
        assert longer_ds == table_ds
        return
    assert not isinstance(longer_ds, str), longer_ds
    assert longer_ds.features.tobytes() == table_ds.features.tobytes()
    assert longer_ds.features.shape == table_ds.features.shape
    assert longer_ds.labels.tolist() == table_ds.labels.tolist()
    ingestion = dict(table_ds.ingestion)
    ingestion["rows_read"] += 1
    ingestion["rows_dropped"] += 1
    assert longer_ds.ingestion == ingestion


# with empty cells as well, so that a failed read sends some files to the row scan
@settings(max_examples=60, deadline=None)
@given(_tables(st.one_of(_cell, _cell, _cell, _non_finite)))
# the row scan keeps 8 rows, so 3-row blocks end in an overlapping final block
@example(table=("c0,c1,y\n" + "".join(f"{i}.5,-{i}.25,{'ab'[i % 2]}\n" for i in range(8))
                + ",1.0,a\n", 2))
def test_block_reads_agree_with_the_whole_read(tmp_path_factory, table):
    """Read 1 to 4 rows at a time, a table gives ``_block_bounds``' blocks,
    the final one aligned at 1 or 2 rows and so overlapping the block before
    it on most tables. Each block holds its rows as read, also when ``fn``
    overwrites the block before it, and with each block's skipped rows
    dropped, they join into the matrix of one read of every row, with its
    labels, feature names and ingestion; or they give that read's DataError.
    A non-finite cell makes a read fail after the reads before it parsed."""
    text, label_idx = table
    path = tmp_path_factory.mktemp("blocks") / "table.csv"
    path.write_text(text, encoding="utf-8")

    def spoiled_copy(X):  # fn may overwrite its block, as eval's normalization does
        out = X.copy()
        X[...] = np.nan
        return out

    def read(rows, align):
        try:
            return _read_csv(str(path), label_idx, "a", spoiled_copy, rows, align)
        except DataError as err:
            return str(err)

    whole = read(None, 1)
    for rows, align in ((1, 1), (2, 1), (3, 1), (4, 1), (4, 2)):
        blocks = read(rows, align)
        if isinstance(whole, str):
            assert blocks == whole, rows
            continue
        assert not isinstance(blocks, str), blocks
        ((_, X),), labels, names, ingestion = whole
        parts, block_labels, block_names, block_ingestion = blocks
        spans = block_spans([(skip, len(part)) for skip, part in parts])
        assert_block_rule(len(X), spans, rows, align)
        for (a, b, _), (_, part) in zip(spans, parts):
            assert part.shape == X[a:b].shape and part.tobytes() == X[a:b].tobytes(), rows
        assert block_labels.tolist() == labels.tolist()
        assert (block_names, block_ingestion) == (names, ingestion)


def test_read_size_must_be_a_multiple_of_the_alignment(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text(toy_csv_text(), encoding="utf-8")
    with pytest.raises(ValueError, match="the alignment 2 does not divide the read size 3"):
        _read_csv(str(path), "D", "1", lambda X: X, 3, 2)


class TestNormalize:
    def _ds(self, column):
        X = np.array(column, dtype=float).reshape(-1, 1)
        y = np.array([1, -1] * (len(column) // 2) + [1] * (len(column) % 2))
        return Dataset(X, y[:len(column)], ("f0",))

    def test_min_max_affine(self):
        ds = normalize(self._ds([0.0, 5.0, 10.0]), "min-max")
        assert ds.features[:, 0] == pytest.approx([0.0, 0.5, 1.0])

    def test_min_max_idempotent_on_unit_extremes(self):
        ds = normalize(self._ds([0.0, 1.0]), "min-max")
        assert ds.features[:, 0] == pytest.approx([0.0, 1.0])

    def test_constant_column_maps_to_zero(self):
        for mode in ("min-max", "z-score"):
            ds = normalize(self._ds([3.0, 3.0, 3.0]), mode)
            assert ds.features[:, 0] == pytest.approx([0.0, 0.0, 0.0])

    def test_z_score_moments(self):
        ds = normalize(self._ds([1.0, 2.0, 3.0, 4.0]), "z-score")
        col = ds.features[:, 0]
        assert col.mean() == pytest.approx(0.0, abs=1e-12)
        assert col.std() == pytest.approx(1.0)

    def test_stats_replay_on_new_rows(self):
        ds = normalize(self._ds([0.0, 5.0, 10.0]), "min-max")
        replayed = apply_normalization(ds.norm_mode, ds.norm_stats, np.array([[2.5]]))
        assert replayed[0, 0] == pytest.approx(0.25)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            normalize(self._ds([1.0, 2.0]), "robust")

    def test_replay_needs_one_stat_pair_per_column(self):
        for stats in (((0.0, 1.0),), ((0.0, 1.0),) * 3):
            with pytest.raises(ValueError, match=f"cover {len(stats)} features, the rows have 2"):
                apply_normalization("min-max", stats, np.ones((4, 2)))


def _column_reference(mode, X):
    """Stats and normalized matrix, fitted and replayed one column at a time."""
    out = np.empty_like(X)
    stats = []
    for j in range(X.shape[1]):
        col = X[:, j]
        if mode == "min-max":
            a, b = float(col.min()), float(col.max())
            scale = b - a
        else:
            a, b = float(col.mean()), float(col.std())
            scale = b
        stats.append((a, b))
        out[:, j] = 0.0 if scale == 0 else (col - a) / scale
    return tuple(stats), out


def _signed_bytes(values):
    """The values' bytes, so that 0.0 and -0.0 compare unequal."""
    return np.asarray(values, dtype=np.float64).tobytes()


@pytest.mark.parametrize("mode", ["min-max", "z-score"])
def test_normalization_equals_the_per_column_reference(mode):
    """The fitted stats, the normalized matrix and a replay on new rows are
    bitwise those of the column-at-a-time form, also for constant columns,
    0.0 against -0.0 at a column's extreme and magnitudes 1e-200 to 1e200."""
    rng = np.random.default_rng(19)
    zero_ties = (np.array([0.0, -0.0, 1.0]), np.array([0.0, -0.0, -1.0]),
                 np.array([0.0, -0.0]))
    for case in range(300):
        n, m = int(rng.integers(2, 120)), int(rng.integers(1, 24))
        kind = case % 4
        if kind == 0:  # signed zeros tie at a column's min or max
            X = rng.choice(zero_ties[case % 3], size=(n, m))
        elif kind == 1:  # one magnitude per column, 1e-200 to 1e200
            X = rng.standard_normal((n, m)) * 10.0 ** rng.integers(-200, 201, (1, m))
        elif kind == 2:  # constant columns and -0.0 cells
            X = rng.standard_normal((n, m))
            X[:, rng.integers(0, m, 1 + m // 3)] = rng.choice([0.0, -0.0, 7.5])
            X[rng.random((n, m)) < 0.1] = -0.0
        else:
            X = rng.integers(-2, 3, (n, m)) * rng.choice([1.0, -1.0], (n, m))
        y = np.where(rng.random(n) < 0.5, 1, -1)
        y[:2] = (1, -1)
        with np.errstate(over="ignore", under="ignore"):  # the 1e±200 columns' std
            ds = normalize(Dataset(X.copy(), y, tuple(f"f{j}" for j in range(m))), mode)
            ref_stats, ref_X = _column_reference(mode, X)
        assert _signed_bytes(ds.norm_stats) == _signed_bytes(ref_stats), case
        assert ds.features.tobytes() == ref_X.tobytes(), case

        new = rng.standard_normal((int(rng.integers(1, 30)), m)) * 10.0 ** rng.integers(-3, 4)
        new[0, 0] = -0.0
        replayed = apply_normalization(mode, ds.norm_stats, new)
        expected = np.empty_like(new)
        for j, (a, b) in enumerate(ds.norm_stats):
            scale = b - a if mode == "min-max" else b
            expected[:, j] = 0.0 if scale == 0 else (new[:, j] - a) / scale
        assert replayed.tobytes() == expected.tobytes(), case


@pytest.mark.parametrize("mode", ["min-max", "z-score", "none"])
def test_normalization_in_place_gives_the_new_array_bytes(mode):
    rng = np.random.default_rng(23)
    X = rng.standard_normal((50, 4)) * 10.0 ** rng.integers(-3, 4, (1, 4))
    X[:, 2] = 7.5  # a zero-scale column
    X[0, 0] = -0.0
    stats = normalization_stats(mode, X)
    expected = apply_normalization(mode, stats, X)
    got = apply_normalization(mode, stats, X, out=X)
    assert got is X and X.tobytes() == expected.tobytes()


@pytest.mark.parametrize("d", [1, 4095, 4096, 4097])  # 4096 rows are dropped a chunk at a time
@pytest.mark.parametrize("label_idx", [0, 2, 4])
def test_label_column_drop_equals_np_delete(d, label_idx):
    """Both readers give np.delete's bytes and layout. With the label in a
    middle column, moving each chunk by two slice assignments within the one
    buffer would overwrite the last cell of a row before it is read."""
    rng = np.random.default_rng(d + label_idx)
    table = rng.standard_normal((d, 5)) * 10.0 ** rng.integers(-5, 6, (d, 5))
    raw = np.where(rng.random(d) < 0.5, "yes", "no").tolist()
    header = [f"f{j}" for j in range(5)]
    header[label_idx] = "y"
    cells = [[repr(v) for v in row] for row in table.tolist()]
    for row, label in zip(cells, raw):
        row[label_idx] = label
    body = "".join(",".join(row) + "\n" for row in cells)
    expected = np.delete(table, label_idx, axis=1)
    parsed = _parse_table(io.StringIO(body), 5, label_idx, None)
    scanned = _scan_rows(csv.reader(io.StringIO(body)), header, label_idx,
                         tuple(h for h in header if h != "y"), "table.csv")
    for features, labels in (parsed, scanned[:2]):
        assert labels == raw
        assert features.tobytes() == expected.tobytes()
        assert features.flags.c_contiguous and features.strides == expected.strides
        assert features.flags.writeable
        # not a view: numpy's buffer is shrunk to the features, so the label column is freed
        assert features.base is None and features.nbytes == expected.nbytes


@pytest.mark.parametrize("labels", [np.array([1, -1]), np.array([1.0, -1.0])],
                         ids=["int64", "float64"])
def test_dataset_accepts_plus_minus_one_labels(labels):
    assert Dataset(np.zeros((2, 1)), labels, ("x",)).labels is labels


@pytest.mark.parametrize("labels", [np.array([1, 0]), np.array([1, 2]), np.array([1.0, np.nan]),
                                    np.array([True, False]), np.array(["1", "-1"])],
                         ids=["zero", "two", "nan", "bool", "str"])
def test_dataset_refuses_other_labels(labels):
    with pytest.raises(DataError, match=r"^labels must be \+1/-1$"):
        Dataset(np.zeros((2, 1)), labels, ("x",))


def _blank_dataset(d: int) -> Dataset:
    return Dataset(np.zeros((d, 1)), np.ones(d, dtype=np.int64), ("x",))


class TestSplit811:
    def test_sizes_d10(self, toy_dataset):
        s = split_811(toy_dataset, RngStream(0, "split"))
        assert (len(s.train), len(s.validation), len(s.test)) == (8, 1, 1)

    def test_sizes_d100(self):
        ds = synthetic_dataset(1, 100, 3)
        s = split_811(ds, RngStream(0, "split"))
        assert (len(s.train), len(s.validation), len(s.test)) == (80, 10, 10)

    def test_deterministic(self):
        ds = synthetic_dataset(2, 50, 4)
        a = split_811(ds, RngStream(5, "split"))
        b = split_811(ds, RngStream(5, "split"))
        assert a == b

    def test_disjoint_cover(self):
        for d in (10, 17, 23, 100):
            ds = synthetic_dataset(d, d, 3)
            s = split_811(ds, RngStream(d, "split"))
            union = set(s.train) | set(s.validation) | set(s.test)
            assert union == set(range(d))
            assert len(s.train) + len(s.validation) + len(s.test) == d

    def test_too_small(self):
        ds = synthetic_dataset(3, 9, 2)
        with pytest.raises(ValueError):
            split_811(ds, RngStream(0, "split"))

    def test_parts_are_sorted_slices_of_the_permutation(self):
        for d in (10, 11, 99, 1000):
            perm = RngStream(d, "split").permutation(d)
            n_train, n_val = int(0.8 * d + 0.5), int(0.1 * d + 0.5)
            s = split_811(_blank_dataset(d), RngStream(d, "split"))
            assert [s.train.tolist(), s.validation.tolist(), s.test.tolist()] == [
                sorted(perm[:n_train]), sorted(perm[n_train:n_train + n_val]),
                sorted(perm[n_train + n_val:])]
            for part in (s.train, s.validation, s.test):
                assert part.dtype == np.int64 and not part.flags.writeable

    def test_repeated_or_negative_index_is_rejected(self):
        for parts in [((0, 1, 1), (2,), (3,)), ((0, 1), (2, 2), ()), ((0, 1), (2,), (3, 1)),
                      ((0, 4), (), (4,))]:
            with pytest.raises(ValueError, match="overlap"):
                Split(*parts)
        with pytest.raises(ValueError, match="non-negative"):
            Split((0, 1), (-1,), (2,))

    def test_parts_are_read_only_copies(self):
        train = np.arange(3)
        s = Split(train, [3], np.array([4], dtype=np.int32))
        assert train.flags.writeable and not s.train.flags.writeable
        assert [p.dtype for p in (s.train, s.validation, s.test)] == [np.int64] * 3
        assert s == Split((0, 1, 2), (3,), (4,)) and s != Split((0, 1, 2), (4,), (3,))

    def test_pickle_round_trip_rebuilds_through_the_constructor(self):
        s = Split((0, 2), (1,), (3, 4))
        again = pickle.loads(pickle.dumps(s))
        assert again == s
        assert not any(p.flags.writeable for p in (again.train, again.validation, again.test))
        object.__setattr__(s, "test", np.array([0]))  # overlaps train: the checks run again
        with pytest.raises(ValueError, match="overlap"):
            pickle.loads(pickle.dumps(s))

    def test_explicit_split_construction(self):
        s = Split(train=(0, 1, 2), validation=(3,), test=(4,))
        assert s.train.tolist() == [0, 1, 2]
        with pytest.raises(ValueError):
            Split(train=(0, 1), validation=(1,), test=(2,))


class TestFolds:
    def test_equal_folds(self, toy_dataset):
        plan = make_folds(toy_dataset, 10, RngStream(1, "folds"))
        assert all(len(plan.fold_indices(f)) == 1 for f in range(1, 11))

    def test_near_equal_folds(self):
        ds = synthetic_dataset(4, 11, 2)
        plan = make_folds(ds, 10, RngStream(1, "folds"))
        sizes = sorted(len(plan.fold_indices(f)) for f in range(1, 11))
        assert sizes == [1] * 9 + [2]

    def test_partition(self):
        ds = synthetic_dataset(5, 37, 2)
        plan = make_folds(ds, 5, RngStream(2, "folds"))
        union = set()
        for f in range(1, 6):
            idx = set(plan.fold_indices(f))
            assert not union & idx
            union |= idx
        assert union == set(range(37))

    def test_k_out_of_range(self, toy_dataset):
        with pytest.raises(ValueError):
            make_folds(toy_dataset, 1, RngStream(0, "folds"))
        with pytest.raises(ValueError):
            make_folds(toy_dataset, 11, RngStream(0, "folds"))

    def test_assignments_follow_the_permutation(self):
        for seed, d, k in ((7, 53, 5), (8, 120, 10), (9, 11, 2)):
            expected = [0] * d
            for pos, row in enumerate(RngStream(seed, "folds").permutation(d)):
                expected[row] = pos % k + 1
            plan = make_folds(_blank_dataset(d), k, RngStream(seed, "folds"))
            assert plan.assignments.tolist() == expected
            assert plan.assignments.dtype == np.int64 and not plan.assignments.flags.writeable

    def test_pickle_round_trip_rebuilds_through_the_constructor(self):
        plan = FoldPlan(2, (1, 2, 1))
        again = pickle.loads(pickle.dumps(plan))
        assert again.k == 2 and again.assignments.tolist() == [1, 2, 1]
        assert not again.assignments.flags.writeable
        object.__setattr__(plan, "assignments", np.array([1, 3]))
        with pytest.raises(ValueError, match="1..k"):
            pickle.loads(pickle.dumps(plan))

    def test_invalid_plans_are_rejected(self):
        for k, assignments in ((2, (1, 3)), (2, (0, 1)), (2, (1, 1, 1, 2))):
            with pytest.raises(ValueError):
                FoldPlan(k, assignments)
        assert FoldPlan(3, (1, 2)).fold_indices(3).tolist() == []

    def test_fold_tuples_match_their_definition(self):
        # fold i holds the rows assigned to it in row order; the rest of a
        # fold split are the other rows in row order, shuffled by the stream
        for seed, d, k in ((7, 53, 5), (8, 120, 10), (9, 11, 2)):
            ds = synthetic_dataset(seed, d, 2)
            plan = make_folds(ds, k, RngStream(seed, "folds"))
            for fold in range(1, k + 1):
                test = tuple(i for i, f in enumerate(plan.assignments) if f == fold)
                assert plan.fold_indices(fold).tolist() == list(test)
                rest = [i for i in range(d) if plan.assignments[i] != fold]
                RngStream(seed, f"val-{fold}").shuffle(rest)
                n_val = int(len(rest) / 9 + 0.5)
                expected = Split(tuple(sorted(rest[n_val:])), tuple(sorted(rest[:n_val])), test)
                got = fold_split(ds, plan, fold, RngStream(seed, f"val-{fold}"))
                assert got == expected
                for part in (got.train, got.validation, got.test):
                    assert part.dtype == np.int64 and not part.flags.writeable

    def test_fold_split_8_1_proportions(self):
        ds = synthetic_dataset(6, 100, 3)
        plan = make_folds(ds, 10, RngStream(3, "folds"))
        s = fold_split(ds, plan, 1, RngStream(3, "val"))
        assert (len(s.train), len(s.validation), len(s.test)) == (80, 10, 10)
        assert set(s.train) | set(s.validation) | set(s.test) == set(range(100))
