import numpy as np
import pytest

from trisect import DataError, RngStream, load_csv, make_folds, normalize, split_811
from trisect.data import Dataset, Split, apply_normalization, fold_split

from conftest import TOY_LABELS, synthetic_dataset, toy_csv_text


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

    def test_explicit_split_construction(self):
        s = Split(train=(0, 1, 2), validation=(3,), test=(4,))
        assert s.train == (0, 1, 2)
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

    def test_fold_split_8_1_proportions(self):
        ds = synthetic_dataset(6, 100, 3)
        plan = make_folds(ds, 10, RngStream(3, "folds"))
        s = fold_split(ds, plan, 1, RngStream(3, "val"))
        assert (len(s.train), len(s.validation), len(s.test)) == (80, 10, 10)
        assert set(s.train) | set(s.validation) | set(s.test) == set(range(100))
