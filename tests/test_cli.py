import csv
import json
import os

import numpy as np
import pytest

from trisect.cli import main
from trisect.data import Dataset
from trisect.metrics import roc_auc
from trisect.trainer import TrainConfig, run

from conftest import (
    NODE_1,
    NODE_2,
    TOY_FEATURES,
    TOY_LABELS,
    TOY_SPLIT,
    synthetic_dataset,
    toy_csv_text,
)


@pytest.fixture
def toy_csv(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text(toy_csv_text())
    return str(path)


def _write_synth_csv(path, seed=5, rows=60, features=3):
    ds = synthetic_dataset(seed, rows, features)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(ds.feature_names) + ["label"])
        for x, y in zip(ds.features, ds.labels):
            writer.writerow([f"{v:.6f}" for v in x] + ["yes" if y == 1 else "no"])
    return str(path)


def _with_cell(path, row, col, text):
    """Overwrite one cell of a CSV file; row 1 is the first data row."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    cells = lines[row].split(",")
    cells[col] = text
    lines[row] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def _fast_config(tmp_path, **extra):
    lines = ["max_epochs = 5", "batch_size = 32", "t = 4"]
    lines += [f"{k} = {v}" for k, v in extra.items()]
    path = tmp_path / "fast.cfg"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestTrain:
    def test_writes_report_bundle(self, toy_csv, tmp_path):
        out = str(tmp_path / "run")
        code = main(["train", "--data", toy_csv, "--label-col", "D", "--positive", "1",
                     "--seed", "0", "--out", out,
                     "--config", _fast_config(tmp_path, normalize="none")])
        assert code == 0
        for name in ("model.json", "ledger.json", "metrics.json", "roc.csv", "costs.csv"):
            assert os.path.isfile(os.path.join(out, name)), name
        metrics = json.loads(open(os.path.join(out, "metrics.json")).read())
        assert set(metrics) >= {"accuracy", "weighted_f1", "auc", "per_class"}

    def test_missing_dataset_is_exit_2(self, tmp_path):
        code = main(["train", "--data", str(tmp_path / "nope.csv"),
                     "--label-col", "D", "--positive", "1", "--out", str(tmp_path / "o")])
        assert code == 2

    def test_malformed_config_is_exit_1(self, toy_csv, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("no_such_key = 1\n")
        code = main(["train", "--data", toy_csv, "--label-col", "D", "--positive", "1",
                     "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 1

    def test_missing_required_setting_is_exit_1(self, toy_csv, tmp_path):
        code = main(["train", "--data", toy_csv, "--out", str(tmp_path / "o")])
        assert code == 1

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_feature_is_exit_2(self, tmp_path, capsys, cell):
        data = _with_cell(_write_synth_csv(tmp_path / "synth.csv"), 3, 1, cell)
        code = main(["train", "--data", data, "--label-col", "label", "--positive", "yes",
                     "--out", str(tmp_path / "o"), "--config", _fast_config(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "non-finite" in err and "column 'f1'" in err and "row 3" in err
        assert not os.path.exists(tmp_path / "o")

    def test_model_json_schedule_roundtrips(self, tmp_path):
        from trisect.threeway import schedule_from_json

        data = _write_synth_csv(tmp_path / "synth.csv")
        out = str(tmp_path / "run")
        assert main(["train", "--data", data, "--label-col", "label",
                     "--positive", "yes", "--seed", "11", "--out", out,
                     "--config", _fast_config(tmp_path)]) == 0
        doc = json.loads(open(os.path.join(out, "model.json")).read())
        schedule = schedule_from_json(doc["threshold_schedule"])  # revalidates the chain
        assert schedule.t == 4
        assert doc["seeds"] == {"master_seed": 11}
        # weight payloads are decimal strings that parse back exactly
        assert all(isinstance(v, str) for row in doc["W1"] for v in row)

    def test_rerun_is_byte_identical(self, tmp_path):
        data = _write_synth_csv(tmp_path / "synth.csv")
        cfg = _fast_config(tmp_path)
        outs = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            assert main(["train", "--data", data, "--label-col", "label",
                         "--positive", "yes", "--seed", "7", "--out", out,
                         "--config", cfg]) == 0
            outs.append(out)
        for name in ("model.json", "ledger.json", "metrics.json", "roc.csv", "costs.csv"):
            a = open(os.path.join(outs[0], name), "rb").read()
            b = open(os.path.join(outs[1], name), "rb").read()
            assert a == b, name


class TestEval:
    def test_eval_reproduces_training_metrics_shape(self, tmp_path):
        data = _write_synth_csv(tmp_path / "synth.csv")
        cfg = _fast_config(tmp_path)
        out = str(tmp_path / "run")
        assert main(["train", "--data", data, "--label-col", "label",
                     "--positive", "yes", "--seed", "3", "--out", out,
                     "--config", cfg]) == 0
        assert main(["eval", out, "--data", data, "--label-col", "label",
                     "--positive", "yes", "--out", str(tmp_path / "ev")]) == 0
        metrics = json.loads(open(tmp_path / "ev" / "metrics.json").read())
        assert 0.0 <= metrics["accuracy"] <= 1.0

    def _train(self, tmp_path):
        data = _write_synth_csv(tmp_path / "synth.csv")
        out = str(tmp_path / "run")
        assert main(["train", "--data", data, "--label-col", "label",
                     "--positive", "yes", "--seed", "3", "--out", out,
                     "--config", _fast_config(tmp_path)]) == 0
        return out

    def test_feature_count_mismatch_is_exit_2(self, tmp_path, capsys):
        out = self._train(tmp_path)  # 3 features
        for width in (2, 4):
            data = _write_synth_csv(tmp_path / f"w{width}.csv", features=width)
            code = main(["eval", out, "--data", data, "--label-col", "label",
                         "--positive", "yes", "--out", str(tmp_path / f"ev{width}")])
            assert code == 2
            err = capsys.readouterr().err
            assert f"has {width} feature columns, the model expects 3" in err

    def test_non_finite_feature_is_exit_2(self, tmp_path, capsys):
        out = self._train(tmp_path)
        data = _with_cell(_write_synth_csv(tmp_path / "new.csv"), 5, 0, "nan")
        code = main(["eval", out, "--data", data, "--label-col", "label",
                     "--positive", "yes", "--out", str(tmp_path / "ev")])
        assert code == 2
        assert "column 'f0', row 5" in capsys.readouterr().err

    def test_one_roc_per_bundle(self, tmp_path, monkeypatch):
        import trisect.cli as cli
        import trisect.metrics as metrics
        results = []

        def recorded(truth, scores):
            results.append(roc_auc(truth, scores))
            return results[-1]

        for module in (cli, metrics):  # every place the CLI can reach roc_auc from
            monkeypatch.setattr(module, "roc_auc", recorded)
        out = self._train(tmp_path)
        data = _write_synth_csv(tmp_path / "new.csv", seed=6)
        assert main(["eval", out, "--data", data, "--label-col", "label",
                     "--positive", "yes", "--out", str(tmp_path / "ev")]) == 0
        assert len(results) == 2  # one for the train bundle, one for eval
        for run_dir, (curve, auc) in zip((out, tmp_path / "ev"), results):
            rows = open(os.path.join(run_dir, "roc.csv")).read().splitlines()
            assert rows[1:] == [f"{t!r},{f!r},{r!r}"
                                for t, f, r in zip(curve.thresholds, curve.fpr, curve.tpr)]
            assert json.loads(open(os.path.join(run_dir, "metrics.json")).read())["auc"] == auc

    def test_missing_model_is_exit_2(self, tmp_path):
        code = main(["eval", str(tmp_path / "norun"), "--data", "x.csv",
                     "--label-col", "a", "--positive", "1"])
        assert code == 2


class TestCrossval:
    def test_fold_records_and_summary(self, tmp_path):
        data = _write_synth_csv(tmp_path / "synth.csv", rows=60)
        cfg = _fast_config(tmp_path)
        out = str(tmp_path / "cv")
        assert main(["crossval", "--data", data, "--label-col", "label",
                     "--positive", "yes", "--seed", "2", "--folds", "5",
                     "--out", out, "--config", cfg]) == 0
        summary = json.loads(open(os.path.join(out, "summary.json")).read())
        assert len(summary["folds"]) == 5
        assert summary["k"] == 5
        assert os.path.isfile(os.path.join(out, "summary.csv"))

    def test_reported_std_is_sample_std(self, tmp_path):
        data = _write_synth_csv(tmp_path / "synth.csv", rows=60)
        cfg = _fast_config(tmp_path)
        out = str(tmp_path / "cv")
        assert main(["crossval", "--data", data, "--label-col", "label",
                     "--positive", "yes", "--seed", "2", "--folds", "5",
                     "--out", out, "--config", cfg]) == 0
        summary = json.loads(open(os.path.join(out, "summary.json")).read())
        accs = [r["accuracy"] for r in summary["folds"]]
        expected = float(np.std(accs, ddof=1))
        assert summary["aggregate"]["accuracy"]["std"] == pytest.approx(expected, abs=1e-12)

    def test_identical_seed_identical_summary_bytes(self, tmp_path):
        data = _write_synth_csv(tmp_path / "synth.csv", rows=60)
        cfg = _fast_config(tmp_path)
        blobs = []
        for name in ("cv1", "cv2"):
            out = str(tmp_path / name)
            assert main(["crossval", "--data", data, "--label-col", "label",
                         "--positive", "yes", "--seed", "4", "--folds", "5",
                         "--out", out, "--config", cfg]) == 0
            blobs.append(open(os.path.join(out, "summary.json"), "rb").read())
        assert blobs[0] == blobs[1]

    def test_parallel_jobs_match_serial(self, tmp_path):
        data = _write_synth_csv(tmp_path / "synth.csv", rows=60)
        cfg = _fast_config(tmp_path)
        blobs = []
        for name, jobs in (("serial", "1"), ("parallel", "3")):
            out = str(tmp_path / name)
            assert main(["crossval", "--data", data, "--label-col", "label",
                         "--positive", "yes", "--seed", "4", "--folds", "5",
                         "--jobs", jobs, "--out", out, "--config", cfg]) == 0
            blobs.append(open(os.path.join(out, "summary.json"), "rb").read())
        assert blobs[0] == blobs[1]

    def test_too_few_folds_is_exit_1(self, tmp_path):
        data = _write_synth_csv(tmp_path / "synth.csv")
        code = main(["crossval", "--data", data, "--label-col", "label",
                     "--positive", "yes", "--folds", "1", "--out", str(tmp_path / "o")])
        assert code == 1


class TestBaseline:
    def test_m2_records_topology_six_for_61_features(self, tmp_path):
        data = _write_synth_csv(tmp_path / "wide.csv", seed=8, rows=40, features=61)
        cfg = _fast_config(tmp_path, max_epochs=1)
        out = str(tmp_path / "m2")
        assert main(["baseline", "--kind", "m2", "--data", data, "--label-col", "label",
                     "--positive", "yes", "--seed", "1", "--out", out,
                     "--config", cfg]) == 0
        metrics = json.loads(open(os.path.join(out, "metrics.json")).read())
        assert metrics["kind"] == "m2"
        assert metrics["nodes"] == 6

    def test_grid_search_records_best_nodes(self, tmp_path):
        data = _write_synth_csv(tmp_path / "synth.csv")
        cfg = _fast_config(tmp_path, max_epochs=2, grid_max_nodes=3)
        out = str(tmp_path / "gs")
        assert main(["baseline", "--kind", "grid-search", "--data", data,
                     "--label-col", "label", "--positive", "yes", "--seed", "1",
                     "--out", out, "--config", cfg]) == 0
        metrics = json.loads(open(os.path.join(out, "metrics.json")).read())
        assert metrics["kind"] == "grid-search"
        assert 1 <= metrics["best_nodes"] <= 3

    def test_twd_fixed_and_nk_write_ledgers(self, tmp_path):
        data = _write_synth_csv(tmp_path / "synth.csv")
        cfg = _fast_config(tmp_path)
        for kind in ("twd-fixed", "stwd-nk"):
            out = str(tmp_path / kind)
            assert main(["baseline", "--kind", kind, "--data", data,
                         "--label-col", "label", "--positive", "yes", "--seed", "1",
                         "--out", out, "--config", cfg]) == 0
            assert os.path.isfile(os.path.join(out, "ledger.json"))
            metrics = json.loads(open(os.path.join(out, "metrics.json")).read())
            assert metrics["kind"] == kind

    def test_bogus_kind_is_exit_1(self, toy_csv, tmp_path):
        code = main(["baseline", "--kind", "bogus", "--data", toy_csv,
                     "--label-col", "D", "--positive", "1", "--out", str(tmp_path / "o")])
        assert code == 1


class TestCosts:
    def _toy_run_dir(self, tmp_path):
        """Ledger of the worked example, written the way train does."""
        from conftest import MATRIX_1, MATRIX_2, MATRIX_3, RECORDED_PAIRS, RECORDED_GAMMA
        from trisect.threeway import ThresholdSchedule

        ds = Dataset(TOY_FEATURES.copy(), TOY_LABELS.copy(), ("a1", "a2", "a3", "a4"))
        sched = ThresholdSchedule(RECORDED_PAIRS, RECORDED_GAMMA,
                                  (MATRIX_1, MATRIX_2, MATRIX_3))
        cfg = TrainConfig(t=3, activation="selu", master_seed=0,
                          unit_test_costs=(1.0, 2.0, 3.0),
                          unit_delay_costs=(1.0, 2.0, 3.0),
                          schedule=sched, fixture_nodes=(NODE_1, NODE_2))
        _, ledger = run(ds, TOY_SPLIT, cfg)
        run_dir = tmp_path / "toyrun"
        run_dir.mkdir()
        with open(run_dir / "ledger.json", "w") as fh:
            json.dump(ledger.to_dict(), fh, sort_keys=True, indent=2)
        return str(run_dir)

    def test_worked_example_rows(self, tmp_path, capsys):
        run_dir = self._toy_run_dir(tmp_path)
        assert main(["costs", run_dir]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "level,cost_test,cost_delay"
        assert [tuple(float(v) for v in line.split(",")) for line in lines[1:]] == [
            (1.0, 3.0, 3.0), (2.0, 7.0, 4.0)]

    def test_out_dir_writes_csv(self, tmp_path):
        run_dir = self._toy_run_dir(tmp_path)
        out = str(tmp_path / "plots")
        assert main(["costs", run_dir, "--out", out]) == 0
        rows = open(os.path.join(out, "costs.csv")).read().strip().splitlines()
        assert len(rows) == 3
        # the test-cost column strictly increases
        costs = [float(r.split(",")[1]) for r in rows[1:]]
        assert all(b > a for a, b in zip(costs, costs[1:]))

    def test_missing_ledger_is_exit_2(self, tmp_path):
        assert main(["costs", str(tmp_path / "empty")]) == 2
