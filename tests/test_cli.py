import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import os
import re
import tracemalloc
import types

import numpy as np
import pytest

from trisect.cli import ROC_CHUNK_LINES, _write_roc_csv, main
from trisect.errors import ConfigError, DataError, SamplingError
from trisect.metrics import roc_auc
from trisect.trainer import run

from conftest import (
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

    @pytest.mark.parametrize("error, code", [(ConfigError, 1), (DataError, 2),
                                             (SamplingError, 3), (RuntimeError, 3),
                                             (ValueError, 1)])
    def test_error_type_sets_exit_code(self, toy_csv, tmp_path, monkeypatch, capsys,
                                       error, code):
        import trisect.cli as cli

        def failing(*args):
            raise error("stopped")

        monkeypatch.setattr(cli, "run", failing)
        assert main(["train", "--data", toy_csv, "--label-col", "D", "--positive", "1",
                     "--out", str(tmp_path / "o")]) == code
        assert capsys.readouterr().err == "error: stopped\n"
        assert not os.path.exists(tmp_path / "o")

    @pytest.mark.parametrize("command, below_file", [("train", False), ("crossval", True)])
    def test_unusable_out_fails_before_training(self, toy_csv, monkeypatch, capsys,
                                                command, below_file):
        import trisect.cli as cli

        def never(*args):
            raise AssertionError("trained despite an unusable --out")

        monkeypatch.setattr(cli, "run", never)
        out = os.path.join(toy_csv, "run") if below_file else ""
        assert main([command, "--data", toy_csv, "--label-col", "D", "--positive", "1",
                     "--out", out]) == 1
        assert capsys.readouterr().err == \
            f"error: output directory {out!r} cannot be created or written\n"

    def test_directory_as_data_is_exit_2(self, tmp_path, capsys):
        assert main(["train", "--data", str(tmp_path), "--label-col", "D", "--positive", "1",
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == \
            f"error: dataset file expected, but {tmp_path} is a directory\n"

    def test_directory_as_config_is_exit_1(self, toy_csv, tmp_path, capsys):
        assert main(["train", "--data", toy_csv, "--label-col", "D", "--positive", "1",
                     "--config", str(tmp_path), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == \
            f"error: config file expected, but {tmp_path} is a directory\n"

    def test_undecodable_config_names_its_line(self, toy_csv, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes("t = 4\n# café\n".encode() + b"l2 = 0.\xff1\n")
        assert main(["train", "--data", toy_csv, "--label-col", "D", "--positive", "1",
                     "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: {cfg}:3: not valid UTF-8\n"

    # every command that fits a level loop is checked against every (config
    # line, exit code, start of the error line) row, under the ids pytest gives
    # a product of two parametrizations; a baseline kind that fits no level
    # loop is checked against its own keys
    @pytest.mark.parametrize("setting, code, message, command", [
        pytest.param(setting, code, message, command,
                     id=f"{setting}-{code}-{message}-command{i}")
        for setting, code, message in [
            ("lr = 0", 1, "error: learning rate must be positive"),
            ("t = 40", 3, "error: level 20 of a t = 40 schedule, "),  # seed 0's corridor collapses
            ("theta = nan", 1, "error: config key 'theta': 'nan' is not a finite number"),
            ("l2 = inf", 1, "error: config key 'l2': 'inf' is not a finite number"),
            ("lr = inf", 1, "error: config key 'lr': 'inf' is not a finite number"),
        ]
        for i, command in enumerate([["train"], ["crossval"], ["baseline", "--kind", "stwd-nk"]])
    ] + [
        pytest.param(setting, 1, message, ["baseline", "--kind", kind], id=f"{setting}-{kind}")
        for setting, message, kind in [
            ("grid_max_nodes = 0", "error: max_nodes must be >= 1", "grid-search"),
            ("m1_a = 20", "error: m1 requires a in (1, 10), got 20.0", "m1"),
        ]
    ])
    def test_settings_are_checked_before_the_data_is_read(self, tmp_path, monkeypatch, capsys,
                                                          setting, code, message, command):
        import trisect.cli as cli

        def never(*args):
            raise AssertionError("read the data before checking the settings")

        monkeypatch.setattr(cli, "load_csv", never)
        cfg = tmp_path / "c.cfg"
        cfg.write_text(setting + "\n")
        assert main([*command, "--data", str(tmp_path / "absent.csv"), "--label-col", "D",
                     "--positive", "1", "--seed", "0", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == code
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(message)

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

    def test_oversized_cell_is_exit_2(self, tmp_path, capsys):
        # a cell past the csv module's field limit, in a file the row scan reads
        data = _with_cell(_write_synth_csv(tmp_path / "synth.csv"), 4, 0, "1" * 200_000)
        data = _with_cell(data, 9, 1, "")
        code = main(["train", "--data", data, "--label-col", "label", "--positive", "yes",
                     "--out", str(tmp_path / "o"), "--config", _fast_config(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "row 4 cannot be read: field larger than field limit" in err
        assert not os.path.exists(tmp_path / "o")

    def test_collapsed_schedule_is_exit_3(self, toy_csv, tmp_path, capsys):
        # seed 0's defer corridor holds no float strictly inside by level 20
        cfg = tmp_path / "t40.cfg"
        cfg.write_text("t = 40\n")
        assert main(["train", "--data", toy_csv, "--label-col", "D", "--positive", "1",
                     "--seed", "0", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: level 20 of a t = 40 schedule, ")

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

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_default_named_out_is_honoured(self, tmp_path, monkeypatch, source):
        # only an unset out falls back to <run_dir>/eval; naming trisect-out,
        # the other commands' default, still writes there
        out = self._train(tmp_path)
        monkeypatch.chdir(tmp_path)
        argv = ["eval", out, "--data", str(tmp_path / "synth.csv"), "--label-col", "label",
                "--positive", "yes"]
        if source == "flag":
            argv += ["--out", "trisect-out"]
        else:
            (tmp_path / "out.cfg").write_text("out = trisect-out\n")
            argv += ["--config", str(tmp_path / "out.cfg")]
        assert main(argv) == 0
        assert sorted(os.listdir(tmp_path / "trisect-out")) == ["metrics.json", "roc.csv"]
        assert not os.path.exists(os.path.join(out, "eval"))

    def test_unset_out_writes_into_the_run(self, tmp_path, monkeypatch):
        out = self._train(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert main(["eval", out, "--data", str(tmp_path / "synth.csv"),
                     "--label-col", "label", "--positive", "yes"]) == 0
        assert sorted(os.listdir(os.path.join(out, "eval"))) == ["metrics.json", "roc.csv"]
        assert not os.path.exists(tmp_path / "trisect-out")

    def test_missing_model_is_exit_2(self, tmp_path):
        code = main(["eval", str(tmp_path / "norun"), "--data", "x.csv",
                     "--label-col", "a", "--positive", "1"])
        assert code == 2

    @pytest.mark.parametrize("damage, message", [
        (lambda text: json.dumps({**json.loads(text), "W1": None}),
         "model.json: key 'W1' is missing or not a list"),
        (lambda text: text[:len(text) // 2], "model.json: Unterminated string"),
        (lambda text: _with_stats(text, lambda stats: stats[:-1]),
         "model.json: normalization stats cover 2 features, W1 has 3"),
        (lambda text: _with_stats(text, lambda stats: stats + stats[:1]),
         "model.json: normalization stats cover 4 features, W1 has 3"),
    ], ids=["without-W1", "truncated", "too-few-stats", "too-many-stats"])
    def test_damaged_model_is_exit_2(self, tmp_path, capsys, damage, message):
        out = self._train(tmp_path)
        path = os.path.join(out, "model.json")
        text = open(path).read()
        with open(path, "w") as fh:
            fh.write(damage(text))
        capsys.readouterr()
        code = main(["eval", out, "--data", str(tmp_path / "synth.csv"), "--label-col", "label",
                     "--positive", "yes", "--out", str(tmp_path / "ev")])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]

    def test_memory_is_bounded_by_the_feature_matrix(self, tmp_path):
        # the raw and the normalized 20000x16 matrices together are 2x; the
        # rows, their labels and the roc.csv text must fit in the third
        rng = np.random.default_rng(19)
        X = rng.random((20000, 16))
        margin = X @ rng.standard_normal(16)
        labels = np.where(margin > np.median(margin), "yes", "no")
        header = ",".join(f"f{j}" for j in range(16)) + ",label"
        lines = [",".join(f"{v:.6f}" for v in row) + f",{y}" for row, y in zip(X, labels)]
        (tmp_path / "train.csv").write_text("\n".join([header] + lines[:300]) + "\n")
        (tmp_path / "eval.csv").write_text("\n".join([header] + lines) + "\n")
        del lines
        out = str(tmp_path / "run")
        assert main(["train", "--data", str(tmp_path / "train.csv"), "--label-col", "label",
                     "--positive", "yes", "--out", out, "--config", _fast_config(tmp_path)]) == 0
        tracemalloc.start()
        try:
            code = main(["eval", out, "--data", str(tmp_path / "eval.csv"), "--label-col",
                         "label", "--positive", "yes", "--out", str(tmp_path / "ev")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak <= 3 * X.nbytes, f"peak {peak / X.nbytes:.2f}x the feature matrix"


def _with_stats(text, edit):
    """A model.json text whose normalization stats are ``edit(stats)``."""
    doc = json.loads(text)
    doc["normalization"]["stats"] = edit(doc["normalization"]["stats"])
    return json.dumps(doc)


@pytest.mark.parametrize("points", [None, 1, ROC_CHUNK_LINES - 1, ROC_CHUNK_LINES,
                                    ROC_CHUNK_LINES + 1, 3 * ROC_CHUNK_LINES - 5])
def test_roc_csv_has_the_whole_file_bytes(tmp_path, points):
    """roc.csv, written a chunk at a time, is the header and the curve's
    lines joined whole, for a missing curve and at the chunk edges."""
    lines = ["threshold,fpr,tpr"]
    curve = None
    if points is not None:
        rng = np.random.default_rng(points)
        thresholds = [math.inf] + sorted(rng.random(points // 2).tolist(), reverse=True)
        thresholds += [-0.0] * (points - len(thresholds))
        fpr, tpr = (tuple(sorted(rng.random(points).tolist())) for _ in range(2))
        curve = types.SimpleNamespace(thresholds=tuple(thresholds), fpr=fpr, tpr=tpr)
        lines += [f"{t!r},{f!r},{r!r}" for t, f, r in zip(thresholds, fpr, tpr)]
    path = tmp_path / "roc.csv"
    _write_roc_csv(str(path), curve)
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


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

    def test_pool_is_capped_at_the_fold_count(self, tmp_path, monkeypatch):
        import concurrent.futures

        class SerialPool:
            """Records its worker count and maps in this process."""
            workers = []

            def __init__(self, max_workers):
                self.workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        data = _write_synth_csv(tmp_path / "synth.csv", rows=60)
        cfg = _fast_config(tmp_path)
        blobs = []
        for name, jobs in (("serial", "1"), ("pooled", "8")):
            out = str(tmp_path / name)
            assert main(["crossval", "--data", data, "--label-col", "label",
                         "--positive", "yes", "--seed", "4", "--folds", "3",
                         "--jobs", jobs, "--out", out, "--config", cfg]) == 0
            blobs.append(open(os.path.join(out, "summary.json"), "rb").read())
        assert SerialPool.workers == [3]
        assert blobs[0] == blobs[1]

    def test_negative_jobs_is_exit_1(self, tmp_path, capsys):
        data = _write_synth_csv(tmp_path / "synth.csv")
        code = main(["crossval", "--data", data, "--label-col", "label", "--positive", "yes",
                     "--jobs", "-3", "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == "error: jobs must be >= 1, got -3\n"

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

    def test_missing_kind_is_exit_1(self, toy_csv, tmp_path, capsys):
        code = main(["baseline", "--data", toy_csv, "--label-col", "D", "--positive", "1",
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == "error: missing required setting 'kind'\n"

    def test_bogus_kind_is_exit_1(self, toy_csv, tmp_path):
        code = main(["baseline", "--kind", "bogus", "--data", toy_csv,
                     "--label-col", "D", "--positive", "1", "--out", str(tmp_path / "o")])
        assert code == 1


class TestCosts:
    @pytest.fixture
    def toy_run_dir(self, tmp_path, toy_dataset, toy_config, toy_schedule):
        """Ledger of the worked example, written the way train does."""
        _, ledger = run(toy_dataset, TOY_SPLIT, toy_config, toy_schedule)
        run_dir = tmp_path / "toyrun"
        run_dir.mkdir()
        with open(run_dir / "ledger.json", "w") as fh:
            json.dump(ledger.to_dict(), fh, sort_keys=True, indent=2)
        return str(run_dir)

    def test_worked_example_rows(self, toy_run_dir, capsys):
        assert main(["costs", toy_run_dir]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "level,cost_test,cost_delay"
        assert [tuple(float(v) for v in line.split(",")) for line in lines[1:]] == [
            (1.0, 3.0, 3.0), (2.0, 7.0, 4.0)]

    def test_out_dir_writes_csv(self, toy_run_dir, tmp_path):
        out = str(tmp_path / "plots")
        assert main(["costs", toy_run_dir, "--out", out]) == 0
        rows = open(os.path.join(out, "costs.csv")).read().strip().splitlines()
        assert len(rows) == 3
        # the test-cost column strictly increases
        costs = [float(r.split(",")[1]) for r in rows[1:]]
        assert all(b > a for a, b in zip(costs, costs[1:]))

    def test_level_without_misclassified_instances_is_omitted(self, toy_run_dir, capsys):
        # a level whose node misclassifies nothing ends the run with m = 0
        run_dir = toy_run_dir
        path = os.path.join(run_dir, "ledger.json")
        doc = json.loads(open(path).read())
        doc["levels"].append({**doc["levels"][-1], "level": 3, "m": 0})
        with open(path, "w") as fh:
            json.dump(doc, fh)
        assert main(["costs", run_dir]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "level,cost_test,cost_delay", "1,3.0,3.0", "2,7.0,4.0"]

    def test_missing_ledger_is_exit_2(self, tmp_path):
        assert main(["costs", str(tmp_path / "empty")]) == 2

    def test_levels_not_a_list_is_exit_2(self, tmp_path, capsys):
        (tmp_path / "ledger.json").write_text('{"levels": 5}\n')
        assert main(["costs", str(tmp_path)]) == 2
        assert capsys.readouterr().err == \
            f"error: {tmp_path / 'ledger.json'}: key 'levels' is missing or not a list\n"

    def test_empty_out_is_exit_1(self, toy_run_dir, capsys):
        assert main(["costs", toy_run_dir, "--out", ""]) == 1
        assert capsys.readouterr() == \
            ("", "error: output directory '' cannot be created or written\n")


@pytest.fixture(scope="module")
def trained_toy_run(tmp_path_factory):
    """(run directory, CSV, config file) of one short train run on the worked example."""
    root = tmp_path_factory.mktemp("toyrun")
    data = root / "toy.csv"
    data.write_text(toy_csv_text())
    cfg = _fast_config(root)
    run_dir = str(root / "run")
    assert main(["train", "--data", str(data), "--label-col", "D", "--positive", "1",
                 "--config", cfg, "--out", run_dir]) == 0
    return run_dir, str(data), cfg


@pytest.mark.parametrize("command, flag", [
    ("train", ["--jobs", "2"]),
    ("train", ["--folds", "3"]),
    ("train", ["--kind", "m2"]),
    ("eval", ["--kind", "m2"]),
    ("costs", ["--config"]),
    ("eval", ["--seed", "5"]),
])
def test_flag_of_another_command_is_exit_1(trained_toy_run, tmp_path, capsys, command, flag):
    run_dir, data, cfg = trained_toy_run
    argv = [command]
    if command in ("eval", "costs"):
        argv.append(run_dir)
    if command != "costs":
        argv += ["--data", data, "--label-col", "D", "--positive", "1"]
    if flag == ["--config"]:
        flag = ["--config", cfg]
    out = tmp_path / "o"
    assert main(argv + flag + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: unrecognized arguments: {' '.join(flag)}\n"
    assert not out.exists()


def _readme_table(header):
    """The backticked words of each cell of each row of the README table under ``header``."""
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"),
              encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    rows = itertools.takewhile(lambda line: line.startswith("|"),
                               lines[lines.index(header) + 2:])  # past the |---| row
    return [[re.findall(r"`([^`]+)`", cell) for cell in row.split("|")[1:-1]] for row in rows]


def test_readme_lists_every_config_key_and_every_command_flag():
    import trisect.cli as cli

    keys = [key for row in _readme_table("| key | default | meaning |") for key in row[0]]
    assert sorted(keys) == sorted(cli.CONFIG_KEYS)
    assert list(cli.DEFAULTS) == list(cli.CONFIG_KEYS)  # no dataclass field lacks a key
    flags = {row[0][0]: row[1] for row in _readme_table("| command | arguments |")}
    assert flags == {name: ["run_dir"] * needs_dir + ["--" + key.replace("_", "-") for key in keys]
                     for name, (_, needs_dir, keys) in cli.COMMANDS.items()}


def _command_outputs(tmp_path):
    """sha256 of every file each command writes, keyed by its path under tmp_path.

    Runs train, eval, costs (stdout and --out), the six baseline kinds and
    crossval on one small dataset; a short-trained t = 4 run goes to level 2.
    """
    data = _write_synth_csv(tmp_path / "synth.csv")
    cfg = _fast_config(tmp_path, l2=0.01, grid_max_nodes=3)
    data_flags = ["--data", data, "--label-col", "label", "--positive", "yes", "--config", cfg]
    shared = [*data_flags, "--seed", "0"]
    run_dir = str(tmp_path / "train")
    stdout = io.StringIO()
    commands = [["train", *shared, "--out", run_dir],
                ["eval", run_dir, *data_flags],
                ["costs", run_dir, "--out", str(tmp_path / "costs")],
                ["crossval", *shared, "--folds", "3", "--out", str(tmp_path / "crossval")]]
    commands += [["baseline", "--kind", kind, *shared, "--out", str(tmp_path / kind)]
                 for kind in ("m1", "m2", "m3", "grid-search", "twd-fixed", "stwd-nk")]
    for argv in commands:
        assert main(argv) == 0, argv
    with contextlib.redirect_stdout(stdout):
        assert main(["costs", run_dir]) == 0
    digests = {"costs-stdout": hashlib.sha256(stdout.getvalue().encode()).hexdigest()}
    for root, _, files in os.walk(tmp_path):
        for name in files:
            path = os.path.join(root, name)
            rel = os.path.relpath(path, tmp_path).replace(os.sep, "/")
            if rel not in ("synth.csv", "fast.cfg"):
                with open(path, "rb") as fh:
                    digests[rel] = hashlib.sha256(fh.read()).hexdigest()
    return digests


# every output byte of every command: a writer that changes one fails here
PINNED_OUTPUTS = {
    "costs-stdout": "746952028f9e3da5d7fc5ac62a3e563a5dcd03e626b96476a9ad714c09f2f785",
    "costs/costs.csv": "746952028f9e3da5d7fc5ac62a3e563a5dcd03e626b96476a9ad714c09f2f785",
    "crossval/summary.csv": "d403ca86ea90a7ab46d0928d9b413e6f8a390ac2a0b406721964e26cdcc8262c",
    "crossval/summary.json": "ce9a9092c58be81044031ffb923658e77f5c98a7050241de0f0cc7fe0490a3eb",
    "grid-search/ingestion.json": "e348f34210d0c4a87d5a664fc7734d1ba35bce61378aa58f0c228f8ac4acc51e",
    "grid-search/metrics.json": "7625b49a256c3cb7ee870b9072bde2657f204eb27a2d905da6642582c345a63a",
    "grid-search/model.json": "43f3d63b8c0daeddfee094dc722336c6df44f4540f327b1b17519b315b9d3d4b",
    "grid-search/roc.csv": "368ffef574d55eebdacfea8df61b09a00fca6396d1f9f605db22f5c4daa215d4",
    "m1/ingestion.json": "e348f34210d0c4a87d5a664fc7734d1ba35bce61378aa58f0c228f8ac4acc51e",
    "m1/metrics.json": "f65328a26d94db916acba594c727ea04324c9bef1c3e44e6abd714f54a6ab804",
    "m1/model.json": "4623ca3714dbe4d88c6ec53d452337d3980b9cc681db0543f7918197522d29f2",
    "m1/roc.csv": "5500eacd3588727b48cf0f865f81aad64965824659c4b42767d4403b68812569",
    "m2/ingestion.json": "e348f34210d0c4a87d5a664fc7734d1ba35bce61378aa58f0c228f8ac4acc51e",
    "m2/metrics.json": "7a321b7b8a1f1f999e423a10f2fe55cb223dc6b27161a587cd6db6e9ae29b195",
    "m2/model.json": "77fadf36b84984265f4a36265d8bbd062872914e9526ea2d510458de09581a40",
    "m2/roc.csv": "fb90c51f73fcc23cfc2479706ff06d2bdc42ca7646ca0d862ee3a8ba707baaea",
    "m3/ingestion.json": "e348f34210d0c4a87d5a664fc7734d1ba35bce61378aa58f0c228f8ac4acc51e",
    "m3/metrics.json": "be98e684610fcb1207149f60efe0d9cdb5ddbefa1e4ebe3ba1876246a30090fb",
    "m3/model.json": "77fadf36b84984265f4a36265d8bbd062872914e9526ea2d510458de09581a40",
    "m3/roc.csv": "fb90c51f73fcc23cfc2479706ff06d2bdc42ca7646ca0d862ee3a8ba707baaea",
    "stwd-nk/costs.csv": "7ed4ff2479d85a1ef1edc27d570ec84b40c8587553e856da76e1c528de794d20",
    "stwd-nk/ingestion.json": "e348f34210d0c4a87d5a664fc7734d1ba35bce61378aa58f0c228f8ac4acc51e",
    "stwd-nk/ledger.json": "a59ce2dd6bee3498fc5a1660c58732a1010bd6f48b5982d77cad98006abd41ed",
    "stwd-nk/metrics.json": "aef719bf6cfeebfa93f337b0468a55654ad1f6e30fbe67752f85367da2d98379",
    "stwd-nk/model.json": "25f9fe6fceffd037bb2c66d1694f64b6a01cb5a61fa2cc64a8ced7fab01f69a0",
    "stwd-nk/roc.csv": "7e11e09c84661f0ed0086a8d942f4a6e82ca7068d3d813e311ebef01cc5dbd0f",
    "train/costs.csv": "f0f4f748139f2385ed7e588f128d6713d00103859cb256b858527484517d752a",
    "train/eval/metrics.json": "169623246ea4d2c5c0533c232d6a907f6a90e306aa347e26885db3d4f35c4aec",
    "train/eval/roc.csv": "626bd5dacc8d46f0cd6e1c487486d7f8e48f11535cf27fee0a52f9b24d52f3bb",
    "train/ingestion.json": "e348f34210d0c4a87d5a664fc7734d1ba35bce61378aa58f0c228f8ac4acc51e",
    "train/ledger.json": "3f0a49fd241a65f79e32f8bb9e22a97db27d256fde5351f9da26d153e091bc05",
    "train/metrics.json": "d8a6691b95660d1034af36374fb3fb808232e0a918bb7a7b7a60785ae4c8cccf",
    "train/model.json": "f34e0102487446c62c3d1f6b6617cf745820d2b55ad403e6606ccff97ccefaf0",
    "train/roc.csv": "7f54d1ad97fb3dc32f9052b0f1988a6d2761dd254c1cd0951c1fefe9059a4f7f",
    "twd-fixed/costs.csv": "3c5109afd979a108495ca76ef22fe30713bc3c9cdabe14042b8ba94d47f16df9",
    "twd-fixed/ingestion.json": "e348f34210d0c4a87d5a664fc7734d1ba35bce61378aa58f0c228f8ac4acc51e",
    "twd-fixed/ledger.json": "bbcffee086a2ff7d3709909fa127a269af79bf10d705d7a910bab0cf14af02fe",
    "twd-fixed/metrics.json": "ad0d2edad7722f98b0ed37cd3c8de675cbd045a054f84b08b482883e63478ecd",
    "twd-fixed/model.json": "9fdba8bc0d10b948cafb063718b986a9ff80d6019bad51ca6cca8c954f3792a6",
    "twd-fixed/roc.csv": "7f54d1ad97fb3dc32f9052b0f1988a6d2761dd254c1cd0951c1fefe9059a4f7f",
}


def test_every_command_writes_its_pinned_bytes(tmp_path):
    assert _command_outputs(tmp_path) == PINNED_OUTPUTS
