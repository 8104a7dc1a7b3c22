import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest

from trisect.cli import ROC_CHUNK_LINES, _write_roc_csv, main
from trisect.errors import ConfigError, DataError, SamplingError
from trisect.metrics import roc_auc
from trisect.network import ALIGN_ROWS, BLOCK_ROWS
from trisect.trainer import run

from conftest import (
    TOY_SPLIT,
    assert_block_rule,
    block_spans,
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
    settings = {"max_epochs": 5, "batch_size": 32, "t": 4, **extra}  # a config names a key once
    lines = [f"{k} = {v}" for k, v in settings.items()]
    path = tmp_path / "fast.cfg"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _count_forks(monkeypatch):
    """The pids of the processes forked from now on, in fork order. In a forked
    child, the list's length is the number of forks up to and including its own."""
    forks, fork = [], os.fork

    def counting_fork():
        forks.append(None)
        pid = fork()
        if pid:
            forks[-1] = pid
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


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

    def test_seed_must_fit_the_rng_state(self, toy_csv, tmp_path, capsys):
        # 2**64 would seed every stream as 0 does and write seed 0's outputs
        args = ["train", "--data", toy_csv, "--label-col", "D", "--positive", "1",
                "--config", _fast_config(tmp_path)]
        top = str(tmp_path / "top")
        assert main(args + ["--seed", str(2**64 - 1), "--out", top]) == 0
        model = json.loads(open(os.path.join(top, "model.json")).read())
        assert model["seeds"] == {"master_seed": 2**64 - 1}
        capsys.readouterr()
        assert main(args + ["--seed", str(2**64), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == \
            f"error: master seed must lie in [0, 2**64), got {2**64}\n"
        assert not os.path.exists(tmp_path / "o")

    def test_config_key_given_twice_names_both_lines(self, toy_csv, tmp_path, capsys):
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("l2 = 0.01\nt = 4\n\nl2 = 0.5\n")
        assert main(["train", "--data", toy_csv, "--label-col", "D", "--positive", "1",
                     "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == \
            f"error: {cfg}:4: key 'l2' given twice (lines 1 and 4)\n"
        assert not os.path.exists(tmp_path / "o")

    @pytest.mark.parametrize("flags, name", [
        (["--seed", "1", "--seed", "2"], "--seed"),
        (["--out", "a", "--seed", "3", "--out=b"], "--out"),
        (["--label-col", "D"], "--label-col"),
    ])
    def test_flag_given_twice_names_the_flag(self, toy_csv, tmp_path, capsys, flags, name):
        # a flag given twice is refused, as a config key given twice is
        assert main(["train", "--data", toy_csv, "--label-col", "D", "--positive", "1",
                     *flags, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: flag {name} given twice\n"
        assert not os.path.exists(tmp_path / "o")

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

        monkeypatch.setattr(cli, "_read_csv", never)
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

    @pytest.mark.parametrize("command", [["train"], ["baseline", "--kind", "m2"]])
    @pytest.mark.parametrize("rows, dropped", [(9, 0), (12, 3)])
    def test_too_few_rows_to_split_is_exit_2(self, tmp_path, capsys, command, rows, dropped):
        data = _write_synth_csv(tmp_path / "small.csv", rows=rows)
        for row in range(1, dropped + 1):
            _with_cell(data, row, 0, "")
        code = main([*command, "--data", data, "--label-col", "label", "--positive", "yes",
                     "--out", str(tmp_path / "o"), "--config", _fast_config(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {data}: 8:1:1 split needs at least 10 rows, got 9"]
        assert not os.path.exists(tmp_path / "o")

    def test_duplicated_label_column_name_is_exit_2(self, tmp_path, capsys):
        data = tmp_path / "dup.csv"
        data.write_text("y,a,y\n" + "".join(f"{i % 2},{i}.5,{i}\n" for i in range(20)))
        code = main(["train", "--data", str(data), "--label-col", "y", "--positive", "1",
                     "--out", str(tmp_path / "o"), "--config", _fast_config(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {data}: label column 'y' appears 2 times in the header"]
        assert not os.path.exists(tmp_path / "o")

    def test_rows_whose_squared_distance_underflows_train(self, tmp_path, capsys):
        # 0.0 and 1e-200 differ in their bytes, but (1e-200)^2 is 0.0: k-means
        # finds one cluster among level 1's misclassified rows, not two
        data = tmp_path / "underflow.csv"
        data.write_text("x,y\n" + "".join(
            f"{'0.0' if i % 2 == 0 else '1e-200'},{'yes' if i % 4 < 2 else 'no'}\n"
            for i in range(40)))
        out = tmp_path / "o"
        assert main(["train", "--data", str(data), "--label-col", "y", "--positive", "yes",
                     "--seed", "0", "--out", str(out),
                     "--config", _fast_config(tmp_path, normalize="none")]) == 0
        assert capsys.readouterr().err == ""
        levels = json.loads((out / "ledger.json").read_text())["levels"]
        assert levels[0]["m"] > 0  # level 1 clustered its misclassified rows

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

    def test_memory_is_bounded_by_the_feature_matrix(self, tmp_path):
        # the raw and the normalized 20000x8 matrices are 2x; the split, the
        # level loop's row sets and 32-cluster k-means on the half of the
        # training rows that level 1 misclassifies must fit in three more
        data = _write_synth_csv(tmp_path / "synth.csv", seed=22, rows=20000, features=8)
        cfg = tmp_path / "train.cfg"
        cfg.write_text("clusters = 32\nmax_epochs = 2\npatience = 2\n")
        tracemalloc.start()
        try:
            code = main(["train", "--data", data, "--label-col", "label", "--positive", "yes",
                         "--out", str(tmp_path / "run"), "--config", str(cfg)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        matrix = 20000 * 8 * np.dtype(np.float64).itemsize
        assert peak <= 5 * matrix, f"peak {peak / matrix:.2f}x the feature matrix"


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

    @pytest.mark.parametrize("rows", [60, 12289])
    def test_feature_count_is_checked_on_the_first_block_predicted(self, tmp_path, capsys,
                                                                   rows):
        # a damaged cell in row 10000, the third block's, or in the last row of a
        # file of one block: the width error comes first only when the first block
        # is predicted before the damaged row is read
        out = self._train(tmp_path)  # 3 features
        data = _with_cell(_write_synth_csv(tmp_path / "w4.csv", rows=rows, features=4),
                          min(rows, 10000), 0, "abc")
        code = main(["eval", out, "--data", data, "--label-col", "label",
                     "--positive", "yes", "--out", str(tmp_path / "ev")])
        assert code == 2
        expected = (f"{data} has 4 feature columns, the model expects 3" if rows > 8192 else
                    f"{data}: non-numeric value 'abc' in column 'f0', row {rows}")
        assert capsys.readouterr().err == f"error: {expected}\n"

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
            assert rows[1:] == [f"{t!r},{f!r},{r!r}" for t, f, r in
                                zip(curve.thresholds.tolist(), curve.fpr.tolist(),
                                    curve.tpr.tolist())]
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
        (lambda text: _with_normalization(text, "mode", lambda mode: "robust"),
         "model.json: unknown normalization mode: 'robust'"),
        (lambda text: _with_normalization(text, "mode", lambda mode: None),
         "model.json: unknown normalization mode: None"),
        (lambda text: _with_stats(text, lambda stats: [["nan", b] for a, b in stats]),
         "model.json: normalization stats must be finite"),
        (lambda text: _with_stats(text, lambda stats: stats[:-1] + [[stats[-1][0], "inf"]]),
         "model.json: normalization stats must be finite"),
    ], ids=["without-W1", "truncated", "too-few-stats", "too-many-stats", "unknown-mode",
            "null-mode", "nan-stat", "inf-stat"])
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
        peak, matrix = _eval_peak(tmp_path, 20000)
        assert peak <= 3 * matrix, f"peak {peak / matrix:.2f}x the feature matrix"

    def test_memory_is_one_feature_matrix_and_the_forward_pass(self, tmp_path):
        # eval holds one parsed 4096-row block and the one read after it, and
        # at the end a copy of the final block's 4128 rows out of the two; with
        # the truth, labels and scores of each row, and then the ROC arrays,
        # that is less than the 20000x16 feature matrix, which is never held whole
        peak, matrix = _eval_peak(tmp_path, 20000)
        assert peak <= 1.1 * matrix, f"peak {peak / matrix:.2f}x the feature matrix"

    def test_memory_does_not_grow_with_the_feature_matrix(self, tmp_path):
        # twice the rows of the test above: the blocks stay the same size, so
        # only the per-row truth, labels, scores and ROC arrays grow
        peak, matrix = _eval_peak(tmp_path, 40000)
        assert peak <= 0.6 * matrix, f"peak {peak / matrix:.2f}x the feature matrix"

    def test_row_order_leaves_the_report_bytes(self, tmp_path):
        # a metamorphic relation: 12289 rows are four reads and three predicted blocks,
        # so each shuffle moves rows across the block boundaries and the reads' joins
        run = self._train(tmp_path)
        data = _write_synth_csv(tmp_path / "bulk.csv", seed=11, rows=12289)
        with open(data) as fh:
            header, *rows = fh.readlines()

        def report(path, out):
            assert main(["eval", run, "--data", path, "--label-col", "label",
                         "--positive", "yes", "--out", str(out)]) == 0
            return [(out / name).read_bytes() for name in ("metrics.json", "roc.csv")]

        expected = report(data, tmp_path / "ev")
        for seed in (1, 2, 3):
            path = tmp_path / f"shuffled{seed}.csv"
            order = np.random.default_rng(seed).permutation(len(rows))
            path.write_text(header + "".join(rows[i] for i in order))
            assert report(str(path), tmp_path / f"ev{seed}") == expected, seed

    def test_streamed_eval_writes_the_whole_matrix_bytes(self, tmp_path):
        # at one BLAS thread, eval's blocks give the metrics.json and roc.csv
        # of predict_rows on the loaded table, and a file the row scan must
        # read goes to it from the failed read, with its message or rows
        probe = textwrap.dedent("""\
            import contextlib, io, json, os, sys
            import numpy as np
            import trisect.cli as cli
            import trisect.data as data
            from trisect.data import apply_normalization, load_csv, normalization_stats
            from trisect.network import LayeredNetwork, model_to_json, predict_rows

            work = sys.argv[1]
            blocks, skips, whole_calls, parses = [], [], [], []
            stream_batch, stream_whole, join = cli.predict_batch, cli.predict_rows, cli._joined
            cli.predict_batch = lambda net, X: blocks.append(len(X)) or stream_batch(net, X)
            cli._joined = lambda parts: skips.extend(s for s, _ in parts) or join(parts)
            cli.predict_rows = lambda *a: whole_calls.append(1) or stream_whole(*a)
            parse = data._parse_table
            data._parse_table = lambda *a: parses.append(1) or parse(*a)

            def bundle(out):
                return [open(os.path.join(out, name), "rb").read()
                        for name in ("metrics.json", "roc.csv")]

            def evaluate(path, run, ds):  # against predict_rows on ds, the table loaded whole
                del blocks[:], skips[:], whole_calls[:], parses[:]
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    code = cli.main(["eval", run, "--data", path, "--label-col", "y",
                                     "--positive", "1", "--out", work + "/ev"])
                if code:
                    return {"code": code, "err": err.getvalue(), "whole": len(whole_calls)}
                net, mode, stats, _, _ = cli._read_run_json(
                    run, "model.json", ("W1",), cli.model_from_json)
                labels, scores = predict_rows(net, apply_normalization(mode, stats, ds.features),
                                              np.arange(ds.n_rows))
                cli._write_report(work + "/ref", ds.labels, labels, scores)
                return {"same": bundle(work + "/ev") == bundle(work + "/ref"),
                        "rows": ds.n_rows, "whole": len(whole_calls), "calls": len(blocks),
                        "blocks": [list(b) for b in zip(skips, blocks[-len(skips):])]}

            rng = np.random.default_rng(28)
            runs, results = {}, []
            for m in (1, 8, 32):
                for t in (1, 3):
                    runs[m, t] = run = f"{work}/m{m}t{t}"
                    os.makedirs(run)
                    net = LayeredNetwork(rng.standard_normal((t, m)), rng.standard_normal(t),
                                         rng.standard_normal((2, t)), rng.standard_normal(2),
                                         "selu")
                    # min-max stats from 50 rows: a little inside the range of the cells
                    fit = rng.random((50, m)) * 1000.0
                    doc = model_to_json(net, "min-max", normalization_stats("min-max", fit),
                                        None, {})
                    cli._write_json(os.path.join(run, "model.json"), doc)
            for n in (2, 4095, 4096, 4097, 8191, 8192, 8193, 12289):
                for m in (1, 8, 32):
                    cells = rng.integers(0, 1000, (n, m)).astype(str)
                    y = np.where(rng.random(n) < 0.5, "1", "0")
                    y[:2] = "1", "0"
                    cells = np.insert(cells, m // 2, y, axis=1)
                    header = [f"f{j}" for j in range(m)]
                    header.insert(m // 2, "y")
                    path = f"{work}/n{n}m{m}.csv"
                    with open(path, "w") as fh:
                        fh.writelines(",".join(row) + "\\n" for row in [header, *cells.tolist()])
                    ds = load_csv(path, "y", "1")
                    for t in (1, 3):
                        results.append([n, m, t, evaluate(path, runs[m, t], ds)])

            with open(path := f"{work}/n12289m8.csv") as fh:
                lines = fh.read().splitlines()

            def with_first_cell(text):  # column f0 of data row 10000, in the third block
                lines[10000] = text + lines[10000][lines[10000].index(","):]
                with open(path, "w") as fh:
                    fh.write("\\n".join(lines) + "\\n")
                return path

            damaged = evaluate(with_first_cell("abc"), runs[8, 3], None)
            damaged_parses = len(parses)
            dropped = evaluate(with_first_cell(""), runs[8, 3], load_csv(path, "y", "1"))
            print(json.dumps({"results": results, "damaged": damaged, "dropped": dropped,
                              "parses": [damaged_parses, len(parses)]}))
            """)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", probe, str(tmp_path)], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        got = json.loads(done.stdout)
        assert len(got["results"]) == 48
        for n, m, t, result in got["results"]:
            # eval's own forward passes, one per block of predict_rows, as
            # (skip, rows) pairs
            blocks = result.pop("blocks")
            assert result == {"same": True, "rows": n, "whole": 0, "calls": len(blocks)}, (n, m, t)
            assert_block_rule(n, block_spans(blocks), BLOCK_ROWS, ALIGN_ROWS)
        assert got["damaged"] == {
            "code": 2, "whole": 0,
            "err": f"error: {tmp_path}/n12289m8.csv: non-numeric value 'abc' in column 'f0', "
                   "row 10000\n"}
        # the first block was predicted before the third read failed; the row
        # scan's 12288 rows are then predicted in predict_rows' blocks
        assert got["dropped"] == {"same": True, "rows": 12288, "whole": 0, "calls": 4,
                                  "blocks": [[0, 4096], [0, 4096], [0, 4096]]}
        # three reads and no parse of the whole file before each row scan
        assert got["parses"] == [3, 3]


def _eval_peak(tmp_path, rows):
    """The tracemalloc peak of ``eval`` on ``rows`` x 16 rows, of a model
    trained on the first 300, and the bytes of their feature matrix."""
    rng = np.random.default_rng(19)
    X = rng.random((rows, 16))
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
    return peak, X.nbytes


def _with_normalization(text, key, edit):
    """A model.json text whose normalization ``key`` is ``edit`` of its value."""
    doc = json.loads(text)
    doc["normalization"][key] = edit(doc["normalization"][key])
    return json.dumps(doc)


def _with_stats(text, edit):
    """A model.json text whose normalization stats are ``edit(stats)``."""
    return _with_normalization(text, "stats", edit)


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
        curve = types.SimpleNamespace(thresholds=np.array(thresholds), fpr=np.array(fpr),
                                      tpr=np.array(tpr))
        lines += [f"{t!r},{f!r},{r!r}" for t, f, r in zip(thresholds, fpr, tpr)]
    path = tmp_path / "roc.csv"
    _write_roc_csv(str(path), curve)
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


def _run_fresh(probe: str) -> str:
    """The stdout of ``probe`` run in a fresh interpreter that imports trisect from src."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("command", [["train"], ["baseline", "--kind", "m2"],
                                     ["crossval", "--folds", "3", "--jobs", "1"],
                                     ["crossval", "--folds", "3", "--jobs", "2"], ["eval"]],
                         ids=["train", "baseline", "crossval-jobs1", "crossval-jobs2", "eval"])
def test_commands_do_not_import_numpy_ma(tmp_path, command):
    # np.unique imports numpy.ma (np.ma.is_masked): 11k lines that no command needs
    data = _write_synth_csv(tmp_path / "synth.csv", rows=60)
    flags = ["--data", data, "--label-col", "label", "--positive", "yes"]
    if command == ["eval"]:
        run_dir = str(tmp_path / "run")
        assert main(["train", *flags, "--config", _fast_config(tmp_path), "--out", run_dir]) == 0
        argv = ["eval", run_dir, *flags]
    else:
        argv = [*command, *flags, "--config", _fast_config(tmp_path)]
    argv += ["--out", str(tmp_path / "o")]
    probe = textwrap.dedent(f"""
        import sys
        from trisect.cli import main
        print(main({argv!r}), "numpy.ma" in sys.modules)
        """)
    assert _run_fresh(probe) == "0 False\n"


# column factors: powers of two, so every scaled cell is exact and neither overflows nor
# underflows into the subnormals
SCALING = np.array([4.0, 0.5, 1.0, 1.0, 2.0**-10, 8.0])


def _write_scaled_csv(path, ds, factors):
    """``ds`` as a CSV whose feature columns are multiplied by ``factors``,
    each cell written as the repr of its float, so it reads back exactly."""
    with open(path, "w") as fh:
        fh.write(",".join(ds.feature_names) + ",label\n")
        for x, y in zip((ds.features * factors).tolist(), ds.labels.tolist()):
            fh.write(",".join(map(repr, x)) + (",yes\n" if y == 1 else ",no\n"))
    return str(path)


def _scaled_bundles(tmp_path, factors, seed, config):
    """The train bundle, the eval report and the crossval (--jobs 1) summary
    of builder tables whose columns are multiplied by ``factors``, as
    {file name: bytes}, with model.json as its parsed document."""
    folder = tmp_path / ("plain" if (factors == 1).all() else "scaled")
    folder.mkdir(parents=True)
    data = _write_scaled_csv(folder / "train.csv", synthetic_dataset(seed, 1000, 6), factors)
    # 4200 rows: a 4096-row block and a final block of the last 4136, which overlap
    held_out = _write_scaled_csv(folder / "eval.csv", synthetic_dataset(seed + 100, 4200, 6),
                                 factors)
    common = ["--label-col", "label", "--positive", "yes", "--config", config]
    assert main(["train", "--data", data, "--out", str(folder / "run"), *common]) == 0
    assert main(["eval", str(folder / "run"), "--data", held_out, "--out", str(folder / "ev"),
                 *common[:4]]) == 0
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["crossval", "--data", data, "--out", str(folder / "cv"), "--folds", "3",
                     "--jobs", "1", *common]) == 0
    files = {str(path.relative_to(folder)): path.read_bytes()
             for path in sorted(folder.glob("*/*"))}
    files["run/model.json"] = json.loads(files["run/model.json"])
    return files


@pytest.mark.parametrize("extra", ["", "l2 = 0.01\nclusters = 8\n"], ids=["defaults", "l2-0.01"])
@pytest.mark.parametrize("mode", ["min-max", "z-score"])
def test_power_of_two_column_scaling_leaves_the_output_bytes(tmp_path, mode, extra):
    # a metamorphic relation: both normalizations divide a column's factor out
    # exactly, so train, eval and crossval write the same bytes, and only
    # model.json's normalization stats carry the factors
    config = tmp_path / "scaling.cfg"
    config.write_text(f"normalize = {mode}\nmax_epochs = 8\npatience = 8\n{extra}")
    levels = []
    for seed in (1, 2, 3):
        plain = _scaled_bundles(tmp_path / str(seed), np.ones(len(SCALING)), seed, str(config))
        scaled = _scaled_bundles(tmp_path / str(seed), SCALING, seed, str(config))
        assert sorted(plain) == sorted(scaled)
        stats = [np.array(doc["normalization"].pop("stats"), dtype=np.float64)
                 for doc in (plain["run/model.json"], scaled["run/model.json"])]
        assert stats[1].tobytes() == (stats[0] * SCALING[:, None]).tobytes(), seed
        for name in plain:
            assert plain[name] == scaled[name], (seed, name)
        levels.append(len(json.loads(plain["run/ledger.json"])["levels"]))
    if mode == "z-score":  # so the relation also covers the level loop's later levels
        assert max(levels) >= 2, levels


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

    def test_workers_are_capped_at_the_fold_count(self, tmp_path, monkeypatch):
        forks = _count_forks(monkeypatch)
        data = _write_synth_csv(tmp_path / "synth.csv", rows=60)
        cfg = _fast_config(tmp_path)
        blobs = []
        for name, jobs in (("serial", "1"), ("forked", "8")):
            out = tmp_path / name
            assert main(["crossval", "--data", data, "--label-col", "label",
                         "--positive", "yes", "--seed", "4", "--folds", "3",
                         "--jobs", jobs, "--out", str(out), "--config", cfg]) == 0
            blobs.append((out / "summary.json").read_bytes())
        assert len(forks) == 3
        assert blobs[0] == blobs[1]

    def test_fold_error_in_a_worker_is_the_serial_error(self, tmp_path, monkeypatch, capsys):
        import trisect.cli as cli

        fold_record = cli._crossval_fold

        def failing(inputs, fold):  # the first failing fold's error is the one reported
            if fold == 2:
                raise SamplingError("fold 2 ran out of draws")
            if fold == 3:
                raise DataError("fold 3 is not reached serially")
            return fold_record(inputs, fold)

        monkeypatch.setattr(cli, "_crossval_fold", failing)
        data = _write_synth_csv(tmp_path / "synth.csv", rows=60)
        argv = ["crossval", "--data", data, "--label-col", "label", "--positive", "yes",
                "--folds", "4", "--config", _fast_config(tmp_path)]
        for jobs in ("1", "2", "3"):
            out = tmp_path / f"jobs{jobs}"
            assert main(argv + ["--jobs", jobs, "--out", str(out)]) == 3
            assert capsys.readouterr().err == "error: fold 2 ran out of draws\n"
            assert not out.exists()

    def test_killed_worker_is_exit_3_and_every_worker_is_reaped(self, tmp_path, monkeypatch,
                                                                 capsys):
        import signal
        import time

        import trisect.cli as cli

        forks = _count_forks(monkeypatch)

        def dying(inputs, fold):  # the first worker forked dies; the other outlives the test
            if len(forks) == 1:
                os.kill(os.getpid(), signal.SIGKILL)
            time.sleep(60)

        monkeypatch.setattr(cli, "_crossval_fold", dying)
        data = _write_synth_csv(tmp_path / "synth.csv", rows=60)
        start = time.monotonic()
        assert main(["crossval", "--data", data, "--label-col", "label", "--positive", "yes",
                     "--folds", "3", "--jobs", "2", "--config", _fast_config(tmp_path),
                     "--out", str(tmp_path / "o")]) == 3
        # the first worker's death is seen at once: no other worker holds its pipe open
        assert time.monotonic() - start < 20
        assert capsys.readouterr().err == (f"error: crossval worker 1 of 2 (pid {forks[0]}) was "
                                           f"killed by signal 9 before it sent its results\n")
        for pid in forks:  # each worker was reaped: none is a child of this process any more
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)
        assert not (tmp_path / "o").exists()

    def test_forked_crossval_imports_no_process_pool(self, tmp_path):
        data = _write_synth_csv(tmp_path / "synth.csv", rows=60)
        probe = textwrap.dedent(f"""
            import sys
            from trisect.cli import main
            code = main(["crossval", "--data", {data!r}, "--label-col", "label",
                         "--positive", "yes", "--folds", "3", "--jobs", "2",
                         "--config", {_fast_config(tmp_path)!r}, "--out", {str(tmp_path / "o")!r}])
            print(code, sorted(m for m in ("concurrent.futures", "multiprocessing")
                               if m in sys.modules))
            """)
        assert _run_fresh(probe) == "0 []\n"

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

    @pytest.mark.parametrize("rows, dropped", [(9, 0), (12, 3)])
    def test_fewer_usable_rows_than_folds_is_exit_2(self, tmp_path, capsys, rows, dropped):
        data = _write_synth_csv(tmp_path / "small.csv", rows=rows)
        for row in range(1, dropped + 1):
            _with_cell(data, row, 0, "")
        code = main(["crossval", "--data", data, "--label-col", "label", "--positive", "yes",
                     "--out", str(tmp_path / "o"), "--config", _fast_config(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {data} has too few usable rows for folds = 10: k must be in [2, 9], got 10"]
        assert not os.path.exists(tmp_path / "o")


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


_TOY_HEADER = "a1,a2,a3,a4,D\n"
# (id, CSV text, its error after "<path>: ") for label D and positive label 1
CSV_ERRORS = [
    ("empty", "", "empty CSV file"),
    ("oversized-header-cell", "a" * 200_000 + ",a2,a3,a4,D\n1,2,3,4,1\n2,3,4,5,0\n",
     "header cannot be read: field larger than field limit (131072)"),
    ("header-only", _TOY_HEADER, "need at least 2 usable data rows, got 0"),
    ("one-row", _TOY_HEADER + "1,2,3,4,1\n", "need at least 2 usable data rows, got 1"),
    ("constant-label", _TOY_HEADER + "1,2,3,4,1\n5,6,7,8,1\n",
     "label column is constant ('1')"),
    ("three-labels", _TOY_HEADER + "1,2,3,4,0\n5,6,7,8,1\n9,1,2,3,2\n",
     "label column must have exactly 2 values, got 3"),
    ("positive-absent", _TOY_HEADER + "1,2,3,4,0\n5,6,7,8,2\n",
     "positive label '1' not present (values: ['0', '2'])"),
    ("ragged-row", _TOY_HEADER + "1,2,3,4,0\n5,6,7,1\n", "row 2 has 4 cells, expected 5"),
]


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("text, message", [c[1:] for c in CSV_ERRORS],
                         ids=[c[0] for c in CSV_ERRORS])
def test_csv_input_error_names_the_file(trained_toy_run, tmp_path, capsys, command, text,
                                        message):
    # eval reads a file of the model's width in blocks, and checks its labels after the last
    run_dir = trained_toy_run[0]
    data = tmp_path / "bad.csv"
    data.write_text(text)
    argv = [command, *([run_dir] if command == "eval" else []), "--data", str(data),
            "--label-col", "D", "--positive", "1", "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {data}: {message}\n"
    assert not (tmp_path / "o").exists()


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


def test_entry_points_freeze_the_heap_once_main_returns(monkeypatch):
    import gc

    import trisect.cli as cli

    frozen_during_main = []
    monkeypatch.setattr(cli, "main", lambda: frozen_during_main.append(gc.get_freeze_count()) or 7)
    try:
        assert cli.console_main() == 7
        assert frozen_during_main == [0]
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()
    # the installed script runs the same function as `python -m trisect.cli`
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    assert 'trisect = "trisect.cli:console_main"' in pyproject.read_text().splitlines()
    assert Path(cli.__file__).read_text().endswith(
        'if __name__ == "__main__":\n    sys.exit(console_main())\n')


README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _readme_table(header):
    """The backticked words of each cell of each row of the README table under ``header``."""
    with open(README, encoding="utf-8") as fh:
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


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    with open(README, encoding="utf-8") as fh:
        block = re.search(r"^## Library use\n+```python\n(.*?)^```", fh.read(), re.M | re.S)[1]
    rng = np.random.default_rng(60)
    X = rng.random((60, 3))
    rows = [f"{a:.6f},{b:.6f},{c:.6f},{int(a + b > c)}" for a, b, c in X]
    (tmp_path / "d.csv").write_text("\n".join(["x1,x2,x3,D", *rows]) + "\n")
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 1  # the example's one print


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
