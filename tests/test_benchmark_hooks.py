"""The benchmark's traced run keeps working against the package.

``perfbench/tracer.py`` wraps trisect functions by name at the places trisect
looks them up (``trainer.kmeans_cluster``, ``cli.schedule_to_json``, ...) and
reads some of their positional arguments. A rename or a moved argument stops
the traced command with an error, or changes what it writes; these tests run
it on tiny commands and compare its outputs with an untraced run's.
"""

import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import synthetic_dataset

ROOT = Path(__file__).resolve().parents[1]


def _trisect(argv, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


# the ids of the first three cases are those pytest gives them without the blank argument
@pytest.mark.parametrize("command, extra, outputs, blank", [
    pytest.param("train", [], ("costs.csv", "ingestion.json", "ledger.json", "metrics.json",
                               "model.json", "roc.csv"), None, id="train-extra0-outputs0"),
    pytest.param("crossval", ["--folds", "3", "--jobs", "1"], ("summary.csv", "summary.json"),
                 None, id="crossval-extra1-outputs1"),
    # eval-bulk's command, on the model a plain train run first writes to (cwd)/model
    pytest.param("eval", ["model"], ("metrics.json", "roc.csv"), None, id="eval-extra2-outputs2"),
    # with an empty cell in row 7, which sends the file from numpy's reader to the row scan
    pytest.param("eval", ["model"], ("metrics.json", "roc.csv"), 7, id="eval-row-scan"),
])
def test_traced_command_writes_the_untraced_bytes(tmp_path, command, extra, outputs, blank):
    ds = synthetic_dataset(5, 60, 3)
    rows = [",".join(map(repr, row)) + f",{label}\n"
            for row, label in zip(ds.features.tolist(), ds.labels.tolist())]
    if blank is not None:
        rows[blank - 1] = "," + rows[blank - 1].split(",", 1)[1]
    data = tmp_path / "synth.csv"
    data.write_text("f0,f1,f2,y\n" + "".join(rows))
    cfg = tmp_path / "fast.cfg"
    cfg.write_text("max_epochs = 5\nbatch_size = 32\nt = 4\nl2 = 0.01\n")
    shared = ["--data", str(data), "--label-col", "y", "--positive", "1", "--config", str(cfg)]
    seed = ["--seed", "2"]
    if command == "eval":  # eval takes no --seed
        model = _trisect(["-m", "trisect.cli", "train", *shared, *seed,
                          "--out", str(tmp_path / "model")], tmp_path)
        assert model.returncode == 0, model.stderr
        seed = []
    args = [command, *extra, *shared, *seed]
    spans = tmp_path / "spans.json"

    plain = _trisect(["-m", "trisect.cli", *args, "--out", str(tmp_path / "plain")], tmp_path)
    traced = _trisect([str(ROOT / "perfbench" / "tracer.py"), str(spans), *args,
                       "--out", str(tmp_path / "traced")], tmp_path)

    assert plain.returncode == 0, plain.stderr
    assert traced.returncode == 0, traced.stderr
    for name in outputs:
        assert (tmp_path / "traced" / name).read_bytes() == \
            (tmp_path / "plain" / name).read_bytes(), name
    traced_spans = json.loads(spans.read_text())
    names = {s["name"] for s in traced_spans}
    assert "cli.write" in names
    assert ("network.predict" if command == "eval" else "trainer.run") in names
    if command == "eval":
        # network.predict_rows and data.normalize_s come from these spans, which
        # exist only while eval calls both through cli's own names
        predicts = [s for s in traced_spans if s["name"] == "network.predict"]
        assert sum(s["rows"] for s in predicts) == ds.n_rows - (blank is not None)
        assert "data.normalize" in names
    if command == "train":
        # settle-fine's per-layer k-means metrics come from this span, which
        # exists only while the trainer calls k-means as trainer.kmeans_cluster
        kmeans = [s for s in traced_spans if s["name"] == "discretize.kmeans"]
        levels = json.loads((tmp_path / "traced" / "ledger.json").read_text())["levels"]
        assert len(kmeans) == 1 and kmeans[0]["points"] == levels[0]["m"] == 6
        assert kmeans[0]["iters"] == 1
        # network.epochs needs train_node's history at position 8, and the
        # batch metrics one adam_step per cost_and_grads, both looked up by name
        nodes = [s for s in traced_spans if s["name"] == "network.train_node"]
        assert len(nodes) == len(levels)
        assert all(1 <= s["epochs"] <= 5 for s in nodes)
        steps = [s for s in traced_spans if s["name"] == "network.adam_step"]
        assert steps and len(steps) == sum(s["name"] == "network.cost_and_grads"
                                           for s in traced_spans)
        # the threeway.* metrics exist only while the level rule calls the
        # partition, risk and cost accrual through trainer's own names: one
        # partition and two risk spans (decision risk, cost accrual) a level
        processed = [r for r in levels if r["m"] > 0]
        partitions = [s for s in traced_spans if s["name"] == "threeway.partition"]
        risks = [s for s in traced_spans if s["name"] == "threeway.risk"]
        assert len(partitions) == len(processed)
        assert all(s["classes"] >= 1 for s in partitions)
        assert len(risks) == 2 * len(processed)


def test_every_traced_name_resolves():
    """Each name ``perfbench/tracer.py`` wraps is a callable of its owner,
    checked without running a command."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)

    class Recorder:
        def __init__(self):
            self.pairs = []

        def wrap(self, owner, attr, name, probe=None):
            self.pairs.append((owner, attr))

    recorder = Recorder()
    tracer.install(recorder)
    assert recorder.pairs
    missing = [f"{owner.__name__ if inspect.ismodule(owner) else owner.__qualname__}.{attr}"
               for owner, attr in recorder.pairs if not callable(getattr(owner, attr, None))]
    assert not missing, f"traced names that do not resolve: {missing}"
