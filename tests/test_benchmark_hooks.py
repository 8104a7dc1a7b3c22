"""The benchmark's traced run keeps working against the package.

``perfbench/tracer.py`` wraps trisect functions by name at the places trisect
looks them up (``trainer.kmeans_cluster``, ``cli.schedule_to_json``, ...) and
reads some of their positional arguments. A rename or a moved argument stops
the traced command with an error, or changes what it writes; these tests run
it on tiny commands and compare its outputs with an untraced run's.
"""

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


@pytest.mark.parametrize("command, extra, outputs", [
    ("train", [], ("costs.csv", "ingestion.json", "ledger.json", "metrics.json",
                   "model.json", "roc.csv")),
    ("crossval", ["--folds", "3", "--jobs", "1"], ("summary.csv", "summary.json")),
])
def test_traced_command_writes_the_untraced_bytes(tmp_path, command, extra, outputs):
    ds = synthetic_dataset(5, 60, 3)
    data = tmp_path / "synth.csv"
    data.write_text("f0,f1,f2,y\n" + "".join(
        ",".join(map(repr, row)) + f",{label}\n"
        for row, label in zip(ds.features.tolist(), ds.labels.tolist())))
    cfg = tmp_path / "fast.cfg"
    cfg.write_text("max_epochs = 5\nbatch_size = 32\nt = 4\nl2 = 0.01\n")
    args = [command, "--data", str(data), "--label-col", "y", "--positive", "1",
            "--seed", "2", "--config", str(cfg), *extra]
    spans = tmp_path / "spans.json"

    plain = _trisect(["-m", "trisect.cli", *args, "--out", str(tmp_path / "plain")], tmp_path)
    traced = _trisect([str(ROOT / "perfbench" / "tracer.py"), str(spans), *args,
                       "--out", str(tmp_path / "traced")], tmp_path)

    assert plain.returncode == 0, plain.stderr
    assert traced.returncode == 0, traced.stderr
    for name in outputs:
        assert (tmp_path / "traced" / name).read_bytes() == \
            (tmp_path / "plain" / name).read_bytes(), name
    assert "trainer.run" in {s["name"] for s in json.loads(spans.read_text())}
