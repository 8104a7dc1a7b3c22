"""trisect benchmark: four CLI workloads, end-to-end metrics, per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from a checkout of the repository. The inputs come from the data
builders in ``tests/conftest.py``, seeded by ``--seed``; the trisect CLI
(``src/``) sees only the generated CSV and a config file. Generated files
live in a temporary directory under ``.perfbench-work/`` and are removed at
exit.

``--trace 0`` sets the workload up at least three times and for at least 3 s
(``setup_s`` is the median), then runs the timed command repeatedly for
``--seconds`` and reports its median wall time in units of a reference
kernel timed next to each run (``wall_ref``), the matching throughput and
its peak memory. ``--trace 1`` runs the same command untraced for
``--seconds``, then once under ``perfbench/tracer.py``, and reports the
per-layer metrics of the traced run and its overhead over the untraced
median.

Every run of the command is checked: exit code 0, every output file parses,
the ledger's final regions partition the training split, ``costs.csv``
agrees with ``ledger.json``, and the sha256 of the output bundle is the same
for every run of the session. A failed check counts in ``failed``. Metric
names and units come from ``BENCHMARK.json``. The last line of standard
output is the JSON result.
"""

from __future__ import annotations

import os

# one BLAS thread per process, so that `--jobs 2` runs two threads on two
# cores; set before numpy is imported here or in any child
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import csv
import hashlib
import importlib.util
import io
import json
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILDERS = ROOT / "tests" / "conftest.py"
# set-up is repeated at least SETUP_REPS times and for at least SETUP_MIN_S
SETUP_REPS = 3
SETUP_MIN_S = 3.0
MIN_REPS = 3
# children still running this long after the start are killed, so that a
# run ends within its 180 s limit
DEADLINE_S = 165.0
FOLDS = 10
CV_JOBS = 2
# early stopping makes the number of epochs, and so the work, depend on the
# seed's data; a fixed epoch count keeps the work of a run the same
FIXED_EPOCHS = ("max_epochs = 8", "patience = 8")


class CheckError(Exception):
    """An output of the command is missing, malformed or inconsistent."""


@dataclass(frozen=True)
class Workload:
    command: str  # trisect subcommand: train, crossval or eval
    builder: str  # synthetic_dataset or health_survey_rows
    rows: int  # rows of the CSV the timed command reads
    settings: tuple[str, ...]  # config-file lines
    features: int = 32
    train_rows: int = 0  # eval: rows of the same table the model is trained on


WORKLOADS = {
    "train-wide": Workload("train", "synthetic_dataset", 30000,
                           ("l2 = 0.01",) + FIXED_EPOCHS),
    "crossval-survey": Workload("crossval", "health_survey_rows", 10000,
                                ("l2 = 0.01",) + FIXED_EPOCHS),
    "eval-bulk": Workload("eval", "synthetic_dataset", 30000,
                          ("l2 = 0.01",) + FIXED_EPOCHS, train_rows=10000),
    # about half the rows are misclassified, so k-means clusters ~20k points;
    # Lloyd's loop then runs 80 to 100 (the cap) iterations, depending on the
    # seed, so this workload's work varies most across seeds
    "settle-fine": Workload("train", "synthetic_dataset", 50000,
                            ("clusters = 32",) + FIXED_EPOCHS, features=8),
}

OUTPUTS = {
    "train": ("costs.csv", "ingestion.json", "ledger.json", "metrics.json", "model.json",
              "roc.csv"),
    "eval": ("metrics.json", "roc.csv"),
    "crossval": ("summary.csv", "summary.json"),
}


class Session:
    """Runs the children of one benchmark run and counts checked runs.

    Commands go through ``spawner.py``, a small process started here, so
    that this process's memory does not show in their peak RSS.
    """

    def __init__(self, work: Path):
        self.work = work
        self.start = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        self.reference = Reference(os.sched_getaffinity(0))
        self.spawner = subprocess.Popen([sys.executable, str(HERE / "spawner.py")],
                                        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def close(self) -> None:
        self.spawner.stdin.close()
        self.spawner.wait()

    def expired(self) -> bool:
        return time.perf_counter() - self.start > DEADLINE_S

    def execute(self, argv: list[str]) -> tuple[float, int, float]:
        """Run one child; returns (wall seconds, exit code, peak RSS in MB).

        The peak RSS is ``wait4``'s maximum resident set of the child or of
        any descendant it waited for: the largest process of the command's
        tree, pool workers included.
        """
        remaining = DEADLINE_S - (time.perf_counter() - self.start)
        if remaining <= 0:
            return 0.0, -signal.SIGKILL, 0.0
        request = {"argv": argv, "env": self.env, "cwd": str(ROOT),
                   "stderr": str(self.work / "stderr.txt"), "timeout": remaining}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = json.loads(self.spawner.stdout.readline())
        return reply["wall"], reply["code"], reply["maxrss_kb"] / 1024.0

    def checked(self, argv, out: Path, check, digests: set) -> tuple[float, float, str | None, dict]:
        """Run a command into a fresh ``out`` and check what it wrote.

        The output digest must match every digest already in ``digests``.
        Returns (wall, peak RSS, digest or None if a check failed, facts).
        """
        shutil.rmtree(out, ignore_errors=True)
        self.attempted += 1
        wall, code, rss = self.execute(argv)
        try:
            if code != 0:
                detail = (self.work / "stderr.txt").read_text(errors="replace").strip()
                raise CheckError(f"exit code {code}: {detail[-400:]}")
            digest, facts = check(out)
            if digests and digest not in digests:
                raise CheckError(f"output digest {digest} differs from {sorted(digests)}")
        except (CheckError, OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            self.failed += 1
            print(f"check failed: {' '.join(argv[-12:])}: {exc}", file=sys.stderr)
            return wall, rss, None, {}
        digests.add(digest)
        return wall, rss, digest, facts


def load_builders():
    sys.path.insert(0, str(SRC))
    spec = importlib.util.spec_from_file_location("perfbench_builders", BUILDERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_rows(path: Path, ds, lo: int, hi: int) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(ds.feature_names) + ",y\n")
        for row, label in zip(ds.features[lo:hi].tolist(), ds.labels[lo:hi].tolist()):
            fh.write(",".join(map(repr, row)) + f",{label}\n")


def bundle_digest(out: Path, names) -> str:
    h = hashlib.sha256()
    for name in names:
        h.update(name.encode() + b"\0" + (out / name).read_bytes() + b"\0")
    return h.hexdigest()


def read_csv(path: Path, header: str) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or ",".join(rows[0]) != header:
        raise CheckError(f"{path.name}: header is not {header!r}")
    return rows[1:]


def check_metrics(out: Path, n_rows: int) -> float:
    """metrics.json and roc.csv parse and agree; returns the AUC."""
    report = json.loads((out / "metrics.json").read_text())
    support = sum(c["support"] for c in report["per_class"].values())
    if support != n_rows:
        raise CheckError(f"metrics.json covers {support} rows, expected {n_rows}")
    auc = report["auc"]
    if not 0.0 <= auc <= 1.0:
        raise CheckError(f"AUC {auc} outside [0, 1]")
    roc = [tuple(map(float, r)) for r in read_csv(out / "roc.csv", "threshold,fpr,tpr")]
    if roc[0][1:] != (0.0, 0.0) or roc[-1][1:] != (1.0, 1.0):
        raise CheckError("roc.csv does not run from (0, 0) to (1, 1)")
    area = sum((b[1] - a[1]) * (b[2] + a[2]) / 2.0 for a, b in zip(roc, roc[1:]))
    if abs(area - auc) > 1e-9:
        raise CheckError(f"roc.csv area {area} != metrics.json AUC {auc}")
    return auc


def check_train(out: Path, split) -> tuple[str, dict]:
    json.loads((out / "model.json").read_text())
    ingestion = json.loads((out / "ingestion.json").read_text())
    if ingestion["rows_dropped"] != 0:
        raise CheckError(f"{ingestion['rows_dropped']} rows dropped on ingestion")
    ledger = json.loads((out / "ledger.json").read_text())
    final = ledger["final"]
    pos, neg = set(final["pos"]), set(final["neg"])
    if final["bnd"]:
        raise CheckError(f"{len(final['bnd'])} instances left in the boundary region")
    if pos & neg or pos | neg != set(split.train) or len(pos) + len(neg) != len(split.train):
        raise CheckError("final pos/neg regions do not partition the training split")
    expected = [[str(r["level"]), str(r["m"]), r["cost_test"], r["cost_delay"], r["risk"]]
                for r in ledger["levels"] if r["m"] > 0]
    rows = read_csv(out / "costs.csv", "level,m,cost_test,cost_delay,risk")
    if [r[:2] + [float(v) for v in r[2:]] for r in rows] != expected:
        raise CheckError("costs.csv disagrees with ledger.json")
    facts = {"auc": check_metrics(out, len(split.test)), "levels": len(ledger["levels"]),
             "cost_test": ledger["levels"][-1]["cost_test"]}
    return bundle_digest(out, OUTPUTS["train"]), facts


def check_eval(out: Path, n_rows: int) -> tuple[str, dict]:
    auc = check_metrics(out, n_rows)
    return bundle_digest(out, OUTPUTS["eval"]), {"auc": auc}


def check_crossval(out: Path) -> tuple[str, dict]:
    summary = json.loads((out / "summary.json").read_text())
    folds = summary["folds"]
    if summary["k"] != FOLDS or [f["fold"] for f in folds] != list(range(1, FOLDS + 1)):
        raise CheckError("summary.json does not hold one record per fold")
    cols = ("accuracy", "weighted_f1", "auc", "nodes", "train_accuracy")
    rows = read_csv(out / "summary.csv", "fold," + ",".join(cols))
    if [r[0] for r in rows] != [str(f) for f in range(1, FOLDS + 1)] + ["mean", "std"]:
        raise CheckError("summary.csv rows are not the folds plus mean and std")
    for rec, row in zip(folds, rows):
        if [float(v) for v in row[1:]] != [float(rec[c]) for c in cols]:
            raise CheckError(f"summary.csv fold {rec['fold']} disagrees with summary.json")
    aucs = [f["auc"] for f in folds]
    if not all(0.0 <= a <= 1.0 for a in aucs):
        raise CheckError("fold AUC outside [0, 1]")
    return bundle_digest(out, OUTPUTS["crossval"]), {
        "auc": statistics.fmean(aucs), "nodes": [f["nodes"] for f in folds]}


class Prepared:
    """One workload's generated inputs, and how to run and check its command."""

    def __init__(self, wl: Workload, seed: int, builders, work: Path):
        from trisect.data import Dataset, split_811
        from trisect.numerics import derive_stream

        self.wl, self.seed, self.builders, self.work = wl, seed, builders, work
        self.cfg = work / "bench.cfg"
        self.data = work / "data.csv"
        self.model = work / "model"
        self.out = work / "out"
        self.digests: set[str] = set()
        self.model_digests: set[str] = set()
        survey = wl.builder == "health_survey_rows"
        self.label_col, self.positive = ("risk", "high") if survey else ("y", "1")
        # trisect's master seed stays at its default 0, so the training split
        # depends only on the row count of the table trained on
        n = wl.train_rows or wl.rows
        table = Dataset(np.zeros((n, 1)), np.ones(n, dtype=np.int64), ("x",))
        self.split = split_811(table, derive_stream(0, "split"))

    def setup(self, session: Session) -> None:
        """Generate and write the inputs; for eval, also train the model."""
        wl = self.wl
        self.cfg.write_text("\n".join(wl.settings) + "\n")
        if wl.builder == "health_survey_rows":
            self.builders.write_health_survey_csv(self.data, self.seed, wl.rows)
            return
        # one table: for eval its first train_rows rows train the model, since
        # another seed would draw an unrelated ground truth
        ds = self.builders.synthetic_dataset(self.seed, wl.train_rows + wl.rows, wl.features)
        write_rows(self.data, ds, wl.train_rows, wl.train_rows + wl.rows)
        if wl.command == "eval":
            train_csv = self.work / "train.csv"
            write_rows(train_csv, ds, 0, wl.train_rows)
            argv = self.argv("train", train_csv, self.model)
            _, _, digest, _ = session.checked(argv, self.model,
                                              lambda out: check_train(out, self.split),
                                              self.model_digests)
            if digest is None:
                raise CheckError("training the model to evaluate failed")

    def argv(self, command: str, data: Path, out: Path, jobs: int = CV_JOBS, spans=None):
        if spans is None:
            argv = [sys.executable, "-m", "trisect.cli", command]
        else:
            argv = [sys.executable, str(HERE / "tracer.py"), str(spans), command]
        if command == "eval":
            argv.append(str(self.model))
        argv += ["--data", str(data), "--label-col", self.label_col, "--positive", self.positive,
                 "--config", str(self.cfg), "--out", str(out)]
        if command == "crossval":
            argv += ["--folds", str(FOLDS), "--jobs", str(jobs)]
        return argv

    def check(self, out: Path):
        if self.wl.command == "train":
            return check_train(out, self.split)
        if self.wl.command == "eval":
            return check_eval(out, self.wl.rows)
        return check_crossval(out)

    def run_checked(self, session: Session, jobs: int = CV_JOBS, spans=None):
        argv = self.argv(self.wl.command, self.data, self.out, jobs, spans)
        return session.checked(argv, self.out, self.check, self.digests)

    def repeat(self, session: Session, seconds: float, jobs: int = CV_JOBS):
        """Run the timed command for ``seconds``, and at least MIN_REPS times.

        Returns, for the runs that passed their checks, the wall times, the
        wall times in units of the reference kernel timed right before and
        after each run, the peak RSS values, and the facts read from the last
        run's outputs.
        """
        walls, ratios, peaks, facts = [], [], [], {}
        ref_before = session.reference()
        t0 = time.perf_counter()
        while len(walls) < MIN_REPS or (
                time.perf_counter() - t0 + statistics.median(walls) <= seconds):
            if session.expired() or session.failed >= MIN_REPS:
                break
            wall, rss, digest, rep_facts = self.run_checked(session, jobs)
            ref_after = session.reference()
            if digest is not None:
                walls.append(wall)
                ratios.append(wall / ((ref_before + ref_after) / 2.0))
                peaks.append(rss)
                facts = rep_facts
            ref_before = ref_after
        return walls, ratios, peaks, facts


class Reference:
    """A fixed kernel whose wall time measures the host's current speed.

    Other tenants of the host make the speed of each CPU drift by 20% and
    more over tens of seconds, more than repetitions within one run average
    out. A command's wall time divided by this kernel's, timed on the CPUs
    the command runs on right before and after it, cancels much of that
    drift. The kernel mixes what trisect spends its time on: a pure-Python
    integer loop, CSV parsing into floats, and the broadcast distance
    computation of k-means over arrays larger than the caches.
    """

    def __init__(self, cpus):
        self.cpus = set(cpus)
        grid = np.linspace(0.0, 1.0, 20000 * 8).reshape(20000, 8)
        self.points, self.centers = grid, grid[::625].copy()
        self.text = "\n".join(",".join(repr(0.1234567 * (7 * i + j)) for j in range(32))
                              for i in range(2000))

    def _once(self) -> float:
        t0 = time.perf_counter()
        x = 1
        for i in range(100_000):
            x = (x * 0x9E3779B97F4A7C15 + i) & 0xFFFFFFFFFFFFFFFF
        for row in csv.reader(io.StringIO(self.text)):
            [float(cell) for cell in row]
        ((self.points[:, None, :] - self.centers[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)
        return time.perf_counter() - t0

    def __call__(self) -> float:
        """Mean kernel time over the CPUs that the command may run on."""
        if len(self.cpus) == 1:
            return self._once()
        times = []
        for cpu in sorted(self.cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(self._once())
        os.sched_setaffinity(0, self.cpus)
        return statistics.fmean(times)


def pin_to_one_cpu() -> str:
    """Keep this process and its children on one CPU, where the reference runs.

    The CPUs of the host drift apart, so a reference timed on another CPU
    than the command does not cancel the command's drift.
    """
    cpus = sorted(os.sched_getaffinity(0))
    try:
        os.sched_setaffinity(0, {cpus[-1]})
    except OSError as exc:
        return f"not pinned ({exc})"
    return f"pinned to CPU {cpus[-1]}"


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def measure(session: Session, prepared: Prepared, seconds: float) -> tuple[dict, bool]:
    """Untraced run: set-up timings, then the timed loop."""
    setup_times = []
    while len(setup_times) < SETUP_REPS or sum(setup_times) < SETUP_MIN_S:
        t0 = time.perf_counter()
        prepared.setup(session)
        setup_times.append(time.perf_counter() - t0)
    ok = True
    serial_summary = None
    if prepared.wl.command == "crossval":
        # the folds must give the same summary in one process as in the pool
        _, _, digest, _ = prepared.run_checked(session, jobs=1)
        ok = digest is not None
        if ok:
            serial_summary = (prepared.out / "summary.json").read_bytes()
    walls, ratios, peaks, facts = prepared.repeat(session, seconds)
    if serial_summary is not None and walls:
        same = serial_summary == (prepared.out / "summary.json").read_bytes()
        print(f"jobs-equivalence: summary.json is {'identical' if same else 'DIFFERENT'} "
              f"with --jobs 1 and --jobs {CV_JOBS}")
        ok = ok and same
    print("setup_s of each set-up: " + " ".join(f"{t:.4f}" for t in setup_times))
    print(f"wall_s of each of {len(walls)} timed runs: " + " ".join(f"{w:.4f}" for w in walls))
    print("wall_ref of each timed run: " + " ".join(f"{r:.4f}" for r in ratios))
    if not walls:
        return {}, False
    wall = statistics.median(walls)
    print(f"wall_s (median, seconds; not normalized): {wall:.6f} s")
    print(f"rows_per_s (rows / wall_s): {prepared.wl.rows / wall:.6f} 1/s")
    for key, value in facts.items():
        print(f"output {key}: {value}")
    wall_ref = statistics.median(ratios)
    return {
        "wall_ref": wall_ref,
        "rows_per_ref": prepared.wl.rows / wall_ref,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": statistics.median(peaks),
    }, ok


def traced(session: Session, prepared: Prepared, seconds: float) -> tuple[dict, bool]:
    """Traced run: the untraced median over ``seconds``, then one traced run."""
    from tracer import summarize

    prepared.setup(session)
    jobs = CV_JOBS
    if prepared.wl.command == "crossval":
        jobs = 1
        print("trace: crossval runs with --jobs 1 here, traced and untraced, "
              "because spans recorded in pool workers are lost")
    walls, ratios, _, facts = prepared.repeat(session, seconds, jobs)
    spans_path = prepared.work / "spans.json"
    ref_before = session.reference()
    wall, _, digest, _ = prepared.run_checked(session, jobs, spans=spans_path)
    ref = (ref_before + session.reference()) / 2.0
    if digest is None or not walls:
        return {}, False
    layer = summarize(json.loads(spans_path.read_text()), wall)
    # the untraced median, rescaled to the host speed measured around the traced run
    expected = statistics.median(ratios) * ref
    layer["metrics.auc"] = facts["auc"]
    layer["trace.wall_s"] = wall
    layer["trace.untraced_wall_s"] = statistics.median(walls)
    layer["trace.overhead_s"] = wall - expected
    parts = sum(v for k, v in layer.items() if k.endswith(".self_s")) + layer["cli.write_s"]
    print(f"self-time check: layer self times + cli.write_s + cli.self_s = {parts:.6f} s, "
          f"traced wall {wall:.6f} s")
    print(f"tracing overhead: {wall - expected:+.4f} s over {expected:.4f} s, the untraced "
          f"median of {len(walls)} runs at the host speed of the traced run")
    if layer["cli.self_s"] < 0:
        print("error: the spans cover more than the traced wall time", file=sys.stderr)
        return layer, False
    return layer, True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    missing = [str(p) for p in (SRC / "trisect" / "cli.py", BUILDERS, ROOT / "BENCHMARK.json")
               if not p.is_file()]
    if missing:
        print(f"error: not a trisect checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    wl = WORKLOADS[args.workload]
    env = environment()
    if wl.command != "crossval" or args.trace:  # the timed command runs in one process
        env["affinity"] = pin_to_one_cpu()
    print("env " + json.dumps(env, sort_keys=True))
    builders = load_builders()
    (ROOT / ".perfbench-work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".perfbench-work"))
    session = Session(work)
    try:
        prepared = Prepared(wl, args.seed, builders, work)
        values, ok = (traced if args.trace else measure)(session, prepared, args.seconds)
    except CheckError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        session.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there
    unknown = sorted(set(values) - {m["name"] for m in wanted})
    if unknown:
        print(f"error: metrics not listed in BENCHMARK.json: {unknown}", file=sys.stderr)
        return 2
    print(f"digest {args.workload} seed {args.seed}: {' '.join(sorted(prepared.digests))}")
    print(f"failed_ratio: {session.failed}/{session.attempted} = "
          f"{session.failed / session.attempted:.4f}")
    metrics = {}
    for m in wanted:
        value = values.get(m["name"], 0.0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:<30} {value:>18.6f} {m['unit']}")
    correct = ok and session.failed == 0 and len(prepared.digests) == 1
    print(json.dumps({"correct": correct, "attempted": session.attempted,
                      "failed": session.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
