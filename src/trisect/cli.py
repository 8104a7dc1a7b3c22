"""Command-line surface: train, eval, crossval, baseline, costs.

Settings come from a flat key=value config file overridden by flags; every
command is deterministic given (config, seed), and reruns produce
byte-identical JSON/CSV outputs. A command exits 0 on success; an error is
printed to stderr and exits with the code ``EXIT_CODES`` gives its type.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from dataclasses import fields

import numpy as np

from . import baselines
# load_csv and normalize are not called here, but perfbench/tracer.py wraps them by these names
from .data import (_read_csv, apply_normalization, Dataset, fold_split,  # noqa: F401
                   load_csv, make_folds, normalization_stats, normalize, require_file,
                   split_811)
from .errors import ConfigError, DataError, SamplingError
from .metrics import accuracy, metrics_report, roc_auc
from .network import (ALIGN_ROWS, BLOCK_ROWS, TrainHyper, _joined, model_to_json,
                      model_from_json, predict_batch, predict_rows)
from .numerics import derive_stream
# build_schedule is not called here, but perfbench/tracer.py wraps it by this name
from .threeway import build_schedule, schedule_to_json  # noqa: F401
from .trainer import LEVEL_LOOP_KINDS, TrainConfig, level_schedule, run


def _parse_norm(s):
    aliases = {"minmax": "min-max", "min-max": "min-max",
               "zscore": "z-score", "z-score": "z-score", "none": "none"}
    if s not in aliases:
        raise ValueError(f"unknown normalization {s!r}")
    return aliases[s]


def _parse_finite(s):
    if not math.isfinite(value := float(s)):
        raise ValueError(f"{s!r} is not a finite number")
    return value


def _parse_costs(s):
    return None if s == "auto" else tuple(_parse_finite(v) for v in s.split(","))


def _parse_delta(s):
    return None if s == "auto" else _parse_finite(s)


# config key -> value parser. A key named after a TrainHyper or TrainConfig field
# (see FIELD_KEYS for the two renamed ones) sets that field and takes its default;
# cost_lo and cost_hi make TrainConfig's cost_range; the other keys are the CLI's own.
CONFIG_KEYS = {
    "data": str, "label_col": str, "positive": str, "normalize": _parse_norm, "out": str,
    "seed": int, "t": int, "activation": str, "init_dist": str,
    "delta": _parse_delta, "theta": _parse_finite, "l2": _parse_finite, "lr": _parse_finite,
    "rho1": _parse_finite, "rho2": _parse_finite, "tau": _parse_finite,
    "batch_size": int, "max_epochs": int, "patience": int,
    "epsilon": _parse_finite, "clusters": int,
    "unit_test_costs": _parse_costs, "unit_delay_costs": _parse_costs,
    "cost_lo": _parse_finite, "cost_hi": _parse_finite,
    "folds": int, "jobs": int, "kind": str, "grid_max_nodes": int, "m1_a": _parse_finite,
}
FIELD_KEYS = {"learning_rate": "lr", "master_seed": "seed"}
# config key -> the dataclass field it sets
HYPER_FIELDS = {FIELD_KEYS.get(f.name, f.name): f for f in fields(TrainHyper)}
RUN_FIELDS = {FIELD_KEYS.get(f.name, f.name): f for f in fields(TrainConfig)
              if f.name not in ("hyper", "cost_range")}
_COST_LO, _COST_HI = next(f.default for f in fields(TrainConfig) if f.name == "cost_range")
# every key's default; None is unset, and an unset out is the command's default
# (see resolve_settings)
DEFAULTS = {**dict.fromkeys(CONFIG_KEYS),
            **{key: f.default for key, f in {**HYPER_FIELDS, **RUN_FIELDS}.items()},
            "cost_lo": _COST_LO, "cost_hi": _COST_HI,
            "normalize": "min-max", "folds": 10, "jobs": 1, "grid_max_nodes": 10, "m1_a": 4.0}
SEQUENTIAL = "stwd-sfnn"  # the paper's model, which train and each crossval fold fit
# roc.csv is written this many lines at a time, so its text is never held whole
ROC_CHUNK_LINES = 4096


def parse_config_file(path: str) -> dict:
    """Flat key=value file; blank lines and #-comments ignored, a key given twice refused."""
    require_file(path, "config file", ConfigError)
    raw, line_of = {}, {}
    # each byte that is not UTF-8 reads as one of the lone surrogates U+DC80..U+DCFF
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if any("\udc80" <= c <= "\udcff" for c in line):
                raise ConfigError(f"{path}:{lineno}: not valid UTF-8")
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, value = line.split("=", 1)
            key, value = key.strip(), value.strip()
            if key not in CONFIG_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            if key in raw:
                raise ConfigError(f"{path}:{lineno}: key {key!r} given twice "
                                  f"(lines {line_of[key]} and {lineno})")
            raw[key], line_of[key] = value, lineno
    return raw


def resolve_settings(args, default_out: str = "trisect-out") -> dict:
    """Defaults < config file < command-line flags; an unset ``out`` is ``default_out``."""
    settings = dict(DEFAULTS)
    if args.config:
        for key, value in parse_config_file(args.config).items():
            try:
                settings[key] = CONFIG_KEYS[key](value)
            except ValueError as exc:
                raise ConfigError(f"config key {key!r}: {exc}") from None
    for key in CONFIG_KEYS:  # the command's flags; args lacks the others
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value
    if settings["out"] is None:
        settings["out"] = default_out
    return settings


def _build_config(settings: dict) -> TrainConfig:
    hyper = TrainHyper(**{f.name: settings[key] for key, f in HYPER_FIELDS.items()})
    return TrainConfig(hyper=hyper, cost_range=(settings["cost_lo"], settings["cost_hi"]),
                       **{f.name: settings[key] for key, f in RUN_FIELDS.items()})


def _require(settings, *keys) -> None:
    for key in keys:
        if settings.get(key) in (None, ""):
            raise ConfigError(f"missing required setting {key!r}")


def _load_dataset(settings) -> Dataset:
    """The data, normalized in the matrix it was read into: one feature
    matrix, as ``normalize(load_csv(...), mode)`` gives it."""
    _require(settings, "data", "label_col", "positive")
    ((_, X),), labels, names, ingestion = _read_csv(settings["data"], settings["label_col"],
                                                    settings["positive"], lambda X: X, None)
    mode = settings["normalize"]
    stats = normalization_stats(mode, X)
    return Dataset(apply_normalization(mode, stats, X, out=X), labels, names, mode, stats,
                   ingestion)


def _check_output_dir(out: str) -> str:
    """``out``, once checked to be non-empty with a writable directory as its
    nearest existing ancestor. Commands call this before any training; the
    directory itself is made when the outputs are written, so a run that
    fails leaves none behind.
    """
    parent = out
    while parent and not os.path.exists(parent):
        parent = os.path.dirname(parent)
    parent = parent or os.curdir
    if not out or not os.path.isdir(parent) or not os.access(parent, os.W_OK | os.X_OK):
        raise ConfigError(f"output directory {out!r} cannot be created or written")
    return out


def _read_run_json(run_dir: str, name: str, lists, parse):
    """``parse(doc)`` of the JSON file ``name`` in ``run_dir``, whose top-level
    keys ``lists`` must hold lists. A missing file, a document that does not
    parse, and one that lacks a key or that ``parse`` rejects are a DataError
    naming the file.
    """
    path = os.path.join(run_dir, name)
    require_file(path, name, DataError)
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        for key in lists:
            if not isinstance(doc, dict) or not isinstance(doc.get(key), list):
                raise DataError(f"{path}: key {key!r} is missing or not a list")
        return parse(doc)
    except KeyError as exc:
        raise DataError(f"{path}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:  # ValueError: also bad JSON and undecodable bytes
        raise DataError(f"{path}: {exc}") from None


def _write_lines(path: str, lines) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:  # streamed: a ledger can list 10^5 indices
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _scored_report(truth, labels, scores):
    """The metrics report and the ROC curve, from one ROC computation.

    A single-class evaluation set has no curve: ``"auc"`` is null and the
    curve is None.
    """
    try:
        curve, auc = roc_auc(truth, scores)
    except ValueError:
        curve, auc = None, None
    return {**metrics_report(truth, labels), "auc": auc}, curve


def _write_roc_csv(path: str, curve) -> None:
    """``roc.csv``: a header, then one line per point of ``curve``, written
    ``ROC_CHUNK_LINES`` lines at a time; a None curve is the header alone."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("threshold,fpr,tpr\n")
        if curve is None:  # a single-class evaluation set
            return
        for start in range(0, len(curve.thresholds), ROC_CHUNK_LINES):
            chunk = slice(start, start + ROC_CHUNK_LINES)
            points = zip(*(column[chunk].tolist()
                           for column in (curve.thresholds, curve.fpr, curve.tpr)))
            fh.write("".join(f"{thr!r},{fpr!r},{tpr!r}\n" for thr, fpr, tpr in points))


def _cost_lines(levels, columns) -> list[str]:
    """The cost CSV: ``columns`` of each ledger.json level record that processed instances."""
    return [",".join(columns)] + [",".join(repr(rec[c]) for c in columns)
                                  for rec in levels if rec["m"] > 0]


def _write_costs_csv(path: str, levels) -> None:
    _write_lines(path, _cost_lines(levels, ("level", "m", "cost_test", "cost_delay", "risk")))


def _evaluate(net, ds: Dataset, indices):
    """Truth, predicted labels and positive-class scores of the rows ``indices``
    (an int64 array, as a Split holds)."""
    return (ds.labels[indices], *predict_rows(net, ds.features, indices))


def _write_report(out: str, truth, labels, scores, extra_metrics=None) -> None:
    """``metrics.json`` and ``roc.csv`` of one scored evaluation set."""
    os.makedirs(out, exist_ok=True)
    report, curve = _scored_report(truth, labels, scores)
    report.update(extra_metrics or {})
    _write_json(os.path.join(out, "metrics.json"), report)
    _write_roc_csv(os.path.join(out, "roc.csv"), curve)


def _write_bundle(settings, ds, split, net, ledger, schedule, extra_metrics=None) -> None:
    """Report a fitted run in ``settings["out"]``: the test split's metrics and
    ROC, its ingestion record, its model and, from the level loop, its ledger."""
    out = settings["out"]
    _write_report(out, *_evaluate(net, ds, split.test), extra_metrics)
    _write_json(os.path.join(out, "ingestion.json"), ds.ingestion)
    schedule_doc = None if schedule is None else schedule_to_json(schedule)
    seeds = {"master_seed": settings["seed"]}
    doc = model_to_json(net, ds.norm_mode, ds.norm_stats, schedule_doc, seeds)
    _write_json(os.path.join(out, "model.json"), doc)
    if ledger is not None:
        ledger_doc = ledger.to_dict()
        _write_json(os.path.join(out, "ledger.json"), ledger_doc)
        _write_costs_csv(os.path.join(out, "costs.csv"), ledger_doc["levels"])


def _fit(kind, ds, split, cfg, schedule, settings):
    """(network, ledger or None, extra metrics) of a ``kind`` model fitted on
    ``split``; a level-loop kind runs on ``schedule``, a baseline's metrics name it."""
    ledger, extra_metrics = None, {}
    if kind in LEVEL_LOOP_KINDS:
        net, ledger = run(ds, split, cfg, schedule, kind)
    elif kind == "grid-search":
        extra_metrics["best_nodes"], net = baselines.grid_search(
            ds, split, settings["grid_max_nodes"], cfg.hyper, cfg.activation, cfg.init_dist,
            cfg.master_seed)
    else:  # m1, m2, m3
        nodes = baselines.empirical_nodes(kind, ds.n_features, 2, settings["m1_a"])
        stream = derive_stream(cfg.master_seed, "fixed-topology")
        net = baselines.train_fixed_topology(ds, split, nodes, cfg.hyper, cfg.activation,
                                             cfg.init_dist, stream)
    if kind in baselines.BASELINE_KINDS:
        extra_metrics.update(kind=kind, nodes=net.n_nodes)
    return net, ledger, extra_metrics


def _fit_command(settings, kind) -> int:
    """Fit a ``kind`` model on the data's 8:1:1 split and write its bundle; every
    setting is checked, and the kind's schedule built, before the data is read."""
    cfg = _build_config(settings)
    baselines.check_settings(kind, settings["grid_max_nodes"], settings["m1_a"])
    schedule = level_schedule(kind, cfg) if kind in LEVEL_LOOP_KINDS else None
    ds = _load_dataset(settings)
    _check_output_dir(settings["out"])
    try:
        split = split_811(ds, derive_stream(cfg.master_seed, "split"))
    except ValueError as exc:  # too few usable rows: a fault of the data, not the settings
        raise DataError(f"{settings['data']}: {exc}") from None
    net, ledger, extra_metrics = _fit(kind, ds, split, cfg, schedule, settings)
    _write_bundle(settings, ds, split, net, ledger, schedule, extra_metrics)
    return 0


def cmd_train(args) -> int:
    return _fit_command(resolve_settings(args), SEQUENTIAL)


def _scored_rows(settings, net, norm_mode, norm_stats):
    """Truth, predicted labels and positive-class scores of the data's rows,
    under ``net`` after the normalization it was trained with.

    The rows are read, normalized and predicted a block at a time, in the
    blocks ``predict_rows`` would use, and the rows a final block shares with
    the block before it are kept once, so the feature matrix is never held
    whole. A file whose width is not the model's fails on the first block
    predicted.
    """
    def score(X):  # the normalization is replayed into the block read
        if X.shape[1] != net.n_features:
            raise DataError(f"{settings['data']} has {X.shape[1]} feature columns, "
                            f"the model expects {net.n_features}")
        return predict_batch(net, apply_normalization(norm_mode, norm_stats, X, out=X))

    _require(settings, "data", "label_col", "positive")
    parts, truth, _, _ = _read_csv(settings["data"], settings["label_col"], settings["positive"],
                                   score, BLOCK_ROWS, ALIGN_ROWS)
    return (truth, *_joined(parts))


def cmd_eval(args) -> int:
    settings = resolve_settings(args, default_out=os.path.join(args.run_dir, "eval"))
    net, norm_mode, norm_stats, _, _ = _read_run_json(
        args.run_dir, "model.json", ("W1", "b1", "W2", "b2"), model_from_json)
    truth, labels, scores = _scored_rows(settings, net, norm_mode, norm_stats)
    _check_output_dir(settings["out"])
    _write_report(settings["out"], truth, labels, scores)
    return 0


def _crossval_fold(inputs, fold):
    """One fold's record; ``inputs`` is ``(ds, plan, settings, schedule)``, which
    every fold shares."""
    ds, plan, settings, schedule = inputs
    seed = settings["seed"]
    fold_seed = derive_stream(seed, f"fold-{fold}").next_u64()
    cfg = _build_config({**settings, "seed": fold_seed})
    split = fold_split(ds, plan, fold, derive_stream(seed, f"crossval-val-{fold}"))
    net = _fit(SEQUENTIAL, ds, split, cfg, schedule, settings)[0]
    report = _scored_report(*_evaluate(net, ds, split.test))[0]
    tr_truth, tr_labels, _ = _evaluate(net, ds, split.train)
    counts = np.bincount((np.asarray(tr_truth) == 1).astype(int), minlength=2)
    return {
        "fold": fold,
        "accuracy": report["accuracy"],
        "weighted_f1": report["weighted_f1"],
        "auc": report["auc"],
        "nodes": net.n_nodes,
        "train_accuracy": accuracy(tr_truth, tr_labels),
        "majority_fraction": float(counts.max() / counts.sum()),
    }


def _mean_std(values):
    vals = [v for v in values if v is not None]
    if not vals:
        return None, None
    mean = float(np.mean(vals))
    std = float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0
    return mean, std


# the fold-record fields that crossval aggregates and tabulates
SUMMARY_COLUMNS = ("accuracy", "weighted_f1", "auc", "nodes", "train_accuracy")


def cmd_crossval(args) -> int:
    settings = resolve_settings(args)
    k = settings["folds"]
    if k < 2:
        raise ConfigError(f"folds must be >= 2, got {k}")
    jobs = settings["jobs"]
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    schedule = level_schedule(SEQUENTIAL, _build_config(settings))  # folds build their own config
    ds = _load_dataset(settings)
    out = _check_output_dir(settings["out"])
    try:
        plan = make_folds(ds, k, derive_stream(settings["seed"], "folds"))
    except ValueError as exc:  # fewer usable rows than folds: a fault of the data
        raise DataError(f"{settings['data']} has too few usable rows for folds = {k}: "
                        f"{exc}") from None
    inputs, folds = (ds, plan, settings, schedule), range(1, k + 1)
    if jobs == 1 or not hasattr(os, "fork"):
        records = [_crossval_fold(inputs, f) for f in folds]
    else:
        # imported here, so that no other command compiles the fork-join
        from .forkjoin import fork_map

        records = fork_map(_crossval_fold, inputs, folds, min(jobs, k))

    aggregate = {}
    for key in SUMMARY_COLUMNS:
        mean, std = _mean_std([r[key] for r in records])
        display = None if mean is None else f"{mean:.4f}±{std:.4f}"
        aggregate[key] = {"mean": mean, "std": std, "display": display}

    os.makedirs(out, exist_ok=True)
    summary = {
        "folds": records,
        "aggregate": aggregate,
        "k": k,
        "seed": settings["seed"],
    }
    _write_json(os.path.join(out, "summary.json"), summary)
    rows = [(r["fold"], r) for r in records]
    rows += [(stat, {c: aggregate[c][stat] for c in SUMMARY_COLUMNS}) for stat in ("mean", "std")]
    lines = ["fold," + ",".join(SUMMARY_COLUMNS)]
    for name, row in rows:
        lines.append(f"{name}," + ",".join("" if row[c] is None else repr(float(row[c]))
                                             for c in SUMMARY_COLUMNS))
    _write_lines(os.path.join(out, "summary.csv"), lines)
    return 0


def cmd_baseline(args) -> int:
    settings = resolve_settings(args)
    _require(settings, "kind")
    kind = settings["kind"]
    if kind not in baselines.BASELINE_KINDS:
        raise ConfigError(f"unknown baseline kind {kind!r} "
                          f"(choose from {', '.join(baselines.BASELINE_KINDS)})")
    return _fit_command(settings, kind)


def cmd_costs(args) -> int:
    columns = ("level", "cost_test", "cost_delay")
    lines = _read_run_json(args.run_dir, "ledger.json", ("levels",),
                           lambda doc: _cost_lines(doc["levels"], columns))
    if args.out is not None:
        os.makedirs(_check_output_dir(args.out), exist_ok=True)
        _write_lines(os.path.join(args.out, "costs.csv"), lines)
    else:
        print("\n".join(lines))
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


class _Once(argparse.Action):
    """Store a flag's value, refusing the flag given a second time."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest) is not None:
            raise ConfigError(f"flag {self.option_strings[0]} given twice")
        setattr(namespace, self.dest, values)


# the flags of every command that reads a config file; --config names that file
# and each other flag overrides the config key it names (--label-col: label_col)
SHARED_FLAGS = ("config", "data", "label_col", "positive", "seed", "out")

# command -> (handler, whether it takes a run directory, its flags); eval trains
# nothing, so it takes no --seed
COMMANDS = {
    "train": (cmd_train, False, SHARED_FLAGS),
    "eval": (cmd_eval, True, ("config", "data", "label_col", "positive", "out")),
    "crossval": (cmd_crossval, False, SHARED_FLAGS + ("folds", "jobs")),
    "baseline": (cmd_baseline, False, SHARED_FLAGS + ("kind",)),
    "costs": (cmd_costs, True, ("out",)),
}

# error type -> exit code; the first type an error is an instance of applies. The
# library raises ValueError for a value it rejects (TrainHyper's ranges, t < 2),
# so the CLI reports it as a configuration error.
EXIT_CODES = (
    (ConfigError, 1),
    (DataError, 2),
    (SamplingError, 3),
    (RuntimeError, 3),
    (ValueError, 1),
)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="trisect",
                     description="Grow a compact one-hidden-layer classifier with "
                                 "sequential three-way decisions")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (handler, needs_dir, flags) in COMMANDS.items():
        p = sub.add_parser(name)
        if needs_dir:
            p.add_argument("run_dir")
        for key in flags:
            p.add_argument("--" + key.replace("_", "-"), type=CONFIG_KEYS.get(key, str),
                           action=_Once)
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except tuple(kind for kind, _ in EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES if isinstance(exc, kind))


def console_main() -> int:
    """``main`` as the command-line entry points run it: once it returns, every
    object is frozen, so interpreter exit skips the collector's walk over them.
    ``main`` itself does not freeze, because tests call it in-process."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(console_main())
