"""Command-line surface: train, eval, crossval, baseline, costs.

Settings come from a flat key=value config file overridden by flags; every
command is deterministic given (config, seed), and reruns produce
byte-identical JSON/CSV outputs. Exit codes: 0 success, 1 configuration
error, 2 data error, 3 convergence/sampling error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import baselines
from .data import (apply_normalization, Dataset, fold_split, load_csv, make_folds,
                   normalize, split_811)
from .errors import ConfigError, DataError, SamplingError
from .metrics import metrics_report, roc_auc
from .network import TrainHyper, model_to_json, model_from_json, predict_batch
from .numerics import derive_stream
from .threeway import build_schedule, first_level_matrix, schedule_to_json, ThresholdSchedule
from .trainer import TrainConfig, run


def _ident(s):
    return s


def _parse_norm(s):
    aliases = {"minmax": "min-max", "min-max": "min-max",
               "zscore": "z-score", "z-score": "z-score", "none": "none"}
    if s not in aliases:
        raise ValueError(f"unknown normalization {s!r}")
    return aliases[s]


def _parse_costs(s):
    if s == "auto":
        return None
    return tuple(float(v) for v in s.split(","))


def _parse_delta(s):
    return None if s == "auto" else float(s)


# config key -> (TrainHyper field, value parser)
HYPER_KEYS = {
    "delta": ("delta", _parse_delta),
    "theta": ("theta", float),
    "l2": ("l2", float),
    "lr": ("learning_rate", float),
    "rho1": ("rho1", float),
    "rho2": ("rho2", float),
    "tau": ("tau", float),
    "batch_size": ("batch_size", int),
    "max_epochs": ("max_epochs", int),
    "patience": ("patience", int),
}
# config key -> (TrainConfig field, value parser)
RUN_KEYS = {
    "seed": ("master_seed", int),
    "t": ("t", int),
    "activation": ("activation", _ident),
    "init_dist": ("init_dist", _ident),
    "epsilon": ("epsilon", float),
    "clusters": ("clusters", int),
    "unit_test_costs": ("unit_test_costs", _parse_costs),
    "unit_delay_costs": ("unit_delay_costs", _parse_costs),
}
_HYPER, _RUN = TrainHyper(), TrainConfig()

# key -> (default, value parser); the keys above take their defaults from
# TrainHyper and TrainConfig
CONFIG_SCHEMA = {
    "data": (None, _ident),
    "label_col": (None, _ident),
    "positive": (None, _ident),
    "normalize": ("min-max", _parse_norm),
    "out": ("trisect-out", _ident),
    **{key: (getattr(_HYPER, f), parse) for key, (f, parse) in HYPER_KEYS.items()},
    **{key: (getattr(_RUN, f), parse) for key, (f, parse) in RUN_KEYS.items()},
    "folds": (10, int),
    "jobs": (1, int),
    "kind": (None, _ident),
    "cost_lo": (_RUN.cost_range[0], float),
    "cost_hi": (_RUN.cost_range[1], float),
    "grid_max_nodes": (10, int),
    "m1_a": (4.0, float),
}

# keys that a command-line flag overrides (--label-col sets label_col)
FLAG_KEYS = ("data", "label_col", "positive", "seed", "out", "folds", "jobs", "kind")


def parse_config_file(path: str) -> dict:
    """Flat key=value file; blank lines and #-comments ignored."""
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    raw = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, value = line.split("=", 1)
            key, value = key.strip(), value.strip()
            if key not in CONFIG_SCHEMA:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            raw[key] = value
    return raw


def resolve_settings(args) -> dict:
    """Defaults < config file < command-line flags."""
    settings = {k: default for k, (default, _) in CONFIG_SCHEMA.items()}
    if getattr(args, "config", None):
        for key, value in parse_config_file(args.config).items():
            _, parser = CONFIG_SCHEMA[key]
            try:
                settings[key] = parser(value)
            except ValueError as exc:
                raise ConfigError(f"config key {key!r}: {exc}") from None
    for key in FLAG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value
    return settings


def _build_config(settings: dict, schedule=None) -> TrainConfig:
    hyper = TrainHyper(**{f: settings[key] for key, (f, _) in HYPER_KEYS.items()})
    try:
        return TrainConfig(hyper=hyper, cost_range=(settings["cost_lo"], settings["cost_hi"]),
                           schedule=schedule,
                           **{f: settings[key] for key, (f, _) in RUN_KEYS.items()})
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _read_dataset(settings) -> Dataset:
    for key in ("data", "label_col", "positive"):
        if settings.get(key) in (None, ""):
            raise ConfigError(f"missing required setting {key!r}")
    return load_csv(settings["data"], settings["label_col"], settings["positive"])


def _load_dataset(settings) -> Dataset:
    return normalize(_read_dataset(settings), settings["normalize"])


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
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
    lines = ["threshold,fpr,tpr"]
    if curve is not None:  # header only for a single-class evaluation set
        for thr, fpr, tpr in zip(curve.thresholds, curve.fpr, curve.tpr):
            lines.append(f"{thr!r},{fpr!r},{tpr!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_costs_csv(path: str, ledger) -> None:
    lines = ["level,m,cost_test,cost_delay,risk"]
    for rec in ledger.levels:
        if rec.m > 0:
            lines.append(f"{rec.level},{rec.m},{rec.cost_test!r},{rec.cost_delay!r},{rec.risk!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _evaluate(net, ds: Dataset, indices):
    idx = list(indices)
    labels, scores = predict_batch(net, ds.features[idx])
    truth = ds.labels[idx]
    return truth, labels, scores


def _schedule_for(settings) -> ThresholdSchedule:
    try:
        return build_schedule(settings["t"], settings["seed"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _write_bundle(out: str, settings, ds, net, ledger, truth, labels, scores,
                  schedule_doc, extra_metrics=None) -> None:
    os.makedirs(out, exist_ok=True)
    report, curve = _scored_report(truth, labels, scores)
    if extra_metrics:
        report.update(extra_metrics)
    _write_json(os.path.join(out, "metrics.json"), report)
    _write_json(os.path.join(out, "ingestion.json"), ds.ingestion)
    seeds = {"master_seed": settings["seed"]}
    doc = model_to_json(net, ds.norm_mode, ds.norm_stats, schedule_doc, seeds)
    _write_json(os.path.join(out, "model.json"), doc)
    _write_roc_csv(os.path.join(out, "roc.csv"), curve)
    if ledger is not None:
        _write_json(os.path.join(out, "ledger.json"), ledger.to_dict())
        _write_costs_csv(os.path.join(out, "costs.csv"), ledger)


def cmd_train(args) -> int:
    settings = resolve_settings(args)
    ds = _load_dataset(settings)
    schedule = _schedule_for(settings)
    cfg = _build_config(settings, schedule=schedule)
    split = split_811(ds, derive_stream(cfg.master_seed, "split"))
    net, ledger = run(ds, split, cfg)
    truth, labels, scores = _evaluate(net, ds, split.test)
    _write_bundle(settings["out"], settings, ds, net, ledger, truth, labels, scores,
                  schedule_to_json(schedule))
    return 0


def cmd_eval(args) -> int:
    settings = resolve_settings(args)
    model_path = os.path.join(args.run_dir, "model.json")
    if not os.path.isfile(model_path):
        raise DataError(f"model not found: {model_path}")
    with open(model_path, encoding="utf-8") as fh:
        net, norm_mode, norm_stats, _, _ = model_from_json(json.load(fh))
    ds = _read_dataset(settings)
    if ds.n_features != net.n_features:
        raise DataError(f"{settings['data']} has {ds.n_features} feature columns, "
                        f"the model expects {net.n_features}")
    X = apply_normalization(norm_mode, norm_stats, ds.features)
    labels, scores = predict_batch(net, X)
    out = settings["out"] if settings["out"] != "trisect-out" else os.path.join(args.run_dir, "eval")
    os.makedirs(out, exist_ok=True)
    report, curve = _scored_report(ds.labels, labels, scores)
    _write_json(os.path.join(out, "metrics.json"), report)
    _write_roc_csv(os.path.join(out, "roc.csv"), curve)
    return 0


def _crossval_fold(payload):
    """One fold's run; top-level so executors can pickle it."""
    ds, plan, fold, settings, schedule = payload
    seed = settings["seed"]
    fold_seed = derive_stream(seed, f"fold-{fold}").next_u64()
    cfg = _build_config({**settings, "seed": fold_seed}, schedule=schedule)
    split = fold_split(ds, plan, fold, derive_stream(seed, f"crossval-val-{fold}"))
    net, ledger = run(ds, split, cfg)
    truth, labels, scores = _evaluate(net, ds, split.test)
    report = _scored_report(truth, labels, scores)[0]
    tr_truth, tr_labels, _ = _evaluate(net, ds, split.train)
    counts = np.bincount((np.asarray(tr_truth) == 1).astype(int), minlength=2)
    return {
        "fold": fold,
        "accuracy": report["accuracy"],
        "weighted_f1": report["weighted_f1"],
        "auc": report["auc"],
        "nodes": net.n_nodes,
        "train_accuracy": float((np.asarray(tr_truth) == np.asarray(tr_labels)).mean()),
        "majority_fraction": float(counts.max() / counts.sum()),
    }


def _mean_std(values):
    vals = [v for v in values if v is not None]
    if not vals:
        return None, None
    mean = float(np.mean(vals))
    std = float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0
    return mean, std


def cmd_crossval(args) -> int:
    settings = resolve_settings(args)
    k = settings["folds"]
    if k < 2:
        raise ConfigError(f"folds must be >= 2, got {k}")
    ds = _load_dataset(settings)
    schedule = _schedule_for(settings)
    try:
        plan = make_folds(ds, k, derive_stream(settings["seed"], "folds"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    payloads = [(ds, plan, f, settings, schedule) for f in range(1, k + 1)]
    jobs = max(1, settings["jobs"])
    if jobs == 1:
        records = [_crossval_fold(p) for p in payloads]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(_crossval_fold, payloads))
    records.sort(key=lambda r: r["fold"])

    aggregate = {}
    for key in ("accuracy", "weighted_f1", "auc", "nodes", "train_accuracy"):
        mean, std = _mean_std([r[key] for r in records])
        display = None if mean is None else f"{mean:.4f}±{std:.4f}"
        aggregate[key] = {"mean": mean, "std": std, "display": display}

    out = settings["out"]
    os.makedirs(out, exist_ok=True)
    summary = {
        "folds": records,
        "aggregate": aggregate,
        "k": k,
        "seed": settings["seed"],
    }
    _write_json(os.path.join(out, "summary.json"), summary)
    cols = ("accuracy", "weighted_f1", "auc", "nodes", "train_accuracy")
    lines = ["fold," + ",".join(cols)]
    for r in records:
        lines.append(str(r["fold"]) + "," + ",".join(
            "" if r[c] is None else repr(float(r[c])) for c in cols))
    lines.append("mean," + ",".join(
        "" if aggregate[c]["mean"] is None else repr(aggregate[c]["mean"]) for c in cols))
    lines.append("std," + ",".join(
        "" if aggregate[c]["std"] is None else repr(aggregate[c]["std"]) for c in cols))
    with open(os.path.join(out, "summary.csv"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


def cmd_baseline(args) -> int:
    settings = resolve_settings(args)
    kind = settings["kind"]
    if kind not in baselines.BASELINE_KINDS:
        raise ConfigError(f"unknown baseline kind {kind!r} "
                          f"(choose from {', '.join(baselines.BASELINE_KINDS)})")
    ds = _load_dataset(settings)
    seed = settings["seed"]
    split = split_811(ds, derive_stream(seed, "split"))
    hyper = _build_config(settings).hyper
    out = settings["out"]

    if kind in ("m1", "m2", "m3"):
        nodes = baselines.empirical_nodes(kind, ds.n_features, 2, settings["m1_a"])
        stream = derive_stream(seed, "fixed-topology")
        net = baselines.train_fixed_topology(ds, split, nodes, hyper,
                                             settings["activation"], settings["init_dist"],
                                             stream)
        truth, labels, scores = _evaluate(net, ds, split.test)
        _write_bundle(out, settings, ds, net, None, truth, labels, scores, None,
                      extra_metrics={"kind": kind, "nodes": nodes})
    elif kind == "grid-search":
        best_nodes, net = baselines.grid_search(ds, split, settings["grid_max_nodes"],
                                                hyper, settings["activation"],
                                                settings["init_dist"], seed)
        truth, labels, scores = _evaluate(net, ds, split.test)
        _write_bundle(out, settings, ds, net, None, truth, labels, scores, None,
                      extra_metrics={"kind": kind, "best_nodes": best_nodes,
                                     "nodes": best_nodes})
    elif kind == "twd-fixed":
        cfg = _build_config(settings)
        matrix = first_level_matrix(seed)
        net, ledger = baselines.run_twd_fixed(ds, split, cfg, matrix)
        truth, labels, scores = _evaluate(net, ds, split.test)
        triple = ThresholdSchedule.from_matrices([matrix, matrix])
        _write_bundle(out, settings, ds, net, ledger, truth, labels, scores,
                      schedule_to_json(triple),
                      extra_metrics={"kind": kind, "nodes": net.n_nodes})
    else:  # stwd-nk
        schedule = _schedule_for(settings)
        cfg = _build_config(settings, schedule=schedule)
        net, ledger = baselines.run_stwd_nk(ds, split, cfg)
        truth, labels, scores = _evaluate(net, ds, split.test)
        _write_bundle(out, settings, ds, net, ledger, truth, labels, scores,
                      schedule_to_json(schedule),
                      extra_metrics={"kind": kind, "nodes": net.n_nodes})
    return 0


def cmd_costs(args) -> int:
    settings = resolve_settings(args)
    ledger_path = os.path.join(args.run_dir, "ledger.json")
    if not os.path.isfile(ledger_path):
        raise DataError(f"ledger not found: {ledger_path}")
    with open(ledger_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    lines = ["level,cost_test,cost_delay"]
    for rec in doc["levels"]:
        if rec["m"] > 0:
            lines.append(f"{rec['level']},{rec['cost_test']!r},{rec['cost_delay']!r}")
    text = "\n".join(lines) + "\n"
    if getattr(args, "out", None):
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "costs.csv"), "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _add_shared(parser):
    parser.add_argument("--config")
    for key in FLAG_KEYS:
        parser.add_argument("--" + key.replace("_", "-"), type=CONFIG_SCHEMA[key][1])


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="trisect",
                     description="Grow a compact one-hidden-layer classifier with "
                                 "sequential three-way decisions")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, needs_dir in (("train", False), ("eval", True), ("crossval", False),
                            ("baseline", False), ("costs", True)):
        p = sub.add_parser(name)
        if needs_dir:
            p.add_argument("run_dir")
        _add_shared(p)
    return parser


_COMMANDS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "crossval": cmd_crossval,
    "baseline": cmd_baseline,
    "costs": cmd_costs,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SamplingError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
