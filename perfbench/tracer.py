"""Span tracer for one trisect CLI command, and the per-layer summary of its spans.

Run as a script, it executes one command of the trisect CLI with tracing on:

    python3 perfbench/tracer.py SPANS.json train --data d.csv ...

It wraps the public functions of each trisect module where their callers
look the name up (``trisect.trainer.kmeans_cluster``,
``trisect.network.cost_and_grads``, ``RngStream.shuffle``, ...), keeps one
span per call (name, parent, start, end and the call's counts) in memory,
and writes the spans to SPANS.json when the command ends. Nothing under
``src/`` changes. Spans recorded inside process-pool workers are lost, so a
traced ``crossval`` should run with ``--jobs 1``.

Two count probes go through hooks that trisect already has: ``history=[]``
is passed to ``train_node`` (epochs trained) and ``sse_trace=[]`` to
``kmeans_cluster`` (Lloyd iterations, and whether the iteration cap was
reached).
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from collections import defaultdict

# Layers whose self time is reported as ``<layer>.self_s``.
LAYERS = ("data", "numerics", "network", "discretize", "trainer", "threeway", "metrics")


class Tracer:
    """In-memory span recorder; spans nest by call order on one thread."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, owner, attr: str, name: str, probe=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span per call.

        ``probe(args, kwargs)`` runs before the call, may add keyword
        arguments, and returns a function of the result giving the span's
        counts.
        """
        fn = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            finish = probe(args, kwargs) if probe else None
            span = {"id": len(spans), "name": name,
                    "parent": stack[-1] if stack else None}
            spans.append(span)
            stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if finish:
                span.update(finish(result))
            return result

        setattr(owner, attr, traced)


def _rows(args, kwargs):
    rows = len(args[1]) if len(args) > 1 else len(kwargs["X"])
    return lambda result: {"rows": rows}


def _items(args, kwargs):
    items = len(args[1])
    return lambda result: {"items": items}


def _classes(args, kwargs):
    classes = len(args[0])
    return lambda result: {"classes": classes}


def _loaded_rows(args, kwargs):
    return lambda ds: {"rows": ds.n_rows}


def _trace_list(args, kwargs, index: int, name: str):
    """The list the call appends its trace to: the caller's, or a new one.

    A new list is passed as keyword ``name`` when the caller gave none.
    """
    given = args[index] if len(args) > index else kwargs.get(name)
    if given is None and len(args) <= index:
        given = kwargs[name] = []
    return given


def _epochs(args, kwargs):
    history = _trace_list(args, kwargs, 8, "history")
    if history is None:
        return None
    # entry 0 is the checkpoint before the first epoch
    return lambda result: {"epochs": max(len(history) - 1, 0)}


def _lloyd(default_cap):
    def probe(args, kwargs):
        points = len(args[0])
        cap = args[3] if len(args) > 3 else kwargs.get("max_iterations", default_cap)
        sse = _trace_list(args, kwargs, 4, "sse_trace")

        def finish(result):
            if sse is None:
                return {"points": points}
            iters = len(sse) - 1  # entry 0 follows the k-means++ assignment
            return {"points": points, "iters": iters, "cap_hit": int(iters >= cap)}
        return finish
    return probe


def _ledger(args, kwargs):
    def finish(result):
        levels = result[1].levels
        return {"levels": len(levels),
                "decided": sum(r.pl + r.nl for r in levels),
                "deferred": sum(r.bl for r in levels),
                "cost_test": levels[-1].cost_test}
    return finish


def install(tracer: Tracer) -> None:
    """Wrap each layer's public functions at the places trisect calls them."""
    from trisect import cli, discretize, metrics, network, numerics, threeway, trainer

    cap = inspect.signature(discretize.kmeans_cluster).parameters["max_iterations"].default
    plan = [
        (cli, "load_csv", "data.load_csv", _loaded_rows),
        (cli, "normalize", "data.normalize", None),
        (cli, "apply_normalization", "data.normalize", None),
        (cli, "split_811", "data.split", None),
        (cli, "make_folds", "data.split", None),
        (cli, "fold_split", "data.split", None),
        (numerics.RngStream, "shuffle", "numerics.shuffle", _items),
        (trainer, "init_node", "network.init_node", None),
        (trainer, "train_node", "network.train_node", _epochs),
        (network, "cost_and_grads", "network.cost_and_grads", None),
        (network, "adam_step", "network.adam_step", None),
        (trainer, "classify_split", "network.classify_split", None),
        (network, "predict_batch", "network.predict", _rows),
        (trainer, "predict_batch", "network.predict", _rows),
        (cli, "predict_batch", "network.predict", _rows),
        (cli, "model_to_json", "network.serialize", None),
        (cli, "model_from_json", "network.serialize", None),
        (trainer, "kmeans_cluster", "discretize.kmeans", _lloyd(cap)),
        (cli, "run", "trainer.run", _ledger),
        (cli, "build_schedule", "threeway.schedule", None),
        (trainer, "build_schedule", "threeway.schedule", None),
        (cli, "schedule_to_json", "threeway.schedule", None),
        (threeway, "schedule_from_json", "threeway.schedule", None),
        (trainer, "partition_three_way", "threeway.partition", _classes),
        (trainer, "partition_two_way", "threeway.partition", _classes),
        (trainer, "decision_risk_three_way", "threeway.risk", None),
        (trainer, "decision_risk_two_way", "threeway.risk", None),
        (trainer, "accrue_process_costs", "threeway.risk", None),
        (cli, "metrics_report", "metrics.report", None),
        (cli, "roc_auc", "metrics.roc_auc", None),
        (metrics, "roc_auc", "metrics.roc_auc", None),
        (cli, "_write_bundle", "cli.write", None),
        (cli, "_write_json", "cli.write", None),
        (cli, "_write_roc_csv", "cli.write", None),
        (cli, "_write_costs_csv", "cli.write", None),
        (cli, "_crossval_fold", "cli.fold", None),
    ]
    for owner, attr, name, probe in plan:
        tracer.wrap(owner, attr, name, probe)


def _quantile(values, q: float) -> float:
    """Nearest-rank quantile; 0.0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def summarize(spans: list[dict], wall_s: float) -> dict:
    """Per-layer metrics from the spans of one traced command.

    A span's self time is its duration minus its children's durations.
    ``cli.self_s`` is the traced wall time that no layer span covers
    (interpreter start-up, imports, argument parsing, command and fold
    glue), so the ``<layer>.self_s`` values, ``cli.write_s`` and
    ``cli.self_s`` add up to ``wall_s``.
    """
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    total = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(float)
    self_by_layer = defaultdict(float)
    write_self = 0.0
    by_name = defaultdict(list)
    for s in spans:
        dur = s["end"] - s["start"]
        own = dur - child_time[s["id"]]
        name = s["name"]
        total[name] += dur
        calls[name] += 1
        by_name[name].append(dur)
        layer = name.split(".", 1)[0]
        if name == "cli.write":
            write_self += own
        elif layer in LAYERS:
            self_by_layer[layer] += own
        for key in ("rows", "items", "classes", "epochs", "points", "iters", "cap_hit",
                    "levels", "decided", "deferred", "cost_test"):
            if key in s:
                counts[f"{name}.{key}"] += s[key]

    batch_us = [(a + b) * 1e6 for a, b in zip(by_name["network.cost_and_grads"],
                                             by_name["network.adam_step"])]
    load_s = total["data.load_csv"]
    out = {
        "data.load_csv_s": load_s,
        "data.load_csv_rows_per_s": counts["data.load_csv.rows"] / load_s if load_s else 0.0,
        "data.normalize_s": total["data.normalize"],
        "data.split_s": total["data.split"],
        "numerics.shuffle_s": total["numerics.shuffle"],
        "numerics.shuffle_calls": calls["numerics.shuffle"],
        "numerics.shuffle_items": int(counts["numerics.shuffle.items"]),
        "network.train_node_s": total["network.train_node"],
        "network.epochs": int(counts["network.train_node.epochs"]),
        "network.batches": calls["network.cost_and_grads"],
        "network.batch_us_p50": _quantile(batch_us, 0.50),
        "network.batch_us_p99": _quantile(batch_us, 0.99),
        "network.cost_and_grads_s": total["network.cost_and_grads"],
        "network.adam_step_s": total["network.adam_step"],
        "network.predict_s": total["network.predict"],
        "network.predict_rows": int(counts["network.predict.rows"]),
        "discretize.kmeans_s": total["discretize.kmeans"],
        "discretize.kmeans_points": int(counts["discretize.kmeans.points"]),
        "discretize.lloyd_iters": int(counts["discretize.kmeans.iters"]),
        "discretize.iter_cap_hits": int(counts["discretize.kmeans.cap_hit"]),
        "trainer.run_s": total["trainer.run"],
        "trainer.levels": int(counts["trainer.run.levels"]),
        "trainer.decided_instances": int(counts["trainer.run.decided"]),
        "trainer.deferred_instances": int(counts["trainer.run.deferred"]),
        "trainer.cost_test": counts["trainer.run.cost_test"],
        "threeway.schedule_s": total["threeway.schedule"],
        "threeway.partition_s": total["threeway.partition"],
        "threeway.classes": int(counts["threeway.partition.classes"]),
        "metrics.report_s": total["metrics.report"],
        "metrics.roc_auc_s": total["metrics.roc_auc"],
        "metrics.roc_auc_calls": calls["metrics.roc_auc"],
        "cli.write_s": write_self,
        "cli.fold_s_p50": _quantile(by_name["cli.fold"], 0.50),
        "cli.fold_s_max": max(by_name["cli.fold"], default=0.0),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_by_layer[layer]
    out["cli.self_s"] = wall_s - sum(self_by_layer.values()) - write_self
    out["trace.spans"] = len(spans)
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: tracer.py SPANS.json CLI-ARGS...", file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from trisect import cli

    try:
        return cli.main(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
