"""Shared fixtures: the ten-row worked example and synthetic data builders,
and the report header that names the platform the pinned digests depend on."""

from __future__ import annotations

import ctypes
import glob
import os

import numpy as np
import pytest

from trisect import (
    CostMatrix,
    Dataset,
    LayeredNetwork,
    NodeParams,
    RngStream,
    Split,
    ThresholdSchedule,
    TrainConfig,
    TrainHyper,
)


def _float64_math_targets() -> str:
    """The SIMD target numpy dispatches each float64 function to, whose
    bytes the pinned digests depend on."""
    from numpy.lib.introspect import opt_func_info

    info = opt_func_info(func_name="^(exp|log|expm1|log1p|tanh)$", signature="float64")
    return ", ".join(f"{name} {target['current']}" for name, sigs in sorted(info.items())
                     for target in sigs.values())


def _openblas_core() -> str:
    """The kernel the OpenBLAS bundled with numpy picked for this CPU."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    path = glob.glob(os.path.join(libs, "libscipy_openblas*"))[0]
    corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def _or_unknown(read) -> str:
    try:
        return read() or "unknown"
    except Exception:  # a header line must never stop the run
        return "unknown"


def _platform_lines() -> list[str]:
    # the pinned output digests hold on one numpy dispatch and BLAS kernel
    return [f"numpy: {np.__version__}",
            f"float64 exp|log|expm1|log1p|tanh target: {_or_unknown(_float64_math_targets)}",
            f"OpenBLAS core: {_or_unknown(_openblas_core)}"]


def pytest_report_header(config):
    return _platform_lines()


def pytest_terminal_summary(terminalreporter):
    # -q hides the header, so the platform is printed above the final count instead
    if not terminalreporter.showheader:
        for line in _platform_lines():
            terminalreporter.write_line(line)


def assert_block_rule(n: int, blocks, rows: int, align: int) -> None:
    """Assert that the (start, stop, skip) ``blocks`` of a set of ``n`` rows
    follow the row-block rule at ``rows`` rows and alignment ``align``.

    A set of at most ``rows`` rows is one block. Otherwise every block but
    the final one has ``rows`` rows and skips none, and the final one ends
    at ``n`` and starts at the largest multiple of ``align`` that leaves it
    at least ``rows`` rows. Dropping each block's first ``skip`` rows, the
    kept rows tile the set exactly once, in order.
    """
    *firsts, (start, stop, _) = blocks
    if n <= rows:
        assert blocks == [(0, n, 0)], (n, blocks)
    else:
        assert all(b - a == rows and not skip for a, b, skip in firsts), (n, blocks)
        assert start % align == 0 and stop == n, (n, blocks)
        assert n - start >= rows > n - start - align, (n, blocks)
    kept = [i for a, b, skip in blocks for i in range(a + skip, b)]
    assert kept == list(range(n)), (n, blocks)


def block_spans(parts) -> list[tuple[int, int, int]]:
    """The (start, stop, skip) blocks of consecutive (skip, length) ``parts``,
    each block starting ``skip`` rows before the one before it stops."""
    spans, stop = [], 0
    for skip, length in parts:
        spans.append((stop - skip, stop - skip + length, skip))
        stop = spans[-1][1]
    return spans


# ten-row two-class table driving the worked-example checks; labels 1/2,
# label 1 is the positive class
TOY_FEATURES = np.array([
    [0.7415, 0.5407, 0.5795, 0.9009],
    [0.6844, 0.3210, 0.0471, 0.3700],
    [0.7718, 0.0912, 0.4874, 0.5308],
    [0.0818, 0.4263, 0.0354, 0.0621],
    [0.5596, 0.4643, 0.3585, 0.3189],
    [0.6397, 0.6535, 0.7739, 0.6809],
    [0.7425, 0.0989, 0.7429, 0.4131],
    [0.9419, 0.5958, 0.4474, 0.7536],
    [0.4992, 0.2212, 0.9525, 0.4176],
    [0.2990, 0.4796, 0.1559, 0.7456],
])
TOY_RAW_LABELS = (2, 1, 1, 1, 2, 1, 1, 2, 1, 2)
TOY_LABELS = np.array([-1, 1, 1, 1, -1, 1, 1, -1, 1, -1])

# per-level cost matrices of the worked three-level configuration
MATRIX_1 = CostMatrix(0.0, 0.1506, 0.9021, 0.4592, 0.1249, 0.0)
MATRIX_2 = CostMatrix(0.0, 0.4617, 0.5962, 0.6740, 0.1344, 0.0)
MATRIX_3 = CostMatrix(0.0, 0.3626, 0.7064, 0.7664, 0.3727, 0.0)

# threshold values recorded alongside those matrices, injected as recorded.
# The recorded beta_2 = 0.5016 lies above the largest beta any matrix that
# rounds to MATRIX_2 can give (test_c01_threshold_values asserts that bound
# and the gap to the derived 1344/2689 = 0.49981...). It is still what the
# worked example ran with: 0.5016 >= 0.5 rejects the p = 1/2 class {x4, x5}
# at level 2, which C02's risk 0.5962 and C04's level-2 regions depend on.
RECORDED_PAIRS = ((0.6894, 0.1425), (0.5389, 0.5016))
RECORDED_GAMMA = 0.5204

# optimized node parameters of the worked example (levels 1 and 2)
NODE_1 = NodeParams(np.array([0.8115, -1.0612, 0.3465, 0.1514]), 0.1139,
                    np.array([0.2019, 0.0860]), np.array([0.1110, 0.1177]))
NODE_2 = NodeParams(np.array([-0.2338, -0.1741, 0.9333, 0.2477]), 0.0818,
                    np.array([0.1343, 0.0133]), np.array([0.0768, 0.0821]))

TOY_SPLIT = Split(train=(0, 1, 2, 3, 4, 5), validation=(6, 7), test=(8, 9))

# master seed whose level-1 clustering of {x1, x4, x5} lands on the
# documented fixed point {{x1}, {x4, x5}} (most seeds do; this one is pinned)
TOY_SEED = 0


@pytest.fixture
def toy_dataset() -> Dataset:
    return Dataset(TOY_FEATURES.copy(), TOY_LABELS.copy(), ("a1", "a2", "a3", "a4"))


@pytest.fixture
def toy_schedule() -> ThresholdSchedule:
    return ThresholdSchedule(pairs=RECORDED_PAIRS, gamma=RECORDED_GAMMA,
                             matrices=(MATRIX_1, MATRIX_2, MATRIX_3))


def network_of(nodes, activation: str = "selu") -> LayeredNetwork:
    """The network whose hidden nodes are ``nodes``, in order."""
    net = LayeredNetwork.empty(len(nodes[0].w1), activation)
    for node in nodes:
        net = net.with_node(node)
    return net


def replay_nodes(monkeypatch, nodes) -> None:
    """Make the level loop append ``nodes[i - 1]`` at level i instead of training one."""

    def replay(X_active, y_active, frozen, fresh, *args, **kwargs):
        return frozen.with_node(nodes[frozen.n_nodes])

    monkeypatch.setattr("trisect.trainer.train_node", replay)


@pytest.fixture
def worked_nodes(monkeypatch) -> None:
    """Runs in the test replay the worked example's optimized nodes."""
    replay_nodes(monkeypatch, (NODE_1, NODE_2))


@pytest.fixture
def toy_config(worked_nodes) -> TrainConfig:
    """The worked example's configuration; its runs replay NODE_1 and NODE_2."""
    return TrainConfig(t=3, activation="selu", init_dist="uniform",
                       hyper=TrainHyper(), epsilon=2.0, clusters=2,
                       master_seed=TOY_SEED,
                       unit_test_costs=(1.0, 2.0, 3.0),
                       unit_delay_costs=(1.0, 2.0, 3.0))


def toy_csv_text() -> str:
    lines = ["a1,a2,a3,a4,D"]
    for row, label in zip(TOY_FEATURES, TOY_RAW_LABELS):
        lines.append(",".join(f"{v:.4f}" for v in row) + f",{label}")
    return "\n".join(lines) + "\n"


def synthetic_dataset(seed: int, n_rows: int, n_features: int,
                      duplicate_levels: int = 0) -> Dataset:
    """Random binary dataset with a noisy linear ground truth.

    ``duplicate_levels`` > 0 snaps features onto that many grid values per
    column, which guarantees repeated rows for small grids.
    """
    stream = RngStream(seed, "synthetic")
    # stream.uniform() for each cell, row by row, drawn in one pass
    draws = stream._draw_block(n_rows * n_features) >> np.uint64(11)
    X = (draws * 2.0**-53).reshape(n_rows, n_features)
    if duplicate_levels:
        X = np.round(X * (duplicate_levels - 1)) / max(1, duplicate_levels - 1)
    w = np.array([stream.normal() for _ in range(n_features)])
    margin = X @ w - float(np.median(X @ w))
    y = np.where(margin + np.array([stream.normal(0, 0.3) for _ in range(n_rows)]) >= 0, 1, -1)
    # both classes must be present
    if (y == 1).all():
        y[0] = -1
    if (y == -1).all():
        y[0] = 1
    names = tuple(f"f{j}" for j in range(n_features))
    return Dataset(X, y, names)


def split_for(ds: Dataset, seed: int) -> Split:
    from trisect import split_811, derive_stream

    return split_811(ds, derive_stream(seed, "split"))


def health_survey_rows(seed: int, n_rows: int = 2000):
    """Obesity-survey-shaped table: 16 mixed-scale features, binary label.

    The label is drawn first (35% "high") and body measurements and habit
    scores are sampled from class-shifted distributions, so the task is
    clearly learnable without being separable.
    """
    stream = RngStream(seed, "health-survey")
    header = ["age", "height_m", "weight_kg", "veg_meals", "daily_meals",
              "snacking", "water_l", "activity_hours", "screen_hours",
              "commute_km", "family_history", "high_cal_diet", "monitors_cal",
              "smokes", "alcohol_freq", "transport_mode", "risk"]

    def clipped(mean, sd, lo, hi):
        return min(max(stream.normal(mean, sd), lo), hi)

    rows = []
    for _ in range(n_rows):
        high = stream.uniform() < 0.35
        weight = clipped(97.0 if high else 66.0, 13.0, 39.0, 173.0)
        activity = stream.randrange(2) if high else 1 + stream.randrange(3)
        snacking = 1 + stream.randrange(3) if high else stream.randrange(3)
        family = int(stream.uniform() < (0.72 if high else 0.30))
        high_cal = int(stream.uniform() < (0.68 if high else 0.33))
        record = [
            round(14 + stream.uniform() * 47, 1),
            round(clipped(1.70, 0.09, 1.45, 1.98), 3),
            round(weight, 1),
            stream.randrange(4),
            1 + stream.randrange(4),
            snacking,
            round(0.5 + stream.uniform() * 2.5, 2),
            activity,
            stream.randrange(3),
            round(stream.uniform() * 20, 1),
            family,
            high_cal,
            stream.randrange(2),
            stream.randrange(2),
            stream.randrange(3),
            stream.randrange(5),
        ]
        rows.append(record + ["high" if high else "normal"])
    return header, rows


def write_health_survey_csv(path, seed: int, n_rows: int = 2000) -> str:
    import csv as _csv

    header, rows = health_survey_rows(seed, n_rows)
    with open(path, "w", newline="") as fh:
        writer = _csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return str(path)
