import json

import numpy as np
import pytest

from trisect import (
    ConfigError,
    Split,
    ThresholdSchedule,
    TrainConfig,
    TrainHyper,
    predict_batch,
    run,
)
from trisect.network import LayeredNetwork, classify_split
from trisect.trainer import _distinct_rows, resolve_unit_costs

from conftest import (
    MATRIX_1,
    MATRIX_2,
    NODE_1,
    NODE_2,
    TOY_FEATURES,
    TOY_LABELS,
    TOY_SPLIT,
    network_of,
    synthetic_dataset,
    split_for,
)


class TestWorkedExample:
    def test_full_run(self, toy_dataset, toy_config, toy_schedule):
        net, ledger = run(toy_dataset, TOY_SPLIT, toy_config, toy_schedule)

        assert net.n_nodes == 2
        level1, level2 = ledger.levels
        assert (level1.pn, level1.mn, level1.nn) == (3, 3, 0)
        assert (level1.pl, level1.bl, level1.nl) == (0, 2, 1)
        assert level1.rule == "three-way"
        assert level1.risk == pytest.approx(0.5510, abs=1e-4)
        assert (level1.cost_test, level1.cost_delay) == (3.0, 3.0)
        assert (level2.pl, level2.bl, level2.nl) == (0, 0, 2)
        assert level2.risk == pytest.approx(0.5962, abs=1e-4)
        assert (level2.cost_test, level2.cost_delay) == (7.0, 4.0)

        assert ledger.pos == (1, 2, 5)  # x2, x3, x6
        assert ledger.neg == (0, 3, 4)  # x1, x4, x5
        assert ledger.bnd == ()

    def test_assembled_matrices(self, toy_dataset, toy_config, toy_schedule):
        net, _ = run(toy_dataset, TOY_SPLIT, toy_config, toy_schedule)
        W1, b1, W2, b2 = net.tensors
        expected_W1 = np.array([[0.8115, -1.0612, 0.3465, 0.1514],
                                [-0.2338, -0.1741, 0.9333, 0.2477]])
        expected_W2 = np.array([[0.2019, 0.1343], [0.0860, 0.0133]])
        assert np.abs(W1 - expected_W1).max() <= 1e-4
        assert np.abs(b1 - np.array([0.1139, 0.0818])).max() <= 1e-4
        assert np.abs(W2 - expected_W2).max() <= 1e-4
        assert np.abs(b2 - np.array([0.0768, 0.0821])).max() <= 1e-4

    @pytest.mark.parametrize("kind", ["stwd-sfnn", "stwd-nk"])
    def test_schedule_must_span_the_level_cap(self, toy_dataset, toy_config, kind):
        two_levels = ThresholdSchedule.from_matrices([MATRIX_1, MATRIX_2])
        with pytest.raises(ConfigError, match="schedule spans 2 levels, config says 3"):
            run(toy_dataset, TOY_SPLIT, toy_config, two_levels, kind=kind)

    def test_unknown_kind_is_rejected(self, toy_dataset, toy_config, toy_schedule):
        with pytest.raises(ValueError, match="unknown level-loop kind 'm2'"):
            run(toy_dataset, TOY_SPLIT, toy_config, toy_schedule, kind="m2")


class TestAssemble:
    """``LayeredNetwork.with_node`` stacks node i as row i of W1 and column i of W2."""

    def test_worked_example_stacking(self):
        W1, b1, W2, b2 = network_of((NODE_1, NODE_2)).tensors
        assert W1.shape == (2, 4) and W2.shape == (2, 2)
        assert b2.tolist() == [0.0768, 0.0821]  # newest node's output bias

    def test_single_node_identity(self):
        W1, b1, W2, b2 = network_of((NODE_1,)).tensors
        assert np.array_equal(W1[0], NODE_1.w1)
        assert b1[0] == NODE_1.b1
        assert np.array_equal(W2[:, 0], NODE_1.w2)
        assert np.array_equal(b2, NODE_1.b2)

    def test_empty_rejected(self):
        empty = LayeredNetwork.empty(4, "selu")
        assert empty.n_nodes == 0 and empty.n_features == 4
        with pytest.raises(ValueError, match="no nodes"):
            classify_split(empty, TOY_FEATURES, TOY_LABELS, np.arange(10))


class TestPredict:
    def test_worked_example_one_node(self):
        net = network_of((NODE_1,))
        labels, _ = predict_batch(net, TOY_FEATURES[:6])
        assert labels.tolist() == [1, 1, 1, -1, 1, 1]

    def test_batch_equals_rowwise(self):
        net = network_of((NODE_1, NODE_2))
        batch_labels, batch_scores = predict_batch(net, TOY_FEATURES)
        for i, x in enumerate(TOY_FEATURES):
            one_label, one_score = predict_batch(net, x[None, :])
            assert one_label[0] == batch_labels[i]
            assert one_score[0] == batch_scores[i]


class TestLiveRuns:
    def _run(self, seed, **cfg_kwargs):
        ds = synthetic_dataset(seed, 60, 4)
        split = split_for(ds, seed)
        cfg = TrainConfig(master_seed=seed,
                          hyper=TrainHyper(max_epochs=20, batch_size=16),
                          **cfg_kwargs)
        return ds, split, run(ds, split, cfg)

    def test_terminates_within_cap_and_partitions_train(self):
        for seed in range(5):
            ds, split, (net, ledger) = self._run(seed)
            assert net.n_nodes <= 10
            assert ledger.bnd == ()
            assert set(ledger.pos) | set(ledger.neg) == set(split.train)
            assert not set(ledger.pos) & set(ledger.neg)

    def test_active_set_monotonicity(self):
        for seed in range(5):
            _, _, (_, ledger) = self._run(seed)
            for prev, cur in zip(ledger.levels, ledger.levels[1:]):
                assert cur.active_size == prev.bl
                assert cur.active_size <= prev.m <= prev.active_size

    def test_costs_monotone(self):
        for seed in range(5):
            _, _, (_, ledger) = self._run(seed)
            accrued = [r for r in ledger.levels if r.m > 0]
            for prev, cur in zip(accrued, accrued[1:]):
                assert cur.cost_test > prev.cost_test
                assert cur.cost_delay >= prev.cost_delay

    def test_reruns_are_byte_identical(self):
        _, _, (_, first) = self._run(3)
        _, _, (_, second) = self._run(3)
        a = json.dumps(first.to_dict(), sort_keys=True)
        b = json.dumps(second.to_dict(), sort_keys=True)
        assert a == b

    def test_early_exit_when_first_node_is_perfect(self):
        # linearly separable toy with a wide margin: one node suffices
        X = np.vstack([np.full((10, 2), 0.05), np.full((10, 2), 0.95)])
        X += np.arange(20)[:, None] * 1e-4  # break exact duplicates
        y = np.array([-1] * 10 + [1] * 10)
        from trisect.data import Dataset

        ds = Dataset(X, y, ("f0", "f1"))
        split = Split(train=tuple(range(0, 16)), validation=(16, 17), test=(18, 19))
        cfg = TrainConfig(master_seed=1, hyper=TrainHyper(max_epochs=60, batch_size=8))
        net, ledger = run(ds, split, cfg)
        assert net.n_nodes == 1
        assert ledger.levels[0].rule == "none"
        assert ledger.levels[0].m == 0
        assert ledger.levels[0].risk == 0.0
        assert set(ledger.pos) | set(ledger.neg) == set(split.train)

    def test_unit_costs_sorted_when_sampled(self):
        cfg = TrainConfig(master_seed=5)
        test_units, delay_units = resolve_unit_costs(cfg)
        assert list(test_units) == sorted(test_units)
        assert test_units == delay_units
        assert len(test_units) == cfg.t
        assert all(1.0 <= u < 50.0 for u in test_units)

    def test_explicit_unit_costs_respected(self):
        cfg = TrainConfig(master_seed=5, t=3,
                          unit_test_costs=(1.0, 2.0, 3.0),
                          unit_delay_costs=(4.0, 5.0, 6.0))
        test_units, delay_units = resolve_unit_costs(cfg)
        assert test_units == (1.0, 2.0, 3.0)
        assert delay_units == (4.0, 5.0, 6.0)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(t=1)
        with pytest.raises(ConfigError):
            TrainConfig(epsilon=0.5)
        with pytest.raises(ConfigError):
            TrainConfig(activation="bogus")
        with pytest.raises(ConfigError):
            TrainConfig(t=3, unit_test_costs=(1.0,))
        with pytest.raises(ConfigError):
            TrainConfig(t=2, unit_test_costs=(1.0, 0.0))
        with pytest.raises(ConfigError):
            TrainConfig(t=2, unit_delay_costs=(-1.0, 1.0))
        inf, nan = float("inf"), float("nan")
        for field, bad in [("epsilon", {"epsilon": inf}), ("epsilon", {"epsilon": nan}),
                           ("cost_range", {"cost_range": (1.0, inf)}),
                           ("cost_range", {"cost_range": (nan, 2.0)}),
                           ("unit_test_costs", {"t": 2, "unit_test_costs": (1.0, nan)}),
                           ("unit_test_costs", {"t": 2, "unit_test_costs": (inf, 2.0)}),
                           ("unit_delay_costs", {"t": 2, "unit_delay_costs": (nan, 1.0)})]:
            with pytest.raises(ConfigError, match=f"{field} must be finite"):
                TrainConfig(**bad)
        for field, bad in [("t", 2.5), ("t", 3.0), ("clusters", 2.5), ("clusters", inf),
                           ("master_seed", 1.5)]:
            with pytest.raises(ConfigError, match=f"{field} must be an integer"):
                TrainConfig(**{field: bad})
        TrainConfig(t=np.int64(3), clusters=np.int32(2))

    def test_numpy_integer_fields_are_stored_as_ints(self):
        cfg = TrainConfig(t=np.int32(4), clusters=np.int64(3), master_seed=np.int64(3))
        assert [type(v) for v in (cfg.t, cfg.clusters, cfg.master_seed)] == [int] * 3
        # a numpy seed reaches the RNG streams and the ledger as the int seed
        ds = synthetic_dataset(3, 60, 4)
        split = split_for(ds, 3)
        hyper = TrainHyper(max_epochs=20, batch_size=16)
        ledgers = [json.dumps(run(ds, split, TrainConfig(master_seed=seed, hyper=hyper))[1]
                              .to_dict(), sort_keys=True)
                   for seed in (np.int64(3), 3)]
        assert ledgers[0] == ledgers[1]

    def test_empty_train_split_rejected(self, toy_dataset, toy_config):
        empty = Split(train=(), validation=(6, 7), test=(8, 9))
        with pytest.raises(ValueError):
            run(toy_dataset, empty, toy_config)


class TestDistinctRows:
    """The k cap counts distinct rows as ``np.unique(points, axis=0)`` does."""

    @staticmethod
    def _cases():
        rng = np.random.default_rng(0)
        pool = rng.random((5, 3))
        yield pool[rng.integers(0, 5, 200)]  # 5 distinct rows, many duplicates
        yield rng.random((300, 2))  # every row distinct, past several blocks
        signed = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, -0.0], [-0.0, 0.0], [2.0, 1.0]])
        yield signed  # -0.0 and 0.0 are one value: 3 distinct rows
        yield np.concatenate([signed[rng.integers(0, 5, 150)], rng.random((10, 2))])
        yield np.zeros((70, 4))
        yield rng.integers(0, 2, (130, 3)).astype(np.float64)  # 8 distinct rows

    def test_equals_the_capped_unique_count(self):
        for points in self._cases():
            distinct = len(np.unique(points, axis=0))
            for limit in (1, 2, 3, 5, 8, 9, 64, 300, 400):
                assert _distinct_rows(points, limit) == min(limit, distinct), (distinct, limit)
