import json

import numpy as np
import pytest

from trisect import (
    ConfigError,
    Split,
    TrainConfig,
    TrainHyper,
    assemble,
    predict_batch,
    run,
)
from trisect.network import LayeredNetwork
from trisect.trainer import resolve_unit_costs

from conftest import (
    NODE_1,
    NODE_2,
    TOY_FEATURES,
    TOY_SPLIT,
    synthetic_dataset,
    split_for,
)


class TestWorkedExample:
    def test_full_run(self, toy_dataset, toy_config):
        net, ledger = run(toy_dataset, TOY_SPLIT, toy_config)

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

    def test_assembled_matrices(self, toy_dataset, toy_config):
        net, _ = run(toy_dataset, TOY_SPLIT, toy_config)
        W1, b1, W2, b2 = net.assembled()
        expected_W1 = np.array([[0.8115, -1.0612, 0.3465, 0.1514],
                                [-0.2338, -0.1741, 0.9333, 0.2477]])
        expected_W2 = np.array([[0.2019, 0.1343], [0.0860, 0.0133]])
        assert np.abs(W1 - expected_W1).max() <= 1e-4
        assert np.abs(b1 - np.array([0.1139, 0.0818])).max() <= 1e-4
        assert np.abs(W2 - expected_W2).max() <= 1e-4
        assert np.abs(b2 - np.array([0.0768, 0.0821])).max() <= 1e-4

    def test_fixture_exhaustion_is_an_error(self, toy_dataset, toy_config):
        from dataclasses import replace

        cfg = replace(toy_config, fixture_nodes=(NODE_1,))
        with pytest.raises(ConfigError, match="fixture"):
            run(toy_dataset, TOY_SPLIT, cfg)


class TestAssemble:
    def test_worked_example_stacking(self):
        W1, b1, W2, b2 = assemble([NODE_1, NODE_2])
        assert W1.shape == (2, 4) and W2.shape == (2, 2)
        assert b2.tolist() == [0.0768, 0.0821]  # newest node's output bias

    def test_single_node_identity(self):
        W1, b1, W2, b2 = assemble([NODE_1])
        assert np.array_equal(W1[0], NODE_1.w1)
        assert b1[0] == NODE_1.b1
        assert np.array_equal(W2[:, 0], NODE_1.w2)
        assert np.array_equal(b2, NODE_1.b2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            assemble([])


class TestPredict:
    def test_worked_example_one_node(self):
        net = LayeredNetwork([NODE_1], "selu")
        labels, _ = predict_batch(net, TOY_FEATURES[:6])
        assert labels.tolist() == [1, 1, 1, -1, 1, 1]

    def test_batch_equals_rowwise(self):
        net = LayeredNetwork([NODE_1, NODE_2], "selu")
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

    def test_empty_train_split_rejected(self, toy_dataset, toy_config):
        empty = Split(train=(), validation=(6, 7), test=(8, 9))
        with pytest.raises(ValueError):
            run(toy_dataset, empty, toy_config)
