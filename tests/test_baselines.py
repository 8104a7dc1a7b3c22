import json

import numpy as np
import pytest

from trisect import (
    Dataset,
    RngStream,
    Split,
    TrainConfig,
    TrainHyper,
    derive_stream,
    empirical_nodes,
    grid_search,
    run,
    run_stwd_nk,
    run_twd_fixed,
    split_811,
    train_fixed_topology,
)
from trisect import trainer
from trisect.network import predict_batch
from trisect.threeway import ThresholdSchedule, build_schedule, sample_cost_matrix
from trisect.metrics import accuracy

from conftest import (
    MATRIX_1,
    MATRIX_2,
    NODE_1,
    NODE_2,
    TOY_FEATURES,
    TOY_LABELS,
    TOY_SPLIT,
    replay_nodes,
    synthetic_dataset,
)


class TestEmpiricalNodes:
    def test_log2_sizing(self):
        assert empirical_nodes("m2", 61) == 6
        assert empirical_nodes("m2", 1024) == 10

    def test_geometric_mean_sizing(self):
        assert empirical_nodes("m3", 61, 2) == 11

    def test_sqrt_plus_offset_sizing(self):
        assert empirical_nodes("m1", 7, 2, a=4.0) == 7  # sqrt(9) + 4

    def test_at_least_one_node(self):
        assert empirical_nodes("m2", 1) == 1

    def test_invalid_offset(self):
        with pytest.raises(ValueError):
            empirical_nodes("m1", 10, 2, a=0.5)
        with pytest.raises(ValueError):
            empirical_nodes("m1", 10, 2, a=10.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            empirical_nodes("m4", 10)


def _toy_ds():
    return Dataset(TOY_FEATURES.copy(), TOY_LABELS.copy(), ("a1", "a2", "a3", "a4"))


class TestFixedTopology:
    def test_single_node_shape(self):
        ds = _toy_ds()
        net = train_fixed_topology(ds, TOY_SPLIT, 1, TrainHyper(max_epochs=3),
                                   "selu", "uniform", RngStream(0, "ft"))
        assert net.n_nodes == 1

    def test_deterministic(self):
        ds = synthetic_dataset(2, 40, 3)
        split = split_811(ds, derive_stream(2, "split"))
        nets = [train_fixed_topology(ds, split, 3, TrainHyper(max_epochs=8),
                                     "tanh", "normal", RngStream(4, "ft"))
                for _ in range(2)]
        a, b = nets[0].tensors, nets[1].tensors
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_best_checkpoint_costs_non_increasing(self):
        ds = synthetic_dataset(3, 50, 4)
        split = split_811(ds, derive_stream(3, "split"))
        history: list = []
        train_fixed_topology(ds, split, 2, TrainHyper(max_epochs=30), "selu",
                             "uniform", RngStream(5, "ft"), history=history)
        improving = [(tc, vc) for _, tc, vc, improved in history if improved]
        assert len(improving) >= 2
        assert all(b[1] < a[1] for a, b in zip(improving, improving[1:]))

    def test_nodes_must_be_positive(self):
        with pytest.raises(ValueError):
            train_fixed_topology(_toy_ds(), TOY_SPLIT, 0, TrainHyper(),
                                 "selu", "uniform", RngStream(0))


class TestGridSearch:
    def test_single_candidate(self):
        ds = _toy_ds()
        best, net = grid_search(ds, TOY_SPLIT, 1, TrainHyper(max_epochs=2),
                                "selu", "uniform", master_seed=0)
        assert best == 1 and net.n_nodes == 1

    def test_winner_dominates_all_candidates(self):
        ds = synthetic_dataset(6, 50, 3)
        split = split_811(ds, derive_stream(6, "split"))
        hyper = TrainHyper(max_epochs=6)
        best, net = grid_search(ds, split, 4, hyper, "selu", "uniform", master_seed=9)
        va = list(split.validation)
        best_acc = accuracy(ds.labels[va], predict_batch(net, ds.features[va])[0])
        for nodes in range(1, 5):
            candidate = train_fixed_topology(ds, split, nodes, hyper, "selu",
                                             "uniform", derive_stream(9, f"grid-{nodes}"))
            acc = accuracy(ds.labels[va], predict_batch(candidate, ds.features[va])[0])
            assert best_acc >= acc

    def test_tie_prefers_fewest_nodes(self):
        # zero training epochs: every candidate keeps its random init, and on
        # a one-sided validation set equal accuracies are likely; the first
        # strictly-greater win rule must then return the smallest count
        ds = synthetic_dataset(7, 40, 3)
        split = split_811(ds, derive_stream(7, "split"))
        hyper = TrainHyper(max_epochs=0)
        best, _ = grid_search(ds, split, 5, hyper, "selu", "uniform", master_seed=1)
        va = list(split.validation)
        accs = []
        for nodes in range(1, 6):
            candidate = train_fixed_topology(ds, split, nodes, hyper, "selu",
                                             "uniform", derive_stream(1, f"grid-{nodes}"))
            accs.append(accuracy(ds.labels[va], predict_batch(candidate, ds.features[va])[0]))
        assert best == 1 + accs.index(max(accs))


class TestTwdFixed:
    @pytest.fixture
    def replayed(self, monkeypatch):
        """Level i of a run appends the i-th of NODE_1, NODE_2, NODE_2."""
        replay_nodes(monkeypatch, (NODE_1, NODE_2, NODE_2))

    def _cfg(self, **kwargs):
        defaults = dict(t=3, activation="selu", master_seed=0,
                        unit_test_costs=(1.0, 2.0, 3.0),
                        unit_delay_costs=(1.0, 2.0, 3.0))
        defaults.update(kwargs)
        return TrainConfig(**defaults)

    def test_coarsest_thresholds_keep_deferring(self, replayed):
        # level-1 corridor holds p = 0.5, so the two instances stay deferred
        # at level 2 and a third node is needed
        net, ledger = run_twd_fixed(_toy_ds(), TOY_SPLIT, self._cfg(),
                                    ThresholdSchedule.from_matrices([MATRIX_1] * 2))
        assert net.n_nodes == 3
        assert [r.rule for r in ledger.levels] == ["three-way", "three-way", "two-way"]
        assert ledger.levels[1].bl == 2

    def test_finest_thresholds_stop_early(self, replayed):
        # recorded level-2 pair held fixed settles everything at level 1
        recorded = ThresholdSchedule(((0.5389, 0.5016),), 0.5204, (MATRIX_2, MATRIX_2))
        net, ledger = run_twd_fixed(_toy_ds(), TOY_SPLIT, self._cfg(), recorded)
        assert net.n_nodes == 1
        assert ledger.pos == (1, 2, 5)
        assert ledger.neg == (0, 3, 4)

    def test_degenerate_schedule_equivalence(self):
        # one shared matrix: the sequential run and the fixed-threshold run
        # must produce byte-identical ledgers (seeds chosen to include a
        # multi-level trajectory)
        saw_multi_level = False
        for seed in (0, 3, 7, 9):
            ds = synthetic_dataset(seed, 90, 3, duplicate_levels=3)
            split = split_811(ds, derive_stream(seed, "split"))
            matrix = sample_cost_matrix(RngStream(seed, "one-matrix"))
            hyper = TrainHyper(max_epochs=2, batch_size=32)
            degenerate = ThresholdSchedule.from_matrices([matrix] * 6)
            _, led_seq = run(ds, split, TrainConfig(t=6, master_seed=seed, hyper=hyper),
                             degenerate)
            _, led_fix = run_twd_fixed(ds, split,
                                       TrainConfig(t=6, master_seed=seed, hyper=hyper),
                                       ThresholdSchedule.from_matrices([matrix] * 2))
            assert (json.dumps(led_seq.to_dict(), sort_keys=True)
                    == json.dumps(led_fix.to_dict(), sort_keys=True))
            saw_multi_level |= len(led_seq.levels) > 1
        assert saw_multi_level

    def test_default_matrix_is_schedule_level_one(self, replayed):
        for seed in (0, 5, 11):
            cfg = self._cfg(master_seed=seed)
            level_one = build_schedule(cfg.t, seed).matrices[0]
            _, ledger = run_twd_fixed(_toy_ds(), TOY_SPLIT, cfg)
            explicit = ThresholdSchedule.from_matrices([level_one] * 2)
            _, explicit_ledger = run_twd_fixed(_toy_ds(), TOY_SPLIT, cfg, explicit)
            assert ledger.to_dict() == explicit_ledger.to_dict()


class TestStwdNk:
    def test_distinct_rows_give_singleton_classes(self):
        # with every row unique, each class is one instance with p in {0, 1},
        # so the first level settles everything it misclassifies
        ds = synthetic_dataset(11, 60, 4)
        split = split_811(ds, derive_stream(11, "split"))
        cfg = TrainConfig(master_seed=11, hyper=TrainHyper(max_epochs=5, batch_size=32))
        net, ledger = run_stwd_nk(ds, split, cfg)
        assert net.n_nodes == 1
        first = ledger.levels[0]
        if first.m:
            assert first.bl == 0
            assert first.pl + first.nl == first.m

    def test_duplicated_rows_can_defer(self):
        # identical rows with mixed labels produce fractional probabilities
        X = np.vstack([np.tile([0.2, 0.8], (6, 1)), np.tile([0.9, 0.1], (6, 1))])
        y = np.array([1, 1, -1, 1, -1, 1] + [-1, -1, -1, 1, -1, -1])
        ds = Dataset(X, y, ("f0", "f1"))
        split = Split(train=tuple(range(10)), validation=(10,), test=(11,))
        sched = ThresholdSchedule(((0.95, 0.05),), 0.5,
                                  (MATRIX_1, MATRIX_1))
        cfg = TrainConfig(t=2, master_seed=2, hyper=TrainHyper(max_epochs=2, batch_size=4))
        net, ledger = run_stwd_nk(ds, split, cfg, sched)
        first = ledger.levels[0]
        if first.m:
            # any non-settled class must carry a strictly fractional p
            assert first.rule in ("three-way", "two-way")
        assert ledger.bnd == ()

    def test_signed_zeros_stay_separate_classes(self, monkeypatch):
        # 0.0 and -0.0 rows predict alike, so each label group misclassifies
        # two rows of each sign; grouping by the rows' bytes keeps them apart
        classes = []
        build = trainer.build_equivalence_classes

        def recorded_build(*args):
            classes.append(build(*args))
            return classes[-1]

        monkeypatch.setattr(trainer, "build_equivalence_classes", recorded_build)
        X = np.array([[0.0, 0.0], [-0.0, -0.0]] * 5)
        y = np.array([1, 1, 1, 1, -1, -1, -1, -1, 1, -1])
        ds = Dataset(X, y, ("f0", "f1"))
        split = Split(train=tuple(range(8)), validation=(8,), test=(9,))
        cfg = TrainConfig(t=2, master_seed=3, hyper=TrainHyper(max_epochs=1, batch_size=4))
        run_stwd_nk(ds, split, cfg)
        level1 = classes[0]
        assert [c.size for c in level1] == [2, 2]
        for c in level1:
            assert len({X[i].tobytes() for i in c.members}) == 1

    def test_parameters_match_sequential_variant(self):
        # identical seeds: only the grouping differs from the standard run
        ds = synthetic_dataset(13, 50, 3, duplicate_levels=3)
        split = split_811(ds, derive_stream(13, "split"))
        hyper = TrainHyper(max_epochs=3, batch_size=16)
        cfg = TrainConfig(master_seed=13, hyper=hyper)
        net_a, _ = run(ds, split, cfg)
        net_b, _ = run_stwd_nk(ds, split, cfg)
        assert np.array_equal(net_a.W1[0], net_b.W1[0]) and net_a.b1[0] == net_b.b1[0]
