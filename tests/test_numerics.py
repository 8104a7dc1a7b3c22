import warnings

import numpy as np
import pytest

from trisect import ACTIVATION_KINDS, RngStream, activate, activate_derivative, derive_stream
from trisect.data import Dataset, Split, fold_split, make_folds, split_811
from trisect.numerics import _SHUFFLE_BLOCK, _sigmoid

from conftest import synthetic_dataset

_M64 = 2**64


class SpecStream:
    """The generator specification of ``trisect.numerics``, written out literally.

    One scalar output per step and Fisher–Yates over ``randrange``: the
    reference that the package's draws must equal one for one.
    """

    def __init__(self, seed: int, stream_id: str = ""):
        h = 0xCBF29CE484222325
        for byte in stream_id.encode("utf-8"):
            h = ((h ^ byte) * 0x100000001B3) % _M64
        self.state = (seed ^ h) % _M64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) % _M64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % _M64
        return z ^ (z >> 31)

    def randrange(self, n: int) -> int:
        if n == 1:
            return 0
        mask = 2 ** (n - 1).bit_length() - 1
        while True:
            v = self.next_u64() & mask
            if v < n:
                return v

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]


GOLDEN_SEEDS = (0, 7, _M64 - 1)  # 2^64 - 1: the state wraps on the first step
SHUFFLE_SIZES = (0, 1, 2, _SHUFFLE_BLOCK - 1, _SHUFFLE_BLOCK, _SHUFFLE_BLOCK + 1,
                 3 * _SHUFFLE_BLOCK + 7)


class TestGeneratorContract:
    def test_published_splitmix64_outputs(self):
        # seed = FNV1a64("") makes the initial state 0: splitmix64's reference vector
        s = RngStream(0xCBF29CE484222325, "")
        assert [s.next_u64() for _ in range(3)] == [
            0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]

    @pytest.mark.parametrize("seed", GOLDEN_SEEDS)
    def test_next_u64_and_randrange_match_spec(self, seed):
        got, ref = RngStream(seed, "golden"), SpecStream(seed, "golden")
        assert [got.next_u64() for _ in range(64)] == [ref.next_u64() for _ in range(64)]
        bounds = (1, 2, 3, 5, 7, 8, 9, 1000, 2**33 + 1)
        assert [got.randrange(n) for n in bounds * 20] == [ref.randrange(n) for n in bounds * 20]
        assert got._state == ref.state

    @pytest.mark.parametrize("size", SHUFFLE_SIZES)
    @pytest.mark.parametrize("seed", GOLDEN_SEEDS)
    def test_shuffle_matches_spec(self, seed, size):
        got, ref = RngStream(seed, "shuffle"), SpecStream(seed, "shuffle")
        items = [f"item-{k}" for k in range(size)]
        expected = list(items)
        got.shuffle(items)
        ref.shuffle(expected)
        assert items == expected
        assert got._state == ref.state
        assert got.next_u64() == ref.next_u64()

    @pytest.mark.parametrize("seed", GOLDEN_SEEDS)
    def test_permutation_matches_spec(self, seed):
        got, ref = RngStream(seed, "perm"), SpecStream(seed, "perm")
        for n in SHUFFLE_SIZES:
            expected = list(range(n))
            ref.shuffle(expected)
            assert got.permutation(n) == expected
        assert got._state == ref.state
        assert got.randrange(1000) == ref.randrange(1000)

    def test_pinned_permutation(self):
        s = RngStream(7, "x")
        assert s.permutation(10) == [5, 6, 7, 3, 9, 8, 4, 2, 1, 0]
        assert s._state == 0x19FDA9FE7D7FE7FC
        assert s.next_u64() == 9627151804605433394

    def test_pinned_split_and_folds(self):
        ds = Dataset(np.zeros((20, 1)), np.array([1, -1] * 10), ("x",))
        split = split_811(ds, RngStream(42, "split"))
        assert split == Split((0, 1, 2, 3, 4, 5, 6, 10, 11, 12, 13, 14, 15, 16, 18, 19),
                              (8, 9), (7, 17))
        plan = make_folds(ds, 4, RngStream(42, "folds"))
        assert plan.assignments.tolist() == [2, 1, 3, 1, 1, 4, 2, 1, 4, 3, 2, 2, 3, 3, 4, 2, 1, 4,
                                             4, 3]
        split = fold_split(ds, plan, 2, RngStream(42, "crossval-val-2"))
        assert split == Split((1, 2, 3, 4, 5, 7, 8, 9, 12, 13, 14, 16, 17), (18, 19),
                              (0, 6, 10, 11, 15))


class TestRngStream:
    def test_identical_streams_reproduce_draws(self):
        a = RngStream(7, "x")
        b = RngStream(7, "x")
        assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]

    def test_uniform_range_containment(self):
        s = RngStream(0, "range")
        values = [s.uniform(0.0, 1.0) for _ in range(1000)]
        assert all(0.0 <= v < 1.0 for v in values)

    def test_uniform_rejects_bad_interval(self):
        s = RngStream(0)
        with pytest.raises(ValueError):
            s.uniform(1.0, 1.0)
        with pytest.raises(ValueError):
            s.uniform(2.0, -1.0)

    def test_different_seeds_diverge_quickly(self):
        a = RngStream(0, "s")
        b = RngStream(1, "s")
        assert [a.uniform() for _ in range(10)] != [b.uniform() for _ in range(10)]

    def test_streams_do_not_perturb_each_other(self):
        solo = RngStream(3, "main")
        expected = [solo.uniform() for _ in range(20)]
        main = RngStream(3, "main")
        other = RngStream(3, "other")
        got = []
        for i in range(20):
            got.append(main.uniform())
            other.uniform()  # interleaved consumption
        assert got == expected

    def test_normal_determinism_and_lln(self):
        a = RngStream(11, "n")
        b = RngStream(11, "n")
        assert [a.normal() for _ in range(50)] == [b.normal() for _ in range(50)]
        s = RngStream(0, "lln")
        mean = sum(s.normal(0.0, 1.0) for _ in range(100_000)) / 100_000
        assert abs(mean) < 0.02

    def test_normal_rejects_bad_sd(self):
        with pytest.raises(ValueError):
            RngStream(0).normal(0.0, 0.0)
        with pytest.raises(ValueError):
            RngStream(0).normal(0.0, -1.0)

    def test_seed_validation(self):
        # seeds are the 64-bit state's values: 2**64 would alias 0
        for bad in (-1, 2**64):
            with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
                RngStream(bad)
        assert RngStream(2**64 - 1, "top").next_u64() != RngStream(0, "top").next_u64()

    def test_randrange_uniform_bounds(self):
        s = RngStream(5, "rr")
        values = [s.randrange(7) for _ in range(2000)]
        assert set(values) == set(range(7))

    def test_permutation_is_a_permutation(self):
        s = RngStream(9, "perm")
        assert sorted(s.permutation(40)) == list(range(40))

    def test_derive_stream_names_are_independent(self):
        assert derive_stream(4, "a").next_u64() != derive_stream(4, "b").next_u64()


class TestActivations:
    def test_fixed_points(self):
        assert activate("relu", -1.0) == 0.0
        assert activate("relu", 2.0) == 2.0
        assert activate("sigmoid", 0.0) == pytest.approx(0.5)
        assert activate("selu", 0.0) == 0.0
        assert activate("tanh", 0.0) == 0.0
        assert activate("swish", 0.0) == 0.0
        assert activate("leaky-relu", -2.0) == pytest.approx(-0.02)

    def test_derivative_fixed_points(self):
        assert activate_derivative("relu", 2.0, 2.0) == 1.0
        assert activate_derivative("relu", -2.0, 0.0) == 0.0
        assert activate_derivative("tanh", 0.0, 0.0) == pytest.approx(1.0)
        assert activate_derivative("sigmoid", 0.0, 0.5) == pytest.approx(0.25)
        # kink convention: the positive branch value at exactly zero
        assert activate_derivative("relu", 0.0, 0.0) == 1.0
        assert activate_derivative("leaky-relu", 0.0, 0.0) == 1.0

    def test_selu_exponentials_see_no_large_pre_activation(self):
        # 709.5 overflowed alpha * expm1(z), and 800 expm1(z) and exp(z) too;
        # the values are the bytes of evaluating both sides everywhere
        z = np.array([-0.0, 0.0, -1.0, 709.5, 800.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            a = activate("selu", z)
            d = activate_derivative("selu", z, a)
        assert [float.hex(v) for v in a.tolist()] == [
            "-0x0.0p+0", "0x0.0p+0", "-0x1.1c802bd35198bp+0", "0x1.74bc75f94ee97p+9",
            "0x1.a447c7f41ff7ep+9"]
        assert [float.hex(v) for v in d.tolist()] == [
            "0x1.0cfabd690a384p+0", "0x1.0cfabd690a384p+0", "0x1.4b2541192c07ap-1",
            "0x1.0cfabd690a384p+0", "0x1.0cfabd690a384p+0"]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            activate("softplus", 1.0)
        with pytest.raises(ValueError):
            activate_derivative("softplus", 1.0, 1.0)

    @pytest.mark.parametrize("kind, from_z", [
        ("tanh", lambda z: 1.0 - np.tanh(z) * np.tanh(z)),
        ("sigmoid", lambda z: _sigmoid(z) * (1.0 - _sigmoid(z))),
    ])
    def test_derivative_from_a_equals_the_from_z_expression_bitwise(self, kind, from_z):
        rng = np.random.default_rng(20)
        edges = np.array([0.0, -0.0, 1e-300, -1e-300, 20.0, -20.0, 700.0, -700.0])
        z = np.concatenate([edges, rng.choice(edges, 500), rng.normal(0.0, 8.0, 500)])
        rng.shuffle(z)
        got = activate_derivative(kind, z, activate(kind, z))
        assert got.tobytes() == from_z(z).tobytes()

    def test_array_and_scalar_agree(self):
        xs = np.linspace(-3, 3, 11)
        for kind in ACTIVATION_KINDS:
            arr = activate(kind, xs)
            assert arr == pytest.approx([activate(kind, float(v)) for v in xs])

    @pytest.mark.parametrize("kind", ACTIVATION_KINDS)
    def test_derivative_matches_finite_differences(self, kind):
        stream = RngStream(2024, f"fd-{kind}")
        kinked = kind in ("relu", "leaky-relu", "selu")
        h = 1e-6
        checked = 0
        while checked < 1000:
            x = stream.normal(0.0, 2.5)
            if kinked and abs(x) < 1e-4:
                continue
            fd = (activate(kind, x + h) - activate(kind, x - h)) / (2 * h)
            d = activate_derivative(kind, x, activate(kind, x))
            assert abs(d - fd) <= 1e-6 * max(1.0, abs(d)), (kind, x)
            checked += 1


def _scalar_synthetic_table(seed, n_rows, n_features, duplicate_levels):
    """``synthetic_dataset``'s features and labels, drawn one ``uniform()`` at a time."""
    stream = RngStream(seed, "synthetic")
    X = np.empty((n_rows, n_features))
    for i in range(n_rows):
        for j in range(n_features):
            value = stream.uniform()
            if duplicate_levels:
                value = round(value * (duplicate_levels - 1)) / max(1, duplicate_levels - 1)
            X[i, j] = value
    w = np.array([stream.normal() for _ in range(n_features)])
    margin = X @ w - float(np.median(X @ w))
    y = np.where(margin + np.array([stream.normal(0, 0.3) for _ in range(n_rows)]) >= 0, 1, -1)
    if (y == 1).all():
        y[0] = -1
    if (y == -1).all():
        y[0] = 1
    return X, y


@pytest.mark.parametrize("seed, n_rows, n_features, duplicate_levels", [
    (1, 40, 3, 0), (2, 33, 5, 0), (90, 200, 8, 0), (3, 2, 1, 0),
    (4, 50, 3, 1), (5, 45, 4, 2), (6, 60, 3, 3), (7, 17, 2, 4),
])
def test_synthetic_builder_draws_the_scalar_stream(seed, n_rows, n_features, duplicate_levels):
    # the builder draws its uniform table in one block; the labels need the
    # normals drawn after it from where the scalar draws leave the stream
    ds = synthetic_dataset(seed, n_rows, n_features, duplicate_levels)
    X, y = _scalar_synthetic_table(seed, n_rows, n_features, duplicate_levels)
    assert ds.features.tobytes() == X.tobytes()
    assert ds.features.shape == X.shape
    assert ds.labels.tolist() == y.tolist()
