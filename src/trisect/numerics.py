"""Seeded random streams, activation functions and the decimal float encoding.

Every stochastic component of the package draws from an :class:`RngStream`
so that a run is fully determined by (seed, stream id). The generator is
deliberately small and written out here instead of delegating to a library
bit generator, so the exact draw sequences are part of the package contract
and stable across platforms and library versions.

Generator specification
-----------------------
The core is splitmix64 (Steele, Lea & Flood's 64-bit mixer):

    state   <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z       <- state
    z       <- ((z XOR (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
    z       <- ((z XOR (z >> 27)) * 0x94D049BB133111EB) mod 2^64
    output  <- z XOR (z >> 31)

The initial state of a stream is ``seed XOR FNV1a64(stream_id)`` where
FNV1a64 is the 64-bit Fowler–Noll–Vo hash of the UTF-8 bytes of the stream
id (offset basis 0xCBF29CE484222325, prime 0x100000001B3).

Derived draws:

* ``uniform(lo, hi)``: the top 53 bits of one output scaled by 2^-53,
  mapped affinely onto [lo, hi).
* ``normal(mean, sd)``: Box–Muller on two uniforms; the second variate of
  each pair is cached and returned on the next call.
* ``randrange(n)``: masked rejection on the low bits, so bounded integers
  are exactly uniform.
* ``shuffle``/``permutation``: backward Fisher–Yates; position i swaps with
  ``randrange(i + 1)``.

The contract is the sequence of draws and the state after each call: two
implementations agree when every call returns the same values and leaves
the stream in the same state. Output k after a state s is
mix(s + k * golden), so ``shuffle`` computes its outputs in numpy blocks of
at most ``_SHUFFLE_BLOCK`` from that counter form, and rewinds the state
past the outputs of the last block it did not consume. Its permutation, the
number of outputs it consumes and the state it leaves are those of the
scalar ``randrange`` loop.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
# outputs per numpy block of a shuffle: bounds its temporary memory
_SHUFFLE_BLOCK = 4096

#: Supported activation function names.
ACTIVATION_KINDS = ("relu", "leaky-relu", "selu", "tanh", "sigmoid", "swish")

LEAKY_SLOPE = 0.01
SELU_SCALE = 1.050700987
SELU_ALPHA = 1.673263242


def _fnv1a64(text: str) -> int:
    h = _FNV_OFFSET
    for byte in text.encode("utf-8"):
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


class RngStream:
    """One independently reproducible draw sequence.

    Identical (seed, stream_id) pairs yield identical sequences; distinct
    stream ids derived from one seed never interact. A stream is single
    owner: share the (seed, id) recipe, not the object, across tasks.
    """

    __slots__ = ("seed", "stream_id", "_state", "_gauss")

    def __init__(self, seed: int, stream_id: str = ""):
        if not isinstance(seed, int) or seed < 0:
            raise ValueError("seed must be a non-negative integer")
        self.seed = seed
        self.stream_id = stream_id
        self._state = (seed ^ _fnv1a64(stream_id)) & _MASK64
        self._gauss: float | None = None

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return (z ^ (z >> 31)) & _MASK64

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        """Draw from [lo, hi). Raises ValueError unless lo < hi."""
        if not lo < hi:
            raise ValueError(f"uniform requires lo < hi, got [{lo}, {hi})")
        u = (self.next_u64() >> 11) * 2.0**-53
        return lo + (hi - lo) * u

    def normal(self, mean: float = 0.0, sd: float = 1.0) -> float:
        """Draw from Normal(mean, sd). Raises ValueError unless sd > 0."""
        if not sd > 0:
            raise ValueError(f"normal requires sd > 0, got {sd}")
        if self._gauss is not None:
            z, self._gauss = self._gauss, None
        else:
            u1 = ((self.next_u64() >> 11) + 1) * 2.0**-53  # (0, 1]
            u2 = (self.next_u64() >> 11) * 2.0**-53  # [0, 1)
            r = math.sqrt(-2.0 * math.log(u1))
            z = r * math.cos(2.0 * math.pi * u2)
            self._gauss = r * math.sin(2.0 * math.pi * u2)
        return mean + sd * z

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        if n <= 0:
            raise ValueError("randrange requires n > 0")
        if n == 1:
            return 0
        mask = (1 << (n - 1).bit_length()) - 1
        while True:
            v = self.next_u64() & mask
            if v < n:
                return v

    def _draw_block(self, count: int) -> np.ndarray:
        """The next ``count`` outputs of ``next_u64``, computed in one numpy pass."""
        z = np.arange(1, count + 1, dtype=np.uint64)  # uint64 arrays wrap mod 2^64
        z *= np.uint64(_GOLDEN)
        z += np.uint64(self._state)
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
        self._state = (self._state + count * _GOLDEN) & _MASK64
        return z

    def shuffle(self, items: list) -> None:
        """In-place backward Fisher–Yates shuffle: item i swaps with ``randrange(i + 1)``.

        Each block of outputs is masked in numpy once per mask value, so the
        loop only compares and swaps. It iterates a memoryview of the masked
        block, which makes one int at a time: a ``tolist()`` would make the
        whole block's ints at once, and the small-object allocator keeps that
        memory (0.4 MB more peak RSS in a 50k-row run).
        """
        i = len(items) - 1
        mask = (1 << i.bit_length()) - 1  # randrange(i + 1)'s mask
        low = mask >> 1  # the mask shrinks once i reaches it
        unused = 0
        while i > 0:
            # below 2 outputs per position on average, as each draw is accepted with p > 1/2
            block = self._draw_block(min(_SHUFFLE_BLOCK, 2 * i))
            used = 0
            while used < len(block) and i:  # one numpy mask per mask value
                top, rejected = i, 0
                for j in memoryview(block[used:] & np.uint64(mask)):
                    if j <= i:
                        items[i], items[j] = items[j], items[i]
                        i -= 1
                        if i == low:
                            mask, low = low, low >> 1
                            break
                    else:
                        rejected += 1
                used += top - i + rejected  # one draw per swap or rejection
            unused = len(block) - used
        self._state = (self._state - unused * _GOLDEN) & _MASK64

    def permutation(self, n: int) -> list[int]:
        items = list(range(n))
        self.shuffle(items)
        return items


def derive_stream(master_seed: int, name: str) -> RngStream:
    """Named sub-stream of a master seed (the package's seed fan-out)."""
    return RngStream(master_seed, name)


def _f2s(x: float) -> str:
    """Decimal string of a float for the JSON outputs (shortest exact round trip)."""
    return repr(float(x))


def _check_kind(kind: str) -> None:
    if kind not in ACTIVATION_KINDS:
        raise ValueError(f"unknown activation kind: {kind!r}")


def _sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def activate(kind: str, x):
    """Apply an activation elementwise. Accepts scalars or arrays."""
    _check_kind(kind)
    arr = np.asarray(x, dtype=np.float64)
    if kind == "relu":
        out = np.maximum(arr, 0.0)
    elif kind == "leaky-relu":
        out = np.where(arr > 0, arr, LEAKY_SLOPE * arr)
    elif kind == "selu":
        out = SELU_SCALE * np.where(arr > 0, arr, SELU_ALPHA * np.expm1(arr))
    elif kind == "tanh":
        out = np.tanh(arr)
    elif kind == "sigmoid":
        out = _sigmoid(arr)
    else:  # swish
        out = arr * _sigmoid(arr)
    return float(out) if np.isscalar(x) or getattr(x, "ndim", 1) == 0 else out


def activate_derivative(kind: str, x):
    """Elementwise derivative of :func:`activate`.

    At the x = 0 kink of the ReLU family the x > 0 branch value is used.
    """
    _check_kind(kind)
    arr = np.asarray(x, dtype=np.float64)
    if kind == "relu":
        out = np.where(arr >= 0, 1.0, 0.0)
    elif kind == "leaky-relu":
        out = np.where(arr >= 0, 1.0, LEAKY_SLOPE)
    elif kind == "selu":
        out = SELU_SCALE * np.where(arr >= 0, 1.0, SELU_ALPHA * np.exp(arr))
    elif kind == "tanh":
        t = np.tanh(arr)
        out = 1.0 - t * t
    elif kind == "sigmoid":
        s = _sigmoid(arr)
        out = s * (1.0 - s)
    else:  # swish
        s = _sigmoid(arr)
        out = s + arr * s * (1.0 - s)
    return float(out) if np.isscalar(x) or getattr(x, "ndim", 1) == 0 else out
