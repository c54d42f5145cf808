"""Deterministic random-number substreams for reproducible batch sampling.

Batch sampling maps sample index ``i`` to its own ``numpy.random.Generator``
whose seed is derived from ``(master_seed, *key)`` by a fixed 64-bit mixing
function (splitmix64).  Sample ``i`` therefore consumes exactly the same
random numbers whatever the batch size and whichever indices are drawn
before it, which makes batch entry ``i`` a pure function of
``(master_seed, *key, i)``.

Scalar samplers that need many draws of one law take them from a
:func:`block_stream`, which serves a block from one numpy call as plain
Python floats: a numpy call per value costs about a microsecond, and the
``np.float64`` scalars it returns slow down all arithmetic after them.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import Callable, Sequence, TypeVar

import numpy as np

from .errors import ParameterError

__all__ = ["derive_seed", "substream", "block_stream", "sample_many", "sample_many_indexed"]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

T = TypeVar("T")


def _splitmix64(z: int) -> int:
    """One splitmix64 mixing round (Steele, Lea & Flood's finalizer)."""
    z = (z + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(master_seed: int, *key: int) -> int:
    """Derive a 64-bit stream seed from a master seed and an integer key path.

    The key path is folded into the state one component at a time, with a
    mixing round after each fold, so ``(seed, 1, 2)`` and ``(seed, 2, 1)``
    land on unrelated streams.
    """
    state = _splitmix64(master_seed & _MASK64)
    for k in key:
        state = _splitmix64(state ^ _splitmix64((int(k) + 1) & _MASK64))
    return state


def substream(master_seed: int, *key: int) -> np.random.Generator:
    """Return the generator for the substream identified by ``key``."""
    return np.random.Generator(np.random.PCG64(derive_seed(master_seed, *key)))


def block_stream(
    draw_block: Callable[[int], np.ndarray], size: int
) -> Callable[[], float]:
    """Return a function serving ``draw_block(size)`` values one at a time.

    Each call returns the next value as a plain Python ``float``.  A new
    block is drawn when the last one is used up (the first on the first
    call), so the values come in the generator's own block order.  Values
    left in the last block are dropped with the stream.
    """
    blocks = map(lambda k: draw_block(k).tolist(), repeat(size))
    return chain.from_iterable(blocks).__next__


def sample_many_indexed(
    draw: Callable[[int, np.random.Generator], T],
    n: int,
    master_seed: int,
    *,
    key_prefix: Sequence[int] = (),
) -> list[T]:
    """Evaluate ``draw(i, rng_i)`` on ``n`` independent substreams.

    ``draw`` receives the sample index and the generator for substream
    ``(*key_prefix, i)``; its result is stored at position ``i``.
    """
    if n < 0:
        raise ParameterError(f"n must be non-negative, got {n}")
    prefix = tuple(int(k) for k in key_prefix)
    return [draw(i, substream(master_seed, *prefix, i)) for i in range(n)]


def sample_many(
    draw: Callable[[np.random.Generator], T],
    n: int,
    master_seed: int,
    *,
    key_prefix: Sequence[int] = (),
) -> list[T]:
    """Evaluate ``draw`` on ``n`` independent substreams (index-blind form).

    See :func:`sample_many_indexed` for the stream-assignment contract.
    """
    return sample_many_indexed(lambda _i, rng: draw(rng), n, master_seed, key_prefix=key_prefix)
