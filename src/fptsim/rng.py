"""Deterministic random-number substreams for reproducible batch sampling.

Batch sampling maps sample index ``i`` to its own ``numpy.random.Generator``
whose seed is derived from ``(master_seed, *key)`` by a fixed 64-bit mixing
function (splitmix64).  Sample ``i`` therefore consumes exactly the same
random numbers whatever the batch size and whichever indices are drawn
before it, which makes batch entry ``i`` a pure function of
``(master_seed, *key, i)``.

Most of the cost of building a generator is numpy's ``SeedSequence``
hashing the seed into PCG64's state words.  A batch hashes the seeds of all
its keys in one vectorized pass that reproduces ``SeedSequence`` bit for
bit, so the streams are unchanged; small batches and other calls hash each
seed with ``SeedSequence`` itself.

Scalar samplers that need many draws of one law take them from a
:func:`block_stream`, which serves a block from one numpy call as plain
Python floats: a numpy call per value costs about a microsecond, and the
``np.float64`` scalars it returns slow down all arithmetic after them.
"""

from __future__ import annotations

from contextvars import ContextVar
from itertools import chain, repeat
from typing import Callable, Iterator, Sequence, TypeVar

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import ParameterError

__all__ = ["derive_seed", "substream", "block_stream", "sample_many", "sample_many_indexed"]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

T = TypeVar("T")

#: Smallest batch whose seeds are hashed in one vectorized pass.  The pass
#: costs about as much as this many scalar ``SeedSequence`` hashes (~190 µs
#: against ~25 µs per scalar substream on a 2-vCPU x86-64 host).
_TABLE_MIN_N = 8

#: Values a :func:`block_stream` turns into floats at a time.  ``tolist``
#: costs about 14 ns per value, so a stream that uses a few values of a
#: large block should not convert all of it.
_SLICE = 32

# SeedSequence's hash constants (numpy/random/bit_generator.pyx), with the
# hash-constant sequences its mix_entropy and generate_state(8 uint32 words)
# step through; hash call k XORs with constant k and multiplies by k + 1.
_POOL_SIZE = 4
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """``init * mult**k mod 2**32`` for ``k = 0, ..., count``."""
    return np.array([init * pow(mult, k, 2**32) % 2**32 for k in range(count + 1)], np.uint32)


_HASH_A = _hash_constants(0x43B0D7E5, 0x931E8875, _POOL_SIZE * _POOL_SIZE)
_HASH_B = _hash_constants(0x8B51F9DD, 0x58F38DED, 2 * _POOL_SIZE)

#: ``(master_seed, prefix, table)`` of the running batch, or None.
_BATCH: ContextVar[tuple | None] = ContextVar("fptsim_rng_batch", default=None)


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


def _splitmix64_array(z: np.ndarray) -> np.ndarray:
    """:func:`_splitmix64` on a uint64 array (the products wrap mod 2**64)."""
    z = z + np.uint64(_GOLDEN)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _hashmix(value: np.ndarray, hash_const: np.ndarray, k: int, count: int) -> np.ndarray:
    """``count`` consecutive SeedSequence hash calls from call ``k`` on."""
    value = (value ^ hash_const[k : k + count]) * hash_const[k + 1 : k + count + 1]
    return value ^ (value >> np.uint32(16))


def _seed_table(seeds: np.ndarray) -> np.ndarray:
    """Row ``i`` is ``SeedSequence(seeds[i]).generate_state(4, np.uint64)``.

    Each step of ``mix_entropy`` and ``generate_state`` runs on all seeds at
    once in uint32 arithmetic.  A seed's entropy is its low and high words,
    zero-padded to the pool (one word below 2**32, which pads the same).
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    entropy = np.zeros((seeds.size, _POOL_SIZE), dtype=np.uint32)
    entropy[:, 0] = seeds & np.uint64(0xFFFFFFFF)
    entropy[:, 1] = seeds >> np.uint64(32)
    pool = _hashmix(entropy, _HASH_A, 0, _POOL_SIZE)
    k = _POOL_SIZE
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        hashed = _hashmix(pool[:, src, None], _HASH_A, k, len(dst))
        mixed = pool[:, dst] * _MIX_MULT_L - hashed * _MIX_MULT_R
        pool[:, dst] = mixed ^ (mixed >> np.uint32(16))
        k += len(dst)
    words = _hashmix(np.tile(pool, 2), _HASH_B, 0, 2 * _POOL_SIZE).astype(np.uint64)
    return words[:, 0::2] | (words[:, 1::2] << np.uint64(32))


def _batch_table(master_seed: int, prefix: tuple[int, ...], n: int) -> np.ndarray:
    """Seed words of the keys ``(*prefix, i)``, ``i < n``: the last fold of
    :func:`derive_seed` and the hash of :func:`_seed_table`, vectorized."""
    state = np.array([derive_seed(master_seed, *prefix)], dtype=np.uint64)
    folds = _splitmix64_array(np.arange(1, n + 1, dtype=np.uint64))  # splitmix64(i + 1)
    return _seed_table(_splitmix64_array(state ^ folds))


class _SeedWords(ISeedSequence):
    """A seed source that hands PCG64 four state words computed beforehand."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.words


def substream(master_seed: int, *key: int) -> np.random.Generator:
    """Return the generator for the substream identified by ``key``.

    The generator is PCG64 seeded with ``derive_seed(master_seed, *key)``.
    Inside a :func:`sample_many_indexed` batch, a key of that batch takes
    its seed words from the batch's table; any other key hashes its seed
    with ``SeedSequence``, to the same words.  The bit generator keeps only
    those words, so ``Generator.spawn`` is not available: a longer key
    gives a child stream.
    """
    batch = _BATCH.get()
    if batch is not None and key and master_seed == batch[0] and key[:-1] == batch[1]:
        i = key[-1]
        if type(i) is int and 0 <= i < len(batch[2]):
            return np.random.Generator(np.random.PCG64(_SeedWords(batch[2][i])))
    seed = np.random.SeedSequence(derive_seed(master_seed, *key))
    return np.random.Generator(np.random.PCG64(_SeedWords(seed.generate_state(4, np.uint64))))


def block_stream(
    draw_block: Callable[[int], np.ndarray], size: int, *, _first: int | None = None
) -> Callable[[], float]:
    """Return a function serving ``draw_block(size)`` values one at a time.

    Each call returns the next value as a plain Python ``float``.  A new
    block is drawn when the last one is used up (the first on the first
    call), so the values come in the generator's own block order.  Values
    left in the last block are dropped with the stream.

    A block larger than ``_SLICE`` values is still drawn by one call, but
    turned into floats ``_SLICE`` values at a time, so a stream that stops
    early pays the conversion of the values it served only.  With
    ``_first``, the block sizes grow from ``_first`` by doubling up to
    ``size``.  That serves the same values only where ``draw_block`` fills a
    block in sequence from a generator nothing else draws from, and it
    leaves that generator at the last block the stream used.
    """
    sizes: Iterator[int] = repeat(size)
    if _first is not None:
        plan = []
        while _first < size:
            plan.append(_first)
            _first *= 2
        sizes = chain(plan, sizes)
    if size <= _SLICE:  # one slice per block: skip the slicing (~0.4 µs a block)
        return chain.from_iterable(map(lambda k: draw_block(k).tolist(), sizes)).__next__
    slices = (
        block[lo : lo + _SLICE].tolist()
        for block in map(draw_block, sizes)
        for lo in range(0, block.size, _SLICE)
    )
    return chain.from_iterable(slices).__next__


def sample_many_indexed(
    draw: Callable[[int, np.random.Generator], T],
    n: int,
    master_seed: int,
    *,
    key_prefix: Sequence[int] = (),
) -> list[T]:
    """Evaluate ``draw(i, rng_i)`` on ``n`` independent substreams.

    ``draw`` receives the sample index and the generator for substream
    ``(*key_prefix, i)``; its result is stored at position ``i``.  A batch of
    at least ``_TABLE_MIN_N`` keys hashes all their seeds in one vectorized
    pass first; each index still gets its generator from :func:`substream`.
    """
    if n < 0:
        raise ParameterError(f"n must be non-negative, got {n}")
    prefix = tuple(int(k) for k in key_prefix)
    table = _batch_table(master_seed, prefix, n) if n >= _TABLE_MIN_N else None
    token = _BATCH.set(None if table is None else (master_seed, prefix, table))
    try:
        return [draw(i, substream(master_seed, *prefix, i)) for i in range(n)]
    finally:
        _BATCH.reset(token)


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
