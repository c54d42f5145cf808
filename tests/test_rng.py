"""Stream derivation and per-index batch sampling."""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fptsim import rng as rng_module
from fptsim.errors import ParameterError
from fptsim.rng import (
    _BATCH,
    _TABLE_MIN_N,
    _batch_table,
    _seed_table,
    block_stream,
    derive_seed,
    sample_many,
    sample_many_indexed,
    substream,
)


def test_derive_seed_deterministic_and_keyed():
    assert derive_seed(7, 1, 2) == derive_seed(7, 1, 2)
    assert derive_seed(7, 1, 2) != derive_seed(7, 2, 1)
    assert derive_seed(7, 1) != derive_seed(8, 1)
    assert derive_seed(7) != derive_seed(7, 0)


@given(
    master=st.integers(min_value=0, max_value=2**64 - 1),
    key=st.lists(st.integers(min_value=0, max_value=2**63), max_size=4),
)
@settings(max_examples=200, deadline=None)
def test_derive_seed_is_a_64_bit_pure_function(master, key):
    s1 = derive_seed(master, *key)
    s2 = derive_seed(master, *key)
    assert s1 == s2
    assert 0 <= s1 < 2**64


def test_substream_reproducible_and_independent():
    a = substream(42, 1).standard_normal(8)
    b = substream(42, 1).standard_normal(8)
    c = substream(42, 2).standard_normal(8)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("seed", [2, 4])
def test_sample_many_worker_invariant(seed):
    """Entry i is the draw on substream (seed, *prefix, i) and nothing else.

    This per-index keying is what any split of the index range (threads,
    processes, chunks) has to keep for results to stay worker-invariant.
    """
    draw = lambda rng: rng.standard_normal(2).tolist()
    assert sample_many(draw, 23, seed) == [draw(substream(seed, i)) for i in range(23)]
    assert sample_many(draw, 23, seed, key_prefix=(3,)) == [
        draw(substream(seed, 3, i)) for i in range(23)
    ]


def test_sample_many_key_prefix_changes_streams():
    draw = lambda rng: rng.random()
    assert sample_many(draw, 5, 99) != sample_many(draw, 5, 99, key_prefix=(1,))


def test_sample_many_indexed_passes_indices_and_is_worker_invariant():
    draw = lambda i, rng: (i, rng.random())
    batch = sample_many_indexed(draw, 17, 5, key_prefix=(2, 7))
    assert batch == [draw(i, substream(5, 2, 7, i)) for i in range(17)]
    assert [i for i, _ in batch] == list(range(17))
    assert sample_many_indexed(draw, 0, 5) == []
    with pytest.raises(ParameterError):
        sample_many_indexed(draw, -1, 5)


def _seed_sequence_words(seed):
    return np.random.SeedSequence(seed).generate_state(4, np.uint64)


@given(
    master=st.integers(min_value=0, max_value=2**64 - 1),
    prefix=st.lists(st.integers(min_value=0, max_value=2**63), max_size=3),
    n=st.integers(min_value=0, max_value=300),
)
@settings(max_examples=60, deadline=None)
def test_batch_table_equals_seed_sequence(master, prefix, n):
    table = _batch_table(master, tuple(prefix), n)
    assert table.shape == (n, 4) and table.dtype == np.uint64
    for i, row in enumerate(table):
        np.testing.assert_array_equal(row, _seed_sequence_words(derive_seed(master, *prefix, i)))


def test_seed_table_edge_seeds():
    # seeds below 2**32 have one word of entropy; no derived key lands there
    seeds = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
    table = _seed_table(np.array(seeds, dtype=np.uint64))
    for seed, row in zip(seeds, table):
        np.testing.assert_array_equal(row, _seed_sequence_words(seed))


def _states(seed, prefix, n):
    return sample_many_indexed(lambda i, rng: rng.bit_generator.state, n, seed, key_prefix=prefix)


@pytest.mark.parametrize("n", [1, _TABLE_MIN_N - 1, _TABLE_MIN_N, 5 * _TABLE_MIN_N])
def test_batch_entries_keep_the_per_index_streams(monkeypatch, n):
    tables = []
    monkeypatch.setattr(rng_module, "_seed_table", lambda s: tables.append(s) or _seed_table(s))
    states = _states(11, (4, 2), n)
    assert len(tables) == (n >= _TABLE_MIN_N)
    assert states == [substream(11, 4, 2, i).bit_generator.state for i in range(n)]
    # the streams are those of a PCG64 seeded with the derived seed directly
    assert states == [np.random.PCG64(derive_seed(11, 4, 2, i)).state for i in range(n)]
    assert _BATCH.get() is None


def test_nested_batches_see_their_own_keys():
    n = 2 * _TABLE_MIN_N
    keys = lambda i: [(5, i), (6, i), (5,), (5, i, 0)]

    def draw(i, rng):
        inner = _states(5, (9, i), n)
        # outer keys and keys of no batch, called from inside the inner draw loop
        outside = sample_many_indexed(
            lambda j, r: [substream(*key).bit_generator.state for key in keys(i)], n, 5, key_prefix=(3,)
        )
        here = [substream(*key).bit_generator.state for key in keys(i)]
        return rng.bit_generator.state, inner, outside[0], here

    batch = sample_many_indexed(draw, n, 5)
    for i, (state, inner, outside, here) in enumerate(batch):
        assert state == substream(5, i).bit_generator.state
        assert inner == [substream(5, 9, i, j).bit_generator.state for j in range(n)]
        assert outside == here == [np.random.PCG64(derive_seed(*key)).state for key in keys(i)]
    assert _BATCH.get() is None


def test_batch_table_is_dropped_when_a_draw_raises():
    def draw(i, rng):
        raise ValueError(i)

    with pytest.raises(ValueError):
        sample_many_indexed(draw, _TABLE_MIN_N, 3)
    assert _BATCH.get() is None


def test_concurrent_batches_keep_their_own_streams():
    # three threads, so two of them share a core on a two-core machine
    n, seeds = 3 * _TABLE_MIN_N, (1, 2, 3)
    expected = {seed: [substream(seed, 7, i).bit_generator.state for i in range(n)] for seed in seeds}
    mismatches, rounds = [], []

    def run(seed):
        deadline = time.monotonic() + 1.0
        while time.monotonic() < deadline:
            if _states(seed, (7,), n) != expected[seed]:
                mismatches.append(seed)
            rounds.append(seed)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(seed,)) for seed in seeds]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []
    assert set(rounds) == set(seeds)


def test_per_index_substreams_do_not_depend_on_n():
    draw = lambda rng: rng.random()
    assert sample_many(draw, 5, 7) == sample_many(draw, 9, 7)[:5]


def test_block_stream_serves_generator_blocks_as_plain_floats():
    rng = np.random.default_rng(3)
    calls = []

    def draw_block(k):
        calls.append(k)
        return rng.standard_normal(k)

    nxt = block_stream(draw_block, 3)
    values = [nxt() for _ in range(3)]
    assert calls == [3]
    values.append(nxt())  # the fourth value refills
    assert calls == [3, 3]
    values += [nxt() for _ in range(3)]
    assert calls == [3, 3, 3]

    ref = np.random.default_rng(3)
    expected = np.concatenate([ref.standard_normal(3) for _ in range(3)])
    assert values == expected[:7].tolist()
    assert all(type(v) is float for v in values)
