"""Stream derivation and per-index batch sampling."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fptsim.errors import ParameterError
from fptsim.rng import (
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
