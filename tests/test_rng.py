"""The splitmix64 stream and its uniforms, against the formula in Python integers."""

from __future__ import annotations

import numpy as np
import pytest
from oracles import scalar_splitmix64, splitmix64, uniforms

from hwr import rng

# every count around the first two chunk boundaries; each is a prefix of the longest
COUNTS = [0, 1, rng.CHUNK - 1, rng.CHUNK, rng.CHUNK + 1, 2 * rng.CHUNK - 1, 2 * rng.CHUNK,
          2 * rng.CHUNK + 1]
# odd and chunk-sized blocks, and the gaussian projection's 2 * CHUNK
SIZES = [1000, rng.CHUNK - 1, rng.CHUNK, 2 * rng.CHUNK]


@pytest.fixture(scope="module", params=[0, 42, 2**64 - 1])
def stream(request) -> tuple[int, list[int]]:
    return request.param, scalar_splitmix64(request.param, max(COUNTS))


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("count", COUNTS)
def test_blocks_join_to_the_formula(stream, count, size):
    seed, outputs = stream
    drawn = splitmix64(seed, count, size)
    assert drawn.dtype == np.uint64
    assert drawn.tolist() == outputs[:count]


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("count", COUNTS)
def test_blocks_are_consecutive_and_full_but_the_last(count, size):
    spans = [(start, len(block)) for start, block in rng.blocks(1, count, size)]
    assert [start for start, _ in spans] == list(range(0, count, size))
    assert [n for _, n in spans] == [min(size, count - start) for start, _ in spans]


@pytest.mark.parametrize("first", [1, rng.CHUNK - 1, rng.CHUNK + 3])
@pytest.mark.parametrize("size", SIZES)
def test_blocks_from_an_offset_are_the_stream_from_there(stream, first, size):
    seed, outputs = stream
    count = len(outputs) - first
    spans = [(start, block.tolist()) for start, block in rng.blocks(seed, count, size, first)]
    assert [start for start, _ in spans] == list(range(0, count, size))
    assert [z for _, block in spans for z in block] == outputs[first:]


@pytest.mark.parametrize("count", COUNTS)
def test_uniforms_are_the_top_53_bits(stream, count):
    seed, outputs = stream
    expected = np.array([(z >> 11) * 2.0**-53 for z in outputs[:count]], dtype=np.float64)
    assert uniforms(seed, count).tobytes() == expected.tobytes()


@pytest.mark.parametrize("seed", [-1, -(2**64) - 1, 2**64 - 1 + 2**64, 2**70 + 42])
def test_any_integer_seed_draws_as_seed_mod_2_64(seed):
    count = rng.CHUNK + 1
    assert splitmix64(seed, count).tolist() == scalar_splitmix64(seed & (2**64 - 1), count)
