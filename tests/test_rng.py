"""Counter-keyed replicate draws: one block draw serves every Monte Carlo path."""

import numpy as np
import pytest

from splinesel._rng import replicate_block, replicate_normals, spectral_blocks
from splinesel.spectrum import BLOCK_ROWS


@pytest.mark.parametrize("n", [5, 31, 961])
@pytest.mark.parametrize("start,length", [(0, 1), (3, 7), (17, 2000)])
def test_block_rows_equal_single_replicate_draws(n, start, length):
    block = replicate_block(2024, n, start, start + length)
    assert block.shape == (length, n)
    for i in range(length):
        assert np.array_equal(block[i], replicate_normals(2024, n, start + i, n))


def test_block_rows_match_a_fresh_philox_stream():
    block = replicate_block(7, 31, 40, 43)
    for i, r in enumerate(range(40, 43)):
        bits = np.random.Philox(key=7, counter=[0, 0, 31, r])
        assert np.array_equal(block[i], np.random.Generator(bits).standard_normal(31))


@pytest.mark.parametrize("n", [5, 31, 961])
def test_block_into_out_matches_fresh_array(n):
    fresh = replicate_block(11, n, 5, 12)
    buf = np.full((7, n), np.nan)
    filled = replicate_block(11, n, 5, 12, out=buf)
    assert filled is buf
    assert np.array_equal(buf, fresh)


def test_block_into_leading_rows_of_larger_buffer():
    buf = np.zeros((10, 31))
    replicate_block(3, 31, 100, 104, out=buf[:4])
    assert np.array_equal(buf[:4], replicate_block(3, 31, 100, 104))
    assert not buf[4:].any()


def test_consecutive_blocks_share_no_state():
    first = replicate_block(5, 61, 0, 9)
    second = replicate_block(5, 61, 0, 9)
    assert np.array_equal(first, second)
    # A block drawn after another starting elsewhere is unchanged too.
    replicate_block(5, 61, 300, 310)
    assert np.array_equal(replicate_block(5, 61, 0, 9), first)


def test_keys_separate_streams():
    base = replicate_block(1, 31, 0, 2)
    assert not np.array_equal(base[0], base[1])
    assert not np.array_equal(base, replicate_block(2, 31, 0, 2))
    assert not np.array_equal(base[:, :5], replicate_block(1, 5, 0, 2))


@pytest.mark.parametrize("replicates", [1, BLOCK_ROWS, 2 * BLOCK_ROWS + 5])
def test_spectral_blocks_are_g_plus_replicate_rows(replicates):
    # Blocks of BLOCK_ROWS replicates counted from replicate 0, row r equal
    # to g + replicate_block's row r, every block in one reused buffer.
    g = np.linspace(-3.0, 3.0, 31)
    starts, buffers = [], set()
    for start, z in spectral_blocks(9, 31, replicates, g):
        stop = min(start + BLOCK_ROWS, replicates)
        assert z.shape == (stop - start, 31)
        assert np.array_equal(z, g + replicate_block(9, 31, start, stop))
        starts.append(start)
        buffers.add(z.__array_interface__["data"][0])
    assert starts == list(range(0, replicates, BLOCK_ROWS))
    assert len(buffers) == 1
