"""The portable generator must match the published splitmix64 outputs, and
its block draw must match the scalar draws bit for bit."""

import warnings

import numpy as np
import pytest

from specfact.rng import SplitMix64

# Reference sequences from the canonical splitmix64.c test program.
SEED0_SEQUENCE = [
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
]
SEED1234567_SEQUENCE = [
    6457827717110365317,
    3203168211198807973,
    9817491932198370423,
]


def test_reference_sequence_seed_zero():
    stream = SplitMix64(0)
    assert [stream.next_u64() for _ in range(3)] == SEED0_SEQUENCE


def test_reference_sequence_seed_1234567():
    stream = SplitMix64(1234567)
    assert [stream.next_u64() for _ in range(3)] == SEED1234567_SEQUENCE


def test_uniform_in_unit_interval():
    stream = SplitMix64(99)
    draws = [stream.uniform() for _ in range(2000)]
    assert all(0.0 <= u < 1.0 for u in draws)
    assert abs(sum(draws) / len(draws) - 0.5) < 0.05


def test_normal_moments():
    stream = SplitMix64(7)
    draws = [stream.normal() for _ in range(20000)]
    mean = sum(draws) / len(draws)
    var = sum((x - mean) ** 2 for x in draws) / len(draws)
    assert abs(mean) < 0.05
    assert abs(var - 1.0) < 0.05


def test_streams_are_reproducible():
    a = SplitMix64(123)
    b = SplitMix64(123)
    assert [a.normal() for _ in range(50)] == [b.normal() for _ in range(50)]
    assert a.integer(17) == b.integer(17)


def test_integer_range():
    stream = SplitMix64(5)
    assert all(0 <= stream.integer(7) < 7 for _ in range(200))


@pytest.mark.parametrize("n", [0, -3])
def test_integer_rejects_an_empty_range(n):
    with pytest.raises(ValueError, match="^n must be positive$"):
        SplitMix64(0).integer(n)


# Seeds at both ends of the state space, one whose Weyl sequence wraps past
# 2**64 at its third output, and a spread of others.
_spread = SplitMix64(42)
BLOCK_SEEDS = ([0, 1, 1234567, 2**63 - 1, 2**63, 2**64 - 1, -3 * 0x9E3779B97F4A7C15 % 2**64]
               + [_spread.next_u64() for _ in range(33)])


@pytest.mark.parametrize("spare", [False, True], ids=["fresh", "spare-pending"])
@pytest.mark.parametrize("n", [0, 1, 2, 7, 2176])
def test_normals_is_n_normal_calls_bit_for_bit(n, spare):
    for seed in BLOCK_SEEDS:
        block, scalar = SplitMix64(seed), SplitMix64(seed)
        if spare:
            assert block.normal() == scalar.normal()
        with warnings.catch_warnings():
            # A uint64 scalar that overflows warns; the block draw must wrap
            # in arrays only.
            warnings.simplefilter("error")
            values = block.normals(n)
        assert values.dtype == np.float64 and values.shape == (n,)
        expected = np.array([scalar.normal() for _ in range(n)], dtype=np.float64)
        assert values.tobytes() == expected.tobytes()
        # The stream goes on where n scalar calls leave it, spare branch first.
        after = [block.normal(), block.next_u64(), block.uniform(), block.normal(),
                 block.normal()]
        assert after == [scalar.normal(), scalar.next_u64(), scalar.uniform(),
                         scalar.normal(), scalar.normal()]


def test_consecutive_blocks_continue_one_stream():
    block, scalar = SplitMix64(2024), SplitMix64(2024)
    values = np.concatenate([block.normals(n) for n in (3, 0, 5, 1, 1, 8)])
    assert values.tolist() == [scalar.normal() for _ in range(18)]
