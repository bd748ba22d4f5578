import pytest

from conetheta import rng
from conetheta.rng import SplitMix64

_MASK = (1 << 64) - 1


def _scalar_splitmix64(seed, count):
    """The splitmix64 recurrence one output at a time, over Python ints."""
    state, out = seed & _MASK, []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & _MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        out.append(z ^ (z >> 31))
    return out


@pytest.mark.parametrize("seed", [0, 1, rng.DEFAULT_SEED, 987654321, -5, 2**63 + 12345, _MASK])
def test_blocks_match_the_scalar_recurrence(seed):
    # 10,000 draws cross 39 block boundaries and wrap the
    # state past 2**64; numpy overflow warnings would fail the test
    stream = SplitMix64(seed)
    assert [stream.next_u64() for _ in range(10_000)] == _scalar_splitmix64(seed, 10_000)


def test_draw_kinds_share_one_stream():
    stream, ref = SplitMix64(42), _scalar_splitmix64(42, 4)
    assert stream.next_float() == (ref[0] >> 11) * 2.0**-53
    assert stream.next_int(-2, 2) == -2 + ref[1] % 5
    assert stream.choice("abc") == "abc"[ref[2] % 3]
    assert stream.next_u64() == ref[3]
