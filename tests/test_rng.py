"""SplitMix64 stream conformance against the independent reference."""

from __future__ import annotations

import random

import numpy as np

from swarmsim import RngStream, mix64, stream_seed
from swarmsim.rng import uniform_batch

from conftest import MASK64, reference_splitmix64


def test_first_outputs_match_reference():
    ref = reference_splitmix64(12345)
    stream = RngStream(12345)
    for _ in range(100):
        assert stream.next_u64() == next(ref)


def test_known_vector_seed_zero():
    # First outputs of SplitMix64(0), computed with the reference generator
    # and frozen here.
    ref = reference_splitmix64(0)
    expected = [next(ref) for _ in range(3)]
    stream = RngStream(0)
    got = [stream.next_u64() for _ in range(3)]
    assert got == expected
    assert got[0] == 0xE220A8397B1DCDAF  # widely published SplitMix64(0) output


def test_per_robot_stream_seed_derivation():
    master = 42
    for robot in (0, 1, 2, 77):
        expected_seed = (master ^ ((robot + 1) * 0x9E3779B97F4A7C15)) & MASK64
        assert stream_seed(master, robot) == expected_seed


def test_stream_seed_of_an_id_array_equals_the_scalar_form():
    ids = np.arange(7000, dtype=np.uint64)
    for master in (0, 1, 1 << 63, MASK64):
        seeds = stream_seed(master, ids)
        assert seeds.dtype == np.uint64
        assert seeds.tolist() == [stream_seed(master, i) for i in range(7000)], master


def test_per_robot_streams_differ_and_are_count_independent():
    a = RngStream(stream_seed(7, 0))
    b = RngStream(stream_seed(7, 1))
    assert [a.next_u64() for _ in range(5)] != [b.next_u64() for _ in range(5)]
    # robot 3's stream is the same whether the swarm has 4 or 4000 members
    assert stream_seed(7, 3) == stream_seed(7, 3)


def test_uniform_range_and_determinism():
    stream = RngStream(99)
    values = [stream.uniform() for _ in range(1000)]
    assert all(0.0 <= v < 1.0 for v in values)
    replay = RngStream(99)
    assert values == [replay.uniform() for _ in range(1000)]


def test_uniform_equals_integer_division():
    stream = RngStream(5)
    twin = RngStream(5)
    for _ in range(100):
        assert stream.uniform() == twin.next_u64() / 2**64


def test_state_advances_by_one_per_draw():
    stream = RngStream(1)
    s0 = stream.state
    stream.next_u64()
    s1 = stream.state
    assert s1 == (s0 + 0x9E3779B97F4A7C15) & MASK64


def test_mix64_is_one_shot():
    stream = RngStream(31337)
    assert mix64(31337) == stream.next_u64()


def _unmix(z: int) -> int:
    """The SplitMix64 state that outputs `z` (every step is invertible)."""

    def unxorshift(x: int, k: int) -> int:
        y = x
        for _ in range(64 // k + 1):
            y = x ^ (y >> k)
        return y

    z = unxorshift(z, 31)
    z = (z * pow(0x94D049BB133111EB, -1, 1 << 64)) & MASK64
    z = unxorshift(z, 27)
    z = (z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & MASK64
    return unxorshift(z, 30)


def test_unmix_inverts_one_step():
    for z in (0, 1, 2**63, MASK64, 0x0123456789ABCDEF):
        assert RngStream((_unmix(z) - 0x9E3779B97F4A7C15) & MASK64).next_u64() == z


def test_uniform_batch_matches_scalar_stream():
    rng = random.Random(2024)
    seeds = [rng.getrandbits(64) for _ in range(3000)]
    seeds += [MASK64 - k for k in range(64)]  # states near 2**64
    seeds += [(2**64 - 0x9E3779B97F4A7C15 + k) & MASK64 for k in range(-8, 8)]  # wrap to ~0
    seeds += [0, 1, 2**63 - 1, 2**63, stream_seed(7, 3)]
    # outputs on float rounding edges: 2**64 - 1 rounds up to 2**64 (u = 1.0),
    # 2**53 + 1 is a tie, small values stay exact
    for z in (MASK64, MASK64 - 1024, 2**64 - 2048, 2**53 + 1, 2**53 + 3, 2**63 + 1024, 1, 0):
        seeds.append((_unmix(z) - 0x9E3779B97F4A7C15) & MASK64)
    states = np.array(seeds, dtype=np.uint64)
    twins = [RngStream(s) for s in seeds]
    for _ in range(3):
        batch = uniform_batch(states)
        assert batch.dtype == np.float64
        expected = [t.uniform() for t in twins]
        assert [v.hex() for v in batch.tolist()] == [v.hex() for v in expected]
        # Advanced in place: the caller's array holds the twins' states.
        assert states.dtype == np.uint64
        assert states.tolist() == [t.state for t in twins]
    assert uniform_batch(np.empty(0, dtype=np.uint64)).shape == (0,)
