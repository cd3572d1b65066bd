"""Parity of the pure-Python PCG64 port against numpy, its oracle.

:mod:`repro.sim.rng` must reproduce ``numpy.random`` bit for bit: every
golden, report and arena document depends on the exact draws.  numpy is
a dev-only dependency, kept here as the reference implementation.
"""

import hashlib
import math
import pickle
import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.replacement import make_policy
from repro.sim.engine import Engine
from repro.sim.rng import Generator, SeedSequence

np = pytest.importorskip("numpy")

ONE_THIRD = 1 / 3

# entropy 0, small, wider than 64 bits, and packed ``(s << 8) | i``
seeds = st.one_of(
    st.just(0),
    st.integers(1, 1 << 16),
    st.integers(1 << 64, 1 << 160),
    st.builds(lambda s, i: (s << 8) | i, st.integers(0, 1 << 24), st.integers(0, 255)),
)
# the spawn keys Engine.rng derives: the first 8 bytes of sha256(name)
spawn_keys = st.one_of(
    st.just(()),
    st.text(min_size=1, max_size=12).map(
        lambda name: (int.from_bytes(hashlib.sha256(name.encode()).digest()[:8], "big"),)
    ),
)
probabilities = st.one_of(
    st.sampled_from(
        [1.0, 0.5, ONE_THIRD, math.nextafter(ONE_THIRD, 0.0), 0.25, 0.01, 1e-9, 5e-324]
    ),
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
)
ops = st.lists(
    st.one_of(
        st.tuples(st.just("random")),
        st.tuples(
            st.just("integers"),
            st.one_of(
                st.sampled_from([1, 2, 3, 1000, (1 << 32) - 1, 1 << 32, (1 << 32) + 1]),
                st.integers(1, 1 << 63),
            ),
        ),
        st.tuples(
            st.just("range"),
            st.integers(-(1 << 63), 1 << 62),
            st.one_of(st.integers(1, 64), st.integers(1, 1 << 62)),
        ),
        st.tuples(st.just("geometric"), probabilities),
    ),
    min_size=1,
    max_size=80,
)


def numpy_generator(entropy, spawn_key=()):
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy, spawn_key=spawn_key))
    )


def draw(generator, op):
    kind = op[0]
    if kind == "random":
        return generator.random()
    if kind == "integers":
        return int(generator.integers(op[1]))
    if kind == "range":
        low, span = op[1], op[2]
        return int(generator.integers(low, low + span))
    return int(generator.geometric(op[1]))


def assert_same_draws(ours, theirs, sequence):
    for op in sequence:
        mine, ref = draw(ours, op), draw(theirs, op)
        assert type(mine) is type(ref) and mine == ref, op


@given(entropy=seeds, spawn_key=spawn_keys, n_words=st.integers(1, 12))
def test_generate_state_matches_numpy(entropy, spawn_key, n_words):
    ours = SeedSequence(entropy, spawn_key=spawn_key).generate_state(n_words)
    ref = np.random.SeedSequence(entropy, spawn_key=spawn_key).generate_state(n_words)
    assert ours == [int(word) for word in ref]


@settings(max_examples=200)
@given(entropy=seeds, spawn_key=spawn_keys, sequence=ops)
def test_interleaved_draws_match_numpy(entropy, spawn_key, sequence):
    assert_same_draws(
        Generator(SeedSequence(entropy, spawn_key=spawn_key)),
        numpy_generator(entropy, spawn_key),
        sequence,
    )


@given(seed=seeds, name=st.text(min_size=1, max_size=16), sequence=ops)
def test_engine_streams_match_numpy(seed, name, sequence):
    spawn_key = int.from_bytes(hashlib.sha256(name.encode("utf-8")).digest()[:8], "big")
    assert_same_draws(
        Engine(seed=seed).rng(name), numpy_generator(seed, (spawn_key,)), sequence
    )


def test_half_word_buffer_survives_64_bit_draws():
    """A 32-bit draw buffers the upper half; 64-bit draws must not consume it."""
    sequence = [
        ("integers", 7),               # steps once, buffers the upper half
        ("random",),                   # a 64-bit draw, buffer untouched
        ("integers", 1 << 40),         # 64-bit Lemire path, buffer untouched
        ("geometric", 0.01),           # ziggurat: 64-bit draws only
        ("integers", 7),               # consumes the buffered half-word
        ("integers", 1 << 32),         # raw 32-bit path: steps again
        ("integers", 1 << 32),         # ... and consumes its upper half
    ]
    assert_same_draws(Generator(3), np.random.Generator(np.random.PCG64(3)), sequence)


def test_range_of_one_draws_nothing():
    ours = Generator(9)
    assert ours.integers(5, 6) == 5
    assert ours.integers(1) == 0
    assert_same_draws(ours, np.random.Generator(np.random.PCG64(9)), [("integers", 100)] * 4)


def test_geometric_on_both_sides_of_one_third():
    for p in (ONE_THIRD, math.nextafter(ONE_THIRD, 0.0), math.nextafter(ONE_THIRD, 1.0)):
        assert_same_draws(
            Generator(21), np.random.Generator(np.random.PCG64(21)), [("geometric", p)] * 500
        )


def test_pickle_round_trip_mid_stream():
    """Like numpy's, a Generator pickles mid-stream, buffered half-word too."""
    ours = Generator(SeedSequence(77, spawn_key=(5,)))
    ref = numpy_generator(77, (5,))
    head = [("integers", 1000), ("random",), ("integers", 3), ("integers", 3)]
    assert_same_draws(ours, ref, head)
    # the next 32-bit draw comes from the buffered upper half-word
    assert ref.bit_generator.state["has_uint32"] == 1
    clone = pickle.loads(pickle.dumps(ours))
    tail = [("integers", 1000), ("geometric", 0.2), ("random",)] * 20
    expected = [draw(ref, op) for op in tail]
    assert [draw(clone, op) for op in tail] == expected
    assert [draw(ours, op) for op in tail] == expected


def test_random_policy_victims_match_numpy():
    policy = make_policy("random", num_sets=4, assoc=8, seed=11)
    ref = np.random.Generator(np.random.PCG64(11))
    candidates = [[0, 1, 2, 3, 4, 5, 6, 7], [2, 5], [1, 3, 6], [4]]
    for i in range(200):
        ways = candidates[i % len(candidates)]
        assert policy.victim(i % 4, ways) == ways[int(ref.integers(len(ways)))]


@pytest.mark.parametrize(
    "call",
    [
        lambda g: g.integers(0),
        lambda g: g.integers(-3),
        lambda g: g.integers(5, 5),
        lambda g: g.integers(5, -(1 << 70)),
        lambda g: g.integers(-(1 << 63) - 1, 0),
        lambda g: g.integers(1 << 70, 1 << 71),
        lambda g: g.integers((1 << 63) + 1),
        lambda g: g.geometric(0.0),
        lambda g: g.geometric(1.5),
        lambda g: g.geometric(float("nan")),
    ],
)
def test_rejections_match_numpy(call):
    with pytest.raises(ValueError) as ref:
        call(np.random.Generator(np.random.PCG64(0)))
    with pytest.raises(ValueError, match=f"^{re.escape(str(ref.value))}$"):
        call(Generator(0))


def test_negative_entropy_rejected_like_numpy():
    with pytest.raises(ValueError, match="expected non-negative integer"):
        np.random.SeedSequence(-1)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        SeedSequence(-1)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        SeedSequence(1, spawn_key=(-2,))
