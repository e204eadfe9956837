"""The stream contract: one (seed, tag, index) key, one fixed sequence of draws.

Draws repeat for a key, change when any one part of the key changes, match
pinned golden values (the map from key to output is part of the contract, so
a change to the derivation fails here), and adjacent replicate indices give
uncorrelated uniforms.
"""

import math

import numpy as np

from heavyagg import streams


def test_same_key_gives_same_draws():
    a = streams.stream(7, "streams/repeat", 2).random(1000)
    b = streams.stream(7, "streams/repeat", 2).random(1000)
    assert np.array_equal(a, b)


def test_each_part_of_the_key_changes_the_draws():
    base = streams.stream(7, "streams/key", 2).random(8)
    for seed, tag, index in ((8, "streams/key", 2), (7, "streams/key2", 2), (7, "streams/key", 3)):
        assert not np.array_equal(base, streams.stream(seed, tag, index).random(8)), (seed, tag, index)


def test_golden_draws():
    # the first four doubles of one fixed key; a change to the key hash, the
    # seeding or the bit generator re-draws every stream and fails here
    draws = streams.stream(2024, "streams/golden", 3).random(4)
    assert draws.tolist() == [0.9654642678345738, 0.6939230084378003, 0.8526600237556301, 0.14878384556165447]


def test_adjacent_indices_are_uncorrelated():
    n = 200_000
    draws = [streams.stream(1, "streams/adjacent", i).random(n) for i in range(4)]
    for a, b in zip(draws, draws[1:]):
        assert abs(np.corrcoef(a, b)[0, 1]) < 5.0 / math.sqrt(n)
