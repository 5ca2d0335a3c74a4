"""Stream-keying contract: same key, same draws; distinct keys, independent."""

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from rmsde.rng import (PURPOSE_COUPLING, PURPOSE_INITIAL, PURPOSE_NOISE,
                       RngStream)


def test_same_key_reproduces_bitwise():
    a = RngStream(123, 7, PURPOSE_NOISE).generator().standard_normal(64)
    b = RngStream(123, 7, PURPOSE_NOISE).generator().standard_normal(64)
    assert np.array_equal(a, b)


def test_generator_is_fresh_each_call():
    s = RngStream(5)
    first = s.generator().standard_normal(8)
    again = s.generator().standard_normal(8)
    assert np.array_equal(first, again)


def test_distinct_purposes_differ():
    x = RngStream(99, 3, PURPOSE_COUPLING).generator().standard_normal(32)
    y = RngStream(99, 3, PURPOSE_INITIAL).generator().standard_normal(32)
    z = RngStream(99, 3, PURPOSE_NOISE).generator().standard_normal(32)
    assert not np.array_equal(x, y)
    assert not np.array_equal(x, z)
    assert not np.array_equal(y, z)


def test_distinct_streams_differ():
    x = RngStream(99, 0).generator().standard_normal(32)
    y = RngStream(99, 1).generator().standard_normal(32)
    assert not np.array_equal(x, y)


def test_distinct_seeds_differ():
    x = RngStream(0).generator().standard_normal(32)
    y = RngStream(1).generator().standard_normal(32)
    assert not np.array_equal(x, y)


def test_draw_order_between_streams_is_irrelevant():
    # streams are value types: interleaving draws from two generators
    # must give the same numbers as draining them one after the other
    g1, g2 = RngStream(4, 0).generator(), RngStream(4, 1).generator()
    interleaved = ([g1.standard_normal() for _ in range(3)],
                   [g2.standard_normal() for _ in range(3)])
    h1, h2 = RngStream(4, 0).generator(), RngStream(4, 1).generator()
    seq1 = [h1.standard_normal() for _ in range(3)]
    seq2 = [h2.standard_normal() for _ in range(3)]
    assert interleaved == (seq1, seq2)


def test_seed_range_validation():
    with pytest.raises(ValueError):
        RngStream(-1)
    with pytest.raises(ValueError):
        RngStream(1 << 64)
    RngStream((1 << 64) - 1)  # top of the range is fine


def test_stream_and_purpose_must_be_non_negative():
    with pytest.raises(ValueError):
        RngStream(0, -1)
    with pytest.raises(ValueError):
        RngStream(0, 0, -2)


@given(st.integers(0, (1 << 64) - 1), st.integers(0, 1000), st.integers(0, 5))
def test_reproducible_for_any_key(seed, stream, purpose):
    a = RngStream(seed, stream, purpose).generator().integers(0, 1 << 31, size=4)
    b = RngStream(seed, stream, purpose).generator().integers(0, 1 << 31, size=4)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("s1,s2", [(1, 1), (3, 5), (7, 0), (40, 13)])
@pytest.mark.parametrize("c,n", [(1, 1), (3, 5), (8, 128)])
def test_consecutive_normal_draws_equal_one_draw(s1, s2, c, n):
    # the integrator draws a run's noise in step chunks; its bytes rest on this
    one = RngStream(5, 2, PURPOSE_NOISE).generator().standard_normal((s1 + s2, c, n))
    gen = RngStream(5, 2, PURPOSE_NOISE).generator()
    two = np.concatenate([gen.standard_normal((s1, c, n)), gen.standard_normal((s2, c, n))])
    assert one.tobytes() == two.tobytes()
