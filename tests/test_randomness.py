"""Unit tests for named random streams."""

import numpy as np

from repro.simulation.randomness import RandomStreams


class TestRandomStreams:
    def test_same_name_returns_same_generator(self):
        streams = RandomStreams(seed=1)
        assert streams.get("a") is streams.get("a")

    def test_different_names_are_independent(self):
        streams = RandomStreams(seed=1)
        a = streams.get("a").random(8)
        b = streams.get("b").random(8)
        assert not np.allclose(a, b)

    def test_reproducible_across_instances(self):
        first = RandomStreams(seed=42).get("radio.loss").random(16)
        second = RandomStreams(seed=42).get("radio.loss").random(16)
        assert np.array_equal(first, second)

    def test_creation_order_does_not_matter(self):
        one = RandomStreams(seed=42)
        one.get("x")
        a1 = one.get("a").random(4)
        two = RandomStreams(seed=42)
        a2 = two.get("a").random(4)
        assert np.array_equal(a1, a2)

    def test_different_seeds_differ(self):
        a = RandomStreams(seed=1).get("s").random(8)
        b = RandomStreams(seed=2).get("s").random(8)
        assert not np.allclose(a, b)

    def test_seed_property(self):
        assert RandomStreams(seed=9).seed == 9
