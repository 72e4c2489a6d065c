"""Unit + property tests for the byte-level codecs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.signal.codecs import (
    delta_decode,
    delta_encode,
    dequantize,
    encoded_size_bytes,
    quantize,
    varint_size,
)


class TestQuantize:
    def test_roundtrip_error_bounded_by_half_step(self, rng):
        values = rng.uniform(-100, 100, 256)
        bins = quantize(values, 0.1)
        recon = dequantize(bins, 0.1)
        assert np.max(np.abs(recon - values)) <= 0.05 + 1e-12

    def test_zero_step_rejected(self):
        with pytest.raises(ValueError):
            quantize(np.zeros(4), 0.0)
        with pytest.raises(ValueError):
            dequantize(np.zeros(4), -1.0)


class TestDelta:
    def test_roundtrip(self, rng):
        values = rng.integers(-1000, 1000, 128)
        np.testing.assert_array_equal(delta_decode(delta_encode(values)), values)

    def test_empty(self):
        assert delta_encode(np.zeros(0, dtype=np.int64)).size == 0
        assert delta_decode(np.zeros(0, dtype=np.int64)).size == 0

    def test_constant_series_gives_zero_deltas(self):
        deltas = delta_encode(np.full(10, 42, dtype=np.int64))
        assert deltas[0] == 42
        assert np.all(deltas[1:] == 0)

    @given(st.lists(st.integers(-(2**40), 2**40), min_size=0, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_property_roundtrip(self, values):
        arr = np.asarray(values, dtype=np.int64)
        np.testing.assert_array_equal(delta_decode(delta_encode(arr)), arr)


class TestVarint:
    def test_small_values_one_byte(self):
        for value in (-63, -1, 0, 1, 63):
            assert varint_size(value) == 1

    def test_larger_values_grow(self):
        assert varint_size(64) == 2
        assert varint_size(10_000) == 3
        assert varint_size(-10_000) == 3

    def test_monotone_in_magnitude(self):
        sizes = [varint_size(1 << k) for k in range(0, 40, 7)]
        assert sizes == sorted(sizes)


class TestEncodedSize:
    def test_smooth_data_compresses_well(self, rng):
        t = np.arange(512)
        smooth = 20.0 + 0.001 * t
        size = encoded_size_bytes(smooth, step=0.05)
        assert size < 512 * 2  # far below 8 bytes/sample raw

    def test_empty_is_zero(self):
        assert encoded_size_bytes(np.zeros(0), step=0.1) == 0

    def test_rougher_data_costs_more(self, rng):
        smooth = np.linspace(0, 1, 256)
        rough = rng.normal(0, 10, 256)
        assert encoded_size_bytes(rough, 0.05) > encoded_size_bytes(smooth, 0.05)
