"""Unit tests for multi-resolution summaries (archive aging)."""

import numpy as np
import pytest

from repro.signal.multires import age_once, reconstruct, summarize


@pytest.fixture
def segment(rng):
    t = np.arange(256)
    return 20.0 + np.sin(2 * np.pi * t / 128) * 3.0 + rng.normal(0, 0.2, 256)


class TestSummarize:
    def test_level_zero_is_verbatim(self, segment):
        summary = summarize(segment, 0)
        np.testing.assert_array_equal(reconstruct(summary), segment)

    def test_each_level_halves_footprint(self, segment):
        sizes = [summarize(segment, k).size_values for k in range(4)]
        assert sizes == [256, 128, 64, 32]

    def test_reconstruction_length_preserved(self, segment):
        for level in (1, 2, 4):
            assert reconstruct(summarize(segment, level)).shape == segment.shape

    def test_level_clipped_to_max(self):
        x = np.arange(8, dtype=float)
        summary = summarize(x, 99)
        assert summary.level <= 3
        assert summary.size_values >= 1

    def test_mean_preserved_at_depth(self, segment):
        # Haar approximations preserve the segment mean
        recon = reconstruct(summarize(segment, 4))
        assert np.mean(recon) == pytest.approx(np.mean(segment), rel=1e-6)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            summarize(np.zeros(0), 1)
        with pytest.raises(ValueError):
            summarize(np.zeros(8), -1)


class TestAgeOnce:
    def test_one_more_level(self, segment):
        summary = summarize(segment, 1)
        aged = age_once(summary)
        assert aged.level == 2
        assert aged.size_values == summary.size_values // 2

    def test_idempotent_at_floor(self):
        summary = summarize(np.asarray([1.0, 2.0]), 1)
        once = age_once(summary)
        assert age_once(once).size_values == once.size_values

    def test_aging_preserves_time_span_metadata(self, segment):
        summary = summarize(segment, 1)
        aged = age_once(summary)
        assert aged.original_length == summary.original_length

    def test_aging_equivalent_to_direct_summary(self, segment):
        """Aging level-1 -> level-2 equals summarising at level 2 directly."""
        via_aging = age_once(summarize(segment, 1))
        direct = summarize(segment, 2)
        np.testing.assert_allclose(via_aging.approx, direct.approx, atol=1e-9)
