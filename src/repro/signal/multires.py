"""Multi-resolution summaries for graceful archive aging.

Section 4: "If storage is constrained on each sensor, graceful aging of
archived data can be enabled using wavelet-based multi-resolution techniques
[10]".  The idea (Ganesan et al., SenSys 2003) is to replace old raw data
with progressively coarser wavelet approximations: a summary at level *k*
keeps ``n / 2**k`` coefficients, so each aging step halves the footprint
while preserving the low-frequency structure queries usually want.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.signal.wavelets import (
    HAAR,
    Wavelet,
    dwt_max_level,
    dwt_multilevel,
    idwt_multilevel,
    pad_to_pow2,
)


@dataclass(frozen=True)
class MultiResolutionSummary:
    """A coarsened representation of an archived data segment.

    ``level`` 0 means full resolution (raw data kept verbatim);
    level *k* keeps only the level-*k* approximation band.
    """

    level: int
    original_length: int
    padded_length: int
    approx: tuple[float, ...]
    wavelet_name: str

    @property
    def size_values(self) -> int:
        """Number of stored values (the footprint unit used by aging)."""
        return len(self.approx)


def summarize(
    x: np.ndarray, level: int, wavelet: Wavelet = HAAR
) -> MultiResolutionSummary:
    """Build a level-*level* summary of segment *x*.

    Level 0 stores the data verbatim; deeper levels store only the
    approximation band of a *level*-deep DWT (details are discarded — this
    is lossy by design, resolution traded for footprint).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ValueError(f"expected non-empty 1-D segment, got shape {x.shape}")
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    if level == 0:
        return MultiResolutionSummary(
            level=0,
            original_length=x.size,
            padded_length=x.size,
            approx=tuple(float(v) for v in x),
            wavelet_name=wavelet.name,
        )
    padded, original_n = pad_to_pow2(x)
    max_level = dwt_max_level(padded.shape[0], wavelet)
    effective = min(level, max_level)
    if effective == 0:
        return summarize(x, 0, wavelet)
    coeffs = dwt_multilevel(padded, wavelet, effective)
    return MultiResolutionSummary(
        level=effective,
        original_length=original_n,
        padded_length=padded.shape[0],
        approx=tuple(float(v) for v in coeffs[0]),
        wavelet_name=wavelet.name,
    )


def reconstruct(summary: MultiResolutionSummary, wavelet: Wavelet = HAAR) -> np.ndarray:
    """Reconstruct a segment from its summary (details assumed zero)."""
    if wavelet.name != summary.wavelet_name:
        raise ValueError(
            f"summary built with {summary.wavelet_name!r}, "
            f"asked to reconstruct with {wavelet.name!r}"
        )
    if summary.level == 0:
        return np.asarray(summary.approx, dtype=np.float64)
    bands: list[np.ndarray] = [np.asarray(summary.approx, dtype=np.float64)]
    size = len(summary.approx)
    for _ in range(summary.level):
        bands.append(np.zeros(size, dtype=np.float64))
        size *= 2
    recon = idwt_multilevel(bands, wavelet)
    return recon[: summary.original_length]


def age_once(
    summary: MultiResolutionSummary, wavelet: Wavelet = HAAR
) -> MultiResolutionSummary:
    """Coarsen a summary by one more level (halving its footprint).

    Aging is idempotent at the deepest level: once a summary is a single
    coefficient it cannot shrink further and is returned unchanged.
    """
    current = np.asarray(summary.approx, dtype=np.float64)
    if current.size < 2 or current.size % 2 != 0:
        return summary
    coeffs = dwt_multilevel(current, wavelet, 1)
    return MultiResolutionSummary(
        level=summary.level + 1,
        original_length=summary.original_length,
        padded_length=summary.padded_length,
        approx=tuple(float(v) for v in coeffs[0]),
        wavelet_name=summary.wavelet_name,
    )
