"""Discrete wavelet transform from first principles.

Implements the orthogonal DWT with periodic signal extension for the Haar and
Daubechies-4 families — the two used throughout the sensor-network storage
literature the paper cites ([10], [12]).  Orthogonality with periodic
extension gives *perfect reconstruction* and energy preservation, both of
which the test suite checks property-based.

The transform is expressed with the classic analysis/synthesis filter banks:

* analysis:  approximation ``a = (x * lo_d) downsample 2``,
             detail ``d = (x * hi_d) downsample 2``
* synthesis: ``x = (upsample(a) * lo_r) + (upsample(d) * hi_r)``, with
             ``lo_r`` / ``hi_r`` the time reverses of ``lo_d`` / ``hi_d``

All convolutions are circular, so an even-length input of length ``n``
produces exactly ``n/2`` approximation and ``n/2`` detail coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Wavelet:
    """An orthogonal wavelet defined by its decomposition low-pass filter."""

    name: str
    lo_d: tuple[float, ...]

    @property
    def hi_d(self) -> tuple[float, ...]:
        """High-pass decomposition filter via the alternating-flip relation."""
        lo = self.lo_d
        n = len(lo)
        return tuple(((-1.0) ** k) * lo[n - 1 - k] for k in range(n))

    @property
    def length(self) -> int:
        """Filter length (2 for Haar, 4 for db2/D4)."""
        return len(self.lo_d)


_SQRT2 = math.sqrt(2.0)
_SQRT3 = math.sqrt(3.0)

HAAR = Wavelet(name="haar", lo_d=(1.0 / _SQRT2, 1.0 / _SQRT2))

# Daubechies-4 (two vanishing moments); coefficients in decomposition order.
DB4 = Wavelet(
    name="db4",
    lo_d=(
        (1.0 + _SQRT3) / (4.0 * _SQRT2),
        (3.0 + _SQRT3) / (4.0 * _SQRT2),
        (3.0 - _SQRT3) / (4.0 * _SQRT2),
        (1.0 - _SQRT3) / (4.0 * _SQRT2),
    ),
)


def _circular_convolve_downsample(x: np.ndarray, taps: tuple[float, ...]) -> np.ndarray:
    """Circular convolution with *taps* followed by downsampling by two.

    Output index ``k`` is ``sum_j taps[j] * x[(2k + j) mod n]`` — the
    standard polyphase form for periodic extension.
    """
    n = x.shape[0]
    half = n // 2
    out = np.zeros(half, dtype=np.float64)
    for j, tap in enumerate(taps):
        out += tap * x[(2 * np.arange(half) + j) % n]
    return out


def _adjoint_upsample_convolve(
    coeffs: np.ndarray, taps: tuple[float, ...], n: int
) -> np.ndarray:
    """Adjoint of :func:`_circular_convolve_downsample`.

    The analysis operator is orthogonal (its rows are the even shifts of the
    filters), so the inverse is the transpose: coefficient ``k`` contributes
    ``taps[j]`` at output position ``(2k + j) mod n`` — the same filters and
    the same indexing as analysis, scattered instead of gathered.
    """
    out = np.zeros(n, dtype=np.float64)
    for j, tap in enumerate(taps):
        idx = (2 * np.arange(coeffs.shape[0]) + j) % n
        np.add.at(out, idx, tap * coeffs)
    return out


def dwt_single(x: np.ndarray, wavelet: Wavelet) -> tuple[np.ndarray, np.ndarray]:
    """One analysis level: return ``(approximation, detail)``.

    The input length must be even (pad upstream if necessary).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"expected 1-D signal, got shape {x.shape}")
    if x.shape[0] % 2 != 0:
        raise ValueError(f"signal length must be even, got {x.shape[0]}")
    if x.shape[0] < wavelet.length:
        raise ValueError(
            f"signal length {x.shape[0]} shorter than filter {wavelet.length}"
        )
    approx = _circular_convolve_downsample(x, wavelet.lo_d)
    detail = _circular_convolve_downsample(x, wavelet.hi_d)
    return approx, detail


def idwt_single(
    approx: np.ndarray, detail: np.ndarray, wavelet: Wavelet
) -> np.ndarray:
    """One synthesis level, inverse of :func:`dwt_single`."""
    approx = np.asarray(approx, dtype=np.float64)
    detail = np.asarray(detail, dtype=np.float64)
    if approx.shape != detail.shape:
        raise ValueError(
            f"approx/detail length mismatch: {approx.shape} vs {detail.shape}"
        )
    n = 2 * approx.shape[0]
    return _adjoint_upsample_convolve(
        approx, wavelet.lo_d, n
    ) + _adjoint_upsample_convolve(detail, wavelet.hi_d, n)


def dwt_max_level(n: int, wavelet: Wavelet) -> int:
    """Deepest decomposition such that every transformed level is even and
    at least as long as the filter (circular convolution stays well-posed)."""
    level = 0
    length = n
    while length % 2 == 0 and length >= wavelet.length:
        length //= 2
        level += 1
    return level


def dwt_multilevel(
    x: np.ndarray, wavelet: Wavelet, levels: int | None = None
) -> list[np.ndarray]:
    """Multi-level DWT.

    Returns ``[approx_L, detail_L, detail_L-1, ..., detail_1]`` in the
    conventional coarse-to-fine order.  ``levels=None`` decomposes as deep
    as the signal allows.
    """
    x = np.asarray(x, dtype=np.float64)
    max_level = dwt_max_level(x.shape[0], wavelet)
    if levels is None:
        levels = max_level
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    if levels > max_level:
        raise ValueError(
            f"requested {levels} levels but signal of length {x.shape[0]} "
            f"supports at most {max_level} with {wavelet.name}"
        )
    details: list[np.ndarray] = []
    approx = x
    for _ in range(levels):
        approx, detail = dwt_single(approx, wavelet)
        details.append(detail)
    return [approx] + list(reversed(details))


def idwt_multilevel(coeffs: list[np.ndarray], wavelet: Wavelet) -> np.ndarray:
    """Inverse of :func:`dwt_multilevel` (same coefficient ordering)."""
    if len(coeffs) < 2:
        raise ValueError("need at least [approx, detail] to reconstruct")
    approx = np.asarray(coeffs[0], dtype=np.float64)
    for detail in coeffs[1:]:
        approx = idwt_single(approx, np.asarray(detail, dtype=np.float64), wavelet)
    return approx


def pad_to_pow2(x: np.ndarray) -> tuple[np.ndarray, int]:
    """Pad *x* at the end by edge-replication to the next power of two.

    Returns ``(padded, original_length)``; the caller slices the inverse
    transform back with the stored length.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    if n == 0:
        raise ValueError("cannot pad an empty signal")
    target = 1 << max(1, (n - 1).bit_length())
    if target == n:
        return x.copy(), n
    padded = np.concatenate([x, np.full(target - n, x[-1], dtype=np.float64)])
    return padded, n
