"""Byte-level codecs used to size sensor payloads.

PRESTO never ships raw floats over the radio: readings are quantised to the
sensor's ADC precision, delta-encoded (consecutive readings of a physical
process are close), and varint-packed.  These codecs are exact —
encode/decode round-trips are property-tested — and the *size* functions are
what the energy model multiplies by joules-per-byte.
"""

from __future__ import annotations

import numpy as np


def quantize(values: np.ndarray, step: float) -> np.ndarray:
    """Map floats to integer quantisation bins of width *step*."""
    if step <= 0:
        raise ValueError(f"quantisation step must be positive, got {step!r}")
    values = np.asarray(values, dtype=np.float64)
    return np.round(values / step).astype(np.int64)


def dequantize(bins: np.ndarray, step: float) -> np.ndarray:
    """Inverse of :func:`quantize` (to bin centres)."""
    if step <= 0:
        raise ValueError(f"quantisation step must be positive, got {step!r}")
    return np.asarray(bins, dtype=np.float64) * step


def delta_encode(values: np.ndarray) -> np.ndarray:
    """First value verbatim, then successive differences."""
    values = np.asarray(values, dtype=np.int64)
    if values.size == 0:
        return values.copy()
    out = np.empty_like(values)
    out[0] = values[0]
    np.subtract(values[1:], values[:-1], out=out[1:])
    return out


def delta_decode(deltas: np.ndarray) -> np.ndarray:
    """Inverse of :func:`delta_encode` (cumulative sum)."""
    deltas = np.asarray(deltas, dtype=np.int64)
    if deltas.size == 0:
        return deltas.copy()
    return np.cumsum(deltas)


def _zigzag(value: int) -> int:
    """Map signed to unsigned so small magnitudes get small codes."""
    return (value << 1) ^ (value >> 63) if value < 0 else value << 1


def varint_size(value: int) -> int:
    """Bytes needed to store a signed integer as a zig-zag LEB128 varint."""
    unsigned = _zigzag(int(value))
    size = 1
    while unsigned >= 0x80:
        unsigned >>= 7
        size += 1
    return size


def encoded_size_bytes(values: np.ndarray, step: float) -> int:
    """Payload size of quantise→delta→varint encoding of *values*.

    This is the codec used by the "batched push without wavelet compression"
    strategy: lossless at ADC precision, exploiting temporal smoothness only.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return 0
    deltas = delta_encode(quantize(values, step))
    return int(sum(varint_size(int(d)) for d in deltas))
