"""Lossy wavelet compression of reading batches.

The sensor-side pipeline for "Batched Push w/ Wavelet Denoising" in Figure 2:

1. pad the batch to a power of two and take a multi-level DWT;
2. soft-threshold detail coefficients (denoising — noise never reaches
   the radio);
3. quantise the surviving coefficients to the query precision;
4. encode ``(band, index, value)`` triples compactly.

Decompression inverts 4→1 and yields a batch whose error against the
*denoised* signal is bounded by the quantisation step.  The byte size
returned by :func:`compressed_size_bytes` is what the energy model charges
the radio for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.signal.codecs import varint_size
from repro.signal.denoise import estimate_noise_sigma, soft_threshold, universal_threshold
from repro.signal.wavelets import (
    DB4,
    Wavelet,
    dwt_multilevel,
    idwt_multilevel,
    pad_to_pow2,
)


@dataclass(frozen=True)
class CompressedBlock:
    """A compressed batch of readings.

    ``band_sizes`` records the coefficient layout so decompression can
    rebuild the exact pyramid; ``entries`` holds ``(flat_index,
    quantised_value)`` for every coefficient that survived thresholding.
    """

    original_length: int
    padded_length: int
    band_sizes: tuple[int, ...]
    quant_step: float
    entries: tuple[tuple[int, int], ...]
    wavelet_name: str


def compress_block(
    x: np.ndarray,
    quant_step: float = 0.05,
    wavelet: Wavelet = DB4,
    denoise_threshold: float | None = None,
) -> CompressedBlock:
    """Denoise + compress a batch of readings.

    *quant_step* is the reconstruction precision in signal units (e.g.
    0.05 °C); *denoise_threshold* defaults to the universal threshold.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ValueError(f"expected a non-empty 1-D batch, got shape {x.shape}")
    if quant_step <= 0:
        raise ValueError(f"quant_step must be positive, got {quant_step!r}")
    if x.size < 4:
        # Too short for a transform: store raw quantised samples as the
        # "approximation band" with no details.
        bins = np.round(x / quant_step).astype(np.int64)
        entries = tuple((i, int(b)) for i, b in enumerate(bins))
        return CompressedBlock(
            original_length=x.size,
            padded_length=x.size,
            band_sizes=(x.size,),
            quant_step=quant_step,
            entries=entries,
            wavelet_name=wavelet.name,
        )
    padded, original_n = pad_to_pow2(x)
    coeffs = dwt_multilevel(padded, wavelet)
    if denoise_threshold is None:
        sigma = estimate_noise_sigma(coeffs[-1])
        denoise_threshold = universal_threshold(sigma, padded.shape[0])
    cleaned = [coeffs[0]] + [
        soft_threshold(band, denoise_threshold) for band in coeffs[1:]
    ]
    band_sizes = tuple(band.size for band in cleaned)
    flat = np.concatenate(cleaned)
    bins = np.round(flat / quant_step).astype(np.int64)
    entries = tuple((int(i), int(b)) for i, b in enumerate(bins) if b != 0)
    return CompressedBlock(
        original_length=original_n,
        padded_length=padded.shape[0],
        band_sizes=band_sizes,
        quant_step=quant_step,
        entries=entries,
        wavelet_name=wavelet.name,
    )


def decompress_block(block: CompressedBlock, wavelet: Wavelet = DB4) -> np.ndarray:
    """Reconstruct the (denoised, quantised) batch from a compressed block."""
    if wavelet.name != block.wavelet_name:
        raise ValueError(
            f"block was compressed with {block.wavelet_name!r}, "
            f"asked to decompress with {wavelet.name!r}"
        )
    total = sum(block.band_sizes)
    flat = np.zeros(total, dtype=np.float64)
    for index, value in block.entries:
        flat[index] = value * block.quant_step
    if len(block.band_sizes) == 1:
        return flat[: block.original_length]
    bands: list[np.ndarray] = []
    offset = 0
    for size in block.band_sizes:
        bands.append(flat[offset : offset + size])
        offset += size
    recon = idwt_multilevel(bands, wavelet)
    return recon[: block.original_length]


def compressed_size_bytes(block: CompressedBlock) -> int:
    """Wire size of a compressed block.

    Layout: a small fixed header (original length, padded length, level
    count, quant step) plus delta-coded coefficient indices and varint
    values.  The same sizing is used by the benchmarks and the MAC layer.
    """
    header = 2 + 2 + 1 + 4  # lengths (u16 x2), levels (u8), quant step (f32)
    size = header
    previous_index = 0
    for index, value in block.entries:
        size += varint_size(index - previous_index)
        size += varint_size(value)
        previous_index = index
    return size


def compression_error(block: CompressedBlock, x: np.ndarray) -> float:
    """RMS error of the reconstruction against the *original* batch."""
    from repro.signal.wavelets import HAAR

    wavelet = DB4 if block.wavelet_name == "db4" else HAAR
    recon = decompress_block(block, wavelet=wavelet)
    x = np.asarray(x, dtype=np.float64)
    if recon.shape != x.shape:
        raise ValueError(f"shape mismatch: {recon.shape} vs {x.shape}")
    return float(np.sqrt(np.mean((recon - x) ** 2)))
