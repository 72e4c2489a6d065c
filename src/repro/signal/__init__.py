"""Signal processing substrate: wavelets, denoising, compression, aging.

PRESTO's sensors batch readings and apply *wavelet denoising* before
transmission (Figure 2, "Batched Push w/ Wavelet Denoising" — citing
Vetterli & Kovacevic [12]) and age archived data into lower-resolution
wavelet summaries when flash fills (Section 4, citing Ganesan et al. [10]).
No wavelet library ships offline, so the discrete wavelet transform is
implemented here from the standard filter banks.
"""

from repro.signal.codecs import (
    delta_decode,
    delta_encode,
    dequantize,
    encoded_size_bytes,
    quantize,
    varint_size,
)
from repro.signal.compress import (
    CompressedBlock,
    compress_block,
    compressed_size_bytes,
    decompress_block,
)
from repro.signal.denoise import denoise, estimate_noise_sigma, universal_threshold
from repro.signal.multires import MultiResolutionSummary, reconstruct, summarize
from repro.signal.wavelets import (
    DB4,
    HAAR,
    Wavelet,
    dwt_max_level,
    dwt_multilevel,
    idwt_multilevel,
)

__all__ = [
    "HAAR",
    "DB4",
    "Wavelet",
    "dwt_max_level",
    "dwt_multilevel",
    "idwt_multilevel",
    "denoise",
    "estimate_noise_sigma",
    "universal_threshold",
    "CompressedBlock",
    "compress_block",
    "decompress_block",
    "compressed_size_bytes",
    "MultiResolutionSummary",
    "summarize",
    "reconstruct",
    "delta_encode",
    "delta_decode",
    "quantize",
    "dequantize",
    "varint_size",
    "encoded_size_bytes",
]
