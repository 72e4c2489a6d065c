"""Oracle for the replica-sync ship side: one generation's payload and fragments.

A frozen copy of the element-by-element writer and the per-coefficient
encoder the wire layout and the fragment store were first written with:

* :func:`serialize_payload` walks every record's declared-state element,
  packing a scalar as one ``<f8`` and an array as its ``<f8`` bytes, and
  writes each record's columns through ``astype().tobytes()``;
* :func:`encode` stripes the payload into a zero-padded ``(k, L)`` byte
  matrix and encodes it with one product-table row gather per nonzero
  coefficient, keeping the *live* fragment rows.

The production writer and encoder must produce the same bytes for every
generation (``tests/test_wire_equivalence.py``).
"""

from __future__ import annotations

import struct

import numpy as np

from repro.coding.gf256 import GF_MUL
from repro.coding.rs import encoding_matrix
from repro.coding.wire import WIRE_VERSION

_PAYLOAD = struct.Struct("<HI")
_RECORD = struct.Struct("<qdIIBH")
_SCALAR = struct.Struct("<d")
_FLOAT = np.dtype("<f8")
_CODE = np.dtype("i1")


def serialize_payload(records) -> bytes:
    """One generation's records in the wire layout, element by element."""
    chunks = [_PAYLOAD.pack(WIRE_VERSION, len(records))]
    for record in records:
        lengths: list[int] = []
        data: list[bytes] = []
        for element in record.state:
            if isinstance(element, np.ndarray):
                lengths.append(element.size)
                data.append(element.astype(_FLOAT, copy=False).tobytes())
            else:
                lengths.append(-1)
                data.append(_SCALAR.pack(element))
        chunks += (
            _RECORD.pack(
                record.sensor,
                record.first_s,
                record.kept,
                record.timestamps.size,
                record.family,
                len(lengths),
            ),
            struct.pack(f"<{len(lengths)}i", *lengths),
            record.timestamps.astype(_FLOAT, copy=False).tobytes(),
            record.values.astype(_FLOAT, copy=False).tobytes(),
            record.stds.astype(_FLOAT, copy=False).tobytes(),
            record.codes.astype(_CODE, copy=False).tobytes(),
            *data,
        )
    return b"".join(chunks)


def payload_matrix(payload: bytes, k: int) -> np.ndarray:
    """Stripe *payload* into a zero-padded ``(k, L)`` byte matrix."""
    length = max(len(payload), 1)
    width = -(-length // k)
    buffer = np.zeros(k * width, dtype=np.uint8)
    buffer[: len(payload)] = np.frombuffer(payload, dtype=np.uint8)
    return buffer.reshape(k, width)


def gf_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """GF(256) matrix product, one product-table row gather per coefficient."""
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.uint8)
    for r, coefficients in enumerate(np.asarray(a, dtype=np.uint8).tolist()):
        for t, coefficient in enumerate(coefficients):
            if coefficient:
                out[r] ^= GF_MUL[coefficient].take(b[t])
    return out


def rs_encode(data: np.ndarray, n: int) -> np.ndarray:
    """The ``(n, L)`` systematic fragments of a ``(k, L)`` byte matrix."""
    k = data.shape[0]
    fragments = np.empty((n, data.shape[1]), dtype=np.uint8)
    fragments[:k] = data
    if n > k:
        fragments[k:] = gf_matmul(encoding_matrix(k, n)[k:], data)
    return fragments


def encode(payload: bytes, k: int, n: int, live) -> np.ndarray:
    """The fragments one generation ships: the *live* rows of its code."""
    return rs_encode(payload_matrix(payload, k), n)[list(live)]
