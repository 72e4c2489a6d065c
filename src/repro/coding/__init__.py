"""Erasure-coded replica sync: GF(256) Reed-Solomon codec, wire layout, fragment store."""

from repro.coding.fragments import (
    CodingCounters,
    CodingReport,
    FragmentStore,
    payload_matrix,
)
from repro.coding.gf256 import gf_div, gf_inv, gf_mul, self_check
from repro.coding.rs import (
    MAX_FRAGMENTS,
    IrrecoverableError,
    encoding_matrix,
    rs_decode,
    rs_encode,
)
from repro.coding.wire import SensorRecord, apply_delta, parse_payload, serialize_payload

__all__ = [
    "MAX_FRAGMENTS",
    "CodingCounters",
    "CodingReport",
    "FragmentStore",
    "IrrecoverableError",
    "SensorRecord",
    "apply_delta",
    "encoding_matrix",
    "gf_div",
    "gf_inv",
    "gf_mul",
    "parse_payload",
    "payload_matrix",
    "rs_decode",
    "rs_encode",
    "self_check",
    "serialize_payload",
]
