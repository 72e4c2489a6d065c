"""The replica-sync wire layout: one generation's per-sensor records as bytes.

A generation is a *delta* against the owner's previous generation; a
keyframe is the delta with no base (every record keeps nothing).  The
layout is explicit little-endian with no pickle, so its bytes depend on
the shipped values alone::

    payload  := version:u16  records:u32  record*
    record   := sensor:i64  first_s:f64  kept:u32  rows:u32  family:u8
                n_state:u16
                length:i32 * n_state            (-1: a scalar element)
                timestamps:f64 * rows  values:f64 * rows  stds:f64 * rows
                codes:i8 * rows
                state:f64 * (sum of element sizes)

``rows`` are the newest cache entries written since the previous export;
``kept`` counts the previous generation's entries, from ``first_s`` on,
that precede them unchanged in the new tail (:func:`apply_delta`).
``family`` tags the tracker's model family (0: no tracker) and ``state``
is the tracker's declared state.
"""

from __future__ import annotations

import struct
from collections.abc import Sequence
from itertools import repeat
from operator import length_hint
from typing import NamedTuple

import numpy as np

#: layout version written into every payload; a reader rejects others
WIRE_VERSION = 1

_PAYLOAD = struct.Struct("<HI")
_RECORD = struct.Struct("<qdIIBH")
_FLOAT = np.dtype("<f8")
_CODE = np.dtype("i1")
_COLUMNS = (_FLOAT, _FLOAT, _FLOAT, _CODE)


class SensorRecord(NamedTuple):
    """One sensor's replicated state in one generation.

    The four columns are the shipped cache rows, oldest first, as
    one-dimensional C-contiguous arrays; a record that keeps nothing
    (``kept == 0``) holds its sensor's whole tail.  ``state`` is the
    tracker's declared state: each element a scalar or a one-dimensional
    array of floats.
    """

    sensor: int
    first_s: float
    kept: int
    timestamps: np.ndarray
    values: np.ndarray
    stds: np.ndarray
    codes: np.ndarray
    family: int
    state: tuple


class _Structs(dict):
    """One precompiled struct per count, from a format with one ``{}``."""

    def __init__(self, layout: str) -> None:
        super().__init__()
        self.layout = layout

    def __missing__(self, count: int) -> struct.Struct:
        compiled = self[count] = struct.Struct(self.layout.format(count))
        return compiled


#: a record's fixed fields and its state lengths, per state arity
_HEADERS = _Structs(_RECORD.format + "{}i")


def serialize_payload(records: Sequence[SensorRecord]) -> bytes:
    """One generation's records in the wire layout.

    A record is one header pack (its fixed fields and state lengths), its
    four columns as buffers and its state's floats in one concatenation,
    so the rows are copied once, into the payload.  The columns may be
    views of live cache rows: they are read here and nowhere later.  A
    state element that is neither a scalar nor a one-dimensional array
    raises ``ValueError``.
    """
    chunks: list = [_PAYLOAD.pack(WIRE_VERSION, len(records))]
    for sensor, first_s, kept, timestamps, values, stds, codes, family, state in records:
        lengths = [*map(length_hint, state, repeat(-1))]   # an array's length, else -1
        arity = len(lengths)
        if (timestamps.dtype, values.dtype, stds.dtype, codes.dtype) != _COLUMNS:
            timestamps, values, stds, codes = map(
                np.ascontiguousarray, (timestamps, values, stds, codes), _COLUMNS
            )
        chunks += (
            _HEADERS[arity].pack(sensor, first_s, kept, timestamps.size, family, arity, *lengths),
            timestamps,
            values,
            stds,
            codes,
        )
        if state:
            floats = np.concatenate(state, axis=None, dtype=_FLOAT)
            if floats.size != sum(map(abs, lengths)):   # a scalar's -1 is one float
                raise ValueError(
                    f"sensor {sensor}: a state element is neither a scalar "
                    "nor a one-dimensional array"
                )
            chunks.append(floats)
    return b"".join(chunks)


def parse_payload(payload: bytes) -> list[SensorRecord]:
    """The records :func:`serialize_payload` wrote (columns are read-only views)."""
    version, count = _PAYLOAD.unpack_from(payload, 0)
    if version != WIRE_VERSION:
        raise ValueError(f"wire version {version}, expected {WIRE_VERSION}")
    offset = _PAYLOAD.size
    records: list[SensorRecord] = []
    for _ in range(count):
        sensor, first_s, kept, rows, family, n_state = _RECORD.unpack_from(payload, offset)
        offset += _RECORD.size
        lengths = struct.unpack_from(f"<{n_state}i", payload, offset)
        offset += 4 * n_state
        columns = []
        for dtype in (_FLOAT, _FLOAT, _FLOAT, _CODE):
            columns.append(np.frombuffer(payload, dtype=dtype, count=rows, offset=offset))
            offset += rows * dtype.itemsize
        size = sum(1 if length < 0 else length for length in lengths)
        data = np.frombuffer(payload, dtype=_FLOAT, count=size, offset=offset)
        offset += size * _FLOAT.itemsize
        state: list = []
        at = 0
        for length in lengths:
            if length < 0:
                state.append(float(data[at]))
                at += 1
            else:
                state.append(data[at : at + length])
                at += length
        records.append(SensorRecord(sensor, first_s, kept, *columns, family, tuple(state)))
    if offset != len(payload):
        raise ValueError(f"{len(payload) - offset} trailing bytes after {count} records")
    return records


def apply_delta(
    base: dict[int, SensorRecord], records: Sequence[SensorRecord]
) -> dict[int, SensorRecord]:
    """The generation *records* describe, folded onto its predecessor *base*.

    Each sensor's new tail is the base's entries from ``first_s`` on —
    ``kept`` of them — followed by the shipped rows; a sensor the new
    generation does not list is gone from it.  Every returned record keeps
    nothing, so it reads as that sensor's whole tail.  A record that keeps
    entries its base does not hold — fewer, other ones, or none because the
    base lacks its sensor — raises ``ValueError``.
    """
    folded: dict[int, SensorRecord] = {}
    for record in records:
        if record.kept:
            previous = base.get(record.sensor)
            if previous is not None:
                start = int(np.searchsorted(previous.timestamps, record.first_s, side="left"))
                keep = slice(start, start + record.kept)
            if previous is None or keep.stop > previous.timestamps.size or (
                previous.timestamps[start] != record.first_s
            ):
                raise ValueError(
                    f"sensor {record.sensor}: base holds no {record.kept} "
                    f"entries from t={record.first_s}"
                )
            record = record._replace(
                kept=0,
                timestamps=np.concatenate((previous.timestamps[keep], record.timestamps)),
                values=np.concatenate((previous.values[keep], record.values)),
                stds=np.concatenate((previous.stds[keep], record.stds)),
                codes=np.concatenate((previous.codes[keep], record.codes)),
            )
        folded[record.sensor] = record
    return folded
