"""Packet abstraction for the PRESTO protocol messages."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any


class PacketKind(enum.Enum):
    """Message types exchanged between PRESTO proxies and sensors."""

    PUSH = "push"                    # sensor -> proxy: reading that broke the model
    BATCH = "batch"                  # sensor -> proxy: batched/compressed readings
    MODEL_UPDATE = "model_update"    # proxy -> sensor: new model parameters
    OPERATING_POINT = "operating_point"  # proxy -> sensor: duty cycle / batching
    PULL_REQUEST = "pull_request"    # proxy -> sensor: archive read request
    PULL_REPLY = "pull_reply"        # sensor -> proxy: archived data
    QUERY = "query"                  # user/proxy -> sensor (direct architectures)
    QUERY_REPLY = "query_reply"      # sensor -> user/proxy
    TIME_SYNC = "time_sync"          # proxy -> sensors: reference broadcast


@dataclass
class Packet:
    """A single link-layer message.

    ``payload_bytes`` is what the energy model charges for; ``payload``
    carries the simulated content (readings, model parameters...).
    """

    kind: PacketKind
    src: str
    dst: str
    payload_bytes: int
    payload: Any = None
    created_at: float = 0.0

    def __post_init__(self) -> None:
        if self.payload_bytes < 0:
            raise ValueError(f"negative payload size {self.payload_bytes!r}")
