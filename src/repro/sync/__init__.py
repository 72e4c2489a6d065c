"""Temporal consistency: clock drift, skew, and correction.

Section 5: "Drift and skew of clocks at the remote sensors can result in
erroneous timestamps, which need to be corrected to provide an accurate
temporal view of data."  This package models imperfect mote clocks and the
proxy-side reference-broadcast estimation that corrects sensor timestamps
before they enter the ordered cross-proxy view.
"""

from repro.sync.clock import ClockModel, DriftingClock
from repro.sync.protocol import SyncEstimate, TimeSyncProtocol

__all__ = [
    "ClockModel",
    "DriftingClock",
    "SyncEstimate",
    "TimeSyncProtocol",
]
