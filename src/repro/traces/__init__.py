"""Sensor traces and query workloads.

The paper's Figure 2 uses temperature data from the Intel Research Berkeley
lab deployment [11].  That trace is not redistributable offline, so
:mod:`repro.traces.intel_lab` synthesises a statistically matched stand-in:
~31-second epochs, tens of sensors, a shared diurnal temperature cycle,
slow weather fronts, per-sensor offsets, ADC noise, and the occasional
spike or dropout.  :mod:`repro.traces.events` injects the "rare,
unexpected events" the push protocol must never miss, and
:mod:`repro.traces.workload` generates the NOW/PAST query mixes used by the
architecture-comparison benchmarks.
"""

from repro.traces.events import EventKind, InjectedEvent, inject_events
from repro.traces.intel_lab import IntelLabConfig, IntelLabGenerator, TraceSet
from repro.traces.workload import (
    Query,
    QueryKind,
    QueryWorkloadConfig,
    QueryWorkloadGenerator,
    ShardedWorkloadGenerator,
)

__all__ = [
    "IntelLabConfig",
    "IntelLabGenerator",
    "TraceSet",
    "EventKind",
    "InjectedEvent",
    "inject_events",
    "Query",
    "QueryKind",
    "QueryWorkloadConfig",
    "QueryWorkloadGenerator",
    "ShardedWorkloadGenerator",
]
