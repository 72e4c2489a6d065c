"""Reference: ground truth scored one query at a time.

``ground_truth`` is the per-query rule as it was before
:func:`repro.core.queries.ground_truths` scored a whole log in one pass,
with the out-of-range guard the federation's report applied around it.
"""

from __future__ import annotations

import numpy as np

from repro.traces.intel_lab import TraceSet
from repro.traces.workload import Query, QueryKind


def ground_truth(trace: TraceSet, query: Query) -> float | None:
    """Ground-truth answer for *query* against *trace* (None: no such sensor)."""
    if not 0 <= query.sensor < trace.n_sensors:
        return None
    if query.kind in (QueryKind.NOW, QueryKind.PAST_POINT):
        target = (
            query.arrival_time if query.kind is QueryKind.NOW else query.target_time
        )
        epoch = trace.epoch_of(min(target, trace.timestamps[-1]))
        value = trace.values[query.sensor, epoch]
        return None if np.isnan(value) else float(value)
    start = query.target_time
    end = start + query.window_s
    window = trace.values[query.sensor, trace.window_slice(start, end)]
    window = window[~np.isnan(window)]
    if window.size == 0:
        return None
    if query.aggregate == "mean":
        return float(np.mean(window))
    if query.aggregate == "min":
        return float(np.min(window))
    return float(np.max(window))
