"""Surveillance: rare-event detection and forensic PAST queries.

Run:  python examples/surveillance.py

The paper motivates PAST queries with surveillance: "the ability to
retroactively 'go back' is necessary to determine, for instance, how an
intruder broke into a building."  This example:

1. injects intruder-like anomalies into an otherwise boring trace;
2. shows every event reaches the proxy through model-driven push (the
   protocol never suppresses the unexpected);
3. after the fact, issues forensic PAST range queries around each event and
   reconstructs the intrusion timeline from sensor archives.
"""

import numpy as np

from repro.core import PrestoConfig, PrestoSystem
from repro.core.cache import EntrySource
from repro.traces import IntelLabConfig, IntelLabGenerator, inject_events
from repro.traces.workload import Query, QueryKind


def main() -> None:
    # A quiet building: low noise, no HVAC spikes — then intruders.
    trace_config = IntelLabConfig(
        n_sensors=6,
        duration_s=2 * 86_400.0,
        epoch_s=31.0,
        spike_rate_per_day=0.0,
    )
    base = IntelLabGenerator(trace_config, seed=10).generate()
    trace, events = inject_events(
        base,
        np.random.default_rng(11),
        rate_per_sensor_day=0.4,
        magnitude=6.0,
        duration_epochs=20,
    )
    print(f"injected {len(events)} events (ground truth)")

    config = PrestoConfig(
        sample_period_s=31.0,
        refit_interval_s=4 * 3600.0,
        min_training_epochs=256,
        push_delta=1.5,
    )
    system = PrestoSystem(trace, config, seed=12)
    report = system.run()

    # --- detection: did every event produce pushes? ------------------------
    period = config.sample_period_s
    detected = 0
    for event in events:
        onset = event.start_epoch * period
        entries = system.proxy.cache.entries_in(
            event.sensor, onset, onset + 20 * period
        )
        pushes = [e for e in entries if e.source is EntrySource.PUSHED]
        if pushes:
            detected += 1
            first = pushes[0].timestamp - onset
            print(f"  event @ sensor {event.sensor} t={onset / 3600:6.2f} h "
                  f"({event.kind.value:5s}, {event.magnitude:+.1f} C): "
                  f"pushed within {first:.0f} s")
    print(f"detected {detected}/{len(events)} events via model-driven push")

    # --- forensics: go back and reconstruct one intrusion ------------------
    event = events[0]
    onset = event.start_epoch * period
    query = Query(
        query_id=10_000,
        kind=QueryKind.PAST_AGG,
        sensor=event.sensor,
        arrival_time=system.sim.now - 1.0,
        target_time=max(onset - 600.0, 0.0),
        window_s=20 * period + 1200.0,
        precision=1.0,
        latency_bound_s=60.0,
        aggregate="max",
    )
    answer = system.proxy.process_query(query, query.sensor)
    print(f"\nforensic query: max reading around event 0 "
          f"(sensor {event.sensor}, window {query.window_s / 60:.0f} min)")
    print(f"  answer: {answer.value:.2f} C via {answer.source.value} "
          f"in {answer.latency_s * 1000:.1f} ms")
    print(f"  (event magnitude was {event.magnitude:+.1f} C on ~21 C baseline)")

    print(f"\nsensor energy: {report.sensor_energy_per_day_j:.2f} J/sensor-day; "
          f"pushes: {report.pushes} of {report.n_sensors * trace.n_epochs} samples")


if __name__ == "__main__":
    main()
