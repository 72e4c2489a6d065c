"""Traffic monitoring: an order-preserving view of moving vehicles.

Run:  python examples/traffic_monitoring.py

Section 5's motivating application for the data abstraction: "a traffic
monitoring network requires a view that preserves the order in which moving
vehicles are detected across a spatial region ... a single temporally
ordered view of detections across distributed proxies and sensors."

Three roadside cells (one proxy each) watch consecutive road segments.
Vehicles pass through, tripping sensors in sequence; each cell's sensors
have *drifting clocks*, so raw local timestamps misorder the detections.
Each proxy fits its motes' clocks from reference broadcasts and logs
each detection with the fit in effect when it arrived
(``PrestoProxy.record_detection``); :func:`~repro.core.unified.ordered_view`
corrects every detection with its own fit and merges them into a single
ordered view — from which per-vehicle trajectories and speeds are
recovered.
"""

import numpy as np

from repro.core import PrestoConfig, PrestoProxy, PrestoSystem
from repro.core.unified import ProxyCell, ordered_view
from repro.index.interval import IntervalIndex
from repro.sync.clock import ClockModel, DriftingClock
from repro.traces import IntelLabConfig, IntelLabGenerator

SEGMENTS = 3                # road segments = proxies
SENSORS_PER_SEGMENT = 4     # detectors per segment
SENSOR_SPACING_M = 50.0
VEHICLES = 12
HORIZON_S = 3600.0


def build_segment(segment: int) -> PrestoProxy:
    """One segment's proxy, from a PRESTO cell that is never run.

    Only its sync protocol and detection log are used: they fit the
    motes' clocks and keep the motes' detections.
    """
    trace_config = IntelLabConfig(
        n_sensors=SENSORS_PER_SEGMENT, duration_s=HORIZON_S, epoch_s=31.0
    )
    trace = IntelLabGenerator(trace_config, seed=segment).generate()
    system = PrestoSystem(
        trace,
        PrestoConfig(sample_period_s=31.0),
        seed=segment,
        proxy_name=f"segment{segment}",
    )
    return system.proxy


def main() -> None:
    rng = np.random.default_rng(90)
    clock_model = ClockModel(offset_std_s=1.5, skew_ppm_std=80.0)

    # one drifting clock per sensor, one proxy per segment
    clocks = [
        DriftingClock(clock_model, rng, f"s{sensor}")
        for sensor in range(SEGMENTS * SENSORS_PER_SEGMENT)
    ]
    proxies = [build_segment(segment) for segment in range(SEGMENTS)]
    cells = [
        ProxyCell(proxy, first_sensor=segment * SENSORS_PER_SEGMENT,
                  sensor_stamped=True)
        for segment, proxy in enumerate(proxies)
    ]

    # proxies run periodic reference broadcasts to their sensors
    for segment, proxy in enumerate(proxies):
        for local in range(SENSORS_PER_SEGMENT):
            sensor = segment * SENSORS_PER_SEGMENT + local
            for t in (0.0, 900.0, 1800.0):
                proxy.sync.record_exchange(
                    proxy.sensor_name(local), t, clocks[sensor].read(t)
                )

    # an interval index routes detection ranges to proxies (skip-graph backed)
    index = IntervalIndex(rng)
    for segment in range(SEGMENTS):
        first = segment * SENSORS_PER_SEGMENT
        index.assign(f"segment{segment}", first, first + SENSORS_PER_SEGMENT - 1)

    # vehicles drive down the road; each sensor stamps a *local* time,
    # logged at its proxy with the vehicle id as the value
    detections = []  # (sensor, local_timestamp, vehicle, speed)
    for vehicle in range(VEHICLES):
        entry_time = 2000.0 + vehicle * rng.uniform(20.0, 60.0)
        speed = rng.uniform(8.0, 20.0)  # m/s
        for sensor in range(SEGMENTS * SENSORS_PER_SEGMENT):
            true_time = entry_time + sensor * SENSOR_SPACING_M / speed
            local = clocks[sensor].read(true_time)
            segment, local_sensor = divmod(sensor, SENSORS_PER_SEGMENT)
            proxies[segment].record_detection(
                local_sensor, raw_timestamp=local, value=vehicle
            )
            detections.append((sensor, local, vehicle, speed))

    # --- without correction: raw local stamps misorder the stream ---------
    raw_sorted = sorted(detections, key=lambda d: d[1])
    raw_inversions = _count_vehicle_inversions(
        (sensor, vehicle) for sensor, _, vehicle, _ in raw_sorted
    )

    # --- the PRESTO way: proxies correct, the ordered view merges ---------
    view = ordered_view(cells, 0.0, HORIZON_S)
    fixed_inversions = _count_vehicle_inversions(
        (sensor, vehicle) for _, sensor, vehicle in view
    )

    print(f"{len(detections)} detections from {VEHICLES} vehicles over "
          f"{SEGMENTS} proxy segments")
    print(f"ordering errors with raw mote timestamps: {raw_inversions}")
    print(f"ordering errors after proxy sync correction: {fixed_inversions}")
    print(f"routing: sensor 7 detections -> "
          f"{index.primary(7.0).proxy} (skip-graph hops ~"
          f"{index.mean_routing_hops:.1f})")

    # recover per-vehicle speed from the corrected ordered view
    print("\nrecovered trajectories (first 5 vehicles):")
    for vehicle in range(5):
        times = [t for t, _, seen in view if seen == vehicle]
        distance = (len(times) - 1) * SENSOR_SPACING_M
        speed_est = distance / (times[-1] - times[0])
        true_speed = next(d[3] for d in detections if d[2] == vehicle)
        print(f"  vehicle {vehicle}: estimated {speed_est:5.2f} m/s "
              f"(true {true_speed:5.2f} m/s)")


def _count_vehicle_inversions(ordered) -> int:
    """Detections of one vehicle must appear in sensor order."""
    inversions = 0
    last_seen: dict[int, int] = {}
    for sensor, vehicle in ordered:
        if vehicle in last_seen and sensor < last_seen[vehicle]:
            inversions += 1
        last_seen[vehicle] = max(last_seen.get(vehicle, -1), sensor)
    return inversions


if __name__ == "__main__":
    main()
