"""Building monitoring: one proxy per floor, one ordered view.

Run:  python examples/building_monitoring.py

The paper's deployment sketch: "if a building is being monitored, one
sensor proxy might be placed per floor or hallway."  This example stands up
three floor cells, runs each for a day, and merges their cached readings
into the single temporally ordered cross-proxy view of Section 5
(:func:`~repro.core.unified.ordered_view`), addressed by *global* sensor
id.  Routing global queries across the floors and failing over to a wired
replica when a mesh proxy drops is ``examples/campus_federation.py``'s
story, told against :class:`~repro.core.FederatedSystem`.
"""

from repro.core import PrestoConfig, PrestoSystem
from repro.core.unified import ProxyCell, ordered_view
from repro.traces import IntelLabConfig, IntelLabGenerator

SENSORS_PER_FLOOR = 4
DURATION_S = 86_400.0


def build_floor(floor: int) -> PrestoSystem:
    """One floor = one trace + one PRESTO cell."""
    trace_config = IntelLabConfig(
        n_sensors=SENSORS_PER_FLOOR,
        duration_s=DURATION_S,
        epoch_s=31.0,
        base_temp_c=20.0 + floor,  # upper floors run warmer
    )
    trace = IntelLabGenerator(trace_config, seed=20 + floor).generate()
    config = PrestoConfig(
        sample_period_s=31.0,
        refit_interval_s=4 * 3600.0,
        min_training_epochs=256,
    )
    return PrestoSystem(
        trace, config, seed=30 + floor, proxy_name=f"floor{floor}"
    )


def main() -> None:
    floors = [build_floor(floor) for floor in range(3)]
    cells = [
        ProxyCell(system.proxy, first_sensor=floor * SENSORS_PER_FLOOR)
        for floor, system in enumerate(floors)
    ]

    # run all three cells (independent floors, same wall-clock horizon)
    for floor, system in enumerate(floors):
        report = system.run()
        print(f"floor {floor}: {report.pushes + report.cold_pushes} pushes, "
              f"{report.sensor_energy_per_day_j:.2f} J/sensor-day")

    # the single temporally ordered view across all floors
    view = ordered_view(cells, DURATION_S - 1800.0, DURATION_S)
    print(f"\nordered cross-proxy view, last 30 min: {len(view)} actual readings")
    for timestamp, sensor, value in view[:5]:
        print(f"  t={timestamp:9.1f}s  global sensor {sensor:2d}  {value:6.2f} C")


if __name__ == "__main__":
    main()
