"""Process-level helpers on top of the event kernel.

:class:`PeriodicTask` covers every recurring activity in the PRESTO
simulation: the sensor fleet's sampling pass, idle accounting, refits,
retunes and replica syncs.  A one-shot timer is a plain
:meth:`~repro.simulation.kernel.Simulator.schedule_after`.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.simulation.kernel import Event, SimulationError, Simulator


class PeriodicTask:
    """Re-arms a callback every *period* seconds until stopped.

    The callback may call :meth:`stop`; the task then does not re-arm.
    The first invocation happens at ``start_offset`` seconds after
    :meth:`start` is called.
    """

    def __init__(
        self,
        sim: Simulator,
        period: float,
        callback: Callable[[], None],
        start_offset: float = 0.0,
    ) -> None:
        if period <= 0:
            raise SimulationError(f"period must be positive, got {period!r}")
        self._sim = sim
        self._period = float(period)
        self._callback = callback
        self._start_offset = float(start_offset)
        self._handle: Event | None = None
        self._running = False
        self.fire_count = 0

    @property
    def running(self) -> bool:
        """Whether the task is armed."""
        return self._running

    def start(self) -> None:
        """Arm the task; the first firing is ``start_offset`` from now."""
        if self._running:
            return
        self._running = True
        self._handle = self._sim.schedule_after(self._start_offset, self._fire)

    def stop(self) -> None:
        """Disarm the task; a queued firing is cancelled."""
        self._running = False
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _fire(self) -> None:
        if not self._running:
            return
        self.fire_count += 1
        self._callback()
        if self._running:
            self._handle = self._sim.schedule_after(self._period, self._fire)
