"""Process-level helpers on top of the event kernel.

Two small utilities cover almost every need in the PRESTO simulation:
:class:`PeriodicTask` for sampling loops, duty-cycle wakeups and batch
flushes, and :func:`delayed_call` for one-shot timers.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.simulation.kernel import Event, SimulationError, Simulator


def delayed_call(sim: Simulator, delay: float, callback: Callable[[], None]) -> Event:
    """Schedule *callback* once, *delay* seconds from now, returning a handle."""
    return sim.schedule_after(delay, callback)


class PeriodicTask:
    """Re-arms a callback every *period* seconds until stopped.

    The callback may call :meth:`stop`, :meth:`set_period` (used by the
    adaptive duty-cycle logic when a proxy retunes a sensor), or reschedule
    itself; the task handles all of these safely.  The first invocation
    happens at ``start_offset`` seconds after :meth:`start` is called.
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
        self._in_fire = False
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

    def set_period(self, period: float) -> None:
        """Change the interval; takes effect from the next re-arm.

        If called from outside the callback while armed, the pending firing
        is rescheduled to honour the new period immediately.
        """
        if period <= 0:
            raise SimulationError(f"period must be positive, got {period!r}")
        old = self._period
        self._period = float(period)
        if self._in_fire:
            return  # the re-arm at the end of _fire honours the new period
        if self._running and self._handle is not None and period != old:
            self._handle.cancel()
            self._handle = self._sim.schedule_after(self._period, self._fire)

    def _fire(self) -> None:
        if not self._running:
            return
        self.fire_count += 1
        self._in_fire = True
        try:
            self._callback()
        finally:
            self._in_fire = False
        if self._running:
            self._handle = self._sim.schedule_after(self._period, self._fire)
