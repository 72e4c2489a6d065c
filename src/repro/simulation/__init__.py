"""Discrete-event simulation kernel used by every PRESTO substrate.

The kernel is deliberately small: a deterministic event queue driven by a
virtual clock (:class:`~repro.simulation.kernel.Simulator`), a helper for
periodic activities (:mod:`repro.simulation.process`), and a
registry of named, seeded random streams (:mod:`repro.simulation.randomness`)
so that every experiment in the repository is reproducible bit-for-bit.
"""

from repro.simulation.kernel import Event, EventQueue, SimulationError, Simulator
from repro.simulation.process import PeriodicTask
from repro.simulation.randomness import RandomStreams

__all__ = [
    "Event",
    "EventQueue",
    "SimulationError",
    "Simulator",
    "PeriodicTask",
    "RandomStreams",
]
