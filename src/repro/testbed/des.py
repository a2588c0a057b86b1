"""Discrete-event simulation kernel.

A minimal, deterministic process-oriented DES (simpy is not available
offline, so this is built from scratch).  Processes are Python
generators that ``yield`` *commands*:

``Timeout(delay)``
    Suspend for ``delay`` time units.
``Wait(event)``
    Suspend until the :class:`Event` fires; the event's payload is the
    value of the ``yield`` expression.
``Fork(generator)``
    Start a child process immediately (the parent keeps running) and
    receive its :class:`Process` handle.

The kernel is deterministic: simultaneous events fire in scheduling
order (a monotonically increasing sequence number breaks time ties).
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from collections.abc import Generator, Iterable
from typing import Any

from repro.errors import SimulationError

__all__ = ["Event", "Timeout", "Wait", "Fork", "Process", "Simulator"]


class Event:
    """A one-shot event processes can wait on.

    An event may be fired with an optional payload; every waiter is
    resumed with that payload.  Waiting on an already-fired event
    resumes immediately.
    """

    __slots__ = ("_sim", "fired", "payload", "_waiters")

    def __init__(self, sim: Simulator):
        self._sim = sim
        self.fired = False
        self.payload: Any = None
        self._waiters: list[Process] = []

    def fire(self, payload: Any = None) -> None:
        """Fire the event, waking every waiter at the current time."""
        if self.fired:
            raise SimulationError("event fired twice")
        self.fired = True
        self.payload = payload
        waiters, self._waiters = self._waiters, []
        for process in waiters:
            self._sim._schedule(self._sim.now, process, payload)

    def add_waiter(self, process: Process) -> None:
        if self.fired:
            self._sim._schedule(self._sim.now, process, self.payload)
        else:
            self._waiters.append(process)


class Timeout:
    """Yieldable: suspend the process for ``delay`` time units."""

    __slots__ = ("delay",)

    def __init__(self, delay: float):
        if delay < 0:
            raise SimulationError(f"negative timeout {delay}")
        self.delay = delay


class Wait:
    """Yieldable: suspend until ``event`` fires."""

    __slots__ = ("event",)

    def __init__(self, event: Event):
        self.event = event


class Fork:
    """Yieldable: start a child process; resumes immediately with its
    :class:`Process` handle."""

    __slots__ = ("generator",)

    def __init__(self, generator: Generator):
        self.generator = generator


class Process:
    """Handle for a running simulation process."""

    __slots__ = ("generator", "name", "done", "result", "completion")

    def __init__(self, sim: Simulator, generator: Generator,
                 name: str = ""):
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self.done = False
        self.result: Any = None
        self.completion = Event(sim)


class Simulator:
    """The event loop.

    Typical use::

        sim = Simulator()
        sim.spawn(my_process(sim))
        sim.run(until=100_000.0)
    """

    def __init__(self) -> None:
        self.now = 0.0
        #: ``(time, seq, process, payload)`` entries; ``seq`` is unique,
        #: so ties never reach the process.
        self._heap: list[tuple[float, int, Process, Any]] = []
        self._seq = 0
        self._steps = 0

    # -- process management ------------------------------------------------

    def spawn(self, generator: Generator, name: str = "") -> Process:
        """Register a new process and schedule its first step now."""
        process = Process(self, generator, name)
        self._schedule(self.now, process, None)
        return process

    def event(self) -> Event:
        """Create a fresh one-shot event."""
        return Event(self)

    def _schedule(self, time: float, process: Process,
                  payload: Any) -> None:
        if time < self.now:
            raise SimulationError(
                f"cannot schedule into the past ({time} < {self.now})"
            )
        self._seq += 1
        heappush(self._heap, (time, self._seq, process, payload))

    # -- main loop ----------------------------------------------------------

    def run(self, until: float | None = None,
            max_steps: int | None = None) -> None:
        """Run until the horizon, event exhaustion, or a step budget.

        Parameters
        ----------
        until:
            Simulation-time horizon; events scheduled beyond it stay
            queued (so a subsequent ``run`` can continue).
        max_steps:
            Safety budget on processed events;
            :class:`~repro.errors.SimulationError` when exceeded.
        """
        heap = self._heap
        pop = heappop
        step = self._step
        horizon = math.inf if until is None else until
        budget = math.inf if max_steps is None else max_steps
        while heap:
            if heap[0][0] > horizon:
                self.now = horizon
                return
            time, _, process, payload = pop(heap)
            self.now = time
            self._steps += 1
            if self._steps > budget:
                raise SimulationError(
                    f"simulation exceeded {max_steps} steps"
                )
            step(process, payload)
        if until is not None:
            self.now = until

    def _step(self, process: Process, payload: Any) -> None:
        if process.done:
            return
        send = process.generator.send
        try:
            command = send(payload)
        except StopIteration as stop:
            self._finish(process, stop.value)
            return
        while True:
            kind = type(command)
            if kind is Timeout:
                self._seq += 1
                heappush(self._heap, (self.now + command.delay, self._seq,
                                      process, None))
                return
            if kind is Wait:
                command.event.add_waiter(process)
                return
            if kind is Fork:
                child = self.spawn(command.generator)
                try:
                    command = send(child)
                except StopIteration as stop:
                    self._finish(process, stop.value)
                    return
                continue
            raise SimulationError(
                f"process {process.name!r} yielded {command!r}; expected "
                f"Timeout, Wait, or Fork"
            )

    @staticmethod
    def _finish(process: Process, result: Any) -> None:
        process.done = True
        process.result = result
        process.completion.fire(result)


def run_all(sim: Simulator, generators: Iterable[Generator],
            until: float) -> None:
    """Spawn several processes and run the simulation to a horizon."""
    for generator in generators:
        sim.spawn(generator)
    sim.run(until=until)
