"""Machine-speed probe: a fixed pure-Python work unit, timed every 50 ms.

The benchmark runs on a few cores of a shared host, and what the other
guests run changes how fast those cores are.  On a 2-vCPU Intel Xeon
virtual machine the unit's median over one run ranged from 0.72 to 1.17
times its reference time within an hour, with no steal time and with CPU
time equal to wall time.  Served throughput follows that speed, so two
runs of the same code minutes apart differ by more than a regression
bound.

While a run measures, a thread of the benchmark process times one work
unit every ``INTERVAL_S`` (about 3% of one core).  The median unit time
over an interval, divided by ``REFERENCE_S``, is the run's slowdown over
that interval.  The benchmark scales the metrics that follow machine
speed to reference speed: times divided by the slowdown, rates
multiplied by it.
"""

from __future__ import annotations

import statistics
import threading
import time

#: Unit time that defines reference speed: about the median on the
#: virtual machine above.
REFERENCE_S = 1.5e-3
#: Pause between two units.
INTERVAL_S = 0.05
UNIT_ITERATIONS = 20_000
#: Fewest units an interval needs for its own slowdown; a shorter one
#: (the self-test's tiny runs) takes the median over every unit run.
MIN_SAMPLES = 3


def _unit() -> int:
    total = 0
    for i in range(UNIT_ITERATIONS):
        total += i * i
    return total


class SpeedProbe:
    """Times the work unit on a background thread while the context is open."""

    def __init__(self) -> None:
        #: ``(perf_counter at start, seconds taken)`` per unit.
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> SpeedProbe:
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            began = time.perf_counter()
            _unit()
            self.samples.append((began, time.perf_counter() - began))

    def slowdown(self, start: float, end: float) -> float:
        """Median unit time over ``[start, end]`` ÷ ``REFERENCE_S``."""
        durations = [taken for began, taken in self.samples if start <= began <= end]
        if len(durations) < MIN_SAMPLES:
            durations = [taken for _, taken in self.samples]
        if not durations:
            raise RuntimeError("the speed probe ran no unit")
        return statistics.median(durations) / REFERENCE_S
