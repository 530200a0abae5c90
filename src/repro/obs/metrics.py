"""The metrics core: a process-global registry of cheap instruments.

Serving millions of users is pointless if the only way to see what the
system is doing is an offline benchmark.  This module is the telemetry
spine every layer above hangs its numbers on — dependency-free (stdlib
only), always-on-cheap, and snapshot-able to plain dicts so the same
state feeds the service's ``metrics`` op, the Prometheus endpoint
(:mod:`repro.obs.prometheus`) and ad-hoc debugging alike.

Three instrument types:

* :class:`Counter` — a monotone float total (requests served, pairs
  ingested, snapshot saves).  ``add()`` takes the instrument's lock, so
  concurrent increments from the ingest thread and the asyncio executor
  pool never lose updates.
* :class:`Gauge` — a point-in-time value (active ingest threads, active
  connections); ``set`` / ``add`` under the same locking.
* :class:`Histogram` — fixed-bucket, log-scale latency/size distribution.
  ``observe`` is a ``bisect`` plus one list-element increment (plain
  ``int`` counts: a C-level increment, with no scalar boxing on the hot
  path).  Bounds are fixed at construction (default: base-2 decades from
  1 µs to ~67 s), so snapshots from different processes or runs are
  always mergeable bucket by bucket.

Instruments are identified by ``(name, labels)`` — the registry returns
the *same* object for the same identity, which is what makes module-level
``counter(...)`` calls in hot paths safe and cheap (a dict hit under the
registry lock, then attribute access forever after).

Disabled mode: :meth:`MetricsRegistry.set_enabled` flips one attribute;
every mutation checks it first, so a disabled registry costs one attribute
load and a branch per call site (the overhead benchmark gates the enabled
path at <3% of ingest/query throughput).  Instruments created with
``always=True`` ignore the flag — they carry *operational* state
(ingest progress, queries served) that ``describe()``/``stats`` report
from, and turning telemetry off must not change program behaviour.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

import threading
import time
from typing import Any, TypeVar, cast
from bisect import bisect_left

#: Default histogram bounds: base-2 log scale from 1 µs to ~67 s (27
#: buckets + overflow).  Chosen once for the whole repository so latency
#: histograms from any layer (or process) can be merged bucket by bucket.
DEFAULT_LATENCY_BOUNDS: tuple[float, ...] = tuple(1e-6 * 2.0**i for i in range(27))

#: Identity of one instrument: (name, sorted (label, value) pairs).
MetricKey = tuple[str, tuple[tuple[str, str], ...]]

_InstrumentT = TypeVar("_InstrumentT", bound="_Instrument")


def _label_key(labels: Mapping[str, object]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Instrument:
    """State shared by every instrument type."""

    __slots__ = ("name", "labels", "always", "_registry", "_lock")

    kind = "instrument"

    def __init__(
        self,
        registry: MetricsRegistry,
        name: str,
        labels: tuple[tuple[str, str], ...],
        always: bool = False,
    ) -> None:
        self.name = name
        self.labels = labels
        self.always = always
        self._registry = registry
        self._lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        """Whether mutations apply right now (always-on instruments: yes)."""
        return self.always or self._registry.enabled

    def _identity(self) -> dict[str, object]:
        return {"type": self.kind, "name": self.name, "labels": dict(self.labels)}


class Counter(_Instrument):
    """Monotone total.  ``add(n)`` is thread-safe; negative ``n`` is refused."""

    __slots__ = ("_value",)

    kind = "counter"

    def __init__(
        self,
        registry: MetricsRegistry,
        name: str,
        labels: tuple[tuple[str, str], ...],
        always: bool = False,
    ) -> None:
        super().__init__(registry, name, labels, always)
        self._value = 0.0

    def add(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge for deltas")
        if not (self.always or self._registry.enabled):
            return
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> dict[str, object]:
        return {**self._identity(), "value": self._value}


class Gauge(_Instrument):
    """Point-in-time value with ``set`` / ``add`` (``add`` may be negative)."""

    __slots__ = ("_value",)

    kind = "gauge"

    def __init__(
        self,
        registry: MetricsRegistry,
        name: str,
        labels: tuple[tuple[str, str], ...],
        always: bool = False,
    ) -> None:
        super().__init__(registry, name, labels, always)
        self._value = 0.0

    def set(self, value: float) -> None:
        if not (self.always or self._registry.enabled):
            return
        with self._lock:
            self._value = float(value)

    def add(self, amount: float = 1.0) -> None:
        if not (self.always or self._registry.enabled):
            return
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> dict[str, object]:
        return {**self._identity(), "value": self._value}


class Histogram(_Instrument):
    """Fixed-bucket distribution; plain-int counts, log-scale by default.

    ``bounds`` are inclusive upper edges (Prometheus ``le`` semantics): an
    observation lands in the first bucket whose bound is >= the value; one
    implicit overflow bucket catches everything beyond the last bound.
    """

    __slots__ = ("bounds", "_counts", "_sum", "_count")

    kind = "histogram"

    def __init__(
        self,
        registry: MetricsRegistry,
        name: str,
        labels: tuple[tuple[str, str], ...],
        bounds: Iterable[float] | None = None,
        always: bool = False,
    ) -> None:
        super().__init__(registry, name, labels, always)
        chosen = DEFAULT_LATENCY_BOUNDS if bounds is None else tuple(bounds)
        if not chosen or list(chosen) != sorted(chosen):
            raise ValueError("histogram bounds must be a non-empty ascending sequence")
        self.bounds: tuple[float, ...] = tuple(float(b) for b in chosen)
        self._counts = [0] * (len(self.bounds) + 1)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        if not (self.always or self._registry.enabled):
            return
        index = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def snapshot(self) -> dict[str, object]:
        with self._lock:
            counts = list(self._counts)
            total, observed = self._sum, self._count
        return {
            **self._identity(),
            "bounds": list(self.bounds),
            "counts": counts,
            "count": observed,
            "sum": total,
        }


class timed:
    """Context manager recording a span's wall-clock seconds in a histogram.

    The no-op fast path matters: when the histogram's registry is disabled,
    ``__enter__`` skips the clock read entirely, so an instrumented block
    costs two attribute loads and two branches — nothing else.

        with timed(histogram):
            handle_request()
    """

    __slots__ = ("_histogram", "_start")

    def __init__(self, histogram: Histogram) -> None:
        self._histogram = histogram
        self._start: float | None = None

    def __enter__(self) -> timed:
        if self._histogram.enabled:
            self._start = time.perf_counter()
        return self

    def __exit__(self, *_exc: object) -> bool:
        if self._start is not None:
            self._histogram.observe(time.perf_counter() - self._start)
            self._start = None
        return False


class MetricsRegistry:
    """Get-or-create home of every instrument; snapshot-able to plain dicts."""

    def __init__(self) -> None:
        self.enabled = True
        self._lock = threading.Lock()
        self._metrics: dict[MetricKey, _Instrument] = {}

    # -- instrument construction ----------------------------------------------

    def _get_or_create(
        self,
        cls: type[_InstrumentT],
        name: str,
        labels: Mapping[str, object],
        always: bool,
        **kwargs: Any,
    ) -> _InstrumentT:
        key: MetricKey = (name, _label_key(labels))
        instrument = self._metrics.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._metrics.get(key)
                if instrument is None:
                    instrument = cls(self, name, key[1], always=always, **kwargs)
                    self._metrics[key] = instrument
        if type(instrument) is not cls:
            raise ValueError(
                f"metric {name!r} already registered as a {instrument.kind}"
            )
        return cast("_InstrumentT", instrument)

    def counter(self, name: str, always: bool = False, **labels: object) -> Counter:
        """The counter ``(name, labels)``, created on first use."""
        return self._get_or_create(Counter, name, labels, always)

    def gauge(self, name: str, always: bool = False, **labels: object) -> Gauge:
        """The gauge ``(name, labels)``, created on first use."""
        return self._get_or_create(Gauge, name, labels, always)

    def histogram(
        self,
        name: str,
        bounds: Iterable[float] | None = None,
        always: bool = False,
        **labels: object,
    ) -> Histogram:
        """The histogram ``(name, labels)``, created on first use.

        ``bounds`` applies only on creation; later calls for the same
        identity return the existing instrument regardless.
        """
        return self._get_or_create(Histogram, name, labels, always, bounds=bounds)

    # -- global switches --------------------------------------------------------

    def set_enabled(self, enabled: bool) -> None:
        """Flip telemetry collection (``always=True`` instruments ignore this)."""
        self.enabled = bool(enabled)

    def reset(self) -> None:
        """Drop every instrument (tests and benchmark isolation only)."""
        with self._lock:
            self._metrics.clear()

    # -- export -----------------------------------------------------------------

    def snapshot(self) -> list[dict[str, object]]:
        """Every instrument as a plain dict, in deterministic (name, labels)
        order — the payload of the ``metrics`` service op."""
        with self._lock:
            instruments = sorted(self._metrics.items())
        return [instrument.snapshot() for _key, instrument in instruments]


#: The process-global registry every layer instruments against.
REGISTRY = MetricsRegistry()

#: Module-level conveniences bound to the global registry — the form the
#: instrumented call sites use (``obs.counter("service.requests", op=op)``).
counter = REGISTRY.counter
gauge = REGISTRY.gauge
histogram = REGISTRY.histogram
metrics_snapshot = REGISTRY.snapshot
set_enabled = REGISTRY.set_enabled
