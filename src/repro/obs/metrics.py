"""Typed metrics for the measurement stack.

The paper's live deployment was driven by watching counters — replaced and
evicted transactions per target, per-link probe latencies, RPC timeout
rates (Sections 5.3 and 6.1).  This module provides the three instrument
types those observations need:

- :class:`Counter` — a monotonically increasing count (messages sent,
  faults fired, probes completed);
- :class:`Gauge` — a point-in-time value that can move both ways (pool
  sizes, pending events, churn rate);
- :class:`Histogram` — a bounded-reservoir distribution (per-iteration
  latencies, batch sizes) exposing count/sum/min/max and quantiles.

A :class:`MetricsRegistry` owns the instruments, keyed by (name, labels).
A name's type, help text and label keys are written down once, as a
:class:`Metric` declaration (the stack's are in :mod:`repro.obs.wiring`);
the registry reads them from there, so call sites pass the name and nothing
else.  Instrumentation is split into two disciplines so that hot paths stay
hot:

- **push**: cold call sites hold an instrument and call ``inc``/``observe``
  directly (fault events, campaign iterations);
- **pull**: collectors registered with :meth:`MetricsRegistry.add_collector`
  copy counters the simulation already maintains (``Network.messages_sent``,
  ``Mempool.stats``) into instruments at :meth:`MetricsRegistry.collect`
  time — zero per-event cost, paid only at export.

Nothing here consumes RNG streams or simulated time, so attaching metrics
can never perturb a deterministic run (the golden fingerprints of
``tests/integration/test_perf_determinism.py`` are unaffected).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Tuple, Type, Union

from repro.errors import ObservabilityError

Number = Union[int, float]
LabelKey = Tuple[Tuple[str, str], ...]

DEFAULT_RESERVOIR = 1024


def _label_key(labels: Optional[Mapping[str, str]]) -> LabelKey:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count."""

    kind = "counter"
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self.value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        """Add ``amount`` (must be non-negative) to the count."""
        if amount < 0:
            raise ObservabilityError(
                f"counter {self.name!r} cannot decrease (inc by {amount})"
            )
        self.value += amount

    def set_total(self, value: Number) -> None:
        """Adopt an externally maintained running total (pull wiring).

        Collectors use this to mirror counters the simulation already keeps
        (e.g. ``Network.messages_sent``) without double counting across
        repeated ``collect()`` calls.
        """
        self.value = value

    def sample(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "type": self.kind,
            "labels": dict(self.labels),
            "value": self.value,
        }


class Gauge:
    """A point-in-time value that can go up and down."""

    kind = "gauge"
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self.value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value

    def inc(self, amount: Number = 1) -> None:
        self.value += amount

    def sample(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "type": self.kind,
            "labels": dict(self.labels),
            "value": self.value,
        }


class Histogram:
    """A distribution over observed values with a bounded reservoir.

    ``count``/``sum``/``min``/``max`` are exact; quantiles come from a
    reservoir capped at ``max_samples``.  The reservoir thins
    *deterministically*: once full it is compacted to every other sample and
    the keep-stride doubles, so two identical runs keep identical samples
    (no RNG draw — randomized reservoir sampling would either perturb a
    shared stream or need its own seed plumbing).
    """

    kind = "histogram"
    __slots__ = (
        "name",
        "labels",
        "max_samples",
        "count",
        "sum",
        "min",
        "max",
        "_reservoir",
        "_stride",
    )

    def __init__(
        self,
        name: str,
        labels: LabelKey = (),
        max_samples: int = DEFAULT_RESERVOIR,
    ) -> None:
        if max_samples < 2:
            raise ObservabilityError(
                f"histogram {name!r} needs max_samples >= 2, got {max_samples}"
            )
        self.name = name
        self.labels = labels
        self.max_samples = max_samples
        self.count = 0
        self.sum: float = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._reservoir: List[float] = []
        self._stride = 1

    def observe(self, value: Number) -> None:
        """Record one observation."""
        value = float(value)
        index = self.count
        self.count = index + 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if index % self._stride:
            return
        reservoir = self._reservoir
        reservoir.append(value)
        if len(reservoir) >= self.max_samples:
            # Deterministic compaction: keep every other sample, double the
            # stride. Future observations land at the coarser rate.
            del reservoir[1::2]
            self._stride *= 2

    def quantile(self, q: float) -> Optional[float]:
        """Approximate ``q``-quantile (0..1) from the reservoir."""
        if not 0.0 <= q <= 1.0:
            raise ObservabilityError(f"quantile must be in [0, 1], got {q}")
        reservoir = sorted(self._reservoir)
        if not reservoir:
            return None
        if len(reservoir) == 1:
            return reservoir[0]
        position = q * (len(reservoir) - 1)
        low = int(position)
        high = min(low + 1, len(reservoir) - 1)
        fraction = position - low
        return reservoir[low] * (1.0 - fraction) + reservoir[high] * fraction

    @property
    def reservoir_size(self) -> int:
        return len(self._reservoir)

    def sample(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "type": self.kind,
            "labels": dict(self.labels),
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "p50": self.quantile(0.5),
            "p90": self.quantile(0.9),
            "p99": self.quantile(0.99),
        }


Instrument = Union[Counter, Gauge, Histogram]
_FACTORIES = {cls.kind: cls for cls in (Counter, Gauge, Histogram)}

#: Every declared metric by name, filled by :class:`Metric` itself.
CATALOG: Dict[str, "Metric"] = {}


class Metric(str):
    """A declared metric: the name — a plain ``str`` to every consumer —
    carrying the one kind, help text and set of label keys all its series
    share. Declaring a name twice, or with an unknown kind, raises."""

    __slots__ = ("kind", "help", "labels")

    def __new__(cls, name: str, help: str, *labels: str, kind: str) -> "Metric":
        if kind not in _FACTORIES or name in CATALOG:
            raise ObservabilityError(
                f"metric {name!r} declared twice or with unknown kind {kind!r}"
            )
        self = CATALOG[name] = super().__new__(cls, name)
        self.kind = kind
        self.help = help
        self.labels = labels
        return self


class MetricsRegistry:
    """Owner of every instrument, keyed by (name, sorted label items).

    One metric *name* maps to one instrument type and one help string; the
    same name with different labels yields distinct instruments of the same
    family (how Prometheus models labeled series). For a declared name
    (:data:`CATALOG`) type, help and the admissible label keys come from
    the declaration; an undeclared one takes them from its first
    registration.
    """

    def __init__(self) -> None:
        self._instruments: Dict[Tuple[str, LabelKey], Instrument] = {}
        self._kinds: Dict[str, str] = {}
        self._help: Dict[str, str] = {}
        self._collectors: List[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # Instrument creation (get-or-create)
    # ------------------------------------------------------------------
    def _get(
        self,
        factory: Type[Instrument],
        name: str,
        help: str,
        labels: Optional[Mapping[str, str]],
        **kwargs: int,
    ) -> Instrument:
        name = str(name)  # a declaration is a str subclass; samples carry str
        key = (name, _label_key(labels))
        declared = CATALOG.get(name)
        kind = declared.kind if declared is not None else self._kinds.get(name)
        if kind not in (None, factory.kind):
            raise ObservabilityError(
                f"metric {name!r} is a {kind}, not a {factory.kind}"
            )
        instrument = self._instruments.get(key)
        if instrument is None:
            if declared is not None:
                help = declared.help
                if not {k for k, _ in key[1]}.issubset(declared.labels):
                    raise ObservabilityError(
                        f"metric {name!r} declares labels {declared.labels}, "
                        f"not {sorted(dict(key[1]))}"
                    )
            instrument = self._instruments[key] = factory(name, key[1], **kwargs)
            self._kinds[name] = factory.kind
            if help:
                self._help.setdefault(name, help)
        return instrument

    def counter(
        self,
        name: str,
        help: str = "",
        labels: Optional[Mapping[str, str]] = None,
    ) -> Counter:
        return self._get(Counter, name, help, labels)  # type: ignore[return-value]

    def gauge(
        self,
        name: str,
        help: str = "",
        labels: Optional[Mapping[str, str]] = None,
    ) -> Gauge:
        return self._get(Gauge, name, help, labels)  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Optional[Mapping[str, str]] = None,
        max_samples: int = DEFAULT_RESERVOIR,
    ) -> Histogram:
        return self._get(  # type: ignore[return-value]
            Histogram, name, help, labels, max_samples=max_samples
        )

    def help_for(self, name: str) -> str:
        return self._help.get(name, "")

    def put(self, metric: Metric, value: Number, /, **labels: str) -> None:
        """One row of pull wiring, series <- value: a declared counter
        adopts ``value`` as its running total, a gauge as its level."""
        if metric.kind == "counter":
            self.counter(metric, labels=labels).set_total(value)
        else:
            self.gauge(metric, labels=labels).set(value)

    def absorb(self, samples: List[dict]) -> None:
        """Fold another registry's :meth:`snapshot` (one shard's, say) into
        this one, series by series: counters sum, a gauge takes the
        absorbed value (so the last absorbed wins), histograms add
        ``count``/``sum`` and combine ``min``/``max``. Reservoirs are not
        mergeable, so absorbed observations never reach the quantiles — a
        histogram that was only absorbed into reports them as ``None``.
        An undeclared name is created as the sample's own ``type``.
        """
        for sample in samples:
            factory = _FACTORIES[sample["type"]]
            into = self._get(factory, sample["name"], "", sample.get("labels"))
            if factory is Counter:
                into.value += sample["value"]
            elif factory is Gauge:
                into.value = sample["value"]
            else:
                into.count += sample["count"]
                into.sum += sample["sum"]
                for bound, pick in (("min", min), ("max", max)):
                    seen = [getattr(into, bound), sample[bound]]
                    seen = [value for value in seen if value is not None]
                    setattr(into, bound, pick(seen) if seen else None)

    # ------------------------------------------------------------------
    # Pull collectors
    # ------------------------------------------------------------------
    def add_collector(self, collector: Callable[[], None]) -> None:
        """Register a callable run at every :meth:`collect`.

        Collectors read state the simulation maintains anyway and write it
        into instruments (``Counter.set_total`` / ``Gauge.set``), making
        the instrumented hot paths literally zero-cost until export.
        """
        self._collectors.append(collector)

    def collect(self) -> List[Instrument]:
        """Run all collectors, then return instruments sorted by identity."""
        for collector in self._collectors:
            collector()
        return [
            self._instruments[key] for key in sorted(self._instruments.keys())
        ]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._kinds

    def snapshot(self) -> List[Dict[str, object]]:
        """Collect and return every instrument as a JSON-friendly dict."""
        return [instrument.sample() for instrument in self.collect()]
