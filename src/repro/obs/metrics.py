"""A zero-dependency metrics registry with Prometheus-style text exposition.

Three metric kinds, all lock-guarded and label-aware:

* :class:`Counter` — monotonically increasing, labelled event totals
  recorded inline (``coin_gateway_sheds_total{reason=…}``).
* :class:`Gauge` — point-in-time values, settable directly or backed by a
  callable evaluated at scrape time (open connections, queue depth).
* :class:`Histogram` — **fixed-bucket** distributions: one counter per
  bucket plus a running sum; p50/p95/p99 are estimated from the bucket
  counts by linear interpolation, so no per-sample storage ever grows.

A layer's unlabelled aggregate counters are not metrics it registers one by
one: it declares them once in a :class:`CounterSet` — the object its
``snapshot()``/``statistics()`` views read — and attaches the set to the
registry, which renders the exported fields from the same integers.

The registry renders the standard text format (``# HELP``/``# TYPE`` +
``name{label="v"} value`` lines, histogram ``_bucket``/``_sum``/``_count``
series with cumulative ``le`` buckets) for ``GET /coin/metrics``, and a
plain dict snapshot for the ``status``/``metrics`` protocol operations.
"""

from __future__ import annotations

import bisect
import math
import threading
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "CounterSet",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
]

#: Seconds buckets covering sub-millisecond cache hits up to multi-second
#: deadline-bound statements (the gateway's queue waits live in the middle).
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, str]) -> _LabelKey:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_labels(key: _LabelKey, extra: Optional[Tuple[str, str]] = None) -> str:
    pairs = list(key)
    if extra is not None:
        pairs.append(extra)
    if not pairs:
        return ""
    body = ",".join(f'{name}="{_escape(value)}"' for name, value in pairs)
    return "{" + body + "}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _snapshot_values(values: Dict[_LabelKey, float]) -> Any:
    """A metric's stored values as the plain snapshot shape."""
    if not values:
        return 0
    if len(values) == 1 and () in values:
        return values[()]
    return {"|".join(f"{k}={v}" for k, v in key) or "_": value
            for key, value in sorted(values.items())}


class _Metric:
    """Shared shell: name, help text, per-label-set children."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str = "") -> None:
        self.name = name
        self.help = help_text
        self._lock = threading.Lock()


class Counter(_Metric):
    """A monotone total per label set, incremented inline."""

    kind = "counter"

    def __init__(self, name: str, help_text: str = "") -> None:
        super().__init__(name, help_text)
        self._values: Dict[_LabelKey, float] = {}

    def inc(self, amount: float = 1, **labels) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {amount})")
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0) + amount

    def value(self, **labels) -> float:
        with self._lock:
            return self._values.get(_label_key(labels), 0)

    def total(self) -> float:
        with self._lock:
            return sum(self._values.values())

    def collect(self) -> List[str]:
        with self._lock:
            items = sorted(self._values.items())
        return [f"{self.name}{_render_labels(key)} {_format_value(value)}"
                for key, value in items] or [f"{self.name} 0"]

    def snapshot(self) -> Any:
        with self._lock:
            return _snapshot_values(self._values)


class Gauge(_Metric):
    kind = "gauge"

    def __init__(self, name: str, help_text: str = "",
                 function: Optional[Callable[[], float]] = None) -> None:
        super().__init__(name, help_text)
        self._values: Dict[_LabelKey, float] = {}
        #: Evaluated at scrape time (overrides stored values when set).
        self._function = function

    def set(self, value: float, **labels) -> None:
        with self._lock:
            self._values[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1, **labels) -> None:
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0) + amount

    def set_function(self, function: Callable[[], float]) -> "Gauge":
        with self._lock:
            self._function = function
        return self

    def _read(self) -> Tuple[Optional[float], Dict[_LabelKey, float]]:
        """(function value, {}) when function-backed, else (None, a copy of
        the stored values)."""
        with self._lock:
            function = self._function
            if function is None:
                return None, dict(self._values)
        try:
            return float(function()), {}
        except Exception:
            return 0.0, {}

    def value(self, **labels) -> float:
        computed, values = self._read()
        if computed is not None:
            return computed
        return values.get(_label_key(labels), 0.0)

    def collect(self) -> List[str]:
        computed, values = self._read()
        if computed is not None:
            return [f"{self.name} {_format_value(computed)}"]
        return [f"{self.name}{_render_labels(key)} {_format_value(value)}"
                for key, value in sorted(values.items())] or [f"{self.name} 0"]

    def snapshot(self) -> Any:
        computed, values = self._read()
        return computed if computed is not None else _snapshot_values(values)


class _HistogramChild:
    __slots__ = ("bucket_counts", "total", "sum")

    def __init__(self, bucket_count: int) -> None:
        self.bucket_counts = [0] * bucket_count
        self.total = 0
        self.sum = 0.0


class Histogram(_Metric):
    """Fixed upper-bound buckets; quantiles interpolated from counts."""

    kind = "histogram"

    def __init__(self, name: str, help_text: str = "",
                 buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> None:
        super().__init__(name, help_text)
        bounds = sorted(float(b) for b in buckets)
        if not bounds:
            raise ValueError(f"histogram {name} needs at least one bucket")
        self.bounds: Tuple[float, ...] = tuple(bounds)
        self._children: Dict[_LabelKey, _HistogramChild] = {}

    def observe(self, value: float, **labels) -> None:
        key = _label_key(labels)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = _HistogramChild(len(self.bounds))
            child.total += 1
            child.sum += value
            index = bisect.bisect_left(self.bounds, value)
            if index < len(self.bounds):
                child.bucket_counts[index] += 1
            # Values above the last bound land only in the implicit +Inf
            # bucket (child.total).

    def count(self, **labels) -> int:
        with self._lock:
            child = self._children.get(_label_key(labels))
            return child.total if child is not None else 0

    def sum_observed(self, **labels) -> float:
        with self._lock:
            child = self._children.get(_label_key(labels))
            return child.sum if child is not None else 0.0

    def quantile(self, q: float, **labels) -> Optional[float]:
        """Estimate the q-quantile from bucket counts (linear within buckets).

        Observations past the last bound are clamped to it — the standard
        fixed-bucket behaviour: tail precision is bounded by the top bucket.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            child = self._children.get(_label_key(labels))
            if child is None or child.total == 0:
                return None
            counts = list(child.bucket_counts)
            total = child.total
        rank = q * total
        cumulative = 0
        lower = 0.0
        for index, bound in enumerate(self.bounds):
            previous = cumulative
            cumulative += counts[index]
            if cumulative >= rank and counts[index] > 0:
                fraction = ((rank - previous) / counts[index]
                            if counts[index] else 0.0)
                return lower + (bound - lower) * min(1.0, max(0.0, fraction))
            lower = bound
        return self.bounds[-1]

    def collect(self) -> List[str]:
        lines: List[str] = []
        with self._lock:
            items = sorted(
                (key, list(child.bucket_counts), child.total, child.sum)
                for key, child in self._children.items()
            )
        if not items:
            items = [((), [0] * len(self.bounds), 0, 0.0)]
        for key, counts, total, observed_sum in items:
            cumulative = 0
            for index, bound in enumerate(self.bounds):
                cumulative += counts[index]
                labels = _render_labels(key, ("le", _format_value(bound)))
                lines.append(f"{self.name}_bucket{labels} {cumulative}")
            labels = _render_labels(key, ("le", "+Inf"))
            lines.append(f"{self.name}_bucket{labels} {total}")
            lines.append(f"{self.name}_sum{_render_labels(key)} "
                         f"{_format_value(round(observed_sum, 9))}")
            lines.append(f"{self.name}_count{_render_labels(key)} {total}")
        return lines

    def snapshot(self) -> Dict[str, Any]:
        p50 = self.quantile(0.50)
        p95 = self.quantile(0.95)
        p99 = self.quantile(0.99)
        return {
            "count": self.count(),
            "sum": round(self.sum_observed(), 9),
            "p50": round(p50, 9) if p50 is not None else None,
            "p95": round(p95, 9) if p95 is not None else None,
            "p99": round(p99, 9) if p99 is not None else None,
        }


#: One row of a counter declaration table: (field, kind, series, help).
Declaration = Tuple[str, str, Optional[str], str]


class CounterSet:
    """One layer's aggregate counters, declared once.

    ``declarations`` is a table of ``(field, kind, series, help)`` rows:
    ``kind`` is ``"sum"`` (:meth:`add` accumulates the delta) or ``"peak"``
    (:meth:`add` keeps the largest value offered); ``series`` is the exported
    metric name, or None for a field only snapshots show.  :meth:`add` is the
    only mutation — one lock acquisition however many fields move — so every
    :meth:`snapshot` is a point-in-time copy in declared order, and the series
    a registry renders after :meth:`MetricsRegistry.attach` are these same
    integers: a scrape and a snapshot cannot disagree.
    """

    def __init__(self, declarations: Sequence[Declaration]) -> None:
        self.declarations = tuple(declarations)
        self._lock = threading.Lock()
        self._values: Dict[str, int] = {row[0]: 0 for row in self.declarations}
        self._peaks = frozenset(row[0] for row in self.declarations
                                if row[1] == "peak")

    def add(self, **deltas: int) -> None:
        values, peaks = self._values, self._peaks
        with self._lock:
            for field, delta in deltas.items():
                if field not in peaks:
                    values[field] += delta
                elif delta > values[field]:
                    values[field] = delta

    def __getattr__(self, field: str) -> int:
        try:
            return self.__dict__["_values"][field]
        except KeyError:
            raise AttributeError(field) from None

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._values)


class _CounterSetSeries:
    """One exported field of an attached :class:`CounterSet`, as a metric."""

    def __init__(self, name: str, help_text: str, kind: str,
                 counters: CounterSet, field: str) -> None:
        self.name = name
        self.help = help_text
        self.kind = "gauge" if kind == "peak" else "counter"
        self._counters = counters
        self._field = field

    def value(self) -> int:
        return getattr(self._counters, self._field)

    total = snapshot = value

    def collect(self) -> List[str]:
        return [f"{self.name} {_format_value(self.value())}"]


class MetricsRegistry:
    """Name → metric, with get-or-create accessors and text exposition.

    Accessors are idempotent: asking for an existing name returns the same
    metric object (a kind mismatch raises), so every layer can declare the
    metrics it needs without coordinating creation order.
    """

    def __init__(self, namespace: str = "coin") -> None:
        self.namespace = namespace
        self._lock = threading.Lock()
        self._metrics: Dict[str, _Metric] = {}

    def _qualify(self, name: str) -> str:
        if self.namespace and not name.startswith(self.namespace + "_"):
            return f"{self.namespace}_{name}"
        return name

    def _get_or_create(self, name: str, factory, kind) -> _Metric:
        name = self._qualify(name)
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = factory(name)
            elif metric.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {metric.kind}, "
                    f"not {kind}"
                )
            return metric

    def counter(self, name: str, help_text: str = "") -> Counter:
        return self._get_or_create(
            name, lambda n: Counter(n, help_text), "counter")

    def gauge(self, name: str, help_text: str = "",
              function: Optional[Callable[[], float]] = None) -> Gauge:
        gauge = self._get_or_create(
            name, lambda n: Gauge(n, help_text), "gauge")
        if function is not None:
            gauge.set_function(function)
        return gauge

    def histogram(self, name: str, help_text: str = "",
                  buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> Histogram:
        return self._get_or_create(
            name, lambda n: Histogram(n, help_text, buckets), "histogram")

    def attach(self, counters: CounterSet) -> CounterSet:
        """Render ``counters``' exported fields as series of this registry
        (re-attaching a layer's set replaces the previous instance's)."""
        for field, kind, series, help_text in counters.declarations:
            if series is not None:
                name = self._qualify(series)
                with self._lock:
                    self._metrics[name] = _CounterSetSeries(
                        name, help_text, kind, counters, field)
        return counters

    # -- exposition --------------------------------------------------------------

    def render(self) -> str:
        """The Prometheus text exposition of every registered metric."""
        with self._lock:
            metrics = sorted(self._metrics.items())
        lines: List[str] = []
        for name, metric in metrics:
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            lines.append(f"# TYPE {name} {metric.kind}")
            lines.extend(metric.collect())
        return "\n".join(lines) + "\n"

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            metrics = sorted(self._metrics.items())
        return {name: metric.snapshot() for name, metric in metrics}

    def get(self, name: str) -> Optional[_Metric]:
        with self._lock:
            return self._metrics.get(self._qualify(name))

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)
