"""Operational telemetry for the mediator: tracing, metrics, structured logs.

:class:`Observability` bundles the three instruments every layer shares:

* a :class:`~repro.obs.trace.Tracer` producing one hierarchical span tree
  per statement (disabled by default — the no-op path costs a single
  attribute check),
* a :class:`~repro.obs.metrics.MetricsRegistry` of counters/gauges/
  fixed-bucket histograms (always on; increments are a dict update under a
  lock), exposed as Prometheus text at ``GET /coin/metrics`` and through
  the ``metrics`` protocol operation,
* an :class:`~repro.obs.log.EventLog` JSON-lines log with a slow-query
  threshold.

One bundle is owned by each :class:`~repro.federation.Federation` and
reused by the server/gateway/transport stack built on it, so a scrape sees
every layer's series in one exposition.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.obs.log import EventLog
from repro.obs.metrics import (
    Counter,
    CounterSet,
    Gauge,
    Histogram,
    MetricsRegistry,
    DEFAULT_LATENCY_BUCKETS,
)
from repro.obs.trace import (
    NULL_SPAN,
    NullSpan,
    Span,
    TraceBuffer,
    Tracer,
    current_span,
)

__all__ = [
    "Observability",
    "Tracer",
    "Span",
    "NullSpan",
    "NULL_SPAN",
    "TraceBuffer",
    "current_span",
    "MetricsRegistry",
    "Counter",
    "CounterSet",
    "Gauge",
    "Histogram",
    "DEFAULT_LATENCY_BUCKETS",
    "EventLog",
]


class Observability:
    """The per-federation telemetry bundle (tracer + metrics + event log).

    ``tracing`` turns span production on; ``sample_rate`` is the head-based
    keep probability (errors/sheds/partial answers/slow statements are kept
    regardless).  ``clock`` is injectable (ManualClock-compatible) and is
    shared by all three instruments.
    """

    def __init__(self, tracing: bool = False, sample_rate: float = 1.0,
                 trace_buffer_capacity: int = 256,
                 slow_query_seconds: float = 1.0,
                 log_capacity: int = 1024, log_stream=None,
                 clock=None, seed: int = 0,
                 tracer: Optional[Tracer] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 log: Optional[EventLog] = None) -> None:
        self.tracer = tracer if tracer is not None else Tracer(
            enabled=tracing, sample_rate=sample_rate,
            buffer_capacity=trace_buffer_capacity, clock=clock, seed=seed,
            slow_seconds=slow_query_seconds,
        )
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.log = log if log is not None else EventLog(
            capacity=log_capacity, slow_query_seconds=slow_query_seconds,
            stream=log_stream, clock=clock,
        )

    def statement_root(self, trace_id: Optional[str] = None, **attributes):
        """The root ``statement`` span for a trace edge (not yet activated).

        Only ``Federation.open`` (every executed statement, whichever door
        it came through) and ``MediationServer._compile`` (``prepare``,
        ``mediate``, ``explain``) open roots.  Root ownership: the outermost
        edge wins.  When a span is already ambient (a caller traced the
        statement as part of its own work) or tracing is off, this is
        :data:`NULL_SPAN` — so edges activate, annotate and finish what they
        get unconditionally.  The statement's text is never recorded: the
        pipeline annotates the root with its AST fingerprint once parsed.
        """
        if not self.tracer.enabled or current_span().recording:
            return NULL_SPAN
        return self.tracer.start_trace("statement", trace_id=trace_id,
                                       **attributes)

    def snapshot(self) -> Dict[str, Any]:
        return {
            "tracing": self.tracer.snapshot(),
            "log": self.log.snapshot(),
        }
