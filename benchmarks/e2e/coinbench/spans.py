"""The benchmark's own in-memory span recorder and the layer budget.

Spans are recorded from the benchmark's files, around the calls into each
layer: the load loop opens a ``statement`` root per statement, timing proxies
installed on the system's public methods open a child per call, and the
wrapper proxies report every source round trip.  A span is ``(id, parent,
statement, name, start, end)``; spans are kept in memory and written out when
the run ends.

Calls on one thread nest through a thread-local stack.  Two boundaries cross
threads and are linked afterwards: a server-side ``server.handle`` span is
tied to the client's statement by the trace id the ODBC driver minted (or the
cursor id the server handed out), and a ``wrappers.fetch`` span — issued from
the engine's fetch pool — is given to the ``engine.execute`` span that was
open when it started and whose plan asks for that wrapper.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: Span name -> the ``src/repro`` layer its *self time* is charged to.
LAYER_OF = {
    "statement": "unattributed",
    "server.roundtrip": "server",
    "server.handle": "server",
    "pipeline.prepare": "pipeline",
    "mediation.mediate": "mediation",
    "mediation.annotate": "mediation",
    "engine.plan": "engine",
    "engine.execute": "engine",
    "engine.execute_stream": "engine",
    "engine.fetch_batch": "engine",
    "wrappers.fetch": "wrappers",
}

#: The budget's rows.  ``relational`` has no span (no boundary of it can be
#: wrapped from outside): it is carved out of ``engine`` with the statement's
#: ``operator_seconds``, which the load loop reads off the engine's report.
LAYERS = ("server", "pipeline", "mediation", "engine", "relational", "wrappers",
          "unattributed")


class Span:
    __slots__ = ("id", "parent", "statement", "name", "start", "end", "attrs")

    def __init__(self, span_id: int, parent: Optional[int], statement: Optional[int],
                 name: str, start: float):
        self.id = span_id
        self.parent = parent
        self.statement = statement
        self.name = name
        self.start = start
        self.end = start
        self.attrs: Dict[str, Any] = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans; ``enabled`` gates recording so proxies cost one check."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0

    def _new(self, name: str, start: float, parent: Optional[Span]) -> Span:
        with self._lock:
            self._next_id += 1
            span = Span(self._next_id, parent.id if parent else None,
                        parent.statement if parent else None, name, start)
            self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, **attrs):
        """Open a span under whatever span this thread has open."""
        if not self.enabled:
            yield None
            return
        stack = self._local.__dict__.setdefault("stack", [])
        span = self._new(name, time.perf_counter(), stack[-1] if stack else None)
        if name == "statement":
            span.statement = span.id
        span.attrs.update(attrs)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def record_fetch(self, wrapper: str, start: float, end: float) -> None:
        if not self.enabled:
            return
        span = self._new("wrappers.fetch", start, None)
        span.end = end
        span.attrs["wrapper"] = wrapper

    def drain(self) -> List[Span]:
        with self._lock:
            spans, self.spans = self.spans, []
        return spans


def timed_method(recorder: SpanRecorder, owner: Any, method: str, name: str,
                 attrs: Optional[Callable[..., Dict[str, Any]]] = None) -> None:
    """Install a timing proxy on a public method of one instance."""
    inner = getattr(owner, method)

    def proxy(*args, **kwargs):
        if not recorder.enabled:
            return inner(*args, **kwargs)
        with recorder.span(name) as span:
            if attrs is not None:
                span.attrs.update(attrs(*args, **kwargs))
            return inner(*args, **kwargs)

    setattr(owner, method, proxy)


def _plan_wrappers(plan, *args, **kwargs) -> Dict[str, Any]:
    """Wrappers a ``QueryPlan`` asks for (the engine proxies receive one)."""
    branches = getattr(plan, "branches", ())
    return {"wrappers": [request.wrapper_name
                         for branch in branches for request in branch.requests]}


def instrument_federation(recorder: SpanRecorder, federation) -> None:
    """Timing proxies on the federation's public layer boundaries."""
    timed_method(recorder, federation.pipeline, "prepare", "pipeline.prepare")
    timed_method(recorder, federation.mediator, "mediate", "mediation.mediate")
    timed_method(recorder, federation.transformer, "annotate", "mediation.annotate")
    timed_method(recorder, federation.engine, "plan_branches", "engine.plan")
    timed_method(recorder, federation.engine, "execute", "engine.execute",
                 _plan_wrappers)
    timed_method(recorder, federation.engine, "execute_stream",
                 "engine.execute_stream", _plan_wrappers)


def instrument_server(recorder: SpanRecorder, server) -> None:
    """A ``server.handle`` span per protocol request, carrying its link keys."""
    inner = server.handle

    def handle(request, *args, **kwargs):
        if not recorder.enabled:
            return inner(request, *args, **kwargs)
        with recorder.span("server.handle", operation=request.operation,
                           trace_id=request.trace_id,
                           cursor_id=request.parameters.get("cursor_id")) as span:
            response = inner(request, *args, **kwargs)
            if response.ok and "cursor_id" in response.payload:
                span.attrs["opened_cursor"] = response.payload["cursor_id"]
            return response

    server.handle = handle


# -- analysis ---------------------------------------------------------------------


def link_spans(spans: List[Span]) -> None:
    """Resolve the two cross-thread parent links in place."""
    by_id = {span.id: span for span in spans}
    roundtrips = [span for span in spans if span.name == "server.roundtrip"]
    by_trace = {span.attrs["trace_id"]: span for span in roundtrips
                if span.attrs.get("trace_id")}
    by_cursor: Dict[str, Span] = {}
    for span in sorted((s for s in spans if s.name == "server.handle"),
                       key=lambda s: s.start):
        parent = by_trace.get(span.attrs.get("trace_id"))
        if parent is None and span.attrs.get("cursor_id"):
            # fetch_cursor/close_cursor carry no trace id: they belong to the
            # statement that opened the cursor, under the client round trip
            # that was waiting while they ran.
            opener = by_cursor.get(span.attrs["cursor_id"])
            if opener is not None:
                parent = next(
                    (trip for trip in roundtrips
                     if trip.statement == opener.statement
                     and trip.start <= span.start and span.end <= trip.end),
                    None)
        if parent is not None:
            span.parent = parent.id
            span.attrs["linked"] = True
        if span.attrs.get("opened_cursor") and parent is not None:
            by_cursor[span.attrs["opened_cursor"]] = parent
    # Statement ids flow down from linked parents.
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)

    def adopt(span: Span) -> None:
        for child in children.get(span.id, ()):
            child.statement = span.statement
            adopt(child)

    for span in spans:
        if span.attrs.pop("linked", False):
            span.statement = by_id[span.parent].statement
            adopt(span)

    # Fetches: the latest-started engine span that contains the fetch's start
    # and still expects a round trip to that wrapper.
    executes = sorted(
        (s for s in spans if s.name in ("engine.execute", "engine.execute_stream")),
        key=lambda s: s.start)
    expected = {span.id: list(span.attrs.get("wrappers", ())) for span in executes}
    # A stream's fetches may complete after ``execute_stream`` returned, while
    # the client pulls batches: they stay open until the statement ends.
    ends = {span.id: (by_id[span.statement].end
                      if span.name == "engine.execute_stream" and span.statement in by_id
                      else span.end)
            for span in executes}
    for fetch in sorted((s for s in spans if s.name == "wrappers.fetch"),
                        key=lambda s: s.start):
        for owner in reversed(executes):
            wanted = expected[owner.id]
            if (owner.start <= fetch.start <= ends[owner.id]
                    and fetch.attrs["wrapper"] in wanted):
                wanted.remove(fetch.attrs["wrapper"])
                fetch.parent = owner.id
                fetch.statement = owner.statement
                break


def _covered(intervals: Iterable[Tuple[float, float]], low: float, high: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    total = 0.0
    cursor = low
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, high)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_seconds(spans: List[Span]) -> Dict[int, float]:
    """A span's duration minus the part of it its child spans cover.

    While a source round trip of the statement is in flight the statement is
    waiting on the source, whichever span happens to be open on the calling
    thread: a statement's ``wrappers.fetch`` intervals are taken out of every
    other span of the statement, not only out of their parent.  A fetch's own
    self time is not defined here (parallel fetches overlap); the budget
    charges their union.
    """
    children = defaultdict(list)
    fetches = defaultdict(list)
    for span in spans:
        if span.name == "wrappers.fetch":
            fetches[span.statement].append((span.start, span.end))
        elif span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.id: span.seconds - _covered(
            children.get(span.id, []) + fetches.get(span.statement, []),
            span.start, span.end)
        for span in spans if span.name != "wrappers.fetch"
    }


def layer_budget(spans: List[Span], low_ms: float, high_ms: float) -> Dict[str, float]:
    """Mean self time per layer (ms) over the statements whose latency lies in
    ``[low_ms, high_ms]`` — a narrow band about the median, so the rows add
    up to the median latency.  ``wrappers`` is the union of the statement's
    source round trips; time under no wrapped boundary is ``unattributed``."""
    own = self_seconds(spans)
    typical = {span.id: span for span in spans if span.name == "statement"
               and low_ms <= span.seconds * 1000.0 <= high_ms}
    budget = {layer: 0.0 for layer in LAYERS}
    if not typical:
        return budget
    engine = dict.fromkeys(typical, 0.0)
    fetches = defaultdict(list)
    for span in spans:
        if span.statement not in typical:
            continue
        if span.name == "wrappers.fetch":
            fetches[span.statement].append((span.start, span.end))
        elif LAYER_OF[span.name] == "engine":
            engine[span.statement] += own[span.id]
        else:
            budget[LAYER_OF[span.name]] += own[span.id]
    for statement, root in typical.items():
        operators = min(root.attrs.get("operator_seconds", 0.0), engine[statement])
        budget["relational"] += operators
        budget["engine"] += engine[statement] - operators
        budget["wrappers"] += _covered(fetches[statement], root.start, root.end)
    return {layer: seconds * 1000.0 / len(typical)
            for layer, seconds in budget.items()}


def durations_ms(spans: List[Span], name: str,
                 where: Optional[Callable[[Span], bool]] = None) -> List[float]:
    return [span.seconds * 1000.0 for span in spans
            if span.name == name and (where is None or where(span))]


def write_trace(spans: List[Span], path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        json.dump([
            {"id": span.id, "parent": span.parent, "statement": span.statement,
             "name": span.name, "start": span.start, "end": span.end,
             **{key: value for key, value in span.attrs.items()
                if key in ("operation", "wrapper", "shape")}}
            for span in spans
        ], handle)
