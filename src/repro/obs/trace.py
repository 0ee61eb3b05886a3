"""Hierarchical query tracing with an injectable monotonic clock.

One executed statement yields one **span tree**: a root ``statement`` span
with nested children for every stage the statement passed through —

    statement
    ├─ parse
    ├─ mediate
    ├─ plan            (cache probe / join reorder annotated)
    ├─ admission       (queue wait at the gateway)
    └─ execute
       ├─ fetch:<wrapper>/<relation>
       │  ├─ attempt#1   (breaker state annotated; error on failure)
       │  └─ attempt#2
       └─ stream        (finalization, rows streamed)

Design constraints, mirrored from the rest of the engine:

* **Injectable time.**  The tracer takes any clock exposing ``now()`` (a
  :class:`~repro.engine.resilience.ManualClock` works verbatim) or a bare
  ``time.monotonic``-style callable, so chaos tests assert exact span
  durations without sleeping.
* **Off-by-default cheap.**  A disabled tracer hands out the shared
  :data:`NULL_SPAN` whose every method is a no-op returning itself; the
  instrumented code never branches on "is tracing on" beyond that one
  constant-time call.
* **Cross-thread safe.**  The *current* span travels via a contextvar for
  same-thread nesting (``parse`` under ``statement``), but worker threads
  (source fetches in the executor pool) receive their parent span
  **explicitly** and create children off it — contextvars do not cross
  thread-pool boundaries and this module never pretends they do.
* **Head-based sampling.**  The keep/drop decision is made when the trace
  starts (deterministic: a seeded per-trace PRNG, so runs replay); spans
  are still recorded while the statement runs so that a trace that turns
  out to matter — error, shed, partial answer, slow statement — is kept
  regardless of the head decision.  Finished trees land in a bounded
  :class:`TraceBuffer`.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import random
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Union

from repro.obs.cache import BoundedCache

__all__ = [
    "Span",
    "NullSpan",
    "NULL_SPAN",
    "Tracer",
    "TraceBuffer",
    "current_span",
    "deactivate_span",
    "bind_tenant",
    "current_tenant",
]

#: The ambient span of the calling thread (same-thread nesting only).
_CURRENT_SPAN: "contextvars.ContextVar[Optional[Span]]" = contextvars.ContextVar(
    "coin_current_span", default=None
)

#: The tenant the current request is executing for, bound by the admission
#: gateway so deep layers (slow-query logging) can attribute work without
#: every call signature carrying a tenant parameter.
_CURRENT_TENANT: "contextvars.ContextVar[Optional[str]]" = contextvars.ContextVar(
    "coin_current_tenant", default=None
)


def current_span() -> "Union[Span, NullSpan]":
    """The active span of this thread, or :data:`NULL_SPAN` when untraced."""
    span = _CURRENT_SPAN.get()
    return span if span is not None else NULL_SPAN


def deactivate_span(token) -> None:
    """Undo a :meth:`Span.activate` (no-op for the null span's ``None``)."""
    if token is not None:
        _CURRENT_SPAN.reset(token)


def bind_tenant(tenant: Optional[str]):
    """Bind the ambient tenant; returns a token for :func:`unbind_tenant`."""
    return _CURRENT_TENANT.set(tenant)


def unbind_tenant(token) -> None:
    _CURRENT_TENANT.reset(token)


def current_tenant() -> Optional[str]:
    return _CURRENT_TENANT.get()


def _resolve_now(clock) -> Callable[[], float]:
    """Accept a ManualClock/Clock-style object (``.now``) or a callable."""
    if clock is None:
        return time.monotonic
    now = getattr(clock, "now", None)
    if now is not None:
        return now
    return clock


class NullSpan:
    """The do-nothing span a disabled (or unsampled) path hands out.

    Every method is a constant-time no-op; :meth:`child` returns the same
    singleton, so a whole untraced statement costs a handful of attribute
    lookups and no allocation.
    """

    __slots__ = ()

    trace_id: Optional[str] = None
    span_id: Optional[str] = None
    name = ""
    recording = False

    def child(self, name: str, **attributes) -> "NullSpan":
        return self

    def annotate(self, **attributes) -> "NullSpan":
        return self

    def event(self, name: str, **attributes) -> "NullSpan":
        return self

    def flag(self, reason: str) -> "NullSpan":
        return self

    def finish(self, error: Optional[BaseException] = None) -> None:
        return None

    def activate(self):
        return None

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def to_dict(self) -> Dict[str, Any]:
        return {}


#: Shared no-op span; identity-comparable (``span is NULL_SPAN``).
NULL_SPAN = NullSpan()


class Span:
    """One timed operation in a trace tree.

    Spans are created through :meth:`Tracer.start_trace` (roots) or
    :meth:`child`; they finish explicitly (:meth:`finish`) or via ``with``.
    Mutation is lock-guarded: fetch worker threads annotate and attach
    children concurrently with the coordinating thread.
    """

    __slots__ = ("tracer", "trace_id", "_sid", "_parent_sid", "name",
                 "started_at", "ended_at", "attributes", "_events",
                 "_children", "error", "sampled", "_flags", "_lock",
                 "_ctx_token", "_root")

    recording = True

    def __init__(self, tracer: "Tracer", trace_id: str, span_id: int,
                 name: str, parent_id: Optional[int] = None,
                 sampled: bool = True, root: "Optional[Span]" = None,
                 **attributes) -> None:
        self.tracer = tracer
        self.trace_id = trace_id
        self._sid = span_id
        self._parent_sid = parent_id
        self.name = name
        self.started_at = tracer._now()
        self.ended_at: Optional[float] = None
        self.attributes: Dict[str, Any] = attributes
        #: Events/children/flags are lazily allocated: most spans are leaves
        #: with neither, and the warm statement path mints five spans per
        #: query — three empty containers each is real allocator/GC traffic.
        self._events: Optional[List[Dict[str, Any]]] = None
        self._children: Optional[List[Span]] = None
        self.error: Optional[str] = None
        self.sampled = sampled
        self._flags: Optional[set] = None
        #: The whole tree shares the root's lock — mutation is one span at a
        #: time and trees are small, so coarse granularity wins on allocs.
        self._lock = threading.Lock() if root is None else root._lock
        self._ctx_token = None
        self._root: Span = root if root is not None else self

    # -- id formatting (ints internally; rendered on access/export) --------------

    @property
    def span_id(self) -> str:
        return f"s{self._sid:x}"

    @property
    def parent_id(self) -> Optional[str]:
        if self._parent_sid is None:
            return None
        return f"s{self._parent_sid:x}"

    @property
    def events(self) -> List[Dict[str, Any]]:
        return self._events if self._events is not None else []

    @property
    def children(self) -> "List[Span]":
        return self._children if self._children is not None else []

    @property
    def flags(self) -> set:
        return self._flags if self._flags is not None else set()

    # -- building the tree -------------------------------------------------------

    def child(self, name: str, **attributes) -> "Span":
        # Slot-by-slot construction instead of Span(...): the warm statement
        # path opens several children per query and re-marshalling keyword
        # arguments through __init__ is measurable there.
        tracer = self.tracer
        span = Span.__new__(Span)
        span.tracer = tracer
        span.trace_id = self.trace_id
        span._sid = next(tracer._span_counter)
        span._parent_sid = self._sid
        span.name = name
        span.started_at = tracer._now()
        span.ended_at = None
        span.attributes = attributes
        span._events = None
        span._children = None
        span.error = None
        span.sampled = self.sampled
        span._flags = None
        span._lock = self._lock
        span._ctx_token = None
        span._root = self._root
        with self._lock:
            # A child opened after its parent finished still belongs to the
            # tree (late stream finalization); record, don't drop.
            if self._children is None:
                self._children = [span]
            else:
                self._children.append(span)
        return span

    def annotate(self, **attributes) -> "Span":
        with self._lock:
            self.attributes.update(attributes)
        return self

    def event(self, name: str, **attributes) -> "Span":
        entry = {"name": name, "at": self.tracer._now()}
        if attributes:
            entry.update(attributes)
        with self._lock:
            if self._events is None:
                self._events = [entry]
            else:
                self._events.append(entry)
        return self

    def flag(self, reason: str) -> "Span":
        """Mark this trace worth keeping regardless of the head decision.

        The flag is mirrored onto the root as it is set (the tree shares one
        lock), so finishing a trace never has to walk the tree to collect
        force-keep markers.
        """
        root = self._root
        with self._lock:
            if self._flags is None:
                self._flags = {reason}
            else:
                self._flags.add(reason)
            if root is not self:
                if root._flags is None:
                    root._flags = {reason}
                else:
                    root._flags.add(reason)
        return self

    # -- lifecycle ---------------------------------------------------------------

    @property
    def open(self) -> bool:
        return self.ended_at is None

    def finish(self, error: Optional[BaseException] = None) -> None:
        """Close the span (idempotent); an error force-keeps the trace."""
        root = self._root
        with self._lock:
            if self.ended_at is not None:
                return
            self.ended_at = self.tracer._now()
            if error is not None:
                self.error = f"{type(error).__name__}: {error}"
                if self._flags is None:
                    self._flags = {"error"}
                else:
                    self._flags.add("error")
                if root is not self:
                    if root._flags is None:
                        root._flags = {"error"}
                    else:
                        root._flags.add("error")
        if self._parent_sid is None:
            self.tracer._trace_finished(self)

    def duration_seconds(self) -> Optional[float]:
        if self.ended_at is None:
            return None
        return self.ended_at - self.started_at

    # -- context management ------------------------------------------------------

    def activate(self):
        """Install as this thread's current span; returns a reset token."""
        return _CURRENT_SPAN.set(self)

    def __enter__(self) -> "Span":
        self._ctx_token = _CURRENT_SPAN.set(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._ctx_token is not None:
            _CURRENT_SPAN.reset(self._ctx_token)
            self._ctx_token = None
        self.finish(error=exc if isinstance(exc, BaseException) else None)
        return False

    # -- export ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        with self._lock:
            children = list(self._children) if self._children else []
            document: Dict[str, Any] = {
                "trace_id": self.trace_id,
                "span_id": self.span_id,
                "name": self.name,
                "started_at": round(self.started_at, 9),
                "attributes": dict(self.attributes),
            }
            if self._parent_sid is not None:
                document["parent_id"] = self.parent_id
            if self.ended_at is not None:
                document["duration_seconds"] = round(
                    self.ended_at - self.started_at, 9)
            else:
                document["open"] = True
            if self.error is not None:
                document["error"] = self.error
            if self._events:
                document["events"] = [dict(event) for event in self._events]
            if self._flags:
                document["flags"] = sorted(self._flags)
        if children:
            document["children"] = [child.to_dict() for child in children]
        return document

    def walk(self):
        """Yield this span and every descendant (depth-first)."""
        yield self
        with self._lock:
            children = list(self._children) if self._children else []
        for child in children:
            yield from child.walk()

    def open_spans(self) -> List["Span"]:
        return [span for span in self.walk() if span.open]

    def summary(self) -> str:
        """One-line rendering: ``statement(12.3ms: parse, plan, execute)``."""
        duration = self.duration_seconds()
        timing = f"{duration * 1000:.1f}ms" if duration is not None else "open"
        names = ", ".join(child.name for child in self._children or ())
        return f"{self.name}({timing}" + (f": {names})" if names else ")")


class TraceBuffer:
    """Bounded in-memory store of finished trace trees (most recent kept).

    Keeping a trace stores the finished root :class:`Span` itself in a
    :class:`~repro.obs.cache.BoundedCache`; trees are serialized to dicts
    lazily, on read, and reading one does not refresh it.  Scrapes and test
    assertions are rare next to statement completions, so the hot path
    (``keep``) is one cache insert instead of a recursive export.
    """

    def __init__(self, capacity: int = 256) -> None:
        self._roots = BoundedCache(capacity)
        self._lock = threading.Lock()
        self.dropped_unsampled = 0

    @property
    def capacity(self) -> int:
        return self._roots.capacity

    @property
    def kept(self) -> int:
        return self._roots.statistics.puts

    @property
    def evicted(self) -> int:
        return self._roots.statistics.evictions

    def keep(self, root: Span) -> None:
        self._roots.put(root.trace_id, root)

    def drop(self) -> None:
        with self._lock:
            self.dropped_unsampled += 1

    def get(self, trace_id: str) -> Optional[Dict[str, Any]]:
        root = self._roots.peek(trace_id)
        return root.to_dict() if root is not None else None

    def traces(self) -> List[Dict[str, Any]]:
        return [root.to_dict() for root in self._roots.values()]

    def __len__(self) -> int:
        return len(self._roots)

    def export_json(self, indent: Optional[int] = None) -> str:
        return json.dumps({"traces": self.traces()}, indent=indent,
                          sort_keys=True)

    def snapshot(self) -> Dict[str, int]:
        roots = self._roots.snapshot()
        return {
            "buffered": roots["entries"],
            "capacity": self.capacity,
            "kept": roots["puts"],
            "dropped_unsampled": self.dropped_unsampled,
            "evicted": roots["evictions"],
        }


class Tracer:
    """Mints trace trees; disabled tracers short-circuit to :data:`NULL_SPAN`.

    ``sample_rate`` is the head-based keep probability (deterministic per
    trace index via a seeded PRNG); traces flagged ``error``/``shed``/
    ``partial``/``slow`` are kept regardless.  ``clock`` takes anything with
    a ``.now()`` (:class:`~repro.engine.resilience.ManualClock`) or a bare
    monotonic callable.
    """

    def __init__(self, enabled: bool = True, sample_rate: float = 1.0,
                 buffer_capacity: int = 256, clock=None, seed: int = 0,
                 slow_seconds: Optional[float] = None) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be in [0, 1], got {sample_rate}")
        self.enabled = enabled
        self.sample_rate = sample_rate
        #: Statements slower than this are force-kept (``slow`` flag).
        self.slow_seconds = slow_seconds
        self.buffer = TraceBuffer(buffer_capacity)
        self._now = _resolve_now(clock)
        self._seed = seed
        self._lock = threading.Lock()
        self._trace_index = 0
        #: One persistent seeded PRNG for id entropy — constructing a
        #: string-seeded ``random.Random`` per trace costs a SHA-512 round,
        #: which is real money on the warm statement path.
        self._id_rng = random.Random(f"{seed}|ids")
        self._span_counter = itertools.count(1)
        self.started = 0
        self.finished = 0

    def _head_sampled(self, trace_id: str) -> bool:
        if self.sample_rate >= 1.0:
            return True
        if self.sample_rate <= 0.0:
            return False
        rng = random.Random(f"{self._seed}|sample|{trace_id}")
        return rng.random() < self.sample_rate

    # -- trace lifecycle ---------------------------------------------------------

    def start_trace(self, name: str, trace_id: Optional[str] = None,
                    **attributes) -> Union[Span, NullSpan]:
        """Open a root span (new trace id unless one arrived from the edge)."""
        if not self.enabled:
            return NULL_SPAN
        with self._lock:
            self.started += 1
            if trace_id is None:
                self._trace_index += 1
                trace_id = (f"t{self._trace_index:06x}"
                            f"{self._id_rng.getrandbits(40):010x}")
        # Slot-by-slot construction (see Span.child): the root is minted
        # once per statement and this is the statement hot path.
        span = Span.__new__(Span)
        span.tracer = self
        span.trace_id = trace_id
        span._sid = next(self._span_counter)
        span._parent_sid = None
        span.name = name
        span.started_at = self._now()
        span.ended_at = None
        span.attributes = attributes
        span._events = None
        span._children = None
        span.error = None
        span.sampled = self._head_sampled(trace_id)
        span._flags = None
        span._lock = threading.Lock()
        span._ctx_token = None
        span._root = span
        return span

    def span(self, name: str, **attributes) -> Union[Span, NullSpan]:
        """A child of this thread's current span (no-op when untraced)."""
        if not self.enabled:
            return NULL_SPAN
        parent = _CURRENT_SPAN.get()
        if parent is None:
            return NULL_SPAN
        return parent.child(name, **attributes)

    def _trace_finished(self, root: Span) -> None:
        with self._lock:
            self.finished += 1
        if self.slow_seconds is not None:
            duration = root.duration_seconds()
            if duration is not None and duration >= self.slow_seconds:
                root.flag("slow")
        # Descendant force-keep flags were mirrored onto the root as they
        # were set (Span.flag/finish), so no tree walk is needed here.
        if root.sampled or root._flags:
            self.buffer.keep(root)
        else:
            self.buffer.drop()

    # -- reporting ---------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            started, finished = self.started, self.finished
        return {
            "enabled": self.enabled,
            "sample_rate": self.sample_rate,
            "started": started,
            "finished": finished,
            "buffer": self.buffer.snapshot(),
        }


#: A module-level disabled tracer for layers constructed without one.
DISABLED_TRACER = Tracer(enabled=False, buffer_capacity=1)
