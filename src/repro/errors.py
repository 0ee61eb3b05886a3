"""Exception hierarchy for the COIN mediator reproduction.

Every subsystem raises exceptions derived from :class:`ReproError` so that
callers (the server layer in particular) can distinguish errors originating in
this library from programming errors, and can map them onto protocol-level
error responses.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of all errors raised by the ``repro`` library."""


# ---------------------------------------------------------------------------
# SQL substrate
# ---------------------------------------------------------------------------


class SQLError(ReproError):
    """Base class of errors raised by the SQL lexer/parser/printer."""


class SQLSyntaxError(SQLError):
    """Raised when a SQL string cannot be tokenized or parsed.

    Carries the position (offset, line, column) at which the problem was
    detected so interactive front ends (QBE, ODBC driver) can report it.
    """

    def __init__(self, message: str, position: int = -1, line: int = -1, column: int = -1):
        super().__init__(message)
        self.position = position
        self.line = line
        self.column = column

    def __str__(self) -> str:  # pragma: no cover - trivial formatting
        base = super().__str__()
        if self.line >= 0:
            return f"{base} (line {self.line}, column {self.column})"
        return base


class SQLUnsupportedError(SQLError):
    """Raised for SQL constructs outside the prototype's dialect."""


# ---------------------------------------------------------------------------
# Relational engine
# ---------------------------------------------------------------------------


class RelationalError(ReproError):
    """Base class of errors raised by the relational engine."""


class SchemaError(RelationalError):
    """Schema definition or lookup problem (unknown attribute, arity mismatch...)."""


class TypeMismatchError(RelationalError):
    """A value does not conform to the declared attribute type."""


class EvaluationError(RelationalError):
    """An expression could not be evaluated over a row."""


# ---------------------------------------------------------------------------
# Datalog engine
# ---------------------------------------------------------------------------


class DatalogError(ReproError):
    """Base class of errors raised by the datalog/deductive substrate."""


class ResolutionError(DatalogError):
    """Raised when SLD resolution is mis-configured (unknown predicate, etc.)."""


# ---------------------------------------------------------------------------
# COIN knowledge model
# ---------------------------------------------------------------------------


class CoinModelError(ReproError):
    """Base class of errors in the COIN knowledge representation."""


class DomainModelError(CoinModelError):
    """Malformed domain model (unknown semantic type, duplicate modifier...)."""


class ContextError(CoinModelError):
    """Malformed or unknown context / context theory."""


class ElevationError(CoinModelError):
    """Malformed elevation axioms (schema/type mismatch...)."""


class ConversionError(CoinModelError):
    """A conversion function is missing or failed to apply."""


# ---------------------------------------------------------------------------
# Mediation
# ---------------------------------------------------------------------------


class MediationError(ReproError):
    """Base class of errors raised by the context mediator."""


class ConflictDetectionError(MediationError):
    """The mediator could not compare contexts for a semantic type."""


class AbductionError(MediationError):
    """The abductive procedure failed (no consistent explanation, etc.)."""


# ---------------------------------------------------------------------------
# Multi-database access engine
# ---------------------------------------------------------------------------


class EngineError(ReproError):
    """Base class of errors raised by the multi-database access engine."""


class CatalogError(EngineError):
    """Unknown source or relation in the dictionary/catalog."""


class PlanningError(EngineError):
    """The planner could not produce an executable plan."""


class ExecutionError(EngineError):
    """A plan failed at execution time."""


class DeadlineExceededError(ExecutionError):
    """The statement's deadline (:class:`~repro.options.StatementOptions`)
    expired.

    Raised from fetch waits, retry backoff sleeps and streaming finalization
    alike.  A deadline expiry is never downgraded to a partial answer: the
    receiver asked for a time bound, not a subset of the sources.
    """


class OverloadError(ExecutionError):
    """The serving layer shed this request instead of queueing it to death.

    Raised by the admission gateway when a request cannot be served *now*
    without harming requests already admitted: the tenant's token bucket is
    empty (``reason="quota"``), the admission queue is full
    (``"queue_full"``), the projected or actual queue wait would eat the
    request's own deadline (``"deadline"``), the server is draining for
    shutdown (``"draining"``), or the bounded streaming-permit pool is
    exhausted (``"streams"``).

    Shedding is always *retriable*: nothing about the statement is wrong, the
    server just has no capacity for it at this instant — ``transient`` is
    True (so client-side retry machinery classifies it correctly) and
    ``retry_after_seconds``, when known, hints how long to back off (it maps
    to the HTTP ``Retry-After`` header on the tunnel).
    """

    transient = True
    retriable = True

    def __init__(self, message: str, reason: str = "overload",
                 retry_after_seconds=None):
        super().__init__(message)
        self.reason = reason
        self.retry_after_seconds = retry_after_seconds


# ---------------------------------------------------------------------------
# Consistency subsystem
# ---------------------------------------------------------------------------


class ConsistencyError(ReproError):
    """Base class of errors raised by the consistency subsystem."""


class ConstraintError(ConsistencyError):
    """A malformed integrity constraint (unknown relation/column, bad key...)."""


class RepairEnumerationError(ConsistencyError):
    """Consistent query answering gave up: the conflict clusters admit more
    repairs than the configured enumeration bound."""


# ---------------------------------------------------------------------------
# Sources and wrappers
# ---------------------------------------------------------------------------


class SourceError(ReproError):
    """Base class of errors raised by sources."""


class SourceUnavailableError(SourceError):
    """The source is (simulated as) unreachable."""


class CapabilityError(SourceError):
    """A query was sent to a source that cannot evaluate it."""


class WrapperError(ReproError):
    """Base class of errors raised by wrappers."""


class WrapperSpecError(WrapperError):
    """The declarative wrapper specification is malformed."""


class ExtractionError(WrapperError):
    """Regular-expression extraction failed on a page."""


class CircuitOpenError(SourceError):
    """A request was rejected fast because the wrapper's circuit is open.

    After ``failure_threshold`` consecutive failures the engine stops issuing
    round trips to a wrapper for a cooldown period; statements hitting the
    open circuit fail (or degrade, under ``on_source_error="partial"``)
    without burning a round trip or a retry budget.
    """


class RequestFailedError(ExecutionError, SourceError):
    """One source request failed for good, with full request context.

    The scheduler raises this — naming the wrapper, the relation and the
    pushed SQL / FETCH text — after retries were exhausted or the error was
    classified permanent.  It subclasses both :class:`ExecutionError` (a plan
    failed at execution time) and :class:`SourceError` (the proximate cause
    lives at the source), so callers catching either keep working; the
    original source/wrapper error is chained as ``__cause__``.
    """


# ---------------------------------------------------------------------------
# Server / client layer
# ---------------------------------------------------------------------------


class ServerError(ReproError):
    """Base class of errors raised by the mediation server."""


class ProtocolError(ServerError):
    """A malformed request or response message."""


class ClientError(ReproError):
    """Base class of errors raised by client-side drivers (ODBC, QBE)."""
