"""The per-statement request object: every execution option, validated once.

A receiver statement carries the same seven values whichever front door it
came through — keyword arguments, a wire request, an HTML form.  The edge
builds one frozen :class:`StatementOptions` (``from_parameters`` for raw
wire/form values, the constructor for typed ones) and passes it whole to
``Federation.open``; nothing downstream re-parses or re-validates an option,
so the constructor is the only check an in-process caller's options get.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Mapping, Optional, Type

from repro.consistency.cqa import validate_mode
from repro.engine.resilience import validate_on_source_error
from repro.errors import ExecutionError, MediationError

#: Rows per cursor fetch / streamed chunk: the default and the ceiling a
#: client-requested size is clamped to.
DEFAULT_BATCH_SIZE = 256
MAX_BATCH_SIZE = 10_000


def parse_batch_size(raw: Any, error: Type[Exception]) -> int:
    """A client-supplied batch size (None = default), clamped to the ceiling;
    a malformed one raises the edge's ``error`` class."""
    if raw is None:
        return DEFAULT_BATCH_SIZE
    try:
        size = int(raw)
    except (TypeError, ValueError) as exc:
        raise error(f"invalid batch size {raw!r}") from exc
    if size <= 0:
        raise error(f"batch size must be positive, got {size}")
    return min(size, MAX_BATCH_SIZE)


@dataclass(frozen=True)
class StatementOptions:
    """How one statement is to be answered (see ``Federation.query``)."""

    receiver_context: Optional[str] = None
    mediate: bool = True
    #: "raw" | "certain" | "possible".
    consistency: str = "raw"
    #: Statement wall-clock bound in seconds (None = unbounded).
    timeout_seconds: Optional[float] = None
    #: "fail" | "partial".
    on_source_error: str = "fail"
    #: Identity the admission gateway accounts the statement against.
    tenant: Optional[str] = None
    #: Rows per batch when the answer is consumed in batches.
    batch_size: int = DEFAULT_BATCH_SIZE

    def __post_init__(self) -> None:
        validate_mode(self.consistency)
        validate_on_source_error(self.on_source_error)
        if self.consistency != "raw" and self.on_source_error == "partial":
            # Certain/possible answers quantify over *all* repairs of *all*
            # constrained sources; silently dropping a source would turn a
            # certainty claim into a guess.
            raise MediationError(
                "on_source_error='partial' cannot be combined with "
                f"consistency={self.consistency!r}: partial answers void the "
                "certainty quantification"
            )
        if self.timeout_seconds is not None and float(self.timeout_seconds) <= 0:
            raise ExecutionError(
                f"timeout_seconds must be positive, got {self.timeout_seconds}"
            )
        if self.batch_size <= 0:
            raise ExecutionError(
                f"batch_size must be positive, got {self.batch_size}")

    @classmethod
    def from_parameters(cls, parameters: Mapping[str, Any],
                        error: Type[Exception],
                        tenant: Optional[str] = None) -> "StatementOptions":
        """Parse the raw option values of a wire request or form post.

        Absent (or None) values take their defaults; a value that cannot be
        parsed raises ``error``, the edge's own class (``ProtocolError`` on
        the wire, ``ClientError`` for forms).  ``tenant`` is the transport's
        fallback identity (a header, a session) when the request names none.
        """
        def value(name: str, default: Any) -> Any:
            raw = parameters.get(name)
            return default if raw is None else raw

        timeout = parameters.get("timeout_seconds")
        if timeout is not None:
            try:
                timeout = float(timeout)
            except (TypeError, ValueError) as exc:
                raise error(f"invalid timeout_seconds {timeout!r}") from exc
        return cls(
            receiver_context=parameters.get("context"),
            mediate=bool(value("mediate", True)),
            consistency=value("consistency", "raw"),
            timeout_seconds=timeout,
            on_source_error=value("on_source_error", "fail"),
            tenant=parameters.get("tenant") or tenant,
            batch_size=parse_batch_size(parameters.get("batch_size"), error),
        )

    def with_timeout(self, remaining: Optional[float]) -> "StatementOptions":
        """These options under the budget left after admission queueing
        (``remaining=None``: the statement was unbounded — unchanged)."""
        if remaining is None:
            return self
        return replace(self, timeout_seconds=remaining)
