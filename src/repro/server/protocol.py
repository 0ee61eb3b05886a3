"""The client/server protocol tunnelled over (simulated) HTTP.

"On the receiver's side we have implemented an Application Programming
Interface (API) of the family of the ODBC protocol.  The protocol supporting
this API is currently tunneled in the HyperText Transfer Protocol (HTTP) of
the World Wide Web."

The protocol is a small request/response vocabulary serialized as JSON:

====================  =======================================================
operation             meaning
====================  =======================================================
``list_sources``      names of the federated sources
``list_relations``    relations of one source (or all)
``describe``          attribute names/types of one relation
``contexts``          receiver contexts available on this server
``query``             mediate + execute a SQL query in a receiver context
``mediate``           mediate only; return the rewritten SQL and explanation
``explain``           mediate + plan; return the execution plan text
``prepare``           compile a statement once; returns a statement handle
``execute_prepared``  execute a prepared statement (no mediation/planning)
``close_prepared``    discard a prepared statement handle
``open_cursor``       start a streaming query; returns a cursor handle +
                      result description (no rows yet)
``fetch_cursor``      pull the next batch of rows from an open cursor
``close_cursor``      discard a cursor, cancelling still-outstanding source
                      fetches (idempotent)
``status``            server statistics: request counters, the ``server_load``
                      admission/shedding block, per-source health and the
                      observability (tracing/logging) snapshot
``metrics``           the metrics registry: a structured snapshot plus the
                      Prometheus text exposition (also served as
                      ``GET /coin/metrics`` on the HTTP tunnel)
====================  =======================================================

Result relations travel as ``{"columns": [...], "types": [...], "rows": [...]}``;
cursor batches travel as bare ``{"rows": [...], "done": bool}`` payloads
against the description returned by ``open_cursor``.

``query``, ``prepare`` and ``open_cursor`` accept an optional
``consistency`` parameter (``"raw"`` | ``"certain"`` | ``"possible"``)
selecting how declared integrity constraints are honoured; certain/possible
responses carry the ``consistency`` block of the execution report
(strategy, conflict clusters, repairs enumerated, tuples dropped).

The same three operations (and the chunked streaming endpoint) also accept
the resilience options ``timeout_seconds`` (a server-side deadline on the
statement's wall clock — fetch waits, retry backoff and streaming
finalization all count against it) and ``on_source_error`` (``"fail"`` |
``"partial"``: partial mode answers from the surviving branches when a
source stays dead after retries).  Execution reports carry a ``resilience``
block — attempts, retries, breaker trips/rejections, degraded branches and
the deadline's remaining budget — so a degraded answer is always labelled.

Every request may carry a ``tenant`` parameter (the receiver/session
identity; the HTTP tunnel also accepts an ``X-Coin-Tenant`` header) used by
the server's admission gateway for per-tenant quotas.  A request the gateway
sheds fails with ``error_kind="OverloadError"`` and, when known, a
``retry_after_seconds`` hint (HTTP 503 + ``Retry-After`` on the tunnel);
shed requests are always safe to retry — nothing was executed.

Statement-shaped requests may also carry a ``trace_id`` on the envelope (the
HTTP tunnel equivalently accepts an ``X-Coin-Trace`` header): when the server
traces statements, the client-minted id names the span tree end to end, and
successful responses echo the id (plus, when the trace was sampled, the
finished tree) back to the caller.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import ProtocolError
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Schema
from repro.relational.types import DataType

#: Operations a client may request.
OPERATIONS = (
    "list_sources",
    "list_relations",
    "describe",
    "contexts",
    "query",
    "mediate",
    "explain",
    "prepare",
    "execute_prepared",
    "close_prepared",
    "open_cursor",
    "fetch_cursor",
    "close_cursor",
    "status",
    "metrics",
)

PROTOCOL_VERSION = "1.0"


@dataclass
class Request:
    """A client request."""

    operation: str
    parameters: Dict[str, Any] = field(default_factory=dict)
    version: str = PROTOCOL_VERSION
    #: Client-minted trace id naming the statement's span tree (optional).
    trace_id: Optional[str] = None

    def validate(self) -> None:
        if self.operation not in OPERATIONS:
            raise ProtocolError(f"unknown operation {self.operation!r}")
        if self.version != PROTOCOL_VERSION:
            raise ProtocolError(f"unsupported protocol version {self.version!r}")

    def to_dict(self) -> Dict[str, Any]:
        """The JSON document of this request (what a native frame embeds)."""
        body: Dict[str, Any] = {
            "version": self.version,
            "operation": self.operation,
            "parameters": self.parameters,
        }
        if self.trace_id is not None:
            body["trace_id"] = self.trace_id
        return body

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "Request":
        try:
            return cls.from_dict(json.loads(text))
        except json.JSONDecodeError as exc:
            raise ProtocolError(f"malformed request: {exc}") from exc

    @classmethod
    def from_dict(cls, payload: Any) -> "Request":
        """Validate a parsed JSON document into a request."""
        if not isinstance(payload, dict) or "operation" not in payload:
            raise ProtocolError("request must be a JSON object with an 'operation' field")
        request = cls(
            operation=payload["operation"],
            parameters=payload.get("parameters", {}) or {},
            version=payload.get("version", PROTOCOL_VERSION),
            trace_id=payload.get("trace_id"),
        )
        request.validate()
        return request


@dataclass
class Response:
    """A server response: either a payload or an error."""

    ok: bool
    payload: Dict[str, Any] = field(default_factory=dict)
    error: Optional[str] = None
    error_kind: Optional[str] = None
    #: Back-off hint attached to overload sheds (seconds; None when unknown).
    retry_after_seconds: Optional[float] = None
    version: str = PROTOCOL_VERSION

    @classmethod
    def success(cls, **payload: Any) -> "Response":
        return cls(ok=True, payload=payload)

    @classmethod
    def failure(cls, error: str, error_kind: str = "error",
                retry_after_seconds: Optional[float] = None) -> "Response":
        return cls(ok=False, error=error, error_kind=error_kind,
                   retry_after_seconds=retry_after_seconds)

    def to_dict(self) -> Dict[str, Any]:
        """The JSON document of this response (what a native frame embeds)."""
        body: Dict[str, Any] = {"version": self.version, "ok": self.ok}
        if self.ok:
            body["payload"] = self.payload
        else:
            body["error"] = self.error
            body["error_kind"] = self.error_kind
            if self.retry_after_seconds is not None:
                body["retry_after_seconds"] = self.retry_after_seconds
        return body

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "Response":
        try:
            return cls.from_dict(json.loads(text))
        except json.JSONDecodeError as exc:
            raise ProtocolError(f"malformed response: {exc}") from exc

    @classmethod
    def from_dict(cls, payload: Any) -> "Response":
        """Validate a parsed JSON document into a response."""
        if not isinstance(payload, dict) or "ok" not in payload:
            raise ProtocolError("response must be a JSON object with an 'ok' field")
        if payload["ok"]:
            return cls(ok=True, payload=payload.get("payload", {}) or {},
                       version=payload.get("version", PROTOCOL_VERSION))
        return cls(ok=False, error=payload.get("error", "unknown error"),
                   error_kind=payload.get("error_kind", "error"),
                   retry_after_seconds=payload.get("retry_after_seconds"),
                   version=payload.get("version", PROTOCOL_VERSION))


# ---------------------------------------------------------------------------
# Relation (de)serialization
# ---------------------------------------------------------------------------


def relation_to_payload(relation: Relation) -> Dict[str, Any]:
    """Serialize a relation into the protocol's tabular payload form."""
    return dict(schema_to_payload(relation.schema),
                rows=rows_to_payload(relation.rows))


def schema_to_payload(schema: Schema) -> Dict[str, Any]:
    """Serialize a result description (no rows) — what ``open_cursor`` returns."""
    return {
        "columns": schema.names,
        "types": [attribute.type.value for attribute in schema],
    }


def rows_to_payload(rows) -> List[List[Any]]:
    """Serialize a row batch (cursor fetches ship rows without a schema)."""
    return [list(row) for row in rows]


def relation_from_payload(payload: Dict[str, Any], name: Optional[str] = None) -> Relation:
    """Rebuild a relation from a tabular payload."""
    try:
        columns = payload["columns"]
        types = payload.get("types") or ["any"] * len(columns)
        rows = payload["rows"]
    except (KeyError, TypeError) as exc:
        raise ProtocolError(f"malformed relation payload: {exc}") from exc
    schema = Schema(
        Attribute(name=column, type=DataType.from_name(type_name))
        for column, type_name in zip(columns, types)
    )
    relation = Relation(schema, name=name)
    relation.rows = list(map(schema.validate_row, rows))
    return relation
