"""Server and client access layer: HTTP tunnel, mediation server, ODBC driver, QBE.

This package reproduces the receiver-side plumbing of Figure 1: applications
reach the mediation services either through the DB-API/ODBC-style driver
(:mod:`repro.server.odbc`), which speaks the JSON protocol of
:mod:`repro.server.protocol` tunnelled over the simulated HTTP transport of
:mod:`repro.server.http` to a :class:`~repro.server.server.MediationServer`,
or through the HTML Query-By-Example front end (:mod:`repro.server.qbe`).
Every statement, whichever front it came through, opens at one door —
``Federation.open(..., gateway=...)`` — under the front's
:class:`~repro.server.gateway.AdmissionGateway`; an embedding application
calls that door itself.
"""

from repro.server.protocol import (
    OPERATIONS,
    PROTOCOL_VERSION,
    Request,
    Response,
    relation_from_payload,
    relation_to_payload,
)
from repro.server.http import CHANNEL_COUNTERS, HttpChannel, HttpRequest, HttpResponse
from repro.server.server import SERVER_COUNTERS, MediationServer
from repro.server.aio import AsyncMediationServer, AsyncServerConfig
from repro.server.odbc import (
    Connection,
    ConnectionPool,
    Cursor,
    apilevel,
    connect,
    paramstyle,
    threadsafety,
)
from repro.server.qbe import QBEForm, QBEInterface

__all__ = [
    "OPERATIONS",
    "PROTOCOL_VERSION",
    "Request",
    "Response",
    "relation_from_payload",
    "relation_to_payload",
    "CHANNEL_COUNTERS",
    "HttpChannel",
    "HttpRequest",
    "HttpResponse",
    "MediationServer",
    "SERVER_COUNTERS",
    "AsyncMediationServer",
    "AsyncServerConfig",
    "Connection",
    "ConnectionPool",
    "Cursor",
    "apilevel",
    "connect",
    "paramstyle",
    "threadsafety",
    "QBEForm",
    "QBEInterface",
]
