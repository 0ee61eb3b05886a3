"""Run a short traced soak and export its telemetry as CI artifacts.

The soak/chaos suites prove the serving stack *behaves* under load; this
script proves the telemetry about that behaviour is *exportable and well
formed*.  It drives a burst of concurrent traffic — healthy statements from
several tenants, a streaming cursor, failing statements, and an overload
phase that forces sheds — against a paper federation traced at
``sample_rate=1.0`` with a zero slow-query threshold, then writes four
artifacts:

* ``traces.json``        — the full trace-buffer export (every statement's
                           finished span tree);
* ``metrics.prom``       — the ``GET /coin/metrics`` Prometheus scrape, taken
                           the way a scraper would: over a socket of the
                           event-loop server fronting the soaked server;
* ``slow_queries.jsonl`` — the slow-query log, one JSON object per line;
* ``status.json``        — the ``status`` payload plus
                           ``Federation.statistics()``, taken in the same
                           quiesced state as the scrape.

Before exiting it validates what it wrote: every slow-query line must parse
as JSON and carry the diagnosis fields, every buffered trace must be fully
closed (no half-open spans), the scrape must contain the series the load
provably produced, and every exported counter in the scrape must equal the
matching key of ``status.json`` exactly.  Any violation exits non-zero,
failing the CI step::

    PYTHONPATH=src python benchmarks/soak_telemetry.py --out telemetry-artifacts
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")
for path in (_HERE, _SRC):
    if path not in sys.path:
        sys.path.insert(0, path)

from repro.demo.datasets import PAPER_QUERY
from repro.demo.scenarios import build_paper_federation
from repro.engine.engine import ENGINE_COUNTERS
from repro.obs.trace import TraceBuffer
from repro.pipeline import PIPELINE_COUNTERS
from repro.server.aio import AsyncMediationServer
from repro.server.gateway import (
    GATEWAY_COUNTERS,
    SHED_REASONS,
    AdmissionGateway,
    GatewayConfig,
)
from repro.server.http import HttpRequest, HttpWireParser
from repro.server.protocol import Request
from repro.server.server import SERVER_COUNTERS, MediationServer

#: Healthy statements per tenant in the warm phase.
WARM_STATEMENTS = 12
TENANTS = ("acme", "globex", "initech")
#: Concurrent threads in the overload phase (vs. 2 workers, queue depth 1).
OVERLOAD_THREADS = 12


def run_soak() -> MediationServer:
    """Drive the traced load; returns the server whose telemetry to export."""
    federation = build_paper_federation().federation
    federation.observability.tracer.enabled = True
    federation.observability.tracer.sample_rate = 1.0
    federation.observability.tracer.buffer = TraceBuffer(1024)
    # Zero threshold: every statement lands in the slow-query log, so the
    # well-formedness check below has the whole soak to chew on.
    federation.observability.log.slow_query_seconds = 0.0
    server = MediationServer(federation, gateway=AdmissionGateway(
        GatewayConfig(max_workers=2, max_queue_depth=1)))

    # Phase 1 — healthy warm traffic from several tenants.
    for _ in range(WARM_STATEMENTS):
        for tenant in TENANTS:
            response = server.handle(Request(
                operation="query",
                parameters={"sql": PAPER_QUERY, "tenant": tenant}))
            assert response.ok, response.error

    # Phase 2 — a streaming cursor, opened, drained and closed.
    opened = server.handle(Request(
        operation="open_cursor",
        parameters={"sql": PAPER_QUERY, "tenant": "acme"}))
    assert opened.ok, opened.error
    fetched = server.handle(Request(
        operation="fetch_cursor",
        parameters={"cursor_id": opened.payload["cursor_id"], "count": 100}))
    assert fetched.ok and fetched.payload["done"]

    # Phase 3 — statements that fail (error-flagged, force-kept traces).
    for _ in range(3):
        failed = server.handle(Request(
            operation="query",
            parameters={"sql": "SELECT nosuch.c FROM nosuch",
                        "tenant": "acme"}))
        assert not failed.ok

    # Phase 4 — overload: more concurrent statements than workers + queue,
    # so the gateway provably sheds (shed-flagged traces, shed series).
    barrier = threading.Barrier(OVERLOAD_THREADS)

    def blast() -> None:
        barrier.wait()
        server.handle(Request(operation="query",
                              parameters={"sql": PAPER_QUERY,
                                          "tenant": "acme"}))

    threads = [threading.Thread(target=blast) for _ in range(OVERLOAD_THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    # Phase 5 — a deterministic shed window: a draining gateway sheds every
    # arrival, so the artifacts always contain shed-flagged traces and a
    # labelled sheds series whatever the burst above raced into.
    server.gateway.begin_drain()
    server.gateway.await_drain(5.0)
    for _ in range(3):
        shed = server.handle(Request(operation="query",
                                     parameters={"sql": PAPER_QUERY,
                                                 "tenant": "acme"}))
        assert not shed.ok and shed.error_kind == "OverloadError"
    server.gateway.resume()
    return server


def scrape_metrics(aio: AsyncMediationServer):
    """``GET /coin/metrics`` over a socket of the running event-loop server.
    The GET is not a protocol request: it moves none of the counters
    ``status`` reported."""
    sock = aio.connect_socket()
    try:
        sock.settimeout(10.0)
        sock.sendall(HttpRequest(
            "GET", MediationServer.METRICS_ENDPOINT).serialize().encode())
        parser = HttpWireParser()
        while True:
            response = parser.next_response()
            if response is not None:
                return response
            data = sock.recv(65536)
            if not data:
                raise ConnectionError("scrape connection closed early")
            parser.feed(data)
    finally:
        sock.close()


def export(aio: AsyncMediationServer, out_dir: str) -> dict:
    """Write the four artifacts; returns a summary of what was written."""
    os.makedirs(out_dir, exist_ok=True)
    server = aio.server
    observability = server.federation.observability

    # The server is quiesced (every phase joined its threads), so the views
    # and the scrape below describe the same state.  ``status`` goes first:
    # it counts itself as a request, the GET does not.
    status = server.handle(Request(operation="status"))
    assert status.ok, status.error
    with open(os.path.join(out_dir, "status.json"), "w",
              encoding="utf-8") as handle:
        json.dump({"status": status.payload,
                   "statistics": server.federation.statistics()},
                  handle, indent=2, default=str)

    traces_path = os.path.join(out_dir, "traces.json")
    with open(traces_path, "w", encoding="utf-8") as handle:
        handle.write(observability.tracer.buffer.export_json(indent=2))

    scrape = scrape_metrics(aio)
    assert scrape.status == 200, scrape.body
    metrics_path = os.path.join(out_dir, "metrics.prom")
    with open(metrics_path, "w", encoding="utf-8") as handle:
        handle.write(scrape.body)

    log_path = os.path.join(out_dir, "slow_queries.jsonl")
    with open(log_path, "w", encoding="utf-8") as handle:
        for line in observability.log.lines("slow_query"):
            handle.write(line + "\n")

    return {
        "traces": traces_path,
        "metrics": metrics_path,
        "slow_queries": log_path,
        "tracing": observability.tracer.snapshot(),
        "gateway": {"shed": server.gateway.snapshot()["shed"]["total"]},
    }


def validate(out_dir: str, summary: dict) -> list:
    """Return failure messages (empty when every artifact is well formed)."""
    failures = []

    # Every slow-query line is one well-formed JSON object with the
    # diagnosis fields an operator greps for.
    with open(os.path.join(out_dir, "slow_queries.jsonl"), encoding="utf-8") as handle:
        lines = [line for line in handle.read().splitlines() if line]
    if len(lines) < WARM_STATEMENTS * len(TENANTS):
        failures.append(f"slow-query log has only {len(lines)} lines for "
                        f"{WARM_STATEMENTS * len(TENANTS)}+ statements")
    for number, line in enumerate(lines, 1):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            failures.append(f"slow_queries.jsonl:{number} is not JSON: {exc}")
            continue
        missing = [key for key in ("event", "elapsed_seconds", "fingerprint",
                                   "tenant", "trace_id") if key not in record]
        if missing:
            failures.append(f"slow_queries.jsonl:{number} lacks {missing}")
        elif record["event"] != "slow_query":
            failures.append(f"slow_queries.jsonl:{number} wrong event "
                            f"{record['event']!r}")

    # Every buffered trace is a closed tree naming its tenant.
    with open(os.path.join(out_dir, "traces.json"), encoding="utf-8") as handle:
        traces = json.load(handle)["traces"]
    if len(traces) < WARM_STATEMENTS * len(TENANTS):
        failures.append(f"trace buffer exported only {len(traces)} traces")

    def spans(document):
        yield document
        for child in document.get("children", []):
            yield from spans(child)

    for document in traces:
        for span in spans(document):
            if span.get("open"):
                failures.append(f"trace {document['trace_id']} exported a "
                                f"half-open span {span['name']!r}")
    flags = {flag for document in traces
             for flag in document.get("flags", [])}
    if "error" not in flags:
        failures.append("no error-flagged trace despite failing statements")

    # The scrape carries the series the load provably produced.
    with open(os.path.join(out_dir, "metrics.prom"), encoding="utf-8") as handle:
        scrape = handle.read()
    for series in ("coin_statements_total", "coin_statement_errors_total",
                   "coin_gateway_admitted_total", "coin_server_queries_total",
                   "coin_gateway_queue_wait_seconds_bucket"):
        if series not in scrape:
            failures.append(f"metrics scrape lacks {series}")
    if summary["gateway"]["shed"] < 3:
        failures.append(f"only {summary['gateway']['shed']} sheds recorded "
                        "(the drain window alone sheds 3)")
    if "coin_gateway_sheds_total{" not in scrape:
        failures.append("the scrape has no labelled "
                        "coin_gateway_sheds_total series")
    if "shed" not in flags:
        failures.append("no shed-flagged trace despite shed statements")
    failures.extend(reconcile(out_dir, scrape))
    return failures


def reconcile(out_dir: str, scrape: str) -> list:
    """Every exported counter must equal its ``status.json`` key, exactly.

    The pairing is not a second list to keep in step: each layer's
    declaration table names both the snapshot key and the exported series.
    """
    with open(os.path.join(out_dir, "status.json"), encoding="utf-8") as handle:
        views = json.load(handle)
    samples = {}
    for line in scrape.splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            samples[name] = float(value)
    status, statistics = views["status"], views["statistics"]
    expected = {}
    for declarations, view in ((SERVER_COUNTERS, status),
                               (GATEWAY_COUNTERS, status["server_load"]),
                               (ENGINE_COUNTERS, statistics["engine"]),
                               (PIPELINE_COUNTERS, statistics["pipeline"])):
        for field, _kind, series, _help in declarations:
            if series is not None:
                expected[f"coin_{series}"] = view[field]
    for reason in SHED_REASONS:
        count = status["server_load"]["shed"][reason]
        if count:
            expected[f'coin_gateway_sheds_total{{reason="{reason}"}}'] = count
    return [f"{series} scraped as {samples.get(series)} but the status "
            f"payload says {value}"
            for series, value in sorted(expected.items())
            if samples.get(series) != value]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="telemetry-artifacts",
                        help="artifact directory (default: telemetry-artifacts)")
    arguments = parser.parse_args()

    aio = AsyncMediationServer(run_soak()).start()
    try:
        summary = export(aio, arguments.out)
    finally:
        aio.shutdown(5.0)
    failures = validate(arguments.out, summary)

    tracing = summary["tracing"]
    print(f"[soak-telemetry] {tracing['finished']} traces "
          f"({tracing['buffer']['kept']} kept, sample_rate="
          f"{tracing['sample_rate']}), {summary['gateway']['shed']} sheds; "
          f"artifacts in {arguments.out}/")
    for failure in failures:
        print(f"[soak-telemetry] FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
