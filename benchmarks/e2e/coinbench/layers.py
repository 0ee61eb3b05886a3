"""The per-layer pass: spans, counter deltas and probes into named metrics.

A layer is a ``src/repro`` module.  Times are medians in milliseconds from the
traced slices' spans, brought to the reference host like every reported time
(by the calibration of the slices, or probe, they were measured in); counts
and ratios are deltas of the system's public counters over the measured
slices.  What the spans cannot see from outside —
the interiors of a plan-cache miss, the server edge without a socket, the
program's own tracer, the operator kernels — is probed by calling the public
functions directly on the workload's own statements and relations.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Dict, List, Sequence, Tuple

from repro.obs import Observability
from repro.relational.operators import Filter, HashJoin, Project, TableScan
from repro.server.protocol import Request, Response
from repro.server.server import MediationServer
from repro.sql.ast import ColumnRef, Union
from repro.sql.normalize import statement_fingerprint
from repro.sql.parser import parse

from coinbench import statements as stmts
from coinbench.measure import (
    Calibration,
    Slice,
    over_slices,
    pooled_p99_ms,
    pooled_latency_scale,
)
from coinbench.spans import Span, durations_ms, layer_budget, self_seconds
from coinbench.statements import Statement
from coinbench.workloads import Workload

#: Distinct statements a probe visits, and visits per statement.
PROBE_STATEMENTS = 32
PROBE_REPEATS = 5


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def _delta(after: Dict[str, Any], before: Dict[str, Any], *path: str) -> float:
    for key in path:
        after, before = after[key], before[key]
    return after - before


def _reference_median(host: Calibration, readings: Sequence[Tuple[float, float]]) -> float:
    """Median of raw ``(wall, CPU)`` probe readings, on the reference host."""
    return _median([host.reference(wall, cpu, calm=True) for wall, cpu in readings])


def _ratio(numerator: float, denominator: float, empty: float = 0.0) -> float:
    return numerator / denominator if denominator else empty


# -- counters ---------------------------------------------------------------------


def counter_metrics(before: Dict[str, Any], after: Dict[str, Any],
                    statements: int) -> Dict[str, float]:
    """Counts per statement and hit ratios from public counter deltas."""
    per = lambda *path: _ratio(_delta(after, before, *path), statements)
    prepares = _delta(after, before, "pipeline", "prepares")
    # Share of prepared statements that did not pay the stage: a plan hit
    # short-circuits the mediation lookup, so "no miss" is the hit.
    paid = lambda *path: 1.0 - _ratio(_delta(after, before, *path), prepares)
    round_trips = _delta(after, before, "engine", "source_round_trips")
    cache_hits = _delta(after, before, "engine", "cache_hits")
    wrapper_calls = _delta(after, before, "wrappers", "calls")
    evictions = ("pipeline", "plan_cache", "evictions")
    return {
        "mediation.branches_per_stmt": per("mediator", "branches_produced"),
        "mediation.conflicts_per_stmt": per("mediator", "conflicts_detected"),
        "pipeline.plan_hit_ratio": _ratio(
            _delta(after, before, "pipeline", "plan_hits"), prepares),
        "pipeline.mediation_hit_ratio": paid("pipeline", "mediation_misses"),
        "pipeline.statement_hit_ratio": _ratio(
            _delta(after, before, "pipeline", "statement_cache_hits"), prepares),
        "pipeline.plan_evictions_per_stmt": per(*evictions)
        if "plan_cache" in after["pipeline"] else 0.0,
        "engine.cancelled_fetches": _delta(after, before, "engine", "cancelled_fetches"),
        "engine.request_cache_hit_ratio": _ratio(cache_hits, cache_hits + round_trips),
        "engine.round_trips_per_stmt": _ratio(round_trips, statements),
        "engine.rows_transferred_per_stmt": per("engine", "rows_transferred"),
        "engine.dedup_hits_per_stmt": per("engine", "dedup_hits"),
        "engine.retries": _delta(after, before, "engine", "source_retries"),
        "relational.spill_count_per_stmt": per("engine", "spill_count"),
        "relational.spilled_bytes_per_stmt": per("engine", "spilled_bytes"),
        "relational.peak_memory_bytes": after["engine"]["peak_memory_bytes"],
        "wrappers.fetch_calls_per_stmt": _ratio(wrapper_calls, statements),
        "wrappers.rows_per_fetch": _ratio(
            _delta(after, before, "wrappers", "rows"), wrapper_calls),
        "wrappers.charged_latency_ms_per_stmt": 1000.0 * per("wrappers", "charged_seconds"),
    }


def broken_invariants(workload: str, metrics: Dict[str, float],
                      server: Dict[str, Any]) -> List[str]:
    """Cache-ratio and drain invariants: a violation means the workload did
    not do what its name says, so its numbers mean nothing."""
    ratios = ("pipeline.plan_hit_ratio", "pipeline.mediation_hit_ratio",
              "pipeline.statement_hit_ratio")
    broken = []
    if workload in ("warm_repeat", "scan_stream"):
        broken += [f"{name} is {metrics[name]:.4f}, must be 1.0"
                   for name in ratios if metrics[name] != 1.0]
    if workload == "cold_compile":
        broken += [f"{name} is {metrics[name]:.4f}, must be 0.0"
                   for name in ratios if metrics[name] != 0.0]
    if workload == "warm_repeat" and metrics["wrappers.fetch_calls_per_stmt"]:
        broken.append("warm_repeat reached a source: the request cache is not warm")
    if workload == "scan_stream" and not metrics["relational.spill_count_per_stmt"]:
        broken.append("scan_stream did not spill under its 64 KiB budget")
    if workload == "served_mix":
        broken += [f"served_mix left {server[name]} {name}"
                   for name in ("sessions_open_after", "connections_open_after")
                   if server.get(name)]
    return broken


# -- spans ------------------------------------------------------------------------


def span_metrics(spans: List[Span], slices: Sequence[Slice]) -> Dict[str, float]:
    """Median span durations and per-statement report facts of the traced slices."""
    reports = [sample.report if isinstance(sample.report, dict)
               else sample.report.snapshot()
               for piece in slices for sample in piece.samples
               if sample.report is not None]
    scale = pooled_latency_scale(slices)
    own = self_seconds(spans)
    misses = {span.parent for span in spans if span.name == "engine.plan"}
    executes = [span for span in spans if span.name == "engine.execute"]
    repeated_trips: Dict[int, float] = {}
    for span in spans:
        if span.name == "server.roundtrip":
            repeated_trips[span.statement] = (
                repeated_trips.get(span.statement, 0.0) + span.seconds * 1000.0)
    repeated = {span.id for span in spans
                if span.name == "statement" and span.attrs.get("shape") == "repeated"}
    temp_rows = [report["temp_storage"].get("rows_written", 0) for report in reports]
    times = {
        "mediation.annotate_ms": durations_ms(spans, "mediation.annotate"),
        "pipeline.prepare_hit_ms": durations_ms(
            spans, "pipeline.prepare", lambda span: span.id not in misses),
        "pipeline.prepare_miss_ms": durations_ms(
            spans, "pipeline.prepare", lambda span: span.id in misses),
        "engine.execute_ms": [span.seconds * 1000.0 for span in executes],
        "engine.execute_self_ms": [own[span.id] * 1000.0 for span in executes],
        "engine.stream_open_ms": durations_ms(spans, "engine.execute_stream"),
        "engine.first_batch_ms": durations_ms(
            spans, "engine.fetch_batch", lambda span: span.attrs.get("first")),
        "relational.operator_ms": [
            1000.0 * sum(op["elapsed_seconds"] for op in report["operators"])
            for report in reports],
        "wrappers.fetch_ms": durations_ms(spans, "wrappers.fetch"),
        "server.roundtrip_ms": [total for statement, total in repeated_trips.items()
                                if statement in repeated],
    }
    return {
        **{name: _median(values) * scale for name, values in times.items()},
        "engine.max_in_flight": max(
            (report["scheduler"]["max_in_flight"] for report in reports), default=0),
        # The temporary store's counter is cumulative over the engine's life.
        "relational.temp_rows_written_per_stmt": _ratio(
            max(temp_rows, default=0) - min(temp_rows, default=0),
            max(len(temp_rows) - 1, 1)),
    }


#: The layer budget is taken over the statements whose latency is within this
#: share of the median's: the median statement and its like, so that the rows
#: add up to the median unless spans overlap, leak or go unlinked.
BUDGET_BAND = 0.05
#: The budget's rows must add up to the traced median latency within this.
BUDGET_TOLERANCE = 0.10


def budget_rows(spans: List[Span], slices: Sequence[Slice]) -> Dict[str, float]:
    """The layer budget of the median statement, with the median it should
    add up to (the middle execution's latency, so the band is never empty)."""
    latencies = sorted(durations_ms(spans, "statement"))
    p50 = latencies[len(latencies) // 2] if latencies else 0.0
    budget = layer_budget(spans, p50 * (1.0 - BUDGET_BAND), p50 * (1.0 + BUDGET_BAND))
    budget["stmt_p50_ms"] = p50
    scale = pooled_latency_scale(slices)
    return {name: value * scale for name, value in budget.items()}


def broken_budget(budget: Dict[str, float]) -> List[str]:
    """The budget's rows (``unattributed`` among them) against the traced
    median latency: spans that overlap, leak or go unlinked show here."""
    rows = dict(budget)
    p50 = rows.pop("stmt_p50_ms")
    total = sum(rows.values())
    if p50 and abs(total - p50) <= BUDGET_TOLERANCE * p50:
        return []
    return [f"layer budget rows sum to {total:.4f} ms, not within "
            f"{BUDGET_TOLERANCE:.0%} of the traced stmt_p50_ms {p50:.4f} ms"]


# -- probes -----------------------------------------------------------------------


def probe_compile(workload: Workload, statements: Sequence[Statement]) -> Dict[str, float]:
    """The miss path's interiors, called directly on a cache-less twin."""
    twin = workload.build_twin().federation
    host = Calibration()
    timings: Dict[str, List[float]] = {name: [] for name in (
        "sql.parse_ms", "sql.fingerprint_ms", "mediation.mediate_ms", "engine.plan_ms")}
    for statement in list(statements)[:PROBE_STATEMENTS]:
        for _ in range(PROBE_REPEATS):
            select = parse(statement.sql)
            timings["sql.parse_ms"].append(host.timed(lambda: parse(statement.sql)))
            timings["sql.fingerprint_ms"].append(
                host.timed(lambda: statement_fingerprint(select)))
            mediation = twin.mediator.mediate(select, statement.context)
            timings["mediation.mediate_ms"].append(host.timed(
                lambda: twin.mediator.mediate(select, statement.context)))
            selects = ([branch.select for branch in mediation.branches]
                       or [mediation.original])
            union_all = (mediation.mediated.all
                         if isinstance(mediation.mediated, Union) else False)
            timings["engine.plan_ms"].append(host.timed(
                lambda: twin.engine.plan_branches(
                    selects, union_all=union_all, statement=mediation.mediated)))
    return {name: _reference_median(host, readings)
            for name, readings in timings.items()}


def probe_server(workload: Workload) -> Dict[str, float]:
    """The served statements through ``MediationServer.handle`` with no
    socket, through ``Federation.query`` with no server, and their payloads
    through the wire codec."""
    federation = workload.build().federation
    server = MediationServer(federation, workload.gateway)
    host = Calibration()
    timings: Dict[str, list] = {name: [] for name in (
        "handle", "query", "serialize", "deserialize", "bytes")}
    for statement in stmts.served_repeated_set():
        request = Request("query", {"sql": statement.sql, "context": "c_analyst"})
        response = server.handle(request)  # compiles outside the timing
        text = response.to_json()
        for _ in range(PROBE_REPEATS):
            timings["handle"].append(host.timed(lambda: server.handle(request)))
            timings["query"].append(host.timed(
                lambda: federation.query(statement.sql, "c_analyst")))
            timings["serialize"].append(host.timed(response.to_json))
            timings["deserialize"].append(host.timed(lambda: Response.from_json(text)))
        timings["bytes"].append(len(text.encode("utf-8")))
    server.shutdown(5.0)
    handle = _reference_median(host, timings["handle"])
    return {
        "server.handle_ms": handle,
        "server.edge_overhead_ms": handle - _reference_median(host, timings["query"]),
        "server.serialize_ms": _reference_median(host, timings["serialize"]),
        "server.deserialize_ms": _reference_median(host, timings["deserialize"]),
        "server.bytes_per_stmt": _median(timings["bytes"]),
    }


def probe_tracer(workload: Workload, seconds: float) -> Dict[str, float]:
    """``warm_repeat`` throughput with the program's own tracer sampling every
    statement over the same with it off, in alternating 16-statement chunks
    (so both see the same host) for ``seconds``."""
    statements = workload.warm_set()
    twins = {
        True: workload.build(observability=Observability(tracing=True, sample_rate=1.0)),
        False: workload.build(),
    }
    elapsed = {True: 0.0, False: 0.0}
    for bench in twins.values():
        for statement in statements:
            bench.federation.query(statement.sql, statement.context)
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        for tracing, bench in twins.items():
            started = time.perf_counter()
            for statement in statements:
                bench.federation.query(statement.sql, statement.context)
            elapsed[tracing] += time.perf_counter() - started
    return {"obs.tracer_on_ratio": _ratio(elapsed[False], elapsed[True])}


def probe_kernels(workload: Workload) -> Dict[str, float]:
    """Scan and hash-join kernels over ``scan_stream``'s own relations,
    through the public operators."""
    fin1 = workload.bench.proxies[0].inner.fetch("fin1")
    fin2 = workload.bench.proxies[1].inner.fetch("fin2")
    select = parse("SELECT cname, revenue * 2 AS doubled FROM fin1 "
                   "WHERE revenue > 100 AND sector = 'tech'")
    expressions = [item.expr for item in select.items]

    def scan() -> None:
        list(Project(Filter(TableScan(fin1), select.where), expressions,
                     ["cname", "doubled"]))

    def join() -> None:
        list(HashJoin(TableScan(fin1), TableScan(fin2),
                      ColumnRef("cname", "fin1"), ColumnRef("cname", "fin2")))

    host = Calibration()
    scans = [host.timed(scan) for _ in range(4 * PROBE_REPEATS)]
    joins = [host.timed(join) for _ in range(4 * PROBE_REPEATS)]
    scan_ms, join_ms = _reference_median(host, scans), _reference_median(host, joins)
    return {
        "relational.scan_rows_per_s": _ratio(len(fin1) * 1000.0, scan_ms),
        "relational.join_rows_per_s": _ratio((len(fin1) + len(fin2)) * 1000.0, join_ms),
    }


def bench_metrics(untraced: Sequence[Slice], traced: Sequence[Slice]) -> Dict[str, float]:
    """The harness measuring itself."""
    plain = over_slices(untraced)
    return {
        "bench.trace_overhead_ratio": _ratio(
            over_slices(traced)["throughput_qps"]["median"],
            plain["throughput_qps"]["median"]),
        # Raw: the kernel's time on this host, median over slices.  It flags a
        # noisy host; the spread over slices is printed with every run.
        "bench.calibration_ms": _median(
            [piece.calibration.kernel_ms for piece in untraced]),
        "bench.slice_iqr_ratio": plain["stmt_p50_ms"]["iqr_ratio"],
        "bench.samples": sum(len(piece.samples) for piece in untraced),
        "bench.stmt_p99_ms": pooled_p99_ms(untraced),
    }
