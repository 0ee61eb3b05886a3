"""The four workloads: what is built, what is sent, how an answer is read.

A workload owns its federation (and, for ``served_mix``, the server and the
client connections), hands each client its statement schedule, runs one
statement for a client and returns what came back with the two times a
receiver feels: submit to first row readable and submit to last row in hand.
All loops are closed: a client sends its next statement only after the
previous answer is complete.
"""

from __future__ import annotations

import hashlib
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence

from repro.demo.datasets import PAPER_EXPECTED_ANSWER, PAPER_QUERY
from repro.server import odbc
from repro.server.aio import AsyncMediationServer
from repro.server.gateway import GatewayConfig
from repro.server.server import MediationServer

from coinbench import statements as stmts
from coinbench.federations import BenchFederation, build_federation
from coinbench.spans import SpanRecorder, instrument_federation, instrument_server
from coinbench.statements import EAGER, PREPARED, STREAM_ALL, STREAM_HEAD, Statement


@dataclass
class Outcome:
    """One completed statement as its client saw it."""

    rows: List[tuple]
    first_row_seconds: float
    total_seconds: float
    #: The statement's ``ExecutionReport`` (in process) or its snapshot (served).
    report: Any


def operator_seconds(report: Any) -> float:
    """Time in the local physical operators, from the engine's own report: an
    operator's time covers everything beneath it, so per branch the root's
    (the longest) counts, summed over branches."""
    snapshot = report if isinstance(report, dict) else report.snapshot()
    roots: Dict[int, float] = {}
    for operator in snapshot.get("operators", ()):
        branch = operator["branch"]
        roots[branch] = max(roots.get(branch, 0.0), operator["elapsed_seconds"])
    return sum(roots.values())


def digest(rows: Sequence[tuple], ordered: bool) -> str:
    lines = [repr(tuple(row)) for row in rows]
    if not ordered:
        lines.sort()
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


class Reference:
    """Reference answers from a serial, cache-less twin federation."""

    def __init__(self) -> None:
        self.digests: Dict[str, str] = {}
        #: Full reference rows of answers some statement reads only a head of.
        self._rows: Dict[str, List[tuple]] = {}
        #: Last answer seen to match, per (answer, read mode): the cheap path
        #: for a repeated statement is equality with an already-verified answer.
        self._verified: Dict[tuple, List[tuple]] = {}

    def learn(self, twin: BenchFederation, statements: Sequence[Statement]) -> None:
        heads = {s.key for s in statements if s.mode == STREAM_HEAD}
        for statement in statements:
            if statement.key in self.digests:
                continue
            answer = twin.federation.query(
                statement.same_answer_as or statement.sql, statement.context)
            rows = [tuple(row) for row in answer.relation.rows]
            if statement.sql == PAPER_QUERY and rows != PAPER_EXPECTED_ANSWER:
                raise AssertionError(
                    f"the paper's query answered {rows}, not {PAPER_EXPECTED_ANSWER}")
            self.digests[statement.key] = digest(rows, statement.ordered)
            if statement.key in heads:
                self._rows[statement.key] = rows

    def corrupt(self, statement: Statement) -> None:
        """Self-test hook: make ``statement``'s reference wrong."""
        self.digests[statement.key] = "corrupted"
        self._rows.pop(statement.key, None)
        self._verified.clear()

    def check(self, statement: Statement, rows: List[tuple]) -> bool:
        slot = (statement.key, statement.mode)
        if rows == self._verified.get(slot):
            return True
        if statement.mode == STREAM_HEAD:
            full = self._rows.get(statement.key, [])
            if statement.ordered:
                matches = rows == full[:len(rows)]
            else:
                matches = set(rows) <= set(full)
            matches = matches and len(rows) == min(statement.batch, len(full))
        else:
            matches = (self.digests.get(statement.key)
                       == digest(rows, statement.ordered))
        if matches:
            self._verified[slot] = rows
        return matches


class Workload:
    """Base: an in-process, single-client workload on one federation."""

    name = ""
    clients = 1
    #: ``build_federation`` arguments: (sources, companies) and options.
    shape = (8, 200)
    options: Dict[str, Any] = {}
    latency_seconds = 0.0

    def __init__(self, seed: int, recorder: Optional[SpanRecorder] = None):
        self.seed = seed
        #: Present in the traced pass only: the untraced pass installs no proxy.
        self.recorder = recorder
        self.bench: Optional[BenchFederation] = None
        self.load_threads_started = 0

    # -- set-up ------------------------------------------------------------------

    def build(self, **overrides) -> BenchFederation:
        options = {**self.options, **overrides}
        return build_federation(*self.shape, latency_seconds=self.latency_seconds,
                                **options)

    def build_twin(self) -> BenchFederation:
        """Serial and cache-less: the source of reference answers."""
        return build_federation(*self.shape, plan_cache_size=0,
                                request_cache_size=0, max_concurrent_requests=1,
                                **{key: value for key, value in self.options.items()
                                   if key == "memory_budget_bytes"})

    def setup(self) -> None:
        """Build, load and run each warm-set statement once (timed as ``setup_s``)."""
        self.bench = self.build()
        if self.recorder is not None:
            instrument_federation(self.recorder, self.bench.federation)
            self.bench.attach_recorder(self.recorder)
        for statement in self.warm_set():
            self.run(0, statement)

    def teardown(self) -> Dict[str, Any]:
        return {}

    # -- statements ----------------------------------------------------------------

    def warm_set(self) -> List[Statement]:
        return []

    def reference_set(self) -> List[Statement]:
        return self.warm_set()

    def schedule(self, client: int) -> Iterator[Statement]:
        raise NotImplementedError

    # -- running -------------------------------------------------------------------

    def _span(self, name: str, **attrs):
        return self.recorder.span(name, **attrs) if self.recorder else nullcontext()

    def run(self, client: int, statement: Statement) -> Outcome:
        federation = self.bench.federation
        with self._span("statement", shape=statement.shape) as span:
            started = time.perf_counter()
            if statement.mode == EAGER:
                answer = federation.query(statement.sql, statement.context)
                rows = answer.relation.rows
                first = ended = time.perf_counter()
                report = answer.execution.report
            else:
                cursor = federation.query(statement.sql, statement.context, stream=True)
                try:
                    with self._span("engine.fetch_batch", first=True):
                        rows = cursor.fetchmany(statement.batch)
                    first = time.perf_counter()
                    while statement.mode == STREAM_ALL:
                        with self._span("engine.fetch_batch"):
                            batch = cursor.fetchmany(statement.batch)
                        if not batch:
                            break
                        rows.extend(batch)
                finally:
                    cursor.close()
                ended = time.perf_counter()
                report = cursor.report
            if span is not None:
                span.attrs["operator_seconds"] = operator_seconds(report)
        return Outcome(rows, first - started, ended - started, report)

    def run_clients(self, loop) -> List[Any]:
        """Run ``loop(client)`` for every client; one client is this thread."""
        self.load_threads_started = 1
        return [loop(0)]

    # -- public counters -----------------------------------------------------------

    def counters(self) -> Dict[str, Any]:
        """The system's public counters, for deltas over a run."""
        federation = self.bench.federation
        statistics = federation.statistics()
        return {
            "mediator": statistics["mediator"],
            "engine": statistics["engine"],
            "pipeline": statistics["pipeline"],
            "wrappers": self.bench.wrapper_counters(),
        }


class WarmRepeat(Workload):
    name = "warm_repeat"
    shape = (8, 200)

    def warm_set(self):
        return stmts.warm_repeat_set()

    def schedule(self, client):
        return stmts.warm_repeat_schedule(self.seed)


class ColdCompile(Workload):
    name = "cold_compile"
    shape = (16, 20)

    def warm_set(self):
        """Set-up compiles the *last* statements of the cycle, so that it pays
        the mediator's first-use costs and the loop, which starts at the
        first, still misses every cache on every statement."""
        return stmts.cold_compile_set(self.seed)[-32:]

    def reference_set(self):
        return stmts.cold_compile_set(self.seed)

    def schedule(self, client):
        return stmts.cold_compile_schedule(self.seed)


class ScanStream(Workload):
    name = "scan_stream"
    shape = (4, 2000)
    options = {"request_cache_size": 0, "memory_budget_bytes": 64 * 1024}

    def warm_set(self):
        return stmts.scan_stream_set()

    def schedule(self, client):
        return stmts.scan_stream_schedule(self.seed)


class _Client:
    """One receiver: a persistent native-protocol connection and its handles."""

    def __init__(self, aio: AsyncMediationServer):
        self.connection = odbc.connect(async_server=aio, context="c_analyst",
                                       transport="native")
        self.prepared = {
            statement.sql: self.connection.prepare(statement.sql)
            for statement in stmts.served_prepared_set()
        }

    def close(self) -> None:
        for handle in self.prepared.values():
            handle.close()
        self.connection.close()


class ServedMix(Workload):
    """ODBC client -> socket -> event loop -> gateway -> pipeline -> engine ->
    sources charged 1 ms per round trip."""

    name = "served_mix"
    clients = 2
    shape = (8, 200)
    options = {"request_cache_size": 0}
    latency_seconds = 0.001
    gateway = GatewayConfig(max_workers=2, max_queue_depth=8)

    def __init__(self, seed, recorder=None):
        super().__init__(seed, recorder)
        self.server: Optional[MediationServer] = None
        self.aio: Optional[AsyncMediationServer] = None
        self._clients: List[_Client] = []
        self._pool: Optional[ThreadPoolExecutor] = None

    def setup(self) -> None:
        self.bench = self.build()
        self.server = MediationServer(self.bench.federation, self.gateway)
        if self.recorder is not None:
            instrument_federation(self.recorder, self.bench.federation)
            instrument_server(self.recorder, self.server)
            self.bench.attach_recorder(self.recorder)
        self.aio = AsyncMediationServer(self.server).start()
        self._clients = [_Client(self.aio) for _ in range(self.clients)]
        for client in range(self.clients):
            for statement in self.warm_set():
                self.run(client, statement)

    def teardown(self) -> Dict[str, Any]:
        for client in self._clients:
            client.close()
        self._clients = []
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        # The server notices a closed socket on its loop; shutting down
        # before it has would race its session clean-up.
        patience = time.perf_counter() + 5.0
        while (self.aio.snapshot()["connections"]["current"]
               and time.perf_counter() < patience):
            time.sleep(0.01)
        load = self.server.gateway.snapshot()
        queue_wait = self.bench.federation.observability.metrics.get(
            "gateway_queue_wait_seconds")
        drained = self.aio.shutdown(10.0)
        transport = self.aio.snapshot()
        return {
            "drained": drained,
            "peak_active": load["peak_active"],
            "shed_count": load["shed"]["total"],
            "queue_wait_p95_ms": (queue_wait.quantile(0.95) or 0.0) * 1000.0
            if queue_wait is not None else 0.0,
            "connections_opened": transport["connections"]["opened"],
            "connections_open_after": transport["connections"]["current"],
            "sessions_open_after": transport["sessions"]["open"],
        }

    def warm_set(self):
        return stmts.served_repeated_set() + stmts.served_prepared_set()

    def schedule(self, client):
        return stmts.served_mix_schedule(self.seed, client)

    def _trip(self, connection, call):
        """One client API call as a ``server.roundtrip`` span."""
        if self.recorder is None:
            return call()
        with self.recorder.span("server.roundtrip") as span:
            result = call()
            if span is not None:
                span.attrs["trace_id"] = connection.last_trace_id
            return result

    def run(self, client: int, statement: Statement) -> Outcome:
        handle = self._clients[client]
        connection = handle.connection
        with self._span("statement", shape=statement.shape) as span:
            started = time.perf_counter()
            if statement.mode == PREPARED:
                cursor = self._trip(connection, handle.prepared[statement.sql].execute)
                rows = cursor.fetchall()
                first = ended = time.perf_counter()
            elif statement.mode == EAGER:
                cursor = connection.cursor()
                self._trip(connection, lambda: cursor.execute(statement.sql))
                rows = cursor.fetchall()
                first = ended = time.perf_counter()
            else:
                cursor = connection.cursor()
                self._trip(connection, lambda: cursor.execute(
                    statement.sql, stream=True, batch_size=statement.batch))
                rows = self._trip(connection, lambda: cursor.fetchmany(statement.batch))
                first = time.perf_counter()
                rows.extend(self._trip(connection, cursor.fetchall))
                ended = time.perf_counter()
            report = cursor.execution
            cursor.close()
            if span is not None:
                span.attrs["operator_seconds"] = operator_seconds(report)
        return Outcome(rows, first - started, ended - started, report)

    def run_clients(self, loop):
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=self.clients,
                                            thread_name_prefix="coinbench-client")
        futures = [self._pool.submit(loop, client) for client in range(self.clients)]
        results = [future.result() for future in futures]
        self.load_threads_started = sum(
            thread.name.startswith("coinbench-client")
            for thread in threading.enumerate())
        return results

    def counters(self):
        counters = super().counters()
        counters["gateway"] = self.server.gateway.snapshot()
        return counters


WORKLOADS = {cls.name: cls for cls in (WarmRepeat, ColdCompile, ScanStream, ServedMix)}
