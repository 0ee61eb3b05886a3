"""Structured (JSON-lines) event logging, including the slow-query log.

Every record is one JSON object per line — greppable with standard tools —
kept in a bounded in-memory ring and optionally mirrored to any writable
stream.  The slow-query log is an event family (``"event": "slow_query"``)
emitted for statements whose wall clock crosses ``slow_query_seconds``; each
record carries the sampled trace id, the statement's AST fingerprint (never
the raw SQL — logs outlive data-handling policies), the tenant, and the
execution report's scheduler/resilience/optimizer blocks so one grep line
explains *why* the statement was slow.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from typing import Any, Dict, List, Optional

__all__ = ["EventLog"]


class EventLog:
    """Bounded JSON-lines event log with a slow-query threshold.

    ``clock`` takes anything with ``.now()`` or a bare callable (monotonic
    seconds) so tests pin timestamps; ``stream`` (optional) receives each
    serialized line followed by a newline.
    """

    def __init__(self, capacity: int = 1024,
                 slow_query_seconds: float = 1.0,
                 stream=None, clock=None) -> None:
        if capacity < 1:
            raise ValueError(f"event log capacity must be positive, got {capacity}")
        self.slow_query_seconds = slow_query_seconds
        self._stream = stream
        now = getattr(clock, "now", None)
        self._now = now if now is not None else (clock or time.monotonic)
        self._lock = threading.Lock()
        self._records: deque = deque(maxlen=capacity)
        self.emitted = 0
        self.slow_queries = 0

    # -- emitting ----------------------------------------------------------------

    def emit(self, event: str, **fields) -> Dict[str, Any]:
        record: Dict[str, Any] = {"event": event, "at": round(self._now(), 6)}
        record.update(fields)
        line = json.dumps(record, sort_keys=True, default=str)
        with self._lock:
            self._records.append(record)
            self.emitted += 1
            stream = self._stream
        if stream is not None:
            stream.write(line + "\n")
        return record

    def statement_finished(self, elapsed_seconds: float, fingerprint: Optional[str],
                           tenant: Optional[str] = None,
                           trace_id: Optional[str] = None,
                           report: Optional[Dict[str, Any]] = None,
                           error: Optional[str] = None) -> Optional[Dict[str, Any]]:
        """Book one completed statement; emits ``slow_query`` past threshold.

        ``fingerprint`` is the statement's AST fingerprint
        (:func:`repro.sql.normalize.statement_fingerprint`), None for text
        that does not parse as a SELECT or UNION.

        ``report`` is the :meth:`~repro.engine.executor.ExecutionReport.
        snapshot` dict — or a zero-argument callable producing it, evaluated
        only when a record is actually emitted (fast statements never pay
        for a snapshot); only the blocks an operator needs to diagnose
        slowness (scheduler, resilience, optimizer) ride along.
        """
        if error is None and elapsed_seconds < self.slow_query_seconds:
            return None
        if callable(report):
            report = report()
        fields: Dict[str, Any] = {
            "elapsed_seconds": round(elapsed_seconds, 6),
            "threshold_seconds": self.slow_query_seconds,
            "fingerprint": fingerprint,
            "tenant": tenant,
            "trace_id": trace_id,
        }
        if error is not None:
            fields["error"] = error
        if report:
            for block in ("scheduler", "resilience", "optimizer"):
                if block in report:
                    fields[block] = report[block]
        with self._lock:
            self.slow_queries += 1
        return self.emit("slow_query", **fields)

    # -- reading -----------------------------------------------------------------

    def records(self, event: Optional[str] = None) -> List[Dict[str, Any]]:
        with self._lock:
            records = list(self._records)
        if event is not None:
            records = [r for r in records if r.get("event") == event]
        return records

    def lines(self, event: Optional[str] = None) -> List[str]:
        return [json.dumps(record, sort_keys=True, default=str)
                for record in self.records(event)]

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "buffered": len(self._records),
                "emitted": self.emitted,
                "slow_queries": self.slow_queries,
                "slow_query_seconds": self.slow_query_seconds,
            }
