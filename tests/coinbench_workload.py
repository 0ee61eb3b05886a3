"""coinbench's workloads, for the tests that pin the cold, the warm and the
spill path on the benchmark's own statements and federation."""

import sys
from pathlib import Path

_E2E = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"


def _coinbench(statement_set):
    """``(build_federation, statement_set)`` of ``benchmarks/e2e/coinbench``."""
    sys.path[:0] = [str(_E2E)]
    try:
        from coinbench import statements
        from coinbench.federations import build_federation
    finally:
        del sys.path[0]
    return build_federation, getattr(statements, statement_set)


def cold_compile_workload():
    """``(build_federation, cold_compile_set)`` — the workload builds
    ``build_federation(16, 20)``."""
    return _coinbench("cold_compile_set")


def warm_repeat_workload():
    """``(build_federation, warm_repeat_set)`` — the workload builds
    ``build_federation(8, 200)``."""
    return _coinbench("warm_repeat_set")


def scan_stream_workload():
    """``(build_federation, scan_stream_set)`` — the workload builds
    ``build_federation(4, 2000, request_cache_size=0,
    memory_budget_bytes=64 * 1024)``."""
    return _coinbench("scan_stream_set")
