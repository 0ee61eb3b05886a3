"""coinbench's ``cold_compile`` workload, for the tests that pin the cold path
on the benchmark's own statements and federation."""

import sys
from pathlib import Path

_E2E = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"


def cold_compile_workload():
    """``(build_federation, cold_compile_set)`` of ``benchmarks/e2e/coinbench``
    — the workload builds ``build_federation(16, 20)``."""
    sys.path[:0] = [str(_E2E)]
    try:
        from coinbench.federations import build_federation
        from coinbench.statements import cold_compile_set
    finally:
        del sys.path[0]
    return build_federation, cold_compile_set
