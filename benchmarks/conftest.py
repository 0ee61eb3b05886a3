"""Shared fixtures for the benchmark harness.

Each ``bench_*.py`` file regenerates one artifact of the paper (see
PERFORMANCE.md, "Paper-artifact benches").  Benchmarks print the rows/series they
reproduce (visible with ``pytest benchmarks/ --benchmark-only -s``) and attach
the headline numbers to ``benchmark.extra_info`` so they also appear in the
saved benchmark data.
"""

import os
import sys

import pytest

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)


@pytest.fixture(scope="session")
def paper_scenario():
    from repro.demo.scenarios import build_paper_federation

    return build_paper_federation()
