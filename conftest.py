"""Repository-level pytest configuration.

Ensures ``src/`` is importable even when the package has not been installed
(e.g. on machines where ``pip install -e .`` is unavailable because the
``wheel`` package is missing).  When the package *is* installed this is a
harmless no-op: the installed path simply wins if it comes first.
"""

import os
import sys

_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "hotpath: hot-path performance smoke checks "
        "(also runnable via `python benchmarks/run_bench.py --smoke`)",
    )
    config.addinivalue_line(
        "markers",
        "chaos: fault-injection suite exercising retries, breakers, "
        "deadlines and partial answers under deterministic failure schedules",
    )
    config.addinivalue_line(
        "markers",
        "soak: short deterministic variant of the sustained-load chaos soak "
        "(admission control, quotas, shedding, post-soak drain)",
    )
    config.addinivalue_line(
        "markers",
        "theories_long: the long run of the generated COIN theories "
        "(tests/mediation/test_generated_theories.py); tier-1 skips it",
    )
