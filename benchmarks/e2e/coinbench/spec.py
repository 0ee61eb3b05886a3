"""The benchmark's fixed facts: names, units, bounds, run shape.

``BENCHMARK.json`` at the repository root is the single list of workloads
(with why each was chosen), end-to-end metrics (with the bound by which each
may worsen) and per-layer metrics; it is read here, never restated.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent.parent
OUT = HERE / "out"

with open(ROOT / "BENCHMARK.json") as _handle:
    BENCHMARK = json.load(_handle)

WORKLOADS: Dict[str, str] = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}
END_TO_END = {m["name"]: m for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m for m in BENCHMARK["per_layer"]}

#: A run is one fresh process measuring one workload: set-up, a discarded
#: warm-up, then slices of closed loop.  The run shape is the same on every
#: commit: nothing below is a command-line option.
WARMUP_SECONDS = 2.0
SLICE_SECONDS = 4.0
#: The suite makes this many passes over the workloads; a pass gives each
#: workload a fresh process and one slice.
SUITE_PASSES = 7
#: A traced run measures its last slices with spans on, the ones before
#: without: this many of the former, and a length that leaves three of the
#: latter.
TRACED_SLICES = 2
TRACED_RUN_SECONDS = 20.0
#: Set-ups (one fresh process each) behind a one-workload run's ``setup_s``:
#: a set-up is a fifth of a second with sockets, threads and first uses in
#: it, and single ones spread by 20-70 % on this host.
SETUP_SAMPLES = 5
