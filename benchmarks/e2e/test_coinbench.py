"""coinbench measuring itself: short runs, no timing assertions.

Every workload runs once for two 0.3 s slices and two more with spans on; the
checks are on what is emitted (names, units, counts, invariants), never on
how fast it ran.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent.parent / "src")]

from coinbench import cli, layers, spec  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SHORT = dict(seed=5, slices=2, slice_seconds=0.3, traced_slices=2,
             warmup_seconds=0.1, setup_samples=1)


@pytest.fixture(scope="module", params=list(spec.WORKLOADS))
def record(request):
    return cli.measure_workload(request.param, **SHORT)


def test_every_end_to_end_metric_once_with_its_unit(record):
    line = json.loads(cli.result_line({**record, "traced": False}))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert list(line["metrics"]) == list(spec.END_TO_END)
    for name, metric in line["metrics"].items():
        assert NAME.fullmatch(name)
        assert metric["unit"] == spec.END_TO_END[name]["unit"]
        assert metric["value"] > 0, name
    assert "setup_s" in line["metrics"]


def test_every_per_layer_metric_once_with_its_unit(record):
    line = json.loads(cli.result_line(record))
    assert list(line["metrics"]) == list(spec.PER_LAYER)
    for name, metric in line["metrics"].items():
        assert NAME.fullmatch(name)
        assert metric["unit"] == spec.PER_LAYER[name]["unit"]
        assert isinstance(metric["value"], float)


def test_answers_are_checked_and_invariants_hold(record):
    assert record["attempted"] > 0
    assert record["failed"] == 0, record["errors"]
    assert record["failed_share"] == 0.0
    assert record["invariants"] == []


def test_cache_ratios_say_what_the_workload_name_says(record):
    ratios = [record["per_layer"][f"pipeline.{stage}_hit_ratio"]
              for stage in ("plan", "mediation", "statement")]
    if record["workload"] in ("warm_repeat", "scan_stream"):
        assert ratios == [1.0, 1.0, 1.0]
    if record["workload"] == "cold_compile":
        assert ratios == [0.0, 0.0, 0.0]
    if record["workload"] == "scan_stream":
        assert record["per_layer"]["relational.spill_count_per_stmt"] > 0
    if record["workload"] == "warm_repeat":
        assert record["per_layer"]["wrappers.fetch_calls_per_stmt"] == 0


def test_load_comes_from_at_most_nproc_threads(record):
    assert record["load_threads"] == record["clients"] <= (os.cpu_count() or 1)


def test_served_mix_drains(record):
    if record["workload"] != "served_mix":
        assert record["server"] == {}
        return
    assert record["server"]["drained"]
    assert record["server"]["sessions_open_after"] == 0
    assert record["server"]["connections_open_after"] == 0
    assert record["server"]["connections_opened"] == record["clients"]
    assert record["server"]["shed_count"] == 0


def test_layer_budget_rows_add_up_to_the_traced_median(record):
    budget = dict(record["budget"])
    p50 = budget.pop("stmt_p50_ms")
    assert set(budget) == {"server", "pipeline", "mediation", "engine",
                           "relational", "wrappers", "unattributed"}
    assert p50 > 0
    assert abs(sum(budget.values()) - p50) <= 0.10 * p50
    assert layers.broken_budget(record["budget"]) == []
    assert layers.broken_budget({**record["budget"], "engine": 2 * p50}) != []


def test_corrupted_reference_fails_the_run():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "warm_repeat",
         "--seed", "5", "--seconds", "0.6", "--corrupt-reference"],
        stdout=subprocess.PIPE, text=True, timeout=120)
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert done.returncode != 0
    assert line["correct"] is False
    assert 0 < line["failed"] <= line["attempted"]


def test_benchmark_json_is_the_contract():
    assert spec.BENCHMARK["paths"] == ["benchmarks/e2e"]
    assert list(spec.WORKLOADS) == ["warm_repeat", "cold_compile",
                                    "scan_stream", "served_mix"]
    assert spec.END_TO_END["setup_s"]["bound"] == max(
        metric["bound"] for metric in spec.END_TO_END.values())
    for metric in list(spec.END_TO_END.values()) + list(spec.PER_LAYER.values()):
        assert NAME.fullmatch(metric["name"])
