"""coinbench's command line: one workload run, the suite, compare, repeat-check.

``run.py --workload W --seed N --seconds S --trace 0|1`` measures one workload
in this (fresh) process and prints one JSON object as its last line: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  With no ``--workload`` the suite runs every workload that way,
each in its own subprocess, interleaved in passes, and prints every metric by
name; ``--traced`` adds the per-layer pass.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from coinbench import compare, layers, spec
from coinbench.measure import (
    Calibration,
    Slice,
    median_and_iqr,
    over_slices,
    peak_rss_mb,
    pin_to_one_cpu,
    pooled_p99_ms,
    run_slice,
)
from coinbench.spans import SpanRecorder, link_spans, write_trace
from coinbench.workloads import WORKLOADS, Reference, Workload

RUN_PY = spec.HERE / "run.py"


# -- one workload, in this process ---------------------------------------------------


#: Reference-kernel seconds before and after a timed set-up.
SETUP_KERNEL_SECONDS = 0.1


def timed_setup(workload: Workload) -> float:
    """``setup_s`` of this process, on the reference host: the kernel runs
    before the set-up and after it, when its threads have gone idle."""
    calibration = Calibration()
    calibration.run(SETUP_KERNEL_SECONDS)
    cpu_started = time.process_time()
    started = time.perf_counter()
    workload.setup()
    seconds = time.perf_counter() - started
    cpu_seconds = time.process_time() - cpu_started
    calibration.run(SETUP_KERNEL_SECONDS)
    return calibration.reference(seconds, cpu_seconds)


def extra_setups(name: str, seed: int, count: int) -> List[float]:
    """``setup_s`` again, each in a fresh process that sets up and exits."""
    values = []
    for _ in range(count):
        result = child(["--workload", name, "--seed", str(seed), "--setup-only"])
        values.append(result["setup_s"])
    return values


def run_shape(seconds: float, traced: bool) -> Tuple[int, int, float]:
    """``--seconds`` as (untraced slices, traced slices, seconds per slice):
    slices of ``spec.SLICE_SECONDS``, the last two of a traced run with spans."""
    count = max(1, round(seconds / spec.SLICE_SECONDS))
    traced_slices = min(spec.TRACED_SLICES, max(count - 1, 1)) if traced else 0
    slices = max(count - traced_slices, 1)
    return slices, traced_slices, seconds / (slices + traced_slices)


def measure_workload(name: str, seed: int, slices: int, slice_seconds: float,
                     traced_slices: int = 0,
                     warmup_seconds: float = spec.WARMUP_SECONDS,
                     setup_samples: int = 1,
                     corrupt_reference: bool = False) -> Dict[str, Any]:
    """One run: set up, warm up, measure ``slices`` slices of closed loop
    (then ``traced_slices`` more with spans on), tear down."""
    traced = traced_slices > 0
    setups = extra_setups(name, seed, setup_samples - 1)
    recorder = SpanRecorder() if traced else None
    workload = WORKLOADS[name](seed, recorder)
    setups.append(timed_setup(workload))

    reference = Reference()
    reference.learn(workload.build_twin(), workload.reference_set())
    if corrupt_reference:
        reference.corrupt(workload.reference_set()[0])

    schedules = [workload.schedule(client) for client in range(workload.clients)]
    run_slice(workload, schedules, reference, warmup_seconds)

    before = workload.counters()
    untraced = [run_slice(workload, schedules, reference, slice_seconds)
                for _ in range(slices)]
    with_spans: List[Slice] = []
    if traced:
        recorder.enabled = True
        with_spans = [run_slice(workload, schedules, reference, slice_seconds)
                      for _ in range(traced_slices)]
        recorder.enabled = False
    after = workload.counters()
    server = workload.teardown()

    samples = [sample for piece in untraced + with_spans for sample in piece.samples]
    attempted = len(samples)
    failed = sum(1 for sample in samples if not sample.correct)
    per_layer = layers.counter_metrics(before, after, attempted)
    record: Dict[str, Any] = {
        "workload": name, "seed": seed, "traced": traced,
        "clients": workload.clients, "load_threads": workload.load_threads_started,
        "slices": slices, "slice_seconds": slice_seconds,
        "warmup_seconds": warmup_seconds,
        "attempted": attempted, "failed": failed,
        "failed_share": failed / attempted if attempted else 1.0,
        "errors": dict(Counter(sample.error or "wrong answer"
                               for sample in samples if not sample.correct)),
        "setup_s": setups,
        "peak_rss_mb": peak_rss_mb(),
        "calibration_ms": median_and_iqr(
            [piece.calibration.kernel_ms for piece in untraced]),
        "latency_scales": [piece.latency_scale for piece in untraced],
        "summary": over_slices(untraced),
        "stmt_p99_ms": pooled_p99_ms(untraced),
        "shapes": shape_breakdown(untraced),
        "server": server,
        "invariants": layers.broken_invariants(name, per_layer, server),
    }
    if traced:
        spans = recorder.drain()
        link_spans(spans)
        per_layer.update(layers.span_metrics(spans, with_spans))
        per_layer.update(layers.bench_metrics(untraced, with_spans))
        per_layer["stmt_p95_ms"] = record["summary"]["stmt_p95_ms"]["median"]
        per_layer.update(layers.probe_compile(workload, workload.reference_set()))
        per_layer.update(probes(workload, slices * slice_seconds))
        per_layer.update({f"server.{key}": server.get(key, 0) for key in (
            "queue_wait_p95_ms", "peak_active", "shed_count",
            "connections_opened", "sessions_open_after")})
        per_layer["server.transport_overhead_ms"] = (
            per_layer["server.roundtrip_ms"] - per_layer.get("server.handle_ms", 0.0))
        record["per_layer"] = {name_: float(per_layer.get(name_, 0.0))
                               for name_ in spec.PER_LAYER}
        record["budget"] = layers.budget_rows(spans, with_spans)
        record["invariants"] += layers.broken_budget(record["budget"])
        write_trace(spans, spec.OUT / f"trace-{name}.json")
    return record


def probes(workload: Workload, slice_seconds: float) -> Dict[str, float]:
    """Probes only one workload can answer; the rest read 0 elsewhere."""
    if workload.name == "served_mix":
        return layers.probe_server(workload)
    if workload.name == "warm_repeat":
        return layers.probe_tracer(workload, slice_seconds / 2.0)
    if workload.name == "scan_stream":
        return layers.probe_kernels(workload)
    return {}


def shape_breakdown(slices: Sequence[Slice]) -> Dict[str, Dict[str, float]]:
    """Per shape: how many, and the raw (this host's) median latency."""
    by_shape = defaultdict(list)
    for piece in slices:
        for sample in piece.samples:
            if sample.correct:
                by_shape[sample.shape].append(sample.total_ms)
    return {shape: {"n": len(values), "raw_p50_ms": statistics.median(values)}
            for shape, values in sorted(by_shape.items())}


def end_to_end_values(record: Dict[str, Any]) -> Dict[str, float]:
    values = {name: record["summary"][name]["median"]
              for name in spec.END_TO_END if name in record["summary"]}
    values["peak_rss_mb"] = record["peak_rss_mb"]
    values["setup_s"] = statistics.median(record["setup_s"])
    return values


def result_line(record: Dict[str, Any]) -> str:
    """The contract's last line: exactly ``correct``, ``attempted``, ``failed``
    and ``metrics``."""
    if record["traced"]:
        values, units = record["per_layer"], spec.PER_LAYER
    else:
        values, units = end_to_end_values(record), spec.END_TO_END
    return json.dumps({
        "correct": record["failed"] == 0 and not record["invariants"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]["unit"]}
                    for name in units},
    })


def print_workload_run(record: Dict[str, Any]) -> None:
    name = record["workload"]
    summary, kernel = record["summary"], record["calibration_ms"]
    print(f"== {name}  seed={record['seed']}  clients={record['clients']}  "
          f"{record['slices']} slices x {record['slice_seconds']:g}s  "
          f"why: {spec.WORKLOADS[name]}")
    print(f"  calibration: reference kernel {kernel['median']:.4f} ms "
          f"(iqr/median={kernel['iqr_ratio']:.3f} over slices); reference-host "
          f"time / time here = {statistics.median(record['latency_scales']):.3f}; "
          f"raw stmt_p50_ms here {summary['raw_stmt_p50_ms']['median']:.4f}")
    for metric, value in end_to_end_values(record).items():
        spread = (f"iqr/median={summary[metric]['iqr_ratio']:.3f} over slices"
                  if metric in summary else "")
        print(f"  {metric:<22}{value:>14.4f} {spec.END_TO_END[metric]['unit']:<5}{spread}")
    print(f"  {'failed_share':<22}{record['failed_share']:>14.4f} ratio  "
          f"attempted={record['attempted']} failed={record['failed']} {record['errors'] or ''}")
    print(f"  {'stmt_p95_ms':<22}{summary['stmt_p95_ms']['median']:>14.4f} ms   "
          f"iqr/median={summary['stmt_p95_ms']['iqr_ratio']:.3f} over slices (not gated)")
    print(f"  {'bench.stmt_p99_ms':<22}{record['stmt_p99_ms']:>14.4f} ms   (not gated)")
    for shape, facts in record["shapes"].items():
        print(f"    shape {shape:<18} n={facts['n']:<7} raw p50={facts['raw_p50_ms']:.3f} ms")
    if record["traced"]:
        print_layers(record)
    for broken in record["invariants"]:
        print(f"  INVARIANT BROKEN: {broken}")


def print_layers(record: Dict[str, Any]) -> None:
    for metric, value in record["per_layer"].items():
        print(f"  {metric:<40}{value:>16.4f} {spec.PER_LAYER[metric]['unit']}")
    budget = dict(record["budget"])
    p50 = budget.pop("stmt_p50_ms")
    total = sum(budget.values())
    print(f"  layer budget of the median statement (traced stmt_p50_ms {p50:.4f} ms):")
    for layer, value in budget.items():
        print(f"    {layer + '_ms':<22}{value:>10.4f}  {100.0 * value / p50 if p50 else 0:5.1f}%")
    print(f"    {'sum':<22}{total:>10.4f}  {100.0 * total / p50 if p50 else 0:5.1f}% of stmt_p50_ms")


# -- subprocesses --------------------------------------------------------------------


def child(arguments: List[str], record_path: Optional[Path] = None) -> Dict[str, Any]:
    """Run ``run.py`` in a fresh process; returns its record (or last line)."""
    command = [sys.executable, str(RUN_PY)] + arguments
    if record_path is not None:
        command += ["--record", str(record_path)]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if record_path is not None and record_path.exists():
        with open(record_path) as handle:
            record = json.load(handle)
        record_path.unlink()
        record["exit_code"] = done.returncode
        return record
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}:\n{done.stdout}")
    return json.loads(lines[-1])


def git_commit() -> str:
    try:
        done = subprocess.run(["git", "-C", str(spec.ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


# -- the suite -----------------------------------------------------------------------


def run_suite(seed: int, traced: bool) -> Dict[str, Any]:
    """``spec.SUITE_PASSES`` passes over the workloads (A B C D, A B C D, ...,
    so host drift lands on all alike); in a pass every workload gets a fresh
    process that sets up, warms up and measures one slice (a one-workload run
    of one slice's length)."""
    spec.OUT.mkdir(parents=True, exist_ok=True)
    results: Dict[str, List[Dict[str, Any]]] = {name: [] for name in spec.WORKLOADS}
    for index in range(spec.SUITE_PASSES):
        for name in spec.WORKLOADS:
            run = child(["--workload", name, "--trace", "0", "--seed", str(seed),
                         "--seconds", str(spec.SLICE_SECONDS)],
                        spec.OUT / f".pass-{index}-{name}.json")
            results[name].append(run)
            print(f"pass {index + 1}/{spec.SUITE_PASSES} {name:<13} "
                  f"p50={run['summary']['stmt_p50_ms']['median']:.3f} ms "
                  f"qps={run['summary']['throughput_qps']['median']:.1f} "
                  f"kernel={run['calibration_ms']['median']:.3f} ms "
                  f"failed={run['failed']}/{run['attempted']}", flush=True)
    record: Dict[str, Any] = {
        "seed": seed, "git_commit": git_commit(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "slices": spec.SUITE_PASSES, "slice_seconds": spec.SLICE_SECONDS,
        "warmup_seconds": spec.WARMUP_SECONDS, "workloads": {},
    }
    for name, runs_of in results.items():
        record["workloads"][name] = fold_passes(name, runs_of)
    if traced:
        for name in spec.WORKLOADS:
            run = child(["--workload", name, "--trace", "1", "--seed", str(seed),
                         "--seconds", str(spec.TRACED_RUN_SECONDS)],
                        spec.OUT / f".traced-{name}.json")
            entry = record["workloads"][name]
            entry["per_layer"] = run["per_layer"]
            entry["budget"] = run["budget"]
            entry["invariants"] += run["invariants"]
            entry["traced_failed"] = run["failed"]
    return record


def fold_passes(name: str, runs: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Median over a workload's slices (one per pass), with their spread."""
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    per_run = [{**end_to_end_values(run),
                "stmt_p95_ms": run["summary"]["stmt_p95_ms"]["median"],
                "stmt_p99_ms": run["stmt_p99_ms"],
                "calibration_ms": run["calibration_ms"]["median"]}
               for run in runs]
    metrics = {}
    for metric in per_run[0]:
        values = [values_of[metric] for values_of in per_run]
        unit = spec.END_TO_END.get(metric, {"unit": "ms"})["unit"]
        metrics[metric] = {**median_and_iqr(values), "values": values, "unit": unit}
    return {
        "why": spec.WORKLOADS[name],
        "clients": runs[0]["clients"],
        "load_threads": max(run["load_threads"] for run in runs),
        "attempted": attempted, "failed": failed,
        "failed_share": failed / attempted if attempted else 1.0,
        "end_to_end": metrics,
        "invariants": [broken for run in runs for broken in run["invariants"]],
        "exit_codes": [run["exit_code"] for run in runs],
    }


def print_suite(record: Dict[str, Any]) -> None:
    print(f"\ncoinbench  seed={record['seed']}  commit={record['git_commit'][:12]}  "
          f"python={record['python']}  nproc={record['nproc']}  "
          f"{record['slices']} slices x {record['slice_seconds']}s per workload")
    for name, entry in record["workloads"].items():
        print(f"== {name}  clients={entry['clients']}  samples={entry['attempted']}"
              f"  why: {entry['why']}")
        for metric, summary in entry["end_to_end"].items():
            bound = spec.END_TO_END.get(metric, {}).get("bound")
            print(f"  {metric:<22}{summary['median']:>14.4f} {summary['unit']:<5}"
                  f"iqr/median={summary['iqr_ratio']:.3f}  slices={summary['n']}"
                  + (f"  bound={bound}" if bound is not None else "  (not gated)"))
        print(f"  {'failed_share':<22}{entry['failed_share']:>14.4f} ratio "
              f"attempted={entry['attempted']} failed={entry['failed']}  bound=0.0 absolute")
        if "per_layer" in entry:
            print_layers(entry)
        for broken in entry["invariants"]:
            print(f"  INVARIANT BROKEN: {broken}")


def suite_failed(record: Dict[str, Any]) -> bool:
    return any(entry["failed"] or entry["invariants"] or entry.get("traced_failed")
               or any(entry["exit_codes"])
               for entry in record["workloads"].values())


def write_record(record: Dict[str, Any], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1)


# -- entry ---------------------------------------------------------------------------


def parse_arguments(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="run.py", description="coinbench: the end-to-end, layer-attributed benchmark")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", choices=list(spec.WORKLOADS),
                        help="measure one workload in this process (else: the suite)")
    parser.add_argument("--seconds", type=float,
                        help="one-workload run: measured seconds, cut into slices of "
                             f"{spec.SLICE_SECONDS:g} s")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="one-workload run: 1 prints the per-layer metrics")
    parser.add_argument("--traced", action="store_true",
                        help="suite: add the per-layer pass")
    parser.add_argument("--record", type=Path, help="write the run record here")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A.json", "B.json"))
    parser.add_argument("--repeat-check", action="store_true",
                        help="run the suite twice and compare the two records")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--corrupt-reference", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload and args.seconds is None and not args.setup_only:
        parser.error("--workload needs --seconds")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_arguments(argv)
    if args.compare:
        return compare.main(*args.compare)

    if args.workload:
        pin_to_one_cpu()
        if args.setup_only:
            print(json.dumps({"setup_s": timed_setup(WORKLOADS[args.workload](args.seed))}))
            return 0
        traced = bool(args.trace)
        slices, traced_slices, slice_seconds = run_shape(args.seconds, traced)
        record = measure_workload(
            args.workload, args.seed, slices, slice_seconds, traced_slices,
            setup_samples=1 if traced else spec.SETUP_SAMPLES,
            corrupt_reference=args.corrupt_reference)
        print_workload_run(record)
        if args.record:
            write_record(record, args.record)
        print(result_line(record))
        return 1 if record["failed"] or record["invariants"] else 0

    if args.repeat_check:
        paths = []
        for label in ("a", "b"):
            record = run_suite(args.seed, args.traced)
            print_suite(record)
            paths.append(spec.OUT / f"repeat-{label}.json")
            write_record(record, paths[-1])
            if suite_failed(record):
                return 1
        return compare.main(*paths)

    record = run_suite(args.seed, args.traced)
    print_suite(record)
    path = args.record or spec.OUT / f"run-seed{args.seed}.json"
    write_record(record, path)
    print(f"record: {path}")
    return 1 if suite_failed(record) else 0
