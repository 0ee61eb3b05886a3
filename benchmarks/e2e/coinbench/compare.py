"""``--compare A.json B.json``: did B get worse than A, by the fixed bounds?

Per workload and end-to-end metric it prints both medians, the ratio with its
base, and a verdict: ``regressed`` when B's median is worse than A's by more
than the metric's bound; ``unresolved`` when either run's own spread is wider
than the bound and the two runs' values overlap, so the comparison cannot
tell; ``ok`` otherwise.  ``failed_share`` is absolute: any failure regresses.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict

from coinbench import spec


def verdict(metric: Dict[str, Any], a: Dict[str, Any], b: Dict[str, Any]) -> str:
    """``ok`` / ``regressed`` / ``unresolved`` for one metric of one workload."""
    bound = metric["bound"]
    lower_is_better = metric["better"] == "lower"
    base = a["median"]
    if not base:
        return "unresolved"
    worsening = (b["median"] - base) / base
    if not lower_is_better:
        worsening = -worsening
    overlap = a["min"] <= b["max"] and b["min"] <= a["max"]
    if max(a["iqr_ratio"], b["iqr_ratio"]) > bound and overlap:
        return "unresolved"
    return "regressed" if worsening > bound else "ok"


def compare_records(a: Dict[str, Any], b: Dict[str, Any]) -> Dict[str, int]:
    counts = {"ok": 0, "regressed": 0, "unresolved": 0}
    print(f"A: commit {a['git_commit'][:12]} seed {a['seed']}   "
          f"B: commit {b['git_commit'][:12]} seed {b['seed']}")
    print(f"{'workload':<14}{'metric':<20}{'A median':>14}{'B median':>14}"
          f"{'B/A':>9}{'bound':>7}  verdict")
    for name in spec.WORKLOADS:
        left, right = a["workloads"][name], b["workloads"][name]
        for metric in spec.END_TO_END.values():
            old, new = left["end_to_end"][metric["name"]], right["end_to_end"][metric["name"]]
            outcome = verdict(metric, old, new)
            counts[outcome] += 1
            ratio = new["median"] / old["median"] if old["median"] else float("nan")
            print(f"{name:<14}{metric['name']:<20}{old['median']:>14.4f}"
                  f"{new['median']:>14.4f}{ratio:>8.3f}x{metric['bound']:>7}  {outcome}"
                  f"  (base A={old['median']:.4f} {metric['unit']})")
        outcome = "regressed" if right["failed_share"] > 0.0 else "ok"
        counts[outcome] += 1
        print(f"{name:<14}{'failed_share':<20}{left['failed_share']:>14.4f}"
              f"{right['failed_share']:>14.4f}{'':>9}{0.0:>7}  {outcome}  (absolute)")
    print(f"{counts['ok']} ok, {counts['regressed']} regressed, "
          f"{counts['unresolved']} unresolved")
    return counts


def main(a_path: Path, b_path: Path) -> int:
    with open(a_path) as handle:
        a = json.load(handle)
    with open(b_path) as handle:
        b = json.load(handle)
    counts = compare_records(a, b)
    return 1 if counts["regressed"] or counts["unresolved"] else 0
