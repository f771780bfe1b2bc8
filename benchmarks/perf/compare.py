"""``run.py --compare A.json B.json``: is B within the benchmark's bounds of A?

Per workload and end-to-end metric: both values, how much worse B is, the
metric's bound from ``BENCHMARK.json``, and a verdict —

``within``      B's value is no worse than A's by more than the bound;
``worse``       it is;
``unresolved``  the run-to-run spread of either side is wider than the
                bound, so two values cannot settle it (unless every sample
                of B reads better than every sample of A).

``failed_share``, ``model.digest`` and every per-layer metric that is a
count or a simulated-time number must be *equal*: for a fixed seed they
repeat exactly, so any difference means the model changed, not its speed.
"""

from __future__ import annotations

import json
import statistics
from typing import Any

#: Per-layer metrics measured in host time; every other one is exact.
_HOST_TIMED = (".self_s", ".share", "_per_s", "harness.import_s",
               "harness.cold_s", "harness.warm_s", "trace.overhead_x",
               "trace.unattributed_share")


def spread(samples: list[float]) -> float:
    """Interquartile range (range, under four samples) over the median."""
    if len(samples) < 2:
        return 0.0
    if len(samples) < 4:
        width = max(samples) - min(samples)
    else:
        q1, _q2, q3 = statistics.quantiles(samples, n=4)
        width = q3 - q1
    return width / statistics.median(samples)


def verdict(value_a: float, value_b: float, a: list[float], b: list[float],
            better: str, bound: float) -> tuple[float, str]:
    """How much worse B's value is than A's (as a share of A's; negative
    is better), and what that means against ``bound`` given the samples
    ``a`` and ``b`` the two values were taken from."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (value_b - value_a) / value_a
    if max(spread(a), spread(b)) > bound:
        if all(sign * (y - x) < 0 for x in a for y in b):
            return worse_by, "within"
        return worse_by, "unresolved"
    return worse_by, "worse" if worse_by > bound else "within"


def main(path_a: str, path_b: str, spec: dict[str, Any]) -> int:
    """Print the comparison; 1 if anything is worse or differs, else 0."""
    with open(path_a) as fa, open(path_b) as fb:
        a, b = json.load(fa), json.load(fb)
    for key in ("seed", "quick"):
        if a[key] != b[key]:
            print(f"note: {key} differs ({a[key]} vs {b[key]}): counts and "
                  "digests are not comparable")
    print(f"A: {path_a}  commit {a['host']['commit'][:12]}  "
          f"load {a['host']['loadavg_1m']:.2f}")
    print(f"B: {path_b}  commit {b['host']['commit'][:12]}  "
          f"load {b['host']['loadavg_1m']:.2f}")
    bad = 0
    pairs = [(name, ra, b["workloads"][name])
             for name, ra in a["workloads"].items() if name in b["workloads"]]
    print(f"{'workload':<16}{'metric':<14}{'A':>14}{'B':>14}"
          f"{'B worse by':>12}{'bound':>8}  verdict")
    for name, ra, rb in pairs:
        for metric in spec["end_to_end"]:
            key = metric["name"]
            if key not in ra.get("end_to_end", {}) or key not in rb.get("end_to_end", {}):
                continue
            worse_by, word = verdict(
                ra["end_to_end"][key], rb["end_to_end"][key],
                ra["samples"][key], rb["samples"][key],
                metric["better"], metric["bound"])
            bad += word == "worse"
            print(f"{name:<16}{key:<14}{ra['end_to_end'][key]:>14.4f}"
                  f"{rb['end_to_end'][key]:>14.4f}{worse_by:>+12.1%}"
                  f"{metric['bound']:>8.0%}  {word}")
        word = "within" if rb["failed_share"] <= ra["failed_share"] else "worse"
        bad += word == "worse"
        print(f"{name:<16}{'failed_share':<14}{ra['failed_share']:>14.6f}"
              f"{rb['failed_share']:>14.6f}{'':>12}{'exact':>8}  {word}")

    print("\nexact metrics (must be equal for one seed)")
    for name, ra, rb in pairs:
        rows = [("model.digest", ra["digest"][:16], rb["digest"][:16])]
        la, lb = ra.get("per_layer", {}), rb.get("per_layer", {})
        for key in la:
            if key in lb and not key.endswith(_HOST_TIMED) and (la[key] or lb[key]):
                rows.append((key, la[key], lb[key]))
        for key, va, vb in rows:
            flag = "" if va == vb else "   <-- DIFFERS"
            bad += va != vb
            print(f"{name:<16}{key:<30}{va!s:>22}{vb!s:>22}{flag}")

    print("\nhost-time per-layer metrics (no bound; where a difference sits)")
    for name, ra, rb in pairs:
        la, lb = ra.get("per_layer", {}), rb.get("per_layer", {})
        for key in la:
            if key in lb and key.endswith(_HOST_TIMED) and la[key] and lb[key] \
                    and not key.endswith(".share"):
                print(f"{name:<16}{key:<30}{la[key]:>14.4f}{lb[key]:>14.4f}"
                      f"{(lb[key] - la[key]) / la[key]:>+10.1%}")
    return 1 if bad else 0
