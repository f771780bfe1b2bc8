#!/usr/bin/env python3
"""The repo's host-time benchmark: seven workloads, end to end and by layer.

    python3 benchmarks/perf/run.py                     # every workload, both passes
    python3 benchmarks/perf/run.py --quick             # smoke sizes, one call, no trace
    python3 benchmarks/perf/run.py --workload plog_log --seed 7 --seconds 10 --trace 0
    python3 benchmarks/perf/run.py --compare A.json B.json

Every measurement runs in a fresh child interpreter (``child.py``) with the
``REPRO_*`` variables stripped and ``REPRO_CACHE_DIR`` pointed at a private
directory under ``benchmarks/perf/out/``.  End-to-end metrics come from an
untraced pass; a separate traced pass (``cProfile``) gives the per-layer
numbers.  With ``--workload`` the last line of standard output is one JSON
object holding the metrics ``BENCHMARK.json`` names for that pass.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"

#: Children per untraced pass that set up (import + warm-up); ``setup_s``
#: is the median of their set-up times.
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """A child could not produce a measurement."""


def spawn(mode: str, workload: str, opts: argparse.Namespace) -> dict[str, Any]:
    """Run ``child.py`` once and return the JSON object it prints."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_CACHE_DIR"] = os.path.join(opts.scratch, "cache")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--mode", mode, "--size", opts.size,
        "--seed", str(opts.seed), "--seconds", str(opts.seconds),
        "--repeats", str(opts.repeats), "--scratch", opts.scratch,
        "--spawned-at", repr(time.monotonic()),
    ]
    try:
        done = subprocess.run(
            command, env=env, stdout=subprocess.PIPE,
            timeout=CHILD_TIMEOUT_S, check=False,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: {mode} child timed out") from exc
    if done.returncode != 0:
        raise BenchError(f"{workload}: {mode} child exited {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def _digest(call: dict[str, Any]) -> str:
    return call["summary"]["model.digest"]


def timed_pass(workload: str, opts: argparse.Namespace) -> dict[str, Any]:
    """The untraced pass: every end-to-end metric.

    The timings report the *fastest* timed call.  The workloads are
    deterministic and the host's noise only ever adds time, in bursts of
    ~30 % that last seconds; over ten runs the minimum spreads a third as
    wide as the median (see README).  Every sample is kept beside it."""
    setups = [
        spawn("setup", workload, opts)["setup_s"]
        for _ in range(opts.setup_samples - 1)
    ]
    child = spawn("timed", workload, opts)
    setups.append(child["setup_s"])
    calls = child["calls"]
    walls = [c["wall_s"] for c in calls]
    cpus = [c["cpu_s"] for c in calls]
    rates = [c["received"] / c["wall_s"] for c in calls]
    problems = [p for c in calls for p in c["problems"]]
    if len({_digest(c) for c in calls}) > 1:
        problems.append("model.digest differs between repeats")
    return {
        "end_to_end": {
            "wall_s": min(walls),
            "cpu_s": min(cpus),
            "msgs_per_s": max(rates),
            "peak_rss_mb": child["peak_rss_mb"],
            "setup_s": statistics.median(setups),
        },
        "samples": {
            "wall_s": walls, "cpu_s": cpus, "msgs_per_s": rates,
            "peak_rss_mb": [child["peak_rss_mb"]], "setup_s": setups,
        },
        "attempted": sum(c["attempted"] for c in calls),
        "failed": sum(c["failed"] for c in calls),
        "problems": problems,
        "digest": _digest(calls[-1]),
        "numpy": child["numpy"],
    }


def traced_pass(workload: str, opts: argparse.Namespace) -> dict[str, Any]:
    """The traced pass: one plain call, the same call under the profiler,
    and every per-layer metric.  Counts are the same in both calls (the
    digest check holds that); host times are read from the plain one."""
    child = spawn("traced", workload, opts)
    plain, traced = child["calls"][0], child["traced"]
    problems = plain["problems"] + traced["problems"]
    if _digest(plain) != _digest(traced):
        problems.append("model.digest differs between plain and traced call")
    profile = traced["profile"]
    per_layer = {k: v for k, v in plain["summary"].items()
                 if k != "model.digest"}
    for layer, row in profile["layers"].items():
        for key, value in row.items():
            per_layer[f"{layer}.{key}"] = value
    per_layer.update({
        "sim.events": traced["events"],
        "sim.events_per_s": traced["events"] / plain["wall_s"],
        "harness.import_s": child["import_s"],
        "trace.overhead_x": traced["wall_s"] / plain["wall_s"],
        "trace.unattributed_share": profile["unattributed_share"],
    })
    return {
        "per_layer": per_layer,
        "trace": {"spans": child["spans"], **profile},
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "problems": problems,
        "digest": _digest(traced),
        "numpy": child["numpy"],
    }


def measure(workload: str, opts: argparse.Namespace) -> dict[str, Any]:
    """One workload, the passes ``opts.trace`` selects, merged."""
    passes = []
    if opts.trace != 1:
        passes.append(timed_pass(workload, opts))
    if opts.trace != 0:
        passes.append(traced_pass(workload, opts))
    record = {k: v for one in passes for k, v in one.items()}
    record["attempted"] = sum(p["attempted"] for p in passes)
    record["failed"] = sum(p["failed"] for p in passes)
    record["problems"] = [x for p in passes for x in p["problems"]]
    if len({p["digest"] for p in passes}) > 1:
        record["problems"].append("model.digest differs between the passes")
    record["correct"] = not record["problems"]
    if not record["correct"]:
        # An output check failed: the whole workload counts as failed.
        record["failed"] = record["attempted"]
    record["failed_share"] = record["failed"] / record["attempted"]
    return record


def host_record() -> dict[str, Any]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, check=True, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
        "platform": sys.platform,
        "python": platform.python_version(),
    }


def _fmt(value: float) -> str:
    if isinstance(value, int) or float(value).is_integer():
        return f"{int(value):,}"
    return f"{value:,.0f}" if abs(value) >= 1e4 else f"{value:.4f}"


def print_report(records: dict[str, Any], traces: dict[str, Any],
                 spec: dict[str, Any]) -> None:
    """Every metric by name with its unit, then the layer-share matrix."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, rec in records.items():
        verdict = "correct" if rec["correct"] else "FAILED: " + "; ".join(rec["problems"])
        print(f"== {name}: {verdict}")
        print(f"   failed_share {rec['failed_share']:.6f} fraction "
              f"({rec['failed']} of {rec['attempted']})   "
              f"model.digest {rec['digest'][:16]}")
        for metric, value in rec.get("end_to_end", {}).items():
            samples = rec["samples"][metric]
            print(f"   {metric:<14}{_fmt(value):>14} {units[metric]:<6} "
                  f"n={len(samples)} (min {_fmt(min(samples))}, "
                  f"median {_fmt(statistics.median(samples))}, "
                  f"max {_fmt(max(samples))})")
        shown = [(k, v) for k, v in rec.get("per_layer", {}).items() if v]
        for i in range(0, len(shown), 3):
            print("   " + "   ".join(
                f"{k} {_fmt(v)} {units.get(k, '')}".ljust(40)
                for k, v in shown[i:i + 3]).rstrip())
    if traces:
        print("== share of host self time by layer (traced pass)")
        print(f"   {'layer':<12}" + "".join(f"{n[:14]:>15}" for n in traces))
        for layer in next(iter(traces.values()))["layers"]:
            print(f"   {layer:<12}" + "".join(
                f"{t['layers'][layer]['share']:>15.3f}" for t in traces.values()))


def contract_line(rec: dict[str, Any], spec: dict[str, Any], trace: int) -> str:
    """The one JSON object the benchmark contract asks for."""
    if trace:
        values = rec["per_layer"]
        metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": rec["end_to_end"][m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    return json.dumps({
        "correct": rec["correct"], "attempted": rec["attempted"],
        "failed": rec["failed"], "metrics": metrics,
    })


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="one workload (default: all seven)")
    parser.add_argument("--seed", type=int, default=1,
                        help="forwarded to every run function and the CLI")
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed calls repeat until this much is measured "
                        "(default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--repeats", type=int, default=0, metavar="K",
                        help="exactly K timed calls instead of --seconds")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=None,
                        help="0: untraced pass only, 1: traced pass only "
                        "(default: both)")
    parser.add_argument("--quick", action="store_true",
                        help="smoke sizes, one call, one set-up, no traced pass")
    parser.add_argument("--out", type=Path, default=OUT / "result.json",
                        help="result file (default: %(default)s)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two result files and exit")
    opts = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if opts.compare:
        import compare
        return compare.main(*opts.compare, spec)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: no src/repro under {ROOT}: nothing to measure",
              file=sys.stderr)
        return 2
    names = [w["name"] for w in spec["workloads"]]
    if opts.workload:
        if opts.workload not in names:
            parser.error(f"unknown workload {opts.workload!r}; one of {names}")
        names = [opts.workload]
    if opts.seconds is None:
        opts.seconds = spec["run_seconds"]
    opts.size, opts.setup_samples = "bench", SETUP_SAMPLES
    if opts.quick:
        opts.size, opts.setup_samples, opts.repeats, opts.trace = "smoke", 1, 1, 0

    host = host_record()
    if host["loadavg_1m"] > 1.0:
        print(f"run.py: warning: 1-min load average is {host['loadavg_1m']:.2f}; "
              "timings will be noisy", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    opts.scratch = tempfile.mkdtemp(dir=OUT, prefix="tmp-")
    try:
        records = {name: measure(name, opts) for name in names}
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(opts.scratch, ignore_errors=True)

    traces = {n: r.pop("trace") for n, r in records.items() if "trace" in r}
    host["numpy"] = {r.pop("numpy") for r in records.values()}.pop()
    result = {
        "schema": 1, "host": host, "seed": opts.seed, "quick": opts.quick,
        "seconds": opts.seconds, "repeats": opts.repeats, "workloads": records,
    }
    opts.out.parent.mkdir(parents=True, exist_ok=True)
    opts.out.write_text(json.dumps(result, indent=1) + "\n")
    if traces:
        (OUT / "trace.json").write_text(json.dumps(
            {"seed": opts.seed, "host": host, "workloads": traces}) + "\n")
    print_report(records, traces, spec)
    if opts.workload and opts.trace is not None:
        print(contract_line(records[opts.workload], spec, opts.trace))
    return 0 if all(r["correct"] for r in records.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
