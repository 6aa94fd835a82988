"""The loop benchmark: one command for every workload, metric and output check.

Suite mode (what a person runs)::

    python bench/run.py [--workload W ...] [--seed N] [--reps R] [--seconds S]
                        [--trace] [--out FILE]
    python bench/run.py --compare A.json B.json

runs each named workload (default: all five) ``--reps`` times (default 3),
interleaved round-robin so a noisy minute does not land on one workload,
each run in a fresh child process with ``PYTHONHASHSEED=0``; prints every
metric by name with its unit and sample count; checks the outputs within
and across runs; with ``--trace`` adds one traced run per workload and the
per-layer table; exits 1 if any check fails.

Single-run mode (what the benchmark driver runs, see BENCHMARK.json)::

    python bench/run.py --workload W --seed N --seconds S --trace 0|1

is one child run of one workload — chosen when exactly one ``--workload``
is named and ``--reps`` is not given — and prints as its last line
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
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
from pathlib import Path
from typing import Dict, List, Optional

_HERE = Path(__file__).resolve().parent
_ROOT = _HERE.parent
if str(_HERE) not in sys.path:
    sys.path.insert(0, str(_HERE))

import benchlib  # noqa: E402

#: A child that has not finished by then is killed and counted as failed.
CHILD_TIMEOUT_SECONDS = 170
DEFAULT_SECONDS = 15
DEFAULT_REPS = 3


def run_child(workload: str, seed: int, seconds: float, trace: int) -> Dict:
    """One workload run in a fresh interpreter; its report, or an ``error``."""
    command = [
        sys.executable, str(_HERE / "workloads.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        # subprocess.run kills and reaps the child when the timeout expires.
        done = subprocess.run(
            command, env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_SECONDS
        )
    except subprocess.TimeoutExpired:
        return {"workload": workload, "error": f"no result within {CHILD_TIMEOUT_SECONDS}s"}
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"workload": workload, "error": f"child exited with code {done.returncode}"}
    return json.loads(lines[-1])


# ----------------------------------------------------------------------
# Single-run mode
# ----------------------------------------------------------------------
def single_run(workload: str, seed: int, seconds: float, trace: int) -> int:
    report = run_child(workload, seed, seconds, trace)
    if "error" in report:
        print(f"{workload}: {report['error']}", file=sys.stderr)
        return 1
    print_report(report)
    if trace:
        units = {name: unit for name, unit, _better in benchlib.per_layer_metrics()}
        metrics = {
            name: {"value": value, "unit": units[name]}
            for name, value in report["per_layer"].items()
        }
    else:
        metrics = {
            metric.name: {
                "value": report["metrics"][metric.name]["value"], "unit": metric.unit
            }
            for metric in benchlib.END_TO_END
        }
    print(
        json.dumps(
            {
                "correct": report["failed"] == 0,
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if report["failed"] == 0 else 1


def print_report(report: Dict) -> None:
    print(
        f"{report['workload']}  seed={report['seed']} seconds={report['seconds']} "
        f"trace={report['trace']} PYTHONHASHSEED={report['hashseed']}  "
        f"attempted={report['attempted']} failed={report['failed']} digest={report['digest']}"
    )
    for message in report["messages"]:
        print(f"  FAILED {message}")
    for name, entry in report["metrics"].items():
        note = f"  ({entry['note']})" if "note" in entry else ""
        print(f"  {name:20s} {entry['value']:14.4f} {entry['unit']:5s} n={entry['samples']}{note}")
    if "layers" in report:
        print_layers(report)


def print_layers(report: Dict) -> None:
    layers = sorted(report["layers"].items(), key=lambda item: -item[1]["self_s"])
    for layer, entry in layers:
        print(f"  layer {layer:10s} self {entry['self_s']:9.4f} s  calls {entry['calls']}")
    for name in ("trace.unattributed_frac", "trace.wall_s", "trace.spans"):
        print(f"  {name:26s} {report['per_layer'][name]:.4f}")
    if report["missing_points"]:
        print(f"  missing wrap points: {', '.join(report['missing_points'])}")


# ----------------------------------------------------------------------
# Suite mode
# ----------------------------------------------------------------------
def host_meta(seed: int, seconds: float, reps: int) -> Dict[str, object]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=_ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "platform": platform.platform(), "commit": commit, "seed": seed,
        "seconds": seconds, "reps": reps, "PYTHONHASHSEED": "0",
        "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def first_difference(steps_a: List[str], steps_b: List[str]) -> str:
    for a, b in zip(steps_a, steps_b):
        if a != b:
            return f"{a} != {b}"
    return f"{len(steps_a)} steps != {len(steps_b)} steps"


def cross_checks(runs: Dict[str, List[Dict]]) -> Dict[str, List[str]]:
    """Output checks that need more than one run: workload -> failures."""
    failures: Dict[str, List[str]] = {name: [] for name in runs}
    for name in benchlib.SERIAL_WORKLOADS:
        reports = runs.get(name, [])
        for number, report in enumerate(reports[1:], start=2):
            if report["digest"] != reports[0]["digest"]:
                failures[name].append(
                    f"rep {number} outputs differ from rep 1: "
                    + first_difference(reports[0]["steps"], report["steps"])
                )
            if report["counters"] != reports[0]["counters"]:
                drifted = sorted(
                    key for key in reports[0]["counters"]
                    if report["counters"].get(key) != reports[0]["counters"][key]
                )
                failures[name].append(f"rep {number} program counters drifted: {drifted}")
    memory, sqlite = runs.get("loop_memory"), runs.get("loop_sqlite")
    if memory and sqlite and memory[0]["digest"] != sqlite[0]["digest"]:
        failures["loop_sqlite"].append(
            "answers differ from loop_memory: "
            + first_difference(memory[0]["steps"], sqlite[0]["steps"])
        )
    return failures


def aggregate(reports: List[Dict], cross_failures: List[str]) -> Dict[str, object]:
    metrics: Dict[str, Dict[str, object]] = {}
    for report in reports:
        for name, entry in report["metrics"].items():
            slot = metrics.setdefault(
                name, {"unit": entry["unit"], "samples": entry["samples"], "values": []}
            )
            slot["values"].append(entry["value"])
    attempted = sum(report["attempted"] for report in reports)
    failed = sum(report["failed"] for report in reports) + len(cross_failures)
    metrics["failed_frac"] = {
        "unit": "ratio", "samples": attempted,
        "values": [report["failed"] / max(report["attempted"], 1) for report in reports],
    }
    if cross_failures:  # a cross-run mismatch fails the workload as a whole
        metrics["failed_frac"]["values"] = [failed / max(attempted, 1)] * len(reports)
    for slot in metrics.values():
        slot["median"] = statistics.median(slot["values"])
    first = reports[0]
    return {
        "metrics": metrics, "attempted": attempted, "failed": failed,
        "messages": [m for report in reports for m in report["messages"]] + cross_failures,
        "digests": [report["digest"] for report in reports],
        "counters": first["counters"], "sizes": first["sizes"], "samples": first["samples"],
    }


def suite(
    workloads: List[str], seed: int, seconds: float, reps: int, trace: bool, out: Optional[Path]
) -> int:
    runs: Dict[str, List[Dict]] = {name: [] for name in workloads}
    broken: List[str] = []
    for rep in range(reps):
        for name in workloads:  # round-robin: every workload sees every minute
            print(f"[rep {rep + 1}/{reps}] {name} ...", flush=True)
            report = run_child(name, seed, seconds, 0)
            if "error" in report:
                print(f"  {report['error']}", file=sys.stderr)
                broken.append(name)
            else:
                runs[name].append(report)
    traced: Dict[str, Dict] = {}
    if trace:
        for name in workloads:
            print(f"[traced] {name} ...", flush=True)
            report = run_child(name, seed, seconds, 1)
            if "error" in report:
                print(f"  {report['error']}", file=sys.stderr)
                broken.append(name)
            else:
                traced[name] = report

    failures = cross_checks(runs)
    result: Dict[str, object] = {"meta": host_meta(seed, seconds, reps), "workloads": {}}
    ok = not broken
    for name in workloads:
        if not runs[name]:
            continue
        entry = aggregate(runs[name], failures[name])
        if name in traced:
            report = traced[name]
            wall = entry["metrics"]["wall_s"]["median"]
            report["per_layer"]["trace.overhead_frac"] = report["per_layer"]["trace.wall_s"] / wall - 1.0
            entry["trace"] = {
                key: report[key]
                for key in ("per_layer", "layers", "missing_points", "failed", "messages")
            }
            entry["failed"] += report["failed"]
        result["workloads"][name] = entry
        ok = ok and entry["failed"] == 0
    print_suite(result)
    if out is not None:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
        print(f"results written to {out}")
    print("all output checks passed" if ok else "OUTPUT CHECKS FAILED")
    return 0 if ok else 1


def print_suite(result: Dict) -> None:
    meta = result["meta"]
    print(
        f"\nhost: nproc={meta['nproc']} python={meta['python']} commit={meta['commit'][:12]} "
        f"seed={meta['seed']} seconds={meta['seconds']} reps={meta['reps']} PYTHONHASHSEED=0"
    )
    for name, entry in result["workloads"].items():
        print(f"\n{name}  attempted={entry['attempted']} failed={entry['failed']} sizes={entry['sizes']}")
        for message in entry["messages"]:
            print(f"  FAILED {message}")
        for metric, slot in entry["metrics"].items():
            print(
                f"  {metric:20s} {slot['median']:14.4f} {slot['unit']:5s} "
                f"n={slot['samples']:<6} spread={benchlib.spread(slot['values']):.3f}"
            )
        if "trace" in entry:
            print_layers(entry["trace"])
            overhead = entry["trace"]["per_layer"]["trace.overhead_frac"]
            print(f"  {'trace.overhead_frac':26s} {overhead:.4f}")


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------
def compare_files(path_a: Path, path_b: Path) -> int:
    rows, any_worse = benchlib.compare(
        json.loads(path_a.read_text()), json.loads(path_b.read_text())
    )
    print(
        f"{'workload':15s} {'metric':20s} {'A':>12s} {'B':>12s} {'B/A':>7s} "
        f"{'bound':>6s} {'spreadA':>8s} {'spreadB':>8s}  verdict"
    )
    for row in rows:
        ratio = f"{row['ratio']:.3f}" if row["ratio"] is not None else "-"
        print(
            f"{row['workload']:15s} {row['metric']:20s} {row['a']:12.4f} {row['b']:12.4f} "
            f"{ratio:>7s} {row['bound']:6.2f} {row['spread_a']:8.3f} {row['spread_b']:8.3f}  "
            f"{row['verdict']}  [{row['unit']}, base A]"
        )
    counts: Dict[str, int] = {}
    for row in rows:
        counts[row["verdict"]] = counts.get(row["verdict"], 0) + 1
    print(", ".join(f"{count} {name}" for name, count in sorted(counts.items())))
    return 1 if any_worse else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0], formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "--workload", action="append", choices=benchlib.WORKLOAD_NAMES,
        help="workload to run (repeatable; default: all)",
    )
    parser.add_argument("--seed", type=int, default=1, help="every input is generated from it")
    parser.add_argument(
        "--seconds", type=float, default=DEFAULT_SECONDS,
        help="nominal length of a timed section; scales the repeat counts",
    )
    parser.add_argument("--reps", type=int, help=f"child runs per workload (default {DEFAULT_REPS})")
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="suite mode: add one traced run per workload; single-run mode: trace the run",
    )
    parser.add_argument("--out", type=Path, help="suite mode: write the result file here")
    parser.add_argument("--compare", type=Path, nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)

    if args.compare:
        return compare_files(*args.compare)
    if args.workload and len(args.workload) == 1 and args.reps is None:
        return single_run(args.workload[0], args.seed, args.seconds, args.trace)
    return suite(
        args.workload or list(benchlib.WORKLOAD_NAMES), args.seed, args.seconds,
        args.reps or DEFAULT_REPS, bool(args.trace), args.out,
    )


if __name__ == "__main__":
    raise SystemExit(main())
