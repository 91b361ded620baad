"""The repository benchmark: one workload run, measured in child processes.

    python3 perfbench/run.py --workload profile-oct2 --seed 1 --seconds 25 --trace 0

Each child is a fresh Python process that imports `lamplighter` from this
checkout's `src/`, builds the workload's inputs from the seed and runs the
operations one at a time (a single-process closed loop, no threads).

--trace 0  four set-up-only children, then one child that runs whole passes
           of the workload until --seconds have passed (at least one pass);
           prints the end-to-end metrics.
--trace 1  one untraced child and one traced child, one pass each; prints
           the per-layer metrics and the tracing overhead.

Every time in the JSON result is taken at the reference speed of the speed
probe (speedprobe.py), which samples the shared machine's speed inside each
child; the raw times are printed beside them.  Human-readable lines go first; the last stdout line is the JSON result.
Exits 2 without a result when the program is not there to run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import speedprobe  # noqa: E402

WORKLOADS = ("profile-oct2", "cli-queries", "grid-walks")
SETUP_CHILDREN = 4
# the whole run must end within 180 s
BUDGET_S = 170.0

END_TO_END = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "lamplighter", "__init__.py")):
        print(f"no lamplighter sources under {ROOT}/src; nothing to measure", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + BUDGET_S
    try:
        if args.trace:
            result = traced_run(args, deadline)
        else:
            result = timed_run(args, deadline)
    except ChildFailed as exc:
        print(f"benchmark child failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


class ChildFailed(Exception):
    pass


def child(args, mode: str, seconds: float, deadline: float) -> dict:
    env = dict(os.environ)
    env.pop("LAMPLIGHTER_CAP", None)  # the program's default caps
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--mode", mode]
    spawned_at = time.perf_counter()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)], env=env, cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{mode} child did not finish within the time budget")
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def nearest_rank(sorted_values, q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def tail_quantile(n: int) -> float:
    """p99, or for fewer samples the highest quantile that still has ten
    samples beyond it, but never below the median."""
    return max(0.5, min(0.99, 1 - 10 / n))


def checks(*records) -> dict:
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    hash_ok = all(r["hash_ok"] for r in records)
    print(f"fail_ratio {failed / attempted:.6f} ({failed} failed of {attempted} attempted)")
    checked = [r for r in records if r["hash_checked"]]
    print(f"output sha256 {records[0]['sha256']} "
          f"({'matches the stored one' if checked and hash_ok else 'not compared' if hash_ok else 'MISMATCH'})")
    return {"correct": failed == 0 and hash_ok, "attempted": attempted, "failed": failed}


def timed_run(args, deadline: float) -> dict:
    setups = [child(args, "setup", 0, deadline) for _ in range(SETUP_CHILDREN)]
    rec = child(args, "timed", args.seconds, deadline)
    setups.append(rec)

    lat = sorted(rec["latencies"])
    n_ops = len(lat)
    tail = tail_quantile(n_ops)
    wall = statistics.median(rec["walls"])
    values = {
        "wall_s": wall,
        "cpu_s": statistics.median(rec["cpus"]),
        "ops_per_s": rec["units_per_pass"] / wall,
        "op_p50_ms": 1e3 * nearest_rank(lat, 0.50),
        "op_p99_ms": 1e3 * nearest_rank(lat, tail),
        "peak_rss_mb": rec["peak_rss_mb"],
        "setup_s": statistics.median(s["setup_s"] for s in setups),
    }
    raw_lat = sorted(rec["latencies_raw"])
    raw = {
        "wall_s": statistics.median(rec["walls_raw"]),
        "op_p50_ms": 1e3 * nearest_rank(raw_lat, 0.50),
        "op_p99_ms": 1e3 * nearest_rank(raw_lat, tail),
        "setup_s": statistics.median(s["setup_raw_s"] for s in setups),
    }
    print(f"workload {args.workload} seed {args.seed}: {len(rec['walls'])} passes, "
          f"{n_ops} ops; wall_s, cpu_s and ops_per_s are medians over passes; "
          f"op_p99_ms is the q={tail:.4f} quantile of {n_ops} latencies "
          f"({n_ops - math.ceil(tail * n_ops)} beyond it); "
          f"setup_s is the median of {len(setups)} children")
    print(f"times are at the speed probe's reference speed; the probe took "
          f"{rec['probe_ms']:.3f} ms on average over {rec['probe_samples']} samples "
          f"in the timed child, against {1e3 * speedprobe.REFERENCE_PROBE_S:g} ms")
    metrics = {}
    for name, unit in END_TO_END:
        shown = f" (raw {raw[name]:.6g} {unit})" if name in raw else ""
        print(f"{name} {values[name]:.6g} {unit}{shown}")
        metrics[name] = {"value": values[name], "unit": unit}
    return {**checks(rec), "metrics": metrics}


def traced_run(args, deadline: float) -> dict:
    import layertrace

    plain = child(args, "timed", 0, deadline)
    traced = child(args, "traced", 0, deadline)
    values = dict(traced["per_layer"])
    values["tracing_overhead_s"] = traced["walls"][0] - plain["walls"][0]
    print(f"workload {args.workload} seed {args.seed}: one untraced and one traced pass, "
          f"{traced['attempted']} ops each; spans in perfbench/_work/; span times are raw "
          f"and include the speed probe's samples; tracing_overhead_s compares the two "
          f"passes at the probe's reference speed")
    metrics = {}
    for name, unit, _better in layertrace.PER_LAYER:
        print(f"{name} {values[name]:.6g} {unit}")
        metrics[name] = {"value": values[name], "unit": unit}
    return {**checks(plain, traced), "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
