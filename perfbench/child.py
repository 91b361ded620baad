"""One workload run in a fresh process; started by run.py, never by hand.

Modes:
  setup   build the inputs, report the set-up time, exit
  timed   run whole passes of the workload until --seconds have passed
          (at least one pass); --seconds 0 runs exactly one pass
  traced  install the layer tracer, then run exactly one pass

The speed probe (speedprobe.py) samples from the first line of the child to
its end; every time in the record exists raw and at the probe's reference
speed.  The last stdout line is a JSON record for run.py.  The program's own
stdout is captured inside each operation, so nothing else reaches stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import time

import speedprobe

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, "perfbench", "_work")
EXPECTED = os.path.join(ROOT, "perfbench", "expected_sha256.json")
DEFAULT_SEED = 0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=["setup", "timed", "traced"], required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.perf_counter() in the parent just before the spawn")
    args = ap.parse_args()

    probe = speedprobe.SpeedProbe()
    probe.start()
    try:
        record = _run(args, probe)
    finally:
        probe.stop()
    if record is None:
        return 2
    print(json.dumps(record))
    return 0


def _run(args, probe: speedprobe.SpeedProbe):
    import lamplighter
    src = os.path.join(ROOT, "src", "lamplighter")
    if os.path.dirname(os.path.abspath(lamplighter.__file__)) != src:
        print(f"lamplighter imported from {lamplighter.__file__}, not {src}", file=sys.stderr)
        return None
    import workloads

    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{args.mode}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        wl = workloads.build(args.workload, args.seed, workdir, DEFAULT_SEED)
        tracer = None
        if args.mode == "traced":
            import layertrace

            tracer = layertrace.Tracer()
            tracer.install()
            # the benchmark's own ops are the root spans
            wl.ops = [tracer.span("op", op) for op in wl.ops]
        setup_end = time.perf_counter()
        record = {}
        if args.mode == "setup":
            # keep the machine busy a little longer, so that the set-up's
            # speed estimate has probe samples after it as well
            while time.perf_counter() < setup_end + speedprobe.WINDOW_S:
                pass
        else:
            seconds = args.seconds if args.mode == "timed" else 0.0
            record.update(_run_passes(wl, seconds, probe))
        setup_raw = setup_end - args.spawned_at
        record["setup_raw_s"] = setup_raw
        record["setup_s"] = probe.normalise(args.spawned_at, setup_end, setup_raw,
                                            speedprobe.WINDOW_S)
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            record["per_layer"] = tracer.metrics()
            tracer.write(os.path.join(WORK, f"trace-{args.workload}-{args.seed}.tsv"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return record


def _run_passes(wl, seconds: float, probe: speedprobe.SpeedProbe) -> dict:
    clock = time.perf_counter
    deadline = clock() + seconds
    passes, ops, hashes = [], [], []
    attempted = failed = 0
    while True:
        outputs = []
        c0, t0 = time.process_time(), clock()
        for op in wl.ops:
            a = clock()
            try:
                ok, out = op()
            except Exception as exc:  # an op that raises is a failed op
                ok, out = False, f"{type(exc).__name__}: {exc}\n"
            ops.append((a, clock() - a))
            outputs.append(out)
            attempted += 1
            failed += not ok
        t1 = clock()
        passes.append((t0, t1, time.process_time() - c0))
        digest = hashlib.sha256()
        for i in wl.hash_order:
            digest.update(outputs[i].encode())
        hashes.append(digest.hexdigest())
        if t1 >= deadline:
            break

    expected = None
    if wl.hash_comparable:
        with open(EXPECTED) as fh:
            expected = json.load(fh)[wl.name]
    # every pass must give the same bytes, and the stored ones where comparable
    hash_ok = len(set(hashes)) == 1 and (expected is None or hashes[0] == expected)
    return {
        "walls_raw": [t1 - t0 for t0, t1, _ in passes],
        "walls": [probe.normalise(t0, t1, t1 - t0) for t0, t1, _ in passes],
        "cpus": [probe.normalise(t0, t1, cpu) for t0, t1, cpu in passes],
        "latencies_raw": [lat for _, lat in ops],
        "latencies": [probe.normalise(a, a + lat, lat, speedprobe.WINDOW_S) for a, lat in ops],
        "probe_ms": 1e3 * sum(probe.took) / len(probe.took),
        "probe_samples": len(probe.took),
        "attempted": attempted,
        "failed": failed,
        "units_per_pass": wl.units_per_op * len(wl.ops),
        "sha256": hashes[0],
        "hash_checked": expected is not None,
        "hash_ok": hash_ok,
    }

if __name__ == "__main__":
    sys.exit(main())
