#!/usr/bin/env python3
"""Depth profiles for the bundled example lamplighters.

Enumerates the wreath-product ball to the requested radius, computes the
exact depth of every element, and prints per-shell maxima plus all dead ends.
The first line gives the elapsed time and the process's peak RSS.

Usage:
    python scripts/depth_profile_run.py --base line    --radius 7
    python scripts/depth_profile_run.py --base dinf    --radius 13
    python scripts/depth_profile_run.py --base oct2    --radius 10
    python scripts/depth_profile_run.py --base square4 --radius 8
"""

from __future__ import annotations

import argparse
import resource
import sys
import time

from lamplighter import cli, groups as G, wreath as W
from lamplighter.limits import CAPS

BASES = {
    "line": lambda: G.make_abelian(1, [], [[1]]),
    "tree": lambda: G.make_free(1, "t"),
    "dinf": lambda: G.make_free_product(
        G.make_cyclic(2, [1]), G.make_cyclic(2, [1], letter="c")
    ),
    "oct2": lambda: G.make_free_product(
        G.make_cyclic(8, [1]), G.make_cyclic(2, [1], letter="c")
    ),
    "square4": lambda: G.make_free_product(
        G.make_cyclic(4, [1]), G.make_cyclic(4, [1], letter="c")
    ),
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--base", choices=sorted(BASES), default="line")
    ap.add_argument("--radius", type=int, default=7)
    ap.add_argument("--kmax", type=int, default=8)
    ap.add_argument("--cap", type=int,
                    help=f"state cap (default: LAMPLIGHTER_CAP, else {CAPS['WREATH_BALL_CAP']:,})")
    args = ap.parse_args(argv)
    # the malloc thresholds of the depth-profile command, for the same peak RSS
    cli._fix_malloc_thresholds()

    lamps = G.make_cyclic(2, [1], letter="a")
    model = W.LamplighterModel(lamps, BASES[args.base]())
    t0 = time.perf_counter()
    profile = W.depth_profile(model, args.radius, args.kmax, cap=args.cap)
    status = "complete" if profile.complete else "PARTIAL"
    # ru_maxrss is in KiB on Linux
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(
        f"base={args.base} radius={args.radius} elements={len(profile.rows)} "
        f"({status}, {time.perf_counter() - t0:.1f}s, peak RSS {peak_mb:.1f} MB)"
    )
    print("shell maxima:", profile.max_depth_per_shell())
    dead = [row for row, _state in profile.rows.dead_ends()]
    print(f"dead ends with depth >= 1: {len(dead)}")
    for row in dead[:40]:
        flag = "" if row.depth_exact else " (lower bound)"
        print(f"  {row.element_id}  len={row.word_length} depth={row.depth}{flag}")
    if len(dead) > 40:
        print(f"  ... {len(dead) - 40} more")
    return 0


if __name__ == "__main__":
    sys.exit(main())
