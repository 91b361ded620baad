#!/usr/bin/env python3
"""Wall time, peak RSS and output digest of one lamplighter command.

Runs `python -m lamplighter.cli ARGS...` in a child process, with the src/
of this checkout first on PYTHONPATH, reads the child's stdout through a
pipe and prints one line:

    exit=0 lines=699646 sha256=42b39eec... wall_s=4.12 cpu_s=4.05 peak_rss_mb=168.9

wall_s runs from the start of the child to its exit, and cpu_s is the
child's user plus system time, which a busy machine inflates less.
peak_rss_mb is ru_maxrss of RUSAGE_CHILDREN once the child has been waited
for: the largest peak of any child process waited for, and the command is
the only child this script starts (Linux reports it in KiB; MB here are
MiB).  The child's stderr goes to this script's stderr, and the script
exits with the child's exit code.

Usage:
    python scripts/peak_rss.py depth-profile --group oct2.json --radius 12 --kmax 22 --format csv
    python scripts/peak_rss.py hamdiff --cyclic-range 3:16
"""

from __future__ import annotations

import hashlib
import os
import resource
import subprocess
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if not args:
        print(__doc__, file=sys.stderr)
        return 2
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    digest, lines = hashlib.sha256(), 0
    # the CPU time of children the interpreter may have waited for already
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-m", "lamplighter.cli", *args],
                          stdout=subprocess.PIPE, env=env) as child:
        for chunk in iter(lambda: child.stdout.read(1 << 16), b""):
            digest.update(chunk)
            lines += chunk.count(b"\n")
    wall = time.perf_counter() - start
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = usage.ru_utime + usage.ru_stime - before.ru_utime - before.ru_stime
    print(f"exit={child.returncode} lines={lines} sha256={digest.hexdigest()} wall_s={wall:.2f} "
          f"cpu_s={cpu:.2f} peak_rss_mb={usage.ru_maxrss / 1024:.1f}")
    return child.returncode


if __name__ == "__main__":
    sys.exit(main())
