"""The machine's current speed, sampled while a workload runs.

The benchmark runs on a few cores of a shared host.  There, the same Python
code runs up to twice as slow in windows that last from seconds to minutes,
because other tenants compete for the cores and their caches; the slowdown
shows in process CPU time as much as in wall time.  A median over passes
removes short windows but not the slow drift between runs.

`SpeedProbe` therefore times a fixed piece of interpreted work (`probe`, a
breadth-first search over a torus and a depth-first search of walks on a
small grid, about 1 ms together) every `INTERVAL_S` seconds from a SIGALRM
handler, so the samples interleave with the program's own work in the same
process.  A time measured over an interval is then reported at a
reference speed:

    normalised = (raw time - probe time inside the interval)
                 * REFERENCE_PROBE_S / mean probe time near the interval

that is, in seconds of a machine on which one probe takes 1 ms.  The probe is
independent of the program, so a change to the program moves the normalised
time exactly as it moves the raw time at a steady machine speed.

`probe` runs with the cyclic garbage collector off and frees what it
allocates, so it never starts a collection of the program's heap inside the
handler.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from array import array
from typing import Tuple

REFERENCE_PROBE_S = 1e-3
INTERVAL_S = 0.04
# latencies are normalised by the probes within this many seconds of the
# operation's midpoint
WINDOW_S = 0.5

# breadth-first search over a torus: list indexing in a loop
_W, _H = 30, 20
_N = _W * _H
_ADJ = []
for _v in range(_N):
    _x, _y = _v % _W, _v // _W
    _ADJ += [(_x + 1) % _W + _y * _W, (_x - 1) % _W + _y * _W,
             _x + (_y + 1) % _H * _W, _x + (_y - 1) % _H * _W]
_DIST = [0] * _N
_QUEUE = [0] * _N

# depth-first search of self-avoiding walks on a 4x4 grid: calls, closures
# and short-lived lists
_GRID = 4
_GRID_ADJ = [[w for w in range(_GRID * _GRID)
              if abs(w % _GRID - v % _GRID) + abs(w // _GRID - v // _GRID) == 1]
             for v in range(_GRID * _GRID)]
_WALK_NODES = 400


def _bfs() -> int:
    dist, queue, adj = _DIST, _QUEUE, _ADJ
    for i in range(_N):
        dist[i] = -1
    dist[0] = 0
    head, tail = 0, 1
    while head < tail:
        v = queue[head]
        head += 1
        d = dist[v] + 1
        for k in range(4 * v, 4 * v + 4):
            w = adj[k]
            if dist[w] < 0:
                dist[w] = d
                queue[tail] = w
                tail += 1
    return tail


def _walks() -> int:
    seen = [False] * len(_GRID_ADJ)
    nodes = [0]

    def dfs(v: int) -> int:
        nodes[0] += 1
        if nodes[0] > _WALK_NODES:
            return 0
        seen[v] = True
        total = 1
        for w in [w for w in _GRID_ADJ[v] if not seen[w]]:
            total += dfs(w)
        seen[v] = False
        return total

    return dfs(0)


def probe() -> int:
    """The fixed work one sample times, about 1 ms.  The cyclic garbage
    collector is off meanwhile, and every object the walk search allocates
    is freed before it ends."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _bfs() + _walks()
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Samples `probe` on a timer between `start()` and `stop()`.

    Sample start times and durations are `time.perf_counter()` values, the
    clock the benchmark times operations with."""

    def __init__(self) -> None:
        self.at = array("d")
        self.took = array("d")
        self._prefix = array("d", [0.0])
        self._busy = False

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        a = time.perf_counter()
        probe()
        b = time.perf_counter()
        self.at.append(a)
        self.took.append(b - a)
        self._prefix.append(self._prefix[-1] + (b - a))
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _span(self, a: float, b: float) -> Tuple[int, int, float]:
        """Index range of the samples started in [a, b) and their total time."""
        i, j = bisect.bisect_left(self.at, a), bisect.bisect_left(self.at, b)
        return i, j, self._prefix[j] - self._prefix[i]

    def normalise(self, start: float, end: float, raw: float, window: float = 0.0) -> float:
        """`raw`, measured from `start` to `end`, at the reference speed.

        Probe time inside the interval is taken out of `raw`.  The speed is
        the mean probe time of the samples in the interval widened by
        `window` on each side, widened further until it holds one sample."""
        _, _, inside = self._span(start, end)
        if not self.at:
            raise RuntimeError("no speed probe samples were taken")
        mid = (start + end) / 2
        half = max(window, (end - start) / 2)
        while True:
            i, j, total = self._span(mid - half, mid + half)
            if j > i:
                break
            half *= 2
        return (raw - inside) * REFERENCE_PROBE_S / (total / (j - i))
