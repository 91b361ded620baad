"""Every resource cap: name -> default, each with the measurement behind it
(2-CPU x86 box, Python 3.11).  A size over its cap raises ResourceCapError
(exit 3); an answer is never cut short silently.  LAMPLIGHTER_CAP overrides
the two ball caps and nothing else; depth-profile --cap sets the wreath one."""

import os

from .errors import UsageError

CAPS = {
    # vertices of one Cayley ball, and the order of a cyclic group (its Cayley graph is its
    # ball of radius the diameter); the radius-10 ball of F2 (118,097) takes 2.4 s and 97 MB
    "CAYLEY_BALL_CAP": 200_000,
    # states of one wreath ball; the radius-13 octagon ball holds 1,983,643 (16,357 to spare)
    "WREATH_BALL_CAP": 2_000_000,
    # states one retreat search (one k) keeps; the radius-12 octagon's keep at most 12
    "RETREAT_SEARCH_CAP": 500_000,
    # elements one BFS word length keeps; Z^2 with gens +-2, +-3 fills it in 45 s and 316 MB
    "BFS_LENGTH_CAP": 2_000_000,
    # required TSP vertices; hamdiff on Z/22 takes 0.6 s, 95 MB (the packed table alone 17-23 s, 162 MB)
    "MAX_REQUIRED": 22,
    # ends-DP vertices, 3n ints of 2**n bits: n = 24 peaks at 180 MB (4x6 grid), 230 MB (Z/24, 1,2,3)
    "DP_CAP": 24,
    # vertices of a Hamiltonian path search past the DP; on the 5x8 grid the slowest of the 39
    # searches from a corner (to its neighbour) takes 0.21-0.37 s, no RSS beyond start-up (17.6 MB)
    "BACKTRACK_CAP": 40,
    # nodes of one spanning-walk search, at about 450k nodes/s; the largest 6x6 one takes 29.3k
    "SEARCH_NODE_CAP": 2_000_000,
}


def env_cap(name: str) -> int:
    """LAMPLIGHTER_CAP if set (a non-negative integer), else CAPS[name]."""
    text = os.environ.get("LAMPLIGHTER_CAP")
    if text is None:
        return CAPS[name]
    if not text.strip().isdecimal():
        raise UsageError(f"LAMPLIGHTER_CAP must be a non-negative integer, got {text!r}")
    return int(text)
