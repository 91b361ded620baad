"""The three benchmark workloads: seeded inputs, one pass of operations, and
seed-independent output checks.

A workload is built in two steps.  `build(name, seed, workdir, default_seed)` makes the
inputs (spec and element JSON files for the CLI workloads) and returns a
`Workload` whose `ops` are zero-argument callables.  Each op runs one
operation against the program and returns `(ok, output)`: `ok` is False when
the output fails its check, `output` is the text the program produced.  An op
that raises counts as failed too (the caller catches it).

Nothing here reads `--seed` beyond `random.Random(seed)`; the program only
ever sees the generated files and arguments.
"""

from __future__ import annotations

import csv
import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable, List, Tuple

from lamplighter import cli, hamiltonian

Op = Callable[[], Tuple[bool, str]]

# profile-oct2: the paper's octagon example Z/2 wr (Z/8 * Z/2), shrunk from
# radius 12 to radius 10.  Row count and per-shell maxima are fixed facts of
# this input; they do not depend on the seed.
PROFILE_RADIUS = 10
PROFILE_KMAX = 22
PROFILE_ROWS = 86_894
PROFILE_SHELL_MAX = {**{s: 0 for s in range(PROFILE_RADIUS)}, PROFILE_RADIUS: 2}

# cli-queries: query kind -> count in one pass of 300 distinct queries;
# wordlen queries name their backend, hamdiff takes Z/n for n = 4, 6, .., 16,
# verdict takes a pair of cyclic groups of order 2..8.  Only hamdiff on Z/16
# and the one finite query of size 14 take twice as long as the next ones, so
# the 1% tail of a pass (3 of 300) reaches into a plateau of ~15 ops of about
# equal cost and op_p99_ms does not hinge on which elements the seed drew
QUERY_MIX = {"box": 137, "petal": 48, "tree": 42, "finite": 25, "generic": 36,
             "hamdiff": 7, "verdict": 5}
# wordlen support sizes (number of lit lamps) cycle through these ranges
SUPPORT_SIZES = {"box": (2, 12), "petal": (1, 40), "tree": (1, 60), "finite": (2, 14),
                 "generic": (1, 6)}

GRID_DIMS = (5, 6)
CUBE_DIMS = (3, 3, 3)


@dataclass
class Workload:
    name: str
    ops: List[Op]
    # the output hash is comparable with the stored one only when the inputs
    # equal those the hash was recorded from
    hash_comparable: bool
    # outputs are hashed in this order (a permutation of op indices), so a
    # workload whose seed only shuffles the op order still has one hash
    hash_order: List[int]
    # what ops_per_s counts per op: elements profiled, queries, endpoint pairs
    units_per_op: int = 1


def build(name: str, seed: int, workdir: str, default_seed: int) -> Workload:
    if name == "profile-oct2":
        return _profile_oct2(workdir)
    if name == "cli-queries":
        return _cli_queries(seed, workdir, default_seed)
    if name == "grid-walks":
        return _grid_walks(seed)
    raise ValueError(f"unknown workload {name!r}")


def run_cli(argv: List[str]) -> Tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _write_json(workdir: str, name: str, payload) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return path


def _cyclic(n: int, letter: str = "b") -> dict:
    return {"variant": "cyclic", "n": n, "gens": [1], "letter": letter}


Z2_LAMPS = _cyclic(2, "a")
FP82 = {"variant": "free_product", "H": _cyclic(8), "K": _cyclic(2, "c")}


# ---------------------------------------------------------------------------
# profile-oct2


def _profile_oct2(workdir: str) -> Workload:
    spec = _write_json(workdir, "ll_fp82.json", {"lamps": Z2_LAMPS, "base": FP82})
    argv = ["depth-profile", "--group", spec, "--radius", str(PROFILE_RADIUS),
            "--kmax", str(PROFILE_KMAX), "--format", "csv"]

    def op() -> Tuple[bool, str]:
        rc, out = run_cli(argv)
        return rc == 0 and _profile_ok(out), out

    return Workload("profile-oct2", [op], hash_comparable=True, hash_order=[0],
                    units_per_op=PROFILE_ROWS)


def _profile_ok(text: str) -> bool:
    lines = text.splitlines()
    if not lines or lines[0] != "element_id,word_length,depth,retreat_depth,flags":
        return False
    rows = [l for l in lines[1:] if not l.startswith("#")]
    shells = {}
    for line in lines:
        if line.startswith("# shell "):
            _, _, shell, _, depth = line.split()
            shells[int(shell)] = int(depth)
    complete = all("partial_enumeration" not in row for row in rows)
    return complete and len(rows) == PROFILE_ROWS and shells == PROFILE_SHELL_MAX


# ---------------------------------------------------------------------------
# cli-queries


def _cli_queries(seed: int, workdir: str, default_seed: int) -> Workload:
    rng = random.Random(seed)
    specs = {
        "box": {"lamps": Z2_LAMPS, "base": {"variant": "abelian", "rank": 2,
                                            "moduli": [], "gens": [[1, 0], [0, 1]]}},
        "petal": {"lamps": Z2_LAMPS, "base": FP82},
        "tree": {"lamps": Z2_LAMPS, "base": {"variant": "free", "rank": 2}},
        "finite": {"lamps": Z2_LAMPS, "base": _cyclic(14)},
        "generic": {"lamps": Z2_LAMPS, "base": {"variant": "abelian", "rank": 1,
                                                "moduli": [], "gens": [[1], [2]]}},
    }
    spec_paths = {k: _write_json(workdir, f"ll_{k}.json", v) for k, v in specs.items()}
    cyclic_paths = {}

    def cyclic_path(n: int, letter: str) -> str:
        if (n, letter) not in cyclic_paths:
            cyclic_paths[n, letter] = _write_json(workdir, f"c{n}{letter}.json",
                                                  _cyclic(n, letter))
        return cyclic_paths[n, letter]

    # fixed counts per kind and sizes cycling through fixed ranges; the seed
    # draws the elements and the order, so every seed costs about the same
    ops: List[Op] = []
    for kind, count in QUERY_MIX.items():
        for j in range(count):
            if kind == "hamdiff":
                n = 4 + 2 * j
                ops.append(_hamdiff_op(cyclic_path(n, "b"), n))
            elif kind == "verdict":
                a, b = rng.randint(2, 8), rng.randint(2, 8)
                ops.append(_verdict_op(cyclic_path(a, "b"), cyclic_path(b, "c"), a, b))
            else:
                lo, hi = SUPPORT_SIZES[kind]
                lamps, position = ELEMENT_MAKERS[kind](rng, lo + j % (hi - lo + 1))
                elem = _write_json(workdir, f"q{len(ops):04d}.json",
                                   {"lamps": [[p, 1] for p in lamps], "position": position})
                ops.append(_wordlen_op(spec_paths[kind], elem, kind, len(lamps)))
    rng.shuffle(ops)
    return Workload("cli-queries", ops, hash_comparable=seed == default_seed,
                    hash_order=list(range(len(ops))))


def _distinct(rng: random.Random, size: int, draw) -> list:
    out, seen = [], set()
    while len(out) < size:
        p = draw()
        key = json.dumps(p)
        if key not in seen:
            seen.add(key)
            out.append(p)
    return out


def _box_element(rng, size):
    point = lambda: [rng.randint(-3, 3), rng.randint(-3, 3)]
    return _distinct(rng, size, point), point()


def _reduced_word(rng, letters: str, max_len: int) -> str:
    word = ""
    for _ in range(rng.randint(0, max_len)):
        choices = [c for c in letters if not word or c != word[-1].swapcase()]
        word += rng.choice(choices)
    return word or "e"


def _tree_element(rng, size):
    word = lambda: _reduced_word(rng, "abAB", 5)
    return _distinct(rng, size, word), word()


def _petal_word(rng) -> list:
    # alternating letters of Z/8 (factor 0, residues 1..7) and Z/2 (factor 1)
    letters, factor = [], rng.randint(0, 1)
    for _ in range(rng.randint(0, 6)):
        letters.append([0, rng.randint(1, 7)] if factor == 0 else [1, 1])
        factor = 1 - factor
    return letters


def _petal_element(rng, size):
    return _distinct(rng, size, lambda: _petal_word(rng)), _petal_word(rng)


def _finite_element(rng, size):
    # a lamp at the identity, where the walk starts, and the rest elsewhere:
    # the instance has `size` required vertices and Held-Karp `size - 1`
    # stations on every seed
    return [0] + rng.sample(range(1, 14), size - 1), rng.randrange(1, 14)


def _generic_element(rng, size):
    point = lambda: [rng.randint(-6, 6)]
    return _distinct(rng, size, point), point()


ELEMENT_MAKERS = {
    "box": _box_element,
    "petal": _petal_element,
    "tree": _tree_element,
    "finite": _finite_element,
    "generic": _generic_element,
}


def _wordlen_op(group: str, element: str, backend: str, lamp_cost: int) -> Op:
    argv = ["wordlen", "--group", group, "--element", element,
            "--backend", backend, "--verify"]
    flag = "upper-bound" if backend == "generic" else "exact"

    def op() -> Tuple[bool, str]:
        rc, out = run_cli(argv)
        return rc == 0 and _wordlen_ok(out, flag, lamp_cost), out

    return op


def _wordlen_ok(text: str, flag: str, lamp_cost: int) -> bool:
    """`--verify` made the CLI replay the walk; here the reported length must
    also equal the lamp cost plus the edges of the walk it printed."""
    lines = text.splitlines()
    if len(lines) != 2 or not lines[1].startswith("ts-walk: "):
        return False
    head = lines[0].split()
    value = int(head[-2] if flag == "upper-bound" else head[0])
    if head[-1] != flag:
        return False
    walk = lines[1].split()[1:]
    return value == lamp_cost + len(walk) - 1


def _cyclic_h(n: int) -> int:
    """H(Z/n, {+-1}) = floor(n/2) - 2 (the paper's cyclic formula)."""
    return n // 2 - 2


def _hamdiff_op(group: str, n: int) -> Op:
    argv = ["hamdiff", "--group", group]

    def op() -> Tuple[bool, str]:
        rc, out = run_cli(argv)
        rows = list(csv.reader(io.StringIO(out)))
        ok = rc == 0 and len(rows) == 2 and int(rows[1][2]) == _cyclic_h(n)
        return ok, out

    return op


def _verdict_op(h_path: str, k_path: str, a: int, b: int) -> Op:
    argv = ["verdict", "--H", h_path, "--K", k_path]
    total = _cyclic_h(a) + _cyclic_h(b)
    expect = {"h_H": _cyclic_h(a), "h_K": _cyclic_h(b), "sum": total,
              "verdict": "uniformly_bounded" if total >= 1 else "unbounded"}

    def op() -> Tuple[bool, str]:
        rc, out = run_cli(argv)
        rec = json.loads(out)
        return rc == 0 and all(rec[k] == v for k, v in expect.items()), out

    return op


# ---------------------------------------------------------------------------
# grid-walks


def _grid_walks(seed: int) -> Workload:
    pairs = []
    for dims in (GRID_DIMS, CUBE_DIMS):
        points = _lattice(dims)
        pairs += [(dims, s, t) for s in points for t in points]
    order = list(range(len(pairs)))
    random.Random(seed).shuffle(order)
    ops = [_walk_op(*pairs[i]) for i in order]
    # hash in the unshuffled order: every seed yields the same hash
    position = {p: i for i, p in enumerate(order)}
    return Workload("grid-walks", ops, hash_comparable=True,
                    hash_order=[position[p] for p in range(len(pairs))])


def _lattice(dims) -> List[tuple]:
    points = [()]
    for m in dims:
        points = [p + (c,) for p in points for c in range(1, m + 1)]
    return points


def _walk_op(dims, s, t) -> Op:
    if len(dims) == 2:
        call = lambda: hamiltonian.grid_spanning_path(dims[0], dims[1], s, t)
    else:
        call = lambda: hamiltonian.cube_spanning_path(dims, s, t)
    cover = set(_lattice(dims))

    def op() -> Tuple[bool, str]:
        walk = call()
        ok = (
            walk[0] == s and walk[-1] == t
            and set(walk) == cover
            and len(walk) <= len(cover) + 2
            and all(sum(abs(x - y) for x, y in zip(a, b)) == 1
                    for a, b in zip(walk, walk[1:]))
        )
        return ok, " ".join(",".join(map(str, p)) for p in walk) + "\n"

    return op
