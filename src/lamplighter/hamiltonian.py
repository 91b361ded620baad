"""Hamiltonicity analysis: path/cycle deciders, Hamiltonian-connectedness and
laceability, the Hamiltonian difference, grid/cube spanning walks, cubes of
graphs, the Nash-Williams generator basis, and quasi-Hamiltonian certificates.

Length convention: walks in this module are vertex sequences and every stated
bound counts VERTICES (a path v_1..v_n has length n).  The tsp module counts
edges; the conversion edges = vertices - 1 is applied exactly where the two
meet (hamiltonian_difference, qh certificates).
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import sys
from dataclasses import asdict, dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .errors import ResourceCapError, VerificationError
from .graphs import FiniteGraph, _not_masks, cayley_ball, cube_graph, finite_cayley_graph
from .groups import (
    AbelianModel,
    FiniteModel,
    FreeModel,
    GroupModel,
    Payload,
    _hermite_basis,
    _in_lattice,
    _lattice_residue,
    _with_relations,
    group_spec_of,
)
from . import tsp
from .limits import CAPS


# ---------------------------------------------------------------------------
# Hamiltonian path decision


def _ends_dp(g: FiniteGraph, start: int, nots: List[int]) -> List[int]:
    """reach[v] as an int of 2**n bits: bit m is set iff some Hamiltonian path
    of the induced subset m starts at `start` and ends at v.

    The Bellman / Held-Karp subset DP, bit-sliced: `layer[v]` holds the subsets
    of one size, all extended at once by layer'[v] = ((OR of layer[u], u ~ v)
    & NOT[v]) << 2**v.  Each layer[u] is pushed to its neighbours and dropped,
    so about one layer is alive besides `reach` and `nots`."""
    n = g.n
    reach = [0] * n
    reach[start] = 1 << (1 << start)
    layer = reach[:]
    for _ in range(n - 1):
        step = [0] * n
        for u in range(n):
            x, layer[u] = layer[u], 0
            if x:
                for v in g.adj[u]:
                    step[v] = step[v] | x if step[v] else x
        for v in range(n):
            if step[v]:
                step[v] = (step[v] & nots[v]) << (1 << v)
                reach[v] |= step[v]
        layer = step
    return reach


def _dp_path(g: FiniteGraph, reach: List[int], start: int, end: int) -> Tuple[int, ...]:
    """Reconstruct one Hamiltonian path from the ends-DP, walking back from
    `end` through the smallest neighbour that ends a path of what is left."""
    mask, last = (1 << g.n) - 1, end
    rev = [end]
    while mask != (1 << start) or last != start:
        pm = mask ^ (1 << last)
        prev = min((u for u in g.adj[last] if reach[u] >> pm & 1), default=None)
        if prev is None:
            raise VerificationError("reconstruction failed")
        rev.append(prev)
        mask, last = pm, prev
    return tuple(reversed(rev))


def hamiltonian_path(g: FiniteGraph, u: int, v: int) -> Optional[Tuple[int, ...]]:
    """A Hamiltonian u-v path, or None.  Deterministic output."""
    n = g.n
    if u == v:
        return (u,) if n == 1 else None
    if n <= CAPS["DP_CAP"]:
        reach = _ends_dp(g, u, _not_masks(n))
        if reach[v] >> ((1 << n) - 1) & 1:
            return _dp_path(g, reach, u, v)
        return None
    if n <= CAPS["BACKTRACK_CAP"]:
        return spanning_walk_min_repeats(g, u, v, max_repeats=0)
    raise ResourceCapError("BACKTRACK_CAP", CAPS["BACKTRACK_CAP"], f"by a path search on {n} vertices")


@dataclass(frozen=True)
class HamiltonicityReport:
    has_hamiltonian_cycle: bool
    hamiltonian_connected: bool
    bipartite: bool
    hamiltonian_laceable: Optional[bool]
    witnesses: Dict[Tuple[int, int], Tuple[int, ...]] = field(repr=False, default_factory=dict)


def analyze(g: FiniteGraph) -> HamiltonicityReport:
    """All-pairs Hamiltonian path decisions with witnesses."""
    n = g.n
    if n > CAPS["DP_CAP"]:
        raise ResourceCapError("DP_CAP", CAPS["DP_CAP"], f"by analyze on {n} vertices")
    parts = g.bipartition()
    bipartite = parts is not None
    if n == 1:
        return HamiltonicityReport(True, True, True, True, {(0, 0): (0,)})
    full = (1 << n) - 1
    nots = _not_masks(n)
    witnesses: Dict[Tuple[int, int], Tuple[int, ...]] = {}
    exists = [[False] * n for _ in range(n)]
    for u in range(n):
        reach = _ends_dp(g, u, nots)
        for v in range(n):
            if v != u and reach[v] >> full & 1:
                exists[u][v] = True
                witnesses[(u, v)] = _dp_path(g, reach, u, v)
    ham_connected = all(exists[u][v] for u in range(n) for v in range(n) if u != v)
    has_cycle = n >= 3 and any(
        exists[u][v] for u in range(n) for v in g.adj[u] if u < v
    )
    laceable: Optional[bool] = None
    if bipartite:
        side0, side1 = parts
        laceable = all(exists[u][v] for u in side0 for v in side1)
    return HamiltonicityReport(has_cycle, ham_connected, bipartite, laceable, witnesses)


# ---------------------------------------------------------------------------
# Hamiltonian difference


def hamiltonian_difference(model: FiniteModel) -> int:
    """H(G, S_G) = max_{g != e} TS(e->g;G) - TS(e->e;G) on the Cayley graph."""
    return hamiltonian_difference_detail(model)[0]


def hamiltonian_difference_detail(model: FiniteModel) -> Tuple[int, int, int, List[int]]:
    """Returns (H, TS(e->e;G), argmax vertex, all TS(e->v;G) values)."""
    table = model.table
    if table.order < 2:
        raise ValueError("Hamiltonian difference needs |G| >= 2")
    if table.order > CAPS["MAX_REQUIRED"]:
        raise ResourceCapError("MAX_REQUIRED", CAPS["MAX_REQUIRED"], f"by group order {table.order}")
    graph = finite_cayley_graph(model)
    lengths = tsp.solve_all_ends(graph, table.identity, set(range(table.order)))
    closed = lengths[table.identity]
    best_v = max(
        (v for v in range(table.order) if v != table.identity),
        key=lambda v: (lengths[v], -v),
    )
    return lengths[best_v] - closed, closed, best_v, lengths


# ---------------------------------------------------------------------------
# spanning walks with few repeats (grids and small graphs)


@dataclass(frozen=True)
class _GraphBits:
    """Bitset view of a graph shared by every spanning-walk search on it:
    per-vertex adjacency masks, the bipartition side of each vertex and the
    number of vertices on each side (both None when the graph has an odd
    cycle)."""

    g: FiniteGraph
    adjm: Tuple[int, ...]
    side: Optional[Tuple[int, ...]]
    side_sizes: Optional[Tuple[int, int]]


def _graph_bits(g: FiniteGraph) -> _GraphBits:
    adjm = tuple(sum(1 << v for v in nbrs) for nbrs in g.adj)
    parts = g.bipartition()
    if parts is None:
        return _GraphBits(g, adjm, None, None)
    side = tuple(int(v in parts[1]) for v in range(g.n))
    return _GraphBits(g, adjm, side, (g.n - sum(side), sum(side)))


def spanning_walk_min_repeats(
    g: FiniteGraph, s: int, t: int, max_repeats: int
) -> Optional[Tuple[int, ...]]:
    """Spanning walk s..t revisiting at most max_repeats vertex slots, with the
    fewest repeats possible; None if none exists within the budget.

    Budget 0 is a plain Hamiltonian-path search.  Raises ResourceCapError
    when a search gives up, so None always means "no such walk".
    """
    return _fewest_repeats(_graph_bits(g), s, t, max_repeats)


def _fewest_repeats(bits: _GraphBits, s: int, t: int, max_repeats: int) -> Optional[Tuple[int, ...]]:
    for budget in range(max_repeats + 1):
        found = _spanning_walk_exact_repeats(bits, s, t, budget)
        if found is not None:
            return found
    return None


def _bipartite_infeasible(bits: _GraphBits, s: int, t: int, budget: int) -> bool:
    """Parity prechecks: walks in bipartite graphs alternate sides, which
    forces both the total length parity and per-side coverage counts.

    Assumes exactly `budget` repeats; walks with fewer repeats are callers'
    smaller-budget iterations, so nothing feasible is lost."""
    side = bits.side
    if side is None:
        return False
    slots = bits.g.n + budget
    if (slots - 1) % 2 != (side[s] ^ side[t]):
        return True
    need = bits.side_sizes
    return (slots + 1) // 2 < need[side[s]] or slots // 2 < need[side[s] ^ 1]


def _spanning_walk_exact_repeats(
    bits: _GraphBits, s: int, t: int, budget: int
) -> Optional[Tuple[int, ...]]:
    """Depth-first search for a spanning walk s..t of at most n + budget
    vertex slots.  Fresh moves go first, fewest unvisited neighbours first
    (ties by index), then moves back onto visited vertices while repeats
    remain; the first walk found in this order is returned.

    The unvisited set is an int mask.  A move is cut only when its subtree
    holds no walk, so pruning never changes which walk is returned:
    - more unvisited components than the remaining repeats can bridge;
    - with no repeats left, a free vertex other than t that could be entered
      but not left (fewer than two free neighbours, counting the vertex it
      is entered from).  A fresh move spends cur, so each node finds such
      stranded neighbours of cur once, before its fresh moves: two end them,
      and one is the only fresh move tried.  After a repeat move the child
      checks the neighbours of the vertex it came from.
    With no repeats left the parent's unvisited set was connected, so after
    a fresh move only the removed vertex's neighbours need to stay joined.
    """
    adjm, adj = bits.adjm, bits.g.adj
    n = bits.g.n
    # with no repeat, a walk over more than one vertex cannot come back to s
    if (s == t and n > 1 and not budget) or _bipartite_infeasible(bits, s, t, budget):
        return None
    cap = CAPS["SEARCH_NODE_CAP"]
    walk: List[int] = []  # filled end first as a found walk unwinds
    nodes = 0

    def flood(seed: int, within: int, goal: int) -> int:
        # vertices of `within` reachable from the seed bit, stopping early
        # once every bit of `goal` is reached
        seen = frontier = seed
        while frontier and goal & ~seen:
            grow = 0
            while frontier:
                low = frontier & -frontier
                grow |= adjm[low.bit_length() - 1]
                frontier ^= low
            frontier = grow & within & ~seen
            seen |= frontier
        return seen

    def components_exceed(unv: int, limit: int) -> bool:
        # bridging between unvisited components costs one repeat per jump
        comps = 0
        while unv:
            comps += 1
            if comps > limit:
                return True
            unv &= ~flood(unv & -unv, unv, unv)
        return False

    def dfs(cur: int, prev: int, unv: int, repeats: int, fresh: bool) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > cap:
            raise ResourceCapError("SEARCH_NODE_CAP", cap, f"in the search {s}->{t} with {budget}"
                                   f" repeats, {unv.bit_count()} vertices unvisited")
        if not unv and cur == t:
            walk.append(cur)
            return True
        if fresh and not repeats:
            # only cur's unvisited neighbours can have come apart; one or
            # none cannot
            joined = adjm[cur] & unv
            if joined & (joined - 1) and joined & ~flood(joined & -joined, unv, joined):
                return False
        elif components_exceed(unv, repeats + 1):
            return False
        if not repeats and not fresh and prev >= 0:
            # prev, left by a repeat move, is spent: its free neighbours
            # lost a way in or out
            open_ = unv | (1 << cur)
            for x in adj[prev]:
                if x != t and unv >> x & 1 and (adjm[x] & open_).bit_count() < 2:
                    return False
        moves = sorted([((adjm[w] & unv).bit_count(), w) for w in adj[cur] if unv >> w & 1])
        if not repeats:
            # cur is spent by any fresh move: a free neighbour other than t
            # with under two free neighbours must be the next vertex
            stranded = [m for m in moves if m[0] < 2 and m[1] != t]
            if len(stranded) > 1:
                return False
            moves = stranded or moves
        for _, w in moves:
            if dfs(w, cur, unv ^ (1 << w), repeats, True):
                walk.append(cur)
                return True
        if repeats:
            for w in adj[cur]:
                if not unv >> w & 1 and dfs(w, cur, unv, repeats - 1, False):
                    walk.append(cur)
                    return True
        return False

    try:
        found = dfs(s, -1, ((1 << n) - 1) ^ (1 << s), budget, False)
    except RecursionError:
        # the search recurses once per step, so a long walk can pass the
        # interpreter's limit: a refusal by fact, not a cap
        raise ResourceCapError("Python recursion limit", sys.getrecursionlimit(),
                               f"in the search {s}->{t} with {budget} repeats on {n} vertices") from None
    return tuple(reversed(walk)) if found else None


# ---------------------------------------------------------------------------
# grid and cube spanning paths


def grid_spanning_path(
    m1: int, m2: int, s: Tuple[int, int], t: Tuple[int, int]
) -> Tuple[Tuple[int, int], ...]:
    """Spanning walk of Cube(m1, m2) from s to t of at most m1*m2 + 2 vertex
    slots; Hamiltonian whenever one exists.

    Coordinates are 1-based.  Small grids get an exhaustive repeat-minimal
    search.  Large grids first try a Hamiltonian path, then a Hamiltonian
    path into a neighbor of the endpoint (in both orientations), then a
    distance-2 tail; the grid Hamiltonian-path characterization guarantees a
    hit within the +2 bound.
    """
    if m1 < 2 or m2 < 2:
        raise ValueError("grid dimensions must be at least 2")
    bits = _grid_bits(m1, m2)
    g = bits.g
    si, ti = _grid_index(m1, m2, s), _grid_index(m1, m2, t)
    if g.n <= 20:
        walk = _fewest_repeats(bits, si, ti, max_repeats=2)
    else:
        walk = _large_grid_walk(bits, si, ti)
    if walk is None:
        raise AssertionError("no spanning walk within two repeats; bound violated")
    return tuple(g.labels[v] for v in walk)


def _large_grid_walk(bits: _GraphBits, s: int, t: int) -> Optional[Tuple[int, ...]]:
    g = bits.g
    ham = _spanning_walk_exact_repeats(bits, s, t, 0)
    if ham is not None:
        return ham
    for a, b, flip in ((s, t, False), (t, s, True)):
        for b2 in g.adj[b]:
            if b2 == a:
                continue
            ham = _spanning_walk_exact_repeats(bits, a, b2, 0)
            if ham is not None:
                walk = ham + (b,)
                return tuple(reversed(walk)) if flip else walk
    dist_t = g.distances_from(t)
    dist_s = g.distances_from(s)
    for a, b, dist_b, flip in ((s, t, dist_t, False), (t, s, dist_s, True)):
        for u in sorted(v for v in range(g.n) if dist_b[v] == 2):
            ham = _spanning_walk_exact_repeats(bits, a, u, 0)
            if ham is not None:
                mid = min(w for w in g.adj[u] if dist_b[w] == 1)
                walk = ham + (mid, b)
                return tuple(reversed(walk)) if flip else walk
    # both-ends repeat: s and t re-entered from adjacent Hamiltonian endpoints
    for u1 in g.adj[s]:
        for u2 in g.adj[t]:
            if u1 == u2:
                continue
            ham = _spanning_walk_exact_repeats(bits, u1, u2, 0)
            if ham is not None:
                return (s,) + ham + (t,)
    return None


@functools.lru_cache(maxsize=None)
def _grid_bits(m1: int, m2: int) -> _GraphBits:
    """The spanning-search context of Cube(m1, m2) and the graph itself
    (FiniteGraph is immutable), built once per shape.  Only grids get one:
    a cache keyed by arbitrary graphs would grow without bound, so other
    callers build theirs per call."""
    return _graph_bits(cube_graph([m1, m2]))


def _grid_index(m1: int, m2: int, p: Tuple[int, int]) -> int:
    i, j = p
    if not (1 <= i <= m1 and 1 <= j <= m2):
        raise ValueError(f"vertex {p} outside Cube({m1},{m2})")
    return (i - 1) * m2 + (j - 1)


@functools.lru_cache(maxsize=None)
def _snake_fold(m1: int, m2: int) -> Tuple[List[Tuple[int, int]], Dict[Tuple[int, int], int]]:
    """Boustrophedon Hamiltonian path of Cube(m1, m2) starting at (1, 1), and
    the 1-based place of each vertex on it; built once per shape."""
    out = []
    for j in range(1, m2 + 1):
        row = range(1, m1 + 1) if j % 2 == 1 else range(m1, 0, -1)
        for i in row:
            out.append((i, j))
    return out, {p: idx + 1 for idx, p in enumerate(out)}


def cube_spanning_path(
    dims: Sequence[int], s: Tuple[int, ...], t: Tuple[int, ...]
) -> Tuple[Tuple[int, ...], ...]:
    """Spanning walk of Cube(dims) from s to t within |V| + 2 vertex slots.

    Trailing dimension pairs are folded along snake Hamiltonian paths onto one
    interval until a 2-dimensional grid remains; the grid walk is then lifted
    back through the folds.  Dimensions equal to 1 are dropped; a single
    surviving interval is rejected (the line (Z, {+-1}) is excluded).
    """
    dims = list(dims)
    if any(m < 1 for m in dims):
        raise ValueError("dims must be positive")
    if len(s) != len(dims) or len(t) != len(dims):
        raise ValueError("endpoint arity mismatch")
    for p in (s, t):
        if any(not 1 <= c <= m for c, m in zip(p, dims)):
            raise ValueError(f"vertex {p} outside Cube{tuple(dims)}")

    keep = [i for i, m in enumerate(dims) if m > 1]
    if len(keep) < 2:
        raise ValueError(
            "degenerate cube (a path graph); the line (Z,{+-1}) case is excluded"
        )
    small = [dims[i] for i in keep]
    s_small = tuple(s[i] for i in keep)
    t_small = tuple(t[i] for i in keep)

    walk_small = _cube_walk(small, s_small, t_small)
    if len(keep) == len(dims):
        return walk_small

    def lift(p: Tuple[int, ...]) -> Tuple[int, ...]:
        full = [1] * len(dims)
        for c, i in zip(p, keep):
            full[i] = c
        return tuple(full)

    return tuple(lift(p) for p in walk_small)


def _cube_walk(dims: List[int], s: Tuple[int, ...], t: Tuple[int, ...]):
    if len(dims) == 2:
        return grid_spanning_path(dims[0], dims[1], s, t)
    m1, m2 = dims[-2], dims[-1]
    snake, pos = _snake_fold(m1, m2)
    folded_dims = dims[:-2] + [m1 * m2]
    fold = lambda p: p[:-2] + (pos[p[-2:]],)
    walk = _cube_walk(folded_dims, fold(s), fold(t))
    return tuple(p[:-1] + snake[p[-1] - 1] for p in walk)


# ---------------------------------------------------------------------------
# cube of a graph: constructive Hamiltonian connectivity


def cube3_hamiltonian_path(g: FiniteGraph, u: int, v: int) -> Tuple[int, ...]:
    """Hamiltonian u-v path in the cube g^3, built along a spanning tree.

    Each recursion splits the tree at the first edge of the u-v path and
    joins the two sub-paths with a hop of tree distance at most 3.
    """
    if u == v:
        raise ValueError("cube3_hamiltonian_path needs distinct endpoints")
    if not g.is_connected():
        raise ValueError("graph must be connected")
    tree = _bfs_tree(g, min(u, v))
    path = _ham3(tree, frozenset(range(g.n)), u, v)
    if sorted(path) != list(range(g.n)):
        raise VerificationError("cube3 path is not a permutation of the vertices")
    return tuple(path)


def _bfs_tree(g: FiniteGraph, root: int) -> List[List[int]]:
    seen = [False] * g.n
    seen[root] = True
    tree: List[List[int]] = [[] for _ in range(g.n)]
    frontier = [root]
    while frontier:
        nxt = []
        for x in frontier:
            for y in g.adj[x]:
                if not seen[y]:
                    seen[y] = True
                    tree[x].append(y)
                    tree[y].append(x)
                    nxt.append(y)
        frontier = nxt
    return tree


def _tree_path(tree: List[List[int]], comp: FrozenSet[int], a: int, b: int) -> List[int]:
    prev = {a: a}
    frontier = [a]
    while frontier:
        nxt = []
        for x in frontier:
            for y in tree[x]:
                if y in comp and y not in prev:
                    prev[y] = x
                    nxt.append(y)
        if b in prev:
            break
        frontier = nxt
    path = [b]
    while path[-1] != a:
        path.append(prev[path[-1]])
    return path[::-1]


def _component(tree, comp: FrozenSet[int], seed: int, banned_edge) -> FrozenSet[int]:
    x0, y0 = banned_edge
    out = {seed}
    stack = [seed]
    while stack:
        x = stack.pop()
        for y in tree[x]:
            if y in comp and y not in out and {x, y} != {x0, y0}:
                out.add(y)
                stack.append(y)
    return frozenset(out)


def _ham3(tree, comp: FrozenSet[int], u: int, v: int) -> List[int]:
    if len(comp) == 1:
        return [u]
    if len(comp) == 2:
        return [u, v]
    path = _tree_path(tree, comp, u, v)
    x, y = path[0], path[1]
    A = _component(tree, comp, x, (x, y))
    B = _component(tree, comp, y, (x, y))
    if len(A) == 1:
        pa = [u]
    else:
        a_star = min(w for w in tree[u] if w in A)
        pa = _ham3(tree, A, u, a_star)
    if len(B) == 1:
        pb = [v]
    else:
        b_star = y if y != v else min(w for w in tree[v] if w in B)
        pb = _ham3(tree, B, b_star, v)
    return pa + pb


# ---------------------------------------------------------------------------
# Nash-Williams generator basis for infinite abelian groups


@dataclass(frozen=True)
class NashWilliamsBasis:
    """Relabeling of the generators: g = sum p_i a_i + sum q_j b_j uniquely,
    with 0 <= q_j < m_j.  `degenerate` marks the (Z, {+-1})-like line case."""

    a: Tuple[Tuple[int, ...], ...]
    b: Tuple[Tuple[int, ...], ...]
    m: Tuple[int, ...]
    degenerate: bool


def nash_williams_basis(model: AbelianModel) -> NashWilliamsBasis:
    """Relabel the generators so group elements decompose uniquely into free
    and bounded coordinates; each labeling is checked exactly (see _try_basis).

    Non-degenerate labelings (usable as grid embeddings) are preferred; only
    the cyclically generated line admits none."""
    if model.rank < 1:
        raise ValueError("Nash-Williams basis needs an infinite abelian group")
    reps = _generator_classes(model)
    first = None
    for a_combo in itertools.combinations(reps, model.rank):
        cand = _try_basis(model, list(a_combo), [g for g in reps if g not in a_combo])
        if cand is not None and not cand.degenerate:
            return cand
        first = first or cand
    if first is None:
        bound = _M_FACTOR * math.prod(model.moduli)
        raise VerificationError(f"no Nash-Williams labeling has every m_j <= {bound}")
    return first


def _generator_classes(model: AbelianModel) -> List[Tuple[int, ...]]:
    reps = []
    for g in model.gens:
        rep = max(g, model.inv_payload(g))
        if rep not in reps:
            reps.append(rep)

    def key(v):
        lead = next((i for i, c in enumerate(v) if c != 0), len(v))
        return (lead, tuple(abs(c) for c in v), v)

    return sorted(reps, key=key)


# A split is used only when every m_j is at most this many times the order of
# the torsion: the abelian-box witness runs over m_j points along b_j.
_M_FACTOR = 64


def _levels(rank: int, moduli: Tuple[int, ...], a_list, b_list) -> List[List[List[int]]]:
    """Hermite bases of L_0 <= ... <= L_k: L_0 spans the a's and the relation
    rows, L_j = L_{j-1} + Z b_j (so L_k is all of Z^dim)."""
    dim = rank + len(moduli)
    span = _with_relations(rank, moduli, a_list)
    levels = [_hermite_basis(span, dim)]
    for b in b_list:
        span.append(list(b))
        levels.append(_hermite_basis(span, dim))
    return levels


def _index(lattice: List[List[int]]) -> int:
    """[Z^dim : L] for a full-rank echelon basis: the product of its pivots."""
    return math.prod(row[i] for i, row in enumerate(lattice))


def _try_basis(model: AbelianModel, a_list, b_list) -> Optional[NashWilliamsBasis]:
    """The labeling with free generators a_list and bounded ones b_list, or
    None when elements do not decompose uniquely: exactly when L_0 is not of
    full rank (Nash-Williams 1959).  With full rank, L_j / L_{j-1} is cyclic
    of order m_j, the order of b_j modulo L_{j-1}, so m_j is the ratio of
    the indices of the two levels.  Two representations agree in every q by
    the minimality of m_j, so they differ by a combination of the a's in the
    relation lattice, which full rank rules out.  Also None when some m_j is
    over _M_FACTOR times the torsion order."""
    levels = _levels(model.rank, model.moduli, a_list, b_list)
    if len(levels[0]) < model.dim:
        return None
    indices = [_index(lat) for lat in levels]
    ms = tuple(lo // hi for lo, hi in zip(indices, indices[1:]))
    if any(m > _M_FACTOR * math.prod(model.moduli) for m in ms):
        return None
    degenerate = model.rank == 1 and all(m == 1 for m in ms)
    return NashWilliamsBasis(tuple(a_list), tuple(b_list), ms, degenerate)


@functools.lru_cache(maxsize=16)
def _nw_tables(rank: int, moduli: Tuple[int, ...], basis: NashWilliamsBasis):
    """What nw_decompose needs of a basis: the levels L_0 .. L_{k-1} and the
    Hermite basis of the rows (a_i, e_i) and (relation row, 0)."""
    rows = [list(a) + [int(i == k) for k in range(rank)] for i, a in enumerate(basis.a)]
    rows += [row + [0] * rank for row in _with_relations(rank, moduli, [])]
    levels = _levels(rank, moduli, basis.a, basis.b)[:-1]
    return levels, _hermite_basis(rows, rank + len(moduli) + rank)


def nw_decompose(model: AbelianModel, basis: NashWilliamsBasis, g: Payload) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Coordinates (p, q) of g in the basis, exactly: q_j from the last level
    down (the one q in [0, m_j) that puts g - q_j b_j into L_{j-1}), then p by
    integer elimination: with the rows (a_i, e_i) and (relation row, 0), what
    is left of g reduces from (g', 0) to (0, -p)."""
    dim, r = model.dim, model.rank
    v = list(model.normalize_payload(g))
    levels, elimination = _nw_tables(r, model.moduli, basis)
    qs = []
    for lat, b, m in zip(reversed(levels), reversed(basis.b), reversed(basis.m)):
        for q in range(m):
            w = [x - q * c for x, c in zip(v, b)]
            if _in_lattice(lat, w, dim):
                break
        else:
            raise VerificationError(f"{model.payload_str(g)} has no decomposition; invalid basis")
        v = w
        qs.append(q)
    rest = _lattice_residue(elimination, v + [0] * r, dim + r)
    if any(rest[:dim]):
        raise VerificationError(f"{model.payload_str(g)} has no free coordinates; invalid basis")
    return tuple(-x for x in rest[dim:]), tuple(reversed(qs))


# ---------------------------------------------------------------------------
# quasi-Hamiltonian certificates and refutations


@dataclass(frozen=True)
class QhWitness:
    n: int
    set_size: int
    elements: Tuple[str, ...]
    walks: Dict[str, Tuple[str, ...]] = field(repr=False)
    max_excess: int = 0


@dataclass(frozen=True)
class QhCertificate:
    strategy: str
    M: int
    witnesses: Tuple[QhWitness, ...]
    group_spec: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return _qh_json("qh_certificate", self, M=self.M, witnesses=[asdict(w) for w in self.witnesses])


@dataclass(frozen=True)
class QhRefutation:
    """Excess table: spanning-walk edge lengths minus |F| on balls, growing."""

    strategy: str
    rows: Tuple[Tuple[int, int, int, int, int, int], ...]
    group_spec: dict = field(default_factory=dict)
    # rows: (n, |F|, ts_closed_edges, excess_closed, ts_min_edges, excess_min)

    def to_json(self) -> str:
        columns = ["n", "F_size", "ts_closed", "excess_closed", "ts_min", "excess_min"]
        return _qh_json("qh_refutation", self, columns=columns, rows=self.rows)


def _qh_json(kind: str, result, **fields) -> str:
    """The JSON text of a certificate or refutation: its kind, group spec,
    strategy and the given fields, indented by 1 with sorted keys (so the
    tuples of a field print as lists and its dicts in key order)."""
    record = {"kind": kind, "group": result.group_spec, "strategy": result.strategy, **fields}
    return json.dumps(record, indent=1, sort_keys=True)


def qh_certificate(model: GroupModel, n_max: int, M: int = 2, strategy: str = "auto"):
    """Quasi-Hamiltonian certificate (witness sets + spanning walks with
    vertex-length at most |F| + M), or a refutation-at-scale excess table.

    Strategies: abelian-box (Nash-Williams box images + folded grid walks),
    ball-exact (exact TSP on each ball), cube (S u S^2 u S^3 Hamiltonian
    connectivity of cubed balls), refute (tree closed form on balls).
    """
    if strategy == "auto":
        # refute takes only the tree bases; any other degenerate basis, and
        # a finite abelian group (rank 0, no basis), goes to cube
        if _as_free_tree(model) is not None:
            strategy = "refute"
        elif isinstance(model, AbelianModel) and model.rank and not nash_williams_basis(model).degenerate:
            strategy = "abelian-box"
        else:
            strategy = "cube"
    if strategy == "abelian-box":
        return _qh_abelian_box(model, n_max, M)
    if strategy == "ball-exact":
        return _qh_ball_exact(model, n_max, M)
    if strategy == "cube":
        return _qh_cube(model, n_max, M)
    if strategy == "refute":
        return _qh_refute(model, n_max)
    raise ValueError(f"unsupported qh strategy {strategy!r}")


def _qh_abelian_box(model: AbelianModel, n_max: int, M: int) -> QhCertificate:
    if not isinstance(model, AbelianModel) or model.rank < 1:
        raise ValueError("abelian-box strategy needs an infinite abelian model")
    basis = nash_williams_basis(model)
    if basis.degenerate:
        raise ValueError("the line (Z,{+-1}) has no quasi-Hamiltonian sequence")
    witnesses = []
    for n in range(1, n_max + 1):
        ball = cayley_ball(model, n)
        coords = {p: nw_decompose(model, basis, p) for p in ball.elements}
        N = max(
            (abs(c) for (ps, _qs) in coords.values() for c in ps), default=0
        )
        dims = [2 * N + 1] * model.rank + [m for m in basis.m]
        origin = tuple([N + 1] * model.rank + [1] * len(basis.m))

        def to_payload(coord) -> Payload:
            g = model.identity_payload()
            for c, a in zip(coord[: model.rank], basis.a):
                g = model.mul_payload(g, tuple((c - N - 1) * k for k in a))
            for c, b in zip(coord[model.rank:], basis.b):
                g = model.mul_payload(g, tuple((c - 1) * k for k in b))
            return g

        box_coords = list(itertools.product(*[range(1, m + 1) for m in dims]))
        f_elements = [to_payload(c) for c in box_coords]
        f_set = set(f_elements)
        if not set(ball.elements) <= f_set:
            raise VerificationError("ball not contained in witness box")

        def walks():
            for coord in box_coords:
                payloads = [to_payload(c) for c in cube_spanning_path(dims, origin, coord)]
                _check_group_walk(model, payloads, f_set)
                yield model.payload_str(to_payload(coord)), list(map(model.payload_str, payloads))

        elements = sorted(model.payload_str(p) for p in f_elements)
        witnesses.append(_witness(n, M, elements, walks()))
    return QhCertificate("abelian-box", M, tuple(witnesses), group_spec_of(model))


def _witness(
    n: int, M: int, elements: Sequence[str], walks: Iterable[Tuple[str, Sequence[str]]]
) -> QhWitness:
    """The witness of radius n on the set F of `elements`, from the pairs
    (endpoint, walk from the identity to it) of walks, all as names.
    Raises ValueError when a walk has more than |F| + M vertices."""
    named: Dict[str, Tuple[str, ...]] = {}
    max_excess = 0
    for endpoint, walk in walks:
        excess = len(walk) - len(elements)
        if excess > M:
            raise ValueError(f"M = {M} is too small: at n = {n} the walk to endpoint {endpoint}"
                             f" needs |F| + {excess} vertices")
        max_excess = max(max_excess, excess)
        named[endpoint] = tuple(walk)
    return QhWitness(n, len(elements), tuple(elements), named, max_excess)


def _check_group_walk(
    model: GroupModel, payloads: Sequence[Payload], cover: Set[Payload], max_step: int = 1
) -> None:
    """Raise VerificationError unless payloads is a walk from the identity
    through every point of cover whose steps are words of 1..max_step
    generators (1: single generators)."""
    e = model.identity_payload()
    if not payloads or payloads[0] != e:
        raise VerificationError("walk does not start at the identity")
    steps = {e}
    for _ in range(max_step):
        steps |= {model.mul_payload(a, s) for a in steps for s in model.gens}
    steps.discard(e)
    for a, b in zip(payloads, payloads[1:]):
        if model.mul_payload(model.inv_payload(a), b) not in steps:
            raise VerificationError(f"walk step is not a word of 1..{max_step} generators")
    if not cover <= set(payloads):
        raise VerificationError("walk does not cover its required points")


def _qh_ball_exact(model: GroupModel, n_max: int, M: int) -> QhCertificate:
    # every vertex of a ball is required and the balls are nested, so the
    # largest one is checked before any TSP is solved
    largest = cayley_ball(model, n_max).graph.n
    if largest > CAPS["MAX_REQUIRED"]:
        raise ResourceCapError("MAX_REQUIRED", CAPS["MAX_REQUIRED"],
                               f"by the {largest} vertices of the ball of radius n = {n_max}")
    witnesses = []
    for n in range(1, n_max + 1):
        g = cayley_ball(model, n).graph
        names, everything = g.labels, frozenset(range(g.n))
        walks = (tsp.solve_exact(tsp.TspInstance(g, 0, x, everything)).walk for x in range(g.n))
        named = ((names[x], [names[v] for v in w]) for x, w in enumerate(walks))
        witnesses.append(_witness(n, M, names, named))
    return QhCertificate("ball-exact", M, tuple(witnesses), group_spec_of(model))


def _qh_cube(model: GroupModel, n_max: int, M: int) -> QhCertificate:
    """Certificate for the enlarged generating set S u S^2 u S^3: the cubed
    ball is Hamiltonian-connected, so every endpoint needs at most one repeat."""
    witnesses = []
    for n in range(1, n_max + 1):
        g = cayley_ball(model, 3 * n).graph
        names = g.labels
        # the closed walk steps from 0 to vertex 1, the first neighbour of the
        # identity in BFS order, then takes a Hamiltonian path back to 0; in
        # a ball of one element it is (0,)
        closed = (0,) + cube3_hamiltonian_path(g, g.adj[0][0], 0) if g.n > 1 else (0,)
        walks = (cube3_hamiltonian_path(g, 0, x) if x else closed for x in range(g.n))
        named = ((names[x], [names[v] for v in w]) for x, w in enumerate(walks))
        witnesses.append(_witness(n, M, names, named))
    return QhCertificate("cube", M, tuple(witnesses), group_spec_of(model))


def _qh_refute(model: GroupModel, n_max: int) -> QhRefutation:
    """Tree bases: exact ball excesses grow, refuting the property at scale."""
    free = _as_free_tree(model)
    if free is None:
        raise ValueError("refute strategy applies to free groups and (Z,{+-1})")
    rows = []
    for n in range(1, n_max + 1):
        ball = cayley_ball(free, n)
        elems = list(ball.elements)
        size = len(elems)
        ts_closed = tsp.ts_tree((), (), elems, free)
        ts_min = min(ts_closed - free.length_payload(x) for x in elems)
        rows.append(
            (n, size, ts_closed, ts_closed - size, ts_min, ts_min - size)
        )
    return QhRefutation("refute", tuple(rows), group_spec_of(model))


def verify_qh_certificate(model: GroupModel, cert: QhCertificate) -> None:
    """Replay every walk in the certificate and re-check the defining bound.

    Steps must be single generators, except under the cube strategy where a
    step may be any word of length at most 3 (the enlarged set S u S^2 u S^3).
    """
    max_step = 3 if cert.strategy == "cube" else 1

    def check(ok: bool, what: str) -> None:
        if not ok:
            raise VerificationError(f"qh certificate: {what}")

    for wit in cert.witnesses:
        elems = {model.parse_payload(s) for s in wit.elements}
        check(model.identity_payload() in elems, "witness set misses the identity")
        check(len(elems) == wit.set_size, "witness set size mismatch")
        ball = cayley_ball(model, wit.n)
        check(set(ball.elements) <= elems, "witness set misses the ball")
        ends = {model.parse_payload(endpoint) for endpoint in wit.walks}
        check(ends == elems, "walk endpoints are not the witness set")
        for endpoint, walk in wit.walks.items():
            payloads = [model.parse_payload(s) for s in walk]
            try:
                _check_group_walk(model, payloads, elems, max_step)
            except VerificationError as exc:
                raise VerificationError(f"qh certificate: {exc}") from None
            check(payloads[-1] == model.parse_payload(endpoint), "walk ends off its endpoint")
            check(len(payloads) <= wit.set_size + cert.M, "bound violated")


def _as_free_tree(model: GroupModel) -> Optional[FreeModel]:
    if isinstance(model, FreeModel):
        return model
    if isinstance(model, AbelianModel) and model.rank == 1 and not model.moduli:
        if set(model.gens) == {(1,), (-1,)}:
            return FreeModel(1)
    return None
