"""Exact solvers for TS(u -> v; F): minimal-length walks visiting a required
vertex set.

Lengths here count EDGES traversed (generator multiplications); the lamp
cost of a wreath element lies outside the TS term, and wreath adds it.  Walks
may revisit vertices freely, so the solver works in the shortest-path metric
closure of the required set (Steiner-TSP formulation, Held-Karp over subsets
of the required vertices).

Every exact TS value except the tree closed form comes from one pure-Python
Held-Karp kernel, reached through one setup that enforces MAX_REQUIRED and
refuses a disconnected graph: solve_exact, solve_all_ends and the finite
factor TSPs of the free-product recursion all go through it.  That setup,
_held_karp_closure, yields both a row of values to every end (_closure_row)
and an optimal walk to any one end (_closure_walk), so the petal walk takes
the value and the walk of each factor station mask from one closure.  The
kernel slices the subset DP by walk length: for each station, one int of
2**k bits holds the subsets of the k stations whose shortest walk from start
ending there is at most the current length L, and the next length's subsets
come from big-int OR, AND and shift, as in hamiltonian._ends_dp.  The subsets
reached at each length are written into bit planes, plane b holding those
whose length has bit b set, so a lookup reads one bit per plane.  When the
stations lie far apart, the pending lengths and the planes would hold more
bytes than the packed table, and the kernel keeps that table instead: one
int per subset with one field of w bits per station, the minimum over the
members of a subset taken fieldwise (SWAR).  w leaves one guard bit above
the largest value a field can hold, so no subtraction borrows across
fields.  Both kernels hold exactly the values of the plain table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Collection, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .errors import ResourceCapError, VerificationError
from .graphs import FiniteGraph, _not_masks, finite_cayley_graph
from .groups import FreeModel, FreeProductModel, Payload, PositionTable
from .limits import CAPS


@dataclass(frozen=True)
class TspInstance:
    graph: FiniteGraph
    start: int
    end: int
    required: FrozenSet[int]

    def __post_init__(self):
        object.__setattr__(self, "required", frozenset(self.required))
        n = self.graph.n
        if not (0 <= self.start < n and 0 <= self.end < n):
            raise ValueError("start/end out of range")
        if any(not 0 <= r < n for r in self.required):
            raise ValueError("required vertex out of range")


@dataclass(frozen=True)
class TspSolution:
    length: int
    walk: Tuple[int, ...]


def validate_solution(inst: TspInstance, sol: TspSolution) -> None:
    walk = sol.walk
    if walk[0] != inst.start or walk[-1] != inst.end:
        raise VerificationError(f"walk runs {walk[0]} -> {walk[-1]}, not {inst.start} -> {inst.end}")
    for u, v in zip(walk, walk[1:]):
        if v not in inst.graph.adj[u]:
            raise VerificationError(f"non-edge {u}-{v} in walk")
    if not inst.required <= set(walk):
        raise VerificationError("walk misses required vertices")
    if sol.length != len(walk) - 1:
        raise VerificationError(f"walk has {len(walk) - 1} edges but length {sol.length}")


# ---------------------------------------------------------------------------
# exact Steiner-TSP solver


def solve_exact(inst: TspInstance) -> TspSolution:
    """Globally minimal walk; deterministic tie-breaks favor small vertices."""
    closure = _held_karp_closure(inst.graph, inst.start, inst.required)
    sol = TspSolution(*_closure_walk(inst.graph, inst.start, inst.end, closure))
    validate_solution(inst, sol)
    return sol


def solve_all_ends(graph: FiniteGraph, start: int, required: Set[int]) -> List[int]:
    """TS(start -> v; required) for every vertex v, in one DP sweep."""
    return _closure_row(graph.n, start, _held_karp_closure(graph, start, required))


def _closure_row(n: int, start: int, closure) -> List[int]:
    """The edges of a shortest walk from start through the stations of a
    _held_karp_closure to each of the n vertices."""
    others, dist, dp = closure
    if not others:
        return list(dist[start])
    full = (1 << len(others)) - 1
    last = [(dp(full, i), dist[r]) for i, r in enumerate(others)]
    return [min(d + to[v] for d, to in last) for v in range(n)]


def _closure_walk(graph: FiniteGraph, start: int, end: int, closure) -> Tuple[int, Tuple[int, ...]]:
    """(edges, walk): one shortest walk start -> end through the stations of
    a _held_karp_closure, its value read from the table.  Ties go to the
    smallest station, then to the lexicographically smallest leg."""
    others, dist, dp = closure
    if not others:
        walk = _lex_shortest_path(graph, start, end, dist.get(end))
        return len(walk) - 1, tuple(walk)
    # others is sorted, so the smallest index breaks ties by smallest vertex
    full = (1 << len(others)) - 1
    total, last = min((dp(full, i) + dist[r][end], i) for i, r in enumerate(others))
    order = _reconstruct_order(dp, dist, start, others, last)
    stations = [start] + [others[i] for i in order] + [end]
    walk: List[int] = [start]
    for a, b in zip(stations, stations[1:]):
        walk.extend(_lex_shortest_path(graph, a, b, dist.get(b))[1:])
    return total, tuple(walk)


def _held_karp_closure(graph: FiniteGraph, start: int, required):
    """(others, dist, dp): the required vertices other than start (sorted),
    BFS distances from each of them and from start, and the Held-Karp lookup
    over the metric closure of others (None when others is empty).

    Raises ValueError when the graph is disconnected, which the BFS from
    start shows as a negative distance.
    """
    reqs, cap = sorted(required), CAPS["MAX_REQUIRED"]
    if len(reqs) > cap:
        raise ResourceCapError("MAX_REQUIRED", cap,
                               f"by a required set of size {len(reqs)}; no Held-Karp table was built")
    others = [r for r in reqs if r != start]
    dist = {v: graph.distances_from(v) for v in set(others) | {start}}
    if min(dist[start]) < 0:
        raise ValueError("Held-Karp requires a connected graph")
    if not others:
        return others, dist, None
    D_start = [dist[start][r] for r in others]
    D = [[dist[a][b] for b in others] for a in others]
    return others, dist, _held_karp(len(others), D_start, D)


def _held_karp(
    k: int, D_start: Sequence[int], D: Sequence[Sequence[int]]
) -> Callable[[int, int], int]:
    """The lookup dp(mask, i): the shortest walk from start through the
    stations of mask that ends at station i, for i in mask.

    Both kernels give the same values; the level-sliced one runs unless its
    ints would hold more bytes than the packed table (see _levels_fit).
    """
    kernel = _held_karp_levels if _levels_fit(k, D_start, D) else _held_karp_packed
    return kernel(k, D_start, D)


def _int_bytes(bits: int) -> int:
    """Bytes of a CPython int of `bits` bits: a 24-byte header and one 4-byte
    digit per 30 bits, rounded up to the 16-byte allocation unit."""
    return -(-(24 + 4 * -(-bits // 30)) // 16) * 16


def _levels_fit(k: int, D_start: Sequence[int], D: Sequence[Sequence[int]]) -> bool:
    """Whether the level kernel's ints of 2**k bits (pending levels, planes,
    reach and NOT) take no more bytes than the packed table's 2**k - 1 ints
    of k fields plus their list slots.  Station j has at most max(D[j])
    pending levels, and no dp value exceeds _dp_bound."""
    planes = _dp_bound(D_start, D).bit_length()
    levels = (sum(map(max, D)) + (planes + 2) * k) * _int_bytes(1 << k)
    w = (max(D_start) + k * max(map(max, D))).bit_length() + 1
    packed = ((1 << k) - 1) * (8 + _int_bytes(k * w))
    return levels <= packed


def _dp_bound(D_start: Sequence[int], D: Sequence[Sequence[int]]) -> int:
    """The nearest-station walk from start plus one longest leg.  Moving
    station j of that walk to its end adds at most one leg, and in the metric
    closure dp(mask, j) <= dp(full, j), so no dp value exceeds the sum."""
    row, todo, total = D_start, set(range(len(D))), 0
    while todo:
        j = min(todo, key=row.__getitem__)
        todo.remove(j)
        total, row = total + row[j], D[j]
    return total + max(map(max, D))


def _held_karp_levels(
    k: int, D_start: Sequence[int], D: Sequence[Sequence[int]]
) -> Callable[[int, int], int]:
    """Held-Karp sliced by walk length, the weighted form of
    hamiltonian._ends_dp.

    reach[j] is one int of 2**k bits, bit m set iff dp(m, j) <= L at the
    current level L.  new_L[j], the masks m with dp(m, j) == L, is

        ([D_start[j] == L] << 2**j
         | ((OR over i != j of new_{L - D[i][j]}[i]) & NOT[j]) << 2**j)
        minus reach[j],

    so each new_L[i] is ORed once into pending[L + D[i][j]][j] for every
    other station j, in a ring of max(D) + 1 levels.  Plane b of station j
    holds the masks whose dp has bit b set, so dp(mask, i) reads one bit per
    plane.  The levels stop once every reach[j] holds its top bit, the full
    mask: every dp is known then, as dp(mask, j) <= dp(full, j) in the
    metric closure.
    """
    full = (1 << k) - 1
    nots = _not_masks(k)
    pushes = [[(t, d) for t, d in enumerate(row) if t != j] for j, row in enumerate(D)]
    ring = [[0] * k for _ in range(max(map(max, D)) + 1)]
    reach = [0] * k
    planes: List[List[int]] = [[] for _ in range(k)]
    left, level = k, 0
    while left:
        level += 1
        if not level & (level - 1):
            for pl in planes:
                pl.append(0)
        bits = [b for b in range(level.bit_length()) if level >> b & 1]
        pending = ring[level % len(ring)]
        for j in range(k):
            x = pending[j]
            if x:
                pending[j] = 0
                x = (x & nots[j]) << (1 << j)
            if D_start[j] == level:
                x |= 1 << (1 << j)
            if not x:
                continue
            old = reach[j]
            grown = old | x
            if grown == old:
                continue
            reach[j] = grown
            new = grown ^ old
            if new.bit_length() > full:
                left -= 1
            pl = planes[j]
            for b in bits:
                pl[b] |= new
            for t, d in pushes[j]:
                slot = ring[(level + d) % len(ring)]
                slot[t] = slot[t] | new if slot[t] else new

    def dp(mask: int, i: int) -> int:
        return sum(1 << b for b, p in enumerate(planes[i]) if p >> mask & 1)

    return dp


def _held_karp_packed(
    k: int, D_start: Sequence[int], D: Sequence[Sequence[int]]
) -> Callable[[int, int], int]:
    """Held-Karp over a packed table, one int per subset of stations.

    ext[mask] is one int of k fields of w bits, and field j holds min over i
    in mask of dp(mask, i) + D[i][j], so dp(mask, i) is field i of
    ext[mask ^ bit i] (ext[0] holds D_start).  Each ext[mask] is the
    fieldwise minimum over i in mask of dp(mask, i) broadcast to every field
    plus the packed row D[i].  A field never exceeds
    top = max(D_start) + k * max(D) < 2^(w - 1), so the top bit of each field
    is a guard: the subtraction best + guard - v borrows no bit across fields,
    and its guard bits mark the fields where v is not larger than best.
    """
    top = max(D_start) + k * max(map(max, D))
    w = top.bit_length() + 1
    w1 = w - 1
    field = (1 << w) - 1

    def pack(row: Sequence[int]) -> int:
        return sum(d << w * j for j, d in enumerate(row))

    ones = pack([1] * k)
    guard = ones << w1
    # every field at 2^(w - 1) - 1, no smaller than any value a field holds
    ceiling = guard - ones

    full = (1 << k) - 1
    ext = [0] * full
    ext[0] = pack(D_start)
    steps = [(1 << i, w * i, pack(row)) for i, row in enumerate(D)]
    for mask in range(1, full):
        best = ceiling
        for bit, shift, row in steps:
            if mask & bit:
                v = (ext[mask ^ bit] >> shift & field) * ones + row
                g = (best + guard - v) & guard
                best ^= (best ^ v) & (g - (g >> w1))
        ext[mask] = best

    def dp(mask: int, i: int) -> int:
        return ext[mask ^ 1 << i] >> w * i & field

    return dp


def _reconstruct_order(dp, dist, start, others, last) -> List[int]:
    """Backwards predecessor walk; ties resolved by smallest station vertex."""
    k = len(others)
    order = [last]
    mask, i = (1 << k) - 1, last
    while mask != (1 << i):
        pm = mask ^ (1 << i)
        want, v = dp(mask, i), others[i]
        # others is sorted, so the first match is the smallest station
        j = next(
            (j for j in range(k) if pm >> j & 1 and dp(pm, j) + dist[others[j]][v] == want),
            None,
        )
        if j is None:
            raise VerificationError(f"Held-Karp table has no predecessor for station {others[i]}")
        mask, i = pm, j
        order.append(i)
    if dp(mask, i) != dist[start][others[i]]:
        raise VerificationError(f"Held-Karp table does not start at {start}")
    order.reverse()
    return order


def _lex_shortest_path(g: FiniteGraph, a: int, b: int, dist_b: Optional[List[int]]) -> List[int]:
    """Lexicographically smallest shortest path from a to b."""
    if dist_b is None:
        dist_b = g.distances_from(b)
    path = [a]
    cur = a
    while cur != b:
        cur = min(v for v in g.adj[cur] if dist_b[v] == dist_b[cur] - 1)
        path.append(cur)
    return path


# ---------------------------------------------------------------------------
# trees: the closed-form TS value


def _tree_edge_set(words: Sequence[Tuple[int, ...]]) -> Set[Tuple[int, ...]]:
    """Edges of the union of geodesics e -> w, named by their child prefix."""
    edges: Set[Tuple[int, ...]] = set()
    for w in words:
        for i in range(len(w)):
            edges.add(w[: i + 1])
    return edges


def ts_tree(u: Payload, v: Payload, H: Sequence[Payload], model: FreeModel) -> int:
    """TS(u -> v; H) in a free group with free generators:
    twice the geodesic-hull edges off the u-v path, plus the path."""
    if not isinstance(model, FreeModel):
        raise ValueError("ts_tree needs a free group model")
    inv_u = model.inv_payload(model.normalize_payload(u))
    rel_v = model.mul_payload(inv_u, model.normalize_payload(v))
    rel_H = [model.mul_payload(inv_u, model.normalize_payload(h)) for h in H]
    hull = _tree_edge_set(rel_H)
    path = _tree_edge_set([rel_v])
    return 2 * len(hull - path) + len(path)


def ts_tree_walk(u: Payload, v: Payload, H: Sequence[Payload], model: FreeModel) -> Tuple[int, List[Payload]]:
    """Optimal tree walk realizing ts_tree: depth-first over the geodesic hull
    with the u-v path saved for last.  Its length is checked against ts_tree."""
    expected = ts_tree(u, v, H, model)  # also refuses a model that is not free
    u = model.normalize_payload(u)
    inv_u = model.inv_payload(u)
    rel_v = model.mul_payload(inv_u, model.normalize_payload(v))
    rel_H = [model.mul_payload(inv_u, model.normalize_payload(h)) for h in H]
    # every node off the u-v path lies in the geodesic hull of H
    nodes = _tree_edge_set(rel_H + [rel_v])
    children: Dict[Tuple[int, ...], List[Tuple[int, ...]]] = {p: [] for p in nodes | {()}}
    for p in nodes:
        children[p[:-1]].append(p)
    on_path = {rel_v[:i] for i in range(len(rel_v) + 1)}

    out: List[Tuple[int, ...]] = []

    def visit(node):
        out.append(node)
        for c in sorted(c for c in children[node] if c not in on_path):
            visit(c)
            out.append(node)
        for c in sorted(c for c in children[node] if c in on_path):
            visit(c)

    visit(())
    if len(out) - 1 != expected:
        raise VerificationError(f"tree tour has {len(out) - 1} edges, ts_tree gives {expected}")
    return expected, [model.mul_payload(u, p) for p in out]


# ---------------------------------------------------------------------------
# free products: the exact recursion over the tree of factor copies


def _factor_ts_edges(model: FreeProductModel, factor: int, end: int, stations: int, memo) -> int:
    """Edge-minimal walk on the finite factor Cayley graph from the identity
    to `end` visiting the stations of the bitmask `stations`; one
    solve_all_ends row per mask, kept in the factor's tables in memo."""
    graph, rows = _factor_tables(model, factor, memo)
    row = rows.get(stations)
    if row is None:
        e = model.factors[factor].table.identity
        row = rows[stations] = solve_all_ends(graph, e, _members(stations))
    return row[end]


def _factor_walk(
    model: FreeProductModel, factor: int, end: int, stations: int, memo, closures
) -> Tuple[int, ...]:
    """One optimal walk of that factor TSP, checked by validate_solution.

    The mask's Held-Karp closure is built once per petal walk and kept in
    closures under (factor, stations), with the walks to each end taken from
    it so far.  It also fills the mask's row in memo when that is missing,
    so the value recursion reads the row of the table the walk came from."""
    e = model.factors[factor].table.identity
    entry = closures.get((factor, stations))
    if entry is None:
        graph, rows = _factor_tables(model, factor, memo)
        closure = _held_karp_closure(graph, e, _members(stations))
        if stations not in rows:
            rows[stations] = _closure_row(graph.n, e, closure)
        entry = closures[factor, stations] = (graph, closure, {})
    graph, closure, walks = entry
    walk = walks.get(end)
    if walk is None:
        edges, walk = _closure_walk(graph, e, end, closure)
        validate_solution(TspInstance(graph, e, end, _members(stations)), TspSolution(edges, walk))
        walks[end] = walk
    return walk


def _factor_tables(model: FreeProductModel, factor: int, memo):
    """(Cayley graph, TS rows by station mask) of one factor, kept in memo
    under the factor."""
    tables = memo.get(factor)
    if tables is None:
        tables = memo[factor] = (finite_cayley_graph(model.factors[factor]), {})
    return tables


def _members(mask: int) -> List[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def ts_free_product(
    model: FreeProductModel,
    start: Payload,
    end: Payload,
    required: Sequence[Payload],
) -> int:
    """Exact TS(start -> end; required) in Cay(H*K, S_H u S_K).

    Normalises the input and translates it by start^-1, then evaluates
    ts_free_product_ends for the one end on a fresh position table and memo.
    """
    _start, positions, end_id, req_ids = _localise(model, start, end, required)
    return ts_free_product_ends(positions, req_ids, (end_id,), {})[0]


def _localise(model: FreeProductModel, start: Payload, end: Payload, required: Sequence[Payload]):
    """(start, positions, id of start^-1 end, ids of {start^-1 r}): start in
    normal form, the translated points interned into a fresh position table."""
    if not isinstance(model, FreeProductModel):
        raise ValueError("ts_free_product needs a free product model")
    start = model.normalize_payload(start)
    inv = model.inv_payload(start)
    positions = PositionTable(model)
    intern = positions.intern
    end_id = intern(model.mul_payload(inv, model.normalize_payload(end)))
    req_ids = frozenset(
        intern(model.mul_payload(inv, model.normalize_payload(r))) for r in required
    )
    return start, positions, end_id, req_ids


def ts_free_product_ends(
    positions: PositionTable, required: Collection[int], ends: Sequence[int], memo: dict, base: int = 0
) -> List[int]:
    """base + exact TS(e -> end; required) for each position id `end` of
    ends; base lets a caller add a fixed cost without a second list.

    Recursion over the tree of factor copies: each copy contributes a finite
    TSP whose station weights are the closed-excursion costs of its nonempty
    petals; the copy holding the endpoint takes one final open excursion,
    the dive.  memo is the caller's dict for this position table; _ts_fp
    keeps in it the sub-excursion values keyed by the flat tuple (factor,
    end id, *sorted required ids), and under the bare factor that factor's
    tables (see _factor_tables): its Cayley graph and its TS rows keyed by
    the bitmask of stations.  A factor's tables are not in the flat key
    space, so a station mask never meets a sub-excursion key such as
    (factor, end id) of an empty required set.

    A root key rarely recurs, so the root copy is not memoised.  required
    is split once at the root copy, the factor 0 copy at the identity, for
    all ends.  Each end then costs one route lookup, the sum of the closed
    excursions of every petal but the one it leaves from (summed once per
    leaving station), one memo lookup for its dive and one factor row
    lookup; _ts_fp and _factor_ts_edges run only on a miss.
    """
    stations, petals, _x, _dive = _split(positions, 0, 0, required)
    routes = positions.routes[0]
    rows = (memo.get(0) or _factor_tables(positions.model, 0, memo))[1]
    sums: Dict[Optional[int], int] = {}
    out = []
    for end in ends:
        x, dive = routes[end]
        # the walk leaves for end from x: with a dive, the petal at x is part
        # of the dive, and every other petal is a closed excursion
        skip = x if dive else None
        total = sums.get(skip)
        if total is None:
            total = base
            for s, sub in petals.items():
                if s != skip:
                    sub.sort()
                    key = (1, 0, *sub)
                    val = memo.get(key)
                    total += _ts_fp(positions, 1, 0, sub, memo, key) if val is None else val
            sums[skip] = total
        mask = stations
        if dive:
            tail = petals.get(x, ())
            if tail:
                tail.sort()
            key = (1, dive, *tail)
            val = memo.get(key)
            total += _ts_fp(positions, 1, dive, tail, memo, key) if val is None else val
            mask |= 1 << x
        row = rows.get(mask)
        if row is None:
            total += _factor_ts_edges(positions.model, 0, x, mask, memo)
        else:
            total += row[x]
        out.append(total)
    return out


def ts_free_product_ids_walk(
    positions: PositionTable, end: int, required: FrozenSet[int], memo: dict
) -> Tuple[int, List[Payload]]:
    """(exact TS(e -> end; required) for position ids of a free product, one
    optimal walk e -> end as payloads), both on memo.  The walk goes first and fills the factor rows it uses; the value
    recursion then runs apart from it, and the walk's edge count must equal
    its value."""
    letters = _walk_fp(positions, 0, end, required, memo, {})
    value = ts_free_product_ends(positions, required, (end,), memo)[0]
    if len(letters) != value:
        raise VerificationError(f"free-product walk has {len(letters)} edges but TS is {value}")
    push, word = positions.model._push, []
    walk: List[Payload] = [()]
    for letter in letters:
        push(word, letter)
        walk.append(tuple(word))
    return value, walk


def ts_free_product_walk(
    model: FreeProductModel,
    start: Payload,
    end: Payload,
    required: Sequence[Payload],
) -> Tuple[int, List[Payload]]:
    """As ts_free_product, but also reconstructs one optimal walk (as group
    elements), certified by ts_free_product_ids_walk."""
    start, positions, end_id, req_ids = _localise(model, start, end, required)
    value, local = ts_free_product_ids_walk(positions, end_id, req_ids, {})
    return value, [model.mul_payload(start, p) for p in local]


def _split(positions: PositionTable, factor: int, end: int, required: Collection[int]):
    """Route the ids `required` and `end` through the `factor` copy at the
    identity (see PositionTable.routes).

    Returns (stations, beyond, end_idx, dive): the bitmask of the copy
    elements that the required elements lie at or leave the copy from, the
    ids of the rest of each required element that lies beyond the copy in
    lists by the copy element it leaves from (its petal), the copy element
    where the walk leaves for `end`, and the id of the rest of `end` beyond
    it (0 when `end` lies in the copy).
    """
    routes = positions.routes[factor]
    stations = 0
    # distinct required ids have distinct (x, rest) routes, so no rest
    # repeats within a list
    beyond: Dict[int, List[int]] = {}
    for r in required:
        x, rest = routes[r]
        stations |= 1 << x
        if rest:
            beyond.setdefault(x, []).append(rest)
    return (stations, beyond, *routes[end])


def _walk_fp(positions: PositionTable, factor: int, end: int, required: Collection[int], memo, closures):
    """The petal walk from the identity of this `factor` copy as generator
    letters, (factor, u^-1 v) for each factor edge u -> v: its factor walk,
    each petal's letters spliced in at its station's first visit, then the
    dive's.  A sub-walk starts and ends at its station, so its letters need
    no translation."""
    if not required and not end:
        return []
    model = positions.model
    stations, beyond, end_idx, dive = _split(positions, factor, end, required)
    other = 1 - factor
    dive_letters: List[Tuple[int, int]] = []
    if dive:
        dive_letters = _walk_fp(positions, other, dive, beyond.pop(end_idx, ()), memo, closures)
        stations |= 1 << end_idx
    excursions = {s: _walk_fp(positions, other, 0, sub, memo, closures) for s, sub in beyond.items()}

    table = model.factors[factor].table
    mul, inv = table.mul, table.inv
    fwalk = _factor_walk(model, factor, end_idx, stations, memo, closures)
    letters = excursions.pop(fwalk[0], [])
    for u, v in zip(fwalk, fwalk[1:]):
        letters.append((factor, mul[inv[u]][v]))
        letters += excursions.pop(v, ())
    return letters + dive_letters


def _ts_fp(
    positions: PositionTable, factor: int, end: int, required: Collection[int], memo, key: Optional[tuple] = None
) -> int:
    """TS from the identity of this `factor` copy to `end` over the ids
    `required`, memoised: its factor TS over the stations of the copy, the
    dive into the petal at the end station, and a closed excursion into
    every other petal.  A caller that has looked the memo key up and missed
    passes it as key, and the value is computed at once."""
    if key is None:
        # one flat tuple; the sort makes the key independent of set order
        key = (factor, end, *sorted(required))
        val = memo.get(key)
        if val is not None:
            return val
    stations, beyond, x, dive = _split(positions, factor, end, required)
    other = 1 - factor
    val = 0
    if dive:
        val = _ts_fp(positions, other, dive, beyond.pop(x, ()), memo)
        stations |= 1 << x
    for sub in beyond.values():
        val += _ts_fp(positions, other, 0, sub, memo)
    val = memo[key] = val + _factor_ts_edges(positions.model, factor, x, stations, memo)
    return val
