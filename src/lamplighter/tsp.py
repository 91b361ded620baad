"""Exact solvers for TS(u -> v; F): minimal-length walks visiting a required
vertex set.

Lengths here count EDGES traversed (generator multiplications), plus service
weights charged once per required vertex.  Walks may revisit vertices freely,
so the solver works in the shortest-path metric closure of the required set
(Steiner-TSP formulation, Held-Karp over subsets of the required vertices).

Since every required vertex is serviced exactly once, the service weights add
a constant to every feasible walk; they never change which walk is optimal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .errors import BoundExceededError, ResourceCapError, VerificationError
from .graphs import FiniteGraph, finite_cayley_graph
from .groups import FreeModel, FreeProductModel, Payload

MAX_REQUIRED = 22
_NUMPY_THRESHOLD = 11
_INF = 1 << 40


@dataclass(frozen=True)
class TspInstance:
    graph: FiniteGraph
    start: int
    end: int
    required: FrozenSet[int]
    service_weight: Dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "required", frozenset(self.required))
        n = self.graph.n
        if not (0 <= self.start < n and 0 <= self.end < n):
            raise ValueError("start/end out of range")
        if any(not 0 <= r < n for r in self.required):
            raise ValueError("required vertex out of range")
        if any(k not in self.required for k in self.service_weight):
            raise ValueError("service_weight keys must be required vertices")
        if any(w < 0 for w in self.service_weight.values()):
            raise ValueError("service weights must be nonnegative")


@dataclass(frozen=True)
class TspSolution:
    length: int
    walk: Tuple[int, ...]


def validate_solution(inst: TspInstance, sol: TspSolution) -> None:
    walk = sol.walk
    assert walk[0] == inst.start and walk[-1] == inst.end
    for u, v in zip(walk, walk[1:]):
        assert v in inst.graph.adj[u], f"non-edge {u}-{v} in walk"
    assert inst.required <= set(walk), "walk misses required vertices"
    assert sol.length == len(walk) - 1 + sum(
        inst.service_weight.get(r, 0) for r in inst.required
    )


# ---------------------------------------------------------------------------
# exact Steiner-TSP solver


def solve_exact(inst: TspInstance) -> TspSolution:
    """Globally minimal walk; deterministic tie-breaks favor small vertices."""
    g = inst.graph
    if not g.is_connected():
        raise ValueError("solve_exact requires a connected graph")
    reqs = sorted(inst.required)
    if len(reqs) > MAX_REQUIRED:
        raise ResourceCapError(
            f"required set of size {len(reqs)} exceeds cap {MAX_REQUIRED}"
        )
    bonus = sum(inst.service_weight.get(r, 0) for r in inst.required)
    interesting = reqs + [inst.start]
    dist = {v: g.distances_from(v) for v in set(interesting)}

    others = [r for r in reqs if r != inst.start]
    if not others:
        walk = _lex_shortest_path(g, inst.start, inst.end, dist.get(inst.end))
        return TspSolution(len(walk) - 1 + bonus, tuple(walk))

    k = len(others)
    D_start = [dist[inst.start][r] for r in others]
    D = [[dist[others[i]][others[j]] for j in range(k)] for i in range(k)]
    D_end = [dist[r][inst.end] for r in others]

    if k >= _NUMPY_THRESHOLD:
        dp = _held_karp_numpy(k, D_start, D)
    else:
        dp = _held_karp_python(k, D_start, D)

    full = (1 << k) - 1
    best = None
    for i in range(k):
        total = dp[full][i] + D_end[i]
        if best is None or (total, others[i]) < (best[0], others[best[1]]):
            best = (total, i)
    total, last = int(best[0]), best[1]
    order = _reconstruct_order(dp, D_start, D, k, last, others)
    stations = [inst.start] + [others[i] for i in order] + [inst.end]
    walk: List[int] = [inst.start]
    for a, b in zip(stations, stations[1:]):
        leg = _lex_shortest_path(g, a, b, dist.get(b))
        walk.extend(leg[1:])
    sol = TspSolution(total + bonus, tuple(walk))
    validate_solution(inst, sol)
    return sol


def solve_all_ends(
    graph: FiniteGraph,
    start: int,
    required: Set[int],
    service_weight: Optional[Dict[int, int]] = None,
) -> List[int]:
    """TS(start -> v; required) for every vertex v, in one DP sweep."""
    weights = service_weight or {}
    bonus = sum(weights.get(r, 0) for r in required)
    reqs = sorted(required)
    if len(reqs) > MAX_REQUIRED:
        raise ResourceCapError(
            f"required set of size {len(reqs)} exceeds cap {MAX_REQUIRED}"
        )
    others = [r for r in reqs if r != start]
    dist = {v: graph.distances_from(v) for v in set(others + [start])}
    if not others:
        return [dist[start][v] + bonus for v in range(graph.n)]
    k = len(others)
    D_start = [dist[start][r] for r in others]
    D = [[dist[others[i]][others[j]] for j in range(k)] for i in range(k)]
    if k >= _NUMPY_THRESHOLD:
        dp = _held_karp_numpy(k, D_start, D)
    else:
        dp = _held_karp_python(k, D_start, D)
    full = (1 << k) - 1
    out = []
    for v in range(graph.n):
        out.append(int(min(dp[full][i] + dist[others[i]][v] for i in range(k))) + bonus)
    return out


def _held_karp_python(k: int, D_start: Sequence[int], D: Sequence[Sequence[int]]):
    size = 1 << k
    dp = [[_INF] * k for _ in range(size)]
    for i in range(k):
        dp[1 << i][i] = D_start[i]
    for mask in range(size):
        row = dp[mask]
        for i in range(k):
            base = row[i]
            if base >= _INF:
                continue
            Di = D[i]
            rest = ~mask & (size - 1)
            j = 0
            m = rest
            while m:
                if m & 1:
                    nm = mask | (1 << j)
                    cand = base + Di[j]
                    if cand < dp[nm][j]:
                        dp[nm][j] = cand
                j += 1
                m >>= 1
    return dp


def _held_karp_numpy(k: int, D_start, D):
    # numpy is imported where it is used, so commands that never reach a
    # k >= _NUMPY_THRESHOLD kernel do not load it
    import numpy as np

    size = 1 << k
    Dm = np.array(D, dtype=np.int64)
    dp = np.full((size, k), _INF, dtype=np.int64)
    for i in range(k):
        dp[1 << i][i] = D_start[i]
    bits = [1 << j for j in range(k)]
    for mask in range(size):
        row = dp[mask]
        if row.min() >= _INF:
            continue
        cand = (row[:, None] + Dm).min(axis=0)
        for j in range(k):
            if not mask & bits[j]:
                nm = mask | bits[j]
                if cand[j] < dp[nm][j]:
                    dp[nm][j] = cand[j]
    return dp


def _reconstruct_order(dp, D_start, D, k, last, others) -> List[int]:
    """Backwards predecessor walk; ties resolved by smallest station vertex."""
    full = (1 << k) - 1
    order = [last]
    mask, i = full, last
    while mask != (1 << i):
        pm = mask ^ (1 << i)
        best_j = None
        for j in range(k):
            if pm & (1 << j) and dp[pm][j] + D[j][i] == dp[mask][i]:
                if best_j is None or others[j] < others[best_j]:
                    best_j = j
        if best_j is None:  # numerical impossibility guard
            raise AssertionError("DP reconstruction failed")
        mask, i = pm, best_j
        order.append(i)
    assert dp[mask][i] == D_start[i]
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
# brute-force oracle (tests only): exhaustive walk enumeration


def brute_force_oracle(inst: TspInstance, max_len: int) -> TspSolution:
    """Iterative-deepening enumeration of walks; independent of solve_exact.

    Raises BoundExceededError when no walk of at most max_len edges works.
    """
    g = inst.graph
    reqs = sorted(inst.required)
    bit = {r: 1 << i for i, r in enumerate(reqs)}
    full = (1 << len(reqs)) - 1
    bonus = sum(inst.service_weight.get(r, 0) for r in inst.required)
    dist_end = g.distances_from(inst.end)
    dist_req = {r: g.distances_from(r) for r in reqs}

    start_mask = bit.get(inst.start, 0)

    def lower_bound(v: int, mask: int) -> int:
        lb = dist_end[v]
        for r in reqs:
            if not mask & bit[r]:
                lb = max(lb, dist_req[r][v])
        return lb

    for budget in range(max_len + 1):
        walk = [inst.start]

        def dfs(v: int, mask: int, used: int) -> bool:
            if mask == full and v == inst.end:
                return True
            if used + lower_bound(v, mask) > budget:
                return False
            for w in g.adj[v]:
                walk.append(w)
                if dfs(w, mask | bit.get(w, 0), used + 1):
                    return True
                walk.pop()
            return False

        if dfs(inst.start, start_mask, 0):
            sol = TspSolution(len(walk) - 1 + bonus, tuple(walk))
            validate_solution(inst, sol)
            return sol
    raise BoundExceededError(f"no covering walk within {max_len} edges")


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
    with the u-v path saved for last."""
    if not isinstance(model, FreeModel):
        raise ValueError("ts_tree_walk needs a free group model")
    u = model.normalize_payload(u)
    inv_u = model.inv_payload(u)
    rel_v = model.mul_payload(inv_u, model.normalize_payload(v))
    rel_H = [model.mul_payload(inv_u, model.normalize_payload(h)) for h in H]
    nodes: Set[Tuple[int, ...]] = {()}
    for w in rel_H + [rel_v]:
        for i in range(len(w)):
            nodes.add(w[: i + 1])
    children: Dict[Tuple[int, ...], List[Tuple[int, ...]]] = {p: [] for p in nodes}
    for p in nodes:
        if p:
            children[p[:-1]].append(p)
    on_path = {rel_v[:i] for i in range(len(rel_v) + 1)}
    hull = {p for w in rel_H for i in range(len(w)) for p in (w[: i + 1],)}

    out: List[Tuple[int, ...]] = []

    def visit(node):
        out.append(node)
        offs = sorted(c for c in children[node] if c not in on_path and c in hull)
        for c in offs:
            visit(c)
            out.append(node)
        for c in sorted(c for c in children[node] if c in on_path):
            visit(c)

    visit(())
    expected = 2 * len(hull - {rel_v[:i] for i in range(1, len(rel_v) + 1)}) + len(rel_v)
    assert len(out) - 1 == expected, "tree tour length mismatch"
    return len(out) - 1, [model.mul_payload(u, p) for p in out]


# ---------------------------------------------------------------------------
# free products: petals and the exact recursion


@dataclass(frozen=True)
class Petal:
    attachment: Payload
    support: Tuple[Payload, ...]


@dataclass(frozen=True)
class PetalDecomposition:
    factor: int
    copy_elements: Tuple[Payload, ...]
    petals: Tuple[Petal, ...]


def petal_decomposition(
    model: FreeProductModel,
    copy_anchor: Payload,
    support: Sequence[Payload],
    factor: int = 0,
) -> PetalDecomposition:
    """Partition induced by the `factor` copy containing copy_anchor.

    Petal P_i carries the attachment vertex v_i and the support elements lying
    in P_i (v_i itself included when in the support).  P_0 contains the
    identity side; for cyclic factors the rest follow the cyclic order.
    """
    anchor = model.normalize_payload(copy_anchor)
    table = model.factors[factor].table
    base = anchor[:-1] if anchor and anchor[-1][0] == factor else anchor
    coset = [
        model.mul_payload(base, ((factor, x),)) if x != table.identity else base
        for x in range(table.order)
    ]
    v0 = min(coset, key=lambda p: (model.length_payload(p), p))
    ordered = _order_copy(model, factor, base, coset, v0)
    support = [model.normalize_payload(s) for s in support]
    buckets: Dict[Payload, List[Payload]] = {v: [] for v in ordered}
    for s in support:
        buckets[_petal_of(model, factor, coset, s)].append(s)
    petals = tuple(
        Petal(v, tuple(sorted(buckets[v]))) for v in ordered
    )
    return PetalDecomposition(factor, tuple(ordered), petals)


def _order_copy(model, factor, base, coset, v0) -> List[Payload]:
    graph_is_cycle = finite_factor_graph(model, factor).is_cycle_graph()
    if graph_is_cycle:
        s = model.factors[factor].gens.elements[0]
        ordered = [v0]
        cur = v0
        for _ in range(len(coset) - 1):
            cur = model.mul_payload(cur, ((factor, s),))
            ordered.append(cur)
        return ordered
    rest = sorted((p for p in coset if p != v0), key=lambda p: (model.length_payload(p), p))
    return [v0] + rest


def _petal_of(model: FreeProductModel, factor: int, coset: Sequence[Payload], y: Payload) -> Payload:
    other = 1 - factor
    for v in coset:
        if y == v:
            return v
        rel = model.mul_payload(model.inv_payload(v), y)
        if rel and rel[0][0] == other:
            return v
    raise AssertionError("support element not routed to any petal")


# -- exact TS via recursion over the tree of factor copies -----------------


def finite_factor_graph(model: FreeProductModel, factor: int) -> FiniteGraph:
    caches = _model_caches(model)
    key = ("factor_graph", factor)
    if key not in caches:
        caches[key] = finite_cayley_graph(model.factors[factor])
    return caches[key]


def _model_caches(model) -> dict:
    caches = getattr(model, "_tsp_caches", None)
    if caches is None:
        caches = {}
        setattr(model, "_tsp_caches", caches)
    return caches


def _factor_dist_matrix(model: FreeProductModel, factor: int) -> List[List[int]]:
    caches = _model_caches(model)
    key = ("factor_dist", factor)
    if key not in caches:
        caches[key] = finite_factor_graph(model, factor).all_distances()
    return caches[key]


def _factor_ts_edges(
    model: FreeProductModel, factor: int, end: int, stations: FrozenSet[int]
) -> int:
    """Edge-minimal walk on the finite factor Cayley graph from the identity
    to `end` visiting `stations`; memoized per model."""
    caches = _model_caches(model)
    key = ("factor_ts", factor, end, stations)
    hit = caches.get(key)
    if hit is not None:
        return hit
    graph = finite_factor_graph(model, factor)
    dist = _factor_dist_matrix(model, factor)
    e = model.factors[factor].table.identity
    others = sorted(s for s in stations if s != e)
    if not others:
        val = dist[e][end]
    else:
        k = len(others)
        D_start = [dist[e][r] for r in others]
        D = [[dist[others[i]][others[j]] for j in range(k)] for i in range(k)]
        dp = _held_karp_python(k, D_start, D)
        full = (1 << k) - 1
        val = min(dp[full][i] + dist[others[i]][end] for i in range(k))
    caches[key] = val
    return val


def ts_free_product(
    model: FreeProductModel,
    start: Payload,
    end: Payload,
    required: Sequence[Payload],
) -> int:
    """Exact TS(start -> end; required) in Cay(H*K, S_H u S_K).

    Normalises the input and translates it by start^-1, then evaluates
    ts_free_product_normal.
    """
    _start, end_l, req_l = _localise(model, start, end, required)
    return ts_free_product_normal(model, end_l, req_l)


def _localise(model: FreeProductModel, start: Payload, end: Payload, required: Sequence[Payload]):
    """(start, start^-1 end, {start^-1 r}), all in normal form."""
    if not isinstance(model, FreeProductModel):
        raise ValueError("ts_free_product needs a free product model")
    start = model.normalize_payload(start)
    inv = model.inv_payload(start)
    end_l = model.mul_payload(inv, model.normalize_payload(end))
    req_l = frozenset(
        model.mul_payload(inv, model.normalize_payload(r)) for r in required
    )
    return start, end_l, req_l


def ts_free_product_normal(
    model: FreeProductModel, end: Payload, required: FrozenSet[Payload]
) -> int:
    """Exact TS(e -> end; required) for normal-form payloads.

    Recursion over the tree of factor copies: each copy contributes a finite
    TSP whose station weights are the closed-excursion costs of its nonempty
    petals; the copy holding the endpoint takes one final open excursion.
    The root is evaluated but not memoised (a root key rarely recurs); the
    sub-excursions are memoised in the model's ts_fp_memo.
    """
    if not isinstance(model, FreeProductModel):
        raise ValueError("ts_free_product needs a free product model")
    if not required and not end:
        return 0
    memo = _model_caches(model).setdefault("ts_fp_memo", {})
    return _ts_fp_copy(model, 0, end, required, memo)


def ts_free_product_walk(
    model: FreeProductModel,
    start: Payload,
    end: Payload,
    required: Sequence[Payload],
) -> Tuple[int, List[Payload]]:
    """As ts_free_product, but also reconstructs one optimal walk (as group
    elements).  The walk length certifies the recursion's value."""
    start, end_l, req_l = _localise(model, start, end, required)
    cost, local = _walk_fp(model, 0, end_l, req_l)
    if cost != len(local) - 1:
        raise VerificationError(
            f"free-product walk has {len(local) - 1} edges but costs {cost}"
        )
    return cost, [model.mul_payload(start, p) for p in local]


def _attach(model: FreeProductModel, factor: int, station: int, sub: List[Payload]) -> List[Payload]:
    table = model.factors[factor].table
    if station == table.identity:
        return list(sub)
    return [model.mul_payload(((factor, station),), p) for p in sub]


def _walk_fp(model: FreeProductModel, factor: int, end: Payload, required: FrozenSet[Payload]):
    table = model.factors[factor].table
    ident = table.identity
    if not required and not end:
        return 0, [()]
    in_copy: Set[int] = set()
    beyond: Dict[int, Set[Payload]] = {}
    for r in required:
        if not r:
            in_copy.add(ident)
        elif len(r) == 1 and r[0][0] == factor:
            in_copy.add(r[0][1])
        elif r[0][0] == factor:
            beyond.setdefault(r[0][1], set()).add(r[1:])
        else:
            beyond.setdefault(ident, set()).add(r)
    if not end:
        end_idx, dive = ident, None
    elif len(end) == 1 and end[0][0] == factor:
        end_idx, dive = end[0][1], None
    elif end[0][0] == factor:
        end_idx, dive = end[0][1], end[1:]
    else:
        end_idx, dive = ident, end

    other = 1 - factor
    excursions: Dict[int, Tuple[int, List[Payload]]] = {}
    stations: Set[int] = set(in_copy)
    total = 0
    for s, sub in beyond.items():
        if s == end_idx and dive is not None:
            continue
        c, w = _walk_fp(model, other, (), frozenset(sub))
        excursions[s] = (c, _attach(model, factor, s, w))
        stations.add(s)
        total += c
    dive_walk: List[Payload] = []
    if dive is not None:
        sub = frozenset(beyond.get(end_idx, set()))
        c, w = _walk_fp(model, other, dive, sub)
        dive_walk = _attach(model, factor, end_idx, w)
        stations.add(end_idx)
        total += c

    graph = finite_factor_graph(model, factor)
    inst = TspInstance(graph, ident, end_idx, frozenset(stations))
    sol = solve_exact(inst)
    walk: List[Payload] = []
    done: Set[int] = set()
    for v in sol.walk:
        vp: Payload = ((factor, v),) if v != ident else ()
        if v in excursions and v not in done:
            done.add(v)
            walk.extend(excursions[v][1])  # starts and ends at vp
        else:
            walk.append(vp)
    if dive_walk:
        if walk[-1] != dive_walk[0]:
            raise VerificationError("dive must start at the end station")
        walk.extend(dive_walk[1:])
    cost = sol.length + total
    return cost, walk


def _ts_fp(model: FreeProductModel, factor: int, end: Payload, required: FrozenSet[Payload], memo) -> int:
    if not required and not end:
        return 0
    key = (factor, end, required)
    val = memo.get(key)
    if val is None:
        val = memo[key] = _ts_fp_copy(model, factor, end, required, memo)
    return val


def _ts_fp_copy(model: FreeProductModel, factor: int, end: Payload, required: FrozenSet[Payload], memo) -> int:
    """TS from the identity of this `factor` copy; petals recurse via _ts_fp."""
    table = model.factors[factor].table
    ident = table.identity
    in_copy: Set[int] = set()
    beyond: Dict[int, Set[Payload]] = {}
    for r in required:
        if not r:
            in_copy.add(ident)
        elif len(r) == 1 and r[0][0] == factor:
            in_copy.add(r[0][1])
        elif r[0][0] == factor:
            beyond.setdefault(r[0][1], set()).add(r[1:])
        else:
            beyond.setdefault(ident, set()).add(r)

    if not end:
        end_idx, dive = ident, None
    elif len(end) == 1 and end[0][0] == factor:
        end_idx, dive = end[0][1], None
    elif end[0][0] == factor:
        end_idx, dive = end[0][1], end[1:]
    else:
        end_idx, dive = ident, end

    other = 1 - factor
    total_weights = 0
    stations: Set[int] = set(in_copy)
    for s, sub in beyond.items():
        if s == end_idx and dive is not None:
            continue
        total_weights += _ts_fp(model, other, (), frozenset(sub), memo)
        stations.add(s)
    if dive is not None:
        sub = frozenset(beyond.get(end_idx, set()))
        total_weights += _ts_fp(model, other, dive, sub, memo)
        stations.add(end_idx)

    return _factor_ts_edges(model, factor, end_idx, frozenset(stations)) + total_weights
