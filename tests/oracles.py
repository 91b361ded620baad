"""Independent oracles the tests check the solvers against: the exhaustive
walk enumeration for the exact TSP solver, and the two-pass Cayley ball."""

from lamplighter.graphs import CayleyBall, from_edges
from lamplighter.tsp import TspInstance, TspSolution, validate_solution


class BoundExceededError(RuntimeError):
    """The brute-force oracle found no walk within its length budget."""


def brute_force_oracle(inst: TspInstance, max_len: int) -> TspSolution:
    """Iterative-deepening enumeration of walks; independent of solve_exact.

    Raises BoundExceededError when no walk of at most max_len edges works.
    """
    g = inst.graph
    reqs = sorted(inst.required)
    bit = {r: 1 << i for i, r in enumerate(reqs)}
    full = (1 << len(reqs)) - 1
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
            sol = TspSolution(len(walk) - 1, tuple(walk))
            validate_solution(inst, sol)
            return sol
    raise BoundExceededError(f"no covering walk within {max_len} edges")


def two_pass_cayley_ball(model, radius: int) -> CayleyBall:
    """B(e, radius) by a BFS for the vertices, then a second pass that
    multiplies every vertex by every generator for the edges."""
    e = model.identity_payload()
    order = [e]
    index = {e: 0}
    frontier = [e]
    for _d in range(radius):
        nxt = []
        for x in frontier:
            for s in model.gens:
                y = model.mul_payload(x, s)
                if y not in index:
                    index[y] = len(order)
                    order.append(y)
                    nxt.append(y)
        frontier = nxt
    edges = set()
    for x in order:
        i = index[x]
        for s in model.gens:
            j = index.get(model.mul_payload(x, s))
            if j is not None and i != j:
                edges.add((min(i, j), max(i, j)))
    labels = tuple(model.payload_str(p) for p in order)
    graph = from_edges(len(order), sorted(edges), labels)
    return CayleyBall(graph, model, radius, tuple(order), index)
