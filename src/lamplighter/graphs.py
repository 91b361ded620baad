"""Finite undirected graph kernel: Cayley balls and graphs, product graphs,
and grid/cube graphs.

Graphs are immutable adjacency lists with optional vertex labels.  All
constructors return connected, loop-free, symmetric graphs; `validate`
checks that on any instance and raises VerificationError otherwise.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import ResourceCapError, VerificationError
from .groups import GroupModel, Payload
from .limits import env_cap


@dataclass(frozen=True)
class FiniteGraph:
    """Undirected graph on vertices 0..n-1 with sorted neighbor lists."""

    n: int
    adj: Tuple[Tuple[int, ...], ...]
    labels: Tuple[object, ...] = ()

    def __post_init__(self):
        if not self.labels:
            object.__setattr__(self, "labels", tuple(str(i) for i in range(self.n)))

    def validate(self) -> None:
        if len(self.adj) != self.n:
            raise VerificationError(f"{len(self.adj)} adjacency rows for {self.n} vertices")
        for u, nbrs in enumerate(self.adj):
            if list(nbrs) != sorted(set(nbrs)):
                raise VerificationError("unsorted or duplicate neighbors")
            if u in nbrs:
                raise VerificationError("self-loop")
            for v in nbrs:
                if not (0 <= v < self.n and u in self.adj[v]):
                    raise VerificationError("asymmetric adjacency")

    def edges(self) -> List[Tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    def distances_from(self, source: int) -> List[int]:
        dist = [-1] * self.n
        dist[source] = 0
        q = deque([source])
        while q:
            u = q.popleft()
            for v in self.adj[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    q.append(v)
        return dist

    def is_connected(self) -> bool:
        return self.n == 0 or all(d >= 0 for d in self.distances_from(0))

    def bipartition(self) -> Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
        """Two color classes, or None if the graph has an odd cycle."""
        color = [-1] * self.n
        for start in range(self.n):
            if color[start] >= 0:
                continue
            color[start] = 0
            q = deque([start])
            while q:
                u = q.popleft()
                for v in self.adj[u]:
                    if color[v] < 0:
                        color[v] = 1 - color[u]
                        q.append(v)
                    elif color[v] == color[u]:
                        return None
        side0 = tuple(i for i in range(self.n) if color[i] == 0)
        side1 = tuple(i for i in range(self.n) if color[i] == 1)
        return side0, side1

    def is_cycle_graph(self) -> bool:
        return (
            self.n >= 3
            and all(len(nbrs) == 2 for nbrs in self.adj)
            and self.is_connected()
        )

    # -- export ----------------------------------------------------------
    def to_dot(self) -> str:
        lines = ["graph G {"]
        for i in range(self.n):
            lines.append(f'  {i} [label="{self.labels[i]}"];')
        for u, v in self.edges():
            lines.append(f"  {u} -- {v};")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_adjacency_text(self) -> str:
        return "\n".join(
            f"{u}: " + " ".join(str(v) for v in self.adj[u]) for u in range(self.n)
        ) + "\n"


def from_edges(n: int, edges: Sequence[Tuple[int, int]], labels: Sequence[object] = ()) -> FiniteGraph:
    nbrs: List[set] = [set() for _ in range(n)]
    for u, v in edges:
        if u == v:
            raise ValueError("self-loop")
        nbrs[u].add(v)
        nbrs[v].add(u)
    return FiniteGraph(n, tuple(tuple(sorted(s)) for s in nbrs), tuple(labels))


def path_graph(m: int) -> FiniteGraph:
    return from_edges(m, [(i, i + 1) for i in range(m - 1)], tuple(range(1, m + 1)))


def cycle_graph(m: int) -> FiniteGraph:
    if m < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return from_edges(m, [(i, (i + 1) % m) for i in range(m)], tuple(range(m)))


# ---------------------------------------------------------------------------
# Cayley constructions


def finite_cayley_graph(model) -> FiniteGraph:
    """Cayley graph of a FiniteModel; vertex i is element i."""
    n, mul = model.order, model.mul_payload
    edges = []
    for i in range(n):
        for s in model.gens:
            j = mul(i, s)
            if i < j:
                edges.append((i, j))
            elif j < i:
                edges.append((j, i))
    return from_edges(n, sorted(set(edges)), tuple(model.payload_str(i) for i in range(n)))


@dataclass(frozen=True)
class CayleyBall:
    """Induced subgraph on a radius-`radius` ball, with element lookups."""

    graph: FiniteGraph
    model: GroupModel
    radius: int
    elements: Tuple[Payload, ...]
    index_of: Dict[Payload, int] = field(repr=False)

    def element_of(self, vertex: int) -> Payload:
        return self.elements[vertex]

    def vertex_of(self, payload: Payload) -> int:
        return self.index_of[self.model.normalize_payload(payload)]


def cayley_ball(model: GroupModel, radius: int) -> CayleyBall:
    """Ball B(e, radius) in Cay(model, gens), BFS discovery order.

    Vertices are ordered by BFS layer with generator order as tie-break, so
    vertex v's BFS layer equals the word length of its element.  Each vertex
    is multiplied by each generator once, and its row of neighbours is those
    products that lie in the ball: the generators are symmetric.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    cap = env_cap("CAYLEY_BALL_CAP")
    gens, mul = model.gens, model.mul_payload
    e = model.identity_payload()
    order: List[Payload] = [e]
    index: Dict[Payload, int] = {e: 0}
    adj: List[Tuple[int, ...]] = []
    for d in range(radius + 1):
        for x in order[len(adj):]:  # layer d
            row = []
            for s in gens:
                y = mul(x, s)
                j = index.get(y)
                if j is None:
                    if d == radius:
                        continue
                    j = index[y] = len(order)
                    order.append(y)
                    if j >= cap:
                        raise ResourceCapError("CAYLEY_BALL_CAP", cap,
                                               f"at radius {d + 1}; radii 0..{d} are complete")
                row.append(j)
            adj.append(tuple(sorted(row)))
    labels = tuple(model.payload_str(p) for p in order)
    return CayleyBall(FiniteGraph(len(order), tuple(adj), labels), model, radius, tuple(order), index)


# ---------------------------------------------------------------------------
# derived graphs


def product_graph(g1: FiniteGraph, g2: FiniteGraph) -> FiniteGraph:
    """Cartesian product: step in exactly one coordinate."""
    n1, n2 = g1.n, g2.n
    edges = []
    for u1 in range(n1):
        for u2 in range(n2):
            base = u1 * n2 + u2
            for v2 in g2.adj[u2]:
                if v2 > u2:
                    edges.append((base, u1 * n2 + v2))
            for v1 in g1.adj[u1]:
                if v1 > u1:
                    edges.append((base, v1 * n2 + u2))
    labels = tuple(
        _merge_labels(g1.labels[u1], g2.labels[u2])
        for u1 in range(n1)
        for u2 in range(n2)
    )
    return from_edges(n1 * n2, edges, labels)


def _merge_labels(l1, l2) -> tuple:
    t1 = l1 if isinstance(l1, tuple) else (l1,)
    t2 = l2 if isinstance(l2, tuple) else (l2,)
    return t1 + t2


def cube_graph(dims: Sequence[int]) -> FiniteGraph:
    """Cube(m_1, ..., m_s): iterated product of interval graphs.

    Vertex labels are 1-based coordinate tuples.
    """
    if not dims or any(m < 1 for m in dims):
        raise ValueError("dims must be positive integers")
    g = path_graph(dims[0])
    g = FiniteGraph(g.n, g.adj, tuple((i,) for i in range(1, dims[0] + 1)))
    for m in dims[1:]:
        g = product_graph(g, path_graph(m))
    return g


# ---------------------------------------------------------------------------
# subset bitsets (the bit-sliced subset DPs of tsp and hamiltonian)


def _not_masks(n: int) -> List[int]:
    """NOT[v] as an int of 2**n bits: bit m is set iff vertex v is not in the
    subset m.  Each is one period of 2**(v+1) bits doubled up to 2**n bits."""
    nots = []
    for v in range(n):
        x, width = (1 << (1 << v)) - 1, 2 << v
        while width < 1 << n:
            x, width = x | x << width, width << 1
        nots.append(x)
    return nots
