"""Independent oracles the tests check the solvers against: the exhaustive
walk enumeration for the exact TSP solver, the two-pass Cayley ball, and
finite groups by validated multiplication tables (`TableModel`), the
reference for the arithmetic cyclic model and the tests' S3 and product
groups."""

import itertools
from dataclasses import dataclass
from typing import Sequence, Tuple

from lamplighter.graphs import CayleyBall, from_edges
from lamplighter.groups import FiniteModel
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


@dataclass(frozen=True)
class FiniteGroupTable:
    """A finite group given by its full multiplication table."""

    order: int
    mul: Tuple[Tuple[int, ...], ...]
    identity: int
    inv: Tuple[int, ...]
    name: str = "G"
    elem_names: Tuple[str, ...] = ()

    def __post_init__(self):
        if not self.elem_names:
            names = tuple("e" if i == self.identity else f"g{i}" for i in range(self.order))
            object.__setattr__(self, "elem_names", names)
        self.validate()

    def validate(self) -> None:
        n = self.order
        if n < 1 or len(self.mul) != n or any(len(row) != n for row in self.mul):
            raise ValueError("malformed multiplication table")
        elements = list(range(n))
        for row in self.mul:
            if sorted(row) != elements:
                raise ValueError("mul is not a Latin square (row)")
        for col in zip(*self.mul):
            if sorted(col) != elements:
                raise ValueError("mul is not a Latin square (column)")
        e = self.identity
        for x in range(n):
            if self.mul[e][x] != x or self.mul[x][e] != x:
                raise ValueError("identity law fails")
            if self.mul[x][self.inv[x]] != e:
                raise ValueError("inverse law fails")
        if n <= 64:
            # every triple, one (a, b) at a time: row ab must be row b read
            # through row a, as (ab)c = a(bc) for every c; with n <= 64 a row
            # fits in bytes and bytes.translate reads it through another
            rows = [bytes(row) for row in self.mul]
            pad = bytes(256 - n)
            for ra in rows:
                through_a = ra + pad
                for rb, ab in zip(rows, ra):
                    if rows[ab] != rb.translate(through_a):
                        raise ValueError("associativity fails")
            return
        triples = itertools.islice(
            zip(
                itertools.cycle(range(n)),
                itertools.cycle(range(0, n, 3)),
                itertools.cycle(range(0, n, 7)),
            ),
            4096,
        )
        for a, b, c in triples:
            if self.mul[self.mul[a][b]][c] != self.mul[a][self.mul[b][c]]:
                raise ValueError("associativity fails")

    def is_abelian(self) -> bool:
        return all(
            self.mul[a][b] == self.mul[b][a]
            for a in range(self.order)
            for b in range(a + 1, self.order)
        )


def cyclic_table(n: int, letter: str = "b") -> FiniteGroupTable:
    """Multiplication table of Z/nZ with elements named e, b, b2, ..."""
    if n < 1:
        raise ValueError("order must be positive")
    row = tuple(range(n))
    mul = tuple(row[i:] + row[:i] for i in range(n))  # row i is i + j mod n
    inv = tuple((-i) % n for i in range(n))
    names = tuple("e" if i == 0 else (letter if i == 1 else f"{letter}{i}") for i in range(n))
    return FiniteGroupTable(n, mul, 0, inv, name=f"Z/{n}Z", elem_names=names)


def direct_product_table(t1: FiniteGroupTable, t2: FiniteGroupTable) -> FiniteGroupTable:
    """Table of the direct product t1 x t2, index (i, j) -> i*|t2| + j."""
    n1, n2 = t1.order, t2.order
    n = n1 * n2

    def idx(i: int, j: int) -> int:
        return i * n2 + j

    mul = tuple(
        tuple(idx(t1.mul[a1][b1], t2.mul[a2][b2]) for b1 in range(n1) for b2 in range(n2))
        for a1 in range(n1)
        for a2 in range(n2)
    )
    inv = tuple(idx(t1.inv[i], t2.inv[j]) for i in range(n1) for j in range(n2))
    names = tuple(
        f"({t1.elem_names[i]},{t2.elem_names[j]})" for i in range(n1) for j in range(n2)
    )
    return FiniteGroupTable(n, mul, idx(t1.identity, t2.identity), inv,
                            name=f"{t1.name}x{t2.name}", elem_names=names)


def abelian_table(moduli: Sequence[int]) -> FiniteGroupTable:
    """Table of the finite abelian group Z/m1 x ... x Z/mk."""
    if not moduli:
        raise ValueError("need at least one modulus")
    table = cyclic_table(moduli[0])
    for m in moduli[1:]:
        table = direct_product_table(table, cyclic_table(m))
    return table


class TableModel(FiniteModel):
    """A finite group given by a validated multiplication table: element i is
    row i of the table.  Generators are symmetrized as FiniteModel does, and
    word lengths come from a BFS over the table."""

    def __init__(self, table: FiniteGroupTable, gen_indices: Sequence[int]):
        gens = []
        for g in gen_indices:
            g = int(g)
            if not 0 <= g < table.order:
                raise ValueError("generator index out of range")
            for h in (g, table.inv[g]):
                if h == table.identity:
                    raise ValueError("identity is not allowed as a generator")
                if h not in gens:
                    gens.append(h)
        dist = {table.identity: 0}
        frontier = [table.identity]
        while frontier:
            nxt = []
            for x in frontier:
                for s in gens:
                    y = table.mul[x][s]
                    if y not in dist:
                        dist[y] = dist[x] + 1
                        nxt.append(y)
            frontier = nxt
        if len(dist) != table.order:
            raise ValueError(f"{sorted(set(gen_indices))} does not generate {table.name}")
        self.table = table
        self.order, self.name = table.order, table.name
        self.gens = tuple(gens)
        self._dist = dist

    def is_abelian(self) -> bool:
        return self.table.is_abelian()

    def identity_payload(self) -> int:
        return self.table.identity

    def mul_payload(self, a: int, b: int) -> int:
        return self.table.mul[a][b]

    def inv_payload(self, a: int) -> int:
        return self.table.inv[a]

    def payload_str(self, a: int) -> str:
        return self.table.elem_names[a]

    def parse_payload(self, s: str) -> int:
        try:
            return self.table.elem_names.index(s)
        except ValueError:
            return self.normalize_payload(int(s))
