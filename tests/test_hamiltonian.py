"""Hamiltonicity: deciders, the Hamiltonian difference, spanning walks,
cubes of graphs, Nash-Williams bases, quasi-Hamiltonian certificates."""

import hashlib
import itertools
import random
import sys

import pytest

from lamplighter import graphs as Gr, groups as G, hamiltonian as H, tsp as T
from lamplighter.errors import ResourceCapError, VerificationError
from lamplighter.limits import CAPS


def _random_connected(rng, n):
    edges = [(i, rng.randrange(i)) for i in range(1, n)]
    for _ in range(rng.randint(0, n)):
        u, v = rng.sample(range(n), 2)
        edges.append((u, v))
    return Gr.from_edges(n, edges)


def _is_spanning_walk(g, walk, s, t):
    return (
        walk[0] == s and walk[-1] == t
        and set(walk) == set(range(g.n))
        and all(b in g.adj[a] for a, b in zip(walk, walk[1:]))
    )


class TestHamiltonianPath:
    def test_c4_adjacent_pair(self):
        g = Gr.cycle_graph(4)
        path = H.hamiltonian_path(g, 0, 1)
        assert path is not None and len(path) == 4

    def test_c4_antipodal_absent(self):
        assert H.hamiltonian_path(Gr.cycle_graph(4), 0, 2) is None

    def test_grid_same_color_absent(self):
        # Cube(4,3): equal-color endpoints admit no Hamiltonian path (parity)
        g = Gr.cube_graph([4, 3])
        u = next(i for i in range(g.n) if g.labels[i] == (1, 1))
        v = next(i for i in range(g.n) if g.labels[i] == (1, 3))
        assert H.hamiltonian_path(g, u, v) is None

    def test_single_vertex(self):
        g = Gr.FiniteGraph(1, ((),))
        assert H.hamiltonian_path(g, 0, 0) == (0,)

    def test_path_is_valid(self):
        g = Gr.cube_graph([3, 4])
        p = H.hamiltonian_path(g, 0, 1)
        if p is not None:
            assert sorted(p) == list(range(g.n))
            assert all(b in g.adj[a] for a, b in zip(p, p[1:]))

    def test_search_cap_raises_instead_of_none(self, monkeypatch):
        # 26 vertices: past the DP, so the backtracking search decides
        g = Gr.cube_graph([2, 13])
        assert H.hamiltonian_path(g, 0, 1) is not None
        monkeypatch.setitem(CAPS, "SEARCH_NODE_CAP", 5)
        with pytest.raises(ResourceCapError, match="SEARCH_NODE_CAP = 5 exceeded"):
            H.hamiltonian_path(g, 0, 1)

    def test_corrupt_ends_dp_fails_verification(self):
        g = Gr.cycle_graph(5)
        reach = H._ends_dp(g, 0, H._not_masks(g.n))
        assert H._dp_path(g, reach, 0, 1) == (0, 4, 3, 2, 1)
        entry = 1 << (((1 << g.n) - 1) ^ (1 << 1))
        bad = [r & ~entry for r in reach]
        with pytest.raises(VerificationError, match="reconstruction failed"):
            H._dp_path(g, bad, 0, 1)


class TestCapErrors:
    """A cap error names its limits.CAPS entry, the cap's value and the size
    reached."""

    def test_analyze_names_dp_cap(self, monkeypatch):
        monkeypatch.setitem(CAPS, "DP_CAP", 3)
        with pytest.raises(ResourceCapError, match=r"^DP_CAP = 3 exceeded by analyze on 4 vertices$"):
            H.analyze(Gr.cycle_graph(4))

    def test_path_names_backtrack_cap(self, monkeypatch):
        monkeypatch.setitem(CAPS, "DP_CAP", 2)
        monkeypatch.setitem(CAPS, "BACKTRACK_CAP", 3)
        msg = r"^BACKTRACK_CAP = 3 exceeded by a path search on 4 vertices$"
        with pytest.raises(ResourceCapError, match=msg):
            H.hamiltonian_path(Gr.cycle_graph(4), 0, 1)

    def test_search_names_node_cap(self, monkeypatch):
        monkeypatch.setitem(CAPS, "SEARCH_NODE_CAP", 5)
        with pytest.raises(ResourceCapError, match=r"^SEARCH_NODE_CAP = 5 exceeded in the search 0->1") as info:
            H.spanning_walk_min_repeats(Gr.cube_graph([3, 4]), 0, 1, 0)
        assert (info.value.cap_name, info.value.cap_value) == ("SEARCH_NODE_CAP", 5)


class TestSpanningSearch:
    """The bitset search against independent oracles: the ends-DP for
    Hamiltonian paths, the exact TSP for walks with repeats."""

    def test_hamiltonian_matches_ends_dp(self):
        rng = random.Random(314)
        for _ in range(150):
            g = _random_connected(rng, rng.randint(2, 14))
            bits = H._graph_bits(g)
            full = (1 << g.n) - 1
            for s in range(g.n):
                reach = H._ends_dp(g, s, H._not_masks(g.n))
                ends = sum(1 << t for t in range(g.n) if reach[t] >> full & 1)
                for t in range(g.n):
                    walk = H._spanning_walk_exact_repeats(bits, s, t, 0)
                    assert (walk is not None) == bool(ends >> t & 1), (g.adj, s, t)
                    if walk is not None:
                        assert len(walk) == g.n and _is_spanning_walk(g, walk, s, t)

    def test_repeat_budgets_match_exact_tsp(self):
        rng = random.Random(2718)
        for _ in range(60):
            g = _random_connected(rng, rng.randint(2, 10))
            bits = H._graph_bits(g)
            for s in range(g.n):
                lengths = T.solve_all_ends(g, s, set(range(g.n)))
                for t in range(g.n):
                    opt = lengths[t] + 1  # vertex slots of a shortest walk
                    for budget in (1, 2):
                        walk = H._spanning_walk_exact_repeats(bits, s, t, budget)
                        if opt > g.n + budget:
                            assert walk is None
                        elif opt == g.n + budget:
                            assert walk is not None
                        if walk is not None:
                            assert opt <= len(walk) <= g.n + budget
                            assert _is_spanning_walk(g, walk, s, t)
                    best = H.spanning_walk_min_repeats(g, s, t, 2)
                    if opt > g.n + 2:
                        assert best is None
                    else:
                        assert len(best) == opt and _is_spanning_walk(g, best, s, t)

    def test_repeat_walks_frozen(self):
        # determinism contract off the grids: the walk (or None) for budgets
        # 0..2 on every endpoint pair of seeded random graphs.  A change of
        # search order or pruning that picks a different walk changes this
        # digest.
        rng = random.Random(1729)
        digest = hashlib.sha256()
        found = 0
        for _ in range(40):
            g = _random_connected(rng, rng.randint(2, 10))
            bits = H._graph_bits(g)
            for s, t in itertools.product(range(g.n), repeat=2):
                for budget in range(3):
                    walk = H._spanning_walk_exact_repeats(bits, s, t, budget)
                    found += walk is not None
                    digest.update(f"{s} {t} {budget}: {' '.join(map(str, walk or ()))}\n".encode())
        assert (found, digest.hexdigest()) == (
            1681, "1c6ceacdad87236532d47b76d4539af484e6082859370ad421de41ca6127bad4"
        )


# (m1, m2, s, t, parent, nodes): DFS nodes of the budget-0 search from s to
# t on Cube(m1, m2).  `nodes` is counted on the search that rules out
# stranding moves once per node; `parent` is the count when each child of a
# fresh move checked them itself, and names the case.  The walks are the
# same; fewer nodes are entered.  3x9 is the grid that Cube(3,3,3) folds
# onto.  Every search finds a walk.
GRID_NODE_COUNTS = [
    (5, 6, 10, 11, 5251, 3582), (5, 6, 12, 6, 4120, 2813), (5, 6, 7, 13, 1611, 1113),
    (5, 6, 1, 11, 700, 462), (5, 6, 17, 7, 405, 279), (5, 6, 13, 4, 282, 203),
    (5, 6, 28, 8, 98, 73), (5, 6, 28, 25, 59, 47),
    (3, 9, 26, 8, 1284, 853), (3, 9, 8, 6, 1081, 730), (3, 9, 20, 0, 306, 208),
    (3, 9, 16, 6, 298, 202), (3, 9, 14, 0, 208, 153), (3, 9, 2, 12, 150, 105),
    (3, 9, 18, 6, 103, 80), (3, 9, 22, 12, 79, 59),
]


class TestSearchWork:
    """The spanning search's order and pruning, pinned by its node counts."""

    @pytest.mark.parametrize("m1, m2, s, t, parent, nodes", GRID_NODE_COUNTS,
                             ids=["-".join(map(str, case[:5])) for case in GRID_NODE_COUNTS])
    def test_node_count_pinned(self, monkeypatch, m1, m2, s, t, parent, nodes):
        assert nodes < parent
        bits = H._grid_bits(m1, m2)
        monkeypatch.setitem(CAPS, "SEARCH_NODE_CAP", nodes)
        walk = H._spanning_walk_exact_repeats(bits, s, t, 0)
        assert walk is not None and _is_spanning_walk(bits.g, walk, s, t)
        monkeypatch.setitem(CAPS, "SEARCH_NODE_CAP", nodes - 1)
        with pytest.raises(ResourceCapError, match=f"SEARCH_NODE_CAP = {nodes - 1} "):
            H._spanning_walk_exact_repeats(bits, s, t, 0)

    def test_one_free_neighbour_is_not_flooded(self):
        # after a fresh move that leaves cur at most one free neighbour
        # nothing can have come apart, so the search floods only from two
        goals = []

        def hook(frame, event, arg):
            if event == "call" and frame.f_code.co_name == "flood" and frame.f_back.f_code.co_name == "dfs":
                goals.append(frame.f_locals["goal"])

        sys.setprofile(hook)
        try:
            for m1, m2, s, t, _parent, _nodes in GRID_NODE_COUNTS[-4:]:
                H._spanning_walk_exact_repeats(H._grid_bits(m1, m2), s, t, 0)
        finally:
            sys.setprofile(None)
        assert goals and all(goal & (goal - 1) for goal in goals)


class TestAnalyze:
    def test_c5(self):
        r = H.analyze(Gr.cycle_graph(5))
        assert r.has_hamiltonian_cycle and not r.hamiltonian_connected

    def test_k4(self):
        g = Gr.finite_cayley_graph(G.make_cyclic(4, [1, 2, 3]))
        assert H.analyze(g).hamiltonian_connected

    def test_c6_bipartite_not_laceable(self):
        # even cycles of length >= 6 are not laceable: no Hamiltonian path
        # joins the antipodal cross pair
        r = H.analyze(Gr.cycle_graph(6))
        assert r.bipartite and r.hamiltonian_laceable is False

    def test_c4_laceable(self):
        r = H.analyze(Gr.cycle_graph(4))
        assert r.bipartite and r.hamiltonian_laceable

    def test_implications(self):
        for g in (Gr.cycle_graph(5), Gr.cube_graph([2, 3]),
                  Gr.finite_cayley_graph(G.make_cyclic(4, [1, 2, 3]))):
            r = H.analyze(g)
            if g.n >= 3 and r.hamiltonian_connected:
                assert r.has_hamiltonian_cycle
                assert not r.bipartite
            for (u, v), path in r.witnesses.items():
                assert path[0] == u and path[-1] == v
                assert sorted(path) == list(range(g.n))

    def test_witnesses_frozen(self):
        # determinism contract: the decisions and every witness path (the
        # smallest-neighbour tie rule of the ends-DP walk-back) on a fixed
        # family.  A different tie rule changes this digest.
        assert _analyze_digest() == (
            147, "ab957c873f93c1a78fdb769978ae3f219cc50317f27dc832f548568c52b1b4bb"
        )


def _analyze_digest():
    # every Cayley graph of an abelian group of order 3..8 on a set of
    # generator classes, then Cube(3, 4): one line per graph with its
    # decisions, then one line per witness path in endpoint order
    tables = [G.cyclic_table(n) for n in range(3, 9)]
    tables += [G.abelian_table(m) for m in ([2, 2], [2, 4], [2, 2, 2])]
    graphs = []
    for table in tables:
        reps = sorted({min(x, table.inv[x]) for x in range(table.order) if x != table.identity})
        for r in range(1, len(reps) + 1):
            for combo in itertools.combinations(reps, r):
                try:
                    graphs.append(Gr.finite_cayley_graph(G.FiniteModel(table, list(combo))))
                except ValueError:
                    continue
    graphs.append(Gr.cube_graph([3, 4]))
    digest = hashlib.sha256()
    for g in graphs:
        r = H.analyze(g)
        digest.update(f"{g.n} {r.has_hamiltonian_cycle} {r.hamiltonian_connected} "
                      f"{r.bipartite} {r.hamiltonian_laceable}\n".encode())
        for (u, v), path in sorted(r.witnesses.items()):
            digest.update(f"{u} {v}: {' '.join(map(str, path))}\n".encode())
    return len(graphs), digest.hexdigest()


class TestHamiltonianDifference:
    @pytest.mark.parametrize("n", range(3, 17))
    def test_cycles_closed_form(self, n):
        assert H.hamiltonian_difference(G.make_cyclic(n, [1])) == n // 2 - 2

    def test_two_element_group(self):
        assert H.hamiltonian_difference(G.make_cyclic(2, [1])) == -1

    def test_hamiltonian_connected_gives_minus_one(self):
        assert H.hamiltonian_difference(G.make_cyclic(4, [1, 2, 3])) == -1

    def test_lower_bound_always(self):
        for n in range(2, 10):
            assert H.hamiltonian_difference(G.make_cyclic(n, [1])) >= -1


class TestGridSpanning:
    def test_square_diagonal_needs_repeat(self):
        w = H.grid_spanning_path(2, 2, (1, 1), (2, 2))
        assert len(w) == 5

    def test_square_adjacent_hamiltonian(self):
        w = H.grid_spanning_path(2, 2, (1, 1), (1, 2))
        assert len(w) == 4

    def test_three_by_three_center_corner(self):
        w = H.grid_spanning_path(3, 3, (2, 2), (1, 1))
        assert len(w) <= 11

    def test_rejects_thin(self):
        with pytest.raises(ValueError):
            H.grid_spanning_path(1, 5, (1, 1), (1, 2))

    def test_long_walk_past_the_recursion_limit_is_refused(self):
        # the search recurses once per step, and the 2x600 grid's walk takes
        # 1,199 steps: a ResourceCapError, not a RecursionError traceback
        msg = (rf"^Python recursion limit = {sys.getrecursionlimit()} exceeded"
               r" in the search 0->600 with 0 repeats on 1200 vertices$")
        with pytest.raises(ResourceCapError, match=msg):
            H.grid_spanning_path(2, 600, (1, 1), (2, 1))

    def test_grid_graph_built_once_per_shape(self, monkeypatch):
        # one cache holds the graph and its search bits; the cube fold
        # tables are kept beside it
        bits = H._grid_bits(4, 3)
        g = bits.g
        assert bits is H._grid_bits(4, 3) and g == Gr.cube_graph([4, 3]) and bits == H._graph_bits(g)
        assert H._grid_bits(3, 4).g == Gr.cube_graph([3, 4])
        assert bits.side_sizes == (6, 6)
        snake, pos = H._snake_fold(3, 3)
        assert H._snake_fold(3, 3) == (snake, pos) and H._snake_fold(3, 3)[1] is pos
        assert snake[0] == (1, 1) and [pos[p] for p in snake] == list(range(1, 10))
        # once a shape is seen, no call rebuilds its bits or fold tables
        H.cube_spanning_path([3, 3, 3], (1, 1, 1), (3, 3, 3))
        H.grid_spanning_path(4, 3, (1, 1), (4, 2))
        misses = H._grid_bits.cache_info().misses, H._snake_fold.cache_info().misses
        monkeypatch.setattr(H, "_graph_bits", lambda g: pytest.fail("bits rebuilt"))
        H.cube_spanning_path([3, 3, 3], (1, 2, 1), (3, 3, 2))
        H.grid_spanning_path(4, 3, (2, 1), (4, 3))
        assert (H._grid_bits.cache_info().misses, H._snake_fold.cache_info().misses) == misses

    def test_bound_and_validity_sample(self):
        rng = random.Random(2)
        for _ in range(25):
            m1, m2 = rng.randint(2, 6), rng.randint(2, 6)
            s = (rng.randint(1, m1), rng.randint(1, m2))
            t = (rng.randint(1, m1), rng.randint(1, m2))
            w = H.grid_spanning_path(m1, m2, s, t)
            assert w[0] == s and w[-1] == t and len(w) <= m1 * m2 + 2
            assert {(i, j) for i in range(1, m1 + 1) for j in range(1, m2 + 1)} == set(w)
            for a, b in zip(w, w[1:]):
                assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1


    def test_walks_frozen(self):
        # determinism contract: every endpoint pair of the grids 2..5 x 2..5
        # and 5x6 and of Cube(3,3,3), row-major endpoint order, one walk per
        # line as "i,j i,j ...".  A change of search order or pruning that
        # picks a different walk changes this digest.
        digest = hashlib.sha256()
        shapes = [(a, b) for a in range(2, 6) for b in range(2, 6)]
        for dims in shapes + [(5, 6), (3, 3, 3)]:
            points = list(itertools.product(*[range(1, m + 1) for m in dims]))
            for s in points:
                for t in points:
                    if len(dims) == 2:
                        walk = H.grid_spanning_path(dims[0], dims[1], s, t)
                    else:
                        walk = H.cube_spanning_path(dims, s, t)
                    line = " ".join(",".join(map(str, p)) for p in walk) + "\n"
                    digest.update(line.encode())
        assert digest.hexdigest() == (
            "b8e1be342cfc6eb4bec9b9ee4394d1885941bf2a81280eef41ef4cffdf08faf1"
        )


class TestCubeSpanning:
    def test_cube_222_corner_to_corner(self):
        w = H.cube_spanning_path([2, 2, 2], (1, 1, 1), (2, 2, 2))
        assert len(w) == 8  # Hamiltonian on the 3-cube

    def test_tall_grids(self):
        for n in range(2, 7):
            w = H.cube_spanning_path([n, 2], (1, 1), (n, 2))
            assert len(w) <= 2 * n + 2

    def test_322_closed(self):
        w = H.cube_spanning_path([3, 2, 2], (1, 1, 1), (1, 1, 1))
        assert len(w) <= 14

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            H.cube_spanning_path([7], (1,), (3,))
        with pytest.raises(ValueError):
            H.cube_spanning_path([5, 1], (1, 1), (3, 1))

    def test_ones_dropped(self):
        w = H.cube_spanning_path([2, 1, 3], (1, 1, 1), (2, 1, 3))
        assert len(w) <= 8 and all(p[1] == 1 for p in w)


class TestCubeOfGraph:
    def test_star_leaf_to_leaf(self):
        star = Gr.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        p = H.cube3_hamiltonian_path(star, 1, 2)
        assert sorted(p) == [0, 1, 2, 3]

    def test_path_already_hamiltonian(self):
        g = Gr.path_graph(5)
        assert H.cube3_hamiltonian_path(g, 0, 4) == (0, 1, 2, 3, 4)

    def test_equal_endpoints_rejected(self):
        with pytest.raises(ValueError):
            H.cube3_hamiltonian_path(Gr.path_graph(3), 1, 1)

    def test_random_trees_and_graphs(self):
        rng = random.Random(99)
        for trial in range(60):
            n = rng.randint(2, 12)
            edges = [(i, rng.randrange(i)) for i in range(1, n)]
            if trial % 2:
                for _ in range(rng.randint(0, 3)):
                    u, v = rng.randrange(n), rng.randrange(n)
                    if u != v:
                        edges.append((max(u, v), min(u, v)))
            g = Gr.from_edges(n, edges)
            u, v = rng.sample(range(n), 2)
            p = H.cube3_hamiltonian_path(g, u, v)
            assert p[0] == u and p[-1] == v and sorted(p) == list(range(n))
            for a, b in zip(p, p[1:]):
                assert g.distances_from(a)[b] <= 3


class TestNashWilliams:
    def test_z2_standard(self):
        basis = H.nash_williams_basis(G.make_abelian(2, [], [[1, 0], [0, 1]]))
        assert basis.a == ((1, 0), (0, 1)) and basis.m == ()
        assert not basis.degenerate

    def test_z_two_three(self):
        basis = H.nash_williams_basis(G.make_abelian(1, [], [[2], [3]]))
        assert basis.a == ((2,),) and basis.b == ((3,),) and basis.m == (2,)

    def test_z_cross_z2(self):
        basis = H.nash_williams_basis(G.make_abelian(1, [2], [[1, 0], [0, 1]]))
        assert basis.a == ((1, 0),) and basis.m == (2,)

    def test_line_degenerate(self):
        basis = H.nash_williams_basis(G.make_abelian(1, [], [[1]]))
        assert basis.degenerate

    @pytest.mark.parametrize("rank, gens", [
        (2, [[1, 0], [0, 1], [1, 1], [1, -1], [2, 1], [1, 2], [2, -1], [1, -2]]),
        (1, [[i] for i in range(1, 10)]),
    ], ids=["z2-eight-classes", "z-one-to-nine"])
    def test_many_classes_get_a_basis(self, rank, gens):
        # C(8, 2) = 28 and C(9, 1) = 9 splits; each is an exact lattice check
        model = G.make_abelian(rank, [], gens)
        basis = H.nash_williams_basis(model)
        assert not basis.degenerate and len(basis.a) == rank
        for g in [(3,) * rank, (-5,) + (2,) * (rank - 1)]:
            ps, qs = H.nw_decompose(model, basis, g)
            total = [sum(p * a[i] for p, a in zip(ps, basis.a))
                     + sum(q * b[i] for q, b in zip(qs, basis.b)) for i in range(rank)]
            assert tuple(total) == g

    @pytest.mark.parametrize("big, a, m, degenerate", [(64, (64,), (64,), False), (65, (1,), (1,), True)])
    def test_m_over_the_factor_skips_the_split(self, big, a, m, degenerate):
        # Z with {1, big}: the split a = big, b = 1 has m = big, used up to 64
        model = G.make_abelian(1, [], [[1], [big]])
        basis = H.nash_williams_basis(model)
        assert (basis.a, basis.m, basis.degenerate) == ((a,), m, degenerate)

    def test_m_over_the_factor_takes_cube(self):
        # the labeling is degenerate, but refute takes only (Z, {+-1}) and
        # free groups: auto picks cube, and refute named outright refuses
        model = G.make_abelian(1, [], [[1], [65]])
        assert H.qh_certificate(model, 1).strategy == "cube"
        with pytest.raises(ValueError, match="refute strategy"):
            H.qh_certificate(model, 1, strategy="refute")

    def test_no_split_within_the_factor(self):
        with pytest.raises(VerificationError, match="every m_j <= 64"):
            H.nash_williams_basis(G.make_abelian(1, [], [[65], [66]]))

    def test_decomposition_unique(self):
        model = G.make_abelian(1, [], [[2], [3]])
        basis = H.nash_williams_basis(model)
        for g in range(-8, 9):
            ps, qs = H.nw_decompose(model, basis, (g,))
            assert 2 * ps[0] + 3 * qs[0] == g
            assert 0 <= qs[0] < 2


class TestQhCertificates:
    def test_z2_box(self):
        model = G.make_abelian(2, [], [[1, 0], [0, 1]])
        cert = H.qh_certificate(model, 2, M=2)
        assert all(w.max_excess <= 2 for w in cert.witnesses)
        H.verify_qh_certificate(model, cert)

    def test_z_one_two_exact(self):
        model = G.make_abelian(1, [], [[1], [2]])
        cert = H.qh_certificate(model, 3, M=1, strategy="ball-exact")
        assert all(w.max_excess <= 1 for w in cert.witnesses)
        H.verify_qh_certificate(model, cert)

    def test_cube_strategy(self):
        model = G.make_free_product(
            G.make_cyclic(8, [1]), G.make_cyclic(2, [1], letter="c")
        )
        cert = H.qh_certificate(model, 1, M=1, strategy="cube")
        assert cert.witnesses[0].max_excess <= 1
        H.verify_qh_certificate(model, cert)

    def test_line_refutation(self):
        ref = H.qh_certificate(G.make_abelian(1, [], [[1]]), 4)
        assert isinstance(ref, H.QhRefutation)
        assert [row[3] for row in ref.rows] == [1, 3, 5, 7]  # 2n - 1

    def test_free_refutation_grows(self):
        ref = H.qh_certificate(G.make_free(2), 3)
        closed = [row[3] for row in ref.rows]
        assert closed == sorted(closed) and closed[0] < closed[-1]

    def test_auto_dispatch(self):
        assert H.qh_certificate(G.make_abelian(1, [], [[1]]), 2).strategy == "refute"
        assert (
            H.qh_certificate(G.make_abelian(2, [], [[1, 0], [0, 1]]), 1).strategy
            == "abelian-box"
        )

    def test_kings_moves_ball_hamiltonian_connected(self):
        # square balls under king's moves: spanning paths repeat only the
        # origin, and only for the closed endpoint
        model = G.make_abelian(2, [], [[1, 0], [0, 1], [1, 1], [1, -1]])
        cert = H.qh_certificate(model, 1, M=1, strategy="ball-exact")
        wit = cert.witnesses[0]
        assert wit.set_size == 9 and wit.max_excess == 1
        closed = wit.walks["0,0"]
        assert len(closed) == 10
        assert all(len(w) == 9 for key, w in wit.walks.items() if key != "0,0")
        H.verify_qh_certificate(model, cert)

    # walks to the endpoint 2 in the radius-1 ball {-2, .., 2} of (Z, {1, 2})
    # with M = 1, each failing exactly one check of the verifier
    @pytest.mark.parametrize("walk, message", [
        (("0", "-1", "-2", "1", "2"), "walk step is not a word of 1..1 generators"),  # -2 -> 1
        (("0", "1", "2"), "walk does not cover its required points"),
        (("0", "-1", "-2", "-1", "0", "1", "2"), "bound violated"),
        (("-1", "-2", "0", "1", "2"), "walk does not start at the identity"),
    ], ids=["tampered-step", "dropped-cover-element", "over-F-plus-M", "start-off-identity"])
    def test_verifier_rejects(self, walk, message):
        model = G.make_abelian(1, [], [[1], [2]])
        cert = H.qh_certificate(model, 1, M=1, strategy="ball-exact")
        wit = cert.witnesses[0]
        assert wit.set_size == 5 and sorted(wit.elements) == ["-1", "-2", "0", "1", "2"]
        H.verify_qh_certificate(model, cert)
        wit.walks["2"] = walk
        with pytest.raises(VerificationError, match=f"^qh certificate: {message}$"):
            H.verify_qh_certificate(model, cert)

    def test_verifier_rejects_missing_walk(self):
        # the other four walks all check out, but nothing reaches 2
        model = G.make_abelian(1, [], [[1], [2]])
        cert = H.qh_certificate(model, 1, M=1, strategy="ball-exact")
        del cert.witnesses[0].walks["2"]
        with pytest.raises(VerificationError, match="^qh certificate: walk endpoints are not the witness set$"):
            H.verify_qh_certificate(model, cert)

    def test_json_round_trip_is_deterministic(self):
        model = G.make_abelian(2, [], [[1, 0], [0, 1]])
        a = H.qh_certificate(model, 1, M=2).to_json()
        b = H.qh_certificate(model, 1, M=2).to_json()
        assert a == b
