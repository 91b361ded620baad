"""Exact TSP solvers: Held-Karp, oracle, tree closed form, petal recursion."""

import hashlib
import random

import pytest
from hypothesis import given, strategies as st

from lamplighter import graphs as Gr, groups as G, tsp as T
from lamplighter.errors import ResourceCapError
from oracles import BoundExceededError, brute_force_oracle


def inst(graph, s, t, req):
    return T.TspInstance(graph, s, t, frozenset(req))


@pytest.fixture(scope="module")
def octagon():
    return Gr.finite_cayley_graph(G.make_cyclic(8, [1]))


@pytest.fixture(scope="module")
def fp82():
    return G.make_free_product(G.make_cyclic(8, [1]), G.make_cyclic(2, [1], letter="c"))


class TestSolveExact:
    def test_cycle_closed_is_order(self, octagon):
        assert T.solve_exact(inst(octagon, 0, 0, range(8))).length == 8

    def test_cycle_to_antipode(self, octagon):
        # |G| + floor(|G|/2) - 2 on the 8-cycle
        assert T.solve_exact(inst(octagon, 0, 4, range(8))).length == 10

    def test_trivial(self, octagon):
        assert T.solve_exact(inst(octagon, 0, 0, {0})).length == 0

    def test_required_cap(self):
        g = Gr.path_graph(30)
        with pytest.raises(ResourceCapError):
            T.solve_exact(inst(g, 0, 0, range(25)))

    def test_required_cap_error_names_the_cap(self):
        msg = r"^MAX_REQUIRED = 22 exceeded by a required set of size 25; no Held-Karp table was built$"
        with pytest.raises(ResourceCapError, match=msg):
            T.solve_exact(inst(Gr.path_graph(30), 0, 0, range(25)))

    def test_deterministic_walk(self, octagon):
        a = T.solve_exact(inst(octagon, 0, 4, range(8)))
        b = T.solve_exact(inst(octagon, 0, 4, range(8)))
        assert a == b

    def test_all_ends_matches_solve_exact(self):
        # required sets of 1-14 vertices, on both sides of k = 11
        rng = random.Random(20261018)
        for trial in range(40):
            size = 1 + trial % 14
            n = rng.randint(max(2, size), size + 2)
            edges = {(i, rng.randrange(i)) for i in range(1, n)}
            for _ in range(rng.randint(0, n)):
                u, v = rng.randrange(n), rng.randrange(n)
                if u != v:
                    edges.add((max(u, v), min(u, v)))
            g = Gr.from_edges(n, list(edges))
            s = rng.randrange(n)
            req = set(rng.sample(range(n), size))
            ends = T.solve_all_ends(g, s, req)
            assert ends == [T.solve_exact(inst(g, s, v, req)).length for v in range(n)]

    def test_all_ends_frozen(self):
        # per-end values of the former NumPy kernel (k = 12 and k = 15)
        grid = Gr.cube_graph([4, 4])
        assert T.solve_all_ends(grid, 0, set(range(13))) == [
            14, 13, 14, 13, 13, 14, 13, 14, 14, 13, 14, 13, 13, 14, 15, 14
        ]
        z16 = Gr.finite_cayley_graph(G.make_cyclic(16, [1]))
        assert T.solve_all_ends(z16, 0, set(range(16))) == [
            16, 15, 16, 17, 18, 19, 20, 21, 22, 21, 20, 19, 18, 17, 16, 15
        ]


    def test_walks_frozen(self):
        # sha256 of these walks under the two-kernel solver this one
        # replaced: the determinism contract covers walks, not only lengths
        digest = hashlib.sha256()
        rng = random.Random(5)
        for dims in ([4, 4], [3, 5], [2, 2, 3]):
            g = Gr.cube_graph(dims)
            for _ in range(6):
                req = rng.sample(range(g.n), rng.randint(2, 9))
                s, t = rng.randrange(g.n), rng.randrange(g.n)
                digest.update(repr(T.solve_exact(inst(g, s, t, req)).walk).encode())
        assert digest.hexdigest() == (
            "5b8e5fd6bfae7748ea847a623e312603d4a33872d2a5fde17ff8b7aaf7420608"
        )

    def test_disconnected_graph_refused(self):
        g = Gr.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="connected graph"):
            T.solve_all_ends(g, 0, {1, 2})
        with pytest.raises(ValueError, match="connected graph"):
            T.solve_exact(inst(g, 0, 1, {1, 2}))
        with pytest.raises(ValueError, match="connected graph"):
            T.solve_exact(inst(g, 0, 1, {1}))

    def test_wide_fields_on_long_paths(self):
        # on a path the optimal walk runs out to one extreme of R u {s, e},
        # sweeps to the other and comes back to e; one station near each
        # end of a path of n >= 1000 vertices makes max(D) >= 1000, so every
        # table field needs at least 12 bits
        rng = random.Random(20261019)
        for trial in range(30):
            n = rng.randint(1000, 1500)
            g = Gr.path_graph(n)
            s, e = rng.randrange(n), rng.randrange(n)
            pool = [v for v in range(n) if v != s]
            req = {rng.choice(pool[:100]), rng.choice(pool[-100:])}
            req |= set(rng.sample(pool, rng.randint(0, 8)))
            if trial % 3 == 0:
                req.add(s)

            def closed_form(end):
                lo, hi = min(req | {s, end}), max(req | {s, end})
                return hi - lo + min(abs(s - lo) + abs(hi - end), abs(s - hi) + abs(lo - end))

            assert T.solve_exact(inst(g, s, e, req)).length == closed_form(e)
            assert T.solve_all_ends(g, s, req) == [closed_form(v) for v in range(n)]


def closure(graph, s, req):
    """(k, D_start, D): the Held-Karp kernel's input for start s and req."""
    others = [r for r in sorted(req) if r != s]
    dist = {v: graph.distances_from(v) for v in others + [s]}
    return (len(others), [dist[s][r] for r in others],
            [[dist[a][b] for b in others] for a in others])


class TestHeldKarpKernels:
    def test_levels_match_packed(self):
        # every dp(mask, i), i in mask, on random connected graphs with
        # k <= 10; long paths give wide distances, which the rule sends to
        # the packed table
        rng = random.Random(20261020)
        sides = set()
        for trial in range(48):
            n = rng.randint(2, 14) if trial % 4 else rng.randint(30, 80)
            edges = {(i, rng.randrange(i) if trial % 4 else i - 1) for i in range(1, n)}
            for _ in range(rng.randint(0, n) if trial % 4 else 0):
                u, v = rng.randrange(n), rng.randrange(n)
                if u != v:
                    edges.add((max(u, v), min(u, v)))
            g = Gr.from_edges(n, list(edges))
            s = rng.randrange(n)
            req = rng.sample([v for v in range(n) if v != s], rng.randint(1, min(10, n - 1)))
            k, D_start, D = closure(g, s, req)
            sides.add(T._levels_fit(k, D_start, D))
            levels = T._held_karp_levels(k, D_start, D)
            packed = T._held_karp_packed(k, D_start, D)
            for mask in range(1, 1 << k):
                for i in range(k):
                    if mask >> i & 1:
                        assert levels(mask, i) == packed(mask, i), (trial, mask, i)
        assert sides == {True, False}

    def test_rule_sides(self):
        # short legs at large k take the level kernel, long legs at small k
        # the packed table
        z22 = Gr.finite_cayley_graph(G.make_cyclic(22, [1]))
        assert T._levels_fit(*closure(z22, 0, range(22)))
        assert not T._levels_fit(*closure(Gr.path_graph(1000), 0, {0, 999}))

    def test_large_k_walks_frozen(self):
        # sha256 of these walks under the packed table alone (k = 21, 19)
        digest = hashlib.sha256()
        z22 = Gr.finite_cayley_graph(G.make_cyclic(22, [1]))
        grid = Gr.cube_graph([4, 5])
        for g, ends in ((z22, (0, 5, 11)), (grid, (4, 19))):
            for end in ends:
                digest.update(repr(T.solve_exact(inst(g, 0, end, range(g.n))).walk).encode())
        assert digest.hexdigest() == (
            "e56aa29984d9c918c767bd66c92bbf7841afddcfa141c39bd05ce920a6cfbbe0"
        )


class TestOracle:
    def test_path_out_and_back(self):
        g = Gr.path_graph(3)
        assert brute_force_oracle(inst(g, 1, 1, {0, 1, 2}), 10).length == 4

    def test_single_vertex(self):
        g = Gr.FiniteGraph(1, ((),))
        assert brute_force_oracle(inst(g, 0, 0, {0}), 2).length == 0

    def test_four_cycle_hamiltonian(self):
        g = Gr.cycle_graph(4)
        assert brute_force_oracle(inst(g, 0, 1, range(4)), 10).length == 3

    def test_bound_exceeded(self):
        g = Gr.path_graph(5)
        with pytest.raises(BoundExceededError):
            brute_force_oracle(inst(g, 0, 0, range(5)), 3)

    def test_cross_validation_randomized(self):
        rng = random.Random(20260811)
        for trial in range(120):
            n = rng.randint(2, 10)
            edges = {(i, rng.randrange(i)) for i in range(1, n)}
            extra = rng.randint(0, n)
            while extra:
                u, v = rng.randrange(n), rng.randrange(n)
                if u != v:
                    edges.add((max(u, v), min(u, v)))
                    extra -= 1
            g = Gr.from_edges(n, [(u, v) for u, v in edges])
            req = set(rng.sample(range(n), rng.randint(1, min(n, 6))))
            i = inst(g, rng.randrange(n), rng.randrange(n), req)
            fast = T.solve_exact(i)
            slow = brute_force_oracle(i, 40)
            assert fast.length == slow.length, (n, sorted(edges), req)


class TestInvariants:
    @given(
        st.sets(st.integers(0, 8), min_size=1, max_size=5),
        st.integers(0, 8),
        st.integers(0, 8),
    )
    def test_symmetry_of_closed_instances(self, req, a, b):
        g = Gr.cube_graph([3, 3])
        fwd = T.solve_exact(T.TspInstance(g, a, b, frozenset(req))).length
        rev = T.solve_exact(T.TspInstance(g, b, a, frozenset(req))).length
        assert fwd == rev  # undirected graph: reversed walks are walks

    def test_lower_bound(self):
        rng = random.Random(7)
        g = Gr.cube_graph([3, 3])
        for _ in range(40):
            req = set(rng.sample(range(9), rng.randint(1, 5))) | {0}
            sol = T.solve_exact(inst(g, 0, rng.randrange(9), req))
            assert sol.length >= len(req) - 1

    def test_monotone_in_required(self):
        rng = random.Random(8)
        g = Gr.cube_graph([3, 3])
        for _ in range(40):
            small = set(rng.sample(range(9), 3))
            big = small | set(rng.sample(range(9), 3))
            end = rng.randrange(9)
            a = T.solve_exact(inst(g, 0, end, small)).length
            b = T.solve_exact(inst(g, 0, end, big)).length
            assert a <= b


class TestTreeFormula:
    def test_examples(self):
        f1 = G.make_free(1, "t")
        assert T.ts_tree((), (1, 1), [(1,), (1, 1), (-1,)], f1) == 4
        assert T.ts_tree((), (1, 1), [(1, 1)], f1) == 2
        f2 = G.make_free(2)
        assert T.ts_tree((), (), [(1,), (-1,), (2,), (-2,)], f2) == 8

    def test_against_exact_on_hull(self):
        rng = random.Random(11)
        for rank, letters in ((1, "t"), (2, "ab")):
            model = G.make_free(rank)
            ball = Gr.cayley_ball(model, 4)
            for _ in range(60):
                sup = rng.sample(range(ball.graph.n), rng.randint(1, 5))
                sup = [ball.elements[i] for i in sup]
                end = rng.choice(sup + [()])
                i = inst(
                    ball.graph,
                    0,
                    ball.vertex_of(end),
                    {ball.vertex_of(p) for p in sup},
                )
                assert T.ts_tree((), end, sup, model) == T.solve_exact(i).length

    def test_walk_realizes_value(self):
        f2 = G.make_free(2)
        H = [(1, 2), (-2,), (1,)]
        val = T.ts_tree((), (1,), H, f2)
        cost, walk = T.ts_tree_walk((), (1,), H, f2)
        assert cost == val and walk[0] == () and walk[-1] == (1,)
        for h in H:
            assert f2.normalize_payload(h) in walk


class TestFreeProductTs:
    def test_trivial(self, fp82):
        assert T.ts_free_product(fp82, (), (), [()]) == 0

    def test_octagon_closed(self, fp82):
        octagon = [((0, i),) if i else () for i in range(8)]
        assert T.ts_free_product(fp82, (), (), octagon) == 8

    @pytest.mark.parametrize(
        "H,K",
        [(2, 2), (4, 2), (8, 2)],
        ids=["Z2*Z2", "Z4*Z2", "Z8*Z2"],
    )
    def test_matches_ball_exact(self, H, K):
        model = G.make_free_product(
            G.make_cyclic(H, [1]), G.make_cyclic(K, [1], letter="c")
        )
        r = 5
        ball = Gr.cayley_ball(model, r)
        rng = random.Random(100 + H)
        for _ in range(60):
            pool = [p for p in ball.elements if model.length_payload(p) <= r - 2]
            sup = rng.sample(pool, min(len(pool), rng.randint(1, 5)))
            end = rng.choice(sup)
            i = inst(
                ball.graph,
                0,
                ball.vertex_of(end),
                {ball.vertex_of(p) for p in sup},
            )
            assert T.ts_free_product(fp := model, (), end, sup) == T.solve_exact(i).length

    def test_walk_matches_value(self, fp82):
        rng = random.Random(5)
        ball = Gr.cayley_ball(fp82, 4)
        gens = set(fp82.gens)
        for _ in range(40):
            pool = [p for p in ball.elements if fp82.length_payload(p) <= 2]
            sup = rng.sample(pool, rng.randint(1, 4))
            end = rng.choice(sup + [()])
            val = T.ts_free_product(fp82, (), end, sup)
            cost, walk = T.ts_free_product_walk(fp82, (), end, sup)
            assert cost == val
            assert walk[0] == () and walk[-1] == fp82.normalize_payload(end)
            for a, b in zip(walk, walk[1:]):
                assert fp82.mul_payload(fp82.inv_payload(a), b) in gens
            for p in sup:
                assert fp82.normalize_payload(p) in walk

    def test_memo_key_ignores_order_of_required(self, fp82):
        positions = G.PositionTable(fp82)
        sup = [((0, 2),), ((0, 4), (1, 1)), ((0, 4), (1, 1), (0, 3)), ((1, 1),), ((0, 7),)]
        end = ((0, 4), (1, 1))
        ids = [positions.intern(p) for p in sup]
        memo = {}
        value = T._ts_fp(positions, 0, positions.intern(end), ids, memo)
        keys = set(memo)
        again = T._ts_fp(positions, 0, positions.intern(end), ids[::-1], memo)
        assert again == value == T.ts_free_product(fp82, (), end, sup)
        assert set(memo) == keys

    def test_ends_of_one_required_set(self, fp82):
        # one call splits the required set once and prices many ends, which
        # reuse the closed sums and petal tails of their leaving stations,
        # against a fresh ts_free_product per end; base is added to each
        rng = random.Random(5)
        ball = Gr.cayley_ball(fp82, 4)
        pool = list(ball.elements)
        for base in range(30):
            sup = rng.sample(pool, rng.randint(0, 6))
            ends = rng.sample(pool, 12)
            positions, memo = G.PositionTable(fp82), {}
            required = frozenset(map(positions.intern, sup))
            got = T.ts_free_product_ends(positions, required, [positions.intern(e) for e in ends], memo, base)
            assert got == [base + T.ts_free_product(fp82, (), e, sup) for e in ends]

    def test_factor_rows_apart_from_sub_excursions(self, fp82):
        # a dive with an empty required set is memoised under (factor, end
        # id); a factor TS row whose station mask equals that id must not
        # meet its entry, whichever of the two is computed first
        positions = G.PositionTable(fp82)
        end = [positions.intern(((0, x),)) for x in range(1, 6)][-1]
        assert end == 5  # as a mask of the Z/8 copy: stations 0 and 2

        def dive(memo):
            return T._ts_fp(positions, 0, end, (), memo)

        def row(memo):
            return T._factor_ts_edges(fp82, 0, 6, end, memo)

        want = (dive({}), row({}))
        assert want == (3, 6)
        for first, second in ((dive, row), (row, dive)):
            memo = {}
            first(memo)
            second(memo)
            assert (dive(memo), row(memo)) == want

    def test_translation_invariance(self, fp82):
        sup = [((0, 2),), ((0, 4), (1, 1))]
        shift = ((1, 1), (0, 3))
        base = T.ts_free_product(fp82, (), ((0, 4),), sup)
        shifted = T.ts_free_product(
            fp82,
            shift,
            fp82.mul_payload(shift, ((0, 4),)),
            [fp82.mul_payload(shift, p) for p in sup],
        )
        assert base == shifted
