"""Acceptance suite: one test per criterion, each printing a PASS line.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
The two free-product growth checks that are out of exhaustive desk-scale
reach use exactly verified witness elements in place of full-ball maxima;
every witness depth below is computed by the exact multiplier-ball search.
"""

import itertools
import random
import time

import pytest

from lamplighter import graphs as Gr, groups as G, hamiltonian as H, tsp as T, wreath as W
from oracles import brute_force_oracle


def report(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS — {message}", flush=True)


@pytest.fixture(scope="module")
def lamps():
    return G.make_cyclic(2, [1], letter="a")


@pytest.fixture(scope="module")
def fp82_model(lamps):
    base = G.make_free_product(G.make_cyclic(8, [1]), G.make_cyclic(2, [1], letter="c"))
    return W.LamplighterModel(lamps, base)


@pytest.fixture(scope="module")
def fp82_profile_r12(fp82_model):
    return W.depth_profile(fp82_model, 12, 22)


def test_c01_cyclic_hamiltonian_difference():
    t0 = time.time()
    for n in range(3, 17):
        value = H.hamiltonian_difference(G.make_cyclic(n, [1]))
        assert value == n // 2 - 2, (n, value)
    elapsed = time.time() - t0
    assert elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s"
    report(1, f"H(Z/nZ,{{±1}}) = floor(n/2)-2 for n=3..16 in {elapsed:.2f}s")


def test_c02_section51_example(fp82_profile_r12):
    rep = W.theorem_b_verdict(G.make_cyclic(8, [1]), G.make_cyclic(2, [1], letter="c"))
    assert rep.uniformly_bounded and rep.total == 1
    prof = fp82_profile_r12
    assert prof.complete and prof.radius >= 12
    assert all(r.depth_exact for r in prof.rows)
    md = prof.max_depth()
    assert md <= 21
    report(2, f"verdict bounded with sum 1; radius-12 profile of "
              f"{len(prof.rows)} elements has max depth {md} <= 21")


def test_c03_theorem_dichotomy(lamps, fp82_profile_r12):
    cyc = lambda n, l="b": G.make_cyclic(n, [1], letter=l)
    pairs = {
        (2, 2): False,
        (4, 4): False,
        (4, 6): True,
        (8, 2): True,
    }
    for (a, b), bounded in pairs.items():
        rep = W.theorem_b_verdict(cyc(a), cyc(b, "c"))
        assert rep.uniformly_bounded == bounded, (a, b, rep)

    notes = []

    # (Z/2, Z/2): full profiles; max depth strictly increases across
    # three successive enumeration radii.
    dinf = W.LamplighterModel(lamps, G.make_free_product(cyc(2), cyc(2, "c")))
    radii22 = (1, 7, 13)
    values22 = [W.depth_profile(dinf, r, 8).max_depth() for r in radii22]
    assert values22[0] < values22[1] < values22[2], values22
    notes.append(f"(2,2) full profiles {dict(zip(radii22, values22))}")

    # (Z/4, Z/4): the ball grows ~2.6x per radius and the first dead end has
    # word length 13, so radii beyond 10 are out of exhaustive reach; the
    # later radii use exactly verified witness elements (lower bounds for
    # the ball maxima), per the desk-scale substitution note.
    fp44 = W.LamplighterModel(lamps, G.make_free_product(cyc(4), cyc(4, "c")))
    exhaustive = W.depth_profile(fp44, 8, 6)
    assert exhaustive.complete and exhaustive.max_depth() == 0

    g13 = fp44.state(
        {(): 1, ((0, 1),): 1, ((0, 2),): 1, ((0, 3),): 1, ((0, 2), (1, 2)): 1},
        ((0, 2),),
    )
    wl13 = W.word_length(fp44, g13)
    rep13 = W.depth(fp44, g13, 6)
    assert wl13.value == 13 and rep13.depth == 2 and rep13.depth_exact

    ball3 = Gr.cayley_ball(fp44.base, 3)
    g103 = fp44.state({p: 1 for p in ball3.elements}, ())
    wl103 = W.word_length(fp44, g103)
    rep103 = W.depth(fp44, g103, 8)
    assert wl103.value == 103 and rep103.depth == 4 and rep103.depth_exact

    ladder44 = [(8, 0), (13, 2), (103, 4)]
    assert ladder44[0][1] < ladder44[1][1] < ladder44[2][1]
    notes.append("(4,4) exhaustive r8=0, witnesses depth 2 @13 and depth 4 @103")

    # bounded pairs plateau under the module-computed constant
    fp46 = W.LamplighterModel(lamps, G.make_free_product(cyc(4), cyc(6, "c")))
    c46 = W.bounded_depth_constant(cyc(4), cyc(6, "c"))
    values46 = [W.depth_profile(fp46, r, 8).max_depth() for r in (6, 7, 8)]
    assert values46[-1] == values46[-2] and all(v <= c46 for v in values46)
    notes.append(f"(4,6) plateau {values46} <= {c46}")

    c82 = W.bounded_depth_constant(cyc(8), cyc(2, "c"))
    fp82 = W.LamplighterModel(lamps, G.make_free_product(cyc(8), cyc(2, "c")))
    v10 = W.depth_profile(fp82, 10, 22).max_depth()
    v11 = W.depth_profile(fp82, 11, 22).max_depth()
    v12 = fp82_profile_r12.max_depth()
    assert v10 == v11 == v12 and v12 <= c82
    notes.append(f"(8,2) plateau [{v10}, {v11}, {v12}] <= {c82}")
    report(3, "verdicts (unbounded, unbounded, bounded, bounded); " + "; ".join(notes))


def test_c04_prop33_biconditional(lamps):
    model = W.LamplighterModel(lamps, G.make_free(1, "t"))
    free = model.base
    ball = [free.normalize_payload((1,) * k if k >= 0 else (-1,) * -k) for k in range(-3, 4)]

    def hull_edges(words):
        return T._tree_edge_set([w for w in words])

    mismatches = 0
    total = 0
    for bits in itertools.product([0, 1], repeat=7):
        support = [ball[i] for i in range(7) if bits[i]]
        for pos in ball:
            state = model.state({k: 1 for k in support}, pos)
            total += 1
            observed = W.is_dead_end(model, state)
            lamp_at_pos_deep = pos in support  # f(x) = a, the deep element
            hull = hull_edges(support)
            edges_at_pos = set()
            for s in ((1,), (-1,)):
                nxt = free.mul_payload(pos, s)
                edges_at_pos.add(max(pos, nxt, key=len))
            covered = edges_at_pos <= hull
            expected = lamp_at_pos_deep and covered and pos == ()
            if observed != expected:
                mismatches += 1
    assert mismatches == 0
    report(4, f"dead-end biconditional exact on all {total} configurations")


def test_c05_word_length_oracle_equivalence(lamps):
    t0 = time.time()
    bases = {
        "Z": G.make_abelian(1, [], [[1]]),
        "F2": G.make_free(2),
        "Z^2": G.make_abelian(2, [], [[1, 0], [0, 1]]),
        "Z2*Z2": G.make_free_product(G.make_cyclic(2, [1]), G.make_cyclic(2, [1], letter="c")),
        "Z8*Z2": G.make_free_product(G.make_cyclic(8, [1]), G.make_cyclic(2, [1], letter="c")),
    }
    counts = {}
    for name, base in bases.items():
        model = W.LamplighterModel(lamps, base)
        assert model.strategy != "generic", name
        dist, complete = W.enumerate_ball(model, 6)
        assert complete
        for g, L in dist.items():
            value = W.word_length(model, g).value
            assert value == L, (name, model.state_str(g), value, L)
        counts[name] = len(dist)
    elapsed = time.time() - t0
    assert elapsed < 600
    report(5, f"formula == BFS distance on radius-6 balls {counts} in {elapsed:.0f}s")


def test_c06_tsp_cross_validation():
    rng = random.Random(0xACCE55)
    trials = 0
    while trials < 500:
        n = rng.randint(2, 10)
        edges = {(i, rng.randrange(i)) for i in range(1, n)}
        for _ in range(rng.randint(0, n)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges.add((max(u, v), min(u, v)))
        g = Gr.from_edges(n, sorted(edges))
        req = frozenset(rng.sample(range(n), rng.randint(1, min(n, 8))))
        inst = T.TspInstance(g, rng.randrange(n), rng.randrange(n), req)
        fast = T.solve_exact(inst)
        slow = brute_force_oracle(inst, 44)
        assert fast.length == slow.length, sorted(edges)
        trials += 1
    report(6, "solve_exact == brute-force oracle on 500 randomized instances")


def test_c07_grid_spanning_bounds():
    t0 = time.time()
    pairs = 0
    for m1 in range(2, 7):
        for m2 in range(2, 7):
            g = Gr.cube_graph([m1, m2])
            coords = [g.labels[i] for i in range(g.n)]
            check_min = m1 * m2 <= 12
            for s in coords:
                for t in coords:
                    walk = H.grid_spanning_path(m1, m2, s, t)
                    assert walk[0] == s and walk[-1] == t
                    assert len(walk) <= m1 * m2 + 2
                    assert set(walk) == set(coords)
                    for a, b in zip(walk, walk[1:]):
                        assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1
                    pairs += 1
                    if check_min:
                        si = (s[0] - 1) * m2 + (s[1] - 1)
                        ti = (t[0] - 1) * m2 + (t[1] - 1)
                        opt = T.solve_exact(
                            T.TspInstance(g, si, ti, frozenset(range(g.n)))
                        )
                        assert len(walk) == opt.length + 1, (m1, m2, s, t)
    report(7, f"{pairs} endpoint pairs within |V|+2; minimality oracle-checked "
              f"for |V|<=12 in {time.time()-t0:.0f}s")


def test_c08_cube_of_graph():
    rng = random.Random(1729)
    failures = 0
    for trial in range(200):
        n = rng.randint(2, 12)
        edges = [(i, rng.randrange(i)) for i in range(1, n)]
        if trial % 2:
            for _ in range(rng.randint(0, 4)):
                u, v = rng.randrange(n), rng.randrange(n)
                if u != v:
                    edges.append((max(u, v), min(u, v)))
        g = Gr.from_edges(n, edges)
        u, v = rng.sample(range(n), 2)
        path = H.cube3_hamiltonian_path(g, u, v)
        ok = (
            path[0] == u
            and path[-1] == v
            and sorted(path) == list(range(n))
            and all(g.distances_from(a)[b] <= 3 for a, b in zip(path, path[1:]))
        )
        failures += not ok
    assert failures == 0
    report(8, "valid Hamiltonian paths in the cube on 200 random graphs")


def _abelian_tables_3_to_12():
    tables = [G.cyclic_table(n) for n in range(3, 13)]
    tables.append(G.abelian_table([2, 2]))
    tables.append(G.abelian_table([2, 4]))
    tables.append(G.abelian_table([2, 2, 2]))
    tables.append(G.abelian_table([3, 3]))
    tables.append(G.abelian_table([2, 6]))
    return tables


def test_c09_chen_quimpo_desk_check():
    t0 = time.time()
    graphs_checked = 0
    for table in _abelian_tables_3_to_12():
        classes = {}
        for x in range(table.order):
            if x == table.identity:
                continue
            classes.setdefault(min(x, table.inv[x]), None)
        reps = sorted(classes)
        for r in range(1, len(reps) + 1):
            for combo in itertools.combinations(reps, r):
                try:
                    model = G.FiniteModel(table, list(combo))
                except ValueError:
                    continue
                graph = Gr.finite_cayley_graph(model)
                graphs_checked += 1
                if graph.is_cycle_graph():
                    continue
                rep = H.analyze(graph)
                assert rep.hamiltonian_connected or (
                    rep.bipartite and rep.hamiltonian_laceable
                ), (table.name, combo)
                assert H.hamiltonian_difference(model) <= 0, (table.name, combo)
    report(9, f"{graphs_checked} Cayley graphs: cycle, Hamiltonian-connected, "
              f"or bipartite+laceable; H <= 0 off cycles ({time.time()-t0:.0f}s)")


def test_c10_qh_certificates_and_refutations():
    z2 = G.make_abelian(2, [], [[1, 0], [0, 1]])
    cert = H.qh_certificate(z2, 2, M=2)
    assert [w.n for w in cert.witnesses] == [1, 2]
    assert all(w.max_excess <= 2 for w in cert.witnesses)
    H.verify_qh_certificate(z2, cert)

    z12 = G.make_abelian(1, [], [[1], [2]])
    cert2 = H.qh_certificate(z12, 3, M=1, strategy="ball-exact")
    assert all(w.max_excess <= 1 for w in cert2.witnesses)  # the paper's |F|+1
    H.verify_qh_certificate(z12, cert2)

    line = H.qh_certificate(G.make_abelian(1, [], [[1]]), 4)
    assert [row[3] for row in line.rows] == [1, 3, 5, 7]  # excess 2n-1

    free = H.qh_certificate(G.make_free(2), 3)
    closed_excesses = [row[3] for row in free.rows]
    assert all(a < b for a, b in zip(closed_excesses, closed_excesses[1:]))
    for n, size, _closed, _exc, ts_min, _exc_min in free.rows:
        assert ts_min + 1 >= n + size  # vertex-convention ball lower bound
    report(10, "certificates M<=2 for (Z^2,std) n<=2 and M<=1 for (Z,{±1,±2}) "
               "n<=3; excess tables 2n-1 on the line and growing on F(a,b)")


def test_c11_example58_positions(lamps):
    base = G.make_free_product(G.make_cyclic(4, [1]), G.make_cyclic(4, [1], letter="c"))
    model = W.LamplighterModel(lamps, base)
    Hc = lambda i: (0, i)
    Kc = lambda i: (1, i)

    spine_b2 = {(): 1, (Hc(1),): 1, (Hc(2),): 1, (Hc(3),): 1,
                (Hc(2), Kc(1)): 1, (Hc(2), Kc(2)): 1, (Hc(2), Kc(3)): 1}
    spine_c2 = {(): 1, (Kc(1),): 1, (Kc(2),): 1, (Kc(3),): 1,
                (Kc(2), Hc(1)): 1, (Kc(2), Hc(2)): 1, (Kc(2), Hc(3)): 1}
    spine_b2c2 = dict(spine_b2)
    for h in (1, 2, 3):
        spine_b2c2[(Hc(2), Kc(2), Hc(h))] = 1

    cases = [
        ((Hc(2),), spine_b2, 2),
        ((Kc(2),), spine_c2, 2),
        ((Hc(2), Kc(2)), spine_b2c2, 4),
    ]
    found = []
    for pos, config, pos_len in cases:
        assert base.length_payload(base.normalize_payload(pos)) == pos_len
        state = model.state(config, pos)
        assert W.is_dead_end(model, state), model.state_str(state)
        rep = W.depth(model, state, 4)
        assert rep.depth >= 1
        found.append((model.base.payload_str(base.normalize_payload(pos)), rep.depth))
    report(11, f"dead ends at positions {found} (word lengths 2, 2, 4)")
