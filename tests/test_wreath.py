"""Wreath products: word lengths, dead ends, depth, verdict machinery."""

import bisect
import csv
import hashlib
import io
import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from lamplighter import cli, graphs as Gr, groups as G, tsp as T, wreath as W
from lamplighter.errors import ResourceCapError, VerificationError
from lamplighter.limits import CAPS
from oracles import FiniteGroupTable, TableModel, abelian_table, cyclic_table

line_states = st.builds(
    lambda lamps, pos: (tuple(sorted(((k,), 1) for k in lamps)), (pos,)),
    st.sets(st.integers(-2, 2), max_size=3),
    st.integers(-2, 2),
)


@pytest.fixture(scope="module")
def z2_lamps():
    return G.make_cyclic(2, [1], letter="a")


@pytest.fixture(scope="module")
def ll_line(z2_lamps):
    return W.LamplighterModel(z2_lamps, G.make_abelian(1, [], [[1]]))


@pytest.fixture(scope="module")
def ll_tree(z2_lamps):
    return W.LamplighterModel(z2_lamps, G.make_free(1, "t"))


@pytest.fixture(scope="module")
def ll_fp82(z2_lamps):
    base = G.make_free_product(G.make_cyclic(8, [1]), G.make_cyclic(2, [1], letter="c"))
    return W.LamplighterModel(z2_lamps, base)


class TestWreathLaw:
    def test_identity_neutral(self, ll_line):
        g = ll_line.state({(2,): 1}, (1,))
        assert ll_line.multiply(g, ll_line.identity_state()) == g
        assert ll_line.multiply(ll_line.identity_state(), g) == g

    def test_lamp_toggles_off(self, ll_line):
        d = ll_line.state({(0,): 1}, (0,))
        assert ll_line.multiply(d, d) == ll_line.identity_state()

    def test_translation_of_support(self, ll_line):
        a = ll_line.state({(0,): 1}, (1,))
        b = ll_line.state({(0,): 1}, (0,))
        prod = ll_line.multiply(a, b)
        assert prod == ll_line.state({(0,): 1, (1,): 1}, (1,))

    def test_inverse(self, ll_fp82):
        g = ll_fp82.state({((0, 3),): 1, (): 1}, ((0, 2), (1, 1)))
        assert ll_fp82.multiply(g, ll_fp82.invert(g)) == ll_fp82.identity_state()

    @given(line_states, line_states, line_states)
    def test_associative(self, ll_line, a, b, c):
        lhs = ll_line.multiply(ll_line.multiply(a, b), c)
        rhs = ll_line.multiply(a, ll_line.multiply(b, c))
        assert lhs == rhs

    @given(line_states, line_states)
    def test_length_subadditive(self, ll_line, a, b):
        la = W.word_length(ll_line, a).value
        lb = W.word_length(ll_line, b).value
        lab = W.word_length(ll_line, ll_line.multiply(a, b)).value
        assert lab <= la + lb


def _neighbors(model, g):
    """g times each generator, through the interned generator action."""
    return [model._decode(t) for t in model._steps(model._encode(g))]


class TestNeighbors:
    def test_identity_neighbors(self, ll_line):
        nbrs = _neighbors(ll_line, ll_line.identity_state())
        assert len(nbrs) == 3  # lamp-on, shift left, shift right

    def test_neighbor_count_bound(self, ll_fp82):
        g = ll_fp82.state({(): 1}, ((0, 1),))
        assert len(_neighbors(ll_fp82, g)) <= 1 + 3

    def test_bipartite_length_steps(self, ll_fp82):
        # Cay(Z8*Z2) has no odd cycles, so every step changes length by 1
        rng = random.Random(4)
        ball_items = list(W.enumerate_ball(ll_fp82, 5)[0].items())
        for g, L in rng.sample(ball_items, 40):
            for h in _neighbors(ll_fp82, g):
                lh = W.word_length(ll_fp82, h).value
                assert abs(lh - L) == 1


class TestWordLength:
    def test_identity(self, ll_line):
        assert W.word_length(ll_line, ll_line.identity_state()).value == 0

    def test_two_lamps_around_origin(self, ll_line):
        g = ll_line.state({(-1,): 1, (1,): 1}, (0,))
        assert W.word_length(ll_line, g).value == 6

    def test_free_rank2_ball_lamps(self, z2_lamps):
        model = W.LamplighterModel(z2_lamps, G.make_free(2))
        keys = [(), (1,), (-1,), (2,), (-2,)]
        g = model.state({k: 1 for k in keys}, ())
        assert W.word_length(model, g).value == 13

    def test_position_named_twice_is_refused(self, z2_lamps):
        # (1, -1, 2) and (2,) are both the word b of F2: one lamp, not two
        model = W.LamplighterModel(z2_lamps, G.make_free(2))
        assert model.state({(1, -1, 2): 1}, ()) == model.state({(2,): 1}, ())
        with pytest.raises(ValueError, match="lamp position b is named twice"):
            model.state({(1, -1, 2): 1, (2,): 1}, ())

    def test_generic_backend_upper_bound(self, z2_lamps):
        # king's-move generators: not standard, so only the generic strategy
        model = W.LamplighterModel(
            z2_lamps,
            G.make_abelian(2, [], [[1, 0], [0, 1], [1, 1], [1, -1]]),
        )
        assert model.strategy == "generic"
        g = model.state({(1, 1): 1}, (0, 0))
        res = W.word_length(model, g)
        assert res.value == 3 and not res.exact

    def test_ts_walk_all_backends(self, ll_line, ll_tree, ll_fp82):
        for model in (ll_line, ll_tree, ll_fp82):
            e = model.base.identity_payload()
            keys = [model.base.gens[0], e]
            pos = model.base.gens[0]
            walk = W.ts_walk(model, pos, keys)
            assert walk[0] == e and walk[-1] == pos
            gens = set(model.base.gens)
            for a, b in zip(walk, walk[1:]):
                assert model.base.mul_payload(model.base.inv_payload(a), b) in gens


class TestOracleEquivalence:
    @pytest.mark.parametrize("base_key", ["line", "tree2", "z2", "d_inf", "fp82"])
    def test_formula_matches_bfs_radius_four(self, base_key, z2_lamps):
        bases = {
            "line": G.make_abelian(1, [], [[1]]),
            "tree2": G.make_free(2),
            "z2": G.make_abelian(2, [], [[1, 0], [0, 1]]),
            "d_inf": G.make_free_product(
                G.make_cyclic(2, [1]), G.make_cyclic(2, [1], letter="c")
            ),
            "fp82": G.make_free_product(
                G.make_cyclic(8, [1]), G.make_cyclic(2, [1], letter="c")
            ),
        }
        model = W.LamplighterModel(z2_lamps, bases[base_key])
        assert model.strategy != "generic"
        dist, complete = W.enumerate_ball(model, 4)
        assert complete
        for g, L in dist.items():
            assert W.word_length(model, g).value == L


class TestDeadEnds:
    def test_identity_is_not(self, ll_tree):
        assert not W.is_dead_end(ll_tree, ll_tree.identity_state())

    def test_prop33_witness(self, ll_tree):
        w = W.cleary_taback_witness(ll_tree, 1)
        assert W.is_dead_end(ll_tree, w)

    def test_prop33_shifted_position_fails(self, ll_tree):
        g = ll_tree.state({(-1,): 1, (): 1, (1,): 1}, (1,))
        assert not W.is_dead_end(ll_tree, g)

    def test_depth_of_identity(self, ll_tree):
        rep = W.depth(ll_tree, ll_tree.identity_state(), 5)
        assert rep.depth == 0 and rep.depth_exact

    def test_ct_witness_depths_grow(self, ll_tree):
        depths = []
        for n in (1, 2):
            rep = W.depth(ll_tree, W.cleary_taback_witness(ll_tree, n), 2 * n + 3)
            assert rep.depth_exact
            depths.append(rep.depth)
        assert depths == [2, 4]

    def test_ct_witness_words(self, ll_tree):
        # the first word (BFS order) whose product leaves the sphere
        rep = W.depth(ll_tree, W.cleary_taback_witness(ll_tree, 1), 5)
        assert rep.witness == ("B:t", "B:t", "A:a")
        rep = W.depth(ll_tree, W.cleary_taback_witness(ll_tree, 2), 7)
        assert rep.witness == ("B:t", "B:t", "B:t", "A:a", "B:t")

    def test_depth_monotone_in_kmax(self, ll_tree):
        w = W.cleary_taback_witness(ll_tree, 2)
        reported = [W.depth(ll_tree, w, k).depth for k in (1, 2, 3, 4, 5)]
        assert reported == sorted(reported)

    def test_retreat_at_most_depth(self, ll_tree):
        for n in (1, 2):
            w = W.cleary_taback_witness(ll_tree, n)
            rep = W.depth(ll_tree, w, 2 * n + 3)
            rd, exact = W.retreat_depth(ll_tree, w, rep.depth)
            assert exact and rd <= rep.depth

    def test_retreat_cap_error_names_cap_and_k(self, ll_tree, monkeypatch):
        w = W.cleary_taback_witness(ll_tree, 2)
        assert W.retreat_depth(ll_tree, w, 4) == (2, True)
        monkeypatch.setitem(CAPS, "RETREAT_SEARCH_CAP", 5)
        msg = "^RETREAT_SEARCH_CAP = 5 exceeded at k = 2; retreat depth >= 2$"
        with pytest.raises(ResourceCapError, match=msg):
            W.retreat_depth(ll_tree, w, 4)

    def test_retreat_requires_dead_end(self, ll_tree):
        with pytest.raises(ValueError):
            W.retreat_depth(ll_tree, ll_tree.identity_state(), 3)

    def test_inexact_backend_rejected(self, z2_lamps):
        # Z/2 wr (Z, {±1, ±2}): the generic strategy is the base's only one
        model = W.LamplighterModel(z2_lamps, G.make_abelian(1, [], [[1], [2]]))
        g = model.state({(0,): 1}, (0,))
        for run in (lambda: W.is_dead_end(model, g), lambda: W.depth(model, g, 2),
                    lambda: W.retreat_depth(model, g, 2), lambda: W.depth_profile(model, 2, 1)):
            with pytest.raises(ValueError, match="exact strategy"):
                run()


class TestWitnesses:
    def test_single_lamp(self, ll_tree):
        w = W.cleary_taback_witness(ll_tree, 0)
        assert w == ll_tree.state({(): 1}, ())

    def test_ball_support(self, ll_tree):
        lamps, pos = W.cleary_taback_witness(ll_tree, 1)
        assert pos == () and {k for k, _ in lamps} == {(), (1,), (-1,)}

    def test_explicit_set(self, ll_line):
        w = W.cleary_taback_witness(ll_line, 1, witness_set=[(0,), (1,)])
        assert w == ll_line.state({(0,): 1, (1,): 1}, (0,))

    def test_deep_lamp_tie_break(self):
        lamps = G.make_cyclic(4, [1])
        assert W.deep_lamp_element(lamps) == 2


class TestVerdicts:
    def test_section_5_1(self):
        rep = W.theorem_b_verdict(G.make_cyclic(8, [1]), G.make_cyclic(2, [1], letter="c"))
        assert rep.uniformly_bounded and rep.total == 1

    def test_small_pairs(self):
        pairs = {
            (2, 2): False,
            (4, 4): False,
            (4, 6): True,
            (8, 2): True,
            (7, 5): True,
        }
        for (a, b), bounded in pairs.items():
            rep = W.theorem_b_verdict(
                G.make_cyclic(a, [1]), G.make_cyclic(b, [1], letter="c")
            )
            assert rep.uniformly_bounded == bounded, (a, b)

    def test_classifier_cases(self):
        c = W.classify_abelian_free_product
        assert c(G.make_cyclic(2, [1]), G.make_cyclic(8, [1], letter="c")) == ("2a", True)
        assert c(G.make_cyclic(4, [1]), G.make_cyclic(6, [1], letter="c")) == ("4a", True)
        assert c(G.make_cyclic(6, [1]), G.make_cyclic(4, [1], letter="c")) == ("4b", True)
        assert c(G.make_cyclic(2, [1]), G.make_cyclic(3, [1], letter="c")) == ("2b", False)

    def test_classifier_rejects_nonabelian(self):
        # smallest nonabelian group: S3 as a table
        import itertools as it

        perms = list(it.permutations(range(3)))
        index = {p: i for i, p in enumerate(perms)}
        mul = tuple(
            tuple(index[tuple(p[q[i]] for i in range(3))] for q in perms) for p in perms
        )
        inv = tuple(index[tuple(sorted(range(3), key=lambda i: p[i]))] for p in perms)
        table = FiniteGroupTable(6, mul, index[(0, 1, 2)], inv, name="S3")
        s3 = TableModel(table, [index[(1, 0, 2)], index[(1, 2, 0)]])
        with pytest.raises(ValueError):
            W.classify_abelian_free_product(s3, G.make_cyclic(2, [1]))

    def test_agreement_with_theorem_b(self):
        # every abelian Cayley-graph pair with orders <= 10 (all gensets)
        import lamplighter.hamiltonian as H

        models = _abelian_models_with_gensets(max_order=10)
        h_of = {id(m): H.hamiltonian_difference(m) for m in models}
        for a in models:
            for b in models:
                bounded = h_of[id(a)] + h_of[id(b)] >= 1
                case, claimed = W.classify_abelian_free_product(a, b)
                assert claimed == bounded, (a.name, b.name, case)


def _abelian_models_with_gensets(max_order):
    tables = []
    for n in range(2, max_order + 1):
        tables.append(cyclic_table(n))
    if max_order >= 4:
        tables.append(abelian_table([2, 2]))
    if max_order >= 8:
        tables.append(abelian_table([2, 4]))
        tables.append(abelian_table([2, 2, 2]))
    if max_order >= 9:
        tables.append(abelian_table([3, 3]))
    models = []
    for t in tables:
        classes = {}
        for x in range(t.order):
            if x == t.identity:
                continue
            rep = min(x, t.inv[x])
            classes.setdefault(rep, x)
        reps = sorted(classes)
        for r in range(1, len(reps) + 1):
            for combo in itertools.combinations(reps, r):
                try:
                    models.append(TableModel(t, list(combo)))
                except ValueError:
                    pass
    return models


@pytest.fixture(scope="module")
def ll_oct(z2_lamps):
    return W.LamplighterModel(z2_lamps, G.make_cyclic(8, [1]))


class TestFiniteBase:
    """Lamplighters over a finite base: depth is dominated by the lamps."""

    def test_backend_is_exact(self, ll_oct):
        assert ll_oct.strategy == "finite"

    def test_group_is_finite_with_known_diameter(self, ll_oct):
        dist, complete = W.enumerate_ball(ll_oct, 20)
        assert complete and len(dist) == 2 ** 8 * 8
        assert max(dist.values()) == 18  # 8 lamps + (8 + 8//2 - 2)

    def test_formula_matches_bfs(self, ll_oct):
        dist, _ = W.enumerate_ball(ll_oct, 20)
        for g, L in dist.items():
            assert W.word_length(ll_oct, g).value == L

    def test_depth_maximum_is_fully_lit_ts_max(self, ll_oct):
        # the profile's deepest element has every lamp lit and sits at the
        # TS-maximizing position; its depth never resolves (infinite depth)
        prof = W.depth_profile(ll_oct, 18, 10)
        deepest = [r for r in prof.rows if r.depth == prof.max_depth()]
        assert len(deepest) == 1
        row = deepest[0]
        assert row.element_id == "a@e+a@b+a@b2+a@b3+a@b4+a@b5+a@b6+a@b7;b4"
        assert not row.depth_exact  # lower bound only: depth exceeds k_max


class TestBoundedConstant:
    def test_formula(self):
        c = W.bounded_depth_constant(G.make_cyclic(8, [1]), G.make_cyclic(2, [1], letter="c"))
        assert c == 41


class TestDepthProfile:
    def test_radius_zero(self, ll_tree):
        prof = W.depth_profile(ll_tree, 0, 3)
        assert len(prof.rows) == 1 and prof.rows[0].depth == 0

    def test_line_radius_seven(self, ll_tree):
        prof = W.depth_profile(ll_tree, 7, 6)
        shells = prof.max_depth_per_shell()
        assert shells[7] == 2  # the radius-1 witness tops shell 7
        assert all(shells[i] == 0 for i in range(7))

    def test_partial_flagged(self, ll_fp82):
        prof = W.depth_profile(ll_fp82, 8, 4, cap=500)
        assert not prof.complete

    def test_fp82_small_dead_end_landscape(self, ll_fp82):
        prof = W.depth_profile(ll_fp82, 8, 6)
        assert prof.complete and prof.max_depth() == 0

    def test_state_roundtrip_via_str(self, ll_fp82):
        g = ll_fp82.state({((0, 3),): 1, (): 1}, ((0, 2),))
        s = ll_fp82.state_str(g)
        assert s == "a@e+a@b3;b2"


# -- petal backend: normal-form entry vs public entry vs ball TSP ------------

FREE_PRODUCTS = {"Z8*Z2": (8, 2), "Z3*Z4": (3, 4)}


def _free_product(orders):
    H, K = orders
    return G.make_free_product(G.make_cyclic(H, [1]), G.make_cyclic(K, [1], letter="c"))


@st.composite
def fp_words(draw, orders, max_syllables=3, min_syllables=0):
    """Normal-form word: alternating factors, no identity letters."""
    f = draw(st.integers(0, 1))
    word = []
    for _ in range(draw(st.integers(min_syllables, max_syllables))):
        word.append((f, draw(st.integers(1, orders[f] - 1))))
        f = 1 - f
    return tuple(word)


@st.composite
def petal_cases(draw, key):
    """(orders, support, position, shift, letter-splitting seed)."""
    orders = FREE_PRODUCTS[key]
    support = draw(st.lists(fp_words(orders), min_size=1, max_size=5, unique=True))
    pos = draw(fp_words(orders))
    shift = draw(fp_words(orders, min_syllables=1))
    return orders, support, pos, shift, draw(st.integers(0, 2**32))


def _spell(model, word, rng):
    """Letters for `word` that are not in normal form: each letter split in
    two, with identity letters strewn in."""
    out = []
    for f, x in word:
        factor = model.factors[f]
        a = rng.randrange(factor.order)
        out += [(f, a), (f, factor.mul_payload(factor.inv_payload(a), x))]
        if rng.random() < 0.3:
            out.append((rng.randrange(2), 0))
    return tuple(out)


_BALLS = {}


def _ball_ts(model, orders, pos, support):
    """TS on a Cayley ball that holds every optimal walk: a walk never leaves
    the factor copies met by the geodesics to its points, so it stays within
    the longest point length plus the larger factor diameter."""
    radius = max(model.length_payload(p) for p in support + [pos]) + max(orders) // 2
    key = (orders, radius)
    if key not in _BALLS:
        _BALLS[key] = Gr.cayley_ball(model, radius)
    ball = _BALLS[key]
    inst = T.TspInstance(
        ball.graph, ball.vertex_of(()), ball.vertex_of(pos),
        frozenset(ball.vertex_of(p) for p in support),
    )
    return T.solve_exact(inst).length


def _petal_ts(ll, support, pos):
    """TS term of the petal word length (each Z/2 lamp costs one)."""
    g = ll.state({p: 1 for p in support}, pos)
    return W.word_length(ll, g).value - len(support)


def _interned_ts(ll, support, pos):
    """The same term from the interned state, as the profile's formula check
    computes it (position ids, id-keyed memo)."""
    s = ll._encode(ll.state({p: 1 for p in support}, pos))
    return W._state_length(ll, s) - len(support)


class _KeptMemo(dict):
    """A petal memo whose clear() does nothing: after depth_profile it holds
    what the last-shell pass left in it, where the profile clears it."""

    def clear(self):
        pass


def _keep_memo(model):
    model._ts_fp_memo = _KeptMemo()
    return model


class TestPetalNormalForm:
    @pytest.mark.parametrize("key", sorted(FREE_PRODUCTS))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_three_way_agreement(self, z2_lamps, key, data):
        orders, support, pos, shift, seed = data.draw(petal_cases(key))
        base = _free_product(orders)
        ll = W.LamplighterModel(z2_lamps, base)
        rng = random.Random(seed)
        moved = [_spell(base, shift + p, rng) for p in support]
        public = T.ts_free_product(
            base, _spell(base, shift, rng), _spell(base, shift + pos, rng), moved
        )
        interned = _interned_ts(W.LamplighterModel(z2_lamps, base), support, pos)
        assert _petal_ts(ll, support, pos) == public == _ball_ts(base, orders, pos, support)
        assert interned == public

    @pytest.fixture(scope="class")
    def profiled(self, z2_lamps):
        out = {}
        for key, orders in FREE_PRODUCTS.items():
            ll = _keep_memo(W.LamplighterModel(z2_lamps, _free_product(orders)))
            W.depth_profile(ll, 6, 3)
            assert ll._ts_fp_memo
            out[key] = ll
        return out

    @pytest.mark.parametrize("key", sorted(FREE_PRODUCTS))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_memo_filled_by_profile(self, z2_lamps, profiled, key, data):
        orders, support, pos, _shift, _seed = data.draw(petal_cases(key))
        fresh = W.LamplighterModel(z2_lamps, _free_product(orders))
        assert _petal_ts(fresh, support, pos) == _petal_ts(profiled[key], support, pos)


class TestPetalMemoKeys:
    """Sub-excursion keys of the petal memo are flat (factor, end id, *ids)
    tuples; the ids are sorted, so one required set has one key whatever
    order its set iterates in."""

    @pytest.mark.parametrize("key", sorted(FREE_PRODUCTS))
    def test_one_key_per_sub_excursion(self, z2_lamps, key):
        ll = _keep_memo(W.LamplighterModel(z2_lamps, _free_product(FREE_PRODUCTS[key])))
        W.depth_profile(ll, 7, 3)
        subs = [k for k in ll._ts_fp_memo if isinstance(k, tuple) and isinstance(k[1], int)]
        assert subs
        named = {(k[0], k[1], frozenset(k[2:])) for k in subs}
        assert len(named) == len(subs)


class TestPetalWalk:
    """word_length_and_walk on the petal backend: the walk of the recursion,
    rebuilt from the model's memo and certified against its value."""

    @pytest.mark.parametrize("key", sorted(FREE_PRODUCTS))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_walk_is_valid_and_matches_value(self, z2_lamps, key, data):
        orders, support, pos, _shift, _seed = data.draw(petal_cases(key))
        base = _free_product(orders)
        ll = W.LamplighterModel(z2_lamps, base)
        g = ll.state({p: 1 for p in support}, pos)
        wl, walk = W.word_length_and_walk(ll, g)
        gens = set(base.gens)
        assert all(base.mul_payload(base.inv_payload(a), b) in gens for a, b in zip(walk, walk[1:]))
        assert walk[0] == () and walk[-1] == pos and set(support) <= set(walk)
        assert wl.value == W.lamp_cost(ll, g) + len(walk) - 1
        assert wl == W.word_length(W.LamplighterModel(z2_lamps, base), g)
        assert walk == T.ts_free_product_walk(base, (), pos, support)[1]

    def test_root_certificate(self, z2_lamps, monkeypatch):
        ll = W.LamplighterModel(z2_lamps, _free_product(FREE_PRODUCTS["Z8*Z2"]))
        g = ll.state({((0, 3),): 1, ((1, 1), (0, 2)): 1}, ((0, 5),))
        exact = T._factor_ts_edges
        monkeypatch.setattr(T, "_factor_ts_edges", lambda *a: exact(*a) + 1)
        with pytest.raises(VerificationError, match="free-product walk has"):
            W.word_length_and_walk(ll, g)


class TestMemoOwner:
    """The lamplighter model owns every word-length memo; its group models
    are never written to."""

    @staticmethod
    def _snapshot(model):
        return [dict(vars(m)) for m in (model, *getattr(model, "factors", ()))]

    @pytest.mark.parametrize("key", sorted(FREE_PRODUCTS))
    def test_free_product_base_untouched(self, z2_lamps, key):
        base = _free_product(FREE_PRODUCTS[key])
        before = self._snapshot(base)
        ll = _keep_memo(W.LamplighterModel(z2_lamps, base))
        g = ll.state({((0, 1),): 1, ((1, 1), (0, 2)): 1}, ((0, 1), (1, 1)))
        assert W.word_length(ll, g).value > 0
        W.word_length_and_walk(ll, g)
        W.depth_profile(ll, 4, 2)
        support = [((0, 1),), ((1, 1), (0, 2))]
        assert T.ts_free_product(base, (), ((1, 1),), support) > 0
        assert T.ts_free_product_walk(base, (), ((1, 1),), support)[0] > 0
        assert ll._ts_fp_memo
        assert self._snapshot(base) == before

    # (base, lamps, position) per strategy: the bases and elements of the
    # CLI's wordlen queries, one base of each variant
    STRATEGY_CASES = {
        "finite": (G.make_cyclic(16, [1]), {2: 1, 4: 1}, 0),
        "box": (G.make_abelian(1, [], [[1]]), {(-1,): 1, (1,): 1}, (0,)),
        "generic": (G.make_abelian(1, [], [[1], [2]]), {(-1,): 1, (1,): 1}, (0,)),
        "tree": (G.make_free(1), {(-1,): 1, (1, 1): 1}, (1,)),
        "petal": (_free_product((8, 2)), {((0, 3),): 1, (): 1, ((1, 1), (0, 2)): 1}, ((0, 5),)),
    }

    @pytest.mark.parametrize("strategy", sorted(STRATEGY_CASES))
    def test_base_and_lamp_models_untouched(self, z2_lamps, strategy):
        # the base fixes the strategy; generic prices any base, flagged as
        # an upper bound and never below the strategy's value
        base, lamps, pos = self.STRATEGY_CASES[strategy]
        before = self._snapshot(base), self._snapshot(z2_lamps)
        ll = W.LamplighterModel(z2_lamps, base)
        assert ll.strategy == strategy
        if strategy != "generic":
            W.depth_profile(ll, 4, 2)
        g = ll.state(lamps, pos)
        value = W.word_length(ll, g)
        bound, _walk = W.word_length_and_walk(ll, g, generic=True)  # generic reads base lengths
        assert value.exact == (strategy != "generic") and not bound.exact
        assert bound.value >= value.value
        assert (self._snapshot(base), self._snapshot(z2_lamps)) == before


class TestOnePricer:
    """word_length prices the interned state of its element, so _state_length
    of that state after it is a hit in the same memo: one TS solve."""

    @pytest.mark.parametrize("base, lamps, pos, owner, solver", [
        (G.make_abelian(2, [], [[1, 0], [0, 1]]), {(1, 0): 1, (0, 2): 1, (-1, 1): 1}, (1, 1),
         W, "_solve_walk"),
        (G.make_cyclic(6, [1]), {2: 1, 4: 1}, 1, W, "_solve_walk"),
        (G.make_free(2), {(1,): 1, (2, -1): 1}, (2,), T, "ts_tree"),
    ], ids=["box", "finite", "tree"])
    def test_word_length_then_state_length_solves_once(self, z2_lamps, monkeypatch,
                                                       base, lamps, pos, owner, solver):
        calls = []
        real = getattr(owner, solver)
        monkeypatch.setattr(owner, solver, lambda *a: calls.append(a) or real(*a))
        ll = W.LamplighterModel(z2_lamps, base)
        g = ll.state(lamps, pos)
        L = W.word_length(ll, g).value
        assert W._state_length(ll, ll._encode(g)) == L
        assert len(calls) == 1


# -- depth profile: lookup on every shell vs a search on every candidate -----


def _payload_ball(model, radius, cap=None):
    """(distances, complete) by a BFS over payload states with multiply and
    generator_states(), a whole shell at a time; the shell that takes the
    ball over the cap is dropped."""
    e = model.identity_state()
    dist, frontier = {e: 0}, [e]
    for d in range(1, radius + 1):
        nxt = []
        for g in frontier:
            for _label, s in model.generator_states():
                h = model.multiply(g, s)
                if h not in dist:
                    dist[h] = d
                    nxt.append(h)
        if cap is not None and len(dist) > cap:
            for h in nxt:
                del dist[h]
            return dist, False
        frontier = nxt
    return dist, True


def _searched_profile(model, radius, k_max, cap=None):
    """The profile with one depth() search on every element that has no
    longer neighbour inside the ball: every dead-end candidate below the last
    shell and every element of the last shell.  The ball comes from the
    payload BFS, not from the interned enumeration."""
    dist, complete = _payload_ball(model, radius, cap)
    reached = max(dist.values())
    rows = []
    for g, L in dist.items():
        nbrs = [model.multiply(g, s) for _label, s in model.generator_states()]
        if L < reached and any(dist.get(h, -1) > L for h in nbrs):
            rows.append(W.ProfileRow(model.state_str(g), L, 0, True))
            continue
        rep = W.depth(model, g, k_max)
        assert rep.word_length == L
        rows.append(W.ProfileRow(model.state_str(g), L, rep.depth, rep.depth_exact))
    rows.sort(key=lambda r: (r.word_length, r.element_id))
    return W.DepthProfile(radius, k_max, tuple(rows), complete)


def _model(key):
    z2 = G.make_cyclic(2, [1], letter="a")
    if key == "fp82":
        return W.LamplighterModel(z2, _free_product((8, 2)))
    if key == "tree":
        return W.LamplighterModel(z2, G.make_free(1, "t"))
    if key == "box_z2":
        return W.LamplighterModel(z2, G.make_abelian(2, [], [[1, 0], [0, 1]]))
    if key == "z2_wr_zxz4":  # torsion: position names are "x;y"
        return W.LamplighterModel(z2, G.make_abelian(1, [4], [[1, 0], [0, 1]]))
    if key == "z3_wr_z4":
        return W.LamplighterModel(G.make_cyclic(3, [1], letter="a"), G.make_cyclic(4, [1]))
    if key == "z_wr_z4":  # unbounded lamps: the lamp-move table grows with the values met
        return W.LamplighterModel(G.make_abelian(1, [], [[1]]), G.make_cyclic(4, [1]))
    raise KeyError(key)


def _row_states(model, rows, L, shell):
    """(row int, interned state) of every state of shell, the states of word
    length L, in row order.  The row int packs L, the rank of the state's
    body among rows.bodies and the rank of its position name among
    rows.names, as ProfileRows does."""
    def row(s):
        lamps, pos = model._decode(s)
        body = bisect.bisect_left(rows.bodies, model._lamps_str(lamps) + ";")
        name = bisect.bisect_left(rows.names, model._base_str(pos))
        return L << rows._shell_shift | body << rows._name_bits | name
    return sorted((row(s), s) for s in shell)


PROFILE_CASES = [
    # (model, radius, k_max, cap)
    ("fp82", 7, 5, None),
    ("tree", 8, 6, None),
    ("box_z2", 5, 3, None),
    ("z3_wr_z4", 30, 4, None),  # finite: the ball saturates below radius 30
    ("z2_wr_zxz4", 6, 3, None),  # position names hold ";", as element ids do
    ("fp82", 8, 4, 500),  # capped: the partial shell is dropped
    ("tree", 9, 5, 700),
    ("fp82", 7, 0, None),  # k_max 0: last-shell rows stay lower bounds
    ("z3_wr_z4", 30, 0, None),
]


class TestProfileLookup:
    @pytest.mark.parametrize("key, radius, k_max, cap", PROFILE_CASES)
    def test_matches_search_on_every_candidate(self, key, radius, k_max, cap):
        got = W.depth_profile(_model(key), radius, k_max, cap=cap)
        want = _searched_profile(_model(key), radius, k_max, cap=cap)
        assert got == want
        assert got.complete == (cap is None)

    @pytest.mark.parametrize("key, radius, k_max, cap", [c for c in PROFILE_CASES if c[2] >= 1])
    def test_searches_only_dead_ends(self, monkeypatch, key, radius, k_max, cap):
        # an element without a longer neighbour is a dead end, and with
        # k_max >= 1 its search reports depth >= 1; no other element is searched
        calls = []
        search = W.depth

        def counting(model, g, k):
            calls.append(g)
            return search(model, g, k)

        monkeypatch.setattr(W, "depth", counting)
        prof = W.depth_profile(_model(key), radius, k_max, cap=cap)
        assert len(calls) == sum(1 for r in prof.rows if r.depth >= 1)

    @pytest.mark.parametrize("key, radius, k_max, cap", [c for c in PROFILE_CASES if c[2] == 0])
    def test_kmax_zero_searches_as_kmax_one(self, monkeypatch, key, radius, k_max, cap):
        # one depth() search per stuck state whatever k_max; with k_max 0 it
        # expands nothing and reports depth >= 0
        calls = {0: [], 1: []}
        search = W.depth
        monkeypatch.setattr(W, "depth", lambda model, g, k: calls[k].append(g) or search(model, g, k))
        prof = W.depth_profile(_model(key), radius, k_max, cap=cap)
        W.depth_profile(_model(key), radius, 1, cap=cap)
        assert len(set(calls[0])) == len(calls[0]) == len(calls[1]) and set(calls[0]) == set(calls[1])
        assert all((rep.depth, rep.depth_exact) == (0, False) for rep in prof.rows.searched.values())

    @pytest.mark.parametrize("key, radius, k_max, cap", [c for c in PROFILE_CASES if c[2] == 0])
    def test_kmax_zero_last_shell_stuck_rows(self, key, radius, k_max, cap):
        # the last shell's rows are lower bounds; those k_max 1 does not
        # search read the one report kept for their shell and hold no entry
        # of their own in searched
        rows = W.depth_profile(_model(key), radius, k_max, cap=cap).rows
        searched = W.depth_profile(_model(key), radius, 1, cap=cap).rows.searched
        reached = rows.keys[-1] >> rows._shell_shift
        lo, hi = rows._shell_range(reached)
        assert hi > lo and rows.searched.keys() == searched.keys()
        assert not any(r.depth_exact for r in rows[lo:hi])

    @pytest.mark.parametrize("key, radius, below", [("fp82", 5, False), ("z3_wr_z4", 30, True)])
    def test_kmax_zero_formula_check(self, monkeypatch, key, radius, below):
        # with k_max 0 nothing is searched, yet the formula is still checked
        # on every last-shell row and on every stuck row below the last shell
        model = _model(key)
        dist, _ = W.enumerate_ball(model, radius)
        reached = max(dist.values())
        off = {g for g, L in dist.items() if (L < reached) == below}
        exact = W._config_lengths

        def off_by_one(m, c, ends):
            return [L + (m._decode(c << 32 | p) in off) for L, p in zip(exact(m, c, ends), ends)]

        monkeypatch.setattr(W, "_config_lengths", off_by_one)
        with pytest.raises(VerificationError, match="formula gives"):
            W.depth_profile(model, radius, 0)

    def test_last_shell_formula_check(self, monkeypatch):
        # off by one on the last shell only: those rows are decided by
        # lookup, yet the formula is still checked on every one of them
        model = _model("fp82")
        dist, _ = W.enumerate_ball(model, 5)
        last = {g for g, L in dist.items() if L == 5}
        exact = W._config_lengths

        def off_on_last(m, c, ends):
            return [L + (m._decode(c << 32 | p) in last) for L, p in zip(exact(m, c, ends), ends)]

        monkeypatch.setattr(W, "_config_lengths", off_on_last)
        with pytest.raises(VerificationError, match="formula gives 6 but BFS distance is 5"):
            W.depth_profile(model, 5, 3)

    def test_last_shell_formula_check_after_first_state(self, monkeypatch):
        # off by one on every state of a configuration but its first: the
        # last shell prices several states per call, the searches one, so
        # only a check of every state of a configuration catches it
        exact = W._config_lengths
        monkeypatch.setattr(
            W, "_config_lengths", lambda m, c, ends: [L + (i > 0) for i, L in enumerate(exact(m, c, ends))]
        )
        with pytest.raises(VerificationError, match="formula gives 6 but BFS distance is 5"):
            W.depth_profile(_model("fp82"), 5, 3)

    @pytest.mark.parametrize("key, radius, k_max, cap", PROFILE_CASES)
    def test_grouped_last_shell_lengths(self, key, radius, k_max, cap):
        # _state_length over the last shell's sorted array, where the states
        # of one lamp configuration come one after another and share its
        # lamp cost and root split, against word_length on a second model,
        # which splits the support on every call
        model, fresh = _model(key), _model(key)
        shells = W._ball_shells(model, radius, cap)[0]
        reached = len(shells) - 1
        got, want = [], []
        for s in shells[reached]:
            got.append(W._state_length(model, s))
            want.append(W.word_length(fresh, model._decode(s)).value)
        assert got == want == [reached] * len(got)

    def test_last_shell_split_once_per_configuration(self, monkeypatch):
        # k_max 0 prices each stuck state in its search, and the last shell
        # grouped by lamp configuration; once the sub-excursion memo is
        # full, every split left is a split of the root copy, one per
        # search and one per last-shell configuration
        model = _keep_memo(_model("fp82"))
        W.depth_profile(model, 7, 0)  # fills the sub-excursion memo
        shells, stuck, _cut = W._ball_shells(model, 7, None)
        configs = {s >> 32 for s in shells[7]}
        splits = []
        split = T._split
        # (factor, end) of every split: the root copy is (0, 0)
        monkeypatch.setattr(T, "_split", lambda *a: splits.append(a[1:3]) or split(*a))
        W.depth_profile(model, 7, 0)
        assert len(configs) < len(shells[7])
        assert splits == [(0, 0)] * (len(stuck) + len(configs))

    @pytest.mark.parametrize("key, radius, k_max, cap", PROFILE_CASES)
    def test_shell_configs_partition_each_shell(self, key, radius, k_max, cap):
        # one sorted array per shell holding every state of the shell once,
        # and in it one run per configuration, against a payload BFS; the
        # stuck states are those with no neighbour one shell further out
        model, oracle = _model(key), _model(key)
        shells, stuck, _cut = W._ball_shells(model, radius, cap)
        dist, _complete = _payload_ball(oracle, radius, cap)
        assert len(shells) == max(dist.values()) + 1
        for L, shell in enumerate(shells):
            want = sorted(model._encode(g) for g, d in dist.items() if d == L)
            assert shell.typecode == "q" and list(shell) == want
        # a neighbour missing from dist lies one shell past the last
        assert stuck == {
            model._encode(g): d for g, d in dist.items()
            if all(dist.get(h, d + 1) != d + 1 for _label, h in _payload_steps(oracle, g))
        }
        # the grouping of the last-shell pass, on every shell: each
        # configuration once, and its position ids give back every state
        # once, in array order
        for shell in shells:
            groups = list(W._config_ends(shell))
            configs = [c for c, _ends in groups]
            assert len(configs) == len(set(configs))
            assert all(0 <= p <= W._POS_MASK for _c, ends in groups for p in ends)
            assert [c << 32 | p for c, ends in groups for p in ends] == list(shell)

    @pytest.mark.parametrize("key, radius, k_max, cap", PROFILE_CASES)
    def test_bodies_from_cached_lamp_strings(self, key, radius, k_max, cap):
        # every body against _lamps_str of the decoded configuration; the
        # cases hold lamp value 2 (z3_wr_z4) and names with ";" (z2_wr_zxz4)
        model = _model(key)
        shells = W._ball_shells(model, radius, cap)[0]
        rows = W.ProfileRows(model, list(enumerate(shells)), {})
        states = [s for shell in shells for s in shell]
        want = sorted({model._lamps_str(model._decode(s)[0]) + ";" for s in states})
        assert rows.bodies == want
        # every row's element id is its state's, so each body sits with
        # its own configuration
        assert sorted(r.element_id for r in rows) == sorted(map(model.state_str, map(model._decode, states)))

    def test_row_keys_fit_in_63_bits(self):
        # word lengths one bit under the limit are packed and read back;
        # one bit more raises instead of wrapping
        model = _model("fp82")
        shells = list(enumerate(W._ball_shells(model, 4, None)[0]))
        shift = W.ProfileRows(model, shells, {})._shell_shift
        top = 1 << 62 - shift
        rows = W.ProfileRows(model, [(top + L, shell) for L, shell in shells], {})
        assert rows.keys.typecode == "q" and list(rows.keys) == sorted(rows.keys)
        assert sorted(r.word_length for r in rows) == sorted(top + L for L, shell in shells for _s in shell)
        with pytest.raises(ResourceCapError, match="need 64 bits"):
            W.ProfileRows(model, [(2 * top + L, shell) for L, shell in shells], {})


def _payload_memo(model):
    """The petal memo of model with position ids read as payloads: its
    sub-excursion values, and the TS rows of each factor."""
    payloads, memo = model._positions.payloads, model._ts_fp_memo
    subs = {
        (k[0], payloads[k[1]], frozenset(map(payloads.__getitem__, k[2:]))): v
        for k, v in memo.items() if isinstance(k, tuple)
    }
    return subs, {f: tables[1] for f, tables in memo.items() if not isinstance(f, tuple)}


class TestLastShellPass:
    """The last shell priced one lamp configuration at a time against a
    second model that prices the same states one at a time."""

    @pytest.mark.parametrize("key, radius, k_max, cap", [c for c in PROFILE_CASES if c[0] == "fp82"])
    def test_memo_and_lengths_as_per_state(self, key, radius, k_max, cap):
        # the oracle runs the profile's searches, then _state_length on
        # every other last-shell state in row order: the memo must end
        # with the same entries, and every last-shell length must be the
        # word length on a third model
        model, oracle, fresh = _keep_memo(_model(key)), _model(key), _model(key)
        prof = W.depth_profile(model, radius, k_max, cap=cap)
        rows = prof.rows
        reached = max(prof.max_depth_per_shell())  # the last shell
        # the shells again: the profiled model has interned all of them, so
        # a second enumeration gives the same state ints
        shells = W._ball_shells(model, radius, cap)[0]
        # the rows of one shell of a k_max 0 profile share one report, which
        # holds no element: every searched state is decoded from its row
        for L, shell in enumerate(shells):
            for k, s in _row_states(model, rows, L, shell):
                if k in rows.searched:
                    W.depth(oracle, model._decode(s), k_max)
        last = _row_states(model, rows, reached, shells[reached])
        # with k_max >= 1 some last-shell row leaves the ball and is depth 0
        # unsearched; with k_max 0 every one is a lower bound
        assert last and (k_max >= 1) == any(rows._row(k)[2:] == (0, True) for k, _s in last)
        for k, s in last:
            g = model._decode(s)
            if k not in rows.searched:
                assert W._state_length(oracle, oracle._encode(g)) == reached
            assert W.word_length(fresh, g).value == reached
        assert _payload_memo(model) == _payload_memo(oracle)
        assert _payload_memo(model)[0]

    def test_rows_built_from_shell_arrays_after_the_memo_is_cleared(self, monkeypatch):
        # the ball's distance dict is gone before the rows are built: they
        # get one sorted array of state ints per shell, and the petal memo
        # the last-shell pass filled is empty by then
        seen = []
        init = W.ProfileRows.__init__

        def spy(rows, model, shells, searched):
            seen.append(([(L, shell.typecode, list(shell)) for L, shell in shells], len(model._ts_fp_memo)))
            init(rows, model, shells, searched)

        monkeypatch.setattr(W.ProfileRows, "__init__", spy)
        model = _model("fp82")
        prof = W.depth_profile(model, 8, 22)
        [(shells, memo_size)] = seen
        assert memo_size == 0 and not model._ts_fp_memo
        assert [L for L, _t, _states in shells] == list(range(9))
        assert all(t == "q" and states == sorted(states) for _L, t, states in shells)
        assert sum(len(states) for _L, _t, states in shells) == len(prof.rows)


# -- profile writers against csv.writer and json.dumps over ProfileRow -------


def _searched_retreat(profile):
    """Retreat values `k`, `>k` and `cap` in turn for the searched rows: the
    rows of depth >= 1 and the lower bounds."""
    searched = [r.element_id for r in profile.rows if r.depth or not r.depth_exact]
    return {e: ("2", ">4", "cap")[i % 3] for i, e in enumerate(searched)}


def _written(profile, retreat, fmt):
    out = io.StringIO()
    write = cli._write_json_profile if fmt == "json" else cli._write_csv_profile
    write(out, profile, retreat)
    return out.getvalue()


def _reference(profile, retreat, fmt):
    """The profile as the writers wrote it from one ProfileRow per row."""
    if fmt == "json":
        rows = [
            {"element": r.element_id, "word_length": r.word_length, "depth": r.depth,
             "depth_exact": r.depth_exact, "retreat_depth": retreat.get(r.element_id)}
            for r in profile.rows
        ]
        doc = {"radius": profile.radius, "k_max": profile.k_max, "complete": profile.complete,
               "max_depth_per_shell": profile.max_depth_per_shell(), "rows": rows}
        return json.dumps(doc, indent=1, sort_keys=True) + "\n"
    out = io.StringIO()
    suffix = "" if profile.complete else ",partial_enumeration"
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["element_id", "word_length", "depth", "retreat_depth", "flags"])
    writer.writerows(
        (r.element_id, r.word_length, r.depth, retreat.get(r.element_id, ""),
         ("exact" if r.depth_exact else "depth_lower_bound") + suffix)
        for r in profile.rows
    )
    for shell, depth in profile.max_depth_per_shell().items():
        out.write(f"# shell {shell} max_depth {depth}\n")
    return out.getvalue()


def _quoting_model():
    """Lamp value `"` and base elements `,`, `,2`, ... beside `e`: some ids
    need quotes in CSV for their body, some for their name, some not at all."""
    return W.LamplighterModel(G.make_cyclic(2, [1], letter='"'), G.make_cyclic(5, [1], letter=","))


class TestProfileWriters:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("block", [W.ROW_BLOCK, 5])
    @pytest.mark.parametrize("key, radius, k_max, cap", PROFILE_CASES + [("quoting", 4, 2, None)])
    def test_same_bytes_as_per_row_writers(self, monkeypatch, key, radius, k_max, cap, block, fmt):
        model = _quoting_model() if key == "quoting" else _model(key)
        profile = W.depth_profile(model, radius, k_max, cap=cap)
        retreat = _searched_retreat(profile)
        monkeypatch.setattr(W, "ROW_BLOCK", block)
        assert _written(profile, retreat, fmt) == _reference(profile, retreat, fmt)

    def test_searched_rows_after_the_first_block(self, monkeypatch):
        profile = W.depth_profile(_model("fp82"), 7, 0)
        rows = list(profile.rows)
        last = [r for r in rows if r.word_length == 7]
        assert len(last) > 3 * 5 and not last[-1].depth_exact
        retreat = _searched_retreat(profile)
        monkeypatch.setattr(W, "ROW_BLOCK", 5)
        assert _written(profile, retreat, "csv") == _reference(profile, retreat, "csv")

    def test_quoting_model_mixes_quoted_and_plain_ids(self):
        profile = W.depth_profile(_quoting_model(), 4, 2)
        text = _written(profile, {}, "csv")
        assert '\n-;e,' in text and '\n"-;,2",' in text and '\n"""@e;e",' in text


# -- the searches against a payload BFS on the group law -------------------


def _payload_steps(model, g):
    """(label, g times the generator) for every generator, by multiply."""
    return [(label, model.multiply(g, s)) for label, s in model.generator_states()]


def _payload_depth(model, g, k_max):
    """(depth, depth_exact, witness) as depth() defines them, by a BFS over
    payload states with multiply and word_length."""
    L = W.word_length(model, g).value
    seen, frontier = {g}, [(g, ())]
    for n in range(1, k_max + 1):
        nxt = []
        for x, word in frontier:
            for label, h in _payload_steps(model, x):
                if h in seen:
                    continue
                seen.add(h)
                if W.word_length(model, h).value > L:
                    return n - 1, True, word + (label,)
                nxt.append((h, word + (label,)))
        frontier = nxt
    return k_max, False, ()


def _payload_dead_end(model, g):
    L = W.word_length(model, g).value
    return all(W.word_length(model, h).value <= L for _label, h in _payload_steps(model, g))


def _payload_retreat(model, g, k_max):
    """retreat_depth() by the same payload BFS, one search per k."""
    L = W.word_length(model, g).value
    for k in range(k_max + 1):
        seen, frontier = {g}, [g]
        while frontier:
            nxt = []
            for x in frontier:
                for _label, h in _payload_steps(model, x):
                    if h in seen:
                        continue
                    lh = W.word_length(model, h).value
                    if lh == L + 1:
                        return k, True
                    if lh >= L - k:
                        seen.add(h)
                        nxt.append(h)
            frontier = nxt
    return k_max + 1, False


class TestSearchesAgainstPayloadBfs:
    def _check(self, model, oracle, g, k_max):
        """The interned searches on model against the payload BFS on oracle,
        a second model of the same group that shares no memo with it."""
        rep = W.depth(model, g, k_max)
        assert (rep.depth, rep.depth_exact, rep.witness) == _payload_depth(oracle, g, k_max)
        dead = W.is_dead_end(model, g)
        assert dead == _payload_dead_end(oracle, g) == (rep.depth >= 1)
        if dead:
            assert W.retreat_depth(model, g, rep.depth) == _payload_retreat(oracle, g, rep.depth)

    @pytest.mark.parametrize("key, radius, k_max, cap", [c for c in PROFILE_CASES if c[2] >= 1])
    def test_every_state_of_the_profile_ball(self, key, radius, k_max, cap):
        # the dead ends of the profile and every other state of its ball
        model, oracle = _model(key), _model(key)
        prof = W.depth_profile(model, radius, k_max, cap=cap)
        dead_ends = {g for _row, g in prof.rows.dead_ends()}
        states = _payload_ball(oracle, radius, cap)[0]
        assert dead_ends <= states.keys()
        for g in states:
            self._check(model, oracle, g, k_max)

    @pytest.mark.parametrize("n", [1, 2])
    def test_cleary_taback_witnesses(self, n):
        model, oracle = _model("tree"), _model("tree")
        self._check(model, oracle, W.cleary_taback_witness(model, n), 2 * n + 3)


# -- interned states: the int kernel against the payload group law ---------

BALL_CASES = [
    # (model, radius, cap)
    ("fp82", 6, None),
    ("tree", 8, None),
    ("box_z2", 4, None),
    ("z3_wr_z4", 30, None),
    ("fp82", 8, 500),
    ("tree", 9, 700),
    ("box_z2", 6, 150),
    ("z3_wr_z4", 30, 200),
]


@st.composite
def walked_states(draw, key):
    """(model, state): the end of a random generator word from the identity."""
    model = _model(key)
    gens = [s for _label, s in model.generator_states()]
    g = model.identity_state()
    for i in draw(st.lists(st.integers(0, len(gens) - 1), max_size=14)):
        g = model.multiply(g, gens[i])
    return model, g


class TestInternedStates:
    @pytest.mark.parametrize("key, radius, cap", BALL_CASES)
    def test_enumerate_ball_matches_payload_bfs(self, key, radius, cap):
        got = W.enumerate_ball(_model(key), radius, cap=cap)
        assert got == _payload_ball(_model(key), radius, cap)
        assert got[1] == (cap is None)

    @pytest.mark.parametrize("key", ["fp82", "tree", "box_z2", "z3_wr_z4", "z_wr_z4"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_encode_decode_round_trip(self, key, data):
        model, g = data.draw(walked_states(key))
        s = model._encode(g)
        assert model._decode(s) == g
        assert model._encode(model._decode(s)) == s
        assert model.state_str(model._decode(s)) == model.state_str(g)
        # the interned generator action agrees with the payload group law
        want = [model.multiply(g, t) for _label, t in model.generator_states()]
        assert [model._decode(t) for t in model._steps(s)] == want

    @pytest.mark.parametrize("key, radius, cap", [c for c in BALL_CASES if c[2]])
    def test_cap_bounds_states_built(self, key, radius, cap):
        # the enumeration stops within one element of passing the cap
        model = _model(key)
        built = {model._encode(model.identity_state())}
        steps = model._steps

        def recording(s, intern=True):
            # a step that interns nothing builds no state
            out = steps(s, intern)
            if intern:
                built.update(out)
            return out

        model._steps = recording
        W.enumerate_ball(model, radius, cap=cap)
        assert cap < len(built) <= cap + len(model.generator_states())
        assert len(model._configs) <= len(built)

    @pytest.mark.parametrize("key, far", [("tree", 200), ("box_z2", 12)])
    def test_configurations_share_position_ints(self, key, far):
        # every position id in a lamp configuration is the position table's
        # own int object; the far positions are interned first, so that
        # many ids of the ball lie above 256, where Python caches no int
        model = _model(key)
        base = model.base
        for p in sorted(Gr.cayley_ball(base, far).elements, key=base.length_payload, reverse=True):
            model._positions.intern(p)
        W._ball_shells(model, 6, None)
        positions = model._positions
        ids = [p for config in model._configs for p in config[::2]]
        assert sum(p > 256 for p in ids) > 50
        assert all(p is positions.ids[positions.payloads[p]] for p in ids)

    def test_cap_error_names_cap_and_last_shell(self):
        dist, _ = _payload_ball(_model("fp82"), 8, 500)
        last = max(dist.values())
        assert W.enumerate_ball(_model("fp82"), 8, cap=500)[1] is False
        msg = str(W._ball_shells(_model("fp82"), 8, 500)[2])
        assert msg.startswith("WREATH_BALL_CAP = 500 exceeded")
        assert f"in shell {last + 1}; shells 0..{last} are complete" in msg


# -- box and tree backends against an exact TSP on a Cayley ball -----------


def _ball_tsp(base, radius, pos, support):
    ball = Gr.cayley_ball(base, radius)
    inst = T.TspInstance(
        ball.graph, ball.vertex_of(base.identity_payload()), ball.vertex_of(pos),
        frozenset(ball.vertex_of(p) for p in support),
    )
    return T.solve_exact(inst).length


BOX_BASES = {
    "Z^2": lambda: G.make_abelian(2, [], [[1, 0], [0, 1]]),
    "ZxZ/4": lambda: G.make_abelian(1, [4], [[1, 0], [0, 1]]),
}


class TestBackendsAgainstBallTsp:
    @pytest.mark.parametrize("key", sorted(BOX_BASES))
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_box_matches_ball_tsp(self, z2_lamps, key, data):
        base = BOX_BASES[key]()
        point = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).map(base.normalize_payload)
        support = data.draw(st.lists(point, min_size=1, max_size=5, unique=True))
        pos = data.draw(point)
        ll = W.LamplighterModel(z2_lamps, base)
        g = ll.state({p: 1 for p in support}, pos)
        box = W.word_length(ll, g).value - len(support)
        # every point of the bounding box lies within this radius of e
        pts = support + [pos]
        radius = sum(max(abs(p[i]) for p in pts) for i in range(base.rank))
        radius += sum(m // 2 for m in base.moduli)
        assert box == _ball_tsp(base, radius, pos, support)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_tree_closed_form_matches_ball_tsp(self, data):
        base = G.make_free(2)
        word = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=3).map(base.normalize_payload)
        support = data.draw(st.lists(word, min_size=1, max_size=5, unique=True))
        pos = data.draw(word)
        # an optimal tree walk stays in the geodesic hull of its points
        radius = max(len(p) for p in support + [pos])
        assert T.ts_tree((), pos, support, base) == _ball_tsp(base, radius, pos, support)


# -- box walks frozen ------------------------------------------------------

BOX_WALK_BASES = {
    "Z^2": lambda: G.make_abelian(2, [], [[1, 0], [0, 1]]),
    "ZxZ/4": lambda: G.make_abelian(1, [4], [[1, 0], [0, 1]]),
    "Z^2xZ/2": lambda: G.make_abelian(2, [2], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
}

# sha256 of _box_walks for each base.  Z^2 was recorded while the box
# instance still normalised every point of the box into a payload table; the
# two bases with torsion were recorded again by the same pricing code once
# lamp positions were normalised before keying the element, as unreduced
# draws of one torsion class named one position twice (6 of the 40 elements
# on ZxZ/4, 4 on Z^2xZ/2), which state() now refuses
BOX_WALKS_SHA256 = {
    "Z^2": "16f91b54c027a19d3f40e1282f8d424fb263de3b239b5f2157c1b9dda15003f6",
    "ZxZ/4": "aac8af638bf3b33f788b5e830bcb624d42c038295c6c99aa38cf3d3f354653dc",
    "Z^2xZ/2": "abd435ea179855cdf1c30936b11725888f36199d241bde0fe490fd944b987df8",
}


def _box_walks(lamps, key) -> str:
    """Value and box walk of 40 seeded elements with 1..9 lamp draws, free
    coordinates in -4..4 and torsion coordinates drawn unreduced, one line
    each."""
    base = BOX_WALK_BASES[key]()
    ll = W.LamplighterModel(lamps, base)
    assert ll.strategy == "box"
    rng = random.Random(key)

    def point():
        return ([rng.randint(-4, 4) for _ in range(base.rank)]
                + [rng.randrange(-m, 2 * m) for m in base.moduli])

    lines = []
    for _ in range(40):
        lamps_on = {}
        for _ in range(rng.randint(1, 9)):
            lamps_on[base.normalize_payload(tuple(point()))] = 1
        value, walk = W.word_length_and_walk(ll, ll.state(lamps_on, point()))
        lines.append(f"{value.value} {value.exact} " + " ".join(map(base.payload_str, walk)) + "\n")
    return "".join(lines)


class TestBoxWalksFrozen:
    @pytest.mark.parametrize("key", sorted(BOX_WALK_BASES))
    def test_walks_frozen(self, z2_lamps, key):
        digest = hashlib.sha256(_box_walks(z2_lamps, key).encode()).hexdigest()
        assert digest == BOX_WALKS_SHA256[key]
