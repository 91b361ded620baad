"""Group models: normal forms, group law, word lengths."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from lamplighter import groups as G
from lamplighter.errors import ResourceCapError
from lamplighter.limits import CAPS


@pytest.fixture(scope="module")
def c8():
    return G.make_cyclic(8, [1])


@pytest.fixture(scope="module")
def c2():
    return G.make_cyclic(2, [1], letter="c")


@pytest.fixture(scope="module")
def fp82(c8, c2):
    return G.make_free_product(c8, c2)


class TestFiniteTables:
    def test_cyclic_table_laws(self, c8):
        t = c8.table
        assert t.order == 8 and t.identity == 0
        assert t.mul[3][5] == 0 and t.inv[3] == 5

    @pytest.mark.parametrize("n", [1, 2, 7, 16, 65])
    def test_cyclic_table_is_addition_mod_n(self, n):
        t = G.cyclic_table(n)
        assert t.mul == tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
        assert t.inv == tuple((-i) % n for i in range(n))

    def test_finite_payload_by_index_is_checked(self, c8):
        assert c8.parse_payload("7") == 7
        with pytest.raises(ValueError, match="out of range"):
            c8.parse_payload("8")

    def test_bad_table_rejected(self):
        with pytest.raises(ValueError):
            G.FiniteGroupTable(2, ((0, 0), (1, 1)), 0, (0, 1))

    def test_repeated_column_rejected(self):
        # every row is a permutation, but column 0 holds 0 three times
        rows = ((0, 1, 2),) * 3
        with pytest.raises(ValueError, match=r"\(column\)"):
            G.FiniteGroupTable(3, rows, 0, (0, 2, 1))

    def test_nonassociative_loop_rejected(self):
        # a Latin square with identity 0 and x * x = 0 for every x: it passes
        # every check but associativity, as no group of order 5 has all its
        # elements of order 2; 36 of its 125 triples fail, the fewest of any
        # such square of order 5
        rows = ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 4, 0, 1, 3), (3, 2, 4, 0, 1), (4, 3, 1, 2, 0))
        with pytest.raises(ValueError, match="associativity"):
            G.FiniteGroupTable(5, rows, 0, (0, 1, 2, 3, 4))

    def test_direct_product(self):
        t = G.direct_product_table(G.cyclic_table(2), G.cyclic_table(3))
        assert t.order == 6 and t.is_abelian()

    def test_make_cyclic_rejects_nongenerating(self):
        with pytest.raises(ValueError):
            G.make_cyclic(6, [2])

    def test_make_cyclic_symmetrizes(self, c8):
        assert set(c8.gens) == {1, 7}


class TestMultiplyInvert:
    def test_integers_add(self):
        z = G.make_abelian(1, [], [[1]])
        assert z.mul_payload((3,), (4,)) == (7,)

    def test_free_cancellation(self):
        f = G.make_free(1, "t")
        assert f.mul_payload((1,), f.inv_payload((1,))) == ()

    def test_free_product_merge(self, fp82):
        # (b3 c)(c b) = b4: the c letters cancel at the seam
        a = ((0, 3), (1, 1))
        b = ((1, 1), (0, 1))
        assert fp82.payload_str(fp82.mul_payload(a, b)) == "b4"

    def test_invert_examples(self, c8):
        assert c8.inv_payload(3) == 5
        f2 = G.make_free(2)
        ab_inv = f2.inv_payload(f2.parse_payload("aB"))
        assert f2.payload_str(ab_inv) == "bA"


class TestAbelianPayloads:
    @pytest.mark.parametrize("rank, moduli", [(2, []), (1, [4])], ids=["Z^2", "ZxZ/4"])
    def test_payload_length_checked(self, rank, moduli):
        m = G.make_abelian(rank, moduli, [[1, 0], [0, 1]])
        assert m.normalize_payload([3, -5]) == (3, -5 % 4 if moduli else -5)
        assert m.parse_payload("3;-5" if moduli else "3,-5") == m.normalize_payload([3, -5])
        for bad in ([1], [1, 2, 7]):
            with pytest.raises(ValueError, match=f"has 2 coordinates, got {len(bad)}$"):
                m.normalize_payload(bad)
        for text in ("1", "1,2;7", "1;2,7"):
            with pytest.raises(ValueError, match="has 2 coordinates"):
                m.parse_payload(text)

    def test_standard_gens(self):
        assert G.make_abelian(1, [4], [[1, 0], [0, 3]]).is_standard_gens()
        assert not G.make_abelian(1, [4], [[1, 0], [0, 2], [0, 1]]).is_standard_gens()
        assert not G.make_abelian(2, [], [[1, 0], [0, 1], [1, 1]]).is_standard_gens()
        assert G.make_abelian(0, [2, 3], [[1, 0], [0, 1]]).is_standard_gens()


class TestWordLength:
    def test_identity(self, fp82):
        assert fp82.length_payload(fp82.identity_payload()) == 0

    def test_octagon_antipode(self, c8):
        assert c8.length_payload(4) == 4

    def test_free_product_sum(self, fp82):
        bcb = ((0, 1), (1, 1), (0, 1))
        assert fp82.length_payload(bcb) == 3

    def test_nonstandard_gens_bfs(self):
        z = G.make_abelian(1, [], [[2], [3]])
        assert z.length_payload((1,)) == 2  # 3 - 2
        assert z.length_payload((6,)) == 2  # 3 + 3

    def test_mixed_abelian(self):
        m = G.make_abelian(1, [2], [[1, 0], [0, 1]])
        assert m.length_payload((3, 1)) == 4

    def test_bfs_cap_error_names_cap_and_radius(self, monkeypatch):
        # with gens +-2, +-3 the radius-2 ball of Z holds 13 elements
        monkeypatch.setitem(CAPS, "BFS_LENGTH_CAP", 5)
        z = G.make_abelian(1, [], [[2], [3]])
        msg = r"^BFS_LENGTH_CAP = 5 exceeded after radius 2 \(13 elements\); the length is > 2$"
        with pytest.raises(ResourceCapError, match=msg):
            z.length_payload((100,))


class TestJsonSpecs:
    def test_round_trip_variants(self):
        specs = [
            {"variant": "cyclic", "n": 8, "gens": [1]},
            {"variant": "abelian", "rank": 2, "moduli": [], "gens": [[1, 0], [0, 1]]},
            {"variant": "free", "rank": 2},
            {
                "variant": "free_product",
                "H": {"variant": "cyclic", "n": 8, "gens": [1]},
                "K": {"variant": "cyclic", "n": 2, "gens": [1], "letter": "c"},
            },
        ]
        expected = {"cyclic": "finite", "abelian": "abelian",
                    "free": "free", "free_product": "free_product"}
        for spec in specs:
            model = G.parse_group_spec(spec)
            assert model.variant == expected[spec["variant"]]

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            G.parse_group_spec({"variant": "braid"})

    @settings(max_examples=60, deadline=None)
    @given(spec=st.deferred(lambda: group_specs))
    def test_emitted_spec_rebuilds_the_model(self, spec):
        model = G.parse_group_spec(spec)
        emitted = G.group_spec_of(model)
        rebuilt = G.parse_group_spec(emitted)
        assert G.group_spec_of(rebuilt) == emitted
        _assert_same_model(model, rebuilt)


def _assert_same_model(a, b):
    assert type(a) is type(b) and a.gens == b.gens
    if isinstance(a, G.FiniteModel):
        assert a.table == b.table
    elif isinstance(a, G.AbelianModel):
        assert (a.rank, a.moduli) == (b.rank, b.moduli)
    elif isinstance(a, G.FreeModel):
        assert (a.rank, a.letters) == (b.rank, b.letters)
    else:
        for fa, fb in zip(a.factors, b.factors):
            _assert_same_model(fa, fb)
    assert [a.payload_str(s) for s in a.gens] == [b.payload_str(s) for s in b.gens]


@st.composite
def cyclic_specs(draw):
    n = draw(st.integers(2, 12))
    gens = draw(st.lists(st.integers(1, n - 1), min_size=1, max_size=3))
    if math.gcd(n, *gens) != 1:
        gens.append(1)  # keep the set generating
    return {"variant": "cyclic", "n": n, "gens": gens, "letter": draw(st.sampled_from("bcx"))}


@st.composite
def abelian_specs(draw):
    rank = draw(st.integers(0, 2))
    moduli = draw(st.lists(st.integers(2, 5), min_size=0 if rank else 1, max_size=2))
    dim = rank + len(moduli)
    units = [[int(i == j) for j in range(dim)] for i in range(dim)]
    extra = draw(st.lists(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim), max_size=2))
    gens = units + [v for v in extra if any(c % m for c, m in zip(v[rank:], moduli)) or any(v[:rank])]
    return {"variant": "abelian", "rank": rank, "moduli": moduli, "gens": gens}


@st.composite
def free_specs(draw):
    rank = draw(st.integers(1, 3))
    letters = draw(st.sampled_from(["abcdefghijklmnopqrstuvwxyz", "xyz", "tuv"]))
    return {"variant": "free", "rank": rank, "letters": letters}


group_specs = st.one_of(
    cyclic_specs(),
    abelian_specs(),
    free_specs(),
    st.builds(lambda H, K: {"variant": "free_product", "H": H, "K": K}, cyclic_specs(), cyclic_specs()),
)


free_words = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=8).map(tuple)


class TestProperties:
    @given(free_words)
    def test_normalize_idempotent(self, w):
        f2 = G.make_free(2)
        once = f2.normalize_payload(w)
        assert f2.normalize_payload(once) == once

    @given(free_words, free_words)
    def test_length_of_inverse(self, a, b):
        f2 = G.make_free(2)
        x = f2.mul_payload(f2.normalize_payload(a), f2.normalize_payload(b))
        assert f2.length_payload(x) == f2.length_payload(f2.inv_payload(x))

    @given(free_words, free_words)
    def test_triangle_inequality(self, a, b):
        f2 = G.make_free(2)
        x, y = f2.normalize_payload(a), f2.normalize_payload(b)
        assert f2.length_payload(f2.mul_payload(x, y)) <= f2.length_payload(x) + f2.length_payload(y)

    @given(st.integers(0, 7), st.integers(0, 1), st.integers(0, 7))
    def test_free_product_associative(self, i, j, k):
        fp = G.make_free_product(G.make_cyclic(8, [1]), G.make_cyclic(2, [1], letter="c"))
        a, b, c = (fp.normalize_payload(((f, x),)) for f, x in ((0, i), (1, j), (0, k)))
        mul = fp.mul_payload
        assert mul(mul(a, b), c) == mul(a, mul(b, c))

    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 7)), max_size=6))
    def test_free_product_normal_form_alternates(self, letters):
        fp = G.make_free_product(G.make_cyclic(8, [1]), G.make_cyclic(2, [1], letter="c"))
        try:
            nf = fp.normalize_payload(tuple(letters))
        except ValueError:
            return  # out-of-range letter index
        for (f1, x1), (f2, _x2) in zip(nf, nf[1:]):
            assert f1 != f2
        for f, x in nf:
            assert x != fp.factors[f].table.identity

    def test_normal_form_length_matches_bfs(self):
        # free-product lengths agree with breadth-first enumeration to radius 6
        from lamplighter.graphs import cayley_ball

        fp = G.make_free_product(G.make_cyclic(8, [1]), G.make_cyclic(2, [1], letter="c"))
        ball = cayley_ball(fp, 6)
        dist = ball.graph.distances_from(0)
        for i, p in enumerate(ball.elements):
            assert dist[i] == fp.length_payload(p)
