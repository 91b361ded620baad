"""Graph kernel: Cayley balls, product/cube constructions."""

import os
import subprocess
import sys

import pytest

from lamplighter import graphs as Gr, groups as G
from lamplighter.errors import ResourceCapError, VerificationError
from lamplighter.limits import CAPS
from oracles import FiniteGroupTable, TableModel, two_pass_cayley_ball


def edge_count(g):
    return sum(len(nbrs) for nbrs in g.adj) // 2


class TestCayleyBall:
    def test_line_radius_two(self):
        z = G.make_abelian(1, [], [[1]])
        ball = Gr.cayley_ball(z, 2)
        assert ball.graph.n == 5 and edge_count(ball.graph) == 4
        assert sorted(p[0] for p in ball.elements) == [-2, -1, 0, 1, 2]

    def test_z2_radius_one_diamond(self):
        z2 = G.make_abelian(2, [], [[1, 0], [0, 1]])
        ball = Gr.cayley_ball(z2, 1)
        assert ball.graph.n == 5 and edge_count(ball.graph) == 4

    def test_z_with_chords(self):
        z = G.make_abelian(1, [], [[1], [2]])
        ball = Gr.cayley_ball(z, 2)
        assert ball.graph.n == 9
        assert sorted(p[0] for p in ball.elements) == list(range(-4, 5))

    def test_layers_equal_word_length(self):
        fp = G.make_free_product(G.make_cyclic(8, [1]), G.make_cyclic(2, [1], letter="c"))
        ball = Gr.cayley_ball(fp, 5)
        dist = ball.graph.distances_from(0)
        for i, p in enumerate(ball.elements):
            assert dist[i] == fp.length_payload(p)

    def test_cap_enforced(self, monkeypatch):
        f2 = G.make_free(2)
        monkeypatch.delenv("LAMPLIGHTER_CAP", raising=False)
        monkeypatch.setitem(CAPS, "CAYLEY_BALL_CAP", 100)
        with pytest.raises(ResourceCapError):
            Gr.cayley_ball(f2, 10)

    def test_cap_error_names_cap_and_complete_radius(self, monkeypatch):
        # LAMPLIGHTER_CAP overrides this default
        assert CAPS["CAYLEY_BALL_CAP"] == 200_000
        # F2 balls hold 1, 5, 17, 53, 161 elements: radius 4 takes it over 100
        msg = r"^CAYLEY_BALL_CAP = 100 exceeded at radius 4; radii 0..3 are complete$"
        monkeypatch.delenv("LAMPLIGHTER_CAP", raising=False)
        monkeypatch.setitem(CAPS, "CAYLEY_BALL_CAP", 100)
        with pytest.raises(ResourceCapError, match=msg):
            Gr.cayley_ball(G.make_free(2), 10)

    def test_lookup_bijection(self):
        f2 = G.make_free(2)
        ball = Gr.cayley_ball(f2, 3)
        for i, p in enumerate(ball.elements):
            assert ball.vertex_of(p) == i and ball.element_of(i) == p


def _s3_model():
    perms = [(0, 1, 2), (1, 0, 2), (0, 2, 1), (2, 1, 0), (1, 2, 0), (2, 0, 1)]
    index = {p: i for i, p in enumerate(perms)}
    mul = tuple(tuple(index[tuple(p[q[i]] for i in range(3))] for q in perms) for p in perms)
    inv = tuple(index[tuple(sorted(range(3), key=lambda i: p[i]))] for p in perms)
    return TableModel(FiniteGroupTable(6, mul, 0, inv, name="S3"), [1, 4])


BALL_MODELS = {
    "Z^2": lambda: G.make_abelian(2, [], [[1, 0], [0, 1]]),
    "Z^2 +-2": lambda: G.make_abelian(2, [], [[1, 0], [0, 1], [2, 0], [0, 2]]),
    "ZxZ/4": lambda: G.make_abelian(1, [4], [[1, 0], [0, 1]]),
    "Z/2xZ/3": lambda: G.make_abelian(0, [2, 3], [[1, 0], [0, 1]]),
    "F2": lambda: G.make_free(2),
    "Z/8*Z/2": lambda: G.make_free_product(G.make_cyclic(8, [1]),
                                          G.make_cyclic(2, [1], letter="c")),
    "S3": _s3_model,
}


class TestCayleyBallAgainstTwoPass:
    """The one-pass ball (edges recorded as the BFS multiplies) against the
    two-pass one in tests/oracles.py: same vertex order, labels and edges."""

    @pytest.mark.parametrize("key", sorted(BALL_MODELS))
    @pytest.mark.parametrize("radius", range(5))
    def test_same_ball(self, key, radius):
        model = BALL_MODELS[key]()
        got, want = Gr.cayley_ball(model, radius), two_pass_cayley_ball(model, radius)
        assert got.elements == want.elements and got.index_of == want.index_of
        assert got.graph.labels == want.graph.labels
        assert got.graph.adj == want.graph.adj and got.graph.edges() == want.graph.edges()
        got.graph.validate()


class TestFiniteCayley:
    def test_octagon(self):
        g = Gr.finite_cayley_graph(G.make_cyclic(8, [1]))
        assert g.is_cycle_graph()

    def test_single_edge(self):
        g = Gr.finite_cayley_graph(G.make_cyclic(2, [1]))
        assert g.n == 2 and edge_count(g) == 1

    def test_all_gens_complete(self):
        g = Gr.finite_cayley_graph(G.make_cyclic(4, [1, 2, 3]))
        assert edge_count(g) == 6


class TestProducts:
    def test_square(self):
        g = Gr.product_graph(Gr.path_graph(2), Gr.path_graph(2))
        assert g.n == 4 and edge_count(g) == 4

    def test_grid(self):
        g = Gr.product_graph(Gr.path_graph(3), Gr.path_graph(3))
        assert g.n == 9 and edge_count(g) == 12

    def test_counts_formula(self):
        g1, g2 = Gr.cycle_graph(5), Gr.path_graph(4)
        g = Gr.product_graph(g1, g2)
        assert g.n == g1.n * g2.n
        assert edge_count(g) == g1.n * edge_count(g2) + g2.n * edge_count(g1)

    def test_cube_shapes(self):
        assert edge_count(Gr.cube_graph([5])) == 4
        assert Gr.cube_graph([2, 2]).is_cycle_graph()
        g = Gr.cube_graph([4, 3])
        assert g.n == 12 and edge_count(g) == 17

    def test_all_outputs_validate(self):
        for g in (
            Gr.cube_graph([4, 3]),
            Gr.product_graph(Gr.cycle_graph(3), Gr.path_graph(2)),
            Gr.cayley_ball(G.make_free(2), 3).graph,
        ):
            g.validate()
            assert g.is_connected()

    @pytest.mark.parametrize(
        "n, adj, message",
        [
            (2, ((1,), (0,), ()), "3 adjacency rows for 2 vertices"),
            (3, ((2, 1), (0,), (0,)), "unsorted or duplicate neighbors"),
            (2, ((0, 1), (0,)), "self-loop"),
            (2, ((1,), ()), "asymmetric adjacency"),
            (2, ((5,), (0,)), "asymmetric adjacency"),
        ],
    )
    def test_validate_raises(self, n, adj, message):
        with pytest.raises(VerificationError, match=message):
            Gr.FiniteGraph(n, adj).validate()

    def test_validate_raises_under_python_O(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(Gr.__file__)))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", ASYMMETRIC_SCRIPT],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60,
        )
        assert proc.stdout.split() == ["1", "raised"], proc.stderr


# Validates a graph whose only edge is listed on one side; prints the
# optimisation level and whether validate raised.
ASYMMETRIC_SCRIPT = """
import sys
from lamplighter.errors import VerificationError
from lamplighter.graphs import FiniteGraph
try:
    FiniteGraph(2, ((1,), ())).validate()
    outcome = "passed"
except VerificationError:
    outcome = "raised"
print(sys.flags.optimize, outcome)
"""


class TestExport:
    def test_dot_deterministic(self):
        g = Gr.cycle_graph(4)
        assert g.to_dot() == g.to_dot()
        assert "0 -- 1" in g.to_dot()

    def test_adjacency_text(self):
        g = Gr.path_graph(3)
        assert g.to_adjacency_text() == "0: 1\n1: 0 2\n2: 1\n"
