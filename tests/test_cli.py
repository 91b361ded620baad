"""CLI: determinism, exit codes, output formats."""

import csv
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stdout, redirect_stderr

import pytest

from lamplighter import cli
from lamplighter.limits import CAPS


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def specs(tmp_path_factory):
    root = tmp_path_factory.mktemp("specs")
    files = {}

    def put(name, payload):
        path = root / name
        path.write_text(json.dumps(payload))
        files[name] = str(path)

    put("c8.json", {"variant": "cyclic", "n": 8, "gens": [1]})
    put("c2.json", {"variant": "cyclic", "n": 2, "gens": [1], "letter": "c"})
    put("c4.json", {"variant": "cyclic", "n": 4, "gens": [1]})
    put("c4c.json", {"variant": "cyclic", "n": 4, "gens": [1], "letter": "c"})
    put("z.json", {"variant": "abelian", "rank": 1, "moduli": [], "gens": [[1]]})
    put("z12.json", {"variant": "abelian", "rank": 1, "moduli": [], "gens": [[1], [2]]})
    put("z2.json", {"variant": "abelian", "rank": 2, "moduli": [], "gens": [[1, 0], [0, 1]]})
    put("c6.json", {"variant": "cyclic", "n": 6, "gens": [1]})
    put(
        "ll_z2.json",
        {
            "lamps": {"variant": "cyclic", "n": 2, "gens": [1], "letter": "a"},
            "base": {"variant": "abelian", "rank": 2, "moduli": [], "gens": [[1, 0], [0, 1]]},
        },
    )
    put(
        "ll_line.json",
        {
            "lamps": {"variant": "cyclic", "n": 2, "gens": [1], "letter": "a"},
            "base": {"variant": "abelian", "rank": 1, "moduli": [], "gens": [[1]]},
        },
    )
    put(
        "ll_fp82.json",
        {
            "lamps": {"variant": "cyclic", "n": 2, "gens": [1], "letter": "a"},
            "base": {
                "variant": "free_product",
                "H": {"variant": "cyclic", "n": 8, "gens": [1]},
                "K": {"variant": "cyclic", "n": 2, "gens": [1], "letter": "c"},
            },
        },
    )
    put(
        "ll_z16.json",
        {
            "lamps": {"variant": "cyclic", "n": 2, "gens": [1], "letter": "a"},
            "base": {"variant": "cyclic", "n": 16, "gens": [1]},
        },
    )
    put(
        "ll_tree.json",
        {
            "lamps": {"variant": "cyclic", "n": 2, "gens": [1], "letter": "a"},
            "base": {"variant": "free", "rank": 1},
        },
    )
    put(
        "ll_z12.json",
        {
            "lamps": {"variant": "cyclic", "n": 2, "gens": [1], "letter": "a"},
            "base": {"variant": "abelian", "rank": 1, "moduli": [], "gens": [[1], [2]]},
        },
    )
    put(
        "ll_z3_z2.json",
        {
            "lamps": {"variant": "cyclic", "n": 3, "gens": [1], "letter": "a"},
            "base": {"variant": "abelian", "rank": 2, "moduli": [], "gens": [[1, 0], [0, 1]]},
        },
    )
    put(
        "ll_z3_z4.json",  # finite: the ball saturates at word length 8
        {
            "lamps": {"variant": "cyclic", "n": 3, "gens": [1], "letter": "a"},
            "base": {"variant": "cyclic", "n": 4, "gens": [1]},
        },
    )
    put("c1.json", {"variant": "cyclic", "n": 1, "gens": []})
    put("z4_rank0.json", {"variant": "abelian", "rank": 0, "moduli": [4], "gens": [[1]]})
    put("elem.json", {"lamps": [[[-1], 1], [[1], 1]], "position": [0]})
    put("elem_tree.json", {"lamps": [[[-1], 1], [[1, 1], 1]], "position": [1]})
    put("elem_fp82.json", {"lamps": [[[[0, 3]], 1], [[], 1], [[[1, 1], [0, 2]], 1]],
                           "position": [[0, 5]]})
    put("elem_z16_two.json", {"lamps": [[2, 1], [4, 1]], "position": 0})
    put("elem_z16_14.json", {"lamps": [[v, 1] for v in range(1, 15)], "position": 3})
    put("elem_id.json", {"lamps": [], "position": [0]})
    put("elem_z2.json", {"lamps": [[[1, 1], 1]], "position": [0, 0]})
    return files


class TestWordlen:
    def test_line_example(self, specs):
        rc, out, _ = run(
            ["wordlen", "--group", specs["ll_line.json"], "--element", specs["elem.json"], "--verify"]
        )
        assert rc == 0 and out.splitlines()[0] == "6 exact"

    def test_identity(self, specs):
        rc, out, _ = run(
            ["wordlen", "--group", specs["ll_line.json"], "--element", specs["elem_id.json"]]
        )
        assert rc == 0 and out.splitlines()[0] == "0 exact"

    def test_malformed_element(self, specs, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"lamps": [["zzz", 1]], "position": [0]}')
        rc, _, err = run(["wordlen", "--group", specs["ll_line.json"], "--element", str(bad)])
        assert rc == 2 and "usage error" in err

    def test_generic_backend_flags_upper_bound(self, specs, tmp_path):
        king = tmp_path / "king.json"
        king.write_text(
            '{"lamps": {"variant": "cyclic", "n": 2, "gens": [1], "letter": "a"},'
            ' "base": {"variant": "abelian", "rank": 2, "moduli": [],'
            ' "gens": [[1,0],[0,1],[1,1],[1,-1]]}}'
        )
        elem = tmp_path / "king_elem.json"
        elem.write_text('{"lamps": [[[1, 1], 1]], "position": [0, 0]}')
        rc, out, _ = run(["wordlen", "--group", str(king), "--element", str(elem)])
        assert rc == 0 and out.splitlines()[0] == "<= 3 upper-bound"


# (lamplighter spec, element, backend) for one wordlen query per backend
WORDLEN_CASES = [
    ("ll_z16.json", "elem_z16_two.json", "finite"),
    ("ll_line.json", "elem.json", "box"),
    ("ll_z12.json", "elem.json", "generic"),
    ("ll_tree.json", "elem_tree.json", "tree"),
    ("ll_fp82.json", "elem_fp82.json", "petal"),
]


class TestWordlenSolve:
    # finite, box and generic take the value and the walk from one solve
    @pytest.mark.parametrize("group, element, backend", WORDLEN_CASES[:3])
    def test_one_tsp_solve_per_query(self, specs, monkeypatch, group, element, backend):
        calls = []
        solve = cli.wreath.tsp.solve_exact

        def counting(inst):
            calls.append(inst)
            return solve(inst)

        monkeypatch.setattr(cli.wreath.tsp, "solve_exact", counting)
        rc, _, err = run(["wordlen", "--group", specs[group], "--element", specs[element],
                          "--backend", backend, "--verify"])
        assert rc == 0, err
        assert len(calls) == 1

    @pytest.mark.parametrize("group, element, backend", WORDLEN_CASES)
    def test_verify_checks_value_against_walk(self, specs, monkeypatch, group, element, backend):
        argv = ["wordlen", "--group", specs[group], "--element", specs[element],
                "--backend", backend, "--verify"]
        rc, _, err = run(argv)
        assert rc == 0, err
        exact = cli.wreath.word_length_and_walk

        def off_by_one(model, g, be):
            wl, walk = exact(model, g, be)
            return cli.wreath.WordLength(wl.value + 1, wl.exact), walk

        monkeypatch.setattr(cli.wreath, "word_length_and_walk", off_by_one)
        assert run(argv[:-1])[0] == 0  # without --verify the value goes unchecked
        rc, _, err = run(argv)
        assert rc == 4 and "walk edges" in err


    def test_verify_checks_walk_covers_support(self, specs, monkeypatch):
        # lamps at -1 and 1, position 0: a walk 0, 1, 0 that skips -1 is made
        # of generator steps and its length matches the value reported
        exact = cli.wreath.word_length_and_walk

        def skipping(model, g, be):
            wl, _walk = exact(model, g, be)
            return cli.wreath.WordLength(wl.value - 2, wl.exact), [(0,), (1,), (0,)]

        monkeypatch.setattr(cli.wreath, "word_length_and_walk", skipping)
        argv = ["wordlen", "--group", specs["ll_line.json"], "--element", specs["elem.json"]]
        assert run(argv)[0] == 0
        rc, _, err = run(argv + ["--verify"])
        assert rc == 4 and "cover" in err

    def test_petal_factor_work_done_once(self, specs, monkeypatch, tmp_path):
        # two petals reach an H copy with the same station and end, so the
        # walk meets one factor-walk key twice
        elem = tmp_path / "elem.json"
        elem.write_text('{"lamps": [[[[1, 1], [0, 1]], 1], [[[0, 1], [1, 1], [0, 1]], 1]],'
                        ' "position": [[0, 2]]}')
        # and the value and the walk of each factor TSP share one Held-Karp
        # closure: one per (graph, start, required) for the whole query
        graphs, closures = [], []
        build, close = cli.wreath.tsp.finite_cayley_graph, cli.wreath.tsp._held_karp_closure
        monkeypatch.setattr(cli.wreath.tsp, "finite_cayley_graph",
                            lambda model: graphs.append(model) or build(model))
        monkeypatch.setattr(cli.wreath.tsp, "_held_karp_closure",
                            lambda graph, start, required: closures.append(
                                (id(graph), start, tuple(required))) or close(graph, start, required))
        rc, _, err = run(["wordlen", "--group", specs["ll_fp82.json"], "--element", str(elem),
                          "--backend", "petal", "--verify"])
        assert rc == 0, err
        assert len(graphs) == len(set(map(id, graphs))) == 2
        assert len(closures) == len(set(closures)) == 3


def _s3_model():
    """S3 from its table (permutation composition), generated by a
    transposition and a 3-cycle; element 0 is the identity."""
    import itertools as it

    perms = list(it.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    mul = tuple(tuple(index[tuple(p[q[i]] for i in range(3))] for q in perms) for p in perms)
    inv = tuple(index[tuple(sorted(range(3), key=lambda i: p[i]))] for p in perms)
    table = cli.groups.FiniteGroupTable(6, mul, index[(0, 1, 2)], inv, name="S3")
    return cli.groups.FiniteModel(table, [index[(1, 0, 2)], index[(1, 2, 0)]])


PETAL_BASES = {
    "z8*z2": lambda: (cli.groups.make_cyclic(8, [1]), cli.groups.make_cyclic(2, [1], letter="c")),
    "z3*z4": lambda: (cli.groups.make_cyclic(3, [1]), cli.groups.make_cyclic(4, [1], letter="c")),
    "s3*z2": lambda: (_s3_model(), cli.groups.make_cyclic(2, [1], letter="c")),
}

# sha256 of the 40 outputs of each base in TestPetalWalksFrozen, recorded
# before the walks were built from generator letters
PETAL_WORDLEN_SHA256 = {
    "z8*z2": "b42f3e68eb2b907d10eeb63c7714b63162c51d54acf8531c02458595e243eefe",
    "z3*z4": "4ed9f9c113cc66a2ffa79cbd8dc37064f1f5d6343f953dfd1994b9e9a8edfbd8",
    "s3*z2": "88a51e9a0d51ba987537463b6e9783709ca8e35cbafd08de1d92ceb6ef93f97c",
}


def petal_wordlen_outputs(base, tmp_path, monkeypatch):
    """`wordlen --backend petal --verify` on seeded elements of Z/2 wr
    (H * K) with 1, 2, .., 40 lit lamps, each lamp and the position a word
    of up to six alternating letters.  The queries share one model, so the
    later ones also meet factor rows that earlier ones left in its memo."""
    H, K = PETAL_BASES[base]()
    model = cli.wreath.LamplighterModel(cli.groups.make_cyclic(2, [1], letter="a"),
                                        cli.groups.make_free_product(H, K))
    monkeypatch.setattr(cli, "_lamplighter_from_file", lambda path: model)
    orders = (H.table.order, K.table.order)
    rng = random.Random(base)

    def word():
        f = rng.randint(0, 1)
        out = []
        for _ in range(rng.randint(0, 6)):
            out.append([f, rng.randrange(1, orders[f])])
            f = 1 - f
        return out

    outputs = []
    for size in range(1, 41):
        lamps = {}
        while len(lamps) < size:
            w = word()
            lamps[json.dumps(w)] = w
        elem = tmp_path / f"{size}.json"
        elem.write_text(json.dumps({"lamps": [[w, 1] for w in lamps.values()], "position": word()}))
        rc, out, err = run(["wordlen", "--group", "spec", "--element", str(elem),
                            "--backend", "petal", "--verify"])
        assert rc == 0, err
        outputs.append(out)
    return outputs


class TestPetalWalksFrozen:
    @pytest.mark.parametrize("base", sorted(PETAL_BASES))
    def test_outputs_frozen(self, base, tmp_path, monkeypatch):
        # the non-abelian S3 factor tells the letter u^-1 v of a factor edge
        # u -> v from v u^-1
        outputs = petal_wordlen_outputs(base, tmp_path, monkeypatch)
        assert hashlib.sha256("".join(outputs).encode()).hexdigest() == PETAL_WORDLEN_SHA256[base]


class TestHamdiff:
    def test_cyclic_column(self, specs):
        rc, out, _ = run(["hamdiff", "--cyclic-range", "3:12"])
        assert rc == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        got = [int(r[2]) for r in rows]
        assert got == [n // 2 - 2 for n in range(3, 13)]

    def test_single_groups(self, specs):
        rc, out, _ = run(["hamdiff", "--group", specs["c2.json"]])
        assert rc == 0 and out.strip().splitlines()[1].split(",")[2] == "-1"

    def test_no_groups_usage_error(self):
        rc, _, err = run(["hamdiff"])
        assert rc == 2

    def test_size_cap_exit_code(self, tmp_path):
        big = tmp_path / "c30.json"
        big.write_text('{"variant": "cyclic", "n": 30, "gens": [1]}')
        rc, _, err = run(["hamdiff", "--group", str(big)])
        assert rc == 3 and "resource cap" in err

    def test_order_guard_is_the_tsp_cap(self):
        # the guard names the group order, not the required set inside tsp
        rc, out, err = run(["hamdiff", "--cyclic-range", "23:23"])
        assert rc == 3 and out == ""
        assert "MAX_REQUIRED = 22 exceeded by group order 23" in err and "required set" not in err
        assert run(["hamdiff", "--cyclic-range", "22:22"])[0] == 0


class TestMalformedInput:
    """Malformed input is a usage error (exit 2), never a traceback."""

    @pytest.mark.parametrize("argv", [
        ["hamdiff", "--cyclic-range", "x"],
        ["hamdiff", "--cyclic-range", "5"],
        ["hamdiff", "--cyclic-range", "1:3"],
        ["hamdiff", "--cyclic-range", "5:3"],
        ["export-graph", "--cube", "a,b"],
        ["export-graph", "--cube", "0,3"],
        ["wordlen", "--group", "ll_line.json", "--element", "list.json"],
    ], ids=["range-word", "range-one-number", "range-from-1", "range-reversed",
            "cube-letters", "cube-zero", "element-list"])
    def test_exit_2(self, specs, tmp_path, argv):
        (tmp_path / "list.json").write_text("[[0], 1]")
        argv = [specs.get(a, str(tmp_path / a) if a.endswith(".json") else a) for a in argv]
        rc, out, err = run(argv)
        assert rc == 2 and out == "" and "Traceback" not in err

    @pytest.mark.parametrize("spec", [
        [1, 2],
        {"variant": "cyclic", "n": "4", "gens": [1]},
        {"variant": "cyclic", "n": 4, "gens": 1},
        {"variant": "abelian", "rank": 1, "moduli": [], "gens": [1]},
        {"variant": "free_product", "H": [1], "K": {"variant": "cyclic", "n": 2, "gens": [1]}},
    ], ids=["list", "order-text", "gens-int", "abelian-gen-int", "factor-list"])
    def test_bad_group_spec(self, specs, tmp_path, spec):
        # the spec alone, and as the base of a lamplighter spec
        path, ll_path = tmp_path / "g.json", tmp_path / "ll.json"
        path.write_text(json.dumps(spec))
        ll_path.write_text(json.dumps({"lamps": {"variant": "cyclic", "n": 2, "gens": [1]}, "base": spec}))
        for argv in (["hamdiff", "--group", path], ["qh", "--group", path, "--nmax", "1"],
                     ["export-graph", "--group", path], ["verdict", "--H", path, "--K", specs["c2.json"]]):
            rc, out, err = run([str(a) for a in argv])
            assert (rc, out) == (2, "") and err.startswith(f"usage error: bad group spec {path}: ")
            assert err.count("\n") == 1
        self._bad_lamplighter_spec(specs, ll_path)

    @pytest.mark.parametrize("spec", [
        [1, 2],
        {"lamps": [1], "base": {"variant": "cyclic", "n": 4, "gens": [1]}},
    ], ids=["list", "lamps-list"])
    def test_bad_lamplighter_spec(self, specs, tmp_path, spec):
        path = tmp_path / "ll.json"
        path.write_text(json.dumps(spec))
        self._bad_lamplighter_spec(specs, path)

    @staticmethod
    def _bad_lamplighter_spec(specs, path):
        for argv in (["wordlen", "--group", path, "--element", specs["elem.json"]],
                     ["depth-profile", "--group", path, "--radius", "2"]):
            rc, out, err = run([str(a) for a in argv])
            assert (rc, out) == (2, "") and err.startswith(f"usage error: bad lamplighter spec {path}: ")
            assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["hamdiff", "--group", "c1.json"],
        ["verdict", "--H", "c1.json", "--K", "c2.json"],
    ], ids=["hamdiff", "verdict"])
    def test_order_1_group_refused(self, specs, argv):
        # the Hamiltonian difference needs |G| >= 2
        rc, out, err = run([specs.get(a, a) for a in argv])
        assert (rc, out) == (2, "")
        assert err == f"usage error: {argv[0]} needs groups of order at least 2 ({specs['c1.json']})\n"

    @pytest.mark.parametrize("rank, moduli", [(2, []), (1, [4])], ids=["Z^2", "ZxZ/4"])
    @pytest.mark.parametrize("element, got", [
        ({"lamps": [[[1, 2, 7], 1]], "position": [3, 0, 9]}, 3),
        ({"lamps": [[[1], 1]], "position": [0, 0]}, 1),
        ({"lamps": [["1,2;7", 1]], "position": [0, 0]}, 3),
    ], ids=["too-long", "too-short", "too-long-text"])
    def test_abelian_payload_of_wrong_length(self, tmp_path, rank, moduli, element, got):
        # a payload is neither cut down to another element nor read past its end
        group = tmp_path / "ll.json"
        group.write_text(json.dumps({
            "lamps": {"variant": "cyclic", "n": 2, "gens": [1], "letter": "a"},
            "base": {"variant": "abelian", "rank": rank, "moduli": moduli,
                     "gens": [[1, 0], [0, 1]]},
        }))
        elem = tmp_path / "elem.json"
        elem.write_text(json.dumps(element))
        rc, out, err = run(["wordlen", "--group", str(group), "--element", str(elem), "--verify"])
        assert (rc, out) == (2, "")
        assert err == ("usage error: malformed element spec: an abelian payload has 2"
                       f" coordinates, got {got}\n")

    @pytest.mark.parametrize("group, element, message", [
        # [1, -1, 2] is the word b of F2, as is [2]
        ({"variant": "free", "rank": 2}, {"lamps": [[[1, -1, 2], 1], [[2], 1]]},
         "lamp position b is named twice"),
        ({"variant": "cyclic", "n": 6, "gens": [1]}, {"lamps": [[2, 1], ["b2", 0]]},
         "lamp position b2 is named twice"),
        ({"variant": "cyclic", "n": 6, "gens": [1]}, {"lamps": [[2, 1]], "position": "6"},
         "element index out of range"),
    ], ids=["free-word-twice", "finite-name-and-index", "finite-index-out-of-range"])
    def test_element_refused(self, tmp_path, group, element, message):
        path = tmp_path / "ll.json"
        path.write_text(json.dumps({
            "lamps": {"variant": "cyclic", "n": 2, "gens": [1], "letter": "a"}, "base": group}))
        elem = tmp_path / "elem.json"
        elem.write_text(json.dumps(element))
        rc, out, err = run(["wordlen", "--group", str(path), "--element", str(elem)])
        assert (rc, out, err) == (2, "", f"usage error: malformed element spec: {message}\n")

    @pytest.mark.parametrize("name", ["missing/x.csv", "."], ids=["no-directory", "directory"])
    def test_bad_out_refused_before_the_run(self, specs, monkeypatch, tmp_path, name):
        calls = []
        monkeypatch.setattr(cli.wreath, "depth_profile", lambda *a, **k: calls.append(a))
        target = tmp_path / name
        rc, out, err = run(["depth-profile", "--group", specs["ll_line.json"], "--radius", "2",
                            "--out", str(target)])
        assert rc == 2 and out == "" and str(target) in err
        assert calls == [] and not (tmp_path / "missing").exists()


class TestVerdict:
    def test_section51(self, specs):
        rc, out, _ = run(["verdict", "--H", specs["c8.json"], "--K", specs["c2.json"], "--verify"])
        assert rc == 0
        record = json.loads(out)
        assert record["verdict"] == "uniformly_bounded" and record["sum"] == 1

    def test_unbounded_pair(self, specs):
        rc, out, _ = run(["verdict", "--H", specs["c4.json"], "--K", specs["c4c.json"]])
        record = json.loads(out)
        assert rc == 0 and record["verdict"] == "unbounded" and record["sum"] == 0

    def test_missing_file(self, specs):
        rc, _, err = run(["verdict", "--H", "/nope.json", "--K", specs["c2.json"]])
        assert rc == 2


class TestDepthProfile:
    def test_radius_zero_row(self, specs):
        rc, out, _ = run(
            ["depth-profile", "--group", specs["ll_line.json"], "--radius", "0", "--kmax", "2"]
        )
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[1].startswith("-;0,0,0")

    def test_partial_exit_code(self, specs):
        rc, out, err = run(
            [
                "depth-profile", "--group", specs["ll_fp82.json"],
                "--radius", "8", "--kmax", "4", "--cap", "200",
            ]
        )
        assert rc == 3 and "partial_enumeration" in out
        assert err == "resource cap: WREATH_BALL_CAP = 200 exceeded in shell 5; shells 0..4 are complete\n"

    def test_json_format(self, specs):
        rc, out, _ = run(
            [
                "depth-profile", "--group", specs["ll_line.json"],
                "--radius", "3", "--kmax", "3", "--format", "json",
            ]
        )
        payload = json.loads(out)
        assert rc == 0 and payload["complete"] and payload["rows"]


FP82_R10_K22_CSV_SHA256 = "f0505fef3bccf84d59638ce6ad8eaf1f7df2fbc7fd7c43d2fa2de97212b0e61d"

# name: (sizes, exit code, sha256 of the CSV)
FP82_R9_CSV = {
    "kmax-0": (["--radius", "9", "--kmax", "0"], 0,
               "68167f3e99d804aba24a077e991cae962b6c45c8bffebdc66f320621c59dd77d"),
    "capped": (["--radius", "9", "--kmax", "22", "--cap", "20000"], 3,
               "4461914bc3b2f1821ba615cf55e05a6f7545586ec0970f1d52288c57096634a3"),
}

# name: (spec, sizes, format, sha256 of the output)
PROFILE_PINS = {
    # a saturated finite ball: every last-shell row is stuck
    "z3-wr-z4-kmax-4": ("ll_z3_z4.json", ["--radius", "30", "--kmax", "4"], "csv",
                        "a69231e69a45adb18f2874ae8952d06a1ff8838e2b35fb78154468a5e8181685"),
    "z3-wr-z4-kmax-0": ("ll_z3_z4.json", ["--radius", "30", "--kmax", "0"], "csv",
                        "c121fc8b49bbe0467a91a497d8ad48e1f9dbedba93541bd62448a405a72cc970"),
    "fp82-kmax-0-json": ("ll_fp82.json", ["--radius", "8", "--kmax", "0"], "json",
                         "61ee14e1aeeb760a33c2418644d3b13b4b4c34dd00cc45633192c7038e6e8f40"),
}

FP82_R8_K22_SHA256 = {
    "csv": "7590d192115ce998dfb7f341f0ffbfce0a3de5c30f8dfe73745d7a2173f4462f",
    "json": "bf51d1530dfada04d382148307c24b2108e487cdc6ff6c1d01936516504162e5",
}


class TestDepthProfileOutput:
    """The profile is streamed to stdout or --out; the bytes are fixed."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "sizes,code",
        [(["--radius", "5", "--kmax", "3"], 0), (["--radius", "8", "--kmax", "4", "--cap", "200"], 3)],
        ids=["complete", "capped"],
    )
    def test_out_file_equals_stdout(self, specs, tmp_path, fmt, sizes, code):
        argv = ["depth-profile", "--group", specs["ll_fp82.json"], *sizes, "--format", fmt]
        rc, out, _ = run(argv)
        target = tmp_path / f"profile.{fmt}"
        rc_file, out_file, _ = run(argv + ["--out", str(target)])
        assert rc == rc_file == code and out_file == ""
        assert target.read_bytes() == out.encode()

    @pytest.mark.parametrize("fmt", sorted(FP82_R8_K22_SHA256))
    def test_frozen_fp82_radius_8(self, specs, fmt):
        rc, out, _ = run(
            ["depth-profile", "--group", specs["ll_fp82.json"], "--radius", "8", "--kmax", "22",
             "--format", fmt]
        )
        assert rc == 0 and hashlib.sha256(out.encode()).hexdigest() == FP82_R8_K22_SHA256[fmt]

    def test_benchmark_case_radius_10(self, specs):
        # the profile-oct2 workload's profile, against the sha256 the
        # benchmark stores for it
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "perfbench", "expected_sha256.json")) as fh:
            want = json.load(fh)["profile-oct2"]
        assert want == FP82_R10_K22_CSV_SHA256
        rc, out, _ = run(
            ["depth-profile", "--group", specs["ll_fp82.json"], "--radius", "10", "--kmax", "22",
             "--format", "csv"]
        )
        assert rc == 0 and hashlib.sha256(out.encode()).hexdigest() == want

    @pytest.mark.parametrize("name", sorted(FP82_R9_CSV))
    def test_frozen_fp82_radius_9(self, specs, name):
        # a k_max 0 profile (every last-shell row priced, none searched) and
        # a capped one (shell 9 dropped, shell 8 the last)
        sizes, code, digest = FP82_R9_CSV[name]
        rc, out, _ = run(["depth-profile", "--group", specs["ll_fp82.json"], *sizes, "--format", "csv"])
        assert rc == code and hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("name", sorted(PROFILE_PINS))
    def test_frozen_saturated_and_kmax_0(self, specs, name):
        group, sizes, fmt, digest = PROFILE_PINS[name]
        rc, out, _ = run(["depth-profile", "--group", specs[group], *sizes, "--format", fmt])
        assert rc == 0 and hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out-file"])
    def test_verify_runs_before_any_output(self, specs, monkeypatch, tmp_path, to_file):
        # the dead-end checks run with the retreat searches, before the
        # profile is written: a failed check writes nothing
        monkeypatch.setattr(cli.wreath, "is_dead_end", lambda model, g: False)
        target = tmp_path / "profile.csv"
        argv = ["depth-profile", "--group", specs["ll_line.json"], "--radius", "8", "--kmax", "4",
                "--verify"]
        rc, out, err = run(argv + ["--out", str(target)] if to_file else argv)
        assert rc == 4 and out == "" and " is not a dead end" in err
        assert not target.exists()

    @pytest.mark.parametrize("text", ["e", "-;b3.c", "a,b", 'say "hi"', "a\rb", "a\nb",
                                      '",\r\n', "a@1,0;-2,3", ""])
    def test_csv_field_matches_csv_writer(self, text):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow([text, "x"])
        assert cli._csv_field(text) + ",x\n" == buf.getvalue()

    def test_frozen_grid_csv(self, specs):
        # ids over Z^2 hold commas, so csv quotes them; not a free product
        rc, out, _ = run(
            ["depth-profile", "--group", specs["ll_z3_z2.json"], "--radius", "5", "--kmax", "4"]
        )
        assert rc == 0 and hashlib.sha256(out.encode()).hexdigest() == Z3_GRID_R5_K4_CSV_SHA256

    def test_reader_closing_stdout_early(self, specs):
        # the profile is larger than a pipe buffer, so writing goes on after
        # the reader has gone
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        proc = subprocess.Popen(
            [sys.executable, "-m", "lamplighter.cli", "depth-profile", "--group",
             specs["ll_z3_z2.json"], "--radius", "6"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src),
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=120) == cli.EXIT_BROKEN_PIPE
        assert first == b"element_id,word_length,depth,retreat_depth,flags\n" and err == ""

    def test_unopenable_out_is_usage_error(self, specs, tmp_path):
        target = tmp_path / "missing" / "x.csv"
        rc, out, err = run(
            ["depth-profile", "--group", specs["ll_line.json"], "--radius", "2",
             "--out", str(target)]
        )
        assert rc == 2 and out == "" and str(target) in err

    @pytest.mark.parametrize("option", ["--radius", "--kmax", "--cap"])
    def test_negative_size_is_usage_error(self, specs, option):
        sizes = {"--radius": "2", "--kmax": "2", "--cap": "100", option: "-1"}
        argv = ["depth-profile", "--group", specs["ll_line.json"]]
        for name, value in sizes.items():
            argv += [name, value]
        rc, out, err = run(argv)
        assert rc == 2 and out == "" and option in err

    @pytest.mark.parametrize("argv, option", [
        (["export-graph", "--group", "z.json", "--radius", "-1"], "--radius"),
        (["qh", "--group", "z12.json", "--nmax", "-1"], "--nmax"),
        (["qh", "--group", "z12.json", "--nmax", "0"], "--nmax"),
        (["qh", "--group", "z12.json", "--nmax", "1", "--M", "-1"], "--M"),
    ], ids=["export-graph-radius", "qh-nmax-negative", "qh-nmax-zero", "qh-M"])
    def test_size_below_its_minimum_is_usage_error(self, specs, argv, option):
        rc, out, err = run([specs.get(a, a) for a in argv])
        assert rc == 2 and out == "" and f"argument {option}: must be at least" in err

    @pytest.mark.parametrize("value", ["abc", "-5"])
    def test_bad_cap_variable_is_usage_error(self, specs, monkeypatch, value):
        monkeypatch.setenv("LAMPLIGHTER_CAP", value)
        rc, out, err = run(
            ["depth-profile", "--group", specs["ll_line.json"], "--radius", "2"]
        )
        assert rc == 2 and out == "" and "LAMPLIGHTER_CAP" in err

    def test_bad_cap_variable_in_cayley_ball(self, specs, monkeypatch):
        monkeypatch.setenv("LAMPLIGHTER_CAP", "1e5")
        rc, out, err = run(["export-graph", "--group", specs["z.json"], "--radius", "2"])
        assert rc == 2 and out == "" and "LAMPLIGHTER_CAP" in err


class TestQh:
    def test_certificate(self, specs):
        rc, out, _ = run(
            ["qh", "--group", specs["z12.json"], "--nmax", "2", "--M", "1",
             "--strategy", "ball-exact", "--verify"]
        )
        assert rc == 0 and json.loads(out)["kind"] == "qh_certificate"

    def test_unit_grid_box_beyond_radius_2(self, specs):
        # the 7x7 box walks from its centre back to itself: no search for a
        # walk with no repeat, which cannot come back to where it started
        rc, out, err = run(["qh", "--group", specs["z2.json"], "--nmax", "3", "--verify"])
        assert (rc, err) == (0, "")
        assert json.loads(out)["kind"] == "qh_certificate"

    def test_walk_search_cap_exits_3(self, specs, monkeypatch):
        # a spanning-walk search that gives up is a cap, not "no walk"
        monkeypatch.setitem(CAPS, "SEARCH_NODE_CAP", 5)
        rc, out, err = run(
            ["qh", "--group", specs["z2.json"], "--nmax", "1", "--strategy", "abelian-box"]
        )
        assert rc == 3 and out == "" and "SEARCH_NODE_CAP = 5 exceeded" in err

    def test_ball_exact_cap_before_any_solve(self, specs, monkeypatch):
        # the radius-11 ball of Z has 23 vertices, one over the TSP cap; the
        # refusal comes before the ten smaller balls are solved
        def refuse(*args):
            raise AssertionError("solve_exact ran before the cap check")

        monkeypatch.setattr(cli.hamiltonian.tsp, "solve_exact", refuse)
        start = time.perf_counter()
        rc, out, err = run(["qh", "--group", specs["z.json"], "--nmax", "11", "--M", "30",
                            "--strategy", "ball-exact"])
        assert rc == 3 and out == ""
        assert "MAX_REQUIRED = 22 exceeded by the 23 vertices of the ball of radius n = 11" in err
        assert time.perf_counter() - start < 10

    def test_rank_3_gets_an_exact_basis(self, tmp_path):
        # Z^3 with four generator classes: rank 3 gets a Nash-Williams basis
        # and a verified certificate (Cube(3,3,3) walks)
        gens = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]
        path = tmp_path / "z3.json"
        path.write_text(json.dumps({"variant": "abelian", "rank": 3, "moduli": [], "gens": gens}))
        rc, out, err = run(["qh", "--group", str(path), "--nmax", "1", "--verify"])
        assert (rc, err) == (0, "")
        payload = json.loads(out)
        assert payload["kind"] == "qh_certificate" and payload["strategy"] == "abelian-box"

    def test_auto_degenerate_basis_off_the_line(self, tmp_path):
        # Z with {1, 65} has a degenerate basis, but refute takes only the
        # line (Z,{+-1}) and free groups: auto picks cube, not a usage error
        path = tmp_path / "z_1_65.json"
        path.write_text(json.dumps({"variant": "abelian", "rank": 1, "moduli": [], "gens": [[1], [65]]}))
        rc, out, err = run(["qh", "--group", str(path), "--nmax", "2", "--verify"])
        assert (rc, err) == (0, "")
        payload = json.loads(out)
        assert payload["kind"] == "qh_certificate" and payload["strategy"] == "cube"

    @pytest.mark.parametrize("group, size", [("c1.json", 1), ("z4_rank0.json", 4)], ids=["order-1", "rank-0"])
    def test_auto_finite_groups_get_cube(self, specs, group, size):
        # a finite group has no Nash-Williams basis: auto picks cube, which
        # walks a one-element ball too
        rc, out, err = run(["qh", "--group", specs[group], "--nmax", "2", "--verify"])
        assert (rc, err) == (0, "")
        payload = json.loads(out)
        assert payload["kind"] == "qh_certificate" and payload["strategy"] == "cube"
        assert [w["set_size"] for w in payload["witnesses"]] == [size, size]

    def test_refutation_table(self, specs):
        rc, out, _ = run(["qh", "--group", specs["z.json"], "--nmax", "4"])
        payload = json.loads(out)
        assert rc == 0 and payload["kind"] == "qh_refutation"
        assert [r[3] for r in payload["rows"]] == [1, 3, 5, 7]


class TestCapErrors:
    """A cap error exits 3 with nothing on stdout and one stderr line that
    names the limits.CAPS entry, its value and how far the run got."""

    @pytest.mark.parametrize("cap, value, argv, reached", [
        ("SEARCH_NODE_CAP", 5, ["qh", "--group", "z2.json", "--nmax", "1", "--strategy", "abelian-box"],
         "in the search "),
        ("MAX_REQUIRED", 3, ["hamdiff", "--group", "c4.json"], "by group order 4\n"),
        ("CAYLEY_BALL_CAP", 10, ["export-graph", "--group", "z.json", "--radius", "8"],
         "at radius 5; radii 0..4 are complete\n"),
    ], ids=["node-cap-qh", "max-required-hamdiff", "cayley-ball-export-graph"])
    def test_exit_3_names_cap_value_and_reach(self, specs, monkeypatch, cap, value, argv, reached):
        monkeypatch.delenv("LAMPLIGHTER_CAP", raising=False)
        monkeypatch.setitem(CAPS, cap, value)
        rc, out, err = run([specs.get(a, a) for a in argv])
        assert rc == 3 and out == "" and err.count("\n") == 1
        assert err.startswith(f"resource cap: {cap} = {value} exceeded {reached}")

    def test_retreat_cap_is_a_cell(self, specs, monkeypatch):
        # depth-profile keeps the profile and writes "cap" as the retreat
        # depth; stderr names the cap, its value and the k reached
        argv = ["depth-profile", "--group", specs["ll_line.json"], "--radius", "8", "--kmax", "4"]
        assert "\na@-1+a@0+a@1;0,7,2,1,exact\n" in run(argv)[1]
        monkeypatch.setitem(CAPS, "RETREAT_SEARCH_CAP", 1)
        rc, out, err = run(argv)
        assert rc == 0 and "\na@-1+a@0+a@1;0,7,2,cap,exact\n" in out
        assert err == ("resource cap: RETREAT_SEARCH_CAP = 1 exceeded at k = 1; retreat depth >= 1"
                       " (retreat search of a@-1+a@0+a@1;0)\n")


class TestUnfitRequests:
    """A backend, strategy or M that does not fit the group is a usage error."""

    @pytest.mark.parametrize("backend", ["tree", "petal", "finite"])
    def test_wordlen_backend_off_its_base(self, specs, backend):
        rc, out, err = run(["wordlen", "--group", specs["ll_z2.json"],
                            "--element", specs["elem_z2.json"], "--backend", backend])
        assert rc == 2 and out == ""
        assert f"usage error: backend '{backend}' does not fit the abelian base" in err

    def test_depth_profile_refuses_generic(self, specs):
        rc, out, err = run(["depth-profile", "--group", specs["ll_z2.json"], "--radius", "2",
                            "--backend", "generic"])
        assert rc == 2 and out == "" and "exact backend" in err

    def test_depth_profile_refuses_generic_only_base(self, specs):
        # Z/2 wr (Z, {±1, ±2}): auto picks generic, the only strategy of the base
        rc, out, err = run(["depth-profile", "--group", specs["ll_z12.json"], "--radius", "2",
                            "--backend", "auto"])
        assert rc == 2 and out == ""
        assert "usage error: depth needs an exact backend; 'generic' is an upper bound" in err

    @pytest.mark.parametrize("strategy", ["abelian-box", "refute"])
    def test_qh_strategy_off_its_group(self, specs, strategy):
        rc, out, err = run(["qh", "--group", specs["c6.json"], "--nmax", "1",
                            "--strategy", strategy])
        assert rc == 2 and out == "" and "usage error" in err

    @pytest.mark.parametrize("group, strategy, endpoint", [
        ("z12.json", "ball-exact", "0"),
        ("z12.json", "cube", "0"),
        ("z2.json", "abelian-box", "-1,0"),
    ])
    def test_qh_m_too_small(self, specs, group, strategy, endpoint):
        rc, out, err = run(["qh", "--group", specs[group], "--nmax", "1", "--M", "0",
                            "--strategy", strategy])
        assert rc == 2 and out == ""
        assert f"M = 0 is too small: at n = 1 the walk to endpoint {endpoint} " in err


class TestExportGraph:
    def test_cube_dot(self):
        rc, out, _ = run(["export-graph", "--cube", "4,3"])
        assert rc == 0 and out.count(" -- ") == 17

    def test_cycle_dot(self, specs):
        rc, out, _ = run(["export-graph", "--group", specs["c8.json"]])
        assert rc == 0 and out.count(" -- ") == 8

    def test_ball_adjacency(self, specs):
        rc, out, _ = run(
            ["export-graph", "--group", specs["c8.json"], "--radius", "2", "--format", "adj"]
        )
        assert rc == 0

    def test_infinite_needs_radius(self, specs):
        rc, _, err = run(["export-graph", "--group", specs["z.json"]])
        assert rc == 2

    def test_finite_abelian_needs_radius(self, specs):
        # a rank-0 abelian group is finite, yet only cyclic specs export whole
        rc, out, err = run(["export-graph", "--group", specs["z4_rank0.json"]])
        assert (rc, out) == (2, "")
        assert err == "usage error: only cyclic group specs export without --radius, not abelian\n"
        assert run(["export-graph", "--group", specs["z4_rank0.json"], "--radius", "2"])[0] == 0


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, specs):
        cmds = [
            ["hamdiff", "--cyclic-range", "3:10"],
            ["verdict", "--H", specs["c8.json"], "--K", specs["c2.json"]],
            ["depth-profile", "--group", specs["ll_line.json"], "--radius", "4", "--kmax", "3"],
            ["qh", "--group", specs["z.json"], "--nmax", "3"],
            ["export-graph", "--cube", "3,3"],
        ]
        for cmd in cmds:
            assert run(cmd) == run(cmd)

    def test_out_file(self, specs, tmp_path):
        target = tmp_path / "graph.dot"
        rc, out, _ = run(["export-graph", "--cube", "2,2", "--out", str(target)])
        assert rc == 0 and out == "" and target.read_text().startswith("graph G")


# Runs depth-profile twice in one process: as shipped, then with every word
# length of the formula off by one.  Prints the optimisation level and both exit codes.
OFF_BY_ONE_SCRIPT = """
import os, sys
from lamplighter import cli, wreath
argv = ["depth-profile", "--group", sys.argv[1], "--radius", "2", "--kmax", "2",
        "--out", os.devnull]
rc_ok = cli.main(argv)
exact = wreath._config_lengths
wreath._config_lengths = lambda m, c, ends: [L + 1 for L in exact(m, c, ends)]
print(sys.flags.optimize, rc_ok, cli.main(argv))
"""


# Runs wordlen on a finite base twice in one process: as shipped, then with
# every shortest-path leg of the TS walk skipping its second vertex.  Prints
# the optimisation level and both exit codes.
SKIPPED_VERTEX_SCRIPT = """
import os, sys
from lamplighter import cli, tsp
argv = ["wordlen", "--group", sys.argv[1], "--element", sys.argv[2],
        "--backend", "finite", "--out", os.devnull]
rc_ok = cli.main(argv)
lex = tsp._lex_shortest_path
def skipping(g, a, b, dist_b):
    path = lex(g, a, b, dist_b)
    return path[:1] + path[2:] if len(path) > 2 else path
tsp._lex_shortest_path = skipping
print(sys.flags.optimize, rc_ok, cli.main(argv))
"""

# Runs one command (JSON argv) twice in one process: as shipped, then after
# executing the given patch.  Prints the optimisation level and both exit
# codes.
PATCHED_SCRIPT = """
import json, os, sys
from lamplighter import cli, hamiltonian, tsp, wreath
patch, argv = sys.argv[1], json.loads(sys.argv[2]) + ["--out", os.devnull]
rc_ok = cli.main(argv)
exec(patch)
print(sys.flags.optimize, rc_ok, cli.main(argv))
"""

# the petal TS recursion one too long: the profile's formula check fails
PETAL_OFF_BY_ONE = """
exact = tsp.ts_free_product_ends
tsp.ts_free_product_ends = lambda *a: [ts + 1 for ts in exact(*a)]
"""

# every factor TS of the petal recursion one too long: the walk no longer
# matches the value
FACTOR_TS_OFF_BY_ONE = """
exact = tsp._factor_ts_edges
tsp._factor_ts_edges = lambda *a: exact(*a) + 1
"""

# wordlen reports a value one longer than its walk
WORDLEN_OFF_BY_ONE = """
exact = wreath.word_length_and_walk
def off(m, g, b):
    wl, walk = exact(m, g, b)
    return wreath.WordLength(wl.value + 1, wl.exact), walk
wreath.word_length_and_walk = off
"""

# the last walk of a qh certificate loses its last vertex
QH_CUT_WALK = """
make = hamiltonian.qh_certificate
def cut(*a, **k):
    cert = make(*a, **k)
    walks = cert.witnesses[-1].walks
    end = next(iter(walks))
    walks[end] = walks[end][:-1]
    return cert
hamiltonian.qh_certificate = cut
"""

# Runs each command (a JSON list of argv lists) and then the Hamiltonian
# deciders with numpy unimportable, printing one exit code per line.
NO_NUMPY_SCRIPT = """
import json, os, sys
sys.modules["numpy"] = None
from lamplighter import cli, graphs, hamiltonian
for argv in json.loads(sys.argv[1]):
    print(cli.main(argv + ["--out", os.devnull]))
print(int(not hamiltonian.analyze(graphs.cube_graph([3, 4])).bipartite))
print(int(hamiltonian.hamiltonian_path(graphs.cube_graph([4, 5]), 0, 1) is None))
"""


def _run_script(script, *args, optimize=False):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    flags = ["-O"] if optimize else []
    return subprocess.run(
        [sys.executable, *flags, "-c", script, *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


class TestNumpyFree:
    COMMANDS = [
        ["hamdiff", "--cyclic-range", "16:16"],
        ["wordlen", "--group", "ll_z16.json", "--element", "elem_z16_14.json",
         "--backend", "finite", "--verify"],
        ["wordlen", "--group", "ll_fp82.json", "--element", "elem_fp82.json", "--verify"],
        ["verdict", "--H", "c8.json", "--K", "c2.json"],
        ["depth-profile", "--group", "ll_fp82.json", "--radius", "3", "--kmax", "2",
         "--verify"],
        ["qh", "--group", "z12.json", "--nmax", "2", "--M", "2", "--verify"],
        ["export-graph", "--cube", "2,3", "--format", "adj"],
    ]

    def test_tsp_commands_do_not_load_numpy(self, specs):
        commands = [[specs.get(a, a) for a in argv] for argv in self.COMMANDS]
        proc = _run_script(NO_NUMPY_SCRIPT, json.dumps(commands))
        assert proc.stdout.split() == ["0"] * (len(commands) + 2), proc.stderr


# Z/3 lamps over Z^2, radius 5, k_max 4, as CSV
Z3_GRID_R5_K4_CSV_SHA256 = "d20142ee1e17ea0f75a54fc93fd5c84ac3c44a4110827a8e64892e8fa3394de1"


class TestVerificationUnderOptimize:
    def test_formula_check_survives_python_O(self, specs):
        proc = _run_script(OFF_BY_ONE_SCRIPT, specs["ll_line.json"], optimize=True)
        assert proc.stdout.split() == ["1", "0", "4"], proc.stderr
        assert "verification failure: formula gives" in proc.stderr

    def test_tsp_walk_check_survives_python_O(self, specs):
        proc = _run_script(
            SKIPPED_VERTEX_SCRIPT, specs["ll_z16.json"], specs["elem_z16_two.json"], optimize=True
        )
        assert proc.stdout.split() == ["1", "0", "4"], proc.stderr
        assert "verification failure: non-edge" in proc.stderr

    def test_internal_error_exit_code(self, specs, monkeypatch):
        def broken(*_args, **_kwargs):
            raise AssertionError("broken invariant")

        monkeypatch.setattr(cli.wreath, "depth_profile", broken)
        rc, _, err = run(["depth-profile", "--group", specs["ll_line.json"], "--radius", "1"])
        assert rc == 5 and "internal error: broken invariant" in err

    @pytest.mark.parametrize("patch, argv, message", [
        (PETAL_OFF_BY_ONE, ["depth-profile", "--group", "ll_fp82.json", "--radius", "3",
                            "--kmax", "2"], "formula gives"),
        (WORDLEN_OFF_BY_ONE, ["wordlen", "--group", "ll_fp82.json", "--element",
                              "elem_fp82.json", "--verify"], "walk edges"),
        (FACTOR_TS_OFF_BY_ONE, ["wordlen", "--group", "ll_fp82.json", "--element",
                                "elem_fp82.json", "--verify"], "free-product walk has"),
        (QH_CUT_WALK, ["qh", "--group", "z12.json", "--nmax", "2", "--M", "1",
                       "--strategy", "ball-exact", "--verify"],
         "qh certificate"),
    ], ids=["depth-profile-petal", "wordlen-verify", "wordlen-petal-certificate", "qh-verify"])
    def test_checks_survive_python_O(self, specs, patch, argv, message):
        argv = [specs.get(a, a) for a in argv]
        proc = _run_script(PATCHED_SCRIPT, patch, json.dumps(argv), optimize=True)
        assert proc.stdout.split() == ["1", "0", "4"], proc.stderr
        assert proc.stderr.startswith("verification failure: ") and message in proc.stderr


TOP_USAGE = "usage: lamplighter [-h]"
WORDLEN_USAGE = "usage: lamplighter wordlen [-h] --group GROUP --element ELEMENT"


class TestParsing:
    """Exit code, first line and error line of each way a call can fail to
    parse, or ask for help."""

    @pytest.mark.parametrize("argv, code, first, last", [
        ([], 2, TOP_USAGE, "lamplighter: error: the following arguments are required: command"),
        (["nosuch"], 2, TOP_USAGE, "lamplighter: error: argument command: invalid choice:"
                                   " 'nosuch' (choose from 'wordlen', 'hamdiff', 'verdict',"
                                   " 'depth-profile', 'qh', 'export-graph')"),
        (["wordlen"], 2, WORDLEN_USAGE, "lamplighter wordlen: error: the following arguments"
                                        " are required: --group, --element"),
        (["wordlen", "--group", "g.json", "--element", "e.json", "--bogus"], 2, TOP_USAGE,
         "lamplighter: error: unrecognized arguments: --bogus"),
        (["--out", "x", "wordlen"], 2, TOP_USAGE, "lamplighter: error: argument command:"
         " invalid choice: 'x' (choose from 'wordlen', 'hamdiff', 'verdict', 'depth-profile',"
         " 'qh', 'export-graph')"),
    ], ids=["empty", "unknown-command", "missing-required", "extra-option", "option-first"])
    def test_usage_errors(self, argv, code, first, last):
        rc, out, err = run(argv)
        lines = err.splitlines()
        assert (rc, out, lines[0], lines[-1]) == (code, "", first, last)

    @pytest.mark.parametrize("argv, first", [
        (["-h"], TOP_USAGE),
        (["wordlen", "-h"], WORDLEN_USAGE),
    ], ids=["top", "wordlen"])
    def test_help(self, argv, first):
        rc, out, err = run(argv)
        assert (rc, out.splitlines()[0], err) == (0, first, "")


class TestParserOnce:
    CASES = [
        ["wordlen", "--group", "ll_fp82.json", "--element", "elem_fp82.json", "--verify"],
        ["hamdiff", "--cyclic-range", "3:6"],
        ["verdict", "--H", "c8.json", "--K", "c2.json"],
        ["depth-profile", "--group", "ll_fp82.json", "--radius", "3", "--kmax", "2"],
        ["qh", "--group", "z12.json", "--nmax", "2", "--M", "1", "--strategy", "ball-exact"],
        ["export-graph", "--cube", "2,3", "--format", "adj"],
        ["depth-profile", "--radius", "x"],
    ]

    def test_reused_parser_matches_fresh(self, specs):
        cases = [[specs.get(a, a) for a in argv] for argv in self.CASES]
        assert run(["wordlen", "--bogus"])[0] == 2
        reused = [run(argv)[:2] for argv in cases]
        fresh = []
        for argv in cases:
            cli._parser.cache_clear()
            fresh.append(run(argv)[:2])
        assert reused == fresh
        assert [rc for rc, _out in fresh] == [0, 0, 0, 0, 0, 0, 2]

    def test_built_once_and_commands_looked_up_per_call(self, specs, monkeypatch):
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        cli._parser.cache_clear()
        argv = ["hamdiff", "--cyclic-range", "3:3"]
        assert run(argv)[0] == 0
        monkeypatch.setattr(cli, "cmd_hamdiff", lambda args: 7)
        assert run(argv)[0] == 7
        assert run(["verdict", "--H", "missing.json"])[0] == 2
        assert len(built) == 1


# Frees an 8 MiB block, then reports whether a 4 MiB block gets its own
# mapping; with "main" it runs one command first, so cli.main sets the
# thresholds.
MALLOC_SCRIPT = """
import ctypes, os, sys
from lamplighter import cli
class MallInfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in
                "arena ordblks smblks hblks hblkhd usmblks fsmblks uordblks fordblks keepcost".split()]
info = getattr(ctypes.CDLL(None), "mallinfo2", None)
if info is None:
    print("no mallinfo2")
    sys.exit()
info.restype = MallInfo2
if sys.argv[1] == "main":
    assert cli.main(["hamdiff", "--cyclic-range", "3:3", "--out", os.devnull]) == 0
big = bytearray(8 << 20)
del big
before = info().hblkhd
block = bytearray(4 << 20)
print(int(info().hblkhd - before >= 4 << 20))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc mallopt")
class TestMallocThresholds:
    def test_large_block_mapped_after_main(self):
        outputs = {}
        for mode in ("plain", "main"):
            proc = _run_script(MALLOC_SCRIPT, mode)
            assert proc.returncode == 0, proc.stderr
            outputs[mode] = proc.stdout.strip()
        if outputs["main"] == "no mallinfo2":
            pytest.skip("C library without mallinfo2")
        # glibc alone moves its threshold past 4 MiB once the 8 MiB block is freed
        assert outputs == {"plain": "0", "main": "1"}

    def test_subset_dp_ints_stay_on_the_heap(self):
        from lamplighter import tsp

        assert cli._fix_malloc_thresholds()
        assert tsp._int_bytes(1 << CAPS["DP_CAP"]) < cli._MMAP_THRESHOLD
