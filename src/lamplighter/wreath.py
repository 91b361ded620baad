"""The lamplighter layer: wreath-product elements A wr B, exact word length
via lamp costs plus a TSP term on the base Cayley graph, dead-end depth and
retreat-depth search, witness constructions, and the free-product dichotomy
verdicts.

A wreath state is (lamps, position): lamps is a sorted tuple of
(base payload, lamp payload) pairs storing only non-identity lamp values.
Ball enumeration, depth profiles and the dead-end, depth and retreat
searches run on interned states instead: one int
`config id << 32 | position id` (see LamplighterModel._encode).

The TS solver that prices a base is fixed when the model is built:
LamplighterModel.strategy is finite, tree, petal or box, the one exact
solver of the base, or generic, a slack-padded ball that gives only an
upper bound.  word_length_and_walk can ask for the generic bound on any
base; the depth layer refuses a base whose strategy is generic.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import operator
from array import array
from collections import Counter, abc
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple

from .errors import ResourceCapError, VerificationError
from .graphs import (
    cayley_ball,
    cycle_graph,
    finite_cayley_graph,
    path_graph,
    product_graph,
)
from .groups import (
    AbelianModel,
    FiniteModel,
    FreeModel,
    FreeProductModel,
    GroupModel,
    Payload,
    PositionTable,
)
from . import hamiltonian, tsp
from .limits import CAPS, env_cap

WreathState = Tuple[Tuple[Tuple[Payload, Payload], ...], Payload]

GENERIC_SLACK = 4  # generic strategy: ball radius = longest point length + slack

_POS_MASK = (1 << 32) - 1  # an interned state is config id << 32 | position id


class LamplighterModel:
    """A wreath product A wr B with the standard generating set S_A u S_B."""

    def __init__(self, lamps: GroupModel, base: GroupModel):
        self.lamps = lamps
        self.base = base
        # the TS solver of the base, the one place that chooses it
        self.strategy = (
            "finite" if isinstance(base, FiniteModel)
            else "tree" if isinstance(base, FreeModel)
            else "petal" if isinstance(base, FreeProductModel)
            else "box" if isinstance(base, AbelianModel) and base.is_standard_gens()
            else "generic"
        )
        self._lamp_len = functools.lru_cache(maxsize=None)(lamps.length_payload)
        self._base_str = functools.lru_cache(maxsize=None)(base.payload_str)
        # every word-length memo: _ts_cache keyed by (position id, support
        # ids), and the petal recursion's own, both on ids of _positions (see
        # _config_lengths)
        self._ts_cache: Dict[tuple, int] = {}
        self._ts_fp_memo: dict = {}
        self._finite_graph = finite_cayley_graph(base) if self.strategy == "finite" else None
        self._generator_states: Optional[List[Tuple[str, WreathState]]] = None
        # the intern tables of the states met (see _encode): base positions,
        # and lamp configurations as flat tuples (p1, v1, p2, v2, ...) of
        # position ids and lamp payloads, sorted by id; configuration 0 is
        # all lamps off
        self._positions = PositionTable(base)
        self._configs: List[tuple] = [()]
        self._config_ids: Dict[tuple, int] = {(): 0}
        # lamp value -> its products by the lamp generators in order, None
        # for the identity (see _lamp_moves); filled as values are met, so
        # it holds at most the lamp values of the states built
        self._e_a = lamps.identity_payload()
        self._lamp_table: Dict[Payload, tuple] = {}

    # -- states ------------------------------------------------------------
    def identity_state(self) -> WreathState:
        return ((), self.base.identity_payload())

    def state(self, lamps: Dict[Payload, Payload], position: Payload) -> WreathState:
        """The state of lamps (position -> value) and position, in any form
        the groups accept; two keys of one position are a ValueError."""
        base, lamp = self.base.normalize_payload, self.lamps.normalize_payload
        return self._state([(base(k), lamp(v)) for k, v in lamps.items()], base(position))

    def _state(self, lamps: Sequence[Tuple[Payload, Payload]], position: Payload) -> WreathState:
        """state() of (position, value) pairs and a position already in
        normal form."""
        if len({k for k, _v in lamps}) != len(lamps):
            twice = Counter(k for k, _v in lamps).most_common(1)[0][0]
            raise ValueError(f"lamp position {self.base.payload_str(twice)} is named twice")
        e_a = self.lamps.identity_payload()
        return tuple(sorted(kv for kv in lamps if kv[1] != e_a)), position

    def state_str(self, g: WreathState) -> str:
        lamps, pos = g
        return f"{self._lamps_str(lamps)};{self._base_str(pos)}"

    def _lamps_str(self, lamps) -> str:
        names = self._base_str
        lamp_str = self.lamps.payload_str
        return "+".join(f"{lamp_str(v)}@{names(k)}" for k, v in lamps) or "-"

    # -- interned states ----------------------------------------------------
    def _encode(self, g: WreathState) -> int:
        """The interned state of g: config id << 32 | position id."""
        lamps, pos = g
        intern = self._positions.intern
        config = tuple(itertools.chain.from_iterable(sorted((intern(k), v) for k, v in lamps)))
        return self._config_id(config) << 32 | intern(pos)

    def _config_id(self, config: tuple) -> int:
        c = self._config_ids.get(config)
        if c is None:
            c = self._config_ids[config] = len(self._configs)
            self._configs.append(config)
        return c

    def _decode(self, s: int) -> WreathState:
        payloads = self._positions.payloads
        config = self._configs[s >> 32]
        lamps = sorted(zip(map(payloads.__getitem__, config[::2]), config[1::2]))
        return tuple(lamps), payloads[s & _POS_MASK]

    def _lamp_moves(self, v: Payload) -> tuple:
        """The row of _lamp_table for the lamp value v, filled on first use."""
        row = self._lamp_table.get(v)
        if row is None:
            e_a, mul = self._e_a, self.lamps.mul_payload
            products = (mul(v, a) for a in self.lamps.gens)
            row = self._lamp_table[v] = tuple(None if w == e_a else w for w in products)
        return row

    def _steps(self, s: int, intern: bool = True) -> List[int]:
        """The interned neighbours of s: lamp generators first, then base
        generators.  One bisect finds the lamp at s's position, and the lamp
        products come from _lamp_table.  With intern False nothing is
        interned, and a lamp move to a configuration never interned is -1."""
        p = s & _POS_MASK
        ids, positions = self._config_ids, self._positions
        config = self._configs[s >> 32]
        i = 2 * bisect.bisect_left(config[::2], p)
        if i < len(config) and config[i] == p:
            before, cur, after = config[:i], config[i + 1], config[i + 2:]
        else:
            before, cur, after = config[:i], self._e_a, config[i:]
        out = []
        for v in self._lamp_table.get(cur) or self._lamp_moves(cur):
            config = before + after if v is None else before + (p, v) + after
            c = ids.get(config)
            if c is None:
                if not intern:
                    out.append(-1)
                    continue
                if v is not None:
                    # a new configuration holds the position table's own int
                    # for p, not the new one of s & _POS_MASK
                    config = before + (positions.ids[positions.payloads[p]], v) + after
                c = self._config_id(config)
            out.append(c << 32 | p)
        config_bits = s ^ p
        for q in positions.rows[p] or positions.steps(p):
            out.append(config_bits | q)
        return out

    # -- group law ----------------------------------------------------------
    def multiply(self, g: WreathState, h: WreathState) -> WreathState:
        (f1, b1), (f2, b2) = g, h
        acc = dict(f1)
        e_a = self.lamps.identity_payload()
        for k, v in f2:
            k2 = self.base.mul_payload(b1, k)
            merged = self.lamps.mul_payload(acc.get(k2, e_a), v)
            if merged == e_a:
                acc.pop(k2, None)
            else:
                acc[k2] = merged
        return (tuple(sorted(acc.items())), self.base.mul_payload(b1, b2))

    def invert(self, g: WreathState) -> WreathState:
        lamps, b = g
        binv = self.base.inv_payload(b)
        acc = []
        for k, v in lamps:
            acc.append((self.base.mul_payload(binv, k), self.lamps.inv_payload(v)))
        return (tuple(sorted(acc)), binv)

    # -- generators ----------------------------------------------------------
    def generator_states(self) -> List[Tuple[str, WreathState]]:
        """(label, state) for every generator, in the order of _steps; built
        on the first call, once per model."""
        if self._generator_states is None:
            e_b = self.base.identity_payload()
            self._generator_states = (
                [(f"A:{self.lamps.payload_str(s)}", (((e_b, s),), e_b)) for s in self.lamps.gens]
                + [(f"B:{self.base.payload_str(s)}", ((), s)) for s in self.base.gens]
            )
        return self._generator_states


# ---------------------------------------------------------------------------
# word length


@dataclass(frozen=True)
class WordLength:
    value: int
    exact: bool


def word_length(model: LamplighterModel, g: WreathState) -> WordLength:
    """Lamp cost plus TS(e_B -> position; supp f) by the model's strategy,
    priced on the interned state of g (see _config_lengths)."""
    return WordLength(_state_length(model, model._encode(g)), model.strategy != "generic")


def lamp_cost(model: LamplighterModel, g: WreathState) -> int:
    """Sum of the lamp-group lengths of g's lamp values."""
    lengths = model._lamp_len
    return sum(lengths(v) for _k, v in g[0])


def word_length_and_walk(
    model: LamplighterModel, g: WreathState, generic: bool = False
) -> Tuple[WordLength, List[Payload]]:
    """word_length(g) and a TS walk for it (see ts_walk), both from one
    _solve_walk call, which certifies the walk against its value; with
    generic, priced by the slack-padded ball, an upper bound."""
    lamps, pos = g
    ts, walk = _solve_walk(model, pos, frozenset(k for k, _v in lamps), generic)
    return WordLength(lamp_cost(model, g) + ts, not generic and model.strategy != "generic"), walk


def _petal_ids(model: LamplighterModel, pos: Payload, support: FrozenSet[Payload]):
    """(position table, id of pos, ids of support) in the model's table."""
    intern = model._positions.intern
    return model._positions, intern(pos), frozenset(map(intern, support))


def _box_instance(base: AbelianModel, pos: Payload, support: FrozenSet[Payload]):
    """Bounding-box TSP instance plus the vertex -> group payload decoder.

    Sound for standard basis generators: clamping the free coordinates of any
    walk into the box is 1-Lipschitz and fixes endpoints and support, so the
    box-restricted optimum equals the unrestricted one.
    """
    pts = set(support) | {base.identity_payload(), pos}
    r = base.rank
    lows = [min(p[i] for p in pts) for i in range(r)]
    highs = [max(p[i] for p in pts) for i in range(r)]
    axes = []
    for i in range(r):
        axes.append(path_graph(highs[i] - lows[i] + 1))
    for m in base.moduli:
        axes.append(cycle_graph(m) if m >= 3 else path_graph(m))
    graph = axes[0]
    for ax in axes[1:]:
        graph = product_graph(graph, ax)

    sizes = [h - l + 1 for l, h in zip(lows, highs)] + list(base.moduli)
    offsets = lows + [0] * len(base.moduli)

    def vid(p: Payload) -> int:
        out = 0
        for c, low, size in zip(p, offsets, sizes):
            out = out * size + c - low
        return out

    def payload_of(v: int) -> Payload:
        # the mixed-radix inverse of vid
        coords = []
        for low, size in zip(reversed(offsets), reversed(sizes)):
            v, c = divmod(v, size)
            coords.append(c + low)
        return tuple(reversed(coords))

    inst = tsp.TspInstance(
        graph, vid(base.identity_payload()), vid(pos), frozenset(map(vid, support))
    )
    return inst, payload_of


def ts_walk(model: LamplighterModel, pos: Payload, support: Sequence[Payload]) -> List[Payload]:
    """A TS-optimal base walk e -> pos covering the support by the model's
    strategy (ball-optimal for a generic base), as group payloads."""
    normal = model.base.normalize_payload
    return _solve_walk(model, normal(pos), frozenset(map(normal, support)))[1]


def _solve_walk(
    model: LamplighterModel, pos: Payload, support: FrozenSet[Payload], generic: bool = False
) -> Tuple[int, List[Payload]]:
    """(TS length, walk as payloads) by the model's strategy, or by the
    generic one with generic, the walk checked against a value computed
    apart from it: the tree closed form, the petal value recursion on the
    model's memo, or the Held-Karp total of one exact TSP solve on the
    finite Cayley graph, the bounding box or (generic, an upper bound) a
    slack-padded ball.  The petal walk is built from generator letters by
    its own recursion, taking the walk and the row of each factor station
    mask from one Held-Karp closure; the value recursion reads those rows,
    so the check compares the two recursions over the factor copies, not
    two factor solves."""
    base, strategy = model.base, "generic" if generic else model.strategy
    if strategy == "tree":
        return tsp.ts_tree_walk((), pos, sorted(support), base)
    if strategy == "petal":
        return tsp.ts_free_product_ids_walk(*_petal_ids(model, pos, support), model._ts_fp_memo)
    if strategy == "finite":
        sol = tsp.solve_exact(tsp.TspInstance(model._finite_graph, base.table.identity, pos, support))
        return sol.length, list(sol.walk)
    if strategy == "box":
        inst, payload_of = _box_instance(base, pos, support)
        sol = tsp.solve_exact(inst)
        return sol.length, list(map(payload_of, sol.walk))
    ball = cayley_ball(base, _generic_radius(base, pos, support))
    inst = tsp.TspInstance(
        ball.graph,
        ball.vertex_of(base.identity_payload()),
        ball.vertex_of(pos),
        frozenset(ball.vertex_of(p) for p in support),
    )
    sol = tsp.solve_exact(inst)
    return sol.length, [ball.element_of(v) for v in sol.walk]


def _generic_radius(base: GroupModel, pos: Payload, support) -> int:
    return max(
        [base.length_payload(pos)] + [base.length_payload(p) for p in support]
    ) + GENERIC_SLACK


# ---------------------------------------------------------------------------
# dead ends, depth, retreat depth


@dataclass(frozen=True)
class DepthReport:
    # None in the report that the last-shell rows of a k_max 0 profile share
    element: Optional[WreathState]
    word_length: int
    depth: int
    depth_exact: bool  # False: depth is only known to be >= the stated value
    witness: Tuple[str, ...] = ()


def _require_exact(model: LamplighterModel) -> None:
    if model.strategy == "generic":
        raise ValueError(f"depth analysis needs an exact strategy; the {model.base.variant} base has none")


def is_dead_end(model: LamplighterModel, g: WreathState) -> bool:
    """True iff no single generator extends g to a longer element."""
    _require_exact(model)
    return _dead_end_length(model, model._encode(g))[0]


def _dead_end_length(model: LamplighterModel, s: int) -> Tuple[bool, int]:
    """(the interned state s is a dead end, its word length)."""
    L = _state_length(model, s)
    return all(_state_length(model, t) <= L for t in model._steps(s)), L


def depth(model: LamplighterModel, g: WreathState, k_max: int) -> DepthReport:
    """Largest n <= k_max with ||gh|| <= ||g|| for every ||h|| <= n, by BFS
    over multiplier words on interned states."""
    _require_exact(model)
    s = model._encode(g)
    L = _state_length(model, s)
    labels = [label for label, _state in model.generator_states()]
    steps = model._steps
    seen: Set[int] = {s}
    # words are parent links (parent_link, label), flattened only on return
    frontier: List[Tuple[int, Optional[tuple]]] = [(s, None)]
    for n in range(1, k_max + 1):
        nxt: List[Tuple[int, Optional[tuple]]] = []
        for state, link in frontier:
            for label, t in zip(labels, steps(state)):
                if t in seen:
                    continue
                seen.add(t)
                if _state_length(model, t) > L:
                    return DepthReport(g, L, n - 1, True, _unlink((link, label)))
                nxt.append((t, (link, label)))
        frontier = nxt
    return DepthReport(g, L, k_max, False)


def _unlink(link: Optional[tuple]) -> Tuple[str, ...]:
    labels: List[str] = []
    while link is not None:
        link, label = link
        labels.append(label)
    return tuple(reversed(labels))


def retreat_depth(model: LamplighterModel, g: WreathState, k_max: int) -> Tuple[int, bool]:
    """Minimal k such that the sphere ||g||+1 is reachable from g through
    elements of word length >= ||g|| - k.  Returns (k_max + 1, False) when
    every k <= k_max fails."""
    _require_exact(model)
    s = model._encode(g)
    dead, L = _dead_end_length(model, s)
    if not dead:
        raise ValueError("retreat depth is defined for dead ends only")
    steps, cap = model._steps, CAPS["RETREAT_SEARCH_CAP"]
    for k in range(0, k_max + 1):
        seen: Set[int] = {s}
        frontier = [s]
        while frontier:
            nxt = []
            for state in frontier:
                for t in steps(state):
                    if t in seen:
                        continue
                    lt = _state_length(model, t)
                    if lt == L + 1:
                        return k, True
                    if lt >= L - k:
                        seen.add(t)
                        nxt.append(t)
                        if len(seen) > cap:
                            raise ResourceCapError("RETREAT_SEARCH_CAP", cap,
                                                   f"at k = {k}; retreat depth >= {k}")
            frontier = nxt
    return k_max + 1, False


# ---------------------------------------------------------------------------
# witnesses


def deep_lamp_element(lamps: GroupModel) -> Payload:
    """A word-length-maximizing lamp value (infinite depth in a finite group);
    ties broken by element index."""
    if not isinstance(lamps, FiniteModel):
        raise ValueError("designated deep element needs a finite lamps group")
    order = lamps.table.order
    return max(range(order), key=lambda i: (lamps.length_payload(i), -i))


def cleary_taback_witness(
    model: LamplighterModel, n: int, witness_set: Optional[Sequence[Payload]] = None
) -> WreathState:
    """(f, e) with f equal to the deep lamp element on a ball (or given set)."""
    a = deep_lamp_element(model.lamps)
    if witness_set is None:
        ball = cayley_ball(model.base, n)
        keys = list(ball.elements)
    else:
        keys = [model.base.normalize_payload(p) for p in witness_set]
    return model.state({k: a for k in keys}, model.base.identity_payload())


# ---------------------------------------------------------------------------
# Theorem-B verdicts over free products


@dataclass(frozen=True)
class VerdictReport:
    h_first: int
    h_second: int
    total: int
    uniformly_bounded: bool


def theorem_b_verdict(H: FiniteModel, K: FiniteModel) -> VerdictReport:
    """Uniformly bounded depth iff the Hamiltonian differences sum to >= 1."""
    h1 = hamiltonian.hamiltonian_difference(H)
    h2 = hamiltonian.hamiltonian_difference(K)
    return VerdictReport(h1, h2, h1 + h2, h1 + h2 >= 1)


def bounded_depth_constant(H: FiniteModel, K: FiniteModel) -> int:
    """Uniform depth bound for a bounded-verdict lamplighter over H * K.

    When some lamp within base distance 2(|H|+|K|) is unlit, lighting it and
    returning takes at most 4(|H|+|K|)+1 generators; the all-lit case needs
    at most 2|H|+|K| moves.  Valid only when theorem_b_verdict says bounded.
    """
    oH, oK = H.table.order, K.table.order
    return max(4 * (oH + oK) + 1, 2 * oH + oK)


def classify_abelian_free_product(H: FiniteModel, K: FiniteModel) -> Tuple[str, bool]:
    """Case label of the abelian free-product classification plus verdict
    (True = uniformly bounded).  Dispatch is by graph shape; it must agree
    with theorem_b_verdict on every abelian input."""
    for M in (H, K):
        if not M.table.is_abelian():
            raise ValueError("classification needs abelian factors")
    oH, oK = H.table.order, K.table.order
    if oH == 1 or oK == 1:
        return "1", False
    gH = finite_cayley_graph(H)
    gK = finite_cayley_graph(K)
    if oH <= 3 or oK <= 3:
        other = gK if oH <= 3 else gH
        if other.is_cycle_graph() and other.n >= 8:
            return "2a", True
        return "2b", False
    cH, cK = gH.is_cycle_graph(), gK.is_cycle_graph()
    if not cH and not cK:
        return "3", False
    if cH:
        prefix, cyc, other, other_n = "4", gH, gK, oK
    else:
        prefix, cyc, other, other_n = "5", gK, gH, oH
    if cyc.n in (4, 5):
        bounded = other.is_cycle_graph() and other_n >= 6
        return prefix + "a", bounded
    if cyc.n in (6, 7):
        bounded = other.is_cycle_graph() or other.bipartition() is not None
        return prefix + "b", bounded
    return prefix + "c", True


# ---------------------------------------------------------------------------
# depth profiles


class ProfileRow(NamedTuple):
    element_id: str
    word_length: int
    depth: int
    depth_exact: bool


# rows per list of ProfileRows.text_blocks: joining a whole shell into one
# string instead raised the radius-10 octagon profile's peak RSS by 3 MB
ROW_BLOCK = 4096


class ProfileRows(abc.Sequence):
    """The rows of a depth profile, in (word_length, element_id) order.

    Each row is held as one int in the array('q') `keys`: its word length,
    then the rank of its lamp body, then the rank of its position name, in
    fields as wide as the numbers of distinct bodies and names need.  A
    ProfileRow, and with it the element id `body;name`, is built only when
    the row is read.  The searched rows keep their DepthReport in a small
    dict keyed by row.  Every other row of a shell in `bounds` reads that
    shell's one report (the lower bounds of a k_max 0 profile's last
    shell); every other row has depth 0, exact.  The writers build no
    ProfileRow: text_blocks formats the rows in blocks straight from the
    ints.

    Rows of one word length compare by body first and name second.  That
    is the string order of the element ids `body;name` as long as no
    `body;` is a proper prefix of another one, and none is.  `+` joins the
    lamps of a body, each lamp holds one `@`, and no lamp value or position
    name holds `+` or `@`.  If `b;` were a proper prefix of `b2;`, the `@`
    of b's last lamp would also be one of b2, and b2's position name after
    it would begin with b's name and `;`: one `;` more than b's name holds.
    But every position name of one base holds the same number of `;` (an
    abelian base with torsion prints `head;tail`).  The body `-` of no lamps
    is no such prefix either, as no lamp value starts with `-;`.  So the
    rows of one lamp configuration and one word length are adjacent.
    """

    def __init__(self, model: LamplighterModel, shells: Sequence[Tuple[int, array]],
                 searched: Dict[int, DepthReport]):
        """The rows of the interned states of shells, (word length, the
        shell's states) pairs in increasing word length; searched holds the
        reports of the searched states."""
        payloads = model._positions.payloads
        # the body ranks come shifted into the field above the names; the
        # bodies are still ranked first: ranking the names first read up to
        # 1.6 MB higher in the radius-10 octagon profile's peak RSS
        position_ids = {s & _POS_MASK for _L, shell in shells for s in shell}
        nb = (len(position_ids) - 1).bit_length()
        self.bodies, body_bits = _ranked(
            {s >> 32 for _L, shell in shells for s in shell}, len(model._configs), _body_text(model), nb
        )
        self.names, name_rank = _ranked(position_ids, len(payloads), lambda p: model._base_str(payloads[p]))
        del position_ids
        bb = (len(self.bodies) - 1).bit_length()
        shift = nb + bb
        self._name_bits, self._shell_shift = nb, shift
        self._name_mask, self._body_mask = (1 << nb) - 1, (1 << bb) - 1

        # one shell at a time: only its keys are ever held as a list
        self.keys = array("q")
        for L, shell in shells:
            if L.bit_length() + shift > 63:
                raise ResourceCapError("array('q') key bits", 63, f"by word length {L}: its row keys"
                                       f" need {L.bit_length() + shift} bits ({len(self.bodies)}"
                                       f" bodies, {len(self.names)} names)")
            top = L << shift
            keys = [top | body_bits[s >> 32] | name_rank[s & _POS_MASK] for s in shell]
            keys.sort()
            self.keys.fromlist(keys)
        self.searched = {
            rep.word_length << shift | body_bits[s >> 32] | name_rank[s & _POS_MASK]: rep
            for s, rep in searched.items()
        }
        self.bounds: Dict[int, DepthReport] = {}

    def _element_id(self, k: int) -> str:
        return self.bodies[k >> self._name_bits & self._body_mask] + self.names[k & self._name_mask]

    def _row(self, k: int) -> ProfileRow:
        rep = self.searched.get(k) or self.bounds.get(k >> self._shell_shift)
        if rep is None:
            return ProfileRow(self._element_id(k), k >> self._shell_shift, 0, True)
        return ProfileRow(self._element_id(k), rep.word_length, rep.depth, rep.depth_exact)

    def _shell_range(self, L: int) -> Tuple[int, int]:
        """The index range of the rows of word length L in keys."""
        keys, shift = self.keys, self._shell_shift
        return bisect.bisect_left(keys, L << shift), bisect.bisect_left(keys, L + 1 << shift)

    def text_blocks(
        self,
        field: Callable[[str], str],
        head: str,
        tail: Callable[[int], str],
        full: Callable[[str, DepthReport], str],
    ) -> Iterator[List[str]]:
        """The rows as text, in row order and in lists of at most ROW_BLOCK.

        A searched row is full(element id, its report), and so is any other
        row of a shell in bounds, with that shell's report.  Any other row
        of word length L is head + the field of its element id + tail(L),
        with tail called once per shell.  field(text) is text as one output
        field: text itself, or text escaped between double quotes.  The
        field of `body;name` is put together from the fields of the body and
        the name, each made once, and is quoted when either of them is.
        """
        bodies, names = self.bodies, self.names
        body_fields, name_fields = list(map(field, bodies)), list(map(field, names))
        quoted_body = list(map(operator.ne, body_fields, bodies))
        quoted_name = list(map(operator.ne, name_fields, names))
        plain = [None if q else head + t for t, q in zip(bodies, quoted_body)]
        # a quoted id is the body's field without its closing quote and the
        # name's without its opening one; read only when some field is quoted
        opened, closed = plain, names
        if any(quoted_body) or any(quoted_name):
            opened = [head + (f[:-1] if f != t else '"' + t) for f, t in zip(body_fields, bodies)]
            closed = [f[1:] if f != t else t + '"' for f, t in zip(name_fields, names)]
        del body_fields, name_fields
        keys, nb, bm, nm = self.keys, self._name_bits, self._body_mask, self._name_mask
        marks = sorted(self.searched)
        m = 0
        for L in range((keys[-1] >> self._shell_shift) + 1):
            t, bound = tail(L), self.bounds.get(L)
            lo, hi = self._shell_range(L)
            for i in range(lo, hi, ROW_BLOCK):
                j = min(i + ROW_BLOCK, hi)
                if bound:
                    block = [full(self._element_id(k), bound) for k in keys[i:j]]
                else:
                    block = [
                        opened[b] + closed[n] + t if quoted_body[b] or quoted_name[n] else plain[b] + names[n] + t
                        for k in keys[i:j] for b, n in ((k >> nb & bm, k & nm),)
                    ]
                while m < len(marks) and marks[m] <= keys[j - 1]:
                    k = marks[m]
                    row = full(self._element_id(k), self.searched[k])
                    block[bisect.bisect_left(keys, k, i, j) - i] = row
                    m += 1
                yield block

    def __len__(self) -> int:
        return len(self.keys)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self._row, self.keys[i]))
        return self._row(self.keys[i])

    def __iter__(self) -> Iterator[ProfileRow]:
        return map(self._row, self.keys)

    def __eq__(self, other) -> bool:
        if not isinstance(other, abc.Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def dead_ends(self) -> List[Tuple[ProfileRow, WreathState]]:
        """(row, state) of every row of depth >= 1, in row order."""
        return [(self._row(k), rep.element) for k, rep in sorted(self.searched.items()) if rep.depth >= 1]

    def max_depth_per_shell(self) -> Dict[int, int]:
        # a ball has rows on every shell from 0 to its last one
        out = dict.fromkeys(range((self.keys[-1] >> self._shell_shift) + 1), 0)
        for rep in itertools.chain(self.searched.values(), self.bounds.values()):
            out[rep.word_length] = max(out[rep.word_length], rep.depth)
        return out


def _body_text(model: LamplighterModel) -> Callable[[int], str]:
    """The body of a configuration id: `model._lamps_str` of its lamps plus
    `;`.  The lamps go in payload order, by a rank of the position payloads
    made once, and each `value@name` is built once per (position id, value)."""
    payloads = model._positions.payloads
    rank = [0] * len(payloads)
    for r, p in enumerate(sorted(range(len(payloads)), key=payloads.__getitem__)):
        rank[p] = r
    lamp_str, name = model.lamps.payload_str, model._base_str
    lamp = functools.lru_cache(maxsize=None)(lambda p, v: f"{lamp_str(v)}@{name(payloads[p])}")

    def body(c: int) -> str:
        config = model._configs[c]
        ordered = sorted(zip(map(rank.__getitem__, config[::2]), config[::2], config[1::2]))
        return ("+".join([lamp(p, v) for _r, p, v in ordered]) or "-") + ";"

    return body


def _ranked(ids: Set[int], size: int, text, shift: int = 0) -> Tuple[List[str], List[int]]:
    """The strings text(i) of ids in sorted order, and a list of `size`
    slots holding the rank of each id's string, shifted left by `shift`, at
    the id."""
    pairs = sorted([(text(i), i) for i in ids])
    rank = [0] * size
    for r, (_t, i) in enumerate(pairs):
        rank[i] = r << shift
    return [t for t, _i in pairs], rank


@dataclass(frozen=True)
class DepthProfile:
    radius: int
    k_max: int
    rows: ProfileRows
    complete: bool
    # the cap error that cut the ball short; not part of the profile's value
    cut: Optional[ResourceCapError] = field(default=None, compare=False)

    def max_depth_per_shell(self) -> Dict[int, int]:
        return self.rows.max_depth_per_shell()

    def max_depth(self) -> int:
        return max(self.max_depth_per_shell().values())


def enumerate_ball(
    model: LamplighterModel, radius: int, cap: Optional[int] = None
) -> Tuple[Dict[WreathState, int], bool]:
    """All wreath elements of word length <= radius with their BFS distances.

    Returns (distances, complete).  When the cap is hit, it stops after the
    last fully enumerated shell, with complete False."""
    shells, _stuck, cut = _ball_shells(model, radius, cap)
    return {model._decode(s): L for L, shell in enumerate(shells) for s in shell}, cut is None


def _ball_shells(
    model: LamplighterModel, radius: int, cap: Optional[int]
) -> Tuple[List[array], Dict[int, int], Optional[ResourceCapError]]:
    """enumerate_ball on interned states: (one sorted array of states per
    word length, the stuck states with their word lengths, the cap error that
    cut the ball short or None).  A state is stuck when no neighbour lies one
    shell further out: below the last shell the BFS finds it while expanding
    into the next shell, on the last shell _staying finds it.

    The enumeration stops as soon as it holds more than `cap` states, so it
    builds at most cap plus one element's neighbours.  It then drops the
    partial shell d and the states found stuck while expanding into it, and
    the error names shell d and the last complete shell.  It also stops at a
    shell that adds no state, so a finite group has no empty shell.  The
    distance dict lives only inside this function."""
    cap = env_cap("WREATH_BALL_CAP") if cap is None else cap
    e = model._encode(model.identity_state())
    dist: Dict[int, int] = {e: 0}
    stuck: Dict[int, int] = {}
    sizes = [1]
    frontier = [e]
    steps = model._steps
    cut = None
    for d in range(1, radius + 1):
        nxt = []
        shell_stuck = []
        for s in frontier:
            up = False
            for t in steps(s):
                dt = dist.get(t)
                if dt is None:
                    dist[t] = d
                    nxt.append(t)
                    up = True
                elif dt == d:
                    up = True
            if not up:
                shell_stuck.append(s)
            if len(dist) > cap:
                for t in nxt:
                    del dist[t]
                cut = ResourceCapError("WREATH_BALL_CAP", cap, f"in shell {d}; shells 0..{d - 1} are complete")
                break
        if cut or not nxt:
            break
        stuck.update(dict.fromkeys(shell_stuck, d - 1))
        sizes.append(len(nxt))
        frontier = nxt
    # the last shell lives on in its array only
    frontier = nxt = shell_stuck = None
    shells = _shell_arrays(dist, sizes)
    stuck.update(dict.fromkeys(_staying(model, dist, shells[-1]), len(shells) - 1))
    return shells, stuck, cut


def _state_length(model: LamplighterModel, s: int) -> int:
    """Word length of the interned state s by the formula, never the BFS
    distance (see _config_lengths)."""
    return _config_lengths(model, s >> 32, (s & _POS_MASK,))[0]


def _config_lengths(model: LamplighterModel, c: int, ends: Sequence[int]) -> List[int]:
    """Word lengths of the interned states c << 32 | p for the position ids
    p of ends, by the formula: the lamp cost of the configuration's values
    plus a TS term by the model's strategy.  The petal strategy prices every
    end in one tsp.ts_free_product_ends call on position ids.  The others
    look the term up in _ts_cache by (position id, support ids) and decode
    the payloads only on a miss, for tsp.ts_tree or _solve_walk.

    The petal strategy adds the lamp cost inside that call, so one
    configuration costs one call and no list of its own."""
    config = model._configs[c]
    cost = sum(map(model._lamp_len, config[1::2]))
    if model.strategy == "petal":
        return tsp.ts_free_product_ends(model._positions, config[::2], ends, model._ts_fp_memo, cost)
    support, out = config[::2], []
    for p in ends:
        key = (p, support)
        ts = model._ts_cache.get(key)
        if ts is None:
            payloads = model._positions.payloads
            pos, points = payloads[p], [payloads[i] for i in support]
            if model.strategy == "tree":
                ts = tsp.ts_tree((), pos, sorted(points), model.base)
            else:
                ts = _solve_walk(model, pos, frozenset(points))[0]
            model._ts_cache[key] = ts
        out.append(cost + ts)
    return out


def _check_formula(model: LamplighterModel, s: int, formula: int, L: int) -> None:
    if formula != L:
        g = model._decode(s)
        raise VerificationError(
            f"formula gives {formula} but BFS distance is {L} for {model.state_str(g)}"
        )


def depth_profile(model: LamplighterModel, radius: int, k_max: int, cap: Optional[int] = None) -> DepthProfile:
    """Depth of every element of word length <= radius.  A ball that passes
    its cap stops after its last complete shell, and the profile is partial:
    complete False, with the cap error in cut.

    Depth 0 comes by table lookup on every shell: an element is depth 0
    unless the enumeration found it stuck (no neighbour one shell further
    out).  Every shell up to the last one is complete, also after a cap
    cut, so a neighbour of a last-shell element that is not in the ball is
    one longer.  Each stuck element gets one depth search; with k_max 0 it
    expands nothing and reports depth >= 0.  The other rows of a k_max 0
    profile's last shell are depth >= 0 too, and share one report.  The
    word-length formula is checked against the BFS distance on every
    searched and every last-shell element.  The ball and the checks run on
    interned states; a state is decoded only for a depth search or an error
    message.  The rows are ProfileRows: one int each, with element ids built
    as rows are read or written.

    The ball comes as one sorted array of state ints per shell, its
    distance dict already gone.  The last shell is priced one lamp
    configuration at a time from its array, where the states of one
    configuration are adjacent, in one _config_lengths call, which splits
    the configuration's support once.  The petal memo is cleared before the
    rows are built.
    """
    _require_exact(model)
    shells, stuck, cut = _ball_shells(model, radius, cap)
    reached = len(shells) - 1
    searched = {s: _search(model, s, L, k_max) for s, L in stuck.items()}
    # pricing reads configurations by id and interns nothing, so the id dict
    # goes while the memo grows; both are as before once the memo is cleared
    model._config_ids = None
    try:
        for c, states in _config_runs(shells[reached]):
            lengths = _config_lengths(model, c, [s & _POS_MASK for s in states])
            # one count compares every state; the loop runs on a mismatch
            if lengths.count(reached) != len(states):
                for s, L in zip(states, lengths):
                    _check_formula(model, s, L, reached)
    finally:
        model._ts_fp_memo.clear()
        model._config_ids = {config: c for c, config in enumerate(model._configs)}
    rows = ProfileRows(model, list(enumerate(shells)), searched)
    if not k_max:
        rows.bounds[reached] = DepthReport(None, reached, 0, False)
    return DepthProfile(radius, k_max, rows, cut is None, cut)


def _staying(model: LamplighterModel, dist: Dict[int, int], last: Sequence[int]) -> List[int]:
    """The states of last, the last shell, with every neighbour in dist.
    The base moves come from the position table's rows; the lamp moves are
    tried only when every base move stays in dist, and intern nothing: a
    configuration that was never interned is not in the ball."""
    positions, n_lamps = model._positions, len(model.lamps.gens)
    stay = []
    for s in last:
        p = s & _POS_MASK
        bits = s ^ p
        for q in positions.rows[p] or positions.steps(p):
            if bits | q not in dist:
                break
        else:
            if all(t in dist for t in model._steps(s, False)[:n_lamps]):
                stay.append(s)
    return stay


def _shell_arrays(dist: Dict[int, int], sizes: Sequence[int]) -> List[array]:
    """The states of dist as one array('q') per shell, sorted by state int;
    dist lists its states shell by shell, sizes[L] of shell L.  Each shell
    is sorted as a list of dist's own ints, so the sort makes no int."""
    states = iter(dist)
    shells = []
    for n in sizes:
        shell = list(itertools.islice(states, n))
        shell.sort()
        shells.append(array("q", shell))
    return shells


def _config_runs(states: Sequence[int]) -> Iterator[Tuple[int, Sequence[int]]]:
    """(config id, its states) per lamp configuration of the sorted states,
    in which the states of one configuration are adjacent."""
    i = 0
    while i < len(states):
        c = states[i] >> 32
        j = bisect.bisect_left(states, c + 1 << 32, i)
        yield c, states[i:j]
        i = j


def _search(model: LamplighterModel, s: int, L: int, k_max: int) -> DepthReport:
    """depth() of the interned state s, its word length checked against L."""
    rep = depth(model, model._decode(s), k_max)
    _check_formula(model, s, rep.word_length, L)
    return rep
