"""Computable group models: finite tables, f.g. abelian groups, free groups,
and free products of two finite groups, with canonical normal forms.

Elements are plain hashable tuples/ints (payloads) in normal form, used
through the payload methods of their model.  All models are immutable after
construction and all operations are pure, so values can be shared freely.
No other module sets attributes on a model: the word-length memos and the
position tables (`PositionTable`) live on `wreath.LamplighterModel`.

Payload encodings
-----------------
- finite:       element index into the multiplication table
- abelian:      integer vector of length rank+len(moduli), residues reduced
- free:         reduced word as a tuple of nonzero signed letter numbers
- free product: alternating tuple of (factor, index) letters, no identities
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import ResourceCapError
from .limits import CAPS

Payload = object  # per-variant encoding, always hashable and orderable


# ---------------------------------------------------------------------------
# finite multiplication tables


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


# ---------------------------------------------------------------------------
# group models


class GroupModel:
    """Base for the four group variants.  Instances compare by identity."""

    variant: str = "?"
    gens: Tuple[Payload, ...]  # symmetrized, without the identity

    # payload-level group operations -------------------------------------
    def identity_payload(self) -> Payload:
        raise NotImplementedError

    def mul_payload(self, a: Payload, b: Payload) -> Payload:
        raise NotImplementedError

    def inv_payload(self, a: Payload) -> Payload:
        raise NotImplementedError

    def normalize_payload(self, a: Payload) -> Payload:
        return a

    def length_payload(self, a: Payload) -> int:
        raise NotImplementedError

    def payload_str(self, a: Payload) -> str:
        raise NotImplementedError

    def parse_payload(self, s: str) -> Payload:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# finite model


class FiniteModel(GroupModel):
    variant = "finite"

    def __init__(self, table: FiniteGroupTable, gen_indices: Sequence[int]):
        gens = _symmetrize_finite(table, gen_indices)
        dist = _bfs_lengths_finite(table, gens)
        if len(dist) != table.order:
            raise ValueError(f"{sorted(set(gen_indices))} does not generate {table.name}")
        self.table = table
        self.gens = tuple(gens)
        self._dist = dist

    def identity_payload(self) -> int:
        return self.table.identity

    def mul_payload(self, a: int, b: int) -> int:
        return self.table.mul[a][b]

    def inv_payload(self, a: int) -> int:
        return self.table.inv[a]

    def normalize_payload(self, a: int) -> int:
        if not 0 <= a < self.table.order:
            raise ValueError("element index out of range")
        return a

    def length_payload(self, a: int) -> int:
        return self._dist[a]

    def payload_str(self, a: int) -> str:
        return self.table.elem_names[a]

    def parse_payload(self, s: str) -> int:
        try:
            return self.table.elem_names.index(s)
        except ValueError:
            return self.normalize_payload(int(s))


def _symmetrize_finite(table: FiniteGroupTable, gen_indices: Sequence[int]) -> List[int]:
    seen: List[int] = []
    for g in gen_indices:
        g = int(g)
        if not 0 <= g < table.order:
            raise ValueError("generator index out of range")
        for h in (g, table.inv[g]):
            if h == table.identity:
                raise ValueError("identity is not allowed as a generator")
            if h not in seen:
                seen.append(h)
    return seen


def _bfs_lengths_finite(table: FiniteGroupTable, gens: Sequence[int]) -> Dict[int, int]:
    dist = {table.identity: 0}
    frontier = [table.identity]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for x in frontier:
            for s in gens:
                y = table.mul[x][s]
                if y not in dist:
                    dist[y] = d
                    nxt.append(y)
        frontier = nxt
    return dist


def make_cyclic(n: int, gen_residues: Sequence[int], letter: str = "b") -> FiniteModel:
    """Z/nZ with the given generating residues (symmetrized automatically)."""
    if n < 1:
        raise ValueError("n must be positive")
    table = cyclic_table(n, letter=letter)
    gens = [r % n for r in gen_residues]
    if any(r == 0 for r in gens):
        raise ValueError("generators must be nonzero mod n")
    return FiniteModel(table, gens)


# ---------------------------------------------------------------------------
# abelian model


class AbelianModel(GroupModel):
    variant = "abelian"

    def __init__(self, rank: int, moduli: Sequence[int], gen_vectors: Sequence[Sequence[int]]):
        if rank < 0 or any(m < 1 for m in moduli):
            raise ValueError("bad rank or moduli")
        if rank + len(moduli) < 1:
            raise ValueError("group must have at least one coordinate")
        self.rank = rank
        self.moduli = tuple(int(m) for m in moduli)
        self.dim = dim = rank + len(self.moduli)
        vecs = []
        for v in gen_vectors:
            v = tuple(int(c) for c in v)
            if len(v) != dim:
                raise ValueError("generator vector has wrong length")
            vecs.append(self._reduce(v))
        gens: List[Tuple[int, ...]] = []
        for v in vecs:
            for w in (v, self._neg(v)):
                if all(c == 0 for c in w):
                    raise ValueError("identity is not allowed as a generator")
                if w not in gens:
                    gens.append(w)
        witness = _abelian_nongeneration_witness(self.rank, self.moduli, vecs)
        if witness is not None:
            raise ValueError(
                f"generators do not generate: coset of {witness} is not reached"
            )
        self.gens = tuple(gens)
        units = [self._reduce(tuple(int(i == j) for j in range(dim))) for i in range(dim)]
        self._standard = set(gens) == set(units + [self._neg(u) for u in units])

    def _reduce(self, v: Sequence[int]) -> Tuple[int, ...]:
        if not self.moduli:
            return tuple(v)
        r = self.rank
        return tuple(v[:r]) + tuple(c % m for c, m in zip(v[r:], self.moduli))

    def _neg(self, v: Sequence[int]) -> Tuple[int, ...]:
        return self._reduce(tuple(-c for c in v))

    def identity_payload(self) -> Tuple[int, ...]:
        return (0,) * self.dim

    def mul_payload(self, a, b) -> Tuple[int, ...]:
        v = tuple(map(operator.add, a, b))
        return self._reduce(v) if self.moduli else v

    def inv_payload(self, a) -> Tuple[int, ...]:
        return self._neg(a)

    def normalize_payload(self, a) -> Tuple[int, ...]:
        a = tuple(int(c) for c in a)
        if len(a) != self.dim:
            raise ValueError(f"an abelian payload has {self.dim} coordinates, got {len(a)}")
        return self._reduce(a)

    def is_standard_gens(self) -> bool:
        """True when the generators are exactly the +-unit vectors."""
        return self._standard

    def length_payload(self, a) -> int:
        if self._standard:
            r = self.rank
            free = sum(abs(c) for c in a[:r])
            fin = sum(min(q, m - q) for q, m in zip(a[r:], self.moduli))
            return free + fin
        return _bfs_length_infinite(self, a)

    def payload_str(self, a) -> str:
        r = self.rank
        head = ",".join(str(c) for c in a[:r])
        tail = ",".join(str(c) for c in a[r:])
        if not self.moduli:
            return head or "0"
        if r == 0:
            return ";" + tail
        return f"{head};{tail}"

    def parse_payload(self, s: str) -> Tuple[int, ...]:
        if ";" in s:
            head, tail = s.split(";")
        else:
            head, tail = s, ""
        parts = [int(c) for c in head.split(",") if c.strip() != ""]
        parts += [int(c) for c in tail.split(",") if c.strip() != ""]
        return self.normalize_payload(tuple(parts))


def _abelian_nongeneration_witness(rank, moduli, vecs) -> Optional[Tuple[int, ...]]:
    """Return a coset witness if the vectors fail to generate, else None.

    The subgroup generated equals Z^{rank} x prod Z/m_j iff the lattice
    spanned by the vectors plus the relation rows m_j * e_{rank+j} is all of
    Z^dim, which is checked by Hermite-style row reduction.
    """
    dim = rank + len(moduli)
    basis = _hermite_basis(_with_relations(rank, moduli, vecs), dim)
    for c in range(dim):
        unit = [0] * dim
        unit[c] = 1
        if not _in_lattice(basis, unit, dim):
            return tuple(unit)
    return None


def _with_relations(rank: int, moduli: Sequence[int], vecs) -> List[List[int]]:
    """The vectors as rows, then the relation rows m_j * e_{rank+j}."""
    rows = [list(v) for v in vecs]
    for j, m in enumerate(moduli):
        rows.append([0] * (rank + j) + [m] + [0] * (len(moduli) - j - 1))
    return rows


def _hermite_basis(rows: List[List[int]], dim: int) -> List[List[int]]:
    """Row-echelon integer basis (Hermite style) of the lattice spanned by rows."""
    rows = [r[:] for r in rows if any(r)]
    basis: List[List[int]] = []
    col = 0
    while col < dim and rows:
        pivots = [r for r in rows if r[col] != 0]
        if not pivots:
            col += 1
            continue
        while True:
            pivots.sort(key=lambda r: abs(r[col]))
            p = pivots[0]
            done = True
            for r in pivots[1:]:
                q = r[col] // p[col]
                if q:
                    for k in range(dim):
                        r[k] -= q * p[k]
                if r[col] != 0:
                    done = False
            pivots = [p] + [r for r in pivots[1:] if r[col] != 0]
            if done or len(pivots) == 1:
                break
        if p[col] < 0:
            p[:] = [-x for x in p]
        basis.append(p)
        rows = [r for r in rows if r is not p and any(r)]
        col += 1
    return basis


def _lattice_residue(basis: List[List[int]], v: Sequence[int], dim: int) -> List[int]:
    """v less each echelon row of basis, in order, as many times as clears the
    row's lead column where that is a whole number: zero iff v is in the lattice."""
    v = list(v)
    for row in basis:
        lead = next((c for c in range(dim) if row[c] != 0), None)
        if lead is None:
            continue
        if v[lead] % row[lead] == 0:
            q = v[lead] // row[lead]
            for k in range(dim):
                v[k] -= q * row[k]
    return v


def _in_lattice(basis: List[List[int]], v: Sequence[int], dim: int) -> bool:
    return not any(_lattice_residue(basis, v, dim))


def _bfs_length_infinite(model: GroupModel, target: Payload) -> int:
    """Graph distance from the identity by layered BFS over payloads."""
    target = model.normalize_payload(target)
    e = model.identity_payload()
    if target == e:
        return 0
    dist = {e: 0}
    frontier = [e]
    d, cap = 0, CAPS["BFS_LENGTH_CAP"]
    while frontier:
        d += 1
        nxt = []
        for x in frontier:
            for s in model.gens:
                y = model.mul_payload(x, s)
                if y not in dist:
                    if y == target:
                        return d
                    dist[y] = d
                    nxt.append(y)
        if len(dist) > cap:
            raise ResourceCapError("BFS_LENGTH_CAP", cap,
                                   f"after radius {d} ({len(dist)} elements); the length is > {d}")
        frontier = nxt
    raise AssertionError("target not reached; generators do not generate?")


def make_abelian(rank: int, moduli: Sequence[int], gen_vectors: Sequence[Sequence[int]]) -> AbelianModel:
    """Z^rank x prod Z/m_j with the given generating vectors (symmetrized)."""
    return AbelianModel(rank, moduli, gen_vectors)


# ---------------------------------------------------------------------------
# free model


_LETTERS = "abcdefghijklmnopqrstuvwxyz"


class FreeModel(GroupModel):
    variant = "free"

    def __init__(self, rank: int, letters: str = _LETTERS):
        if not 1 <= rank <= 26 or len(letters) < rank:
            raise ValueError("free rank must be in 1..26 with enough letters")
        self.rank = rank
        self.letters = letters[:rank] if rank < len(letters) else letters
        gens = []
        for i in range(1, rank + 1):
            gens.append((i,))
            gens.append((-i,))
        self.gens = tuple(gens)

    def identity_payload(self) -> Tuple[int, ...]:
        return ()

    def mul_payload(self, a, b) -> Tuple[int, ...]:
        out = list(a)
        for x in b:
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(x)
        return tuple(out)

    def inv_payload(self, a) -> Tuple[int, ...]:
        return tuple(-x for x in reversed(a))

    def normalize_payload(self, a) -> Tuple[int, ...]:
        out: List[int] = []
        for x in a:
            x = int(x)
            if x == 0 or abs(x) > self.rank:
                raise ValueError("letter out of range")
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(x)
        return tuple(out)

    def length_payload(self, a) -> int:
        return len(a)

    def payload_str(self, a) -> str:
        if not a:
            return "e"
        return "".join(
            self.letters[x - 1] if x > 0 else self.letters[-x - 1].upper() for x in a
        )

    def parse_payload(self, s: str) -> Tuple[int, ...]:
        if s == "e":
            return ()
        out = []
        for ch in s:
            if ch.islower():
                out.append(self.letters.index(ch) + 1)
            else:
                out.append(-(self.letters.index(ch.lower()) + 1))
        return self.normalize_payload(tuple(out))


def make_free(rank: int, letters: str = _LETTERS) -> FreeModel:
    return FreeModel(rank, letters)


# ---------------------------------------------------------------------------
# free product model


class FreeProductModel(GroupModel):
    """H * K for finite H, K; elements are alternating normal-form words.

    Letters are (factor, index) with factor 0 = H, 1 = K; no letter is a
    factor identity and adjacent letters come from different factors.
    """

    variant = "free_product"

    def __init__(self, H: FiniteModel, K: FiniteModel):
        if H.table.order < 2 or K.table.order < 2:
            raise ValueError("both free-product factors must be nontrivial")
        self.factors: Tuple[FiniteModel, FiniteModel] = (H, K)
        gens: List[Tuple[Tuple[int, int], ...]] = []
        for f, model in enumerate(self.factors):
            for s in model.gens:
                gens.append(((f, s),))
        self.gens = tuple(gens)
        self._letter_names = self._build_letter_names()

    def _build_letter_names(self) -> Dict[Tuple[int, int], str]:
        names: Dict[Tuple[int, int], str] = {}
        used = set()
        for f, model in enumerate(self.factors):
            for i in range(model.table.order):
                if i == model.table.identity:
                    continue
                nm = model.table.elem_names[i]
                if nm in used:
                    nm = f"{'hk'[f]}{i}"
                used.add(nm)
                names[(f, i)] = nm
        return names

    def identity_payload(self) -> Tuple[Tuple[int, int], ...]:
        return ()

    def mul_payload(self, a, b):
        out = list(a)
        for letter in b:
            self._push(out, letter)
        return tuple(out)

    def _push(self, out: List[Tuple[int, int]], letter: Tuple[int, int]) -> None:
        f, x = letter
        model = self.factors[f]
        if x == model.table.identity:
            return
        if out and out[-1][0] == f:
            y = model.table.mul[out[-1][1]][x]
            out.pop()
            if y != model.table.identity:
                out.append((f, y))
        else:
            out.append((f, x))

    def inv_payload(self, a):
        out = []
        for f, x in reversed(a):
            out.append((f, self.factors[f].table.inv[x]))
        return tuple(out)

    def normalize_payload(self, a):
        out: List[Tuple[int, int]] = []
        for letter in a:
            f, x = int(letter[0]), int(letter[1])
            if f not in (0, 1) or not 0 <= x < self.factors[f].table.order:
                raise ValueError("bad free-product letter")
            self._push(out, (f, x))
        return tuple(out)

    def length_payload(self, a) -> int:
        return sum(self.factors[f].length_payload(x) for f, x in a)

    def payload_str(self, a) -> str:
        if not a:
            return "e"
        return ".".join(self._letter_names[l] for l in a)

    def parse_payload(self, s: str):
        if s == "e":
            return ()
        by_name = {v: k for k, v in self._letter_names.items()}
        letters = []
        for tok in s.split("."):
            if tok not in by_name:
                raise ValueError(f"unknown free-product letter {tok!r}")
            letters.append(by_name[tok])
        return self.normalize_payload(tuple(letters))


def make_free_product(H: FiniteModel, K: FiniteModel) -> FreeProductModel:
    """Free product of two nontrivial finite groups, gens = S_H u S_K."""
    return FreeProductModel(H, K)


# ---------------------------------------------------------------------------
# interned positions


class PositionTable:
    """Normal-form payloads of one group model hash-consed to dense ids.

    The identity is id 0.  steps(i) is the row of ids of payload(i) * s for
    the generators s in order, filled on first use.  Over a free product
    every id also holds, per factor f, its route through the f copy at the
    identity: routes[f][i] = (x, rest), the element x of that copy where
    the word leaves it and the id of the rest of the word beyond x (0 when
    the word ends in the copy).  For the factor of the first letter that is
    the letter and the id of the suffix, interned recursively; for the other
    factor it is (identity, i).  The model is only read.
    """

    def __init__(self, model: GroupModel):
        self.model = model
        self.payloads: List[Payload] = []
        self.ids: Dict[Payload, int] = {}
        self.rows: List[Optional[List[int]]] = []
        self.routes: Tuple[List[Tuple[int, int]], ...] = ()
        if isinstance(model, FreeProductModel):
            self.routes = tuple([] for _f in model.factors)
        self.intern(model.identity_payload())

    def intern(self, p: Payload) -> int:
        i = self.ids.get(p)
        if i is None:
            rest = self.intern(p[1:]) if self.routes and p else 0
            i = self.ids[p] = len(self.payloads)
            self.payloads.append(p)
            self.rows.append(None)
            for f, routes in enumerate(self.routes):
                ident = self.model.factors[f].table.identity
                if not p:
                    routes.append((ident, 0))
                elif p[0][0] == f:
                    routes.append((p[0][1], rest))
                else:
                    routes.append((ident, i))
        return i

    def steps(self, i: int) -> List[int]:
        row = self.rows[i]
        if row is None:
            p, mul = self.payloads[i], self.model.mul_payload
            row = self.rows[i] = [self.intern(mul(p, s)) for s in self.model.gens]
        return row


# ---------------------------------------------------------------------------
# JSON group specs (consumed by the CLI)


def group_spec_of(model: GroupModel) -> dict:
    """Canonical JSON spec describing a model; parse_group_spec rebuilds
    every model it can build from it.  Finite tables that are not cyclic
    tables get the descriptive "finite" variant, which does not parse."""
    if isinstance(model, FiniteModel):
        table = model.table
        letter = table.elem_names[1] if table.order > 1 else "b"
        if table == cyclic_table(table.order, letter):
            return {"variant": "cyclic", "n": table.order,
                    "gens": list(model.gens), "letter": letter}
        return {
            "variant": "finite",
            "name": model.table.name,
            "order": model.table.order,
            "gens": [model.payload_str(s) for s in model.gens],
        }
    if isinstance(model, AbelianModel):
        return {
            "variant": "abelian",
            "rank": model.rank,
            "moduli": list(model.moduli),
            "gens": [list(v) for v in model.gens],
        }
    if isinstance(model, FreeModel):
        return {"variant": "free", "rank": model.rank, "letters": model.letters}
    if isinstance(model, FreeProductModel):
        return {
            "variant": "free_product",
            "H": group_spec_of(model.factors[0]),
            "K": group_spec_of(model.factors[1]),
        }
    raise ValueError(f"unknown model {model!r}")


def parse_group_spec(spec: dict) -> GroupModel:
    """Build a model from the JSON group-spec schema.

    {"variant":"cyclic","n":8,"gens":[1]}
    {"variant":"abelian","rank":2,"moduli":[],"gens":[[1,0],[0,1]]}
    {"variant":"free","rank":2,"letters":"xy"}
    {"variant":"free_product","H":{...},"K":{...}}
    """
    if not isinstance(spec, dict):
        raise ValueError(f"a group spec is a JSON object, got {type(spec).__name__}")
    variant = spec.get("variant")
    if variant == "cyclic":
        return make_cyclic(spec["n"], spec["gens"], letter=spec.get("letter", "b"))
    if variant == "abelian":
        return make_abelian(spec["rank"], spec.get("moduli", []), spec["gens"])
    if variant == "free":
        return make_free(spec["rank"], spec.get("letters", _LETTERS))
    if variant == "free_product":
        H = parse_group_spec(spec["H"])
        K = parse_group_spec(spec["K"])
        if not isinstance(H, FiniteModel) or not isinstance(K, FiniteModel):
            raise ValueError("free_product factors must be finite group specs")
        return make_free_product(H, K)
    raise ValueError(f"unknown group variant {variant!r}")
