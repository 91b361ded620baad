"""Nash-Williams bases against a brute-force oracle that uses only the group
law, never the Hermite code: over seeded abelian groups of rank 1 to 3 with
torsion, every element decomposes and recomposes to itself with
0 <= q_j < m_j, and distinct coordinates on a small box give distinct
elements."""

import itertools
import random

import pytest

from lamplighter import groups as G, hamiltonian as H

TORSION = [(), (2,), (3,), (4,), (2, 2)]


def _random_groups(seed, rank, count):
    """`count` abelian groups Z^rank x torsion, each with rank..rank+3 random
    small generators that generate (make_abelian refuses the others)."""
    rng = random.Random(seed)
    models = []
    while len(models) < count:
        moduli = list(rng.choice(TORSION))
        k, gens = rng.randint(rank, rank + 3), set()
        while len(gens) < k:
            v = tuple(rng.randint(-3, 3) for _ in range(rank)) + tuple(rng.randrange(m) for m in moduli)
            if any(v):
                gens.add(v)
        try:
            models.append(G.make_abelian(rank, moduli, [list(v) for v in sorted(gens)]))
        except ValueError:
            continue
    return models


def _recompose(model, basis, ps, qs):
    """sum p_i a_i + sum q_j b_j, by the group law alone."""
    total = [0] * model.dim
    for coef, gen in zip(ps + qs, basis.a + basis.b):
        total = [t + coef * c for t, c in zip(total, gen)]
    return model.normalize_payload(total)


def _elements(model, side):
    """Every element with free coordinates in [-side, side]."""
    free = itertools.product(range(-side, side + 1), repeat=model.rank)
    return [tuple(f) + tuple(t) for f in free
            for t in itertools.product(*[range(m) for m in model.moduli])]


@pytest.mark.parametrize("rank, count, side", [(1, 12, 6), (2, 10, 3), (3, 5, 2)])
def test_decomposition_round_trips(rank, count, side):
    for model in _random_groups(rank, rank, count):
        basis = H.nash_williams_basis(model)
        assert len(basis.a) == rank and len(basis.m) == len(basis.b)
        for g in _elements(model, side):
            ps, qs = H.nw_decompose(model, basis, g)
            assert all(0 <= q < m for q, m in zip(qs, basis.m)), (model.gens, basis, g, qs)
            assert _recompose(model, basis, ps, qs) == g, (model.gens, basis, g, ps, qs)


@pytest.mark.parametrize("rank, count", [(1, 12), (2, 10), (3, 5)])
def test_distinct_coordinates_give_distinct_elements(rank, count):
    for model in _random_groups(100 + rank, rank, count):
        basis = H.nash_williams_basis(model)
        p_box = [range(-2, 3)] * rank
        q_box = [range(min(m, 6)) for m in basis.m]
        seen = {}
        for ps in itertools.product(*p_box):
            for qs in itertools.product(*q_box):
                g = _recompose(model, basis, ps, qs)
                assert g not in seen, (model.gens, basis, seen.get(g), (ps, qs))
                seen[g] = (ps, qs)
