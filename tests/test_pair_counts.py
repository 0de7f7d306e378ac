"""Hom, mono and ext counts where non-loop arrows carry nonempty blocks.

The counts sum over Jordan representatives of the loop locus; the oracles
here walk every pair of odometer points and every tuple of vertex maps or
cocycle blocks, and share no code with the Hom or cocycle systems or with
the strata."""

import itertools

import pytest

from helpers import (intertwines_reference, is_cocycle_reference,
                     iter_rep_points_odometer)
from qvl.certificates import mono_reducibility_witness
from qvl.counting import (BudgetExceededError, count_ext_points,
                          count_hom_points, count_mono_points)
from qvl.extensions import block_shapes
from qvl.families import family_a, family_a_prime, family_a_prime_commuting
from qvl.linalg import GF, Matrix
from qvl.reps import Morphism, is_monomorphism

F2 = GF(2)

FAMILIES = {"A(1,3,1)": family_a(1, 3, 1),
            "A'comm(2)": family_a_prime_commuting(2),
            "A(1,3,2)": family_a(1, 3, 2),
            "A'(1,2,2)": family_a_prime(1, 2, 2)}

DIM_PAIRS = [((1, 1), (1, 2)), ((1, 2), (1, 1)), ((2, 1), (1, 1)),
             ((1, 1), (2, 1))]


def _matrices(field, shapes, values):
    """The tuple ``values`` cut into matrices of the given shapes, each
    filled row-major."""
    out, pos = {}, 0
    for key, (r, c) in shapes.items():
        out[key] = Matrix(field, r, c, [values[pos + i * c:pos + (i + 1) * c]
                                        for i in range(r)])
        pos += r * c
    return out


def _assignments(field, shapes):
    total = sum(r * c for r, c in shapes.values())
    for values in itertools.product(range(field.p), repeat=total):
        yield _matrices(field, shapes, values)


def _oracle(pres, field, first_dims, second_dims):
    """(hom, mono, ext) counts by brute force: every pair of odometer points
    with every tuple of vertex maps (kept when it intertwines, and for mono
    when it is also injective) and every cocycle block family."""
    firsts = list(iter_rep_points_odometer(pres, field, first_dims))
    seconds = list(iter_rep_points_odometer(pres, field, second_dims))
    map_shapes = {x: (second_dims[x], first_dims[x])
                  for x in pres.quiver.vertices}
    blocks = block_shapes(pres, second_dims, first_dims)
    hom = mono = ext = 0
    for x, y in itertools.product(firsts, seconds):
        for maps in _assignments(field, map_shapes):
            mor = Morphism(x, y, maps)
            if intertwines_reference(mor):
                hom += 1
                mono += is_monomorphism(mor)
        ext += sum(is_cocycle_reference(x, y, fam)
                   for fam in _assignments(field, blocks))
    return hom, mono, ext


@pytest.mark.parametrize("first,second", DIM_PAIRS)
@pytest.mark.parametrize("name", list(FAMILIES))
def test_pair_counts_match_brute_force(name, first, second):
    pres = FAMILIES[name]
    first_dims = dict(zip(pres.quiver.vertices, first))
    second_dims = dict(zip(pres.quiver.vertices, second))
    assert (count_hom_points(pres, F2, first_dims, second_dims),
            count_mono_points(pres, F2, first_dims, second_dims),
            count_ext_points(pres, F2, first_dims, second_dims)) \
        == _oracle(pres, F2, first_dims, second_dims)


def test_mono_count_sums_over_strata_under_budget():
    # The witness's reference case.  The count takes 1962 steps on the
    # doubled quiver: one per each of its 2 stratum rows, one per each of
    # the 392 weighted pairs (the points of the middle layer s_a1, t_a1
    # above them), then min(T, 7^dim Hom) per pair, with T = 4 terms of the
    # Moebius sum.  Walking every Hom vector took 18196 steps, and walking
    # every hom point 48119.
    pres = family_a(1, 3, 1)
    source, target = {0: 1, 1: 1}, {0: 1, 1: 2}
    count = count_mono_points(pres, GF(7), source, target, budget=1962)
    assert count == 26208
    assert count == mono_reducibility_witness(3, 2, 1, 7).total
    with pytest.raises(BudgetExceededError):
        count_mono_points(pres, GF(7), source, target, budget=1961)
