"""The mono count by Moebius inversion on the subspace lattice.

The count is checked against the mono iterator, which walks every Hom
vector with the injectivity test and shares no code with the Moebius sum,
on cases where each pair takes the sum, the walk, or some of each; and the
subspace listing is checked against its closed-form size."""

import pytest

import qvl.counting as counting
from qvl.counting import count_mono_points, iter_mono_points
from qvl.dsl import parse_quiver_spec
from qvl.families import family_a, family_b, family_lambda
from qvl.linalg import GF
from qvl.strata import subspace_count, subspaces

SQUARE = parse_quiver_spec(
    "quiver Square { vertex 0; vertex 1; vertex 2; vertex 3; "
    "arrow a: 0 -> 1; arrow b: 1 -> 3; arrow c: 0 -> 2; arrow d: 2 -> 3; "
    "rel b*a - d*c; }")


def _branches(monkeypatch):
    """The set of branches a mono count takes, filled in as it runs: the
    walk calls the injectivity test, the sum lists subspaces."""
    taken = set()
    injective, listed = counting._injective, counting.subspaces

    def walked(field, shapes):
        test = injective(field, shapes)
        return lambda vec: taken.add("walk") or test(vec)

    def summed(p, c):
        taken.add("moebius")
        return listed(p, c)

    monkeypatch.setattr(counting, "_injective", walked)
    monkeypatch.setattr(counting, "subspaces", summed)
    return taken


@pytest.mark.parametrize("pres,q,source,target,branches", [
    (family_lambda(2), 3, (1,), (2,), {"moebius"}),
    (family_a(1, 3, 1), 3, (1, 1), (1, 2), {"moebius", "walk"}),
    # a vertex map with no columns, then one with no rows
    (family_a(1, 3, 1), 2, (0, 1), (1, 2), {"moebius", "walk"}),
    (family_b(1, 3), 2, (1, 0), (2, 1), {"moebius", "walk"}),
    (SQUARE, 2, (1, 0, 1, 1), (1, 1, 1, 1), {"walk"}),
    # a vertex map with two columns
    (family_a(1, 4, 2), 2, (1, 2), (2, 2), {"moebius", "walk"}),
    (family_a(1, 3, 1), 3, (2, 1), (2, 1), {"moebius", "walk"})],
    ids=["Lambda2", "A131", "no-columns", "no-rows", "square", "A142",
         "A131-21"])
def test_count_equals_the_walked_monomorphisms(pres, q, source, target,
                                               branches, monkeypatch):
    source = dict(zip(pres.quiver.vertices, source))
    target = dict(zip(pres.quiver.vertices, target))
    taken = _branches(monkeypatch)
    count = count_mono_points(pres, GF(q), source, target)
    monkeypatch.undo()
    assert taken == branches
    assert count == len(list(iter_mono_points(pres, GF(q), source, target)))
    assert count


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("c", range(4))
def test_subspaces_are_listed_once_each(c, q):
    listed = list(subspaces(q, c))
    assert len(listed) == subspace_count(c, q)
    # each in reduced echelon form, so distinct bases are distinct spaces
    assert len(set(listed)) == len(listed)
    for basis in listed:
        leads = [row.index(1) for row in basis]
        assert leads == sorted(set(leads))
        assert all(row[lead] == 1 and not any(x for x in row[:lead])
                   and all(other[lead] == 0 for other in basis
                           if other is not row)
                   for row, lead in zip(basis, leads))


def test_subspace_count_is_the_gaussian_binomial_sum():
    # 1 + 7 + 7 + 1 over F_2, 1 + 13 + 13 + 1 over F_3
    assert [subspace_count(3, q) for q in (2, 3)] == [16, 28]
    assert [subspace_count(c, 2) for c in range(4)] == [1, 2, 5, 16]
