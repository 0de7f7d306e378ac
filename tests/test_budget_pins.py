"""The budget meter, pinned walk by walk.

Each walk runs under budgets from 1 to 3000.  Where the budget runs out,
the exact ``BudgetExceededError`` message is pinned: it names the steps
taken and the steps planned so far, so a walk that plans or takes its
steps in another order, or visits another number of points, fails here.
Where the budget suffices, the result is pinned, and for the point
iterators a digest of the points in walk order."""

import dataclasses
import hashlib

import pytest

from qvl.certificates import (hom_counterexample_census,
                              mono_reducibility_witness)
from qvl.counting import (BudgetExceededError, _Meter, count_hom_points,
                          count_mono_points, count_rep_points,
                          iter_hom_points, iter_rep_points)
from qvl.dsl import parse_quiver_spec
from qvl.families import family_a
from qvl.linalg import GF

# a loop between two arrows: the walk needs the base arrow a
SANDWICH = parse_quiver_spec("""quiver Sandwich {
  vertex 0; vertex 1; vertex 2;
  arrow a: 0 -> 1; loop e at 1; arrow b: 1 -> 2;
  rel b*e*a; rel e^2;
}""")
A131 = family_a(1, 3, 1)
F3 = GF(3)


def _digest(points):
    return len(points), hashlib.sha256(repr(points).encode()).hexdigest()[:16]


def _walked(pres, dims):
    def walk(budget):
        return _digest([tuple(m.rows for m in rep.mats.values())
                        for rep in iter_rep_points(pres, F3, dims,
                                                   meter=_Meter(budget))])
    return walk


def _walked_homs(budget):
    return _digest([tuple(m.rows for m in (*t.source.mats.values(),
                                           *t.target.mats.values(),
                                           *t.morphism.maps.values()))
                    for t in iter_hom_points(A131, F3, {0: 1, 1: 1},
                                             {0: 1, 1: 2},
                                             meter=_Meter(budget))])


WALKS = {
    "rep-loops": lambda b: count_rep_points(A131, F3, {0: 2, 1: 2},
                                            budget=b),
    "rep-base": lambda b: count_rep_points(SANDWICH, F3,
                                           {0: 2, 1: 2, 2: 2}, budget=b),
    "iter-loops": _walked(A131, {0: 2, 1: 2}),
    "iter-base": _walked(SANDWICH, {0: 1, 1: 2, 2: 1}),
    "mono": lambda b: count_mono_points(A131, F3, {0: 1, 1: 1},
                                        {0: 1, 1: 2}, budget=b),
    "hom": lambda b: count_hom_points(A131, F3, {0: 1, 1: 1}, {0: 1, 1: 2},
                                      budget=b),
    "iter-hom": _walked_homs,
    "witness": lambda b: dataclasses.astuple(
        mono_reducibility_witness(3, 2, 1, 3, budget=b)),
    "census": lambda b: dataclasses.astuple(
        hom_counterexample_census(4, 3, budget=b)),
}

BUDGETS = (1, 3, 10, 30, 100, 300, 1000, 3000)


def _stop(used, planned):
    return lambda budget: (f"stopped after {used} of {planned} planned "
                           f"steps: the budget is {budget}")


WITNESS = (3, 2, 1, 3, "A(1,3,1)", 240, 96, 96, 0,
           ((0,), 1, ((0, 1), (0, 0)), ((0, 0),), (1, 0)),
           ((1,), 1, ((0, 0), (0, 0)), ((0, 1),), (0, 1)), True, True, True)

# walk -> outcome at each budget: a result, or the (used, planned) steps
# of the error message
PINNED = {
    "rep-loops": [_stop(0, 4), _stop(0, 4)] + [801] * 6,
    "rep-base": [_stop(0, 81)] * 4 + [_stop(81, 162)] + [17577] * 3,
    "iter-loops": [_stop(0, 81)] * 4 + [_stop(100, 171), _stop(300, 351)]
    + [(801, "c33d3180ae5b3b61")] * 2,
    "iter-base": [_stop(0, 9), _stop(0, 9), _stop(2, 27), _stop(30, 45),
                  _stop(100, 108), _stop(299, 315)]
    + [(441, "41c601dde2e77d8f")] * 2,
    "mono": [_stop(0, 2), _stop(1, 5), _stop(5, 14), _stop(27, 42),
             _stop(100, 111), 240, 240, 240],
    "hom": [_stop(0, 2), _stop(1, 5), _stop(5, 14), _stop(29, 42)]
    + [621] * 4,
    "iter-hom": [_stop(0, 9), _stop(0, 9), _stop(9, 18), _stop(29, 33),
                 _stop(95, 133), _stop(285, 322)]
    + [(621, "de7c4263561f105c")] * 2,
    "witness": [_stop(1, 4), _stop(1, 4), _stop(8, 16)] + [WITNESS] * 5,
    "census": [_stop(0, 243)] * 5 + [_stop(245, 328)]
    + [(4, 3, 83, 81, 3, True, True)] * 2,
}


def _outcome(walk, budget):
    try:
        return WALKS[walk](budget)
    except BudgetExceededError as exc:
        return str(exc)


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("walk", list(WALKS))
def test_meter_is_pinned(walk, budget):
    expected = PINNED[walk][BUDGETS.index(budget)]
    if callable(expected):
        expected = expected(budget)
    assert _outcome(walk, budget) == expected
