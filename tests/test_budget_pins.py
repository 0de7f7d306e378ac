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
from test_rank_strata import FILTERED_LOOP_AT_END, LOOP_AT_END

# a loop between two arrows: the walk needs the base arrow a
SANDWICH = parse_quiver_spec("""quiver Sandwich {
  vertex 0; vertex 1; vertex 2;
  arrow a: 0 -> 1; loop e at 1; arrow b: 1 -> 2;
  rel b*e*a; rel e^2;
}""")
A131 = family_a(1, 3, 1)
F3 = GF(3)
# a loop with a two-term relation: no Jordan strata, so the loops are
# filtered, on a Hom quiver one copy at a time
FILTERED = parse_quiver_spec(
    "quiver F { vertex 0; loop e at 0; rel e^3; rel e^2 - e^3; }")
# each copy of its Hom quiver keeps its own tower: a2, a4 below a0, a1, a3
ZEROS = parse_quiver_spec("""quiver ZerosSquare {
  vertex 0; vertex 1; vertex 2; vertex 3;
  arrow a0: 1 -> 3; arrow a1: 0 -> 2; arrow a2: 0 -> 1; arrow a3: 1 -> 2;
  arrow a4: 2 -> 3;
  rel a4*a3; rel a3*a2; rel a4*a1 - a0*a2;
}""")
# two relation groups on disjoint arrows, counted as one linear layer
LOOPED_PAIRS = parse_quiver_spec("""quiver LoopedPairs {
  vertex 0; vertex 1; loop e0 at 0; loop e1 at 1;
  arrow a1: 1 -> 0; arrow a2: 1 -> 0; arrow a3: 1 -> 0; arrow a4: 1 -> 0;
  rel e0*a1 - a2*e1; rel e0*a3 - a4*e1; rel e0^2; rel e1^2;
}""")


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
    "hom-filter": lambda b: count_hom_points(FILTERED, F3, {0: 2}, {0: 2},
                                             budget=b),
    "rep-pairs": lambda b: count_rep_points(LOOPED_PAIRS, F3, {0: 5, 1: 5},
                                            budget=b),
    "rep-ranked": lambda b: count_rep_points(
        parse_quiver_spec(LOOP_AT_END), F3, {0: 2, 1: 2, 2: 2}, budget=b),
    "rep-ranked-filter": lambda b: count_rep_points(
        parse_quiver_spec(FILTERED_LOOP_AT_END), F3, {0: 2, 1: 2, 2: 2},
        budget=b),
    "hom-copies": lambda b: count_hom_points(
        ZEROS, GF(2), {0: 0, 1: 2, 2: 0, 3: 2}, {0: 1, 1: 1, 2: 2, 3: 2},
        budget=b),
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

LOOPED_PAIRS_COUNT = 812346829025886766042905604771610131911980905521

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
    # the pair walks run on the doubled quiver hom_quiver(A(1,3,1)): one
    # step per each of its 2 stratum rows (9 orbit points for iter-hom),
    # per point of the middle layer s_a1, t_a1 above them (36 weighted
    # pairs, 99 pairs), then per Hom vector for iter-hom (621) and per term
    # of each pair's Moebius sum for mono
    "mono": [_stop(0, 2), _stop(1, 11), _stop(7, 19), _stop(29, 35),
             _stop(97, 116), 240, 240, 240],
    "hom": [_stop(0, 2), _stop(1, 11), _stop(10, 11), _stop(11, 38)]
    + [621] * 4,
    "iter-hom": [_stop(0, 9), _stop(0, 9), _stop(2, 27), _stop(22, 45),
                 _stop(99, 111), _stop(297, 315)]
    + [(621, "d6b90fe50f8b5231")] * 2,
    # 3^4 candidates per copy's loop filter, the second listed first, then
    # one step per joined pair of the 9 * 9 loop points: 243 steps, where
    # one filter over both copies would plan 3^8
    "hom-filter": [_stop(0, 81)] * 4 + [_stop(81, 162)] + [801] * 3,
    # one step per stratum row, 3 Jordan types of 5 per loop, and no walk:
    # the four arrows are one kernel above each row
    "rep-pairs": [_stop(0, 9)] * 2 + [LOOPED_PAIRS_COUNT] * 6,
    # rank rows of the base arrow a beside the loop e: above the stratified
    # locus one step per row, 2 Jordan types times 3 ranks; above the
    # filtered one the filter's 3^4 candidates, then one step per row, the
    # 3 ranks planned at each of the 9 loop points it accepts: 108 steps
    "rep-ranked": [_stop(0, 6)] * 2 + [3753] * 6,
    "rep-ranked-filter": [_stop(0, 81)] * 4 + [_stop(100, 105)]
    + [3753] * 3,
    # one step per rank row of both copies' a2, a4 (1 * 1 * 2 * 3), then
    # per element of the middle layer, both copies' a0, a1, a3 (2^10 above
    # the first row): 1542 steps, where one layer grown across the copies
    # walked 5249
    "hom-copies": [_stop(0, 6)] * 2 + [_stop(1, 1030)] * 5 + [33392],
    "witness": [_stop(1, 4), _stop(1, 4)] + [WITNESS] * 6,
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
