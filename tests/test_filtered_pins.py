"""The budget meter on walks over a filtered loop locus.

A loop whose relations are not all powers of it (here e^3 and e^2 - e^3)
has no Jordan strata: its locus is found by testing every loop matrix.
Each walk below runs over such a locus under budgets from 1 to 1000, alone,
next to a base arrow with rank strata, and under the product walk of a base
arrow.  Where the budget runs out, the exact ``BudgetExceededError``
message is pinned; where it suffices, the count, or for ``iter_rep_points``
the number of points and a digest of them in walk order."""

import hashlib

import pytest

from qvl.counting import (BudgetExceededError, _Meter, count_rep_points,
                          iter_rep_points)
from qvl.dsl import parse_quiver_spec
from qvl.linalg import GF

F3 = GF(3)
FILTERED = "rel e^3; rel e^2 - e^3;"
# the loop alone
F = parse_quiver_spec(f"quiver F {{ vertex 0; loop e at 0; {FILTERED} }}")
# the loop at an isolated vertex, next to the path b*a with rank strata
FR = parse_quiver_spec(f"""quiver FR {{
  vertex 0; vertex 1; vertex 2; vertex 3;
  loop e at 3; arrow a: 0 -> 1; arrow b: 1 -> 2;
  {FILTERED} rel b*a;
}}""")
# the loop between two arrows: the walk needs the base arrow a
SANDWICH = "arrow a: 0 -> 1; loop e at 1; arrow b: 1 -> 2; rel b*e*a;"
FP = parse_quiver_spec(f"""quiver FP {{
  vertex 0; vertex 1; vertex 2; {SANDWICH} {FILTERED}
}}""")
CASES = {"F": (F, {0: 2}), "FR": (FR, {0: 1, 1: 2, 2: 1, 3: 2}),
         "FP": (FP, {0: 1, 1: 2, 2: 1})}

BUDGETS = (1, 10, 100, 300, 1000)


def _points(pres, dims, budget):
    return [tuple(m.rows for m in rep.mats.values())
            for rep in iter_rep_points(pres, F3, dims, meter=_Meter(budget))]


def _walked(pres, dims, budget):
    points = _points(pres, dims, budget)
    return len(points), hashlib.sha256(repr(points).encode()).hexdigest()[:16]


def _stop(used, planned):
    return lambda budget: (f"stopped after {used} of {planned} planned "
                           f"steps: the budget is {budget}")


# (case, walk) -> outcome at each budget: a result, or the (used, planned)
# steps of the error message
PINNED = {
    ("F", "count"): [_stop(0, 81)] * 2 + [9] * 3,
    ("F", "iter"): [_stop(0, 81)] * 2 + [(9, "24a48cc3df015f11")] * 3,
    ("FR", "count"): [_stop(0, 81)] * 2 + [297] * 3,
    ("FR", "iter"): [_stop(0, 81)] * 2 + [_stop(92, 183), _stop(300, 333),
                                          (297, "e932af0302dd6936")],
    ("FP", "count"): [_stop(0, 81)] * 2 + [_stop(100, 135)] + [441] * 2,
    ("FP", "iter"): [_stop(0, 81)] * 2 + [_stop(94, 180), _stop(300, 369),
                                          (441, "da323ac2eb4d347e")],
}


def _outcome(case, walk, budget):
    pres, dims = CASES[case]
    try:
        if walk == "count":
            return count_rep_points(pres, F3, dims, budget=budget)
        return _walked(pres, dims, budget)
    except BudgetExceededError as exc:
        return str(exc)


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("case,walk", list(PINNED))
def test_meter_is_pinned(case, walk, budget):
    expected = PINNED[case, walk][BUDGETS.index(budget)]
    if callable(expected):
        expected = expected(budget)
    assert _outcome(case, walk, budget) == expected


def test_filtered_sandwich_has_the_points_of_the_squared_one():
    squared = parse_quiver_spec(f"""quiver Sandwich {{
      vertex 0; vertex 1; vertex 2; {SANDWICH} rel e^2;
    }}""")
    dims = {0: 1, 1: 2, 2: 1}
    points = set(_points(FP, dims, None))
    assert len(points) == 441
    assert points == set(_points(squared, dims, None))
