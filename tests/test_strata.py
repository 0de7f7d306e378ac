"""The stratum table and its line to the walks.

``qvl.strata`` holds the stratum math (Jordan types, orbit sizes, rank
counts, orbits) and one table of strata; ``qvl.counting`` reads the table
and defines none of it.  A count plans its rows from the row count, so a
small budget stops it before any partition is listed; so does the
witness, which takes its target's rows the same way."""

import tracemalloc

import pytest

import qvl.counting as counting
import qvl.strata as strata
from qvl.certificates import mono_reducibility_witness
from qvl.counting import (BudgetExceededError, count_ext_points,
                          count_hom_points, count_mono_points,
                          count_rep_points)
from qvl.families import family_lambda
from qvl.linalg import GF
from qvl.quiver import hom_quiver

MOVED = {"_loop_strata", "_rank_strata", "_strata", "_loop_powers",
         "jordan_types", "gl_order", "rank_count", "nilpotent_orbit_size",
         "_jordan_point", "_nilpotent_orbit", "_primitive_root"}


def _modules(module) -> dict:
    """Each name bound in ``module`` -> the module its value was defined
    in, for values that say so."""
    return {name: getattr(value, "__module__", None)
            for name, value in vars(module).items()}


def test_strata_bind_nothing_from_the_walks_or_the_checks():
    assert {name: home for name, home in _modules(strata).items()
            if home in ("qvl.counting", "qvl.families",
                        "qvl.certificates")} == {}


def test_counting_defines_none_of_the_stratum_math():
    assert MOVED & set(vars(counting)) == set()


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_loop_weights_add_up_to_the_nilpotent_matrices(q):
    # Fine-Herstein: there are q^(d^2 - d) nilpotent d x d matrices over
    # F_q, the sum of the weights of the Jordan types of d with parts at
    # most k >= d; the weights are formulas in q, at every prime power
    for k in range(2, 6):
        pres = family_lambda(k)
        for d in range(k + 1):
            loop_rels = counting._layers(pres, {0: d})[1]
            table = strata.StratumTable(pres, GF(2), {0: d}, loop_rels)
            assert sum(table.weight(labels, q) for labels in table.labels()) \
                == q ** (d * d - d), (k, d)


def test_partition_count_equals_the_listed_partitions():
    for d in range(12):
        for k in range(d + 2):
            assert strata.partition_count(d, k) \
                == len(list(strata.jordan_types(d, k))), (d, k)


@pytest.mark.parametrize("count", [count_rep_points, count_hom_points,
                                   count_mono_points, count_ext_points])
def test_counts_plan_their_rows_before_listing_any(count, monkeypatch):
    # Lambda(45) at dim 45 has p(45) = 89134 Jordan types; a pair count's
    # doubled quiver has a loop of dim 45 on each copy, so p(45)^2 rows
    def unlisted(*_):
        raise AssertionError("a partition was listed before the plan")

    monkeypatch.setattr(strata, "jordan_types", unlisted)
    factors = 1 if count is count_rep_points else 2
    with pytest.raises(BudgetExceededError) as exc:
        count(family_lambda(45), GF(2), *({0: 45},) * factors, budget=1000)
    assert str(exc.value) == (f"stopped after 0 of {89134 ** factors} "
                              "planned steps: the budget is 1000")


def test_witness_plans_its_target_rows_before_listing_any(monkeypatch):
    # the three steps of the source walk at dims (1, 1), then one per
    # target row: the target's loop at vertex 1 has the 89134 Jordan types
    # of 45, and none may be listed before the plan
    listed = strata.jordan_types

    def source_only(d, max_part):
        if d > 1:
            raise AssertionError("a partition was listed before the plan")
        return listed(d, max_part)

    monkeypatch.setattr(strata, "jordan_types", source_only)
    with pytest.raises(BudgetExceededError) as exc:
        mono_reducibility_witness(45, 45, 1, 2, budget=1000)
    assert str(exc.value) == ("stopped after 3 of 89137 planned steps: "
                              "the budget is 1000")


def test_rows_stream_one_at_a_time():
    # the hom table of Lambda(14) at 14 -> 14 has p(14)^2 = 18225 rows of
    # 392 entries each; listing them all before the first cost 60 MB
    pres = hom_quiver(family_lambda(14))
    dims = dict.fromkeys(pres.quiver.vertices, 14)
    _, loop_rels, _, _ = counting._layers(pres, dims)
    table = strata.StratumTable(pres, GF(2), dims, loop_rels)
    assert table.row_count() == 135 ** 2
    tracemalloc.start()
    try:
        labels = next(table.labels())
        point = table.point(labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20
    assert labels == ((14,), (14,))
    assert point == 2 * strata._jordan_point((14,))
    assert table.weight(labels, 2) \
        == strata.nilpotent_orbit_size((14,), 2) ** 2
