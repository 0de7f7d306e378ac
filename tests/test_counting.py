import dataclasses
import itertools
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import iter_rep_points_odometer
from qvl import certificates, counting, reps
from qvl.certificates import (CensusResult, hom_counterexample_census,
                              mono_reducibility_witness, product_count_check)
from qvl.counting import (BudgetExceededError, _Meter, _assignments,
                          _layers, _loop_points, _points_over,
                          ambient_dimension, count_ext_points,
                          count_hom_points, count_mono_points,
                          count_rep_points, default_budget, iter_ext_points,
                          iter_hom_points, iter_mono_points,
                          iter_rep_points, leading_coefficient_probe)
from qvl.dsl import parse_quiver_spec
from qvl.extensions import cocycle_space_basis
from qvl.families import (family_a, family_a_prime, family_a_prime_commuting,
                          family_b, family_lambda)
from qvl.linalg import GF, QQ, Matrix, PrimeField
from qvl.quiver import BoundQuiver, Quiver, hom_quiver
from qvl.reps import (Morphism, _arrow_plan, flat_layout, hom_basis,
                      is_monomorphism)
from qvl.strata import (StratumTable, _jordan_point, _nilpotent_orbit,
                        jordan_types, nilpotent_orbit_size)
from test_base_fibers import PATH2, SANDWICH, SQUARE
from test_filtered_pins import CASES as FILTERED
from test_rank_strata import FILTERED_LOOP_AT_END

F2 = GF(2)
F3 = GF(3)


class TestRepCounts:
    def test_one_dim_square_zero_only_zero(self):
        for q in (2, 3, 5):
            assert count_rep_points(family_lambda(2), GF(q), {0: 1}) == 1

    def test_two_dim_square_zero_f2(self):
        # oracle: all 16 matrices, squared by hand arithmetic
        hits = 0
        for flat in itertools.product((0, 1), repeat=4):
            a, b, c, d = flat
            sq = ((a * a + b * c) % 2, (a * b + b * d) % 2,
                  (c * a + d * c) % 2, (c * b + d * d) % 2)
            if sq == (0, 0, 0, 0):
                hits += 1
        assert hits == 4
        assert count_rep_points(family_lambda(2), F2, {0: 2}) == 4

    @pytest.mark.parametrize("n,q", [(1, 2), (2, 2), (3, 2), (1, 3), (2, 3),
                                     (3, 3)])
    def test_nilpotent_count_formula(self, n, q):
        got = count_rep_points(family_lambda(n), GF(q), {0: n})
        assert got == q ** (n * n - n)

    def test_zero_dims_single_point(self):
        assert count_rep_points(family_a(1, 2, 1), F2, {0: 0, 1: 0}) == 1

    def test_strategies_agree(self):
        cases = [
            (family_a_prime_commuting(2), {0: 2, 1: 1}),
            (family_a(1, 2, 1), {0: 1, 1: 2}),
            (family_a_prime(2, 2, 2), {0: 1, 1: 1}),
            (family_b(2, 2), {0: 1, 1: 1}),
        ]
        for pres, dims in cases:
            fast = count_rep_points(pres, F2, dims)
            slow = sum(1 for _ in iter_rep_points_odometer(pres, F2, dims))
            assert fast == slow

    def test_layered_points_equal_odometer_points(self):
        pres = family_a_prime_commuting(2)
        dims = {0: 1, 1: 2}
        fast = {r.key() for r in iter_rep_points(pres, F3, dims)}
        slow = {r.key() for r in iter_rep_points_odometer(pres, F3, dims)}
        assert fast == slow

    def test_layered_handles_relation_mixing_two_arrows(self):
        # one relation couples a1 and a2; its terms each carry one arrow
        from qvl.quiver import BoundQuiver, Relation
        base = family_a_prime(2, 2, 2)
        q = base.quiver
        mixed = Relation([(1, q.path(["e0", "a1"])), (1, q.path(["a2", "e1"]))])
        pres = BoundQuiver(q, list(base.relations) + [mixed], 4)
        for dims in ({0: 1, 1: 1}, {0: 2, 1: 1}, {0: 1, 1: 2}):
            fast = {r.key() for r in iter_rep_points(pres, F2, dims)}
            slow = {r.key() for r in iter_rep_points_odometer(pres, F2,
                                                              dims)}
            assert fast == slow

    def test_every_point_is_valid(self):
        for rep in iter_rep_points(family_b(1, 2), F2, {0: 1, 1: 2}):
            assert rep.is_valid()


def _filter_walk_count(pres, field, dims):
    """Rep count by filtering every loop assignment (no strata)."""
    _, loop_rels, _, layers = _layers(pres, dims)
    [(arrows, rels)] = layers or [((), ())]
    kernel = _arrow_plan(pres, field, dims, pres.quiver.loops(), arrows,
                         rels).kernel
    return sum(field.p ** len(kernel(loops))
               for loops in _assignments(pres, field, dims, (),
                                         pres.quiver.loops(), loop_rels,
                                         _Meter()))


NAMED_CASES = [
    (family_lambda(2), [{0: 1}, {0: 2}]),
    (family_lambda(3), [{0: 2}]),
    (family_a(1, 2, 1), [{0: 1, 1: 1}, {0: 1, 1: 2}]),
    (family_a(1, 3, 2), [{0: 1, 1: 2}]),
    (family_a_prime(1, 2, 2), [{0: 1, 1: 1}, {0: 2, 1: 1}]),
    (family_a_prime(1, 1, 2), [{0: 1, 1: 2}]),
    (family_a_prime_commuting(2), [{0: 1, 1: 1}, {0: 2, 1: 1}]),
    (family_b(2, 3), [{0: 1, 1: 1}]),
]


class TestJordanStrata:
    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_fine_herstein(self, q):
        for d in range(7):
            sizes = [nilpotent_orbit_size(lam, q)
                     for lam in jordan_types(d, d)]
            assert sum(sizes) == q ** (d * d - d)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.sampled_from([2, 3, 5]).flatmap(lambda q: st.tuples(
        st.just(q), st.integers(0, max(d for d in range(8)
                                       if q ** (d * d) <= 10 ** 5)),
        st.integers(0, 2))))
    def test_nilpotent_count_closed_form(self, case):
        # Fine-Herstein: q^(d^2 - d) nilpotent d x d matrices over F_q,
        # and for m >= d every one of them satisfies e^m = 0
        q, d, extra = case
        assert count_rep_points(family_lambda(max(d, 1) + extra), GF(q),
                                {0: d}) == q ** (d * d - d)

    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("pres,dim_list", NAMED_CASES,
                             ids=[p.name for p, _ in NAMED_CASES])
    def test_stratified_equals_filter_and_odometer(self, pres, dim_list, q):
        field = GF(q)
        for dims in dim_list:
            loop_rels = _layers(pres, dims)[1]
            assert StratumTable(pres, field, dims,
                                loop_rels).loops is not None
            stratified = count_rep_points(pres, field, dims)
            assert stratified == _filter_walk_count(pres, field, dims)
            assert stratified == sum(
                1 for _ in iter_rep_points_odometer(pres, field, dims))

    @pytest.mark.parametrize("pres,first,second,q", [
        *((family_lambda(m), {0: a}, {0: b}, q)
          for m, a, b, q in [(2, 2, 2, 3), (2, 1, 3, 2), (3, 2, 3, 2),
                             (3, 3, 2, 2)]),
        (family_a(1, 3, 1), {0: 1, 1: 1}, {0: 1, 1: 2}, 2),
        (parse_quiver_spec(SANDWICH), {0: 1, 1: 1, 2: 1},
         {0: 1, 1: 2, 2: 1}, 2),
        (parse_quiver_spec(SQUARE), {0: 1, 1: 1, 2: 0, 3: 1},
         {0: 1, 1: 1, 2: 1, 3: 1}, 2),
        (family_a_prime_commuting(2), {0: 1, 1: 1}, {0: 2, 1: 1}, 2)],
        ids=["2-2-2-3", "2-1-3-2", "3-2-3-2", "3-3-2-2", "A131", "sandwich",
             "square", "A'comm2"])
    def test_hom_and_ext_pairs_equal_pairwise_walk(self, pres, first, second,
                                                   q):
        # every pair of odometer points, each with its Hom and cocycle
        # bases, and each vector of the Hom span tested by is_monomorphism
        field = GF(q)
        pairs = list(itertools.product(
            iter_rep_points_odometer(pres, field, first),
            iter_rep_points_odometer(pres, field, second)))
        hom = ext = mono = 0
        for x, y in pairs:
            basis = hom_basis(x, y)
            hom += q ** len(basis)
            ext += q ** len(cocycle_space_basis(x, y))
            for coeffs in itertools.product(range(q), repeat=len(basis)):
                mono += is_monomorphism(Morphism(x, y, {
                    v: sum((f.maps[v].scale(c) for c, f in zip(coeffs, basis)),
                           Matrix.zeros(field, y.dims[v], x.dims[v]))
                    for v in pres.quiver.vertices}))
        assert count_hom_points(pres, field, first, second) == hom
        assert count_ext_points(pres, field, first, second) == ext
        assert count_mono_points(pres, field, first, second) == mono

    @pytest.mark.parametrize("pres,dims,q", [
        (family_lambda(2), {0: 3}, 3),
        (family_lambda(3), {0: 3}, 2),
        (family_a(1, 3, 1), {0: 2, 1: 2}, 2),
        (family_a_prime(0, 2, 3), {0: 2, 1: 3}, 2),
    ])
    def test_streamed_locus_equals_filtered_locus(self, pres, dims, q):
        field = GF(q)
        loop_rels = _layers(pres, dims)[1]

        def stream():
            points = list(_loop_points(
                pres, field, dims, loop_rels, _Meter(), orbits=True,
                table=StratumTable(pres, field, dims, loop_rels)))
            assert {labels for _, labels in points} == {()}
            return [point for point, _ in points]

        streamed = stream()
        filtered = list(_assignments(pres, field, dims, (),
                                     pres.quiver.loops(), loop_rels,
                                     _Meter()))
        assert len(set(streamed)) == len(streamed)
        assert set(streamed) == set(filtered)
        assert stream() == streamed

    @pytest.mark.parametrize("lam,q", [((2, 1), 3), ((3,), 2), ((2, 2), 2),
                                       ((2,), 5), ((1, 1), 7)])
    def test_orbit_equals_coerced_construction(self, lam, q):
        field, d = GF(q), sum(lam)
        orbit = _nilpotent_orbit(field, lam)
        coerced = [tuple(x for row in Matrix(field, d, d, [
            list(point[i:i + d]) for i in range(0, d * d, d)]).rows
            for x in row) for point in orbit]
        assert orbit == coerced
        assert all(type(x) is int for point in orbit for x in point)
        ends = list(itertools.accumulate(lam))
        assert orbit[0] == _jordan_point(lam) == tuple(
            int(j == i + 1 and j not in ends) for i in range(d)
            for j in range(d))
        assert len(orbit) == nilpotent_orbit_size(lam, q)

    def test_filter_walks_independent_loops_apart(self):
        # the Hom quiver's loops s_e, t_e have two-term relations, so no
        # strata: each copy's 3^4 loop matrices are filtered alone, then
        # each of the 9 * 9 joined points takes one step, where one filter
        # over both copies would try 3^8 = 6561 candidates
        pres = parse_quiver_spec(
            "quiver F { vertex 0; loop e at 0; rel e^3; rel e^2 - e^3; }")
        doubled = hom_quiver(pres)
        dims = {"s0": 2, "t0": 2}
        loop_rels = _layers(doubled, dims)[1]
        meter = _Meter()
        points = list(_assignments(doubled, F3, dims, (), ["s_e", "t_e"],
                                   loop_rels, meter))
        # e^3 = 0 and e^2 = e^3 hold where e = [[a, b], [c, d]] squares to 0
        copy = [(a, b, c, d)
                for a, b, c, d in itertools.product(range(3), repeat=4)
                if all(x % 3 == 0 for x in (a * a + b * c, b * (a + d),
                                            c * (a + d), c * b + d * d))]
        assert points == [x + y for x in copy for y in copy]
        assert meter.used == meter.planned == 81 + 81 + 81
        with pytest.raises(BudgetExceededError) as exc:
            count_hom_points(pres, F3, {0: 3}, {0: 3}, budget=1)
        assert str(exc.value) == ("stopped after 0 of 19683 planned steps: "
                                  "the budget is 1")

    def test_budget_charges_visited_points(self):
        # 105 loop points, each with a one-point arrow fiber; the filter
        # would have planned all 3^9 loop matrices
        pres, dims = family_lambda(2), {0: 3}
        points = list(iter_rep_points(pres, F3, dims, meter=_Meter(210)))
        assert len(points) == 105
        with pytest.raises(BudgetExceededError,
                           match="stopped after 209 of 210 planned steps"):
            list(iter_rep_points(pres, F3, dims, meter=_Meter(209)))

    def test_lambda8_closed_form_from_cli(self):
        from qvl.cli import EXIT_OK, run_command
        code, report = run_command(["count", "--family", "Lambda", "--m", "8",
                                    "--dim", "8", "--q", "5"])
        assert code == EXIT_OK
        assert report["result"]["count"] == 5 ** 56


class TestHomMonoExtCounts:
    def test_hom_count_matches_explicit_walk(self):
        lam = family_lambda(2)
        by_walk = sum(1 for _ in iter_hom_points(lam, F2, {0: 1}, {0: 2}))
        assert by_walk == count_hom_points(lam, F2, {0: 1}, {0: 2})

    def test_mono_points_are_monomorphisms(self):
        lam = family_lambda(2)
        pts = list(iter_mono_points(lam, F2, {0: 1}, {0: 2}))
        assert pts
        for t in pts:
            assert is_monomorphism(t.morphism)

    @pytest.mark.parametrize("pres,q,source,target", [
        (family_lambda(2), 3, {0: 1}, {0: 2}),
        (family_a(1, 3, 1), 3, {0: 1, 1: 1}, {0: 1, 1: 2}),
        # a vertex map with no columns, then one with no rows
        (family_a(1, 3, 1), 2, {0: 0, 1: 1}, {0: 1, 1: 2}),
        (family_b(1, 3), 2, {0: 1, 1: 0}, {0: 2, 1: 1}),
        # the square b*a - d*c, walked over its base arrows a and c
        (parse_quiver_spec("quiver Square { vertex 0; vertex 1; vertex 2; "
                           "vertex 3; arrow a: 0 -> 1; arrow b: 1 -> 3; "
                           "arrow c: 0 -> 2; arrow d: 2 -> 3; "
                           "rel b*a - d*c; }"),
         2, {0: 1, 1: 0, 2: 1, 3: 1}, {0: 1, 1: 1, 2: 1, 3: 1})],
        ids=["Lambda2", "A131", "no-columns", "no-rows", "square"])
    def test_mono_iterator_is_filtered_hom_iterator(self, pres, q, source,
                                                    target):
        field = GF(q)
        monos = [t.key() for t in iter_mono_points(pres, field, source,
                                                   target)]
        homs = [t.key() for t in iter_hom_points(pres, field, source, target)
                if is_monomorphism(t.morphism)]
        assert monos == homs
        assert len(monos) == count_mono_points(pres, field, source, target)
        assert monos

    def test_mono_empty_when_source_too_big(self):
        lam = family_lambda(2)
        assert count_mono_points(lam, F2, {0: 2}, {0: 1}) == 0

    def test_ext_count_hereditary_is_affine(self):
        q = Quiver([0, 1], [("a", 1, 0)])
        pres = BoundQuiver(q, [], 2)
        # free: two rep sides are affine, blocks unconstrained
        d = {0: 1, 1: 1}
        e = {0: 1, 1: 1}
        count = count_ext_points(pres, F2, e, d)
        assert count == 2 ** ambient_dimension("ext", pres, e, d)

    def test_ext_points_satisfy_cocycle(self):
        from helpers import is_cocycle_reference
        lam = family_lambda(2)
        pts = list(iter_ext_points(lam, F2, {0: 1}, {0: 2}))
        for t in pts:
            assert is_cocycle_reference(t.quo, t.sub, t.blocks)


class TestTasksAndBudget:
    def test_ambient_dimensions(self):
        assert ambient_dimension("rep", family_lambda(3), {0: 3}) == 9
        assert ambient_dimension("mono", family_a(1, 2, 1), {0: 1, 1: 1},
                                 {0: 1, 1: 2}) == \
            (1 + 1 + 1) + (1 + 4 + 2) + (1 + 2)

    def test_budget_rejects_big_odometer(self):
        with pytest.raises(BudgetExceededError,
                           match="stopped after 0 of 512 planned steps"):
            list(iter_rep_points_odometer(family_lambda(3), F2, {0: 3},
                                          meter=_Meter(100)))

    def test_budget_env_override(self, monkeypatch):
        monkeypatch.setenv("QVL_BUDGET", "7")
        assert default_budget() == 7
        # Lambda(8) at d = 8 has 22 Jordan strata to count
        with pytest.raises(BudgetExceededError,
                           match="stopped after 0 of 22 planned steps"):
            count_rep_points(family_lambda(8), F2, {0: 8})
        monkeypatch.setenv("QVL_BUDGET", "junk")
        with pytest.raises(ValueError):
            default_budget()


# Every count and every public iterator, with the number of dims vectors it
# takes after the presentation and the field.
WALKS = [(count_rep_points, 1), (iter_rep_points, 1), (count_hom_points, 2),
         (iter_hom_points, 2), (count_mono_points, 2), (iter_mono_points, 2),
         (count_ext_points, 2), (iter_ext_points, 2)]


@pytest.mark.parametrize("walk,factors", WALKS,
                         ids=[walk.__name__ for walk, _ in WALKS])
def test_points_are_counted_over_prime_fields_only(walk, factors):
    with pytest.raises(ValueError) as info:
        points = walk(family_lambda(2), QQ, *[{0: 1}] * factors)
        next(points)    # an iterator reads its field at its first point
    assert str(info.value) == \
        "points are counted over a prime field F_p, not " + repr(QQ)


@pytest.mark.parametrize("walk,factors,at,d", [
    (walk, factors, at, d) for walk, factors in WALKS
    for at in range(factors) for d in (-1, -2)],
    ids=lambda v: getattr(v, "__name__", str(v)))
def test_negative_dims_are_rejected_before_a_build(walk, factors, at, d):
    # as Representation rejects them, whichever factor holds the entry
    dims = [{0: 1}] * factors
    dims[at] = {0: d}
    misses = counting._compiled.cache_info().misses
    with pytest.raises(ValueError, match="dimensions must be nonnegative"):
        points = walk(family_lambda(2), F3, *dims)
        next(points)    # an iterator reads its dims at its first point
    assert counting._compiled.cache_info().misses == misses


class TestRawAmbientOracles:
    """Counts recomputed by walking the raw ambient coordinates."""

    def test_hom_count_raw_oracle(self):
        lam = family_lambda(2)
        for q in (2, 3):
            hits = 0
            for v, w, f in itertools.product(range(q), repeat=3):
                if (v * v) % q or (w * w) % q:
                    continue
                if (w * f - f * v) % q:
                    continue
                hits += 1
            assert hits == count_hom_points(lam, GF(q), {0: 1}, {0: 1})

    def test_ext_count_raw_oracle(self):
        lam = family_lambda(2)
        for q in (2, 3):
            hits = 0
            for u, v, z in itertools.product(range(q), repeat=3):
                if (u * u) % q or (v * v) % q:
                    continue
                if (v * z + z * u) % q:
                    continue
                hits += 1
            assert hits == count_ext_points(lam, GF(q), {0: 1}, {0: 1})

    def test_mono_count_raw_oracle(self):
        lam = family_lambda(2)
        for q in (2, 3):
            hits = 0
            for v, w, f in itertools.product(range(q), repeat=3):
                if (v * v) % q or (w * w) % q:
                    continue
                if (w * f - f * v) % q or f == 0:
                    continue
                hits += 1
            assert hits == count_mono_points(lam, GF(q), {0: 1}, {0: 1})

    def test_loops_only_count_factors(self):
        pres = family_a_prime(0, 2, 2)
        nilp = count_rep_points(family_lambda(2), F2, {0: 2})
        assert count_rep_points(pres, F2, {0: 2, 1: 2}) == nilp * nilp


class TestCensus:
    @pytest.mark.parametrize("n,q", [(1, 2), (2, 2), (1, 3), (2, 3), (3, 2)])
    def test_identity(self, n, q):
        res = hom_counterexample_census(n, q)
        assert res.total == q ** n + q - 1
        assert res.count_b_zero == q ** n
        assert res.count_a_zero == q
        assert res.union_verified
        assert res.hom_bijection_verified

    def test_example_values(self):
        assert hom_counterexample_census(2, 2).total == 5
        assert hom_counterexample_census(1, 3).total == 5

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            hom_counterexample_census(3, 5, budget=10)

    # one step per census candidate, then on the doubled quiver one per
    # loop point, per value of b and per Hom triple:
    # q^(n+1) + 1 + q + (q^n + q - 1)
    @pytest.mark.parametrize("n,q,steps", [(3, 2, 28), (4, 3, 330),
                                           (7, 3, 8754), (4, 5, 3760)])
    def test_meter(self, n, q, steps, monkeypatch):
        meters = []

        class Recording(_Meter):
            def __init__(self, budget=None):
                super().__init__(budget)
                meters.append(self)

        monkeypatch.setattr(certificates, "_Meter", Recording)
        hom_counterexample_census(n, q)
        assert [(m.used, m.planned) for m in meters] == [(steps, steps)]

    def test_duplicate_point_is_caught(self, monkeypatch):
        walk = counting._points_over

        def repeat_first(*args, **kwargs):
            points = walk(*args, **kwargs)
            first = next(points)
            yield first
            yield first
            yield from points

        monkeypatch.setattr(certificates, "_points_over", repeat_first)
        with pytest.raises(AssertionError,
                           match="^duplicate homomorphism point$"):
            hom_counterexample_census(2, 3)

    @pytest.mark.parametrize("change", ["drop", "repeat-image"])
    def test_walk_off_the_candidates_fails_the_bijection(self, change,
                                                         monkeypatch):
        # the first point left out, or followed by a point that differs
        # only in the source loop s_e1 (entry 0) and so has the same (b, a)
        walk = counting._points_over

        def changed(*args, **kwargs):
            points = walk(*args, **kwargs)
            point = next(points)
            if change == "repeat-image":
                yield point
                yield (1,) + point[1:]
            yield from points

        monkeypatch.setattr(certificates, "_points_over", changed)
        res = hom_counterexample_census(2, 3)
        assert (res.total, res.union_verified) == (11, True)
        assert not res.hom_bijection_verified

    @pytest.mark.parametrize("change", ["extra", "instead", "after-repeat"])
    def test_point_off_the_variety_is_caught(self, change, monkeypatch):
        # the first point with b = a_1 = 1, so a_1 b != 0, after the first
        # point, in its place (as many points as candidates, one left
        # over), or after a repeat of it, which the walk meets before it
        # can tell the repeat
        walk = counting._points_over
        layout = flat_layout(hom_quiver(family_a_prime(2, 2, 2)),
                             self.CENSUS_DIMS)

        def off_variety(*args, **kwargs):
            points = walk(*args, **kwargs)
            point = next(points)
            off = list(point)
            off[layout["f1"][0]] = off[layout["t_a1"][0]] = 1
            if change != "instead":
                yield point
            if change == "after-repeat":
                yield point
            yield tuple(off)
            yield from points

        monkeypatch.setattr(certificates, "_points_over", off_variety)
        with pytest.raises(AssertionError,
                           match="^homomorphism point violates a_i b = 0$"):
            hom_counterexample_census(2, 3)

    def test_candidates_off_the_union_fail_it(self, monkeypatch):
        # an annihilator holding every element, so every (b, a) is listed:
        # the 27 candidates are not the 9 with b = 0 and the 3 with a = 0,
        # which meet in the origin
        monkeypatch.setattr(certificates, "gcd", lambda b, q: q)
        res = hom_counterexample_census(2, 3)
        assert (res.total, res.count_b_zero, res.count_a_zero) == (27, 9, 3)
        assert res.union_verified is False
        assert not res.hom_bijection_verified

    @pytest.mark.parametrize("n", range(1, 5))
    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_listed_candidates_are_the_filtered_pairs(self, n, q,
                                                      monkeypatch):
        # a walk yielding each (b, a) of {(b, a) : a_i b = 0}, filtered from
        # all q^(n+1) pairs, once as a flat point, in reverse order, which
        # the census does not read: it empties the candidate set exactly
        # when the census listed the same pairs, and else the bijection
        # reads false
        layout = flat_layout(hom_quiver(family_a_prime(n, 2, 2)),
                             self.CENSUS_DIMS)
        size = sum(r * c for _, r, c in layout.values())
        pairs = [(b, a) for b in range(q)
                 for a in itertools.product(range(q), repeat=n)
                 if all(x * b % q == 0 for x in a)]

        def filtered(*args):
            for b, a in reversed(pairs):
                point = [0] * size
                point[layout["f1"][0]] = b
                for i, x in enumerate(a, 1):
                    point[layout[f"t_a{i}"][0]] = x
                yield tuple(point)

        monkeypatch.setattr(certificates, "_points_over", filtered)
        res = hom_counterexample_census(n, q)
        assert (res.total, res.hom_bijection_verified) == (len(pairs), True)

    @pytest.mark.parametrize("change,walks", [(None, 1), ("drop", 2)])
    def test_only_a_failed_census_walks_twice(self, change, walks,
                                              monkeypatch):
        # a passing census decides by count and emptiness in one walk;
        # a failing one walks again to say why
        calls = []
        walk = counting._points_over

        def counted(*args, **kwargs):
            calls.append(args[3])
            points = walk(*args, **kwargs)
            if change == "drop":
                next(points)
            yield from points

        monkeypatch.setattr(certificates, "_points_over", counted)
        res = hom_counterexample_census(2, 3)
        assert res.hom_bijection_verified == (change is None)
        assert len(calls) == walks
        assert len({id(meter) for meter in calls}) == walks

    @pytest.mark.parametrize("n,q,result", [
        (7, 3, (7, 3, 2189, 2187, 3, True, True)),
        (12, 2, (12, 2, 4097, 4096, 2, True, True))])
    def test_census_at_the_workload_sizes(self, n, q, result):
        # the certify workload's census-hom --n 7 --q 3, and CI's n = 12
        assert dataclasses.astuple(hom_counterexample_census(n, q)) == result

    @pytest.mark.parametrize("n,q", [(9, 3), (2, 101), (3, 3), (1, 101)])
    def test_census_through_table_and_single_point_walks(self, n, q):
        # the b = 0 fiber spans n free a_i: 3^9 and 101^2 points walk in
        # table blocks (t = 5 and 1), 3^3 and 101 one at a time (under 64
        # points, and k = 1)
        assert hom_counterexample_census(n, q) == CensusResult(
            n, q, q ** n + q - 1, q ** n, q, True, True)

    # the census walks the doubled quiver at these dims, where f0 and the
    # source's arrows s_ai have no entries
    CENSUS_DIMS = {"s0": 0, "s1": 1, "t0": 1, "t1": 1}

    @pytest.mark.parametrize("n", [2, 3, 4, 12])
    def test_census_walks_the_map_below_the_target_arrows(self, n):
        # layers (s_a1..s_an, f1), then (t_a1..t_an, f0): the value b of f1
        # is walked first, and the a_i form one linear fiber above it
        pres = hom_quiver(family_a_prime(n, 2, 2))
        base, _, _, layers = _layers(pres, self.CENSUS_DIMS)
        assert base == ()
        assert [list(arrows) for arrows, _ in layers] == [
            [*(f"s_a{i}" for i in range(1, n + 1)), "f1"],
            [*(f"t_a{i}" for i in range(1, n + 1)), "f0"]]

    def test_census_base_ties_at_n1(self):
        # every layer grown has one entry: the rule takes the one with the
        # earlier arrows below it, f0 and f1 above s_a1 and t_a1; the tie
        # it passes over walks the same points with the same steps
        pres = hom_quiver(family_a_prime(1, 2, 2))
        base, _, _, layers = _layers(pres, self.CENSUS_DIMS)
        assert base == ("s_a1", "t_a1")
        assert [list(arrows) for arrows, _ in layers] == [["f0", "f1"]]
        walks = []
        for top in ((), ("t_a1", "f0")):
            meter = _Meter()
            points = set(_points_over(pres, F3, self.CENSUS_DIMS, meter,
                                      top=top))
            walks.append((points, meter.used, meter.planned))
        assert walks[0] == walks[1]
        assert len(walks[0][0]) == 3 + 3 - 1

    def test_layering_grows_polynomially_many_layers(self, monkeypatch):
        # the doubled quiver of A'(12,2,2) has k = 26 non-loop arrows: a
        # search over their subsets would classify 2^26 of them
        grown = []
        grow = counting._grow

        def counted(*args):
            grown.append(args[0])
            return grow(*args)

        monkeypatch.setattr(counting, "_grow", counted)
        pres = hom_quiver(family_a_prime(12, 2, 2))
        k = sum(not pres.quiver.is_loop(a) for a in pres.quiver.arrow_names())
        assert k == 26
        _layers(pres, self.CENSUS_DIMS)
        assert 0 < len(grown) <= k * k

    def test_repeated_walks_reuse_the_tower(self, monkeypatch):
        # the compiled tower is kept by presentation value, field, dims,
        # orbits and top: a second count or walk of an equal presentation
        # grows no layer, and counts, meters and orders its points as the
        # first
        grown = []
        grow = counting._grow

        def counted(*args):
            grown.append(args[0])
            return grow(*args)

        monkeypatch.setattr(counting, "_grow", counted)
        counting._compiled.cache_clear()
        runs = []
        for _ in range(2):
            before = len(grown)
            pres = family_a_prime(3, 2, 2)
            meter = _Meter()
            walk = list(_points_over(hom_quiver(pres), F3, self.CENSUS_DIMS,
                                     meter))
            counts = (count_hom_points(pres, F3, {0: 0, 1: 1}, {0: 1, 1: 1}),
                      count_rep_points(parse_quiver_spec(SQUARE), F3,
                                       {0: 1, 1: 2, 2: 1, 3: 2}))
            runs.append((walk, meter.used, meter.planned, counts,
                         len(grown) - before))
        assert runs[0][:4] == runs[1][:4]
        assert runs[0][4] > 0 == runs[1][4]
        assert counting._compiled.cache_info().hits >= 3

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(st.sampled_from([2, 3, 5, 7]).flatmap(lambda q: st.tuples(
        st.just(q), st.integers(1, max(n for n in range(1, 15)
                                       if q ** (n + 1) <= 20000)))))
    def test_closed_form(self, qn):
        q, n = qn
        res = hom_counterexample_census(n, q)
        assert res.total == q ** n + q - 1
        assert res.count_b_zero == q ** n
        assert res.count_a_zero == q
        assert res.union_verified
        assert res.hom_bijection_verified


class TestCompiledTower:
    """``counting._compiled`` keeps each walk's layers, plans and stratum
    table for the last 64 (presentation value, field, dims, orbits, top)."""

    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        counting._compiled.cache_clear()
        yield
        counting._compiled.cache_clear()

    def test_repeat_builds_no_plan_and_no_table(self, monkeypatch):
        built = []
        plan, table = reps.SandwichPlan, counting.StratumTable

        class CountedPlan(plan):
            def __init__(self, *args):
                built.append("plan")
                super().__init__(*args)

        def counted_table(*args):
            built.append("table")
            return table(*args)

        monkeypatch.setattr(reps, "SandwichPlan", CountedPlan)
        monkeypatch.setattr(counting, "StratumTable", counted_table)
        lam, square = family_lambda(2), parse_quiver_spec(SQUARE)
        runs = []
        for _ in range(2):
            before = len(built)
            meter = _Meter()
            result = (
                count_rep_points(square, F3, {0: 1, 1: 2, 2: 1, 3: 2}),
                count_hom_points(lam, F3, {0: 2}, {0: 2}),
                count_mono_points(lam, F3, {0: 1}, {0: 2}),
                count_ext_points(lam, F3, {0: 1}, {0: 1}),
                list(_points_over(square, F3, {0: 1, 1: 1, 2: 1, 3: 1},
                                  meter)),
                [triple.key() for triple in iter_ext_points(
                    lam, F3, {0: 1}, {0: 1})],
                meter.used, meter.planned)
            runs.append((result, built[before:]))
        assert runs[0][0] == runs[1][0]
        assert {"plan", "table"} <= set(runs[0][1])
        assert runs[1][1] == []

    def test_field_and_orbits_key_their_own_entries(self):
        # PATH2's base arrow a has rank rows in a count and none in a walk
        pres, dims = parse_quiver_spec(PATH2), {0: 2, 1: 2, 2: 2}
        counts = [count_rep_points(pres, F2, dims),
                  count_rep_points(pres, F3, dims),
                  sum(1 for _ in iter_rep_points(pres, F3, dims))]
        key = (pres, F3, (2, 2, 2))
        assert counting._compiled(*key, False, ())[3].arrows == [(2, 2)]
        assert counting._compiled(*key, True, ())[3].arrows is None
        assert counting._compiled.cache_info().currsize == 3
        assert counts == [
            count_rep_points(pres, F2, dims), count_rep_points(pres, F3, dims),
            sum(1 for _ in iter_rep_points(pres, F3, dims))]
        assert counts[1] == counts[2]
        assert counting._compiled.cache_info().currsize == 3

    def test_count_keeps_no_row_point(self):
        # once a count returns it holds its tower and the orbit sizes it
        # weighed, not the J_lam of the 627 rows it solved
        pres = family_lambda(20)
        tracemalloc.start()
        try:
            count_rep_points(pres, F3, {0: 20})
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 10 ** 6

    def test_rational_field_still_raises(self):
        pres, dims = family_lambda(2), {0: 2}
        assert count_rep_points(pres, F3, dims) == 9
        for walk in (lambda: count_rep_points(pres, QQ, dims),
                     lambda: list(iter_rep_points(pres, QQ, dims))):
            with pytest.raises(ValueError, match="prime field"):
                walk()
        assert counting._compiled.cache_info().currsize == 1

    def test_equal_presentations_share_an_entry(self):
        pres = family_lambda(3)
        quiver = pres.quiver
        renamed = BoundQuiver(
            Quiver(quiver.vertices, quiver.arrows, name="Other"),
            pres.relations, pres.truncation_bound, name="Other")
        assert renamed == pres and renamed.name != pres.name
        counts = [count_rep_points(p, F2, {0: 3}) for p in (pres, renamed)]
        assert counts == [2 ** 6] * 2
        info = counting._compiled.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)

    def test_crossing_plan_multiplies_each_power_once(self, monkeypatch):
        # B(1,12) at dims (1, 12): the crossing relation's terms are
        # e0^j a1 e1^(11 - j), so the plan's sides are e0^1..e0^11 and
        # e1^1..e1^11; on one memo per point each power from 2 to 11 is one
        # product of two kept halves, 10 per loop, at the first row point
        products = []
        product = PrimeField.product

        def counted(self, rows, cols):
            products.append((len(rows), len(cols)))
            return product(self, rows, cols)

        monkeypatch.setattr(PrimeField, "product", counted)
        _, _, plans, table, _ = counting._compiled(family_b(1, 12), F3,
                                                   (1, 12), True, ())
        plan, = plans
        point = table.point(next(table.labels()))
        assert products == []
        assert plan.nullity(point) == len(plan.kernel(point)) == 11
        assert len(products) == 2 * 20
        assert sorted(products[:20]) == [(1, 1)] * 10 + [(12, 12)] * 10


def _spies(monkeypatch):
    """Lists that record each ``row_reduce`` over F_p, each meter made,
    each ``_compiled`` entry read and the labels of each row point built
    (``StratumTable.point``), from here on."""
    solved, meters, entries, built = [], [], [], []
    row_reduce, compiled = PrimeField.row_reduce, counting._compiled
    point = StratumTable.point

    def spy(self, rows, ncols):
        solved.append(ncols)
        return row_reduce(self, rows, ncols)

    class Recording(counting._Meter):
        def __init__(self, budget=None):
            super().__init__(budget)
            meters.append(self)

    def recording(*key):
        entries.append(compiled(*key))
        return entries[-1]

    def building(self, labels):
        built.append(labels)
        return point(self, labels)

    monkeypatch.setattr(PrimeField, "row_reduce", spy)
    monkeypatch.setattr(counting, "_Meter", Recording)
    monkeypatch.setattr(counting, "_compiled", recording)
    monkeypatch.setattr(StratumTable, "point", building)
    return solved, meters, entries, built


# no loops and no relations: one stratum row, the arrow its top layer
ARROW = "quiver K { vertex 0; vertex 1; arrow a: 0 -> 1; }"

# counts whose stratum rows each fix the whole point below one top layer
KEPT = {
    "rep Lambda(2)": lambda: count_rep_points(family_lambda(2), F3, {0: 3}),
    "rep B(2,3)": lambda: count_rep_points(family_b(2, 3), F3,
                                           {0: 2, 1: 2}),
    "rep A'comm(2)": lambda: count_rep_points(family_a_prime_commuting(2),
                                              F3, {0: 2, 1: 2}),
    "rep A(1,4,2)": lambda: count_rep_points(family_a(1, 4, 2), F3,
                                             {0: 2, 1: 3}),
    "rep b*a": lambda: count_rep_points(parse_quiver_spec(PATH2), F3,
                                        {0: 2, 1: 2, 2: 2}),
    "rep K": lambda: count_rep_points(parse_quiver_spec(ARROW), F3,
                                      {0: 2, 1: 3}),
    "hom Lambda(2)": lambda: count_hom_points(family_lambda(2), F3, {0: 2},
                                              {0: 3}),
    "ext Lambda(2)": lambda: count_ext_points(family_lambda(2), F2, {0: 3},
                                              {0: 3}),
    "hom Lambda(3)": lambda: count_hom_points(family_lambda(3), F2, {0: 3},
                                              {0: 3}),
    "ext Lambda(3)": lambda: count_ext_points(family_lambda(3), F2, {0: 2},
                                              {0: 3}),
}

# counts whose rows do not fix the point below the top layer: a filtered
# loop locus, a base walk, a middle layer
UNKEPT = {
    **{f"rep {case}": lambda case=case: count_rep_points(
        FILTERED[case][0], F3, FILTERED[case][1]) for case in ("F", "FP")},
    "rep PF": lambda: count_rep_points(
        parse_quiver_spec(FILTERED_LOOP_AT_END), F3, {0: 2, 1: 2, 2: 2}),
    "hom b*a": lambda: count_hom_points(parse_quiver_spec(PATH2), F3,
                                        {0: 1, 1: 1, 2: 1},
                                        {0: 2, 1: 2, 2: 2}),
}

# what reads kernel bases, never the kept dimensions
SOLVING = {
    "mono Lambda(2)": lambda: count_mono_points(family_lambda(2), F3,
                                                {0: 1}, {0: 2}),
    "mono A(1,3,1)": lambda: count_mono_points(family_a(1, 3, 1), F3,
                                               {0: 1, 1: 1}, {0: 1, 1: 2}),
    "iter_rep_points": lambda: [rep.mats["e"].rows for rep in iter_rep_points(
        family_lambda(2), F3, {0: 3})],
    "iter_hom_points": lambda: [t.morphism.maps[0].rows for t in
                                iter_hom_points(family_lambda(2), F3, {0: 2},
                                                {0: 3})],
    "witness": lambda: dataclasses.astuple(
        mono_reducibility_witness(3, 2, 1, 3)),
}


class TestKeptKernelDims:
    """A count whose stratum rows each fix the whole point below its one top
    layer keeps the kernel dimension above each row with its ``_compiled``
    entry, filled as the first count reaches each row: a repeated count
    solves no system.  Every other count, walk and the witness solves at
    each point every time."""

    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        counting._compiled.cache_clear()
        yield
        counting._compiled.cache_clear()

    @pytest.mark.parametrize("count", KEPT.values(), ids=list(KEPT))
    def test_repeat_solves_no_system(self, count, monkeypatch):
        compiled = counting._compiled
        solved, meters, entries, built = _spies(monkeypatch)
        runs = []
        for _ in range(2):
            before, points = len(solved), len(built)
            result = count()
            runs.append((result, meters[-1].used, meters[-1].planned,
                         len(solved) - before, len(built) - points))
        *_, table, kept = entries[-1]
        assert runs[0][3] == runs[0][4] == len(kept) == table.row_count() > 0
        assert runs[1] == (*runs[0][:3], 0, 0)
        compiled.cache_clear()
        assert count() == runs[0][0]

    @pytest.mark.parametrize("count", UNKEPT.values(), ids=list(UNKEPT))
    def test_other_counts_solve_each_time(self, count, monkeypatch):
        solved, meters, entries, built = _spies(monkeypatch)
        runs = []
        for _ in range(2):
            before, points = len(solved), len(built)
            runs.append((count(), meters[-1].used, meters[-1].planned,
                         len(solved) - before, len(built) - points))
        assert runs[0] == runs[1] and runs[0][3] > 0
        assert [entry[4] for entry in entries] == [None] * 2

    @pytest.mark.parametrize("walk", SOLVING.values(), ids=list(SOLVING))
    def test_bases_are_solved_each_time(self, walk, monkeypatch):
        solved, _, entries, _ = _spies(monkeypatch)
        runs = []
        for _ in range(2):
            before = len(solved)
            runs.append((walk(), len(solved) - before))
        assert runs[0] == runs[1] and runs[0][1] > 0
        assert not any(entry[4] for entry in entries)

    def test_mono_count_solves_above_a_kept_table(self, monkeypatch):
        lam = family_lambda(2)
        solved, _, entries, _ = _spies(monkeypatch)
        mono = count_mono_points(lam, F3, {0: 2}, {0: 3})
        alone = len(solved)
        assert count_hom_points(lam, F3, {0: 2}, {0: 3}) == 31833
        kept = entries[-1][4]
        assert entries[0] is entries[-1] and len(kept) == 4
        before = len(solved)
        assert count_mono_points(lam, F3, {0: 2}, {0: 3}) == mono
        assert len(solved) - before == alone

    def test_loopless_quiver_keeps_its_one_row(self, monkeypatch):
        _, _, entries, built = _spies(monkeypatch)
        assert KEPT["rep K"]() == 3 ** 6
        *_, table, kept = entries[-1]
        assert (table.loops, table.arrows, kept) == ([], [], [6])
        assert built == [()]

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_kept_hom_dims_are_the_closed_form(self, m, monkeypatch):
        # the Hom space from J_lam to J_mu has dimension sum min(lam_i, mu_j)
        _, _, entries, _ = _spies(monkeypatch)
        for d, e, q in itertools.product(range(4), range(4), (F2, F3)):
            count_hom_points(family_lambda(m), q, {0: d}, {0: e})
            *_, table, kept = entries[-1]
            assert kept == [sum(min(a, b) for a in lam for b in mu)
                            for lam, mu in table.labels()]

    def test_stopped_count_keeps_nothing(self, monkeypatch):
        _, meters, entries, _ = _spies(monkeypatch)
        lam = family_lambda(2)
        with pytest.raises(BudgetExceededError,
                           match="stopped after 0 of 4 planned steps"):
            count_hom_points(lam, F3, {0: 2}, {0: 3}, budget=3)
        assert entries[-1][4] == []
        assert count_hom_points(lam, F3, {0: 2}, {0: 3}, budget=4) == 31833
        assert (meters[-1].used, meters[-1].planned) == (4, 4)
        assert len(entries[-1][4]) == 4


class TestWitness:
    def _oracle(self, m, l, n, q):
        """Raw odometer over the displayed coordinate tuples."""
        F = GF(q)
        counts = [0, 0, 0, 0]
        width = n + 1 + l * l + n * l + l
        for vals in itertools.product(range(q), repeat=width):
            mu = vals[:n]
            lam = vals[n]
            pos = n + 1
            U = Matrix(F, l, l, [vals[pos + i * l: pos + (i + 1) * l]
                                 for i in range(l)])
            pos += l * l
            rows = [vals[pos + i * l: pos + (i + 1) * l] for i in range(n)]
            pos += n * l
            w = Matrix(F, l, 1, [[x] for x in vals[pos:]])
            v1 = Matrix(F, 1, l, [rows[0]])
            if not (v1 @ (U ** (l - 1))).is_zero():
                continue
            if not (U ** l).is_zero():
                continue
            if not (U @ w).is_zero():
                continue
            if any(F.mul(lam, mu[i]) != (Matrix(F, 1, l, [rows[i]]) @ w)[0, 0]
                   for i in range(n)):
                continue
            if lam == 0 or w.is_zero():
                continue
            counts[0] += 1
            u1 = U.rank() == l - 1
            u2 = mu[0] != 0
            counts[1] += u1
            counts[2] += u2
            counts[3] += u1 and u2
        return tuple(counts)

    # at q > 2 each class of the walk holds several unit scalars, so these
    # also check the class multiplicity
    @pytest.mark.parametrize("m,l,n,q", [(2, 2, 1, 2), (3, 2, 1, 2),
                                         (2, 2, 1, 3)])
    def test_against_raw_oracle(self, m, l, n, q):
        rep = mono_reducibility_witness(m, l, n, q)
        assert (rep.total, rep.count_full_rank, rep.count_mu1,
                rep.count_intersection) == self._oracle(m, l, n, q)

    # the point walk visits every monomorphism, so it also checks that one
    # Jordan point and one functional per w stand for all the points above
    @pytest.mark.parametrize("m,l,n,q", [
        pytest.param(m, l, n, q, id="-".join(map(str, (m, l, q)))
                     + (f"-n{n}" if n > 1 else ""))
        for m, l, n, q in [(2, 2, 1, 2), (2, 2, 1, 3), (3, 3, 1, 3),
                           (2, 2, 2, 3), (3, 3, 2, 2), (2, 2, 1, 5)]])
    def test_against_machinery_enumeration(self, m, l, n, q):
        rep = mono_reducibility_witness(m, l, n, q)
        pres = family_a(n, m, 1) if l == 2 else family_b(n, m)
        flags = [(t.target.mats["e1"].rank() == l - 1,
                  not t.source.mats["a1"].is_zero())
                 for t in iter_mono_points(pres, GF(q), {0: 1, 1: 1},
                                           {0: 1, 1: l})]
        assert (len(flags), sum(u1 for u1, _ in flags),
                sum(u2 for _, u2 in flags),
                sum(u1 and u2 for u1, u2 in flags)) == \
            (rep.total, rep.count_full_rank, rep.count_mu1,
             rep.count_intersection)

    # whole reports, samples included, so the scalar a sample carries is
    # pinned too; (3, 2, 1, 7) is the benchmark's reference instance
    @pytest.mark.parametrize("args,expected", [
        ((3, 2, 1, 7),
         (3, 2, 1, 7, "A(1,3,1)", 26208, 12096, 12096, 0,
          ((0,), 1, ((0, 1), (0, 0)), ((0, 0),), (1, 0)),
          ((1,), 1, ((0, 0), (0, 0)), ((0, 1),), (0, 1)),
          True, True, True)),
        ((3, 3, 1, 2),
         (3, 3, 1, 2, "A(1,3,2)", 728, 168, 280, 0,
          ((0,), 1, ((0, 1, 0), (0, 0, 1), (0, 0, 0)), ((0, 0, 0),),
           (1, 0, 0)),
          ((1,), 1, ((0, 1, 0), (0, 0, 0), (0, 0, 0)), ((0, 0, 1),),
           (0, 0, 1)),
          True, True, True)),
        ((3, 3, 1, 5),
         (3, 3, 1, 5, "A(1,3,2)", 14942000, 5952000, 7192000, 0,
          ((0,), 1, ((0, 1, 0), (0, 0, 1), (0, 0, 0)), ((0, 0, 0),),
           (1, 0, 0)),
          ((1,), 1, ((0, 1, 0), (0, 0, 0), (0, 0, 0)), ((0, 0, 1),),
           (0, 0, 1)),
          True, True, True)),
        ((3, 3, 2, 3),
         (3, 3, 2, 3, "A(2,3,2)", 1857492, 606528, 833976, 0,
          ((0, 0), 1, ((0, 1, 0), (0, 0, 1), (0, 0, 0)),
           ((0, 0, 0), (0, 0, 0)), (1, 0, 0)),
          ((1, 0), 1, ((0, 1, 0), (0, 0, 0), (0, 0, 0)),
           ((0, 0, 1), (0, 0, 0)), (0, 0, 1)),
          True, True, True)),
        # reach sizes: above the zero loop W holds 5^6 and 3^10 vectors w
        ((6, 6, 2, 5),
         (6, 6, 2, 5, "A(2,6,5)", 1781063615060073852539062500000,
          691529713875000000000000000000, 871627120948059082031250000000, 0,
          ((0, 0), 1,
           ((0, 1, 0, 0, 0, 0),
            (0, 0, 1, 0, 0, 0),
            (0, 0, 0, 1, 0, 0),
            (0, 0, 0, 0, 1, 0),
            (0, 0, 0, 0, 0, 1),
            (0, 0, 0, 0, 0, 0)),
           ((0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0)), (1, 0, 0, 0, 0, 0)),
          ((1, 0), 1,
           ((0, 1, 0, 0, 0, 0),
            (0, 0, 1, 0, 0, 0),
            (0, 0, 0, 1, 0, 0),
            (0, 0, 0, 0, 1, 0),
            (0, 0, 0, 0, 0, 0),
            (0, 0, 0, 0, 0, 0)),
           ((0, 0, 0, 0, 0, 1), (0, 0, 0, 0, 0, 0)), (0, 0, 0, 0, 0, 1)),
          True, True, True)),
        ((10, 10, 1, 3),
         (10, 10, 1, 3, "A(1,10,9)",
          1937497421669155221828314389759185314816179001712,
          577357667470752119057948520224832730516212940800,
          906759836132268735180243913022901722866644040608, 0,
          ((0,), 1,
           ((0, 1, 0, 0, 0, 0, 0, 0, 0, 0),
            (0, 0, 1, 0, 0, 0, 0, 0, 0, 0),
            (0, 0, 0, 1, 0, 0, 0, 0, 0, 0),
            (0, 0, 0, 0, 1, 0, 0, 0, 0, 0),
            (0, 0, 0, 0, 0, 1, 0, 0, 0, 0),
            (0, 0, 0, 0, 0, 0, 1, 0, 0, 0),
            (0, 0, 0, 0, 0, 0, 0, 1, 0, 0),
            (0, 0, 0, 0, 0, 0, 0, 0, 1, 0),
            (0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
            (0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
           ((0, 0, 0, 0, 0, 0, 0, 0, 0, 0),), (1, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
          ((1,), 1,
           ((0, 1, 0, 0, 0, 0, 0, 0, 0, 0),
            (0, 0, 1, 0, 0, 0, 0, 0, 0, 0),
            (0, 0, 0, 1, 0, 0, 0, 0, 0, 0),
            (0, 0, 0, 0, 1, 0, 0, 0, 0, 0),
            (0, 0, 0, 0, 0, 1, 0, 0, 0, 0),
            (0, 0, 0, 0, 0, 0, 1, 0, 0, 0),
            (0, 0, 0, 0, 0, 0, 0, 1, 0, 0),
            (0, 0, 0, 0, 0, 0, 0, 0, 1, 0),
            (0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
            (0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
           ((0, 0, 0, 0, 0, 0, 0, 0, 0, 1),), (0, 0, 0, 0, 0, 0, 0, 0, 0, 1)),
          True, True, True)),
    ])
    def test_full_report_pinned(self, args, expected):
        assert dataclasses.astuple(mono_reducibility_witness(*args)) \
            == expected

    @pytest.mark.parametrize("m,n,q,expected", [(4, 1, 3, 158047200),
                                                (3, 2, 3, 1857492)])
    def test_total_equals_the_mono_count(self, m, n, q, expected):
        # the corner family, l = m: source (1, 1), target (1, m)
        count = count_mono_points(family_b(n, m), GF(q), {0: 1, 1: 1},
                                  {0: 1, 1: m})
        assert count == mono_reducibility_witness(m, m, n, q).total \
            == expected

    def test_sample_points_verified(self):
        rep = mono_reducibility_witness(3, 3, 1, 2)
        assert rep.samples_verified
        assert rep.sample_full_rank is not None
        assert rep.sample_mu1 is not None
        # the certificate itself
        assert rep.both_nonempty() and rep.disjoint()
        assert rep.implication_verified
        assert rep.kernel_image_match_verified

    def test_spec_example_cell(self):
        rep = mono_reducibility_witness(2, 2, 1, 2)
        assert rep.both_nonempty() and rep.disjoint()
        # the full-rank sample must carry mu1 = 0
        assert rep.sample_full_rank.mu[0] == 0
        assert rep.sample_mu1.mu[0] != 0

    def test_known_points_of_each_open_set(self):
        # one hand-built member of each open set re-verifies in full
        from qvl.certificates import WitnessPoint, _verify_witness_point
        pres = family_a(1, 2, 1)
        full_rank = WitnessPoint(mu=(0,), lam=1,
                                 loop_mat=((0, 1), (0, 0)),
                                 arrow_rows=((0, 0),),
                                 emb_col=(1, 0))
        assert _verify_witness_point(pres, F2, 2, 2, 1, full_rank)
        mu_nonzero = WitnessPoint(mu=(1,), lam=1,
                                  loop_mat=((0, 0), (0, 0)),
                                  arrow_rows=((1, 0),),
                                  emb_col=(1, 0))
        assert _verify_witness_point(pres, F2, 2, 2, 1, mu_nonzero)

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            mono_reducibility_witness(3, 4, 1, 2)  # l neither 2 nor m
        with pytest.raises(ValueError):
            mono_reducibility_witness(1, 2, 1, 2)
        with pytest.raises(ValueError):
            mono_reducibility_witness(2, 2, 0, 2)

    def test_budget(self):
        # 3 source points, then the 3 stratum rows of the target
        with pytest.raises(BudgetExceededError,
                           match="stopped after 4 of 6 planned steps"):
            mono_reducibility_witness(2, 2, 1, 3, budget=5)


class TestProductCheck:
    def test_trivial_for_one_arrow(self):
        res = product_count_check(1, 2, (1, 1), 2)
        assert res.ok and res.free_factor == 1

    @pytest.mark.parametrize("n,q", [(2, 2), (3, 2), (2, 3), (3, 3)])
    def test_multiplicativity(self, n, q):
        res = product_count_check(n, 2, (1, 1), q)
        assert res.ok
        assert res.free_factor == q ** (n - 1)

    def test_bool_protocol(self):
        assert bool(product_count_check(2, 2, (1, 1), 2))

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.tuples(st.integers(1, 3), st.integers(2, 4), st.integers(0, 2),
                     st.integers(0, 2), st.sampled_from([2, 3, 5]))
           .filter(lambda c: c[4] ** (c[2] ** 2 + c[3] ** 2) <= 10 ** 5))
    def test_product_identity_closed_form(self, case):
        # B(n, m): the arrows a2..an are free once a1 and the loops are
        # fixed, so the full count is the B(1, m) count times q^((n-1) d e)
        n, m, d, e, q = case
        res = product_count_check(n, m, (d, e), q)
        assert res.free_factor == q ** ((n - 1) * d * e)
        assert res.count_full == res.count_core * q ** ((n - 1) * d * e)
        assert res.ok


def _hom_count(pres):
    return lambda q: count_hom_points(pres, GF(q), {0: 0, 1: 1},
                                      {0: 1, 1: 1})


class TestProbe:
    def test_affine_space_exact(self):
        # rep(A'(3,1,1)) at dims (1, 1) is the affine space of 3 arrows
        def count(q):
            return count_rep_points(family_a_prime(3, 1, 1), GF(q),
                                    {0: 1, 1: 1})
        report = leading_coefficient_probe(count, [2, 3, 5])
        assert report.counts == {2: 8, 3: 27, 5: 125}
        assert report.degree == 3
        assert report.looks_affine
        assert all(c == 1 for c in report.coefficients.values())

    def test_census_shape_flagged(self):
        # Hom triples of A'(2,2,2) from dims (0, 1) to (1, 1): the two
        # target arrows and the map f at vertex 1, with a_i f = 0
        report = leading_coefficient_probe(
            _hom_count(family_a_prime(2, 2, 2)), [2, 3, 5])
        assert report.counts == {2: 5, 3: 11, 5: 29}
        assert report.degree == 2
        assert not report.looks_affine
        assert "inconclusive" in report.note

    def test_union_of_two_lines(self):
        # the same with one arrow: a f = 0, a union of two lines
        report = leading_coefficient_probe(
            _hom_count(family_a_prime(1, 2, 2)), [2, 3, 5])
        assert report.counts == {2: 3, 3: 5, 5: 9}
        assert report.degree == 1
        from fractions import Fraction
        assert report.coefficients[5] == Fraction(9, 5)
        assert not report.looks_affine

    def test_huge_counts_exact_degree(self):
        def count(q):
            return count_rep_points(family_lambda(11), GF(q), {0: 11})
        report = leading_coefficient_probe(count, [5, 7])
        assert report.counts[5] == 5 ** 110 > 10 ** 60
        assert report.degree == 110
        assert report.looks_affine

    @pytest.mark.parametrize("c8,degree", [(2 ** 401, 101),
                                           (2 ** 401 - 1, 100)])
    def test_degree_rounds_half_up_exactly(self, c8, degree):
        # log(c8 / c2) / log(8 / 2) is 100.5 or a hair below
        counts = {2: 2 ** 200, 8: c8}
        report = leading_coefficient_probe(counts.__getitem__, [2, 8])
        assert report.degree == degree
