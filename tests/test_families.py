import random

import pytest

from helpers import (cocycle_value, copy_of, evaluate_relation,
                     ext_triple_of, hom_triple_of, inverse,
                     iter_rep_points_odometer, random_nilpotent,
                     random_two_vertex_rep)
from qvl.cli import run_command
from qvl.counting import (count_ext_points, count_hom_points,
                          count_rep_points, iter_ext_points, iter_hom_points,
                          iter_rep_points, rep_ambient_dim)
from qvl.families import (EXT_LAMBDA, HOM_LAMBDA, TWIST, FamilyDescriptor,
                          FamilyParameterError, build_family, family_a,
                          family_a_prime, family_a_prime_commuting, family_b,
                          family_lambda, is_geometrically_irreducible_family)
from qvl.linalg import GF, QQ, Matrix, random_matrix
from qvl.quiver import (BoundQuiver, QuiverError, Relation, ext_quiver,
                        hom_quiver, is_isomorphism, is_simple_loop_extension,
                        is_weakly_triangular, monomial_relation)
from qvl.reps import Representation, relabel

F2 = GF(2)
F3 = GF(3)
F5 = GF(5)


class TestConstructors:
    def test_family_a_relations(self):
        pres = family_a(1, 2, 1)
        q = pres.quiver
        expected = [
            monomial_relation(q, "e0", 2),
            monomial_relation(q, "e1", 2),
            Relation([(1, q.path(["e0", "a1"])), (1, q.path(["a1", "e1"]))]),
        ]
        assert list(pres.relations) == expected

    def test_crossing_relation_term_count(self):
        pres = family_a(1, 4, 3)
        crossing = pres.relations[2]
        assert len(crossing.terms) == 4
        assert crossing.degree == 1

    def test_lambda(self):
        pres = family_lambda(3)
        assert pres.quiver.arrow_names() == ("e",)
        assert [str(r) for r in pres.relations] == ["e*e*e"]
        assert family_lambda(1).quiver.arrow_names() == ()

    def test_commuting_family(self):
        pres = family_a_prime_commuting(2)
        assert [str(r) for r in pres.relations] == \
            ["e0*e0", "e1*e1", "-1*a1*e1 + e0*a1"]

    def test_a_prime_order_one_drops_loop(self):
        pres = family_a_prime(1, 1, 2)
        assert pres.quiver.arrow_names() == ("e1", "a1")
        assert len(pres.relations) == 1

    def test_b_is_corner_of_a(self):
        assert family_b(2, 3).relations == family_a(2, 3, 2).relations

    def test_parameter_errors(self):
        for bad in [lambda: family_a(0, 2, 1), lambda: family_a(1, 1, 1),
                    lambda: family_a(1, 2, 0), lambda: family_a_prime(-1, 1, 1),
                    lambda: family_a_prime(0, 0, 1), lambda: family_lambda(0),
                    lambda: family_b(1, 1), lambda: family_a(1, 2, 2),
                    lambda: family_a(1, 3, 5)]:
            with pytest.raises(FamilyParameterError):
                bad()

    def test_build_family_dispatch(self):
        assert build_family(FamilyDescriptor("A", n=1, m=2, l=1)) \
            == family_a(1, 2, 1)
        assert build_family(FamilyDescriptor("Lambda", m=2)) \
            == family_lambda(2)
        with pytest.raises(FamilyParameterError):
            build_family(FamilyDescriptor("nope"))

    def test_structural_predicates(self):
        for n, m, l in [(1, 2, 1), (2, 3, 2), (1, 4, 3)]:
            pres = family_a(n, m, l)
            assert is_weakly_triangular(pres.quiver)
            assert not is_simple_loop_extension(pres)
        for n, m0, m1 in [(0, 1, 1), (1, 2, 2), (2, 3, 1)]:
            pres = family_a_prime(n, m0, m1)
            assert is_weakly_triangular(pres.quiver)
            assert is_simple_loop_extension(pres)


class TestClassification:
    def test_decision_table(self):
        assert is_geometrically_irreducible_family(
            FamilyDescriptor("A", n=1, m=3, l=1))
        assert is_geometrically_irreducible_family(
            FamilyDescriptor("A", n=1, m=3, l=2))
        assert not is_geometrically_irreducible_family(
            FamilyDescriptor("A", n=1, m=4, l=2))
        assert is_geometrically_irreducible_family(
            FamilyDescriptor("Aprime", n=0, m0=1, m1=1))

    def test_range_errors(self):
        with pytest.raises(FamilyParameterError):
            is_geometrically_irreducible_family(
                FamilyDescriptor("A", n=1, m=1, l=1))
        with pytest.raises(FamilyParameterError):
            is_geometrically_irreducible_family(
                FamilyDescriptor("Aprime", n=-1, m0=1, m1=1))
        # the table covers 1 <= l <= m - 1; A(1, 3, 5)'s crossing relation
        # lies in (e0^3, e1^3), so no answer for l >= m would be the table's
        for n, m, l in [(1, 2, 2), (1, 3, 3), (2, 4, 4), (1, 3, 5)]:
            with pytest.raises(FamilyParameterError, match="l <= m - 1"):
                is_geometrically_irreducible_family(
                    FamilyDescriptor("A", n=n, m=m, l=l))


class TestIsomorphisms:
    """The paper's identifications, proven as isomorphisms of
    presentations for every m tested, and the refusals that keep the
    check honest."""

    @pytest.mark.parametrize("m", range(2, 7))
    def test_hom_quiver_of_lambda_is_the_commuting_family(self, m):
        assert is_isomorphism(hom_quiver(family_lambda(m)),
                              family_a_prime_commuting(m), *HOM_LAMBDA,
                              fields=(QQ, F2, F3, F5))

    @pytest.mark.parametrize("m", range(2, 7))
    def test_ext_quiver_of_lambda_is_the_corner_family(self, m):
        assert is_isomorphism(ext_quiver(family_lambda(m)), family_b(1, m),
                              *EXT_LAMBDA, fields=(QQ, F2, F3, F5))

    @pytest.mark.parametrize("m", range(2, 7))
    def test_twist(self, m):
        assert is_isomorphism(family_a_prime_commuting(m), family_a(1, m, 1),
                              *TWIST, fields=(QQ, F3, F5))

    @pytest.mark.parametrize("m", range(2, 7))
    def test_unsigned_twist_holds_only_in_characteristic_two(self, m):
        vertices, arrows = TWIST
        unsigned = {a: (1, b) for a, (_, b) in arrows.items()}
        source, target = family_a_prime_commuting(m), family_a(1, m, 1)
        for field in (QQ, F3):
            assert not is_isomorphism(source, target, vertices, unsigned,
                                      fields=(field,))
        assert not is_isomorphism(source, target, vertices, unsigned,
                                  fields=(F2, F3))
        assert is_isomorphism(source, target, vertices, unsigned,
                              fields=(F2,))

    @pytest.mark.parametrize("vertices,arrows", [
        # not bijective: e0 and e1 both go to e0
        ({0: 0, 1: 1}, {"e0": (1, "e0"), "e1": (1, "e0"), "a1": (1, "a1")}),
        # not bijective: a vertex map that is not onto
        ({0: 0, 1: 0}, {"e0": (1, "e0"), "e1": (1, "e1"), "a1": (1, "a1")}),
        # endpoints: the vertices swapped, the arrows not
        ({0: 1, 1: 0}, {"e0": (1, "e0"), "e1": (1, "e1"), "a1": (1, "a1")}),
        # an arrow the target does not have
        ({0: 0, 1: 1}, {"e0": (1, "e0"), "e1": (1, "e1"), "a1": (1, "a2")}),
        # an arrow the source does not have
        ({0: 0, 1: 1}, {"e0": (1, "e0"), "e1": (1, "e1"), "a1": (1, "a1"),
                        "a2": (1, "a1")}),
        # a sign other than +-1
        ({0: 0, 1: 1}, {"e0": (1, "e0"), "e1": (2, "e1"), "a1": (1, "a1")}),
    ], ids=["arrows-not-injective", "vertices-not-onto", "endpoints",
            "unknown-target-arrow", "unknown-source-arrow", "sign"])
    def test_bad_maps_raise(self, vertices, arrows):
        with pytest.raises(QuiverError):
            is_isomorphism(family_a_prime_commuting(2), family_a(1, 2, 1),
                           vertices, arrows)

    def test_many_to_one_maps_raise(self):
        # onto every arrow of the target, but a1 and a2 both go to a1
        with pytest.raises(QuiverError):
            is_isomorphism(family_a(2, 2, 1), family_a(1, 2, 1),
                           {0: 0, 1: 1},
                           {"e0": (1, "e0"), "e1": (1, "e1"),
                            "a1": (1, "a1"), "a2": (1, "a1")})
        # two vertices with no arrows onto the one of Lambda(1)
        with pytest.raises(QuiverError):
            is_isomorphism(family_a_prime(0, 1, 1), family_lambda(1),
                           {0: 0, 1: 0}, {})

    def test_relabel_along_a_non_isomorphism_raises(self):
        # the identity on arrow names, from A(1,2,1) to A'(1,2,2), is no
        # isomorphism: a point of A'(1,2,2) can break the crossing relation
        source, target = family_a(1, 2, 1), family_a_prime(1, 2, 2)
        identity = ({0: 0, 1: 1}, {a: (1, a) for a in ("e0", "e1", "a1")})
        assert not is_isomorphism(source, target, *identity)
        assert not is_isomorphism(target, source, *identity)
        rep = Representation(target, F3, {0: 2, 1: 2}, {
            "e0": Matrix(F3, 2, 2, [[0, 1], [0, 0]]),
            "e1": Matrix.zeros(F3, 2, 2),
            "a1": Matrix.identity(F3, 2)})
        assert rep.is_valid()
        with pytest.raises(ValueError):
            relabel(rep, source, *identity)

    def test_relabel_keeps_the_dimension_of_an_arrowless_vertex(self):
        lam = family_lambda(1)
        doubled = hom_quiver(lam)
        assert doubled.quiver.arrow_names() == ("f0",)
        rep = Representation.zero(doubled, F2, {"s0": 2, "t0": 3})
        assert copy_of(rep, lam, "s").dims == {0: 2}
        assert copy_of(rep, lam, "t").dims == {0: 3}
        triple = hom_triple_of(rep, lam)
        assert triple.morphism.maps[0].shape == (3, 2)


class TestTwist:
    def test_zero_point_fixed(self):
        pres = family_a_prime_commuting(2)
        rep = Representation.zero(pres, F3, {0: 2, 1: 2})
        out = relabel(rep, family_a(1, 2, 1), *TWIST)
        assert out.pres.name == "A(1,2,1)"
        assert all(out.mats[a].is_zero() for a in out.mats)

    def test_one_dim_arrow_untouched(self):
        pres = family_a_prime_commuting(2)
        rep = Representation(pres, F3, {0: 1, 1: 1}, {
            "e0": Matrix(F3, 1, 1, [[0]]),
            "e1": Matrix(F3, 1, 1, [[0]]),
            "a1": Matrix(F3, 1, 1, [[2]]),
        })
        out = relabel(rep, family_a(1, 2, 1), *TWIST)
        assert out.mats["a1"][0, 0] == 2

    def test_invalid_rejected(self):
        pres = family_a_prime_commuting(2)
        bad = Representation(pres, F3, {0: 1, 1: 1}, {
            "e0": Matrix(F3, 1, 1, [[1]]),
            "e1": Matrix(F3, 1, 1, [[0]]),
            "a1": Matrix(F3, 1, 1, [[0]]),
        })
        with pytest.raises(ValueError):
            relabel(bad, family_a(1, 2, 1), *TWIST)

    @pytest.mark.parametrize("seed", range(8))
    def test_round_trip_f3(self, seed):
        rng = random.Random(seed)
        pres = family_a_prime_commuting(2)
        rep = random_two_vertex_rep(pres, F3, 2, 2, rng)
        out = relabel(rep, family_a(1, 2, 1), *TWIST)
        assert out.is_valid()
        back = relabel(out, pres, *TWIST)
        assert back.mats == rep.mats

    def test_char_two_is_identity_on_matrices(self):
        rng = random.Random(3)
        pres = family_a_prime_commuting(2)
        rep = random_two_vertex_rep(pres, F2, 2, 2, rng)
        out = relabel(rep, family_a(1, 2, 1), *TWIST)
        assert out.mats == rep.mats

    def test_bijection_on_point_sets(self):
        pres_c = family_a_prime_commuting(2)
        pres_a = family_a(1, 2, 1)
        dims = {0: 1, 1: 2}
        src = list(iter_rep_points(pres_c, F3, dims))
        dst = {rep.key() for rep in iter_rep_points(pres_a, F3, dims)}
        image = {relabel(rep, pres_a, *TWIST).key() for rep in src}
        assert len(image) == len(src)
        assert image == dst


class TestHomCorrespondence:
    def test_one_dim_counts_f2(self):
        pres = family_a_prime_commuting(2)
        lam = family_lambda(2)
        assert count_rep_points(pres, F2, {0: 1, 1: 1}) == 2
        assert count_hom_points(lam, F2, {0: 1}, {0: 1}) == 2

    def test_zero_rep_maps_to_zero_triple(self):
        pres = family_a_prime_commuting(2)
        lam = family_lambda(2)
        rep = Representation.zero(pres, F2, {0: 2, 1: 1})
        triple = hom_triple_of(relabel(rep, hom_quiver(lam), *HOM_LAMBDA),
                               lam)
        assert triple.source.dims == {0: 1}
        assert triple.target.dims == {0: 2}
        assert triple.morphism.maps[0].is_zero()

    @pytest.mark.parametrize("d,e", [(1, 1), (2, 1), (1, 2), (2, 2)])
    def test_point_counts_match(self, d, e):
        pres = family_a_prime_commuting(2)
        lam = family_lambda(2)
        assert count_rep_points(pres, F2, {0: d, 1: e}) \
            == count_hom_points(lam, F2, {0: e}, {0: d})

    def test_round_trip_every_point(self):
        pres = family_a_prime_commuting(2)
        lam = family_lambda(2)
        for rep in iter_rep_points(pres, F3, {0: 2, 1: 1}):
            doubled = relabel(rep, hom_quiver(lam), *HOM_LAMBDA)
            triple = hom_triple_of(doubled, lam)
            assert triple.morphism.intertwines()
            back = relabel(doubled, pres, *inverse(*HOM_LAMBDA))
            assert back == rep


def _odometer_agrees(doubled, field, dims, triples):
    """The ambient odometer of the doubled presentation, a walk that shares
    no code with the pair counts, finds ``triples`` points where its space
    has at most 4096 points."""
    if field.p ** rep_ambient_dim(doubled, dims) <= 4096:
        assert sum(1 for _ in iter_rep_points_odometer(doubled, field,
                                                       dims)) == triples


def _doubled_dims(source, target):
    return {**{f"s{v}": d for v, d in source.items()},
            **{f"t{v}": d for v, d in target.items()}}


# (presentation, source dims, target dims, q, number of Hom triples)
HOM_CASES = {
    "Lambda2": (family_lambda(2), {0: 2}, {0: 3}, 3, 31833),
    "A131": (family_a(1, 3, 1), {0: 1, 1: 1}, {0: 1, 1: 2}, 3, 621),
    "A131-zero": (family_a(1, 3, 1), {0: 0, 1: 1}, {0: 1, 1: 2}, 2, 22),
    "B13": (family_b(1, 3), {0: 1, 1: 0}, {0: 2, 1: 1}, 2, 40),
    "Aprime222": (family_a_prime(2, 2, 2), {0: 1, 1: 1}, {0: 1, 1: 2}, 2,
                  512),
    "Acomm2": (family_a_prime_commuting(2), {0: 1, 1: 1}, {0: 1, 1: 1}, 3,
               33),
}


class TestHomQuiver:
    def test_doubled_presentation(self):
        pres = hom_quiver(family_lambda(2))
        assert pres.quiver.vertices == ("s0", "t0")
        assert pres.quiver.arrow_names() == ("s_e", "t_e", "f0")
        assert [str(r) for r in pres.relations] == \
            ["s_e*s_e", "t_e*t_e", "f0*s_e + -1*t_e*f0"]
        assert pres.truncation_bound == 4

    @pytest.mark.parametrize("case", list(HOM_CASES))
    def test_counts_hom_triples(self, case):
        pres, source, target, q, triples = HOM_CASES[case]
        F = GF(q)
        assert count_hom_points(pres, F, source, target) == triples
        _odometer_agrees(hom_quiver(pres), F, _doubled_dims(source, target),
                         triples)

    @pytest.mark.parametrize("case", ["A131", "Acomm2"])
    def test_points_are_hom_triples(self, case):
        pres, source, target, q, triples = HOM_CASES[case]
        F = GF(q)
        doubled = {hom_triple_of(rep, pres).key()
                   for rep in iter_rep_points(hom_quiver(pres), F,
                                              _doubled_dims(source, target))}
        homs = {t.key() for t in iter_hom_points(pres, F, source, target)}
        assert len(doubled) == len(homs) == triples
        assert doubled == homs

    @pytest.mark.parametrize("pres", [family_lambda(2), family_a(1, 3, 1),
                                      family_a_prime(2, 2, 2)],
                             ids=["Lambda2", "A131", "Aprime222"])
    def test_doubled_bound_holds(self, pres):
        # built unchecked; the first span over Q checks the bound 2N
        doubled = hom_quiver(pres)
        assert doubled.truncation_bound == 2 * pres.truncation_bound
        doubled.ideal_span(QQ)


def _ext_dims(quo, sub):
    return {**{f"q{v}": d for v, d in quo.items()},
            **{f"u{v}": d for v, d in sub.items()}}


# (presentation, quotient dims, sub dims, q, number of extension triples)
EXT_CASES = {
    "Lambda2": (family_lambda(2), {0: 2}, {0: 2}, 3, 801),
    "Lambda3": (family_lambda(3), {0: 1}, {0: 2}, 3, 81),
    "A131": (family_a(1, 3, 1), {0: 1, 1: 1}, {0: 1, 1: 2}, 2, 192),
    "B13": (family_b(1, 3), {0: 1, 1: 0}, {0: 2, 1: 1}, 2, 64),
    "Acomm2": (family_a_prime_commuting(2), {0: 1, 1: 1}, {0: 1, 1: 1}, 3,
               99),
    "Aprime222": (family_a_prime(2, 2, 2), {0: 1, 1: 1}, {0: 1, 1: 1}, 2,
                  256),
    "A142": (family_a(1, 4, 2), {0: 1, 1: 2}, {0: 2, 1: 2}, 2, 950272),
}


class TestExtQuiver:
    def test_doubled_presentation(self):
        pres = ext_quiver(family_lambda(2))
        assert pres.quiver.vertices == ("q0", "u0")
        assert pres.quiver.arrow_names() == ("q_e", "u_e", "c_e")
        assert [str(r) for r in pres.relations] == \
            ["q_e*q_e", "u_e*u_e", "c_e*q_e + u_e*c_e"]
        assert pres.truncation_bound == 4

    @pytest.mark.parametrize("case", list(EXT_CASES))
    def test_counts_ext_triples(self, case):
        pres, quo, sub, q, triples = EXT_CASES[case]
        F = GF(q)
        assert count_ext_points(pres, F, quo, sub) == triples
        _odometer_agrees(ext_quiver(pres), F, _ext_dims(quo, sub), triples)

    @pytest.mark.parametrize("case", ["A131", "Acomm2"])
    def test_points_are_ext_triples(self, case):
        pres, quo, sub, q, triples = EXT_CASES[case]
        F = GF(q)
        doubled = {ext_triple_of(rep, pres).key()
                   for rep in iter_rep_points(ext_quiver(pres), F,
                                              _ext_dims(quo, sub))}
        exts = {t.key() for t in iter_ext_points(pres, F, quo, sub)}
        assert len(doubled) == len(exts) == triples
        assert doubled == exts

    @pytest.mark.parametrize("pres", [family_lambda(2), family_a(1, 3, 1),
                                      family_a_prime(2, 2, 2)],
                             ids=["Lambda2", "A131", "Aprime222"])
    def test_doubled_bound_holds(self, pres):
        # built unchecked; the first span over Q checks the bound 2N
        doubled = ext_quiver(pres)
        assert doubled.truncation_bound == 2 * pres.truncation_bound
        doubled.ideal_span(QQ)


class TestExtCorrespondence:
    def test_one_dim_counts(self):
        for q in (2, 3):
            field = GF(q)
            assert count_rep_points(family_b(1, 2), field, {0: 1, 1: 1}) == q
            assert count_ext_points(family_lambda(2), field,
                                    {0: 1}, {0: 1}) == q

    def test_cocycle_condition_tracks_crossing_relation(self):
        rng = random.Random(7)
        pres = family_b(1, 3)
        for _ in range(10):
            mats = {
                "e0": random_nilpotent(F3, 2, 3, rng),
                "e1": random_nilpotent(F3, 2, 3, rng),
                "a1": random_matrix(F3, 2, 2, rng),
            }
            crossing_ok = evaluate_relation(F3, {0: 2, 1: 2}, mats,
                                            pres.relations[2]).is_zero()
            lam = family_lambda(3)
            quo = Representation(lam, F3, {0: 2}, {"e": mats["e1"]})
            sub = Representation(lam, F3, {0: 2}, {"e": mats["e0"]})
            value = cocycle_value(quo, sub, {"e": mats["a1"]},
                                  lam.relations[0])
            assert crossing_ok == value.is_zero()

    def test_zero_blocks_correspond_to_zero_arrow(self):
        pres = family_b(1, 2)
        lam = family_lambda(2)
        rep = Representation.zero(pres, F2, {0: 2, 1: 2})
        triple = ext_triple_of(relabel(rep, ext_quiver(lam), *EXT_LAMBDA),
                               lam)
        assert triple.blocks["e"].is_zero()

    def test_round_trip_every_point(self):
        pres = family_b(1, 2)
        lam = family_lambda(2)
        for rep in iter_rep_points(pres, F2, {0: 2, 1: 1}):
            doubled = relabel(rep, ext_quiver(lam), *EXT_LAMBDA)
            ext_triple_of(doubled, lam)    # checks the cocycle equation
            back = relabel(doubled, pres, *inverse(*EXT_LAMBDA))
            assert back == rep

    @pytest.mark.parametrize("d,e", [(1, 1), (2, 1)])
    def test_higher_order_counts_match(self, d, e):
        # the correspondences are not special to order 2
        assert count_rep_points(family_b(1, 3), F2, {0: d, 1: e}) \
            == count_ext_points(family_lambda(3), F2, {0: e}, {0: d})
        assert count_rep_points(family_a_prime_commuting(3), F2,
                                {0: d, 1: e}) \
            == count_hom_points(family_lambda(3), F2, {0: e}, {0: d})


def _split_core(rep, m):
    """A B(n, m) point split by one relabeling into its B(1, m) core and
    the matrices of the arrows a2..an, which no relation reads."""
    core = family_b(1, m)
    names = core.quiver.arrow_names()
    return (relabel(rep, core, {0: 0, 1: 1}, {a: (1, a) for a in names}),
            [rep.mats[a] for a in rep.pres.quiver.arrow_names()
             if a not in names])


def _assemble(pres, core, free):
    """The point of ``pres`` with this core and these matrices of a2..an."""
    return Representation(pres, core.field, core.dims, {
        **core.mats, **{f"a{i}": mat for i, mat in enumerate(free, 2)}})


class TestCornerSplit:
    def test_trivial_split(self):
        rng = random.Random(5)
        pres = family_b(1, 2)
        rep = random_two_vertex_rep(pres, F3, 2, 1, rng)
        core, free = _split_core(rep, 2)
        assert free == []
        assert _assemble(pres, core, free) == rep

    def test_zero_rep_splits_to_zeros(self):
        pres = family_b(3, 2)
        rep = Representation.zero(pres, F2, {0: 1, 1: 1})
        core, free = _split_core(rep, 2)
        assert all(m.is_zero() for m in free)
        assert sum(core.dims.values()) == 2

    @pytest.mark.parametrize("seed", range(5))
    def test_round_trip(self, seed):
        rng = random.Random(seed)
        pres = family_b(3, 2)
        rep = random_two_vertex_rep(pres, F3, 2, 1, rng)
        core, free = _split_core(rep, 2)
        assert core.is_valid()
        assert len(free) == 2
        assert _assemble(pres, core, free) == rep

    def test_count_multiplicativity_f2(self):
        full = count_rep_points(family_b(3, 2), F2, {0: 1, 1: 1})
        core = count_rep_points(family_b(1, 2), F2, {0: 1, 1: 1})
        assert full == core * 2 ** 2


# one parameter tuple in range for each builder; family_b keeps nothing
# itself and returns what family_a keeps
BUILT = [(family_a, (2, 3, 1)), (family_a_prime, (2, 2, 3)),
         (family_a_prime_commuting, (2,)), (family_lambda, (3,)),
         (family_b, (2, 3))]
KEEPING = (family_a, family_a_prime, family_a_prime_commuting, family_lambda)


def _clear_builders():
    for builder in KEEPING:
        builder.cache_clear()


class TestBuiltOnce:
    """Each builder keeps its presentations per parameter tuple, so a
    process builds each family once; a failed build is not kept."""

    @pytest.fixture(autouse=True)
    def _cleared(self):
        _clear_builders()
        yield
        _clear_builders()

    @pytest.mark.parametrize("builder, params", BUILT,
                             ids=lambda x: getattr(x, "__name__", None))
    def test_equal_parameters_give_one_object(self, builder, params):
        pres = builder(*params)
        assert builder(*params) is pres
        _clear_builders()
        rebuilt = builder(*params)
        assert rebuilt == pres and rebuilt is not pres

    @pytest.mark.parametrize("desc, builder, params", [
        (FamilyDescriptor("A", n=2, m=3, l=1), family_a, (2, 3, 1)),
        (FamilyDescriptor("Aprime", n=2, m0=2, m1=3), family_a_prime,
         (2, 2, 3)),
        (FamilyDescriptor("AprimeCommuting", m=2), family_a_prime_commuting,
         (2,)),
        (FamilyDescriptor("Lambda", m=3), family_lambda, (3,)),
        (FamilyDescriptor("B", n=2, m=3), family_b, (2, 3))],
        ids=lambda x: getattr(x, "kind", None))
    def test_build_family_is_the_builders_object(self, desc, builder,
                                                 params):
        assert build_family(desc) is builder(*params)

    def test_family_b_is_the_corner_of_family_a(self):
        assert family_b(2, 3) is family_a(2, 3, 2)
        assert family_a(1, 4, 3) is family_b(1, 4)

    @pytest.mark.parametrize("builder, params, message", [
        (family_a, (1, 3, 5), "l <= m - 1"),
        (family_lambda, (0,), "m >= 1")])
    def test_out_of_range_raises_on_every_call(self, builder, params,
                                               message):
        for _ in range(2):
            with pytest.raises(FamilyParameterError, match=message):
                builder(*params)
        assert builder.cache_info().currsize == 0

    def test_repeated_query_builds_no_presentation(self, monkeypatch):
        argv = "count --family B --n 2 --m 3 --dim 2,2 --q 3".split()
        built = []
        init = BoundQuiver.__init__

        def counted(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(BoundQuiver, "__init__", counted)
        reports, builds = [], []
        for _ in range(2):
            built.clear()
            code, report = run_command(argv)
            assert code == 0
            report.pop("elapsed_seconds")
            reports.append(report)
            builds.append(len(built))
        assert builds[0] > 0 and builds[1] == 0
        assert reports[0] == reports[1]
        assert reports[0]["result"]["count"] == 251505
