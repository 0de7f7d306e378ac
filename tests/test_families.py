import random

import pytest

from helpers import random_two_vertex_rep
from qvl.counting import (count_ext_points, count_hom_points,
                          count_rep_points, iter_hom_points, iter_rep_points)
from qvl.extensions import cocycle_value
from qvl.families import (FamilyDescriptor, FamilyParameterError,
                          assemble_corner_rep, build_family,
                          commuting_rep_from_hom_triple,
                          corner_rep_from_ext_triple,
                          ext_triple_from_corner_rep, family_a,
                          family_a_prime, family_a_prime_commuting, family_b,
                          family_lambda, hom_quiver,
                          hom_triple_from_commuting_rep,
                          is_geometrically_irreducible_family,
                          split_corner_rep, twist_iso, twist_iso_inverse)
from qvl.linalg import GF, QQ, Matrix, random_matrix, random_nilpotent
from qvl.quiver import (Relation, is_simple_loop_extension,
                        is_weakly_triangular, monomial_relation)
from qvl.reps import Representation

F2 = GF(2)
F3 = GF(3)


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
                    lambda: family_b(1, 1)]:
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


class TestTwist:
    def test_zero_point_fixed(self):
        pres = family_a_prime_commuting(2)
        rep = Representation.zero(pres, F3, {0: 2, 1: 2})
        out = twist_iso(rep)
        assert out.pres.name == "A(1,2,1)"
        assert all(out.mats[a].is_zero() for a in out.mats)

    def test_one_dim_arrow_untouched(self):
        pres = family_a_prime_commuting(2)
        rep = Representation(pres, F3, {0: 1, 1: 1}, {
            "e0": Matrix(F3, 1, 1, [[0]]),
            "e1": Matrix(F3, 1, 1, [[0]]),
            "a1": Matrix(F3, 1, 1, [[2]]),
        })
        out = twist_iso(rep)
        assert out.mats["a1"][0, 0] == 2

    def test_invalid_rejected(self):
        pres = family_a_prime_commuting(2)
        bad = Representation(pres, F3, {0: 1, 1: 1}, {
            "e0": Matrix(F3, 1, 1, [[1]]),
            "e1": Matrix(F3, 1, 1, [[0]]),
            "a1": Matrix(F3, 1, 1, [[0]]),
        })
        with pytest.raises(ValueError):
            twist_iso(bad)

    @pytest.mark.parametrize("seed", range(8))
    def test_round_trip_f3(self, seed):
        rng = random.Random(seed)
        pres = family_a_prime_commuting(2)
        rep = random_two_vertex_rep(pres, F3, 2, 2, rng)
        out = twist_iso(rep)
        assert out.is_valid()
        back = twist_iso_inverse(out)
        assert back.mats == rep.mats

    def test_char_two_is_identity_on_matrices(self):
        rng = random.Random(3)
        pres = family_a_prime_commuting(2)
        rep = random_two_vertex_rep(pres, F2, 2, 2, rng)
        out = twist_iso(rep)
        assert out.mats == rep.mats

    def test_bijection_on_point_sets(self):
        pres_c = family_a_prime_commuting(2)
        pres_a = family_a(1, 2, 1)
        dims = {0: 1, 1: 2}
        src = [rep.key() for rep in iter_rep_points(pres_c, F3, dims)]
        dst = {rep.key() for rep in iter_rep_points(pres_a, F3, dims)}
        image = {twist_iso(
            _rep_from_key(pres_c, F3, dims, k)).key() for k in src}
        assert len(image) == len(src)
        assert image == dst


def _rep_from_key(pres, field, dims, key):
    mats = dict(zip(pres.quiver.arrow_names(), key[1]))
    return Representation(pres, field, dims, mats)


class TestHomCorrespondence:
    def test_one_dim_counts_f2(self):
        pres = family_a_prime_commuting(2)
        lam = family_lambda(2)
        assert count_rep_points(pres, F2, {0: 1, 1: 1}) == 2
        assert count_hom_points(lam, F2, {0: 1}, {0: 1}) == 2

    def test_zero_rep_maps_to_zero_triple(self):
        pres = family_a_prime_commuting(2)
        rep = Representation.zero(pres, F2, {0: 2, 1: 1})
        triple = hom_triple_from_commuting_rep(rep)
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
        for rep in iter_rep_points(pres, F3, {0: 2, 1: 1}):
            triple = hom_triple_from_commuting_rep(rep)
            assert triple.morphism.intertwines()
            back = commuting_rep_from_hom_triple(triple, 2)
            assert back == rep


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
        assert count_rep_points(hom_quiver(pres), F,
                                _doubled_dims(source, target)) == triples

    @pytest.mark.parametrize("case", ["A131", "Acomm2"])
    def test_points_are_hom_triples(self, case):
        pres, source, target, q, triples = HOM_CASES[case]
        F = GF(q)
        arrows = pres.quiver.arrow_names()

        def key(src, dst, maps):
            return (tuple(src[a].rows for a in arrows),
                    tuple(dst[a].rows for a in arrows),
                    tuple(maps[v].rows for v in pres.quiver.vertices))

        doubled = set()
        for rep in iter_rep_points(hom_quiver(pres), F,
                                   _doubled_dims(source, target)):
            doubled.add(key({a: rep.mats[f"s_{a}"] for a in arrows},
                            {a: rep.mats[f"t_{a}"] for a in arrows},
                            {v: rep.mats[f"f{v}"]
                             for v in pres.quiver.vertices}))
        homs = {key(t.source.mats, t.target.mats, t.morphism.maps)
                for t in iter_hom_points(pres, F, source, target)}
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
            rep = Representation(pres, F3, {0: 2, 1: 2}, mats)
            crossing_ok = rep.evaluate_relation(pres.relations[2]).is_zero()
            lam = family_lambda(3)
            quo = Representation(lam, F3, {0: 2}, {"e": mats["e1"]})
            sub = Representation(lam, F3, {0: 2}, {"e": mats["e0"]})
            value = cocycle_value(quo, sub, {"e": mats["a1"]},
                                  lam.relations[0])
            assert crossing_ok == value.is_zero()

    def test_zero_blocks_correspond_to_zero_arrow(self):
        pres = family_b(1, 2)
        rep = Representation.zero(pres, F2, {0: 2, 1: 2})
        triple = ext_triple_from_corner_rep(rep)
        assert triple.blocks["e"].is_zero()

    def test_round_trip_every_point(self):
        pres = family_b(1, 2)
        for rep in iter_rep_points(pres, F2, {0: 2, 1: 1}):
            triple = ext_triple_from_corner_rep(rep)
            back = corner_rep_from_ext_triple(triple, 2)
            assert back == rep

    @pytest.mark.parametrize("d,e", [(1, 1), (2, 1)])
    def test_higher_order_counts_match(self, d, e):
        # the correspondences are not special to order 2
        assert count_rep_points(family_b(1, 3), F2, {0: d, 1: e}) \
            == count_ext_points(family_lambda(3), F2, {0: e}, {0: d})
        assert count_rep_points(family_a_prime_commuting(3), F2,
                                {0: d, 1: e}) \
            == count_hom_points(family_lambda(3), F2, {0: e}, {0: d})


class TestCornerSplit:
    def test_trivial_split(self):
        rng = random.Random(5)
        pres = family_b(1, 2)
        rep = random_two_vertex_rep(pres, F3, 2, 1, rng)
        core, free = split_corner_rep(rep)
        assert free == []
        assert assemble_corner_rep(core, free) == rep

    def test_zero_rep_splits_to_zeros(self):
        pres = family_b(3, 2)
        rep = Representation.zero(pres, F2, {0: 1, 1: 1})
        core, free = split_corner_rep(rep)
        assert all(m.is_zero() for m in free)
        assert core.total_dim() == 2

    @pytest.mark.parametrize("seed", range(5))
    def test_round_trip(self, seed):
        rng = random.Random(seed)
        pres = family_b(3, 2)
        rep = random_two_vertex_rep(pres, F3, 2, 1, rng)
        core, free = split_corner_rep(rep)
        assert core.is_valid()
        assert len(free) == 2
        assert assemble_corner_rep(core, free) == rep

    def test_count_multiplicativity_f2(self):
        full = count_rep_points(family_b(3, 2), F2, {0: 1, 1: 1})
        core = count_rep_points(family_b(1, 2), F2, {0: 1, 1: 1})
        assert full == core * 2 ** 2
