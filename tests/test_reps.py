import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (evaluate_relation, intertwines_reference,
                     is_cocycle_reference, path_product, random_gl,
                     random_lambda_rep, random_nilpotent,
                     random_two_vertex_rep)
from qvl.extensions import (block_shapes, cocycle_kernel,
                            cocycle_space_basis, is_cocycle,
                            splitting_from_mono)
from qvl.families import (family_a, family_a_prime_commuting, family_b,
                          family_lambda)
from qvl.linalg import GF, Matrix, QQ, hstack, random_matrix
from qvl.reps import (Morphism, Representation, cokernel, direct_sum,
                      failed_relations, flat_layout, flat_point, gl_action,
                      hom_basis, hom_kernel, is_monomorphism, simple_module)

F2 = GF(2)
F3 = GF(3)
F5 = GF(5)


def lambda2_reps():
    pres = family_lambda(2)
    one = Representation(pres, F2, {0: 1}, {"e": Matrix(F2, 1, 1, [[0]])})
    two = Representation(pres, F2, {0: 2},
                         {"e": Matrix(F2, 2, 2, [[0, 1], [0, 0]])})
    return pres, one, two


class TestEvaluation:
    def test_trivial_path_is_identity(self):
        pres, one, two = lambda2_reps()
        p = pres.quiver.trivial_path(0)
        assert path_product(F2, two.mats, p.arrows, 2) == \
            Matrix.identity(F2, 2)

    def test_loop_square_vanishes(self):
        pres, one, two = lambda2_reps()
        p = pres.quiver.path(["e", "e"])
        assert path_product(F2, two.mats, p.arrows, 2).is_zero()

    def test_crossing_path_through_zero_loop(self):
        pres = family_a(1, 2, 1)
        rep = Representation(pres, F5, {0: 1, 1: 1}, {
            "e0": Matrix(F5, 1, 1, [[0]]),
            "e1": Matrix(F5, 1, 1, [[0]]),
            "a1": Matrix(F5, 1, 1, [[3]]),
        })
        path = pres.quiver.path(["e0", "a1"])
        assert path_product(F5, rep.mats, path.arrows, 1).is_zero()

    def test_validity_examples(self):
        pres, one, two = lambda2_reps()
        assert one.is_valid() and two.is_valid()
        bad = Representation(family_lambda(2), QQ, {0: 1},
                             {"e": Matrix(QQ, 1, 1, [[1]])})
        assert not bad.is_valid()

    def test_corner_relation_evaluation(self):
        pres = family_b(1, 2)
        rep = Representation(pres, F5, {0: 1, 1: 1}, {
            "e0": Matrix(F5, 1, 1, [[0]]),
            "e1": Matrix(F5, 1, 1, [[0]]),
            "a1": Matrix(F5, 1, 1, [[0]]),
        })
        rep5 = Representation(pres, F5, rep.dims, dict(rep.mats))
        assert rep5.is_valid()

    def test_shape_mismatch_rejected(self):
        pres = family_lambda(2)
        with pytest.raises(ValueError):
            Representation(pres, F2, {0: 2}, {"e": Matrix(F2, 1, 1, [[0]])})


# Presentations for the relation check: Fraction coefficients on terms of
# mixed length, two relations one loop power apart (a locus with no Jordan
# strata), a loop between two base arrows with a coefficient 5/7 that is 0
# in F_5, and two named families.
CHECK_SPECS = [
    "quiver T { vertex 0; loop e at 0; rel 1/3*e^2 - 2*e^3; rel e^4; }",
    "quiver F { vertex 0; loop e at 0; rel e^3; rel e^2 - e^3; }",
    "quiver FP { vertex 0; vertex 1; vertex 2; arrow a: 0 -> 1; "
    "loop e at 1; arrow b: 1 -> 2; rel b*e*a; rel e^3; rel e^2 - e^3; "
    "rel 5/7*b*e^2*a; }",
]


def _check_presentations():
    from qvl.dsl import parse_quiver_spec
    return ([parse_quiver_spec(spec) for spec in CHECK_SPECS]
            + [family_a(1, 3, 1), family_b(1, 3)])


def _random_point(pres, field, rng):
    """Seeded dims in 0..3 and matrices: a loop is nilpotent of a random
    order (often a point, often not), any other arrow random or zero."""
    dims = {v: rng.randint(0, 3) for v in pres.quiver.vertices}
    mats = {}
    for a, s, t in pres.quiver.arrows:
        if s == t and rng.random() < 0.7:
            mats[a] = random_nilpotent(field, dims[s], rng.randint(1, 4), rng)
        elif rng.random() < 0.5:
            mats[a] = Matrix.zeros(field, dims[t], dims[s])
        else:
            mats[a] = random_matrix(field, dims[t], dims[s], rng)
    return dims, mats


def _failed(field, pres, dims, mats, relations) -> list:
    """``failed_relations`` of ``relations`` at the matrices ``mats`` of
    every arrow of ``pres``, laid out as a flat point."""
    return list(failed_relations(
        field, dims, flat_layout(pres, dims),
        flat_point(mats, pres.quiver.arrow_names()), relations))


class TestFailedRelations:
    """``failed_relations`` against the value ``evaluate_relation`` builds,
    relation by relation."""

    @pytest.mark.parametrize("field", [QQ, F2, F5], ids=str)
    @pytest.mark.parametrize("index", range(len(CHECK_SPECS) + 2))
    def test_agrees_with_evaluation(self, index, field):
        pres = _check_presentations()[index]
        rng = random.Random(f"{index}:{field}")
        seen = set()
        for _ in range(120):
            dims, mats = _random_point(pres, field, rng)
            want = [rel for rel in pres.relations
                    if not evaluate_relation(field, dims, mats, rel).is_zero()]
            assert _failed(field, pres, dims, mats, pres.relations) == want
            rep = Representation(pres, field, dims, mats)
            assert rep.is_valid() == (not want)
            seen.add((len(want), 0 in dims.values()))
        # points on and off the variety, with and without a dim-0 vertex
        assert {n > 0 for n, _ in seen} == {False, True}
        if len(pres.quiver.vertices) > 1:
            assert {zero for _, zero in seen} == {False, True}

    def test_order_follows_the_given_relations(self):
        pres = _check_presentations()[1]
        e = Matrix(QQ, 1, 1, [[Fraction(1, 2)]])
        rels = pres.relations
        assert _failed(QQ, pres, {0: 1}, {"e": e}, rels) == list(rels)
        assert _failed(QQ, pres, {0: 1}, {"e": e}, rels[::-1]) == \
            list(rels[::-1])

    def test_mixed_lengths_scale_exactly(self):
        """1/3 e^2 - 2 e^3 vanishes at e = 1/6 over Q, and at no other
        nonzero scalar; e = 1/6 needs the d^(D - k) scaling of the term of
        length 2."""
        pres = _check_presentations()[0]
        mixed = pres.relations[:1]
        for x, ok in ((Fraction(1, 6), True), (Fraction(1, 3), False),
                      (Fraction(-1, 6), False), (Fraction(0), True)):
            e = Matrix(QQ, 1, 1, [[x]])
            assert (not _failed(QQ, pres, {0: 1}, {"e": e}, mixed)) is ok, x

    def test_vanishing_denominator_raises(self):
        """Over F_3 the coefficient 1/3 is no field element: the check
        raises as evaluation does, at a point and at dim 0, and never reads
        the relation as 0."""
        pres = _check_presentations()[0]
        for dim in (0, 1, 2):
            mats = {"e": Matrix.zeros(F3, dim, dim)}
            with pytest.raises(ZeroDivisionError):
                _failed(F3, pres, {0: dim}, mats, pres.relations)
            with pytest.raises(ZeroDivisionError):
                evaluate_relation(F3, {0: dim}, mats, pres.relations[0])
            with pytest.raises(ZeroDivisionError):
                Representation(pres, F3, {0: dim}, mats).is_valid()


PAIR_FAMILIES = {"A(1,3,1)": family_a(1, 3, 1),
                 "A'comm(2)": family_a_prime_commuting(2),
                 "A(2,4,2)": family_a(2, 4, 2)}


def _random_combination(field, zero, families, rng):
    """``zero`` plus a random linear combination of the matrix families
    (dicts on its keys), each coefficient in -3..3."""
    acc = dict(zero)
    for fam in families:
        c = field.coerce(rng.randint(-3, 3))
        acc = {k: acc[k] + fam[k].scale(c) for k in acc}
    return acc


class TestPairChecks:
    """``is_cocycle`` and ``intertwines``, which read the crossing relations
    of ``ext_quiver`` and ``hom_quiver``, against the matrix-product
    references at random blocks and maps and at random elements of the
    cocycle and Hom kernels."""

    @pytest.mark.parametrize("field", [F3, F5, QQ], ids=str)
    @pytest.mark.parametrize("name", list(PAIR_FAMILIES))
    def test_agree_with_references(self, name, field):
        pres = PAIR_FAMILIES[name]
        rng = random.Random(f"{name}:{field}")
        seen = {"ext": set(), "hom": set()}
        for _ in range(8):
            first, second = (random_two_vertex_rep(
                pres, field, rng.randint(0, 2), rng.randint(1, 2), rng)
                for _ in range(2))
            shapes = block_shapes(pres, second.dims, first.dims)
            cocycles = cocycle_space_basis(first, second)
            for blocks in ({a: random_matrix(field, r, c, rng)
                            for a, (r, c) in shapes.items()},
                           _random_combination(field, {
                               a: Matrix.zeros(field, r, c)
                               for a, (r, c) in shapes.items()},
                               cocycles, rng)):
                got = is_cocycle(first, second, blocks)
                assert got == is_cocycle_reference(first, second, blocks)
                seen["ext"].add(got)
            homs = [m.maps for m in hom_basis(first, second)]
            for maps in ({x: random_matrix(field, second.dims[x],
                                           first.dims[x], rng)
                          for x in pres.quiver.vertices},
                         _random_combination(field, {
                             x: Matrix.zeros(field, second.dims[x],
                                             first.dims[x])
                             for x in pres.quiver.vertices}, homs, rng)):
                mor = Morphism(first, second, maps)
                got = mor.intertwines()
                assert got == intertwines_reference(mor)
                seen["hom"].add(got)
        assert seen == {"ext": {False, True}, "hom": {False, True}}


class TestHomBasis:
    def test_simple_endomorphisms(self):
        pres = family_a(1, 2, 1)
        s0 = simple_module(pres, F2, 0)
        assert len(hom_basis(s0, s0)) == 1

    def test_big_to_small(self):
        pres, one, two = lambda2_reps()
        basis = hom_basis(two, one)
        assert len(basis) == 1
        assert basis[0].maps[0] == Matrix(F2, 1, 2, [[0, 1]])

    def test_small_to_big(self):
        pres, one, two = lambda2_reps()
        basis = hom_basis(one, two)
        assert len(basis) == 1
        assert basis[0].maps[0] == Matrix(F2, 2, 1, [[1], [0]])

    def test_basis_elements_intertwine(self):
        rng = random.Random(8)
        pres = family_a_prime_commuting(2)
        v = random_two_vertex_rep(pres, F3, 2, 2, rng)
        w = random_two_vertex_rep(pres, F3, 2, 1, rng)
        for mor in hom_basis(v, w):
            assert mor.intertwines()

    def test_brute_force_oracle_f2(self):
        # enumerate all 1x2 candidates directly
        pres, one, two = lambda2_reps()
        count = 0
        for a in (0, 1):
            for b in (0, 1):
                f = Morphism(two, one, {0: Matrix(F2, 1, 2, [[a, b]])})
                if f.intertwines():
                    count += 1
        assert count == 2 ** len(hom_basis(two, one))

    def test_span_contains_supplied_homomorphism(self):
        pres, one, two = lambda2_reps()
        f = Morphism(one, two, {0: Matrix(F2, 2, 1, [[1], [0]])})
        assert f.intertwines()
        basis = hom_basis(one, two)
        assert any(mor == f for mor in basis)

    def test_span_contains_polynomials_in_the_loop(self):
        # p(V) commutes with V, so it is an endomorphism the basis must span
        rng = random.Random(21)
        pres = family_lambda(3)
        v = random_nilpotent(F5, 3, 3, rng)
        rep = Representation(pres, F5, {0: 3}, {"e": v})
        endo = Matrix.identity(F5, 3).scale(2) + v.scale(3) + (v @ v)
        basis = hom_basis(rep, rep)
        vecs = [[m.maps[0][i, j] for i in range(3) for j in range(3)]
                for m in basis]
        target = [endo[i, j] for i in range(3) for j in range(3)]
        stacked = Matrix(F5, len(vecs) + 1, 9, vecs + [target])
        assert stacked.rank() == Matrix(F5, len(vecs), 9, vecs).rank()

    @pytest.mark.parametrize("other", [
        Representation.zero(family_lambda(3), F2, {0: 1}),
        Representation.zero(family_lambda(2), F3, {0: 1})],
        ids=["presentation", "field"])
    def test_pair_systems_reject_mixed_data(self, other):
        # both points of a Hom or cocycle system lie on one doubled quiver
        # over one field, in either order
        pres, one, two = lambda2_reps()
        for system in (hom_basis, hom_kernel, cocycle_space_basis,
                       cocycle_kernel):
            for pair in ((one, other), (other, two)):
                with pytest.raises(ValueError):
                    system(*pair)


class TestMonomorphism:
    def test_identity_is_mono(self):
        pres, one, two = lambda2_reps()
        ident = Morphism(two, two, {0: Matrix.identity(F2, 2)})
        assert is_monomorphism(ident)

    def test_zero_from_nonzero_is_not(self):
        pres, one, two = lambda2_reps()
        zero = Morphism(one, two, {0: Matrix.zeros(F2, 2, 1)})
        assert not is_monomorphism(zero)

    def test_column_embedding_is_mono(self):
        pres, one, two = lambda2_reps()
        f = hom_basis(one, two)[0]
        assert is_monomorphism(f)

    def test_non_homomorphism_raises(self):
        pres, one, two = lambda2_reps()
        junk = Morphism(two, one, {0: Matrix(F2, 1, 2, [[1, 0]])})
        with pytest.raises(ValueError):
            is_monomorphism(junk)

    def test_map_over_another_field_rejected(self):
        # fails where it comes in, not later in intertwines
        pres, one, two = lambda2_reps()
        with pytest.raises(ValueError, match="vertex 0: field mismatch"):
            Morphism(one, one, {0: Matrix(GF(7), 1, 1, [[3]])})

    def test_composition(self):
        pres, one, two = lambda2_reps()
        into = hom_basis(one, two)[0]
        onto = hom_basis(two, one)[0]
        around = onto.compose(into)
        assert around.source == one and around.target == one
        assert around.maps[0] == onto.maps[0] @ into.maps[0]
        with pytest.raises(ValueError):
            into.compose(into)


class TestGlAction:
    def test_identity_acts_trivially(self):
        pres, one, two = lambda2_reps()
        g = {0: Matrix.identity(F2, 2)}
        assert gl_action(g, two) == two

    def test_swap_conjugation(self):
        pres, one, two = lambda2_reps()
        g = {0: Matrix(F2, 2, 2, [[0, 1], [1, 0]])}
        moved = gl_action(g, two)
        assert moved.mats["e"] == Matrix(F2, 2, 2, [[0, 0], [1, 0]])
        assert moved.is_valid()

    def test_one_dim_scaling(self):
        pres = family_a(1, 2, 1)
        rep = Representation(pres, F5, {0: 1, 1: 1}, {
            "e0": Matrix(F5, 1, 1, [[0]]),
            "e1": Matrix(F5, 1, 1, [[0]]),
            "a1": Matrix(F5, 1, 1, [[1]]),
        })
        g = {0: Matrix(F5, 1, 1, [[2]]), 1: Matrix(F5, 1, 1, [[3]])}
        moved = gl_action(g, rep)
        # loops stay zero; the arrow scales by 2/3
        assert moved.mats["e0"].is_zero() and moved.mats["e1"].is_zero()
        assert moved.mats["a1"][0, 0] == F5.mul(2, F5.inv(3))

    def test_singular_rejected(self):
        pres, one, two = lambda2_reps()
        with pytest.raises(ZeroDivisionError):
            gl_action({0: Matrix.zeros(F2, 2, 2)}, two)

    def test_missing_vertex_rejected(self):
        pres, one, two = lambda2_reps()
        with pytest.raises(ValueError):
            gl_action({}, two)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.integers(0, 10**6))
    def test_action_properties(self, seed):
        rng = random.Random(seed)
        pres = family_a_prime_commuting(2)
        rep = random_two_vertex_rep(pres, F3, 2, 2, rng)
        g = random_gl(F3, rep.dims, rng)
        h = random_gl(F3, rep.dims, rng)
        moved = gl_action(g, rep)
        assert moved.is_valid()
        gh = {x: g[x] @ h[x] for x in g}
        assert gl_action(g, gl_action(h, rep)) == gl_action(gh, rep)
        # Hom dimension is an isomorphism invariant
        other = random_two_vertex_rep(pres, F3, 1, 2, rng)
        assert len(hom_basis(moved, other)) == len(hom_basis(rep, other))


class TestSimpleAndSums:
    def test_simple_dimensions(self):
        pres = family_a(1, 2, 1)
        s0 = simple_module(pres, F2, 0)
        s1 = simple_module(pres, F2, 1)
        assert s0.dims == {0: 1, 1: 0}
        assert s1.dims == {0: 0, 1: 1}
        assert s0.is_valid() and s1.is_valid()

    def test_simples_valid_for_all_families(self):
        for pres in (family_a(2, 3, 2), family_a_prime_commuting(3),
                     family_b(1, 4)):
            for x in pres.quiver.vertices:
                assert simple_module(pres, F3, x).is_valid()

    def test_direct_sum_of_simples(self):
        pres = family_a(1, 2, 1)
        both = direct_sum(simple_module(pres, F2, 0),
                          simple_module(pres, F2, 1))
        assert both.dims == {0: 1, 1: 1}
        assert both.mats["a1"].is_zero()
        assert both.is_valid()

    def test_sum_with_zero_module(self):
        pres, one, two = lambda2_reps()
        zero = Representation.zero(pres, F2, {0: 0})
        assert direct_sum(two, zero).mats["e"] == two.mats["e"]

    def test_matches_zero_block_extension(self):
        from qvl.extensions import build_extension, zero_blocks
        pres, one, two = lambda2_reps()
        h = Fraction(1, 2)
        two_q = Representation(pres, QQ, {0: 2}, {
            "e": Matrix(QQ, 2, 2, [[h, -h * h], [1, -h]])})
        one_q = Representation.zero(pres, QQ, {0: 1})
        for field, one, two in ((F2, one, two), (QQ, one_q, two_q)):
            blocks = zero_blocks(pres, field, two.dims, one.dims)
            middle, _, _ = build_extension(one, two, blocks)
            assert middle == direct_sum(two, one)


class TestCokernel:
    def test_identity_has_zero_cokernel(self):
        pres, one, two = lambda2_reps()
        ident = Morphism(two, two, {0: Matrix.identity(F2, 2)})
        quo, proj = cokernel(ident)
        assert sum(quo.dims.values()) == 0

    def test_embedding_cokernel(self):
        pres, one, two = lambda2_reps()
        f = hom_basis(one, two)[0]  # basis column (1,0)^T
        quo, proj = cokernel(f)
        assert quo.dims == {0: 1}
        assert quo.mats["e"].is_zero()
        assert quo.is_valid()
        assert (proj.maps[0] @ f.maps[0]).is_zero()
        assert proj.maps[0].rank() == 1

    def test_non_mono_rejected(self):
        pres, one, two = lambda2_reps()
        zero = Morphism(one, two, {0: Matrix.zeros(F2, 2, 1)})
        with pytest.raises(ValueError):
            cokernel(zero)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(st.integers(0, 10**6))
    def test_rank_bookkeeping(self, seed):
        rng = random.Random(seed)
        pres = family_lambda(2)
        small = random_lambda_rep(2, F5, 1, rng)
        big = random_lambda_rep(2, F5, 3, rng)
        monos = [m for m in _hom_combos(small, big) if _is_mono(m)]
        if not monos:
            return
        mor = monos[0]
        quo, proj = cokernel(mor)
        assert proj.intertwines()
        assert quo.is_valid()
        # the cokernel is the splitting's quotient, projected by g^(-1)
        g, _, split_quo = splitting_from_mono(mor)
        assert quo == split_quo
        for x in big.pres.quiver.vertices:
            assert (proj.maps[x] @ mor.maps[x]).is_zero()
            assert proj.maps[x].rank() == big.dims[x] - small.dims[x]
            d, e = small.dims[x], big.dims[x] - small.dims[x]
            assert proj.maps[x] @ g[x] == hstack(Matrix.zeros(F5, e, d),
                                                 Matrix.identity(F5, e))

    def test_block_inclusion_recovers_quotient(self):
        from qvl.extensions import build_extension
        pres, one, two = lambda2_reps()
        blocks = {"e": Matrix(F2, 2, 1, [[1], [0]])}
        middle, incl, proj = build_extension(one, two, blocks)
        quo, cproj = cokernel(incl)
        assert quo.dims == one.dims
        assert quo.mats["e"] == one.mats["e"]


def _hom_combos(src, dst):
    import itertools
    basis = hom_basis(src, dst)
    field = src.field
    for coeffs in itertools.product(field.elements(), repeat=len(basis)):
        maps = {}
        for x in src.pres.quiver.vertices:
            acc = Matrix.zeros(field, dst.dims[x], src.dims[x])
            for c, mor in zip(coeffs, basis):
                if c:
                    acc = acc + mor.maps[x].scale(c)
            maps[x] = acc
        yield Morphism(src, dst, maps)


def _is_mono(mor):
    return all(mor.maps[x].rank() == mor.source.dims[x]
               for x in mor.source.pres.quiver.vertices)
