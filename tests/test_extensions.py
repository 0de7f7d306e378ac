import itertools
import random
from fractions import Fraction

import pytest

from helpers import (cocycle_value, random_cocycle, random_gl,
                     random_lambda_rep)
from qvl.counting import count_ext_points, iter_ext_points
from qvl.extensions import (ExtensionTriple, block_shapes, build_extension,
                            cocycle_space_basis, extension_from_mono,
                            is_cocycle,
                            mono_triple_from_extension, splitting_from_mono,
                            zero_blocks)
from qvl.families import family_a, family_lambda
from qvl.linalg import GF, Matrix, QQ, hstack, random_matrix, split_blocks
from qvl.quiver import BoundQuiver, Quiver, Relation
from qvl.reps import (Morphism, Representation, cokernel, gl_action,
                      is_monomorphism)

F2 = GF(2)
F5 = GF(5)


def lambda_pair(m, field, d, e, rng):
    quo = random_lambda_rep(m, field, e, rng)
    sub = random_lambda_rep(m, field, d, rng)
    return quo, sub


class TestCocycleValue:
    def test_zero_blocks_give_zero(self):
        rng = random.Random(1)
        pres = family_lambda(3)
        quo, sub = lambda_pair(3, F5, 3, 2, rng)
        blocks = zero_blocks(pres, F5, sub.dims, quo.dims)
        for rel in pres.relations:
            assert cocycle_value(quo, sub, blocks, rel).is_zero()

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_loop_power_closed_form(self, m):
        # against the telescoped sum of sub^(m-1-i) block quo^i
        rng = random.Random(m)
        pres = family_lambda(m)
        for _ in range(10):
            d, e = rng.randint(1, 4), rng.randint(1, 4)
            quo, sub = lambda_pair(m, F5, d, e, rng)
            blocks = {"e": random_matrix(F5, d, e, rng)}
            v, u = sub.mats["e"], quo.mats["e"]
            expected = Matrix.zeros(F5, d, e)
            for i in range(m):
                expected = expected + (v ** (m - 1 - i)) @ blocks["e"] @ (u ** i)
            got = cocycle_value(quo, sub, blocks, pres.relations[0])
            assert got == expected

    def test_one_dim_zero_pair_kills_everything(self):
        pres = family_lambda(2)
        quo = Representation(pres, F2, {0: 1}, {"e": Matrix(F2, 1, 1, [[0]])})
        sub = Representation(pres, F2, {0: 1}, {"e": Matrix(F2, 1, 1, [[0]])})
        for z in (0, 1):
            blocks = {"e": Matrix(F2, 1, 1, [[z]])}
            assert cocycle_value(quo, sub, blocks,
                                 pres.relations[0]).is_zero()

    def test_linearity_in_blocks(self):
        rng = random.Random(9)
        pres = family_lambda(3)
        quo, sub = lambda_pair(3, F5, 3, 3, rng)
        z1 = {"e": random_matrix(F5, 3, 3, rng)}
        z2 = {"e": random_matrix(F5, 3, 3, rng)}
        rel = pres.relations[0]
        left = cocycle_value(quo, sub, {"e": z1["e"] + z2["e"]}, rel)
        assert left == cocycle_value(quo, sub, z1, rel) \
            + cocycle_value(quo, sub, z2, rel)

    def test_crossing_relation_value(self):
        pres = family_a(1, 2, 1)
        quo = Representation.zero(pres, F5, {0: 1, 1: 1})
        sub = Representation.zero(pres, F5, {0: 1, 1: 1})
        blocks = {"e0": Matrix(F5, 1, 1, [[2]]),
                  "e1": Matrix(F5, 1, 1, [[3]]),
                  "a1": Matrix(F5, 1, 1, [[4]])}
        # with zero loop matrices every summand of the crossing relation
        # contains a zero factor
        assert cocycle_value(quo, sub, blocks, pres.relations[2]).is_zero()

    def test_three_arrow_path_hand_expansion(self):
        # single term c * h*g*f on a four-vertex chain; the value must be
        # c * (Z_h U_g U_f + V_h Z_g U_f + V_h V_g Z_f)
        F7 = GF(7)
        rng = random.Random(99)
        q = Quiver(["w", "x", "y", "z"],
                   [("h", "x", "w"), ("g", "y", "x"), ("f", "z", "y")])
        rel = Relation([(3, q.path(["h", "g", "f"]))])
        pres = BoundQuiver(q, [rel], 3)
        sub = Representation(pres, F7, {"w": 2, "x": 3, "y": 2, "z": 2}, {
            "h": random_matrix(F7, 2, 3, rng), "g": Matrix.zeros(F7, 3, 2),
            "f": random_matrix(F7, 2, 2, rng)})
        quo = Representation(pres, F7, {"w": 1, "x": 2, "y": 3, "z": 2}, {
            "h": random_matrix(F7, 1, 2, rng), "g": Matrix.zeros(F7, 2, 3),
            "f": random_matrix(F7, 3, 2, rng)})
        assert sub.is_valid() and quo.is_valid()
        blocks = {"h": random_matrix(F7, 2, 2, rng),
                  "g": random_matrix(F7, 3, 3, rng),
                  "f": random_matrix(F7, 2, 2, rng)}
        got = cocycle_value(quo, sub, blocks, rel)
        expect = (blocks["h"] @ quo.mats["g"] @ quo.mats["f"]
                  + sub.mats["h"] @ blocks["g"] @ quo.mats["f"]
                  + sub.mats["h"] @ sub.mats["g"] @ blocks["f"]).scale(3)
        assert got == expect


class TestCocycleSpace:
    def test_hereditary_full_ambient(self):
        q = Quiver([0, 1], [("a", 1, 0)])
        pres = BoundQuiver(q, [], 2)
        quo = Representation(pres, F2, {0: 1, 1: 2},
                             {"a": Matrix(F2, 1, 2, [[1, 0]])})
        sub = Representation(pres, F2, {0: 2, 1: 1},
                             {"a": Matrix(F2, 2, 1, [[1], [1]])})
        basis = cocycle_space_basis(quo, sub)
        ambient = sum(sub.dims[t] * quo.dims[s] for _, s, t in q.arrows)
        assert len(basis) == ambient == 4

    def test_one_dim_zero_pair_dimension(self):
        pres = family_lambda(2)
        quo = Representation(pres, F2, {0: 1}, {"e": Matrix(F2, 1, 1, [[0]])})
        sub = Representation(pres, F2, {0: 1}, {"e": Matrix(F2, 1, 1, [[0]])})
        assert len(cocycle_space_basis(quo, sub)) == 1

    def test_regular_pair_dimension_via_entrywise_oracle(self):
        pres = family_lambda(2)
        n = Matrix(F2, 2, 2, [[0, 1], [0, 0]])
        quo = Representation(pres, F2, {0: 2}, {"e": n})
        sub = Representation(pres, F2, {0: 2}, {"e": n})
        # oracle: walk all 16 blocks and keep those with n z + z n = 0
        solutions = [z for z in itertools.product((0, 1), repeat=4)
                     if _anticommutes(n, z)]
        basis = cocycle_space_basis(quo, sub)
        assert 2 ** len(basis) == len(solutions)
        assert len(basis) == 2

    def test_every_basis_family_is_a_cocycle(self):
        rng = random.Random(4)
        pres = family_a(1, 2, 1)
        from helpers import random_two_vertex_rep
        quo = random_two_vertex_rep(pres, F5, 1, 2, rng)
        sub = random_two_vertex_rep(pres, F5, 2, 1, rng)
        for fam in cocycle_space_basis(quo, sub):
            assert is_cocycle(quo, sub, fam)


def _anticommutes(n, flat):
    z = Matrix(F2, 2, 2, [flat[:2], flat[2:]])
    return (n @ z + z @ n).is_zero()


class TestBuildExtension:
    def test_zero_blocks_give_direct_sum(self):
        from qvl.reps import direct_sum
        rng = random.Random(2)
        pres = family_lambda(3)
        quo, sub = lambda_pair(3, F5, 2, 2, rng)
        blocks = zero_blocks(pres, F5, sub.dims, quo.dims)
        middle, incl, proj = build_extension(quo, sub, blocks)
        assert middle == direct_sum(sub, quo)

    def test_one_dim_block_builds_regular_module(self):
        pres = family_lambda(2)
        quo = Representation(pres, F2, {0: 1}, {"e": Matrix(F2, 1, 1, [[0]])})
        sub = Representation(pres, F2, {0: 1}, {"e": Matrix(F2, 1, 1, [[0]])})
        middle, incl, proj = build_extension(quo, sub,
                                             {"e": Matrix(F2, 1, 1, [[1]])})
        assert middle.mats["e"] == Matrix(F2, 2, 2, [[0, 1], [0, 0]])
        assert middle.is_valid()

    def test_higher_order_block_square_vanishes(self):
        pres = family_lambda(3)
        quo = Representation(pres, F5, {0: 1}, {"e": Matrix(F5, 1, 1, [[0]])})
        sub = Representation(pres, F5, {0: 1}, {"e": Matrix(F5, 1, 1, [[0]])})
        middle, _, _ = build_extension(quo, sub,
                                       {"e": Matrix(F5, 1, 1, [[1]])})
        assert (middle.mats["e"] ** 2).is_zero()
        assert middle.is_valid()

    def test_non_cocycle_rejected(self):
        pres = family_lambda(2)
        n = Matrix(F2, 2, 2, [[0, 1], [0, 0]])
        quo = Representation(pres, F2, {0: 2}, {"e": n})
        sub = Representation(pres, F2, {0: 2}, {"e": n})
        bad = {"e": Matrix(F2, 2, 2, [[1, 0], [0, 0]])}
        assert not is_cocycle(quo, sub, bad)
        with pytest.raises(ValueError):
            build_extension(quo, sub, bad)

    @pytest.mark.parametrize("side", ["quotient", "sub"])
    def test_points_off_the_variety_rejected(self, side):
        # e = [[1]] has e^2 != 0; the zero block is a cocycle for the pair,
        # so the cocycle check passes and the invalid middle is traced to
        # its side, not reported as inconsistent relations
        pres = family_lambda(2)
        off = Representation(pres, F2, {0: 1}, {"e": Matrix(F2, 1, 1, [[1]])})
        zero = Representation(pres, F2, {0: 1},
                              {"e": Matrix(F2, 1, 1, [[0]])})
        quo, sub = (off, zero) if side == "quotient" else (zero, off)
        with pytest.raises(ValueError, match=f"the {side} is not a point"):
            build_extension(quo, sub, {"e": Matrix(F2, 1, 1, [[0]])})

    def test_blocks_over_another_field_rejected(self):
        # a block over F_7 for a pair over F_5 fails where it comes in,
        # also when the cocycle check is skipped
        pres = family_lambda(2)
        r = Representation(pres, F5, {0: 1}, {"e": Matrix(F5, 1, 1, [[0]])})
        blocks = {"e": Matrix(GF(7), 1, 1, [[1]])}
        for build in (lambda: ExtensionTriple(r, r, blocks, check=False),
                      lambda: build_extension(r, r, blocks)):
            with pytest.raises(ValueError, match="arrow 'e': field mismatch"):
                build()

    def test_exactness_bookkeeping(self):
        rng = random.Random(3)
        pres = family_lambda(3)
        quo, sub = lambda_pair(3, F5, 3, 2, rng)
        blocks = random_cocycle(quo, sub, rng)
        middle, incl, proj = build_extension(quo, sub, blocks)
        assert middle.is_valid()
        assert is_monomorphism(incl)
        assert proj.intertwines()
        for x in pres.quiver.vertices:
            assert (proj.maps[x] @ incl.maps[x]).is_zero()
            assert proj.maps[x].rank() == quo.dims[x]
            assert incl.maps[x].rank() + proj.maps[x].rank() == middle.dims[x]

    def test_validity_iff_cocycle(self):
        # both directions: valid middle <-> blocks are a cocycle
        pres = family_lambda(2)
        n = Matrix(F2, 2, 2, [[0, 1], [0, 0]])
        quo = Representation(pres, F2, {0: 2}, {"e": n})
        sub = Representation(pres, F2, {0: 2}, {"e": n})
        for flat in itertools.product((0, 1), repeat=4):
            blocks = {"e": Matrix(F2, 2, 2, [flat[:2], flat[2:]])}
            manual = Matrix(F2, 4, 4, [
                list(n.rows[0]) + list(blocks["e"].rows[0]),
                list(n.rows[1]) + list(blocks["e"].rows[1]),
                [0, 0] + list(n.rows[0]),
                [0, 0] + list(n.rows[1]),
            ])
            middle_valid = (manual @ manual).is_zero()
            assert middle_valid == is_cocycle(quo, sub, blocks)

        # build_extension checks only the middle term: it returns exactly on
        # the cocycles and names a cocycle equation on every other family
        def agree(quo, sub, families):
            seen = set()
            for blocks in families:
                cocycle = is_cocycle(quo, sub, blocks)
                seen.add(cocycle)
                if cocycle:
                    assert build_extension(quo, sub, blocks)[0].is_valid()
                else:
                    with pytest.raises(ValueError, match="blocks violate "
                                       "the cocycle equation of "):
                        build_extension(quo, sub, blocks)
            assert seen == {True, False}

        def every_family(quo, sub):
            field = quo.field
            shapes = block_shapes(quo.pres, sub.dims, quo.dims)
            size = sum(r * c for r, c in shapes.values())
            for vec in itertools.product(field.elements(), repeat=size):
                yield split_blocks(field, shapes, vec)

        agree(quo, sub, every_family(quo, sub))
        # Lambda(3) at dims (2, 2) over F_3: n B n = 0 cuts out 27 of 81
        F3 = GF(3)
        n = Matrix(F3, 2, 2, [[0, 1], [0, 0]])
        pair = [Representation(family_lambda(3), F3, {0: 2}, {"e": n})] * 2
        agree(*pair, every_family(*pair))
        # A(1,3,1) over F_2, whose crossing relation e0*a1 + a1*e1 mixes
        # the loop and arrow blocks
        pres = family_a(1, 3, 1)
        quo = Representation(pres, F2, {0: 1, 1: 2}, {
            "e0": Matrix(F2, 1, 1, [[0]]),
            "e1": Matrix(F2, 2, 2, [[0, 1], [0, 0]]),
            "a1": Matrix(F2, 1, 2, [[0, 1]])})
        sub = Representation(pres, F2, {0: 2, 1: 1}, {
            "e0": Matrix(F2, 2, 2, [[0, 1], [0, 0]]),
            "e1": Matrix(F2, 1, 1, [[0]]),
            "a1": Matrix(F2, 2, 1, [[1], [0]])})
        assert quo.is_valid() and sub.is_valid()
        agree(quo, sub, every_family(quo, sub))
        # a pair over Q: random cocycles and random blocks
        rng = random.Random(7)
        h = Fraction(1, 2)
        n = Matrix(QQ, 2, 2, [[h, -h * h], [1, -h]])
        quo = Representation(family_lambda(2), QQ, {0: 2}, {"e": n})
        sub = Representation(family_lambda(2), QQ, {0: 1},
                             {"e": Matrix(QQ, 1, 1, [[0]])})
        agree(quo, sub, [random_cocycle(quo, sub, rng) for _ in range(5)]
              + [{"e": random_matrix(QQ, 1, 2, rng)} for _ in range(5)])


class TestSplitting:
    def test_normal_form_is_fixed_point(self):
        pres = family_lambda(2)
        quo = Representation(pres, F2, {0: 1}, {"e": Matrix(F2, 1, 1, [[0]])})
        sub = Representation(pres, F2, {0: 1}, {"e": Matrix(F2, 1, 1, [[0]])})
        blocks = {"e": Matrix(F2, 1, 1, [[1]])}
        middle, incl, _ = build_extension(quo, sub, blocks)
        g, found_blocks, found_quo = splitting_from_mono(incl)
        assert g[0] == Matrix.identity(F2, 2)
        assert found_blocks == blocks
        assert found_quo == quo

    def test_non_mono_rejected(self):
        pres = family_lambda(2)
        one = Representation(pres, F2, {0: 1}, {"e": Matrix(F2, 1, 1, [[0]])})
        two = Representation(pres, F2, {0: 2},
                             {"e": Matrix(F2, 2, 2, [[0, 1], [0, 0]])})
        zero = Morphism(one, two, {0: Matrix.zeros(F2, 2, 1)})
        with pytest.raises(ValueError):
            splitting_from_mono(zero)

    @pytest.mark.parametrize("seed", range(6))
    def test_round_trip_under_base_change(self, seed):
        rng = random.Random(seed)
        m = rng.choice([2, 3])
        pres = family_lambda(m)
        d, e = rng.randint(1, 3), rng.randint(1, 3)
        quo, sub = lambda_pair(m, F5, d, e, rng)
        blocks = random_cocycle(quo, sub, rng)
        dims_total = {0: d + e}
        g = random_gl(F5, dims_total, rng)
        triple = ExtensionTriple(quo, sub, blocks)
        homt = mono_triple_from_extension(g, triple)
        assert is_monomorphism(homt.morphism)
        g2, blocks2, quo2 = splitting_from_mono(homt.morphism)
        rebuilt, _, _ = build_extension(quo2, sub, blocks2)
        assert gl_action(g2, rebuilt) == homt.target
        assert homt.morphism.maps[0] == (g2[0] @ Matrix(
            F5, d + e, d,
            [[1 if i == j else 0 for j in range(d)] for i in range(d + e)]))
        # the cokernel is the splitting's quotient, projected by g2^(-1)
        coker, proj = cokernel(homt.morphism)
        assert coker == quo2
        assert proj.maps[0] @ g2[0] == hstack(Matrix.zeros(F5, e, d),
                                              Matrix.identity(F5, e))


class TestConversionMaps:
    def test_embedding_from_extension_is_mono_always(self):
        rng = random.Random(11)
        for m in (2, 3):
            pres = family_lambda(m)
            quo, sub = lambda_pair(m, F5, 2, 2, rng)
            blocks = random_cocycle(quo, sub, rng)
            g = random_gl(F5, {0: 4}, rng)
            homt = mono_triple_from_extension(g, ExtensionTriple(quo, sub,
                                                                 blocks))
            assert is_monomorphism(homt.morphism)

    def test_extension_from_mono_normal_form(self):
        pres = family_lambda(2)
        quo = Representation(pres, F2, {0: 1}, {"e": Matrix(F2, 1, 1, [[0]])})
        sub = Representation(pres, F2, {0: 1}, {"e": Matrix(F2, 1, 1, [[0]])})
        blocks = {"e": Matrix(F2, 1, 1, [[1]])}
        _, incl, _ = build_extension(quo, sub, blocks)
        triple = extension_from_mono(incl)
        assert triple.quo == quo and triple.sub == sub
        assert triple.blocks == blocks

    def test_round_trip_after_embedding(self):
        rng = random.Random(13)
        pres = family_lambda(3)
        quo, sub = lambda_pair(3, F5, 2, 1, rng)
        blocks = random_cocycle(quo, sub, rng)
        g = random_gl(F5, {0: 3}, rng)
        homt = mono_triple_from_extension(g, ExtensionTriple(quo, sub, blocks))
        triple = extension_from_mono(homt.morphism)
        rebuilt, _, _ = build_extension(triple.quo, triple.sub, triple.blocks)
        g2, blocks2, quo2 = splitting_from_mono(homt.morphism)
        assert gl_action(g2, rebuilt) == homt.target


@pytest.mark.parametrize("pres,quo_dims,sub_dims,count", [
    (family_lambda(3), {0: 2}, {0: 2}, 184),
    (family_a(1, 3, 1), {0: 1, 1: 1}, {0: 1, 1: 1}, 20),
])
def test_ext_points_are_distinct_and_equal_across_walks(pres, quo_dims,
                                                        sub_dims, count):
    """ExtensionTriple equality and hash: the walk yields each point once,
    and two walks yield equal triples in the same order."""
    walk = list(iter_ext_points(pres, F2, quo_dims, sub_dims))
    assert count_ext_points(pres, F2, quo_dims, sub_dims) == count
    assert len(set(walk)) == count
    again = iter_ext_points(pres, F2, quo_dims, sub_dims)
    assert all(x == y and hash(x) == hash(y)
               for x, y in itertools.zip_longest(walk, again))
