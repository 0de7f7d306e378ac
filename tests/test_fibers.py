"""The shared linear-fiber builder (SandwichPlan, checked against the
per-call builder it replaced), the walk over a kernel's span, and the
Hom/cocycle/arrow systems built on them."""

import ast
import itertools
import json
import math
import operator
import random
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (is_cocycle_reference, random_two_vertex_rep,
                     residual_kernel, typed)
from qvl.counting import (_inner_count, _span, iter_ext_points,
                          iter_hom_points)
from qvl.extensions import (block_shapes, build_extension,
                            cocycle_space_basis, splitting_from_mono)
from qvl.families import (family_a, family_a_prime_commuting, family_b,
                          family_lambda)
from qvl.linalg import (GF, Matrix, QQ, SandwichPlan, random_invertible,
                        random_matrix, split_blocks)
from qvl.reps import Morphism, Representation, hom_basis
from qvl.serialize import (blocks_to_json, matrix_to_json, morphism_to_json,
                           rep_from_json, rep_to_json)

F2 = GF(2)
F3 = GF(3)
F5 = GF(5)

DATA = Path(__file__).resolve().parent / "data"

# Hom and cocycle bases, and the hom/ext walks, as computed by the separate
# hand-assembled linear systems that the shared builder replaced.  The present
# code must reproduce them bit for bit: same kernel basis, same order.
PINNED = json.loads((DATA / "pinned_fibers.json").read_text())

FAMILIES = {"Lambda(4)": family_lambda(4), "A(1,3,1)": family_a(1, 3, 1),
            "B(1,3)": family_b(1, 3), "A'comm(2)": family_a_prime_commuting(2)}


def sandwich_system_oracle(field, shapes, equations) -> Matrix:
    """The per-call builder the plan replaced: the matrix of the system
    sum c * L @ X_k @ R = 0, one equation per item, each a sequence of
    terms (c, k, L, R) with identity sides given as identity matrices."""
    offsets, total = {}, 0
    for k, (r, c) in shapes.items():
        offsets[k] = total
        total += r * c
    reduce, zero = field.reduce, field.zero
    rows = []
    for terms in equations:
        if not terms:
            continue
        out_r, out_c = terms[0][2].nrows, terms[0][3].ncols
        block = [[zero] * total for _ in range(out_r * out_c)]
        for coeff, k, left, right in terms:
            r, c = shapes[k]
            if (left.nrows, left.ncols, right.nrows, right.ncols) != \
                    (out_r, r, c, out_c):
                raise ValueError(f"term on {k!r} does not fit")
            if not (block and r and c):
                continue
            right_cols = [[(j, y) for j, y in enumerate(col) if y]
                          for col in zip(*right.rows)]
            for u, left_row in enumerate(left.rows):
                out_rows = block[u * out_c:(u + 1) * out_c]
                for i, x in enumerate(left_row):
                    if x:
                        cx, base = coeff * x, offsets[k] + i * c
                        for row, col in zip(out_rows, right_cols):
                            for j, y in col:
                                row[base + j] += cx * y
        rows.extend(block)
    return Matrix._trusted(field, len(rows), total,
                           tuple([tuple(map(reduce, row)) for row in rows]))


def _oracle_equations(field, shapes, equations, factors):
    """The plan's equations at one point, with explicit identity sides."""
    factors = iter(factors)
    out = []
    for (out_r, out_c), terms in equations:
        out.append([
            (coeff, k,
             Matrix.identity(field, out_r) if left is None else next(factors),
             Matrix.identity(field, out_c) if right is None
             else next(factors))
            for coeff, k, left, right in terms])
    return out


def _laid_out(equations, factors):
    """The layout and the flat point of one factor per side of the
    equations' terms, in order, left before right, each side one label:
    the factors are laid out one after another in a single flat point."""
    layout, point = {}, []
    sides = [side for _, terms in equations for _, _, left, right in terms
             for side in (left, right) if side is not None]
    for (label,), m in zip(sides, factors):
        layout[label] = (len(point), m.nrows, m.ncols)
        point.extend(x for row in m.rows for x in row)
    return layout, point


@st.composite
def sandwich_cases(draw):
    """A field, block shapes, equations whose terms have identity or
    given sides, at least one given, and up to three points' factors, with
    zero rows, zero columns and zero entries among them."""
    field = draw(st.sampled_from([F2, F5, QQ]))
    entry = st.one_of(st.just(0), st.fractions(-4, 4, max_denominator=5)
                      if field == QQ else st.integers(-9, 9))
    size = st.integers(0, 3)
    keys = ["x", "y", "z"][:draw(st.integers(1, 3))]
    shapes = {k: (draw(size), draw(size)) for k in keys}
    equations = []
    for _ in range(draw(st.integers(0, 3))):
        # mostly a block's own rows and columns, so identity sides fit
        out_r = draw(st.one_of(st.sampled_from([r for r, _ in
                                                shapes.values()]), size))
        out_c = draw(st.one_of(st.sampled_from([c for _, c in
                                                shapes.values()]), size))
        terms = []
        for t in range(draw(st.integers(0, 3))):
            k = draw(st.sampled_from(keys))
            r, c = shapes[k]
            at = f"{len(equations)}.{t}"
            left = (f"L{at}",) if out_r != r or draw(st.booleans()) else None
            right = (f"R{at}",) if out_c != c or draw(st.booleans()) \
                or left is None else None
            terms.append((field.coerce(draw(entry)), k, left, right))
        equations.append(((out_r, out_c), terms))

    def point():
        factors = []
        for (out_r, out_c), terms in equations:
            for _, k, left, right in terms:
                r, c = shapes[k]
                for side, (nrows, ncols) in ((left, (out_r, r)),
                                             (right, (c, out_c))):
                    if side is not None:
                        factors.append(Matrix(field, nrows, ncols, [
                            [draw(entry) for _ in range(ncols)]
                            for _ in range(nrows)]))
        return factors
    return field, shapes, equations, [point() for _ in
                                      range(draw(st.integers(1, 3)))]


class TestSandwichSystem:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(sandwich_cases())
    def test_plan_matches_the_per_call_builder(self, case):
        field, shapes, equations, points = case
        layout, _ = _laid_out(equations, points[0])
        plan = SandwichPlan(field, shapes, equations, layout)
        for factors in points:
            _, point = _laid_out(equations, factors)
            kernel = plan.kernel(point)
            expected = sandwich_system_oracle(
                field, shapes,
                _oracle_equations(field, shapes, equations, factors))
            fresh = SandwichPlan(field, shapes, equations,
                                 layout).kernel(point)
            assert (plan.nrows, plan.ncols) == expected.shape
            assert typed(kernel) == typed(expected.kernel_basis()) \
                == typed(fresh)
            assert len(kernel) == plan.nullity(point) \
                == plan.ncols - expected.rank()

    @pytest.mark.parametrize("field", [F5, QQ])
    def test_system_applies_the_sum_of_products(self, field):
        rng = random.Random(7)
        shapes = {"x": (2, 3), "y": (3, 3)}
        c1, c2 = field.coerce(2), field.coerce(-3)
        equations = [((4, 2), [
            (c1, "x", ("l1",), ("r1",)), (c2, "y", ("l2",), ("r2",)),
            (c1, "y", ("l2",), ("r2",))])]
        for _ in range(10):
            l1, r1 = random_matrix(field, 4, 2, rng), \
                random_matrix(field, 3, 2, rng)
            l2, r2 = random_matrix(field, 4, 3, rng), \
                random_matrix(field, 3, 2, rng)
            expected = residual_kernel(field, shapes, lambda blocks: [
                x for row in ((l1 @ blocks["x"] @ r1).scale(c1)
                              + (l2 @ blocks["y"] @ r2).scale(c2)
                              + (l2 @ blocks["y"] @ r2).scale(c1)).rows
                for x in row])
            layout, point = _laid_out(equations, [l1, r1, l2, r2, l2, r2])
            plan = SandwichPlan(field, shapes, equations, layout)
            assert (plan.nrows, plan.ncols) == (8, 15)
            assert typed(plan.kernel(point)) == typed(expected)

    def test_integer_q_assembly(self):
        # one equation mixes a product side of three matrices, a one-matrix
        # side and a two-sided term, so the terms read 3, 1 and 2
        # matrices; the coefficients are not integral, and the two halves
        # of the point have coprime denominators
        shapes = {"x": (2, 2), "y": (3, 1)}
        coeffs = [Fraction(3, 2), Fraction(-1, 3), Fraction(2)]
        rng = random.Random(3)

        def matrix(nrows, ncols, dens):
            return Matrix(QQ, nrows, ncols, [
                [Fraction(rng.randint(-4, 4), rng.choice(dens))
                 for _ in range(ncols)] for _ in range(nrows)])

        mats = {"a": matrix(2, 3, (1, 2, 3)), "b": matrix(3, 2, (1, 2, 3)),
                "e": matrix(2, 2, (1, 2, 3)), "c": matrix(2, 2, (1, 5, 7)),
                "d": matrix(1, 2, (1, 5, 7))}
        layout, point = {}, []
        for label, m in mats.items():
            layout[label] = (len(point), m.nrows, m.ncols)
            point.extend(x for row in m.rows for x in row)
        plan = SandwichPlan(QQ, shapes, [((2, 2), [
            (coeffs[0], "x", ("a", "b", "e"), None),
            (coeffs[1], "x", None, ("c",)),
            (coeffs[2], "y", ("a",), ("d",))])], layout)
        i2 = Matrix.identity(QQ, 2)
        a, b, e, c, d = mats.values()
        expected = sandwich_system_oracle(QQ, shapes, [[
            (coeffs[0], "x", a @ b @ e, i2), (coeffs[1], "x", i2, c),
            (coeffs[2], "y", a, d)]])
        kernel = plan.kernel(point)
        assert kernel and typed(kernel) == typed(expected.kernel_basis()) \
            == typed(residual_kernel(QQ, shapes, lambda blocks: [
                x for row in ((a @ b @ e @ blocks["x"]).scale(coeffs[0])
                              + (blocks["x"] @ c).scale(coeffs[1])
                              + (a @ blocks["y"] @ d).scale(coeffs[2])).rows
                for x in row]))

        # the compiled rows take the point as ints over one denominator
        # and return ints: the true rows times 6 d^3, 6 the coefficients'
        # common denominator and 3 the most matrices a term reads
        half = layout["c"][0]
        dens = [math.lcm(*[x.denominator for x in part])
                for part in (point[:half], point[half:])]
        assert min(dens) > 1 == math.gcd(*dens)
        den = math.prod(dens)
        rows = plan._rows([int(x * den) for x in point], den)
        assert {type(x) for row in rows for x in row} == {int}
        assert rows == [[6 * den ** 3 * x for x in row]
                        for row in expected.rows]

    def test_split_blocks_inverts_flattening(self):
        shapes = {"a": (2, 1), "b": (0, 3), "c": (1, 2)}
        blocks = split_blocks(F5, shapes, [1, 2, 3, 4])
        assert [blocks[k].shape for k in shapes] == list(shapes.values())
        assert blocks["a"].rows == ((1,), (2,))
        assert blocks["c"].rows == ((3, 4),)

    def test_no_equations_leaves_every_entry_free(self):
        plan = SandwichPlan(F2, {"x": (2, 2)}, [((2, 2), [])], {})
        assert (plan.nrows, plan.ncols) == (0, 4)
        assert len(plan.kernel(())) == 4

    def test_mismatched_term_is_rejected(self):
        with pytest.raises(ValueError, match="identity side"):
            SandwichPlan(F2, {"x": (2, 3)},
                         [((2, 2), [(1, "x", ("a",), None)])],
                         {"a": (0, 2, 2)})
        with pytest.raises(ValueError, match="no side"):
            SandwichPlan(F2, {"x": (2, 3)}, [((2, 3), [(1, "x", None, None)])],
                         {})


class TestSpan:
    def test_order_matches_itertools_product(self):
        kernel = [(1, 0, 2, 1), (0, 1, 1, 2), (2, 2, 0, 1)]
        got = list(_span(F3, kernel, 4))
        expected = []
        for coeffs in itertools.product(range(3), repeat=len(kernel)):
            expected.append(tuple(sum(c * v[i] for c, v in zip(coeffs, kernel))
                                  % 3 for i in range(4)))
        assert got == expected

    def test_empty_kernel_gives_the_zero_vector(self):
        assert list(_span(F5, [], 3)) == [(0, 0, 0)]

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    @pytest.mark.parametrize("k", range(4))
    def test_start_plus_combinations_in_product_order(self, p, k):
        rng = random.Random(10 * p + k)
        kernel = [[rng.randrange(p) for _ in range(4)] for _ in range(k)]
        start = [rng.randrange(p) for _ in range(4)]
        expected = [tuple((start[i] + sum(c * v[i]
                                          for c, v in zip(coeffs, kernel)))
                          % p for i in range(4))
                    for coeffs in itertools.product(range(p), repeat=k)]
        assert list(_span(GF(p), kernel, 4, list(start))) == expected

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    @pytest.mark.parametrize("k", range(4))
    def test_size_zero(self, p, k):
        assert list(_span(GF(p), [[]] * k, 0)) == [()] * p ** k
        assert list(_span(GF(p), [[]] * k, 0, [])) == [()] * p ** k

    # p up to 101 and k <= 4, spans of at most 20000 points, and two
    # where the table bound lowers t: (31, 3, 9) from 2 to 1 and
    # (101, 2, 16) from 1 to 0
    GRID = [(p, k, size) for p in (2, 3, 5, 7, 11, 13, 31, 37, 101)
            for k in range(5) if p ** k <= 20000
            for size in (0, 1, 4, 9)] + [(31, 3, 9), (101, 2, 16)]

    @staticmethod
    def _kernel(p, k, size, rng):
        # coordinate 0 is moved by no vector, and about a third of the
        # other entries are zero
        return [[rng.randrange(p) if i and rng.random() < 0.7 else 0
                 for i in range(size)] for _ in range(k)]

    @pytest.mark.parametrize("with_start", [False, True])
    @pytest.mark.parametrize("p,k,size", GRID)
    def test_matches_brute_force_sums(self, p, k, size, with_start):
        rng = random.Random(1000 * p + 10 * k + size)
        kernel = self._kernel(p, k, size, rng)
        start = [rng.randrange(p) for _ in range(size)] if with_start else None
        base = start or [0] * size
        expected = [tuple((base[i] + sum(map(operator.mul, coeffs, column)))
                          % p for i, column in enumerate(zip(*kernel)))
                    if k else tuple(base)
                    for coeffs in itertools.product(range(p), repeat=k)]
        assert list(_span(GF(p), kernel, size, start and list(start))) \
            == expected

    def test_grid_reaches_table_and_single_point_walks(self):
        inner = {case: _inner_count(*case) for case in self.GRID}
        # table blocks: ceil(k/2) at small and large p, and lowered by the
        # bound on the tables' entries
        assert (inner[3, 4, 9], inner[13, 3, 1], inner[37, 2, 9],
                inner[101, 2, 9], inner[31, 3, 9]) == (2, 2, 1, 1, 1)
        # a point at a time: under 64 points, no coordinates, k = 1, and
        # where even t = 1 would pass the bound
        assert not (inner[2, 4, 9] or inner[7, 4, 0] or inner[101, 1, 9]
                    or inner[101, 2, 16])

    def test_a_large_span_streams(self):
        # the first 1000 of 2^40 points, read without building the walk
        units = [[int(i == j) for i in range(40)] for j in range(40)]
        tracemalloc.start()
        try:
            first = list(itertools.islice(_span(F2, units, 40), 1000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 ** 6
        assert first == [tuple(int(bit) for bit in format(i, "040b"))
                         for i in range(1000)]


class TestPinnedBases:
    @pytest.mark.parametrize("index", range(len(PINNED["bases"])))
    def test_bases_bit_identical(self, index):
        case = PINNED["bases"][index]
        pres = FAMILIES[case["family"]]
        first = rep_from_json(pres, case["first"])
        second = rep_from_json(pres, case["second"])
        assert [morphism_to_json(m) for m in hom_basis(first, second)] \
            == case["hom_basis"]
        assert [blocks_to_json(first.field, fam)
                for fam in cocycle_space_basis(first, second)] \
            == case["cocycle_space_basis"]

    def test_cases_cover_every_family_and_field(self):
        seen = {(c["family"], c["first"]["field"]["type"],
                 c["first"]["field"].get("p")) for c in PINNED["bases"]}
        assert seen == {("Lambda(4)", "Fp", 5), ("Lambda(4)", "Q", None),
                        ("A(1,3,1)", "Fp", 3), ("B(1,3)", "Fp", 3),
                        ("A'comm(2)", "Fp", 3)}


def _conjugated_jordan(sizes, rng) -> Representation:
    n = sum(sizes)
    rows = [[QQ.zero] * n for _ in range(n)]
    start = 0
    for size in sizes:
        for i in range(start, start + size - 1):
            rows[i][i + 1] = QQ.one
        start += size
    g = random_invertible(QQ, n, rng)
    return Representation(family_lambda(4), QQ, {0: n},
                          {"e": g @ Matrix(QQ, n, n, rows) @ g.inverse()})


def rational_answers(seed=8) -> dict:
    """Hom and cocycle bases of a seeded Lambda(4) pair over Q, the sub of
    Jordan type (3, 2) and the quotient of type (4, 1, 1), both conjugated;
    and the split of a conjugated extension of the quotient by the sub."""
    rng = random.Random(seed)
    sub, quo = _conjugated_jordan((3, 2), rng), _conjugated_jordan((4, 1, 1),
                                                                   rng)
    cocycles = cocycle_space_basis(quo, sub)
    blocks = {"e": Matrix.zeros(QQ, 5, 6)}
    for fam in cocycles:
        blocks["e"] += fam["e"].scale(rng.randint(-2, 2))
    middle, _, _ = build_extension(quo, sub, blocks)
    g = random_invertible(QQ, 11, rng)
    moved = Representation(middle.pres, QQ, middle.dims,
                           {"e": g @ middle.mats["e"] @ g.inverse()})
    embedding = Matrix(QQ, 11, 5, [row[:5] for row in g.rows])
    base_change, normal_blocks, quotient = splitting_from_mono(
        Morphism(sub, moved, {0: embedding}))
    return {
        "sub": rep_to_json(sub), "quo": rep_to_json(quo),
        "hom_basis": [morphism_to_json(m) for m in hom_basis(sub, quo)],
        "cocycle_space_basis": [blocks_to_json(QQ, fam) for fam in cocycles],
        "split": {"base_change": matrix_to_json(base_change[0]),
                  "blocks": blocks_to_json(QQ, normal_blocks),
                  "quotient": rep_to_json(quotient)}}


class TestPinnedRational:
    """The Q answers end to end, as computed when elimination and products
    over Q still ran on Fractions: integer-row kernels must reproduce
    them entry for entry."""

    def test_answers_bit_identical(self):
        pinned = json.loads((DATA / "pinned_rational.json").read_text())
        assert rational_answers() == pinned
        assert len(pinned["hom_basis"]) == 9


def _flat(mats):
    return [x for m in mats for row in m.rows for x in row]


class TestWalkOrder:
    def test_hom_walk_order(self):
        keys = [_flat(t.source.key()[1]) + _flat(t.target.key()[1])
                + _flat(t.morphism.key())
                for t in iter_hom_points(family_lambda(2), F3, {0: 1},
                                         {0: 2})]
        assert keys == PINNED["walks"]["hom"]

    def test_ext_walk_order(self):
        keys = [_flat(t.quo.key()[1]) + _flat(t.sub.key()[1])
                + _flat([t.blocks["e"]])
                for t in iter_ext_points(family_lambda(2), F3, {0: 2},
                                         {0: 1})]
        assert keys == PINNED["walks"]["ext"]


class TestCocycleOracle:
    """Over F_2 the cocycle space has 2^dim elements; count them by testing
    every block family with the matrix-product reference, which reads no
    ext_quiver."""

    @pytest.mark.parametrize("name", ["A(1,3,1)", "B(1,3)", "A'comm(2)"])
    def test_brute_force_count(self, name):
        pres = FAMILIES[name]
        rng = random.Random(name)
        checked, constrained = 0, 0
        while checked < 6:
            quo = random_two_vertex_rep(pres, F2, rng.randint(0, 2),
                                        rng.randint(0, 2), rng)
            sub = random_two_vertex_rep(pres, F2, rng.randint(0, 2),
                                        rng.randint(0, 2), rng)
            shapes = block_shapes(pres, sub.dims, quo.dims)
            total = sum(r * c for r, c in shapes.values())
            if not 3 <= total <= 10:
                continue
            checked += 1
            count = 0
            for values in itertools.product(range(2), repeat=total):
                blocks, pos = {}, 0
                for a, (r, c) in shapes.items():
                    blocks[a] = Matrix(F2, r, c, [
                        values[pos + i * c:pos + (i + 1) * c]
                        for i in range(r)])
                    pos += r * c
                count += is_cocycle_reference(quo, sub, blocks)
            assert count == 2 ** len(cocycle_space_basis(quo, sub))
            constrained += count < 2 ** total
        assert constrained > 0


def test_package_imports_only_the_standard_library():
    src = Path(__file__).resolve().parent.parent / "src" / "qvl"
    files = sorted(src.glob("*.py"))
    assert files
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, \
                    f"{path.name} imports {name}"
