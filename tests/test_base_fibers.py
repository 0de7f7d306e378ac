"""Presentations whose relations tie non-loop arrows to each other.

Their counts and walks go over a base of loops plus some non-loop arrows;
every result here is checked against the ambient odometer or a closed form
that shares no code with qvl."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from qvl.counting import (BudgetExceededError, _Meter, _assignments,
                          _choose_base, _classify_relations, _fibers,
                          _iter_pair_fibers, _loop_points, _points_over,
                          _walk_fiber,
                          count_ext_points, count_hom_points,
                          count_mono_points, count_rep_points,
                          iter_ext_points, iter_hom_points, iter_rep_points,
                          iter_rep_points_odometer, rep_ambient_dim)
from helpers import residual_kernel, typed
from qvl.dsl import parse_quiver_spec
from qvl.extensions import (block_shapes, cocycle_fiber, cocycle_kernel,
                            cocycle_space_basis, cocycle_value)
from qvl.families import (family_a, family_a_prime, family_a_prime_commuting,
                          family_b, family_lambda, hom_quiver)
from qvl.linalg import GF, QQ, Matrix, SandwichPlan, _side_factor, split_blocks
from qvl.quiver import BoundQuiver, Quiver, Relation
from qvl.reps import (HomTriple, Morphism, Representation, flat_layout,
                      hom_basis, hom_fiber, hom_kernel, is_monomorphism)
from qvl.strata import StratumTable

PATH2 = """quiver P2 {
  vertex 0; vertex 1; vertex 2;
  arrow a: 0 -> 1; arrow b: 1 -> 2;
  rel b*a;
}"""

PATH3_LONG = """quiver P3 {
  vertex 0; vertex 1; vertex 2; vertex 3;
  arrow a: 0 -> 1; arrow b: 1 -> 2; arrow c: 2 -> 3;
  rel c*b*a;
}"""

PATH3_TWO = """quiver P3two {
  vertex 0; vertex 1; vertex 2; vertex 3;
  arrow a: 0 -> 1; arrow b: 1 -> 2; arrow c: 2 -> 3;
  rel b*a; rel c*b;
}"""

SQUARE = """quiver Square {
  vertex 0; vertex 1; vertex 2; vertex 3;
  arrow a: 0 -> 1; arrow b: 1 -> 3; arrow c: 0 -> 2; arrow d: 2 -> 3;
  rel b*a - d*c;
}"""

SANDWICH = """quiver Sandwich {
  vertex 0; vertex 1; vertex 2;
  arrow a: 0 -> 1; loop e at 1; arrow b: 1 -> 2;
  rel b*e*a; rel e^2;
}"""


def two_cycle() -> BoundQuiver:
    """Loop e0 at 0 and a 2-cycle 0 -> 1 -> 0 with b*a = e0^2 (the DSL
    needs a weakly triangular quiver, so it is built directly)."""
    q = Quiver([0, 1], [("e0", 0, 0), ("a", 0, 1), ("b", 1, 0)], name="C2")
    rel = Relation([(1, q.path(["b", "a"])), (-1, q.path(["e0", "e0"]))])
    return BoundQuiver(q, [rel], 4, check=False)


CASES = [
    (parse_quiver_spec(PATH2), ("a",),
     [(1, 1, 1), (2, 1, 2), (1, 2, 1), (2, 2, 2)]),
    (parse_quiver_spec(PATH3_LONG), ("a", "b"),
     [(1, 1, 1, 1), (2, 1, 1, 2), (1, 2, 2, 1), (1, 2, 1, 2)]),
    (parse_quiver_spec(PATH3_TWO), ("b",),
     [(1, 1, 1, 1), (2, 1, 1, 2), (1, 2, 1, 2), (1, 2, 2, 1)]),
    (parse_quiver_spec(SQUARE), ("a", "c"),
     [(1, 1, 1, 1), (1, 2, 1, 1), (1, 1, 2, 1), (2, 1, 1, 2)]),
    (parse_quiver_spec(SANDWICH), ("a",),
     [(1, 1, 1), (1, 2, 1), (2, 2, 1), (1, 2, 2)]),
    (two_cycle(), ("a", "b"), [(1, 1), (2, 1), (1, 2)]),
]
IDS = ["path2", "path3-cba", "path3-ba-cb", "square", "sandwich", "two-cycle"]


def _dims(pres, dim_tuple):
    return dict(zip(pres.quiver.vertices, dim_tuple))


def _small(pres, dims, q, limit=4096):
    return q ** rep_ambient_dim(pres, dims) <= limit


def _shrink(pres, dims, q, limit):
    """``dims`` lowered by one at every vertex until the ambient space has
    at most ``limit`` points."""
    while not _small(pres, dims, q, limit):
        dims = {x: max(d - 1, 0) for x, d in dims.items()}
    return dims


class TestAgainstOdometer:
    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("pres,base,dim_list", CASES, ids=IDS)
    def test_counts_and_points(self, pres, base, dim_list, q):
        field = GF(q)
        assert _classify_relations(pres) is None
        for dim_tuple in dim_list:
            dims = _dims(pres, dim_tuple)
            if not _small(pres, dims, q):
                continue
            slow = [r.key() for r in iter_rep_points_odometer(pres, field,
                                                              dims)]
            fast = [r.key() for r in iter_rep_points(pres, field, dims)]
            assert len(set(fast)) == len(fast), dim_tuple
            assert set(fast) == set(slow), dim_tuple
            assert count_rep_points(pres, field, dims) == len(slow)

    @pytest.mark.parametrize("pres,base,dim_list", CASES, ids=IDS)
    def test_base_choice(self, pres, base, dim_list):
        dims = _dims(pres, dim_list[0])
        assert _choose_base(pres, dims)[0] == base

    @pytest.mark.parametrize("pres,dims", [
        *((pres, _dims(pres, dim_list[1])) for pres, _, dim_list in CASES),
        (family_a_prime_commuting(2), {0: 1, 1: 2}),
        (family_a_prime(2, 2, 2), {1: 1})], ids=[*IDS, "A'comm(2)", "A'"])
    def test_walk_points_equal_validated_ones(self, pres, dims):
        # the walk builds its points without re-validation
        arrows = list(pres.quiver.arrow_names())
        points = list(iter_rep_points(pres, GF(2), dims))
        assert points
        for rep in points:
            built = Representation(pres, GF(2), dims, rep.mats)
            assert rep == built and rep.key() == built.key()
            assert rep.dims == built.dims
            assert list(rep.mats) == list(built.mats) == arrows

    @pytest.mark.parametrize("pres,source_dims,target_dims", [
        (parse_quiver_spec(SQUARE), {0: 1, 1: 1, 2: 0, 3: 1},
         {0: 1, 1: 1, 2: 1, 3: 1}),
        (parse_quiver_spec(SANDWICH), {0: 1, 1: 1, 2: 1}, {0: 1, 1: 2, 2: 1}),
        (family_a(1, 3, 1), {0: 1, 1: 1}, {0: 1, 1: 2})],
        ids=["square", "sandwich", "A(1,3,1)"])
    def test_walk_triples_equal_validated_ones(self, pres, source_dims,
                                               target_dims):
        # the walk builds its morphisms without re-validation
        field = GF(2)
        vertices = list(pres.quiver.vertices)
        triples = list(iter_hom_points(pres, field, source_dims, target_dims))
        assert len(triples) > len({t.target.key() for t in triples})
        for t in triples:
            src = Representation(pres, field, source_dims, t.source.mats)
            dst = Representation(pres, field, target_dims, t.target.mats)
            built = HomTriple(src, dst, Morphism(src, dst, t.morphism.maps))
            assert t == built and t.key() == built.key()
            assert t.morphism == built.morphism
            assert list(t.morphism.maps) == list(built.morphism.maps) \
                == vertices
            assert t.morphism.field == field and t.morphism.intertwines()

    def test_base_follows_block_sizes(self):
        # b*a and c*b: {b} costs d1*d2 entries, {a, c} costs d0*d1 + d2*d3
        pres = parse_quiver_spec(PATH3_TWO)
        assert _choose_base(pres, _dims(pres, (1, 3, 3, 1)))[0] == ("a", "c")
        assert _choose_base(pres, _dims(pres, (3, 1, 1, 3)))[0] == ("b",)


NAMED = [family_lambda(1), family_lambda(3), family_a(1, 2, 1),
         family_a(2, 4, 2), family_a_prime(2, 2, 3), family_a_prime(0, 1, 2),
         family_a_prime_commuting(2), family_a_prime_commuting(3),
         family_b(1, 2), family_b(3, 4)]


@pytest.mark.parametrize("pres", NAMED, ids=[p.name for p in NAMED])
def test_named_families_keep_loops_only_base(pres):
    assert _classify_relations(pres) is not None
    for d in range(3):
        dims = {x: d + i for i, x in enumerate(pres.quiver.vertices)}
        assert _choose_base(pres, dims)[0] == ()


# --- closed form for the path with b*a = 0 ------------------------------


def _rank_count(m, n, r, q):
    """Number of m x n matrices of rank r over F_q."""
    out = 1
    for i in range(r):
        out *= (q ** m - q ** i) * (q ** n - q ** i)
    for i in range(r):
        out //= q ** r - q ** i
    return out


def _path_zero_count(d0, d1, d2, q):
    """#{(A, B) : B A = 0}: A of rank r leaves B free on a complement of
    its image, q^(d2 (d1 - r)) choices."""
    return sum(_rank_count(d1, d0, r, q) * q ** (d2 * (d1 - r))
               for r in range(min(d0, d1) + 1))


@pytest.mark.parametrize("dims,q", [
    ((1, 1, 1), 2), ((2, 1, 3), 2), ((1, 3, 2), 2), ((3, 3, 3), 2),
    ((2, 2, 2), 3), ((3, 2, 1), 3), ((1, 2, 1), 5), ((0, 2, 2), 3),
])
def test_path_zero_relation_closed_form(dims, q):
    pres = parse_quiver_spec(PATH2)
    assert count_rep_points(pres, GF(q), _dims(pres, dims)) \
        == _path_zero_count(*dims, q)


def test_closed_form_matches_hand_values():
    # 417 is the 2,2,2 count over F_3; one dimension gives 2q - 1
    assert _path_zero_count(2, 2, 2, 3) == 417
    assert all(_path_zero_count(1, 1, 1, q) == 2 * q - 1 for q in (2, 3, 5))


def test_budget_covers_exactly_the_base_walk():
    # base {a} has no loop or other base arrow at its ends: one step per
    # rank of a, 0 to 3, each counted through its linear fiber
    pres = parse_quiver_spec(PATH2)
    dims = _dims(pres, (3, 3, 3))
    assert count_rep_points(pres, GF(2), dims, budget=4) \
        == _path_zero_count(3, 3, 3, 2)
    with pytest.raises(BudgetExceededError,
                       match="stopped after 0 of 4 planned steps"):
        count_rep_points(pres, GF(2), dims, budget=3)


def test_budget_covers_the_product_walk_of_a_looped_base():
    # base {a} ends at the loop e: 2^2 assignments of a above each of the
    # two Jordan strata of e, planned per stratum
    pres = parse_quiver_spec(SANDWICH)
    dims = _dims(pres, (1, 2, 1))
    assert count_rep_points(pres, GF(2), dims, budget=8) == 52
    with pytest.raises(BudgetExceededError,
                       match="stopped after 4 of 8 planned steps"):
        count_rep_points(pres, GF(2), dims, budget=7)


def test_cli_count_on_dsl_file(tmp_path):
    from qvl.cli import EXIT_OK, run_command
    path = tmp_path / "path2.qvl"
    path.write_text(PATH2)
    code, report = run_command(["count", "--quiver", str(path),
                                "--dim", "2,2,2", "--q", "3"])
    assert code == EXIT_OK
    assert report["result"]["count"] == 417


# --- random small presentations ------------------------------------------


@st.composite
def presentations(draw):
    """A DSL text with at most 3 vertices and 4 arrows (each loop with a
    power relation), plus up to two relations of length 2 or 3 with
    coefficients +-1 over parallel paths, most of them through two or more
    non-loop arrows."""
    # the simplest draws give the arrows 0 -> 1, 1 -> 2, 0 -> 2, 0 -> 1,
    # so that most examples need base arrows
    n = 3
    pairs = [(0, 1), (1, 2), (0, 2)]
    arrows, looped = [], set()
    for i in range(draw(st.integers(2, 4))):
        if draw(st.integers(0, 4)) == 4:
            s = t = draw(st.integers(0, n - 1))
            if s in looped:
                continue
            looped.add(s)
        else:
            s, t = pairs[(i + draw(st.integers(0, len(pairs) - 1)))
                         % len(pairs)]
        arrows.append((f"x{i}", s, t))
    lines = [f"vertex {v};" for v in range(n)]
    for name, s, t in arrows:
        lines.append(f"loop {name} at {s};" if s == t
                     else f"arrow {name}: {s} -> {t};")
        if s == t:
            lines.append(f"rel {name}^{draw(st.integers(2, 3))};")
    paths = [seq for k in (2, 3) for seq in itertools.product(arrows, repeat=k)
             if all(seq[i][2] == seq[i + 1][1] for i in range(k - 1))]
    coupling = [p for p in paths if sum(s != t for _, s, t in p) >= 2]
    for _ in range(draw(st.integers(1, 2))):
        pool = (coupling if coupling and draw(st.integers(0, 3)) < 3
                else paths)
        if not pool:
            break
        first = draw(st.sampled_from(pool))
        parallel = [p for p in paths if p != first
                    and (p[0][1], p[-1][2]) == (first[0][1], first[-1][2])]
        chosen = [first] + ([draw(st.sampled_from(parallel))]
                            if parallel and draw(st.booleans()) else [])
        terms = [("-" if draw(st.booleans()) else "+")
                 + "*".join(a for a, _, _ in reversed(p)) for p in chosen]
        lines.append("rel " + " ".join(terms).lstrip("+") + ";")
    dims = tuple(2 - draw(st.integers(0, 1)) for _ in range(n))
    return "quiver R {\n  " + "\n  ".join(lines) + "\n}", dims


@settings(max_examples=40, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(presentations(), st.sampled_from([2, 3]))
def test_random_presentations_agree_with_odometer(spec, q):
    # loops-only presentations are the named families' path, tested above
    text, dim_tuple = spec
    pres = parse_quiver_spec(text)
    assume(_classify_relations(pres) is None)
    dims = _shrink(pres, _dims(pres, dim_tuple), q, 2048)
    field = GF(q)
    slow = sum(1 for _ in iter_rep_points_odometer(pres, field, dims))
    assert count_rep_points(pres, field, dims) == slow, text
    # pair counts over the drawn dims and their reverse, each cut to at
    # most 32 ambient points
    first = _shrink(pres, dims, q, 32)
    second = _shrink(pres, _dims(pres, reversed(dim_tuple)), q, 32)
    firsts = list(iter_rep_points_odometer(pres, field, first))
    seconds = list(iter_rep_points_odometer(pres, field, second))
    pairs = list(itertools.product(firsts, seconds))
    assert count_hom_points(pres, field, first, second) \
        == sum(q ** len(hom_basis(x, y)) for x, y in pairs), text
    assert count_ext_points(pres, field, first, second) \
        == sum(q ** len(cocycle_space_basis(x, y)) for x, y in pairs), text
    assert count_mono_points(pres, field, first, second) \
        == sum(is_monomorphism(t.morphism)
               for t in iter_hom_points(pres, field, first, second)), text


@settings(max_examples=25, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(presentations(), st.sampled_from([2, 3]))
def test_flat_pair_streams_cut_into_the_public_points(spec, q):
    # the pair walk streams flat points and vectors; they are the flat
    # coordinates of the public iterators' points, in their order
    text, dim_tuple = spec
    pres = parse_quiver_spec(text)
    field = GF(q)
    first = _shrink(pres, _dims(pres, dim_tuple), q, 16)
    second = _shrink(pres, _dims(pres, reversed(dim_tuple)), q, 16)
    vertices, arrows = pres.quiver.vertices, pres.quiver.arrow_names()

    def coordinates(rep):
        return tuple(v for a in arrows for row in rep.mats[a].rows
                     for v in row)

    for (shapes, kernel), points, labels, ends in (
            (hom_fiber(pres, field, first, second),
             iter_hom_points(pres, field, first, second), vertices,
             lambda t: (t.source, t.target)),
            (cocycle_fiber(pres, field, first, second),
             iter_ext_points(pres, field, first, second), arrows,
             lambda t: (t.quo, t.sub))):
        cut = []
        for x, y, vec in _iter_pair_fibers(pres, field, first, second,
                                           shapes, kernel, None):
            assert len(vec) == sum(r * c for r, c in shapes.values())
            blocks = split_blocks(field, shapes, vec)
            cut.append((x, y, tuple(blocks[k] for k in labels)))
        assert cut == [(*map(coordinates, ends(t)), t.key()[2])
                       for t in points], text


@st.composite
def loop_loci(draw):
    """A presentation with loops, from ``presentations()``, a named family
    or ``CASES`` (the two-cycle's loop has no power relation, so only the
    filter finds its locus), and dims with at most 729 candidate loop
    points over F_3."""
    if draw(st.booleans()):
        text, dim_tuple = draw(presentations().filter(
            lambda spec: "loop" in spec[0]))
        pres = parse_quiver_spec(text)
        dims = _dims(pres, dim_tuple)
    else:
        pres = draw(st.sampled_from(NAMED + [pres for pres, _, _ in CASES]))
        dims = {x: draw(st.integers(0, 3)) for x in pres.quiver.vertices}
    quiver = pres.quiver
    while 3 ** sum(dims[quiver.source(a)] ** 2 for a in quiver.loops()) > 729:
        dims = {x: max(d - 1, 0) for x, d in dims.items()}
    return pres, dims


@settings(max_examples=60, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(loop_loci(), st.sampled_from([2, 3]))
def test_loop_points_equal_the_filtered_locus(case, q):
    # the filter scans all q^(loop coordinates) candidates: the oracle
    pres, dims = case
    field = GF(q)
    loop_rels = _choose_base(pres, dims)[1]
    table = StratumTable(pres, field, dims, loop_rels)
    streamed = list(_loop_points(pres, field, dims, loop_rels, _Meter(),
                                 orbits=True, table=table))
    points = [point for point, _ in streamed]
    assert {weight for _, weight in streamed} <= {1}
    assert len(set(points)) == len(points)
    assert set(points) == set(_assignments(pres, field, dims, (),
                                           pres.quiver.loops(), loop_rels,
                                           _Meter()))
    weighted = list(_loop_points(pres, field, dims, loop_rels, _Meter(),
                                 orbits=False, table=table))
    assert sum(weight for _, weight in weighted) == len(points)
    assert {point for point, _ in weighted} <= set(points)


# --- flat kernels against kernels built from matrix objects ---------------


def _entries(mat):
    return [x for row in mat.rows for x in row]


@settings(max_examples=40, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(presentations(), st.sampled_from([2, 3, 0]), st.data())
def test_flat_kernels_equal_object_built_kernels(spec, q, data):
    # any matrices will do: the systems are defined off the variety too
    text, _ = spec
    pres = parse_quiver_spec(text)
    field = GF(q) if q else QQ
    rng = data.draw(st.randoms(use_true_random=False))
    arrows = pres.quiver.arrow_names()

    def entry():
        return (rng.randrange(q) if q else
                Fraction(rng.randint(-3, 3), rng.randint(1, 3)))

    def point():
        dims = {x: data.draw(st.sampled_from([2, 1, 0]))
                for x in pres.quiver.vertices}
        layout = flat_layout(pres, dims)
        mats = {a: Matrix(field, r, c, [[entry() for _ in range(c)]
                                        for _ in range(r)])
                for a, (_, r, c) in layout.items()}
        rep = Representation(pres, field, dims, mats)
        return rep, tuple(x for a in arrows for x in _entries(rep.mats[a]))

    (x, x_flat), (y, y_flat) = point(), point()

    shapes, kernel = hom_fiber(pres, field, x.dims, y.dims)
    hom = residual_kernel(field, shapes, lambda f: [
        v for a, s, t in pres.quiver.arrows
        for v in _entries(y.mats[a] @ f[s] - f[t] @ x.mats[a])])
    assert typed(kernel(x_flat, y_flat)) == typed(hom_kernel(x, y)[1]) \
        == typed(hom), text

    shapes, kernel = cocycle_fiber(pres, field, x.dims, y.dims)
    cocycles = residual_kernel(field, shapes, lambda blocks: [
        v for rel in pres.relations
        for v in _entries(cocycle_value(x, y, blocks, rel))])
    assert typed(kernel(x_flat, y_flat)) \
        == typed(cocycle_kernel(x, y)[1]) == typed(cocycles), text

    # the cocycle layout, whose sides include products of two arrows: the
    # factors built from flat points are the matrix products, and the
    # plan's kernel is the cocycle space
    plan = SandwichPlan(field, block_shapes(pres, y.dims, x.dims), [
        ((y.dims[rel.target], x.dims[rel.source]),
         [(field.coerce(c), a, path.arrows[:j] or None,
           path.arrows[j + 1:] or None)
          for c, path in rel.terms for j, a in enumerate(path.arrows)])
        for rel in pres.relations])
    factors = []
    for labels, is_left in plan.sides:
        mats = (y if is_left else x).mats
        product = mats[labels[0]]
        for a in labels[1:]:
            product = product @ mats[a]
        factors.append(product)
    layouts = flat_layout(pres, y.dims), flat_layout(pres, x.dims)
    flat = [_side_factor(field.product, y_flat if is_left else x_flat,
                         [layouts[not is_left][a] for a in labels])
            for labels, is_left in plan.sides]
    assert typed(flat) == typed(map(_entries, factors))
    assert typed(plan.flat_kernel(*layouts)(y_flat, x_flat)) \
        == typed(cocycles)


@pytest.mark.parametrize("q", [2, 3])
def test_census_hom_kernels_gather_one_column_systems(q):
    # the census's layout: the source is zero at vertex 0, so f_1 = b is
    # the one unknown, f_0 has no entries and each equation has one
    # column: e1 gives b x_e1 = y_e1 b and each a_i gives y_ai b = 0.  The
    # loops vanish in dimension 1, so the kernel is spanned by b = 1 where
    # every a_i of the target is 0 and is zero elsewhere.
    pres, field = family_a_prime(4, 2, 2), GF(q)
    source_dims, target_dims = {0: 0, 1: 1}, {0: 1, 1: 1}
    shapes, kernel = hom_fiber(pres, field, source_dims, target_dims)
    assert shapes == {0: (1, 0), 1: (1, 1)}
    arrows = pres.quiver.arrow_names()
    sources = list(iter_rep_points(pres, field, source_dims))
    targets = list(iter_rep_points(pres, field, target_dims))
    assert (len(sources), len(targets)) == (1, q ** 4)
    free = 0
    for x, y in itertools.product(sources, targets):
        got = kernel(*(tuple(v for a in arrows for row in rep.mats[a].rows
                             for v in row) for rep in (x, y)))
        b_free = all(y.mats[f"a{i}"].is_zero() for i in range(1, 5))
        assert got == ([(1,)] if b_free else [])
        free += len(got)
    # the loops vanish in dimension 1; b is free only where every a_i does
    assert free == 1


def _concatenated(pres, field, dims, orbits, base):
    """The points of ``_points_over`` built the way the walk once built
    them: each base point followed by each vector of its fiber, put in the
    flat layout by one reorder per point; and the meter's steps."""
    meter = _Meter()
    walked, fibers = _fibers(pres, field, dims, meter, orbits, base)
    layout = flat_layout(pres, dims, walked)
    order = [i for a in pres.quiver.arrow_names()
             for start, r, c in (layout[a],)
             for i in range(start, start + r * c)]
    assert order != sorted(order)
    size = rep_ambient_dim(pres, dims)
    points = []
    for point, weight, basis in fibers:
        for vec in _walk_fiber(field, size - len(point), basis, meter):
            full = point + tuple(vec)
            points.append((tuple(full[i] for i in order), weight))
    return points, (meter.used, meter.planned)


@pytest.mark.parametrize("pres,dims,base", [
    (parse_quiver_spec(SANDWICH), {0: 1, 1: 2, 2: 1}, None),
    (parse_quiver_spec(SANDWICH), {0: 2, 1: 2, 2: 1}, None),
    (hom_quiver(family_a_prime(3, 2, 2)),
     {"s0": 0, "s1": 1, "t0": 1, "t1": 1}, ("f0", "f1")),
    (hom_quiver(family_a_prime(3, 2, 2)),
     {"s0": 1, "s1": 1, "t0": 1, "t1": 1}, ("f0", "f1"))],
    ids=["sandwich-121", "sandwich-221", "census-dims", "square-dims"])
@pytest.mark.parametrize("orbits", [True, False])
def test_lifted_points_equal_the_reordered_concatenation(pres, dims, base,
                                                         orbits):
    meter = _Meter()
    lifted = list(_points_over(pres, GF(3), dims, meter, orbits, base))
    assert (lifted, (meter.used, meter.planned)) \
        == _concatenated(pres, GF(3), dims, orbits, base)
    assert lifted
