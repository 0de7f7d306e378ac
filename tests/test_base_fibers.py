"""Presentations whose relations tie non-loop arrows to each other.

Their counts and walks go over a tower whose layer 0 holds loops plus some
non-loop arrows; every result here is checked against the ambient odometer or a closed form
that shares no code with qvl."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from qvl.counting import (BudgetExceededError, _Meter, _assignments,
                          _fibers, _layers, _loop_points, _points_over,
                          _walk_fiber, count_ext_points, count_hom_points,
                          count_mono_points, count_rep_points,
                          iter_ext_points, iter_hom_points, iter_rep_points,
                          rep_ambient_dim)
from helpers import (cocycle_value, intertwines_reference,
                     iter_rep_points_odometer, residual_kernel, typed)
from qvl.dsl import parse_quiver_spec
from qvl.extensions import block_shapes, cocycle_kernel, cocycle_space_basis
from qvl.families import (family_a, family_a_prime, family_a_prime_commuting,
                          family_b, family_lambda)
from qvl.linalg import GF, QQ, Matrix, SandwichPlan, _path_product
from qvl.quiver import BoundQuiver, Quiver, Relation, ext_quiver, hom_quiver
from qvl.reps import (HomTriple, Morphism, Representation, _pair_walk,
                      flat_layout, hom_basis, hom_kernel, is_monomorphism,
                      linearized_equations)
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

# two relation groups that read no arrow in common
TWO_SQUARES = """quiver Squares {
  vertex 0; vertex 1; vertex 2; vertex 3;
  arrow a: 0 -> 1; arrow b: 1 -> 3; arrow c: 0 -> 2; arrow d: 2 -> 3;
  arrow x: 0 -> 1; arrow y: 1 -> 3; arrow z: 0 -> 2; arrow w: 2 -> 3;
  rel b*a - d*c; rel y*x - w*z;
}"""

# zero relations a4*a3, a3*a2 and a square a4*a1 - a0*a2 tied to them
TWO_ZEROS_AND_SQUARE = """quiver ZerosSquare {
  vertex 0; vertex 1; vertex 2; vertex 3;
  arrow a0: 1 -> 3; arrow a1: 0 -> 2; arrow a2: 0 -> 1; arrow a3: 1 -> 2;
  arrow a4: 2 -> 3;
  rel a4*a3; rel a3*a2; rel a4*a1 - a0*a2;
}"""

LOOPED_PAIRS = """quiver LoopedPairs {
  vertex 0; vertex 1; loop e0 at 0; loop e1 at 1;
  arrow a1: 1 -> 0; arrow a2: 1 -> 0; arrow a3: 1 -> 0; arrow a4: 1 -> 0;
  rel e0*a1 - a2*e1; rel e0*a3 - a4*e1; rel e0^2; rel e1^2;
}"""


def two_cycle() -> BoundQuiver:
    """Loop e0 at 0 and a 2-cycle 0 -> 1 -> 0 with b*a = e0^2 (the DSL
    needs a weakly triangular quiver, so it is built directly)."""
    q = Quiver([0, 1], [("e0", 0, 0), ("a", 0, 1), ("b", 1, 0)], name="C2")
    rel = Relation([(1, q.path(["b", "a"])), (-1, q.path(["e0", "e0"]))])
    return BoundQuiver(q, [rel], 4)


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
        for dim_tuple in dim_list:
            dims = _dims(pres, dim_tuple)
            assert _layers(pres, dims)[0]
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
        assert _layers(pres, dims)[0] == base

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
            assert t.morphism.field == field
            assert intertwines_reference(t.morphism)

    def test_pair_walks_build_each_point_once(self):
        # a run of triples over one pair of points shares its two objects
        triples = list(iter_hom_points(family_a(1, 3, 1), GF(3), {0: 1, 1: 1},
                                       {0: 1, 1: 2}))
        for t, u in zip(triples, triples[1:]):
            for x, y in ((t.source, u.source), (t.target, u.target)):
                assert (x is y) == (x.key() == y.key())
        assert len({id(t.target) for t in triples}) < len(triples)

    @pytest.mark.parametrize("spec,base,top,dim_tuple", [
        (TWO_SQUARES, ("a", "c", "x", "z"), ["b", "d", "y", "w"],
         (1, 1, 1, 1)),
        (LOOPED_PAIRS, (), ["a1", "a2", "a3", "a4"], (1, 1))],
        ids=["two-squares", "looped-pairs"])
    def test_independent_relations_share_one_layer(self, spec, base, top,
                                                   dim_tuple):
        # each group of arrows tied by relations grows its own candidates,
        # and the groups' best ones form one linear layer, not one each
        pres = parse_quiver_spec(spec)
        dims = _dims(pres, dim_tuple)
        layer0, _, _, layers = _layers(pres, dims)
        assert (layer0, [list(arrows) for arrows, _ in layers]) == (base, [top])
        field = GF(2)
        slow = {r.key() for r in iter_rep_points_odometer(pres, field, dims)}
        assert {r.key() for r in iter_rep_points(pres, field, dims)} == slow
        assert count_rep_points(pres, field, dims) == len(slow)

    @pytest.mark.parametrize("spec,kind,dim_pair,layer0,middle,top", [
        (PATH3_TWO, "hom", ((1, 3, 3, 1), (3, 1, 1, 3)),
         ("s_a", "s_c", "t_b"), ["s_b", "t_a", "t_c"],
         ["f0", "f1", "f2", "f3"]),
        (PATH3_TWO, "ext", ((1, 3, 3, 1), (3, 1, 1, 3)),
         ("q_a", "q_c", "u_b"), ["q_b", "u_a", "u_c"],
         ["c_a", "c_b", "c_c"]),
        (TWO_ZEROS_AND_SQUARE, "hom", ((0, 2, 0, 2), (1, 1, 2, 2)),
         ("s_a2", "s_a4", "t_a2", "t_a4"),
         ["s_a0", "s_a1", "s_a3", "t_a0", "t_a1", "t_a3"],
         ["f0", "f1", "f2", "f3"])], ids=["path3-hom", "path3-ext", "zeros"])
    def test_doubled_tower_joins_the_copies_towers(self, spec, kind, dim_pair,
                                                   layer0, middle, top):
        # below the crossing arrows each copy keeps the tower it has alone
        # (b*a, c*b walks {a, c} below {b} at (1,3,3,1) and {b} below
        # {a, c} at (3,1,1,3)), and no layer grown in one copy takes the
        # other's arrows, such as one that alone closes a monomial relation
        pres = parse_quiver_spec(spec)
        doubled, dims, crossing = _pair_walk(
            kind, pres, *(_dims(pres, d) for d in dim_pair))
        base, _, _, layers = _layers(doubled, dims, crossing)
        assert (base, [list(arrows) for arrows, _ in layers]) == (
            layer0, [middle, top])

    def test_doubled_copies_share_their_layers(self):
        # below the vertex maps, the copies' squares are one layer, and
        # layer 0 holds a and c of both copies
        doubled, dims, crossing = _pair_walk(
            "hom", parse_quiver_spec(SQUARE), {0: 1, 1: 1, 2: 1, 3: 1},
            {0: 1, 1: 1, 2: 1, 3: 1})
        layer0, _, _, layers = _layers(doubled, dims, crossing)
        assert layer0 == ("s_a", "s_c", "t_a", "t_c")
        assert [list(arrows) for arrows, _ in layers] == [
            ["s_b", "s_d", "t_b", "t_d"], list(crossing)]

    def test_base_follows_block_sizes(self):
        # b*a and c*b: {b} costs d1*d2 entries, {a, c} costs d0*d1 + d2*d3
        pres = parse_quiver_spec(PATH3_TWO)
        assert _layers(pres, _dims(pres, (1, 3, 3, 1)))[0] == ("a", "c")
        assert _layers(pres, _dims(pres, (3, 1, 1, 3)))[0] == ("b",)


NAMED = [family_lambda(1), family_lambda(3), family_a(1, 2, 1),
         family_a(2, 4, 2), family_a_prime(2, 2, 3), family_a_prime(0, 1, 2),
         family_a_prime_commuting(2), family_a_prime_commuting(3),
         family_b(1, 2), family_b(3, 4)]


@pytest.mark.parametrize("pres", NAMED, ids=[p.name for p in NAMED])
def test_named_families_keep_loops_only_base(pres):
    # one linear layer above the loops, holding every non-loop arrow, the
    # relation-free ones (A'(2,2,3)'s) too
    arrows = [a for a in pres.quiver.arrow_names()
              if not pres.quiver.is_loop(a)]
    for d in range(3):
        dims = {x: d + i for i, x in enumerate(pres.quiver.vertices)}
        base, _, _, layers = _layers(pres, dims)
        assert base == ()
        assert [list(arrows) for arrows, _ in layers] == (
            [arrows] if arrows else [])


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
    dims = _shrink(pres, _dims(pres, dim_tuple), q, 2048)
    base, _, _, layers = _layers(pres, dims)
    assume(base or len(layers) > 1)
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
    # the pair walks stream flat points of the doubled presentation; they
    # are the flat coordinates of the public iterators' points, in their
    # order: the first point, the second, then the crossing blocks
    text, dim_tuple = spec
    pres = parse_quiver_spec(text)
    field = GF(q)
    first = _shrink(pres, _dims(pres, dim_tuple), q, 16)
    second = _shrink(pres, _dims(pres, reversed(dim_tuple)), q, 16)
    vertices, arrows = pres.quiver.vertices, pres.quiver.arrow_names()

    def coordinates(mats, labels):
        return tuple(v for a in labels for row in mats[a].rows for v in row)

    for kind, points, labels, parts in (
            ("hom", iter_hom_points(pres, field, first, second), vertices,
             lambda t: (t.source.mats, t.target.mats, t.morphism.maps)),
            ("ext", iter_ext_points(pres, field, first, second), arrows,
             lambda t: (t.quo.mats, t.sub.mats, t.blocks))):
        doubled, dims, crossing = _pair_walk(kind, pres, first, second)
        assert list(crossing.values()) == list(labels)
        flat = list(_points_over(doubled, field, dims, _Meter(),
                                 tuple(crossing)))
        assert flat == [sum(map(coordinates, parts(t),
                                (arrows, arrows, labels)), ())
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
    loop_rels = _layers(pres, dims)[1]
    table = StratumTable(pres, field, dims, loop_rels)
    streamed = list(_loop_points(pres, field, dims, loop_rels, _Meter(),
                                 orbits=True, table=table))
    points = [point for point, _ in streamed]
    assert {table.weight(labels, q) for _, labels in streamed} <= {1}
    assert len(set(points)) == len(points)
    assert set(points) == set(_assignments(pres, field, dims, (),
                                           pres.quiver.loops(), loop_rels,
                                           _Meter()))
    weighted = list(_loop_points(pres, field, dims, loop_rels, _Meter(),
                                 orbits=False, table=table))
    assert sum(table.weight(labels, q) for _, labels in weighted) \
        == len(points)
    assert {point + table.point(labels)
            for point, labels in weighted} <= set(points)


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

    shapes, kernel = hom_kernel(x, y)
    hom = residual_kernel(field, shapes, lambda f: [
        v for a, s, t in pres.quiver.arrows
        for v in _entries(y.mats[a] @ f[s] - f[t] @ x.mats[a])])
    assert typed(kernel) == typed(hom), text

    shapes, kernel = cocycle_kernel(x, y)
    cocycles = residual_kernel(field, shapes, lambda blocks: [
        v for rel in pres.relations
        for v in _entries(cocycle_value(x, y, blocks, rel))])
    assert typed(kernel) == typed(cocycles), text

    # the cocycle layout, whose sides include products of two arrows, on
    # one flat point, the quotient's entries (labels ("q", a)) then the
    # sub's (("u", a)): the factors built from it are the matrix products,
    # and the plan's kernel is the cocycle space
    equations = [
        ((y.dims[rel.target], x.dims[rel.source]),
         [(field.coerce(c), a,
           tuple(("u", b) for b in path.arrows[:j]) or None,
           tuple(("q", b) for b in path.arrows[j + 1:]) or None)
          for c, path in rel.terms for j, a in enumerate(path.arrows)])
        for rel in pres.relations]
    sides = [side for _, terms in equations for _, _, left, right in terms
             for side in (left, right) if side is not None]
    reps = {"q": (x, 0), "u": (y, len(x_flat))}
    layout = {(side, a): (shift + at, r, c)
              for side, (rep, shift) in reps.items()
              for a, (at, r, c) in flat_layout(pres, rep.dims).items()}
    plan = SandwichPlan(field, block_shapes(pres, y.dims, x.dims), equations,
                        layout)
    factors = []
    for labels in sides:
        product = None
        for side, a in labels:
            m = reps[side][0].mats[a]
            product = m if product is None else product @ m
        factors.append(product)
    point = x_flat + y_flat
    memo = {}
    flat = [_path_product(field.product, point,
                          tuple([layout[label] for label in labels]), memo)
            for labels in sides]
    assert typed(flat) == typed(map(_entries, factors))
    assert typed(plan.kernel(point)) == typed(cocycles)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(presentations(), st.data())
def test_linearized_terms_keep_a_side(spec, data):
    # every relation path has length 2 or more, so each term linearized
    # from it keeps a factor on at least one side, as SandwichPlan requires:
    # in every layer of the tower and in the crossing layers of the Hom
    # and Ext quivers
    text, _ = spec
    pres = parse_quiver_spec(text)
    dims = {x: data.draw(st.sampled_from([2, 1, 0]))
            for x in pres.quiver.vertices}
    layers = [(arrows, rels, dims) for arrows, rels in _layers(pres, dims)[3]]
    n_arrows, n_rels = len(pres.quiver.arrows), len(pres.relations)
    for doubled in (hom_quiver(pres), ext_quiver(pres)):
        layers.append((doubled.quiver.arrow_names()[2 * n_arrows:],
                       doubled.relations[2 * n_rels:],
                       dict.fromkeys(doubled.quiver.vertices, 1)))
    for arrows, rels, at in layers:
        for _, terms in linearized_equations(QQ, rels, set(arrows), at):
            assert all(left or right for _, _, left, right in terms), text


@pytest.mark.parametrize("q", [2, 3])
def test_census_hom_kernels_gather_one_column_systems(q):
    # the census's layout: the source is zero at vertex 0, so f_1 = b is
    # the one unknown, f_0 has no entries and each equation has one
    # column: e1 gives b x_e1 = y_e1 b and each a_i gives y_ai b = 0.  The
    # loops vanish in dimension 1, so the kernel is spanned by b = 1 where
    # every a_i of the target is 0 and is zero elsewhere.
    pres, field = family_a_prime(4, 2, 2), GF(q)
    source_dims, target_dims = {0: 0, 1: 1}, {0: 1, 1: 1}
    sources = list(iter_rep_points(pres, field, source_dims))
    targets = list(iter_rep_points(pres, field, target_dims))
    assert (len(sources), len(targets)) == (1, q ** 4)
    free = 0
    for x, y in itertools.product(sources, targets):
        shapes, got = hom_kernel(x, y)
        assert shapes == {0: (1, 0), 1: (1, 1)}
        b_free = all(y.mats[f"a{i}"].is_zero() for i in range(1, 5))
        assert got == ([(1,)] if b_free else [])
        free += len(got)
    # the loops vanish in dimension 1; b is free only where every a_i does
    assert free == 1


def _concatenated(pres, field, dims):
    """The points of ``_points_over`` built the way the walk once built
    them: each point below the last layer followed by each vector of its
    kernel, put in the flat layout by one reorder per point; and the
    meter's steps."""
    meter = _Meter()
    walked, _, fibers = _fibers(pres, field, dims, meter, orbits=True)
    layout = flat_layout(pres, dims, walked)
    order = [i for a in pres.quiver.arrow_names()
             for start, r, c in (layout[a],)
             for i in range(start, start + r * c)]
    assert order != sorted(order)
    size = rep_ambient_dim(pres, dims)
    points = []
    for point, _, basis in fibers:
        for vec in _walk_fiber(field, size - len(point), basis, meter):
            full = point + tuple(vec)
            points.append(tuple(full[i] for i in order))
    return points, (meter.used, meter.planned)


@pytest.mark.parametrize("pres,dims", [
    (parse_quiver_spec(SANDWICH), {0: 1, 1: 2, 2: 1}),
    (parse_quiver_spec(SANDWICH), {0: 2, 1: 2, 2: 1}),
    # three layers: the loops, then s_a1..s_a3 and f1, then the rest
    (hom_quiver(family_a_prime(3, 2, 2)),
     {"s0": 0, "s1": 1, "t0": 1, "t1": 1}),
    (hom_quiver(family_a_prime(3, 2, 2)),
     {"s0": 1, "s1": 1, "t0": 1, "t1": 1})],
    ids=["sandwich-121", "sandwich-221", "census-dims", "square-dims"])
def test_lifted_points_equal_the_reordered_concatenation(pres, dims):
    meter = _Meter()
    lifted = list(_points_over(pres, GF(3), dims, meter))
    assert (lifted, (meter.used, meter.planned)) \
        == _concatenated(pres, GF(3), dims)
    assert lifted
