"""Rank strata of base arrows, checked against methods that share no code
with them: a brute-force rank census of all matrices, the ambient odometer,
and the point-by-point hom, mono and ext walks."""

import itertools
import math

import pytest

from helpers import iter_rep_points_odometer
from qvl.counting import (_layers, count_ext_points, count_hom_points,
                          count_mono_points, count_rep_points,
                          iter_ext_points, iter_hom_points, iter_mono_points,
                          rep_ambient_dim)
from qvl.dsl import parse_quiver_spec
from qvl.linalg import GF
from qvl.strata import StratumTable, rank_count

PATH = """quiver P2 {
  vertex 0; vertex 1; vertex 2;
  arrow a: 0 -> 1; arrow b: 1 -> 2;
  rel b*a;
}"""

ZIGZAG = """quiver Z {
  vertex 0; vertex 1; vertex 2; vertex 3;
  arrow a: 0 -> 1; arrow b: 1 -> 2; arrow c: 2 -> 3;
  rel b*a; rel c*b;
}"""

# a stratified loop away from the base arrow a
LOOP_AT_END = """quiver PE {
  vertex 0; vertex 1; vertex 2;
  arrow a: 0 -> 1; arrow b: 1 -> 2; loop e at 2;
  rel b*a; rel e^2;
}"""

# a loop relation of two terms: the loop locus is filtered, not stratified
FILTERED_LOOP_AT_END = """quiver PF {
  vertex 0; vertex 1; vertex 2;
  arrow a: 0 -> 1; arrow b: 1 -> 2; loop e at 2;
  rel b*a; rel e^2; rel e^2 + e^3;
}"""

SQUARE = """quiver Square {
  vertex 0; vertex 1; vertex 2; vertex 3;
  arrow a: 0 -> 1; arrow b: 1 -> 3; arrow c: 0 -> 2; arrow d: 2 -> 3;
  rel b*a - d*c;
}"""

# the base arrow a ends at the loop e
LOOP_AT_BASE = """quiver Sandwich {
  vertex 0; vertex 1; vertex 2;
  arrow a: 0 -> 1; loop e at 1; arrow b: 1 -> 2;
  rel b*e*a; rel e^2;
}"""

# (text, whether the base has rank strata)
CASES = {"path": (PATH, True), "zigzag": (ZIGZAG, True),
         "loop-at-end": (LOOP_AT_END, True),
         "filtered-loop-at-end": (FILTERED_LOOP_AT_END, True),
         "square": (SQUARE, False), "loop-at-base": (LOOP_AT_BASE, False)}


def test_rows_list_in_product_order():
    # one row per Jordan type of the loop e, then per rank of the base
    # arrow a, the rank varying fastest
    pres = parse_quiver_spec(LOOP_AT_END)
    dims = {0: 2, 1: 1, 2: 3}
    base, loop_rels, base_rels, _ = _layers(pres, dims)
    table = StratumTable(pres, GF(3), dims, loop_rels, base, base_rels)
    assert table.arrows == [(1, 2)]
    loops = [((2, 1), (0, 1, 0, 0, 0, 0, 0, 0, 0), 104),
             ((1, 1, 1), (0,) * 9, 1)]
    ranks = [(0, (0, 0), 1), (1, (1, 0), 8)]
    rows = [(labels, table.point(labels)) for labels in table.labels()]
    assert rows == [((lam, r), point + tail)
                    for (lam, point, _), (r, tail, _)
                    in itertools.product(loops, ranks)]
    assert [table.weight(labels, 3) for labels, _ in rows] == [
        w * v for (*_, w), (*_, v) in itertools.product(loops, ranks)]
    assert table.row_count() == 4


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_rank_weights_add_up_to_all_matrices(q):
    # the one base arrow of the path, t x s: its matrices of each rank make
    # up all q^(ts) of them, at every prime power q
    pres = parse_quiver_spec(PATH)
    for dims in itertools.product(range(4), repeat=3):
        dims = dict(enumerate(dims))
        base, loop_rels, base_rels, _ = _layers(pres, dims)
        table = StratumTable(pres, GF(2), dims, loop_rels, base, base_rels)
        [(t, s)] = table.arrows
        assert sum(table.weight(labels, q) for labels in table.labels()) \
            == q ** (t * s), dims


@pytest.mark.parametrize("name", list(CASES))
def test_rows_are_the_same_over_every_field(name):
    pres = parse_quiver_spec(CASES[name][0])
    dims = {x: 2 for x in pres.quiver.vertices}
    base, loop_rels, base_rels, _ = _layers(pres, dims)
    two, five = (StratumTable(pres, GF(p), dims, loop_rels, base, base_rels)
                 for p in (2, 5))
    assert list(two.labels()) == list(five.labels())
    assert [two.point(labels) for labels in two.labels()] \
        == [five.point(labels) for labels in five.labels()]


def _rank(rows, q):
    """Rank of a matrix over F_q by elimination on plain lists."""
    rows = [list(row) for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]),
                     None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, q)
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] * inv
                rows[i] = [(x - f * y) % q for x, y in zip(rows[i],
                                                            rows[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("q", [2, 3])
def test_rank_count_equals_a_census_of_all_matrices(q):
    for m, n in itertools.product(range(4), repeat=2):
        census = [0] * (min(m, n) + 1)
        for values in itertools.product(range(q), repeat=m * n):
            census[_rank([values[i * n:(i + 1) * n] for i in range(m)],
                         q)] += 1
        assert census == [rank_count(m, n, r, q)
                          for r in range(min(m, n) + 1)], (m, n)
        assert sum(census) == q ** (m * n)


@pytest.mark.parametrize("name", list(CASES))
def test_which_bases_have_rank_strata(name):
    text, ranked = CASES[name]
    pres = parse_quiver_spec(text)
    dims = {x: 2 for x in pres.quiver.vertices}
    base, loop_rels, base_rels, _ = _layers(pres, dims)
    assert base
    table = StratumTable(pres, GF(2), dims, loop_rels, base, base_rels)
    assert (table.arrows is not None) == ranked
    if ranked:    # each loop row, then ranks 0, 1, 2 of each 2 x 2 arrow
        loop_table = StratumTable(pres, GF(2), dims, loop_rels)
        loops = [loop_table.weight(labels, 2)
                 for labels in loop_table.labels()]
        weights = [table.weight(labels, 2) for labels in table.labels()]
        assert weights == [math.prod(ws) for ws in itertools.product(
            loops, *[[1, 9, 6]] * len(base))]
        assert table.row_count() == len(weights)


def _dim_tuples(pres, q, limit):
    """Every dimension vector with entries at most 2 whose ambient space
    has at most ``limit`` points."""
    vertices = pres.quiver.vertices
    for dims in itertools.product(range(3), repeat=len(vertices)):
        dims = dict(zip(vertices, dims))
        if q ** rep_ambient_dim(pres, dims) <= limit:
            yield dims


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("name", list(CASES))
def test_rep_counts_equal_the_odometer(name, q):
    pres = parse_quiver_spec(CASES[name][0])
    field = GF(q)
    checked = 0
    for dims in _dim_tuples(pres, q, 6561 if q == 2 else 729):
        assert count_rep_points(pres, field, dims) == sum(
            1 for _ in iter_rep_points_odometer(pres, field, dims)), dims
        checked += 1
    assert checked >= 8


PAIRS = [((1, 1, 1), (1, 1, 1)), ((1, 1, 0), (1, 2, 1)),
         ((0, 1, 1), (1, 1, 2)), ((1, 2, 1), (1, 1, 1)),
         ((2, 1, 0), (1, 1, 1))]


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("first,second", PAIRS)
def test_pair_counts_equal_the_walked_points(first, second, q):
    pres = parse_quiver_spec(PATH)
    field = GF(q)
    first, second = (dict(zip(pres.quiver.vertices, d))
                     for d in (first, second))
    for count, walk in ((count_hom_points, iter_hom_points),
                        (count_mono_points, iter_mono_points),
                        (count_ext_points, iter_ext_points)):
        assert count(pres, field, first, second) == sum(
            1 for _ in walk(pres, field, first, second)), walk.__name__
