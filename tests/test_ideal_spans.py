"""Ideal spans checked against a dense oracle that shares no code with
qvl's sparse products or ``Subspace``: it multiplies ``AlgebraElement``s,
writes the products as dense path-basis vectors and takes ranks with
``Matrix.rank``."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from test_base_fibers import presentations

import qvl.quiver as quiver_module
from qvl.dsl import parse_quiver_spec
from qvl.families import (family_a, family_a_prime, family_a_prime_commuting,
                          family_b, family_lambda)
from qvl.linalg import GF, Matrix, QQ, Subspace
from qvl.quiver import (AlgebraElement, PathBasis, QuiverError, Relation,
                        _ideal_rows, _products, ext2_dimension,
                        ideal_subspace, is_minimal_relation_set,
                        is_weakly_triangular, loop_power, monomial_relation)

FIELDS = [QQ, GF(2), GF(3)]


def dense_products(pres, relations, bound, padded_only=False):
    """Every nonzero product p*rel*q in kQ/J^bound, p and q paths."""
    quiver = pres.quiver
    paths = quiver.paths_up_to(bound - 1)
    out = []
    for rel in relations:
        elem = AlgebraElement.from_relation(quiver, bound, rel)
        for left in paths:
            for right in paths:
                if padded_only and left.is_trivial() and right.is_trivial():
                    continue
                if left.source != rel.target or right.target != rel.source:
                    continue
                prod = (AlgebraElement.from_path(quiver, bound, left) * elem
                        * AlgebraElement.from_path(quiver, bound, right))
                if not prod.is_zero():
                    out.append(prod)
    return out


def dense_rank(field, basis, elems, columns=None):
    cols = columns if columns is not None else range(basis.dim)
    rows = [[v[i] for i in cols] for v in
            (basis.vector(e, field) for e in elems)]
    return Matrix(field, len(rows), len(cols), rows).rank()


def oracle_minimal(pres, relations, field):
    """None when the relations do not generate the presentation's ideal,
    else whether dropping any one of them shrinks it."""
    bound = pres.truncation_bound + 1
    basis = PathBasis(pres.quiver, bound)
    each = [dense_products(pres, [rel], bound) for rel in relations]
    ours = [e for prods in each for e in prods]
    theirs = dense_products(pres, pres.relations, bound)
    rank = dense_rank(field, basis, ours)
    if not rank == dense_rank(field, basis, theirs) \
            == dense_rank(field, basis, ours + theirs):
        return None
    return all(dense_rank(field, basis, [e for j, prods in enumerate(each)
                                         if j != i for e in prods]) < rank
               for i in range(len(relations)))


def oracle_ext2(pres, x, y, field):
    bound = pres.truncation_bound + 1
    basis = PathBasis(pres.quiver, bound)
    corner = [i for i, p in enumerate(basis.paths)
              if p.source == x and p.target == y]
    rels = pres.relations
    count = sum(1 for rel in rels if rel.source == x and rel.target == y)
    return count, (
        dense_rank(field, basis, dense_products(pres, rels, bound), corner)
        - dense_rank(field, basis,
                     dense_products(pres, rels, bound, padded_only=True),
                     corner))


def relation_sets(pres):
    """The presentation's relations, all but the first, and three sets
    that generate its ideal but are not minimal: the relations plus a copy
    of one, plus a padded product a*rel (redundant only modulo IJ + JI),
    and plus the next power of a loop."""
    quiver, rels = pres.quiver, pres.relations
    sets = [rels, rels[1:]]
    if rels:
        sets.append(rels + rels[:1])
    for rel in rels:
        arrows = [a for a, s, _ in quiver.arrows if s == rel.target]
        if arrows:
            sets.append(rels + (Relation(
                (c, quiver.compose(quiver.path([arrows[0]]), p))
                for c, p in rel.terms),))
            break
    for loop, k in filter(None, map(loop_power, rels)):
        sets.append(rels + (monomial_relation(quiver, loop, k + 1),))
        break
    return sets


def check_against_oracle(pres, field):
    for bound in (pres.truncation_bound, pres.truncation_bound + 1):
        assert ideal_subspace(pres, bound=bound, field=field).dim == \
            dense_rank(field, PathBasis(pres.quiver, bound),
                       dense_products(pres, pres.relations, bound))
    rels = pres.relations
    for given_rels in relation_sets(pres):
        expected = oracle_minimal(pres, given_rels, field)
        if expected is None:
            with pytest.raises(QuiverError):
                is_minimal_relation_set(given_rels, pres, field)
        else:
            assert is_minimal_relation_set(given_rels, pres, field) \
                == expected
    if not (is_weakly_triangular(pres.quiver)
            and oracle_minimal(pres, rels, field)):
        return
    for x in pres.quiver.vertices:
        for y in pres.quiver.vertices:
            if x != y:
                assert ext2_dimension(pres, rels, x, y, field) \
                    == oracle_ext2(pres, x, y, field)


NAMED = [family_lambda(3), family_a(1, 3, 1), family_a_prime(2, 2, 2),
         family_a_prime_commuting(2), family_b(1, 2)]
OWN = [family_lambda(3), family_a(1, 3, 1), family_a(1, 4, 2), family_b(1, 3),
       family_a_prime(1, 3, 3),
       parse_quiver_spec("quiver F { vertex 0; loop e at 0; rel e^3; "
                         "rel e^2 - e^3; }")]
LEFT_OUT = [(family_a(3, 5, 2), (1, 1)), (family_a(2, 4, 3), (1, 1)),
            (family_b(3, 4), (1, 1)), (family_a_prime(2, 4, 4), (0, 0))]


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("pres", NAMED, ids=lambda p: p.name)
def test_named_families_agree_with_dense_oracle(pres, field):
    check_against_oracle(pres, field)


@settings(max_examples=25, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(presentations(), st.sampled_from(FIELDS))
def test_random_presentations_agree_with_dense_oracle(spec, field):
    check_against_oracle(parse_quiver_spec(spec[0]), field)


@pytest.mark.parametrize("pres,expected", LEFT_OUT,
                         ids=lambda v: getattr(v, "name", ""))
def test_ext2_on_presentations_left_out_of_the_benchmark(pres, expected):
    assert ext2_dimension(pres, pres.relations, 1, 0) == expected


def check_kept_span(pres, field):
    """The checked entry of ``quiver._SPANS`` holds exactly the span that
    ``ideal_subspace`` builds in kQ/J^(N+1), and that one pass over the
    rows in their own order builds, with the path basis of kQ/J^(N+1)."""
    bound = pres.truncation_bound + 1
    span, pivots, basis = pres._checked(field)
    assert quiver_module._SPANS[pres, field] == (span, pivots, basis)
    assert basis.paths == PathBasis(pres.quiver, bound).paths
    assert span == ideal_subspace(pres, bound=bound, field=field)
    assert span == Subspace(field, basis.dim, (
        v for _, v in _ideal_rows(pres.relations, basis)))


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("pres", list(dict.fromkeys(
    NAMED + OWN + [pres for pres, _ in LEFT_OUT])), ids=lambda p: p.name)
def test_kept_span_is_the_ideal_subspace(pres, field):
    check_kept_span(pres, field)


@settings(max_examples=25, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(presentations(), st.sampled_from(FIELDS))
def test_kept_span_of_random_presentations(spec, field):
    check_kept_span(parse_quiver_spec(spec[0]), field)


class _CountedSubspace(Subspace):
    built = 0

    def __init__(self, *args, **kwargs):
        type(self).built += 1
        super().__init__(*args, **kwargs)


def _fresh_products(pres, relations, field):
    """What ``_products`` returns, computed afresh from the set's rows:
    whether dim I - dim(IJ + JI) is the set's size, and the set of paths
    at the pivot columns of I that are no pivot of IJ + JI.  A span's
    pivot columns do not depend on the order its vectors come in."""
    basis = PathBasis(pres.quiver, pres.truncation_bound + 1)
    rows = _ideal_rows(relations, basis)
    ideal = Subspace(field, basis.dim, (v for _, v in rows))
    assert ideal == pres.ideal_span(field)
    radical = Subspace(field, basis.dim, (v for padded, v in rows if padded))
    return ideal.dim - radical.dim == len(relations), {
        basis.paths[c] for c in set(ideal._rows) - set(radical._rows)}


def _counted_products(pres, relations, field):
    """``_products``' result, its paths as a set, and the number of spans
    it builds, once ``quiver.Subspace`` is ``_CountedSubspace``."""
    _CountedSubspace.built = 0
    minimal, paths = _products(pres, relations, field)
    assert len(set(paths)) == len(paths)
    return (minimal, set(paths)), _CountedSubspace.built


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("pres", OWN, ids=lambda p: p.name)
def test_own_relations_skip_the_generation_span(pres, field, monkeypatch):
    """Once the span is checked, the presentation's own relations read the
    relation pivots kept with it: ``_products`` builds no span for them
    and returns what spanning their rows afresh returns.  The same set in
    another order is spanned once and compared."""
    rels = pres.relations
    turned = rels[1:] + rels[:1]
    expected = _fresh_products(pres, rels, field)
    expected_turned = _fresh_products(pres, turned, field)
    monkeypatch.setattr(quiver_module, "Subspace", _CountedSubspace)
    assert _counted_products(pres, rels, field) == (expected, 0)
    assert _counted_products(pres, list(rels), field) == (expected, 0)
    if len(rels) > 1:
        assert _counted_products(pres, turned, field) == (expected_turned, 1)


def test_a_non_generating_set_is_still_refused():
    pres = family_a(1, 3, 1)
    for rels in (pres.relations[1:], pres.relations[:-1],
                 pres.relations[1:] + pres.relations[1:2]):
        with pytest.raises(QuiverError, match="do not generate"):
            _products(pres, rels, QQ)
