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


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("pres", [
    family_lambda(3), family_a(1, 3, 1), family_a_prime(2, 2, 2),
    family_a_prime_commuting(2), family_b(1, 2),
], ids=lambda p: p.name)
def test_named_families_agree_with_dense_oracle(pres, field):
    check_against_oracle(pres, field)


@settings(max_examples=25, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(presentations(), st.sampled_from(FIELDS))
def test_random_presentations_agree_with_dense_oracle(spec, field):
    check_against_oracle(parse_quiver_spec(spec[0]), field)


@pytest.mark.parametrize("pres,expected", [
    (family_a(3, 5, 2), (1, 1)),
    (family_a(2, 4, 3), (1, 1)),
    (family_b(3, 4), (1, 1)),
    (family_a_prime(2, 4, 4), (0, 0)),
], ids=lambda v: getattr(v, "name", ""))
def test_ext2_on_presentations_left_out_of_the_benchmark(pres, expected):
    assert ext2_dimension(pres, pres.relations, 1, 0) == expected


class _CountedSubspace(Subspace):
    built = 0

    def __init__(self, *args, **kwargs):
        type(self).built += 1
        super().__init__(*args, **kwargs)


def _full_products(pres, relations, field):
    """``_products`` with every set spanned and compared with the ideal,
    as it was before the presentation's own relations skipped that."""
    ideal = pres.ideal_span(field)
    bound = pres.truncation_bound + 1
    basis = PathBasis(pres.quiver, bound)
    rows = [(padded, next(iter(terms)), basis.sparse(terms))
            for padded, terms in _ideal_rows(pres, relations, bound)]
    assert Subspace(field, ideal.ambient_dim,
                    (v for _, _, v in rows)) == ideal
    radical = Subspace(field, ideal.ambient_dim,
                       (v for padded, _, v in rows if padded))
    return ideal.dim - radical.dim == len(relations), rows


def _counted_products(pres, relations, field):
    """``_products``' result and the number of spans it builds, once
    ``quiver.Subspace`` is ``_CountedSubspace``."""
    _CountedSubspace.built = 0
    return _products(pres, relations, field), _CountedSubspace.built


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("pres", [
    family_lambda(3), family_a(1, 3, 1), family_a(1, 4, 2), family_b(1, 3),
    family_a_prime(1, 3, 3),
    parse_quiver_spec("quiver F { vertex 0; loop e at 0; rel e^3; "
                      "rel e^2 - e^3; }"),
], ids=lambda p: p.name)
def test_own_relations_skip_the_generation_span(pres, field, monkeypatch):
    """The presentation's own relations give the rows its ideal span was
    built from: ``_products`` returns what the full comparison returns
    and builds one span fewer.  The same set in another order is still
    spanned and compared."""
    rels = pres.relations
    turned = rels[1:] + rels[:1]
    expected = _full_products(pres, rels, field)
    expected_turned = _full_products(pres, turned, field)
    monkeypatch.setattr(quiver_module, "Subspace", _CountedSubspace)
    assert _counted_products(pres, rels, field) == (expected, 1)
    assert _counted_products(pres, list(rels), field) == (expected, 1)
    if len(rels) > 1:
        assert _counted_products(pres, turned, field) == (expected_turned, 2)


def test_a_non_generating_set_is_still_refused():
    pres = family_a(1, 3, 1)
    for rels in (pres.relations[1:], pres.relations[:-1],
                 pres.relations[1:] + pres.relations[1:2]):
        with pytest.raises(QuiverError, match="do not generate"):
            _products(pres, rels, QQ)
