"""Shared generators for seeded random test data, the ambient odometer
that every walk is checked against, and matrix-product references for the
relation, intertwining and cocycle checks, which read neither
``hom_quiver`` nor ``ext_quiver``."""

from __future__ import annotations

import itertools

from qvl.counting import _Meter, rep_ambient_dim
from qvl.extensions import (ExtensionTriple, _check_block_shapes,
                            cocycle_space_basis, zero_blocks)
from qvl.families import family_lambda
from qvl.linalg import Matrix, random_invertible, split_blocks
from qvl.reps import (HomTriple, Morphism, Representation, flat_layout,
                      flat_point, relabel)
from qvl.strata import _jordan_point


def path_product(field, mats, arrows, size: int) -> Matrix:
    """mats[arrows[0]] @ .. @ mats[arrows[-1]], or the size x size identity
    when there are no arrows."""
    if not arrows:
        return Matrix.identity(field, size)
    result = mats[arrows[0]]
    for arrow in arrows[1:]:
        result = result @ mats[arrow]
    return result


def evaluate_relation(field, dims, mats, rel) -> Matrix:
    """The value of ``rel`` at the arrow matrices ``mats`` with these dims:
    the path product of each term, scaled by its coefficient, summed."""
    acc = None
    for coeff, path in rel.terms:
        term = path_product(field, mats, path.arrows,
                            dims.get(path.source, 0)).scale(coeff)
        acc = term if acc is None else acc + term
    return acc


def intertwines_reference(mor) -> bool:
    """Check target_a . f_(s a) == f_(t a) . source_a for every arrow."""
    for arrow, src, dst in mor.source.pres.quiver.arrows:
        lhs = mor.target.mats[arrow] @ mor.maps[src]
        rhs = mor.maps[dst] @ mor.source.mats[arrow]
        if lhs != rhs:
            return False
    return True


def cocycle_value(quo, sub, blocks, rel) -> Matrix:
    """Value of a relation on an arrow-block family.

    For a term c * a_1..a_l the contribution is the sum over j of

        c * sub_(a_1) .. sub_(a_(j-1)) block_(a_j) quo_(a_(j+1)) .. quo_(a_l),

    linear in the blocks and bilinear in (sub, quo).
    """
    _check_block_shapes(quo, sub, blocks)
    field = quo.field
    acc = Matrix.zeros(field, sub.dims[rel.target], quo.dims[rel.source])
    for coeff, path in rel.terms:
        c = field.coerce(coeff)
        arrows = path.arrows
        for j in range(len(arrows)):
            term = blocks[arrows[j]]
            for a in reversed(arrows[:j]):
                term = sub.mats[a] @ term
            for a in arrows[j + 1:]:
                term = term @ quo.mats[a]
            acc = acc + term.scale(c)
    return acc


def is_cocycle_reference(quo, sub, blocks) -> bool:
    """Whether every relation's ``cocycle_value`` is zero."""
    return all(cocycle_value(quo, sub, blocks, rel).is_zero()
               for rel in quo.pres.relations)


def iter_rep_points_odometer(pres, field, dims, meter=None):
    """Walk the full ambient coordinate space and keep the valid points:
    the oracle that shares no code with the tower walk."""
    meter = meter or _Meter()
    shapes = {a: (r, c) for a, (_, r, c) in flat_layout(pres, dims).items()}
    total = rep_ambient_dim(pres, dims)
    meter.precheck(field.p ** total)
    for values in itertools.product(field.elements(), repeat=total):
        meter.tick()
        mats = split_blocks(field, shapes, values)
        rep = Representation(pres, field, dims, mats)
        if rep.is_valid():
            yield rep


def random_nilpotent(field, n, order, rng) -> Matrix:
    """Seeded n-by-n matrix with M**order == 0: a Jordan matrix with
    random block sizes at most ``order``, conjugated by a random
    invertible matrix."""
    if n == 0:
        return Matrix(field, 0, 0)
    sizes = []
    while sum(sizes) < n:
        sizes.append(rng.randint(1, min(order, n - sum(sizes))))
    point = _jordan_point(tuple(sizes))
    jordan = Matrix(field, n, n, [point[i:i + n] for i in range(0, n * n, n)])
    g = random_invertible(field, n, rng)
    return g @ jordan @ g.inverse()


def random_lambda_rep(m, field, dim, rng) -> Representation:
    pres = family_lambda(m)
    if m == 1:
        return Representation(pres, field, {0: dim}, {})
    return Representation(pres, field, {0: dim},
                          {"e": random_nilpotent(field, dim, m, rng)})


def random_two_vertex_rep(pres, field, d0, d1, rng,
                          max_tries=400) -> Representation:
    """Seeded valid point for any of the two-vertex families: nilpotent
    loops first, then a uniformly random solution of the induced linear
    arrow constraints."""
    from qvl.counting import _layers
    from qvl.reps import _arrow_plan
    dims = {0: d0, 1: d1}
    quiver = pres.quiver
    base, loop_rels, _, layers = _layers(pres, dims)
    assert base == ()
    [(arrows, linear_rels)] = layers or [((), ())]
    orders = {}
    for rel in loop_rels:
        path = rel.paths()[0]
        orders[path.arrows[0]] = path.length
    for _ in range(max_tries):
        loop_mats = {}
        ok = True
        for a in quiver.loops():
            n = dims[quiver.source(a)]
            loop_mats[a] = random_nilpotent(field, n, orders.get(a, n + 1),
                                            rng)
        for rel in loop_rels:
            acc = None
            for coeff, path in rel.terms:
                term = Matrix.identity(field, dims[path.source])
                for arrow in reversed(path.arrows):
                    term = loop_mats[arrow] @ term
                term = term.scale(field.coerce(coeff))
                acc = term if acc is None else acc + term
            if acc is not None and not acc.is_zero():
                ok = False
        if not ok:
            continue
        plan = _arrow_plan(pres, field, dims, quiver.loops(), arrows,
                           linear_rels)
        values = [field.zero] * plan.ncols
        for vec in plan.kernel(flat_point(loop_mats, quiver.loops())):
            c = field.coerce(rng.randrange(field.p)) if hasattr(field, "p") \
                else field.coerce(rng.randint(-3, 3))
            if c != field.zero:
                values = [field.add(x, field.mul(c, v))
                          for x, v in zip(values, vec)]
        mats = dict(loop_mats)
        pos = 0
        for a, (r, c) in plan.shapes.items():
            k = r * c
            chunk = values[pos:pos + k]
            pos += k
            mats[a] = Matrix(field, r, c,
                             [chunk[i * c:(i + 1) * c] for i in range(r)])
        rep = Representation(pres, field, dims, mats)
        assert rep.is_valid()
        return rep
    raise AssertionError("could not sample a valid representation")


def random_cocycle(quo, sub, rng):
    """Random element of the cocycle space of the pair."""
    basis = cocycle_space_basis(quo, sub)
    field = quo.field
    blocks = zero_blocks(quo.pres, field, sub.dims, quo.dims)
    for fam in basis:
        if hasattr(field, "p"):
            c = field.coerce(rng.randrange(field.p))
        else:
            c = field.coerce(rng.randint(-3, 3))
        if c != field.zero:
            blocks = {a: blocks[a] + fam[a].scale(c) for a in blocks}
    return blocks


def random_gl(field, dims, rng):
    return {x: random_invertible(field, n, rng) for x, n in dims.items()}


def typed(vectors):
    """Each vector's entries with their types, so that 1 and Fraction(1)
    differ."""
    return [[(type(x), x) for x in v] for v in vectors]


def residual_kernel(field, shapes, residual):
    """Kernel basis of the linear map whose column k is ``residual`` of the
    k-th unit block family, computed with matrix objects."""
    ncols = sum(r * c for r, c in shapes.values())
    columns = []
    for k in range(ncols):
        unit = [field.zero] * ncols
        unit[k] = field.one
        columns.append(residual(split_blocks(field, shapes, unit)))
    nrows = len(residual(split_blocks(field, shapes, [field.zero] * ncols)))
    return Matrix(field, nrows, ncols,
                  [[col[i] for col in columns] for i in range(nrows)]
                  ).kernel_basis()


def inverse(vertices, arrows):
    """The inverse of a (vertex map, signed arrow map) pair of bijections."""
    return ({w: v for v, w in vertices.items()},
            {b: (sign, a) for a, (sign, b) in arrows.items()})


def copy_of(rep, pres, side):
    """The point of ``pres`` on the ``side`` copy of a point of
    hom_quiver(pres) or ext_quiver(pres)."""
    return relabel(rep, pres, {v: f"{side}{v}" for v in pres.quiver.vertices},
                   {a: (1, f"{side}_{a}") for a in pres.quiver.arrow_names()})


def hom_triple_of(rep, pres) -> HomTriple:
    """A point of hom_quiver(pres) split into (source, target, maps): the
    two copies and the crossing matrices f<v>, checked to intertwine by the
    matrix-product reference."""
    source, target = copy_of(rep, pres, "s"), copy_of(rep, pres, "t")
    morphism = Morphism(source, target, {
        v: rep.mats[f"f{v}"] for v in pres.quiver.vertices})
    assert intertwines_reference(morphism)
    return HomTriple(source, target, morphism)


def ext_triple_of(rep, pres) -> ExtensionTriple:
    """A point of ext_quiver(pres) split into (quo, sub, blocks): the two
    copies and the crossing matrices c_<a>, checked to be a cocycle by the
    matrix-product reference."""
    quo, sub = copy_of(rep, pres, "q"), copy_of(rep, pres, "u")
    blocks = {a: rep.mats[f"c_{a}"] for a in pres.quiver.arrow_names()}
    assert is_cocycle_reference(quo, sub, blocks)
    return ExtensionTriple(quo, sub, blocks, check=False)
