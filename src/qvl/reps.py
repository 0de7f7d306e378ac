"""Representations of bound quivers and the morphisms between them.

A representation assigns a coordinate space k^(d_x) to each vertex and a
matrix to each arrow; it is a point of the representation variety when all
generating relations evaluate to zero.  Everything here is pure and
immutable: base change, Hom spaces, direct sums, and cokernels all return
fresh values.
"""

from __future__ import annotations

import functools
from math import lcm
from operator import mul
from typing import Mapping

from .linalg import (Field, Matrix, SandwichPlan, _cleared, _int_product,
                     _path_product, block2x2, hstack, split_blocks)
from .quiver import BoundQuiver, QuiverError, Vertex, ext_quiver, hom_quiver

DimVector = Mapping[Vertex, int]


def same_data(a, b) -> bool:
    """Whether two representations live over the same presentation and
    field; identical objects are not compared further."""
    return ((a.pres is b.pres or a.pres == b.pres)
            and (a.field is b.field or a.field == b.field))


def dims_add(a: DimVector, b: DimVector) -> dict:
    return {x: a.get(x, 0) + b.get(x, 0) for x in set(a) | set(b)}


def failed_relations(field: Field, dims: DimVector, layout: Mapping,
                     point, relations):
    """Each relation of ``relations`` that is nonzero at the flat point
    ``point`` with these dims, laid out by ``layout`` (``flat_layout``), in
    order: the one relation check of points.

    As in ``SandwichPlan``, paths are multiplied by ``_path_product`` on
    one memo per call, and over Q the point is first cleared to ints by
    ``_cleared``, d times the true one; a relation's terms, cleared by the
    lcm of their coefficients' denominators and each scaled by d^(D - k)
    for a path of length k, D the longest, then sum to the true value times
    one positive integer.  Over F_p each coefficient is ``field.coerce``d,
    so a denominator that vanishes in F_p raises ZeroDivisionError, also
    where a relation has no entries at these dims."""
    return _failing(field, dims, point, _segmented(layout, relations))


def _segmented(layout: Mapping, relations) -> list:
    """Each relation with the ``layout`` segments of its terms' paths, as
    ``_failing`` reads them: once per layout where it serves many points."""
    segment = layout.__getitem__
    return [(rel, [tuple(map(segment, p.arrows)) for _, p in rel.terms])
            for rel in relations]


def _failing(field: Field, dims: DimVector, point, checks):
    """``failed_relations`` on the ``checks`` of ``_segmented``."""
    if field.characteristic:
        product = field.product
    else:
        product = _int_product
        point, d = _cleared(point)
    memo = {}
    reduce = field.reduce
    for rel, paths in checks:
        if field.characteristic:
            coeffs = [field.coerce(c) for c, _ in rel.terms]
        else:
            den = lcm(*[c.denominator for c, _ in rel.terms])
            top = max(p.length for _, p in rel.terms)
            coeffs = [c.numerator * (den // c.denominator)
                      * d ** (top - p.length) for c, p in rel.terms]
        if not (dims.get(rel.target, 0) and dims.get(rel.source, 0)):
            continue
        values = [_path_product(product, point, segments, memo)
                  for segments in paths]
        if any(reduce(sum(map(mul, coeffs, entries)))
               for entries in zip(*values)):
            yield rel


def flat_layout(pres: BoundQuiver, dims: DimVector, arrows=None) -> dict:
    """(offset, rows, columns) of each arrow's matrix in a flat point with
    these dims: the entries of ``arrows`` (by default every arrow, in
    declaration order), one arrow after another, each row-major."""
    quiver = pres.quiver
    layout, pos = {}, 0
    for a in quiver.arrow_names() if arrows is None else arrows:
        r, c = dims.get(quiver.target(a), 0), dims.get(quiver.source(a), 0)
        layout[a] = (pos, r, c)
        pos += r * c
    return layout


def flat_point(mats: Mapping[str, Matrix], arrows) -> tuple:
    """The entries of the matrices of ``arrows``, in that order, each
    row-major: the flat point of ``flat_layout``."""
    return tuple([x for a in arrows for row in mats[a].rows for x in row])


def linearized_equations(field: Field, relations, unknowns, dims: DimVector
                         ) -> list[tuple]:
    """The relations linearized in the arrows of ``unknowns``, as
    ``SandwichPlan`` equations: one per relation, of shape dims at its
    target by dims at its source, with one term
    c * (a_1..a_(j-1)) X_(a_j) (a_(j+1)..a_l) per term c * a_1..a_l of the
    relation and position j with a_j unknown.  A layer of a walk takes its
    arrows as unknowns, one per term, as a Hom or cocycle system takes the
    crossing arrows of its doubled presentation (``_pair_kernel``)."""
    equations = []
    for rel in relations:
        terms = []
        for coeff, path in rel.terms:
            c = field.coerce(coeff)
            arrows = path.arrows
            terms.extend((c, a, arrows[:j] or None, arrows[j + 1:] or None)
                         for j, a in enumerate(arrows) if a in unknowns)
        equations.append(((dims.get(rel.target, 0), dims.get(rel.source, 0)),
                          terms))
    return equations


def _arrow_plan(pres: BoundQuiver, field, dims, walked, arrows, rels
                ) -> SandwichPlan:
    """The plan of ``rels`` linearized in ``arrows``, read at a flat point
    of the arrows ``walked``: the kernel of a layer above the points below
    it."""
    shapes = {a: (r, c) for a, (_, r, c)
              in flat_layout(pres, dims, arrows).items()}
    return SandwichPlan(field, shapes, linearized_equations(
        field, rels, shapes, dims), flat_layout(pres, dims, walked))


@functools.lru_cache(maxsize=64)
def _doubling(ext: bool, pres: BoundQuiver) -> BoundQuiver:
    """``ext_quiver(pres)`` or ``hom_quiver(pres)``, kept for the last 64
    presentation values, as a count, its report and each Hom or cocycle
    system would each build it."""
    return ext_quiver(pres) if ext else hom_quiver(pres)


def _pair_walk(kind: str, pres: BoundQuiver, first, second):
    """(doubled presentation, its dims, {crossing arrow: the vertex or
    arrow of ``pres`` it stands for}) of a pair kind, ``ext_quiver(pres)``
    for ext and ``hom_quiver(pres)`` else, ``first`` on its first copy."""
    quiver = pres.quiver
    doubled = _doubling(kind == "ext", pres)
    labels = quiver.arrow_names() if kind == "ext" else quiver.vertices
    dims = dict(zip(doubled.quiver.vertices,
                    [d.get(v, 0) for d in (first, second)
                     for v in quiver.vertices]))
    crossing = doubled.quiver.arrow_names()[2 * len(quiver.arrows):]
    return doubled, dims, dict(zip(crossing, labels))


class Representation:
    """Point of a representation space: one matrix per arrow.

    The matrix of an arrow a: x -> y has shape d_y x d_x.  Validity (all
    generating relations vanish) is a checked predicate, not an invariant.
    """

    def __init__(self, pres: BoundQuiver, field: Field, dims: DimVector,
                 mats: Mapping[str, Matrix]):
        self.pres = pres
        self.field = field
        self.dims = {x: int(dims.get(x, 0)) for x in pres.quiver.vertices}
        if any(v < 0 for v in self.dims.values()):
            raise ValueError("dimensions must be nonnegative")
        quiver = pres.quiver
        store = {}
        for arrow, src, dst in quiver.arrows:
            if arrow not in mats:
                raise ValueError(f"missing matrix for arrow {arrow!r}")
            m = mats[arrow]
            expected = (self.dims[dst], self.dims[src])
            if m.shape != expected:
                raise ValueError(
                    f"arrow {arrow!r}: matrix shape {m.shape} != {expected}")
            if m.field is not field and m.field != field:
                raise ValueError(f"arrow {arrow!r}: field mismatch")
            store[arrow] = m
        self.mats = store

    @classmethod
    def _trusted(cls, pres: BoundQuiver, field: Field, dims: dict,
                 mats: dict) -> "Representation":
        """A representation on ``dims``, the dimension of every vertex, and
        ``mats``, one matrix over ``field`` of the right shape per arrow in
        ``pres.quiver.arrows`` order, taken as they are."""
        rep = object.__new__(cls)
        rep.pres = pres
        rep.field = field
        rep.dims = dims
        rep.mats = mats
        return rep

    @classmethod
    def zero(cls, pres: BoundQuiver, field: Field,
             dims: DimVector) -> "Representation":
        quiver = pres.quiver
        full = {x: int(dims.get(x, 0)) for x in quiver.vertices}
        mats = {a: Matrix.zeros(field, full[t], full[s])
                for a, s, t in quiver.arrows}
        return cls(pres, field, full, mats)

    def key(self) -> tuple:
        """Hashable canonical form, for set-based point comparisons."""
        return (tuple(sorted(self.dims.items(), key=lambda kv: str(kv[0]))),
                tuple(self.mats[a] for a, _, _ in self.pres.quiver.arrows))

    def __eq__(self, other):
        return (isinstance(other, Representation) and same_data(self, other)
                and other.key() == self.key())

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return (f"Representation({self.pres.name}, {self.field}, "
                f"dims={self.dims})")

    def failures(self):
        """Each generating relation that is nonzero at this point, in order:
        ``failed_relations`` at the flat point of every arrow."""
        return failed_relations(
            self.field, self.dims, flat_layout(self.pres, self.dims),
            flat_point(self.mats, self.pres.quiver.arrow_names()),
            self.pres.relations)

    def is_valid(self) -> bool:
        """Membership in the representation variety: every generating
        relation evaluates to zero (generators suffice since evaluation is
        an algebra map)."""
        return next(self.failures(), None) is None


def relabel(rep: Representation, pres: BoundQuiver, vertices: Mapping,
            arrows: Mapping) -> Representation:
    """The point of ``pres`` that ``rep`` gives along a vertex map and a
    signed arrow map from ``pres`` into ``rep.pres``: dims[v] is
    rep.dims[vertices[v]] and mats[a] is sign * rep.mats[b] for
    arrows[a] = (sign, b).  Carries points along an isomorphism that
    ``quiver.is_isomorphism`` proves, or onto a copy of ``pres`` inside a
    larger presentation.  Raises ValueError unless the point is valid."""
    out = Representation(pres, rep.field,
                         {v: rep.dims[w] for v, w in vertices.items()},
                         {a: rep.mats[b] if sign == 1 else -rep.mats[b]
                          for a, (sign, b) in arrows.items()})
    if not out.is_valid():
        raise ValueError(f"the relabeled point violates the relations of "
                         f"{pres.name}")
    return out


class Morphism:
    """Vertex-indexed collection of matrices between two representations."""

    def __init__(self, source: Representation, target: Representation,
                 maps: Mapping[Vertex, Matrix]):
        if not same_data(source, target):
            raise ValueError("morphism endpoints live over different data")
        self.source = source
        self.target = target
        self.field = source.field
        store = {}
        for x in source.pres.quiver.vertices:
            if x not in maps:
                raise ValueError(f"missing map at vertex {x!r}")
            m = maps[x]
            expected = (target.dims[x], source.dims[x])
            if m.shape != expected:
                raise ValueError(
                    f"vertex {x!r}: map shape {m.shape} != {expected}")
            if m.field is not self.field and m.field != self.field:
                raise ValueError(f"vertex {x!r}: field mismatch")
            store[x] = m
        self.maps = store

    @classmethod
    def _trusted(cls, source: Representation, target: Representation,
                 maps: dict) -> "Morphism":
        """A morphism from ``source`` to ``target``, two points over the
        same data, on ``maps``, one matrix of the right shape per vertex in
        ``quiver.vertices`` order, taken as they are."""
        mor = object.__new__(cls)
        mor.source = source
        mor.target = target
        mor.field = source.field
        mor.maps = maps
        return mor

    def intertwines(self) -> bool:
        """Whether f_(t a) source_a = target_a f_(s a) for every arrow a:
        no crossing relation of ``hom_quiver`` fails at the triple."""
        return next(_pair_failures("hom", self.source, self.target,
                                   self.maps), None) is None

    def compose(self, inner: "Morphism") -> "Morphism":
        """self . inner (apply inner first)."""
        if inner.target is not self.source and inner.target != self.source:
            raise ValueError("morphisms do not compose")
        return Morphism(inner.source, self.target,
                        {x: self.maps[x] @ inner.maps[x]
                         for x in self.maps})

    def key(self) -> tuple:
        return tuple(self.maps[x] for x in self.source.pres.quiver.vertices)

    def __eq__(self, other):
        return (isinstance(other, Morphism) and other.source == self.source
                and other.target == self.target and other.key() == self.key())

    def __hash__(self):
        return hash((self.source.key(), self.target.key(), self.key()))

    def __repr__(self):
        return f"Morphism({self.source!r} -> {self.target!r})"


class HomTriple:
    """A point (V, W, f) of a homomorphism variety: f : V -> W."""

    def __init__(self, source: Representation, target: Representation,
                 morphism: Morphism):
        if (morphism.source is not source and morphism.source != source) or \
                (morphism.target is not target and morphism.target != target):
            raise ValueError("morphism endpoints do not match the triple")
        self.source = source
        self.target = target
        self.morphism = morphism

    def key(self) -> tuple:
        return (self.source.key(), self.target.key(), self.morphism.key())

    def __eq__(self, other):
        return isinstance(other, HomTriple) and other.key() == self.key()

    def __hash__(self):
        return hash(self.key())


def _pair_kernel(kind: str, first: Representation, second: Representation
                 ) -> tuple[dict, list[tuple]]:
    """The shapes of the crossing arrows of ``_pair_walk``, keyed by the
    vertex (hom) or arrow (ext) each stands for, and the kernel basis of
    its crossing layer at ``first`` on the first copy and ``second`` on
    the second: the crossing relations linearized in the crossing arrows,
    at the two flat points laid one after the other."""
    if not same_data(first, second):
        raise ValueError("representations live over different data")
    pres = first.pres
    doubled, dims, crossing = _pair_walk(kind, pres, first.dims, second.dims)
    arrows = pres.quiver.arrow_names()
    plan = _arrow_plan(
        doubled, first.field, dims,
        doubled.quiver.arrow_names()[:2 * len(arrows)], crossing,
        doubled.relations[2 * len(pres.relations):])
    return ({crossing[a]: shape for a, shape in plan.shapes.items()},
            plan.kernel(flat_point(first.mats, arrows)
                        + flat_point(second.mats, arrows)))


def _pair_failures(kind: str, first: Representation, second: Representation,
                   crossing: Mapping):
    """The check-side twin of ``_pair_kernel``: with ``first`` on the first
    copy of ``_pair_walk``'s doubled presentation, ``second`` on the
    second, and ``crossing``'s matrices on the crossing arrows (the vertex
    maps, keyed by vertex, for hom; the blocks, keyed by arrow, for ext),
    the label of each crossing relation ``failed_relations`` finds nonzero,
    in order: the arrow of ``first.pres`` whose intertwining fails (hom) or
    the relation whose cocycle equation fails (ext).  The three are laid
    out as the doubled presentation's flat point.  Labels are matched to
    crossing relations by position, as two equal relations of the
    presentation give equal crossing relations."""
    pres = first.pres
    doubled, dims, labels = _pair_walk(kind, pres, first.dims, second.dims)
    arrows = pres.quiver.arrow_names()
    point = (flat_point(first.mats, arrows) + flat_point(second.mats, arrows)
             + flat_point(crossing, labels.values()))
    rels = doubled.relations[2 * len(pres.relations):]
    named = iter(zip(rels, pres.relations if kind == "ext" else arrows))
    for rel in failed_relations(first.field, dims,
                                flat_layout(doubled, dims), point, rels):
        yield next(label for r, label in named if r is rel)


def hom_kernel(source: Representation, target: Representation
               ) -> tuple[dict, list[tuple]]:
    """The shapes of the vertex maps f_x, and the kernel basis of the
    intertwining system f_(t a) source_a - target_a f_(s a) = 0 of the
    pair, one equation per arrow, in the stacked entries of all vertex
    maps: the crossing layer of ``hom_quiver``."""
    return _pair_kernel("hom", source, target)


def hom_basis(source: Representation, target: Representation) -> list[Morphism]:
    """Deterministic basis of Hom(source, target): one morphism per vector
    of the kernel basis of hom_kernel's system."""
    shapes, kernel = hom_kernel(source, target)
    return [Morphism(source, target, split_blocks(source.field, shapes, vec))
            for vec in kernel]


def is_monomorphism(mor: Morphism) -> bool:
    """True iff the morphism intertwines and every vertex map is injective."""
    if not mor.intertwines():
        raise ValueError("not a homomorphism of representations")
    return all(mor.maps[x].rank() == mor.source.dims[x]
               for x in mor.source.pres.quiver.vertices)


def gl_action(g: Mapping[Vertex, Matrix], rep: Representation) -> Representation:
    """Base change (g * V)_a = g_(t a) V_a g_(s a)^(-1); validity is
    preserved.  Raises if any g_x is singular."""
    quiver = rep.pres.quiver
    inverses = {}
    for x in quiver.vertices:
        if x not in g:
            raise ValueError(f"base change is missing vertex {x!r}")
        gx = g[x]
        if gx.shape != (rep.dims[x], rep.dims[x]):
            raise ValueError(f"vertex {x!r}: base change has wrong shape")
        inverses[x] = gx.inverse()
    mats = {a: g[t] @ rep.mats[a] @ inverses[s] for a, s, t in quiver.arrows}
    return Representation(rep.pres, rep.field, rep.dims, mats)


def simple_module(pres: BoundQuiver, field: Field, x: Vertex) -> Representation:
    """One-dimensional representation concentrated at x, all arrows zero."""
    if x not in set(pres.quiver.vertices):
        raise QuiverError(f"unknown vertex {x!r}")
    dims = {v: 1 if v == x else 0 for v in pres.quiver.vertices}
    return Representation.zero(pres, field, dims)


def _triangular(sub: Representation, quo: Representation,
                blocks: Mapping[str, Matrix]) -> Representation:
    """The point [[sub_a, blocks[a]], [0, quo_a]] on the summed dims, for
    blocks of checked shapes: an extension's middle term, or a direct sum."""
    field = sub.field
    mats = {a: block2x2(sub.mats[a], blocks[a],
                        Matrix.zeros(field, quo.dims[t], sub.dims[s]),
                        quo.mats[a])
            for a, s, t in sub.pres.quiver.arrows}
    return Representation(sub.pres, field, dims_add(sub.dims, quo.dims), mats)


def direct_sum(a: Representation, b: Representation) -> Representation:
    """Block-diagonal sum: ``_triangular`` with zero blocks, so it equals
    the extension of ``b`` by ``a`` with zero blocks."""
    if not same_data(a, b):
        raise ValueError("representations live over different data")
    zero = {arrow: Matrix.zeros(a.field, a.dims[t], b.dims[s])
            for arrow, s, t in a.pres.quiver.arrows}
    return _triangular(a, b, zero)


def _unit_columns(field: Field, n: int, pivots: tuple) -> Matrix:
    """The unit columns e_i of k^n at the rows i off ``pivots``, in order."""
    free = [i for i in range(n) if i not in pivots]
    one, zero = field.one, field.zero
    return Matrix._trusted(field, n, len(free), tuple(
        tuple([one if i == j else zero for j in free]) for i in range(n)))


def _split(mor: Morphism, name: str
           ) -> tuple[dict, dict, dict, Representation]:
    """(g, g^(-1), blocks, quotient) of a monomorphism f: sub -> middle,
    with g_x = [f_x | h_x] and g^(-1) middle g = [[sub, blocks], [0,
    quotient]].  h is the standard complement: the pivots of the one row
    reduction of each f_x^T test injectivity (``name`` names the
    construction in that error), and h_x is the unit columns at the rows
    off them, so [f_x | h_x] is invertible."""
    if not mor.intertwines():
        raise ValueError("not a homomorphism of representations")
    sub, middle, field = mor.source, mor.target, mor.field
    quiver = sub.pres.quiver
    pivots = {}
    for x in quiver.vertices:
        pivots[x] = mor.maps[x].transpose().rref()[1]
        if len(pivots[x]) != sub.dims[x]:
            raise ValueError(f"{name} requires a monomorphism")
    quo_dims = {x: middle.dims[x] - sub.dims[x] for x in quiver.vertices}
    g, g_inv = {}, {}
    for x in quiver.vertices:
        g[x] = hstack(mor.maps[x],
                      _unit_columns(field, middle.dims[x], pivots[x]))
        g_inv[x] = g[x].inverse()
    blocks, quo_mats = {}, {}
    for a, s, t in quiver.arrows:
        m = g_inv[t] @ middle.mats[a] @ g[s]
        d_t, d_s = sub.dims[t], sub.dims[s]
        top, bottom = m.rows[:d_t], m.rows[d_t:]
        if any(v for row in bottom for v in row[:d_s]):
            raise AssertionError(
                "image of the monomorphism is not closed under the arrows")
        if tuple(row[:d_s] for row in top) != sub.mats[a].rows:
            raise AssertionError("conjugation did not reproduce the source")
        blocks[a] = Matrix._trusted(field, d_t, quo_dims[s],
                                    tuple(row[d_s:] for row in top))
        quo_mats[a] = Matrix._trusted(field, quo_dims[t], quo_dims[s],
                                      tuple(row[d_s:] for row in bottom))
    quotient = Representation._trusted(sub.pres, field, quo_dims, quo_mats)
    return g, g_inv, blocks, quotient


def cokernel(mor: Morphism) -> tuple[Representation, Morphism]:
    """Cokernel of a monomorphism, with the projection onto it.

    The quotient is the splitting's on the standard complement
    (``_split``), and the projection at x the last rows of g_x^(-1), so
    building a quotient twice gives identical matrices.
    """
    _, g_inv, _, quotient = _split(mor, "cokernel")
    return quotient, Morphism._trusted(mor.target, quotient, {
        x: Matrix._trusted(mor.field, quotient.dims[x], m.ncols,
                           m.rows[mor.source.dims[x]:])
        for x, m in g_inv.items()})
