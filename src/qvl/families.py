"""Constructors for the named algebra families and their variety maps.

All families live on the two-vertex quiver with loops e0 at vertex 0, e1 at
vertex 1, and arrows a1..an from 1 to 0 (the one-vertex family keeps a
single loop e).  The conversion maps identify representations of the
commuting two-loop family with homomorphism triples over the one-loop
algebra, and representations of the corner family B with extension triples;
both are exact bijections on point sets and are inverted here explicitly.
``hom_quiver`` doubles any presentation so that its representations are
the Hom triples of the original.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .extensions import ExtensionTriple, cocycle_value
from .linalg import Matrix
from .quiver import (BoundQuiver, Quiver, QuiverError, Relation, loop_power,
                     monomial_relation)
from .reps import HomTriple, Morphism, Representation

# kind -> (name in messages, ((parameter, least value), ...)), the
# parameters in the order the kind's builder takes them
FAMILY_PARAMS = {
    "A": ("family A", (("n", 1), ("m", 2), ("l", 1))),
    "Aprime": ("family A'", (("n", 0), ("m0", 1), ("m1", 1))),
    "AprimeCommuting": ("the commuting family", (("m", 2),)),
    "Lambda": ("family Lambda", (("m", 1),)),
    "B": ("family B", (("n", 1), ("m", 2))),
}
FAMILY_KINDS = tuple(FAMILY_PARAMS)


@dataclass(frozen=True)
class FamilyDescriptor:
    """Name plus parameters of one of the built-in algebra families."""

    kind: str
    n: Optional[int] = None
    m: Optional[int] = None
    l: Optional[int] = None
    m0: Optional[int] = None
    m1: Optional[int] = None

    def label(self) -> str:
        if self.kind == "A":
            return f"A({self.n},{self.m},{self.l})"
        if self.kind == "Aprime":
            return f"A'({self.n},{self.m0},{self.m1})"
        if self.kind == "AprimeCommuting":
            return f"A'comm({self.m})"
        if self.kind == "Lambda":
            return f"Lambda({self.m})"
        if self.kind == "B":
            return f"B({self.n},m={self.m})"
        return self.kind


class FamilyParameterError(QuiverError):
    pass


def _check(kind: str, *values):
    """Raise unless each parameter of the family ``kind`` is given and at
    least its least value."""
    name, params = FAMILY_PARAMS[kind]
    for (param, least), value in zip(params, values):
        if value is None or value < least:
            raise FamilyParameterError(
                f"{name} needs {param} >= {least}, got {value}")


def two_vertex_quiver(n: int, with_loop0: bool = True,
                      with_loop1: bool = True) -> Quiver:
    """Vertices 0, 1 with loops e0, e1 and arrows a1..an from 1 to 0."""
    arrows = []
    if with_loop0:
        arrows.append(("e0", 0, 0))
    if with_loop1:
        arrows.append(("e1", 1, 1))
    arrows.extend((f"a{i}", 1, 0) for i in range(1, n + 1))
    return Quiver([0, 1], arrows, name=f"Q({n})")


def crossing_relation(quiver: Quiver, l: int) -> Relation:
    """The degree-one relation sum of e0^(l-i) a1 e1^i over i in [0, l]."""
    terms = []
    for i in range(l + 1):
        arrows = ["e0"] * (l - i) + ["a1"] + ["e1"] * i
        terms.append((1, quiver.path(arrows)))
    return Relation(terms)


def family_a(n: int, m: int, l: int) -> BoundQuiver:
    """Two loops of order m plus the degree-one crossing relation."""
    _check("A", n, m, l)
    quiver = two_vertex_quiver(n)
    rels = [monomial_relation(quiver, "e0", m),
            monomial_relation(quiver, "e1", m),
            crossing_relation(quiver, l)]
    return BoundQuiver(quiver, rels, 2 * m, name=f"A({n},{m},{l})")


def family_a_prime(n: int, m0: int, m1: int) -> BoundQuiver:
    """Loops of orders m0 and m1, no crossing relation.

    An order-1 loop is the zero arrow of the algebra, so it is dropped from
    the quiver instead of imposing a length-1 relation.
    """
    _check("Aprime", n, m0, m1)
    quiver = two_vertex_quiver(n, with_loop0=m0 >= 2, with_loop1=m1 >= 2)
    rels = []
    if m0 >= 2:
        rels.append(monomial_relation(quiver, "e0", m0))
    if m1 >= 2:
        rels.append(monomial_relation(quiver, "e1", m1))
    bound = max(m0 + m1, 2)
    return BoundQuiver(quiver, rels, bound, name=f"A'({n},{m0},{m1})")


def family_a_prime_commuting(m: int) -> BoundQuiver:
    """One arrow, two order-m loops, and the commuting relation
    e0*a1 - a1*e1."""
    _check("AprimeCommuting", m)
    quiver = two_vertex_quiver(1)
    comm = Relation([(1, quiver.path(["e0", "a1"])),
                     (-1, quiver.path(["a1", "e1"]))])
    rels = [monomial_relation(quiver, "e0", m),
            monomial_relation(quiver, "e1", m),
            comm]
    return BoundQuiver(quiver, rels, 2 * m, name=f"A'comm({m})")


def family_lambda(m: int) -> BoundQuiver:
    """Truncated polynomial algebra: one vertex, one loop e of order m.

    For m = 1 the loop disappears (the algebra is the ground field).
    """
    _check("Lambda", m)
    if m == 1:
        quiver = Quiver([0], [], name="Lambda(1)")
        return BoundQuiver(quiver, [], 1, name="Lambda(1)")
    quiver = Quiver([0], [("e", 0, 0)], name=f"Lambda({m})")
    return BoundQuiver(quiver, [monomial_relation(quiver, "e", m)], m,
                       name=f"Lambda({m})")


def family_b(n: int, m: int) -> BoundQuiver:
    """The corner family: A(n, m, m-1)."""
    _check("B", n, m)
    return family_a(n, m, m - 1)


def hom_quiver(pres: BoundQuiver) -> BoundQuiver:
    """The doubled presentation whose representations are the Hom triples
    of ``pres``: a source copy (vertices s<v>, arrows s_<a>) and a target
    copy (t<v>, t_<a>) of the quiver, an arrow f<v>: s<v> -> t<v> for each
    vertex, the relations of ``pres`` on both copies, and f_t*s_a - t_a*f_s
    for each arrow a: s -> t, which says the maps f intertwine.

    Its truncation bound is 2N, taken unchecked: a path crosses from the
    source copy to the target copy at most once, so any path of length 2N
    holds N consecutive arrows of one copy, a path in that copy's ideal."""
    quiver = pres.quiver
    arrows = [(f"{side}_{a}", f"{side}{s}", f"{side}{t}")
              for side in "st" for a, s, t in quiver.arrows]
    arrows += [(f"f{v}", f"s{v}", f"t{v}") for v in quiver.vertices]
    doubled = Quiver([f"{side}{v}" for side in "st" for v in quiver.vertices],
                     arrows, name=f"Hom({quiver.name})")
    rels = [Relation((c, doubled.path([f"{side}_{a}" for a in p.arrows]))
                     for c, p in rel.terms)
            for side in "st" for rel in pres.relations]
    rels += [Relation([(1, doubled.path([f"f{t}", f"s_{a}"])),
                       (-1, doubled.path([f"t_{a}", f"f{s}"]))])
             for a, s, t in quiver.arrows]
    return BoundQuiver(doubled, rels, 2 * pres.truncation_bound,
                       name=f"Hom({pres.name})", check=False)


_BUILDERS = {"A": family_a, "Aprime": family_a_prime,
             "AprimeCommuting": family_a_prime_commuting,
             "Lambda": family_lambda, "B": family_b}


def _parameters(desc: FamilyDescriptor) -> list:
    """The descriptor's parameters in builder order, each checked."""
    if desc.kind not in FAMILY_PARAMS:
        raise FamilyParameterError(f"unknown family kind {desc.kind!r}")
    values = [getattr(desc, param) for param, _ in FAMILY_PARAMS[desc.kind][1]]
    _check(desc.kind, *values)
    return values


def build_family(desc: FamilyDescriptor) -> BoundQuiver:
    params = _parameters(desc)
    return _BUILDERS[desc.kind](*params)


def is_geometrically_irreducible_family(desc: FamilyDescriptor) -> bool:
    """Decision table for the named families.

    A(n, m, l) is geometrically irreducible exactly for l = 1 or l = m - 1;
    the loop-only families and the one-vertex family always are, and B is
    the l = m - 1 member of A.
    """
    _parameters(desc)
    return desc.kind != "A" or desc.l in (1, desc.m - 1)


# --- conversion maps ----------------------------------------------------


def _require_valid(rep: Representation):
    if not rep.is_valid():
        raise ValueError("representation violates its defining relations")


def _order_of(pres: BoundQuiver, prefix: str) -> int:
    for power in map(loop_power, pres.relations):
        if power and power[0] == prefix:
            return power[1]
    raise ValueError(f"presentation has no power relation for {prefix!r}")


def _twist(rep: Representation, target, variety: str) -> Representation:
    """Negate the e1 matrix of a valid point, landing in the presentation
    ``target`` builds from the order of e0."""
    _require_valid(rep)
    mats = dict(rep.mats)
    mats["e1"] = -rep.mats["e1"]
    out = Representation(target(_order_of(rep.pres, "e0")), rep.field,
                         rep.dims, mats)
    if not out.is_valid():
        raise AssertionError(f"twist did not land in the {variety} variety")
    return out


def twist_iso(rep: Representation) -> Representation:
    """Negate the e1 matrix: carries points of the commuting family to the
    l = 1 member of family A (and back; over F_2 it is the identity)."""
    return _twist(rep, lambda m: family_a(1, m, 1), "target")


def twist_iso_inverse(rep: Representation) -> Representation:
    """Inverse direction of the twist, into the commuting family."""
    return _twist(rep, family_a_prime_commuting, "commuting")


def _read_one_arrow(rep: Representation):
    """The Lambda(m) points that the loops of a valid point with one arrow
    a1: 1 -> 0 give at vertex 1 and at vertex 0, with m the order of e0,
    and the matrix of a1."""
    _require_valid(rep)
    pres = family_lambda(_order_of(rep.pres, "e0"))
    at1, at0 = (Representation(pres, rep.field, {0: mat.nrows}, {"e": mat})
                for mat in (rep.mats["e1"], rep.mats["e0"]))
    return at1, at0, rep.mats["a1"]


def _one_arrow_rep(pres: BoundQuiver, at1: Representation,
                   at0: Representation, a1: Matrix) -> Representation:
    """Inverse of ``_read_one_arrow``: the point of ``pres`` with these
    loops at vertices 1 and 0 and this a1, checked valid."""
    out = Representation(pres, at1.field, {0: at0.dims[0], 1: at1.dims[0]},
                         {"e0": at0.mats["e"], "e1": at1.mats["e"],
                          "a1": a1})
    _require_valid(out)
    return out


def hom_triple_from_commuting_rep(rep: Representation) -> HomTriple:
    """Read a representation of the commuting family as a homomorphism
    triple over the one-loop algebra.

    The loop at vertex 1 becomes the source module, the loop at vertex 0
    the target, and the arrow matrix the homomorphism between them; the
    commuting relation is exactly the intertwining condition.
    """
    src, dst, a1 = _read_one_arrow(rep)
    mor = Morphism(src, dst, {0: a1})
    if not mor.intertwines():
        raise AssertionError("commuting relation failed to intertwine")
    return HomTriple(src, dst, mor)


def commuting_rep_from_hom_triple(triple: HomTriple, m: int) -> Representation:
    """Reassemble a commuting-family representation from a triple."""
    if not triple.morphism.intertwines():
        raise ValueError("the triple's map is not a homomorphism")
    return _one_arrow_rep(family_a_prime_commuting(m), triple.source,
                          triple.target, triple.morphism.maps[0])


def ext_triple_from_corner_rep(rep: Representation) -> ExtensionTriple:
    """Read a representation of B(1, m) as an extension triple over the
    one-loop algebra.

    The loop at vertex 1 is the quotient, the loop at vertex 0 the sub, and
    the arrow matrix the single cocycle block; the crossing relation of
    B(1, m) is exactly the cocycle equation of the loop power.
    """
    quo, sub, a1 = _read_one_arrow(rep)
    return ExtensionTriple(quo, sub, {"e": a1})


def corner_rep_from_ext_triple(triple: ExtensionTriple, m: int) -> Representation:
    """Reassemble a B(1, m) representation from an extension triple."""
    pres = family_b(1, m)
    for rel in family_lambda(m).relations:
        if not cocycle_value(triple.quo, triple.sub, triple.blocks,
                             rel).is_zero():
            raise ValueError("blocks are not a cocycle")
    return _one_arrow_rep(pres, triple.quo, triple.sub, triple.blocks["e"])


def split_corner_rep(rep: Representation
                     ) -> tuple[Representation, list[Matrix]]:
    """Split a B(n, m) point into its B(1, m) core and the unconstrained
    matrices of the arrows a2..an."""
    _require_valid(rep)
    m = _order_of(rep.pres, "e0")
    n = sum(1 for a in rep.pres.quiver.arrow_names() if a.startswith("a"))
    core_pres = family_b(1, m)
    core = Representation(core_pres, rep.field, rep.dims,
                          {"e0": rep.mats["e0"], "e1": rep.mats["e1"],
                           "a1": rep.mats["a1"]})
    _require_valid(core)
    free = [rep.mats[f"a{i}"] for i in range(2, n + 1)]
    return core, free


def assemble_corner_rep(core: Representation,
                        free: Sequence[Matrix]) -> Representation:
    """Inverse of split_corner_rep."""
    _require_valid(core)
    m = _order_of(core.pres, "e0")
    n = 1 + len(free)
    pres = family_b(n, m)
    mats = {"e0": core.mats["e0"], "e1": core.mats["e1"],
            "a1": core.mats["a1"]}
    for i, mat in enumerate(free, start=2):
        mats[f"a{i}"] = mat
    out = Representation(pres, core.field, core.dims, mats)
    _require_valid(out)
    return out
