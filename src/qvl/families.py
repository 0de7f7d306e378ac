"""Constructors for the named algebra families and the paper's
identifications between them.

All families live on the two-vertex quiver with loops e0 at vertex 0, e1 at
vertex 1, and arrows a1..an from 1 to 0 (the one-vertex family keeps a
single loop e).  The paper's identifications, of A'comm(m) and B(1, m)
with the Hom and Ext quivers of Lambda(m) (``quiver.hom_quiver`` and
``quiver.ext_quiver``) and of A'comm(m) with A(1, m, 1), are vertex and
signed arrow maps that ``quiver.is_isomorphism`` proves and
``reps.relabel`` follows.

Each builder that builds keeps its presentations for the last 64
parameter tuples, so equal parameters give the one ``BoundQuiver`` in the
process: a repeated query builds no quiver, relation or path, and the
per-process caches keyed by presentation value (``quiver._checked``,
``reps._doubling``, ``counting._compiled``) find it by identity.
Presentations are immutable, so sharing one is safe.  Parameters out of
range raise ``FamilyParameterError`` on every call: a failed build is not
kept.  ``family_b`` keeps nothing itself: ``family_b(n, m)`` is the object
``family_a(n, m, m - 1)`` keeps.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields
from typing import Optional

from .quiver import (BoundQuiver, Quiver, QuiverError, Relation,
                     monomial_relation)

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
        row = FAMILIES.get(self.kind)
        return self.kind if row is None else row[2].format(**vars(self))


# the descriptor's parameter fields, in declaration order
FAMILY_FIELDS = tuple(f.name for f in fields(FamilyDescriptor))[1:]


class FamilyParameterError(QuiverError):
    pass


def _check(kind: str, *values):
    """Raise unless each parameter of the family ``kind`` is given and at
    least its least value, and, for A(n, m, l), l <= m - 1: the range the
    decision table covers, whose top member is B(n, m) = A(n, m, m - 1)."""
    name, params = FAMILIES[kind][:2]
    for (param, least), value in zip(params, values):
        if value is None or value < least:
            raise FamilyParameterError(
                f"{name} needs {param} >= {least}, got {value}")
    if kind == "A" and values[2] > values[1] - 1:
        raise FamilyParameterError(
            f"{name} needs l <= m - 1, got l = {values[2]}, m = {values[1]}")


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


@functools.lru_cache(maxsize=64)
def family_a(n: int, m: int, l: int) -> BoundQuiver:
    """Two loops of order m plus the degree-one crossing relation."""
    _check("A", n, m, l)
    quiver = two_vertex_quiver(n)
    rels = [monomial_relation(quiver, "e0", m),
            monomial_relation(quiver, "e1", m),
            crossing_relation(quiver, l)]
    return BoundQuiver(quiver, rels, 2 * m, name=f"A({n},{m},{l})")


@functools.lru_cache(maxsize=64)
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


@functools.lru_cache(maxsize=64)
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


@functools.lru_cache(maxsize=64)
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


# The paper's identifications as (vertex map, signed arrow map) pairs for
# quiver.is_isomorphism and reps.relabel, the same for every m:
# hom_quiver(Lambda(m)) -> A'comm(m), ext_quiver(Lambda(m)) -> B(1, m), and
# the twist A'comm(m) -> A(1, m, 1), which is its own inverse.
HOM_LAMBDA = ({"s0": 1, "t0": 0},
              {"s_e": (1, "e1"), "t_e": (1, "e0"), "f0": (1, "a1")})
EXT_LAMBDA = ({"q0": 1, "u0": 0},
              {"q_e": (1, "e1"), "u_e": (1, "e0"), "c_e": (1, "a1")})
TWIST = ({0: 0, 1: 1}, {"e0": (1, "e0"), "e1": (-1, "e1"), "a1": (1, "a1")})


# kind -> (name in messages, ((parameter, least value), ...), label
# format, builder), the parameters in the order the builder takes them
FAMILIES = {
    "A": ("family A", (("n", 1), ("m", 2), ("l", 1)), "A({n},{m},{l})",
          family_a),
    "Aprime": ("family A'", (("n", 0), ("m0", 1), ("m1", 1)),
               "A'({n},{m0},{m1})", family_a_prime),
    "AprimeCommuting": ("the commuting family", (("m", 2),), "A'comm({m})",
                        family_a_prime_commuting),
    "Lambda": ("family Lambda", (("m", 1),), "Lambda({m})", family_lambda),
    "B": ("family B", (("n", 1), ("m", 2)), "B({n},m={m})", family_b),
}
FAMILY_KINDS = tuple(FAMILIES)


def _parameters(desc: FamilyDescriptor) -> list:
    """The descriptor's parameters in builder order, each checked."""
    if desc.kind not in FAMILIES:
        raise FamilyParameterError(f"unknown family kind {desc.kind!r}")
    values = [getattr(desc, param) for param, _ in FAMILIES[desc.kind][1]]
    _check(desc.kind, *values)
    return values


def build_family(desc: FamilyDescriptor) -> BoundQuiver:
    params = _parameters(desc)
    return FAMILIES[desc.kind][3](*params)


def is_geometrically_irreducible_family(desc: FamilyDescriptor) -> bool:
    """Decision table for the named families.

    A(n, m, l) is geometrically irreducible exactly for l = 1 or l = m - 1;
    the loop-only families and the one-vertex family always are, and B is
    the l = m - 1 member of A.
    """
    _parameters(desc)
    return desc.kind != "A" or desc.l in (1, desc.m - 1)
