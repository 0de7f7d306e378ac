"""Quivers, paths, relations, and bound quiver presentations.

The path algebra is handled through its length truncations kQ/J^N (J the
arrow ideal): every ideal computation is a finite-dimensional linear algebra
problem in the path basis of a truncation.  An ideal is spanned by the
products p*rel*q of its relations with paths, each built by concatenating
arrow sequences; most of them are single paths.  Spans are kept as sparse
reduced row echelon forms (``linalg.Subspace``), so a single-path product
costs no arithmetic.  A presentation's truncation bound N certifies that all
paths of length N fall into the relation ideal, so the truncated picture
loses nothing.  N is certified once per process for each distinct
presentation and field, on the first ideal query over that field; counts
and walks never read N, so they never pay for the check.  A relation whose
coefficients vanish in characteristic p can leave a path of length N
outside the ideal there.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Iterable, Mapping, Sequence, Union

from .linalg import Field, QQ, Subspace

Vertex = Union[int, str]


class QuiverError(ValueError):
    pass


class Quiver:
    """Finite directed multigraph with named arrows.

    Vertices are ints or strings; arrow names are unique strings.  Loops
    (source == target) have degree 0, all other arrows degree 1.
    """

    def __init__(self, vertices: Sequence[Vertex],
                 arrows: Sequence[tuple[str, Vertex, Vertex]],
                 name: str = "Q"):
        if len(set(vertices)) != len(vertices):
            raise QuiverError("duplicate vertex ids")
        self.name = name
        self.vertices: tuple[Vertex, ...] = tuple(vertices)
        vertex_set = set(self.vertices)
        seen = set()
        arrow_list = []
        for arrow_name, src, dst in arrows:
            if arrow_name in seen:
                raise QuiverError(f"duplicate arrow id {arrow_name!r}")
            if src not in vertex_set or dst not in vertex_set:
                raise QuiverError(
                    f"arrow {arrow_name!r}: endpoint not a declared vertex")
            seen.add(arrow_name)
            arrow_list.append((arrow_name, src, dst))
        self.arrows: tuple[tuple[str, Vertex, Vertex], ...] = tuple(arrow_list)
        self._source = {a: s for a, s, _ in self.arrows}
        self._target = {a: t for a, _, t in self.arrows}
        self._names = tuple(a for a, _, _ in self.arrows)
        self._loops = tuple(a for a, s, t in self.arrows if s == t)

    def arrow_names(self) -> tuple[str, ...]:
        return self._names

    def source(self, arrow: str) -> Vertex:
        return self._source[arrow]

    def target(self, arrow: str) -> Vertex:
        return self._target[arrow]

    def has_arrow(self, arrow: str) -> bool:
        return arrow in self._source

    def is_loop(self, arrow: str) -> bool:
        return self._source[arrow] == self._target[arrow]

    def arrow_degree(self, arrow: str) -> int:
        return 0 if self.is_loop(arrow) else 1

    def loops(self) -> tuple[str, ...]:
        return self._loops

    def loops_at(self, x: Vertex) -> tuple[str, ...]:
        return tuple(a for a in self.loops() if self._source[a] == x)

    def trivial_path(self, x: Vertex) -> "Path":
        if x not in set(self.vertices):
            raise QuiverError(f"unknown vertex {x!r}")
        return Path((), source=x, target=x, degree=0)

    def path(self, arrows: Sequence[str]) -> "Path":
        """Path from an arrow sequence a1..al, with al applied first."""
        if not arrows:
            raise QuiverError("a nonempty arrow sequence is required; "
                              "use trivial_path for length 0")
        degree = 0
        for i, a in enumerate(arrows):
            if a not in self._source:
                raise QuiverError(f"unknown arrow {a!r}")
            degree += self.arrow_degree(a)
            if i + 1 < len(arrows) and self._source[a] != self._target[arrows[i + 1]]:
                raise QuiverError(
                    f"arrows {a!r} and {arrows[i + 1]!r} do not compose")
        return Path(tuple(arrows),
                    source=self._source[arrows[-1]],
                    target=self._target[arrows[0]],
                    degree=degree)

    def compose(self, left: "Path", right: "Path") -> "Path":
        """Product left*right: apply right first, then left."""
        if right.target != left.source:
            raise QuiverError("paths do not compose")
        if not left.arrows:
            return right
        if not right.arrows:
            return left
        return Path(left.arrows + right.arrows, source=right.source,
                    target=left.target, degree=left.degree + right.degree)

    def paths_up_to(self, max_length: int) -> list["Path"]:
        """All paths of length <= max_length, sorted length-first then by
        arrow-id sequence (lexicographic); trivial paths in vertex order."""
        out: list[Path] = [self.trivial_path(x) for x in self.vertices]
        current = [self.path([a]) for a, _, _ in self.arrows]
        length = 1
        while length <= max_length and current:
            current.sort(key=lambda p: p.arrows)
            out.extend(current)
            nxt = []
            for p in current:
                if length + 1 > max_length:
                    break
                for a, _, dst in self.arrows:
                    if dst == p.source:
                        nxt.append(Path((*p.arrows, a), source=self._source[a],
                                        target=p.target,
                                        degree=p.degree + self.arrow_degree(a)))
            current = nxt
            length += 1
        return out

    def __eq__(self, other):
        return (isinstance(other, Quiver) and other.vertices == self.vertices
                and other.arrows == self.arrows)

    def __hash__(self):
        return hash((self.vertices, self.arrows))

    def __repr__(self):
        return (f"Quiver({self.name!r}, vertices={list(self.vertices)}, "
                f"arrows={list(self.arrows)})")


@dataclass(frozen=True)
class Path:
    """Composable arrow sequence a1..al (al applied first) or a trivial path.

    Trivial paths have an empty arrow tuple and source == target.
    """

    arrows: tuple[str, ...]
    source: Vertex
    target: Vertex
    degree: int

    @property
    def length(self) -> int:
        return len(self.arrows)

    def is_trivial(self) -> bool:
        return not self.arrows

    def sort_key(self) -> tuple:
        return (self.length, self.arrows, str(self.source))

    def contains_subpath(self, other: "Path") -> bool:
        """Contiguous subword test on the arrow sequences."""
        if other.is_trivial():
            return True
        k = other.length
        return any(self.arrows[i:i + k] == other.arrows
                   for i in range(self.length - k + 1))

    def __str__(self):
        if not self.arrows:
            return f"1_{self.source}"
        return "*".join(self.arrows)


def power(quiver: Quiver, arrow: str, k: int) -> Path:
    """The path arrow^k; k = 0 gives the trivial path at its source."""
    if k == 0:
        return quiver.trivial_path(quiver.source(arrow))
    return quiver.path([arrow] * k)


class Relation:
    """Linear combination of parallel paths of length >= 2.

    Terms are merged, zero coefficients dropped, and the survivors stored
    sorted by the length-lexicographic path order, so equal relations
    compare equal.
    """

    def __init__(self, terms: Iterable[tuple[Fraction | int | str, Path]]):
        merged: dict[Path, Fraction] = {}
        for coeff, path in terms:
            c = Fraction(coeff)
            merged[path] = merged.get(path, Fraction(0)) + c
        cleaned = [(c, p) for p, c in merged.items() if c != 0]
        if not cleaned:
            raise QuiverError("relation has no nonzero terms")
        paths = [p for _, p in cleaned]
        src, dst = paths[0].source, paths[0].target
        for p in paths:
            if p.source != src or p.target != dst:
                raise QuiverError("relation terms are not parallel")
            if p.length < 2:
                raise QuiverError(
                    f"relation term {p} has length {p.length} < 2")
        cleaned.sort(key=lambda t: t[1].sort_key())
        self.terms: tuple[tuple[Fraction, Path], ...] = tuple(cleaned)
        self.source: Vertex = src
        self.target: Vertex = dst

    @property
    def degree(self) -> int:
        return min(p.degree for _, p in self.terms)

    def paths(self) -> tuple[Path, ...]:
        return tuple(p for _, p in self.terms)

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def __eq__(self, other):
        return isinstance(other, Relation) and other.terms == self.terms

    def __hash__(self):
        return hash(self.terms)

    def __str__(self):
        parts = []
        for c, p in self.terms:
            prefix = "" if c == 1 else f"{c}*"
            parts.append(f"{prefix}{p}")
        return " + ".join(parts)

    def __repr__(self):
        return f"Relation({self})"


def monomial_relation(quiver: Quiver, arrow: str, k: int) -> Relation:
    return Relation([(1, power(quiver, arrow, k))])


def loop_power(rel: Relation, field: Field = QQ):
    """(loop, k) when ``rel`` is c * loop^k with c nonzero in ``field``, else
    None.  A relation's paths compose and have length at least 2, so a path
    that repeats one arrow repeats a loop."""
    if not rel.is_monomial():
        return None
    coeff, path = rel.terms[0]
    if len(set(path.arrows)) != 1 or field.coerce(coeff) == field.zero:
        return None
    return path.arrows[0], path.length


def degree(obj: Union[Path, Relation]) -> int:
    """Degree of a path or relation (loops count 0, other arrows 1)."""
    return obj.degree


def is_weakly_triangular(quiver: Quiver) -> bool:
    """True iff the quiver has no oriented cycle of positive degree.

    Equivalent test: no non-loop arrow x -> y admits a return path y -> x.
    """
    adj: dict[Vertex, set[Vertex]] = {v: set() for v in quiver.vertices}
    for a, s, t in quiver.arrows:
        if s != t:
            adj[s].add(t)

    def reaches(start: Vertex, goal: Vertex) -> bool:
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            if v == goal:
                return True
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return False

    return not any(s != t and reaches(t, s) for _, s, t in quiver.arrows)


# --- truncated path algebra -------------------------------------------


class AlgebraElement:
    """Element of the truncated path algebra kQ/J^bound.

    Stored as a path -> Fraction mapping; paths of length >= bound are
    dropped at construction.
    """

    def __init__(self, quiver: Quiver, bound: int,
                 coeffs: Mapping[Path, Fraction | int] | None = None):
        self.quiver = quiver
        self.bound = bound
        data = {}
        if coeffs:
            for path, c in coeffs.items():
                c = Fraction(c)
                if c != 0 and path.length < bound:
                    data[path] = data.get(path, Fraction(0)) + c
        self.coeffs: dict[Path, Fraction] = {p: c for p, c in data.items()
                                             if c != 0}

    @classmethod
    def from_path(cls, quiver: Quiver, bound: int, path: Path) -> "AlgebraElement":
        return cls(quiver, bound, {path: Fraction(1)})

    @classmethod
    def from_relation(cls, quiver: Quiver, bound: int,
                      rel: Relation) -> "AlgebraElement":
        return cls(quiver, bound, {p: c for c, p in rel.terms})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        merged = dict(self.coeffs)
        for p, c in other.coeffs.items():
            merged[p] = merged.get(p, Fraction(0)) + c
        return AlgebraElement(self.quiver, self.bound, merged)

    def scale(self, c) -> "AlgebraElement":
        c = Fraction(c)
        return AlgebraElement(self.quiver, self.bound,
                              {p: c * v for p, v in self.coeffs.items()})

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        out: dict[Path, Fraction] = {}
        for p1, c1 in self.coeffs.items():
            for p2, c2 in other.coeffs.items():
                if p2.target != p1.source:
                    continue
                if p1.length + p2.length >= self.bound:
                    continue
                prod = self.quiver.compose(p1, p2)
                out[prod] = out.get(prod, Fraction(0)) + c1 * c2
        return AlgebraElement(self.quiver, self.bound, out)

    def __eq__(self, other):
        return (isinstance(other, AlgebraElement)
                and other.coeffs == self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "AlgebraElement(0)"
        parts = [f"{c}*{p}" for p, c in sorted(self.coeffs.items(),
                                               key=lambda kv: kv[0].sort_key())]
        return f"AlgebraElement({' + '.join(parts)})"


class PathBasis:
    """Indexed path basis of kQ/J^bound (all paths of length < bound)."""

    def __init__(self, quiver: Quiver, bound: int):
        self.quiver = quiver
        self.bound = bound
        self.paths: list[Path] = quiver.paths_up_to(bound - 1)
        self.index: dict[Path, int] = {p: i for i, p in enumerate(self.paths)}

    @property
    def dim(self) -> int:
        return len(self.paths)

    def vector(self, elem: AlgebraElement, field: Field) -> tuple:
        v = [field.zero] * self.dim
        for path, c in elem.coeffs.items():
            v[self.index[path]] = field.coerce(c)
        return tuple(v)


# --- bound quiver presentations ----------------------------------------


class BoundQuiver:
    """Quiver plus relation generators and a truncation bound N.

    N certifies that every path of length N lies in the relation ideal.
    Building a presentation checks nothing of N: the first ``ideal_span``
    over a field verifies it there, by linear algebra in kQ/J^(N+1).  A
    check is made once per process for each distinct presentation value
    and field: equal presentations (same quiver, relations and N, whatever
    their names) share one checked span, and a failed check is not stored,
    so it fails again on every ideal query.  All values are immutable after
    construction.
    """

    def __init__(self, quiver: Quiver, relations: Sequence[Relation],
                 truncation_bound: int, name: str | None = None):
        if truncation_bound < 1:
            raise QuiverError("truncation bound must be at least 1")
        self.quiver = quiver
        self.relations: tuple[Relation, ...] = tuple(relations)
        self.truncation_bound = truncation_bound
        self.name = name or quiver.name
        for rel in self.relations:
            for _, p in rel.terms:
                for a in p.arrows:
                    if not quiver.has_arrow(a):
                        raise QuiverError(f"relation uses unknown arrow {a!r}")
        self._hash = hash((quiver, self.relations, truncation_bound))

    def _check_truncation_bound(self, field: Field) -> _Checked:
        """The relation ideal in kQ/J^(N+1) over the field, its relation
        pivots (``_relation_pivots``) and the path basis, once every path
        of length N is found in the ideal."""
        n = self.truncation_bound
        basis = self.path_basis(n + 1)
        span, pivots = _relation_pivots(self.relations, basis, field)
        for path in basis.paths:
            if path.length == n and not span.contains({basis.index[path]: 1}):
                raise QuiverError(
                    f"N={n} is not a truncation bound over {field}: path "
                    f"{path} of length {n} is not in the relation ideal")
        return span, pivots, basis

    def _checked(self, field: Field) -> _Checked:
        """This value's entry of ``_SPANS`` over the field.  It is built, and
        N checked over the field, on the first call in the process for an
        equal presentation and that field; raises QuiverError, on every
        call, when N is not a truncation bound over the field."""
        key = (self, field)
        if key not in _SPANS:
            _SPANS[key] = self._check_truncation_bound(field)
        return _SPANS[key]

    def ideal_span(self, field: Field = QQ) -> Subspace:
        """The relation ideal in kQ/J^(N+1) over the field, the span every
        ideal query works in (``_checked``)."""
        return self._checked(field)[0]

    def path_basis(self, bound: int | None = None) -> PathBasis:
        return PathBasis(self.quiver, bound or self.truncation_bound)

    def element(self, coeffs: Mapping[Path, Fraction | int],
                bound: int | None = None) -> AlgebraElement:
        return AlgebraElement(self.quiver, bound or self.truncation_bound,
                              coeffs)

    def __eq__(self, other):
        return (isinstance(other, BoundQuiver)
                and other.quiver == self.quiver
                and other.relations == self.relations
                and other.truncation_bound == self.truncation_bound)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return (f"BoundQuiver({self.name!r}, {len(self.relations)} relations, "
                f"N={self.truncation_bound})")


# (presentation, field) -> its ideal span in kQ/J^(N+1) over the field,
# the span's relation pivots and the path basis, for every value whose N
# was checked over that field in this process.
_Checked = tuple[Subspace, list[int], PathBasis]
_SPANS: dict[tuple[BoundQuiver, Field], _Checked] = {}


def _ideal_rows(relations: Sequence[Relation], basis: PathBasis
                ) -> list[tuple[bool, dict[int, Fraction]]]:
    """One (padded, {column: coefficient}) pair for every nonzero product
    p*rel*q in the basis's kQ/J^bound, p and q paths; padded says p or q
    is nontrivial, so the padded products span I*J + J*I.  A product is
    built by concatenating arrow sequences and keeps its terms of length
    < bound; its terms are distinct paths with the same endpoints.
    Relation terms have length >= 2, so p and q are shorter than
    bound - 2."""
    bound, index = basis.bound, basis.index
    paths = [p for p in basis.paths if p.length < bound - 2]
    rows = []
    for rel in relations:
        room = bound - min(p.length for _, p in rel.terms)
        lefts = [p for p in paths
                 if p.source == rel.target and p.length < room]
        rights = [p for p in paths
                  if p.target == rel.source and p.length < room]
        for left in lefts:
            for right in rights:
                pad = left.length + right.length
                if pad >= room:
                    continue
                rows.append((pad > 0, {
                    index[Path(left.arrows + p.arrows + right.arrows,
                               right.source, left.target,
                               left.degree + p.degree + right.degree)]: c
                    for c, p in rel.terms if pad + p.length < bound}))
    return rows


def ideal_subspace(pres: BoundQuiver, relations: Sequence[Relation] | None = None,
                   bound: int | None = None, field: Field = QQ) -> Subspace:
    """Span of the two-sided ideal generated by the relations inside
    kQ/J^bound, in the path basis.  Defaults: the presentation's own
    relations and truncation bound, coefficients over Q."""
    rels = pres.relations if relations is None else tuple(relations)
    basis = PathBasis(pres.quiver, bound or pres.truncation_bound)
    return _relation_pivots(rels, basis, field)[0]


def _relation_pivots(relations: Sequence[Relation], basis: PathBasis,
                     field: Field) -> tuple[Subspace, list[int]]:
    """The span I of the relations' products in the basis, and its relation
    pivots: the pivot columns the relations add to the span of their
    padded products, IJ + JI, so they index a basis of I/(IJ + JI).  Every
    product is corner-homogeneous, so every row is, and a pivot's path
    runs from its row's source to its target."""
    rows = _ideal_rows(relations, basis)
    span = Subspace(field, basis.dim, (v for padded, v in rows if padded))
    return span, span.extend(v for padded, v in rows if not padded)


def ideal_membership(elem: AlgebraElement, pres: BoundQuiver,
                     field: Field = QQ) -> bool:
    """True iff the element lies in the relation ideal of the presentation.

    The ideal contains J^N, so paths of length N or more are dropped and
    the rest is tested in kQ/J^(N+1).
    """
    n = pres.truncation_bound
    span, _, basis = pres._checked(field)
    return span.contains(
        {basis.index[p]: c for p, c in elem.coeffs.items() if p.length < n})


def _image(rel: Relation, pres: BoundQuiver,
           arrows: Mapping) -> AlgebraElement:
    """The relation with each arrow a replaced by sign * b, for
    arrows[a] = (sign, b), as an element of ``pres``'s path algebra."""
    return pres.element({
        pres.quiver.path([arrows[a][1] for a in p.arrows]):
            c * prod(arrows[a][0] for a in p.arrows) for c, p in rel.terms})


def is_isomorphism(source: BoundQuiver, target: BoundQuiver,
                   vertices: Mapping, arrows: Mapping,
                   fields: Sequence[Field] = (QQ,)) -> bool:
    """True iff the arrow map a -> sign * b, for arrows[a] = (sign, b),
    induces an isomorphism of the two bound path algebras over each field:
    every relation of ``source`` maps into the ideal of ``target`` and
    every relation of ``target`` maps back into the ideal of ``source``.
    Raises QuiverError unless ``vertices`` and ``arrows`` are bijections
    and each arrow a: x -> y goes to an arrow vertices[x] -> vertices[y]."""
    here, there = source.quiver, target.quiver
    inverse = {b: (sign, a) for a, (sign, b) in arrows.items()}
    if (set(vertices) != set(here.vertices)
            or set(vertices.values()) != set(there.vertices)
            or len(here.vertices) != len(there.vertices)
            or set(arrows) != set(here.arrow_names())
            or set(inverse) != set(there.arrow_names())
            or len(inverse) != len(arrows)):
        raise QuiverError("the vertex and arrow maps are not bijections")
    for a, s, t in here.arrows:
        sign, b = arrows[a]
        if sign not in (1, -1) or (there.source(b), there.target(b)) \
                != (vertices[s], vertices[t]):
            raise QuiverError(f"arrow {a!r} does not go to +-{b!r} with "
                              "matching endpoints")
    return all(ideal_membership(_image(rel, to, amap), to, field)
               for field in fields
               for rels, to, amap in ((source.relations, target, arrows),
                                      (target.relations, source, inverse))
               for rel in rels)


def _doubled(pres: BoundQuiver, sides, crossing, rels, name) -> BoundQuiver:
    """Two copies of ``pres`` (vertices <side><v>, arrows <side>_<a>) joined
    by the ``crossing`` arrows, with the relations of ``pres`` on both
    copies and those ``rels`` builds on the doubled quiver.

    Its truncation bound is 2N: a path crosses from the first copy to the
    second at most once, so any path of length 2N holds N consecutive
    arrows of one copy, a path in that copy's ideal."""
    quiver = pres.quiver
    arrows = [(f"{side}_{a}", f"{side}{s}", f"{side}{t}")
              for side in sides for a, s, t in quiver.arrows] + crossing
    doubled = Quiver([f"{side}{v}" for side in sides for v in quiver.vertices],
                     arrows, name=f"{name}({quiver.name})")
    copies = [Relation((c, doubled.path([f"{side}_{a}" for a in p.arrows]))
                       for c, p in rel.terms)
              for side in sides for rel in pres.relations]
    return BoundQuiver(doubled, copies + rels(doubled),
                       2 * pres.truncation_bound, name=f"{name}({pres.name})")


def hom_quiver(pres: BoundQuiver) -> BoundQuiver:
    """The doubled presentation whose representations are the Hom triples
    of ``pres``: a source copy (vertices s<v>, arrows s_<a>) and a target
    copy (t<v>, t_<a>) of the quiver, an arrow f<v>: s<v> -> t<v> for each
    vertex, the relations of ``pres`` on both copies, and f_t*s_a - t_a*f_s
    for each arrow a: s -> t, which says the maps f intertwine."""
    quiver = pres.quiver
    return _doubled(
        pres, "st", [(f"f{v}", f"s{v}", f"t{v}") for v in quiver.vertices],
        lambda doubled: [
            Relation([(1, doubled.path([f"f{t}", f"s_{a}"])),
                      (-1, doubled.path([f"t_{a}", f"f{s}"]))])
            for a, s, t in quiver.arrows], "Hom")


def ext_quiver(pres: BoundQuiver) -> BoundQuiver:
    """The doubled presentation whose representations are the extension
    triples of ``pres``: a quotient copy (vertices q<v>, arrows q_<a>) and
    a sub copy (u<v>, u_<a>) of the quiver, an arrow c_<a>: q<s> -> u<t>
    for each arrow a: s -> t, the relations of ``pres`` on both copies,
    and for each relation its linearization, the sum over its terms
    c * a_1..a_l and positions j of c * u(a_1..a_(j-1)) c_(a_j)
    q(a_(j+1)..a_l), which is the cocycle equation."""
    quiver = pres.quiver
    return _doubled(
        pres, "qu", [(f"c_{a}", f"q{s}", f"u{t}") for a, s, t in quiver.arrows],
        lambda doubled: [
            Relation((c, doubled.path([f"u_{a}" for a in p.arrows[:j]]
                                      + [f"c_{p.arrows[j]}"]
                                      + [f"q_{a}" for a in p.arrows[j + 1:]]))
                     for c, p in rel.terms for j in range(p.length))
            for rel in pres.relations], "Ext")


def loop_nilpotency_index(pres: BoundQuiver, loop: str,
                          field: Field = QQ) -> int:
    """Minimal m >= 1 with loop^m in the relation ideal."""
    if not pres.quiver.has_arrow(loop):
        raise QuiverError(f"unknown arrow {loop!r}")
    if not pres.quiver.is_loop(loop):
        raise QuiverError(f"{loop!r} is not a loop")
    n = pres.truncation_bound
    span, _, basis = pres._checked(field)
    for m in range(1, n + 1):
        if span.contains({basis.index[power(pres.quiver, loop, m)]: 1}):
            return m
    raise QuiverError(
        f"no power of {loop!r} up to {n} lies in the ideal; "
        "the truncation bound is inconsistent")


def is_minimal_relation_set(relations: Sequence[Relation], pres: BoundQuiver,
                            field: Field = QQ) -> bool:
    """True iff the set generates the presentation's ideal and dropping any
    single relation strictly shrinks it.

    Computed in kQ/J^(N+1): one step beyond the truncation bound, where the
    comparison is insensitive to further enlarging the bound, by one count:
    the set must be a basis of I/(IJ + JI) (``_products``).
    """
    return _products(pres, tuple(relations), field)[0]


def _products(pres: BoundQuiver, relations: Sequence[Relation],
              field: Field) -> tuple[bool, list[Path]]:
    """Whether the relations are minimal, and the paths at their relation
    pivots in kQ/J^(N+1) (``_relation_pivots``).  Raises QuiverError
    unless they span the ideal I.  The presentation's own relations read
    the pivots kept with its checked span; another set is spanned once and
    compared with it.  J is nilpotent there, so by Nakayama the set is
    minimal iff dim I/(IJ + JI), its number of relation pivots, is its
    size."""
    ideal, pivots, basis = pres._checked(field)
    if tuple(relations) != pres.relations:
        span, pivots = _relation_pivots(relations, basis, field)
        if span != ideal:
            raise QuiverError(
                "the given relations do not generate the presentation's ideal")
    return len(pivots) == len(relations), [basis.paths[c] for c in pivots]


def is_normalized_relation_set(relations: Sequence[Relation],
                               pres: BoundQuiver, field: Field = QQ) -> bool:
    """True iff the set is minimal, generating, and for every loop a the
    power a^(m_a) appears in the set as the unique element with a summand
    containing a^(m_a) as a subpath."""
    rels = tuple(relations)
    if not is_minimal_relation_set(rels, pres, field=field):
        raise QuiverError("relation set is not minimal")
    quiver = pres.quiver
    for loop in quiver.loops():
        m = loop_nilpotency_index(pres, loop, field=field)
        loop_power = power(quiver, loop, m)
        holders = [rel for rel in rels
                   if any(p.contains_subpath(loop_power) for p in rel.paths())]
        if len(holders) != 1:
            return False
        holder = holders[0]
        if not (holder.is_monomial() and holder.paths() == (loop_power,)):
            return False
    return True


def ext2_dimension(pres: BoundQuiver, relations: Sequence[Relation],
                   x: Vertex, y: Vertex,
                   field: Field = QQ) -> tuple[int, int]:
    """Relation count from x to y in a minimal generating set, paired with
    the dimension of the corresponding corner of I/(IJ + JI): the number
    of the set's relation pivots (``_products``) whose path runs x -> y.
    A minimal set's relations are a basis of I/(IJ + JI), so the two agree
    by construction; ROADMAP item 8 plans an independent check (Ext² by
    syzygies)."""
    for v in (x, y):
        if v not in pres.quiver.vertices:
            raise QuiverError(f"unknown vertex {v!r}")
    if x == y:
        raise QuiverError("the relation-count formula requires x != y")
    if not is_weakly_triangular(pres.quiver):
        raise QuiverError("presentation is not weakly triangular")
    rels = tuple(relations)
    minimal, paths = _products(pres, rels, field)
    if not minimal:
        raise QuiverError("relation set is not a minimal generating set")
    count = sum(1 for rel in rels if rel.source == x and rel.target == y)
    return count, sum(1 for p in paths if p.source == x and p.target == y)


def is_simple_loop_extension(pres: BoundQuiver) -> bool:
    """True iff every generating relation is a combination of words in the
    loops at one vertex and no vertex carries more than one loop."""
    quiver = pres.quiver
    for x in quiver.vertices:
        if len(quiver.loops_at(x)) > 1:
            return False
    for rel in pres.relations:
        for p in rel.paths():
            if any(not quiver.is_loop(a) for a in p.arrows):
                return False
            anchors = {quiver.source(a) for a in p.arrows}
            if len(anchors) > 1:
                return False
    return True


def _support_of_path(quiver: Quiver, path: Path) -> frozenset:
    visited = {path.target}
    for a in path.arrows:
        visited.add(quiver.source(a))
        visited.add(quiver.target(a))
    return frozenset(visited)


def decompose_by_support(rel: Relation, quiver: Quiver) -> dict[frozenset, Relation]:
    """Partition a relation as a sum of sub-relations grouped by the vertex
    set each term visits; the pieces sum back to the input."""
    groups: dict[frozenset, list] = {}
    for coeff, path in rel.terms:
        key = _support_of_path(quiver, path)
        groups.setdefault(key, []).append((coeff, path))
    return {k: Relation(v) for k, v in groups.items()}
