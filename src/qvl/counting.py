"""Exhaustive point enumeration of representation-type varieties over F_q.

Counts are exact: a point is counted only after its defining equations are
checked, and linear fibers (homomorphism spaces, cocycle spaces, arrow
blocks constrained linearly by relations) are kernels of systems and are
counted through their dimension instead of being walked pointwise.  Each
walk compiles the layout of its systems once, as a ``linalg.SandwichPlan``,
and applies it to every point.  Walks stream flat points from the loop
locus up: a point of a variety is a tuple of its coordinates (every
arrow's entries, arrows in declaration order, row-major), a loop point the
entries of the loops alone, and a point of a linear fiber a vector in the
plan's layout.  The fiber systems are assembled straight from flat points.
``Representation``, ``Morphism``, ``HomTriple`` and ``ExtensionTriple``
objects are built only by the public iterators; the counts, the census and
the witness read the flat points.

Every walk takes its loop points, each with the number of loop points it
stands for, from one source, ``_loop_points``.  Where the loop locus is not
stratified by Jordan type (``qvl.strata``), that is every loop point a
filter over all q^(loop coordinates) of them accepts, with weight 1.  Where
it is, a count takes the Jordan matrix J_lam of each row of the stratum
table weighted by its orbit size: what a count sums (a linear fiber's
dimension, dim Hom, dim of a cocycle space, the number of injective
homomorphisms) is unchanged by conjugating the loop vertices, so J_lam
stands for its orbit; the witness reads the rows the same way.  Walks
that must visit every point (the public iterators and the census) take
each orbit instead, closing J_lam under elementary conjugations.

Each point splits into base matrices and linear ones.  The base is every
loop plus a set of non-loop arrows: relations that use only base arrows are
checked on each base point, and every other relation must have exactly one
non-base arrow in each term, so that it is linear in the non-base arrows
once the base is fixed.  The loops-only base is taken whenever it qualifies
(every named family); otherwise the qualifying set of non-loop arrows from
the relations with the fewest matrix entries is added ({a} for b*a, {a, c}
for b*a - d*c).  The set of all of them always qualifies, so nothing falls
back to the ambient odometer, ``iter_rep_points_odometer``, which stays as
the test oracle.  Base points are the loop points crossed with every
assignment of the base non-loop arrows that satisfies the base relations.
The loop filter and this base walk are one assignment walk,
``_assignments``: the filter extends the empty point by the loops, the base
walk a loop point by the base arrows.
Counts take the rank rows of the table instead where the base arrows have
them: GL at the ends of a base arrow carries the fiber over a base point
onto the fiber over its image.  Hom, mono and ext counts and walks take
their pairs of points from one loop, ``_pairs``.  The mono iterator is
hom with one injectivity test, ``_injective``; the mono count takes each
pair's Moebius sum over the subspace lattice where it has fewer terms
than the Hom space has vectors, and walks the vectors with ``_injective``
elsewhere (``_mono_counter``).  A span is walked at one vector add per
element (``_span``), and a variety's points are spanned straight from each
base point lifted to the flat layout.

The enumeration order is fixed and stratum-major: strata in loop declaration
order with partitions largest part first, each orbit breadth-first from
J_lam, then the base non-loop arrows over each loop point in
itertools.product order, then the linear fiber over each base point (arrows
in declaration order, matrix entries row-major, field elements ascending),
so identical queries give identical traversals.  The budget counts the
steps actually taken: one per filter candidate, per base point tried, per
loop point or point walked, per pair of points, and per term of a mono
count's Moebius sum or vector of a Hom space it walks.  A count (rep, hom,
mono or ext) whose rows fix the whole base point takes one step per row of
each factor's stratum table, planned from the row count before any
partition or orbit size is computed.

Counts are evidence, never proof; the certificates are in ``qvl.certificates``.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Mapping, Optional, Sequence

from .extensions import (ExtensionTriple, block_shapes, cocycle_fiber,
                         linearized_equations)
from .linalg import PrimeField, SandwichPlan, split_blocks
from .quiver import BoundQuiver
from .reps import (HomTriple, Morphism, Representation, evaluate_relation,
                   flat_layout, hom_fiber)
from .strata import StratumTable, subspace_count, subspaces

DEFAULT_BUDGET = 10**8


class BudgetExceededError(RuntimeError):
    pass


def default_budget() -> int:
    raw = os.environ.get("QVL_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"QVL_BUDGET must be an integer, got {raw!r}") from exc
    if value <= 0:
        raise ValueError("QVL_BUDGET must be positive")
    return value


class _Meter:
    """Counts explicit enumeration steps against the budget, by default
    ``default_budget()``.

    Every walk given no meter runs under a fresh default one.  Every walk
    plans its steps with ``precheck`` before taking them with
    ``tick``, so ``planned`` is the number of steps the run has planned so
    far and an error can say how far the run got."""

    __slots__ = ("budget", "used", "planned")

    def __init__(self, budget: int | None = None):
        self.budget = budget if budget is not None else default_budget()
        self.used = 0
        self.planned = 0

    def _stop(self, planned: int):
        raise BudgetExceededError(
            f"stopped after {self.used} of {planned} planned steps: "
            f"the budget is {self.budget}")

    def tick(self, k: int = 1):
        if self.used + k > self.budget:
            self._stop(max(self.planned, self.used + k))
        self.used += k

    def precheck(self, planned: int):
        if planned > self.budget - self.used:
            self._stop(self.planned + planned)
        self.planned += planned


# --- task descriptions ---------------------------------------------------


# The EnumerationTask fields that hold each kind's dimension vectors, one
# per factor variety, in factor order: the order the kind's count function
# takes them in.
TASK_DIMS = {"rep": ("dims",),
             "hom": ("source_dims", "target_dims"),
             "mono": ("source_dims", "target_dims"),
             "ext": ("quo_dims", "sub_dims")}


@dataclass
class EnumerationTask:
    """One counting job: a variety kind, its data, and a step budget."""

    kind: str
    pres: Optional[BoundQuiver] = None
    field: Optional[PrimeField] = None
    dims: Optional[Mapping] = None         # rep
    source_dims: Optional[Mapping] = None  # hom / mono
    target_dims: Optional[Mapping] = None  # hom / mono
    quo_dims: Optional[Mapping] = None     # ext
    sub_dims: Optional[Mapping] = None     # ext
    budget: Optional[int] = None           # None: default_budget()

    def __post_init__(self):
        if self.kind not in TASK_DIMS:
            raise ValueError(f"unknown task kind {self.kind!r}")
        if self.pres is None or self.field is None:
            raise ValueError("variety tasks need pres and field")
        if not isinstance(self.field, PrimeField):
            raise ValueError("points are counted over a prime field F_p, "
                             f"not {self.field!r}")
        if None in self.factors():
            raise ValueError(f"{self.kind} tasks need "
                             + " and ".join(TASK_DIMS[self.kind]))

    def factors(self) -> tuple:
        """The dimension vector of each factor variety, in factor order."""
        return tuple(getattr(self, name) for name in TASK_DIMS[self.kind])


def rep_ambient_dim(pres: BoundQuiver, dims: Mapping) -> int:
    return sum(dims.get(t, 0) * dims.get(s, 0)
               for _, s, t in pres.quiver.arrows)


def ambient_dimension(task: EnumerationTask) -> int:
    """Coordinate count of the affine space the variety naturally sits in:
    every factor's arrows, then a pair's vertex maps or arrow blocks."""
    pres, factors = task.pres, task.factors()
    dim = sum(rep_ambient_dim(pres, dims) for dims in factors)
    if task.kind in ("hom", "mono"):    # a map f_x per vertex
        source, target = factors
        dim += sum(target.get(x, 0) * source.get(x, 0)
                   for x in pres.quiver.vertices)
    elif task.kind == "ext":            # a block per arrow
        quo, sub = factors
        dim += sum(r * c for r, c in block_shapes(pres, sub, quo).values())
    return dim


# --- representation points ----------------------------------------------


def iter_rep_points_odometer(pres: BoundQuiver, field: PrimeField,
                             dims: Mapping, meter: _Meter | None = None
                             ) -> Iterator[Representation]:
    """Walk the full ambient coordinate space and keep the valid points."""
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


def _classify_relations(pres: BoundQuiver, base: Sequence[str] = ()):
    """Split relations into base and linear classes, for the base made of
    every loop and the non-loop arrows in ``base``.

    Returns (base_rels, linear_rels), where a base relation uses only base
    arrows and every term of a linear one has exactly one non-base arrow, or
    None when some relation fits neither class (a term with two or more
    non-base arrows, or a mix of base-only terms and terms with one)."""
    quiver = pres.quiver
    base_rels, linear_rels = [], []
    for rel in pres.relations:
        arrow_counts = {sum(0 if quiver.is_loop(a) or a in base else 1
                            for a in p.arrows)
                        for p in rel.paths()}
        if arrow_counts == {0}:
            base_rels.append(rel)
        elif arrow_counts == {1}:
            linear_rels.append(rel)
        else:
            return None
    return base_rels, linear_rels


def _choose_base(pres: BoundQuiver, dims: Mapping, base=None):
    """(base arrows, loop-only relations, other base relations, linear
    relations) for the walk.

    A given ``base`` of non-loop arrows is only checked: ValueError unless
    it qualifies.  Otherwise the loops-only base is taken whenever it
    qualifies (every named family).  Failing that, every qualifying set of
    non-loop arrows that occur in relations is tried, and the one with the
    fewest matrix entries at ``dims`` wins; ties go to fewer arrows, then
    to the earlier arrows in declaration order.  The set of all of them
    always qualifies, since every relation then becomes a base relation.
    The search classifies 2^k sets for k such arrows."""
    split = _classify_relations(pres, base or ())
    if split is None and base is not None:
        raise ValueError(f"the arrows {tuple(base)} are not a base: some "
                         "relation is not linear above them")
    base = base or ()
    if split is None:
        quiver = pres.quiver
        used = {a for rel in pres.relations for p in rel.paths()
                for a in p.arrows}
        bearing = [a for a in quiver.arrow_names()
                   if a in used and not quiver.is_loop(a)]
        layout = flat_layout(pres, dims)
        base = min((subset for r in range(1, len(bearing) + 1)
                    for subset in itertools.combinations(bearing, r)
                    if _classify_relations(pres, subset) is not None),
                   key=lambda subset: sum(layout[a][1] * layout[a][2]
                                          for a in subset))
        split = _classify_relations(pres, base)
    base_rels, linear_rels = split
    loop_rels, arrow_rels = [], []
    for rel in base_rels:
        loops_only = all(pres.quiver.is_loop(a)
                         for p in rel.paths() for a in p.arrows)
        (loop_rels if loops_only else arrow_rels).append(rel)
    return base, loop_rels, arrow_rels, linear_rels


def _arrow_plan(pres: BoundQuiver, field, dims, base, linear_rels):
    """Layout of the linear system that the entries of the arrows outside
    ``base`` (every loop is in it) satisfy once the base matrices are
    fixed: the linear relations, linearized in those arrows.  Returns the
    plan and a function from a base point, the entries of every loop and
    then of the arrows in ``base`` (as ``flat_layout`` lays them out), to
    the kernel basis of the system there."""
    walked = [*pres.quiver.loops(), *base]
    shapes = {a: (r, c) for a, (_, r, c) in flat_layout(pres, dims).items()
              if a not in walked}
    plan = SandwichPlan(field, shapes, linearized_equations(
        field, linear_rels, shapes, dims, dims))
    layout = flat_layout(pres, dims, walked)
    kernel = plan.flat_kernel(layout, layout)
    return plan, lambda point: kernel(point, point)


def _assignments(pres: BoundQuiver, field, dims, point: tuple, arrows,
                 rels, meter: _Meter):
    """The flat point ``point``, the entries of every loop outside
    ``arrows``, extended by every assignment of ``arrows`` on which
    ``rels`` vanish (the loop filter extends () by the loops, the base walk
    a loop point by the base arrows): one step planned per candidate, taken
    in itertools.product order (arrows in the order given, entries
    row-major).  Without arrows ``point`` is its only extension and costs
    nothing."""
    if not arrows:
        yield point
        return
    fixed = [a for a in pres.quiver.loops() if a not in arrows]
    shapes = {a: (r, c) for a, (_, r, c)
              in flat_layout(pres, dims, [*fixed, *arrows]).items()}
    mats = split_blocks(field, {a: shapes.pop(a) for a in fixed}, point)
    total = sum(r * c for r, c in shapes.values())
    meter.precheck(field.p ** total)
    for values in itertools.product(field.elements(), repeat=total):
        meter.tick()
        mats.update(split_blocks(field, shapes, values))
        if all(evaluate_relation(field, dims, mats, rel).is_zero()
               for rel in rels):
            yield point + values


def _loop_points(pres: BoundQuiver, field, dims, loop_rels, meter: _Meter,
                 orbits: bool, table: StratumTable):
    """(flat loop point, number of points it stands for) over the loop
    locus, each extended by the rank rows of ``table`` where it has them,
    in the fixed order: every loop point the filter accepts where the locus
    is not stratified; else with ``orbits`` every point of each stratum
    once; else each row of ``table``.  Orbit points, and rows that fix the
    whole base point, take one step each, all planned up front."""
    if table.loops is None:
        for point in _assignments(pres, field, dims, (), pres.quiver.loops(),
                                  loop_rels, meter):
            yield from ((point + tail, w) for tail, w in table.rows())
    elif orbits:
        meter.precheck(table.size())
        for point in table.orbit_points():
            meter.tick()
            yield point, 1
    elif table.arrows is None:
        yield from table.rows()
    else:
        meter.precheck(table.row_count())
        for row in table.rows():
            meter.tick()
            yield row


def _fibers(pres: BoundQuiver, field, dims, meter: _Meter, orbits: bool,
            base=None):
    """The walk of the variety with these dims: the arrows in the order a
    walked point lays them out (every loop, the base arrows, then the rest
    in declaration order), and a stream of (flat base point, weight, kernel
    basis of the linear fiber there) over the base points above each
    weighted loop point of ``_loop_points``, which already hold the base
    arrows where a count has rank strata for them.  The strata and the
    arrow system's layout are set up once for the walk.  A given ``base``
    is walked in place of the one ``_choose_base`` would search for."""
    base, loop_rels, base_rels, linear_rels = _choose_base(pres, dims, base)
    plan, kernel = _arrow_plan(pres, field, dims, base, linear_rels)
    table = StratumTable(pres, field, dims, loop_rels,
                         None if orbits else base, base_rels)

    def stream():
        for loops, weight in _loop_points(pres, field, dims, loop_rels, meter,
                                          orbits, table):
            for point in ((loops,) if table.arrows is not None else
                          _assignments(pres, field, dims, loops, base,
                                       base_rels, meter)):
                yield point, weight, kernel(point)

    return [*pres.quiver.loops(), *base, *plan.shapes], stream()


def _points_over(pres: BoundQuiver, field, dims, meter: _Meter,
                 orbits: bool, base=None) -> Iterator[tuple]:
    """(point, weight) for every point of the linear fiber over each base
    point of ``_fibers`` (with ``orbits`` every point of the variety once,
    with weight 1).  A point is flat, as ``flat_layout`` lays it out: every
    arrow's entries, arrows in declaration order, row-major.  Each base
    point and kernel vector is lifted once to that layout, so the fiber is
    spanned straight from the lifted base point."""
    walked, fibers = _fibers(pres, field, dims, meter, orbits, base)
    # the place of each coordinate of the base point, then of the fiber
    # vector, in the flat point
    layout = flat_layout(pres, dims)
    places = [i for a in walked for start, r, c in (layout[a],)
              for i in range(start, start + r * c)]

    def lift(vec, at):
        full = [0] * len(places)
        for i, x in zip(at, vec):
            full[i] = x
        return full

    for point, weight, basis in fibers:
        at = places[len(point):]
        for full in _walk_fiber(field, len(places),
                                [lift(vec, at) for vec in basis], meter,
                                lift(point, places)):
            yield tuple(full), weight


def _rep_builder(pres: BoundQuiver, field: PrimeField, dims):
    """A function from a flat point with these dims to its
    ``Representation``, built without re-validation.  An arrow's matrix is
    cut only where its entries differ from the previous point's, as the
    walks stream the points above each loop point together."""
    full_dims = {x: dims.get(x, 0) for x in pres.quiver.vertices}
    layout = flat_layout(pres, dims)
    last = {a: (None, None) for a in layout}    # entries, matrix

    def build(point):
        mats = {}
        for a, (start, r, c) in layout.items():
            entries = point[start:start + r * c]
            seen, mat = last[a]
            if entries != seen:
                mat = split_blocks(field, {a: (r, c)}, entries)[a]
                last[a] = entries, mat
            mats[a] = mat
        return Representation._trusted(pres, field, full_dims, mats)

    return build


def iter_rep_points(pres: BoundQuiver, field: PrimeField, dims: Mapping,
                    meter: _Meter | None = None) -> Iterator[Representation]:
    """Deterministic, duplicate-free stream of all variety points: every
    point of the linear fiber over each base point, above every point of
    the loop locus.  ``iter_rep_points_odometer`` gives the same points."""
    build = _rep_builder(pres, field, dims)
    for point, _ in _points_over(pres, field, dims, meter or _Meter(),
                                 orbits=True):
        yield build(point)


def count_rep_points(pres: BoundQuiver, field: PrimeField, dims: Mapping,
                     budget: int | None = None) -> int:
    """Exact number of valid points: the sum of weight * q^(free linear
    coordinates) over the weighted base points of ``_fibers``."""
    _, fibers = _fibers(pres, field, dims, _Meter(budget), orbits=False)
    return sum(weight * field.p ** len(basis) for _, weight, basis in fibers)


# --- hom / mono / ext points ---------------------------------------------


def _span(field: PrimeField, kernel: Sequence[Sequence[int]], size: int,
          start: Optional[list] = None) -> Iterator[list]:
    """``start`` (zero by default) plus every linear combination of the
    kernel vectors, as a list of ``size`` entries, with coefficients in
    itertools.product order (the last one varies fastest).  Where kernel[i]
    steps up, every later coefficient wraps from p - 1 to 0, and p times a
    vector is zero: so each vector is the previous one plus the step
    kernel[i] + kernel[i + 1] + ... + kernel[-1], computed once per i."""
    p = field.p
    steps, tail = [], [0] * size    # steps[j]: the step of kernel[-1 - j]
    for vec in reversed(kernel):
        tail = [(x + y) % p for x, y in zip(tail, vec)]
        steps.append(tail)
    acc = start or [0] * size
    coeffs = [0] * len(kernel)      # coeffs[j]: of kernel[-1 - j]
    while True:
        yield acc
        j = 0
        while j < len(coeffs) and coeffs[j] == p - 1:
            coeffs[j] = 0
            j += 1
        if j == len(coeffs):
            return
        coeffs[j] += 1
        acc = [(x + y) % p for x, y in zip(acc, steps[j])]


def _walk_fiber(field: PrimeField, size: int, kernel, meter: _Meter,
                start: Optional[list] = None):
    """Every element of ``start`` plus the span of ``kernel``, as a list of
    ``size`` entries in ``_span`` order, with one step planned and taken
    per element."""
    meter.precheck(field.p ** len(kernel))
    for vec in _span(field, kernel, size, start):
        meter.tick()
        yield vec


def _pairs(pres: BoundQuiver, field: PrimeField, first_dims, second_dims,
           kernel, meter: _Meter, orbits: bool):
    """(x, y, wx * wy, kernel(x, y)) for each (x, wx) of the first variety's
    ``_points_over`` and (y, wy) of the second's, listed once before the
    first is streamed; each x plans one step per y, each pair takes one."""
    seconds = list(_points_over(pres, field, second_dims, meter, orbits))
    for x, wx in _points_over(pres, field, first_dims, meter, orbits):
        meter.precheck(len(seconds))
        for y, wy in seconds:
            meter.tick()
            yield x, y, wx * wy, kernel(x, y)


def _iter_pair_fibers(pres: BoundQuiver, field: PrimeField, first_dims,
                      second_dims, shapes, kernel, meter: _Meter | None):
    """(x, y, vec) for each pair (x, y) of ``_pairs`` and every vec in the
    span of ``kernel(x, y)``: a flat vector in the layout of the block
    ``shapes`` (as hom_fiber and cocycle_fiber give them)."""
    meter = meter or _Meter()
    size = sum(r * c for r, c in shapes.values())
    for x, y, _, basis in _pairs(pres, field, first_dims, second_dims,
                                 kernel, meter, orbits=True):
        for vec in _walk_fiber(field, size, basis, meter):
            yield x, y, vec


def _injective(field: PrimeField, shapes: Mapping):
    """The test that a flat Hom vector with these vertex map ``shapes`` has
    full column rank at every vertex: every column of every map a pivot."""
    maps, size = [], 0
    for r, c in shapes.values():
        if c:
            maps.append((range(size, size + r * c, c), c))
        size += r * c
    return lambda vec: all(len(field.row_reduce([vec[i:i + c] for i in rows],
                                                c)[1]) == c
                           for rows, c in maps)


def _mono_counter(field: PrimeField, shapes: Mapping):
    """The function (Hom kernel basis, meter) -> the number of vectors in
    its span that are injective at every vertex map of these ``shapes``.

    By Moebius inversion on the subspace lattice (Stanley, EC1 3.10:
    mu(0, U) = (-1)^k q^(k(k-1)/2) for dim U = k) that number is the sum,
    over the choices of a subspace U_v of F_q^(c_v) for each map of c_v
    columns, of prod_v mu(0, U_v) * q^(dim of the span vanishing on every
    U_v): one rank per term.  The T = prod_v (subspaces of F_q^(c_v)) terms
    are counted in closed form; a basis of dimension d takes them, T steps
    planned before any subspace is listed, where T < q^d, and otherwise
    walks its q^d vectors with ``_injective``."""
    p = field.p
    injective = _injective(field, shapes)
    size = sum(r * c for r, c in shapes.values())
    maps, pos = [], 0
    for r, c in shapes.values():
        if c:
            maps.append((pos, r, c))
        pos += r * c
    terms = math.prod(subspace_count(c, p) for _, _, c in maps)
    lattices = None    # (mu, basis) of every subspace of each map's columns

    def count(basis, meter):
        nonlocal lattices
        d = len(basis)
        if terms >= p ** d:
            return sum(map(injective, _walk_fiber(field, size, basis, meter)))
        meter.precheck(terms)
        if lattices is None:
            lattices = [[((-1) ** k * p ** (k * (k - 1) // 2), us)
                         for us in subspaces(p, c) for k in (len(us),)]
                        for _, _, c in maps]
        # for each map and subspace: mu, and the functionals phi -> row a of
        # phi_v times u, for each u of the subspace's basis, read on basis
        choices = []
        for (pos, r, c), lattice in zip(maps, lattices):
            rows = [[vec[at:at + c] for vec in basis]
                    for at in range(pos, pos + r * c, c)]
            choices.append([(mu, [[sum(map(operator.mul, x, u)) for x in row]
                                  for u in us for row in rows])
                            for mu, us in lattice])
        total = 0
        for choice in itertools.product(*choices):
            meter.tick()
            rank = len(field.row_reduce(
                [f for _, fs in choice for f in fs], d)[1])
            total += math.prod(mu for mu, _ in choice) * p ** (d - rank)
        return total

    return count


def _iter_pair_points(pres: BoundQuiver, field: PrimeField, first_dims,
                      second_dims, fiber, meter: _Meter | None, test=None):
    """(x, y, blocks) for each (x, y, vec) of ``_iter_pair_fibers`` over
    ``fiber`` whose vec passes ``test(field, shapes)``, if given: x and y
    as ``Representation``s, one per distinct point, vec cut into blocks."""
    shapes, kernel = fiber(pres, field, first_dims, second_dims)
    keep = test and test(field, shapes)
    first = _rep_builder(pres, field, first_dims)
    second = functools.cache(_rep_builder(pres, field, second_dims))
    x = None
    for fx, fy, vec in _iter_pair_fibers(pres, field, first_dims,
                                         second_dims, shapes, kernel, meter):
        if keep and not keep(vec):
            continue
        if fx is not x:
            x, src = fx, first(fx)
        yield src, second(fy), split_blocks(field, shapes, vec)


def _count_pairs(pres: BoundQuiver, field: PrimeField, first_dims,
                 second_dims, fiber, budget: int | None,
                 counter=None) -> int:
    """Sum over the weighted pairs of ``_pairs`` of the size of the linear
    fiber of ``fiber`` (hom_fiber or cocycle_fiber) over each: q^dim, or
    what ``counter(field, shapes)`` counts from the kernel basis and the
    meter.  Conjugating the loop vertices carries the points above J_lam
    onto isomorphic points above its conjugates and keeps each size, so
    each pair of weighted points stands for its weight."""
    shapes, kernel = fiber(pres, field, first_dims, second_dims)
    fiber_size = (counter(field, shapes) if counter
                  else lambda basis, _: field.p ** len(basis))
    meter = _Meter(budget)
    pairs = _pairs(pres, field, first_dims, second_dims, kernel, meter,
                   orbits=False)
    return sum(w * fiber_size(basis, meter) for _, _, w, basis in pairs)


def iter_hom_points(pres: BoundQuiver, field: PrimeField, source_dims,
                    target_dims, meter: _Meter | None = None
                    ) -> Iterator[HomTriple]:
    for src, dst, maps in _iter_pair_points(pres, field, source_dims,
                                            target_dims, hom_fiber, meter):
        yield HomTriple(src, dst, Morphism._trusted(src, dst, maps))


def count_hom_points(pres: BoundQuiver, field: PrimeField, source_dims,
                     target_dims, budget: int | None = None) -> int:
    """Sum of q^dim Hom over all source/target point pairs."""
    return _count_pairs(pres, field, source_dims, target_dims, hom_fiber,
                        budget)


def iter_mono_points(pres: BoundQuiver, field: PrimeField, source_dims,
                     target_dims, meter: _Meter | None = None
                     ) -> Iterator[HomTriple]:
    """Monomorphism triples: the hom points whose Hom vector passes
    ``_injective``, tested before a triple is built."""
    for src, dst, maps in _iter_pair_points(pres, field, source_dims,
                                            target_dims, hom_fiber, meter,
                                            _injective):
        yield HomTriple(src, dst, Morphism._trusted(src, dst, maps))


def count_mono_points(pres: BoundQuiver, field: PrimeField, source_dims,
                      target_dims, budget: int | None = None) -> int:
    """Number of injective homomorphisms over all source/target pairs,
    each pair's by ``_mono_counter``."""
    return _count_pairs(pres, field, source_dims, target_dims, hom_fiber,
                        budget, _mono_counter)


def iter_ext_points(pres: BoundQuiver, field: PrimeField, quo_dims, sub_dims,
                    meter: _Meter | None = None):
    """Extension triples (quotient point, sub point, cocycle blocks)."""
    for quo, sub, blocks in _iter_pair_points(pres, field, quo_dims,
                                              sub_dims, cocycle_fiber, meter):
        yield ExtensionTriple(quo, sub, blocks, check=False)


def count_ext_points(pres: BoundQuiver, field: PrimeField, quo_dims, sub_dims,
                     budget: int | None = None) -> int:
    """Sum of q^dim of the cocycle space over all quotient/sub pairs."""
    return _count_pairs(pres, field, quo_dims, sub_dims, cocycle_fiber,
                        budget)


_COUNTS = {"rep": count_rep_points, "hom": count_hom_points,
           "mono": count_mono_points, "ext": count_ext_points}


def count_points(task: EnumerationTask) -> int:
    """Exact point count of the task's variety over its finite field."""
    return _COUNTS[task.kind](task.pres, task.field, *task.factors(),
                              budget=task.budget)


# --- degree probe -------------------------------------------------------


@dataclass
class ProbeReport:
    """Leading-term fit of point counts: evidence only, never proof."""

    counts: dict
    degree: Optional[int]
    coefficients: dict
    looks_affine: bool
    note: str


def _nearest_degree(q1: int, c1: int, q2: int, c2: int) -> int:
    """The integer D with (q2/q1)^(2D-1) <= (c2/c1)^2 < (q2/q1)^(2D+1),
    that is log(c2/c1) / log(q2/q1) rounded half up, by comparing integer
    cross-products (q1 < q2, both counts positive)."""
    def reaches(e: int) -> bool:    # (c2/c1)^2 >= (q2/q1)^e
        if e >= 0:
            return c2 * c2 * q1 ** e >= c1 * c1 * q2 ** e
        return c2 * c2 * q2 ** -e >= c1 * c1 * q1 ** -e

    degree = 0
    while reaches(2 * degree + 1):
        degree += 1
    while not reaches(2 * degree - 1):
        degree -= 1
    return degree


def leading_coefficient_probe(task_for_q: Callable[[int], EnumerationTask],
                              qs: Sequence[int]) -> ProbeReport:
    """Fit exact counts against c * q^D for the best integer D.

    D is the slope of log count against log q between the two largest field
    sizes (or from the single available one to q = 1, count = 1), rounded
    half up in integer arithmetic; the per-q coefficients count/q^D are
    reported exactly.  A constant coefficient 1 is what an affine space
    gives; anything else is flagged as inconclusive evidence.
    """
    if not qs:
        raise ValueError("at least one field size is required")
    counts = {q: count_points(task_for_q(q)) for q in sorted(qs)}
    usable = {q: c for q, c in counts.items() if c > 0}
    if not usable:
        return ProbeReport(counts, None, {}, False,
                           "all counts are zero; no degree fit possible")
    (q1, c1), (q2, c2) = [(1, 1), *sorted(usable.items())][-2:]
    degree = max(_nearest_degree(q1, c1, q2, c2), 0)
    coefficients = {q: Fraction(c, q ** degree) for q, c in counts.items()}
    looks_affine = all(c == 1 for c in coefficients.values())
    note = ("counts match q^D exactly; consistent with an affine space "
            "(evidence only, not a proof of irreducibility)"
            if looks_affine else
            "coefficients deviate from 1; inconclusive by design: finite "
            "field counts cannot certify irreducibility")
    return ProbeReport(counts, degree, coefficients, looks_affine, note)
