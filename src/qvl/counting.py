"""Exhaustive point enumeration of representation-type varieties over F_q.

Counts are exact: a point is counted only after its defining equations are
checked, and linear fibers are kernels of systems, counted through their
dimension instead of being walked pointwise.  Each walk compiles the layout
of its systems once, as a ``linalg.SandwichPlan``, and applies it to every
point.  The compiled tower (the layers, each layer's plan and the stratum
table) is kept for the last 64 (presentation value, field, dims, orbits,
top) in the process (``_compiled``): a repeated count or walk in one
process compiles nothing, while a one-shot process compiles each tower
once, as it would without the cache.  Where each stratum row fixes the
whole point below one top layer, the entry also keeps the kernel dimension
above each row, filled by the first count to reach it, so a repeated rep,
hom or ext count there builds no row point and solves no system.  Walks
stream flat points from the loop locus up: a point of a variety is a tuple
of its coordinates (every arrow's entries, arrows in declaration order,
row-major), a loop point the entries of the loops alone, and a point of a
linear fiber a vector in the plan's layout.
``Representation``, ``Morphism``, ``HomTriple`` and ``ExtensionTriple``
objects are built only by the public iterators; the counts, the census and
the witness read the flat points.

Every walk takes its loop points, each with the labels of the stratum
table row it lies on, from one source, ``_loop_points``.  Where the loop
locus is not stratified by Jordan type (``qvl.strata``), that is every
loop point a filter over all q^(loop coordinates) of them accepts.  Where
it is, a count takes the Jordan matrix J_lam of each row of the stratum
table, weighted by the table's ``weight`` of its labels, since GL at the
vertices carries the points above J_lam onto those above its conjugates;
the witness reads the rows the same way.  Walks that must visit every
point (the public iterators and the census) take each orbit instead,
closing J_lam under elementary conjugations, and read no weight.

Every walk is a tower of layers (``_layers``), peeled from the top with
no search over subsets.  Layer 0 is every loop plus the non-loop arrows no
linear layer takes: one assignment walk (``_assignments``) filters a loop
locus and walks those arrows, run by run, where a count has no rank rows
for them.  Each relation of a later layer reads one of its arrows in each
term and otherwise only lower ones, so above the points below it the
layer is a kernel: a walk spans each middle kernel (``_span``), and a
count adds weight * q^(dim of the last kernel).

Hom, mono and ext counts and walks are rep walks of ``hom_quiver`` and
``ext_quiver``, whose points are the pairs of points with a Hom vector or
a cocycle, with the crossing arrows as the last layer: its kernel is the
Hom or cocycle space.  The mono iterator is hom with one injectivity test,
``_injective``; the mono count takes the Moebius sum over the subspace
lattice where it has fewer terms than the Hom space has vectors, and walks
the vectors with ``_injective`` elsewhere (``_mono_counter``).

The enumeration order is fixed: strata in loop declaration order with
partitions largest part first, each orbit breadth-first from J_lam, then
the layer-0 arrows in itertools.product order, then each layer's kernel
in ``_span`` order.  The budget counts the steps taken: one per filter
candidate, layer-0 point tried, loop point, element of a middle layer,
point walked, and term of a Moebius sum or Hom vector a mono count walks
(a point walked and a Hom vector lie in a top layer, whose steps are
taken a block at a time: see ``_Meter``); a count takes one per row that
fixes the whole layer-0 point above Jordan strata, planned before any
partition or orbit size is computed, and one per rank row above each loop
point a filter accepts.

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
from typing import (Callable, Iterable, Iterator, Mapping, Optional,
                    Sequence)

from .extensions import ExtensionTriple
from .linalg import PrimeField, split_blocks
from .quiver import BoundQuiver
from .reps import (HomTriple, Morphism, Representation, _arrow_plan,
                   _failing, _pair_walk, _segmented, flat_layout)
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
    """Counts enumeration steps against the budget, by default
    ``default_budget()``: every walk plans its steps with ``precheck``
    before taking them with ``tick``, so an error can say how far the run
    got.  A walk given no meter runs under a fresh default one.

    A middle layer, with walks nested above it, takes one step per element
    as it is yielded (``_walk_fiber``).  A top layer, with nothing walked
    above it, takes each block's steps as the block starts, after its
    precheck (``_top_blocks``): no tick inside it can stop, so every stop
    and the (used, planned) of a complete walk are those of one step per
    point.  A caller that leaves a top-layer stream inside a block and goes
    on with the same meter would read ``used`` ahead by the rest of that
    block; no caller in qvl does."""

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


def rep_ambient_dim(pres: BoundQuiver, dims: Mapping) -> int:
    return sum(dims.get(t, 0) * dims.get(s, 0)
               for _, s, t in pres.quiver.arrows)


def ambient_dimension(kind: str, pres: BoundQuiver, *dims: Mapping) -> int:
    """Coordinate count of the affine space the variety of ``kind`` (rep,
    hom, mono or ext), with the dims of each factor, naturally sits in: the
    arrows' entries, for a pair kind those of its doubled presentation (both
    points, then the vertex maps or the arrow blocks)."""
    if kind == "rep":
        return rep_ambient_dim(pres, *dims)
    doubled, dims, _ = _pair_walk(kind, pres, *dims)
    return rep_ambient_dim(doubled, dims)


# --- representation points ----------------------------------------------


def _grow(seed: str, arrows: Sequence[str], rels: Mapping, rank: Mapping,
          reads: Mapping):
    """The top layer grown from ``seed``, in the order of ``arrows``, or
    [] where it is not valid: every term of every relation it reads must
    hold exactly one of its arrows.  ``rels`` maps each relation left to
    each term's non-loop arrows, ``reads`` each arrow to the relations
    reading it, and ``rank`` gives its (matrix entries, declaration index).
    A term of a relation the seed reads with no layer arrow takes its arrow
    of highest rank; then each other arrow joins in turn unless it puts two
    layer arrows in a term or reads a relation it alone leaves open."""
    def hits(rel):
        return [sum(map(layer.__contains__, term)) for term in rels[rel]]

    def fits(a):
        for rel in reads[a]:
            before = hits(rel)
            after = [n + term.count(a) for n, term in zip(before, rels[rel])]
            if max(after) > 1 or not (any(before) or min(after) == 1):
                return False
        return True

    layer = {seed}
    for rel in reads[seed]:
        for term in rels[rel]:
            if term and not any(map(layer.__contains__, term)):
                layer.add(max(term, key=rank.__getitem__))
    for a in arrows:
        if a not in layer and fits(a):
            layer.add(a)
    valid = all(hits(rel) == [1] * len(rels[rel])
                for rel in {rel for a in layer for rel in reads[a]})
    return [a for a in arrows if valid and a in layer]


def _layers(pres: BoundQuiver, dims: Mapping, top: Iterable[str] = ()):
    """The tower of the walk with these dims: (layer-0 arrows, loop-only
    relations, the other layer-0 relations, ((arrows, relations) of each
    later layer, bottom up)), all tuples; layer 0 is every loop plus the
    arrows no layer takes, and its relations read nothing else.  A walk
    reads it through ``_compiled``, which keeps it, compiled, for the last
    64 (presentation value, field, dims, orbits, top).

    The layers are peeled from the top.  The top is ``top`` if given;
    otherwise each non-loop arrow a relation reads seeds a layer
    (``_grow``) among the arrows relations tie it to and those no relation
    reads, and the valid one with the most matrix entries at ``dims`` in
    each group of tied arrows joins the top, ties going to fewer arrows
    below it, then to earlier ones in declaration order.  With none
    valid, the top is the arrows no relation reads.  Each peel removes the
    layer and the relations it reads, so k non-loop arrows grow at most
    k^2 candidates.  Layer 0 is the loops alone for every named family,
    {a} for b*a and {a, c} for b*a - d*c."""
    quiver = pres.quiver
    layout = flat_layout(pres, dims)
    rank = {a: (r * c, i) for i, (a, (_, r, c)) in enumerate(layout.items())}
    arrows = [a for a in layout if not quiver.is_loop(a)]
    rels = {i: [[a for a in p.arrows if not quiver.is_loop(a)]
                for p in rel.paths()] for i, rel in enumerate(pres.relations)}
    loop_rels = [pres.relations[i] for i, terms in rels.items()
                 if not any(terms)]
    rels = {i: terms for i, terms in rels.items() if any(terms)}

    def reading(layer):
        return [i for i, terms in rels.items()
                if any(a in layer for term in terms for a in term)]

    def peel():
        reads = {a: [i for i, ts in rels.items() if any(a in t for t in ts)]
                 for a in arrows}
        group = {a: {a} for a in arrows}    # arrows tied by relations
        for ts in rels.values():
            tied = set().union(*(group[a] for t in ts for a in t))
            group.update((a, tied) for a in tied)
        top = set()
        for tied in {id(g): g for g in group.values()}.values():
            scope = [b for b in arrows if b in tied or not reads[b]]
            grown = [_grow(a, scope, rels, rank, reads)
                     for a in scope if a in tied and reads[a]]
            top.update(min(grown, default=(), key=lambda layer: (
                -sum(rank[a][0] for a in layer), len(arrows) - len(layer),
                [i for i, a in enumerate(arrows) if a not in layer])))
        return [a for a in arrows if a in top]

    layer = list(top) or peel() or [a for a in arrows if not reading({a})]
    layers = []
    while layer:
        made = reading(set(layer))
        layers.append((tuple(layer), tuple(pres.relations[i] for i in made)))
        arrows = [a for a in arrows if a not in layer]
        rels = {i: terms for i, terms in rels.items() if i not in made}
        layer = arrows and peel()
    return (tuple(arrows), tuple(loop_rels),
            tuple(pres.relations[i] for i in rels), tuple(layers[::-1]))


def _assignments(pres: BoundQuiver, field, dims, point: tuple, arrows,
                 rels, meter: _Meter):
    """The flat point ``point``, the entries of every loop outside
    ``arrows``, extended by every assignment of ``arrows`` on which
    ``rels`` vanish (the loop filter extends () by the loops, the layer-0
    walk a loop point by its arrows), in itertools.product order (arrows in
    the order given, entries row-major).  ``arrows`` is cut into runs that
    no relation reads across, each with entries and led by an arrow a
    relation reads; each run is filtered alone, one step planned per
    candidate, the later ones listed before the first is taken, and a point
    joined from several runs takes one step more.  A run checks each
    candidate as the flat point ``point + values`` of the loops outside
    ``arrows`` and its own arrows, with its relations' segments worked out
    once (``reps._segmented``).  Without arrows ``point`` is its only
    extension and costs nothing."""
    if not arrows:
        yield point
        return
    fixed = [a for a in pres.quiver.loops() if a not in arrows]
    spans = [[i for i, a in enumerate(arrows)
              if any(a in p.arrows for p in rel.paths())] or [0]
             for rel in rels]
    size = [r * c for _, r, c in flat_layout(pres, dims, arrows).values()]
    cuts = [0, *(i for i in range(1, len(arrows))
                 if size[i] and sum(size[:i]) and i in {s[0] for s in spans}
                 and not any(s[0] < i <= s[-1] for s in spans)), len(arrows)]

    def run(lo, hi):
        checks = _segmented(
            flat_layout(pres, dims, [*fixed, *arrows[lo:hi]]),
            [rel for rel, s in zip(rels, spans) if lo <= s[0] < hi])
        meter.precheck(field.p ** sum(size[lo:hi]))
        for values in itertools.product(field.elements(),
                                        repeat=sum(size[lo:hi])):
            meter.tick()
            if next(_failing(field, point + values, checks), None) is None:
                yield values

    first, *later = [run(lo, hi) for lo, hi in zip(cuts, cuts[1:])]
    later = [list(values) for values in later]
    joined = math.prod(map(len, later)) if later else 0
    for head in first:
        meter.precheck(joined)
        meter.tick(joined)
        for tail in itertools.product(*later):
            yield point + head + sum(tail, ())


def _loop_points(pres: BoundQuiver, field, dims, loop_rels, meter: _Meter,
                 orbits: bool, table: StratumTable):
    """(flat loop point, labels of its row of ``table``) in the fixed order:
    with ``orbits`` and Jordan strata every point of each stratum once,
    labelled (); else each row's labels above each loop point, the one
    empty point where there are strata and else each the filter accepts.
    Orbit points take one step each, planned up front.  A row that fixes
    the whole layer-0 point takes one step, planned at each loop point,
    where there are strata or its labels hold a rank; a filtered row with
    no rank is the loop point itself, which the filter has paid for."""
    if orbits and table.loops is not None:
        meter.precheck(table.size())
        for point in table.orbit_points():
            meter.tick()
            yield point, ()
        return
    step = int(table.arrows is not None
               and (table.loops is not None or bool(table.arrows)))
    planned = step * table.row_count()
    for point in (_assignments(pres, field, dims, (), pres.quiver.loops(),
                               loop_rels, meter)
                  if table.loops is None else [()]):
        meter.precheck(planned)
        for labels in table.labels():
            meter.tick(step)
            yield point, labels


def _fibers(pres: BoundQuiver, field, dims, meter: _Meter, orbits: bool,
            top: Iterable[str] = (), dims_only: bool = False):
    """The tower walk of ``_layers``, ``top`` its last layer if given: the
    arrows in the order a walked point lays them out (loops, layer 0, then
    each later layer), the stratum table's ``weight``, and a stream of
    (flat point below the last layer, labels, kernel basis of the last
    layer there, or with ``dims_only`` its dimension) over the points of
    ``_loop_points`` and layer 0 and each middle layer's span, one step per
    element, each loop point joined to its row's ``table.point(labels)``.
    Strata and systems are set up by ``_compiled``, which the meter never
    sees.  Where the entry keeps each row's dimension, a stream of
    dimensions yields the loop point alone, solving a row only when a count
    first reaches it.  Points are counted over a prime field F_p only, at
    nonnegative dims; both are checked before anything is built."""
    if not isinstance(field, PrimeField):
        raise ValueError("points are counted over a prime field F_p, "
                         f"not {field!r}")
    at = tuple(dims.get(v, 0) for v in pres.quiver.vertices)
    if min(at, default=0) < 0:
        raise ValueError("dimensions must be nonnegative")
    (base, loop_rels, base_rels, _), walked, plans, table, kept = _compiled(
        pres, field, at, orbits, tuple(top))
    solve = plans[-1].nullity if dims_only else plans[-1].kernel

    def above(point, labels, level):
        if level + 1 == len(plans):
            yield point, labels, solve(point)
            return
        plan = plans[level]
        for vec in _walk_fiber(field, plan.ncols, plan.kernel(point), meter):
            yield from above(point + vec, labels, level + 1)

    def stream():
        for loops, labels in _loop_points(pres, field, dims, loop_rels, meter,
                                          orbits, table):
            loops += table.point(labels)
            for point in ((loops,) if table.arrows is not None else
                          _assignments(pres, field, dims, loops, base,
                                       base_rels, meter)):
                yield from above(point, labels, 0)

    def kept_stream():    # one row, one point below the top layer
        for i, (point, labels) in enumerate(_loop_points(
                pres, field, dims, loop_rels, meter, orbits, table)):
            if i == len(kept):
                kept.append(solve(point + table.point(labels)))
            yield point, labels, kept[i]

    return (list(walked), table.weight,
            kept_stream() if dims_only and kept is not None else stream())


@functools.lru_cache(maxsize=64)
def _compiled(pres: BoundQuiver, field: PrimeField, dims: tuple,
              orbits: bool, top: tuple):
    """What ``_fibers`` sets up, at the dims ``dims`` of the vertices in
    their order: (the tower of ``_layers``, the walked arrows, each layer's
    ``SandwichPlan``, the ``StratumTable``, the kept kernel dimensions),
    kept for the last 64 (presentation value, field, dims, orbits, top), as
    a repeated count or walk would compile it again.  Equal presentations
    share an entry whatever their names.

    The kept dimensions are a list, in row order, of the top layer's
    kernel dimension above each stratum row, which the first count to
    reach a row appends; they are None unless each row is the whole point
    below the top layer: at most one layer above layer 0, rank rows for
    layer 0 (``table.arrows``), and Jordan strata (``table.loops``)."""
    dims = dict(zip(pres.quiver.vertices, dims))
    tower = base, loop_rels, base_rels, layers = _layers(pres, dims, top)
    walked = [*pres.quiver.loops(), *base]
    plans = []
    for arrows, rels in layers or [((), ())]:
        plans.append(_arrow_plan(pres, field, dims, walked, arrows, rels))
        walked += arrows
    table = StratumTable(pres, field, dims, loop_rels,
                         None if orbits else base, base_rels)
    rows_fix_the_point = (len(plans) == 1 and table.arrows is not None
                          and table.loops is not None)
    return (tower, tuple(walked), tuple(plans), table,
            [] if rows_fix_the_point else None)


def _points_over(pres: BoundQuiver, field, dims, meter: _Meter,
                 top: Iterable[str] = ()) -> Iterator[tuple]:
    """Every point of the variety once: each point of the last layer's
    kernel over each point of the orbit walk of ``_fibers``, flat as
    ``flat_layout`` lays it out, spanned straight from each point and
    kernel vector lifted once to that layout.  The last layer is a top
    layer: its span plans p^k steps and takes them per block
    (``_top_blocks``), and its points stream as one chain of blocks, while
    the walk below it takes one step per element."""
    walked, _, fibers = _fibers(pres, field, dims, meter, True, top)
    # the place of each coordinate of a walked point in the flat point
    layout = flat_layout(pres, dims)
    places = [i for a in walked for start, r, c in (layout[a],)
              for i in range(start, start + r * c)]

    def lift(vec, at):
        full = [0] * len(places)
        for i, x in zip(at, vec):
            full[i] = x
        return full

    def blocks():
        for point, _, basis in fibers:
            at = places[len(point):]
            yield from _top_blocks(field, len(places),
                                   [lift(vec, at) for vec in basis], meter,
                                   lift(point, places))

    return itertools.chain.from_iterable(blocks())


def _rep_builder(pres: BoundQuiver, field: PrimeField, dims):
    """A function from a flat point with these dims to its
    ``Representation``, built without re-validation.  An arrow's matrix is
    cut only where its entries differ from the previous point's, as the
    walks stream the points above each loop point together."""
    full_dims = {x: dims.get(x, 0) for x in pres.quiver.vertices}
    layout = flat_layout(pres, dims)
    last = {a: (None, None) for a in layout}    # entries, matrix

    @functools.lru_cache(maxsize=1)    # a pair walk repeats its points
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
    """Deterministic, duplicate-free stream of all variety points, every
    point of the tower walk."""
    build = _rep_builder(pres, field, dims)
    for point in _points_over(pres, field, dims, meter or _Meter()):
        yield build(point)


def _count(field: PrimeField, budget: int | None, pres: BoundQuiver, dims,
           top: Iterable[str] = (), counter=None) -> int:
    """The sum over the points of ``_fibers`` of their labels' weight * the
    size of the last layer's kernel: q^dim, from its dimension alone, or
    what ``counter(field, its shapes)`` counts from the kernel basis and
    the meter."""
    meter = _Meter(budget)
    _, weight, fibers = _fibers(pres, field, dims, meter, False, top,
                                counter is None)
    size = (counter(field, {a: (r, c) for a, (_, r, c)
                            in flat_layout(pres, dims, top).items()})
            if counter else lambda dim, _: field.p ** dim)
    return sum(weight(labels, field.p) * size(fiber, meter)
               for _, labels, fiber in fibers)


def count_rep_points(pres: BoundQuiver, field: PrimeField, dims: Mapping,
                     budget: int | None = None) -> int:
    """Exact number of valid points."""
    return _count(field, budget, pres, dims)


# --- hom / mono / ext points ---------------------------------------------


def _inner_count(p: int, k: int, size: int) -> int:
    """How many of k kernel vectors ``_span`` walks in table blocks:
    ceil(k/2) where there are coordinates, k >= 2 and the span has at
    least 64 points, lowered while its tables, size * p^(t+1) entries,
    would hold more than 2^17 (about 1 MiB of pointers); else 0.  Below
    64 points the tables can cost more than they save, and at k = 1
    (t = k) a table outgrows the span itself."""
    if not size or k < 2 or p ** k < 64:
        return 0
    t = -(-k // 2)
    while t and size * p ** (t + 1) > 1 << 17:
        t -= 1
    return t


def _combinations(p: int, steps: Sequence[list], acc: list):
    """``acc`` and each later combination of ``_span_blocks``'s outer
    vectors, as tuples in itertools.product order: where coefficient j
    from the last steps up, the combination moves by ``steps[j]``."""
    coeffs = [0] * len(steps)       # coeffs[j]: the one steps[j] adds
    while True:
        yield tuple(acc)
        j = 0
        while j < len(coeffs) and coeffs[j] == p - 1:
            coeffs[j] = 0
            j += 1
        if j == len(coeffs):
            return
        coeffs[j] += 1
        acc = [(x + y) % p for x, y in zip(acc, steps[j])]


def _span_blocks(field: PrimeField, kernel: Sequence[Sequence[int]],
                 size: int, start: Optional[list] = None):
    """The points of ``_span``, in its order, as (number of points, an
    iterator over them) per block.

    The last ``_inner_count(p, k, size)`` = t vectors are inner: each
    coordinate they move gets, once, a table of the p^t values of their
    span there, shifted by each o in [0, p).  The points then come in
    blocks of p^t, one per combination of the outer vectors, each block one
    ``zip`` of the tables read at that combination's coordinates
    (``repeat`` where no inner vector moves one).  At t = 0 the whole span
    is one block, the combinations themselves.  Where outer coefficient i
    steps up, every later one wraps from p - 1 to 0, and p times a vector
    is zero: so each combination is the previous one plus the step
    kernel[i] + ... + kernel[k - t - 1], computed once per i."""
    p, k = field.p, len(kernel)
    t = _inner_count(p, k, size)
    steps, tail = [], [0] * size    # steps[j]: the step of kernel[k-t-1-j]
    for vec in reversed(kernel[:k - t]):
        tail = [(x + y) % p for x, y in zip(tail, vec)]
        steps.append(tail)
    combinations = _combinations(p, steps, start or [0] * size)
    if not t:
        yield p ** k, combinations
        return
    block = p ** t
    shifts = [[*range(o, p), *range(o)] for o in range(p)]
    tables = []    # tables[i][o]: o plus the inner span at coordinate i
    for i in range(size):
        col = [0]
        for vec in kernel[k - t:]:
            col = [(x + c * vec[i]) % p for x in col for c in range(p)]
        tables.append([tuple(map(shift.__getitem__, col)) for shift in shifts]
                      if any(col) else None)
    for acc in combinations:
        yield block, zip(*[table[o] if table else itertools.repeat(o, block)
                           for table, o in zip(tables, acc)])


def _span(field: PrimeField, kernel: Sequence[Sequence[int]], size: int,
          start: Optional[list] = None) -> Iterator[tuple]:
    """``start`` (a list of field elements, zero by default) plus every
    linear combination of the kernel vectors, as a tuple of ``size``
    entries, with coefficients in itertools.product order (the last one
    varies fastest): the blocks of ``_span_blocks`` chained."""
    return itertools.chain.from_iterable(
        map(operator.itemgetter(1), _span_blocks(field, kernel, size, start)))


def _walk_fiber(field: PrimeField, size: int, kernel, meter: _Meter):
    """Every element of the span of ``kernel``, as a tuple of ``size``
    entries in ``_span`` order, block by block, for a middle layer: p^k
    steps planned, then one taken per element as it is yielded, since the
    walks of the layers above it nest inside and their prechecks must see
    every step taken so far."""
    meter.precheck(field.p ** len(kernel))
    for _, block in _span_blocks(field, kernel, size):
        for vec in block:
            meter.tick()
            yield vec


def _top_blocks(field: PrimeField, size: int, kernel, meter: _Meter,
                start: Optional[list] = None):
    """The blocks of ``_span_blocks`` for a top layer, one with nothing
    walked above it, for a caller to chain with
    ``itertools.chain.from_iterable``, so that no Python frame above the
    span resumes per point: p^k steps planned, then each block's steps
    taken as it starts.  After the precheck no tick within the span can
    stop, and nothing else ticks the meter while it streams, so every stop
    and ``(used, planned)`` after a complete walk are those of one step per
    point; only ``used`` read inside a block runs ahead, by less than the
    block's size (p^t, or p^k where t = 0)."""
    meter.precheck(field.p ** len(kernel))
    for n, block in _span_blocks(field, kernel, size, start):
        meter.tick(n)
        yield block


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
    walks its q^d vectors with ``_injective``.  That walk is a top layer:
    q^d steps planned, each block's taken as it starts (``_top_blocks``),
    and its vectors chained into ``sum(map(injective, ...))`` with no
    Python frame above the span resumed per vector."""
    p = field.p
    injective = _injective(field, shapes)
    maps, size = [], 0
    for r, c in shapes.values():
        if c:
            maps.append((size, r, c))
        size += r * c
    terms = math.prod(subspace_count(c, p) for _, _, c in maps)
    lattices = None    # (mu, basis) of every subspace of each map's columns

    def count(basis, meter):
        nonlocal lattices
        d = len(basis)
        if terms >= p ** d:
            return sum(map(injective, itertools.chain.from_iterable(
                _top_blocks(field, size, basis, meter))))
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


def _pair_points(kind: str, pres: BoundQuiver, field: PrimeField, first,
                 second, meter: _Meter | None, test=None):
    """The ``HomTriple`` (for ext ``ExtensionTriple``) of each point of the
    doubled presentation of ``_pair_walk`` whose crossing vector passes
    ``test(field, shapes)``, if given: its flat point cut into the points
    of ``pres`` of both copies and the blocks, keyed by vertex or arrow."""
    doubled, dims, crossing = _pair_walk(kind, pres, first, second)
    shapes = {crossing[a]: (r, c) for a, (_, r, c)
              in flat_layout(doubled, dims, crossing).items()}
    keep = test and test(field, shapes)
    x_end = rep_ambient_dim(pres, first)
    y_end = x_end + rep_ambient_dim(pres, second)
    build_x, build_y = (_rep_builder(pres, field, d) for d in (first, second))
    for point in _points_over(doubled, field, dims, meter or _Meter(),
                              crossing):
        vec = point[y_end:]
        if not keep or keep(vec):
            x, y = build_x(point[:x_end]), build_y(point[x_end:y_end])
            blocks = split_blocks(field, shapes, vec)
            yield (ExtensionTriple(x, y, blocks, check=False) if kind == "ext"
                   else HomTriple(x, y, Morphism._trusted(x, y, blocks)))


def iter_hom_points(pres: BoundQuiver, field: PrimeField, source_dims,
                    target_dims, meter: _Meter | None = None
                    ) -> Iterator[HomTriple]:
    return _pair_points("hom", pres, field, source_dims, target_dims, meter)


def count_hom_points(pres: BoundQuiver, field: PrimeField, source_dims,
                     target_dims, budget: int | None = None) -> int:
    """Sum of q^dim Hom over all source/target point pairs."""
    return _count(field, budget, *_pair_walk("hom", pres, source_dims,
                                             target_dims))


def iter_mono_points(pres: BoundQuiver, field: PrimeField, source_dims,
                     target_dims, meter: _Meter | None = None
                     ) -> Iterator[HomTriple]:
    """Monomorphism triples: the hom points whose Hom vector passes
    ``_injective``, tested before a triple is built."""
    return _pair_points("hom", pres, field, source_dims, target_dims, meter,
                        _injective)


def count_mono_points(pres: BoundQuiver, field: PrimeField, source_dims,
                      target_dims, budget: int | None = None) -> int:
    """Number of injective homomorphisms over all source/target pairs,
    each Hom space's by ``_mono_counter``."""
    return _count(field, budget, *_pair_walk("hom", pres, source_dims,
                                             target_dims), _mono_counter)


def iter_ext_points(pres: BoundQuiver, field: PrimeField, quo_dims, sub_dims,
                    meter: _Meter | None = None):
    """Extension triples (quotient point, sub point, cocycle blocks)."""
    return _pair_points("ext", pres, field, quo_dims, sub_dims, meter)


def count_ext_points(pres: BoundQuiver, field: PrimeField, quo_dims, sub_dims,
                     budget: int | None = None) -> int:
    """Sum of q^dim of the cocycle space over all quotient/sub pairs."""
    return _count(field, budget, *_pair_walk("ext", pres, quo_dims,
                                             sub_dims))


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


def leading_coefficient_probe(count_at: Callable[[int], int],
                              qs: Sequence[int]) -> ProbeReport:
    """Fit the exact counts ``count_at(q)`` against c * q^D for the best
    integer D.

    D is the slope of log count against log q between the two largest field
    sizes (or from the single available one to q = 1, count = 1), rounded
    half up in integer arithmetic; the per-q coefficients count/q^D are
    reported exactly.  A constant coefficient 1 is what an affine space
    gives; anything else is flagged as inconclusive evidence.
    """
    if not qs:
        raise ValueError("at least one field size is required")
    counts = {q: count_at(q) for q in sorted(qs)}
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
