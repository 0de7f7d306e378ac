"""Strata of the base of a representation variety over F_q, for counts
that sum orbit size times q^(fiber dimension) over them.

Loop loci are stratified by Jordan type when every loop vertex has exactly
one loop, every loop has a power relation, and every loop-only relation is
a nonzero multiple of a power of its loop.  The locus is then the union of
the conjugacy classes of the nilpotent Jordan matrices J_lam with parts at
most the smallest power, and the class of J_lam has |GL_d(q)| / |C(lam)|
points (Macdonald, Symmetric Functions and Hall Polynomials, Ch. II).
Base arrows have rank strata when no base arrow has a loop or another base
arrow at an endpoint and no base relation reads one: a d_t x d_s base
arrow takes [I_r 0; 0 0] weighted by R(d_t, d_s, r), its matrices of rank r.
``StratumTable`` lists its rows by labels, a Jordan type per loop and a
rank per base arrow, in itertools.product order; ``point(labels)`` joins
a row's J_lam and [I_r 0; 0 0], the same over every field, and ``weight``
multiplies the orbit sizes and rank counts over F_q its labels name.  A
count whose rows fix the whole base point above Jordan strata takes one
step per row, planned from ``row_count`` before any partition or orbit size
is computed.  Those sizes, points and counts are kept once per process.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Iterator, Optional, Sequence

from .quiver import BoundQuiver, loop_power


def jordan_types(d: int, max_part: int) -> Iterator[tuple[int, ...]]:
    """Partitions of d into parts of size at most max_part, in lexicographic
    order from the largest part down."""
    if d == 0:
        yield ()
        return
    for first in range(min(d, max_part), 0, -1):
        for rest in jordan_types(d - first, first):
            yield (first,) + rest


def partition_count(d: int, max_part: int) -> int:
    """The number of ``jordan_types(d, max_part)``, without listing them:
    p(n, parts <= k) = p(n, parts <= k - 1) + p(n - k, parts <= k)."""
    counts = [1] + [0] * d
    for part in range(1, min(d, max_part) + 1):
        for n in range(part, d + 1):
            counts[n] += counts[n - part]
    return counts[d]


@functools.cache
def gl_order(d: int, q: int) -> int:
    """|GL_d(F_q)|."""
    out = 1
    for i in range(d):
        out *= q ** d - q ** i
    return out


@functools.cache
def rank_count(m: int, n: int, r: int, q: int) -> int:
    """R(m, n, r), the number of m x n matrices of rank r over F_q:
    prod_(i<r) (q^m - q^i)(q^n - q^i) / (q^r - q^i)."""
    return math.prod((q ** m - q ** i) * (q ** n - q ** i)
                     for i in range(r)) // gl_order(r, q)


def subspace_count(c: int, q: int) -> int:
    """The number of subspaces of F_q^c, found without listing any: the sum
    over k of the Gaussian binomials prod_(i<k) (q^c - q^i) / |GL_k(q)|."""
    return sum(math.prod(q ** c - q ** i for i in range(k)) // gl_order(k, q)
               for k in range(c + 1))


def subspaces(p: int, c: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Every subspace of F_p^c once, as the rows of its reduced echelon
    basis: by dimension, then pivot columns in combinations order, then the
    entries right of each pivot outside the pivot columns in
    itertools.product order."""
    for k in range(c + 1):
        for pivots in itertools.combinations(range(c), k):
            free = [(i, j) for i, lead in enumerate(pivots)
                    for j in range(lead + 1, c) if j not in pivots]
            for values in itertools.product(range(p), repeat=len(free)):
                rows = [[int(j == lead) for j in range(c)] for lead in pivots]
                for (i, j), x in zip(free, values):
                    rows[i][j] = x
                yield tuple(map(tuple, rows))


@functools.cache
def nilpotent_orbit_size(lam: tuple[int, ...], q: int) -> int:
    """Number of nilpotent matrices of Jordan type lam over F_q.

    The centralizer of J_lam has order
    q^(sum_i lam'_i^2 - sum_i m_i^2) * prod_i |GL_(m_i)(q)|, with lam' the
    conjugate partition and m_i the multiplicity of the part i."""
    parts = list(lam)
    conjugate = [sum(1 for part in parts if part > i)
                 for i in range(max(parts, default=0))]
    mults = [parts.count(i) for i in set(parts)]
    centralizer = q ** (sum(c * c for c in conjugate)
                        - sum(m * m for m in mults))
    for m in mults:
        centralizer *= gl_order(m, q)
    return gl_order(sum(parts), q) // centralizer


@functools.cache
def _jordan_point(lam: tuple[int, ...]) -> tuple:
    """Entries of the nilpotent Jordan matrix with blocks lam, ones above
    the diagonal, row-major."""
    d = sum(lam)
    point = [0] * (d * d)
    start = 0
    for part in lam:
        for i in range(start, start + part - 1):
            point[i * d + i + 1] = 1
        start += part
    return tuple(point)


def _loop_powers(pres: BoundQuiver, field, loop_rels) -> Optional[dict]:
    """Smallest power relation of each loop, or None when the loop locus is
    not a union of Jordan strata.

    That needs exactly one loop at every loop vertex, at least one power
    relation on every loop, and every loop-only relation a single term that
    is a nonzero multiple of a loop power."""
    quiver = pres.quiver
    loops = quiver.loops()
    if any(len(quiver.loops_at(quiver.source(a))) != 1 for a in loops):
        return None
    powers = {}
    for rel in loop_rels:
        power = loop_power(rel, field)
        if power is None:
            return None
        loop, k = power
        powers[loop] = min(powers.get(loop, k), k)
    if set(powers) != set(loops):
        return None
    return {a: powers[a] for a in loops}


def _rank_shapes(pres: BoundQuiver, dims, base, base_rels):
    """(d_t, d_s) of each arrow in ``base``, or None when the base does not
    qualify for rank strata (see the module docstring)."""
    quiver = pres.quiver
    ends = [v for a in base for v in (quiver.target(a), quiver.source(a))]
    if base_rels or len(set(ends)) < len(ends) or any(
            quiver.loops_at(v) for v in ends):
        return None
    sizes = [dims.get(v, 0) for v in ends]
    return list(zip(sizes[::2], sizes[1::2]))


def _primitive_root(p: int) -> int:
    """Least generator of the multiplicative group of F_p."""
    rest, primes, f = p - 1, [], 2
    while f * f <= rest:
        if rest % f == 0:
            primes.append(f)
            while rest % f == 0:
                rest //= f
        f += 1
    if rest > 1:
        primes.append(rest)
    return next(g for g in range(1, p)
                if all(pow(g, (p - 1) // r, p) != 1 for r in primes))


def _nilpotent_orbit(field, lam: Sequence[int]) -> list[tuple]:
    """The conjugacy class of J_lam, breadth-first from J_lam, each matrix
    as its entries row-major.

    Conjugation by the transvections I + E_ij and by diag(g, 1, .., 1), with
    g a primitive root, generates the action of GL_d(F_p); the closure is
    checked against the orbit-size formula.  Every entry is reduced mod p
    as it is computed, so the entries are field elements in normal form."""
    p, d = field.p, sum(lam)
    g = _primitive_root(p) if d > 1 else 1
    g_inv = pow(g, -1, p)
    start = _jordan_point(lam)
    seen = {start}
    orbit = [start]
    for x in orbit:
        for i, j in itertools.permutations(range(d), 2):
            y = list(x)
            for k in range(d):    # (I + E_ij) X: row i += row j
                y[i * d + k] = (y[i * d + k] + y[j * d + k]) % p
            for k in range(d):    # ... (I - E_ij): column j -= column i
                y[k * d + j] = (y[k * d + j] - y[k * d + i]) % p
            y = tuple(y)
            if y not in seen:
                seen.add(y)
                orbit.append(y)
        if g != 1:
            y = [v * g % p if k < d else v for k, v in enumerate(x)]
            for k in range(0, d * d, d):
                y[k] = y[k] * g_inv % p
            y = tuple(y)
            if y not in seen:
                seen.add(y)
                orbit.append(y)
    if len(orbit) != nilpotent_orbit_size(lam, p):
        raise AssertionError(
            f"orbit of Jordan type {tuple(lam)} has {len(orbit)} points, "
            f"not {nilpotent_orbit_size(lam, p)}")
    return orbit


class StratumTable:
    """The strata at these dims: ``loops`` holds (d, smallest power) per
    loop, or None where the locus is not stratified; ``arrows`` holds
    (d_t, d_s) per arrow of ``base``, or None where ``base`` is None or has
    no rank strata.  A part that is None adds nothing to a row's ``point``."""

    def __init__(self, pres: BoundQuiver, field, dims, loop_rels,
                 base=None, base_rels=()):
        powers = _loop_powers(pres, field, loop_rels)
        self.field = field
        self.loops = None if powers is None else [
            (dims.get(pres.quiver.source(a), 0), k)
            for a, k in powers.items()]
        self.arrows = None if base is None else _rank_shapes(
            pres, dims, base, base_rels)

    def row_count(self) -> int:
        """The number of rows, found without listing any."""
        return (math.prod(partition_count(d, k) for d, k in self.loops or ())
                * math.prod(min(t, s) + 1 for t, s in self.arrows or ()))

    def labels(self) -> Iterator[tuple]:
        """Each row's Jordan type per loop, then rank per base arrow."""
        return itertools.product(
            *(jordan_types(d, k) for d, k in self.loops or ()),
            *(range(min(t, s) + 1) for t, s in self.arrows or ()))

    def weight(self, labels, q: int) -> int:
        """The points over F_q a row stands for: orbit sizes * rank counts."""
        k, out = len(self.loops or ()), 1
        for lam in labels[:k]:
            out *= nilpotent_orbit_size(lam, q)
        for (t, s), r in zip(self.arrows or (), labels[k:]):
            out *= rank_count(t, s, r, q)
        return out

    def point(self, labels) -> tuple:
        """The flat point of the row ``labels`` names: its J_lam and
        [I_r 0; 0 0] concatenated, 0/1 entries the same over every field."""
        k = len(self.loops or ())
        return tuple(itertools.chain(
            *map(_jordan_point, labels[:k]),
            *([int(i == j < r) for i in range(t) for j in range(s)]
              for (t, s), r in zip(self.arrows or (), labels[k:]))))

    def size(self) -> int:
        """The number of points of the stratified loop locus, the points
        that ``orbit_points`` lists: ``weight`` summed over rows, factored."""
        p = self.field.p
        return math.prod(sum(nilpotent_orbit_size(lam, p)
                             for lam in jordan_types(d, k))
                         for d, k in self.loops or ())

    def orbit_points(self) -> Iterator[tuple]:
        """Every loop point of the stratified locus once, as a flat tuple:
        each row's orbits, breadth-first from its Jordan matrices."""
        cache = {}
        for lams in self.labels():
            # keep only the orbits this stratum uses
            cache = {lam: cache.get(lam) or _nilpotent_orbit(self.field, lam)
                     for lam in set(lams)}
            for points in itertools.product(*(cache[lam] for lam in lams)):
                yield tuple(itertools.chain.from_iterable(points))
