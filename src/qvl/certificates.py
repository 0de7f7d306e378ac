"""Certificates: explicit checks on named families over F_q.

Point counts over finite fields are evidence about the geometry over an
algebraically closed field, never proof; only reducibility witnesses and
count identities produced here are certificates.  Each check builds its
family and reads the walks of ``qvl.counting``: the census of the
split-or-vanish variety a_i b = 0 against the representations of
``hom_quiver(A'(n,2,2))``, the reducibility witness in a monomorphism
variety, and the product identity of the corner families.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from math import gcd
from typing import Optional

from .counting import (_Meter, _fibers, _points_over, count_rep_points,
                       iter_rep_points)
from .families import (FamilyParameterError, family_a, family_a_prime,
                       family_b)
from .linalg import Matrix, PrimeField, Subspace
from .quiver import BoundQuiver
from .reps import (Morphism, Representation, _doubling, flat_layout,
                   is_monomorphism)


@dataclass
class CensusResult:
    """Exact census of the split-or-vanish variety a_i b = 0."""

    n: int
    q: int
    total: int
    count_b_zero: int
    count_a_zero: int
    union_verified: bool
    hom_bijection_verified: bool

    def identity_holds(self) -> bool:
        return self.total == self.q ** self.n + self.q - 1


def hom_counterexample_census(n: int, q: int,
                              budget: int | None = None) -> CensusResult:
    """Census of {(b, a_1..a_n) : a_i b = 0} and its match with the
    homomorphism variety it models.

    The variety is the union of the hyperplane b = 0 and the line a = 0,
    which is exactly why the ambient homomorphism variety splits into two
    components.  Both the union structure and the bijection with the
    two-vertex homomorphism variety (source concentrated at vertex 1,
    target one-dimensional at both vertices) are verified point by point.

    The candidates are listed, not filtered: for each b, (b, a) for every
    a in the n-th power of the annihilator of b in Z/q.  The meter still
    takes one step per pair (b, a) of the ambient space, q^(n+1) planned up
    front and q^n taken per b.  The b = 0 and a = 0 parts and their union
    are read off the candidate set.  The Hom triples are walked on
    ``hom_quiver(A'(n,2,2))``, kept per process by ``reps._doubling``, b
    the entry of f1 and the a_i the target's arrows; for n >= 2 its tower
    walks one linear fiber per value of b.  Each point's (b, a) is taken
    out of the candidate set, the one set the census holds, by C-level
    maps over the walk, which a ``zip`` with ``itertools.count`` counts:
    when as many points as candidates empty it, the images are distinct
    candidates and the walk is a bijection.  Only otherwise does a second
    walk say why: a point off a_i b = 0 raises at once, a repeated point
    once the walk ends, and else the bijection reads false.
    """
    if n < 1:
        raise FamilyParameterError(f"the census needs n >= 1, got {n}")
    field = PrimeField(q)
    meter = _Meter(budget)
    meter.precheck(q ** (n + 1))
    elements = field.elements()
    points = set()
    for b in elements:
        meter.tick(q ** n)
        # the a with a b = 0 mod q, in increasing order: the multiples of
        # q / gcd(b, q)
        annihilator = range(0, q, q // gcd(b, q))
        before = len(points)
        points.update(zip(itertools.repeat(b),
                          itertools.product(annihilator, repeat=n)))
        if b == 0:
            count_b_zero = len(points) - before
    total = len(points)
    a_zero = (0,) * n
    count_a_zero = sum((b, a_zero) in points for b in elements)
    # the candidates are the union of the two parts, which meet in the
    # origin, exactly when the parts add up to all of them
    union_ok = total == count_b_zero + count_a_zero - ((0, a_zero) in points)

    pres = _doubling(False, family_a_prime(n, 2, 2))
    dims = {"s0": 0, "s1": 1, "t0": 1, "t1": 1}
    layout = flat_layout(pres, dims)
    b_at = layout["f1"][0]
    a_from, a_to = layout["t_a1"][0], layout[f"t_a{n}"][0] + 1
    counter = itertools.count()
    points.difference_update(map(
        operator.itemgetter(b_at, slice(a_from, a_to)),
        map(operator.itemgetter(0),
            zip(_points_over(pres, field, dims, meter), counter))))
    walked = next(counter)
    bijective = walked == total and not points
    if not bijective:
        # the same walk again, so it yields ``walked`` points
        seen = set()
        for point in _points_over(pres, field, dims, _Meter(budget)):
            b = point[b_at]
            if any(a * b % q for a in point[a_from:a_to]):
                raise AssertionError("homomorphism point violates a_i b = 0")
            seen.add(point)
        if len(seen) != walked:
            raise AssertionError("duplicate homomorphism point")
    return CensusResult(n, q, total, count_b_zero, count_a_zero, union_ok,
                        bijective)


@dataclass
class WitnessPoint:
    """One explicit point of the monomorphism variety, in the coordinates
    (mu, lambda, U, V rows, w column)."""

    mu: tuple
    lam: int
    loop_mat: tuple          # U, rows as tuples
    arrow_rows: tuple        # V_1..V_n, each a row tuple
    emb_col: tuple           # w, entries of the column


@dataclass
class WitnessReport:
    """Disjoint nonempty open sets in a monomorphism variety.

    open_full_rank collects points whose big loop matrix has rank l - 1;
    open_mu1 those with a nonzero first arrow coordinate upstairs.  Their
    disjointness is the reducibility certificate.
    """

    m: int
    l: int
    n: int
    q: int
    family: str
    total: int
    count_full_rank: int
    count_mu1: int
    count_intersection: int
    sample_full_rank: Optional[WitnessPoint]
    sample_mu1: Optional[WitnessPoint]
    implication_verified: bool
    kernel_image_match_verified: bool
    samples_verified: bool

    def disjoint(self) -> bool:
        return self.count_intersection == 0

    def both_nonempty(self) -> bool:
        return self.count_full_rank > 0 and self.count_mu1 > 0


def mono_reducibility_witness(m: int, l: int, n: int, q: int,
                              budget: int | None = None) -> WitnessReport:
    """Exhaustively enumerate the monomorphism variety with source of
    dimension (1, 1) and target of dimension (1, l) over the family fixed
    by l, and certify its reducibility.

    l = 2 selects the crossing relation of degree-one order 1; l = m selects
    the corner family.  A point is (target point, kernel vector, unit
    scalar), which fixes the upstairs arrow coordinates.

    Every flag added up is invariant under conjugation by g at vertex 1:
    U1 reads only the rank of the loop, which g keeps; the check that the
    loop's kernel is the image of its (l - 1)-th power moves with g; and
    (a, w) -> (a g^-1, g w) carries the arrow rows and the kernel vectors
    above a loop point onto those above its conjugate, keeping every a.w.
    So the Jordan point of each stratum checks its whole orbit point by
    point, and stands for it weighted by the orbit size, as in the counts.
    Above a stratum the arrow solutions form the span K of the fiber
    kernel, of dimension s, and the w the nonzero vectors of the loop's
    kernel W, of dimension k.  mu = (a_i . w) / lam for a unit lam, so for
    each w the flag mu_1 != 0 is the linear functional v -> a_1(v) . w on
    K, constant on the q - 1 scalars of a class: it holds on q^s - q^(s-1)
    solutions when it is nonzero on a basis vector of K, and on none
    otherwise.  With reads[j][b] = a_1(v_j) . w_b on the bases of K and W,
    it is nonzero for the q^k - q^(k-r) vectors w outside the kernel of
    reads, r its rank, so one rank per stratum gives every count.  The walk
    takes one step per source point and per stratum row, none per w.  The
    samples are the points that a walk over every point finds first, with
    lam = 1: in ``_span`` order the first w a functional is nonzero on is
    the last basis vector it is nonzero on, so the full-rank sample takes
    the zero solution and the last basis vector of W, and the mu_1 sample
    the last basis vector of K that reads on W, with the last basis vector
    of W it reads on.
    """
    if m < 2:
        raise FamilyParameterError(f"the witness needs m >= 2, got {m}")
    if l == 2:
        pres = family_a(n, m, 1)
    elif l == m:
        pres = family_b(n, m)
    else:
        raise FamilyParameterError(
            f"l must be 2 (first family) or m (corner family), got {l}")
    field = PrimeField(q)
    meter = _Meter(budget)

    source_dims = {0: 1, 1: 1}
    target_dims = {0: 1, 1: l}

    # The stratified walk below assumes the loops vanish on every source
    # point and on the vertex-0 coordinate of every target point; both are
    # forced by x^m = 0 having only the zero root in a field.  Verify the
    # source side exhaustively rather than assuming it.
    source_pts = list(iter_rep_points(pres, field, source_dims, meter=meter))
    mu_seen = set()
    for rep in source_pts:
        if not (rep.mats["e0"].is_zero() and rep.mats["e1"].is_zero()):
            raise AssertionError("source loops are not forced to zero")
        mu_seen.add(tuple(rep.mats[f"a{i}"][0, 0] for i in range(1, n + 1)))
    if len(mu_seen) != q ** n or len(source_pts) != q ** n:
        raise AssertionError("source variety is not the full mu space")

    p = field.p
    units = p - 1
    total = count_u1 = count_u2 = count_both = 0
    sample_u1 = sample_u2 = None
    implication_ok = True
    kernel_image_ok = True

    def dot(a, w):
        return sum(x * y for x, y in zip(a, w)) % p

    def witness_point(loop, values, w):    # lam = 1
        arrow_rows = tuple(tuple(values[k * l:(k + 1) * l])
                           for k in range(n))
        return WitnessPoint(mu=tuple(dot(row, w) for row in arrow_rows),
                            lam=field.one, loop_mat=tuple(loop.rows),
                            arrow_rows=arrow_rows, emb_col=w)

    # Take the target walk's strata directly: analyze each Jordan point
    # once, then read its arrow solutions (rows of 1 x l) through their
    # kernel basis, with plain modular arithmetic.
    walked, weight, fibers = _fibers(pres, field, target_dims, meter, False)
    if walked != list(pres.quiver.arrow_names()):
        raise AssertionError("the walk's layer 0 is not the loops alone")
    layout = flat_layout(pres, target_dims, pres.quiver.loops())
    e0, e1 = layout["e0"][0], layout["e1"][0]
    for loops, labels, arrow_kernel in fibers:
        if loops[e0]:
            raise AssertionError("target loop at vertex 0 not forced to zero")
        loop = Matrix._trusted(field, l, l, tuple(
            loops[i:i + l] for i in range(e1, e1 + l * l, l)))
        if not (loop ** m).is_zero():
            raise AssertionError("target loop power is not zero")
        head = loop ** (l - 1)
        head_cols = [tuple(head[i, j] for i in range(l)) for j in range(l)]
        loop_kernel = loop.kernel_basis()
        in_u1 = len(loop_kernel) == 1       # rank l - 1
        if in_u1:
            if Subspace(field, l, loop_kernel) != \
                    Subspace(field, l, head_cols):
                kernel_image_ok = False
        # re-check the defining constraint on the first arrow row of each
        # basis vector; linearity covers every solution
        firsts = [v[:l] for v in arrow_kernel]
        if any(dot(a, col) for a in firsts for col in head_cols):
            raise AssertionError("arrow solution violates its relation")
        # reads[j][b] = a_1(v_j) . w_b; a w reads on some solution unless it
        # lies in the kernel of reads, of dimension k - rank
        reads = field.product(firsts, loop_kernel)
        rank = len(field.row_reduce(reads, len(loop_kernel))[1])
        solutions, ws = p ** len(arrow_kernel), p ** len(loop_kernel)
        cls = units * weight(labels, p)
        pairs = solutions * (ws - 1) * cls
        hits = (solutions - solutions // p) * (ws - ws // p ** rank) * cls
        total += pairs
        count_u2 += hits
        if in_u1:
            count_u1 += pairs
            count_both += hits
            implication_ok = implication_ok and not hits
            if sample_u1 is None:     # the zero solution, the first w
                sample_u1 = witness_point(loop, (0,) * (n * l),
                                          loop_kernel[-1])
        if sample_u2 is None and rank:
            j = max(j for j, row in enumerate(reads) if any(row))
            b = max(b for b, x in enumerate(reads[j]) if x)
            sample_u2 = witness_point(loop, arrow_kernel[j], loop_kernel[b])

    samples_ok = all(
        _verify_witness_point(pres, field, m, l, n, pt)
        for pt in (sample_u1, sample_u2) if pt is not None)
    return WitnessReport(
        m=m, l=l, n=n, q=q, family=pres.name, total=total,
        count_full_rank=count_u1, count_mu1=count_u2,
        count_intersection=count_both,
        sample_full_rank=sample_u1, sample_mu1=sample_u2,
        implication_verified=implication_ok,
        kernel_image_match_verified=kernel_image_ok,
        samples_verified=samples_ok)


def _verify_witness_point(pres: BoundQuiver, field, m: int, l: int, n: int,
                          pt: WitnessPoint) -> bool:
    """Rebuild the point as an honest triple and re-check every defining
    condition: validity of both representations, the intertwining of the
    vertex maps, injectivity, and the explicit equation set."""
    zero1 = Matrix.zeros(field, 1, 1)
    src_mats = {"e0": zero1, "e1": zero1}
    for i in range(1, n + 1):
        src_mats[f"a{i}"] = Matrix(field, 1, 1, [[pt.mu[i - 1]]])
    src = Representation(pres, field, {0: 1, 1: 1}, src_mats)
    loop = Matrix(field, l, l, pt.loop_mat)
    dst_mats = {"e0": zero1, "e1": loop}
    for i in range(1, n + 1):
        dst_mats[f"a{i}"] = Matrix(field, 1, l, [pt.arrow_rows[i - 1]])
    dst = Representation(pres, field, {0: 1, 1: l}, dst_mats)
    w = Matrix.column(field, pt.emb_col)
    mor = Morphism(src, dst, {0: Matrix(field, 1, 1, [[pt.lam]]), 1: w})
    if not (src.is_valid() and dst.is_valid()):
        return False
    try:
        if not is_monomorphism(mor):
            return False
    except ValueError:      # the vertex maps do not intertwine
        return False
    # explicit equation set of the displayed system
    if not (dst_mats["a1"] @ (loop ** (l - 1))).is_zero():
        return False
    if not (loop ** l).is_zero():
        return False
    if not (loop @ w).is_zero():
        return False
    for i in range(1, n + 1):
        lhs = field.mul(pt.lam, pt.mu[i - 1])
        rhs = (dst_mats[f"a{i}"] @ w)[0, 0]
        if lhs != rhs:
            return False
    return pt.lam != field.zero and not w.is_zero()


@dataclass
class ProductCheckResult:
    n: int
    m: int
    d: int
    e: int
    q: int
    count_full: int
    count_core: int
    free_factor: int

    @property
    def ok(self) -> bool:
        return self.count_full == self.count_core * self.free_factor

    def __bool__(self) -> bool:
        return self.ok


def product_count_check(n: int, m: int, dims: tuple[int, int], q: int,
                        budget: int | None = None) -> ProductCheckResult:
    """Check #points(B_n) = #points(B_1) * q^((n-1) d e) by enumeration."""
    d, e = dims
    field = PrimeField(q)
    full = count_rep_points(family_b(n, m), field, {0: d, 1: e},
                            budget=budget)
    core = count_rep_points(family_b(1, m), field, {0: d, 1: e},
                            budget=budget)
    return ProductCheckResult(n, m, d, e, q, full, core,
                              q ** ((n - 1) * d * e))
