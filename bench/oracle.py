"""Reference computations the benchmark checks qvl's answers against.

Nothing here imports qvl or shares code with it.  Point counts come from
sums over Jordan types instead of walking points; the small exact linear
algebra at the end (entries are ints mod p, or Fractions when p is None)
builds seeded inputs and checks the non-count answers.

Over F_q a nilpotent d x d matrix is determined up to conjugacy by its
Jordan type, a partition lam of d, and its orbit has |GL_d(q)| / |C(lam)|
points with

    |C(lam)| = q^(sum_i lam'_i^2) * prod_i prod_{k=1}^{m_i(lam)} (1 - q^-k)

(Macdonald, Symmetric Functions and Hall Polynomials, Ch. II).  Over
k[x]/(x^m), for modules of Jordan types lam and mu,

    dim Hom = sum_{i,j} min(lam_i, mu_j)
    dim Ext^1 = sum_{i,j} min(lam_i, mu_j, m - lam_i, m - mu_j)

and the cocycle space has dimension de - dim Hom + dim Ext^1.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction


# --- counts by Jordan type ----------------------------------------------


def partitions(n: int, max_part: int):
    """Partitions of n into parts of size at most max_part, largest first."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def conjugate(lam: tuple) -> tuple:
    return tuple(sum(1 for part in lam if part > i)
                 for i in range(lam[0] if lam else 0))


def gl_order(d: int, q: int) -> int:
    out = 1
    for i in range(d):
        out *= q ** d - q ** i
    return out


def orbit_size(lam: tuple, q: int) -> int:
    """Number of nilpotent matrices of Jordan type lam over F_q."""
    centralizer = Fraction(q) ** sum(c * c for c in conjugate(lam))
    for mult in Counter(lam).values():
        for k in range(1, mult + 1):
            centralizer *= 1 - Fraction(1, q ** k)
    size = gl_order(sum(lam), q) / centralizer
    if size.denominator != 1:
        raise ArithmeticError(f"orbit size of {lam} over F_{q} is {size}")
    return size.numerator


def _types(d: int, m: int, q: int) -> list[tuple[tuple, int]]:
    return [(lam, orbit_size(lam, q)) for lam in partitions(d, m)]


def hom_dim(lam: tuple, mu: tuple) -> int:
    return sum(min(a, b) for a in lam for b in mu)


def ext1_dim(lam: tuple, mu: tuple, m: int) -> int:
    return sum(min(a, b, m - a, m - b) for a in lam for b in mu)


def cocycle_dim(lam: tuple, mu: tuple, m: int) -> int:
    return sum(lam) * sum(mu) - hom_dim(lam, mu) + ext1_dim(lam, mu, m)


def lambda_rep_count(m: int, d: int, q: int) -> int:
    """Points of rep(Lambda(m), d): nilpotent d x d matrices with x^m = 0."""
    return sum(size for _, size in _types(d, m, q))


def lambda_hom_count(m: int, source: int, target: int, q: int) -> int:
    """Triples (source point, target point, homomorphism) over Lambda(m).
    Also the rep count of AprimeCommuting(m) with dims (target, source)."""
    return sum(ns * nt * q ** hom_dim(lam, mu)
               for lam, ns in _types(source, m, q)
               for mu, nt in _types(target, m, q))


def lambda_ext_count(m: int, quo: int, sub: int, q: int) -> int:
    """Triples (quotient point, sub point, cocycle) over Lambda(m).
    Also the rep count of B(1, m) with dims (sub, quo)."""
    return sum(nq * ns * q ** cocycle_dim(lam, mu, m)
               for lam, nq in _types(quo, m, q)
               for mu, ns in _types(sub, m, q))


def corner_rep_count(n: int, m: int, d: int, e: int, q: int) -> int:
    """Rep count of B(n, m) with dims (d, e): the n - 1 arrows besides a1
    are unconstrained."""
    return lambda_ext_count(m, e, d, q) * q ** ((n - 1) * d * e)


def rank_count(rows: int, cols: int, r: int, q: int) -> int:
    """Number of rows x cols matrices of rank r over F_q."""
    out = Fraction(1)
    for i in range(r):
        out *= Fraction((q ** rows - q ** i) * (q ** cols - q ** i),
                        q ** r - q ** i)
    return int(out)


def path_rep_count(d0: int, d1: int, d2: int, q: int) -> int:
    """Pairs (a: d0 -> d1, b: d1 -> d2) with b a = 0, summed over rank a."""
    return sum(rank_count(d1, d0, r, q) * q ** (d2 * (d1 - r))
               for r in range(min(d0, d1) + 1))


def self_test() -> list[str]:
    """Closed forms the formulas above must reproduce."""
    problems = []
    for q in (2, 3, 5):
        for d in range(1, 6):
            # Fine-Herstein (1958): q^(d^2 - d) nilpotent d x d matrices
            if lambda_rep_count(d, d, q) != q ** (d * d - d):
                problems.append(f"Fine-Herstein fails for d={d}, q={q}")
        for rows, cols in ((2, 3), (3, 3)):
            if sum(rank_count(rows, cols, r, q) for r in range(4)) \
                    != q ** (rows * cols):
                problems.append(f"rank counts miss {rows}x{cols}, q={q}")
    return problems


# --- exact matrices --------------------------------------------------------


def _norm(x, p):
    return x % p if p else Fraction(x)


def _inv(x, p):
    return pow(x, -1, p) if p else 1 / x


def identity(n: int, p=None) -> list[list]:
    return [[_norm(int(i == j), p) for j in range(n)] for i in range(n)]


def mat_mul(a, b, p=None):
    inner = len(b)
    cols = len(b[0]) if b else 0
    return [[_norm(sum(row[k] * b[k][j] for k in range(inner)), p)
             for j in range(cols)] for row in a]


def mat_pow(a, k: int, p=None):
    out = identity(len(a), p)
    for _ in range(k):
        out = mat_mul(out, a, p)
    return out


def mat_sub(a, b, p=None):
    return [[_norm(x - y, p) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def is_zero(a) -> bool:
    return all(x == 0 for row in a for x in row)


def rref(rows, p=None) -> tuple[list[list], list[int]]:
    """Reduced row echelon form and pivot columns."""
    rows = [[_norm(x, p) for x in row] for row in rows]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = _inv(rows[r][c], p)
        rows[r] = [_norm(x * inv, p) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [_norm(x - f * y, p) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def rank(rows, p=None) -> int:
    return len(rref(rows, p)[1]) if rows else 0


def kernel(rows, ncols: int, p=None) -> list[list]:
    """Basis of {v : rows v = 0}."""
    red, pivots = rref(rows, p) if rows else ([], [])
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [_norm(0, p)] * ncols
        v[free] = _norm(1, p)
        for i, pc in enumerate(pivots):
            v[pc] = _norm(-red[i][free], p)
        basis.append(v)
    return basis


def inverse(a, p=None):
    n = len(a)
    red, pivots = rref([row + ident for row, ident in zip(a, identity(n, p))],
                       p)
    if pivots[:n] != list(range(n)):
        raise ZeroDivisionError("singular matrix")
    return [row[n:] for row in red]


def random_invertible(n: int, rng: random.Random, p=None):
    """Seeded invertible matrix; over Q entries are small integers."""
    while True:
        a = [[_norm(rng.randrange(p) if p else rng.randint(-2, 2), p)
              for _ in range(n)] for _ in range(n)]
        if rank(a, p) == n:
            return a


def jordan(lam: tuple, p=None):
    """Nilpotent Jordan matrix of type lam (ones above the diagonal)."""
    n = sum(lam)
    out = [[_norm(0, p)] * n for _ in range(n)]
    start = 0
    for part in lam:
        for i in range(start, start + part - 1):
            out[i][i + 1] = _norm(1, p)
        start += part
    return out


def rank_profile(a, m: int, p=None) -> list[int]:
    """Ranks of a, a^2, .., a^m: they determine a nilpotent Jordan type."""
    return [rank(mat_pow(a, k, p), p) for k in range(1, m + 1)]


def jordan_rank_profile(lam: tuple, m: int) -> list[int]:
    return [sum(max(part - k, 0) for part in lam) for k in range(1, m + 1)]
