"""Exact scalar fields (F_p and Q), dense matrix algebra and sparse spans.

Scalars are plain Python values: ints in ``[0, p)`` for a prime field,
``fractions.Fraction`` for the rationals.  A field object mediates all
arithmetic, so matrices never touch floating point.  Row reduction returns
the reduced row echelon form, which is unique to the row space, so ranks,
kernels and inverses are reproducible bit for bit.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Hashable, Iterable, Mapping, Sequence, Union

Scalar = Union[int, Fraction]


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class PrimeField:
    """Arithmetic in F_p for a prime p < 2**31, values reduced to [0, p)."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int) or not _is_prime(p):
            raise ValueError(f"field order must be prime, got {p!r}")
        if p >= 2**31:
            raise ValueError(f"field order too large: {p}")
        self.p = p

    zero = 0
    one = 1

    @property
    def characteristic(self) -> int:
        return self.p

    def coerce(self, x) -> int:
        """Map an int, Fraction, or 'a/b' string into the field."""
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, Fraction):
            den = x.denominator % self.p
            if den == 0:
                raise ZeroDivisionError(
                    f"denominator {x.denominator} vanishes in F_{self.p}")
            return x.numerator * pow(den, -1, self.p) % self.p
        if isinstance(x, str):
            return self.coerce(Fraction(x))
        raise TypeError(f"cannot coerce {x!r} into F_{self.p}")

    def reduce(self, x: int) -> int:
        """Normal form of an integer combination of field elements."""
        return x % self.p

    def row_reduce(self, rows: Sequence[Sequence[int]], ncols: int
                   ) -> tuple[tuple, tuple[int, ...]]:
        """Gauss-Jordan elimination: the reduced row echelon form of
        ``rows``, whose entries may be any ints, as a tuple of row tuples,
        and its pivot columns.

        The form is built one row at a time: each row loses its multiple
        of every reduced row at that row's pivot, is reduced mod p once,
        and if a nonzero entry is left, it is scaled to 1 at the first one
        and cleared from the other reduced rows.  Once every column is a
        pivot the remaining rows are not read: the form is the identity
        followed by zero rows."""
        p = self.p
        reduced: dict[int, list] = {}
        for row in rows:
            if len(reduced) == ncols:
                break
            if not any(row):
                continue
            for c, top in reduced.items():
                a = row[c] % p
                if a:
                    row = [x - a * y for x, y in zip(row, top)]
            row = [x % p for x in row]
            if not any(row):
                continue
            lead = next(j for j, x in enumerate(row) if x)
            if row[lead] != 1:
                inv = pow(row[lead], -1, p)
                row = [x * inv % p for x in row]
            for c, top in reduced.items():
                a = top[lead]
                if a:
                    reduced[c] = [(x - a * y) % p for x, y in zip(top, row)]
            reduced[lead] = row
        pivots = tuple(sorted(reduced))
        return (tuple([tuple(reduced[c]) for c in pivots])
                + ((0,) * ncols,) * (len(rows) - len(pivots)), pivots)

    def product(self, rows: Sequence[tuple], cols: Sequence[tuple]) -> tuple:
        """The matrix of dot products of each row with each column, as a
        tuple of row tuples, each entry reduced once."""
        reduce, zero = self.reduce, self.zero
        return tuple(
            tuple([reduce(sum(map(mul, row, col), zero)) for col in cols])
            for row in rows)

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"0 is not invertible in F_{self.p}")
        return pow(a, -1, self.p)

    def elements(self) -> range:
        return range(self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"F{self.p}"


class RationalField:
    """Exact rational arithmetic via fractions.Fraction."""

    zero = Fraction(0)
    one = Fraction(1)

    @property
    def characteristic(self) -> int:
        return 0

    def coerce(self, x) -> Fraction:
        if isinstance(x, (int, Fraction)):
            return Fraction(x)
        if isinstance(x, str):
            return Fraction(x)
        raise TypeError(f"cannot coerce {x!r} into Q")

    def reduce(self, x: Fraction) -> Fraction:
        """Normal form of a combination of field elements: Fractions are
        already normal."""
        return x

    def row_reduce(self, rows: Sequence[tuple], ncols: int
                   ) -> tuple[tuple, tuple[int, ...]]:
        """The reduced row echelon form of ``rows``, of ints or Fractions,
        as a tuple of row tuples, and its pivot columns.

        The form is read off the span's ``Subspace``, whose rows are
        primitive integer multiples of the RREF rows: each nonzero entry is
        divided by its row's pivot entry, once, into a ``Fraction``."""
        zero = self.zero
        span = Subspace(self, ncols, rows)._rows
        pivots = tuple(sorted(span))
        out = []
        for pc in pivots:
            row = span[pc]
            dense = [zero] * ncols
            for j, x in row.items():
                dense[j] = Fraction(x, row[pc])
            out.append(tuple(dense))
        return (tuple(out) + ((zero,) * ncols,) * (len(rows) - len(pivots)),
                pivots)

    def product(self, rows: Sequence[tuple], cols: Sequence[tuple]) -> tuple:
        """The matrix of dot products of each row with each column, as a
        tuple of row tuples.  Each row and each column is scaled by the lcm
        of its denominators; the dot products are taken on integers and
        each entry is built once as ``Fraction(n, da * db)``."""
        zero = self.zero
        right = [_cleared(col) for col in cols]
        out = []
        for row in rows:
            a, da = _cleared(row)
            out_row = []
            for b, db in right:
                n = sum(map(mul, a, b))
                out_row.append(Fraction(n, da * db) if n else zero)
            out.append(tuple(out_row))
        return tuple(out)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("0 is not invertible in Q")
        return 1 / Fraction(a)

    def elements(self):
        raise TypeError("Q is infinite; cannot enumerate its elements")

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")

    def __repr__(self):
        return "Q"


QQ = RationalField()


def _cleared(vec: Sequence[Fraction]) -> tuple[list[int], int]:
    """``(ints, den)`` with ``vec == ints / den``, where ``den`` is the lcm
    of the denominators of the entries."""
    den = lcm(*[x.denominator for x in vec])
    return [x.numerator * (den // x.denominator) for x in vec], den


def kernel_basis(field: Field, rows: Sequence[Sequence], ncols: int
                 ) -> list[tuple]:
    """Basis of {v : row . v = 0 for every row}, read off the reduced row
    echelon form that ``field.row_reduce`` gives: one vector per free
    column, 1 there, 0 at every other free column, and minus that column
    of each nonzero row at the row's pivot."""
    zero, one, neg = field.zero, field.one, field.neg
    red, pivots = field.row_reduce(rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc not in pivot_set:
            v = [zero] * ncols
            v[fc] = one
            for row, pc in zip(red, pivots):
                v[pc] = neg(row[fc])
            basis.append(tuple(v))
    return basis


Field = Union[PrimeField, RationalField]


def GF(p: int) -> PrimeField:
    return PrimeField(p)


class Matrix:
    """Immutable dense matrix over an exact field.

    Zero-by-n and n-by-zero matrices are legal and behave as empty maps;
    products with them produce zero matrices of the right shape.

    Every entry is a field element in normal form: an int in ``[0, p)`` or
    a ``Fraction``.  ``Matrix(...)`` establishes this for outside data (user
    input, serialized matrices, family builders): it validates the shape
    and coerces every entry.  Results of field arithmetic hold field
    elements already, so the kernels here build them with ``_trusted``,
    which does neither.  Products and row reduction run in the field's
    own routines, ``field.product`` and ``field.row_reduce``; elsewhere the
    one normalization applied is ``field.reduce`` on each computed entry.
    """

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field: Field, nrows: int, ncols: int,
                 rows: Sequence[Sequence[Scalar]] | None = None):
        if nrows < 0 or ncols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        if rows is None:
            z = field.zero
            self.rows = tuple(tuple(z for _ in range(ncols)) for _ in range(nrows))
        else:
            if len(rows) != nrows or any(len(r) != ncols for r in rows):
                raise ValueError(
                    f"expected {nrows}x{ncols} data, got "
                    f"{len(rows)}x{[len(r) for r in rows]}")
            self.rows = tuple(tuple(field.coerce(x) for x in r) for r in rows)

    @classmethod
    def _trusted(cls, field: Field, nrows: int, ncols: int,
                 rows: tuple) -> "Matrix":
        """A matrix on ``rows``, a tuple of ``nrows`` tuples of ``ncols``
        field elements in normal form, taken as they are."""
        m = object.__new__(cls)
        m.field = field
        m.nrows = nrows
        m.ncols = ncols
        m.rows = rows
        return m

    @classmethod
    def zeros(cls, field: Field, nrows: int, ncols: int) -> "Matrix":
        return cls._trusted(field, nrows, ncols,
                            ((field.zero,) * ncols,) * nrows)

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        one, zero = field.one, field.zero
        return cls._trusted(field, n, n, tuple(
            tuple([one if i == j else zero for j in range(n)])
            for i in range(n)))

    @classmethod
    def column(cls, field: Field, entries: Sequence[Scalar]) -> "Matrix":
        return cls(field, len(entries), 1, [[x] for x in entries])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def __getitem__(self, idx: tuple[int, int]) -> Scalar:
        i, j = idx
        return self.rows[i][j]

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Matrix) and other.rows == self.rows
            and other.nrows == self.nrows and other.ncols == self.ncols
            and (other.field is self.field or other.field == self.field))

    def __hash__(self):
        return hash((self.nrows, self.ncols, self.rows))

    def __repr__(self):
        if self.nrows == 0 or self.ncols == 0:
            return f"Matrix({self.field}, {self.nrows}x{self.ncols})"
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"Matrix({self.field}, [{body}])"

    def is_zero(self) -> bool:
        z = self.field.zero
        return all(x == z for row in self.rows for x in row)

    def _entrywise(self, op, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix._trusted(self.field, self.nrows, self.ncols, tuple(
            tuple(map(op, ra, rb)) for ra, rb in zip(self.rows, other.rows)))

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(self.field.add, other)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(self.field.sub, other)

    def __neg__(self) -> "Matrix":
        return Matrix._trusted(self.field, self.nrows, self.ncols, tuple(
            tuple(map(self.field.neg, row)) for row in self.rows))

    def scale(self, c: Scalar) -> "Matrix":
        c = self.field.coerce(c)
        reduce = self.field.reduce
        return Matrix._trusted(self.field, self.nrows, self.ncols, tuple(
            tuple([reduce(c * a) for a in row]) for row in self.rows))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        f = self.field
        if other.field is not f and other.field != f:
            raise ValueError("matrix product over mismatched fields")
        if self.ncols != other.nrows:
            raise ValueError(
                f"shape mismatch: {self.shape} @ {other.shape}")
        cols = tuple(zip(*other.rows)) if other.nrows else ((),) * other.ncols
        return Matrix._trusted(f, self.nrows, other.ncols,
                               f.product(self.rows, cols))

    def __pow__(self, k: int) -> "Matrix":
        """self^k by repeated squaring, from self: about 2 log2(k)
        products; the identity for k = 0."""
        if self.nrows != self.ncols:
            raise ValueError("matrix power needs a square matrix")
        if k < 0:
            raise ValueError("negative matrix powers are not supported")
        if k == 0:
            return Matrix.identity(self.field, self.nrows)
        result, square = None, self
        while True:
            if k & 1:
                result = square if result is None else result @ square
            k >>= 1
            if not k:
                return result
            square = square @ square

    def transpose(self) -> "Matrix":
        return Matrix._trusted(self.field, self.ncols, self.nrows,
                               tuple(zip(*self.rows)) if self.nrows else
                               ((),) * self.ncols)

    def _check_same_shape(self, other: "Matrix"):
        if (other.field is not self.field and other.field != self.field) \
                or self.shape != other.shape:
            raise ValueError(
                f"shape/field mismatch: {self.shape} vs {other.shape}")

    # --- row reduction -------------------------------------------------

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form and its pivot columns.

        Each field reduces in its own way (``field.row_reduce``): F_p one
        dense row at a time, Q by reading it off the span's ``Subspace``,
        which keeps sparse primitive integer rows.  Both give the same
        matrix, because the RREF is unique: it depends only on the row
        space.  Its pivot columns are the columns at which the rank of the
        leading columns grows, and its row at pivot c is the one vector of
        the row space that is 1 at c and 0 at every other pivot column.
        Pivots are the first nonzero entry of each column in row order.
        """
        f = self.field
        rows, pivots = f.row_reduce(self.rows, self.ncols)
        return Matrix._trusted(f, self.nrows, self.ncols, rows), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self) -> list[tuple]:
        """Deterministic basis of the right kernel {v : Mv = 0}, from the
        module's ``kernel_basis``.

        Each free column yields one basis vector whose free coordinate is 1
        and whose remaining free coordinates are 0.
        """
        return kernel_basis(self.field, self.rows, self.ncols)

    def inverse(self) -> "Matrix":
        if self.nrows != self.ncols:
            raise ValueError("only square matrices can be inverted")
        n = self.nrows
        aug = hstack(self, Matrix.identity(self.field, n))
        red, pivots = aug.rref()
        if tuple(pivots[:n]) != tuple(range(n)) or len(pivots) < n:
            raise ZeroDivisionError("matrix is singular")
        return Matrix._trusted(self.field, n, n,
                               tuple(row[n:] for row in red.rows))


def hstack(*mats: Matrix) -> Matrix:
    if not mats:
        raise ValueError("hstack needs at least one matrix")
    field, nrows = mats[0].field, mats[0].nrows
    if any(m.nrows != nrows or m.field != field for m in mats):
        raise ValueError("hstack: row counts or fields differ")
    ncols = sum(m.ncols for m in mats)
    rows = tuple(sum((m.rows[i] for m in mats), ()) for i in range(nrows))
    return Matrix._trusted(field, nrows, ncols, rows)


def vstack(*mats: Matrix) -> Matrix:
    if not mats:
        raise ValueError("vstack needs at least one matrix")
    field, ncols = mats[0].field, mats[0].ncols
    if any(m.ncols != ncols or m.field != field for m in mats):
        raise ValueError("vstack: column counts or fields differ")
    rows = tuple(row for m in mats for row in m.rows)
    return Matrix._trusted(field, len(rows), ncols, rows)


def block2x2(a: Matrix, b: Matrix, c: Matrix, d: Matrix) -> Matrix:
    """[[a, b], [c, d]] with shape checks; blocks may have zero dimensions."""
    return vstack(hstack(a, b), hstack(c, d))


class Subspace:
    """Span of vectors over a field, kept in a normal form of its reduced
    row echelon form.

    Rows are sparse int vectors, ``{pivot column: {column: entry}}``: a
    row's pivot is its first nonzero column, and every pivot column is
    zero in every other row.  Over F_p a row is 1 at its pivot, the RREF
    row itself.  Over Q it is the RREF row's primitive integer multiple:
    coprime entries and a positive pivot entry.  Either form is unique to
    the span, so equal spans compare equal.  Vectors are dense sequences or
    ``{column: entry}`` dicts.
    """

    def __init__(self, field: Field, ambient_dim: int,
                 vectors: Iterable[Sequence | dict] = ()):
        self.field = field
        self.ambient_dim = ambient_dim
        self._p = field.characteristic
        self._rows: dict[int, dict[int, int]] = {}
        self.extend(vectors)

    @property
    def dim(self) -> int:
        return len(self._rows)

    def extend(self, vectors: Iterable[Sequence | dict]) -> list[int]:
        """Insert the vectors; the pivot columns they add, in order.  A
        pivot column stays one as more vectors are inserted."""
        return [self._insert(v) for v in map(self._reduce, vectors) if v]

    def _reduce(self, vec: Sequence | dict) -> dict:
        """A nonzero multiple of the vector minus its part in the span, as
        a sparse int vector that is zero at every pivot.  Over Q the vector
        is first scaled to integers by the lcm of its denominators, and
        each row is removed by cross-multiplication (``_eliminate``).
        Subtracting one row leaves the other pivot columns alone, so one
        pass over the vector's entries at pivot columns clears them all."""
        p, coerce = self._p, self.field.coerce
        items = vec.items() if isinstance(vec, dict) else enumerate(vec)
        if p:
            v = {j: x for j, x in ((j, coerce(x)) for j, x in items) if x}
        else:
            v = {j: x if isinstance(x, (int, Fraction)) else coerce(x)
                 for j, x in items}
            den = lcm(*[x.denominator for x in v.values()])
            v = {j: x.numerator * (den // x.denominator)
                 for j, x in v.items() if x}
        rows = self._rows
        for pc in [j for j in v if j in rows]:
            row = rows[pc]
            _eliminate(v, v[pc], row, row[pc], p)
        return v

    def _insert(self, v: dict) -> int:
        """Add a nonzero reduced vector as a new row, in normal form, clear
        its pivot from the others and return that pivot."""
        p, rows = self._p, self._rows
        pc = min(v)
        v = _normalized(v, pc, p)
        for rc, row in rows.items():
            if pc in row:
                _eliminate(row, row[pc], v, v[pc], p)
                rows[rc] = _normalized(row, rc, p)
        rows[pc] = v
        return pc

    def contains(self, vec: Sequence | dict) -> bool:
        return not self._reduce(vec)

    def __eq__(self, other):
        return (isinstance(other, Subspace) and other.field == self.field
                and other.ambient_dim == self.ambient_dim
                and other._rows == self._rows)

    def __le__(self, other: "Subspace") -> bool:
        return all(other.contains(row) for row in self._rows.values())


def _normalized(v: dict, pc: int, p: int) -> dict:
    """A sparse int vector with pivot ``pc`` in ``Subspace`` normal form:
    1 at the pivot over F_p; over Q coprime entries, positive there."""
    if p:
        s = pow(v[pc], -1, p)
        return v if s == 1 else {j: x * s % p for j, x in v.items()}
    g = gcd(*v.values())
    if v[pc] < 0:
        g = -g
    return v if g == 1 else {j: x // g for j, x in v.items()}


def _eliminate(v: dict, a: int, row: dict, lead: int, p: int):
    """v = lead * v - a * row in place, for sparse int vectors, where ``a``
    is v's entry at the row's pivot and ``lead`` the row's own, so that
    entry cancels; entries mod p when p is nonzero.  Over Q both factors
    are first divided by gcd(a, lead), which keeps the entries smaller
    and changes v only by a positive factor.  Zero entries are dropped."""
    if not p:
        g = gcd(a, lead)
        a, lead = a // g, lead // g
    if lead != 1:
        for j in v:
            v[j] *= lead
    for j, y in row.items():
        z = v.get(j, 0) - a * y
        if p:
            z %= p
        if z:
            v[j] = z
        else:
            del v[j]


# --- linear fibers: kernels of sums of sandwiched unknown blocks --------


class SandwichPlan:
    """The homogeneous system sum c * L @ X_k @ R = 0, one equation per
    item, compiled once against the layout of the flat points it reads.

    The unknowns are the entries of the blocks X_k with the given shapes,
    block by block in the order of ``shapes`` and row-major inside a block.
    ``equations`` gives each equation as ((rows, cols), terms), the shape
    of its value and its terms (c, k, left, right), with c a field element
    or an int.  A side is None where it is an identity, and a term has at
    least one other side: a sequence of labels, whose factor at a point is
    the product of their matrices, left to right, each read at the
    (offset, rows, cols) that ``layout`` gives it in the flat point.
    Equations without terms give no rows.  ``kernel(point)`` is the kernel
    basis of the system at a flat point, ``kernel_basis`` of its rows, and
    ``nullity(point)`` its dimension.

    The row-major vec of L X R is (L kron R^T) vec X, so a term adds
    c * L[u, i] * R[j, v] at row (u, v) of its equation and column (i, j)
    of X_k.  A term with one identity side is a gather: the cells each
    entry of its factor adds ``c * entry`` to are fixed, and the plan lists
    them.  A factor that is one matrix is read straight from the point; a
    product comes from ``_path_product``, on one memo per point that the
    gathered products and both sides of two-sided terms share.  A term
    with two sides keeps only where its rows and columns start, and the
    assembly takes both factors and walks their nonzero entries.  Terms
    without cells are dropped: the assembly never reads their factors.

    Rows are lists of ints, not reduced: over F_p the system's own.  Over Q
    the coefficients are cleared once, by the lcm of their denominators,
    and the point is d times the true one, as ints; a term that reads k
    matrices then adds d^k times its share, on ints (``_int_product``).
    Scaling each term by d^(D - k), D the largest such k, makes every row
    the true row times one positive integer.
    """

    def __init__(self, field: Field,
                 shapes: Mapping[Hashable, tuple[int, int]],
                 equations: Sequence[tuple], layout: Mapping):
        self.field = field
        self.shapes = dict(shapes)
        offsets, total = {}, 0
        for k, (r, c) in self.shapes.items():
            offsets[k] = total
            total += r * c
        self.ncols = total
        product = field.product if field.characteristic else _int_product
        den = lcm(*[coeff.denominator for _, terms in equations
                    for coeff, *_ in terms])
        # (index, coeff, cells) entries read from the point and then from
        # each product factor, in the order of products, and the number of
        # matrices each of these sources reads
        gathers: list[list] = [[]]
        degrees = [1]
        products: dict[tuple, int] = {}
        walked = []
        top = nrows = 0
        for (out_r, out_c), terms in equations:
            for coeff, k, left, right in terms:
                r, c = self.shapes[k]
                if left is None and right is None:
                    raise ValueError(f"term on {k!r} has no side")
                if (left is None and out_r != r) or \
                        (right is None and out_c != c):
                    raise ValueError(
                        f"term on {k!r}: an identity side cannot map "
                        f"{(r, c)} to {(out_r, out_c)}")
                parts = [tuple([layout[a] for a in side])
                         for side in (left, right) if side is not None]
                if not (r * c and out_r * out_c):
                    continue
                coeff = coeff.numerator * (den // coeff.denominator)
                degree = sum(map(len, parts))
                top = max(top, degree)
                # row (u, v), column (i, j) is at flat index
                # start + u * du + v * total + i * c + j
                start = nrows * total + offsets[k]
                du, step = out_c * total, total + 1
                if len(parts) == 2:
                    walked.append((coeff, degree, parts,
                                   (start, du, r, c, out_c)))
                    continue
                if right is None:           # L[u, i] adds at j = v
                    cells = [range(s, s + c * step, step)
                             for u in range(out_r) for i in range(r)
                             for s in (start + u * du + i * c,)]
                else:                       # R[j, v] adds at i = u
                    cells = [range(s, s + r * (du + c), du + c)
                             for j in range(c) for v in range(out_c)
                             for s in (start + v * total + j,)]
                segments, = parts
                source, at = 0, segments[0][0]
                if len(segments) > 1:
                    if segments not in products:
                        products[segments] = len(gathers)
                        gathers.append([])
                        degrees.append(degree)
                    source, at = products[segments], 0
                gathers[source].extend(zip(
                    itertools.count(at), itertools.repeat(coeff),
                    map(tuple, cells)))
            if terms:
                nrows += out_r * out_c
        self.nrows = nrows
        row_starts = range(0, nrows * total, total) if total else \
            [0] * nrows

        def rows(point, d=1) -> list[list]:
            flat = [0] * (nrows * total)
            memo = {}
            factors = [point, *[_path_product(product, point, segments, memo)
                                for segments in products]]
            if d != 1:
                factors = [[x * d ** (top - k) for x in factor] if k < top
                           else factor for factor, k in zip(factors, degrees)]
            for factor, entries in zip(factors, gathers):
                for i, coeff, cells in entries:
                    x = factor[i]
                    if x:
                        cx = coeff * x
                        for idx in cells:
                            flat[idx] += cx
            for coeff, degree, term_sources, cells in walked:
                left, right = [_path_product(product, point, segments, memo)
                               for segments in term_sources]
                coeff *= d ** (top - degree)
                at, du, r, c, out_c = cells
                right_cols = [[(j, y) for j, y in enumerate(right[v::out_c])
                               if y] for v in range(out_c)]
                for idx, x in enumerate(left):
                    if x:
                        u, i = divmod(idx, r)
                        cx, base = coeff * x, at + u * du + i * c
                        for col in right_cols:
                            for j, y in col:
                                flat[base + j] += cx * y
                            base += total
            return [flat[i:i + total] for i in row_starts]
        self._rows = rows

    def kernel(self, point: Sequence) -> list[tuple]:
        """The kernel basis of the system at a flat point.  Over Q the point
        is first cleared to integers over one common denominator, and the
        int rows go straight to ``field.row_reduce``, which spans them as
        a ``Subspace`` on ints."""
        return kernel_basis(self.field, self._system(point), self.ncols)

    def nullity(self, point: Sequence) -> int:
        """The dimension of ``kernel(point)``: ``ncols`` minus the pivot
        count of ``field.row_reduce`` on the same rows, with no basis
        vector built."""
        return self.ncols - len(
            self.field.row_reduce(self._system(point), self.ncols)[1])

    def _system(self, point: Sequence) -> list[list]:
        return (self._rows(point) if self.field.characteristic
                else self._rows(*_cleared(point)))


def _path_product(product, point: Sequence, segments: tuple, memo: dict
                  ) -> Sequence:
    """The product of the matrices at the (offset, rows, cols) ``segments``
    of a flat point, row-major: a slice for one matrix, else its first half
    times its second by ``product`` (``field.product`` or ``_int_product``),
    kept in ``memo``, which lives for one point: each subpath is multiplied
    once there, and a loop power e^k takes about log2(k) products."""
    if len(segments) == 1:
        (at, r, c), = segments
        return point[at:at + r * c]
    out = memo.get(segments)
    if out is None:
        half = len(segments) // 2
        r, c, cols = segments[0][1], segments[half][1], segments[-1][2]
        # a half that is one matrix is read in place, at its offset
        left, at = ((point, segments[0][0]) if half == 1 else
                    (_path_product(product, point, segments[:half], memo), 0))
        right, bt = ((point, segments[-1][0]) if half + 1 == len(segments) else
                     (_path_product(product, point, segments[half:], memo), 0))
        out = memo[segments] = tuple(itertools.chain.from_iterable(product(
            [left[at + i * c:at + i * c + c] for i in range(r)],
            [right[j:bt + c * cols:cols] for j in range(bt, bt + cols)])))
    return out


def _int_product(rows: Sequence[Sequence[int]],
                 cols: Sequence[Sequence[int]]) -> tuple:
    """``field.product`` over the integers: exact dot products, with no
    reduction."""
    return tuple(tuple([sum(map(mul, row, col)) for col in cols])
                 for row in rows)


def split_blocks(field: Field, shapes: Mapping[Hashable, tuple[int, int]],
                 vec: Sequence[Scalar]) -> dict:
    """Cut a vector of unknowns, ordered as in SandwichPlan, into its
    blocks; its entries are field elements in normal form."""
    out, pos = {}, 0
    for k, (r, c) in shapes.items():
        end = pos + r * c
        out[k] = Matrix._trusted(field, r, c, tuple(
            [tuple(vec[i:i + c]) for i in range(pos, end, c)]) if c else
            ((),) * r)
        pos = end
    return out


# --- seeded sample generators (used by demos and the test suite) -------


def random_matrix(field: Field, nrows: int, ncols: int,
                  rng: random.Random) -> Matrix:
    if isinstance(field, PrimeField):
        pick = lambda: rng.randrange(field.p)
    else:
        pick = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return Matrix(field, nrows, ncols,
                  [[pick() for _ in range(ncols)] for _ in range(nrows)])


def random_invertible(field: Field, n: int, rng: random.Random) -> Matrix:
    """Seeded invertible matrix: product of random unit triangulars."""
    if n == 0:
        return Matrix(field, 0, 0)
    lower = [[field.one if i == j else
              (random_matrix(field, 1, 1, rng)[0, 0] if i > j else field.zero)
              for j in range(n)] for i in range(n)]
    upper = [[field.one if i == j else
              (random_matrix(field, 1, 1, rng)[0, 0] if i < j else field.zero)
              for j in range(n)] for i in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    p = Matrix(field, n, n,
               [[field.one if j == perm[i] else field.zero for j in range(n)]
                for i in range(n)])
    return Matrix(field, n, n, lower) @ Matrix(field, n, n, upper) @ p

