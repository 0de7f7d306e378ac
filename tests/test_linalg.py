import random
from fractions import Fraction
from math import gcd, lcm
from operator import mul

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import random_nilpotent
from qvl.linalg import (GF, Matrix, QQ, SandwichPlan, Subspace, _path_product,
                        block2x2, hstack, kernel_basis, random_invertible,
                        random_matrix, split_blocks, vstack)

F2 = GF(2)
F5 = GF(5)
F7 = GF(7)


class TestFields:
    def test_prime_check(self):
        with pytest.raises(ValueError):
            GF(6)
        with pytest.raises(ValueError):
            GF(1)
        with pytest.raises(ValueError):
            GF(2**31 + 11)

    def test_reduction(self):
        assert F5.coerce(12) == 2
        assert F5.coerce(-1) == 4
        assert F5.coerce(Fraction(1, 2)) == 3  # 2 * 3 = 6 = 1 mod 5

    def test_char_two_denominator(self):
        with pytest.raises(ZeroDivisionError):
            F2.coerce(Fraction(1, 2))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(1, 4), st.integers(0, 4))
    def test_division_cancels(self, a, b):
        assert F5.mul(a, F5.inv(a)) == 1
        assert F5.mul(F5.mul(a, b), F5.inv(a)) == b % 5

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.fractions(max_denominator=7), st.fractions(max_denominator=7))
    def test_rational_ops_exact(self, a, b):
        assert QQ.add(a, b) == a + b
        assert QQ.sub(QQ.add(a, b), b) == a
        if a != 0:
            assert QQ.mul(a, QQ.inv(a)) == 1

    def test_elements(self):
        assert list(F2.elements()) == [0, 1]
        with pytest.raises(TypeError):
            QQ.elements()


class TestMatrixBasics:
    def test_shapes_and_equality(self):
        m = Matrix(F2, 2, 2, [[0, 1], [0, 0]])
        assert m.shape == (2, 2)
        assert m == Matrix(F2, 2, 2, [[0, 1], [0, 0]])
        assert m != Matrix(F2, 2, 2, [[0, 0], [0, 0]])

    def test_constructor_checks_shape_and_coerces(self):
        with pytest.raises(ValueError):
            Matrix(F5, 2, 2, [[1, 2]])
        with pytest.raises(ValueError):
            Matrix(F5, 1, 2, [[1, 2, 3]])
        with pytest.raises(ValueError):
            Matrix(F5, -1, 0)
        assert Matrix(F5, 1, 3, [[7, -1, Fraction(1, 2)]]).rows == ((2, 4, 3),)
        assert type(Matrix(QQ, 1, 1, [[2]])[0, 0]) is Fraction

    def test_zero_dimension_products(self):
        a = Matrix(F5, 3, 0)
        b = Matrix(F5, 0, 2)
        prod = a @ b
        assert prod.shape == (3, 2) and prod.is_zero()

    def test_power_and_transpose(self):
        n = Matrix(F2, 2, 2, [[0, 1], [0, 0]])
        assert (n ** 2).is_zero()
        assert n.transpose() == Matrix(F2, 2, 2, [[0, 0], [1, 0]])
        assert (n ** 0) == Matrix.identity(F2, 2)

    @pytest.mark.parametrize("field", [F2, F5, QQ], ids=str)
    def test_power_by_squaring_matches_repeated_products(self, field):
        rng = random.Random(f"pow:{field}")
        for n in (0, 1, 3, 4):
            m = random_matrix(field, n, n, rng)
            naive = Matrix.identity(field, n)
            for k in range(10):
                assert m ** k == naive, (n, k)
                naive = naive @ m

    def test_power_errors(self):
        with pytest.raises(ValueError, match="needs a square matrix"):
            Matrix.zeros(F5, 2, 3) ** 2
        with pytest.raises(ValueError, match="needs a square matrix"):
            Matrix.zeros(F5, 2, 3) ** 0
        with pytest.raises(ValueError, match="negative matrix powers"):
            Matrix.identity(F5, 2) ** -1

    def test_blocks(self):
        a = Matrix.identity(F2, 1)
        z = Matrix.zeros(F2, 1, 1)
        m = block2x2(a, a, z, a)
        assert m.rows == ((1, 1), (0, 1))
        with pytest.raises(ValueError):
            hstack(a, Matrix.zeros(F2, 2, 1))
        with pytest.raises(ValueError):
            vstack(a, Matrix.zeros(F2, 1, 2))


class TestRankKernel:
    def test_rank_zero_matrix(self):
        assert Matrix.zeros(F2, 2, 2).rank() == 0

    def test_rank_identity(self):
        assert Matrix.identity(F5, 3).rank() == 3

    def test_rank_hand_reduced(self):
        # row reduction by hand: [[0,1],[0,0]] has a single pivot
        assert Matrix(F2, 2, 2, [[0, 1], [0, 0]]).rank() == 1

    def test_kernel_identity_empty(self):
        assert Matrix.identity(F5, 3).kernel_basis() == []

    def test_kernel_zero_full(self):
        basis = Matrix.zeros(F5, 2, 3).kernel_basis()
        assert basis == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]

    def test_kernel_enumeration_oracle_f2(self):
        # all four vectors of F_2^2: exactly (0,0) and (1,1) are killed
        m = Matrix(F2, 1, 2, [[1, 1]])
        killed = [v for v in [(0, 0), (0, 1), (1, 0), (1, 1)]
                  if all(x == 0 for x, in F2.product(m.rows, [v]))]
        assert killed == [(0, 0), (1, 1)]
        assert m.kernel_basis() == [(1, 1)]

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 10**6))
    def test_rank_nullity_f5(self, rows, cols, seed):
        m = random_matrix(F5, rows, cols, random.Random(seed))
        kernel = m.kernel_basis()
        assert m.rank() + len(kernel) == cols
        for v in kernel:
            assert all(x == 0 for x, in F5.product(m.rows, [v]))
            assert any(x != 0 for x in v)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 10**6))
    def test_rank_nullity_rationals(self, rows, cols, seed):
        m = random_matrix(QQ, rows, cols, random.Random(seed))
        kernel = m.kernel_basis()
        assert m.rank() + len(kernel) == cols
        for v in kernel:
            assert all(x == 0 for x, in QQ.product(m.rows, [v]))

    def test_determinism(self):
        rng = random.Random(42)
        m = random_matrix(F5, 5, 7, rng)
        again = Matrix(F5, 5, 7, [list(r) for r in m.rows])
        assert m.kernel_basis() == again.kernel_basis()
        assert m.rref() == again.rref()


@st.composite
def row_spaces(draw):
    """A field, two matrices A and B of the same width (B spanning A's row
    space half the time) and a vector, all sparse enough to have zero rows,
    zero columns and rank drops; empty shapes included."""
    field = draw(st.sampled_from([F2, F5, QQ]))
    entries = [0, 0, 0, 1, 2, 3] + ([-1, Fraction(1, 2), Fraction(-2, 3)]
                                    if field == QQ else [])
    nrows, ncols = draw(st.integers(0, 5)), draw(st.integers(0, 5))

    def matrix(n):
        return Matrix(field, n, ncols,
                      [[draw(st.sampled_from(entries)) for _ in range(ncols)]
                       for _ in range(n)])
    a = matrix(nrows)
    if draw(st.booleans()):
        g = random_invertible(field, nrows, random.Random(draw(
            st.integers(0, 10**6))))
        b = vstack(g @ a, Matrix.zeros(field, 1, ncols))
    else:
        b = matrix(draw(st.integers(0, 5)))
    return field, a, b, matrix(1).rows[0]


@st.composite
def span_cases(draw):
    """(field, n, a, b, w, order): two families of vectors in dimension n,
    a vector w and a reordering of a.  Over Q the entries mix ints and
    fractions of different denominators.  Each family holds zero vectors
    and combinations of earlier vectors, b also combinations of a's."""
    q = draw(st.sampled_from([0, 0, 2, 5]))
    field = GF(q) if q else QQ
    n = draw(st.integers(0, 5))
    entry = st.integers(-q, q) if q else (
        st.integers(-4, 4) | st.fractions(-4, 4, max_denominator=9))

    def family(earlier):
        vectors = []
        for _ in range(draw(st.integers(0, 5))):
            pool = earlier + vectors
            how = draw(st.sampled_from(["free", "zero", "combination"]))
            if how == "combination" and pool:
                x, y = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
                s, t = draw(entry), draw(entry)
                vectors.append([s * u + t * v for u, v in zip(x, y)])
            elif how == "zero":
                vectors.append([0] * n)
            else:
                vectors.append([draw(entry) for _ in range(n)])
        return vectors

    a = family([])
    b = family(a)
    w = draw(st.sampled_from(family(a) or [[0] * n]))
    return field, n, a, b, w, draw(st.permutations(range(len(a))))


class TestSubspace:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(row_spaces())
    def test_agrees_with_dense_rref(self, case):
        field, a, b, v = case
        n = a.ncols
        span_a, span_b = Subspace(field, n, a.rows), Subspace(field, n, b.rows)
        assert span_a.dim == a.rank()
        assert span_a.contains(v) == (vstack(
            a, Matrix(field, 1, n, [v])).rank() == a.rank())
        assert (span_a == span_b) == (span_a <= span_b and span_b <= span_a)
        assert (span_a <= span_b) == (vstack(a, b).rank() == b.rank())
        sparse = [{j: x for j, x in enumerate(row) if x} for row in a.rows]
        assert Subspace(field, n, sparse) == span_a

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(span_cases())
    def test_normal_form_against_oracle(self, case):
        # the rows are unique to the span: over Q the primitive integer
        # multiples of the RREF rows, over F_p the RREF rows
        field, n, a, b, w, order = case

        def rank(vectors):
            rows = [tuple(map(field.coerce, v)) for v in vectors]
            return len(gauss_jordan_oracle(rows, n, field)[1])

        def sparse(vectors):
            return [{j: x for j, x in enumerate(v) if x} for v in vectors]

        span = Subspace(field, n, a)
        assert span == Subspace(field, n, sparse([a[i] for i in order]))
        assert span.dim == rank(a)
        assert span.contains(w) == (rank(a + [w]) == rank(a))
        other = Subspace(field, n, sparse(b))
        assert (span <= other) == (rank(a + b) == rank(b))
        assert (other <= span) == (rank(a + b) == rank(a))
        assert (span == other) == (rank(a) == rank(b) == rank(a + b))

    def test_monomial_rows_and_equal_spans(self):
        span = Subspace(QQ, 4, [{3: 2}, {1: 1, 3: 5}, {0: Fraction(1, 2)}])
        assert span.dim == 3
        assert span.contains((0, 7, 0, 1)) and not span.contains({2: 1})
        assert span == Subspace(QQ, 4, [(0, 1, 0, 0), (1, 0, 0, 0),
                                        (0, 0, 0, 1)])
        assert Subspace(F2, 0) == Subspace(F2, 0, [()])


class TestInverse:
    def test_identity(self):
        i3 = Matrix.identity(F5, 3)
        assert i3.inverse() == i3

    def test_singular_raises(self):
        with pytest.raises(ZeroDivisionError):
            Matrix(F2, 2, 2, [[1, 1], [1, 1]]).inverse()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(1, 5), st.integers(0, 10**6))
    def test_random_invertible_round_trip(self, n, seed):
        g = random_invertible(F5, n, random.Random(seed))
        assert g @ g.inverse() == Matrix.identity(F5, n)

    def test_rational_inverse_exact(self):
        m = Matrix(QQ, 2, 2, [[Fraction(1, 2), 1], [0, 3]])
        assert m @ m.inverse() == Matrix.identity(QQ, 2)


class TestNilpotentGenerator:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(1, 5), st.integers(1, 4), st.integers(0, 10**6))
    def test_order_honored(self, n, order, seed):
        m = random_nilpotent(F5, n, order, random.Random(seed))
        assert (m ** order).is_zero()


def assert_entries(field, entries):
    """Every entry is a field element in normal form."""
    for x in entries:
        if field == QQ:
            assert type(x) is Fraction
        else:
            assert type(x) is int and 0 <= x < field.p


def assert_normal(m: Matrix):
    """m is what the coercing constructor builds on its rows."""
    assert type(m.rows) is tuple
    assert all(type(row) is tuple for row in m.rows)
    assert m == Matrix(m.field, m.nrows, m.ncols, m.rows)
    assert_entries(m.field, (x for row in m.rows for x in row))


@st.composite
def trusted_cases(draw):
    """A field and matrices a (r x k), b (k x c) and a square s, with zero
    rows, zero columns and empty shapes among them; entries are raw ints
    or Fractions for the coercing constructor."""
    field = draw(st.sampled_from([F2, F5, F7, QQ]))
    entry = (st.fractions(min_value=-4, max_value=4, max_denominator=5)
             if field == QQ else st.integers(-20, 20))
    entry = st.one_of(st.just(0), entry)
    size = st.integers(0, 4)
    r, k, c, n = draw(size), draw(size), draw(size), draw(size)

    def matrix(nrows, ncols):
        return Matrix(field, nrows, ncols, [[draw(entry) for _ in range(ncols)]
                                            for _ in range(nrows)])
    return field, matrix(r, k), matrix(k, c), matrix(n, n)


class TestTrustedResults:
    """Results of field arithmetic skip the constructor's coercion; they
    must still be exactly what it would build."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(trusted_cases())
    def test_products_and_reductions(self, case):
        field, a, b, s = case
        prod = a @ b
        assert_normal(prod)

        def entry(i, j):
            acc = field.zero
            for t in range(a.ncols):
                acc = field.add(acc, field.mul(a[i, t], b[t, j]))
            return acc
        assert prod.rows == tuple(tuple(entry(i, j) for j in range(b.ncols))
                                  for i in range(a.nrows))
        for m in (a, b, s):
            red, pivots = m.rref()
            assert_normal(red)
            assert len(pivots) == m.rank()
            for v in m.kernel_basis():
                assert_entries(field, v)
                assert all(x == field.zero
                           for x, in field.product(m.rows, [v]))
        if s.rank() == s.nrows:
            inv = s.inverse()
            assert_normal(inv)
            assert s @ inv == Matrix.identity(field, s.nrows)
        else:
            with pytest.raises(ZeroDivisionError):
                s.inverse()
        for m in (Matrix.identity(field, s.nrows),
                  Matrix.zeros(field, a.nrows, b.ncols), a + a, a - a, -a,
                  a.scale(3), a.transpose(), hstack(a, a), vstack(b, b),
                  s ** 2):
            assert_normal(m)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(trusted_cases())
    def test_sandwich_system_and_split_blocks(self, case):
        field, a, b, _ = case
        shapes = {"x": (a.ncols, b.nrows), "y": (a.ncols, b.nrows)}
        c = field.coerce(3)
        layout = {"a": (0, a.nrows, a.ncols),
                  "b": (a.nrows * a.ncols, b.nrows, b.ncols)}
        plan = SandwichPlan(field, shapes, [((a.nrows, b.ncols), [
            (c, "x", ("a",), ("b",)), (-1, "y", ("a",), ("b",))])], layout)
        assert (plan.nrows, plan.ncols) == \
            (a.nrows * b.ncols, 2 * a.ncols * b.nrows)
        point = tuple(x for m in (a, b) for row in m.rows for x in row)
        for vec in plan.kernel(point):
            assert_entries(field, vec)
            blocks = split_blocks(field, shapes, vec)
            for block in (*blocks.values(),
                          *split_blocks(field, shapes, list(vec)).values()):
                assert_normal(block)
            assert (a @ blocks["x"] @ b).scale(c) == a @ blocks["y"] @ b


class TestPathProduct:
    """``_path_product`` against a dense chain of ``Matrix`` products."""

    # shapes (rows, cols): a and b pass through a vertex of dim 0
    SHAPES = {"e": (3, 3), "a": (3, 0), "b": (0, 2), "g": (2, 3),
              "h": (3, 2)}
    PATHS = [*[("e",) * k for k in range(1, 13)], ("a", "b"),
             ("e", "a", "b", "g", "e"), ("b", "g", "h"), ("h", "g", "e", "e"),
             ("g", "e", "h"), ("e", "h", "g", "e", "e", "e", "e")]

    @pytest.mark.parametrize("field", [QQ, F5], ids=str)
    def test_agrees_with_matrix_chain(self, field):
        rng = random.Random(f"path product {field}")
        mats = {a: random_matrix(field, r, c, rng)
                for a, (r, c) in self.SHAPES.items()}
        layout, point = {}, []
        for a, m in mats.items():
            layout[a] = (len(point), m.nrows, m.ncols)
            point += [x for row in m.rows for x in row]
        memo = {}
        for path in self.PATHS:
            want = mats[path[0]]
            for a in path[1:]:
                want = want @ mats[a]
            segments = tuple(layout[a] for a in path)
            got = _path_product(field.product, point, segments, memo)
            assert list(got) == [x for row in want.rows for x in row], path
            assert _path_product(field.product, point, segments, {}) == got
        # an r x 0 times a 0 x c matrix is the zero r x c matrix
        assert memo[(layout["a"], layout["b"])] == (field.zero,) * 6
        assert _path_product(field.product, point, (layout["b"],), {}) == []

    def test_loop_power_takes_its_halves(self):
        # e^12 is e^6 e^6, e^6 is e^3 e^3, e^3 is e e^2: four products
        point = list(range(9))
        memo = {}
        _path_product(F5.product, point, ((0, 3, 3),) * 12, memo)
        assert sorted(map(len, memo)) == [2, 3, 6, 12]


def gauss_jordan_oracle(rows, ncols, field=QQ):
    """RREF and pivots by the textbook loop on field elements, every
    operation a method of ``field``."""
    rows = [list(row) for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c] != 0),
                         None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [field.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            factor = rows[i][c]
            if i != r:
                rows[i] = [field.sub(x, field.mul(factor, y))
                           for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return tuple(tuple(row) for row in rows), tuple(pivots)


def product_oracle(a_rows, b_rows, ncols):
    out = []
    for row in a_rows:
        out_row = []
        for j in range(ncols):
            acc = QQ.zero
            for x, b_row in zip(row, b_rows):
                acc = QQ.add(acc, QQ.mul(x, b_row[j]))
            out_row.append(acc)
        out.append(tuple(out_row))
    return tuple(out)


Q_ENTRY = st.one_of(
    st.just(Fraction(0)),
    st.integers(-9, 9).map(Fraction),
    st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6)))


@st.composite
def q_matrix(draw, nrows=None, ncols=None):
    """A Q matrix of up to 6 x 6, empty shapes included, whose rows are
    sometimes multiples of one another or sums of two others."""
    size = st.integers(0, 6)
    r = draw(size) if nrows is None else nrows
    c = draw(size) if ncols is None else ncols
    rows = [[draw(Q_ENTRY) for _ in range(c)] for _ in range(r)]
    for i in range(1, r):
        how = draw(st.sampled_from(["free", "free", "multiple", "sum"]))
        j, k = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
        if how == "multiple":
            scalar = draw(Q_ENTRY)
            rows[i] = [scalar * x for x in rows[j]]
        elif how == "sum":
            rows[i] = [x + y for x, y in zip(rows[j], rows[k])]
    return Matrix(QQ, r, c, rows)


class TestRationalKernels:
    """Over Q, elimination and products run on integer rows; the results
    must be exactly those of Fraction arithmetic."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(q_matrix())
    def test_rref_kernel_against_oracle(self, m):
        red, pivots = m.rref()
        oracle_red, oracle_pivots = gauss_jordan_oracle(m.rows, m.ncols)
        assert (red.rows, pivots) == (oracle_red, oracle_pivots)
        assert_normal(red)
        assert m.rank() == len(pivots)
        basis = []
        for fc in (c for c in range(m.ncols) if c not in pivots):
            v = [QQ.zero] * m.ncols
            v[fc] = QQ.one
            for i, pc in enumerate(pivots):
                v[pc] = QQ.neg(oracle_red[i][fc])
            basis.append(tuple(v))
        assert m.kernel_basis() == basis
        for v in basis:
            assert_entries(QQ, v)
            assert product_oracle(m.rows, [[x] for x in v], 1) == \
                ((QQ.zero,),) * m.nrows

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.integers(0, 5).flatmap(
        lambda n: q_matrix(nrows=n, ncols=n)))
    def test_inverse_against_oracle(self, s):
        n = s.nrows
        aug = [row + tuple(QQ.one if i == j else QQ.zero for j in range(n))
               for i, row in enumerate(s.rows)]
        red, pivots = gauss_jordan_oracle(aug, 2 * n)
        if pivots[:n] != tuple(range(n)):
            with pytest.raises(ZeroDivisionError):
                s.inverse()
            return
        inv = s.inverse()
        assert inv.rows == tuple(row[n:] for row in red)
        assert_normal(inv)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.tuples(st.integers(0, 6), st.integers(0, 6),
                     st.integers(0, 6)).flatmap(
        lambda s: st.tuples(q_matrix(s[0], s[1]), q_matrix(s[1], s[2]))))
    def test_product_against_oracle(self, pair):
        a, b = pair
        prod = a @ b
        assert prod.shape == (a.nrows, b.ncols)
        assert prod.rows == product_oracle(a.rows, b.rows, b.ncols)
        assert_normal(prod)


@st.composite
def kernel_systems(draw):
    """(field, rows, ncols) for ``kernel_basis``: empty shapes, zero rows,
    ints of either sign beyond [0, p) over F_p, and systems whose leading
    rows already have full column rank."""
    q = draw(st.sampled_from([2, 3, 5, 7, 0]))
    field = GF(q) if q else QQ
    ncols = draw(st.integers(0, 5))
    entry = (st.integers(-3 * q, 3 * q) if q else
             st.fractions(-4, 4, max_denominator=4) | st.integers(-4, 4))
    row = st.just([0] * ncols) | st.lists(entry, min_size=ncols,
                                          max_size=ncols)
    rows = draw(st.lists(row, max_size=6))
    if draw(st.booleans()):
        # a unit lower triangular block, in any row order, comes first
        block = [[draw(entry) if j < i else 1 + q * draw(st.integers(-2, 2))
                  if j == i else 0 for j in range(ncols)]
                 for i in range(ncols)]
        rows = draw(st.permutations(block)) + rows
    return field, rows, ncols


def _large_q_systems():
    """Q systems beyond what ``kernel_systems`` draws: a dense 12 x 24 one
    with denominators up to 9, a 20 x 20 product L R of rank 7, and sparse
    int rows with entries beyond 10^6 and integer combinations of them, as
    ``SandwichPlan`` passes after clearing denominators."""
    rng = random.Random(0)
    frac = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    dense = [[frac() for _ in range(24)] for _ in range(12)]
    left = [[frac() for _ in range(7)] for _ in range(20)]
    right = [[frac() for _ in range(20)] for _ in range(7)]
    low_rank = [[sum(x * y for x, y in zip(row, col)) for col in zip(*right)]
                for row in left]
    ints = [[rng.randint(-10**12, 10**12) if rng.random() < 0.4 else 0
             for _ in range(16)] for _ in range(6)]
    for _ in range(4):
        coeffs = [rng.randint(-5, 5) for _ in ints]
        ints.append([sum(map(mul, coeffs, col)) for col in zip(*ints)])
    return [(QQ, dense, 24), (QQ, low_rank, 20), (QQ, ints, 16)]


LARGE_Q_SYSTEMS = _large_q_systems()


@st.composite
def shared_factor_systems(draw):
    """Q systems of up to 6 x 6 whose rows share large factors: a drawn
    row is a factor up to 10^6 times entries up to 10^6, over one
    denominator, and a combined row the sum of multiples of two earlier
    ones, so pivots and eliminated entries have large gcds."""
    ncols = draw(st.integers(1, 6))
    big = st.integers(1, 10**6)
    rows = []
    for i in range(draw(st.integers(1, 6))):
        if i and draw(st.booleans()):
            x, y = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(big), draw(st.integers(-10**6, 10**6))
            rows.append([s * u + t * v for u, v in zip(x, y)])
            continue
        factor, den = draw(big), draw(st.sampled_from([1, 1, 6, 10**6]))
        rows.append([Fraction(factor * draw(st.integers(-10**6, 10**6)), den)
                     if draw(st.booleans()) else 0 for _ in range(ncols)])
    return rows


def _check_against_oracle(field, rows, ncols):
    """row_reduce takes the unreduced rows, the oracle their field
    elements; both give the RREF, and the basis read off it.  Returns the
    oracle's RREF and pivots."""
    red, pivots = gauss_jordan_oracle(
        [tuple(map(field.coerce, row)) for row in rows], ncols, field)
    typed = lambda m: [[(type(x), x) for x in v] for v in m]
    got, got_pivots = field.row_reduce(rows, ncols)
    assert (typed(got), got_pivots) == (typed(red), pivots)
    expected = []
    for fc in range(ncols):
        if fc not in pivots:
            v = [field.zero] * ncols
            v[fc] = field.one
            for row, pc in zip(red, pivots):
                v[pc] = field.neg(row[fc])
            expected.append(tuple(v))
    assert typed(kernel_basis(field, rows, ncols)) == typed(expected)
    assert typed(Matrix(field, len(rows), ncols, rows).kernel_basis()) \
        == typed(expected)
    return red, pivots


class TestKernelBasis:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(kernel_systems())
    @example(LARGE_Q_SYSTEMS[0])
    @example(LARGE_Q_SYSTEMS[1])
    @example(LARGE_Q_SYSTEMS[2])
    def test_row_reduce_and_kernel_against_oracle(self, case):
        _check_against_oracle(*case)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(shared_factor_systems())
    def test_large_shared_factors_against_oracle(self, rows):
        # elimination divides out gcd(a, lead) before cross-multiplying:
        # the Subspace rows stay the primitive RREF rows, and the RREF and
        # kernel those of Fraction arithmetic
        ncols = len(rows[0])
        red, pivots = _check_against_oracle(QQ, rows, ncols)
        primitive = {}
        for row, pc in zip(red, pivots):
            den = lcm(*[x.denominator for x in row])
            ints = [x.numerator * (den // x.denominator) for x in row]
            g = gcd(*ints)
            primitive[pc] = {j: x // g for j, x in enumerate(ints) if x}
        assert Subspace(QQ, ncols, rows)._rows == primitive
