import random
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd, prod

import pytest
from hypothesis import example, given, settings, strategies as st

from tilefold.exactlat import (
    _swap_rows,
    copy_matrix,
    echelon,
    hermite_normal_form,
    hnf_basis,
    identity_matrix,
    integer_kernel,
    mat_mul,
    mat_vec,
    matrix_shape,
    primitive_vector,
    rational_rank,
    scale_to_primitive_integer,
    smith_invariants,
    solve_left_integer,
    solve_rational,
)

small_matrix = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-9, 9), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


def is_row_hnf(h):
    pivots = []
    for row in h:
        nz = [j for j, x in enumerate(row) if x]
        if not nz:
            continue
        p = nz[0]
        if pivots and p <= pivots[-1]:
            return False
        if row[p] <= 0:
            return False
        pivots.append(p)
    # entries above each pivot reduced into [0, pivot)
    for i, row in enumerate(h):
        nz = [j for j, x in enumerate(row) if x]
        if not nz:
            continue
        p = nz[0]
        for k in range(i):
            if not (0 <= h[k][p] < row[p]):
                return False
    # zero rows at the bottom
    seen_zero = False
    for row in h:
        if not any(row):
            seen_zero = True
        elif seen_zero:
            return False
    return True


def is_unimodular(m) -> bool:
    try:
        return abs(det(m)) == 1
    except ValueError:
        return False


def in_row_lattice(a, b) -> bool:
    return solve_left_integer(a, b) is not None


def row_lattices_equal(a, b):
    return all(in_row_lattice(b, tuple(r)) for r in a) and all(
        in_row_lattice(a, tuple(r)) for r in b
    )


class TestHermite:
    def test_identity(self):
        h, u = hermite_normal_form(identity_matrix(3))
        assert h == identity_matrix(3)
        assert u == identity_matrix(3)

    def test_worked_example(self):
        m = [[2, 4], [6, 8]]
        h, u = hermite_normal_form(m)
        assert h == [[2, 0], [0, 4]]
        assert mat_mul(u, m) == h
        assert is_unimodular(u)

    def test_weight_matrix_full_rank(self):
        from tilefold.quotientfan import COKERNEL_MATRIX

        h, u = hermite_normal_form(COKERNEL_MATRIX)
        pivot_rows = sum(1 for row in h if any(row))
        assert pivot_rows == 3
        assert rational_rank(COKERNEL_MATRIX) == 3

    @settings(max_examples=150, deadline=None)
    @given(small_matrix)
    def test_properties(self, m):
        h, u = hermite_normal_form(m)
        assert mat_mul(u, m) == h
        assert is_unimodular(u)
        assert is_row_hnf(h)
        assert row_lattices_equal(m, h)


def minor_gcd_invariants(m):
    # independent oracle: d_1...d_k = gcd of all k x k minors
    rows, cols = len(m), len(m[0])
    out = []
    prev = 1
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for ri in combinations(range(rows), k):
            for ci in combinations(range(cols), k):
                sub = [[m[i][j] for j in ci] for i in ri]
                g = gcd(g, det(sub))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


class TestSmith:
    def test_zero(self):
        assert smith_invariants([[0, 0], [0, 0]]) == []

    def test_diag_2_3(self):
        m = [[2, 0], [0, 3]]
        assert smith_invariants(m) == [1, 6]
        assert minor_gcd_invariants(m) == [1, 6]
        # already one nonzero entry per row and column, not yet a chain
        assert smith_invariants([[0, 2]]) == [2]
        assert smith_invariants([[0, 0, 4], [0, 6, 0]]) == [2, 12]

    def test_divcalc_relation_matrix(self):
        from tilefold.divcalc import relation_vectors

        rels = [list(r) for r in relation_vectors()]
        assert len(rels) == 9 and len(rels[0]) == 21
        assert smith_invariants(rels) == [1] * 9
        assert rational_rank(rels) == 9

    @settings(max_examples=100, deadline=None)
    @given(small_matrix)
    def test_properties(self, m):
        assert smith_invariants(m) == minor_gcd_invariants(m)

    @settings(max_examples=60, deadline=None)
    @given(small_matrix, st.randoms(use_true_random=False))
    def test_invariants_stable_under_unimodular(self, m, rng):
        rows, cols = len(m), len(m[0])

        def random_unimodular(n):
            u = identity_matrix(n)
            for _ in range(4):
                i, j = rng.randrange(n), rng.randrange(n)
                if i != j:
                    c = rng.randint(-2, 2)
                    for k in range(n):
                        u[i][k] += c * u[j][k]
            return u

        left = random_unimodular(rows)
        right = random_unimodular(cols)
        assert smith_invariants(mat_mul(mat_mul(left, m), right)) == smith_invariants(m)


class TestKernel:
    def test_identity(self):
        assert integer_kernel(identity_matrix(2)) == []

    def test_forced_primitive(self):
        assert integer_kernel([[1, 1]]) == [(1, -1)]

    def test_cokernel_matches_projection(self):
        from tilefold.quotientfan import COKERNEL_MATRIX, WEIGHT_MATRIX

        ker = integer_kernel(WEIGHT_MATRIX)
        assert len(ker) == 3
        # kernel of the weight matrix is the row lattice of the cokernel matrix
        assert row_lattices_equal([list(k) for k in ker], COKERNEL_MATRIX)

    @settings(max_examples=150, deadline=None)
    @given(small_matrix)
    def test_properties(self, m):
        ker = integer_kernel(m)
        cols = len(m[0])
        for v in ker:
            assert mat_vec(m, v) == tuple(0 for _ in m)
            assert primitive_vector(v) == v
        assert len(ker) == cols - rational_rank(m)
        # saturation: any integer kernel vector lies in the lattice
        if ker:
            rng = random.Random(0)
            coeffs = [rng.randint(-3, 3) for _ in ker]
            combo = tuple(
                sum(c * k[j] for c, k in zip(coeffs, ker)) for j in range(cols)
            )
            assert in_row_lattice([list(k) for k in ker], combo)


def gauss_jordan_solve(a, b):
    """Reference: (solution of a @ x == b or None, pivot count of a).

    Plain Gauss-Jordan elimination over Fraction, free variables zero; the
    fraction-free kernel behind solve_rational and rational_rank must agree.
    """
    rows, cols = len(a), len(a[0])
    aug = [[Fraction(x) for x in row] + [Fraction(bb)] for row, bb in zip(a, b)]
    pivots = []
    row = 0
    for col in range(cols):
        piv = next((i for i in range(row, rows) if aug[i][col] != 0), None)
        if piv is None:
            continue
        aug[row], aug[piv] = aug[piv], aug[row]
        inv = 1 / aug[row][col]
        aug[row] = [x * inv for x in aug[row]]
        for i in range(rows):
            if i != row and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[row])]
        pivots.append(col)
        row += 1
    if any(aug[i][cols] != 0 for i in range(row, rows)):
        return None, len(pivots)
    x = [Fraction(0)] * cols
    for r, col in enumerate(pivots):
        x[col] = aug[r][cols]
    return tuple(x), len(pivots)


# entries in [-3, 3] make singular and inconsistent systems common; the
# right-hand side is either arbitrary or a @ x, which is always consistent
small_system = st.integers(1, 6).flatmap(
    lambda r: st.integers(1, 6).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-3, 3), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        ).flatmap(
            lambda a: st.tuples(
                st.just(a),
                st.one_of(
                    st.lists(st.integers(-9, 9), min_size=r, max_size=r),
                    st.lists(st.integers(-9, 9), min_size=c, max_size=c).map(
                        lambda x: mat_vec(a, x)
                    ),
                ),
            )
        )
    )
)


def det(m) -> int:
    """Determinant of a square integer matrix: the signed last pivot of `echelon`."""
    n, cols = matrix_shape(m)
    if n != cols:
        raise ValueError("determinant of a non-square matrix")
    a, pivots, swaps = echelon(m)
    return (-1) ** swaps * a[n - 1][n - 1] if len(pivots) == n else 0


def leibniz_det(m):
    """Reference: the signed sum over permutations, sign from inversions."""
    n = len(m)
    return sum(
        (-1) ** sum(p[i] > p[j] for i, j in combinations(range(n), 2))
        * prod(m[i][p[i]] for i in range(n))
        for p in permutations(range(n))
    )


# entries in [-3, 3] make singular matrices and zero pivots (row swaps) common
square_matrix = st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n
    )
)


# The Bareiss echelon form as it was before it kept the LU multipliers:
# every step updates whole rows, so the column under each pivot is cleared,
# and the row swaps come back as their sign.
def reference_echelon(m):
    """Bareiss fraction-free row echelon form: (rows, pivot columns, sign).

    Each pivot step sets every row below to (f*row - g*pivot_row) // prev,
    f the pivot, g the row's entry under it, prev the previous pivot.  The
    division is exact, and it needs all rows on one scale, so rows with
    g == 0 are rescaled too.  Entries are minors of the row-swapped input:
    the last pivot of a square nonsingular matrix is sign * determinant,
    sign the parity of the row swaps.  Rows past the last pivot are zero.
    """
    rows, cols = matrix_shape(m)
    a = copy_matrix(m)
    pivots = []
    sign = 1
    prev = 1
    row = 0
    for col in range(cols):
        piv = next((i for i in range(row, rows) if a[i][col] != 0), None)
        if piv is None:
            continue
        if piv != row:
            _swap_rows(a, row, piv)
            sign = -sign
        f = a[row][col]
        for i in range(row + 1, rows):
            g = a[i][col]
            a[i] = [(f * x - g * y) // prev for x, y in zip(a[i], a[row])]
        pivots.append(col)
        prev = f
        row += 1
        if row == rows:
            break
    return a, pivots, sign


# wide, tall and square; entries in [-3, 3] make zero pivots common
rectangular_matrix = st.integers(1, 6).flatmap(
    lambda r: st.integers(1, 6).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-3, 3), min_size=c, max_size=c), min_size=r, max_size=r
        )
    )
)


class TestSolvers:
    @settings(max_examples=400, deadline=None)
    @given(small_system)
    def test_echelon_kernel_matches_gauss_jordan(self, system):
        a, b = system
        expected, pivot_count = gauss_jordan_solve(a, b)
        x = solve_rational(a, b)
        assert x == expected
        if x is not None:
            assert all(isinstance(v, Fraction) for v in x)
            assert mat_vec(a, x) == tuple(b)
        assert rational_rank(a) == pivot_count
        if len(a) == len(a[0]):
            assert (det(a) != 0) == (pivot_count == len(a))

    @settings(max_examples=300, deadline=None)
    @given(square_matrix)
    @example([[0, 1], [1, 0]])
    @example([[0, 2, 1], [0, 1, 3], [1, 0, 2]])
    @example([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    def test_det_matches_leibniz(self, m):
        assert det(m) == leibniz_det(m)

    @settings(max_examples=400, deadline=None)
    @given(rectangular_matrix)
    @example([[0, 1], [1, 0]])
    @example([[0, 0, 1], [0, 2, 3], [1, 1, 1], [2, 2, 2]])
    @example([[1, 2, 3, 4], [2, 4, 6, 9]])
    def test_echelon_matches_full_row_reference(self, m):
        # the reference clears the column under each pivot; with those
        # entries (the LU multipliers) set to zero the two forms are equal
        e, pivots, swaps = echelon(m)
        ref, ref_pivots, sign = reference_echelon(m)
        assert pivots == ref_pivots and (-1) ** swaps == sign
        below = {(i, col) for r, col in enumerate(pivots) for i in range(r + 1, len(m))}
        assert [
            [0 if (i, j) in below else x for j, x in enumerate(row)] for i, row in enumerate(e)
        ] == ref

    @settings(max_examples=300, deadline=None)
    @given(square_matrix)
    @example([[2, 1, 0], [4, 3, 1], [2, 5, 7]])
    def test_echelon_gives_the_lu_factors(self, m):
        # with no row swap and a pivot in every column, a = L U with the unit
        # lower L[i][k] = e[i][k] / e[k][k] and U[k][j] = e[k][j] / e[k-1][k-1]
        e, pivots, swaps = echelon(m)
        n = len(m)
        if swaps or pivots != list(range(n)):
            return
        lower = [
            [Fraction(e[i][k], e[k][k]) if k < i else int(i == k) for k in range(n)]
            for i in range(n)
        ]
        upper = [
            [Fraction(e[k][j], e[k - 1][k - 1] if k else 1) if j >= k else 0 for j in range(n)]
            for k in range(n)
        ]
        assert mat_mul(lower, upper) == m

    def test_solve_left(self):
        a = [[2, 0, 1], [0, 3, 1]]
        b = tuple(x + y for x, y in zip(a[0], a[1]))
        x = solve_left_integer(a, b)
        assert x == (1, 1)
        assert solve_left_integer(a, (1, 0, 0)) is None

    def test_solve_rational(self):
        x = solve_rational([[2, 0], [0, 4]], (1, 2))
        assert x is not None and [2 * x[0], 4 * x[1]] == [1, 2]
        assert solve_rational([[1, 1], [1, 1]], (0, 1)) is None

    @pytest.mark.parametrize(
        "v, expected",
        [
            ((4, -6, 0), (2, -3, 0)),
            ((-3,), (-1,)),
            ((Fraction(1, 2), Fraction(-1, 3), 0), (3, -2, 0)),
            ((Fraction(4), Fraction(-6)), (2, -3)),
            ((1, Fraction(-3, 4)), (4, -3)),
            ((Fraction(-2, 6), Fraction(0)), (-1, 0)),
            ((0, 0, 0), (0, 0, 0)),
            ((Fraction(0), 0), (0, 0)),
            ((), ()),
        ],
    )
    def test_scale_to_primitive_integer(self, v, expected):
        out = scale_to_primitive_integer(v)
        assert out == expected and all(type(x) is int for x in out)
        assert scale_to_primitive_integer(list(v)) == expected

    def test_hnf_basis_canonical(self):
        assert hnf_basis([(-1, 1)]) == [(1, -1)]
        assert hnf_basis([(2, 0), (0, 2), (1, 1)]) == [(1, 1), (0, 2)]
