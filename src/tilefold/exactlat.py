"""Exact integer and rational linear algebra.

All matrices are lists (or tuples) of rows of Python ints, so every
computation here is arbitrary precision by construction.  Two elimination
kernels back every other module: `hermite_normal_form` over Z gives normal
forms, Smith invariants, kernels for subtorus inclusions and lattice
membership; the Bareiss `echelon` over Q gives rank and the rational solve
that projects rays off a cone's lineality, and it leaves the LU multipliers
in place, so it also gives the LU factorization that the generator
derivation needs.  Rationals (`fractions.Fraction`) remain only in that
lineality projection: `solve_rational`, `orthogonal_complement_projection`
and `scale_to_primitive_integer`, which `polyhedra._canonical_rays` reads.
Every other module takes and returns integer vectors.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

Vector = tuple[int, ...]
Matrix = list[list[int]]


def copy_matrix(m) -> Matrix:
    return [list(row) for row in m]


def identity_matrix(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def matrix_shape(m) -> tuple[int, int]:
    rows = len(m)
    if rows == 0:
        raise ValueError("empty matrix")
    cols = len(m[0])
    if any(len(row) != cols for row in m):
        raise ValueError("ragged matrix")
    return rows, cols


def transpose(m) -> Matrix:
    rows, cols = matrix_shape(m)
    return [[m[i][j] for i in range(rows)] for j in range(cols)]


def mat_mul(a, b) -> Matrix:
    ra, ca = matrix_shape(a)
    rb, cb = matrix_shape(b)
    if ca != rb:
        raise ValueError("shape mismatch in mat_mul")
    bt = transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def mat_vec(m, v) -> Vector:
    rows, cols = matrix_shape(m)
    if len(v) != cols:
        raise ValueError("shape mismatch in mat_vec")
    return tuple(sum(map(mul, row, v)) for row in m)


def dot(u, v) -> int:
    if len(u) != len(v):
        raise ValueError("length mismatch in dot")
    return sum(map(mul, u, v))


def primitive_vector(v) -> Vector:
    """Divide an integer vector by the gcd of its entries (direction kept)."""
    g = gcd(*v)
    if g == 1:
        return tuple(v)
    if g == 0:
        return tuple(0 for _ in v)
    return tuple(x // g for x in v)


def scale_to_primitive_integer(v) -> Vector:
    """Primitive integer vector with the same direction as a rational vector."""
    if all(isinstance(x, int) for x in v):
        return primitive_vector(v)
    fracs = [Fraction(x) for x in v]
    den = lcm(*[f.denominator for f in fracs])
    return primitive_vector([f.numerator * (den // f.denominator) for f in fracs])


def _swap_rows(m, i, j):
    m[i], m[j] = m[j], m[i]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with x*a + y*b = g = gcd(a, b), g >= 0."""
    x_prev, x_cur = 1, 0
    y_prev, y_cur = 0, 1
    g_prev, g_cur = a, b
    while g_cur:
        q = g_prev // g_cur
        g_prev, g_cur = g_cur, g_prev - q * g_cur
        x_prev, x_cur = x_cur, x_prev - q * x_cur
        y_prev, y_cur = y_cur, y_prev - q * y_cur
    if g_prev < 0:
        g_prev, x_prev, y_prev = -g_prev, -x_prev, -y_prev
    return g_prev, x_prev, y_prev


def hermite_normal_form(m) -> tuple[Matrix, Matrix]:
    """Row-style Hermite normal form.

    Returns (h, u) with u unimodular, u @ m == h, pivots positive and the
    entries above every pivot reduced into [0, pivot).  This is the single
    canonical form used to deduplicate lattice objects repository-wide.
    """
    rows, cols = matrix_shape(m)
    h = copy_matrix(m)
    u = identity_matrix(rows)
    pivot_row = 0
    for col in range(cols):
        if pivot_row >= rows:
            break
        # Clear the column below pivot_row with unimodular row operations.
        nz = [i for i in range(pivot_row, rows) if h[i][col] != 0]
        if not nz:
            continue
        if nz[0] != pivot_row:
            _swap_rows(h, pivot_row, nz[0])
            _swap_rows(u, pivot_row, nz[0])
        for i in range(pivot_row + 1, rows):
            if h[i][col] == 0:
                continue
            a, b = h[pivot_row][col], h[i][col]
            g, x, y = _xgcd(a, b)
            a_g, b_g = a // g, b // g
            hp, hi = h[pivot_row], h[i]
            up, ui = u[pivot_row], u[i]
            for k in range(cols):
                hp[k], hi[k] = x * hp[k] + y * hi[k], -b_g * hp[k] + a_g * hi[k]
            for k in range(rows):
                up[k], ui[k] = x * up[k] + y * ui[k], -b_g * up[k] + a_g * ui[k]
        if h[pivot_row][col] < 0:
            h[pivot_row] = [-x for x in h[pivot_row]]
            u[pivot_row] = [-x for x in u[pivot_row]]
        piv = h[pivot_row][col]
        for i in range(pivot_row):
            q = h[i][col] // piv
            if q:
                h[i] = [a - q * b for a, b in zip(h[i], h[pivot_row])]
                u[i] = [a - q * b for a, b in zip(u[i], u[pivot_row])]
        pivot_row += 1
    return h, u


def hnf_basis(vectors) -> list[Vector]:
    """Canonical (HNF, no zero rows) basis of the lattice spanned by vectors."""
    vectors = [list(v) for v in vectors]
    if not vectors:
        return []
    h, _ = hermite_normal_form(vectors)
    return [tuple(row) for row in h if any(row)]


def smith_invariants(m) -> list[int]:
    """Nonzero Smith invariants d_1 | d_2 | ... of an integer matrix.

    Row Hermite forms of the matrix and of its transpose are taken in turn
    until every row and column has at most one nonzero entry.  That matrix
    is equivalent to m, and diag(a, b) to diag(gcd(a, b), lcm(a, b)), so
    replacing pairs of its entries by their gcd and lcm gives the chain.
    """
    matrix_shape(m)  # rejects empty and ragged input
    h = copy_matrix(m)
    # The loop ends.  A Hermite form's leading pivot g is the gcd of its
    # column, which is zero elsewhere; the next form's is the gcd of g's
    # row, so it divides g.  If it equals g, the transpose has the row
    # g * e_0, so by uniqueness of the Hermite form g's row is then zero
    # elsewhere too, and stays so while the passes go on in the rest.
    # A positive integer falls to a proper divisor only finitely often.
    while True:
        entries = [(i, j, x) for i, row in enumerate(h) for j, x in enumerate(row) if x]
        if len({i for i, _, _ in entries}) == len({j for _, j, _ in entries}) == len(entries):
            break
        h = transpose(hermite_normal_form(h)[0])
    d = [abs(x) for _, _, x in entries]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            d[i], d[j] = gcd(d[i], d[j]), lcm(d[i], d[j])
    return d


def integer_kernel(m) -> list[Vector]:
    """Saturated lattice basis of {v : m @ v == 0}, each vector primitive.

    The basis is returned in Hermite normal form, the canonical choice.
    Basis vectors of a saturated lattice are automatically primitive.
    """
    rows, cols = matrix_shape(m)
    h, u = hermite_normal_form(transpose(m))
    raw = [u[i] for i in range(cols) if not any(h[i])]
    return hnf_basis(raw)


def echelon(m) -> tuple[Matrix, list[int], int]:
    """Bareiss fraction-free row echelon form: (rows, pivot columns, swaps).

    Each pivot step sets the entries right of the pivot column in every row
    below to (f*x - g*y) // prev, f the pivot, g the row's entry under it,
    prev the previous pivot.  The division is exact, and it needs all rows
    on one scale, so rows with g == 0 are rescaled too.  g stays in place;
    g over the pivot of its column is an entry of the unit lower LU factor
    of the row-swapped input.  Entries at and right of each pivot are minors
    of that input, so the last pivot of a square nonsingular matrix is
    (-1) ** swaps * determinant.
    """
    rows, cols = matrix_shape(m)
    a = copy_matrix(m)
    pivots = []
    swaps = 0
    prev = 1
    row = 0
    for col in range(cols):
        if a[row][col] == 0:
            piv = next((i for i in range(row + 1, rows) if a[i][col] != 0), None)
            if piv is None:
                continue
            _swap_rows(a, row, piv)
            swaps += 1
        pivot_row = a[row]
        f = pivot_row[col]
        for r in a[row + 1 :]:
            g = r[col]
            for j in range(col + 1, cols):
                r[j] = (f * r[j] - g * pivot_row[j]) // prev
        pivots.append(col)
        prev = f
        row += 1
        if row == rows:
            break
    return a, pivots, swaps


def rational_rank(m) -> int:
    """Rank over Q by fraction-free Gaussian elimination (independent of HNF)."""
    return len(echelon(m)[1])


def solve_left_integer(a, b):
    """Integer x with x @ a == b, or None.  Decides row-lattice membership."""
    rows, cols = matrix_shape(a)
    if len(b) != cols:
        raise ValueError("shape mismatch in solve_left_integer")
    h, u = hermite_normal_form(a)
    # Solve y @ h == b by forward substitution on the staircase of h.
    y = [0] * rows
    residue = list(b)
    for i in range(rows):
        piv_col = next((j for j in range(cols) if h[i][j] != 0), None)
        if piv_col is None:
            break
        if residue[piv_col] % h[i][piv_col] != 0:
            return None
        q = residue[piv_col] // h[i][piv_col]
        y[i] = q
        if q:
            residue = [r - q * hv for r, hv in zip(residue, h[i])]
    if any(residue):
        return None
    return tuple(sum(y[i] * u[i][k] for i in range(rows)) for k in range(rows))


def solve_rational(a, b):
    """Solution x (tuple of Fractions) of a @ x == b over Q, or None.

    Free variables are set to zero, so an underdetermined system yields
    the solution supported on the pivot columns.
    """
    rows, cols = matrix_shape(a)
    if len(b) != rows:
        raise ValueError("shape mismatch in solve_rational")
    ech, pivots, _ = echelon([list(row) + [bb] for row, bb in zip(a, b)])
    if pivots and pivots[-1] == cols:
        return None  # a pivot in the right-hand side: inconsistent
    x = [Fraction(0)] * cols
    for r in reversed(range(len(pivots))):
        row = ech[r]
        rest = sum(row[j] * x[j] for j in pivots[r + 1 :])
        x[pivots[r]] = Fraction(row[cols] - rest, row[pivots[r]])
    return tuple(x)


def orthogonal_complement_projection(v, basis):
    """Component of v orthogonal to span(basis), as a tuple of Fractions.

    Used to canonicalize cone data modulo lineality: the orthogonal component
    of a ray representative is independent of the representative chosen.
    """
    if not basis:
        return tuple(Fraction(x) for x in v)
    gram = [[dot(bi, bj) for bj in basis] for bi in basis]
    rhs = [dot(bi, v) for bi in basis]
    coeffs = solve_rational(gram, rhs)
    if coeffs is None:
        raise RuntimeError("Gram system of the lineality basis has no solution")
    out = [Fraction(x) for x in v]
    for c, b in zip(coeffs, basis):
        if c:
            out = [o - c * bb for o, bb in zip(out, b)]
    return tuple(out)
