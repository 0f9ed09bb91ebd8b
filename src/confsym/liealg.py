"""The graded algebra so(p+1, q+1) in graded coordinates, and abstract
algebras given by structure constants.

An element of so(p+1, q+1) is a `Vector` of graded coordinates in the fixed
basis order

    a; X_1..X_n; A_(i<j) in lexicographic order; Z_1..Z_n

of the block matrix

    [ a   Z   0     ]
    [ X   A  -JZ^T  ]
    [ 0  -X^T J  -a ]

with X a vector, Z a covector, a a scalar and A in so(p, q), where
A_(ij) = (E_ij - E_ji) J, so the (i<j) coordinate is J_j A[i, j].  The three
block degrees X / (a, A) / Z realize the grading g_{-1} + g_0 + g_1.
`_graded_basis` is the one statement of this basis; `so_table` (the nonzero
brackets as integer structure constants, one mapping j -> terms per row,
built once per signature), `bracket`, `realize` and `degrade` all read it.

Matrices appear only at the group-element boundary: `realize` and `degrade`
convert to and from (n+2)x(n+2) matrices for `symmetry.tangent_is_minus_id`
and the independent matrix side of `upsilon_bracket_constant`; `degrade`
reads each coordinate off its position in `_graded_basis`.
`exp_nilpotent` writes exp(Z) of a g_1 element in closed form, and the
symmetry at the origin is s_Z = s_0 exp(Z) with s_0 = diag(-1, E, -1).
The involution criterion forms no group element: it brackets in graded
coordinates and applies Ad_{s_0} there as the sign flip of the X and Z
coordinates.
`StructureAlgebra` takes the i < j half of a bracket table, the half a file
states, and mirrors it in integers, so its table is antisymmetric by
construction.  It keeps Z[sqrt d] numerators of its nonzero brackets, each
converted once, for Jacobi, the closure of pairs and the equivariance of
extensions, and builds a row of Scalars only when `row` or `bracket` first
reads it.

The module also carries the one-form-to-endomorphism map

    Y |-> (eta -> Y(xi) eta + Y(eta) xi - J(xi, eta) J^{-1} Y^T)

used by the Weyl-tensor prolongation, and the Killing form of a
structure-constant algebra.
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm

from ._record import FrozenRecord
from .flatmodel import MobiusSpace
from .linalg import Matrix, Vector
from .scalars import ONE, ZERO, Scalar, one_field

_HALF = Scalar(1, 0, 2)


def so_block_condition(space: MobiusSpace, A: Matrix) -> bool:
    """Membership of the middle block, A^T J + J A = 0, checked entrywise on
    the rows of A: a zero diagonal and J_r A[r, m] = -J_m A[m, r] for r < m,
    where J_r J_m = 1 exactly when r and m lie on the same side of p."""
    n = space.n
    if A.shape != (n, n):
        return False
    p = space.signature.p
    rows = A.rows
    for r, row in enumerate(rows):
        if row[r]:
            return False
        for m in range(r + 1, n):
            x, y = row[m], rows[m][r]
            if (x or y) and x != (-y if (r < p) == (m < p) else y):
                return False
    return True


def algebra_condition(space: MobiusSpace, M: Matrix) -> bool:
    """Membership in the realized algebra: M^T m + m M = 0."""
    m = space.form.matrix
    return (M.transpose() @ m + m @ M).is_zero()


class CoElement(FrozenRecord):
    """Element of co(p, q) acting on R^n as a*id + A with A in so(p, q)."""

    __slots__ = ("a", "A")

    def __init__(self, a: Scalar, A: Matrix):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "A", A)

    def endomorphism(self) -> Matrix:
        n = self.A.nrows
        return Matrix.identity(n).scale(self.a) + self.A

    def is_zero(self) -> bool:
        return not self.a and self.A.is_zero()

    def __add__(self, other: CoElement) -> CoElement:
        return CoElement(self.a + other.a, self.A + other.A)

    def scale(self, c) -> CoElement:
        c = c if isinstance(c, Scalar) else Scalar(c)
        return CoElement(c * self.a, self.A.scale(c))


def realize(space: MobiusSpace, coords: Vector) -> Matrix:
    """Graded coordinates -> (n+2)x(n+2) matrix.  No two basis matrices
    share a position, so each coordinate only writes its own entries."""
    basis = _graded_basis(space.signature.p, space.signature.q)
    if len(coords) != len(basis):
        raise ValueError(f"expected {len(basis)} coordinates")
    size = space.n + 2
    rows = [[ZERO] * size for _ in range(size)]
    for c, entries in zip(coords, basis):
        if c:
            for (r, col), v in entries:
                rows[r][col] = c if v > 0 else -c
    return Matrix._of_scalars(rows)


def degrade(space: MobiusSpace, M: Matrix) -> Vector:
    """Matrix -> graded coordinates; rejects matrices outside the algebra.
    Each coordinate is read off the position that carries it."""
    n = space.n
    if M.shape != (n + 2, n + 2):
        raise ValueError(f"expected a {(n + 2)}x{(n + 2)} matrix")
    if not algebra_condition(space, M):
        raise ValueError("matrix does not satisfy M^T m + m M = 0")
    rows = M.rows
    basis = _graded_basis(space.signature.p, space.signature.q)
    return Vector._of_scalars(rows[r][c] if v > 0 else -rows[r][c] for ((r, c), v), _ in basis)


def upsilon_action(space: MobiusSpace, Y: Vector, xi: Vector) -> CoElement:
    """The endomorphism eta -> Y(xi) eta + Y(eta) xi - J(xi, eta) J^{-1} Y^T,
    split into scaling part a and trace-free part A in so(p, q).

    F = Y(xi) I + xi (x) Y - (JY) (x) (J xi), so F[r, m] = Y(xi) [r = m] +
    xi_r Y_m - J_r J_m Y_r xi_m.  The two products cancel on the diagonal,
    since J_r^2 = 1, so a = trace / n = Y(xi) and A is F off the diagonal,
    built from the nonzero entries of Y and xi only.  A lies in so(p, q) for
    every Y and xi; `weyl.co_action` refuses an A outside it."""
    n = space.n
    if len(Y) != n or len(xi) != n:
        raise ValueError(f"expected covector and vector of length {n}")
    a = Y.dot(xi)
    p = space.signature.p
    ys = [(m, y) for m, y in enumerate(Y) if y]
    xs = [(r, x) for r, x in enumerate(xi) if x]
    A = [[ZERO] * n for _ in range(n)]
    for r, x in xs:
        for m, y in ys:
            if m != r:
                A[r][m] = x * y
    for r, y in ys:
        for m, x in xs:
            if m != r:
                v = y * x
                A[r][m] = A[r][m] - v if (r < p) == (m < p) else A[r][m] + v
    return CoElement(a=a, A=Matrix._of_scalars(A))


def upsilon_bracket_constant(space: MobiusSpace) -> Scalar:
    """The unique constant c with [X_xi, Z_Y] acting on the g_{-1} block as
    c * upsilon_action(Y, xi), measured by brute force over all basis pairs;
    raises if no single constant fits.  The bracket side is the commutator
    of the realized matrices, computed independently of both `so_table` and
    `upsilon_action`."""
    n = space.n
    dim = graded_dim(space)
    c = None
    for i in range(n):
        xi = Vector.unit(n, i)
        for j in range(n):
            Y = Vector.unit(n, j)
            m1 = realize(space, Vector.unit(dim, 1 + i))
            m2 = realize(space, Vector.unit(dim, dim - n + j))
            comm = m1 @ m2 - m2 @ m1
            # The degree-0 part (a, A) acts on the g_{-1} block as
            # X -> (A - a) X; A is trace-free, so its scaling part is -a.
            a = degrade(space, comm)[0]
            A = Matrix(comm.rows[r][1 : n + 1] for r in range(1, n + 1))
            via_bracket = CoElement(a=-a, A=A)
            via_formula = upsilon_action(space, Y, xi)
            ratio = _coelement_ratio(via_bracket, via_formula)
            if c is None:
                c = ratio
            elif c != ratio:
                raise ArithmeticError(
                    f"inconsistent normalization: {c} vs {ratio} at basis pair ({i}, {j})"
                )
    if c is None or not c:
        raise ArithmeticError("normalization constant is undefined or zero")
    return c


def _coelement_ratio(lhs: CoElement, rhs: CoElement) -> Scalar:
    """lhs = ratio * rhs, entrywise; both must be nonzero and proportional."""
    pairs = [(lhs.a, rhs.a)] + [
        (lhs.A[i, j], rhs.A[i, j])
        for i in range(lhs.A.nrows)
        for j in range(lhs.A.ncols)
    ]
    ratio = None
    for lv, rv in pairs:
        if not rv:
            if lv:
                raise ArithmeticError("elements are not proportional")
            continue
        r = lv / rv
        if ratio is None:
            ratio = r
        elif ratio != r:
            raise ArithmeticError("elements are not proportional")
    if ratio is None:
        raise ArithmeticError("cannot take the ratio against zero")
    return ratio


def exp_nilpotent(space: MobiusSpace, Y: Vector) -> Matrix:
    """exp(N) for the g_1 element N of the covector Y, in closed form:

        [ 1  Y  -Y J Y^T / 2 ]
        [ 0  E  -J Y^T       ]
        [ 0  0   1           ]

    N holds Y in its first row and -J Y^T in its last column (Z_i of
    `_graded_basis`), so N^2 = Y (-J Y^T) E_0,n+1 = -(Y J Y^T) E_0,n+1, and
    N^3 = 0 since the last row of N is zero: exp(N) = I + N + N^2 / 2."""
    n = space.n
    if len(Y) != n:
        raise ValueError(f"covector must have length {n}")
    p = space.signature.p
    jy = [y if i < p else -y for i, y in enumerate(Y)]
    quad = sum((y * z for y, z in zip(Y, jy) if y), ZERO)
    rows = [[ONE, *Y, -_HALF * quad]]
    rows += [[ZERO] * (1 + i) + [ONE] + [ZERO] * (n - 1 - i) + [-z] for i, z in enumerate(jy)]
    rows.append([ZERO] * (n + 1) + [ONE])
    return Matrix._of_scalars(rows)


# -- abstract algebras from structure constants ------------------------------


class StructureAlgebra:
    """Finite-dimensional algebra over Q(sqrt d) given by its structure
    constants.  `brackets` is the half of the table that a file states: it
    maps each (i, j) with 0 <= i < j < dim to the (k, c) with
    [b_i, b_j] = sum of c b_k, in strictly increasing k, each c a Scalar or
    an int; absent pairs and zero c stand for zero.  [b_j, b_i] is the
    mirror -[b_i, b_j], so the table is antisymmetric by construction; the
    Jacobi identity is checked exactly.

    What is kept is `_integer`: every nonzero term of both halves as
    Z[sqrt d] numerators over one common denominator, one mapping j -> terms
    per i, so memory and time grow with the number of nonzero brackets, not
    with dim^2.  Jacobi, the pair's closure and the equivariance of
    extensions read it; `row` builds a row of Scalars from it when first
    read."""

    def __init__(self, dim: int, brackets):
        pairs = []
        for (i, j), terms in brackets.items():
            if not 0 <= i < j < dim:
                raise ValueError(f"bracket index {(i, j)} needs 0 <= i < j < {dim}")
            kept = []
            last = -1
            for k, c in terms:
                if not last < k < dim:
                    raise ValueError(
                        f"bracket {(i, j)} needs indices 0 <= k < {dim} in increasing order"
                    )
                last = k
                if c:
                    kept.append((k, c))
            if kept:
                pairs.append(((i, j), kept))
        fields, den, numerators = _numerators([terms for _, terms in pairs])
        d = one_field(fields)
        integer_rows = [{} for _ in range(dim)]
        for ((i, j), _), terms in zip(pairs, numerators):
            integer_rows[i][j] = terms
            integer_rows[j][i] = tuple([(k, -a, -b) for k, a, b in terms])
        _check_jacobi(d, integer_rows)
        self.dim = dim
        # Row i, j as (k, a, b) with c = (a + b sqrt d) / den; d = 0 when all c are rational.
        self._integer = (d, den, integer_rows)
        # Row i of Scalars, or None until `row` first builds it.
        self._rows = [None] * dim

    def row(self, i: int) -> dict:
        """The nonzero brackets of b_i: j -> the nonzero (k, c) of
        [b_i, b_j].  Read it, never change it."""
        row = self._rows[i]
        if row is None:
            d, den, integer_rows = self._integer
            row = self._rows[i] = {
                j: tuple((k, Scalar(a, b, den, d)) for k, a, b in terms)
                for j, terms in integer_rows[i].items()
            }
        return row

    def bracket(self, x: Vector, y: Vector) -> Vector:
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("coordinate vectors have wrong length")
        return _sparse_bracket(self.row, x, y)

    def ad(self, x: Vector) -> Matrix:
        """Matrix of ad_x in the defining basis."""
        cols = [self.bracket(x, Vector.unit(self.dim, j)) for j in range(self.dim)]
        return Matrix.from_columns(cols)


def _numerators(term_lists) -> tuple:
    """(fields, den, lists) for lists of (k, c): each c, a Scalar or an int,
    becomes (k, a, b) with c = (a + b sqrt d) / den for one common
    denominator den; `fields` holds the d of every Scalar c (0 when rational)."""
    fields = set()
    dens = set()
    for terms in term_lists:
        for _, c in terms:
            if type(c) is not int:
                dens.add(c.q)
                fields.add(c.d)
    den = lcm(*dens)
    out = [
        tuple(
            (k, c * den, 0) if type(c) is int else (k, c.a * (den // c.q), c.b * (den // c.q))
            for k, c in terms
        )
        for terms in term_lists
    ]
    return fields, den, out


def _check_jacobi(d: int, rows) -> None:
    """The cyclic sum [b_i, [b_j, b_k]] + [b_j, [b_k, b_i]] + [b_k, [b_i, b_j]]
    over every i < j < k, on antisymmetric integer rows, in one pass over the
    nonzero double brackets [b_x, [b_y, b_z]], y < z: for each term m of
    [b_y, b_z], x runs over the keys of row m, as [b_x, b_m] = -[b_m, b_x].
    Each is a term of the triple (x, y, z) if x < y, (y, z, x) if z < x and,
    with sign -1, (y, x, z) if y < x < z (x = y or x = z: of none).  Triples
    no double bracket reaches sum to zero, so the least failing triple is
    the first in lexicographic order.  The sums are keyed on the one integer
    ((i dim + j) dim + k) dim + l, which orders as (i, j, k, l) does."""
    dim = len(rows)
    acc_a = {}
    acc_b = {}
    for y, row in enumerate(rows):
        for z, inner in row.items():
            if z <= y:
                continue
            for m, a1, b1 in inner:
                for x, outer in rows[m].items():
                    if x < y:
                        key, s = ((x * dim + y) * dim + z) * dim, -1
                    elif x > z:
                        key, s = ((y * dim + z) * dim + x) * dim, -1
                    elif y < x < z:
                        key, s = ((y * dim + x) * dim + z) * dim, 1
                    else:
                        continue
                    sa, sb = s * a1, s * b1
                    for l, a2, b2 in outer:
                        kl = key + l
                        acc_a[kl] = acc_a.get(kl, 0) + sa * a2 + d * sb * b2
                        if sb or b2:
                            acc_b[kl] = acc_b.get(kl, 0) + sa * b2 + sb * a2
    failed = [kl for acc in (acc_a, acc_b) for kl, v in acc.items() if v]
    if failed:
        i, jk = divmod(min(failed) // dim, dim * dim)
        raise ValueError("Jacobi identity fails at ({}, {}, {})".format(i, *divmod(jk, dim)))


def _nonzero(values) -> list:
    """The nonzero entries of `values`, any iterable, as (index, value)."""
    return [(k, c) for k, c in enumerate(values) if c]


def _sparse_bracket(row_of, x: Vector, y: Vector) -> Vector:
    """[x, y] as a dense coordinate vector through a table whose row
    `row_of(i)` maps j to the nonzero (k, c) of [b_i, b_j] (pairs absent
    from a row bracket to zero); only the rows of the nonzero x_i are read.
    A coefficient c may be a Scalar or an int."""
    acc = {}
    ys = _nonzero(y)
    for i, xi in _nonzero(x):
        row = row_of(i)
        if not row:
            continue
        for j, yj in ys:
            terms = row.get(j)
            if not terms:
                continue
            s = xi * yj
            for k, c in terms:
                t = s * c
                acc[k] = acc[k] + t if k in acc else t
    zero = Scalar(0)
    return Vector._of_scalars(acc.get(k, zero) for k in range(len(x)))


def killing_form(alg: StructureAlgebra, x: Vector, y: Vector) -> Scalar:
    """B(x, y) = trace(ad_x ad_y), exact."""
    return (alg.ad(x) @ alg.ad(y)).trace()


# -- graded coordinates for so(p+1, q+1) -------------------------------------


def graded_dim(space: MobiusSpace) -> int:
    n = space.n
    return 1 + 2 * n + n * (n - 1) // 2


@lru_cache(maxsize=None)
def _graded_basis(p: int, q: int) -> tuple:
    """The graded basis of so(p+1, q+1), in coordinate order, as sparse
    integer (n+2)x(n+2) matrices: entry k lists the ((row, col), value)
    pairs of b_k, and its first pair is the position that carries
    coordinate k and the sign (+1 or -1) it is read with.  With N = n+1 and
    block indices shifted by one:

        b_a     = E_00 - E_NN
        X_i     = E_i0 - J_i E_Ni
        A_(i<j) = J_j E_ij - J_i E_ji
        Z_i     = E_0i - J_i E_iN
    """
    n = p + q
    sign = [1] * p + [-1] * q
    last = n + 1
    basis = [(((0, 0), 1), ((last, last), -1))]
    for i in range(n):
        basis.append((((i + 1, 0), 1), ((last, i + 1), -sign[i])))
    for i in range(n):
        for j in range(i + 1, n):
            basis.append((((i + 1, j + 1), sign[j]), ((j + 1, i + 1), -sign[i])))
    for i in range(n):
        basis.append((((0, i + 1), 1), ((i + 1, last), -sign[i])))
    return tuple(basis)


@lru_cache(maxsize=None)
def so_table(p: int, q: int) -> tuple:
    """The bracket of so(p+1, q+1) in graded coordinates, as its nonzero
    brackets: row i maps j to the (k, c) with [b_i, b_j] = sum of c b_k,
    each c an int, in increasing k.  This is the form `StructureAlgebra`
    keeps, and `bracket` and `validate_extension` read.

    The basis matrices of `_graded_basis` have two nonzero entries each, so
    each commutator with i < j is formed sparsely, each coordinate read off
    the one matrix position that carries it, and [b_j, b_i] is its mirror."""
    basis = _graded_basis(p, q)
    mats = [dict(entries) for entries in basis]

    def product(m1, m2, acc, s):
        for (r, t), x in m1.items():
            for (u, c), y in m2.items():
                if t == u:
                    acc[r, c] = acc.get((r, c), 0) + s * x * y

    table = [{} for _ in mats]
    for i, m1 in enumerate(mats):
        for j in range(i + 1, len(mats)):
            m2 = mats[j]
            comm = {}
            product(m1, m2, comm, 1)
            product(m2, m1, comm, -1)
            terms = []
            for k, ((pos, f), _) in enumerate(basis):
                c = comm.get(pos, 0)
                if c:
                    terms.append((k, f * c))
            if terms:
                table[i][j] = tuple(terms)
                table[j][i] = tuple([(k, -c) for k, c in terms])
    return tuple(table)


def bracket(space: MobiusSpace, x: Vector, y: Vector) -> Vector:
    """[x, y] of two graded coordinate vectors, through `so_table`."""
    dim = graded_dim(space)
    if len(x) != dim or len(y) != dim:
        raise ValueError(f"expected {dim} coordinates")
    return _sparse_bracket(so_table(space.signature.p, space.signature.q).__getitem__, x, y)
