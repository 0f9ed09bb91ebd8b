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
`_graded_basis` is the one statement of this basis; `so_table` (the bracket
as integer structure constants, built once per signature), `bracket`,
`realize` and `degrade` all read it.

Matrices appear only at the group-element boundary: `realize` and `degrade`
convert to and from (n+2)x(n+2) matrices for `exp_nilpotent`, the involution
criterion, `symmetry.tangent_is_minus_id` and the independent matrix side of
`upsilon_bracket_constant`.

The module also carries the one-form-to-endomorphism map

    Y |-> (eta -> Y(xi) eta + Y(eta) xi - J(xi, eta) J^{-1} Y^T)

used by the Weyl-tensor prolongation, nilpotent exponentials of the g_1
block, and Killing forms of structure-constant algebras.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .flatmodel import MobiusSpace
from .linalg import Matrix, Vector
from .scalars import Scalar


def so_block_condition(space: MobiusSpace, A: Matrix) -> bool:
    """Membership of the middle block, A^T J + J A = 0, checked entrywise:
    a zero diagonal and J_r A[r, m] = -J_m A[m, r] for r < m."""
    n = space.n
    if A.shape != (n, n):
        return False
    sign = space.signature.j_sign
    for r in range(n):
        if A[r, r]:
            return False
        for m in range(r + 1, n):
            x, y = A[r, m], A[m, r]
            if x != (-y if sign(r) == sign(m) else y):
                return False
    return True


def algebra_condition(space: MobiusSpace, M: Matrix) -> bool:
    """Membership in the realized algebra: M^T m + m M = 0."""
    m = space.form.matrix
    return (M.transpose() @ m + m @ M).is_zero()


@dataclass(frozen=True)
class CoElement:
    """Element of co(p, q) acting on R^n as a*id + A with A in so(p, q)."""

    a: Scalar
    A: Matrix

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
    zero = Scalar(0)
    rows = [[zero] * size for _ in range(size)]
    for c, entries in zip(coords, basis):
        if c:
            for (r, col), v in entries:
                rows[r][col] = c if v > 0 else -c
    return Matrix(rows)


def degrade(space: MobiusSpace, M: Matrix) -> Vector:
    """Matrix -> graded coordinates; rejects matrices outside the algebra.
    Each coordinate is read off the position that carries it."""
    n = space.n
    if M.shape != (n + 2, n + 2):
        raise ValueError(f"expected a {(n + 2)}x{(n + 2)} matrix")
    if not algebra_condition(space, M):
        raise ValueError("matrix does not satisfy M^T m + m M = 0")
    basis = _graded_basis(space.signature.p, space.signature.q)
    return Vector._of_scalars(M[pos] if v > 0 else -M[pos] for (pos, v), _ in basis)


def upsilon_action(space: MobiusSpace, Y: Vector, xi: Vector) -> CoElement:
    """The endomorphism eta -> Y(xi) eta + Y(eta) xi - J(xi, eta) J^{-1} Y^T,
    split into scaling part a = trace/n and trace-free part A in so(p, q).

    F = Y(xi) I + xi (x) Y - (JY) (x) (J xi) is built entry by entry:
    F[r, m] = Y(xi) [r = m] + xi_r Y_m - J_r J_m Y_r xi_m."""
    n = space.n
    if len(Y) != n or len(xi) != n:
        raise ValueError(f"expected covector and vector of length {n}")
    sign = space.signature.j_sign
    y_of_xi = Y.dot(xi)
    zero = Scalar(0)
    F = []
    for r in range(n):
        row = []
        for m in range(n):
            x = xi[r] * Y[m] if xi[r] and Y[m] else zero
            y = Y[r] * xi[m] if Y[r] and xi[m] else zero
            if y:
                x = x - y if sign(r) == sign(m) else x + y
            row.append(x + y_of_xi if r == m else x)
        F.append(row)
    a = sum((F[r][r] for r in range(n)), zero) * Scalar(1, 0, n)
    A = Matrix([x - a if r == m else x for m, x in enumerate(row)] for r, row in enumerate(F))
    if not so_block_condition(space, A):
        raise AssertionError("trace-free part left so(p, q); convention bug")
    return CoElement(a=a, A=A)


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
    """exp of the pure upper-block element: exactly I + N + N^2/2 since
    N^3 = 0 in this representation (guarded by assertion)."""
    coords = [Scalar(0)] * (graded_dim(space) - space.n) + list(Y.entries)
    N = realize(space, Vector._of_scalars(coords))
    n2 = N @ N
    if not (n2 @ N).is_zero():
        raise AssertionError("upper-block element was not 3-step nilpotent")
    return Matrix.identity(space.ambient) + N + n2.scale(Scalar(1, 0, 2))


def ad_s0(space: MobiusSpace, M: Matrix) -> Matrix:
    """Conjugation by the origin symmetry s_0 = diag(-1, E, -1): it negates
    exactly the entries with one corner index, so it acts as +1 on the
    (a, A) blocks and -1 on the X, Z blocks."""
    corners = (0, space.n + 1)
    return Matrix(
        tuple(-x if (i in corners) != (j in corners) else x for j, x in enumerate(row))
        for i, row in enumerate(M.rows)
    )


# -- abstract algebras from structure constants ------------------------------


class StructureAlgebra:
    """Finite-dimensional algebra over Q(sqrt d) given by its bracket table
    c[i][j] with [b_i, b_j] = sum_k c[i][j][k] b_k; antisymmetry and the
    Jacobi identity are validated exactly at construction.

    Besides the dense table the algebra keeps one sparse view of it, the
    nonzero (k, c[i][j][k]) pairs of every (i, j); `bracket` and the Jacobi
    check both expand brackets through that view."""

    def __init__(self, dim: int, table: list[list[Vector]]):
        if len(table) != dim or any(len(row) != dim for row in table):
            raise ValueError("bracket table has wrong shape")
        for i in range(dim):
            for j in range(dim):
                if len(table[i][j]) != dim:
                    raise ValueError("bracket table entries have wrong length")
        self.dim = dim
        self.table = table
        self._sparse = [[_nonzero(table[i][j]) for j in range(dim)] for i in range(dim)]
        self._check_antisymmetry()
        self._check_jacobi()

    def _check_antisymmetry(self):
        sp = self._sparse
        for i in range(self.dim):
            for j in range(i, self.dim):
                if sp[i][j] != [(k, -c) for k, c in sp[j][i]]:
                    raise ValueError(f"bracket table is not antisymmetric at ({i}, {j})")

    def _check_jacobi(self):
        sp = self._sparse
        one = Scalar(1)
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                for k in range(j + 1, self.dim):
                    total = {}
                    _add_bracket(sp, total, ((i, one),), sp[j][k])
                    _add_bracket(sp, total, ((j, one),), sp[k][i])
                    _add_bracket(sp, total, ((k, one),), sp[i][j])
                    if any(total.values()):
                        raise ValueError(f"Jacobi identity fails at ({i}, {j}, {k})")

    def bracket(self, x: Vector, y: Vector) -> Vector:
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("coordinate vectors have wrong length")
        return _sparse_bracket(self._sparse, x, y)

    def ad(self, x: Vector) -> Matrix:
        """Matrix of ad_x in the defining basis."""
        cols = [self.bracket(x, Vector.unit(self.dim, j)) for j in range(self.dim)]
        return Matrix.from_columns(cols)


def _nonzero(v: Vector) -> list:
    """The nonzero entries of v as (index, value) pairs, in index order."""
    return [(k, c) for k, c in enumerate(v.entries) if c]


def _add_bracket(sparse, acc: dict, xs, ys) -> None:
    """acc[k] += [x, y]_k for x, y given by their nonzero (index, value)
    pairs, through a sparse table whose (i, j) entry lists the nonzero
    (k, c) of [b_i, b_j]; absent keys of acc stand for zero.  A coefficient
    c may be a Scalar or an int (the integer table of so(p+1, q+1))."""
    for i, xi in xs:
        row = sparse[i]
        for j, yj in ys:
            terms = row[j]
            if not terms:
                continue
            s = xi * yj
            for k, c in terms:
                t = s * c
                acc[k] = acc[k] + t if k in acc else t


def _sparse_bracket(sparse, x: Vector, y: Vector) -> Vector:
    """[x, y] as a dense coordinate vector through a sparse table."""
    acc = {}
    _add_bracket(sparse, acc, _nonzero(x), _nonzero(y))
    zero = Scalar(0)
    return Vector._of_scalars(acc.get(k, zero) for k in range(len(sparse)))


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
    """The bracket of so(p+1, q+1) in graded coordinates: entry [i][j] lists
    the nonzero (k, c) with [b_i, b_j] = sum of c b_k, each c an int, in
    increasing k.

    The basis matrices of `_graded_basis` have two nonzero entries each, so
    each commutator is formed sparsely and each coordinate read off the one
    matrix position that carries it."""
    basis = _graded_basis(p, q)
    mats = [dict(entries) for entries in basis]

    def product(m1, m2, acc, s):
        for (r, t), x in m1.items():
            for (u, c), y in m2.items():
                if t == u:
                    acc[r, c] = acc.get((r, c), 0) + s * x * y

    table = []
    for m1 in mats:
        row = []
        for m2 in mats:
            comm = {}
            product(m1, m2, comm, 1)
            product(m2, m1, comm, -1)
            terms = []
            for k, ((pos, f), _) in enumerate(basis):
                c = comm.get(pos, 0)
                if c:
                    terms.append((k, f * c))
            row.append(tuple(terms))
        table.append(tuple(row))
    return tuple(table)


def bracket(space: MobiusSpace, x: Vector, y: Vector) -> Vector:
    """[x, y] of two graded coordinate vectors, through `so_table`."""
    dim = graded_dim(space)
    if len(x) != dim or len(y) != dim:
        raise ValueError(f"expected {dim} coordinates")
    return _sparse_bracket(so_table(space.signature.p, space.signature.q), x, y)
