"""The graded algebra so(p+1, q+1) in block form, and abstract algebras given
by structure constants.

Elements are written as block matrices

    [ a   Z   0     ]
    [ X   A  -JZ^T  ]
    [ 0  -X^T J  -a ]

with X a vector, Z a covector, a a scalar and A in so(p, q); the three block
degrees X / (a, A) / Z realize the grading g_{-1} + g_0 + g_1.  The module
also carries the one-form-to-endomorphism map

    Y |-> (eta -> Y(xi) eta + Y(eta) xi - J(xi, eta) J^{-1} Y^T)

used by the Weyl-tensor prolongation, nilpotent exponentials of the g_1
block, and Killing forms of structure-constant algebras.
"""

from __future__ import annotations

from dataclasses import dataclass

from .flatmodel import MobiusSpace
from .linalg import Matrix, Vector, solve_affine
from .scalars import Scalar


def so_block_condition(space: MobiusSpace, A: Matrix) -> bool:
    """Membership of the middle block: A^T J + J A = 0."""
    J = space.signature.j_matrix()
    return (A.transpose() @ J + J @ A).is_zero()


def algebra_condition(space: MobiusSpace, M: Matrix) -> bool:
    """Membership in the realized algebra: M^T m + m M = 0."""
    m = space.form.matrix
    return (M.transpose() @ m + m @ M).is_zero()


@dataclass(frozen=True)
class GradedElement:
    """Block coordinates (a, X, A, Z) of one algebra element."""

    a: Scalar
    X: Vector
    A: Matrix
    Z: Vector

    @classmethod
    def make(cls, space: MobiusSpace, a, X, A, Z) -> GradedElement:
        n = space.n
        a = a if isinstance(a, Scalar) else Scalar(a)
        if len(X) != n or len(Z) != n or A.shape != (n, n):
            raise ValueError("block sizes do not match the signature")
        if not so_block_condition(space, A):
            raise ValueError("middle block is not in so(p, q)")
        return cls(a=a, X=X, A=A, Z=Z)

    @classmethod
    def zero(cls, space: MobiusSpace) -> GradedElement:
        n = space.n
        return cls(Scalar(0), Vector.zero(n), Matrix.zero(n, n), Vector.zero(n))

    @classmethod
    def pure_x(cls, space: MobiusSpace, X: Vector) -> GradedElement:
        n = space.n
        return cls(Scalar(0), X, Matrix.zero(n, n), Vector.zero(n))

    @classmethod
    def pure_z(cls, space: MobiusSpace, Z: Vector) -> GradedElement:
        n = space.n
        return cls(Scalar(0), Vector.zero(n), Matrix.zero(n, n), Z)

    def __add__(self, other: GradedElement) -> GradedElement:
        return GradedElement(
            self.a + other.a, self.X + other.X, self.A + other.A, self.Z + other.Z
        )

    def __sub__(self, other: GradedElement) -> GradedElement:
        return GradedElement(
            self.a - other.a, self.X - other.X, self.A - other.A, self.Z - other.Z
        )

    def scale(self, c) -> GradedElement:
        return GradedElement(
            self.a * c if isinstance(c, Scalar) else Scalar(c) * self.a,
            self.X.scale(c),
            self.A.scale(c),
            self.Z.scale(c),
        )

    def is_zero(self) -> bool:
        return not self.a and self.X.is_zero() and self.A.is_zero() and self.Z.is_zero()


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


def realize(space: MobiusSpace, e: GradedElement) -> Matrix:
    """Block coordinates -> (n+2)x(n+2) matrix."""
    n = space.n
    sign = space.signature.j_sign
    rows = [[e.a] + list(e.Z.entries) + [Scalar(0)]]
    for i in range(n):
        rows.append(
            [e.X[i]] + list(e.A.rows[i]) + [-Scalar(sign(i)) * e.Z[i]]
        )
    rows.append(
        [Scalar(0)] + [-Scalar(sign(i)) * e.X[i] for i in range(n)] + [-e.a]
    )
    return Matrix(rows)


def degrade(space: MobiusSpace, M: Matrix) -> GradedElement:
    """Matrix -> block coordinates; rejects matrices outside the algebra."""
    n = space.n
    if M.shape != (n + 2, n + 2):
        raise ValueError(f"expected a {(n + 2)}x{(n + 2)} matrix")
    if not algebra_condition(space, M):
        raise ValueError("matrix does not satisfy M^T m + m M = 0")
    a = M[0, 0]
    Z = Vector(M.rows[0][1 : n + 1])
    X = Vector(M.rows[i][0] for i in range(1, n + 1))
    A = Matrix(M.rows[i][1 : n + 1] for i in range(1, n + 1))
    return GradedElement(a=a, X=X, A=A, Z=Z)


def bracket(space: MobiusSpace, e1: GradedElement, e2: GradedElement) -> GradedElement:
    """Lie bracket through the matrix commutator of the realizations."""
    m1 = realize(space, e1)
    m2 = realize(space, e2)
    return degrade(space, m1 @ m2 - m2 @ m1)


def upsilon_action(space: MobiusSpace, Y: Vector, xi: Vector) -> CoElement:
    """The endomorphism eta -> Y(xi) eta + Y(eta) xi - J(xi, eta) J^{-1} Y^T,
    split into scaling part a = trace/n and trace-free part A in so(p, q)."""
    n = space.n
    if len(Y) != n or len(xi) != n:
        raise ValueError(f"expected covector and vector of length {n}")
    J = space.signature.j_matrix()
    y_of_xi = Y.dot(xi)
    # F = Y(xi) I + xi (x) Y - (J^{-1} Y^T) (x) (xi^T J)
    F = Matrix.identity(n).scale(y_of_xi)
    F = F + Matrix.outer(xi, Y)
    F = F - Matrix.outer(J.matvec(Y), J.matvec(xi))
    a = F.trace() * Scalar(1, 0, n)
    A = F - Matrix.identity(n).scale(a)
    if not so_block_condition(space, A):
        raise AssertionError("trace-free part left so(p, q); convention bug")
    return CoElement(a=a, A=A)


def g0_as_coelement(space: MobiusSpace, e: GradedElement) -> CoElement:
    """The action of the degree-0 part of e on the g_{-1} block: X -> (A - a) X,
    decomposed as a CoElement."""
    n = space.n
    endo = e.A - Matrix.identity(n).scale(e.a)
    a = endo.trace() * Scalar(1, 0, n)
    return CoElement(a=a, A=endo - Matrix.identity(n).scale(a))


def upsilon_bracket_constant(space: MobiusSpace) -> Scalar:
    """The unique constant c with bracket(pure-X xi, pure-Z Y) acting on the
    g_{-1} block as c * upsilon_action(Y, xi), measured by brute force over
    all basis pairs; raises if no single constant fits."""
    n = space.n
    c = None
    for i in range(n):
        xi = Vector.unit(n, i)
        for j in range(n):
            Y = Vector.unit(n, j)
            via_bracket = g0_as_coelement(
                space,
                bracket(space, GradedElement.pure_x(space, xi), GradedElement.pure_z(space, Y)),
            )
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
    N = realize(space, GradedElement.pure_z(space, Y))
    n2 = N @ N
    if not (n2 @ N).is_zero():
        raise AssertionError("upper-block element was not 3-step nilpotent")
    return Matrix.identity(space.ambient) + N + n2.scale(Scalar(1, 0, 2))


def ad_s0(space: MobiusSpace, M: Matrix) -> Matrix:
    """Conjugation by the origin symmetry s_0 = diag(-1, E, -1); acts as +1 on
    the (a, A) blocks and -1 on the X, Z blocks."""
    n = space.n
    s0 = Matrix(
        tuple(
            (Scalar(-1) if i in (0, n + 1) else Scalar(1)) if i == j else Scalar(0)
            for j in range(n + 2)
        )
        for i in range(n + 2)
    )
    return s0 @ M @ s0


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
                    self._add_bracket(total, ((i, one),), sp[j][k])
                    self._add_bracket(total, ((j, one),), sp[k][i])
                    self._add_bracket(total, ((k, one),), sp[i][j])
                    if any(total.values()):
                        raise ValueError(f"Jacobi identity fails at ({i}, {j}, {k})")

    def _add_bracket(self, acc: dict, xs, ys) -> None:
        """acc[k] += [x, y]_k for x, y given by their nonzero (index, value)
        pairs; absent keys of acc stand for zero."""
        sp = self._sparse
        for i, xi in xs:
            row = sp[i]
            for j, yj in ys:
                terms = row[j]
                if not terms:
                    continue
                s = xi * yj
                for k, c in terms:
                    t = s * c
                    acc[k] = acc[k] + t if k in acc else t

    def bracket(self, x: Vector, y: Vector) -> Vector:
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("coordinate vectors have wrong length")
        acc = {}
        self._add_bracket(acc, _nonzero(x), _nonzero(y))
        zero = Scalar(0)
        return Vector._of_scalars(acc.get(k, zero) for k in range(self.dim))

    def ad(self, x: Vector) -> Matrix:
        """Matrix of ad_x in the defining basis."""
        cols = [self.bracket(x, Vector.unit(self.dim, j)) for j in range(self.dim)]
        return Matrix.from_columns(cols)


def _nonzero(v: Vector) -> list:
    """The nonzero entries of v as (index, value) pairs, in index order."""
    return [(k, c) for k, c in enumerate(v.entries) if c]


def killing_form(alg: StructureAlgebra, x: Vector, y: Vector) -> Scalar:
    """B(x, y) = trace(ad_x ad_y), exact."""
    return (alg.ad(x) @ alg.ad(y)).trace()


def structure_constants_from_matrices(basis: list[Matrix]) -> StructureAlgebra:
    """Bracket table of a matrix Lie algebra given by a basis: commutators are
    re-expressed in the basis by exact solving (raises if not closed)."""
    dim = len(basis)
    flat_cols = [b.flatten() for b in basis]
    span = Matrix.from_columns(flat_cols)
    table = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        table[i][i] = Vector.zero(dim)
        for j in range(i + 1, dim):
            comm = basis[i] @ basis[j] - basis[j] @ basis[i]
            sol = solve_affine(span, comm.flatten())
            if sol.is_empty:
                raise ValueError(f"commutator of basis elements {i}, {j} leaves the span")
            table[i][j] = sol.base
            table[j][i] = -sol.base
    return StructureAlgebra(dim, table)


# -- graded coordinates for so(p+1, q+1) -------------------------------------


def so_basis(space: MobiusSpace) -> list[GradedElement]:
    """Coordinate basis in the fixed order a; X_1..X_n; A_(i<j); Z_1..Z_n,
    with A_(ij) = (E_ij - E_ji) J."""
    n = space.n
    out = [GradedElement.make(space, 1, Vector.zero(n), Matrix.zero(n, n), Vector.zero(n))]
    for i in range(n):
        out.append(GradedElement.pure_x(space, Vector.unit(n, i)))
    for i in range(n):
        for j in range(i + 1, n):
            rows = [[Scalar(0)] * n for _ in range(n)]
            rows[i][j] = Scalar(space.signature.j_sign(j))
            rows[j][i] = -Scalar(space.signature.j_sign(i))
            out.append(
                GradedElement.make(space, 0, Vector.zero(n), Matrix(rows), Vector.zero(n))
            )
    for i in range(n):
        out.append(GradedElement.pure_z(space, Vector.unit(n, i)))
    return out


def graded_dim(space: MobiusSpace) -> int:
    n = space.n
    return 1 + 2 * n + n * (n - 1) // 2


def graded_to_coords(space: MobiusSpace, e: GradedElement) -> Vector:
    """Coordinates of e in the so_basis order."""
    n = space.n
    coords = [e.a]
    coords.extend(e.X.entries)
    for i in range(n):
        for j in range(i + 1, n):
            coords.append(Scalar(space.signature.j_sign(j)) * e.A[i, j])
    coords.extend(e.Z.entries)
    return Vector(coords)


def graded_from_coords(space: MobiusSpace, coords: Vector) -> GradedElement:
    """The inverse of graded_to_coords, read straight off the coordinates:
    a = c_0, X = c_1..c_n, Z = the last n coordinates, and each (i<j)
    coordinate c gives A[i, j] = J_j c and A[j, i] = -J_i c."""
    n = space.n
    if len(coords) != graded_dim(space):
        raise ValueError(f"expected {graded_dim(space)} coordinates")
    sign = space.signature.j_sign
    c = coords.entries
    zero = Scalar(0)
    rows = [[zero] * n for _ in range(n)]
    k = n + 1
    for i in range(n):
        for j in range(i + 1, n):
            v = c[k]
            k += 1
            if v:
                rows[i][j] = v if sign(j) > 0 else -v
                rows[j][i] = -v if sign(i) > 0 else v
    return GradedElement(
        a=c[0],
        X=Vector._of_scalars(c[1 : n + 1]),
        A=Matrix(rows),
        Z=Vector._of_scalars(c[k:]),
    )
