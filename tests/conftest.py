import argparse
import random
from fractions import Fraction
from itertools import combinations

import pytest

from confsym.extension import (
    ConditionReport,
    Extension,
    ExtensionReport,
    HomogeneousPair,
    SymmetricPair,
)
from confsym.flatmodel import MobiusSpace, NullLine, OrbitLabel
from confsym.liealg import StructureAlgebra, exp_nilpotent, graded_dim, so_table
from confsym.linalg import AffineSubspace, Matrix, Vector, rank, solve_affine
from confsym.scalars import Scalar
from confsym.symmetry import _hyperplane, _pinned_z, _split, make_symmetry
from confsym.weyl import _SIGNS, _orbits, _unflat


def rand_scalar(rng: random.Random, span: int = 9, d: int = 2) -> Scalar:
    """Random element of Q(sqrt d) with small integer data."""
    return Scalar(rng.randint(-span, span), rng.randint(-span, span), rng.randint(1, 4), d)


def rand_vector(rng: random.Random, n: int, span: int = 9, d: int = 2) -> Vector:
    return Vector(rand_scalar(rng, span, d) for _ in range(n))


def rand_covector(rng: random.Random, n: int, span: int = 9, d: int = 2) -> Vector:
    return rand_vector(rng, n, span, d)


def rand_so_matrix(space: MobiusSpace, rng: random.Random, span: int = 5) -> Matrix:
    """Random element of so(p, q) as a matrix (A^T J + J A = 0)."""
    n = space.n
    rows = [[Scalar(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            c = rng.randint(-span, span)
            rows[i][j] = Scalar(c * space.signature.j_sign(j))
            rows[j][i] = Scalar(-c * space.signature.j_sign(i))
    return Matrix(rows)


def reference_so_block_condition(space: MobiusSpace, A: Matrix) -> bool:
    """The matrix form of so(p, q) membership: A^T J + J A = 0."""
    J = Matrix(r[1:-1] for r in space.form.matrix.rows[1:-1])
    return (A.transpose() @ J + J @ A).is_zero()


def rand_null_vector(space: MobiusSpace, rng: random.Random) -> Vector:
    """Random null vector with small rational entries (corner solved for)."""
    n = space.n
    while True:
        x0 = Scalar(rng.randint(-3, 3))
        middle = [Scalar(rng.randint(-3, 3)) for _ in range(n)]
        if x0:
            # 2 x0 xlast + sum J x^2 = 0
            s = Scalar(0)
            for i, x in enumerate(middle):
                s = s + Scalar(space.signature.j_sign(i)) * x * x
            xlast = -s / (Scalar(2) * x0)
            return Vector([x0] + middle + [xlast])
        if any(middle):
            # only the corner term remains: any xlast works with sum J x^2 = 0
            s = Scalar(0)
            for i, x in enumerate(middle):
                s = s + Scalar(space.signature.j_sign(i)) * x * x
            if not s:
                return Vector([x0] + middle + [Scalar(rng.randint(-3, 3))])


def reference_solve_preserve(space: MobiusSpace, L: NullLine) -> AffineSubspace:
    """All Z with s_Z L = L, by the case tree on the representative
    (u_0, U, u_inf) that `solve_swap(space, L, L)` must reproduce:
      - u_inf != 0: factor -1, the middle block pins Z = 2 J U^T / u_inf, and
        the corner equation decides between that point and EMPTY;
      - u_inf = 0, U != 0: factor 1, the hyperplane Z.U = -2 u_0;
      - u_inf = 0, U = 0: L = <e_0>, fixed by every s_Z."""
    n = space.n
    u0, U, uinf = _split(space, L)
    if uinf:
        z = _pinned_z(space, U.scale(Scalar(2) / uinf))
        jz = _pinned_z(space, z)
        quad = Scalar(1, 0, 2) * z.dot(jz)
        if -z.dot(U) + quad * uinf == Scalar(0):
            return AffineSubspace.point(z)
        return AffineSubspace.empty(n)
    if not U.is_zero():
        return _hyperplane(U, Scalar(-2) * u0)
    return AffineSubspace.full(n)


def reference_classify_orbit(space: MobiusSpace, w: NullLine, u: NullLine, v: NullLine) -> OrbitLabel:
    """The orbit label with w in the span exactly when rank [u; v; w] equals
    rank [u; v], for distinct u, v and a w that is neither."""
    wr, ur, vr = w.representative, u.representative, v.representative
    span_uv = rank(Matrix([ur.entries, vr.entries]))
    span_uvw = rank(Matrix([ur.entries, vr.entries, wr.entries]))
    return OrbitLabel(
        iso_u=not space.pairing(wr, ur), iso_v=not space.pairing(wr, vr), in_span=span_uv == span_uvw
    )


# -- naive dense reference over pairs (x, y) = x + y sqrt(d) of Fractions ------


def _mul(e, f, d):
    return (e[0] * f[0] + d * e[1] * f[1], e[0] * f[1] + e[1] * f[0])


def _inv(e, d):
    norm = e[0] * e[0] - d * e[1] * e[1]
    return (e[0] / norm, -e[1] / norm)


def reference_rref(dense, ncols, d):
    """Gauss-Jordan elimination on dense rows of Fraction pairs."""
    rows = [list(r) for r in dense]
    pivots = []
    for c in range(ncols):
        hit = next((i for i in range(len(pivots), len(rows)) if any(rows[i][c])), None)
        if hit is None:
            continue
        row = rows.pop(hit)
        lead = _inv(row[c], d)
        row = [_mul(e, lead, d) for e in row]
        for i, other in enumerate(rows):
            f = other[c]
            rows[i] = [(o[0] - g[0], o[1] - g[1]) for o, g in zip(other, (_mul(f, e, d) for e in row))]
        rows.insert(len(pivots), row)
        pivots.append(c)
    return pivots, rows[: len(pivots)]


def fraction_pair(e: Scalar) -> tuple:
    """The reference form (x, y) of the Scalar x + y sqrt(d)."""
    return (Fraction(e.a, e.q), Fraction(e.b, e.q))


# -- matrix references for the graded algebra ---------------------------------


def reference_realize(space: MobiusSpace, coords: Vector) -> Matrix:
    """The hand-written block layout of graded coordinates
    a; X_1..X_n; A_(i<j) in lexicographic order; Z_1..Z_n, where the (i<j)
    coordinate c gives A[i, j] = J_j c and A[j, i] = -J_i c:

        [ a   Z   0     ]
        [ X   A  -JZ^T  ]
        [ 0  -X^T J  -a ]
    """
    n = space.n
    sign = space.signature.j_sign
    c = list(coords)
    if len(c) != 1 + 2 * n + n * (n - 1) // 2:
        raise ValueError("coordinate count does not match the signature")
    a, X, Z = c[0], c[1 : n + 1], c[len(c) - n :]
    A = [[Scalar(0)] * n for _ in range(n)]
    k = n + 1
    for i in range(n):
        for j in range(i + 1, n):
            A[i][j] = Scalar(sign(j)) * c[k]
            A[j][i] = -Scalar(sign(i)) * c[k]
            k += 1
    rows = [[a] + Z + [Scalar(0)]]
    for i in range(n):
        rows.append([X[i]] + A[i] + [-Scalar(sign(i)) * Z[i]])
    rows.append([Scalar(0)] + [-Scalar(sign(i)) * X[i] for i in range(n)] + [-a])
    return Matrix(rows)


def so_basis(space: MobiusSpace) -> list[Matrix]:
    """The graded basis of so(p+1, q+1) as matrices, through
    `reference_realize`."""
    dim = graded_dim(space)
    return [reference_realize(space, Vector.unit(dim, k)) for k in range(dim)]


def pure_x(space: MobiusSpace, X: Vector) -> Vector:
    """Graded coordinates of the g_{-1} element X."""
    n = space.n
    return Vector([0] + list(X) + [0] * (graded_dim(space) - 1 - n))


def pure_z(space: MobiusSpace, Z: Vector) -> Vector:
    """Graded coordinates of the g_1 element Z."""
    return Vector([0] * (graded_dim(space) - space.n) + list(Z))


# -- dense bracket tables and the sparse constructor ---------------------------


def sparse_brackets(table) -> dict:
    """The i < j half, (i, j) -> nonzero (k, c), that `StructureAlgebra`
    takes, from a dense dim x dim table of coefficient vectors."""
    return {
        (i, j): [(k, c) for k, c in enumerate(row[j]) if c]
        for i, row in enumerate(table)
        for j in range(i + 1, len(row))
        if not row[j].is_zero()
    }


def dense_table(alg: StructureAlgebra) -> list:
    """The dense dim x dim table of coefficient vectors of an algebra, read
    off its nonzero brackets."""
    dim = alg.dim
    table = [[Vector.zero(dim) for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        for j, terms in alg.row(i).items():
            entries = [Scalar(0)] * dim
            for k, c in terms:
                entries[k] = c
            table[i][j] = Vector(entries)
    return table


def structure_constants_from_matrices(basis: list[Matrix]) -> StructureAlgebra:
    """Bracket table of a matrix Lie algebra given by a basis: commutators are
    re-expressed in the basis by exact solving (raises if not closed)."""
    dim = len(basis)
    flat_cols = [Vector(sum(b.rows, ())) for b in basis]
    span = Matrix.from_columns(flat_cols)
    table = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        table[i][i] = Vector.zero(dim)
        for j in range(i + 1, dim):
            comm = basis[i] @ basis[j] - basis[j] @ basis[i]
            sol = solve_affine(span, Vector(sum(comm.rows, ())))
            if sol.is_empty:
                raise ValueError(f"commutator of basis elements {i}, {j} leaves the span")
            table[i][j] = sol.base
            table[j][i] = -sol.base
    return StructureAlgebra(dim, sparse_brackets(table))


def reference_commutator(space: MobiusSpace, x: Vector, y: Vector) -> Matrix:
    """The Lie bracket of two coordinate vectors as the commutator of their
    reference realizations."""
    m1 = reference_realize(space, x)
    m2 = reference_realize(space, y)
    return m1 @ m2 - m2 @ m1


# -- references for the extension layer ----------------------------------------


def reference_antisymmetry_failure(rows):
    """The first pair (i, j), i <= j in lexicographic order, with
    [b_j, b_i] != -[b_i, b_j] on rows that map j to the (k, a, b) terms of
    [b_i, b_j] (so a nonzero diagonal bracket fails), or None.  A pair
    absent in both orders holds, so one pass over the present brackets
    decides it: each pair i < j present in row i is compared there, a
    bracket of row i at j < i needs a partner in row j, and one at j = i
    breaks the diagonal."""
    broken = []
    for i, row in enumerate(rows):
        for j, terms in row.items():
            if j > i:
                other = rows[j].get(i, ())
                if terms != tuple((k, -a, -b) for k, a, b in other):
                    broken.append((i, j))
            elif j == i or i not in rows[j]:
                broken.append((j, i))
    return min(broken, default=None)


def reference_jacobi_failure(dim: int, brackets):
    """The first i < j < k, in lexicographic order, whose cyclic sum
    [b_i, [b_j, b_k]] + [b_j, [b_k, b_i]] + [b_k, [b_i, b_j]] is nonzero,
    or None: every triple summed in Scalar arithmetic on the dense table
    of the i < j half, (i, j) -> (k, c), that `StructureAlgebra` takes,
    with [b_j, b_i] = -[b_i, b_j]."""
    table = [[{} for _ in range(dim)] for _ in range(dim)]
    for (i, j), terms in brackets.items():
        for k, c in terms:
            c = Scalar(c) if isinstance(c, int) else c
            table[i][j][k] = c
            table[j][i][k] = -c

    def double(x, y, z):
        out = {}
        for m, c in table[y][z].items():
            for l, e in table[x][m].items():
                out[l] = out.get(l, Scalar(0)) + c * e
        return out

    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(j + 1, dim):
                total = {}
                for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
                    for l, e in double(x, y, z).items():
                        total[l] = total.get(l, Scalar(0)) + e
                if any(total.values()):
                    return (i, j, k)
    return None


def rescaled_so_brackets(p: int, q: int, scales) -> dict:
    """The i < j half, (i, j) -> (k, c), of so(p+1, q+1) on the basis
    b'_i = s_i b_i: each c of `so_table` becomes s_i s_j c / s_k.  With
    irrational s the coefficients are irrational, with denominators."""
    return {
        (i, j): [(k, scales[i] * scales[j] * Scalar(c) / scales[k]) for k, c in terms]
        for i, row in enumerate(so_table(p, q))
        for j, terms in row.items()
        if j > i
    }


def rescaled_flat_extension(space: MobiusSpace, scales) -> Extension:
    """The flat model on the basis b'_i = s_i b_i (`rescaled_so_brackets`),
    with alpha(b'_i) = s_i b_i: still a valid extension."""
    dim = graded_dim(space)
    alg = StructureAlgebra(dim, rescaled_so_brackets(space.signature.p, space.signature.q, scales))
    n = space.n
    pair = HomogeneousPair(alg, [0] + list(range(n + 1, dim)), list(range(1, n + 1)))
    zero = Scalar(0, 0, 1, space.d)
    alpha = Matrix([scales[i] if i == j else zero for j in range(dim)] for i in range(dim))
    return Extension(space, pair, alpha)


def reference_validate_extension(ext: Extension) -> ExtensionReport:
    """The three conditions in Scalar arithmetic: alpha applied afresh for
    every h, every m and every (h, y) pair, and the bracket taken as the
    commutator of the reference realizations."""
    space = ext.space
    pair = ext.pair
    n = space.n
    h_basis = [Vector.unit(pair.alg.dim, i) for i in pair.h]
    bad_h = [idx for idx, h in enumerate(h_basis) if any(ext.coords(h).entries[1 : n + 1])]
    x_rows = [ext.coords(m).entries[1 : n + 1] for m in pair.m_basis]
    r = rank(Matrix(x_rows)) if x_rows else 0
    bad_pairs = []
    k_basis = [Vector.unit(pair.alg.dim, i) for i in range(pair.alg.dim)]
    for hi, h in enumerate(h_basis):
        ah = ext.coords(h)
        for yi, y in enumerate(k_basis):
            lhs = reference_realize(space, ext.coords(pair.alg.bracket(h, y)))
            rhs = reference_commutator(space, ah, ext.coords(y))
            if lhs != rhs:
                bad_pairs.append((hi, yi))
    return ExtensionReport(
        ConditionReport(not bad_h, "alpha(h) inside the stabilizer subalgebra", bad_h),
        ConditionReport(r == n, f"induced map on the quotient has rank {r} (need {n})", [r]),
        ConditionReport(not bad_pairs, "alpha is equivariant over h", bad_pairs),
    )


def reference_ad_s0(space: MobiusSpace, M: Matrix) -> Matrix:
    """Conjugation by the origin symmetry s_0 = diag(-1, E, -1) as a matrix:
    it negates exactly the entries with one corner index."""
    corners = (0, space.n + 1)
    return Matrix(
        tuple(-x if (i in corners) != (j in corners) else x for j, x in enumerate(row))
        for i, row in enumerate(M.rows)
    )


def reference_symmetry_criterion(ext: Extension, Y: Vector) -> bool:
    """The criterion on matrices: the moved images g alpha(e_i) g^{-1} and
    their `reference_ad_s0` flips, flattened to (n+2)^2 entries, span a
    space of the same rank as the moved images alone."""
    space = ext.space
    g = exp_nilpotent(space, Y)
    g_inv = exp_nilpotent(space, -Y)
    moved = [g @ reference_realize(space, Vector(row)) @ g_inv for row in ext.alpha.rows]
    rows = [sum(mat.rows, ()) for mat in moved]
    flipped = [sum(reference_ad_s0(space, mat).rows, ()) for mat in moved]
    return rank(Matrix(rows + flipped)) == rank(Matrix(rows))


# -- random symmetric pairs ---------------------------------------------------


def so_k_pair(k: int, split: int):
    """so(k) with the involution fixing the diagonal blocks of sizes
    (split, k - split): h spans rotations within the blocks, m the cross
    rotations."""
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    mats = []
    for i, j in pairs:
        rows = [[Scalar(0)] * k for _ in range(k)]
        rows[i][j] = Scalar(1)
        rows[j][i] = Scalar(-1)
        mats.append(Matrix(rows))
    alg = structure_constants_from_matrices(mats)
    h_idx = [t for t, (i, j) in enumerate(pairs) if (j < split) or (i >= split)]
    m_idx = [t for t, (i, j) in enumerate(pairs) if i < split <= j]
    return alg, h_idx, m_idx


def sl2_pair():
    """sl(2) with h spanned by the diagonal element, m by the nilpotents."""

    def v(*e):
        return Vector(list(e))

    z = v(0, 0, 0)
    # basis H, E, F: [H,E] = 2E, [H,F] = -2F, [E,F] = H
    table = [
        [z, v(0, 2, 0), v(0, 0, -2)],
        [v(0, -2, 0), z, v(1, 0, 0)],
        [v(0, 0, 2), v(-1, 0, 0), z],
    ]
    return StructureAlgebra(3, sparse_brackets(table)), [0], [1, 2]


def heisenberg_pair():
    """Central extension [X, Y] = Z with h the center."""

    def v(*e):
        return Vector(list(e))

    z = v(0, 0, 0)
    table = [
        [z, v(0, 0, 1), z],
        [v(0, 0, -1), z, z],
        [z, z, z],
    ]
    return StructureAlgebra(3, sparse_brackets(table)), [2], [0, 1]


def reference_make_symmetry(space: MobiusSpace, Z: Vector) -> Matrix:
    """The involution s_Z written out entrywise:

        [ -1  -Z   Z J Z^T / 2 ]
        [  0   E  -J Z^T       ]
        [  0   0  -1           ]
    """
    n = space.n
    jz = [z if space.signature.j_sign(i) > 0 else -z for i, z in enumerate(Z)]
    corner = Scalar(1, 0, 2) * sum((Z[i] * jz[i] for i in range(n)), Scalar(0))
    rows = [[Scalar(-1)] + [-z for z in Z] + [corner]]
    for i in range(n):
        row = [Scalar(0)] * (n + 2)
        row[1 + i] = Scalar(1)
        row[n + 1] = -jz[i]
        rows.append(row)
    rows.append([Scalar(0)] * (n + 1) + [Scalar(-1)])
    return Matrix(rows)


def stabilizer_element(space: MobiusSpace, Y: Vector, extra_flip: bool = False) -> Matrix:
    """An exact element of the stabilizer of <e_0>: the unipotent exp of the
    upper-block covector Y, optionally composed with s_0 (which also fixes
    the origin line).  Used to produce independent transitive witnesses."""
    g = exp_nilpotent(space, Y)
    if extra_flip:
        g = g @ make_symmetry(space, Vector.zero(space.n))
    return g


def _rand_invertible(rng: random.Random, n: int) -> Matrix:
    while True:
        M = Matrix([[Scalar(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)])
        if rank(M) == n:
            return M


def in_basis(alg: StructureAlgebra, vectors) -> StructureAlgebra:
    """The algebra restated on another basis of k: f_i = vectors[i], given in
    coordinates of the basis of `alg`, and [f_i, f_j] solved for in the f."""
    vectors = list(vectors)
    cols = Matrix.from_columns(vectors)
    if rank(cols) != alg.dim:
        raise ValueError("the vectors are not a basis of k")
    brackets = {}
    for i, x in enumerate(vectors):
        for j in range(i + 1, len(vectors)):
            coeffs = solve_affine(cols, alg.bracket(x, vectors[j])).base
            terms = [(k, c) for k, c in enumerate(coeffs) if c]
            if terms:
                brackets[i, j] = terms
    return StructureAlgebra(alg.dim, brackets)


def rand_symmetric_pair(rng: random.Random) -> SymmetricPair:
    """A genuinely symmetric pair from a small family, restated on a basis
    scrambled by random invertible rational changes inside h and inside m,
    so its structure constants are scrambled too; the pair is then the
    index lists of the two blocks of that basis."""
    alg, h_idx, m_idx = rng.choice(
        [lambda: so_k_pair(3, 1), lambda: so_k_pair(4, 2), sl2_pair, heisenberg_pair]
    )()
    h_units = [Vector.unit(alg.dim, i) for i in h_idx]
    m_units = [Vector.unit(alg.dim, i) for i in m_idx]
    th = _rand_invertible(rng, len(h_units))
    tm = _rand_invertible(rng, len(m_units))

    def mix(T, units):
        out = []
        for row in T.rows:
            v = Vector.zero(alg.dim)
            for c, u in zip(row, units):
                if c:
                    v = v + u.scale(c)
            out.append(v)
        return out

    scrambled = in_basis(alg, mix(th, h_units) + mix(tm, m_units))
    return SymmetricPair(scrambled, range(len(h_idx)), range(len(h_idx), alg.dim))


# -- the former full families of Weyl constraint rows ------------------------


def reference_weyl_rows(p: int, q: int, ends: list | None = None):
    """The former `weyl._constraint_rows`: a first Bianchi row for every i and
    every j < k < l, then a J-trace row for every (j, l), on the flat
    components.  When `ends` is a list, the row count after each of the two
    families is appended to it."""
    n = p + q
    ends = [] if ends is None else ends
    rows = []
    for i in range(n):
        for j, k, l in combinations(range(n), 3):
            cols = [_flat(n, i, j, k, l), _flat(n, i, k, l, j), _flat(n, i, l, j, k)]
            rows.append((cols, [1, 0, 1, 0, 1, 0]))
    ends.append(len(rows))
    vals = []
    for i in range(n):
        vals += [1 if i < p else -1, 0]
    for j in range(n):
        for l in range(n):
            rows.append(([_flat(n, i, j, i, l) for i in range(n)], vals))
    ends.append(len(rows))
    return rows


def _flat(n: int, i: int, j: int, k: int, l: int) -> int:
    """The row-major flat index of component (i, j, k, l)."""
    return ((i * n + j) * n + k) * n + l


class ReferenceConstraintSystem:
    """The former `weyl._ConstraintSystem`, on `reference_weyl_rows`:
    `index[u]` lists (row, integer coefficient) of the rows on one unknown
    per orbit, where each member's column becomes its orbit's, times its
    sign."""

    def __init__(self, p: int, q: int):
        self.p = p
        self.q = q
        self.orbits = _orbits(p + q)
        # The member lists inverted here, independently of weyl._orbit_of.
        slot = {
            t: (u, s) for u, members in enumerate(self.orbits) for t, s in zip(members, _SIGNS)
        }
        self.ends = []
        self.rows = reference_weyl_rows(p, q, self.ends)
        self.index = [[] for _ in self.orbits]
        for r, (cols, vals) in enumerate(self.rows):
            acc = {}
            for t, v in zip(cols, vals[::2]):
                if t in slot:
                    u, s = slot[t]
                    acc[u] = acc.get(u, 0) + s * v
            for u, coef in acc.items():
                if coef:
                    self.index[u].append((r, coef))

    def describe(self, r: int) -> str:
        """Failure message for row r: its family and its first component."""
        i, j, k, l = _unflat(self.p + self.q, self.rows[r][0][0])
        if r < self.ends[0]:
            return f"first Bianchi fails at {(i, j, k, l)}"
        return f"trace-free condition fails at (j, l) = {(j, l)}"


def reference_weyl_failure(W) -> str | None:
    """The message of the first row of the full families that the flat
    components of W break, summed in Scalars; None when none breaks."""
    system = ReferenceConstraintSystem(W.p, W.q)
    comps = W.components
    for r, (cols, vals) in enumerate(system.rows):
        total = Scalar(0)
        for t, v in zip(cols, vals[::2]):
            total = total + Scalar(v) * comps[t]
        if total:
            return system.describe(r)
    return None


def reference_parser() -> argparse.ArgumentParser:
    """The command line as one parser with a subparser per command, built
    whole on every call: the help and the errors that `cli.main` must keep."""
    parser = argparse.ArgumentParser(
        prog="confsym",
        description="Exact conformal-symmetry toolkit for the Mobius space",
    )
    parser.add_argument("--p", type=int, default=2, help="positive part of the signature")
    parser.add_argument("--q", type=int, default=1, help="negative part of the signature")
    parser.add_argument("--d", type=int, default=2, help="square-free field parameter, at most 10^12 (r = sqrt d)")
    parser.add_argument("--machine", action="store_true", help="emit canonical JSON")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("classify", "orbit label of w relative to the removed lines u, v"),
        ("solve", "all symmetries at w preserving or swapping u, v"),
    ):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--file", help="JSON input file with p, q, d, u, v, w")
        sp.add_argument("--u", help="comma-separated scalar literals")
        sp.add_argument("--v", help="comma-separated scalar literals")
        sp.add_argument("--w", help="comma-separated scalar literals (default e_0)")
    wp = sub.add_parser("weyl", help="algebraic Weyl space computations")
    wp.add_argument("weyl_command", choices=["basis-dim", "prolongation"])
    wp.add_argument("--seed", type=int, help="seed for the random tensor of prolongation (default 0)")
    ep = sub.add_parser("extension", help="validate and analyze extensions")
    ep.add_argument("ext_command", choices=["validate", "curvature", "criterion", "make-flat"])
    ep.add_argument("--file", help="JSON extension file")
    ep.add_argument("--y", help="covector for the criterion (comma-separated literals)")
    ep.add_argument("--candidates", help="semicolon-separated candidate covectors")
    ep.add_argument("-o", "--output", help="output path for make-flat")
    sub.add_parser("reproduce-paper", help="run the six fixed desk cases and compare")
    return parser


@pytest.fixture
def rng():
    return random.Random(20260808)


@pytest.fixture
def space21():
    return MobiusSpace(2, 1)


@pytest.fixture
def space22():
    return MobiusSpace(2, 2)


@pytest.fixture
def space30():
    return MobiusSpace(3, 0)
