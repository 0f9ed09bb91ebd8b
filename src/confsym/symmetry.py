"""Conformal symmetries of the flat model.

Every symmetry at the origin <e_0> is the involution s_Z = s_0 exp(Z), the
origin symmetry s_0 = diag(-1, E, -1) composed with the exponential of the
g_1 element of an arbitrary covector Z of length n = p+q
(`liealg.exp_nilpotent`); symmetries at other points are the conjugates
g s_Z g^{-1} by group elements g moving the origin there.  The solver below
computes, exactly, the set of all Z whose symmetry preserves a given null
line or maps it onto another, and packages the answer for a pair of removed
lines as a SymmetryReport.

`solve_swap` is the one case tree.  It writes s_Z u = mu v on representatives
u of L1 and v of L2, and reads the factor mu off u_inf, or else off the first
nonzero entry of U.  Preserving a line is swapping it with itself, so
`solve_preserve(L)` is `solve_swap(L, L)`.  Its three cases give mu = -1 when
u_inf != 0 (one point Z), mu = 1 when u_inf = 0 and U != 0 (a hyperplane of
Z), and mu = -1 at the origin, since s_Z e_0 = -e_0 for every Z.

`find_symmetries` moves u and v to the origin in one statement, through one
map `unmove` = g^{-1}: on its default path the witness's mirrors in reverse
order, so no group element is formed as a matrix but the witness it
reports; for a witness the caller passes in, the matrix g^{-1}.  Each
solution is checked by applying s_Z to vectors in closed form and comparing
the image with its expected line by proportion (`_spans`), so the check
builds no line; the matrix s_Z (`make_symmetry`) is for the other callers.
"""

from __future__ import annotations

from functools import partial

from ._record import FrozenRecord
from .flatmodel import (
    MobiusSpace,
    NullLine,
    OrbitLabel,
    _mirrors,
    _unmirror,
    classify_orbit,
    isometry_inverse,
    transitive_witness,
)
from .liealg import _HALF, degrade, exp_nilpotent, graded_dim, realize
from .linalg import AffineSubspace, Matrix, Vector, solve_affine
from .scalars import Scalar


def make_symmetry(space: MobiusSpace, Z: Vector) -> Matrix:
    """The involution s_Z = s_0 exp(Z): the rows of `exp_nilpotent(space, Z)`,
    the first and the last negated.  An exact isometry of the form for
    every Z."""
    rows = exp_nilpotent(space, Z).rows
    return Matrix._of_scalars([[-x for x in rows[0]], *rows[1:-1], [-x for x in rows[-1]]])


def is_involutive(space: MobiusSpace, Z: Vector) -> bool:
    s = make_symmetry(space, Z)
    return s @ s == Matrix.identity(space.ambient)


def tangent_is_minus_id(space: MobiusSpace, Z: Vector) -> bool:
    """Check that s_Z acts as -id on the tangent space at the origin: for each
    lower-block basis direction X, Ad_{s_Z} X + X falls into the stabilizer
    subalgebra (zero lower block)."""
    n = space.n
    s = make_symmetry(space, Z)
    s_inv = isometry_inverse(space, s)
    for i in range(n):
        # X_i is graded coordinate 1 + i; coordinates 1..n are the X block.
        mat = realize(space, Vector.unit(graded_dim(space), 1 + i))
        moved = degrade(space, s @ mat @ s_inv + mat)
        if any(moved.entries[1 : n + 1]):
            return False
    return True


def apply_to_line(space: MobiusSpace, S: Matrix, L: NullLine) -> NullLine:
    """Image line S<L>; S must be invertible so the image is again a line."""
    return NullLine(space.form, S.matvec(L.representative))


def conjugate_symmetry(space: MobiusSpace, h: Matrix, Z: Vector) -> Matrix:
    """The symmetry h s_Z h^{-1} at the point h<e_0>; h must be an isometry
    of the form (ValueError otherwise)."""
    return h @ make_symmetry(space, Z) @ isometry_inverse(space, h)


def _split(space: MobiusSpace, line: NullLine):
    """Representative split (u_0, U, u_inf) into corner / middle / corner."""
    rep = line.representative
    return rep[0], Vector._of_scalars(rep.entries[1 : space.n + 1]), rep[space.n + 1]


def _pinned_z(space: MobiusSpace, middle: Vector) -> Vector:
    """Solve J Z^T = middle for Z (J is its own inverse), J applied by sign."""
    p = space.signature.p
    return Vector._of_scalars(x if i < p else -x for i, x in enumerate(middle))


def solve_preserve(space: MobiusSpace, L: NullLine) -> AffineSubspace:
    """All Z with s_Z L = L, as an affine subspace of covector space: the
    swap of L with itself."""
    return solve_swap(space, L, L)


def solve_swap(space: MobiusSpace, L1: NullLine, L2: NullLine) -> AffineSubspace:
    """All Z with s_Z L1 = L2; involutivity then gives s_Z L2 = L1 for free
    (asserted on every reported solution by the callers' tests).

    Case tree on the representatives (u_0, U, u_inf) of L1 and (v_0, V, v_inf)
    of L2, with s_Z u = mu v:
      - u_inf != 0: the last row forces mu = -u_inf / v_inf (EMPTY when
        v_inf = 0), and the middle block pins Z = J (U - mu V)^T / u_inf.
        That point always solves the corner row too.  Proof: s_Z is an
        isometry, so s_Z u is null, and so is mu v.  The pinning makes their
        middle blocks agree, and their last entries are both
        mu v_inf != 0.  A null x has 2 x_0 x_last = -sum_i J_i X_i^2, so
        the first entries agree as well.
      - u_inf = 0, U != 0: v_inf = 0 and U = mu V are needed, read at U's
        first nonzero entry i (EMPTY when V_i = 0), and then the corner
        gives the single affine condition Z.U = -u_0 - mu v_0.
      - u_inf = 0, U = 0: L1 = <e_0>, which every symmetry fixes.
    """
    n = space.n
    u0, U, uinf = _split(space, L1)
    v0, V, vinf = _split(space, L2)
    if uinf:
        if not vinf:
            return AffineSubspace.empty(n)
        mu = -uinf / vinf
        return AffineSubspace.point(_pinned_z(space, (U - V.scale(mu)).scale(uinf.inverse())))
    if not U.is_zero():
        i = next(k for k, x in enumerate(U.entries) if x)
        if vinf or not V[i]:
            return AffineSubspace.empty(n)
        mu = U[i] / V[i]
        if V.scale(mu) != U:
            return AffineSubspace.empty(n)
        return _hyperplane(U, -u0 - mu * v0)
    # L1 = <e_0> is fixed by every s_Z, so a swap exists only onto itself.
    if L2 == space.origin:
        return AffineSubspace.full(n)
    return AffineSubspace.empty(n)


def _hyperplane(normal: Vector, rhs: Scalar) -> AffineSubspace:
    return solve_affine(Matrix._of_scalars([normal.entries]), Vector._of_scalars([rhs]))


class SymmetryReport(FrozenRecord):
    """Exact solution sets for symmetries at base_point relative to two
    removed lines, parameterized by Z at the origin through the witness."""

    __slots__ = (
        "base_point",
        "witness",
        "orbit",
        "preserving",
        "swapping",
        "preserve_first",
        "preserve_second",
    )

    def __init__(
        self,
        base_point: NullLine,
        witness: Matrix,
        orbit: OrbitLabel,
        preserving: AffineSubspace,
        swapping: AffineSubspace,
        preserve_first: AffineSubspace,
        preserve_second: AffineSubspace,
    ):
        object.__setattr__(self, "base_point", base_point)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "orbit", orbit)
        object.__setattr__(self, "preserving", preserving)
        object.__setattr__(self, "swapping", swapping)
        object.__setattr__(self, "preserve_first", preserve_first)
        object.__setattr__(self, "preserve_second", preserve_second)


def find_symmetries(
    space: MobiusSpace,
    u: NullLine,
    v: NullLine,
    w: NullLine,
    witness: Matrix | None = None,
) -> SymmetryReport:
    """Solve for all symmetries at w preserving or swapping <u> and <v>.

    The problem is conjugated to the origin by a g with g<e_0> = w:
    g s_Z g^{-1} preserves (swaps) the lines iff s_Z preserves (swaps) their
    g^{-1}-images.  The preserving set is the exact intersection of the two
    single-line sets.  Any valid witness yields the same realized symmetries.

    By default g = transitive_witness(w) = tau_k ... tau_1, a product of at
    most two reflections, each its own inverse, so `unmove` applies the
    mirrors in reverse order, O(n) per line; g itself is formed only for the
    report.  A given witness must be an isometry whose first column spans w
    (ValueError otherwise); then `unmove` is the matrix g^{-1}.  u and v
    move by `unmove` in one statement, and every reported solution is
    checked by applying s_Z to both moved lines in closed form and reading
    each image against its expected line by proportion (`_spans`).
    """
    orbit = classify_orbit(space, w, u, v)
    if witness is None:
        g = transitive_witness(space, w)
        # The mirrors whose product is g, stated again: O(n) unless w needs
        # the null bridge of a second mirror.
        unmove = partial(_unmirror, space, _mirrors(space, w))
    else:
        g = witness
        unmove = isometry_inverse(space, g).matvec
        # An isometry's first column is null and nonzero, so it spans a line.
        if NullLine(space.form, Vector._of_scalars(row[0] for row in g.rows)) != w:
            raise ValueError("witness does not move the origin to w")
    u_local, v_local = (NullLine(space.form, unmove(line.representative)) for line in (u, v))
    keep_u = solve_preserve(space, u_local)
    keep_v = solve_preserve(space, v_local)
    preserving = keep_u.intersect(keep_v)
    swapping = solve_swap(space, u_local, v_local)
    for points, images, kind in (
        (preserving, (u_local, v_local), "preserving"),
        (swapping, (v_local, u_local), "swapping"),
    ):
        for z in points.points():
            act = _symmetry_action(space, z)
            if not all(
                _spans(act(L.representative), M.representative)
                for L, M in zip((u_local, v_local), images)
            ):
                raise AssertionError(f"solver reported a non-{kind} covector")
    return SymmetryReport(
        base_point=w,
        witness=g,
        orbit=orbit,
        preserving=preserving,
        swapping=swapping,
        preserve_first=keep_u,
        preserve_second=keep_v,
    )


def _spans(x: Vector, rep: Vector) -> bool:
    """Whether x spans the line of the normalized representative rep, whose
    lead entry rep_k is 1: exactly when x_k != 0 and x_i = x_k rep_i for
    every i.

    Proof: if x = c rep with c != 0, then x_k = c and x_i = x_k rep_i.
    Conversely, x = x_k rep with x_k != 0 is nonzero, null because rep is
    (m(x, x) = x_k^2 m(rep, rep) = 0), zero before k as rep is, and
    x / x_k = rep, so NullLine(x) would be the line of rep.  So on the
    images s_Z x that `find_symmetries` reads this answers what comparing
    NullLine(s_Z x) with the expected line answered, and no null check is
    lost: s_Z is an invertible isometry, so the image of a nonzero null
    vector is nonzero and null."""
    k = next(i for i, e in enumerate(rep.entries) if e)
    xk = x[k]
    return bool(xk) and all(
        xi == xk * ri if ri else not xi for xi, ri in zip(x.entries, rep.entries)
    )


def _symmetry_action(space: MobiusSpace, z: Vector):
    """x -> s_Z x, with s_Z = s_0 exp(Z) applied in closed form, O(n): the
    rows of `make_symmetry` read off one vector (x_0, X, x_last) as
    (-x_0 - Z.X + (Z.JZ / 2) x_last, X - JZ x_last, -x_last).  JZ and
    Z.JZ / 2 are computed once per Z."""
    jz = _pinned_z(space, z)
    quad = _HALF * z.dot(jz)

    def act(x: Vector) -> Vector:
        x0, xl = x[0], x[-1]
        X = Vector._of_scalars(x.entries[1:-1])
        mid = X - jz.scale(xl) if xl else X
        return Vector._of_scalars((quad * xl - x0 - z.dot(X), *mid.entries, -xl))

    return act
