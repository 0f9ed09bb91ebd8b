"""Conformal symmetries of the flat model.

Every symmetry at the origin <e_0> is the involution

    s_Z = [ -1  -Z   ZJZ^T/2 ]
          [  0   E  -JZ^T    ]
          [  0   0  -1       ]

for an arbitrary covector Z of length n = p+q; symmetries at other points are
the conjugates g s_Z g^{-1} by group elements g moving the origin there.  The
solver below computes, exactly, the set of all Z whose symmetry preserves a
given null line or maps it onto another, and packages the answer for a pair
of removed lines as a SymmetryReport.

`solve_swap` is the one case tree.  It writes s_Z u = mu v on representatives
u of L1 and v of L2, and reads the factor mu off u_inf, or else off the first
nonzero entry of U.  Preserving a line is swapping it with itself, so
`solve_preserve(L)` is `solve_swap(L, L)`.  Its three cases give mu = -1 when
u_inf != 0 (one point Z), mu = 1 when u_inf = 0 and U != 0 (a hyperplane of
Z), and mu = -1 at the origin, since s_Z e_0 = -e_0 for every Z.
"""

from __future__ import annotations

from dataclasses import dataclass

from .flatmodel import (
    MobiusSpace,
    NullLine,
    OrbitLabel,
    classify_orbit,
    isometry_inverse,
    transitive_witness,
)
from .liealg import degrade, graded_dim, realize
from .linalg import AffineSubspace, Matrix, Vector, solve_affine
from .scalars import ONE, ZERO, Scalar

_HALF = Scalar(1, 0, 2)
_MINUS_ONE = Scalar(-1)


def make_symmetry(space: MobiusSpace, Z: Vector) -> Matrix:
    """The involution s_Z; an exact isometry of the form for every Z."""
    n = space.n
    if len(Z) != n:
        raise ValueError(f"covector must have length {n}")
    jz = [z if space.signature.j_sign(i) > 0 else -z for i, z in enumerate(Z)]
    corner = _HALF * sum((Z[i] * jz[i] for i in range(n)), ZERO)
    rows = [[_MINUS_ONE] + [-z for z in Z] + [corner]]
    for i in range(n):
        row = [ZERO] * (n + 2)
        row[1 + i] = ONE
        row[n + 1] = -jz[i]
        rows.append(row)
    rows.append([ZERO] * (n + 1) + [_MINUS_ONE])
    return Matrix._of_scalars(rows)


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
    return rep[0], Vector(rep.entries[1 : space.n + 1]), rep[space.n + 1]


def _pinned_z(space: MobiusSpace, middle: Vector) -> Vector:
    """Solve J Z^T = middle for Z (J is its own inverse)."""
    return Vector(
        Scalar(space.signature.j_sign(i)) * middle[i] for i in range(space.n)
    )


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
        v_inf = 0), and the middle block pins Z = J (U - mu V)^T / u_inf; the
        corner equation is a consistency check, so the answer is that point
        or EMPTY.
      - u_inf = 0, U != 0: v_inf = 0 and U = mu V are needed, and then the
        corner gives the single affine condition Z.U = -u_0 - mu v_0.
      - u_inf = 0, U = 0: L1 = <e_0>, which every symmetry fixes.
    """
    n = space.n
    u0, U, uinf = _split(space, L1)
    v0, V, vinf = _split(space, L2)
    if uinf:
        if not vinf:
            return AffineSubspace.empty(n)
        mu = -uinf / vinf
        z = _pinned_z(space, (U - V.scale(mu)).scale(uinf.inverse()))
        jz = _pinned_z(space, z)
        quad = _HALF * z.dot(jz)
        if -u0 - z.dot(U) + quad * uinf == mu * v0:
            return AffineSubspace.point(z)
        return AffineSubspace.empty(n)
    if not U.is_zero():
        if vinf:
            return AffineSubspace.empty(n)
        # U != 0, so the loop stops at some entry.
        for i in range(n):
            if U[i] or V[i]:
                if not V[i]:
                    return AffineSubspace.empty(n)
                mu = U[i] / V[i]
                break
        if V.scale(mu) != U:
            return AffineSubspace.empty(n)
        return _hyperplane(U, -u0 - mu * v0)
    # L1 = <e_0> is fixed by every s_Z, so a swap exists only onto itself.
    if L2 == space.origin:
        return AffineSubspace.full(n)
    return AffineSubspace.empty(n)


def _hyperplane(normal: Vector, rhs: Scalar) -> AffineSubspace:
    return solve_affine(Matrix([normal.entries]), Vector([rhs]))


@dataclass(frozen=True)
class SymmetryReport:
    """Exact solution sets for symmetries at base_point relative to two
    removed lines, parameterized by Z at the origin through the witness."""

    base_point: NullLine
    witness: Matrix
    orbit: OrbitLabel
    preserving: AffineSubspace
    swapping: AffineSubspace
    preserve_first: AffineSubspace
    preserve_second: AffineSubspace


def find_symmetries(
    space: MobiusSpace,
    u: NullLine,
    v: NullLine,
    w: NullLine,
    witness: Matrix | None = None,
) -> SymmetryReport:
    """Solve for all symmetries at w preserving or swapping <u> and <v>.

    The problem is conjugated to the origin by g = transitive_witness(w):
    g s_Z g^{-1} preserves (swaps) the lines iff s_Z preserves (swaps) their
    g^{-1}-images.  The preserving set is the exact intersection of the two
    single-line sets.  Any valid witness yields the same realized symmetries.
    """
    orbit = classify_orbit(space, w, u, v)
    g = transitive_witness(space, w) if witness is None else witness
    g_inv = isometry_inverse(space, g)
    u_local = apply_to_line(space, g_inv, u)
    v_local = apply_to_line(space, g_inv, v)
    keep_u = solve_preserve(space, u_local)
    keep_v = solve_preserve(space, v_local)
    preserving = keep_u.intersect(keep_v)
    swapping = solve_swap(space, u_local, v_local)
    for points, images, kind in (
        (preserving, (u_local, v_local), "preserving"),
        (swapping, (v_local, u_local), "swapping"),
    ):
        for z in points.points():
            s = make_symmetry(space, z)
            if (apply_to_line(space, s, u_local), apply_to_line(space, s, v_local)) != images:
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
