"""Extensions of homogeneous pairs into the conformal model algebra.

An extension is a linear map alpha from an abstract algebra k (with a
distinguished subalgebra h and complement m) into so(p+1, q+1) that sends h
into the stabilizer subalgebra, induces an isomorphism k/h -> so/p on the
quotients, and is equivariant over h.  The module validates the three
conditions, evaluates the curvature defect [alpha X, alpha Y] - alpha [X, Y],
runs the involution criterion Ad_{exp Y} alpha(k) = Ad_{s_0}-stable, and
performs the trace check that puts the isotropy inside the orthogonal group
for genuinely symmetric pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .flatmodel import MobiusSpace
from .liealg import (
    StructureAlgebra,
    ad_s0,
    bracket,
    exp_nilpotent,
    graded_dim,
    realize,
    so_table,
)
from .linalg import Matrix, Vector, rank, solve_affine
from .scalars import Scalar


class HomogeneousPair:
    """Algebra k with subalgebra h and a vector-space complement m.

    Only [h, h] <= h is required here; the stricter symmetric closure lives in
    SymmetricPair.  Extensions are defined over this weaker structure (the
    stabilizer of the flat model is not a symmetric complement)."""

    def __init__(self, alg: StructureAlgebra, h_basis, m_basis):
        self.alg = alg
        self.h_basis = [v if isinstance(v, Vector) else Vector(v) for v in h_basis]
        self.m_basis = [v if isinstance(v, Vector) else Vector(v) for v in m_basis]
        all_vecs = self.h_basis + self.m_basis
        if len(all_vecs) != alg.dim:
            raise ValueError("h and m bases must decompose the algebra")
        if rank(Matrix([v.entries for v in all_vecs])) != alg.dim:
            raise ValueError("h and m bases are not linearly independent")
        if not self._closed(self.h_basis, self.h_basis, self.h_basis):
            raise ValueError("h is not a subalgebra: [h, h] leaves h")

    def _closed(self, xs, ys, target) -> bool:
        """Whether every [x, y] lies in span(target).  The target basis is
        independent, so this holds iff adding all the brackets to it leaves
        the rank at len(target); one rank decides the whole family.  When xs
        is ys, only the pairs i <= j are formed: [y, x] = -[x, y]."""
        same = xs is ys
        rows = [v.entries for v in target]
        for i, x in enumerate(xs):
            for y in ys[i:] if same else ys:
                rows.append(self.alg.bracket(x, y).entries)
        return not rows or rank(Matrix(rows)) == len(target)

    def _in_span(self, basis, v: Vector) -> bool:
        """Whether v lies in span(basis): for an independent basis, iff
        adding v leaves the rank at len(basis).  The empty basis spans only 0."""
        return rank(Matrix([b.entries for b in basis] + [v.entries])) == len(basis)

    def h_contains(self, v: Vector) -> bool:
        return self._in_span(self.h_basis, v)

    def m_contains(self, v: Vector) -> bool:
        return self._in_span(self.m_basis, v)


class SymmetricPair(HomogeneousPair):
    """Pair with the full closure [h, m] <= m and [m, m] <= h; h and m are the
    +1 and -1 eigenspaces of the defining involution."""

    def __init__(self, alg: StructureAlgebra, h_basis, m_basis):
        super().__init__(alg, h_basis, m_basis)
        if not self._closed(self.h_basis, self.m_basis, self.m_basis):
            raise ValueError("closure violation: [h, m] leaves m")
        if not self._closed(self.m_basis, self.m_basis, self.h_basis):
            raise ValueError("closure violation: [m, m] leaves h")


class Extension:
    """Linear map alpha: k -> so(p+1, q+1), one row of graded coordinates per
    basis element of k."""

    def __init__(self, space: MobiusSpace, pair: HomogeneousPair, alpha: Matrix):
        if alpha.shape != (pair.alg.dim, graded_dim(space)):
            raise ValueError(
                f"alpha must be {pair.alg.dim} x {graded_dim(space)}, got {alpha.shape}"
            )
        self.space = space
        self.pair = pair
        self.alpha = alpha
        self._rows = [[(j, c) for j, c in enumerate(row) if c] for row in alpha.rows]

    def coords(self, x: Vector) -> Vector:
        """The graded coordinates of alpha(x): the sum of x_k times row k of
        alpha over the nonzero x_k, through the nonzero entries of each row
        (kept from __init__)."""
        if len(x) != self.pair.alg.dim:
            raise ValueError("coordinate vector has wrong length")
        acc = {}
        for k, xk in enumerate(x.entries):
            if xk:
                for j, c in self._rows[k]:
                    t = xk * c
                    acc[j] = acc[j] + t if j in acc else t
        zero = Scalar(0)
        return Vector._of_scalars(acc.get(j, zero) for j in range(self.alpha.ncols))


@dataclass
class ConditionReport:
    passed: bool
    detail: str
    witnesses: list = field(default_factory=list)


@dataclass
class ExtensionReport:
    stabilizer_condition: ConditionReport
    quotient_condition: ConditionReport
    equivariance_condition: ConditionReport

    @property
    def passed(self) -> bool:
        return (
            self.stabilizer_condition.passed
            and self.quotient_condition.passed
            and self.equivariance_condition.passed
        )


def validate_extension(ext: Extension) -> ExtensionReport:
    """The three defining conditions, checked exactly on graded coordinates
    (the X block is coordinates 1..n):
    (1) alpha(h) has zero lower block;
    (2) the lower blocks of alpha(m) have full rank p+q;
    (3) alpha([H, Y]) = [alpha(H), alpha(Y)] for H over h, Y over all of k,
        the right side through the structure table of so(p+1, q+1)."""
    space = ext.space
    pair = ext.pair
    n = space.n
    if pair.alg.dim - len(pair.h_basis) != n:
        raise ValueError(
            f"dim k - dim h = {pair.alg.dim - len(pair.h_basis)} does not match p+q = {n}"
        )

    k_basis = [Vector.unit(pair.alg.dim, i) for i in range(pair.alg.dim)]
    # alpha(e_i) is row i of alpha.
    k_images = [Vector._of_scalars(row) for row in ext.alpha.rows]
    h_images = [ext.coords(h) for h in pair.h_basis]

    bad_h = [idx for idx, ah in enumerate(h_images) if any(ah.entries[1 : n + 1])]
    cond1 = ConditionReport(
        passed=not bad_h,
        detail="alpha(h) inside the stabilizer subalgebra",
        witnesses=bad_h,
    )

    x_rows = [ext.coords(m).entries[1 : n + 1] for m in pair.m_basis]
    r = rank(Matrix(x_rows)) if x_rows else 0
    cond2 = ConditionReport(
        passed=r == n,
        detail=f"induced map on the quotient has rank {r} (need {n})",
        witnesses=[r],
    )

    bad_pairs = []
    for hi, (h, ah) in enumerate(zip(pair.h_basis, h_images)):
        for yi, (y, ay) in enumerate(zip(k_basis, k_images)):
            if ext.coords(pair.alg.bracket(h, y)) != bracket(space, ah, ay):
                bad_pairs.append((hi, yi))
    cond3 = ConditionReport(
        passed=not bad_pairs,
        detail="alpha is equivariant over h",
        witnesses=bad_pairs,
    )
    return ExtensionReport(cond1, cond2, cond3)


def curvature(ext: Extension, x: Vector, y: Vector) -> Vector:
    """kappa(x, y) = [alpha(x), alpha(y)] - alpha([x, y]) for x, y in span(m),
    in graded coordinates."""
    if not ext.pair.m_contains(x) or not ext.pair.m_contains(y):
        raise ValueError("curvature arguments must lie in span(m)")
    return bracket(ext.space, ext.coords(x), ext.coords(y)) - ext.coords(
        ext.pair.alg.bracket(x, y)
    )


def is_flat(ext: Extension) -> bool:
    """Curvature vanishes on all m-basis pairs iff alpha restricted to the
    pair is a homomorphism in the appropriate sense."""
    for i, x in enumerate(ext.pair.m_basis):
        for y in ext.pair.m_basis[i + 1 :]:
            if not curvature(ext, x, y).is_zero():
                return False
    return True


def symmetry_criterion(ext: Extension, Y: Vector) -> bool:
    """Whether Ad_{exp Y} alpha(k) is stable under conjugation by the origin
    symmetry: rank([V; Ad_{s_0} V]) equals rank(V) for the moved image V."""
    space = ext.space
    g = exp_nilpotent(space, Y)
    g_inv = exp_nilpotent(space, -Y)
    # alpha(e_i) is row i of alpha.
    moved = [g @ realize(space, Vector._of_scalars(row)) @ g_inv for row in ext.alpha.rows]
    rows = [mat.flatten().entries for mat in moved]
    base_rank = rank(Matrix(rows))
    flipped = [ad_s0(space, mat).flatten().entries for mat in moved]
    return rank(Matrix(rows + flipped)) == base_rank


def symmetry_criterion_search(ext: Extension, candidates) -> Vector | None:
    """Linear scan over candidate covectors; returns the first Y passing the
    criterion or None.  A semi-decision aid, not a complete solver."""
    for Y in candidates:
        Y = Y if isinstance(Y, Vector) else Vector(Y)
        if symmetry_criterion(ext, Y):
            return Y
    return None


@dataclass
class MetrizabilityReport:
    passed: bool
    checked_pairs: list
    failures: list


def metrizability_check(pair: SymmetricPair) -> MetrizabilityReport:
    """For every m-basis pair (X, Y): the trace of ad([X, Y]) restricted to m
    vanishes.  This is what makes the isotropy act orthogonally."""
    alg = pair.alg
    m_cols = Matrix.from_columns(list(pair.m_basis))
    checked = []
    failures = []
    for i, x in enumerate(pair.m_basis):
        for j in range(i + 1, len(pair.m_basis)):
            y = pair.m_basis[j]
            w = alg.bracket(x, y)
            if not pair.h_contains(w):
                raise ValueError("closure violation: [m, m] leaves h")
            restricted = []
            for b in pair.m_basis:
                sol = solve_affine(m_cols, alg.bracket(w, b))
                if sol.is_empty:
                    raise ValueError("closure violation: [h, m] leaves m")
                restricted.append(sol.base.entries)
            tr = Matrix(restricted).trace()
            checked.append((i, j))
            if tr:
                failures.append(((i, j), tr))
    return MetrizabilityReport(passed=not failures, checked_pairs=checked, failures=failures)


def flat_model_extension(space: MobiusSpace) -> Extension:
    """The identity extension of so(p+1, q+1) over its stabilizer subalgebra:
    h spans the (a, A, Z) blocks, m the lower block, alpha the identity in
    graded coordinates.  The algebra's table is `so_table` written densely."""
    table = so_table(space.signature.p, space.signature.q)
    dim = len(table)
    zero = Scalar(0)
    dense = []
    for row in table:
        dense_row = []
        for terms in row:
            entries = [zero] * dim
            for k, c in terms:
                entries[k] = Scalar(c)
            dense_row.append(Vector._of_scalars(entries))
        dense.append(dense_row)
    alg = StructureAlgebra(dim, dense)
    n = space.n
    m_idx = list(range(1, n + 1))
    h_idx = [0] + list(range(n + 1, dim))
    pair = HomogeneousPair(
        alg,
        [Vector.unit(dim, i) for i in h_idx],
        [Vector.unit(dim, i) for i in m_idx],
    )
    return Extension(space, pair, Matrix.identity(dim))
