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
    _coordinates,
    _nonzero,
    _numerators,
    bracket,
    exp_nilpotent,
    graded_dim,
    realize,
    so_table,
)
from .linalg import Matrix, Vector, rank, solve_affine
from .scalars import ONE, ZERO, Scalar, one_field


class HomogeneousPair:
    """Algebra k with subalgebra h and a vector-space complement m.

    Only [h, h] <= h is required here; the stricter symmetric closure lives in
    SymmetricPair.  Extensions are defined over this weaker structure (the
    stabilizer of the flat model is not a symmetric complement).

    The bases are given either as vectors (Vectors or lists of entries) or,
    both of them, as index lists: an int i stands for the basis vector b_i of
    k.  Index lists (the form an extension file gives) are kept as they are,
    so the pair costs time and memory linear in dim, and independence,
    closure and span membership are decided on the indices: the bases are
    independent iff their indices partition range(dim), and a vector lies in
    the span of unit vectors iff its nonzero entries sit at their indices.
    Vector bases take the rank route; both decide the same predicates
    exactly."""

    def __init__(self, alg: StructureAlgebra, h_basis, m_basis):
        self.alg = alg
        h_basis, m_basis = list(h_basis), list(m_basis)
        if len(h_basis) + len(m_basis) != alg.dim:
            raise ValueError("h and m bases must decompose the algebra")
        if all(type(b) is int for b in h_basis + m_basis):
            self._units = (h_basis, m_basis)
            independent = sorted(h_basis + m_basis) == list(range(alg.dim))
        else:
            self._units = None
            self._bases = tuple(
                [v if isinstance(v, Vector) else Vector(v) for v in basis]
                for basis in (h_basis, m_basis)
            )
            rows = [v.entries for v in self._bases[_H] + self._bases[_M]]
            independent = rank(Matrix(rows)) == alg.dim
        if not independent:
            raise ValueError("h and m bases are not linearly independent")
        if not self._closed(_H, _H, _H):
            raise ValueError("h is not a subalgebra: [h, h] leaves h")

    @property
    def h_basis(self) -> list:
        return self._basis(_H)

    @property
    def m_basis(self) -> list:
        return self._basis(_M)

    def _basis(self, family: int) -> list:
        """The vectors of the basis `family` (_H or _M); index lists are
        turned into unit vectors on each call."""
        if self._units is None:
            return self._bases[family]
        return [Vector.unit(self.alg.dim, i) for i in self._units[family]]

    def _terms(self, family: int) -> list:
        """The nonzero (k, c) of each vector of the basis `family`, in index
        order, without building the vectors of an index list."""
        if self._units is None:
            return [_nonzero(v) for v in self._bases[family]]
        return [((i, ONE),) for i in self._units[family]]

    def _closed(self, xs: int, ys: int, target: int) -> bool:
        """Whether every [x, y] lies in the span of the target basis, for x
        over the basis xs and y over the basis ys (_H or _M).

        On index lists: every term of every nonzero [b_i, b_j] with i in xs
        and j in ys has its index in target, read off the keys and indices of
        the algebra's integer rows, so no Scalar row is built.
        Otherwise the target basis is independent, so this holds iff adding
        all the brackets to it leaves the rank at len(target); one rank
        decides the whole family.  When xs equals ys, only the pairs i <= j
        are formed: [y, x] = -[x, y]."""
        if self._units is not None:
            ys_idx = set(self._units[ys])
            target_idx = set(self._units[target])
            integer_rows = self.alg._integer[2]
            for i in self._units[xs]:
                for j, terms in integer_rows[i].items():
                    if j in ys_idx and any(k not in target_idx for k, _, _ in terms):
                        return False
            return True
        same = xs == ys
        xs, ys = self._bases[xs], self._bases[ys]
        rows = [v.entries for v in self._bases[target]]
        for i, x in enumerate(xs):
            for y in ys[i:] if same else ys:
                rows.append(self.alg.bracket(x, y).entries)
        return not rows or rank(Matrix(rows)) == len(self._bases[target])

    def _in_span(self, family: int, v: Vector) -> bool:
        """Whether v lies in the span of the basis `family` (_H or _M).  On
        index lists, iff each nonzero entry of v sits at one of its indices.
        Otherwise, for an independent basis, iff adding v leaves the rank at
        len(basis).  The empty basis spans only 0."""
        if self._units is not None and len(v) == self.alg.dim:
            idx = set(self._units[family])
            return all(k in idx for k, c in enumerate(v.entries) if c)
        basis = self._basis(family)
        return rank(Matrix([b.entries for b in basis] + [v.entries])) == len(basis)

    def h_contains(self, v: Vector) -> bool:
        return self._in_span(_H, v)

    def m_contains(self, v: Vector) -> bool:
        return self._in_span(_M, v)


# The two bases of a pair, as `HomogeneousPair._closed` and `_in_span` name them.
_H, _M = 0, 1


class SymmetricPair(HomogeneousPair):
    """Pair with the full closure [h, m] <= m and [m, m] <= h; h and m are the
    +1 and -1 eigenspaces of the defining involution."""

    def __init__(self, alg: StructureAlgebra, h_basis, m_basis):
        super().__init__(alg, h_basis, m_basis)
        if not self._closed(_H, _M, _M):
            raise ValueError("closure violation: [h, m] leaves m")
        if not self._closed(_M, _M, _H):
            raise ValueError("closure violation: [m, m] leaves h")


class Extension:
    """Linear map alpha: k -> so(p+1, q+1), one row of graded coordinates per
    basis element of k; the nonzero entries are also kept as Scalars and as
    Z[sqrt d] numerators over one common denominator."""

    def __init__(self, space: MobiusSpace, pair: HomogeneousPair, alpha: Matrix):
        if alpha.shape != (pair.alg.dim, graded_dim(space)):
            raise ValueError(
                f"alpha must be {pair.alg.dim} x {graded_dim(space)}, got {alpha.shape}"
            )
        self.space = space
        self.pair = pair
        self.alpha = alpha
        self._rows = [[(j, c) for j, c in enumerate(row) if c] for row in alpha.rows]
        self._integer = _numerators(self._rows)

    def coords(self, x: Vector) -> Vector:
        """The graded coordinates of alpha(x)."""
        if len(x) != self.pair.alg.dim:
            raise ValueError("coordinate vector has wrong length")
        acc = {}
        for k, xk in _nonzero(x):
            for j, c in self._rows[k]:
                t = xk * c
                acc[j] = acc[j] + t if j in acc else t
        return Vector._of_scalars(acc.get(j, ZERO) for j in range(self.alpha.ncols))


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
    (3) alpha([H, b_y]) = [alpha(H), alpha(b_y)] for H over h and every
        basis element b_y of k, the right side through the structure table
        of so(p+1, q+1).

    All three run on Z[sqrt d] numerators, of h and m over common denominators
    that cancel, of alpha over q_alpha and of k over q_k: (3) compares
    lhs q_alpha with rhs q_k.  For each H it visits only the y where a side
    can be nonzero: [b_i, b_y] nonzero for some H_i nonzero, or alpha(H) and
    alpha(b_y) nonzero.  The witnesses are the (h index, y) pairs in order."""
    space = ext.space
    pair = ext.pair
    alg = pair.alg
    n = space.n
    hs = pair._terms(_H)
    if alg.dim - len(hs) != n:
        raise ValueError(f"dim k - dim h = {alg.dim - len(hs)} does not match p+q = {n}")

    alg_d, q_alg, alg_rows = alg._integer
    alpha_fields, q_alpha, alpha_rows = ext._integer
    h_fields, _, h_int = _numerators(hs)
    m_fields, _, m_int = _numerators(pair._terms(_M))
    d = one_field((alg_d, *alpha_fields, *h_fields, *m_fields))
    h_images = [
        [(j, a, b) for j, (a, b) in _combine(d, h, alpha_rows).items() if a or b] for h in h_int
    ]
    bad_h = [idx for idx, ah in enumerate(h_images) if any(1 <= j <= n for j, _, _ in ah)]
    cond1 = ConditionReport(
        passed=not bad_h,
        detail="alpha(h) inside the stabilizer subalgebra",
        witnesses=bad_h,
    )

    # The numerators of alpha(m) are alpha(m) times a nonzero integer: same rank.
    m_images = [_combine(d, m, alpha_rows) for m in m_int]
    x_rows = [
        [Scalar(*am.get(j, (0, 0)), 1, d) for j in range(1, n + 1)] for am in m_images
    ]
    r = rank(Matrix._of_scalars(x_rows)) if x_rows else 0
    cond2 = ConditionReport(
        passed=r == n,
        detail=f"induced map on the quotient has rank {r} (need {n})",
        witnesses=[r],
    )

    so = so_table(space.signature.p, space.signature.q)
    alpha_support = [y for y, row in enumerate(alpha_rows) if row]
    bad_pairs = []
    for hi, (h_terms, ah) in enumerate(zip(h_int, h_images)):
        # ad[m] = [alpha(H), b_m], so the right side at y is alpha(b_y) through ad.
        ad = [[] for _ in so]
        for j, xa, xb in ah:
            for m, terms in so[j].items():
                ad[m].extend((l, xa * c, xb * c) for l, c in terms)
        ys = set()
        for i, _, _ in h_terms:
            ys.update(alg_rows[i])
        if ah:
            ys.update(alpha_support)
        for y in sorted(ys):
            br = _combine(d, h_terms, {i: alg_rows[i].get(y, ()) for i, _, _ in h_terms})
            lhs = _combine(d, [(k, a, b) for k, (a, b) in br.items()], alpha_rows)
            rhs = _combine(d, alpha_rows[y], ad)
            if _scaled(lhs, q_alpha) != _scaled(rhs, q_alg):
                bad_pairs.append((hi, y))
    cond3 = ConditionReport(
        passed=not bad_pairs,
        detail="alpha is equivariant over h",
        witnesses=bad_pairs,
    )
    return ExtensionReport(cond1, cond2, cond3)


def _combine(d: int, coeffs, rows) -> dict:
    """The sum of c_i rows[i] in Z[sqrt d], for the (i, a, b) of `coeffs`
    (c_i = a + b sqrt d) and each row an iterable of (j, a, b), as
    j -> (a, b); absent j stand for zero."""
    acc = {}
    for i, ca, cb in coeffs:
        for j, ra, rb in rows[i]:
            a, b = ca * ra + d * cb * rb, ca * rb + cb * ra
            if j in acc:
                oa, ob = acc[j]
                acc[j] = (oa + a, ob + b)
            else:
                acc[j] = (a, b)
    return acc


def _scaled(acc: dict, f: int) -> dict:
    """The nonzero (a, b) of j -> (a, b), each times f."""
    return {j: (a * f, b * f) for j, (a, b) in acc.items() if a or b}


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
    symmetry: rank([V; Ad_{s_0} V]) equals rank(V) for the moved image V.
    Each g alpha(e_i) g^{-1}, g = exp(Y), lies in the algebra and is read
    back into graded coordinates; there Ad_{s_0} (s_0 = diag(-1, E, -1)) is
    -1 on the X and Z coordinates and +1 on (a, A)."""
    space = ext.space
    n = space.n
    g = exp_nilpotent(space, Y)
    g_inv = exp_nilpotent(space, -Y)
    # alpha(e_i) is row i of alpha.
    rows = [
        _coordinates(space, g @ realize(space, Vector._of_scalars(row)) @ g_inv)
        for row in ext.alpha.rows
    ]
    z0 = graded_dim(space) - n
    flipped = [[-x if 0 < k <= n or k >= z0 else x for k, x in enumerate(row)] for row in rows]
    base_rank = rank(Matrix._of_scalars(rows))
    return rank(Matrix._of_scalars(rows + flipped)) == base_rank


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
    graded coordinates, over the field of `space`.  The algebra is built on
    the i < j half of `so_table`."""
    table = so_table(space.signature.p, space.signature.q)
    dim = len(table)
    alg = StructureAlgebra(
        dim, {(i, j): terms for i, row in enumerate(table) for j, terms in row.items() if j > i}
    )
    n = space.n
    m_idx = list(range(1, n + 1))
    h_idx = [0] + list(range(n + 1, dim))
    pair = HomogeneousPair(alg, h_idx, m_idx)
    alpha = Matrix._of_scalars([ONE if i == j else ZERO for j in range(dim)] for i in range(dim))
    return Extension(space, pair, alpha)
