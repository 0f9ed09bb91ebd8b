"""Extensions of homogeneous pairs into the conformal model algebra.

An extension is a linear map alpha from an abstract algebra k (with a
distinguished subalgebra h and complement m) into so(p+1, q+1) that sends h
into the stabilizer subalgebra, induces an isomorphism k/h -> so/p on the
quotients, and is equivariant over h.  k is stated in a basis adapted to
h + m, so a pair is two index lists into that basis, and alpha is one row
per basis element; every check reads those rows at the indices of h and m.
The module validates the three conditions, evaluates the curvature defect
[alpha X, alpha Y] - alpha [X, Y], runs the involution criterion
Ad_{exp Y} alpha(k) = Ad_{s_0}-stable, and performs the trace check that
puts the isotropy inside the orthogonal group for genuinely symmetric pairs.
"""

from __future__ import annotations

from . import _core
from ._record import Record
from .flatmodel import MobiusSpace
from .liealg import StructureAlgebra, _nonzero, _numerators, bracket, graded_dim, so_table
from .linalg import Matrix, Vector, sparse_rows_from_scalars
from .scalars import ONE, ZERO, one_field


class HomogeneousPair:
    """Algebra k with subalgebra h and a vector-space complement m, stated in
    a basis of k adapted to h + m: `h` and `m` are index lists, an int i
    standing for the basis vector b_i of k, and together they partition
    range(dim).  Any pair can be stated so, after restating k in a basis
    that runs through a basis of h and then one of m.

    Only [h, h] <= h is required here; the stricter symmetric closure lives in
    SymmetricPair.  Extensions are defined over this weaker structure (the
    stabilizer of the flat model is not a symmetric complement).

    The pair keeps the lists, so it costs time and memory linear in dim, and
    closure and span membership are read off the indices: a vector lies in
    the span of h iff its nonzero entries sit at indices of h."""

    def __init__(self, alg: StructureAlgebra, h, m):
        self.alg = alg
        self.h, self.m = list(h), list(m)
        if any(type(i) is not int for i in self.h + self.m):
            raise ValueError("h and m are index lists: an int i stands for the basis vector b_i")
        if sorted(self.h + self.m) != list(range(alg.dim)):
            raise ValueError(f"h and m must partition the basis indices range({alg.dim})")
        if not self._closed(self.h, self.h, self.h):
            raise ValueError("h is not a subalgebra: [h, h] leaves h")

    # The basis of m as unit vectors, built on each read.
    @property
    def m_basis(self) -> list:
        return [Vector.unit(self.alg.dim, i) for i in self.m]

    def _closed(self, xs: list, ys: list, target: list) -> bool:
        """Whether every [b_i, b_j], i in xs and j in ys, lies in the span of
        target: every term of each nonzero bracket has its index in target,
        read off the keys and indices of the algebra's integer rows, so no
        Scalar row is built."""
        ys, target = set(ys), set(target)
        integer_rows = self.alg._integer[2]
        for i in xs:
            for j, terms in integer_rows[i].items():
                if j in ys and any(k not in target for k, _, _ in terms):
                    return False
        return True

    def _in_span(self, family: list, v: Vector) -> bool:
        """Whether v lies in the span of the b_i, i in `family`: iff each
        nonzero entry of v sits at one of its indices."""
        if len(v) != self.alg.dim:
            raise ValueError(f"expected a coordinate vector of length {self.alg.dim}, got {len(v)}")
        idx = set(family)
        return all(k in idx for k, c in enumerate(v.entries) if c)

    def h_contains(self, v: Vector) -> bool:
        return self._in_span(self.h, v)

    def m_contains(self, v: Vector) -> bool:
        return self._in_span(self.m, v)


class SymmetricPair(HomogeneousPair):
    """Pair with the full closure [h, m] <= m and [m, m] <= h; h and m are the
    +1 and -1 eigenspaces of the defining involution."""

    def __init__(self, alg: StructureAlgebra, h, m):
        super().__init__(alg, h, m)
        if not self._closed(self.h, self.m, self.m):
            raise ValueError("closure violation: [h, m] leaves m")
        if not self._closed(self.m, self.m, self.h):
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


class ConditionReport(Record):
    __slots__ = ("passed", "detail", "witnesses")

    def __init__(self, passed: bool, detail: str, witnesses: list | None = None):
        self.passed = passed
        self.detail = detail
        self.witnesses = [] if witnesses is None else witnesses


class ExtensionReport(Record):
    __slots__ = ("stabilizer_condition", "quotient_condition", "equivariance_condition")

    def __init__(
        self,
        stabilizer_condition: ConditionReport,
        quotient_condition: ConditionReport,
        equivariance_condition: ConditionReport,
    ):
        self.stabilizer_condition = stabilizer_condition
        self.quotient_condition = quotient_condition
        self.equivariance_condition = equivariance_condition

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
    (3) alpha([b_i, b_y]) = [alpha(b_i), alpha(b_y)] for i in h and every
        basis element b_y of k, the right side through the structure table
        of so(p+1, q+1).

    All three run on Z[sqrt d] numerators, of alpha over q_alpha and of k
    over q_k, read at the indices of h and m: (2) reduces the X blocks of
    the m rows, (3) compares lhs q_alpha with rhs q_k.  For each i in h it
    visits only the y where a side can be nonzero: [b_i, b_y] nonzero, or
    alpha(b_i) and alpha(b_y) nonzero.  The witnesses are the (h position, y)
    pairs in order."""
    space = ext.space
    pair = ext.pair
    alg = pair.alg
    n = space.n
    if alg.dim - len(pair.h) != n:
        raise ValueError(f"dim k - dim h = {alg.dim - len(pair.h)} does not match p+q = {n}")

    alg_d, q_alg, alg_rows = alg._integer
    alpha_fields, q_alpha, alpha_rows = ext._integer
    d = one_field((alg_d, *alpha_fields))
    bad_h = [idx for idx, i in enumerate(pair.h) if any(1 <= j <= n for j, _, _ in alpha_rows[i])]
    cond1 = ConditionReport(
        passed=not bad_h,
        detail="alpha(h) inside the stabilizer subalgebra",
        witnesses=bad_h,
    )

    # The numerators of alpha(m) are alpha(m) times q_alpha: same rank.
    x_rows = []
    for i in pair.m:
        x = [(j - 1, a, b) for j, a, b in alpha_rows[i] if 1 <= j <= n]
        x_rows.append(([j for j, _, _ in x], [v for _, a, b in x for v in (a, b)]))
    r = len(_core.rref_sparse(x_rows, d, ncols=n)[0])
    cond2 = ConditionReport(
        passed=r == n,
        detail=f"induced map on the quotient has rank {r} (need {n})",
        witnesses=[r],
    )

    so = so_table(space.signature.p, space.signature.q)
    alpha_support = [y for y, row in enumerate(alpha_rows) if row]
    bad_pairs = []
    for hi, i in enumerate(pair.h):
        ah = alpha_rows[i]
        # ad[m] = [alpha(b_i), b_m], so the right side at y is alpha(b_y) through ad.
        ad = [[] for _ in so]
        for j, xa, xb in ah:
            for m, terms in so[j].items():
                ad[m].extend((l, xa * c, xb * c) for l, c in terms)
        ys = set(alg_rows[i])
        if ah:
            ys.update(alpha_support)
        for y in sorted(ys):
            lhs = _combine(d, alg_rows[i].get(y, ()), alpha_rows)
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


def symmetry_criterion(ext: Extension, Y: Vector) -> bool:
    """Whether Ad_{exp Y} alpha(k) is stable under Ad_{s_0}, for the g_1
    element Y (the covector is its Z coordinates) and s_0 = diag(-1, E, -1).
    On graded coordinates Ad_{s_0} is -1 on the X and Z coordinates and +1
    on (a, A).

    Proof of the form computed.  Write V = alpha(k), theta = Ad_{s_0} and
    g = exp(Y).  theta Y = -Y, so s_0 g s_0^{-1} = g^{-1}, that is
    g^{-1} s_0 g = s_0 exp(2Y), and theta(Ad_g V) = Ad_g V holds exactly
    when Ad_{g^{-1} s_0 g} V = theta(Ad_{exp 2Y} V) = V.  theta Ad_{exp 2Y}
    is invertible, so that is the inclusion in V.  The grading g_{-1} + g_0 + g_1 gives
    ad_Y^3 = 0, so Ad_{exp 2Y} x = x + 2[Y, x] + 2[Y, [Y, x]].  The verdict
    is rank([V; theta Ad_{exp 2Y} V]) = rank(V), with V the rows of alpha,
    unmoved, and both brackets through `so_table`: no group element is
    formed.

    The rank of V is taken on the integer rows of alpha.  When it is dim, V
    is the whole algebra, which every automorphism keeps: the answer is
    True, and no bracket is taken.  A Y of the wrong length (ValueError) and
    alpha and Y irrational over two fields (FieldMismatchError) are refused
    before that answer."""
    space = ext.space
    n = space.n
    if len(Y) != n:
        raise ValueError(f"covector must have length {n}")
    alpha_fields, _, alpha_rows = ext._integer
    d = one_field((*alpha_fields, *(c.d for c in Y)))
    dim = graded_dim(space)
    image = [([j for j, _, _ in x], [v for _, a, b in x for v in (a, b)]) for x in alpha_rows if x]
    base_rank = len(_core.rref_sparse(image, d, dim)[0])
    if base_rank == dim:
        return True
    z0 = dim - n
    y = Vector._of_scalars((ZERO,) * z0 + Y.entries)
    moved = []
    # alpha(e_i) is row i of alpha.
    for row, x in zip(ext.alpha.rows, alpha_rows):
        if x:
            once = bracket(space, y, Vector._of_scalars(row))
            twice = bracket(space, y, once)
            ad = (a + 2 * (b + c) if b or c else a for a, b, c in zip(row, once, twice))
            moved.append([-e if 0 < k <= n or k >= z0 else e for k, e in enumerate(ad)])
    rows = image + sparse_rows_from_scalars(moved, d)
    return len(_core.rref_sparse(rows, d, dim)[0]) == base_rank


def symmetry_criterion_search(ext: Extension, candidates) -> Vector | None:
    """Linear scan over candidate covectors; returns the first Y passing the
    criterion or None.  A semi-decision aid, not a complete solver."""
    for Y in candidates:
        Y = Y if isinstance(Y, Vector) else Vector(Y)
        if symmetry_criterion(ext, Y):
            return Y
    return None


class MetrizabilityReport(Record):
    __slots__ = ("passed", "checked_pairs", "failures")

    def __init__(self, passed: bool, checked_pairs: list, failures: list):
        self.passed = passed
        self.checked_pairs = checked_pairs
        self.failures = failures


def metrizability_check(pair: SymmetricPair) -> MetrizabilityReport:
    """For every m-basis pair (X, Y): the trace of ad([X, Y]) restricted to m
    vanishes.  This is what makes the isotropy act orthogonally.  With
    w = [X, Y] in h, [w, m] <= m, so that trace is the sum over k in m of the
    coefficient of b_k in [w, b_k]."""
    alg = pair.alg
    m_basis = pair.m_basis
    checked = []
    failures = []
    for i, x in enumerate(m_basis):
        for j in range(i + 1, len(m_basis)):
            w = alg.bracket(x, m_basis[j])
            if not pair.h_contains(w):
                raise ValueError("closure violation: [m, m] leaves h")
            tr = ZERO
            for k, b in zip(pair.m, m_basis):
                wb = alg.bracket(w, b)
                if not pair.m_contains(wb):
                    raise ValueError("closure violation: [h, m] leaves m")
                tr = tr + wb[k]
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
