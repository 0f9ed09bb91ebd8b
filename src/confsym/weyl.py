"""Algebraic Weyl tensors on R^n, their annihilators and first prolongation.

A Weyl-type tensor is a fully lowered rank-4 tensor with the curvature
symmetries (antisymmetry in both pairs, pair interchange, first Bianchi) and
vanishing J-trace.  The first three generate an 8-way symmetry of the
components, stated only by one table of orbits per n (`_orbits`), and a
`WeylTensor` stores its nonzero orbit values; its n^4 flat components are
derived through the table, which is walked on the two pair codes
(i n + j, k n + l) of a component.  First Bianchi and the trace are sparse
integer rows (`_constraint_rows`): one Bianchi row per 4-set i < j < k < l
and one trace row per j <= l, C(n, 4) + n (n + 1) / 2 rows in all.  Every
other row of the two families is empty on the orbit values or a multiple of
one of these (the proof is in `_constraint_rows`), so these are the distinct
rows, and the space of all Weyl tensors is their exact kernel on the orbit
values.  `kernel_sparse` gives each basis tensor as its nonzero terms, and
`WeylTensor.validate`, which checks every basis tensor, evaluates the same
rows on those nonzero values only.  co(p, q) acts on a tensor viewed as a
(1,3)-tensor (one index raised with J), so the pure scaling a acts as -2a;
`co_action` computes it on integer Z[sqrt d] numerators over one common
denominator.  so(p, q) and the scaling commute with the component
symmetries, so `co_action` evaluates only the canonical member of each
orbit.  The first prolongation collects the covectors Y whose
induced endomorphisms annihilate the tensor for every direction xi.
`prolongation` builds that system lazily, one xi-block of one row per orbit
at a time; it drops rows that repeat up to a rational factor and stops as soon
as the rank reaches n: a trivial kernel is then certified without the other
blocks.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import gcd, lcm

from . import _core
from .flatmodel import MobiusSpace
from .liealg import CoElement, so_block_condition, upsilon_action
from .linalg import Matrix, Vector, kernel, kernel_sparse, sparse_rows_from_scalars
from .scalars import FieldMismatchError, Scalar


class WeylTensor:
    """A tensor with the component symmetries of `_orbits`, stored as the
    nonzero orbit values: `terms` lists (orbit, value) in orbit order, the
    value being the component of the orbit's canonical member.

    Built from the n^4 flat components W[i][j][k][l] (row-major, 0-based),
    which must agree, with the signs, along every orbit and vanish where
    i = j or k = l; otherwise ValueError names the failing symmetry, even
    with validate=False.  `validate` checks the rest (see there)."""

    __slots__ = ("p", "q", "d", "terms", "_ints")

    def __init__(self, p: int, q: int, components, d: int = 2, validate: bool = True):
        n = p + q
        components = tuple(components)
        if len(components) != n**4:
            raise ValueError(f"expected {n ** 4} components, got {len(components)}")
        orbits, slot = _orbits(n)
        for t, s in enumerate(slot):
            if s is None and components[t]:
                i, j, k, l = _unflat(n, t)
                raise ValueError(f"{_SYMMETRIES[0 if i == j else 1][0]} fails at {(i, j, k, l)}")
        for members in orbits:
            for g, (t, s), (t2, s2) in zip(_WALK, members, members[1:]):
                if components[t2] != (components[t] if s == s2 else -components[t]):
                    raise ValueError(f"{_SYMMETRIES[g][0]} fails at {_unflat(n, t)}")
        self._init(p, q, d, _nonzero(components[members[0][0]] for members in orbits))
        if validate:
            self.validate()

    @classmethod
    def _from_values(cls, p: int, q: int, values, d: int) -> WeylTensor:
        """The tensor with one value per orbit of `_orbits(p + q)`, unchecked."""
        return cls._from_terms(p, q, _nonzero(values), d)

    @classmethod
    def _from_terms(cls, p: int, q: int, terms, d: int) -> WeylTensor:
        """The tensor with the nonzero (orbit, value) `terms`, in orbit order,
        unchecked."""
        W = object.__new__(cls)
        W._init(p, q, d, terms)
        return W

    def _init(self, p, q, d, terms):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "terms", tuple(terms))
        object.__setattr__(self, "_ints", None)

    def __setattr__(self, name, value):
        raise AttributeError("WeylTensor is immutable")

    @property
    def n(self) -> int:
        return self.p + self.q

    @property
    def values(self) -> tuple[Scalar, ...]:
        """One value per orbit of `_orbits(n)`, zero (tagged with d) where
        `terms` has none."""
        out = [Scalar(0, 0, 1, self.d)] * len(_orbits(self.n)[0])
        for u, x in self.terms:
            out[u] = x
        return tuple(out)

    @property
    def components(self) -> tuple[Scalar, ...]:
        """The n^4 flat components: each orbit member gets its orbit's value
        times its sign, every other component zero."""
        comps = [Scalar(0, 0, 1, self.d)] * self.n**4
        orbits = _orbits(self.n)[0]
        for u, x in self.terms:
            neg = -x
            for t, s in orbits[u]:
                comps[t] = x if s > 0 else neg
        return tuple(comps)

    def __getitem__(self, ijkl) -> Scalar:
        slot = _orbits(self.n)[1][_flat(self.n, *ijkl)]
        if slot:
            k = bisect_left(self.terms, (slot[0],))
            if k < len(self.terms) and self.terms[k][0] == slot[0]:
                x = self.terms[k][1]
                return x if slot[1] > 0 else -x
        return Scalar(0, 0, 1, self.d)

    def __eq__(self, other):
        return (
            isinstance(other, WeylTensor)
            and (self.p, self.q) == (other.p, other.q)
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.p, self.q, self.terms))

    def is_zero(self) -> bool:
        return not self.terms

    def validate(self, system: _ConstraintSystem | None = None):
        """Exact check of the first Bianchi and trace-free conditions and of
        the field; raises ValueError on violation.  (The pair antisymmetries
        and the pair interchange hold by construction.)

        Only the nonzero orbit values (`terms`) are read.  Every irrational
        one must lie in Q(sqrt d).  The rows that a nonzero value touches are
        evaluated on the numerators over one common denominator; every other
        row is zero.  The message names the first failing row of
        `_constraint_rows`.  Pass a prebuilt `system` for the same signature
        to skip building it."""
        p, q = self.p, self.q
        if system is None:
            system = _ConstraintSystem(p, q)
        elif (system.p, system.q) != (p, q):
            raise ValueError("constraint system of another signature")
        terms = self.terms
        for u, x in terms:
            if x.b and x.d != self.d:
                raise ValueError(
                    f"component {_unflat(self.n, system.orbits[u][0][0])} lies in "
                    f"Q(sqrt {x.d}), not in the tensor's field Q(sqrt {self.d})"
                )
        denom = lcm(*(x.q for _, x in terms))
        res = {}
        for u, x in terms:
            f = denom // x.q
            for r, coef in system.index[u]:
                a, b = res.get(r, (0, 0))
                res[r] = (a + coef * f * x.a, b + coef * f * x.b)
        failed = [r for r, v in res.items() if v != (0, 0)]
        if failed:
            raise ValueError(system.describe(min(failed)))

    def _integer_form(self):
        """(d, q, a, b), computed once per tensor.  Flat component t is
        (a[t] + b[t] sqrt d) / q with one common denominator q; d is the field
        of the irrational values and b is None when there are none.  Raises
        FieldMismatchError when the values mix fields."""
        if self._ints is None:
            d = None
            for _, x in self.terms:
                if x.b:
                    if d is None:
                        d = x.d
                    elif x.d != d:
                        raise FieldMismatchError(f"cannot mix Q(sqrt {d}) with Q(sqrt {x.d})")
            q = lcm(*(x.q for _, x in self.terms))
            a = [0] * self.n**4
            b = None if d is None else [0] * self.n**4
            orbits = _orbits(self.n)[0]
            for u, x in self.terms:
                f = q // x.q
                for t, s in orbits[u]:
                    a[t] = s * f * x.a
                    if b is not None:
                        b[t] = s * f * x.b
            object.__setattr__(self, "_ints", (d, q, a, b))
        return self._ints

    def scale(self, c) -> WeylTensor:
        c = c if isinstance(c, Scalar) else Scalar(c)
        terms = [(u, c * x) for u, x in self.terms] if c else ()
        return WeylTensor._from_terms(self.p, self.q, terms, self.d)

    def __add__(self, other: WeylTensor) -> WeylTensor:
        if (self.p, self.q) != (other.p, other.q):
            raise ValueError("signature mismatch")
        return WeylTensor._from_values(
            self.p, self.q, (x + y for x, y in zip(self.values, other.values)), self.d
        )


def _nonzero(values) -> list:
    """The (index, value) pairs of the nonzero `values`."""
    return [(u, x) for u, x in enumerate(values) if x]


@dataclass(frozen=True)
class WeylBasis:
    """Ordered canonical basis of the full space of Weyl-type tensors."""

    p: int
    q: int
    elements: tuple[WeylTensor, ...]

    @property
    def dimension(self) -> int:
        return len(self.elements)


def _flat(n: int, i: int, j: int, k: int, l: int) -> int:
    return ((i * n + j) * n + k) * n + l


def _unflat(n: int, t: int) -> tuple[int, int, int, int]:
    t, l = divmod(t, n)
    t, k = divmod(t, n)
    i, j = divmod(t, n)
    return i, j, k, l


# The generators of the component symmetries: family, index permutation and
# sign, W[perm(ijkl)] = sign W[ijkl].
_SYMMETRIES = (
    ("antisymmetry (12)", (1, 0, 2, 3), -1),
    ("antisymmetry (34)", (0, 1, 3, 2), -1),
    ("pair symmetry", (2, 3, 0, 1), 1),
)
# A walk through the eight members of an orbit, one generator per step.
_WALK = (0, 1, 0, 2, 0, 1, 0)


def _walk_on_pairs() -> list[tuple[int, int, int]]:
    """The members of `_WALK` as (x, y, sign): a member of the orbit of
    canonical pair codes (A, B) = (i n + j, k n + l) has the pair codes
    (c[x], c[y]) with c = (A, B, A swapped, B swapped), and that sign.

    Derived by applying each generator's permutation to the index positions
    (0, 1, 2, 3) of the canonical component; every generator maps index pairs
    onto index pairs, so each member reads whole, possibly swapped, pairs."""
    code = {(0, 1): 0, (2, 3): 1, (1, 0): 2, (3, 2): 3}
    idx, sign = (0, 1, 2, 3), 1
    out = [(0, 1, 1)]
    for g in _WALK:
        _, perm, s = _SYMMETRIES[g]
        idx = tuple(idx[x] for x in perm)
        sign *= s
        out.append((code[idx[:2]], code[idx[2:]], sign))
    return out


@lru_cache(maxsize=None)
def _orbits(n: int) -> tuple[tuple, tuple]:
    """The component orbits of `_SYMMETRIES` in dimension n: (orbits, slot).

    One orbit per canonical component (i<j, k<l, (i,j) <= (k,l)), ordered by
    its largest flat index.  An orbit lists its members as (flat index, sign
    relative to the canonical component) along `_WALK` from the canonical
    one; when (i,j) = (k,l) the first three steps reach all four members.
    The largest member always has sign +1.  `slot[t]` is (orbit, sign) of
    flat index t, or None when i = j or k = l forces the component to zero.
    The walk runs on the two pair codes of a component (see
    `_walk_on_pairs`); flat index t is (i n + j) n^2 + (k n + l).  Built once
    per n; both parts are tuples."""
    n2 = n * n
    walk = _walk_on_pairs()
    codes = [i * n + j for i, j in combinations(range(n), 2)]
    orbits = []
    for a, A in enumerate(codes):
        sA = A % n * n + A // n
        for B in codes[a:]:
            c = (A, B, sA, B % n * n + B // n)
            members = walk[: 4 if A == B else 8]
            orbits.append(tuple([(c[x] * n2 + c[y], s) for x, y, s in members]))
    orbits.sort(key=lambda members: max(members)[0])
    slot = [None] * n2 * n2
    for u, members in enumerate(orbits):
        for t, s in members:
            slot[t] = (u, s)
    return tuple(orbits), tuple(slot)


def _constraint_rows(p: int, q: int, ends: list | None = None):
    """Sparse integer rows on the flat components: the first Bianchi rows
    W_ijkl + W_iklj + W_iljk for i < j < k < l, one per 4-set, and then the
    J-trace rows sum_i J_ii W_ijil for j <= l; C(n, 4) + n (n + 1) / 2 rows.
    When `ends` is a list, the row count after each of the two families is
    appended to it.

    These are the distinct rows of the full families (a Bianchi row for every
    i and j < k < l, in that order, and a trace row for every (j, l)) on
    orbit values; every other row of them is empty or a nonzero multiple of
    an earlier row kept here:
    - a Bianchi row with i in {j, k, l} is empty on orbit values, since
      W_jjkl = 0 and W_jklj = -W_jljk (and likewise for i = k, l);
    - on tensors with the pair symmetries the Bianchi sum is alternating in
      all four indices, so the three other choices of i in a 4-set give
      +- the row of i = min, which comes earlier in the full order;
    - the trace row (l, j) equals the row (j, l) by pair symmetry.
    So the row space, the canonical kernel and the first failing row that
    `WeylTensor.validate` names are those of the full families."""
    n = p + q
    ends = [] if ends is None else ends
    rows = []
    for i, j, k, l in combinations(range(n), 4):
        cols = [_flat(n, i, j, k, l), _flat(n, i, k, l, j), _flat(n, i, l, j, k)]
        rows.append((cols, [1, 0, 1, 0, 1, 0]))
    ends.append(len(rows))
    # Every trace row sums W_ijil with the coefficients J_ii.
    vals = []
    for i in range(n):
        vals += [1 if i < p else -1, 0]
    for j in range(n):
        for l in range(j, n):
            rows.append(([_flat(n, i, j, i, l) for i in range(n)], vals))
    ends.append(len(rows))
    return rows


class _ConstraintSystem:
    """What `WeylTensor.validate` checks for one signature: the orbits of
    `_orbits` and the rows of `_constraint_rows`.  `index[u]` lists (row,
    integer coefficient) of the rows on one unknown per orbit, where each
    member's column becomes its orbit's, times its sign."""

    __slots__ = ("p", "q", "orbits", "rows", "ends", "index")

    def __init__(self, p: int, q: int):
        self.p = p
        self.q = q
        self.orbits, slot = _orbits(p + q)
        self.ends = []
        self.rows = _constraint_rows(p, q, self.ends)
        self.index = [[] for _ in self.orbits]
        for r, (cols, vals) in enumerate(self.rows):
            acc = {}
            for t, v in zip(cols, vals[::2]):
                if slot[t]:
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


@lru_cache(maxsize=None)
def _basis_cached(p: int, q: int, d: int) -> tuple[WeylTensor, ...]:
    """The canonical kernel of the rows of `_constraint_rows` on the orbit
    values.  Those rows are nonempty and pairwise distinct up to a factor, so
    they go to the engine as they are; each kernel vector's nonzero terms
    become a tensor, which is validated."""
    system = _ConstraintSystem(p, q)
    rows = [([], []) for _ in system.rows]
    for u, entries in enumerate(system.index):
        for r, coef in entries:
            rows[r][0].append(u)
            rows[r][1].extend((coef, 0))
    out = []
    for terms in kernel_sparse(rows, len(system.orbits), d):
        W = WeylTensor._from_terms(p, q, terms, d)
        W.validate(system)
        out.append(W)
    return tuple(out)


def _distinct_rows(rows, seen: set) -> list:
    """The nonempty sparse Z[sqrt d] `rows`, in order, each divided by the
    gcd of its entries and given a positive leading entry, without those
    that repeat an earlier row or a row of `seen` up to a rational factor.
    The rows returned, as tuples (cols, vals), are added to `seen`.  The
    row space is kept, so the RREF, which is unique, and the kernel are
    unchanged."""
    out = []
    for cols, vals in rows:
        if not cols:
            continue
        g = gcd(*vals)
        if next(v for v in vals if v) < 0:
            g = -g
        key = (tuple(cols), tuple([v // g for v in vals]))
        if key not in seen:
            seen.add(key)
            out.append(key)
    return out


def weyl_space_basis(p: int, q: int, d: int = 2) -> WeylBasis:
    """Canonical basis of the solution space of all four constraint families;
    dimension 0 in total dimension 3."""
    if p + q < 3:
        raise ValueError("need p + q >= 3")
    return WeylBasis(p, q, _basis_cached(p, q, d))


def co_action(c: CoElement, W: WeylTensor) -> WeylTensor:
    """Natural action of co(p, q) on W as a (1,3)-tensor, re-lowered:
    (F.W)^i_jkl = F^i_m W^m_jkl - W^i_mkl F^m_j - W^i_jml F^m_k - W^i_jkm F^m_l
    for F = a id + A.  Pure scaling acts as -2a W in this convention.

    Computed on integer numerators: with F = (Fa + Fb sqrt d) / qF and
    W = (Wa + Wb sqrt d) / qW, F.W = ((Fa.Wa + d Fb.Wb) + (Fa.Wb + Fb.Wa)
    sqrt d) / (qF qW), each product a `_gather` evaluated at the canonical
    member of each orbit only: so(p, q) and the scaling commute with the
    component symmetries, so F.W has them too.  Raises ValueError when A is
    not in so(p, q) (the image would not be a Weyl tensor), and
    FieldMismatchError when F and W have irrational entries from different
    fields."""
    n = W.n
    if c.A.shape != (n, n):
        raise ValueError("endomorphism size does not match the tensor")
    if not so_block_condition(MobiusSpace(W.p, W.q, W.d), c.A):
        raise ValueError("the endomorphism is not in so(p, q)")
    d, qw, wa, wb = W._integer_form()
    f_entries = []
    for r in range(n):
        for m in range(n):
            f = c.A[r, m]
            if r == m and c.a:
                f = f + c.a
            if f:
                f_entries.append((r, m, f))
                if f.b:
                    if d is None:
                        d = f.d
                    elif f.d != d:
                        raise FieldMismatchError(f"cannot mix Q(sqrt {d}) with Q(sqrt {f.d})")
    d = W.d if d is None else d
    qf = lcm(*(f.q for _, _, f in f_entries))
    fa = [(r, m, f.a * (qf // f.q)) for r, m, f in f_entries if f.a]
    fb = [(r, m, f.b * (qf // f.q)) for r, m, f in f_entries if f.b]
    targets = [members[0][0] for members in _orbits(n)[0]]
    p = W.p
    out_a = [0] * len(targets)
    out_b = [0] * len(targets)
    _gather(p, n, fa, wa, targets, out_a)
    if wb is not None:
        _gather(p, n, [(r, m, d * f) for r, m, f in fb], wb, targets, out_a)
        _gather(p, n, fa, wb, targets, out_b)
    _gather(p, n, fb, wa, targets, out_b)
    q = qf * qw
    terms = [(u, Scalar(a, b, q, d)) for u, (a, b) in enumerate(zip(out_a, out_b)) if a or b]
    return WeylTensor._from_terms(W.p, W.q, terms, W.d)


def _gather(p: int, n: int, f: list, w: list, targets, out: list):
    """Add the action of `co_action` for an integer matrix F, given as its
    nonzero entries (r, m, F[r, m]), on integer flat components w into
    out[k] for the k-th flat index of `targets`:

        (F.W)_ijkl = sum over m of J_i J_m F[i, m] W_mjkl - F[m, j] W_imkl
                                   - F[m, k] W_ijml - F[m, l] W_ijkm,

    the first index raised and re-lowered with J, hence the signs."""
    if not f:
        return
    n2 = n * n
    n3 = n2 * n
    sign = lambda i: 1 if i < p else -1
    first = [[] for _ in range(n)]
    later = [[] for _ in range(n)]
    for r, m, v in f:
        first[r].append(((m - r) * n3, sign(r) * sign(m) * v))
        later[m].append((r - m, v))
    for k, t in enumerate(targets):
        v = 0
        for shift, x in first[t // n3]:
            v += x * w[t + shift]
        for stride in (n2, n, 1):
            for step, x in later[t // stride % n]:
                v -= x * w[t + step * stride]
        out[k] += v


def co_basis(space: MobiusSpace) -> list[CoElement]:
    """Basis of co(p, q): the pure scaling followed by (E_ij - E_ji) J."""
    n = space.n
    out = [CoElement(Scalar(1), Matrix.zero(n, n))]
    for i in range(n):
        for j in range(i + 1, n):
            rows = [[Scalar(0)] * n for _ in range(n)]
            rows[i][j] = Scalar(space.signature.j_sign(j))
            rows[j][i] = -Scalar(space.signature.j_sign(i))
            out.append(CoElement(Scalar(0), Matrix(rows)))
    return out


def annihilator(W: WeylTensor) -> list[CoElement]:
    """Exact basis of {c in co(p, q) : co_action(c, W) = 0}."""
    space = MobiusSpace(W.p, W.q, W.d)
    basis = co_basis(space)
    columns = [Vector(co_action(c, W).values) for c in basis]
    coeff_vectors = kernel(Matrix.from_columns(columns))
    out = []
    for v in coeff_vectors:
        elt = CoElement(Scalar(0), Matrix.zero(W.n, W.n))
        for coef, b in zip(v, basis):
            if coef:
                elt = elt + b.scale(coef)
        out.append(elt)
    return out


def prolongation(W: WeylTensor) -> list[Vector]:
    """Exact basis of {Y : co_action(upsilon_action(Y, xi_i), W) = 0 for every
    basis direction xi_i}.

    The system has a row per (xi_i, orbit) and a column per Y = e_j: every
    co_action(upsilon, W) is stored by orbit, and the other components'
    rows are +-copies of their orbit's row or zero.  It is built lazily, one
    xi-block at a time.  Rows that repeat one already seen up to a rational
    factor are dropped (`_distinct_rows`); the row space stays exact.  After
    each block the distinct rows so far are reduced, and once the rank is n
    the kernel is trivial: that certifies [] without building the remaining
    blocks.  Otherwise the result is the canonical kernel of all distinct
    rows, which by the uniqueness of the RREF equals that of the whole
    stacked system."""
    space = MobiusSpace(W.p, W.q, W.d)
    n = W.n
    units = [Vector.unit(n, j) for j in range(n)]
    seen = set()
    rows = []
    for i in range(n):
        block = [co_action(upsilon_action(space, Y, units[i]), W).values for Y in units]
        new = _distinct_rows(sparse_rows_from_scalars(list(zip(*block)), W.d), seen)
        rows += new
        if i < n - 1 and new and len(_core.rref_sparse(rows, W.d)[0]) == n:
            return []
    return [Vector.from_terms(terms, n, W.d) for terms in kernel_sparse(rows, n, W.d)]


def random_weyl(p: int, q: int, seed: int, d: int = 2) -> WeylTensor:
    """Deterministic nonzero random combination of the basis with small
    integer coefficients in [-9, 9], not all zero; raises when the space is
    trivial."""
    basis = weyl_space_basis(p, q, d)
    if basis.dimension == 0:
        raise ValueError(f"the Weyl space is trivial for signature ({p}, {q})")
    rng = random.Random(seed)
    while True:
        coeffs = [rng.randint(-9, 9) for _ in range(basis.dimension)]
        if any(coeffs):
            break
    values = [Scalar(0, 0, 1, d)] * len(_orbits(p + q)[0])
    for coef, elt in zip(coeffs, basis.elements):
        if coef:
            c = Scalar(coef)
            for u, v in elt.terms:
                values[u] = values[u] + c * v
    return WeylTensor._from_values(p, q, values, d)
