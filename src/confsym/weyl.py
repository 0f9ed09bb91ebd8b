"""Algebraic Weyl tensors on R^n, their annihilators and first prolongation.

A Weyl-type tensor is a fully lowered rank-4 tensor with the curvature
symmetries (antisymmetry in both pairs, pair interchange, first Bianchi) and
vanishing J-trace.  The first three generate an 8-way symmetry of the
components: one orbit per canonical component (i<j, k<l, (i,j) <= (k,l)).
`_orbit_of` is the one map from a component to its orbit, in closed form,
and `W[i, j, k, l]` reads through it.  A `WeylTensor` stores its nonzero
orbit values.  `_orbits` holds the member lists: at most 8 flat indices per
orbit, whose signs `_SIGNS` all orbits share, walked on the two pair codes
(i n + j, k n + l) of a component and built only where whole orbits of flat
components are read or written.  First Bianchi and
the trace are sparse integer rows on orbit columns (`_constraint_rows`):
one Bianchi row per 4-set i < j < k < l and one trace row per j <= l,
C(n, 4) + n (n + 1) / 2 rows in all.  Every other row of the two families
is empty on the orbit values or a multiple of one of these (the proof is in
`_constraint_rows`), so these are the distinct rows, and the space of all
Weyl tensors is their exact kernel; a cold basis builds no orbit table.
The rows fall into blocks that share no column, so that kernel has a closed
form, `_kernel_terms`, whose values are all +-1: a cold basis reduces no row
and builds no Scalar.  `_ConstraintSystem.check`, the one evaluator of those
rows, checks the whole kernel in one call, on the nonzero values only;
`WeylTensor.validate` checks one tensor through it.  co(p, q) acts on a
tensor viewed as a (1,3)-tensor (one index raised with J), so the pure
scaling a acts as -2a; `co_action` computes it on integer Z[sqrt d]
numerators over one common denominator.  so(p, q) and the scaling commute
with the component symmetries, so `co_action` evaluates only the canonical
member of each orbit.  Those members are indexed once per n by the index
they hold at each of the four positions (`_positions`): an entry (r, m) of
A visits only the members whose first index is r or whose second, third or
fourth index is m, and the scaling is one pass of -2a.  The first
prolongation collects the covectors Y whose induced endomorphisms
annihilate the tensor for every direction xi.
`prolongation` builds that system lazily, one xi-block of one row per orbit
at a time, and takes the kernel of the rows so far after each block: once it
is trivial, that is certified without the other blocks.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from itertools import combinations, islice
from math import comb, lcm

from ._record import FrozenRecord
from .flatmodel import MobiusSpace, Signature
from .liealg import CoElement, _nonzero, so_block_condition, upsilon_action
from .linalg import Matrix, Vector, kernel, kernel_sparse, sparse_rows_from_scalars
from .scalars import MINUS_ONE, ONE, ZERO, Scalar, check_field_parameter, one_field


class WeylTensor:
    """A tensor with the component symmetries of `_orbits`, stored as the
    nonzero orbit values: `terms` lists (orbit, value) in orbit order, the
    value being the component of the orbit's canonical member.

    Built from the n^4 flat components W[i][j][k][l] (row-major, 0-based),
    which must agree, with the signs, along every orbit and vanish where
    i = j or k = l; otherwise ValueError names the failing symmetry, even
    with validate=False.  `validate` checks the rest (see there).  The
    signature must pass `Signature` and d `check_field_parameter`."""

    __slots__ = ("p", "q", "d", "terms", "_ints")

    def __init__(self, p: int, q: int, components, d: int = 2, validate: bool = True):
        n = Signature(p, q).n
        check_field_parameter(d)
        components = tuple(components)
        if len(components) != n**4:
            raise ValueError(f"expected {n ** 4} components, got {len(components)}")
        # The components forced to zero, in flat order: the whole (k, l) block
        # of an (i, j) with i = j, and the k = l diagonal of every other one.
        n2 = n * n
        for t0 in range(0, n2 * n2, n2):
            for t in range(t0, t0 + n2, 1 if t0 // n2 % (n + 1) == 0 else n + 1):
                if components[t]:
                    i, j, k, l = _unflat(n, t)
                    raise ValueError(f"{_SYMMETRIES[0 if i == j else 1][0]} fails at {(i, j, k, l)}")
        orbits = _orbits(n)
        for members in orbits:
            for g, t, t2 in zip(_WALK, members, members[1:]):
                name, _, sign = _SYMMETRIES[g]
                if components[t2] != (components[t] if sign > 0 else -components[t]):
                    raise ValueError(f"{name} fails at {_unflat(n, t)}")
        self._init(p, q, d, _nonzero(components[members[0]] for members in orbits))
        if validate:
            self.validate()

    @classmethod
    def _from_terms(cls, p: int, q: int, terms, d: int) -> WeylTensor:
        """The tensor with the nonzero (orbit, value) `terms`, in orbit order,
        unchecked."""
        W = object.__new__(cls)
        W._init(p, q, d, terms)
        return W

    def _init(self, p, q, d, terms):
        _set_p(self, p)
        _set_q(self, q)
        _set_d(self, d)
        _set_terms(self, tuple(terms))
        _set_ints(self, None)

    def __setattr__(self, name, value):
        raise AttributeError("WeylTensor is immutable")

    @property
    def n(self) -> int:
        return self.p + self.q

    @property
    def values(self) -> tuple[Scalar, ...]:
        """One value per orbit of `_orbits(n)`, zero where `terms` has
        none."""
        out = [ZERO] * _orbit_count(self.n)
        for u, x in self.terms:
            out[u] = x
        return tuple(out)

    @property
    def components(self) -> tuple[Scalar, ...]:
        """The n^4 flat components: each orbit member gets its orbit's value
        times its sign, every other component zero."""
        comps = [ZERO] * self.n**4
        orbits = _orbits(self.n)
        for u, x in self.terms:
            neg = -x
            for t, s in zip(orbits[u], _SIGNS):
                comps[t] = x if s > 0 else neg
        return tuple(comps)

    def __getitem__(self, ijkl) -> Scalar:
        """W[i, j, k, l]: the value of its orbit (`_orbit_of`), negated once
        per pair in decreasing order; zero where i = j or k = l.  Raises
        IndexError for an index outside range(n)."""
        i, j, k, l = ijkl
        if min(ijkl) < 0 or max(ijkl) >= self.n:
            raise IndexError(f"component {ijkl} out of range for n = {self.n}")
        if i == j or k == l:
            return ZERO
        u = _orbit_of(min(i, j), max(i, j), min(k, l), max(k, l))
        m = bisect_left(self.terms, (u,))
        if m < len(self.terms) and self.terms[m][0] == u:
            x = self.terms[m][1]
            return -x if (i > j) != (k > l) else x
        return ZERO

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

    def validate(self):
        """Exact check of the first Bianchi and trace-free conditions and of
        the field; raises ValueError on violation.  (The pair antisymmetries
        and the pair interchange hold by construction.)  The check is
        `_ConstraintSystem.check` on this one tensor, with the system cached
        for the signature (`_constraint_system`)."""
        _constraint_system(self.p, self.q).check((self.terms,), self.d)

    def _integer_form(self):
        """(d, q, a, b), computed once per tensor.  Flat component t is
        (a[t] + b[t] sqrt d) / q with one common denominator q; d is the field
        of the values (`one_field`) and b is None when they are all rational.
        Raises FieldMismatchError when the values mix fields."""
        if self._ints is None:
            d = one_field(x.d for _, x in self.terms)
            q = lcm(*(x.q for _, x in self.terms))
            a = [0] * self.n**4
            b = [0] * self.n**4 if d else None
            orbits = _orbits(self.n)
            for u, x in self.terms:
                f = q // x.q
                for t, s in zip(orbits[u], _SIGNS):
                    a[t] = s * f * x.a
                    if b is not None:
                        b[t] = s * f * x.b
            _set_ints(self, (d, q, a, b))
        return self._ints

    def scale(self, c) -> WeylTensor:
        """c W, tagged Q(sqrt d) like W; raises FieldMismatchError when c is
        irrational in another field."""
        c = c if isinstance(c, Scalar) else Scalar(c)
        one_field((self.d, c.d))
        terms = [(u, c * x) for u, x in self.terms] if c else ()
        return WeylTensor._from_terms(self.p, self.q, terms, self.d)

    def __add__(self, other: WeylTensor) -> WeylTensor:
        """W + V, tagged Q(sqrt d) like W; raises FieldMismatchError when a
        value of either is irrational in another field."""
        if (self.p, self.q) != (other.p, other.q):
            raise ValueError("signature mismatch")
        one_field((self.d, *(x.d for _, x in self.terms + other.terms)))
        sums = (x + y for x, y in zip(self.values, other.values))
        return WeylTensor._from_terms(self.p, self.q, _nonzero(sums), self.d)


_set_p = WeylTensor.p.__set__
_set_q = WeylTensor.q.__set__
_set_d = WeylTensor.d.__set__
_set_terms = WeylTensor.terms.__set__
_set_ints = WeylTensor._ints.__set__


class WeylBasis(FrozenRecord):
    """Ordered canonical basis of the full space of Weyl-type tensors."""

    __slots__ = ("p", "q", "elements")

    def __init__(self, p: int, q: int, elements: tuple[WeylTensor, ...]):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "elements", elements)

    @property
    def dimension(self) -> int:
        return len(self.elements)


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


# The sign of each member of an orbit relative to its canonical member, in
# the order of `_orbits`: the same for every orbit.
_SIGNS = tuple(s for _, _, s in _walk_on_pairs())


def _orbit_of(i: int, j: int, k: int, l: int) -> int:
    """The one map from a component (i, j, k, l), i < j and k < l, to its
    orbit, the index in `_orbits`: with a >= b the colex ranks j (j - 1) / 2
    + i and l (l - 1) / 2 + k of its two pairs, a (a + 1) / 2 + b."""
    a = j * (j - 1) // 2 + i
    b = l * (l - 1) // 2 + k
    if a < b:
        a, b = b, a
    return a * (a + 1) // 2 + b


def _orbit_count(n: int) -> int:
    """The number of orbits, one per two index pairs (i<j) <= (k<l)."""
    return comb(comb(n, 2) + 1, 2)


@lru_cache(maxsize=None)
def _orbits(n: int) -> tuple:
    """The member lists of the component orbits of `_SYMMETRIES` in
    dimension n, one per canonical component (i<j, k<l, (i,j) <= (k,l)) and
    placed at `_orbit_of(i, j, k, l)`; that order is also the order of the
    largest flat index of each orbit.  An orbit lists the flat indices of its
    members along `_WALK` from the canonical one, whose signs relative to it
    are `_SIGNS`; when (i,j) = (k,l) the first three steps reach all four
    members.  The largest member always has sign +1.  The walk runs on the
    two pair codes of a component (see `_walk_on_pairs`); flat index t is
    (i n + j) n^2 + (k n + l).  Built once per n, as tuples."""
    n2 = n * n
    walk = _walk_on_pairs()
    pairs = list(combinations(range(n), 2))
    orbits = [None] * _orbit_count(n)
    for a, (i, j) in enumerate(pairs):
        for k, l in pairs[a:]:
            c = (i * n + j, k * n + l, j * n + i, l * n + k)
            members = walk[: 4 if (i, j) == (k, l) else 8]
            orbits[_orbit_of(i, j, k, l)] = tuple([c[x] * n2 + c[y] for x, y, _ in members])
    return tuple(orbits)


def _constraint_rows(p: int, q: int):
    """Sparse integer rows on the orbit columns of `_orbit_of`: the first
    Bianchi rows W_ijkl + W_iklj + W_iljk for i < j < k < l, one per 4-set,
    and then the J-trace rows sum_i J_ii W_ijil for j <= l;
    C(n, 4) + n (n + 1) / 2 rows, each with sorted, distinct columns.

    A flat component is its orbit's value times its sign, so W_iklj is minus
    the value of the orbit of (i, k, j, l), and W_ijil (i not j, l) is J_ii
    times the value of the orbit of the pairs {i, j} and {i, l}, negated
    when exactly one of i > j and i > l holds (one pair is written swapped).
    The larger pair rank of each orbit is that of (i, l), (j, l), (k, l) in
    turn in a Bianchi row and grows with i in a trace row, so the columns
    come out sorted as written.

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
    `_ConstraintSystem.check` names are those of the full families.

    Only the n trace rows (j, j) share columns, the sectional orbits
    {a, b}{a, b}.  A Bianchi row reads the orbits of its 4-set, whose
    members have four distinct indices, and a trace row (j, l), j < l, the
    orbits {i, j}{i, l}, which fix i and {j, l}: no other row reads them
    (`_kernel_terms` solves on that)."""
    n = p + q
    # rank[x][y]: the colex rank of the pair {x, y}; tri[a] = a (a + 1) / 2,
    # so the orbit of two pairs of ranks a >= b is tri[a] + b (`_orbit_of`).
    rank = [[max(x, y) * (max(x, y) - 1) // 2 + min(x, y) for y in range(n)] for x in range(n)]
    tri = [a * (a + 1) // 2 for a in range(comb(n, 2))]
    rows = []
    for i, j, k, l in combinations(range(n), 4):
        # The orbits of (i, l, j, k), (i, k, j, l) and (i, j, k, l).
        ri = rank[i]
        cols = [tri[ri[l]] + rank[j][k], tri[rank[j][l]] + ri[k], tri[rank[k][l]] + ri[j]]
        rows.append((cols, [1, 0, -1, 0, 1, 0]))
    for j in range(n):
        rj = rank[j]
        for l in range(j, n):
            rl = rank[l]
            cols = []
            vals = []
            for i in range(n):
                if i != j and i != l:
                    a, b = rj[i], rl[i]
                    cols.append(tri[a] + b if a >= b else tri[b] + a)
                    vals += [1 if (i < p) == ((i > j) == (i > l)) else -1, 0]
            rows.append((cols, vals))
    return rows


class _ConstraintSystem:
    """The one evaluator of the rows of `_constraint_rows` for one signature
    (`check`): the rows, and their transpose `index`, where `index[u]` lists
    (row, integer coefficient) of the rows on orbit u, one entry per orbit
    of `_orbits`.  Read through `_constraint_system`."""

    __slots__ = ("p", "q", "rows", "index")

    def __init__(self, p: int, q: int):
        self.p = p
        self.q = q
        self.rows = _constraint_rows(p, q)
        self.index = [[] for _ in range(_orbit_count(p + q))]
        for r, (cols, vals) in enumerate(self.rows):
            for k, u in enumerate(cols):
                self.index[u].append((r, vals[2 * k]))

    def check(self, tensors, d: int):
        """Exact check of the Bianchi and trace-free rows and of the field
        Q(sqrt d) on each of `tensors`, as its nonzero (orbit, value) terms,
        in order: ValueError at the first that fails names its first value
        of another field, or else its first failing row (`describe`).  The
        touched rows are summed on the numerators over one common
        denominator, rational parts under r and sqrt d parts under ~r."""
        index = self.index
        for terms in tensors:
            denom = lcm(*[x.q for _, x in terms])
            res = {}
            for u, x in terms:
                f = denom // x.q
                a = f * x.a
                for r, coef in index[u]:
                    res[r] = res.get(r, 0) + coef * a
                if x.b:
                    if x.d != d:
                        n = self.p + self.q
                        raise ValueError(
                            f"component {_unflat(n, _orbits(n)[u][0])} lies in "
                            f"Q(sqrt {x.d}), not in the tensor's field Q(sqrt {d})"
                        )
                    b = f * x.b
                    for r, coef in index[u]:
                        res[~r] = res.get(~r, 0) + coef * b
            if any(res.values()):
                first = min(r if r >= 0 else ~r for r, v in res.items() if v)
                raise ValueError(self.describe(first))

    def describe(self, r: int) -> str:
        """Failure message for row r: its family and its first component,
        the 4-set of a Bianchi row or the (j, l) of a trace row.  The
        C(n, 4) Bianchi rows come first."""
        n = self.p + self.q
        if r < comb(n, 4):
            return f"first Bianchi fails at {next(islice(combinations(range(n), 4), r, None))}"
        r -= comb(n, 4)
        j = 0
        while r >= n - j:
            r -= n - j
            j += 1
        return f"trace-free condition fails at (j, l) = {(j, j + r)}"


# The constraint system of a signature, built once.
_constraint_system = lru_cache(maxsize=None)(_ConstraintSystem)


def _kernel_terms(p: int, q: int) -> list:
    """The canonical kernel of the rows of `_constraint_rows(p, q)` on the
    orbit values, in closed form and term by term as `kernel_sparse` gives
    it: one vector per free column, in free-column order, each the list of
    its nonzero (orbit, value) terms in column order with the unit at its
    own free column last and no term at another free column.  Every value
    is the shared ONE or MINUS_ONE.

    The rows split into blocks that share no column (`_constraint_rows`),
    and the unique reduced form of a block-diagonal system is the union of
    its blocks' reduced forms:
    - each Bianchi row and each trace row (j, l), j < l, is a one-row block.
      With columns c_0 < c_1 < ... and values v, v_0 = +-1, the pivot is
      c_0, and each later column c_m is free with the vector
      {c_0: -v_m v_0, c_m: 1};
    - the n rows (j, j) read only the sectional orbits, with the value J_a
      at x_ab, the orbit of {a, b}{a, b}.  With y_ab = J_a J_b x_ab, row j
      is J_j times the sum of y over the edges of K_n at the vertex j.  The
      sectional columns run in colex order of their pairs.  The columns
      (0, 1), (0, 2), (1, 2) have the minor [[1, 1, 0], [1, 0, 1],
      [0, 1, 1]] of determinant -2 on the vertices 0, 1, 2 (times +-1 in x),
      and each (0, k), k >= 3, is the first column to reach the vertex k.
      The vector of each other pair (a, b), 1 <= a < b and b >= 3, is
      y_ab = 1, y_12 = -1, y_01 = 1 - [a = 1], y_02 = 1 - [a = 2],
      y_0a = -1 when a >= 3 and y_0b = -1, then x_e = J_a J_b J_e1 J_e2 y_e:
      every vertex sum vanishes, so it writes column (a, b) through earlier
      pivot columns only.  So these n columns are the pivots, the block has
      rank n, and each vector is 0 at every other free column.
    So the rank is len(rows), and there are n^2 (n^2 - 1) / 12 -
    n (n + 1) / 2 vectors."""
    n = p + q
    rows = _constraint_system(p, q).rows
    # The rows (j, j): each follows the Bianchi rows and the n - j' trace
    # rows (j', l) of every j' < j.
    diagonal = {comb(n, 4) + j * n - j * (j - 1) // 2 for j in range(n)}
    vectors = {}
    for r, (cols, vals) in enumerate(rows):
        if r not in diagonal:
            c0, v0 = cols[0], vals[0]
            for m in range(1, len(cols)):
                vectors[cols[m]] = [(c0, MINUS_ONE if vals[2 * m] == v0 else ONE), (cols[m], ONE)]
    J = [1 if x < p else -1 for x in range(n)]
    for b in range(3, n):
        for a in range(1, b):
            ys = [(0, 1, 1 - (a == 1)), (0, 2, 1 - (a == 2)), (1, 2, -1)]
            if a >= 3:
                ys.append((0, a, -1))
            ys += [(0, b, -1), (a, b, 1)]
            s = J[a] * J[b]
            vectors[_orbit_of(a, b, a, b)] = [
                (_orbit_of(e, f, e, f), ONE if s * J[e] * J[f] * y > 0 else MINUS_ONE)
                for e, f, y in ys
                if y
            ]
    return [vectors[f] for f in sorted(vectors)]


@lru_cache(maxsize=None)
def _basis_cached(p: int, q: int) -> tuple:
    """(solved, system, tagged): the canonical kernel of the rows of
    `_constraint_rows` on the orbit values (`_kernel_terms`), as the nonzero
    (orbit, value) terms of each basis tensor, with the constraint system
    that checks them.  The values are rational, so one kernel per signature
    serves every field: `weyl_space_basis` checks it over the field of its
    call in one `_ConstraintSystem.check` and keeps the tensors in `tagged`,
    d -> tensors."""
    return tuple(_kernel_terms(p, q)), _constraint_system(p, q), {}


def weyl_space_basis(p: int, q: int, d: int = 2) -> WeylBasis:
    """Canonical basis of the solution space of all four constraint families;
    dimension 0 in total dimension 3.  The signature must pass `Signature`,
    and d must be a field parameter (`check_field_parameter`, read when the
    tensors over Q(sqrt d) are first made)."""
    Signature(p, q)
    solved, system, tagged = _basis_cached(p, q)
    elements = tagged.get(d)
    if elements is None:
        check_field_parameter(d)
        system.check(solved, d)
        elements = tuple(WeylTensor._from_terms(p, q, terms, d) for terms in solved)
        tagged[d] = elements
    return WeylBasis(p, q, elements)


def co_action(c: CoElement, W: WeylTensor) -> WeylTensor:
    """Natural action of co(p, q) on W as a (1,3)-tensor, re-lowered:
    (F.W)^i_jkl = F^i_m W^m_jkl - W^i_mkl F^m_j - W^i_jml F^m_k - W^i_jkm F^m_l
    for F = a id + A.  Pure scaling acts as -2a W in this convention.

    The so(p, q) check (`so_block_condition`) and the nonzero entries of A
    are read off the rows of A; A has a zero diagonal, so F's is a, which
    acts as one pass of -2a.  Computed on integer numerators: with
    F = (Fa + Fb sqrt d) / qF and W = (Wa + Wb sqrt d) / qW, F.W =
    ((Fa.Wa + d Fb.Wb) + (Fa.Wb + Fb.Wa) sqrt d) / (qF qW), each product a
    `_gather` evaluated at the canonical member of each orbit only: so(p, q)
    and the scaling commute with the component symmetries, so F.W has them
    too.  Raises ValueError when A is not in so(p, q) (the image would not
    be a Weyl tensor), and FieldMismatchError when a, A, W's values and W's
    field Q(sqrt W.d) do not share one field."""
    n = W.n
    if c.A.shape != (n, n):
        raise ValueError("endomorphism size does not match the tensor")
    if not so_block_condition(MobiusSpace(W.p, W.q, W.d), c.A):
        raise ValueError("the endomorphism is not in so(p, q)")
    d, qw, wa, wb = W._integer_form()
    a = c.a
    f_entries = [(r, m, f) for r, row in enumerate(c.A.rows) for m, f in enumerate(row) if f]
    d = one_field((W.d, d, a.d, *(f.d for _, _, f in f_entries)))
    qf = lcm(a.q, *(f.q for _, _, f in f_entries))
    aa, ab = a.a * (qf // a.q), a.b * (qf // a.q)
    fa = [(r, m, f.a * (qf // f.q)) for r, m, f in f_entries if f.a]
    fb = [(r, m, f.b * (qf // f.q)) for r, m, f in f_entries if f.b]
    at = _positions(n)
    p = W.p
    out_a = [0] * len(at[0])
    out_b = [0] * len(at[0])
    _gather(p, at, aa, fa, wa, out_a)
    if wb is not None:
        _gather(p, at, d * ab, [(r, m, d * f) for r, m, f in fb], wb, out_a)
        _gather(p, at, aa, fa, wb, out_b)
    _gather(p, at, ab, fb, wa, out_b)
    q = qf * qw
    terms = [(u, Scalar(x, y, q, d)) for u, (x, y) in enumerate(zip(out_a, out_b)) if x or y]
    return WeylTensor._from_terms(W.p, W.q, terms, W.d)


@lru_cache(maxsize=None)
def _positions(n: int) -> tuple:
    """The canonical flat indices of `_orbits(n)`, indexed by position:
    (targets, first, second, third, fourth), where targets[k] is the
    canonical member of orbit k and first[x] lists (k, targets[k]) for every
    target whose first index is x (likewise for the other three positions).
    Built once per n; every part is a tuple."""
    targets = tuple(members[0] for members in _orbits(n))
    out = [targets]
    for stride in (n**3, n * n, n, 1):
        lists = [[] for _ in range(n)]
        for k, t in enumerate(targets):
            lists[t // stride % n].append((k, t))
        out.append(tuple(map(tuple, lists)))
    return tuple(out)


def _gather(p: int, at: tuple, a: int, f: list, w: list, out: list):
    """Add the action of `co_action` for the integer matrix F = a id + A,
    with A given as its nonzero off-diagonal entries (r, m, A[r, m]), on
    integer flat components w into out[k] for the k-th canonical target of
    `at = _positions(n)`:

        (F.W)_ijkl = -2a W_ijkl + sum over m of J_i J_m A[i, m] W_mjkl
                     - A[m, j] W_imkl - A[m, k] W_ijml - A[m, l] W_ijkm,

    the first index raised and re-lowered with J, hence the signs.  The
    scaling is one pass over the targets.  An entry (r, m, v) of A visits
    only the targets whose first index is r (the J_r J_m term) and those
    whose second, third or fourth index is m (the -v terms), read from the
    position index `at`."""
    targets, first, second, third, fourth = at
    if a:
        a2 = -2 * a
        out[:] = [x + a2 * w[t] for x, t in zip(out, targets)]
    n = len(first)
    n2 = n * n
    for r, m, v in f:
        x = v if (r < p) == (m < p) else -v
        step = (m - r) * n2 * n
        for k, t in first[r]:
            out[k] += x * w[t + step]
        for stride, at_m in ((n2, second[m]), (n, third[m]), (1, fourth[m])):
            step = (r - m) * stride
            for k, t in at_m:
                out[k] -= v * w[t + step]


def _co_element(space: MobiusSpace, coords) -> CoElement:
    """The element of co(p, q) whose coordinates in `co_basis` order are
    `coords`: the scaling, then for each i < j the coordinate c of
    (E_ij - E_ji) J, which puts c J_j at (i, j) and -c J_i at (j, i)."""
    n = space.n
    a, *rest = coords
    rows = [[ZERO] * n for _ in range(n)]
    for (i, j), c in zip(combinations(range(n), 2), rest):
        rows[i][j] = c if space.signature.j_sign(j) > 0 else -c
        rows[j][i] = -c if space.signature.j_sign(i) > 0 else c
    return CoElement(a, Matrix._of_scalars(rows))


def co_basis(space: MobiusSpace) -> list[CoElement]:
    """Basis of co(p, q): the pure scaling followed by (E_ij - E_ji) J."""
    size = 1 + comb(space.n, 2)
    return [_co_element(space, [ONE if k == m else ZERO for k in range(size)]) for m in range(size)]


def annihilator(W: WeylTensor) -> list[CoElement]:
    """Exact basis of {c in co(p, q) : co_action(c, W) = 0}."""
    space = MobiusSpace(W.p, W.q, W.d)
    columns = [Vector._of_scalars(co_action(c, W).values) for c in co_basis(space)]
    return [_co_element(space, v) for v in kernel(Matrix.from_columns(columns))]


def prolongation(W: WeylTensor) -> list[Vector]:
    """Exact basis of {Y : co_action(upsilon_action(Y, xi_i), W) = 0 for every
    basis direction xi_i}.

    The system has a row per (xi_i, orbit) and a column per Y = e_j: every
    co_action(upsilon, W) is stored by orbit, and the other components'
    rows are +-copies of their orbit's row or zero.  It is built lazily, one
    xi-block at a time, and after each block the canonical kernel of all
    rows so far is taken.  An empty kernel certifies [] without building the
    remaining blocks; after the last block the kernel is the answer.  The
    engine is told the n columns, so it stops reducing as soon as its pivots
    fill them: the rank cannot exceed n, so the rows it leaves unread change
    no answer."""
    space = MobiusSpace(W.p, W.q, W.d)
    n = W.n
    units = [Vector.unit(n, j) for j in range(n)]
    rows = []
    for i in range(n):
        block = [co_action(upsilon_action(space, Y, units[i]), W).values for Y in units]
        rows += sparse_rows_from_scalars(list(zip(*block)), W.d)
        kernel_terms = kernel_sparse(rows, n, W.d)
        if not kernel_terms:
            return []
    return [Vector.from_terms(terms, n) for terms in kernel_terms]


def random_weyl(p: int, q: int, seed: int, d: int = 2) -> WeylTensor:
    """Deterministic nonzero random combination of the basis with small
    integer coefficients in [-9, 9], not all zero; raises when the space is
    trivial.

    The basis is solved over Q, so the combination is summed on integer
    numerators over one common denominator, with one Scalar per nonzero
    orbit; an irrational basis value raises ArithmeticError."""
    from random import Random

    basis = weyl_space_basis(p, q, d)
    if basis.dimension == 0:
        raise ValueError(f"the Weyl space is trivial for signature ({p}, {q})")
    rng = Random(seed)
    while True:
        coeffs = [rng.randint(-9, 9) for _ in range(basis.dimension)]
        if any(coeffs):
            break
    used = [(coef, elt.terms) for coef, elt in zip(coeffs, basis.elements) if coef]
    den = lcm(*(x.q for _, terms in used for _, x in terms))
    acc = [0] * _orbit_count(p + q)
    for coef, terms in used:
        for u, x in terms:
            if x.b:
                raise ArithmeticError(f"the Weyl basis has the irrational value {x}")
            acc[u] += coef * x.a * (den // x.q)
    return WeylTensor._from_terms(p, q, [(u, Scalar(a, 0, den)) for u, a in enumerate(acc) if a], d)
