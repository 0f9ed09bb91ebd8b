"""Small dense exact linear algebra over Q(sqrt(d)).

Vectors and matrices are immutable dense containers of Scalar entries; the
heavy lifting (kernels, ranks, affine solution sets) goes through the sparse
row-echelon engine in confsym._core.  `kernel_sparse` is the one function that
turns the engine's reduced rows into solution vectors, each as its nonzero
terms: `kernel` makes them dense Vectors (`Vector.from_terms`), and
`solve_affine` reads the kernel of the augmented system [M | -rhs].  Kernel
and solution bases come out in the canonical reduced form determined by the
unique RREF, so equal subspaces produce identical bases.
"""

from __future__ import annotations

from math import lcm
from typing import Iterable, Sequence

from . import _core
from .scalars import ONE, ZERO, FieldMismatchError, Scalar, as_scalar


class Vector:
    """Dense vector of Scalars; also used for covectors (rows of length p+q)."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable):
        object.__setattr__(self, "entries", tuple(as_scalar(e) for e in entries))

    def __setattr__(self, name, value):
        raise AttributeError("Vector is immutable")

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i) -> Scalar:
        return self.entries[i]

    def __eq__(self, other):
        return isinstance(other, Vector) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __add__(self, other: Vector) -> Vector:
        _same_len(self, other)
        return Vector._of_scalars(x + y for x, y in zip(self.entries, other.entries))

    def __sub__(self, other: Vector) -> Vector:
        _same_len(self, other)
        return Vector._of_scalars(x - y for x, y in zip(self.entries, other.entries))

    def __neg__(self) -> Vector:
        return Vector._of_scalars(-x for x in self.entries)

    def scale(self, c) -> Vector:
        c = as_scalar(c)
        return Vector._of_scalars(c * x for x in self.entries)

    def dot(self, other: Vector) -> Scalar:
        _same_len(self, other)
        out = ZERO
        for x, y in zip(self.entries, other.entries):
            if x and y:
                out = out + x * y
        return out

    def is_zero(self) -> bool:
        return not any(self.entries)

    def __str__(self):
        return "(" + ", ".join(str(e) for e in self.entries) + ")"

    __repr__ = __str__

    @classmethod
    def zero(cls, n: int) -> Vector:
        return cls([0] * n)

    @classmethod
    def _of_scalars(cls, entries) -> Vector:
        """Wrap entries that are all Scalars already, skipping the coercion."""
        v = cls.__new__(cls)
        object.__setattr__(v, "entries", tuple(entries))
        return v

    @classmethod
    def from_terms(cls, terms, n: int, d: int) -> Vector:
        """The length-n vector with the (index, Scalar) `terms`, zero (tagged
        with d) elsewhere."""
        entries = [Scalar(0, 0, 1, d)] * n
        for i, x in terms:
            entries[i] = x
        return cls._of_scalars(entries)

    @classmethod
    def unit(cls, n: int, i: int) -> Vector:
        return cls._of_scalars(ONE if j == i else ZERO for j in range(n))


class Matrix:
    """Dense matrix of Scalars with fixed shape."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable]):
        self._set_rows(tuple(tuple(as_scalar(e) for e in row) for row in rows))

    def _set_rows(self, rows: tuple):
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged matrix")
        object.__setattr__(self, "rows", rows)

    @classmethod
    def _of_scalars(cls, rows) -> Matrix:
        """Wrap rows whose entries are all Scalars already, skipping the
        coercion."""
        M = cls.__new__(cls)
        M._set_rows(tuple(tuple(row) for row in rows))
        return M

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def __getitem__(self, ij) -> Scalar:
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __add__(self, other: Matrix) -> Matrix:
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")
        return Matrix._of_scalars(
            tuple(x + y for x, y in zip(r, s)) for r, s in zip(self.rows, other.rows)
        )

    def __sub__(self, other: Matrix) -> Matrix:
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")
        return Matrix._of_scalars(
            tuple(x - y for x, y in zip(r, s)) for r, s in zip(self.rows, other.rows)
        )

    def __neg__(self) -> Matrix:
        return Matrix._of_scalars(tuple(-x for x in r) for r in self.rows)

    def scale(self, c) -> Matrix:
        c = as_scalar(c)
        return Matrix._of_scalars(tuple(c * x for x in r) for r in self.rows)

    def __matmul__(self, other: Matrix) -> Matrix:
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        cols = other.ncols
        out = []
        for r in self.rows:
            orow = [ZERO] * cols
            for k, x in enumerate(r):
                if not x:
                    continue
                srow = other.rows[k]
                for j in range(cols):
                    y = srow[j]
                    if y:
                        orow[j] = orow[j] + x * y
            out.append(orow)
        return Matrix._of_scalars(out)

    def matvec(self, v: Vector) -> Vector:
        if self.ncols != len(v):
            raise ValueError(f"shape mismatch {self.shape} * {len(v)}")
        out = []
        for r in self.rows:
            s = ZERO
            for x, y in zip(r, v.entries):
                if x and y:
                    s = s + x * y
            out.append(s)
        return Vector._of_scalars(out)

    def transpose(self) -> Matrix:
        return Matrix._of_scalars(zip(*self.rows))

    def trace(self) -> Scalar:
        out = ZERO
        for i in range(min(self.nrows, self.ncols)):
            out = out + self.rows[i][i]
        return out

    def is_zero(self) -> bool:
        return all(not e for r in self.rows for e in r)

    def flatten(self) -> Vector:
        return Vector._of_scalars(e for r in self.rows for e in r)

    def __str__(self):
        return "[" + "; ".join(", ".join(str(e) for e in r) for r in self.rows) + "]"

    __repr__ = __str__

    @classmethod
    def identity(cls, n: int) -> Matrix:
        return cls._of_scalars(
            tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)
        )

    @classmethod
    def zero(cls, nrows: int, ncols: int) -> Matrix:
        return cls._of_scalars((ZERO,) * ncols for _ in range(nrows))

    @classmethod
    def from_columns(cls, cols: Sequence[Vector]) -> Matrix:
        return cls._of_scalars(zip(*[c.entries for c in cols]))

    @classmethod
    def outer(cls, u: Vector, v: Vector) -> Matrix:
        return cls._of_scalars(tuple(x * y for y in v.entries) for x in u.entries)


def _same_len(u: Vector, v: Vector):
    if len(u) != len(v):
        raise ValueError(f"length mismatch {len(u)} vs {len(v)}")


# -- bridges to the sparse exact engine -------------------------------------


def sparse_rows_from_scalars(rows: Iterable[Sequence[Scalar]], d: int):
    """Clear denominators row by row: Scalar rows -> Z[sqrt d] sparse rows.

    Raises FieldMismatchError on an irrational entry of another Q(sqrt d):
    the rows carry only numerators, so the field must be checked here."""
    out = []
    for row in rows:
        denom = 1
        for e in row:
            if e:
                if e.b and e.d != d:
                    raise FieldMismatchError(
                        f"entry {e} lies in Q(sqrt {e.d}), not in Q(sqrt {d})"
                    )
                denom = lcm(denom, e.q)
        cols = []
        vals = []
        for j, e in enumerate(row):
            if e:
                f = denom // e.q
                cols.append(j)
                vals.append(e.a * f)
                vals.append(e.b * f)
        if cols:
            out.append((cols, vals))
    return out


def _infer_d(entries: Iterable[Scalar], default: int = 2) -> int:
    for e in entries:
        if e.b != 0:
            return e.d
    return default


def kernel_sparse(rows, ncols: int, d: int) -> list[list[tuple[int, Scalar]]]:
    """Canonical kernel basis of a sparse Z[sqrt d] system, one vector per
    free column (unit at its free column, zero at the other free columns).
    Each vector is the list of its nonzero (column, Scalar) terms in column
    order; `Vector.from_terms` makes the dense Vector.

    Every fully reduced pivot row holds its pivot column (first, monic) and
    free columns only, all larger than the pivot, so one pass over the rows
    in pivot order appends each entry to the terms of its free column in
    column order, and the unit at the free column comes last."""
    pivots, reduced = _core.rref_sparse(rows, d)
    pivot_set = set(pivots)
    basis = {f: [] for f in range(ncols) if f not in pivot_set}
    for (cols, triples), pc in zip(reduced, pivots):
        for k in range(1, len(cols)):
            basis[cols[k]].append(
                (pc, Scalar(-triples[3 * k], -triples[3 * k + 1], triples[3 * k + 2], d))
            )
    one = Scalar(1, 0, 1, d)
    for f, terms in basis.items():
        terms.append((f, one))
    return list(basis.values())


def rank(M: Matrix) -> int:
    """Exact rank."""
    d = _infer_d(e for r in M.rows for e in r)
    pivots, _ = _core.rref_sparse(sparse_rows_from_scalars(M.rows, d), d)
    return len(pivots)


def kernel(M: Matrix) -> list[Vector]:
    """Exact basis of the null space {v : M v = 0}; empty when M is injective."""
    d = _infer_d(e for r in M.rows for e in r)
    n = M.ncols
    return [
        Vector.from_terms(terms, n, d)
        for terms in kernel_sparse(sparse_rows_from_scalars(M.rows, d), n, d)
    ]


class AffineSubspace:
    """Solution set base + span(directions) in R^ambient, or EMPTY.

    Directions are kept linearly independent and in the canonical reduced form
    produced by the elimination engine, so equal subspaces built along
    different routes still compare equal structurally; `__eq__` nevertheless
    tests geometric equality (mutual containment).
    """

    __slots__ = ("ambient", "base", "directions")

    def __init__(self, ambient: int, base: Vector | None, directions: Sequence[Vector] = ()):
        directions = tuple(directions)
        if base is None and directions:
            raise ValueError("empty subspace cannot carry directions")
        if base is not None and len(base) != ambient:
            raise ValueError("base point has wrong length")
        if any(len(v) != ambient for v in directions):
            raise ValueError("direction has wrong length")
        if directions:
            if rank(Matrix([v.entries for v in directions])) != len(directions):
                raise ValueError("directions are linearly dependent")
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "directions", directions)

    def __setattr__(self, name, value):
        raise AttributeError("AffineSubspace is immutable")

    @classmethod
    def empty(cls, ambient: int) -> AffineSubspace:
        return cls(ambient, None)

    @classmethod
    def point(cls, v: Vector) -> AffineSubspace:
        return cls(len(v), v)

    @classmethod
    def full(cls, ambient: int) -> AffineSubspace:
        return cls(
            ambient,
            Vector.zero(ambient),
            tuple(Vector.unit(ambient, i) for i in range(ambient)),
        )

    @property
    def is_empty(self) -> bool:
        return self.base is None

    @property
    def dim(self) -> int:
        if self.is_empty:
            raise ValueError("empty subspace has no dimension")
        return len(self.directions)

    def points(self):
        """Base point plus base+direction for each direction: a finite set
        whose affine hull is the whole subspace."""
        if self.is_empty:
            return []
        return [self.base] + [self.base + v for v in self.directions]

    def contains(self, v: Vector) -> bool:
        if self.is_empty:
            return False
        if len(v) != self.ambient:
            raise ValueError("point has wrong length")
        # Independent directions: v - base lies in their span iff adding it
        # leaves the rank at len(directions).
        rows = [w.entries for w in self.directions] + [(v - self.base).entries]
        return rank(Matrix._of_scalars(rows)) == len(self.directions)

    def __eq__(self, other):
        if not isinstance(other, AffineSubspace):
            return NotImplemented
        if self.ambient != other.ambient:
            return False
        if self.is_empty or other.is_empty:
            return self.is_empty and other.is_empty
        if self.dim != other.dim:
            return False
        return all(other.contains(p) for p in self.points())

    def __hash__(self):
        # Only what geometrically equal subspaces share: base points and
        # directions differ between descriptions of one subspace.
        return hash((self.ambient, None if self.is_empty else self.dim))

    def intersect(self, other: AffineSubspace) -> AffineSubspace:
        """Exact intersection."""
        if self.ambient != other.ambient:
            raise ValueError("ambient dimension mismatch")
        if self.is_empty or other.is_empty:
            return AffineSubspace.empty(self.ambient)
        k1 = len(self.directions)
        cols = list(self.directions) + [-v for v in other.directions]
        if not cols:
            if self.base == other.base:
                return AffineSubspace.point(self.base)
            return AffineSubspace.empty(self.ambient)
        sol = solve_affine(Matrix.from_columns(cols), other.base - self.base)
        if sol.is_empty:
            return AffineSubspace.empty(self.ambient)
        s0 = Vector(sol.base.entries[:k1])
        base = self.base + _lincomb(self.directions, s0, self.ambient)
        dirs = []
        for w in sol.directions:
            dirs.append(_lincomb(self.directions, Vector(w.entries[:k1]), self.ambient))
        return AffineSubspace(self.ambient, base, canonical_span(dirs))

    def __str__(self):
        if self.is_empty:
            return "EMPTY"
        return f"dim {self.dim}: base {self.base}" + (
            f", dirs {[str(v) for v in self.directions]}" if self.directions else ""
        )

    __repr__ = __str__


def _lincomb(vectors: Sequence[Vector], coeffs: Vector, ambient: int) -> Vector:
    out = Vector.zero(ambient)
    for v, c in zip(vectors, coeffs):
        if c:
            out = out + v.scale(c)
    return out


def canonical_span(vectors: Sequence[Vector]) -> list[Vector]:
    """Canonical independent basis of span(vectors) (RREF row basis)."""
    if not vectors:
        return []
    n = len(vectors[0])
    d = _infer_d(e for v in vectors for e in v)
    _, reduced = _core.rref_sparse(sparse_rows_from_scalars(vectors, d), d)
    zero = Scalar(0, 0, 1, d)
    out = []
    for cols, triples in reduced:
        entries = [zero] * n
        for k, c in enumerate(cols):
            entries[c] = Scalar(triples[3 * k], triples[3 * k + 1], triples[3 * k + 2], d)
        out.append(Vector._of_scalars(entries))
    return out


def solve_affine(M: Matrix, rhs: Vector) -> AffineSubspace:
    """Full exact solution set of M x = rhs as an AffineSubspace (EMPTY marker
    when the system is inconsistent), read off the canonical kernel of
    [M | -rhs].  Column n is free exactly when the system is consistent; it
    is then the last free column, so only the last kernel vector is nonzero
    there.  Its first n entries are the base point, and those of the others
    the directions."""
    if M.nrows != len(rhs):
        raise ValueError(f"rhs length {len(rhs)} does not match {M.nrows} rows")
    n = M.ncols
    if not M.rows:
        # No equations, and no row to carry column n: the point of R^0.
        return AffineSubspace.point(Vector(()))
    basis = kernel(Matrix._of_scalars(list(row) + [-b] for row, b in zip(M.rows, rhs.entries)))
    if not basis or not basis[-1][n]:
        return AffineSubspace.empty(n)
    return AffineSubspace(
        n,
        Vector._of_scalars(basis[-1].entries[:n]),
        [Vector._of_scalars(v.entries[:n]) for v in basis[:-1]],
    )
