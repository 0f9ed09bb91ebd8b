import random
import re
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confsym.linalg import (
    AffineSubspace,
    Matrix,
    Vector,
    canonical_span,
    kernel,
    kernel_sparse,
    rank,
    solve_affine,
    sparse_rows_from_scalars,
)
from confsym.scalars import FieldMismatchError, Scalar, one_field

from conftest import fraction_pair, rand_scalar, reference_rref


def rand_sparse_system(rng: random.Random, nrows: int, ncols: int):
    """Random sparse Z[sqrt 2] rows (cols, [a0, b0, ...]) with 1-3 entries
    each; some rows are integer multiples of earlier ones."""
    rows = []
    for _ in range(nrows):
        if rows and rng.random() < 0.25:
            cols, vals = rng.choice(rows)
            m = rng.choice((-2, -1, 3))
            rows.append((cols, [m * x for x in vals]))
            continue
        cols = sorted(rng.sample(range(ncols), rng.randint(1, min(3, ncols))))
        vals = []
        for _ in cols:
            a = b = 0
            while not (a or b):
                a, b = rng.randint(-3, 3), rng.randint(-2, 2)
            vals += [a, b]
        rows.append((cols, vals))
    return rows


def sparse_to_matrix(rows, ncols: int) -> Matrix:
    dense = []
    for cols, vals in rows:
        row = [Scalar(0)] * ncols
        for k, c in enumerate(cols):
            row[c] = Scalar(vals[2 * k], vals[2 * k + 1])
        dense.append(row)
    return Matrix(dense)


def rand_sparse_matrices(rng: random.Random, count: int) -> list[Matrix]:
    out = []
    for _ in range(count):
        ncols = rng.randint(1, 9)
        out.append(sparse_to_matrix(rand_sparse_system(rng, rng.randint(1, 8), ncols), ncols))
    return out


def naive_rank(M: Matrix) -> int:
    """Gaussian elimination on Scalars, independent of the sparse engine."""
    rows = [list(r) for r in M.rows]
    r = 0
    for c in range(M.ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, len(rows)):
            if rows[i][c]:
                f = rows[i][c] / rows[r][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def kernel_by_column_scan(rows, ncols: int, d: int) -> list[Vector]:
    """The former kernel_sparse: one rescan of every reduced row per free
    column.  Reference for the output order and form."""
    from confsym import _core

    pivots, reduced = _core.rref_sparse(rows, d, ncols)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        entries = [Scalar(0)] * ncols
        entries[f] = Scalar(1)
        for (cols, triples), pc in zip(reduced, pivots):
            for k, c in enumerate(cols):
                if c == f:
                    entries[pc] = -Scalar(
                        triples[3 * k], triples[3 * k + 1], triples[3 * k + 2], d
                    )
                    break
        basis.append(Vector(entries))
    return basis


def test_kernel_of_identity_is_trivial():
    assert kernel(Matrix.identity(3)) == []


def test_kernel_of_zero_matrix_is_everything():
    basis = kernel(Matrix.zero(2, 3))
    assert len(basis) == 3


def test_kernel_of_two_entry_row():
    # single condition z_1 + z_n = 0 in n unknowns: hand row-reduction leaves
    # n-1 free variables
    for n in (4, 5, 6):
        row = [1] + [0] * (n - 2) + [1]
        basis = kernel(Matrix([row]))
        assert len(basis) == n - 1
        for v in basis:
            assert v[0] + v[n - 1] == Scalar(0)


def test_rank_examples():
    assert rank(Matrix.identity(4)) == 4
    u = Vector([1, 2, -1])
    w = Vector([3, 0, 5, 7])
    assert rank(Matrix([[x * y for y in w] for x in u])) == 1


def test_entry_points_reject_mixed_fields():
    # sqrt 2 and sqrt 3 in one system: the rank is 2, but numerators read in
    # one field would give 1.
    M = Matrix([[Scalar.sqrt_d(2), 1], [Scalar.sqrt_d(3), 1]])
    with pytest.raises(FieldMismatchError):
        rank(M)
    with pytest.raises(FieldMismatchError):
        kernel(M)
    with pytest.raises(FieldMismatchError):
        solve_affine(M, Vector([0, 0]))
    with pytest.raises(FieldMismatchError):
        solve_affine(Matrix([[Scalar.sqrt_d(2), 1]]), Vector([Scalar.sqrt_d(3)]))
    # rational entries belong to every field
    assert rank(Matrix([[Scalar.sqrt_d(3), 1], [Scalar(1, 0, 2), 1]])) == 2


def reference_bridge(rows, d):
    """The former bridge: a pass for the denominator and the fields, then a
    second pass over every entry."""
    out = []
    fields = {d}
    for row in rows:
        denom = 1
        for e in row:
            if e:
                fields.add(e.d)
                denom = lcm(denom, e.q)
        cols = [j for j, e in enumerate(row) if e]
        vals = [x * (denom // row[j].q) for j in cols for x in (row[j].a, row[j].b)]
        if cols:
            out.append((cols, vals))
    one_field(fields)
    return out


_bridge_entries = st.one_of(
    st.just(Scalar(0)),
    st.builds(Scalar, st.integers(-5, 5), st.just(0), st.integers(1, 4)),
    st.builds(
        Scalar, st.integers(-5, 5), st.integers(-5, 5), st.integers(1, 4), st.sampled_from([2, 3, 5])
    ),
)


@given(
    st.lists(st.lists(_bridge_entries, min_size=3, max_size=3), max_size=5),
    st.sampled_from([0, 2, 3]),
)
@settings(max_examples=200, deadline=None)
def test_bridge_matches_the_former_two_pass_bridge(rows, d):
    """The same rows, or the same FieldMismatchError message."""
    try:
        want = reference_bridge(rows, d)
    except FieldMismatchError as exc:
        with pytest.raises(FieldMismatchError, match=f"^{re.escape(str(exc))}$"):
            sparse_rows_from_scalars(rows, d)
        return
    assert sparse_rows_from_scalars(rows, d) == want


def test_kernel_of_a_rational_system_is_rational():
    """Rationals built with d = 3 carry no field, so neither does their
    kernel: no d is guessed for a system without irrational entries."""
    ker = kernel(Matrix([[Scalar(1, 0, 1, 3)] * 2]))
    assert [[(e.a, e.b, e.q, e.d) for e in v] for v in ker] == [[(-1, 0, 1, 0), (1, 0, 1, 0)]]
    span = canonical_span([Vector([Scalar(2, 0, 1, 3), Scalar(4, 0, 1, 5)])])
    assert [[(e.a, e.b, e.q, e.d) for e in v] for v in span] == [[(1, 0, 1, 0), (2, 0, 1, 0)]]


def test_solve_affine_hyperplane():
    n = 5
    M = Matrix([[1] + [0] * (n - 2) + [1]])
    sol = solve_affine(M, Vector([-1]))
    assert not sol.is_empty and sol.dim == n - 1
    assert sol.base[0] + sol.base[n - 1] == Scalar(-1)
    for v in sol.points():
        assert M.matvec(v) == Vector([-1])


def test_solve_affine_unique_point():
    sol = solve_affine(Matrix.identity(3), Vector([0, 0, 0]))
    assert sol.dim == 0 and sol.base == Vector.zero(3)
    # No equations in no unknowns: the one point of R^0.
    assert solve_affine(Matrix(()), Vector(())) == AffineSubspace.point(Vector(()))


def test_solve_affine_inconsistent():
    assert solve_affine(Matrix([[0]]), Vector([1])).is_empty


def test_rank_nullity(rng):
    dense = []
    for _ in range(25):
        nrows = rng.randint(1, 5)
        ncols = rng.randint(1, 5)
        dense.append(
            Matrix([[rand_scalar(rng, 4) for _ in range(ncols)] for _ in range(nrows)])
        )
    for M in dense + rand_sparse_matrices(rng, 25):
        ker = kernel(M)
        assert rank(M) + len(ker) == M.ncols
        for v in ker:
            assert M.matvec(v).is_zero()


def rand_field_rows(rng: random.Random, d: int, nrows: int, ncols: int) -> list:
    """Random dense rows over Q(sqrt d), about a third of the entries zero."""

    def entry():
        if rng.random() < 0.3:
            return Scalar(0, 0, 1, d)
        return Scalar(rng.randint(-3, 3), rng.randint(-2, 2), rng.randint(1, 3), d)

    return [[entry() for _ in range(ncols)] for _ in range(nrows)]


def reference_solution(M: Matrix, rhs: Vector, d: int):
    """None for an inconsistent system, else (base, directions) as Fraction
    pairs, read off the dense reference RREF of [M | -rhs] in the canonical
    order: the base point is 0 at every free column, and each direction is 1
    at its own free column and 0 at the others."""
    n = M.ncols
    neg = lambda e: (-e[0], -e[1])
    dense = [
        [fraction_pair(e) for e in row] + [neg(fraction_pair(b))]
        for row, b in zip(M.rows, rhs)
    ]
    pivots, rows = reference_rref(dense, n + 1, d)
    if n in pivots:
        return None
    zero, one = (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))
    base = [zero] * n
    for pc, row in zip(pivots, rows):
        base[pc] = neg(row[n])
    directions = []
    for f in range(n):
        if f in pivots:
            continue
        entries = [zero] * n
        entries[f] = one
        for pc, row in zip(pivots, rows):
            entries[pc] = neg(row[f])
        directions.append(entries)
    return base, directions


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_solution_set_is_exact(seed):
    rng = random.Random(seed)
    d = rng.choice((2, 3, 5))
    n = rng.randint(1, 4)
    aug = rand_field_rows(rng, d, rng.randint(1, 4), n + 1)
    # Multiples of earlier rows make the system rank-deficient; a shifted
    # right-hand side on one of them makes it inconsistent.
    for _ in range(rng.randint(0, 2)):
        c = Scalar(rng.choice((-2, -1, 3)), rng.randint(0, 1), rng.randint(1, 2), d)
        row = [c * e for e in rng.choice(aug)]
        if rng.random() < 0.3:
            row[n] = row[n] + Scalar(1, 0, 1, d)
        aug.insert(rng.randint(0, len(aug)), row)
    M = Matrix([row[:n] for row in aug])
    rhs = Vector(row[n] for row in aug)
    sol = solve_affine(M, rhs)
    ref = reference_solution(M, rhs, d)
    assert sol.is_empty == (ref is None)
    if ref is None:
        return
    base, directions = ref
    assert [fraction_pair(e) for e in sol.base] == base
    assert [[fraction_pair(e) for e in v] for v in sol.directions] == directions
    for v in sol.points():
        assert M.matvec(v) == rhs


def test_kernel_basis_is_canonical_reduced(rng):
    # each kernel vector carries a 1 at its own free column and 0 at the others
    for M in [Matrix([[1, 2, 3, 4], [0, 0, 1, 1]])] + rand_sparse_matrices(rng, 25):
        ker = kernel(M)
        free_cols = []
        for v in ker:
            units = [i for i, e in enumerate(v) if e == Scalar(1)]
            assert units
            free_cols.append(units[-1])
        assert len(set(free_cols)) == len(ker)
        for v, f in zip(ker, free_cols):
            for w, g in zip(ker, free_cols):
                if f != g:
                    assert w[f] == Scalar(0)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_kernel_sparse_on_random_sparse_systems(seed):
    rng = random.Random(seed)
    ncols = rng.randint(1, 12)
    rows = rand_sparse_system(rng, rng.randint(1, 10), ncols)
    M = sparse_to_matrix(rows, ncols)
    sparse = kernel_sparse(rows, ncols, 2)
    # each vector is its nonzero terms, in strictly increasing column order
    for terms in sparse:
        assert all(x for _, x in terms)
        assert [c for c, _ in terms] == sorted({c for c, _ in terms})
    ker = [Vector.from_terms(terms, ncols) for terms in sparse]
    for v in ker:
        assert M.matvec(v).is_zero()
    assert len(ker) == ncols - naive_rank(M)
    # the last nonzero entry of each vector is a 1 at its own free column
    free = []
    for v in ker:
        f = max(i for i, e in enumerate(v) if e)
        assert v[f] == Scalar(1)
        free.append(f)
    assert free == sorted(set(free))
    for v, f in zip(ker, free):
        assert all(not v[g] for g in free if g != f)
    # same vectors, entries and field tags as the per-column scan
    form = lambda vs: [[(e.a, e.b, e.q, e.d) for e in v] for v in vs]
    assert form(ker) == form(kernel_by_column_scan(rows, ncols, 2))


def test_affine_subspace_equality_is_geometric():
    # same plane described by different bases
    a = AffineSubspace(3, Vector([1, 0, 0]), [Vector([0, 1, 0]), Vector([0, 0, 1])])
    b = AffineSubspace(
        3, Vector([1, 2, 3]), [Vector([0, 1, 1]), Vector([0, 1, -1])]
    )
    assert a == b
    c = AffineSubspace(3, Vector([0, 0, 0]), [Vector([0, 1, 0]), Vector([0, 0, 1])])
    assert a != c
    assert AffineSubspace.empty(3) == AffineSubspace.empty(3)
    assert AffineSubspace.empty(3) != a


def test_equal_affine_subspaces_hash_equal():
    a = AffineSubspace(3, Vector([1, 0, 0]), [Vector([0, 1, 0])])
    b = AffineSubspace(3, Vector([1, 5, 0]), [Vector([0, -2, 0])])
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert len({AffineSubspace.empty(3), AffineSubspace.empty(3)}) == 1


def test_affine_subspace_rejects_dependent_directions():
    with pytest.raises(ValueError):
        AffineSubspace(3, Vector.zero(3), [Vector([1, 1, 0]), Vector([2, 2, 0])])


def test_intersection_of_hyperplanes():
    h1 = solve_affine(Matrix([[1, 0, 1]]), Vector([0]))
    h2 = solve_affine(Matrix([[0, 1, 1]]), Vector([0]))
    line = h1.intersect(h2)
    assert line.dim == 1
    both = Matrix([[1, 0, 1], [0, 1, 1]])
    assert line == solve_affine(both, Vector([0, 0]))


def test_intersection_of_parallel_hyperplanes_is_empty():
    h1 = solve_affine(Matrix([[1, 0, 1]]), Vector([0]))
    h2 = solve_affine(Matrix([[1, 0, 1]]), Vector([-2]))
    assert h1.intersect(h2).is_empty


def test_intersection_with_point():
    h = solve_affine(Matrix([[1, 1, 1]]), Vector([3]))
    p = AffineSubspace.point(Vector([1, 1, 1]))
    assert h.intersect(p) == p
    assert p.intersect(h) == p
    outside = AffineSubspace.point(Vector([1, 1, 0]))
    assert h.intersect(outside).is_empty
    assert outside.intersect(h).is_empty


def test_full_space():
    full = AffineSubspace.full(3)
    assert full.dim == 3
    assert full.contains(Vector(["1*r", "-5", "1/3"]))


def test_canonical_span_removes_dependence(rng):
    vs = [Vector([1, 1, 0]), Vector([2, 2, 0]), Vector([0, 0, 1])]
    basis = canonical_span(vs)
    assert len(basis) == 2
    assert canonical_span(basis) == basis
    # The nonzero rows of the dense reference RREF, in order, with zero and
    # dependent vectors among the input.
    for _ in range(40):
        d = rng.choice((2, 3, 5))
        n = rng.randint(1, 5)
        rows = rand_field_rows(rng, d, rng.randint(1, 4), n)
        rows.append([Scalar(0, 0, 1, d)] * n)
        rows.append([Scalar(-3, 1, 2, d) * e for e in rows[0]])
        vectors = [Vector(row) for row in rows]
        rng.shuffle(vectors)
        _, ref = reference_rref([[fraction_pair(e) for e in v] for v in vectors], n, d)
        assert [[fraction_pair(e) for e in v] for v in canonical_span(vectors)] == ref
