import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confsym.flatmodel import MAX_DIMENSION, MobiusSpace
from confsym.liealg import (
    CoElement,
    StructureAlgebra,
    algebra_condition,
    bracket,
    degrade,
    exp_nilpotent,
    graded_dim,
    killing_form,
    realize,
    so_block_condition,
    so_table,
    upsilon_action,
    upsilon_bracket_constant,
)
from confsym.linalg import Matrix, Vector, rank
from confsym.scalars import FieldMismatchError, Scalar

from conftest import (
    dense_table,
    heisenberg_pair,
    pure_x,
    pure_z,
    rand_covector,
    rand_scalar,
    rand_so_matrix,
    rand_vector,
    reference_ad_s0,
    reference_commutator,
    reference_antisymmetry_failure,
    reference_jacobi_failure,
    reference_realize,
    reference_so_block_condition,
    rescaled_so_brackets,
    so_basis,
    so_k_pair,
    sparse_brackets,
    structure_constants_from_matrices,
)


def rand_graded(space, rng):
    """Random graded coordinates: a and A_(i<j) small integers, X and Z over
    Q(sqrt 2)."""
    n = space.n
    return Vector(
        [Scalar(rng.randint(-5, 5))]
        + list(rand_vector(rng, n, 5))
        + [Scalar(rng.randint(-5, 5)) for _ in range(n * (n - 1) // 2)]
        + list(rand_covector(rng, n, 5))
    )


def test_zero_round_trip(space21):
    z = Vector.zero(graded_dim(space21))
    assert realize(space21, z).is_zero()
    assert degrade(space21, Matrix.zero(5, 5)) == z


def test_pure_x_block_placement(space21):
    M = realize(space21, pure_x(space21, Vector.unit(3, 0)))
    assert M[1, 0] == Scalar(1)
    # bottom row is -X^T J
    assert M[4, 1] == Scalar(-1)
    assert all(M[0, j] == Scalar(0) for j in range(5))


def test_realize_degrade_round_trip(space21, rng):
    for _ in range(100):
        e = rand_graded(space21, rng)
        assert degrade(space21, realize(space21, e)) == e


def test_realized_matrices_satisfy_the_algebra_condition(space21, rng):
    m = space21.form.matrix
    for _ in range(20):
        M = realize(space21, rand_graded(space21, rng))
        assert (M.transpose() @ m + m @ M).is_zero()


def test_degrade_rejects_outside_matrices(space21):
    with pytest.raises(ValueError):
        degrade(space21, Matrix.identity(5))


def test_bracket_antisymmetry_and_grading(space21, rng):
    e = rand_graded(space21, rng)
    assert bracket(space21, e, e).is_zero()
    x = pure_x(space21, rand_vector(rng, 3, 4))
    z = pure_z(space21, rand_covector(rng, 3, 4))
    b = bracket(space21, x, z)
    # only the degree-0 coordinates a and A_(i<j) survive
    assert not any(b.entries[1:4]) and not any(b.entries[-3:])


def test_jacobi_identity_via_matrices(space21, rng):
    for _ in range(100):
        a, b, c = (rand_graded(space21, rng) for _ in range(3))
        total = (
            bracket(space21, a, bracket(space21, b, c))
            + bracket(space21, b, bracket(space21, c, a))
            + bracket(space21, c, bracket(space21, a, b))
        )
        assert total.is_zero()


def test_realize_is_bracket_compatible(space21, rng):
    for _ in range(20):
        e1 = rand_graded(space21, rng)
        e2 = rand_graded(space21, rng)
        lhs = realize(space21, bracket(space21, e1, e2))
        m1, m2 = realize(space21, e1), realize(space21, e2)
        assert lhs == m1 @ m2 - m2 @ m1


def test_upsilon_vanishes_only_with_its_arguments(space21, rng):
    n = 3
    for _ in range(10):
        xi = rand_vector(rng, n)
        assert upsilon_action(space21, Vector.zero(n), xi).is_zero()
        Y = rand_covector(rng, n)
        assert upsilon_action(space21, Y, Vector.zero(n)).is_zero()


def test_upsilon_worked_value(space21):
    # Y = e^1, xi = e_1: the endomorphism sends e_1 to 2 e_1 - J(e_1,e_1) J^{-1} e^1 = e_1
    co = upsilon_action(space21, Vector.unit(3, 0), Vector.unit(3, 0))
    assert co.a == Scalar(1)
    assert co.endomorphism().matvec(Vector.unit(3, 0)) == Vector.unit(3, 0)


def test_upsilon_is_bilinear(space21, rng):
    n = 3
    for _ in range(10):
        y1, y2 = rand_covector(rng, n), rand_covector(rng, n)
        xi = rand_vector(rng, n)
        c = Scalar(rng.randint(-4, 4))
        lhs = upsilon_action(space21, y1 + y2.scale(c), xi)
        rhs = upsilon_action(space21, y1, xi) + upsilon_action(space21, y2, xi).scale(c)
        assert lhs.a == rhs.a and lhs.A == rhs.A


def test_upsilon_injective_in_y(space21):
    # stack the images over a basis of directions: full column rank in Y
    n = 3
    cols = []
    for j in range(n):
        Y = Vector.unit(n, j)
        stacked = []
        for i in range(n):
            co = upsilon_action(space21, Y, Vector.unit(n, i))
            stacked.extend(sum(co.endomorphism().rows, ()))
        cols.append(Vector(stacked))
    assert rank(Matrix.from_columns(cols)) == n


@pytest.mark.parametrize("pq", [(3, 0), (2, 1), (2, 2), (3, 1), (1, 3), (4, 1)])
def test_so_block_condition_agrees_with_the_matrix_form(pq, rng):
    """The entrywise check against A^T J + J A = 0, on elements of so(p, q),
    on elements with one entry or one mirrored pair bent (across and within
    the J blocks), and on random matrices."""
    space = MobiusSpace(*pq)
    n = space.n
    for _ in range(15):
        A = rand_so_matrix(space, rng)
        assert so_block_condition(space, A) and reference_so_block_condition(space, A)
        rows = [list(row) for row in A.rows]
        r, m = rng.randrange(n), rng.randrange(n)
        c = rand_scalar(rng, 3) or Scalar(1)
        rows[r][m] = rows[r][m] + c
        if rng.random() < 0.5:
            # bend the mirrored entry by the same amount: a sign error of J
            rows[m][r] = rows[m][r] + c
        bent = Matrix(rows)
        assert so_block_condition(space, bent) == reference_so_block_condition(space, bent)
        dense = Matrix([[rand_scalar(rng, 2) for _ in range(n)] for _ in range(n)])
        assert so_block_condition(space, dense) == reference_so_block_condition(space, dense)


def test_so_block_condition_rejects_the_wrong_size(space21):
    assert not so_block_condition(space21, Matrix.zero(4, 4))


def _assert_upsilon_formula(space, Y, xi):
    """upsilon_action against F = Y(xi) I + xi (x) Y - (JY) (x) (J xi) built
    from matrices, split into a = trace / n and A = F - a I (Scalar equality
    compares the field tags too)."""
    n = space.n
    J = Matrix(r[1:-1] for r in space.form.matrix.rows[1:-1])
    JY, Jxi = J.matvec(Y), J.matvec(xi)
    F = Matrix.identity(n).scale(Y.dot(xi)) + Matrix([[x * y for y in Y] for x in xi])
    F = F - Matrix([[x * y for y in Jxi] for x in JY])
    a = F.trace() * Scalar(1, 0, n)
    got = upsilon_action(space, Y, xi)
    assert got.a == a and got.A == F - Matrix.identity(n).scale(a)
    assert all(type(x) is Scalar for row in got.A.rows for x in row)


@pytest.mark.parametrize("pq", [(2, 1), (3, 1), (2, 2)])
def test_upsilon_matches_the_matrix_formula(pq, rng):
    space = MobiusSpace(*pq)
    n = space.n
    for _ in range(10):
        _assert_upsilon_formula(space, rand_covector(rng, n, 4), rand_vector(rng, n, 4))


@pytest.mark.parametrize("pq", [(4, 0), (5, 0), (3, 3)])
def test_upsilon_matches_the_matrix_formula_on_unit_pairs(pq):
    """Every (Y, xi) = (e_j, e_i), the pairs `prolongation` builds."""
    space = MobiusSpace(*pq)
    n = space.n
    for j in range(n):
        for i in range(n):
            _assert_upsilon_formula(space, Vector.unit(n, j), Vector.unit(n, i))


@pytest.mark.parametrize("pq", [(2, 1), (4, 0), (3, 3)])
def test_upsilon_matches_the_matrix_formula_on_sparse_irrational_pairs(pq, rng):
    """Y and xi over Q(sqrt 3) with one to three nonzero entries each, on
    shared and on disjoint supports."""
    space = MobiusSpace(*pq, d=3)
    n = space.n

    def sparse():
        entries = [Scalar(0)] * n
        for k in rng.sample(range(n), rng.randint(1, 3)):
            entries[k] = Scalar(rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(1, 3), 3)
        return Vector(entries)

    for _ in range(30):
        _assert_upsilon_formula(space, sparse(), sparse())


@pytest.mark.parametrize("pq", [(3, 0), (2, 1), (2, 2)])
def test_upsilon_bracket_constant_consistent(pq):
    space = MobiusSpace(*pq)
    c = upsilon_bracket_constant(space)
    assert c == Scalar(1)


def test_upsilon_bracket_constant_scales_both_sides(space21, rng):
    xi = rand_vector(rng, 3, 4)
    Y = rand_covector(rng, 3, 4)
    c = upsilon_bracket_constant(space21)
    b = bracket(space21, pure_x(space21, xi), pure_z(space21, Y.scale(2)))
    # the degree-0 part (a, A) acts on the g_{-1} block as X -> (A - a) X
    M = reference_realize(space21, b)
    via_bracket = CoElement(-b[0], Matrix(M.rows[i][1:4] for i in range(1, 4)))
    doubled = upsilon_action(space21, Y.scale(2), xi)
    assert via_bracket.a == c * doubled.a and via_bracket.A == doubled.A.scale(c)


def test_exp_nilpotent(space21, rng):
    assert exp_nilpotent(space21, Vector.zero(3)) == Matrix.identity(5)
    m = space21.form.matrix
    for _ in range(10):
        Y = rand_covector(rng, 3, 4)
        E = exp_nilpotent(space21, Y)
        assert E.transpose() @ m @ E == m
        assert E @ exp_nilpotent(space21, -Y) == Matrix.identity(5)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("pq", [(2, 1), (3, 1), (2, 2), (4, 0), (6, 6), (12, 0)])
def test_exp_nilpotent_is_the_dense_series(pq, d, rng):
    """The closed form equals I + N + N^2 / 2 for N realized densely by the
    reference, where N^3 = 0."""
    space = MobiusSpace(*pq, d)
    size = space.ambient
    for Y in [Vector.zero(space.n)] + [rand_covector(rng, space.n, d=d) for _ in range(3)]:
        N = reference_realize(space, pure_z(space, Y))
        N2 = N @ N
        assert (N2 @ N).is_zero()
        assert exp_nilpotent(space, Y) == Matrix.identity(size) + N + N2.scale(Scalar(1, 0, 2))


def test_exp_nilpotent_multiplies_no_matrices(monkeypatch, rng):
    calls = []
    matmul = Matrix.__matmul__

    def counted(a, b):
        calls.append((a.shape, b.shape))
        return matmul(a, b)

    monkeypatch.setattr(Matrix, "__matmul__", counted)
    space = MobiusSpace(3, 1)
    exp_nilpotent(space, rand_covector(rng, space.n))
    assert calls == []
    Matrix.identity(2) @ Matrix.identity(2)
    assert calls == [((2, 2), (2, 2))]


@pytest.mark.parametrize("length", [0, 3, 5])
def test_exp_nilpotent_refuses_a_covector_of_the_wrong_length(length):
    with pytest.raises(ValueError, match="^covector must have length 4$"):
        exp_nilpotent(MobiusSpace(3, 1), Vector.zero(length))


def test_ad_s0_blockwise(space21, rng):
    e = rand_graded(space21, rng)
    conj = degrade(space21, reference_ad_s0(space21, realize(space21, e)))
    # +1 on a and A_(i<j) (coordinates 0 and 4..6), -1 on X and Z
    signs = [1, -1, -1, -1, 1, 1, 1, -1, -1, -1]
    assert conj == Vector(x if s > 0 else -x for x, s in zip(e, signs))
    M = realize(space21, e)
    assert reference_ad_s0(space21, reference_ad_s0(space21, M)) == M


def abelian(dim):
    return StructureAlgebra(dim, {})


def so3_algebra():
    # [b1, b2] = b3, [b2, b3] = b1, [b3, b1] = b2
    def v(*e):
        return Vector(list(e))

    z = v(0, 0, 0)
    table = [[z, v(0, 0, 1), v(0, -1, 0)], [v(0, 0, -1), z, v(1, 0, 0)], [v(0, 1, 0), v(-1, 0, 0), z]]
    return StructureAlgebra(3, sparse_brackets(table))


def test_killing_form_of_abelian_is_zero(rng):
    alg = abelian(4)
    for _ in range(5):
        x = rand_vector(rng, 4, 3)
        y = rand_vector(rng, 4, 3)
        assert killing_form(alg, x, y) == Scalar(0)


def test_killing_form_symmetry(rng):
    alg = so3_algebra()
    for _ in range(100):
        x = rand_vector(rng, 3, 4)
        y = rand_vector(rng, 3, 4)
        assert killing_form(alg, x, y) == killing_form(alg, y, x)


def test_killing_form_ad_invariance(rng):
    alg = so3_algebra()
    for _ in range(25):
        x, y, z = (rand_vector(rng, 3, 3) for _ in range(3))
        lhs = killing_form(alg, alg.bracket(z, x), y)
        rhs = killing_form(alg, x, alg.bracket(z, y))
        assert lhs + rhs == Scalar(0)


def test_killing_form_proportional_to_trace_form(space21):
    mats = so_basis(space21)
    alg = structure_constants_from_matrices(mats)
    ratio = None
    for i in range(alg.dim):
        for j in range(alg.dim):
            B = killing_form(alg, Vector.unit(alg.dim, i), Vector.unit(alg.dim, j))
            T = (mats[i] @ mats[j]).trace()
            if not T:
                assert not B
                continue
            r = B / T
            if ratio is None:
                ratio = r
            assert r == ratio
    # for so(N) the Killing form is (N - 2) times the trace form
    assert ratio == Scalar(space21.ambient - 2)


def test_structure_algebra_validation():
    def v(*e):
        return Vector(list(e))

    z = v(0, 0, 0)
    # [b1,b2] = b3, [b2,b3] = b1, [b3,b1] = b3: the cyclic sum leaves b1 over
    table = [
        [z, v(0, 0, 1), v(0, 0, -1)],
        [v(0, 0, -1), z, v(1, 0, 0)],
        [v(0, 0, 1), v(-1, 0, 0), z],
    ]
    with pytest.raises(ValueError, match="Jacobi"):
        StructureAlgebra(3, sparse_brackets(table))


def test_so_basis_is_a_basis(space21):
    basis = so_basis(space21)
    assert len(basis) == graded_dim(space21) == 10
    assert all(algebra_condition(space21, M) for M in basis)
    assert rank(Matrix([sum(M.rows, ()) for M in basis])) == len(basis)


def _entry_strings(M):
    return [str(x) for row in M.rows for x in row]


@st.composite
def _graded_coords(draw, count=1):
    """A space of one of four signatures over Q(sqrt 2) or Q(sqrt 3) and
    `count` coordinate vectors in it, rational or irrational."""
    p, q = draw(st.sampled_from([(2, 1), (3, 1), (2, 2), (4, 0)]))
    d = draw(st.sampled_from([2, 3]))
    space = MobiusSpace(p, q, d)
    radical = st.integers(-2, 2) if draw(st.booleans()) else st.just(0)
    entry = st.one_of(
        st.just(Scalar(0)),
        st.builds(Scalar, st.integers(-4, 4), radical, st.integers(1, 3), st.just(d)),
    )
    dim = graded_dim(space)
    vectors = [Vector(draw(st.lists(entry, min_size=dim, max_size=dim))) for _ in range(count)]
    return (space, *vectors)


# -- realize and degrade against the hand-written block layout ---------------


@given(_graded_coords())
@settings(max_examples=150, deadline=None)
def test_realize_matches_the_reference_layout(case):
    space, coords = case
    got = realize(space, coords)
    want = reference_realize(space, coords)
    assert got == want
    assert _entry_strings(got) == _entry_strings(want)
    assert degrade(space, want) == coords


# -- the integer table of so(p+1, q+1) against the matrix commutator --------


@pytest.mark.parametrize("pq", [(2, 1), (3, 0), (3, 1), (2, 2), (4, 0), (4, 1), (3, 2)])
def test_so_table_matches_the_matrix_structure_constants(pq):
    space = MobiusSpace(*pq)
    ref = structure_constants_from_matrices(so_basis(space))
    table = so_table(*pq)
    assert len(table) == ref.dim == graded_dim(space)
    for i in range(ref.dim):
        assert all(type(c) is int for terms in table[i].values() for _, c in terms)
        # Scalar equality takes ints: each int must equal its reference Scalar.
        want = {j: list(terms) for j, terms in ref.row(i).items()}
        assert {j: list(terms) for j, terms in table[i].items()} == want


@given(_graded_coords(count=2))
@settings(max_examples=100, deadline=None)
def test_bracket_matches_the_matrix_commutator(case):
    space, x, y = case
    got = reference_realize(space, bracket(space, x, y))
    want = reference_commutator(space, x, y)
    assert got == want
    assert _entry_strings(got) == _entry_strings(want)


# -- the sparse structure table against the former dense loops ---------------


def reference_dense_bracket(dim, table, x, y):
    """The former dense bracket: sum of c[i][j] scaled by x_i y_j."""
    out = Vector.zero(dim)
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, yj in enumerate(y):
            if not yj:
                continue
            cij = table[i][j]
            if not cij.is_zero():
                out = out + cij.scale(xi * yj)
    return out


_TABLE_ENTRY = st.one_of(
    st.just(Scalar(0)),
    st.builds(Scalar, st.integers(-2, 2)),
    st.builds(Scalar, st.integers(-2, 2), st.integers(-1, 1), st.integers(1, 2)),
)


@st.composite
def _antisymmetric_tables(draw):
    """Antisymmetric tables with about two thirds of the brackets nonzero;
    about half of them violate Jacobi (no table of dimension 2 does)."""
    dim = draw(st.integers(2, 5))
    table = [[Vector.zero(dim) for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            if draw(st.integers(0, 2)) != 0:
                v = Vector(draw(st.lists(_TABLE_ENTRY, min_size=dim, max_size=dim)))
                table[i][j] = v
                table[j][i] = -v
    return dim, table


def _coordinate_vectors(dim):
    return st.lists(_TABLE_ENTRY, min_size=dim, max_size=dim).map(Vector)


@given(_antisymmetric_tables(), st.data())
@settings(max_examples=200, deadline=None)
def test_sparse_jacobi_and_bracket_match_the_dense_reference(case, data):
    dim, table = case
    failure = reference_jacobi_failure(dim, sparse_brackets(table))
    if failure is not None:
        with pytest.raises(ValueError) as info:
            StructureAlgebra(dim, sparse_brackets(table))
        assert str(info.value) == f"Jacobi identity fails at {failure}"
        return
    alg = StructureAlgebra(dim, sparse_brackets(table))
    for _ in range(3):
        x = data.draw(_coordinate_vectors(dim))
        y = data.draw(_coordinate_vectors(dim))
        got = alg.bracket(x, y)
        want = reference_dense_bracket(dim, table, x, y)
        assert got == want and [str(e) for e in got] == [str(e) for e in want]


def _field_values(d):
    """Rational and irrational nonzero constants of Q(sqrt d)."""
    pairs = ((1, 0, 1), (-2, 0, 1), (1, 0, 3), (0, 1, 1), (1, -1, 1), (-3, 1, 2))
    return [Scalar(a, b, q, d) for a, b, q in pairs]


@given(
    pq=st.sampled_from([(2, 1), (3, 1), (2, 2)]),
    d=st.sampled_from([2, 3]),
    rescaled=st.booleans(),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_jacobi_check_names_the_reference_triple(pq, d, rescaled, data):
    """One entry of the i < j half of so(p+1, q+1), on its own basis or on
    an irrationally rescaled one, shifted by a rational or irrational
    constant: the one-pass check names the triple that the cyclic sum over
    every i < j < k names first."""
    values = _field_values(d)
    dim = len(so_table(*pq))
    scales = [data.draw(st.sampled_from(values)) if rescaled else 1 for _ in range(dim)]
    brackets = rescaled_so_brackets(*pq, scales)
    i = data.draw(st.integers(0, dim - 2))
    j = data.draw(st.integers(i + 1, dim - 1))
    k = data.draw(st.integers(0, dim - 1))
    terms = dict(brackets.get((i, j), ()))
    terms[k] = terms.get(k, 0) + data.draw(st.sampled_from(values))
    brackets[i, j] = sorted((m, e) for m, e in terms.items() if e)
    failure = reference_jacobi_failure(dim, brackets)
    if failure is None:
        StructureAlgebra(dim, brackets)
    else:
        with pytest.raises(ValueError) as info:
            StructureAlgebra(dim, brackets)
        assert str(info.value) == f"Jacobi identity fails at {failure}"


@pytest.mark.parametrize("which", ["so3", "so4", "heisenberg", "so21"])
def test_sparse_bracket_matches_the_dense_reference_on_known_algebras(which, rng):
    if which == "so3":
        alg = so3_algebra()
    elif which == "so4":
        alg = so_k_pair(4, 2)[0]
    elif which == "heisenberg":
        alg = heisenberg_pair()[0]
    else:
        alg = structure_constants_from_matrices(so_basis(MobiusSpace(2, 1)))
    for _ in range(20):
        x = rand_vector(rng, alg.dim, 3)
        y = rand_vector(rng, alg.dim, 3)
        assert alg.bracket(x, y) == reference_dense_bracket(alg.dim, dense_table(alg), x, y)


def test_jacobi_refuses_irrational_coefficients_of_two_fields():
    r2, r3 = Scalar(0, 1, 1, 2), Scalar(0, 1, 1, 3)
    brackets = {(0, 1): [(2, r2)], (0, 2): [(1, r3)]}
    with pytest.raises(FieldMismatchError):
        StructureAlgebra(3, brackets)
    # a rational coefficient tagged d = 3 mixes with Q(sqrt 2)
    brackets[0, 2] = [(1, Scalar(1, 0, 1, 3))]
    alg = StructureAlgebra(3, brackets)
    assert alg.row(0) == {1: ((2, r2),), 2: ((1, Scalar(1)),)}


@pytest.mark.parametrize(
    "brackets, message",
    [
        ({(2, 0): [(1, 1)]}, "bracket index (2, 0) needs 0 <= i < j < 3"),
        ({(1, 1): [(0, 1)]}, "bracket index (1, 1) needs 0 <= i < j < 3"),
        ({(0, 3): [(1, 1)]}, "bracket index (0, 3) needs 0 <= i < j < 3"),
        ({(3, 4): []}, "bracket index (3, 4) needs 0 <= i < j < 3"),
        ({(-1, 2): [(0, 1)]}, "bracket index (-1, 2) needs 0 <= i < j < 3"),
        ({(0, 1): [(3, 1)]}, "bracket (0, 1) needs indices 0 <= k < 3 in increasing order"),
        ({(0, 1): [(-1, 1)]}, "bracket (0, 1) needs indices 0 <= k < 3 in increasing order"),
        ({(0, 1): [(2, 1), (1, 1)]}, "bracket (0, 1) needs indices 0 <= k < 3 in increasing order"),
        ({(0, 1): [(2, 1), (2, 1)]}, "bracket (0, 1) needs indices 0 <= k < 3 in increasing order"),
    ],
)
def test_constructor_takes_only_the_i_lt_j_half(brackets, message):
    with pytest.raises(ValueError) as info:
        StructureAlgebra(3, brackets)
    assert str(info.value) == message


def test_constructor_drops_zero_coefficients():
    alg = StructureAlgebra(3, {(0, 1): [(0, 0), (1, Scalar(0)), (2, 1)]})
    assert alg.row(0) == {1: ((2, Scalar(1)),)}
    assert alg.row(1) == {0: ((2, Scalar(-1)),)}
    assert alg.row(2) == {}
    alg = StructureAlgebra(3, {(0, 1): [(2, Scalar(0))]})
    assert alg._integer[2] == [{}, {}, {}]
    assert all(alg.row(i) == {} for i in range(3))


def test_upper_half_is_mirrored_and_builds_scalar_rows_where_read(rng):
    """The algebra mirrors the i < j half in integers, so each of its rows is
    the rescaled row of `so_table` (whose lower half the matrix test checks
    on its own), and builds a Scalar row only when `row` or `bracket` reads
    it."""
    table = so_table(2, 1)
    dim = len(table)
    scales = [Scalar(1, 0, 2), Scalar(-3), Scalar(1, 1, 1)] + [Scalar(1)] * (dim - 3)
    alg = StructureAlgebra(dim, rescaled_so_brackets(2, 1, scales))
    assert reference_antisymmetry_failure(alg._integer[2]) is None
    assert alg._rows == [None] * dim
    want = [
        {
            j: tuple((k, scales[i] * scales[j] * Scalar(c) / scales[k]) for k, c in terms)
            for j, terms in row.items()
        }
        for i, row in enumerate(table)
    ]
    dense = [[Vector.zero(dim) for _ in range(dim)] for _ in range(dim)]
    for i, row in enumerate(want):
        for j, terms in row.items():
            dense[i][j] = Vector([dict(terms).get(k, Scalar(0)) for k in range(dim)])
    x, y = Vector.unit(dim, 2).scale(Scalar(0, 1)), rand_vector(rng, dim, 3)
    assert alg.bracket(x, y) == reference_dense_bracket(dim, dense, x, y)
    assert [i for i, row in enumerate(alg._rows) if row is not None] == [2]
    assert [alg.row(i) for i in range(dim)] == want


# -- upsilon_action stays in so(p, q) ------------------------------------------


@pytest.mark.parametrize("n", range(3, MAX_DIMENSION + 1))
def test_upsilon_action_lies_in_so_pq_on_every_basis_pair(n):
    """upsilon_action is bilinear in (Y, xi), so its trace-free part lies in
    so(p, q) for all arguments once it does on every pair of basis vectors;
    checked for every signature the command line accepts."""
    for p in range(n + 1):
        space = MobiusSpace(p, n - p)
        for i in range(n):
            for j in range(n):
                c = upsilon_action(space, Vector.unit(n, j), Vector.unit(n, i))
                assert reference_so_block_condition(space, c.A)
