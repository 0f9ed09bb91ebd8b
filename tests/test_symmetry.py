import pytest

from confsym import flatmodel, symmetry
from confsym.cli import fixture_cases
from confsym.flatmodel import MobiusSpace, NullLine, _mirrors, transitive_witness
from confsym.linalg import AffineSubspace, Matrix, Vector
from confsym.scalars import Scalar
from confsym.symmetry import (
    _symmetry_action,
    apply_to_line,
    conjugate_symmetry,
    find_symmetries,
    is_involutive,
    make_symmetry,
    solve_preserve,
    solve_swap,
    tangent_is_minus_id,
)

from conftest import (
    rand_covector,
    rand_null_vector,
    rand_scalar,
    rand_vector,
    reference_make_symmetry,
    reference_solve_preserve,
    stabilizer_element,
)


ORBIT_A_Z = Vector(["-1*r", "0", "1*r"])


def test_zero_covector_gives_block_diagonal(space21):
    s0 = make_symmetry(space21, Vector.zero(3))
    expected = Matrix(
        [
            [-1, 0, 0, 0, 0],
            [0, 1, 0, 0, 0],
            [0, 0, 1, 0, 0],
            [0, 0, 0, 1, 0],
            [0, 0, 0, 0, -1],
        ]
    )
    assert s0 == expected


def test_corner_entry_vanishes_for_balanced_covector(space21):
    # Z J Z^T / 2 = (z1^2 - z3^2) / 2 = (2 - 2) / 2 = 0
    s = make_symmetry(space21, ORBIT_A_Z)
    assert s[0, 4] == Scalar(0)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("pq", [(2, 1), (3, 1), (2, 2), (4, 0), (6, 6), (12, 0)])
def test_make_symmetry_is_the_entrywise_closed_form(pq, d, rng):
    """s_0 exp(Z) equals s_Z written out entrywise."""
    space = MobiusSpace(*pq, d)
    for Z in [Vector.zero(space.n)] + [rand_covector(rng, space.n, d=d) for _ in range(5)]:
        assert make_symmetry(space, Z) == reference_make_symmetry(space, Z)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("pq", [(2, 1), (3, 0), (2, 2), (3, 1), (6, 6)])
def test_closed_form_action_is_the_matrix_action(pq, d, rng):
    """The solver's self-check applies s_Z to a vector in closed form; that
    is make_symmetry(Z).matvec(x), on random x and on the corner vectors."""
    space = MobiusSpace(*pq, d)
    corners = [space.basis_vector(0), space.basis_vector(space.ambient - 1)]
    for Z in [Vector.zero(space.n)] + [rand_covector(rng, space.n, d=d) for _ in range(4)]:
        act, s = _symmetry_action(space, Z), make_symmetry(space, Z)
        for x in corners + [rand_vector(rng, space.ambient, d=d) for _ in range(3)]:
            assert act(x) == s.matvec(x)


def test_symmetries_lie_in_the_group(space21, rng):
    m = space21.form.matrix
    for _ in range(30):
        s = make_symmetry(space21, rand_covector(rng, 3))
        assert s.transpose() @ m @ s == m


@pytest.mark.parametrize("pq", [(2, 1), (2, 2), (3, 0)])
def test_involutivity_on_random_covectors(pq, rng):
    space = MobiusSpace(*pq)
    assert is_involutive(space, Vector.zero(space.n))
    for _ in range(100):
        assert is_involutive(space, rand_covector(rng, space.n))


def test_involutivity_on_the_swap_solution(space21):
    assert is_involutive(space21, ORBIT_A_Z)


def test_tangent_action_is_minus_identity(space21, rng):
    assert tangent_is_minus_id(space21, Vector.zero(3))
    assert tangent_is_minus_id(space21, ORBIT_A_Z)
    for _ in range(20):
        assert tangent_is_minus_id(space21, rand_covector(rng, 3))


def test_apply_to_line_swaps_the_removed_pair(space21):
    u = space21.line(["1", "1*r", "0", "0", "-1"])
    v = space21.line(["1", "0", "0", "-1*r", "1"])
    s = make_symmetry(space21, ORBIT_A_Z)
    assert apply_to_line(space21, s, u) == v
    assert apply_to_line(space21, s, v) == u


def test_origin_and_isotropic_lines_fixed_by_s0(space21):
    s0 = make_symmetry(space21, Vector.zero(3))
    assert apply_to_line(space21, s0, space21.origin) == space21.origin
    mid = space21.line(["0", "1", "0", "1", "0"])
    assert apply_to_line(space21, s0, mid) == mid


def test_solve_preserve_unique_point(space21):
    corner = space21.line(["0", "0", "0", "0", "1"])
    sol = solve_preserve(space21, corner)
    assert sol == AffineSubspace.point(Vector.zero(3))


def test_solve_preserve_hyperplane(space21):
    line = space21.line(["1", "1", "0", "1", "0"])
    sol = solve_preserve(space21, line)
    # single affine condition Z.U = -2: z1 + z3 = -2
    assert sol.dim == 2
    for z in sol.points():
        assert z[0] + z[2] == Scalar(-2)
        s = make_symmetry(space21, z)
        assert apply_to_line(space21, s, line) == line


def test_solve_preserve_full_space_at_origin(space21):
    assert solve_preserve(space21, space21.origin) == AffineSubspace.full(3)


def test_solve_preserve_members_work_nonmembers_fail(space21, rng):
    line = space21.line(["0", "1", "0", "1", "0"])
    sol = solve_preserve(space21, line)
    for z in sol.points():
        assert apply_to_line(space21, make_symmetry(space21, z), line) == line
    # perturb the base point along a direction outside the solution set
    outside = None
    for i in range(3):
        cand = sol.base + Vector.unit(3, i)
        if not sol.contains(cand):
            outside = cand
            break
    assert outside is not None
    assert apply_to_line(space21, make_symmetry(space21, outside), line) != line


@pytest.mark.parametrize("pq", [(2, 1), (3, 0), (2, 2), (1, 3)])
def test_solve_preserve_matches_the_reference_tree(pq, rng):
    # Structural equality: the self-swap must build the very base point and
    # directions that the reference tree builds, so every report keeps its bytes.
    space = MobiusSpace(*pq)
    n = space.n
    # One line per branch: u_inf != 0, then u_inf = 0 with U != 0 (only when
    # the middle block is indefinite), then the origin.
    lines = [space.line(Vector.unit(n + 2, n + 1))]
    if space.signature.q:
        lines.append(space.line(["1", "1"] + ["0"] * (n - 2) + ["1", "0"]))
    lines.append(space.origin)
    lines += [space.line(rand_null_vector(space, rng)) for _ in range(40)]
    for L in lines:
        assert str(solve_preserve(space, L)) == str(reference_solve_preserve(space, L)), L


def test_solve_swap_unique_point(space21):
    u = space21.line(["1", "1*r", "0", "0", "-1"])
    v = space21.line(["1", "0", "0", "-1*r", "1"])
    sol = solve_swap(space21, u, v)
    assert sol == AffineSubspace.point(ORBIT_A_Z)


def test_solve_swap_hyperplane(space21):
    u = space21.line(["0", "1", "0", "1", "0"])
    v = space21.line(["1", "1", "0", "1", "0"])
    sol = solve_swap(space21, u, v)
    assert sol.dim == 2
    for z in sol.points():
        assert z[0] + z[2] == Scalar(-1)
        s = make_symmetry(space21, z)
        assert apply_to_line(space21, s, u) == v
        assert apply_to_line(space21, s, v) == u


def test_solve_swap_empty_when_isotropy_differs(space21):
    u = space21.line(["0", "1", "0", "1", "0"])
    v = space21.line(["0", "0", "0", "0", "1"])
    assert solve_swap(space21, u, v).is_empty


@pytest.mark.parametrize(
    "pq, u, v",
    [
        # u_inf = v_inf = 0 with U, V isotropic but not proportional.
        ((2, 2), ["0", "1", "0", "1", "0", "0"], ["0", "1", "0", "-1", "0", "0"]),
        # Every s_Z fixes <e_0>, so none maps it onto another line.
        ((2, 1), ["1", "0", "0", "0", "0"], ["0", "0", "0", "0", "1"]),
    ],
)
def test_solve_swap_empty_on_the_middle_and_origin_branches(pq, u, v):
    space = MobiusSpace(*pq)
    assert solve_swap(space, space.line(u), space.line(v)).is_empty


def _null_with_last(space, rng, d) -> Vector:
    """A null vector over Q(sqrt d) with a nonzero last entry, the first
    entry solved from 2 x_0 x_last = -sum_i J_i X_i^2."""
    while True:
        last = rand_scalar(rng, 3, d)
        if last:
            break
    mid = rand_vector(rng, space.n, 3, d).entries
    s = sum((Scalar(space.signature.j_sign(i)) * x * x for i, x in enumerate(mid)), Scalar(0))
    return Vector([-s / (Scalar(2) * last), *mid, last])


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("pq", [(2, 1), (3, 0), (2, 2), (3, 1), (4, 1), (3, 3)])
def test_lines_off_the_corner_always_have_one_swap_and_one_fix(pq, d, rng):
    """For null u, v with u_inf, v_inf != 0 the corner row never rules the
    pinned point out: the swap is a point P with s_P u in <v>, and the fix
    of u is the reference tree's point 2 J U^T / u_inf."""
    space = MobiusSpace(*pq, d)
    J = [Scalar(space.signature.j_sign(i)) for i in range(space.n)]
    for _ in range(6):
        u, v = (NullLine(space.form, _null_with_last(space, rng, d)) for _ in range(2))
        swap = solve_swap(space, u, v)
        assert not swap.is_empty and swap.dim == 0
        assert NullLine(space.form, _symmetry_action(space, swap.base)(u.representative)) == v
        keep = solve_preserve(space, u)
        assert str(keep) == str(reference_solve_preserve(space, u))
        rep = u.representative
        fix = Vector(Scalar(2) * j * x / rep[-1] for j, x in zip(J, rep.entries[1:-1]))
        assert keep == AffineSubspace.point(fix)


def test_swap_members_swap_back(space21, rng):
    # involutivity makes the backward condition automatic on every solution
    for _ in range(5):
        u = NullLine(space21.form, rand_null_vector(space21, rng))
        v = NullLine(space21.form, rand_null_vector(space21, rng))
        if u == v:
            continue
        sol = solve_swap(space21, u, v)
        if sol.is_empty:
            continue
        for z in sol.points():
            s = make_symmetry(space21, z)
            assert apply_to_line(space21, s, u) == v
            assert apply_to_line(space21, s, v) == u


def test_find_symmetries_orbit_d():
    space = MobiusSpace(2, 2)
    u = space.line(["0", "1", "0", "0", "1", "0"])
    v = space.line(["0", "0", "1", "1", "0", "0"])
    report = find_symmetries(space, u, v, space.origin)
    expected = AffineSubspace(
        4,
        Vector.zero(4),
        [Vector([1, 0, 0, -1]), Vector([0, 1, -1, 0])],
    )
    assert report.preserving == expected
    assert report.swapping.is_empty
    assert (report.orbit.iso_u, report.orbit.iso_v, report.orbit.in_span) == (
        True,
        True,
        False,
    )


def test_find_symmetries_disjoint_partial_sets(space21):
    u = space21.line(["0", "0", "0", "0", "1"])
    v = space21.line(["1", "1", "0", "1", "0"])
    report = find_symmetries(space21, u, v, space21.origin)
    assert report.preserving.is_empty
    assert report.swapping.is_empty
    assert report.preserve_first == AffineSubspace.point(Vector.zero(3))
    assert report.preserve_second.dim == 2
    for z in report.preserve_second.points():
        assert z[0] + z[2] == Scalar(-2)


def test_find_symmetries_riemannian_case():
    space = MobiusSpace(3, 0)
    u = space.line(["-1", "0", "0", "1*r", "1"])
    v = space.line(["1", "0", "0", "1*r", "-1"])
    report = find_symmetries(space, u, v, space.origin)
    assert report.preserving.is_empty
    assert report.swapping == AffineSubspace.point(Vector.zero(3))


def test_find_symmetries_away_from_origin(space21, rng):
    # move the base point; the conjugated solver still produces verified sets
    u = space21.line(["1", "1*r", "0", "0", "-1"])
    v = space21.line(["1", "0", "0", "-1*r", "1"])
    w = space21.line(["0", "1", "0", "1", "0"])
    report = find_symmetries(space21, u, v, w)
    g = report.witness
    for z in report.swapping.points():
        s = conjugate_symmetry(space21, g, z)
        assert apply_to_line(space21, s, u) == v
        assert apply_to_line(space21, s, w) == w


def test_find_symmetries_refuses_a_witness_that_misses_w(space21):
    """A given witness must be an isometry and move the origin to w.  One
    that moves it to <(1, 1, 0, 1, 0)> gave the swap point
    (3 - r/2, 4, 5 + r/2) of that point, labelled w; any isometry whose first
    column spans w gives w's answer."""
    u = space21.line(["1", "1*r", "0", "0", "-1"])
    v = space21.line(["1", "0", "0", "-1*r", "1"])
    w = space21.line(["0", "1", "0", "1", "0"])
    elsewhere = transitive_witness(space21, space21.line(["1", "1", "0", "1", "0"]))
    with pytest.raises(ValueError, match="does not move the origin to w"):
        find_symmetries(space21, u, v, w, witness=elsewhere)
    want = AffineSubspace.point(space21.vector(["-1*r", "2", "4+1*r"]))
    assert find_symmetries(space21, u, v, w).swapping == want
    flipped = transitive_witness(space21, w).scale(-1)
    assert find_symmetries(space21, u, v, w, witness=flipped).swapping == want
    # 2 I fixes every line, the origin included, but scales the form.
    with pytest.raises(ValueError, match="not an isometry"):
        find_symmetries(space21, u, v, space21.origin, witness=Matrix.identity(5).scale(2))


def _forbid(name):
    def call(*args, **kwargs):
        raise AssertionError(f"{name} called on the default solve path")

    return call


def test_default_solve_path_forms_no_matrix_but_the_witness(monkeypatch, rng):
    """With its own witness, find_symmetries moves u and v by reflections and
    checks every solution by s_Z in closed form: no matvec, no inverse and
    no s_Z matrix, and no matrix product but the one that forms a
    two-mirror witness for the report.  It runs on the six desk cases, on
    each desk pair moved to random base points by an isometry (which keeps
    whether each set is empty) and on random triples, over every witness
    kind and both verdicts of each set."""
    runs = []
    for case in fixture_cases():
        space = MobiusSpace(case.p, case.q)
        u, v = space.line(case.u), space.line(case.v)
        runs.append((space, u, v, space.origin, case))
        for _ in range(3):
            w = space.line(rand_null_vector(space, rng))
            # g s_Z moves the origin to w, whatever Z is.
            h = transitive_witness(space, w) @ make_symmetry(space, rand_covector(rng, space.n))
            moved = (space.line(h.matvec(x.representative)) for x in (u, v))
            runs.append((space, *moved, w, case))
    for pq in ((2, 1), (3, 0), (2, 2), (3, 1)):
        space = MobiusSpace(*pq)
        for _ in range(20):
            u, v, w = (space.line(rand_null_vector(space, rng)) for _ in range(3))
            if u != v and w not in (u, v):
                runs.append((space, u, v, w, None))
    matmul, products = Matrix.__matmul__, []

    def counted_matmul(a, b):
        products.append(None)
        return matmul(a, b)

    monkeypatch.setattr(Matrix, "__matmul__", counted_matmul)
    monkeypatch.setattr(Matrix, "matvec", _forbid("Matrix.matvec"))
    for module in (flatmodel, symmetry):
        monkeypatch.setattr(module, "isometry_inverse", _forbid("isometry_inverse"))
    monkeypatch.setattr(symmetry, "make_symmetry", _forbid("make_symmetry"))
    kinds = set()
    verdicts = {"preserving": set(), "swapping": set()}
    for space, u, v, w, case in runs:
        mirrors = len(_mirrors(space, w))
        kinds.add(mirrors)
        products.clear()
        report = find_symmetries(space, u, v, w)
        assert len(products) == max(mirrors - 1, 0)
        if case is not None and w == space.origin:
            assert all(getattr(report, field) == want for field, want in case.expected.items())
        for field, seen in verdicts.items():
            empty = getattr(report, field).is_empty
            if case is not None:
                assert empty == case.expected[field].is_empty
            seen.add(empty)
    assert kinds == {0, 1, 2}
    assert verdicts == {"preserving": {True, False}, "swapping": {True, False}}


def test_conjugate_symmetry_examples(space21, rng):
    z = rand_covector(rng, 3)
    assert conjugate_symmetry(space21, Matrix.identity(5), z) == make_symmetry(space21, z)
    h = transitive_witness(space21, space21.line(["0", "1", "0", "1", "0"]))
    conj = conjugate_symmetry(space21, h, z)
    assert conj @ conj == Matrix.identity(5)
    w = space21.line(["0", "1", "0", "1", "0"])
    assert apply_to_line(space21, conj, w) == w


def test_conjugate_symmetry_rejects_a_non_isometry(space21, rng):
    z = rand_covector(rng, 3)
    # 2 I is invertible but scales the form; the zero matrix is singular.
    for h in (Matrix.identity(5).scale(2), Matrix.zero(5, 5)):
        with pytest.raises(ValueError, match="not an isometry"):
            conjugate_symmetry(space21, h, z)


def test_stabilizer_elements_fix_the_origin_line(space21, rng):
    m = space21.form.matrix
    for flip in (False, True):
        h = stabilizer_element(space21, rand_covector(rng, 3), extra_flip=flip)
        assert h.transpose() @ m @ h == m
        assert apply_to_line(space21, h, space21.origin) == space21.origin


@pytest.mark.parametrize(
    "case_index, kind",
    # Desk case 2 preserves both lines at Z = 0 alone, and desk case 1
    # swaps them at one point and preserves neither.
    [(1, "preserving"), (0, "swapping")],
)
def test_find_symmetries_refuses_a_wrong_solution(monkeypatch, case_index, kind):
    """The self-check fires: with every set of solve_swap moved by e_1, the
    reported points no longer preserve (swap) the lines."""
    case = fixture_cases()[case_index]
    space = MobiusSpace(case.p, case.q)
    u, v = space.line(case.u), space.line(case.v)
    solve = symmetry.solve_swap

    def shifted(space, L1, L2):
        s = solve(space, L1, L2)
        if s.is_empty:
            return s
        return AffineSubspace(s.ambient, s.base + Vector.unit(s.ambient, 0), s.directions)

    find_symmetries(space, u, v, space.origin)
    monkeypatch.setattr(symmetry, "solve_swap", shifted)
    with pytest.raises(AssertionError, match=f"^solver reported a non-{kind} covector$"):
        find_symmetries(space, u, v, space.origin)
