import re

import pytest

from confsym.flatmodel import (
    MobiusSpace,
    NullLine,
    Signature,
    classify_orbit,
    isometry_inverse,
    reflection,
    transitive_witness,
)
from confsym.linalg import Matrix, Vector
from confsym.scalars import Scalar
from confsym.symmetry import make_symmetry

from conftest import rand_covector, rand_null_vector, reference_classify_orbit


def test_signature_validation():
    Signature(2, 1)
    Signature(0, 3)
    Signature(3, 0)
    with pytest.raises(ValueError, match=r"^need p \+ q >= 3$"):
        Signature(1, 1)
    with pytest.raises(ValueError, match=re.escape("need p >= 0 and q >= 0, got (-1, 5)")):
        Signature(-1, 5)


def test_form_matrix_blocks(space21):
    m = space21.form.matrix
    e0 = space21.basis_vector(0)
    elast = space21.basis_vector(4)
    assert space21.pairing(e0, elast) == Scalar(1)
    assert space21.pairing(e0, e0) == Scalar(0)
    for i in (1, 2, 3):
        ei = space21.basis_vector(i)
        expected = Scalar(1) if i <= 2 else Scalar(-1)
        assert space21.pairing(ei, ei) == expected
    assert m.transpose() == m
    assert m == Matrix(
        [[0, 0, 0, 0, 1], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, -1, 0], [1, 0, 0, 0, 0]]
    )


def test_worked_null_vectors_are_null(space21):
    u = space21.vector(["1", "1*r", "0", "0", "-1"])
    v = space21.vector(["1", "0", "0", "-1*r", "1"])
    assert space21.pairing(u, u) == Scalar(0)
    assert space21.pairing(v, v) == Scalar(0)
    assert space21.pairing(u, v) == Scalar(0)


def test_pairing_dimension_mismatch(space21):
    with pytest.raises(ValueError):
        space21.pairing(Vector([1, 0]), space21.basis_vector(0))


def test_pairing_is_symmetric_and_bilinear(space21, rng):
    for _ in range(10):
        x = rand_null_vector(space21, rng)
        y = rand_null_vector(space21, rng)
        z = rand_null_vector(space21, rng)
        assert space21.pairing(x, y) == space21.pairing(y, x)
        c = Scalar(rng.randint(-4, 4))
        lhs = space21.pairing(x + y.scale(c), z)
        assert lhs == space21.pairing(x, z) + c * space21.pairing(y, z)


def test_null_line_normalization_and_equality(space21):
    a = space21.line(["0", "2", "0", "2", "0"])
    b = space21.line(["0", "-1/3", "0", "-1/3", "0"])
    assert a == b
    assert a.representative[1] == Scalar(1)
    with pytest.raises(ValueError):
        space21.line(["1", "0", "0", "0", "1"])  # not null: m(v, v) = 2
    with pytest.raises(ValueError):
        NullLine(space21.form, Vector.zero(5))


def test_classify_orbit_worked_cases(space21):
    w = space21.origin
    u = space21.line(["1", "1*r", "0", "0", "-1"])
    v = space21.line(["1", "0", "0", "-1*r", "1"])
    lab = classify_orbit(space21, w, u, v)
    assert (lab.iso_u, lab.iso_v, lab.in_span) == (False, False, False)

    u2 = space21.line(["0", "1", "0", "1", "0"])
    v2 = space21.line(["0", "0", "0", "0", "1"])
    lab2 = classify_orbit(space21, w, u2, v2)
    assert (lab2.iso_u, lab2.iso_v, lab2.in_span) == (True, False, False)

    v3 = space21.line(["1", "1", "0", "1", "0"])
    lab3 = classify_orbit(space21, w, u2, v3)
    assert (lab3.iso_u, lab3.iso_v, lab3.in_span) == (True, True, True)


def test_classify_orbit_rejects_removed_point(space21):
    u = space21.line(["0", "1", "0", "1", "0"])
    v = space21.line(["0", "0", "0", "0", "1"])
    with pytest.raises(ValueError, match="removed point"):
        classify_orbit(space21, u, u, v)
    with pytest.raises(ValueError):
        classify_orbit(space21, space21.origin, u, u)


def test_classify_orbit_scale_invariant(space21):
    w = space21.line(["0", "3", "0", "3", "0"])
    u = space21.line(["0", "-1", "0", "-1", "0"])
    assert w == u  # rescaled representatives give the same line
    v = space21.line(["1", "2", "0", "2", "0"])
    w2 = space21.line(["1", "1", "0", "1", "0"])
    lab_a = classify_orbit(space21, w2, u, v)
    lab_b = classify_orbit(
        space21,
        space21.line(["-2", "-2", "0", "-2", "0"]),
        space21.line(["0", "1/2", "0", "1/2", "0"]),
        space21.line(["5", "10", "0", "10", "0"]),
    )
    assert lab_a == lab_b


@pytest.mark.parametrize("pq", [(2, 1), (3, 0), (2, 2), (1, 3)])
def test_classify_orbit_matches_the_two_rank_form(pq, rng):
    space = MobiusSpace(*pq)
    n = space.n
    triples = []
    for _ in range(30):
        u, v, w = (space.line(rand_null_vector(space, rng)) for _ in range(3))
        if u != v and w not in (u, v):
            triples.append((u, v, w))
    if space.signature.q:
        # e_0 and (0, e_1 + e_n, 0) are orthogonal null lines.  A random
        # isometry g moves them to an isotropic pair u, v, and w = u + v is a
        # third null line of their plane.
        x = Vector(["0", "1"] + ["0"] * (n - 2) + ["1", "0"])
        for _ in range(10):
            elsewhere = space.line(rand_null_vector(space, rng))
            g = make_symmetry(space, rand_covector(rng, n)) @ transitive_witness(space, elsewhere)
            u_vec, v_vec = g.matvec(space.basis_vector(0)), g.matvec(x)
            triples.append((space.line(u_vec), space.line(v_vec), space.line(u_vec + v_vec)))
    seen = set()
    for u, v, w in triples:
        label = classify_orbit(space, w, u, v)
        assert label == reference_classify_orbit(space, w, u, v)
        seen.add(label.in_span)
    # In definite signature a plane through two distinct null lines holds no third.
    assert seen == ({False, True} if space.signature.q else {False})


def test_span_membership_forces_isotropy(space21, rng):
    # for orthogonal null u, v every point of <u, v> is isotropic to both
    u = space21.line(["0", "1", "0", "1", "0"])
    v = space21.line(["1", "1", "0", "1", "0"])
    assert space21.pairing(u.representative, v.representative) == Scalar(0)
    for _ in range(10):
        a = Scalar(rng.randint(-5, 5))
        b = Scalar(rng.randint(-5, 5))
        w_vec = u.representative.scale(a) + v.representative.scale(b)
        if w_vec.is_zero():
            continue
        w = space21.line(w_vec)
        if w in (u, v):
            continue
        lab = classify_orbit(space21, w, u, v)
        assert lab.in_span
        assert lab.iso_u and lab.iso_v


def test_witness_at_origin_is_identity(space21):
    assert transitive_witness(space21, space21.origin) == Matrix.identity(5)


def test_witness_at_opposite_corner_swaps(space21):
    w = space21.line(["0", "0", "0", "0", "1"])
    g = transitive_witness(space21, w)
    m = space21.form.matrix
    assert g.transpose() @ m @ g == m
    assert g.matvec(space21.basis_vector(0)) == space21.basis_vector(4)
    # this reflection fixes the middle block pointwise
    for i in (1, 2, 3):
        assert g.matvec(space21.basis_vector(i)) == space21.basis_vector(i)


def test_witness_for_isotropic_middle_point(space21):
    w = space21.line(["0", "1", "0", "1", "0"])
    g = transitive_witness(space21, w)
    m = space21.form.matrix
    assert g.transpose() @ m @ g == m
    image = g.matvec(space21.basis_vector(0))
    assert NullLine(space21.form, image) == w


@pytest.mark.parametrize("pq", [(2, 1), (2, 2), (3, 0), (0, 3), (3, 2)])
def test_witness_on_random_lines(pq, rng):
    space = MobiusSpace(*pq)
    m = space.form.matrix
    for _ in range(8):
        w = NullLine(space.form, rand_null_vector(space, rng))
        g = transitive_witness(space, w)
        assert g.transpose() @ m @ g == m
        assert NullLine(space.form, g.matvec(space.basis_vector(0))) == w
        gi = isometry_inverse(space, g)
        assert g @ gi == Matrix.identity(space.ambient)


def _entry(space, rng):
    return Scalar(rng.randint(-3, 3), rng.randint(-2, 2), rng.randint(1, 3), space.d)


def _nonzero_entry(space, rng):
    while True:
        e = _entry(space, rng)
        if e:
            return e


def _null_over_field(space, rng) -> Vector:
    """A null vector over Q(sqrt d): e_last, an isotropic middle with x_0 = 0
    (two-reflection witnesses), or a generic one with the last entry solved."""
    sig, zero = space.signature, Scalar(0, 0, 1, space.d)
    kind = rng.random()
    if kind < 0.15:
        return Vector([zero] * (sig.n + 1) + [_nonzero_entry(space, rng)])
    if kind < 0.4 and sig.p and sig.q:
        mid = [zero] * sig.n
        mid[rng.randrange(sig.p)] = mid[sig.p + rng.randrange(sig.q)] = _nonzero_entry(space, rng)
        return Vector([zero] + mid + [_entry(space, rng)])
    x0 = _nonzero_entry(space, rng)
    mid = [_entry(space, rng) for _ in range(sig.n)]
    s = sum((x * x if sig.j_sign(i) > 0 else -(x * x) for i, x in enumerate(mid)), zero)
    return Vector([x0] + mid + [-s / (Scalar(2) * x0)])


def _non_null(space, rng) -> Vector:
    while True:
        v = Vector(_entry(space, rng) for _ in range(space.ambient))
        if space.pairing(v, v):
            return v


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("pq", [(3, 0), (2, 1), (2, 2), (3, 1), (4, 1)])
def test_isometry_inverse_is_the_former_product(pq, d, rng):
    # The signed transpose gives every entry the value of m g^T m, down to
    # its repr: d on the irrational entries, 0 on the rational ones.
    space = MobiusSpace(*pq, d=d)
    m = space.form.matrix
    for _ in range(6):
        for g in (
            transitive_witness(space, NullLine(space.form, _null_over_field(space, rng))),
            reflection(space, _non_null(space, rng)) @ reflection(space, _non_null(space, rng)),
        ):
            got, want = isometry_inverse(space, g), m @ g.transpose() @ m
            assert got == want
            assert [repr(e) for r in got.rows for e in r] == [repr(e) for r in want.rows for e in r]


@pytest.mark.parametrize("pq", [(2, 1), (3, 0), (2, 2), (0, 3)])
def test_form_operations_match_their_dense_definitions(pq, rng):
    """pairing, reflection and isometry_inverse read m as a signed
    permutation; over Q(sqrt 2) they equal their definitions through the
    dense form.matrix: x . (m y), x - 2 m(x, v) / m(v, v) v on random x and
    on every basis vector, and m g^T m."""
    space = MobiusSpace(*pq)
    m = space.form.matrix
    basis = [space.basis_vector(i) for i in range(space.ambient)]
    for _ in range(6):
        x, y = (Vector(_entry(space, rng) for _ in range(space.ambient)) for _ in range(2))
        assert space.pairing(x, y) == x.dot(m.matvec(y))
        v = _non_null(space, rng)
        tau = reflection(space, v)
        qv = v.dot(m.matvec(v))
        for z in [x, *basis]:
            assert tau.matvec(z) == z - v.scale(Scalar(2) * z.dot(m.matvec(v)) / qv)
        g = tau @ reflection(space, _non_null(space, rng))
        assert isometry_inverse(space, g) == m @ g.transpose() @ m


def test_isometry_inverse_keeps_the_field_on_irrational_entries_only():
    """Over Q(sqrt 3), the rational entries of the inverse carry d = 0 (the
    signed transpose once tagged them d = 2) and the irrational ones d = 3."""
    space = MobiusSpace(2, 1, d=3)
    fields = set()
    for entries in (["1", "1", "0", "0", "-1/2"], ["1", "r", "0", "0", "-3/2"]):
        g = transitive_witness(space, space.line(entries))
        inv = isometry_inverse(space, g)
        assert {e.d for r in inv.rows for e in r if not e.b} == {0}
        fields |= {e.d for r in inv.rows for e in r if e.b}
    assert fields == {3}


def test_isometry_inverse_rejects_a_non_isometry(space21):
    shear = Matrix.identity(5) + Matrix([[1 if (i, j) == (1, 2) else 0 for j in range(5)] for i in range(5)])
    for g in (Matrix.identity(5).scale(2), shear, Matrix.identity(4), Matrix.zero(5, 4)):
        with pytest.raises(ValueError):
            isometry_inverse(space21, g)
