import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confsym.extension import (
    Extension,
    HomogeneousPair,
    SymmetricPair,
    curvature,
    flat_model_extension,
    metrizability_check,
    symmetry_criterion,
    symmetry_criterion_search,
    validate_extension,
)
from confsym.flatmodel import MobiusSpace
from confsym.liealg import (
    StructureAlgebra,
    algebra_condition,
    degrade,
    exp_nilpotent,
    graded_dim,
    killing_form,
    realize,
    so_table,
)
from confsym.linalg import Matrix, Vector, rank
from confsym.scalars import FieldMismatchError, Scalar
from confsym.serialize import extension_from_dict, extension_to_dict

from conftest import (
    heisenberg_pair,
    in_basis,
    pure_x,
    pure_z,
    rand_symmetric_pair,
    reference_realize,
    reference_symmetry_criterion,
    reference_validate_extension,
    rescaled_flat_extension,
    so_k_pair,
)


def abelian_algebra(dim):
    return StructureAlgebra(dim, {})


def translation_pair(n):
    """Abelian k of dimension n; h empty, m everything (flat translations)."""
    alg = abelian_algebra(n)
    return SymmetricPair(alg, [], list(range(n)))


def graded_alpha_rows(images):
    return Matrix([e.entries for e in images])


def test_flat_model_extension_carries_the_field_of_its_space():
    """The field belongs to the space: the identity alpha and the zero
    padding of `coords` are rational and carry d = 0, while an irrational
    literal read from a file over Q(sqrt 3) keeps d = 3."""
    ext = flat_model_extension(MobiusSpace(3, 1, d=3))
    assert ext.space.d == 3
    entries = [x for row in ext.alpha.rows for x in row]
    assert len(entries) == 225
    assert {x.d for x in entries} == {0}
    for x in [Vector.unit(ext.pair.alg.dim, i) for i in ext.pair.h] + ext.pair.m_basis:
        padding = [c for c in ext.coords(x).entries if not c]
        assert padding and {c.d for c in padding} == {0}
    data = extension_to_dict(ext)
    assert data["d"] == 3
    data["alpha"][0][0] = "1*r"
    back = extension_from_dict(data)
    assert back.space.d == 3
    assert (back.alpha[0, 0], back.alpha[0, 0].d) == (Scalar.sqrt_d(3), 3)
    assert {x.d for row in back.alpha.rows[1:] for x in row} == {0}


@pytest.mark.parametrize("pq", [(2, 1), (3, 1), (2, 2)])
def test_flat_model_algebra_rows_are_the_so_table_rows(pq):
    """Built from the i < j half of `so_table`, the flat model's algebra
    mirrors it back into every row of the table, lower half included."""
    table = so_table(*pq)
    alg = flat_model_extension(MobiusSpace(*pq)).pair.alg
    assert alg.dim == len(table)
    for i, row in enumerate(table):
        assert alg.row(i) == row
        assert all(type(c) is Scalar for terms in alg.row(i).values() for _, c in terms)


def test_flat_model_extension_validates(space21):
    ext = flat_model_extension(space21)
    report = validate_extension(ext)
    assert report.stabilizer_condition.passed
    assert report.quotient_condition.passed
    assert report.equivariance_condition.passed
    assert report.passed


def test_flat_model_curvature_vanishes(space21):
    ext = flat_model_extension(space21)
    assert all(curvature(ext, x, y).is_zero() for x, y in combinations(ext.pair.m_basis, 2))
    for x in ext.pair.m_basis:
        for y in ext.pair.m_basis:
            assert curvature(ext, x, y).is_zero()


def test_rank_deficient_alpha_fails_only_the_quotient_condition(space21):
    n = 3
    pair = translation_pair(n)
    images = [
        pure_x(space21, Vector.unit(n, 0)),
        pure_x(space21, Vector.unit(n, 1)),
        pure_z(space21, Vector.unit(n, 0)),
    ]
    ext = Extension(space21, pair, graded_alpha_rows(images))
    report = validate_extension(ext)
    assert report.stabilizer_condition.passed
    assert not report.quotient_condition.passed
    assert report.quotient_condition.witnesses == [n - 1]
    assert report.equivariance_condition.passed


def test_perturbed_alpha_fails_only_equivariance(space21):
    ext = flat_model_extension(space21)
    dim = ext.pair.alg.dim
    n = space21.n
    # add an upper-block element to the image of one stabilizer direction
    h_target = n + 1  # first rotation-block basis element
    perturbation = pure_z(space21, Vector.unit(n, 0))
    rows = [list(r) for r in ext.alpha.rows]
    rows[h_target] = [a + b for a, b in zip(rows[h_target], perturbation)]
    bad = Extension(space21, ext.pair, Matrix(rows))
    report = validate_extension(bad)
    assert report.stabilizer_condition.passed
    assert report.quotient_condition.passed
    assert not report.equivariance_condition.passed
    assert report.equivariance_condition.witnesses
    h_list_index = ext.pair.h.index(h_target)
    assert any(w[0] == h_list_index for w in report.equivariance_condition.witnesses)


def test_dimension_precondition(space21):
    pair = translation_pair(4)
    alpha = Matrix.zero(4, graded_dim(space21))
    with pytest.raises(ValueError, match="p\\+q"):
        validate_extension(Extension(space21, pair, alpha))


def test_curvature_is_bilinear_and_antisymmetric(space21, rng):
    n = 3
    pair = translation_pair(n)
    images = [
        pure_x(space21, Vector.unit(n, i)) + pure_z(space21, Vector.unit(n, i))
        for i in range(n)
    ]
    ext = Extension(space21, pair, graded_alpha_rows(images))
    assert validate_extension(ext).passed
    # mixed blocks bracket into g0
    assert not all(curvature(ext, x, y).is_zero() for x, y in combinations(ext.pair.m_basis, 2))
    x, y = pair.m_basis[0], pair.m_basis[1]
    assert curvature(ext, x, x).is_zero()
    kxy = curvature(ext, x, y)
    kyx = curvature(ext, y, x)
    assert (kxy + kyx).is_zero()
    c = Scalar(rng.randint(-4, 4))
    lhs = curvature(ext, x.scale(c) + y, y)
    rhs = curvature(ext, x, y).scale(c) + curvature(ext, y, y)
    assert (lhs - rhs).is_zero()
    # curvature values live in the realized algebra
    assert algebra_condition(space21, realize(space21, kxy))


def test_curvature_requires_m_arguments(space21):
    ext = flat_model_extension(space21)
    with pytest.raises(ValueError, match="span"):
        curvature(ext, Vector.unit(ext.pair.alg.dim, ext.pair.h[0]), ext.pair.m_basis[0])


def test_symmetry_criterion_flat_model(space21, rng):
    ext = flat_model_extension(space21)
    assert symmetry_criterion(ext, Vector.zero(3))
    for _ in range(3):
        Y = Vector([Scalar(rng.randint(-3, 3)) for _ in range(3)])
        assert symmetry_criterion(ext, Y)


def test_symmetry_criterion_on_stabilizer_image(space21):
    # alpha collapses everything into the stabilizer subalgebra: degenerate as
    # an extension, but the criterion is still computable and holds
    ext = flat_model_extension(space21)
    n = space21.n
    # the X coordinates 1..n of every image set to zero
    rows = [row[:1] + (Scalar(0),) * n + row[n + 1 :] for row in ext.alpha.rows]
    degenerate = Extension(space21, ext.pair, Matrix(rows))
    assert not validate_extension(degenerate).passed
    assert symmetry_criterion(degenerate, Vector.zero(n))


def test_symmetry_criterion_single_lower_direction(space21):
    # image spanned by one lower-block line plus the degree-zero block: the
    # origin symmetry negates the line into itself
    ext = flat_model_extension(space21)
    dim = ext.pair.alg.dim
    n = space21.n
    rows = []
    for i in range(dim):
        if i == 1:
            rows.append(pure_x(space21, Vector.unit(n, 0)).entries)
        elif i == 0 or n + 1 <= i < n + 1 + n * (n - 1) // 2:
            rows.append(ext.alpha.rows[i])
        else:
            rows.append([Scalar(0)] * graded_dim(space21))
    ext2 = Extension(space21, ext.pair, Matrix(rows))
    assert symmetry_criterion(ext2, Vector.zero(n))


def test_symmetry_criterion_search(space21):
    ext = flat_model_extension(space21)
    hit = symmetry_criterion_search(ext, [Vector.zero(3)])
    assert hit == Vector.zero(3)
    assert symmetry_criterion_search(ext, []) is None
    grid = [
        Vector([Scalar(a), Scalar(b), Scalar(0)]) for a in (-1, 0, 1) for b in (-1, 0, 1)
    ]
    found = symmetry_criterion_search(ext, grid)
    assert found is not None
    assert symmetry_criterion(ext, found)


def test_metrizability_so3():
    alg, h_idx, m_idx = so_k_pair(3, 1)
    report = metrizability_check(SymmetricPair(alg, h_idx, m_idx))
    assert report.passed
    assert report.checked_pairs == [(0, 1)]


def test_metrizability_heisenberg_and_abelian():
    alg, h_idx, m_idx = heisenberg_pair()
    assert metrizability_check(SymmetricPair(alg, h_idx, m_idx)).passed
    assert metrizability_check(translation_pair(4)).passed


def test_metrizability_names_the_pair_with_a_nonzero_trace():
    """h = <b0, b1>, m = <b2, b3, b4>.  [b2, b4] = b0 and ad b0 scales m by
    (-2, -1, 2), so that pair fails with trace -1; [b2, b3] = 0, and
    [b3, b4] = -b1 with ad b1 nilpotent on m (b2 -> b3 -> 0)."""
    alg = StructureAlgebra(
        5,
        {
            (0, 1): [(1, 1)],
            (0, 2): [(2, -2)],
            (0, 3): [(3, -1)],
            (0, 4): [(4, 2)],
            (1, 2): [(3, 1)],
            (2, 4): [(0, 1)],
            (3, 4): [(1, -1)],
        },
    )
    report = metrizability_check(SymmetricPair(alg, [0, 1], [2, 3, 4]))
    assert not report.passed
    assert report.checked_pairs == [(0, 1), (0, 2), (1, 2)]
    assert report.failures == [((0, 2), Scalar(-1))]


def test_metrizability_random_pairs(rng):
    for _ in range(10):
        pair = rand_symmetric_pair(rng)
        report = metrizability_check(pair)
        assert report.passed
        for i, x in enumerate(pair.m_basis):
            for j in range(i + 1, len(pair.m_basis)):
                y = pair.m_basis[j]
                assert killing_form(pair.alg, x, y) == killing_form(pair.alg, y, x)


def so3_plus_line():
    """so(3) on b0, b1, b2 ([b0, b1] = b2 and cyclic) plus a central b3."""
    e = [Vector.unit(4, i) for i in range(4)]
    brackets = {(0, 1): [(2, Scalar(1))], (1, 2): [(0, Scalar(1))], (0, 2): [(1, Scalar(-1))]}
    return StructureAlgebra(4, brackets), e


def test_symmetric_pair_names_the_failing_closure_family():
    alg, e = so3_plus_line()
    # [b3, .] = 0 keeps [h, m] in m, but [b0, b1] = b2 leaves h = span(b3)
    with pytest.raises(ValueError) as info:
        SymmetricPair(alg, [3], [0, 1, 2])
    assert str(info.value) == "closure violation: [m, m] leaves h"
    # [b2, b0] = b1 leaves h = span(b0, b2)
    with pytest.raises(ValueError) as info:
        SymmetricPair(alg, [0, 2], [1, 3])
    assert str(info.value) == "h is not a subalgebra: [h, h] leaves h"
    # On the basis (b0, b1, b0 + b2, b3), [b0, b1] = b2 leaves
    # m = span(b1, b0 + b2, b3)
    skewed = in_basis(alg, [e[0], e[1], e[0] + e[2], e[3]])
    with pytest.raises(ValueError) as info:
        SymmetricPair(skewed, [0], [1, 2, 3])
    assert str(info.value) == "closure violation: [h, m] leaves m"
    # the symmetric pair of the rotation about b0
    pair = SymmetricPair(alg, [0, 3], [1, 2])
    assert pair.m_contains(alg.bracket(e[0], e[1]))
    assert pair.h_contains(alg.bracket(e[1], e[2]))


def test_symmetric_pair_closure_validation():
    alg, h_idx, m_idx = so_k_pair(3, 1)
    e = [Vector.unit(alg.dim, i) for i in range(alg.dim)]
    with pytest.raises(ValueError, match="closure"):
        # skewing the complement breaks [h, m] <= m
        SymmetricPair(in_basis(alg, [e[0], e[1], e[0] + e[2]]), [0], [1, 2])


def test_homogeneous_pair_requires_subalgebra():
    alg, h_idx, m_idx = so_k_pair(3, 1)
    with pytest.raises(ValueError, match="subalgebra"):
        HomogeneousPair(alg, m_idx, h_idx)


@pytest.mark.parametrize(
    "h, m",
    [
        ([Vector.unit(4, 0), Vector.unit(4, 3)], [Vector.unit(4, 1), Vector.unit(4, 2)]),
        ([True, 3], [1, 2]),
        ([0, 3], ["1", 2]),
        ([0, 3], "12"),
    ],
)
def test_homogeneous_pair_takes_index_lists_only(h, m):
    """Vectors, bools and strings are refused with one ValueError that names
    the index-list form, whether or not they would read as indices."""
    alg, _ = so3_plus_line()
    with pytest.raises(ValueError, match="^h and m are index lists: an int i stands for"):
        HomogeneousPair(alg, h, m)


@pytest.mark.parametrize("m", [[1], [1, 1], [1, 4], [1, 2, 2], [-1, 2]])
def test_homogeneous_pair_indices_partition_range_dim(m):
    alg, _ = so3_plus_line()
    with pytest.raises(ValueError, match=r"^h and m must partition the basis indices range\(4\)$"):
        HomogeneousPair(alg, [0, 3], m)


@pytest.mark.parametrize("length", [3, 5])
def test_span_membership_needs_a_vector_of_length_dim(length):
    alg, _ = so3_plus_line()
    pair = SymmetricPair(alg, [0, 3], [1, 2])
    v = Vector.unit(length, 1)
    for contains in (pair.h_contains, pair.m_contains):
        with pytest.raises(ValueError, match=f"length 4, got {length}$"):
            contains(v)


def test_flat_pair_is_not_symmetric(space21):
    # the stabilizer complement is not closed under the grading brackets, so
    # extensions must accept plain homogeneous pairs
    ext = flat_model_extension(space21)
    assert isinstance(ext.pair, HomogeneousPair)
    alg = ext.pair.alg
    with pytest.raises(ValueError, match="closure"):
        SymmetricPair(alg, ext.pair.h, ext.pair.m)


# -- the report against the former per-pair validation -----------------------


_FLAT = {}


def _flat(pq, d=2):
    if (pq, d) not in _FLAT:
        _FLAT[pq, d] = flat_model_extension(MobiusSpace(*pq, d))
    return _FLAT[pq, d]


def _with_rows(ext, rows):
    return Extension(ext.space, ext.pair, Matrix(rows))


def _assert_same_report(ext):
    got = validate_extension(ext)
    want = reference_validate_extension(ext)
    assert got == want
    return got


@pytest.mark.parametrize("pq", [(2, 1), (3, 1), (2, 2)])
def test_flat_model_report_matches_the_reference(pq):
    for d in (2, 3):
        report = _assert_same_report(_flat(pq, d))
        assert report.passed


def _shifts(d):
    """Rational and irrational constants of Q(sqrt d)."""
    return st.sampled_from(
        [
            Scalar(1, 0, 1, d),
            Scalar(2, 0, 1, d),
            Scalar(-1, 0, 2, d),
            Scalar(0, 1, 1, d),
            Scalar(1, -1, 1, d),
            Scalar(-3, 1, 2, d),
        ]
    )


_FIELDS = st.sampled_from([2, 3])


@given(pq=st.sampled_from([(2, 1), (3, 1), (2, 2)]), d=_FIELDS, data=st.data())
@settings(max_examples=16, deadline=None)
def test_scaling_perturbation_report_matches_the_reference(pq, d, data):
    # a constant added to the scaling coordinate of one h row of alpha
    ext = _flat(pq, d)
    row = data.draw(st.sampled_from(ext.pair.h))
    rows = [list(r) for r in ext.alpha.rows]
    rows[row][0] = rows[row][0] + data.draw(_shifts(d))
    report = _assert_same_report(_with_rows(ext, rows))
    assert report.stabilizer_condition.passed and report.quotient_condition.passed
    assert not report.equivariance_condition.passed


@given(pq=st.sampled_from([(2, 1), (2, 1), (3, 1), (2, 2)]), d=_FIELDS, data=st.data())
@settings(max_examples=30, deadline=None)
def test_random_perturbation_report_matches_the_reference(pq, d, data):
    ext = _flat(pq, d)
    dim = ext.pair.alg.dim
    rows = [list(r) for r in ext.alpha.rows]
    for _ in range(data.draw(st.integers(1, 4))):
        i = data.draw(st.integers(0, dim - 1))
        j = data.draw(st.integers(0, dim - 1))
        rows[i][j] = rows[i][j] + data.draw(_shifts(d))
    _assert_same_report(_with_rows(ext, rows))


@given(pq=st.sampled_from([(2, 1), (3, 1), (2, 2)]), d=_FIELDS, data=st.data())
@settings(max_examples=16, deadline=None)
def test_rescaled_irrational_report_matches_the_reference(pq, d, data):
    """On an irrationally rescaled basis the algebra and alpha have
    irrational entries over different denominators; the report on
    numerators equals the Scalar reference, valid or perturbed."""
    space = MobiusSpace(*pq, d)
    dim = graded_dim(space)
    ext = rescaled_flat_extension(space, [data.draw(_shifts(d)) for _ in range(dim)])
    rows = [list(r) for r in ext.alpha.rows]
    for _ in range(data.draw(st.integers(0, 3))):
        i = data.draw(st.integers(0, dim - 1))
        j = data.draw(st.integers(0, dim - 1))
        rows[i][j] = rows[i][j] + data.draw(_shifts(d))
    _assert_same_report(_with_rows(ext, rows))


def _stable_rows(space, rng, values, Y):
    """alpha rows spanning Ad_{exp(-Y)} W, for W spanned by random vectors
    on the (a, A) coordinates and random vectors on the X and Z
    coordinates: W is Ad_{s_0}-stable, so the criterion holds at Y."""
    dim = graded_dim(space)
    n = space.n
    odd = [k for k in range(dim) if 0 < k <= n or k >= dim - n]
    zero = Scalar(0, 0, 1, space.d)
    g = exp_nilpotent(space, Y)
    g_inv = exp_nilpotent(space, -Y)
    rows = []
    for support in [odd] * 2 + [[k for k in range(dim) if k not in odd]]:
        w = [rng.choice(values) if k in support else zero for k in range(dim)]
        rows.append(degrade(space, g_inv @ realize(space, Vector(w)) @ g).entries)
    return rows + [[zero] * dim] * (dim - len(rows))


@pytest.mark.parametrize("pq", [(2, 1), (3, 1), (2, 2), (3, 0)])
@pytest.mark.parametrize("d", [2, 3, 5])
def test_symmetry_criterion_matches_the_matrix_formula(pq, d):
    """The criterion on graded coordinates, with Ad_{s_0} as a sign flip,
    against the ranks of the flattened matrices and their matrix flips: on
    the flat model, on perturbed alphas, on alphas of a few random rows and
    on images that are stable by construction, for Y over Q(sqrt d)."""
    rng = random.Random(sum(pq) * 10 + d)
    flat = _flat(pq, d)
    dim = flat.pair.alg.dim
    n = flat.space.n
    values = [Scalar(0, 0, 1, d)] * 3 + [
        Scalar(1, 0, 1, d), Scalar(-1, 0, 2, d), Scalar(0, 1, 1, d), Scalar(1, -1, 1, d)
    ]
    verdicts = []
    for trial in range(12):
        Y = Vector(values[0] if trial < 4 else rng.choice(values) for _ in range(n))
        rows = [list(r) for r in flat.alpha.rows]
        if trial % 4 == 1:
            for _ in range(3):
                i, j = rng.randrange(dim), rng.randrange(dim)
                rows[i][j] = rows[i][j] + rng.choice(values[3:])
        elif trial % 4 == 2:
            kept = rng.sample(range(dim), rng.randint(1, 3))
            rows = [
                [rng.choice(values) for _ in range(dim)] if i in kept else [values[0]] * dim
                for i in range(dim)
            ]
        elif trial % 4 == 3:
            rows = _stable_rows(flat.space, rng, values, Y)
        ext = _with_rows(flat, rows)
        got = symmetry_criterion(ext, Y)
        assert got == reference_symmetry_criterion(ext, Y)
        verdicts.append(got)
    assert verdicts[3::4] == [True] * 3 and False in verdicts


def _criterion_cases(pq, d):
    """(ext, Y) on the four kinds of image of the matrix-formula test, in
    turn: the flat model, a perturbed alpha, an alpha of a few random rows
    and an image that is stable at Y by construction, for Y over Q(sqrt d)."""
    rng = random.Random(sum(pq) * 10 + d + 1)
    flat = _flat(pq, d)
    dim = flat.pair.alg.dim
    n = flat.space.n
    values = [Scalar(0, 0, 1, d)] * 2 + [
        Scalar(2, 0, 1, d), Scalar(-1, 0, 3, d), Scalar(0, 1, 1, d), Scalar(1, 1, 2, d)
    ]
    for trial in range(16):
        Y = Vector(rng.choice(values) for _ in range(n))
        if trial % 4 == 0:
            rows = flat.alpha.rows
        elif trial % 4 == 1:
            rows = [list(r) for r in flat.alpha.rows]
            for _ in range(3):
                i, j = rng.randrange(dim), rng.randrange(dim)
                rows[i][j] = rows[i][j] + rng.choice(values[2:])
        elif trial % 4 == 2:
            kept = rng.sample(range(dim), rng.randint(1, 4))
            rows = [
                [rng.choice(values) for _ in range(dim)] if i in kept else [values[0]] * dim
                for i in range(dim)
            ]
        else:
            rows = _stable_rows(flat.space, rng, values, Y)
        yield _with_rows(flat, rows), Y


@pytest.mark.parametrize("pq", [(2, 1), (3, 1), (2, 2)])
def test_symmetry_criterion_holds_on_the_parabolic_image(pq):
    """V = g_0 + g_1, the flat model with its X rows zeroed, has rank
    dim - n, so no certificate answers, and it is s_0-stable after every
    Ad_{exp Y}: True for Y over Q(sqrt 2) and over Q(sqrt 3)."""
    flat = _flat(pq)
    n = flat.space.n
    rows = [[Scalar(0)] * len(r) if 0 < i <= n else r for i, r in enumerate(flat.alpha.rows)]
    ext = _with_rows(flat, rows)
    assert rank(ext.alpha) == graded_dim(ext.space) - n
    rng = random.Random(sum(pq))
    for d in (2, 3):
        for _ in range(3):
            Y = Vector(Scalar(rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(1, 3), d) for _ in range(n))
            assert symmetry_criterion(ext, Y)
            assert reference_symmetry_criterion(ext, Y)


@pytest.mark.parametrize("pq", [(2, 1), (3, 1)])
def test_symmetry_criterion_below_full_rank_by_one(pq):
    """The flat model less its scaling row has rank dim - 1: no
    certificate, and the verdict is the reference's, True at Y = 0 and
    False at Y = e_i."""
    flat = _flat(pq)
    n = flat.space.n
    rows = [[Scalar(0)] * len(r) if i == 0 else r for i, r in enumerate(flat.alpha.rows)]
    ext = _with_rows(flat, rows)
    verdicts = []
    for Y in [Vector.zero(n)] + [Vector.unit(n, i) for i in range(n)]:
        verdicts.append(symmetry_criterion(ext, Y))
        assert verdicts[-1] == reference_symmetry_criterion(ext, Y)
    assert verdicts == [True] + [False] * n


@pytest.mark.parametrize("pq", [(2, 1), (3, 1)])
def test_symmetry_criterion_below_full_rank_forms_no_matrix_product(monkeypatch, pq):
    """On the flat model less its scaling row and on the parabolic image,
    the criterion gives the matrix reference's verdicts with
    `Matrix.__matmul__` raising: it forms no group element."""
    flat = _flat(pq)
    n = flat.space.n
    covectors = [Vector.zero(n)] + [Vector.unit(n, i) for i in range(n)]
    covectors.append(Vector([Scalar(1, -1, 2)] + [Scalar(0)] * (n - 2) + [Scalar(3)]))
    cases = []
    for zeroed in ({0}, set(range(1, n + 1))):
        rows = [[Scalar(0)] * len(r) if i in zeroed else r for i, r in enumerate(flat.alpha.rows)]
        ext = _with_rows(flat, rows)
        cases += [(ext, Y, reference_symmetry_criterion(ext, Y)) for Y in covectors]

    def refuse(self, other):
        raise AssertionError("the criterion formed a matrix product")

    monkeypatch.setattr(Matrix, "__matmul__", refuse)
    assert [symmetry_criterion(ext, Y) for ext, Y, _ in cases] == [v for _, _, v in cases]
    assert {v for _, _, v in cases} == {True, False}


@pytest.mark.parametrize("pq", [(2, 1), (3, 1)])
def test_symmetry_criterion_search_returns_the_first_passing_candidate(pq):
    for ext, Y in _criterion_cases(pq, 2):
        n = ext.space.n
        candidates = [Vector.unit(n, i) for i in range(n)] + [Y, Vector.zero(n)]
        passing = [Z for Z in candidates if reference_symmetry_criterion(ext, Z)]
        assert symmetry_criterion_search(ext, candidates) == (passing[0] if passing else None)
        failing = [Z for Z in candidates if Z not in passing]
        assert symmetry_criterion_search(ext, failing) is None


@pytest.mark.parametrize("length", [2, 4])
def test_symmetry_criterion_refuses_a_covector_of_the_wrong_length(space21, length):
    """The message of `exp_nilpotent`, raised before the full-rank answer,
    on a full-rank image and on a rank-deficient one."""
    flat = flat_model_extension(space21)
    stabilizer = _with_rows(flat, [row[:1] + (Scalar(0),) * 3 + row[4:] for row in flat.alpha.rows])
    Y = Vector.zero(length)
    message = "^covector must have length 3$"
    with pytest.raises(ValueError, match=message):
        exp_nilpotent(space21, Y)
    for ext in (flat, stabilizer):
        with pytest.raises(ValueError, match=message):
            symmetry_criterion(ext, Y)
        with pytest.raises(ValueError, match=message):
            symmetry_criterion_search(ext, [Y.entries])


def test_symmetry_criterion_refuses_alpha_and_y_over_two_fields(space21):
    """Irrational alpha over Q(sqrt 2) and Y over Q(sqrt 3) are refused even
    where the full rank of alpha answers; a rational alpha takes Y over
    Q(sqrt 3), although the space is over Q(sqrt 2)."""
    flat = flat_model_extension(space21)
    rows = [list(r) for r in flat.alpha.rows]
    rows[0][0] = Scalar(0, 1, 1, 2)
    Y = Vector([Scalar(0, 1, 1, 3), Scalar(1), Scalar(0)])
    for ext in (_with_rows(flat, rows), _with_rows(flat, rows[:1] + [[Scalar(0)] * 10] * 9)):
        with pytest.raises(FieldMismatchError):
            reference_symmetry_criterion(ext, Y)
        with pytest.raises(FieldMismatchError):
            symmetry_criterion(ext, Y)
    stabilizer = _with_rows(flat, [row[:1] + (Scalar(0),) * 3 + row[4:] for row in flat.alpha.rows])
    for ext in (flat, stabilizer):
        assert symmetry_criterion(ext, Y) and reference_symmetry_criterion(ext, Y)


def test_validate_refuses_irrational_entries_of_two_fields(space21):
    # The numerators carry one d, so two fields are refused even where no
    # product of the two is formed ([a, A] = 0 here).
    flat = _flat((2, 1))
    rows = [list(r) for r in flat.alpha.rows]
    rows[0][0] = Scalar(0, 1, 1, 2)
    rows[4][4] = Scalar(0, 1, 1, 3)
    with pytest.raises(FieldMismatchError):
        validate_extension(_with_rows(flat, rows))
    # alpha over Q(sqrt 3) on an algebra over Q(sqrt 2)
    rescaled = rescaled_flat_extension(space21, [Scalar(0, 1, 1, 2)] * 10)
    rows = [list(r) for r in rescaled.alpha.rows]
    rows[0][0] = Scalar(0, 1, 1, 3)
    with pytest.raises(FieldMismatchError):
        validate_extension(_with_rows(rescaled, rows))
