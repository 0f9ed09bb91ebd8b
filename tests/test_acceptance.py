"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Everything here is exact (zero tolerance): set equality of affine solution
sets, matrix identities, kernel dimensions.  Run with `pytest tests/test_acceptance.py -v -s`
to see the per-criterion lines.
"""

import random
from itertools import combinations

import pytest

from confsym.cli import fixture_cases, run_fixture_case
from confsym.extension import (
    Extension,
    curvature,
    flat_model_extension,
    metrizability_check,
    symmetry_criterion,
    validate_extension,
)
from confsym.flatmodel import MobiusSpace, NullLine, isometry_inverse, transitive_witness
from confsym.liealg import killing_form, upsilon_action, upsilon_bracket_constant
from confsym.linalg import Matrix, Vector, rank
from confsym.scalars import Scalar
from confsym.serialize import dump_canonical, weyl_to_dict
from confsym.symmetry import (
    find_symmetries,
    make_symmetry,
    tangent_is_minus_id,
)
from confsym.weyl import prolongation, random_weyl, weyl_space_basis

from conftest import (
    pure_x,
    pure_z,
    rand_covector,
    rand_null_vector,
    rand_symmetric_pair,
    so_k_pair,
    stabilizer_element,
)
from test_extension import graded_alpha_rows, translation_pair


def test_criterion_1_reproduce_paper_exactly():
    """Six desk cases with zero-tolerance set equality."""
    results = [run_fixture_case(case) for case in fixture_cases()]
    for r in results:
        assert r.match, f"{r.case.case_id}: computed sets differ from the expected ones"
    # spot-check the expected sets themselves carry the stated data
    by_id = {r.case.case_id: r for r in results}
    a = by_id["orbit-A"].report
    assert a.swapping.dim == 0
    assert a.swapping.base == Vector(["-1*r", "0", "1*r"])
    assert a.preserving.is_empty
    b = by_id["orbit-B"].report
    assert b.preserving.dim == 0 and b.preserving.base == Vector.zero(3)
    assert b.swapping.is_empty
    c = by_id["orbit-C"].report
    assert c.swapping.dim == 2 and c.preserving.is_empty
    for z in c.swapping.points():
        assert z[0] + z[2] == Scalar(-1)
    d_case = by_id["orbit-D"].report
    assert d_case.preserving.dim == 2 and d_case.swapping.is_empty
    for z in d_case.preserving.points():
        assert z[0] + z[3] == Scalar(0) and z[1] + z[2] == Scalar(0)
    e2 = by_id["example-2"].report
    assert e2.preserving.is_empty and e2.swapping.is_empty
    assert e2.preserve_first.dim == 0 and e2.preserve_first.base == Vector.zero(3)
    for z in e2.preserve_second.points():
        assert z[0] + z[2] == Scalar(-2)
    e3 = by_id["example-3"].report
    assert e3.swapping.dim == 0 and e3.swapping.base == Vector.zero(3)
    assert e3.preserving.is_empty
    print("PASS criterion-1: reproduce-paper 6/6 with exact set equality")


@pytest.mark.parametrize("pq", [(2, 1), (2, 2), (3, 0)])
def test_criterion_2_involution_suite(pq):
    """200 seeded random covectors per signature: involutivity, group
    membership and tangent action, all exact."""
    space = MobiusSpace(*pq)
    rng = random.Random(1000 + 10 * pq[0] + pq[1])
    m = space.form.matrix
    eye = Matrix.identity(space.ambient)
    for _ in range(200):
        Z = rand_covector(rng, space.n)
        s = make_symmetry(space, Z)
        assert s @ s == eye
        assert s.transpose() @ m @ s == m
        assert tangent_is_minus_id(space, Z)
    print(f"PASS criterion-2: involution suite 200/200 at {pq}")


def test_criterion_3_weyl_dimension():
    """Kernel dimension equals the counting oracle for n = 3..6, definite and
    split signatures."""
    oracle = lambda n: n * n * (n * n - 1) // 12 - n * (n + 1) // 2
    expected = {3: 0, 4: 10, 5: 35, 6: 84}
    for n in (3, 4, 5, 6):
        assert oracle(n) == expected[n]
        for pq in ((n, 0), (n - n // 2, n // 2)):
            basis = weyl_space_basis(*pq)
            assert basis.dimension == oracle(n), f"signature {pq}"
    print("PASS criterion-3: Weyl space dimensions match the oracle for n = 3, 4, 5, 6")


@pytest.mark.parametrize("pq", [(4, 0), (3, 1), (2, 2), (5, 0)])
def test_criterion_4_prolongation_lemma(pq):
    """100 seeded nonzero tensors per signature plus the full basis sweep:
    the first prolongation is always trivial."""
    for seed in range(100):
        W = random_weyl(*pq, seed=seed)
        assert not W.is_zero()
        basis = prolongation(W)
        if basis:
            pytest.fail(
                f"prolongation not trivial for seed {seed} at {pq}; offending tensor:\n"
                + dump_canonical(weyl_to_dict(W))
            )
    for i, W in enumerate(weyl_space_basis(*pq).elements):
        if prolongation(W):
            pytest.fail(
                f"prolongation not trivial for basis element {i} at {pq}; tensor:\n"
                + dump_canonical(weyl_to_dict(W))
            )
    print(f"PASS criterion-4: prolongation trivial for 100 seeds + basis sweep at {pq}")


def test_criterion_5_one_form_action_coherence():
    """The bracket normalization constant is the same nonzero scalar across
    all basis pairs and signatures, and the one-form action has no kernel."""
    constants = set()
    for pq in ((3, 0), (2, 1), (2, 2)):
        space = MobiusSpace(*pq)
        c = upsilon_bracket_constant(space)
        assert c
        constants.add((c.a, c.b, c.q))
        n = space.n
        cols = []
        for j in range(n):
            stacked = []
            for i in range(n):
                co = upsilon_action(space, Vector.unit(n, j), Vector.unit(n, i))
                stacked.extend(sum(co.endomorphism().rows, ()))
            cols.append(Vector(stacked))
        assert rank(Matrix.from_columns(cols)) == n
    assert len(constants) == 1
    print("PASS criterion-5: one consistent nonzero bracket constant; action kernel is zero")


def test_criterion_6_extension_suite():
    """Flat model 3/3 + zero curvature + involution criterion; tailored
    fixtures fail exactly their intended condition; the restricted-trace
    identity holds exactly on symmetric pairs."""
    space = MobiusSpace(2, 1)
    ext = flat_model_extension(space)
    report = validate_extension(ext)
    assert report.passed
    assert all(curvature(ext, x, y).is_zero() for x, y in combinations(ext.pair.m_basis, 2))
    assert symmetry_criterion(ext, Vector.zero(3))

    n = 3
    pair = translation_pair(n)
    rank_deficient = Extension(
        space,
        pair,
        graded_alpha_rows(
            [
                pure_x(space, Vector.unit(n, 0)),
                pure_x(space, Vector.unit(n, 1)),
                pure_z(space, Vector.unit(n, 0)),
            ],
        ),
    )
    r2 = validate_extension(rank_deficient)
    assert r2.stabilizer_condition.passed
    assert not r2.quotient_condition.passed and r2.quotient_condition.witnesses == [n - 1]
    assert r2.equivariance_condition.passed

    perturbed_rows = [list(r) for r in ext.alpha.rows]
    delta = pure_z(space, Vector.unit(n, 0))
    perturbed_rows[n + 1] = [a + b for a, b in zip(perturbed_rows[n + 1], delta)]
    r3 = validate_extension(Extension(space, ext.pair, Matrix(perturbed_rows)))
    assert r3.stabilizer_condition.passed
    assert r3.quotient_condition.passed
    assert not r3.equivariance_condition.passed and r3.equivariance_condition.witnesses

    alg, h_idx, m_idx = so_k_pair(3, 1)
    from confsym.extension import SymmetricPair

    so3 = SymmetricPair(alg, h_idx, m_idx)
    assert metrizability_check(so3).passed
    rng = random.Random(606)
    for _ in range(10):
        p = rand_symmetric_pair(rng)
        assert metrizability_check(p).passed
        for i, x in enumerate(p.m_basis):
            for y in p.m_basis[i + 1 :]:
                assert killing_form(p.alg, x, y) - killing_form(p.alg, y, x) == Scalar(0)
    print("PASS criterion-6: extension suite (flat 3/3, tailored failures, trace identity)")


def _extract_origin_covector(space, s):
    """Recover Z from a matrix representing a symmetry at the origin (up to
    the projective sign)."""
    if s[0, 0] == Scalar(1):
        s = s.scale(-1)
    Z = Vector([-e for e in s.rows[0][1 : space.n + 1]])
    if s != make_symmetry(space, Z):
        return None
    return Z


def _realized_sets_agree(space, first, g1, second, g2):
    """The symmetries realized through (set, witness) pairs coincide."""
    if first.is_empty or second.is_empty:
        return first.is_empty and second.is_empty
    if first.dim != second.dim:
        return False
    g1_inv = isometry_inverse(space, g1)
    g2_inv = isometry_inverse(space, g2)
    for source, src_g_inv, src_g, target in (
        (first, g1_inv, g1, second),
        (second, g2_inv, g2, first),
    ):
        other_inv = g2_inv if source is first else g1_inv
        other_g = g2 if source is first else g1
        for z in source.points():
            realized = src_g @ make_symmetry(space, z) @ src_g_inv
            z_other = _extract_origin_covector(space, other_inv @ realized @ other_g)
            if z_other is None or not target.contains(z_other):
                return False
    return True


def test_criterion_7_witness_invariance():
    """find_symmetries output does not depend on the transitive witness: the
    realized symmetry sets agree for 20 random base points."""
    rng = random.Random(707)
    space = MobiusSpace(2, 1)
    u = space.line(["1", "1*r", "0", "0", "-1"])
    v = space.line(["1", "0", "0", "-1*r", "1"])
    checked = 0
    while checked < 20:
        w = NullLine(space.form, rand_null_vector(space, rng))
        if w == u or w == v:
            continue
        g1 = transitive_witness(space, w)
        h = stabilizer_element(space, rand_covector(rng, 3, 3), extra_flip=rng.random() < 0.5)
        g2 = g1 @ h
        rep1 = find_symmetries(space, u, v, w, witness=g1)
        rep2 = find_symmetries(space, u, v, w, witness=g2)
        assert rep1.orbit == rep2.orbit
        assert _realized_sets_agree(space, rep1.preserving, g1, rep2.preserving, g2)
        assert _realized_sets_agree(space, rep1.swapping, g1, rep2.swapping, g2)
        checked += 1
    print("PASS criterion-7: witness invariance on 20 random base points")
