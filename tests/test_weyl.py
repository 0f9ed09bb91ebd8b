import random
import re
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confsym import _core
from confsym.flatmodel import MAX_DIMENSION, MobiusSpace
from confsym.liealg import CoElement, _nonzero, upsilon_action
from confsym.linalg import Matrix, Vector, kernel, kernel_sparse, solve_affine
from confsym.scalars import MINUS_ONE, ONE, FieldMismatchError, Scalar
from confsym.serialize import weyl_from_dict, weyl_to_dict
import confsym.weyl as weyl_module
from confsym.weyl import (
    WeylTensor,
    _constraint_rows,
    _orbit_count,
    _orbit_of,
    _orbits,
    annihilator,
    co_action,
    co_basis,
    prolongation,
    random_weyl,
    weyl_space_basis,
)

from conftest import (
    ReferenceConstraintSystem,
    rand_covector,
    rand_so_matrix,
    reference_weyl_failure,
)


def weyl_dim_oracle(n: int) -> int:
    """Independent count: curvature-symmetric tensors minus independent trace
    conditions."""
    return n * n * (n * n - 1) // 12 - n * (n + 1) // 2


@pytest.mark.parametrize("pq", [(3, 0), (2, 1), (4, 0), (3, 1), (2, 2), (5, 0)])
def test_dimension_matches_oracle(pq):
    p, q = pq
    basis = weyl_space_basis(p, q)
    assert basis.dimension == weyl_dim_oracle(p + q)
    for W in basis.elements:
        W.validate()


def test_dimension_three_space_is_trivial():
    assert weyl_space_basis(3, 0).dimension == 0
    assert weyl_space_basis(2, 1).dimension == 0


def test_basis_elements_are_independent():
    basis = weyl_space_basis(4, 0)
    # canonical kernel basis: each element has a unit at its own free slot
    units = []
    for W in basis.elements:
        slots = [t for t, v in enumerate(W.components) if v == Scalar(1)]
        assert slots
        units.append(set(slots))
    for i, W in enumerate(basis.elements):
        own = units[i] - set().union(*(units[j] for j in range(len(units)) if j != i))
        assert own  # a coordinate only this element touches with a 1


def test_equal_weyl_tensors_hash_alike():
    """Equality reads the signature and the orbit values, not the field tag
    or the route a tensor was built by, and the hash reads the same."""
    W = random_weyl(4, 0, 3)
    others = [WeylTensor(4, 0, W.components, 3), weyl_from_dict(weyl_to_dict(W))]
    for other in others:
        assert other is not W and other == W
        assert hash(other) == hash(W)
    assert len({W, *others}) == 1


def test_co_action_zero_element(space22):
    W = random_weyl(2, 2, seed=1)
    zero = CoElement(Scalar(0), Matrix.zero(4, 4))
    assert co_action(zero, W).is_zero()


def test_scaling_acts_with_weight_minus_two():
    W = random_weyl(4, 0, seed=5)
    scaled = co_action(CoElement(Scalar(1), Matrix.zero(4, 4)), W)
    assert scaled == W.scale(-2)


def test_rotation_action_preserves_the_symmetry_class(space22, rng):
    W = random_weyl(2, 2, seed=3)
    for _ in range(5):
        A = rand_so_matrix(space22, rng, 3)
        out = co_action(CoElement(Scalar(0), A), W)
        out.validate()


def test_co_action_is_a_lie_algebra_action(space22, rng):
    W = random_weyl(2, 2, seed=11)
    for _ in range(5):
        c1 = CoElement(Scalar(rng.randint(-3, 3)), rand_so_matrix(space22, rng, 3))
        c2 = CoElement(Scalar(rng.randint(-3, 3)), rand_so_matrix(space22, rng, 3))
        f1 = c1.endomorphism()
        f2 = c2.endomorphism()
        comm = f1 @ f2 - f2 @ f1
        a = comm.trace() * Scalar(1, 0, 4)
        bracket_elt = CoElement(a, comm - Matrix.identity(4).scale(a))
        lhs = co_action(bracket_elt, W)
        rhs = co_action(c1, co_action(c2, W)) + co_action(c2, co_action(c1, W)).scale(-1)
        assert lhs == rhs


def test_annihilator_of_zero_is_everything():
    n = 4
    W = WeylTensor(4, 0, [Scalar(0)] * n**4)
    assert len(annihilator(W)) == n * (n - 1) // 2 + 1


def test_scaling_never_annihilates_nonzero_tensors():
    W = random_weyl(4, 0, seed=9)
    scaling_only = CoElement(Scalar(1), Matrix.zero(4, 4))
    assert not co_action(scaling_only, W).is_zero()
    for c in annihilator(W):
        # no annihilator element has a pure-scaling component alone
        if c.A.is_zero():
            assert not c.a


def reference_annihilator(W):
    """The former annihilator: the kernel vectors summed as dense
    CoElements over the former co_basis, one scaled basis element at a
    time."""
    n = W.n
    space = MobiusSpace(W.p, W.q, W.d)
    basis = [CoElement(Scalar(1), Matrix.zero(n, n))]
    for i in range(n):
        for j in range(i + 1, n):
            rows = [[Scalar(0)] * n for _ in range(n)]
            rows[i][j] = Scalar(space.signature.j_sign(j))
            rows[j][i] = -Scalar(space.signature.j_sign(i))
            basis.append(CoElement(Scalar(0), Matrix(rows)))
    columns = [Vector(co_action(c, W).values) for c in basis]
    out = []
    for v in kernel(Matrix.from_columns(columns)):
        elt = CoElement(Scalar(0), Matrix.zero(n, n))
        for coef, b in zip(v, basis):
            if coef:
                elt = elt + b.scale(coef)
        out.append(elt)
    return out


def test_annihilator_matches_the_dense_sum():
    """Each kernel vector mapped to its element in one pass gives the former
    dense sum's elements, entry for entry and to the `repr`, on zero,
    one-orbit and two-orbit tensors (the last also times sqrt 2), and on a
    three-orbit tensor whose annihilator has irrational entries."""
    r = Scalar(0, 1)
    cases = [WeylTensor._from_terms(4, 0, [(2, Scalar(1)), (4, -r), (20, Scalar(-1))], 2)]
    for p, q in [(4, 0), (3, 1), (2, 2), (5, 0), (3, 2)]:
        mid = len(_orbits(p + q)) // 2
        two = _lone_orbit(p, q, 1) + _lone_orbit(p, q, mid)
        cases += [_lone_orbit(p, q, None), _lone_orbit(p, q, mid), two, two.scale(r)]
    nontrivial = 0
    for W in cases:
        got, want = annihilator(W), reference_annihilator(W)
        assert got == want
        assert [repr((c.a, c.A.rows)) for c in got] == [repr((c.a, c.A.rows)) for c in want]
        nontrivial += bool(got)
    assert nontrivial == 16
    assert any(x.b for c in annihilator(cases[0]) for row in c.A.rows for x in row)


def _signed_block_group(p, q):
    """Signed permutations preserving the two diagonal blocks of J."""
    n = p + q

    def signed(block):
        for perm in permutations(block):
            for signs in product([1, -1], repeat=len(block)):
                yield perm, signs

    for (p1, s1) in signed(tuple(range(p))):
        for (p2, s2) in signed(tuple(range(p, n))):
            perm = dict(enumerate(p1)) | {p + i: v for i, v in enumerate(p2)}
            sign = dict(enumerate(s1)) | {p + i: v for i, v in enumerate(s2)}
            yield perm, sign


def _act(perm, sign, W):
    n = W.n
    inv = {v: k for k, v in perm.items()}
    comps = [Scalar(0)] * n**4
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    s = sign[i] * sign[j] * sign[k] * sign[l]
                    comps[((i * n + j) * n + k) * n + l] = Scalar(s) * W[
                        inv[i], inv[j], inv[k], inv[l]
                    ]
    return WeylTensor(W.p, W.q, comps, W.d, validate=False)


def _block_invariant_tensor(p=2, q=2):
    """Average basis elements over the signed block permutations until the
    result is nonzero."""
    n = p + q
    group = list(_signed_block_group(p, q))
    for W0 in weyl_space_basis(p, q).elements:
        cand = WeylTensor(p, q, [Scalar(0)] * n**4, validate=False)
        for perm, sign in group:
            cand = cand + _act(perm, sign, W0)
        if not cand.is_zero():
            return group, cand
    raise AssertionError("no basis element has a nonzero block average")


def test_annihilator_of_a_block_invariant_tensor():
    p, q = 2, 2
    n = 4
    group, avg = _block_invariant_tensor(p, q)
    avg.validate()
    for perm, sign in group:
        assert _act(perm, sign, avg) == avg

    ann = annihilator(avg)
    assert ann
    # every reported element really acts trivially (explicit cross-check)
    for c in ann:
        assert co_action(c, avg).is_zero()
    # the block rotations stabilize the averaged tensor and appear in the span
    space = MobiusSpace(p, q)
    coords = Matrix.from_columns(
        [Vector([c.a, *sum(c.A.rows, ())]) for c in ann]
    )
    for (i, j) in [(0, 1), (2, 3)]:
        rows = [[Scalar(0)] * n for _ in range(n)]
        rows[i][j] = Scalar(space.signature.j_sign(j))
        rows[j][i] = Scalar(-space.signature.j_sign(i))
        rot = CoElement(Scalar(0), Matrix(rows))
        assert co_action(rot, avg).is_zero()
        target = Vector([rot.a, *sum(rot.A.rows, ())])
        assert not solve_affine(coords, target).is_empty


def test_annihilator_is_a_subalgebra():
    _, avg = _block_invariant_tensor(2, 2)
    ann = annihilator(avg)
    assert len(ann) >= 2
    coords = Matrix.from_columns([Vector([c.a, *sum(c.A.rows, ())]) for c in ann])
    for x in ann:
        for y in ann:
            fx, fy = x.endomorphism(), y.endomorphism()
            comm = fx @ fy - fy @ fx
            a = comm.trace() * Scalar(1, 0, 4)
            elt = Vector([a, *sum((comm - Matrix.identity(4).scale(a)).rows, ())])
            assert not solve_affine(coords, elt).is_empty


def test_prolongation_of_zero_is_full():
    n = 4
    W = WeylTensor(4, 0, [Scalar(0)] * n**4)
    assert len(prolongation(W)) == n


@pytest.mark.parametrize("pq", [(4, 0), (3, 1), (2, 2), (5, 0)])
def test_prolongation_vanishes_on_random_nonzero_tensors(pq):
    for seed in range(3):
        W = random_weyl(*pq, seed=seed)
        assert not W.is_zero()
        assert prolongation(W) == []


def test_prolongation_vanishes_on_every_basis_element():
    for W in weyl_space_basis(4, 0).elements:
        assert prolongation(W) == []


def test_prolongation_constraint_is_linear_in_y(space22, rng):
    W = random_weyl(2, 2, seed=2)
    n = 4
    y1 = rand_covector(rng, n, 3)
    y2 = rand_covector(rng, n, 3)
    xi = Vector.unit(n, rng.randrange(n))
    lhs = co_action(upsilon_action(space22, y1 + y2, xi), W)
    rhs = co_action(upsilon_action(space22, y1, xi), W) + co_action(
        upsilon_action(space22, y2, xi), W
    )
    assert lhs == rhs


def test_random_weyl_is_deterministic_and_valid():
    a = random_weyl(4, 0, seed=42)
    b = random_weyl(4, 0, seed=42)
    assert a == b
    a.validate()
    assert not a.is_zero()
    assert random_weyl(4, 0, seed=43) != a


def test_random_weyl_rejects_trivial_space():
    with pytest.raises(ValueError):
        random_weyl(3, 0, seed=0)


_BELOW_ZERO = re.escape("need p >= 0 and q >= 0, got (-1, 5)")


@pytest.mark.parametrize(
    "make",
    [
        lambda: weyl_space_basis(-1, 5),
        lambda: random_weyl(-1, 5, 3),
        lambda: WeylTensor(-1, 5, [Scalar(0)] * 4**4),
    ],
    ids=["weyl_space_basis", "random_weyl", "WeylTensor"],
)
def test_weyl_layer_refuses_a_negative_signature(make):
    """(-1, 5) used to give the (0, 4) basis labelled (-1, 5)."""
    with pytest.raises(ValueError, match=f"^{_BELOW_ZERO}$"):
        make()


def test_flat_weyl_tensor_refuses_a_signature_below_three():
    with pytest.raises(ValueError, match=r"^need p \+ q >= 3$"):
        WeylTensor(2, 0, [Scalar(0)] * 2**4)


@pytest.mark.parametrize("d", [4, 1])
def test_weyl_space_basis_refuses_a_field_parameter_that_is_not_square_free(d):
    """The tensors were tagged Q(sqrt 4), where the irrational-looking
    value 1*r is the rational 2.  The check runs when the tensors over
    Q(sqrt d) are first made, so a warm signature refuses d = 4 too."""
    weyl_space_basis(4, 0)
    with pytest.raises(ValueError, match="field parameter must be a square-free integer"):
        weyl_space_basis(4, 0, d=d)
    with pytest.raises(ValueError, match="field parameter must be a square-free integer"):
        random_weyl(4, 0, 7, d=d)


def test_flat_weyl_tensor_refuses_a_field_parameter_that_is_not_square_free():
    """Over d = 4 every component (2 - 1*r) x is (2 - 2) x = 0, yet the
    tensor was built as nonzero, with a prolongation of dimension 0 where
    the zero tensor's has dimension 4."""
    x = Scalar(2, -1, 1, 4)
    comps = [x * c for c in weyl_space_basis(4, 0).elements[0].components]
    with pytest.raises(ValueError, match="^field parameter must be a square-free integer >= 2, got 4$"):
        WeylTensor(4, 0, comps, d=4)


def reference_random_weyl(p, q, seed, d=2):
    """The former random_weyl: the same draws, summed in Scalars orbit by
    orbit."""
    basis = weyl_module.weyl_space_basis(p, q, d)
    rng = random.Random(seed)
    while True:
        coeffs = [rng.randint(-9, 9) for _ in range(basis.dimension)]
        if any(coeffs):
            break
    values = [Scalar(0)] * len(_orbits(p + q))
    for coef, elt in zip(coeffs, basis.elements):
        if coef:
            c = Scalar(coef)
            for u, v in elt.terms:
                values[u] = values[u] + c * v
    return WeylTensor._from_terms(p, q, _nonzero(values), d)


def _slots(W):
    return [(u, x.a, x.b, x.q, x.d) for u, x in W.terms]


_SIGNATURES_4_TO_6 = [(p, n - p) for n in (4, 5, 6) for p in range(n, (n - 1) // 2, -1)]


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("pq", _SIGNATURES_4_TO_6)
def test_random_weyl_matches_the_scalar_sum(pq, d):
    """Summed on integer numerators, the tensor is the Scalar sum's, term
    for term and slot for slot."""
    for seed in range(50):
        got, want = random_weyl(*pq, seed, d), reference_random_weyl(*pq, seed, d)
        assert (got.p, got.q, got.d) == (want.p, want.q, want.d)
        assert _slots(got) == _slots(want)


@pytest.mark.parametrize("pq", [(4, 0), (3, 2)])
def test_random_weyl_sums_a_rational_basis_over_one_denominator(monkeypatch, pq):
    """The solved bases have entries +-1, so their common denominator is 1;
    basis tensors scaled by -1/2, 2/3, -3/4, ... pin the sum over a larger
    one."""
    basis = weyl_space_basis(*pq)
    scaled = tuple(W.scale(Scalar((-1) ** k * k, 0, k + 1)) for k, W in enumerate(basis.elements, 1))
    fake = weyl_module.WeylBasis(*pq, scaled)
    monkeypatch.setattr(weyl_module, "weyl_space_basis", lambda p, q, d=2: fake)
    for seed in range(20):
        got, want = random_weyl(*pq, seed), reference_random_weyl(*pq, seed)
        assert _slots(got) == _slots(want)
        assert any(x.q > 1 for _, x in got.terms)


def test_random_weyl_refuses_an_irrational_basis(monkeypatch):
    """The integer sum assumes a basis solved over Q.  Seed 0 draws 3 for
    the first basis tensor, the one given an irrational value here."""
    basis = weyl_space_basis(4, 0)
    first = basis.elements[0]
    (u, x), *rest = first.terms
    bent = WeylTensor._from_terms(4, 0, [(u, x + Scalar.sqrt_d(2))] + rest, 2)
    fake = weyl_module.WeylBasis(4, 0, (bent,) + basis.elements[1:])
    monkeypatch.setattr(weyl_module, "weyl_space_basis", lambda p, q, d=2: fake)
    with pytest.raises(ArithmeticError, match="irrational"):
        random_weyl(4, 0, 0)


def test_co_basis_spans_co(space22):
    basis = co_basis(space22)
    assert len(basis) == 4 * 3 // 2 + 1
    from confsym.liealg import so_block_condition

    for c in basis[1:]:
        assert so_block_condition(space22, c.A)


# -- the orbit table and the basis against the full system ---------------------


def _unflat(n, t):
    return t // n**3, t // n**2 % n, t // n % n, t % n


@pytest.mark.parametrize("n", range(3, 13))
def test_orbit_table(n):
    """Every flat index lies in exactly one orbit or is forced to zero, there
    is one orbit per unordered pair of planes, and the member signs satisfy
    W_jikl = -W_ijkl, W_ijlk = -W_ijkl and W_klij = W_ijkl.  Consecutive
    members are related by the generators of `_WALK`, permutation and sign:
    the flat constructor names the failing symmetry by that order.  Each
    orbit sits at the `_orbit_of` index of its canonical component, either
    pair first, and the largest member grows with that index.  The reader
    W[i, j, k, l], which finds the orbit through `_orbit_of`, agrees with
    the member lists at every flat index of a tensor with value u + 1 on
    orbit u.  The member lists hold flat indices, whose signs are the
    `_SIGNS` shared by every orbit."""
    orbits = [tuple(zip(members, weyl_module._SIGNS)) for members in _orbits(n)]
    planes = n * (n - 1) // 2
    assert len(orbits) == planes * (planes + 1) // 2
    members = [t for orbit in orbits for t, _ in orbit]
    assert len(members) == len(set(members))
    slot = {t: (u, s) for u, orbit in enumerate(orbits) for t, s in orbit}
    W = WeylTensor._from_terms(n, 0, [(u, Scalar(u + 1)) for u in range(len(orbits))], 2)
    flat = lambda i, j, k, l: ((i * n + j) * n + k) * n + l
    for t in range(n**4):
        i, j, k, l = _unflat(n, t)
        if i == j or k == l:
            assert t not in slot and W[i, j, k, l] == 0
        else:
            u, s = slot[t]
            assert W[i, j, k, l] == Scalar(s * (u + 1))
    assert [max(orbit) for orbit in orbits] == sorted(max(orbit) for orbit in orbits)
    for u, orbit in enumerate(orbits):
        i, j, k, l = _unflat(n, orbit[0][0])
        assert orbit[0][1] == 1 and i < j and k < l and (i, j) <= (k, l)
        assert _orbit_of(i, j, k, l) == _orbit_of(k, l, i, j) == u
        assert len(orbit) == (4 if (i, j) == (k, l) else 8)
        assert max(orbit)[1] == 1
        sign = dict(orbit)
        for t, s in orbit:
            i, j, k, l = _unflat(n, t)
            assert sign[flat(j, i, k, l)] == -s
            assert sign[flat(i, j, l, k)] == -s
            assert sign[flat(k, l, i, j)] == s
        for g, (t, s), (t2, s2) in zip(weyl_module._WALK, orbit, orbit[1:]):
            _, perm, step_sign = weyl_module._SYMMETRIES[g]
            idx = _unflat(n, t)
            assert _unflat(n, t2) == tuple(idx[x] for x in perm)
            assert s2 == s * step_sign


@pytest.mark.parametrize("pq", [(4, 0), (6, 6)])
def test_reader_refuses_an_index_out_of_range(pq):
    """W[i, j, k, l] with n or -1 at any one position raises IndexError
    instead of reading another component."""
    W = random_weyl(*pq, 1)
    n = W.n
    assert W[0, 1, 0, 1] == -W[1, 0, 0, 1] and W[0, 1, 0, 1]
    for bad in (n, -1):
        for position in range(4):
            ijkl = [0, 1, 0, 1]
            ijkl[position] = bad
            with pytest.raises(IndexError):
                W[tuple(ijkl)]


@pytest.mark.parametrize("n", range(3, 13))
def test_constraint_rows_have_strictly_increasing_orbit_columns(n):
    """The engine's row form: every row of `_constraint_rows` lists its
    orbit columns strictly increasing, each below the number of orbits."""
    count = len(_orbits(n))
    for p in (n, n // 2):
        for cols, vals in _constraint_rows(p, n - p):
            assert all(x < y for x, y in zip(cols, cols[1:])) and cols[-1] < count
            assert len(vals) == 2 * len(cols) and not any(vals[1::2])


@pytest.fixture
def cold_basis():
    """An empty basis cache before and after the test."""
    weyl_module._basis_cached.cache_clear()
    yield
    weyl_module._basis_cached.cache_clear()


@pytest.mark.parametrize("pq", [(4, 0), (3, 3), (7, 1), (6, 6)])
def test_cold_basis_builds_no_orbit_table(cold_basis, pq):
    """A cold basis writes its rows on orbit columns through `_orbit_of`
    and neither builds nor reads the orbit table."""
    before = _orbits.cache_info()
    weyl_space_basis(*pq)
    assert _orbits.cache_info() == before


@pytest.mark.parametrize("n", range(3, MAX_DIMENSION + 1))
def test_orbit_count_is_the_length_of_the_orbit_table(n):
    assert _orbit_count(n) == len(_orbits(n))


@pytest.mark.parametrize("seed", [0, 1])
def test_random_weyl_and_values_build_no_orbit_table(seed):
    """With a warm basis, a random tensor and its values are sized by
    `_orbit_count`, not by the orbit table."""
    weyl_space_basis(MAX_DIMENSION, 0)
    _orbits.cache_clear()
    before = _orbits.cache_info()
    W = random_weyl(MAX_DIMENSION, 0, seed)
    assert len(W.values) == _orbit_count(MAX_DIMENSION)
    assert _orbits.cache_info() == before


@pytest.mark.parametrize(
    "pq, distinct",
    [((4, 0), 11), ((2, 2), 11), ((5, 0), 20), ((3, 2), 20), ((6, 0), 36), ((3, 3), 36)],
)
def test_cold_basis_reduces_pairwise_distinct_rows(cold_basis, pq, distinct):
    """The rows whose kernel a cold basis is (`_constraint_rows`) hold no
    empty row and no two rows equal up to a scalar factor, and they are
    independent: the engine finds exactly as many pivots as rows."""
    rows = _constraint_rows(*pq)
    normalised = set()
    for cols, vals in rows:
        assert cols and not any(vals[1::2])
        lead = Fraction(vals[0])
        normalised.add((tuple(cols), tuple(Fraction(v) / lead for v in vals[::2])))
    assert len(rows) == len(normalised) == distinct
    count = len(_orbits(sum(pq)))
    pivots, _ = _core.rref_sparse(rows, 0, count)
    assert len(pivots) == len(rows)
    assert count - weyl_space_basis(*pq).dimension == distinct


def reference_constraint_rows(p, q):
    """The former five-family system on all n^4 components: antisymmetry in
    each pair, pair interchange, first Bianchi and J-trace."""
    n = p + q
    flat = lambda i, j, k, l: ((i * n + j) * n + k) * n + l
    rows = []
    for i, j, k, l in product(range(n), repeat=4):
        if i <= j:
            cols = [flat(i, i, k, l)] if i == j else [flat(i, j, k, l), flat(j, i, k, l)]
            rows.append((cols, [1, 0] * len(cols)))
    for k, l, i, j in product(range(n), repeat=4):
        if k <= l:
            cols = [flat(i, j, k, k)] if k == l else [flat(i, j, k, l), flat(i, j, l, k)]
            rows.append((cols, [1, 0] * len(cols)))
    for a in range(n * n):
        for b in range(a + 1, n * n):
            i, j = divmod(a, n)
            k, l = divmod(b, n)
            rows.append(([flat(i, j, k, l), flat(k, l, i, j)], [1, 0, -1, 0]))
    for i, j, k, l in product(range(n), repeat=4):
        if j < k < l:
            rows.append(([flat(i, j, k, l), flat(i, k, l, j), flat(i, l, j, k)], [1, 0] * 3))
    for j, l in product(range(n), repeat=2):
        rows.append(([flat(i, j, i, l) for i in range(n)],
                     [x for i in range(n) for x in (1 if i < p else -1, 0)]))
    return rows


def reference_basis(p, q, d):
    """The former basis: the flat components of each vector of the canonical
    kernel of the full system."""
    N = (p + q) ** 4
    return [
        Vector.from_terms(terms, N).entries
        for terms in kernel_sparse(reference_constraint_rows(p, q), N, d)
    ]


@pytest.mark.parametrize(
    "pq", [(3, 0), (2, 1), (4, 0), (3, 1), (2, 2), (5, 0), (4, 1), (3, 2), (6, 0), (3, 3), (2, 4)]
)
@pytest.mark.parametrize("d", [2, 3])
def test_basis_matches_the_full_system(pq, d):
    """Equal bases, down to the `repr` (field tag included) of every entry."""
    got = [W.components for W in weyl_space_basis(*pq, d).elements]
    want = reference_basis(*pq, d)
    assert got == want
    assert [[repr(x) for x in c] for c in got] == [[repr(x) for x in c] for c in want]


def test_basis_components_carry_the_field():
    """The field belongs to the tensor; its rational components carry none."""
    basis = weyl_space_basis(4, 0, d=3)
    assert basis.elements[0].d == 3
    assert {x.d for W in basis.elements for x in W.components} == {0}


def test_one_solve_serves_every_field(monkeypatch, cold_basis):
    """The basis values are rational, so the second field reuses the first
    field's kernel and only the tensors' d differs."""
    solves = []
    kernel_terms = weyl_module._kernel_terms
    monkeypatch.setattr(
        weyl_module, "_kernel_terms", lambda *args: solves.append(args) or kernel_terms(*args)
    )
    over2 = weyl_space_basis(4, 0, 2)
    over3 = weyl_space_basis(4, 0, 3)
    assert len(solves) == 1
    assert weyl_module._basis_cached.cache_info().misses == 1
    assert {W.d for W in over2.elements} == {2} and {W.d for W in over3.elements} == {3}
    assert [W.terms for W in over2.elements] == [W.terms for W in over3.elements]
    assert weyl_space_basis(4, 0, 2).elements is over2.elements


def test_cold_basis_is_checked_in_one_call_per_field(monkeypatch, cold_basis):
    """The solved kernel is checked by one `_ConstraintSystem.check` call
    per field, and no basis tensor through `WeylTensor.validate`."""
    calls = []
    for cls, name in ((WeylTensor, "validate"), (weyl_module._ConstraintSystem, "check")):
        method = getattr(cls, name)
        monkeypatch.setattr(cls, name, lambda *args, n=name, f=method: calls.append(n) or f(*args))
    for d in (2, 3, 2):
        assert weyl_space_basis(6, 0, d).dimension == 84
    assert calls == ["check", "check"]


@pytest.mark.parametrize("pq", [(6, 0), (12, 0)])
def test_cold_basis_reduction_takes_its_pinned_combine_steps(monkeypatch, cold_basis, pq):
    """A cold basis is written in closed form (`_kernel_terms`): it calls
    the engine 0 times and takes 0 `_combine` steps."""
    calls = []
    for name in ("_combine", "rref_sparse"):
        f = getattr(_core, name)
        monkeypatch.setattr(_core, name, lambda *args, n=name, f=f: calls.append(n) or f(*args))
    assert weyl_space_basis(*pq).dimension == weyl_dim_oracle(sum(pq))
    assert calls == []


@pytest.mark.parametrize("pq", [(p, n - p) for n in range(3, 13) for p in range(n + 1)])
def test_last_first_kernel_equals_the_kernel_of_the_rows_as_emitted(cold_basis, pq):
    """The reduced form is unique, so the kernel the engine solves from the
    reversed rows is, term by term, the kernel of the rows in emitted
    order, and both are the closed form that a cold basis holds."""
    solved, system, _ = weyl_module._basis_cached(*pq)
    ncols = len(system.index)
    assert list(solved) == kernel_sparse(system.rows, ncols, 0)
    assert list(solved) == kernel_sparse(system.rows[::-1], ncols, 0)


@pytest.mark.parametrize("pq", [(p, n - p) for n in range(3, 13) for p in range(n + 1)])
def test_closed_form_kernel_is_a_canonical_basis_of_plus_minus_ones(pq):
    """Each vector of `_kernel_terms` holds only the shared ONE and
    MINUS_ONE, in column order, with its unit last at its own free column
    and no term at another vector's free column; there are as many
    vectors as the dimension formula says."""
    vectors = weyl_module._kernel_terms(*pq)
    assert len(vectors) == weyl_dim_oracle(sum(pq))
    free = [terms[-1][0] for terms in vectors]
    assert free == sorted(set(free))
    free_set = set(free)
    for terms in vectors:
        cols = [u for u, _ in terms]
        assert cols == sorted(set(cols))
        assert all(x is ONE or x is MINUS_ONE for _, x in terms)
        assert terms[-1][1] is ONE
        assert free_set.isdisjoint(cols[:-1])


@pytest.mark.parametrize("pq", [(6, 0), (3, 3), (12, 0)])
def test_cold_basis_constructs_no_scalar(monkeypatch, cold_basis, pq):
    """A cold basis, over two fields, holds only shared +-1 values: it
    builds no `Scalar`."""
    built = []
    init = Scalar.__init__
    monkeypatch.setattr(Scalar, "__init__", lambda *a, **k: built.append(1) or init(*a, **k))
    for d in (2, 3):
        assert weyl_space_basis(*pq, d).dimension == weyl_dim_oracle(sum(pq))
    assert built == []


def test_reads_of_one_signature_build_one_constraint_system():
    """`validate` without a system, as the Weyl file reader calls it, reads
    the one system cached per signature."""
    data = weyl_to_dict(random_weyl(5, 0, 1))
    weyl_module._constraint_system.cache_clear()
    first, second = weyl_from_dict(data), weyl_from_dict(data)
    assert first == second
    info = weyl_module._constraint_system.cache_info()
    assert (info.misses, info.hits) == (1, 1)


# -- validate against the former hand-written checks --------------------------


def reference_violations(p, q, comps) -> set[str]:
    """The former quadruple-loop validator, kept as an independent reference:
    the set of symmetry families that the flat components violate."""
    n = p + q
    w = lambda ijkl: comps[((ijkl[0] * n + ijkl[1]) * n + ijkl[2]) * n + ijkl[3]]
    out = set()
    for i, j, k, l in product(range(n), repeat=4):
        if w((i, j, k, l)) != -w((j, i, k, l)):
            out.add("antisymmetry (12)")
        if w((i, j, k, l)) != -w((i, j, l, k)):
            out.add("antisymmetry (34)")
        if w((i, j, k, l)) != w((k, l, i, j)):
            out.add("pair symmetry")
        if w((i, j, k, l)) + w((i, k, l, j)) + w((i, l, j, k)):
            out.add("first Bianchi")
    for j, l in product(range(n), repeat=2):
        tr = Scalar(0)
        for i in range(n):
            tr = tr + Scalar(1 if i < p else -1) * w((i, j, i, l))
        if tr:
            out.add("trace-free condition")
    return out


def _symmetric_orbit(n, t):
    """{component: sign} of the images of component t under the pair
    antisymmetries and the pair interchange (later images overwrite)."""
    i, j, k, l = t // n**3, t // n**2 % n, t // n % n, t % n
    flat = lambda a, b, c, e: ((a * n + b) * n + c) * n + e
    images = {}
    for idx, s in (
        ((i, j, k, l), 1), ((j, i, k, l), -1), ((i, j, l, k), -1), ((j, i, l, k), 1),
        ((k, l, i, j), 1), ((l, k, i, j), -1), ((k, l, j, i), -1), ((l, k, j, i), 1),
    ):
        images[flat(*idx)] = s
    return images


_PERTURBATIONS = st.builds(
    Scalar, st.integers(-3, 3), st.sampled_from([0, 0, 1, -2]), st.integers(1, 3)
).filter(bool)


@given(
    pq=st.sampled_from([(4, 0), (2, 2), (3, 1), (5, 0)]),
    seed=st.integers(0, 40),
    kind=st.sampled_from(["components", "orbits", "weyl"]),
    data=st.data(),
)
@settings(max_examples=120, deadline=None)
def test_validate_agrees_with_the_reference_validator(pq, seed, kind, data):
    """Corrupt 1-3 components (or symmetric orbits of components, or add a
    valid tensor) of a random Weyl tensor: the flat entry point and the
    row-based validator accept exactly when the reference does, and the
    message names a family that the reference finds violated."""
    p, q = pq
    n = p + q
    comps = list(random_weyl(p, q, seed).components)
    for _ in range(data.draw(st.integers(1, 3))):
        c = data.draw(_PERTURBATIONS)
        if kind == "weyl":
            other = random_weyl(p, q, data.draw(st.integers(100, 140)))
            comps = [x + c * y for x, y in zip(comps, other.components)]
            continue
        t = data.draw(st.integers(0, n**4 - 1))
        spots = {t: 1} if kind == "components" else _symmetric_orbit(n, t)
        for u, s in spots.items():
            comps[u] = comps[u] + c * Scalar(s)
    want = reference_violations(p, q, comps)
    try:
        WeylTensor(p, q, comps)
    except ValueError as exc:
        assert want, f"rejected a tensor the reference accepts: {exc}"
        assert any(str(exc).startswith(family + " fails") for family in want), (exc, want)
    else:
        assert not want, f"accepted a tensor violating {want}"


@pytest.mark.parametrize(
    "spots, message",
    [
        ([(0, 0, 1, 2), (0, 1, 2, 2)], "antisymmetry (12) fails at (0, 0, 1, 2)"),
        ([(1, 1, 0, 1), (0, 1, 2, 2)], "antisymmetry (34) fails at (0, 1, 2, 2)"),
        ([(1, 2, 3, 3), (2, 2, 0, 1)], "antisymmetry (34) fails at (1, 2, 3, 3)"),
        ([(3, 3, 1, 1), (3, 2, 0, 0)], "antisymmetry (34) fails at (3, 2, 0, 0)"),
    ],
)
def test_flat_constructor_names_the_first_forced_zero_in_flat_order(spots, message):
    """One nonzero where i = j and one where k = l: the flat constructor
    names the one that comes first in flat order."""
    n = 4
    comps = [Scalar(0)] * n**4
    for i, j, k, l in spots:
        comps[((i * n + j) * n + k) * n + l] = Scalar(1)
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        WeylTensor(4, 0, comps, validate=False)


def test_validate_names_each_family():
    n = 4
    flat = lambda i, j, k, l: ((i * n + j) * n + k) * n + l
    cases = {
        "antisymmetry (12)": {flat(0, 0, 1, 2): 1},
        "antisymmetry (34)": {flat(0, 1, 2, 2): 1, flat(1, 0, 2, 2): -1},
        "pair symmetry": {flat(0, 1, 2, 3): 1, flat(1, 0, 2, 3): -1,
                          flat(0, 1, 3, 2): -1, flat(1, 0, 3, 2): 1},
        "first Bianchi": _symmetric_orbit(n, flat(0, 1, 2, 3)),
        "trace-free condition": _symmetric_orbit(n, flat(0, 1, 0, 1)),
    }
    for family, spots in cases.items():
        comps = [Scalar(0)] * n**4
        for t, c in spots.items():
            comps[t] = Scalar(c)
        with pytest.raises(ValueError, match="^" + re.escape(family) + " fails"):
            WeylTensor(4, 0, comps)
        assert family in reference_violations(4, 0, comps)
        # A tensor is stored by orbit, so the flat entry point refuses
        # components that break the orbit symmetries even unvalidated.
        if family in {name for name, _, _ in weyl_module._SYMMETRIES}:
            with pytest.raises(ValueError, match="^" + re.escape(family) + " fails"):
                WeylTensor(4, 0, comps, validate=False)
        else:
            WeylTensor(4, 0, comps, validate=False)


def test_describe_names_the_family_on_both_sides_of_the_bianchi_rows():
    """The C(n, 4) Bianchi rows come first: the last of them and the first
    trace row are named by their own families."""
    for pq in [(4, 0), (3, 2), (6, 6)]:
        n = sum(pq)
        system = weyl_module._ConstraintSystem(*pq)
        assert len(_constraint_rows(*pq)) == len(system.rows) == comb(n, 4) + n * (n + 1) // 2
        last = comb(n, 4) - 1
        assert system.describe(last) == f"first Bianchi fails at {(n - 4, n - 3, n - 2, n - 1)}"
        assert system.describe(last + 1) == "trace-free condition fails at (j, l) = (0, 0)"


def _orbit_rows(system):
    """The rows of a constraint system on the orbit values, as dicts
    {orbit: coefficient}."""
    rows = [{} for _ in system.rows]
    for u, entries in enumerate(system.index):
        for r, coef in entries:
            rows[r][u] = coef
    return rows


def _up_to_factor(row):
    """A row divided by its first coefficient."""
    lead = row[min(row)]
    return tuple(sorted((u, Fraction(c, lead)) for u, c in row.items()))


@pytest.mark.parametrize(
    "pq", sorted({(p, n - p) for n in range(3, 13) for p in (n, n - n // 2, 1)})
)
def test_constraint_rows_are_the_distinct_rows_of_the_full_families(pq):
    """Certificate for `_constraint_rows`: walking the former full families in
    order, every row is empty on the orbit values, or is the next kept row
    (same coefficients, same message), or a rational multiple of an earlier
    kept row.  The kept rows are nonempty, pairwise distinct up to a factor
    and number C(n, 4) + n (n + 1) / 2."""
    p, q = pq
    n = p + q
    kept = weyl_module._ConstraintSystem(p, q)
    full = ReferenceConstraintSystem(p, q)
    rows = _orbit_rows(kept)
    assert len(rows) == comb(n, 4) + n * (n + 1) // 2
    assert all(rows) and len({_up_to_factor(row) for row in rows}) == len(rows)
    earlier = set()
    k = 0
    for r, row in enumerate(_orbit_rows(full)):
        if not row:
            continue
        if k < len(rows) and row == rows[k]:
            assert kept.describe(k) == full.describe(r)
            earlier.add(_up_to_factor(row))
            k += 1
        else:
            assert _up_to_factor(row) in earlier, full.describe(r)
    assert k == len(rows)


@pytest.mark.parametrize("pq", [(4, 0), (2, 2), (5, 0), (3, 2)])
@pytest.mark.parametrize("c", [Scalar(1), Scalar(-1, 0, 3), Scalar(0, 1), Scalar(2, -1, 3)])
def test_validate_names_the_first_failing_row_of_the_full_families(pq, c):
    """A basis tensor with one orbit value changed by c: `validate` and
    `weyl_from_dict` raise the message of the first row of the former full
    families that it breaks, in both families."""
    p, q = pq
    basis = weyl_space_basis(p, q).elements
    families = set()
    for u in range(len(_orbits(p + q))):
        values = list(basis[u % len(basis)].values)
        values[u] = values[u] + c
        W = WeylTensor._from_terms(p, q, _nonzero(values), 2)
        want = reference_weyl_failure(W)
        for check in (W.validate, lambda: weyl_from_dict(weyl_to_dict(W))):
            with pytest.raises(ValueError) as exc:
                check()
            assert str(exc.value) == want
        families.add(want.split(" fails")[0])
    assert families == {"first Bianchi", "trace-free condition"}


def _corrupt_kernel(monkeypatch, k, change):
    """Make weyl._kernel_terms give its k-th vector the terms of
    change(values), where values maps each column of the vector's terms to
    its value: a new column becomes a term in column order, and a column
    mapped to zero loses its term."""
    kernel_terms = weyl_module._kernel_terms

    def corrupted(p, q):
        out = kernel_terms(p, q)
        out[k] = sorted((u, x) for u, x in change(dict(out[k])).items() if x)
        return out

    monkeypatch.setattr(weyl_module, "_kernel_terms", corrupted)


@pytest.mark.parametrize("pq", [(4, 0), (2, 2), (5, 0), (3, 2)])
@pytest.mark.parametrize("c", [Scalar(1), Scalar(-1, 0, 3), Scalar(0, 1)])
def test_basis_check_catches_a_corrupted_kernel_entry(monkeypatch, cold_basis, pq, c):
    """Adding c to any one orbit value of a kernel vector breaks a constraint
    row (every orbit lies on one), and the basis check names the first
    Bianchi or trace-free failure, one that the reference validator finds.
    Where the value is zero the vector has no term there, and one is
    inserted."""
    p, q = pq
    clean = weyl_space_basis(p, q).elements
    inserted = 0
    for u in range(len(_orbits(p + q))):
        k = u % len(clean)
        values = list(clean[k].values)
        inserted += not values[u]
        weyl_module._basis_cached.cache_clear()
        _corrupt_kernel(monkeypatch, k, lambda v: v | {u: v.get(u, Scalar(0)) + c})
        with pytest.raises(ValueError) as exc:
            weyl_space_basis(p, q)
        monkeypatch.undo()
        values[u] = values[u] + c
        want = reference_violations(p, q, _orbital(p, q, values).components)
        assert want <= {"first Bianchi", "trace-free condition"}
        assert any(str(exc.value).startswith(family + " fails at ") for family in want), exc.value
    assert 0 < inserted < len(_orbits(p + q))


@pytest.mark.parametrize("pq", [(4, 0), (3, 1), (5, 0)])
def test_basis_check_catches_a_kernel_entry_from_another_field(monkeypatch, cold_basis, pq):
    """Two orbit values of a d = 2 kernel vector replaced by sqrt 3: the
    basis check names the first of them."""
    p, q = pq
    n = p + q
    orbits = _orbits(n)
    first, second = 2, len(orbits) - 1
    odd = Scalar(0, 1, 1, 3)
    _corrupt_kernel(monkeypatch, 0, lambda v: v | {first: odd, second: odd})
    component = _unflat(n, orbits[first][0])
    message = f"component {component} lies in Q(sqrt 3), not in the tensor's field Q(sqrt 2)"
    with pytest.raises(ValueError, match=re.escape(message)):
        weyl_space_basis(p, q)


def test_validate_rejects_components_from_another_field():
    # A valid tensor over Q(sqrt 3) must not pass as one over Q(sqrt 2).
    W = random_weyl(4, 0, seed=7, d=3)
    comps = [Scalar(0, 1, 1, d=3) * c for c in W.components]
    WeylTensor(4, 0, comps, d=3)
    with pytest.raises(ValueError, match="field"):
        WeylTensor(4, 0, comps, d=2)


# -- co_action and prolongation against the former Scalar loops ----------------


def reference_co_action(c: CoElement, W: WeylTensor) -> WeylTensor:
    """The former co_action, one Scalar operation per term, kept as an
    independent reference."""
    n = W.n
    F = c.endomorphism()
    nz = [(r, m, F[r, m]) for r in range(n) for m in range(n) if F[r, m]]
    n2 = n * n
    n3 = n2 * n
    raised = list(W.components)
    for m in range(n):
        if m >= W.p:
            for t in range(n3):
                if raised[m * n3 + t]:
                    raised[m * n3 + t] = -raised[m * n3 + t]
    out = [Scalar(0)] * (n * n3)
    for r, m, f in nz:
        for t in range(n3):
            v = raised[m * n3 + t]
            if v:
                out[r * n3 + t] = out[r * n3 + t] + f * v
    for m, j, f in nz:
        for i in range(n):
            for t in range(n2):
                v = raised[(i * n + m) * n2 + t]
                if v:
                    out[(i * n + j) * n2 + t] = out[(i * n + j) * n2 + t] - v * f
    for m, k, f in nz:
        for a in range(n2):
            for t in range(n):
                v = raised[(a * n + m) * n + t]
                if v:
                    out[(a * n + k) * n + t] = out[(a * n + k) * n + t] - v * f
    for m, l, f in nz:
        for a in range(n3):
            v = raised[a * n + m]
            if v:
                out[a * n + l] = out[a * n + l] - v * f
    for i in range(n):
        if i >= W.p:
            for t in range(n3):
                if out[i * n3 + t]:
                    out[i * n3 + t] = -out[i * n3 + t]
    return WeylTensor(W.p, W.q, out, W.d, validate=False)


def reference_prolongation(W: WeylTensor) -> list[Vector]:
    """The former prolongation: the kernel of the whole stacked n^5 x n
    system, built from reference_co_action."""
    space = MobiusSpace(W.p, W.q, W.d)
    n = W.n
    columns = []
    for j in range(n):
        stacked = []
        for i in range(n):
            c = upsilon_action(space, Vector.unit(n, j), Vector.unit(n, i))
            stacked.extend(reference_co_action(c, W).components)
        columns.append(Vector(stacked))
    return kernel(Matrix.from_columns(columns))


def assert_same_scalars(got, want):
    """Equal values with identical text; irrational entries keep their field
    tag (a rational entry's tag now follows the tensor's d)."""
    assert got == want
    assert [str(x) for x in got] == [str(x) for x in want]
    assert [x.d for x in got if x.b] == [x.d for x in want if x.b]


_SIGNATURES = st.sampled_from([(4, 0), (3, 1), (2, 2), (5, 0)])
_IRRATIONAL = st.builds(Scalar, st.integers(-3, 3), st.integers(1, 3), st.integers(1, 3))


def _orbital(p, q, values):
    """The tensor with one value per orbit of `_orbits`, built unvalidated
    through the flat entry point."""
    n = p + q
    comps = [Scalar(0)] * n**4
    for members, x in zip(_orbits(n), values):
        for t, s in zip(members, weyl_module._SIGNS):
            comps[t] = x * Scalar(s)
    return WeylTensor(p, q, comps, validate=False)


@st.composite
def _tensors(draw):
    """random_weyl tensors, their scalings by 1 + sqrt 2, W = 0, and tensors
    with one to three nonzero orbit values (orbital but not Weyl-type; their
    first xi-block can fall short of full rank)."""
    p, q = draw(_SIGNATURES)
    n = p + q
    kind = draw(st.sampled_from(["weyl", "irrational", "zero", "sparse"]))
    if kind == "zero":
        return WeylTensor(p, q, [Scalar(0)] * n**4, validate=False)
    if kind == "sparse":
        values = [Scalar(0)] * len(_orbits(n))
        for _ in range(draw(st.integers(1, 3))):
            values[draw(st.integers(0, len(values) - 1))] = draw(_PERTURBATIONS)
        return _orbital(p, q, values)
    W = random_weyl(p, q, draw(st.integers(0, 10**6)))
    return W.scale(Scalar(1, 1)) if kind == "irrational" else W


@st.composite
def _co_elements(draw, p, q, d=2):
    """a id + A with a and A's entries in Q(sqrt d), irrational unless drawn 0."""
    n = p + q
    space = MobiusSpace(p, q, d)
    scalar = st.builds(Scalar, st.integers(-3, 3), st.integers(-2, 2), st.integers(1, 3), st.just(d))
    rows = [[Scalar(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            x = draw(scalar)
            rows[i][j] = x * Scalar(space.signature.j_sign(j))
            rows[j][i] = -x * Scalar(space.signature.j_sign(i))
    return CoElement(draw(scalar), Matrix(rows))


@given(W=_tensors(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_co_action_matches_the_reference(W, data):
    c = data.draw(_co_elements(W.p, W.q))
    got = co_action(c, W)
    want = reference_co_action(c, W)
    assert got.d == want.d and (got.p, got.q) == (want.p, want.q)
    assert_same_scalars(got.components, want.components)


@given(W=_tensors())
@settings(max_examples=40, deadline=None)
def test_prolongation_matches_the_reference(W):
    got = prolongation(W)
    want = reference_prolongation(W)
    assert len(got) == len(want)
    for y, z in zip(got, want):
        assert_same_scalars(y.entries, z.entries)
    if W.is_zero():
        assert len(got) == W.n


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_upsilon_of_unit_vectors_is_one_signed_co_basis_element(n):
    """upsilon_action(e_j, e_i) is the pure scaling when i = j, and
    otherwise J_j, or -J_j when i > j, times the `co_basis` element of
    {i, j}: so each column of the prolongation system is +- the action of
    one `co_basis` element on W."""
    pairs = {pair: 1 + k for k, pair in enumerate(combinations(range(n), 2))}
    for p in range(n + 1):
        space = MobiusSpace(p, n - p)
        basis = co_basis(space)
        for i in range(n):
            for j in range(n):
                got = upsilon_action(space, Vector.unit(n, j), Vector.unit(n, i))
                if i == j:
                    assert got == CoElement(Scalar(1), Matrix.zero(n, n))
                else:
                    sign = space.signature.j_sign(j) * (1 if i < j else -1)
                    assert got == basis[pairs[min(i, j), max(i, j)]].scale(sign)


@given(pq=_SIGNATURES, seed=st.integers(0, 10**6), data=st.data())
@settings(max_examples=20, deadline=None)
def test_co_action_rejects_mixed_fields(pq, seed, data):
    W = random_weyl(*pq, seed).scale(Scalar(1, 1))
    c = data.draw(_co_elements(*pq, d=3))
    if not any(x.b for x in [c.a, *sum(c.A.rows, ())]):
        c = CoElement(c.a + Scalar.sqrt_d(3), c.A)
    with pytest.raises(FieldMismatchError):
        reference_co_action(c, W)
    with pytest.raises(FieldMismatchError):
        co_action(c, W)


@given(W=_tensors(), data=st.data())
@settings(max_examples=20, deadline=None)
def test_co_action_refuses_endomorphisms_outside_so(W, data):
    """An A outside so(p, q) does not commute with the component symmetries,
    so its image is not a Weyl tensor: co_action refuses it."""
    n = W.n
    c = data.draw(_co_elements(W.p, W.q))
    r, m = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    rows = [list(row) for row in c.A.rows]
    rows[r][m] = rows[r][m] + data.draw(_PERTURBATIONS)
    with pytest.raises(ValueError, match=re.escape("not in so(p, q)")):
        co_action(CoElement(c.a, Matrix(rows)), W)


@pytest.mark.parametrize("pq", [(3, 0), (2, 1), (1, 3), (0, 4), (3, 3), (6, 0)])
def test_co_action_matches_the_reference_on_the_prolongation_elements(pq):
    """Every upsilon_action(e_j, e_i) that `prolongation` hands to
    co_action, the pure scaling at i = j included, on signatures that
    `_SIGNATURES` never draws (n = 3, q > p, n = 6).  The Weyl space is
    trivial at n = 3, so there the tensor is orbital with seeded values."""
    p, q = pq
    n = p + q
    if n > 3:
        W = random_weyl(p, q, seed=n)
    else:
        rng = random.Random(n)
        W = _orbital(p, q, [Scalar(rng.randint(-3, 3)) for _ in _orbits(n)])
    space = MobiusSpace(p, q)
    units = [Vector.unit(n, j) for j in range(n)]
    for T in (W, W.scale(Scalar(1, 1))):
        for i in range(n):
            for j in range(n):
                c = upsilon_action(space, units[j], units[i])
                assert c.A.is_zero() == (i == j)
                got = co_action(c, T)
                assert got.d == T.d
                assert_same_scalars(got.components, reference_co_action(c, T).components)


def test_co_action_refuses_a_scaling_from_another_field():
    """A scaling by sqrt 3 on a rational tensor tagged Q(sqrt 2) has no
    value in Q(sqrt 2): co_action refuses it instead of tagging 6 sqrt 3 as
    Q(sqrt 2)."""
    W = random_weyl(4, 0, 1)
    with pytest.raises(FieldMismatchError):
        co_action(CoElement(Scalar.sqrt_d(3), Matrix.zero(4, 4)), W)
    assert co_action(CoElement(Scalar.sqrt_d(2), Matrix.zero(4, 4)), W) == W.scale(Scalar(0, -2))


def test_scale_refuses_a_scalar_from_another_field():
    W = random_weyl(4, 0, 1)
    with pytest.raises(FieldMismatchError):
        W.scale(Scalar.sqrt_d(3))
    with pytest.raises(FieldMismatchError):
        random_weyl(4, 0, 1, d=3).scale(Scalar(1, 1))
    assert W.scale(Scalar.sqrt_d(2)).terms == tuple((u, Scalar(0, 1) * x) for u, x in W.terms)


def test_add_refuses_a_value_from_another_field():
    """A value in Q(sqrt 3) added to a tensor tagged Q(sqrt 2) would be kept
    under the wrong tag; the sum refuses it, as `scale` does."""
    W = random_weyl(4, 0, 1, 2)
    with pytest.raises(FieldMismatchError):
        W + random_weyl(4, 0, 1, 3).scale(Scalar.sqrt_d(3))
    # Rational values carry no field, so tensors of either tag add.
    assert W + random_weyl(4, 0, 1, 3) == W.scale(2)
    assert (W + W.scale(Scalar.sqrt_d(2))).terms == W.scale(Scalar(1, 1)).terms


def _lone_orbit(p, q, u):
    """The tensor whose only nonzero orbit value is a 1 on orbit u (zero
    when u is None)."""
    return _orbital(p, q, [Scalar(int(v == u)) for v in range(len(_orbits(p + q)))])


def _blocks_built(monkeypatch, W):
    """prolongation(W), and the number of xi-blocks it built."""
    n = W.n
    calls = []
    monkeypatch.setattr(weyl_module, "co_action", lambda c, T: calls.append(c) or co_action(c, T))
    out = weyl_module.prolongation(W)
    monkeypatch.undo()
    assert len(calls) % n == 0
    return out, len(calls) // n


@pytest.mark.parametrize(
    "pq, component, blocks",
    [((4, 0), None, 1), ((5, 0), None, 1), ((5, 0), (2, 3, 2, 3), 3), ((3, 1), (0, 1, 0, 1), 2)],
)
def test_prolongation_stops_at_the_first_full_rank_block(monkeypatch, pq, component, blocks):
    """A random Weyl tensor reaches rank n in its first xi-block.  The lone
    orbit of W_2323 at (5, 0) needs three blocks, that of W_0101 at (3, 1)
    two: the remaining blocks are never built."""
    p, q = pq
    if component is None:
        W = random_weyl(p, q, seed=3)
    else:
        W = _lone_orbit(p, q, _orbit_of(*component))
    assert _blocks_built(monkeypatch, W) == ([], blocks)
    assert reference_prolongation(W) == []


@pytest.mark.parametrize(
    "pq, blocks", [((4, 0), {1: 12, 2: 9}), ((3, 1), {1: 12, 2: 9}), ((5, 0), {1: 21, 2: 31, 3: 3})]
)
def test_lone_orbits_stop_after_the_measured_number_of_blocks(monkeypatch, pq, blocks):
    """Every lone-orbit tensor has a trivial prolongation; the count of those
    that stop after one, two and three xi-blocks is pinned."""
    counts = {}
    for u in range(len(_orbits(sum(pq)))):
        pro, built = _blocks_built(monkeypatch, _lone_orbit(*pq, u))
        assert pro == []
        counts[built] = counts.get(built, 0) + 1
    assert counts == blocks


@pytest.mark.parametrize("pq", [(6, 0), (4, 2), (3, 3)])
@pytest.mark.parametrize("orbit, blocks", [(None, 1), (0, 2), (20, 3)])
def test_prolongation_stops_the_engine_at_full_column_rank(monkeypatch, pq, orbit, blocks):
    """Each block's kernel call tells the engine the n columns.  A random
    tensor fills them within its first block's rows and the rest are never
    read; the lone orbits 0 and 20 fall short on the first block, so the stop
    fires on a later call.  The answer is the reference's either way."""
    p, q = pq
    n = p + q
    W = random_weyl(p, q, seed=11) if orbit is None else _lone_orbit(p, q, orbit)
    calls = []
    rref = _core.rref_sparse

    def counted(rows, d, ncols):
        read = [0]

        def reader():
            for row in rows:
                read[0] += 1
                yield row

        out = rref(reader(), d, ncols)
        calls.append((ncols, len(out[0]), read[0], len(rows)))
        return out

    monkeypatch.setattr(_core, "rref_sparse", counted)
    assert prolongation(W) == []
    monkeypatch.undo()
    assert reference_prolongation(W) == []
    assert len(calls) == blocks
    assert all(ncols == n for ncols, *_ in calls)
    assert [rank == n for _, rank, _, _ in calls] == [False] * (blocks - 1) + [True]
    if orbit is None:
        _, _, read, given_rows = calls[0]
        assert read < given_rows


@pytest.mark.parametrize("pq", [(4, 0), (3, 1), (2, 2), (5, 0), (3, 2)])
def test_prolongation_bridges_one_row_per_orbit(monkeypatch, pq):
    """Each xi-block sends one row per orbit to the bridge."""
    p, q = pq
    n = p + q
    sizes = []
    bridge = weyl_module.sparse_rows_from_scalars
    monkeypatch.setattr(
        weyl_module, "sparse_rows_from_scalars", lambda rows, d: sizes.append(len(rows)) or bridge(rows, d)
    )
    W = random_weyl(p, q, seed=5)
    assert prolongation(W) == []
    assert sizes and set(sizes) == {len(_orbits(n))}


@pytest.mark.parametrize("pq", [(MAX_DIMENSION, 0), (MAX_DIMENSION // 2, MAX_DIMENSION // 2)])
def test_prolongation_at_the_largest_dimension(pq):
    """At the largest n the CLI accepts, the lone orbits 0 and 20 have a
    trivial prolongation, and that of W = 0 is the n unit covectors."""
    n = sum(pq)
    for u in (0, 20):
        assert prolongation(_lone_orbit(*pq, u)) == []
    zero = WeylTensor(*pq, [Scalar(0)] * n**4, validate=False)
    assert prolongation(zero) == [Vector.unit(n, j) for j in range(n)]


def _sparse_up_to_factor(row):
    """A sparse Z[sqrt d] row divided by its first nonzero numerator."""
    cols, vals = row
    lead = Fraction(next(v for v in vals if v))
    return tuple(cols), tuple(v / lead for v in vals)


@pytest.mark.parametrize(
    "pq, u, v",
    [((5, 0), 0, 5), ((5, 0), 0, 12), ((5, 0), 0, 15), ((3, 3), 0, 5), ((3, 3), 0, 15),
     ((3, 3), 20, 41), ((3, 3), 20, 44), ((3, 3), 20, 53)],
)
def test_prolongation_of_two_lone_orbits_matches_the_reference(monkeypatch, pq, u, v):
    """The sum of two lone orbits needs more than one xi-block, and a later
    block repeats a row of an earlier one up to a factor: every row goes to
    the engine as the bridge gives it, and the answer is the reference's."""
    p, q = pq
    W = _lone_orbit(p, q, u) + _lone_orbit(p, q, v)
    blocks = []
    bridge = weyl_module.sparse_rows_from_scalars
    monkeypatch.setattr(
        weyl_module, "sparse_rows_from_scalars", lambda rows, d: blocks.append(bridge(rows, d)) or blocks[-1]
    )
    assert prolongation(W) == reference_prolongation(W)
    assert len(blocks) >= 2
    earlier = {_sparse_up_to_factor(row) for row in blocks[0]}
    assert any(_sparse_up_to_factor(row) in earlier for row in blocks[1])
