"""The exact row-reduction engine, checked against a naive dense RREF."""

import copy
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confsym import _core, weyl

from conftest import reference_rref


def random_system(seed, nrows=40, ncols=25, density=0.3, span=9, d=2):
    rng = random.Random(seed)
    rows = []
    for _ in range(nrows):
        cols = sorted(rng.sample(range(ncols), max(1, int(ncols * density))))
        vals = []
        for _ in cols:
            vals.append(rng.randint(-span, span))
            vals.append(rng.randint(-span, span))
        rows.append((cols, vals))
    return rows


def test_rref_is_input_order_independent():
    rows = random_system(99, nrows=20, ncols=12)
    ordered = _core.rref_sparse([(list(c), list(v)) for c, v in rows], 2, 12)
    shuffled = list(rows)
    random.Random(1).shuffle(shuffled)
    assert _core.rref_sparse([(list(c), list(v)) for c, v in shuffled], 2, 12) == ordered


def test_rref_normalizes_leading_entries():
    pivots, rows = _core.rref_sparse([([0, 1], [2, 2, 4, 0]), ([1], [0, 3])], 2, 2)
    assert pivots == [0, 1]
    for cols, triples in rows:
        assert triples[0:3] == [1, 0, 1]
        # pivot rows carry no other pivot columns
        assert all(c not in pivots for c in cols[1:])


def _triple(e):
    q = lcm(e[0].denominator, e[1].denominator)
    return int(e[0] * q), int(e[1] * q), q


@st.composite
def zsqrtd_systems(draw):
    """(d, ncols, rows) with rows as dense lists of integer pairs (a, b).
    d = 0 is the rational engine call of `weyl._basis_cached`, with b = 0."""
    d = draw(st.sampled_from([0, 2, 3, 5]))
    ncols = draw(st.integers(1, 6))
    entry = st.one_of(
        st.just((0, 0)),
        st.tuples(st.integers(-4, 4), st.integers(-4, 4) if d else st.just(0)),
    )
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=1, max_size=5))
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["zero", "repeat", "multiple"]))
        if kind == "zero":
            rows.append([(0, 0)] * ncols)
            continue
        src = rows[draw(st.integers(0, len(rows) - 1))]
        if kind == "repeat":
            rows.append(list(src))
        else:
            m, n = draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3) if d else st.just(0)).filter(any))
            rows.append([(a * m + d * b * n, a * n + b * m) for a, b in src])
    return d, ncols, draw(st.permutations(rows))


def _sparse(rows, keep_zeros):
    out = []
    for row in rows:
        cols = [c for c, e in enumerate(row) if keep_zeros or any(e)]
        out.append((cols, [x for c in cols for x in row[c]]))
    return out


def _reference(rows, ncols, d):
    return reference_rref([[(Fraction(a), Fraction(b)) for a, b in row] for row in rows], ncols, d)


def _assert_matches(got, ref):
    pivots, reduced = got
    ref_pivots, ref_rows = ref
    assert pivots == ref_pivots
    assert len(reduced) == len(ref_rows)
    for (cols, triples), ref in zip(reduced, ref_rows):
        ref_cols = [c for c, e in enumerate(ref) if any(e)]
        assert cols == ref_cols
        assert [tuple(triples[3 * k : 3 * k + 3]) for k in range(len(cols))] == [
            _triple(ref[c]) for c in ref_cols
        ]


@given(zsqrtd_systems(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_rref_matches_dense_fraction_reference(system, keep_zeros):
    d, ncols, rows = system
    _assert_matches(_core.rref_sparse(_sparse(rows, keep_zeros), d, ncols), _reference(rows, ncols, d))


@pytest.mark.parametrize("p, q", [(4, 0), (2, 2), (3, 2), (3, 3)])
def test_weyl_constraint_rows_match_dense_fraction_reference(p, q):
    """The rational systems of a cold Weyl basis, reduced at d = 0 as
    `_basis_cached` reduces them."""
    system = weyl._ConstraintSystem(p, q)
    ncols = len(system.index)
    dense = []
    for cols, vals in system.rows:
        row = [(0, 0)] * ncols
        for k, c in enumerate(cols):
            row[c] = (vals[2 * k], vals[2 * k + 1])
        dense.append(row)
    _assert_matches(_core.rref_sparse(system.rows, 0, ncols), _reference(dense, ncols, 0))


def test_rref_leaves_the_callers_rows_unchanged():
    """The engine reads its input rows and writes only rows of its own: the
    same rows reduced twice give equal results and are still equal to a
    copy taken before."""
    system = weyl._ConstraintSystem(4, 1)
    for rows, d, ncols in (
        (system.rows, 0, len(system.index)),
        (random_system(7, nrows=30, ncols=20), 3, 20),
    ):
        before = copy.deepcopy(rows)
        first = _core.rref_sparse(rows, d, ncols)
        assert rows == before
        assert _core.rref_sparse(rows, d, ncols) == first
        assert rows == before


# -- the stop at full column rank ----------------------------------------------


def _reader(rows, read):
    """The rows as a generator that counts, in `read`, the rows taken."""
    for row in rows:
        read[0] += 1
        yield row


@given(zsqrtd_systems(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_early_stop_matches_dense_fraction_reference(system, keep_zeros):
    """The result is the reference RREF, and the engine reads exactly the
    rows up to the first prefix of full rank, or every row when there is
    none."""
    d, ncols, rows = system
    read = [0]
    got = _core.rref_sparse(_reader(_sparse(rows, keep_zeros), read), d, ncols)
    _assert_matches(got, _reference(rows, ncols, d))
    full = next(
        (k for k in range(1, len(rows) + 1) if len(_reference(rows[:k], ncols, d)[0]) == ncols),
        len(rows),
    )
    assert read[0] == full


def test_rows_after_the_stop_are_never_read():
    """A generator that fails past its third row: the identity comes back
    once three rows have filled the three columns."""

    def rows():
        yield [0, 2], [1, 0, 1, 1]
        yield [1], [3, 0]
        yield [2], [0, 5]
        raise AssertionError("read a row after the pivots filled every column")

    identity = [([c], [1, 0, 1]) for c in range(3)]
    assert _core.rref_sparse(rows(), 2, 3) == ([0, 1, 2], identity)
