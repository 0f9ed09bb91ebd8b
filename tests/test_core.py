"""The exact row-reduction engine, checked against a naive dense RREF."""

import random
from fractions import Fraction
from math import lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from confsym import _core

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
    ordered = _core.rref_sparse([(list(c), list(v)) for c, v in rows], 2)
    shuffled = list(rows)
    random.Random(1).shuffle(shuffled)
    assert _core.rref_sparse([(list(c), list(v)) for c, v in shuffled], 2) == ordered


def test_rref_normalizes_leading_entries():
    pivots, rows = _core.rref_sparse([([0, 1], [2, 2, 4, 0]), ([1], [0, 3])], 2)
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
    """(d, ncols, rows) with rows as dense lists of integer pairs (a, b)."""
    d = draw(st.sampled_from([2, 3, 5]))
    ncols = draw(st.integers(1, 6))
    entry = st.one_of(
        st.just((0, 0)),
        st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
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
            m, n = draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(any))
            rows.append([(a * m + d * b * n, a * n + b * m) for a, b in src])
    return d, ncols, draw(st.permutations(rows))


@given(zsqrtd_systems(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_rref_matches_dense_fraction_reference(system, keep_zeros):
    d, ncols, rows = system
    sparse = []
    for row in rows:
        cols = [c for c, e in enumerate(row) if keep_zeros or any(e)]
        sparse.append((cols, [x for c in cols for x in row[c]]))
    pivots, reduced = _core.rref_sparse(sparse, d)

    ref_pivots, ref_rows = reference_rref(
        [[(Fraction(a), Fraction(b)) for a, b in row] for row in rows], ncols, d
    )
    assert pivots == ref_pivots
    assert len(reduced) == len(ref_rows)
    for (cols, triples), ref in zip(reduced, ref_rows):
        ref_cols = [c for c, e in enumerate(ref) if any(e)]
        assert cols == ref_cols
        assert [tuple(triples[3 * k : 3 * k + 3]) for k in range(len(cols))] == [
            _triple(ref[c]) for c in ref_cols
        ]
