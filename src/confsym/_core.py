"""Exact row-echelon engine over Q(sqrt(d)).

Rows enter over the ring Z[sqrt(d)] as (cols, vals): `cols` a strictly
increasing list of column indices and `vals` a flat list [a0, b0, a1, b1, ...]
holding the entry a + b*sqrt(d) for each column.  Internally every entry is a
canonical rational triple (a, b, q) meaning (a + b*sqrt(d)) / q with q > 0 and
gcd(a, b, q) = 1, and pivot rows are kept monic; entries of reduced rows are
then ratios of minors of the input, so coefficient growth stays polynomial.
The output is the (unique) reduced row echelon form, entries as flat triples.

Every call gives `ncols`, the number of columns, and every column index is
below it.  `rref_sparse` stops as soon as its pivots fill every column.  That
stop is a certificate, not a guess: the rank cannot exceed `ncols`, so the
reduced form is then the identity whatever the remaining rows hold.  It reads
no further rows and skips back-substitution.

Entries stay Python ints throughout: a machine-word fast path would risk
silent overflow, and exactness is the whole point.
"""

from math import gcd

BACKEND_NAME = "pure"


def _norm3(a, b, q):
    """Canonical form of (a + b r)/q: q > 0, gcd(a, b, q) = 1."""
    if q < 0:
        a, b, q = -a, -b, -q
    g = gcd(gcd(a, b), q)
    if g > 1:
        return a // g, b // g, q // g
    return a, b, q


def _sub_mul(e, f, p, d):
    """e - f*p for rational triples over Q(sqrt d); returns a triple."""
    ea, eb, eq = e
    fa, fb, fq = f
    pa, pb, pq = p
    # f*p
    ma = fa * pa + d * fb * pb
    mb = fa * pb + fb * pa
    mq = fq * pq
    return _norm3(ea * mq - ma * eq, eb * mq - mb * eq, eq * mq)


def _combine(cols1, vals1, cols2, vals2, f, d):
    """row1 - f*row2 with triple entries, sparse merge; row2 is monic."""
    out_c = []
    out_v = []
    i = j = 0
    n1 = len(cols1)
    n2 = len(cols2)
    fa, fb, fq = f
    zero = (0, 0, 1)
    while i < n1 or j < n2:
        c1 = cols1[i] if i < n1 else -1
        c2 = cols2[j] if j < n2 else -1
        if j >= n2 or (i < n1 and c1 < c2):
            out_c.append(c1)
            out_v.append(vals1[3 * i])
            out_v.append(vals1[3 * i + 1])
            out_v.append(vals1[3 * i + 2])
            i += 1
        elif i >= n1 or c2 < c1:
            e = _sub_mul(zero, f, (vals2[3 * j], vals2[3 * j + 1], vals2[3 * j + 2]), d)
            if e[0] or e[1]:
                out_c.append(c2)
                out_v.extend(e)
            j += 1
        else:
            e = _sub_mul(
                (vals1[3 * i], vals1[3 * i + 1], vals1[3 * i + 2]),
                f,
                (vals2[3 * j], vals2[3 * j + 1], vals2[3 * j + 2]),
                d,
            )
            if e[0] or e[1]:
                out_c.append(c1)
                out_v.extend(e)
            i += 1
            j += 1
    return out_c, out_v


def _make_monic(cols, vals, d):
    """Divide the row by its leading entry."""
    la, lb, lq = vals[0], vals[1], vals[2]
    norm = la * la - d * lb * lb
    # 1/lead = lq (la - lb r) / norm
    ia, ib, iq = _norm3(lq * la, -lq * lb, norm)
    out = [0] * len(vals)
    out[0], out[1], out[2] = 1, 0, 1
    for k in range(1, len(cols)):
        a, b, q = vals[3 * k], vals[3 * k + 1], vals[3 * k + 2]
        out[3 * k], out[3 * k + 1], out[3 * k + 2] = _norm3(
            a * ia + d * b * ib, a * ib + b * ia, q * iq
        )
    return cols, out


def rref_sparse(rows, d, ncols):
    """Reduced row echelon form of the sparse system.

    rows: iterable of (cols, vals) over Z[sqrt d] as described above.
    Returns (pivot_cols, pivot_rows): pivot_cols sorted ascending and
    pivot_rows[i] the fully reduced monic row for pivot_cols[i] as
    (cols, triples) with triples flat [a, b, q, ...].

    ncols: the number of columns; every column index is below it.  The
    identity form is returned once the pivots fill all `ncols` columns,
    without reading the rows after the one that filled them."""
    piv = {}
    for in_cols, vals in rows:
        cols = []
        triples = []
        for k, c in enumerate(in_cols):
            a = vals[2 * k]
            b = vals[2 * k + 1]
            if a or b:
                # An entry of Z[sqrt d] is canonical as it stands: q = 1.
                cols.append(c)
                triples += (a, b, 1)
        while cols:
            lead = cols[0]
            hit = piv.get(lead)
            if hit is None:
                piv[lead] = _make_monic(cols, triples, d)
                if len(piv) == ncols:
                    return list(range(ncols)), [([c], [1, 0, 1]) for c in range(ncols)]
                break
            pc, pv = hit
            cols, triples = _combine(
                cols, triples, pc, pv, (triples[0], triples[1], triples[2]), d
            )

    pivot_cols = sorted(piv)
    # Back-substitute highest pivots first: afterwards every pivot row has
    # support only on its own pivot column and on free columns.
    for c in reversed(pivot_cols):
        cols, vals = piv[c]
        k = 1
        while k < len(cols):
            hit = piv.get(cols[k])
            if hit is None:
                k += 1
                continue
            pc, pv = hit
            cols, vals = _combine(
                cols, vals, pc, pv, (vals[3 * k], vals[3 * k + 1], vals[3 * k + 2]), d
            )
        piv[c] = (cols, vals)

    return pivot_cols, [piv[c] for c in pivot_cols]
