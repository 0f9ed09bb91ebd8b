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

Both the forward pass and back-substitution eliminate through one sparse
merge, `_combine`, which computes row1 - f row2 for the entry f of row1 at
the lead column of a monic pivot row2.  That entry cancels by construction,
so it is a certificate too: it is neither computed nor tested.  Products and
canonical forms are written inline, and gcd is taken only when q != 1, since
(a, b, 1) is already canonical.

Entries stay Python ints throughout: a machine-word fast path would risk
silent overflow, and exactness is the whole point.
"""

from math import gcd

BACKEND_NAME = "pure"


def _combine(cols1, vals1, i, cols2, vals2, d):
    """row1 - f row2 for f the entry of row1 at position i, by one sparse
    merge of triple entries; row2 is monic with its lead at cols1[i].  The
    entries of row1 before i are copied, and entry i, which cancels against
    that lead, is dropped unread."""
    fa, fb, fq = vals1[3 * i : 3 * i + 3]
    fbd = d * fb
    out_c = cols1[:i]
    out_v = vals1[: 3 * i]
    n1 = len(cols1)
    i += 1
    for j in range(1, len(cols2)):
        c2 = cols2[j]
        while i < n1 and cols1[i] < c2:
            out_c.append(cols1[i])
            out_v += vals1[3 * i : 3 * i + 3]
            i += 1
        # (ma + mb r) / q = f * (entry j of row2)
        pa = vals2[3 * j]
        pb = vals2[3 * j + 1]
        ma = fa * pa + fbd * pb
        mb = fa * pb + fb * pa
        q = fq * vals2[3 * j + 2]
        if i < n1 and cols1[i] == c2:
            ea = vals1[3 * i]
            eb = vals1[3 * i + 1]
            eq = vals1[3 * i + 2]
            i += 1
            if q == 1 and eq == 1:
                a, b = ea - ma, eb - mb
            else:
                a, b, q = ea * q - ma * eq, eb * q - mb * eq, q * eq
        else:
            a, b = -ma, -mb
        if a or b:
            if q != 1:
                g = gcd(a, b, q)
                a, b, q = a // g, b // g, q // g
            out_c.append(c2)
            out_v += (a, b, q)
    out_c += cols1[i:]
    out_v += vals1[3 * i :]
    return out_c, out_v


def _make_monic(cols, vals, d):
    """Divide the row by its leading entry; a row whose lead is already 1
    comes back as it is."""
    la, lb, lq = vals[:3]
    if la == 1 and lb == 0 and lq == 1:
        return cols, vals
    # 1/lead = lq (la - lb r) / norm, made canonical with iq > 0
    ia, ib, iq = lq * la, -lq * lb, la * la - d * lb * lb
    g = gcd(ia, ib, iq) if iq > 0 else -gcd(ia, ib, iq)
    ia, ib, iq = ia // g, ib // g, iq // g
    out = [1, 0, 1]
    for k in range(3, len(vals), 3):
        a, b = vals[k], vals[k + 1]
        a, b, q = a * ia + d * b * ib, a * ib + b * ia, vals[k + 2] * iq
        if q != 1:
            g = gcd(a, b, q)
            a, b, q = a // g, b // g, q // g
        out += (a, b, q)
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
            hit = piv.get(cols[0])
            if hit is None:
                piv[cols[0]] = _make_monic(cols, triples, d)
                if len(piv) == ncols:
                    return list(range(ncols)), [([c], [1, 0, 1]) for c in range(ncols)]
                break
            cols, triples = _combine(cols, triples, 0, hit[0], hit[1], d)

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
            cols, vals = _combine(cols, vals, k, hit[0], hit[1], d)
        piv[c] = (cols, vals)

    return pivot_cols, [piv[c] for c in pivot_cols]
