"""The flat Mobius space of signature (p, q).

Points are null lines of the invariant bilinear form m of signature
(p+1, q+1), written in the Witt block basis e_0, e_1, ..., e_{p+q}, e_{p+q+1}
where m pairs the two corner vectors and is diag(+1 x p, -1 x q) on the
middle block.  So m is a signed permutation, and `MinkowskiForm` states it
once as one: its matrix, the pairing, reflections and the inverse of an
isometry all read those signs and that permutation.  The module classifies
points relative to two removed null lines and produces exact group elements
moving the distinguished origin <e_0> to any point.
"""

from __future__ import annotations

from functools import cached_property

from ._record import FrozenRecord
from .linalg import Matrix, Vector, rank
from .scalars import ONE, ZERO, Scalar, as_scalar, check_field_parameter

# Largest p + q accepted from the command line or an input file.  The cost
# grows steeply with n, so hostile input must stop here.  At n = 12,
# make-flat writes 1.6 MB in 0.07 s (first call in process, 0.19 s as a
# whole process; 2-vCPU Xeon, CPython 3.11) at (12, 0) and at (6, 6); the
# Weyl basis at n = 16 was once measured at about 2.7 GB.
MAX_DIMENSION = 12


class Signature(FrozenRecord):
    """Metric signature (p, q) of the conformal structure; ambient vectors
    live in dimension p + q + 2.  The one range check of a signature."""

    __slots__ = ("p", "q")

    def __init__(self, p: int, q: int):
        if p < 0 or q < 0:
            raise ValueError(f"need p >= 0 and q >= 0, got ({p}, {q})")
        if p + q < 3:
            raise ValueError("need p + q >= 3")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @property
    def n(self) -> int:
        return self.p + self.q

    @property
    def ambient(self) -> int:
        return self.n + 2

    def j_sign(self, i: int) -> int:
        """Sign of the middle block on coordinate i in 0..n-1."""
        if not 0 <= i < self.n:
            raise IndexError(i)
        return 1 if i < self.p else -1


class MinkowskiForm:
    """The ambient bilinear form m as a signed permutation:
    (m x)_i = sign[i] x[perm[i]], where perm swaps the corner coordinates 0
    and n+1 and fixes the middle ones, and sign is +1 on the corners and
    J_ii on middle coordinate i.  So m is symmetric and m^2 = I."""

    def __init__(self, sig: Signature):
        self.signature = sig
        last = sig.ambient - 1
        self.sign = (1, *(sig.j_sign(i) for i in range(sig.n)), 1)
        self.perm = (last, *range(1, last), 0)

    @cached_property
    def matrix(self) -> Matrix:
        """m as a dense matrix: row i holds sign[i] at column perm[i]."""
        return Matrix._of_scalars(
            [Scalar(s) if j == k else ZERO for j in range(len(self.perm))]
            for s, k in zip(self.sign, self.perm)
        )

    def pairing(self, x: Vector, y: Vector) -> Scalar:
        """m(x, y) = sum_i sign[i] x_i y_{perm[i]}."""
        size = len(self.perm)
        if len(x) != size or len(y) != size:
            raise ValueError(f"vectors must have length {size}, got {len(x)}, {len(y)}")
        out = ZERO
        for e, s, k in zip(x.entries, self.sign, self.perm):
            if e:
                t = e * y[k]
                if t:
                    out = out + t if s > 0 else out - t
        return out

    def is_null(self, v: Vector) -> bool:
        return not self.pairing(v, v)


class NullLine:
    """Projective class of a nonzero null vector; the stored representative is
    scaled so that its first nonzero coordinate is 1."""

    __slots__ = ("representative",)

    def __init__(self, form: MinkowskiForm, rep: Vector):
        if len(rep) != form.signature.ambient:
            raise ValueError("representative has wrong length")
        if rep.is_zero():
            raise ValueError("null line needs a nonzero representative")
        if not form.is_null(rep):
            raise ValueError(f"representative {rep} is not null")
        lead = next(e for e in rep if e)
        object.__setattr__(self, "representative", rep.scale(lead.inverse()))

    def __setattr__(self, name, value):
        raise AttributeError("NullLine is immutable")

    def __eq__(self, other):
        return isinstance(other, NullLine) and self.representative == other.representative

    def __hash__(self):
        return hash(self.representative)

    def __str__(self):
        return f"<{self.representative}>"

    __repr__ = __str__


class OrbitLabel(FrozenRecord):
    """Position of a point w relative to the removed lines <u>, <v>:
    isotropy of w with each and membership of w in the plane <u, v>."""

    __slots__ = ("iso_u", "iso_v", "in_span")

    def __init__(self, iso_u: bool, iso_v: bool, in_span: bool):
        object.__setattr__(self, "iso_u", iso_u)
        object.__setattr__(self, "iso_v", iso_v)
        object.__setattr__(self, "in_span", in_span)


class MobiusSpace:
    """Session context: signature, ambient field parameter d and the form."""

    def __init__(self, p: int, q: int, d: int = 2):
        self.signature = Signature(p, q)
        self.d = d

    @cached_property
    def form(self) -> MinkowskiForm:
        """Built on first use: the Weyl-tensor code needs only the signature."""
        return MinkowskiForm(self.signature)

    @property
    def n(self) -> int:
        return self.signature.n

    @property
    def ambient(self) -> int:
        return self.signature.ambient

    def vector(self, entries) -> Vector:
        return Vector(as_scalar(e, self.d) for e in entries)

    def basis_vector(self, i: int) -> Vector:
        return Vector.unit(self.ambient, i)

    def line(self, entries) -> NullLine:
        return NullLine(self.form, self.vector(entries) if not isinstance(entries, Vector) else entries)

    @cached_property
    def origin(self) -> NullLine:
        """The line <e_0>, built once per space: a NullLine is immutable, so
        every caller can share it."""
        return self.line(self.basis_vector(0))

    def pairing(self, x: Vector, y: Vector) -> Scalar:
        return self.form.pairing(x, y)


def checked_space(p: int, q: int, d: int) -> MobiusSpace:
    """The space of a signature and field read from input, checked before
    anything of its size is built: `Signature`, then p + q <= MAX_DIMENSION,
    then `check_field_parameter`, each raising ValueError."""
    n = Signature(p, q).n
    if n > MAX_DIMENSION:
        raise ValueError(f"need p + q <= {MAX_DIMENSION}, got {n}")
    return MobiusSpace(p, q, check_field_parameter(d))


def classify_orbit(space: MobiusSpace, w: NullLine, u: NullLine, v: NullLine) -> OrbitLabel:
    """Label the point w relative to the removed lines <u>, <v>.

    Exact pairing tests decide isotropy, and w lies in the plane of u and v
    exactly when rank [u; v; w] is 2.  That is rank [u; v] itself: the lines
    are distinct, so their normalized representatives are not proportional.
    Rescaling any representative cannot change the answer."""
    if u == v:
        raise ValueError("removed lines must be distinct")
    if w == u or w == v:
        raise ValueError("removed point: w coincides with a removed line")
    wr, ur, vr = w.representative, u.representative, v.representative
    iso_u = not space.pairing(wr, ur)
    iso_v = not space.pairing(wr, vr)
    in_span = rank(Matrix._of_scalars([ur.entries, vr.entries, wr.entries])) == 2
    return OrbitLabel(iso_u=iso_u, iso_v=iso_v, in_span=in_span)


def reflection(space: MobiusSpace, v: Vector) -> Matrix:
    """Hyperplane reflection tau_v(x) = x - 2 m(x,v)/m(v,v) * v, an exact
    isometry for any non-null v."""
    qv = space.pairing(v, v)
    if not qv:
        raise ValueError("cannot reflect in a null vector")
    factor = Scalar(-2) / qv
    form = space.form
    mv = [v[k] if s > 0 else -v[k] for s, k in zip(form.sign, form.perm)]
    # Entry by entry, the sum identity + outer(factor v, m v).
    return Matrix._of_scalars(
        [(ONE if i == j else ZERO) + fx * y for j, y in enumerate(mv)]
        for i, fx in enumerate(factor * x for x in v)
    )


def transitive_witness(space: MobiusSpace, w: NullLine) -> Matrix:
    """An exact group element g (g^T m g = m) with g<e_0> = w.

    At most two hyperplane reflections: when m(e_0, w) != 0 a single
    reflection in e_0 - w works; otherwise a null vector z non-orthogonal to
    both is found on the two-parameter null family
    z(s, t) = e_0 + s e_i + t e_j - (s^2 J_i + t^2 J_j)/2 e_last
    and the composition tau_{z-w} tau_{e_0-z} is returned."""
    rep = w.representative
    e0 = space.basis_vector(0)
    if w == space.origin:
        return Matrix.identity(space.ambient)
    t = space.pairing(e0, rep)
    if t:
        return reflection(space, e0 - rep)
    z = _null_bridge(space, rep)
    first = reflection(space, e0 - z)
    second = reflection(space, z - rep)
    return second @ first


def _null_bridge(space: MobiusSpace, rep: Vector) -> Vector:
    """Deterministic null vector z with m(e_0, z) != 0 and m(rep, z) != 0.

    Only reached when rep is orthogonal to e_0 and not proportional to it, so
    rep has a nonzero middle coordinate and the search polynomial in (s, t)
    is not identically zero; the grid walk therefore terminates."""
    sig = space.signature
    e0 = space.basis_vector(0)
    i = next(
        (k for k in range(1, sig.ambient - 1) if rep[k]),
        None,
    )
    if i is None:
        raise AssertionError("unreachable: rep must have a middle coordinate here")
    j = 1 if i != 1 else 2
    ji = Scalar(sig.j_sign(i - 1))
    jj = Scalar(sig.j_sign(j - 1))
    half = Scalar(1, 0, 2)
    bound = 1
    while True:
        for s_int in range(-bound, bound + 1):
            for t_int in range(-bound, bound + 1):
                s = Scalar(s_int)
                t = Scalar(t_int)
                corner = -half * (s * s * ji + t * t * jj)
                entries = [Scalar(0)] * sig.ambient
                entries[0] = Scalar(1)
                entries[i] = entries[i] + s
                entries[j] = entries[j] + t
                entries[-1] = entries[-1] + corner
                z = Vector._of_scalars(entries)
                if space.pairing(e0, z) and space.pairing(rep, z):
                    return z
        bound += 1


def isometry_inverse(space: MobiusSpace, g: Matrix) -> Matrix:
    """Inverse of a form isometry: g^-1 = m g^T m (exact, m^2 = I).

    m is the signed permutation of `MinkowskiForm`, so m g^T m is the signed
    transpose with entry (i, j) = sign[i] sign[j] g[perm j][perm i].  The
    product g inv = I is the check that g is an isometry."""
    size = space.ambient
    if g.shape != (size, size):
        raise ValueError(f"expected a {size}x{size} matrix, got {g.shape}")
    sign, perm = space.form.sign, space.form.perm
    cols = list(zip(*g.rows))
    inv = Matrix._of_scalars(
        [x if sign[i] == sign[j] else -x for j, x in enumerate(cols[perm[i]][k] for k in perm)]
        for i in range(size)
    )
    if not (g @ inv == Matrix.identity(size)):
        raise ValueError("matrix is not an isometry of the form")
    return inv
