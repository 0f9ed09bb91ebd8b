"""Exact arithmetic in the real quadratic field Q(sqrt(d)).

An element is stored as (a + b*sqrt(d)) / q with arbitrary-precision integers
a, b, q in the canonical form q > 0, gcd(a, b, q) = 1, and d = 0 exactly when
b = 0: a rational value lies in every field, so it carries none, whatever d
it was built with.  Equal values are therefore equal slot for slot.  The
field is a property of a system (a space, a tensor, a file), and
`one_field` is the one function that reads it off a set of values.

The field rule: a result takes the nonzero d of its operands, and combining
two irrational values from different fields raises FieldMismatchError
(`_mismatch`).  Each operation reads it inline as `d = x.d or y.d`, raising
only when y.d is nonzero and differs from that d, so the common case calls
no function.

The arithmetic leans on the canonical form.  Any (a, b, 1) is canonical, so
the constructor does no gcd work when q = 1, and a sum of two values with
q = 1 is (a + a', b + b', 1) as it stands.  A product of two rationals is
(a a', 0, q q'), reduced by the constructor.  `dot` sums products on
numerators over one denominator and builds one reduced Scalar at the end;
it raises FieldMismatchError exactly where the sequential sum of Scalar
products would.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd


class FieldMismatchError(ArithmeticError):
    """Raised when two irrational scalars from different Q(sqrt(d)) meet."""


# Largest accepted field parameter.  Square-freeness is decided by trial
# division up to sqrt(d): at most 10**6 steps, well under a second.
MAX_FIELD_PARAMETER = 10**12


def is_squarefree(d: int) -> bool:
    """Trial division; raises ValueError above MAX_FIELD_PARAMETER."""
    if d > MAX_FIELD_PARAMETER:
        raise ValueError(f"field parameter {d} exceeds the limit {MAX_FIELD_PARAMETER}")
    if d < 2:
        return False
    k = 2
    while k * k <= d:
        if d % (k * k) == 0:
            return False
        k += 1
    return True


def _mismatch(d: int, e: int):
    """Two irrational values of Q(sqrt d) and Q(sqrt e), d != e, met."""
    raise FieldMismatchError(f"cannot mix Q(sqrt {d}) with Q(sqrt {e})")


def one_field(ds) -> int:
    """The field of a system whose values have the field parameters `ds`:
    the one nonzero d among them, or 0 when all values are rational.  Raises
    FieldMismatchError when two different nonzero d meet."""
    out = 0
    for d in ds:
        if d and d != out:
            if out:
                _mismatch(out, d)
            out = d
    return out


def check_field_parameter(d: int) -> int:
    """Validate the ambient field parameter (square-free, 2 <= d <=
    MAX_FIELD_PARAMETER; default 2)."""
    if not isinstance(d, int) or not is_squarefree(d):
        raise ValueError(f"field parameter must be a square-free integer >= 2, got {d!r}")
    return d


class Scalar:
    """One element of Q(sqrt(d)), exact; d is stored as 0 when b = 0."""

    __slots__ = ("a", "b", "q", "d")

    def __init__(self, a: int, b: int = 0, q: int = 1, d: int = 2):
        if q != 1:
            if q == 0:
                raise ZeroDivisionError("scalar denominator is zero")
            if q < 0:
                a, b, q = -a, -b, -q
            g = gcd(a, b, q)
            if g > 1:
                a //= g
                b //= g
                q //= g
        _set_a(self, a)
        _set_b(self, b)
        _set_q(self, q)
        _set_d(self, d if b else 0)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def sqrt_d(cls, d: int = 2) -> Scalar:
        """The generator sqrt(d) itself."""
        return cls(0, 1, 1, check_field_parameter(d))

    # -- structure ---------------------------------------------------------

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    def __hash__(self):
        if self.b == 0:
            return hash(self.a) if self.q == 1 else hash(Fraction(self.a, self.q))
        return hash((self.a, self.b, self.q, self.d))

    def __eq__(self, other) -> bool:
        if other.__class__ is not Scalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return (
            self.a == other.a and self.b == other.b and self.q == other.q and self.d == other.d
        )

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> Scalar:
        if other.__class__ is not Scalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        d = self.d or other.d
        if other.d and other.d != d:
            _mismatch(d, other.d)
        if self.q == 1 and other.q == 1:
            return Scalar(self.a + other.a, self.b + other.b, 1, d)
        return Scalar(
            self.a * other.q + other.a * self.q,
            self.b * other.q + other.b * self.q,
            self.q * other.q,
            d,
        )

    __radd__ = __add__

    def __neg__(self) -> Scalar:
        return Scalar(-self.a, -self.b, self.q, self.d)

    def __sub__(self, other) -> Scalar:
        if other.__class__ is not Scalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        d = self.d or other.d
        if other.d and other.d != d:
            _mismatch(d, other.d)
        if self.q == 1 and other.q == 1:
            return Scalar(self.a - other.a, self.b - other.b, 1, d)
        return Scalar(
            self.a * other.q - other.a * self.q,
            self.b * other.q - other.b * self.q,
            self.q * other.q,
            d,
        )

    def __rsub__(self, other) -> Scalar:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other) -> Scalar:
        if other.__class__ is not Scalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if not (self.b or other.b):
            return Scalar(self.a * other.a, 0, self.q * other.q)
        d = self.d or other.d
        if other.d and other.d != d:
            _mismatch(d, other.d)
        return Scalar(
            self.a * other.a + d * self.b * other.b,
            self.a * other.b + self.b * other.a,
            self.q * other.q,
            d,
        )

    __rmul__ = __mul__

    def inverse(self) -> Scalar:
        """Exact multiplicative inverse; norm a^2 - d b^2 never vanishes for
        nonzero elements because d is a non-square."""
        if not self:
            raise ZeroDivisionError("inverse of zero in Q(sqrt d)")
        n = self.a * self.a - self.d * self.b * self.b
        return Scalar(self.q * self.a, -self.q * self.b, n, self.d)

    def __truediv__(self, other) -> Scalar:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other) -> Scalar:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n: int) -> Scalar:
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- text form ---------------------------------------------------------

    def __str__(self) -> str:
        if self.b == 0:
            return _fmt_rat(self.a, self.q)
        radical = _fmt_rat(abs(self.b), self.q) + "*r"
        if self.a == 0:
            return radical if self.b > 0 else "-" + radical
        sign = "+" if self.b > 0 else "-"
        return _fmt_rat(self.a, self.q) + sign + radical

    def __repr__(self) -> str:
        return f"Scalar('{self}', d={self.d})"


def dot(xs, ys) -> Scalar:
    """sum_i xs[i] ys[i] over the Scalars of two sequences, paired as `zip`
    pairs them.  Each product's numerators are summed over the product of
    the denominators, and one Scalar is built and reduced at the end.

    The field is that of the sequential sum ZERO + x_0 y_0 + x_1 y_1 + ...
    of Scalar products, and FieldMismatchError is raised exactly where that
    sum raises: each product checks the fields of its two factors, the
    running sqrt(d) part keeps the field of the irrational products added
    to it, and that field resets to rational whenever the running sqrt(d)
    numerator returns to 0, as a Scalar drops d when b = 0."""
    a = b = d = 0
    q = 1
    for x, y in zip(xs, ys):
        if x.b or y.b:
            e = x.d or y.d
            if y.d and y.d != e:
                _mismatch(e, y.d)
            pa = x.a * y.a + e * x.b * y.b
            pb = x.a * y.b + x.b * y.a
            if pb and d != e:
                if d:
                    _mismatch(d, e)
                d = e
        else:
            pa = x.a * y.a
            if not pa:
                continue
            pb = 0
        pq = x.q * y.q
        if pq == q:
            a += pa
            b += pb
        else:
            a = a * pq + pa * q
            b = b * pq + pb * q
            q *= pq
        if not b:
            d = 0
    return Scalar(a, b, q, d)


def _coerce(x):
    if isinstance(x, Scalar):
        return x
    # A bool is an int, but a file's `true` is no scalar literal.
    if isinstance(x, int) and x.__class__ is not bool:
        return Scalar(x)
    if isinstance(x, Fraction):
        return Scalar(x.numerator, 0, x.denominator)
    return NotImplemented


_set_a = Scalar.a.__set__
_set_b = Scalar.b.__set__
_set_q = Scalar.q.__set__
_set_d = Scalar.d.__set__


def _fmt_rat(num: int, den: int) -> str:
    """num/den in lowest terms; den > 0."""
    g = gcd(num, den)
    if g > 1:
        num //= g
        den //= g
    return str(num) if den == 1 else f"{num}/{den}"


# ASCII digits only: \d would also take every other Unicode decimal digit.
_RAT = r"-?[0-9]+(?:/[0-9]+)?"
_LITERAL = re.compile(
    rf"^\s*(?:"
    rf"(?P<lone_r>[+-]?r)"
    rf"|(?P<rad_only>{_RAT})\*r"
    rf"|(?P<rat>{_RAT})(?:(?P<sign>[+-])(?:(?P<rad>{_RAT})\*r|(?P<rad_r>r)))?"
    rf")\s*$"
)


def parse_scalar(text: str, d: int = 2) -> Scalar:
    """Parse the scalar literal grammar.

    scalar := rat | rat sign rat "*r" | rat "*r" where rat := ["-"] int ["/" int]
    and "r" stands for sqrt(d); the bare aliases "r" / "-r" are accepted for
    "1*r" / "-1*r".  Examples: "1", "-3/2", "1/2*r", "1+2*r".  A zero
    denominator is a bad literal (ValueError).
    """
    # A plain ASCII integer skips the regex; `int` alone would also take
    # "1_000", "+1" and non-ASCII digits, so the characters are checked first.
    digits = text[1:] if text[:1] == "-" else text
    if digits.isascii() and digits.isdigit():
        return Scalar(int(text))
    m = _LITERAL.match(text)
    if not m:
        raise ValueError(f"bad scalar literal {text!r}")
    lone_r = m.group("lone_r")
    if lone_r:
        return Scalar(0, -1 if lone_r.startswith("-") else 1, 1, d)
    rad_only = m.group("rad_only")
    if rad_only:
        a, qa, b, qb = 0, 1, *_split_rat(rad_only, text)
    else:
        a, qa = _split_rat(m.group("rat"), text)
        b, qb = 0, 1
        sign = m.group("sign")
        if sign:
            b, qb = (1, 1) if m.group("rad_r") else _split_rat(m.group("rad"), text)
            if sign == "-":
                b = -b
    return Scalar(a * qb, b * qa, qa * qb, d)


def _split_rat(rat: str, text: str) -> tuple[int, int]:
    """Numerator and denominator of one rat of the grammar, as written."""
    num, _, den = rat.partition("/")
    q = int(den) if den else 1
    if q == 0:
        raise ValueError(f"bad scalar literal {text!r}: zero denominator")
    return int(num), q


def as_scalar(x, d: int = 2) -> Scalar:
    """Coerce int / Fraction / literal string / Scalar to Scalar."""
    if x.__class__ is Scalar:
        return x
    if isinstance(x, str):
        return parse_scalar(x, d)
    s = _coerce(x)
    if s is NotImplemented:
        raise TypeError(f"cannot interpret {x!r} as a scalar")
    return s


ZERO = Scalar(0)
ONE = Scalar(1)
MINUS_ONE = Scalar(-1)
