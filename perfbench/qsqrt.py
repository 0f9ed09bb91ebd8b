"""A small exact Q(sqrt 2) arithmetic of the benchmark's own.

The benchmark generates its inputs and checks the program's answers with this
module, so neither depends on the `Scalar` class under test.  Elements are
pairs (a, b) of Fractions meaning a + b*sqrt(2); literals follow the program's
grammar (`rat`, `rat*r`, `rat+rat*r`, with `r` for sqrt 2).
"""

from __future__ import annotations

import re
from fractions import Fraction

D = 2


class Q:
    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        self.a = Fraction(a)
        self.b = Fraction(b)

    def __add__(self, o: Q) -> Q:
        return Q(self.a + o.a, self.b + o.b)

    def __sub__(self, o: Q) -> Q:
        return Q(self.a - o.a, self.b - o.b)

    def __neg__(self) -> Q:
        return Q(-self.a, -self.b)

    def __mul__(self, o: Q) -> Q:
        return Q(self.a * o.a + D * self.b * o.b, self.a * o.b + self.b * o.a)

    def __truediv__(self, o: Q) -> Q:
        norm = o.a * o.a - D * o.b * o.b
        return self * Q(o.a / norm, -o.b / norm)

    def __bool__(self) -> bool:
        return bool(self.a) or bool(self.b)

    def __eq__(self, o) -> bool:
        return isinstance(o, Q) and self.a == o.a and self.b == o.b

    def literal(self) -> str:
        if not self.b:
            return _rat(self.a)
        if not self.a:
            return _rat(self.b) + "*r"
        sign = "+" if self.b > 0 else "-"
        return _rat(self.a) + sign + _rat(abs(self.b)) + "*r"


def _rat(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


_R = r"-?\d+(?:/\d+)?"
_LIT = re.compile(
    rf"^(?:(?P<lone>[+-]?)r|(?P<rad>{_R})\*r|(?P<rat>{_R})"
    rf"(?:(?P<sign>[+-])(?:(?P<rad2>{_R})\*r|(?P<r2>r)))?)$"
)


def parse(text: str) -> Q:
    m = _LIT.match(text.strip())
    if not m:
        raise ValueError(f"bad scalar literal {text!r}")
    if m.group("lone") is not None:
        return Q(0, -1 if m.group("lone") == "-" else 1)
    if m.group("rad"):
        return Q(0, Fraction(m.group("rad")))
    b = Fraction(0)
    if m.group("sign"):
        b = Fraction(1) if m.group("r2") else Fraction(m.group("rad2"))
        if m.group("sign") == "-":
            b = -b
    return Q(Fraction(m.group("rat")), b)


def vec(literals) -> list[Q]:
    return [parse(x) for x in literals]


def parallel(x: list[Q], y: list[Q]) -> bool:
    """Both vectors nonzero and proportional (all 2x2 minors vanish)."""
    if not any(x) or not any(y):
        return False
    i = next(k for k, e in enumerate(x) if e)
    return all(not (x[i] * y[k] - x[k] * y[i]) for k in range(len(x)))
