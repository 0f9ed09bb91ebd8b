import operator
import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confsym.scalars import (
    _LITERAL,
    MAX_FIELD_PARAMETER,
    ONE,
    FieldMismatchError,
    Scalar,
    as_scalar,
    check_field_parameter,
    dot,
    is_squarefree,
    one_field,
    parse_scalar,
)

ROOT2 = Scalar.sqrt_d(2)


def test_product_of_conjugate_units_is_one():
    assert (Scalar(1) + ROOT2) * (Scalar(-1) + ROOT2) == Scalar(1)


def test_halves_of_root_two_sum_to_root_two():
    half_r = Scalar(0, 1, 2)
    assert half_r + half_r == ROOT2


def test_inverse_of_root_two():
    assert ROOT2.inverse() == Scalar(0, 1, 2)
    assert ROOT2 * ROOT2.inverse() == Scalar(1)


def test_division_by_zero_is_an_explicit_error():
    with pytest.raises(ZeroDivisionError):
        Scalar(1) / Scalar(0)
    with pytest.raises(ZeroDivisionError):
        Scalar(0).inverse()


def test_canonical_form_is_unique():
    assert Scalar(2, 4, 6) == Scalar(1, 2, 3)
    assert Scalar(1, 0, -2) == Scalar(-1, 0, 2)
    s = Scalar(2, 4, 6)
    assert (s.a, s.b, s.q) == (1, 2, 3)


def test_rational_values_mix_with_any_ambient_field():
    three = Scalar(3, 0, 1, d=3)
    assert three + Scalar(1, 0, 1, d=2) == Scalar(4)
    with pytest.raises(FieldMismatchError):
        Scalar.sqrt_d(2) + Scalar.sqrt_d(3)


def test_field_parameter_validation():
    assert is_squarefree(2) and is_squarefree(6) and is_squarefree(15)
    assert not is_squarefree(4) and not is_squarefree(12) and not is_squarefree(1)
    with pytest.raises(ValueError):
        check_field_parameter(8)
    with pytest.raises(ValueError):
        check_field_parameter(1)


def test_field_parameter_is_bounded():
    # trial division up to sqrt(10**18) would not return; the bound refuses first
    huge = 10**18 + 9
    assert huge > MAX_FIELD_PARAMETER
    with pytest.raises(ValueError, match="limit"):
        is_squarefree(huge)
    with pytest.raises(ValueError, match="limit"):
        check_field_parameter(huge)
    assert not is_squarefree(4 * 10**11)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("1", Scalar(1)),
        ("-3/2", Scalar(-3, 0, 2)),
        ("1/2*r", Scalar(0, 1, 2)),
        ("1+2*r", Scalar(1, 2, 1)),
        ("r", ROOT2),
        ("-r", -ROOT2),
        ("-1*r", -ROOT2),
        ("2-3*r", Scalar(2, -3, 1)),
        ("1/2+1/2*r", Scalar(1, 1, 2)),
    ],
)
def test_literal_grammar(text, expected):
    assert parse_scalar(text) == expected


@pytest.mark.parametrize("bad", ["", "x", "1+", "*r", "1 + 2", "r*2", "1//2", "2r"])
def test_bad_literals_rejected(bad):
    with pytest.raises(ValueError):
        parse_scalar(bad)


def test_zero_denominators_are_bad_literals():
    for bad in ["1/0", "-3/0", "1/0*r", "1+1/0*r", "1/0-r", "0/0"]:
        with pytest.raises(ValueError, match="bad scalar literal"):
            parse_scalar(bad)


# -- the integer parser against the former Fraction parser -------------------


def reference_parse_scalar(text: str, d: int = 2) -> Scalar:
    """The former parser: each rational part read through Fraction."""
    m = _LITERAL.match(text)
    if not m:
        raise ValueError(f"bad scalar literal {text!r}")
    if m.group("lone_r"):
        b = Fraction(-1 if m.group("lone_r").startswith("-") else 1)
        return _reference_from_parts(Fraction(0), b, d)
    if m.group("rad_only"):
        return _reference_from_parts(Fraction(0), Fraction(m.group("rad_only")), d)
    a = Fraction(m.group("rat"))
    b = Fraction(0)
    if m.group("sign"):
        b = Fraction(1) if m.group("rad_r") else Fraction(m.group("rad"))
        if m.group("sign") == "-":
            b = -b
    return _reference_from_parts(a, b, d)


def _reference_from_parts(a: Fraction, b: Fraction, d: int) -> Scalar:
    q = a.denominator * b.denominator // gcd(a.denominator, b.denominator)
    return Scalar(
        a.numerator * (q // a.denominator),
        b.numerator * (q // b.denominator),
        q,
        d,
    )


_digits = st.integers(0, 10**6).map(str)
_rat = st.builds(
    lambda sign, num, den: sign + num + den,
    st.sampled_from(["", "-"]),
    _digits,
    st.one_of(st.just(""), _digits.map(lambda t: "/" + t)),
)
_space = st.sampled_from(["", " ", "  ", "\t"])
_grammar_literals = st.builds(
    lambda lead, body, trail: lead + body + trail,
    _space,
    st.one_of(
        st.sampled_from(["r", "+r", "-r"]),
        _rat.map(lambda t: t + "*r"),
        _rat,
        st.builds(
            lambda a, sign, b: a + sign + b,
            _rat,
            st.sampled_from(["+", "-"]),
            st.one_of(st.just("r"), _rat.map(lambda t: t + "*r")),
        ),
    ),
    _space,
)
_near_literals = st.text(alphabet="0123456789-+/*r .", max_size=12)


@given(st.one_of(_grammar_literals, _near_literals), st.sampled_from([2, 3, 5]))
@settings(max_examples=400, deadline=None)
def test_parser_matches_the_fraction_reference(text, d):
    try:
        want = reference_parse_scalar(text, d)
    except ZeroDivisionError:
        # the reference let a zero denominator escape as ZeroDivisionError
        with pytest.raises(ValueError, match="zero denominator"):
            parse_scalar(text, d)
        return
    except ValueError:
        with pytest.raises(ValueError, match="bad scalar literal"):
            parse_scalar(text, d)
        return
    got = parse_scalar(text, d)
    assert (got.a, got.b, got.q, got.d) == (want.a, want.b, want.q, want.d)


@pytest.mark.parametrize(
    "text", ["1_000", "+1", "--1", "-", "1-", "0x1", "1e3", "²", "١", "-١٢", "1/٢", "١*r"]
)
def test_integer_fast_path_refuses_what_int_alone_would_take(text):
    """Neither the fast path nor the grammar takes what `int` alone would,
    non-ASCII digits included: the grammar's digits are 0-9."""
    with pytest.raises(ValueError, match="bad scalar literal"):
        parse_scalar(text)


@pytest.mark.parametrize("text", ["0", "-0", "007", "-12", " 1", "1 ", "1\n"])
def test_plain_integers_parse_as_the_grammar_reads_them(text):
    """Padded integers leave the fast path; every form reads as the full
    grammar reads it."""
    got = parse_scalar(text, 3)
    want = reference_parse_scalar(text, 3)
    assert (got.a, got.b, got.q, got.d) == (want.a, want.b, want.q, want.d)


@pytest.mark.parametrize("sign", ["", "-"])
@pytest.mark.parametrize("digits", [4300, 4301, 5000])
def test_long_integers_meet_the_interpreter_limit(sign, digits):
    """A literal past Python's integer-conversion limit raises what int()
    raises on it; one within the limit parses."""
    text = sign + "7" * digits
    try:
        want = int(text)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            parse_scalar(text)
        return
    assert parse_scalar(text) == Scalar(want)


def test_formatting_round_trips_canonically():
    for s in [Scalar(0), Scalar(-7, 3, 5), Scalar(1, -1, 2), Scalar(0, -4, 3), Scalar(5)]:
        assert parse_scalar(str(s)) == s
        assert str(parse_scalar(str(s))) == str(s)


def test_as_scalar_coercions():
    assert as_scalar(3) == Scalar(3)
    assert as_scalar(Fraction(2, 4)) == Scalar(1, 0, 2)
    assert as_scalar("1+1*r") == Scalar(1, 1, 1)
    with pytest.raises(TypeError):
        as_scalar(1.5)


@pytest.mark.parametrize("value", [True, False])
def test_a_bool_is_not_a_scalar(value):
    # A bool is an int to Python; read as one, `true` in a file would be 1.
    with pytest.raises(TypeError, match=f"cannot interpret {value} as a scalar"):
        as_scalar(value)
    with pytest.raises(TypeError):
        Scalar(1) + value
    with pytest.raises(TypeError):
        value * Scalar(1)


small = st.integers(min_value=-30, max_value=30)
denom = st.integers(min_value=1, max_value=12)
scalars = st.builds(Scalar, small, small, denom)


@given(scalars, scalars, scalars)
@settings(max_examples=150, deadline=None)
def test_field_laws(x, y, z):
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + Scalar(0) == x
    assert x * Scalar(1) == x
    assert x - x == Scalar(0)


# Entries of Q, Q(sqrt 2) and Q(sqrt 3); a small b is often 0, so a third or
# so are rational whatever d they were built with.
_mixed = st.builds(
    Scalar,
    small,
    st.integers(min_value=-2, max_value=2),
    denom,
    st.sampled_from([2, 3]),
)


@st.composite
def _dot_pairs(draw):
    """Two equal-length lists of mixed entries, where each drawn pair
    (x, y) is followed by (-x, y) when a cancel flag is drawn, so the
    running sqrt(d) part returns to 0 in the middle of the sum."""
    xs, ys = [], []
    for x, y, cancel in draw(st.lists(st.tuples(_mixed, _mixed, st.booleans()), max_size=8)):
        xs.append(x)
        ys.append(y)
        if cancel:
            xs.append(-x)
            ys.append(y)
    return xs, ys


def _sequential(xs, ys):
    out = Scalar(0)
    for x, y in zip(xs, ys):
        out = out + x * y
    return out


@given(_dot_pairs())
@settings(max_examples=400, deadline=None)
def test_dot_is_the_sequential_sum_of_products(pair):
    """Equal slot for slot, and FieldMismatchError on exactly the same
    draws."""
    xs, ys = pair
    try:
        want = _sequential(xs, ys)
    except FieldMismatchError:
        with pytest.raises(FieldMismatchError):
            dot(xs, ys)
        return
    got = dot(xs, ys)
    assert (got.a, got.b, got.q, got.d) == (want.a, want.b, want.q, want.d)


def test_dot_field_resets_when_the_radical_part_cancels():
    """sqrt 2 - sqrt 2 leaves a rational running sum, which a sqrt 3 term
    may join; without the cancelling term the sum mixes fields."""
    r2, r3 = Scalar.sqrt_d(2), Scalar.sqrt_d(3)
    assert dot([r2, -r2, r3], [ONE, ONE, ONE]) == r3
    with pytest.raises(FieldMismatchError):
        dot([r2, r3], [ONE, ONE])
    with pytest.raises(FieldMismatchError):
        dot([r2], [r3])
    assert dot([r2], [r2]) == Scalar(2)
    assert dot([], []) == Scalar(0)


@given(scalars)
@settings(max_examples=150, deadline=None)
def test_nonzero_inverse_is_exact(x):
    if x:
        assert x * x.inverse() == Scalar(1)
        assert x.inverse().inverse() == x


@given(scalars)
@settings(max_examples=100, deadline=None)
def test_literal_round_trip(x):
    assert parse_scalar(str(x)) == x


def test_powers():
    assert (Scalar(1) + ROOT2) ** 2 == Scalar(3, 2, 1)
    assert ROOT2**-2 == Scalar(1, 0, 2)
    assert Scalar(5) ** 0 == Scalar(1)


# -- every operation against a Fraction-pair reference ------------------------


def _ref(a, b, q, d):
    """Reference value (x, y, d) of (a + b sqrt d) / q."""
    return (Fraction(a, q), Fraction(b, q), d)


def _ref_d(s, o):
    """The field tag of a result: the irrational operand's d, else o's d."""
    if s[1] == 0:
        return o[2]
    if o[1] == 0 or s[2] == o[2]:
        return s[2]
    raise FieldMismatchError


def _ref_op(op, s, o):
    d = _ref_d(s, o)
    (x1, y1, _), (x2, y2, d2) = s, o
    if op == "-":
        x2, y2 = -x2, -y2
    if op == "/":
        n = x2 * x2 - d2 * y2 * y2
        x2, y2 = x2 / n, -y2 / n
    if op in "+-":
        return (x1 + x2, y1 + y2, d)
    return (x1 * x2 + d * y1 * y2, x1 * y2 + y1 * x2, d)


def _ref_slots(r):
    """The canonical slots: a rational value carries d = 0."""
    x, y, d = r
    q = x.denominator * y.denominator // gcd(x.denominator, y.denominator)
    return (x.numerator * (q // x.denominator), y.numerator * (q // y.denominator), q, d if y else 0)


def _ref_str(r):
    """The former formatting, through Fraction."""
    x, y, _ = r
    fmt = lambda f: str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
    if y == 0:
        return fmt(x)
    radical = fmt(abs(y)) + "*r"
    if x == 0:
        return radical if y > 0 else "-" + radical
    return fmt(x) + ("+" if y > 0 else "-") + radical


def _assert_matches(got, r):
    assert (got.a, got.b, got.q, got.d) == _ref_slots(r)
    assert hash(got) == (hash(r[0]) if r[1] == 0 else hash(_ref_slots(r)))
    assert str(got) == _ref_str(r)
    assert repr(got) == f"Scalar('{_ref_str(r)}', d={r[2] if r[1] else 0})"


# q = 1 and b = 0 are drawn often: the short formulas start there.
_parts = st.tuples(
    st.one_of(st.just(0), small),
    st.one_of(st.just(0), small),
    st.one_of(st.just(1), st.integers(-12, 12)),
    st.sampled_from([2, 3]),
)


@given(_parts, st.one_of(_parts, small), st.booleans())
@settings(max_examples=600, deadline=None)
def test_arithmetic_matches_the_fraction_pair_reference(parts, other, int_on_left):
    if parts[2] == 0:
        with pytest.raises(ZeroDivisionError):
            Scalar(*parts)
        return
    x, rx = Scalar(*parts), _ref(*parts)
    _assert_matches(x, rx)
    _assert_matches(-x, (-rx[0], -rx[1], rx[2]))
    if isinstance(other, int):
        # An int operand is a rational of x's field, on either side.
        y, ry = other, _ref(other, 0, 1, rx[2])
        if int_on_left:
            x, rx, y, ry = y, ry, x, rx
    elif other[2] == 0:
        return
    else:
        y, ry = Scalar(*other), _ref(*other)
    mixed = rx[1] != 0 and ry[1] != 0 and rx[2] != ry[2]
    assert (x == y) == (not mixed and rx[:2] == ry[:2])
    for op, fn in (("+", operator.add), ("-", operator.sub), ("*", operator.mul), ("/", operator.truediv)):
        if mixed:
            with pytest.raises(FieldMismatchError):
                fn(x, y)
        elif op == "/" and ry[:2] == (0, 0):
            with pytest.raises(ZeroDivisionError):
                fn(x, y)
        else:
            _assert_matches(fn(x, y), _ref_op(op, rx, ry))


# -- one canonical form per value ---------------------------------------------


def test_a_rational_carries_no_field():
    """Whatever d a rational value is built with, it is stored with d = 0,
    and a result takes the nonzero d of its operands."""
    x = Scalar(1, 0, 1, 3)
    assert (x.a, x.b, x.q, x.d) == (ONE.a, ONE.b, ONE.q, ONE.d) == (1, 0, 1, 0)
    assert repr(x) == repr(Scalar(1)) == "Scalar('1', d=0)"
    assert parse_scalar("-3/2", 5).d == 0
    assert (x + Scalar.sqrt_d(3)).d == 3
    assert (Scalar.sqrt_d(3) * Scalar.sqrt_d(3)).d == 0


def test_one_field_reads_the_field_of_a_system():
    assert one_field([]) == one_field([0, 0]) == 0
    assert one_field([0, 3, 0, 3]) == 3
    with pytest.raises(FieldMismatchError, match="Q\\(sqrt 2\\) with Q\\(sqrt 5\\)"):
        one_field([0, 2, 2, 5])


_fields = st.sampled_from([2, 3, 5])
_parsed = st.builds(
    parse_scalar,
    st.sampled_from(["0", "1", "-1", "2", "1/2", "-3/2", "r", "-r", "1+r", "1/2*r", "2-3*r"]),
    _fields,
)


@st.composite
def _built(draw):
    """A parsed Scalar after a few arithmetic steps with other parsed values
    and ints, on either side, over d in {2, 3, 5}."""
    x = draw(_parsed)
    for _ in range(draw(st.integers(0, 3))):
        fn = draw(st.sampled_from([operator.add, operator.sub, operator.mul, operator.truediv]))
        y = draw(st.one_of(_parsed, st.integers(-3, 3)))
        try:
            x = fn(x, y) if draw(st.booleans()) else fn(y, x)
        except (FieldMismatchError, ZeroDivisionError):
            pass
    return x


@given(_built(), _built())
@settings(max_examples=400, deadline=None)
def test_equal_values_are_equal_slot_for_slot(x, y):
    slots = lambda s: (s.a, s.b, s.q, s.d)
    assert (x == y) == (slots(x) == slots(y))
    if x == y:
        assert hash(x) == hash(y)
    assert (x.d == 0) == (x.b == 0)


@pytest.mark.parametrize(
    "fn, left, right, symbol",
    [
        (operator.truediv, 1.5, Scalar(2), "/"),
        (operator.sub, 1.5, Scalar(2), "-"),
        (operator.pow, Scalar(2), 0.5, "**"),
        (operator.add, 1.5, Scalar(2), "+"),
        (operator.mul, 1.5, Scalar(2), "*"),
        (operator.truediv, Scalar(2), 1.5, "/"),
        (operator.sub, Scalar(2), 1.5, "-"),
    ],
)
def test_unsupported_operands_name_the_operator(fn, left, right, symbol):
    with pytest.raises(TypeError, match=f"unsupported operand type\\(s\\) for {re.escape(symbol)}[: ]"):
        fn(left, right)
