import contextlib
import math
import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sqrect.errors import MixedSurdFields
from sqrect.exactnum import (
    Surd,
    _canon,
    _sign,
    compare,
    eval_interval,
    make_surd,
    MAX_NESTING,
    nfloor,
    parse_number,
    squarefree_decompose,
)


def surd2(p, q, r=1):
    return make_surd(p, q, r, 2)


class TestConstruction:
    def test_canonical_form(self):
        s = make_surd(2, 4, 6, 2)
        assert (s.p, s.q, s.r, s.d) == (1, 2, 3, 2)

    def test_square_radicand_demotes(self):
        assert make_surd(1, 1, 1, 4) == 3
        assert make_surd(0, 1, 2, 9) == Fraction(3, 2)

    def test_zero_coefficient_demotes(self):
        assert make_surd(3, 0, 2, 5) == Fraction(3, 2)

    def test_square_part_extracted(self):
        s = make_surd(0, 1, 1, 8)
        assert (s.q, s.d) == (2, 2)

    def test_squarefree_decompose(self):
        assert squarefree_decompose(8) == (2, 2)
        assert squarefree_decompose(12) == (2, 3)
        assert squarefree_decompose(49) == (7, 1)
        assert squarefree_decompose(30) == (1, 30)


class TestArithmetic:
    def test_sqrt2_minus_1_squared(self):
        x = surd2(-1, 1)
        assert x * x == surd2(3, -2)

    def test_additive_identity(self):
        x = surd2(-1, 1)
        assert x + 0 == x

    def test_rational_inverse(self):
        assert 1 / Fraction(3, 8) == Fraction(8, 3)

    def test_surd_inverse(self):
        x = surd2(-1, 1)  # sqrt(2)-1
        assert 1 / x == surd2(1, 1)  # sqrt(2)+1

    def test_mixed_fields_raise(self):
        with pytest.raises(MixedSurdFields):
            surd2(0, 1) + make_surd(0, 1, 1, 3)
        with pytest.raises(MixedSurdFields):
            surd2(0, 1) * make_surd(0, 1, 1, 3)

    def test_float_contaminates(self):
        assert isinstance(surd2(0, 1) + 0.5, float)
        assert isinstance(0.5 * surd2(0, 1), float)

    def test_pow(self):
        x = surd2(1, 1)
        assert x**2 == surd2(3, 2)
        assert x**0 == 1
        assert x**-1 == surd2(-1, 1)


class TestOrder:
    def test_floor_rational(self):
        assert nfloor(Fraction(8, 3)) == 2

    def test_floor_surd(self):
        assert nfloor(surd2(1, 1)) == 2  # sqrt(2)+1
        assert nfloor(surd2(-1, 1)) == 0

    def test_floor_near_integer(self):
        # (sqrt(2))^2 appears only via exact cancellation; check a surd
        # sitting just below an integer
        s = make_surd(-1, 1, 1000000, 2)  # tiny positive
        assert nfloor(s) == 0
        assert nfloor(-s) == -1

    def test_compare_same_field(self):
        assert compare(surd2(-1, 1), Fraction(1, 2)) == -1
        assert compare(surd2(0, 1), 1) == 1

    def test_compare_mixed_fields(self):
        r2 = make_surd(0, 1, 1, 2)
        r3 = make_surd(0, 1, 1, 3)
        assert compare(r2, r3) == -1
        assert r2 < r3 < 2

    def test_equality_structural(self):
        assert surd2(-1, 1) == surd2(-1, 1)
        assert surd2(-1, 1) != Fraction(41421, 100000)
        assert hash(surd2(-1, 1)) == hash(surd2(-1, 1))


class TestParser:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("3/8", Fraction(3, 8)),
            ("sqrt(2)-1", make_surd(-1, 1, 1, 2)),
            ("(1-3+sqrt(8))/2", make_surd(-1, 1, 1, 2)),
            ("2", 2),
            ("-1/2", Fraction(-1, 2)),
            ("sqrt(9)", 3),
            ("sqrt(1/2)", make_surd(0, 1, 2, 2)),
        ],
    )
    def test_exact(self, text, value):
        assert parse_number(text) == value

    def test_decimal_is_float(self):
        x = parse_number("0.7071")
        assert isinstance(x, float) and x == 0.7071

    def test_errors(self):
        for bad in ["", "3/", "sqrt(2", "sqrt(-1)", "1 2", "x"]:
            with pytest.raises(ValueError):
                parse_number(bad)

    def test_nesting_is_bounded(self):
        # each parenthesis is a level of recursive descent: past the bound
        # the text is refused before it is parsed, not with RecursionError
        deep = "(" * MAX_NESTING + "sqrt(2)" + ")" * MAX_NESTING
        with pytest.raises(ValueError, match="nested deeper"):
            parse_number(deep)
        ok = "(" * (MAX_NESTING - 1) + "sqrt(2)" + ")" * (MAX_NESTING - 1)
        assert parse_number(ok) == make_surd(0, 1, 1, 2)
        with pytest.raises(ValueError, match="nested deeper"):
            parse_number("(" * 3000 + "1/3" + ")" * 3000)

    @pytest.mark.parametrize("n", [1, 2, 3000, 3001])
    def test_unary_minus_chain(self, n):
        # a run of signs is a loop, not a recursion
        assert parse_number("-" * n + "1/3") == Fraction((-1) ** n, 3)
        assert parse_number("2*" + "-" * n + "(sqrt(2))") == make_surd(
            0, 2 * (-1) ** n, 1, 2
        )


# -- property tests ------------------------------------------------------

small_rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
)
surds = st.builds(
    lambda p, q, r, d: make_surd(p, q, r, d),
    st.integers(-50, 50),
    st.integers(-50, 50).filter(lambda q: q != 0),
    st.integers(1, 30),
    st.sampled_from([2, 3, 5, 6, 7, 10]),
)


@given(surds)
def test_float_matches_interval(x):
    lo, hi = eval_interval(x, 128)
    assert abs(float(x) - float((lo + hi) / 2)) <= 1e-15 * max(1.0, abs(float(x)))


@given(surds.filter(lambda x: isinstance(x, Surd)))
def test_floor_bracket(x):
    n = nfloor(x)
    assert compare(n, x) <= 0 < compare(n + 1, x)


@given(
    st.sampled_from([2, 3, 5]),
    st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
    st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
    st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
)
def test_field_axioms(d, a, b, c):
    xs = [make_surd(p, q, 1, d) for p, q in (a, b, c)]
    x, y, z = xs
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x


@given(surds.filter(lambda x: isinstance(x, Surd)))
def test_inverse_roundtrip(x):
    assert x * (1 / x) == 1


@given(st.fractions(max_denominator=10**6))
def test_rational_ops_match_fraction(q):
    x = q + make_surd(0, 1, 1, 2) - make_surd(0, 1, 1, 2)
    assert x == q


# -- the integer-only same-field kernel against the pre-kernel code ---------

SQUAREFREE = [2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23, 26, 29, 30]
# fundamental units u + v*sqrt(d) of norm +-1
UNITS = {2: (1, 1), 3: (2, 1), 5: (2, 1), 6: (5, 2), 7: (8, 3), 10: (3, 1)}
big_ints = st.integers(-(2**200), 2**200)


def floor_oracle(x):
    """Floor by refining the rational enclosure until it holds no integer."""
    bits = 64
    while True:
        lo, hi = x.interval(bits)
        if math.floor(lo) == math.floor(hi):
            return math.floor(lo)
        bits *= 2


def diff_sign_oracle(a, b):
    """Sign of a - b for a, b in Q(sqrt(d)), through make_surd."""
    (p1, q1, r1), (p2, q2, r2), d = _triple(a), _triple(b), a.d
    diff = make_surd(p1 * r2 - p2 * r1, q1 * r2 - q2 * r1, r1 * r2, d)
    if not isinstance(diff, Surd):
        return (diff > 0) - (diff < 0)
    p, q = diff.p, diff.q
    if q > 0:
        if p >= 0:
            return 1
        return 1 if q * q * d > p * p else -1
    if p <= 0:
        return -1
    return 1 if p * p > q * q * d else -1


def _triple(x):
    if isinstance(x, Surd):
        return x.p, x.q, x.r
    x = Fraction(x)
    return x.numerator, 0, x.denominator


@st.composite
def near_integer_surds(draw):
    """k + s*(u_n - v_n*sqrt(d))/r for a unit power u_n + v_n*sqrt(d) above
    2**41, so the value lies within 2**-41 of the integer k; q < 0 when
    s = 1."""
    d = draw(st.sampled_from(sorted(UNITS)))
    u, v = UNITS[d]
    un, vn = u, v
    for _ in range(draw(st.integers(0, 40))):
        un, vn = un * u + d * vn * v, un * v + vn * u
    while un < 2**41:
        un, vn = un * u + d * vn * v, un * v + vn * u
    k = draw(st.integers(-(10**6), 10**6))
    s = draw(st.sampled_from([1, -1]))
    r = draw(st.integers(1, 1000))
    return make_surd(k * r + s * un, -s * vn, r, d)


general_surds = st.builds(
    make_surd, big_ints, big_ints, st.integers(1, 2**200), st.sampled_from(SQUAREFREE)
).filter(lambda x: isinstance(x, Surd))
kernel_surds = st.one_of(
    general_surds,
    near_integer_surds(),
    surds.filter(lambda x: isinstance(x, Surd)),
)


@given(kernel_surds)
def test_float_is_interval_midpoint(x):
    lo, hi = x.interval(64)
    assert float(x).hex() == float((lo + hi) / 2).hex()


@given(kernel_surds)
def test_floor_matches_refinement(x):
    assert math.floor(x) == floor_oracle(x)
    assert math.floor(-x) == floor_oracle(-x)


@given(kernel_surds, st.data())
def test_compare_matches_difference_sign(a, data):
    b = data.draw(
        st.one_of(
            st.just(a),
            st.builds(lambda p, q, r: make_surd(p, q, r, a.d), big_ints, big_ints,
                      st.integers(1, 2**200)),
            st.builds(lambda t: a + t, st.fractions(max_denominator=2**60)),
            st.just(Fraction(math.floor(a))),
            st.just(math.floor(a) + 1),
        )
    )
    assert compare(a, b) == diff_sign_oracle(a, b)
    if isinstance(b, Surd):
        assert compare(b, a) == -diff_sign_oracle(a, b)


@given(
    st.integers(-(2**80), 2**80),
    st.one_of(st.just(0), st.integers(-(2**80), 2**80)),
    st.integers(-(2**80), 2**80).filter(lambda r: r != 0),
    st.integers(1, 10**6),
    st.sampled_from(SQUAREFREE),
)
def test_canon_matches_make_surd(p, q, r, g, d):
    args = (p * g, q * g, r * g, d)
    fast, slow = _canon(*args), make_surd(*args)
    assert type(fast) is type(slow) and fast == slow
    if isinstance(slow, Surd):
        assert (fast.p, fast.q, fast.r, fast.d) == (slow.p, slow.q, slow.r, slow.d)


# -- operand dispatch against the old isinstance order ----------------------
#
# The methods below are the dispatch as it was before Surd moved to the
# front of the isinstance chain and subtraction computed directly: Surd
# tested last, and subtraction through a negated operand.
# `isinstance_dispatch()` puts them on Surd for the length of a block.


def _old_coerce(self, other):
    if isinstance(other, bool):
        return None
    if isinstance(other, int):
        return other, 0, 1
    if isinstance(other, Fraction):
        return other.numerator, 0, other.denominator
    if isinstance(other, Surd):
        if other.d != self.d:
            raise MixedSurdFields(f"cannot combine sqrt({self.d}) with sqrt({other.d})")
        return other.p, other.q, other.r
    return None


def _old_diff_sign(self, other):
    if isinstance(other, Surd) and other.d != self.d:
        bits = 64
        while True:
            alo, ahi = self.interval(bits)
            blo, bhi = other.interval(bits)
            if ahi < blo:
                return -1
            if bhi < alo:
                return 1
            bits *= 2
    co = self._coerce(other)
    if co is None:
        raise TypeError(f"cannot compare Surd with {type(other).__name__}")
    p2, q2, r2 = co
    return _sign(self.p * r2 - p2 * self.r, self.q * r2 - q2 * self.r, self.d)


def _old_add(self, other):
    if isinstance(other, float):
        return float(self) + other
    co = self._coerce(other)
    if co is None:
        return NotImplemented
    p2, q2, r2 = co
    return _canon(
        self.p * r2 + p2 * self.r, self.q * r2 + q2 * self.r, self.r * r2, self.d
    )


def _old_sub(self, other):
    if isinstance(other, float):
        return float(self) - other
    return self + (-other)


def _old_rsub(self, other):
    if isinstance(other, float):
        return other - float(self)
    return (-self) + other


def _old_mul(self, other):
    if isinstance(other, float):
        return float(self) * other
    co = self._coerce(other)
    if co is None:
        return NotImplemented
    p2, q2, r2 = co
    d = self.d
    return _canon(self.p * p2 + self.q * q2 * d, self.p * q2 + self.q * p2, self.r * r2, d)


def _old_order(holds):
    def method(self, other):
        if isinstance(other, float):
            return holds(float(self), other)
        return holds(self._diff_sign(other), 0)

    return method


ISINSTANCE_DISPATCH = {
    "_coerce": _old_coerce,
    "_diff_sign": _old_diff_sign,
    "__add__": _old_add,
    "__radd__": _old_add,
    "__sub__": _old_sub,
    "__rsub__": _old_rsub,
    "__mul__": _old_mul,
    "__rmul__": _old_mul,
    "__lt__": _old_order(operator.lt),
    "__le__": _old_order(operator.le),
    "__gt__": _old_order(operator.gt),
    "__ge__": _old_order(operator.ge),
}


@contextlib.contextmanager
def isinstance_dispatch():
    saved = {name: Surd.__dict__[name] for name in ISINSTANCE_DISPATCH}
    try:
        for name, method in ISINSTANCE_DISPATCH.items():
            setattr(Surd, name, method)
        yield
    finally:
        for name, method in saved.items():
            setattr(Surd, name, method)


class IntSub(int):
    pass


class FractionSub(Fraction):
    pass


def outcome(op, a, b):
    """(type of the result, result), or (type of the exception, None)."""
    try:
        value = op(a, b)
    except Exception as exc:
        return type(exc), None
    return type(value), value


DISPATCH_OPS = [
    operator.add, operator.sub, operator.mul, operator.truediv,
    operator.lt, operator.le, operator.gt, operator.ge, operator.eq,
]
sqrt2_surds = st.builds(
    lambda p, q, r: make_surd(p, q, r, 2),
    st.integers(-(2**70), 2**70),
    st.integers(-(2**70), 2**70).filter(lambda q: q != 0),
    st.integers(1, 2**40),
)
plain_floats = st.one_of(
    st.floats(-1e6, 1e6),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
)
plain_fractions = st.fractions(max_denominator=10**9)
operands = st.one_of(
    st.integers(-(2**70), 2**70),
    st.booleans(),
    plain_fractions,
    st.integers(-(2**70), 2**70).map(IntSub),
    plain_fractions.map(lambda f: FractionSub(f.numerator, f.denominator)),
    plain_floats,
    plain_floats.map(np.float64),
    sqrt2_surds,
    st.builds(lambda p, q, d: make_surd(p, q, 1, d), st.integers(-9, 9),
              st.integers(1, 9), st.sampled_from([3, 5])),
)
ROOT2 = make_surd(-1, 1, 1, 2)


@settings(max_examples=300)
@given(sqrt2_surds, operands)
@example(ROOT2, 0)
@example(ROOT2, True)
@example(ROOT2, False)
@example(ROOT2, Fraction(0))
@example(ROOT2, IntSub(3))
@example(ROOT2, FractionSub(-2, 7))
@example(ROOT2, 0.5)
@example(ROOT2, math.nan)
@example(ROOT2, np.float64(-0.25))
@example(ROOT2, np.float64(math.nan))
@example(ROOT2, ROOT2)
@example(ROOT2, make_surd(1, 1, 1, 3))
def test_dispatch_matches_isinstance_chain(s, other):
    for op in DISPATCH_OPS:
        for a, b in ((s, other), (other, s)):
            got_type, got = outcome(op, a, b)
            with isinstance_dispatch():
                want_type, want = outcome(op, a, b)
            assert got_type is want_type, (op.__name__, a, b)
            assert got == want or (got != got and want != want), (op.__name__, a, b)


def test_reference_dispatch_is_restored():
    with isinstance_dispatch():
        assert Surd._coerce is _old_coerce
    assert Surd._coerce is not _old_coerce
    assert ROOT2 - True == ROOT2 - 1  # a bool negates to an int, as before
    with pytest.raises(TypeError):
        ROOT2 + True
