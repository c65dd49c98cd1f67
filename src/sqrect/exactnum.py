"""Exact scalar arithmetic: rationals and real quadratic surds.

A scalar is one of ``int``, ``fractions.Fraction``, :class:`Surd` or
``float``.  The first three are exact and closed under field operations
inside a single quadratic field Q(sqrt(d)); floats contaminate, i.e. any
operation with a float operand produces a float.

A :class:`Surd` stores ``(p + q*sqrt(d)) / r`` with integers
``p, q, r``, ``gcd(p, q, r) == 1``, ``r > 0``, ``q != 0`` and ``d``
square-free, ``d >= 2``.  This representation is canonical, so equality
is structural and hashing works.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from .errors import MixedSurdFields

Exact = Union[int, Fraction, "Surd"]
Number = Union[int, Fraction, "Surd", float]

_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


# Trial division past _SMALL_PRIMES runs up to the square root of what is
# left, so the cofactor is capped to keep construction from input bounded.
_MAX_COFACTOR = 10**12


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Return (s, f) with n = s**2 * f and f square-free.

    Raises ValueError when n is not positive, or when the cofactor left
    after removing _SMALL_PRIMES exceeds 10**12 (too costly to factor).
    """
    if n <= 0:
        raise ValueError("radicand must be positive")
    s, f = 1, 1
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        while n % (p * p) == 0:
            n //= p * p
            s *= p
        if n % p == 0:
            n //= p
            f *= p
    if n > _MAX_COFACTOR:
        raise ValueError(
            f"radicand too large: cofactor {n} exceeds {_MAX_COFACTOR}"
        )
    # remaining n has no small square factors; check for a large square
    p = 49
    while p * p <= n:
        if n % p == 0:
            while n % (p * p) == 0:
                n //= p * p
                s *= p
            if n % p == 0:
                n //= p
                f *= p
        p += 2
    r = math.isqrt(n)
    if r * r == n:
        return s * r, f
    return s, f * n


def _sqrt_int_interval(d: int, bits: int) -> tuple[Fraction, Fraction]:
    """Rational enclosure of sqrt(d) of width 2**-bits."""
    n = math.isqrt(d << (2 * bits))
    lo = Fraction(n, 1 << bits)
    hi = Fraction(n + 1, 1 << bits)
    return lo, hi


def _sign(a: int, b: int, d: int) -> int:
    """Sign of a + b*sqrt(d) for integers a, b and square-free d >= 2."""
    if b == 0:
        return (a > 0) - (a < 0)
    if b > 0:
        return 1 if a >= 0 or b * b * d > a * a else -1
    return -1 if a <= 0 or b * b * d > a * a else 1


class Surd:
    """(p + q*sqrt(d)) / r in canonical form.  Immutable."""

    __slots__ = ("p", "q", "r", "d")

    def __init__(self, p: int, q: int, r: int, d: int):
        # Raw constructor: inputs must already be canonical.  Use
        # make_surd() for general construction.
        self.p = p
        self.q = q
        self.r = r
        self.d = d

    # -- construction helpers -------------------------------------------

    @staticmethod
    def of_sqrt(n: int) -> Exact:
        """sqrt(n) for a nonnegative integer n."""
        if n == 0:
            return 0
        s, f = squarefree_decompose(n)
        if f == 1:
            return s
        return Surd(0, s, 1, f)

    # -- sign, compare, float -------------------------------------------

    def sign(self) -> int:
        return _sign(self.p, self.q, self.d)

    def __bool__(self) -> bool:
        return True  # q != 0 means never zero

    def interval(self, bits: int = 64) -> tuple[Fraction, Fraction]:
        lo, hi = _sqrt_int_interval(self.d, bits)
        if self.q < 0:
            lo, hi = hi, lo
        return (
            Fraction(self.p + self.q * lo, self.r),
            Fraction(self.p + self.q * hi, self.r),
        )

    def __float__(self) -> float:
        # the midpoint of interval(64) as one correctly rounded int
        # division: naive float arithmetic amplifies rounding when p and
        # q*sqrt(d) nearly cancel
        n = math.isqrt(self.d << 128)
        return ((self.p << 65) + self.q * (2 * n + 1)) / (self.r << 65)

    def _diff_sign(self, other: Number) -> int:
        """Sign of self - other for an exact operand."""
        if isinstance(other, Surd) and other.d != self.d:
            # distinct square-free radicands: values can only coincide if
            # both are rational, which the invariant excludes, so interval
            # refinement terminates.
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
        # both denominators are positive, so scaling by r*r2 keeps the sign
        return _sign(self.p * r2 - p2 * self.r, self.q * r2 - q2 * self.r, self.d)

    def __eq__(self, other) -> bool:
        if isinstance(other, Surd):
            return (self.p, self.q, self.r, self.d) == (
                other.p,
                other.q,
                other.r,
                other.d,
            )
        if isinstance(other, (int, Fraction)):
            return False  # q != 0
        if isinstance(other, float):
            return float(self) == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.p, self.q, self.r, self.d))

    def __lt__(self, other):
        if isinstance(other, float):
            return float(self) < other
        return self._diff_sign(other) < 0

    def __le__(self, other):
        if isinstance(other, float):
            return float(self) <= other
        return self._diff_sign(other) <= 0

    def __gt__(self, other):
        if isinstance(other, float):
            return float(self) > other
        return self._diff_sign(other) > 0

    def __ge__(self, other):
        if isinstance(other, float):
            return float(self) >= other
        return self._diff_sign(other) >= 0

    def __floor__(self) -> int:
        # q*sqrt(d) is irrational and lies strictly between m and m + 1
        m = math.isqrt(self.q * self.q * self.d)
        if self.q < 0:
            m = -m - 1
        return (self.p + m) // self.r

    def __abs__(self):
        return self if self.sign() > 0 else -self

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other) -> tuple[int, int, int] | None:
        """Express an exact operand over (num_p, num_q, den) in this field;
        None for a bool or a non-exact operand."""
        # Surd first: it is the usual operand, and isinstance against
        # Fraction, an ABC check, is slow for any operand that is not a
        # Fraction.
        if isinstance(other, Surd):
            if other.d != self.d:
                raise MixedSurdFields(
                    f"cannot combine sqrt({self.d}) with sqrt({other.d})"
                )
            return other.p, other.q, other.r
        if isinstance(other, bool):
            return None
        if isinstance(other, int):
            return other, 0, 1
        if isinstance(other, Fraction):
            return other.numerator, 0, other.denominator
        return None

    def __add__(self, other):
        if isinstance(other, float):
            return float(self) + other
        co = self._coerce(other)
        if co is None:
            return NotImplemented
        p2, q2, r2 = co
        return _canon(
            self.p * r2 + p2 * self.r, self.q * r2 + q2 * self.r, self.r * r2, self.d
        )

    __radd__ = __add__

    def __neg__(self):
        return Surd(-self.p, -self.q, self.r, self.d)

    def __sub__(self, other):
        if isinstance(other, float):
            return float(self) - other
        co = self._coerce(other)
        if co is None:
            return self + (-other)  # a bool negates to an int
        p2, q2, r2 = co
        return _canon(
            self.p * r2 - p2 * self.r, self.q * r2 - q2 * self.r, self.r * r2, self.d
        )

    def __rsub__(self, other):
        if isinstance(other, float):
            return other - float(self)
        co = self._coerce(other)
        if co is None:
            return (-self) + other
        p2, q2, r2 = co
        return _canon(
            p2 * self.r - self.p * r2, q2 * self.r - self.q * r2, self.r * r2, self.d
        )

    def __mul__(self, other):
        if isinstance(other, float):
            return float(self) * other
        co = self._coerce(other)
        if co is None:
            return NotImplemented
        p2, q2, r2 = co
        d = self.d
        return _canon(
            self.p * p2 + self.q * q2 * d,
            self.p * q2 + self.q * p2,
            self.r * r2,
            d,
        )

    __rmul__ = __mul__

    def _inverse(self) -> "Surd":
        # 1/((p+q sqrt d)/r) = r(p - q sqrt d)/(p^2 - q^2 d)
        norm = self.p * self.p - self.q * self.q * self.d
        return _canon(self.r * self.p, -self.r * self.q, norm, self.d)

    def __truediv__(self, other):
        if isinstance(other, float):
            return float(self) / other
        if isinstance(other, Surd):
            if other.d != self.d:
                raise MixedSurdFields(
                    f"cannot combine sqrt({self.d}) with sqrt({other.d})"
                )
            return self * other._inverse()
        if isinstance(other, bool):
            return NotImplemented
        if isinstance(other, int):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            return _canon(self.p, self.q, self.r * other, self.d)
        if isinstance(other, Fraction):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            return _canon(
                self.p * other.denominator,
                self.q * other.denominator,
                self.r * other.numerator,
                self.d,
            )
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, float):
            return other / float(self)
        return self._inverse() * other

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self._inverse() ** (-n)
        result: Exact = 1
        base: Exact = self
        while n:
            if n & 1:
                result = base * result
            base = base * base
            n >>= 1
        return result

    def __repr__(self) -> str:
        return f"Surd({self.p}, {self.q}, {self.r}, {self.d})"

    def __str__(self) -> str:
        body = f"{self.p}{self.q:+}*sqrt({self.d})"
        return body if self.r == 1 else f"({body})/{self.r}"


def _canon(p: int, q: int, r: int, d: int) -> Exact:
    """Canonical (p + q*sqrt(d))/r for a d that is already square-free,
    d >= 2, demoting to Fraction/int when q == 0."""
    if r == 0:
        raise ZeroDivisionError("division by zero")
    if q == 0:
        frac = Fraction(p, r)
        return frac.numerator if frac.denominator == 1 else frac
    if r < 0:
        p, q, r = -p, -q, -r
    g = math.gcd(p, q, r)
    if g > 1:
        p //= g
        q //= g
        r //= g
    return Surd(p, q, r, d)


def make_surd(p: int, q: int, r: int, d: int) -> Exact:
    """Build (p + q*sqrt(d))/r in canonical form, demoting to Fraction/int."""
    if r == 0:
        raise ZeroDivisionError("division by zero")
    s, f = squarefree_decompose(d)
    if f == 1:
        # a square radicand folds sqrt into the rational part
        return _canon(p + q * s, 0, r, 1)
    return _canon(p, q * s, r, f)


# -- generic helpers -----------------------------------------------------


def is_exact(x: Number) -> bool:
    return not isinstance(x, float)


def sign(x: Number) -> int:
    if isinstance(x, Surd):
        return x.sign()
    return (x > 0) - (x < 0)


def nfloor(x: Number) -> int:
    """Exact floor for any scalar."""
    return math.floor(x)


def compare(a: Number, b: Number) -> int:
    """-1, 0 or +1 as a <, ==, > b."""
    if isinstance(a, Surd) and not isinstance(b, float):
        return a._diff_sign(b)
    if isinstance(b, Surd) and not isinstance(a, float):
        return -b._diff_sign(a)
    return (a > b) - (a < b)


def eval_interval(x: Number, bits: int = 128) -> tuple[Fraction, Fraction]:
    """Rational enclosure of an exact scalar."""
    if isinstance(x, Surd):
        return x.interval(bits)
    if isinstance(x, float):
        f = Fraction(x)
        return f, f
    f = Fraction(x)
    return f, f


# -- parser --------------------------------------------------------------
#
# Grammar:  expr   := term (('+'|'-') term)*
#           term   := factor (('*'|'/') factor)*
#           factor := '-' factor | atom
#           atom   := INT | FLOAT | 'sqrt' '(' expr ')' | '(' expr ')'
#
# Each open parenthesis costs four stack frames of the recursive descent, so
# nesting is bounded well inside Python's recursion limit.

MAX_NESTING = 100


class _Tokens:
    def __init__(self, text: str):
        self.toks: list[str] = []
        i, n, depth = 0, len(text), 0
        while i < n:
            c = text[i]
            if c.isspace():
                i += 1
            elif c in "+-*/()":
                self.toks.append(c)
                i += 1
                depth += (c == "(") - (c == ")")
                if depth > MAX_NESTING:
                    raise ValueError(f"parentheses nested deeper than {MAX_NESTING}")
            elif c.isdigit() or c == ".":
                j = i
                while j < n and (text[j].isdigit() or text[j] == "."):
                    j += 1
                self.toks.append(text[i:j])
                i = j
            elif c.isalpha():
                j = i
                while j < n and text[j].isalpha():
                    j += 1
                self.toks.append(text[i:j])
                i = j
            else:
                raise ValueError(f"bad character {c!r} in number")
        self.pos = 0

    def peek(self) -> str | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self) -> str:
        t = self.peek()
        if t is None:
            raise ValueError("unexpected end of number expression")
        self.pos += 1
        return t

    def expect(self, t: str) -> None:
        got = self.next()
        if got != t:
            raise ValueError(f"expected {t!r}, got {got!r}")


def _parse_expr(tk: _Tokens) -> Number:
    val = _parse_term(tk)
    while tk.peek() in ("+", "-"):
        op = tk.next()
        rhs = _parse_term(tk)
        val = val + rhs if op == "+" else val - rhs
    return val


def _parse_term(tk: _Tokens) -> Number:
    val = _parse_factor(tk)
    while tk.peek() in ("*", "/"):
        op = tk.next()
        rhs = _parse_factor(tk)
        if op == "*":
            val = val * rhs
        elif isinstance(val, int) and isinstance(rhs, int):
            val = Fraction(val, rhs)  # keep integer quotients exact
        else:
            val = val / rhs
    return val


def _parse_factor(tk: _Tokens) -> Number:
    negate = False
    while tk.peek() == "-":  # a loop, not a recursion: '---x' nests nothing
        tk.next()
        negate = not negate
    val = _parse_atom(tk)
    return -val if negate else val


def _parse_atom(tk: _Tokens) -> Number:
    t = tk.next()
    if t == "(":
        val = _parse_expr(tk)
        tk.expect(")")
        return val
    if t == "sqrt":
        tk.expect("(")
        arg = _parse_expr(tk)
        tk.expect(")")
        if isinstance(arg, float):
            return math.sqrt(arg)
        if isinstance(arg, Surd):
            raise ValueError("nested sqrt is not supported")
        frac = Fraction(arg)
        if frac < 0:
            raise ValueError("sqrt of a negative number")
        root = Surd.of_sqrt(frac.numerator * frac.denominator)
        return root / frac.denominator if frac.denominator != 1 else root
    if "." in t:
        return float(t)
    if t.isdigit():
        return int(t)
    raise ValueError(f"unexpected token {t!r}")


def parse_number(text: str) -> Number:
    """Parse e.g. '3/8', 'sqrt(2)-1', '(1-3+sqrt(8))/2' or '0.7071'.

    Decimal literals produce floats; everything else stays exact.
    """
    tk = _Tokens(text)
    val = _parse_expr(tk)
    if tk.peek() is not None:
        raise ValueError(f"trailing input {tk.peek()!r}")
    if isinstance(val, Fraction) and val.denominator == 1:
        return val.numerator
    return val


def format_number(x: Number) -> str:
    if isinstance(x, float):
        return repr(x)
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return str(x)
