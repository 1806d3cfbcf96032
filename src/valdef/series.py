"""Truncated power series over the rationals with tracked precision.

A ``TruncSeries`` stores the coefficients of t^0 .. t^cap of an element of
Q[[t]]; everything above t^cap is unknown.  A series whose known
coefficients are all zero is "indistinguishable from 0 at this precision",
not proven zero.  Binary operations contract to the smaller cap; exact
division additionally pays the divisor's valuation in precision.

The coefficients are integers over one common denominator: a positive
``den`` and a tuple ``nums``, kept canonical (gcd(den, *nums) = 1), so
equal series compare and hash equal and the arithmetic runs on plain
ints.  Series literals are read and printed on the integers too
(`rational_pair` here, `io.parse_series_literal` and `io.series_literal`).
`ratio_str` is the one printer of a rational, the inverse of
`rational_pair`; ``coeffs`` gives the coefficients as
``fractions.Fraction`` values for error messages and tests.

A vector or matrix of series is no class of its own but one integer
matrix over one denominator, ``(den, rows)``: a vector file's rows[i],
an endomorphism's rows[r][c] and a deformation's perturbation rows each
hold the numerators of t^0 .. t^cap over den > 0.  `lowest_terms` makes
such a matrix canonical, gcd(den, every numerator) = 1, so that equal
vectors compare equal; the functions that take one never change it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm

from .errors import (
    FormatError,
    NotAUnit,
    NotDivisible,
    PrecisionExhausted,
    ZeroDivisor,
)

ZERO = Fraction(0)
ONE = Fraction(1)


def rational_pair(text: str) -> tuple[int, int]:
    """Parse "p" or "p/q" into the integers (p, q), q > 0, not reduced.

    After surrounding whitespace is stripped, the literal must match
    [+-]?[0-9]+(/[0-9]+)? in ASCII: int() alone would also read "1_0",
    non-ASCII digits and "1/ 2".
    """
    if not isinstance(text, str):
        raise FormatError(f"rational literal must be a string, got {text!r}")
    num, slash, den = text.strip().partition("/")
    digits = num[1:] if num[:1] in ("+", "-") else num
    if not (digits.isdigit() and digits.isascii()):
        raise FormatError(f"bad rational literal {text!r}")
    if slash:
        # a q with a minus sign is read only to be refused with its own reason
        digits = den[1:] if den[:1] == "-" else den
        if not (digits.isdigit() and digits.isascii()):
            raise FormatError(f"bad rational literal {text!r}")
    try:
        num, den = int(num), int(den) if slash else 1
    except ValueError as exc:  # past the interpreter's limit on int digits
        raise FormatError(f"bad rational literal {text!r}") from exc
    if den <= 0:
        raise FormatError(f"denominator must be positive in {text!r}")
    return num, den


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q" (`rational_pair`) into a Fraction."""
    num, den = rational_pair(text)
    return Fraction(num) if den == 1 else Fraction(num, den)


def ratio_str(num: int, den: int) -> str:
    """num / den as a rational literal in lowest terms, for den > 0: the
    inverse of `rational_pair`, with no Fraction built."""
    common = gcd(num, den)
    if common == den:
        return str(num // common)
    return f"{num // common}/{den // common}"


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def lowest_terms(den: int, rows) -> tuple[int, list]:
    """The integer series rows over den > 0 with their common content
    divided out: the canonical (den, rows), gcd(den, every numerator) = 1.
    With den any common denominator of the values, the new den is the lcm
    of their reduced denominators."""
    common = gcd(den, *chain.from_iterable(rows))
    if common == 1:
        return den, rows
    return den // common, [[x // common for x in row] for row in rows]


def mul_nums(a, b, cap: int) -> list[int]:
    """Coefficients of t^0 .. t^cap of the product of two integer series."""
    theirs = [(j, y) for j, y in enumerate(b[: cap + 1]) if y]
    out = [0] * (cap + 1)
    for i, x in enumerate(a[: cap + 1]):
        if not x:
            continue
        for j, y in theirs:
            if i + j > cap:
                break
            out[i + j] += x * y
    return out


def inverse_nums(a) -> list[int]:
    """a0^(cap+1) times the inverse of the integer series a, up to t^cap.

    With cap = len(a) - 1 and a0 = a[0] != 0, the inverse b has
    b_k = c_k / a0^(k+1), where c_0 = 1 and
    c_k = -sum_{i=1..k} a_i a0^(i-1) c_(k-i) are integers; the result
    is c_k * a0^(cap-k).
    """
    a0, cap = a[0], len(a) - 1
    powers = [1]
    for _ in range(cap):
        powers.append(powers[-1] * a0)
    weights = [(i, x * powers[i - 1]) for i, x in enumerate(a) if i and x]
    c = [1]
    for k in range(1, cap + 1):
        acc = 0
        for i, w in weights:
            if i > k:
                break
            acc += w * c[k - i]
        c.append(-acc)
    return [ck * powers[cap - k] for k, ck in enumerate(c)]


class Frozen:
    """Base of the package's immutable value types.

    A subclass names its fields in __slots__ (plus "__dict__" when it
    caches properties).  This __init__ sets them once from one positional
    argument each, in that order; a subclass that normalizes its input
    sets each through object.__setattr__ in its own __init__.  Instances of one
    class compare equal, hash and print by their fields, and refuse any
    later assignment.
    """

    __slots__ = ()

    def __init__(self, *values) -> None:
        names = (f for f in self.__slots__ if f != "__dict__")
        for name, value in zip(names, values, strict=True):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__ if f != "__dict__")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        args = ", ".join(
            f"{f}={getattr(self, f)!r}" for f in self.__slots__ if f != "__dict__"
        )
        return f"{type(self).__name__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class TruncSeries(Frozen):
    """Element of Q[[t]] known modulo t^(cap+1); coefficient i is nums[i] / den."""

    __slots__ = ("den", "nums")

    def __init__(self, den: int, nums) -> None:
        """Store nums / den in canonical form: den > 0, gcd(den, *nums) = 1."""
        if not nums:
            raise ValueError("a series needs at least the t^0 coefficient")
        if den <= 0:
            raise ValueError(f"denominator must be positive, got {den}")
        common = gcd(den, *nums)
        if common != 1:
            den //= common
            nums = [x // common for x in nums]
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "nums", tuple(nums))

    # -- construction ------------------------------------------------

    @classmethod
    def from_coeffs(cls, coeffs, cap: int | None = None) -> TruncSeries:
        """Build from an iterable of scalars, padding with zeros to cap."""
        items = [_as_fraction(c) for c in coeffs]
        if cap is not None:
            if len(items) > cap + 1:
                raise ValueError(f"{len(items)} coefficients exceed cap {cap}")
            items += [ZERO] * (cap + 1 - len(items))
        den = lcm(1, *(x.denominator for x in items))
        return cls(den, [x.numerator * (den // x.denominator) for x in items])

    @classmethod
    def zero(cls, cap: int) -> TruncSeries:
        return cls(1, (0,) * (cap + 1))

    @classmethod
    def one(cls, cap: int) -> TruncSeries:
        return cls(1, (1,) + (0,) * cap)

    @classmethod
    def constant(cls, value, cap: int) -> TruncSeries:
        return cls.from_coeffs([_as_fraction(value)], cap=cap)

    @classmethod
    def monomial(cls, power: int, cap: int, coeff=ONE) -> TruncSeries:
        """coeff * t^power at the given cap."""
        if not 0 <= power <= cap:
            raise ValueError(f"monomial power {power} outside 0..{cap}")
        c = _as_fraction(coeff)
        nums = [0] * (cap + 1)
        nums[power] = c.numerator
        return cls(c.denominator, nums)

    # -- predicates ---------------------------------------------------

    @property
    def cap(self) -> int:
        return len(self.nums) - 1

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The known coefficients as Fractions, for messages and tests."""
        return tuple(Fraction(x, self.den) for x in self.nums)

    def valuation(self) -> int | None:
        """Index of the first nonzero coefficient, None if zero at cap."""
        for i, x in enumerate(self.nums):
            if x:
                return i
        return None

    def is_zero(self) -> bool:
        """Zero at this precision (not proven zero)."""
        return not any(self.nums)

    def is_unit(self) -> bool:
        return self.nums[0] != 0

    def in_maximal_ideal(self) -> bool:
        return self.nums[0] == 0

    # -- precision ----------------------------------------------------

    def truncate(self, cap: int) -> TruncSeries:
        if cap > self.cap:
            raise PrecisionExhausted(
                f"cannot extend a cap-{self.cap} series to cap {cap}"
            )
        return TruncSeries(self.den, self.nums[: cap + 1])

    # -- arithmetic ---------------------------------------------------

    def _combine(self, other: TruncSeries, sign: int) -> TruncSeries:
        """self + sign * other over the lcm of the two denominators."""
        a, b = self.den, other.den
        common = gcd(a, b)
        fa, fb = b // common, sign * (a // common)
        # zip stops at the shorter series: the sum has the smaller cap
        return TruncSeries(
            a * fa, [x * fa + y * fb for x, y in zip(self.nums, other.nums)]
        )

    def __add__(self, other: TruncSeries) -> TruncSeries:
        return self._combine(other, 1)

    def __sub__(self, other: TruncSeries) -> TruncSeries:
        return self._combine(other, -1)

    def __neg__(self) -> TruncSeries:
        return TruncSeries(self.den, [-x for x in self.nums])

    def __mul__(self, other) -> TruncSeries:
        if not isinstance(other, TruncSeries):
            return self.scale(other)
        cap = min(self.cap, other.cap)
        return TruncSeries(self.den * other.den, mul_nums(self.nums, other.nums, cap))

    def __rmul__(self, other) -> TruncSeries:
        return self.scale(other)

    def scale(self, scalar) -> TruncSeries:
        s = _as_fraction(scalar)
        p = s.numerator
        return TruncSeries(self.den * s.denominator, [p * x for x in self.nums])

    def invert(self) -> TruncSeries:
        """Multiplicative inverse up to t^cap; the constant term must be a unit.

        The inverse of nums / den is den * inverse_nums(nums) / a0^(cap+1).
        """
        if not self.is_unit():
            raise NotAUnit("series with zero constant term has no inverse")
        scale = self.nums[0] ** (self.cap + 1)
        sign = 1 if scale > 0 else -1
        return TruncSeries(
            sign * scale, [sign * self.den * c for c in inverse_nums(self.nums)]
        )

    def div_exact(self, other: TruncSeries) -> TruncSeries:
        """Exact quotient self/other inside Q[[t]].

        The result cap is min(cap, other.cap) - valuation(other): dividing
        by t^v costs v known coefficients.
        """
        v = other.valuation()
        if v is None:
            raise ZeroDivisor("divisor is zero at its cap")
        cap = min(self.cap, other.cap) - v
        if cap < 0:
            raise PrecisionExhausted(
                f"division by valuation-{v} series leaves cap {cap}"
            )
        mine = self.valuation()
        if mine is None:
            return TruncSeries.zero(cap)
        if mine < v:
            raise NotDivisible(
                f"valuation {mine} numerator not divisible by valuation {v}"
            )
        unit = TruncSeries(other.den, other.nums[v : v + cap + 1])
        return TruncSeries(self.den, self.nums[v : v + cap + 1]) * unit.invert()

    # -- display ------------------------------------------------------

    def __str__(self) -> str:
        terms = []
        for i, x in enumerate(self.nums):
            if not x:
                continue
            c = ratio_str(x, self.den)
            if i == 0:
                terms.append(c)
            elif i == 1:
                terms.append(f"{c}*t" if x != self.den else "t")
            else:
                terms.append(f"{c}*t^{i}" if x != self.den else f"t^{i}")
        body = " + ".join(terms) if terms else "0"
        return f"{body} + O(t^{self.cap + 1})"
