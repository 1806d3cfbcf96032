"""Truncated power series over the rationals with tracked precision.

An integer series ``(den, nums)`` stores the coefficients of t^0 .. t^cap
of an element of Q[[t]] as the integers ``nums`` over one ``den`` > 0;
everything above t^cap is unknown.  A series whose known coefficients
are all zero is "indistinguishable from 0 at this precision", not proven
zero.  `canonical` puts one in lowest terms (gcd(den, *nums) = 1), the
form of every deformation term coefficient and flag-step coefficient, so
equal series compare equal and the arithmetic runs on plain ints:
`mul_nums` multiplies, `div_nums` divides, `running_products` keeps
b1...bi and `combination` sums c_i * v_i over one denominator.  No
module of the package imports ``fractions`` at module scope: a scalar is
anything with ``numerator`` and ``denominator`` (an int or a Fraction)
or a rational string.

The files that hold series are read and printed here, on the integers
too, by the commands that import this module (`decompose`, `deform`):
`parse_series_literal` and `series_literal` read and print one series
literal, an array of rational strings ordered from t^0 (["0","2","1"] is
2t + t^2) that may be shorter than cap+1 (zero padded) but never longer,
and `parse_vector` and `parse_endomorphism` read a vector or
endomorphism file into one canonical `(den, rows)`, its literals parsed
once per file (`io.read_literal`) and put over their lcm in place
(`over_lcm`).  `read_cap` reads a file's cap and `require_series_cells`
bounds the matrix before it is built.  The rational literal grammar
itself, `rational_pair` and its one printer `ratio_str`, lives in `io`
with the algebra files and is imported from there.

A vector or matrix of series is no class of its own but one integer
matrix over one denominator, ``(den, rows)``: a vector file's rows[i],
an endomorphism's rows[r][c] and a deformation's perturbation rows each
hold the numerators of t^0 .. t^cap over den > 0.  `lowest_terms` makes
such a matrix canonical, gcd(den, every numerator) = 1, so that equal
vectors compare equal; the functions that take one never change it.

``TruncSeries`` is the same series as a namedtuple ``(den, nums)``, built
canonical: its binary operations contract to the smaller cap, and exact
division pays the divisor's valuation in precision.  No command builds
one: it stays for the tests' series oracle and for the benchmark tracer,
which wraps its methods by name.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import accumulate, chain, repeat
from math import gcd, lcm
from operator import mul

from .errors import (
    FormatError,
    NotAUnit,
    NotDivisible,
    PrecisionExhausted,
    TooLarge,
    ZeroDivisor,
)
from .io import MAX_CAP, MAX_SERIES_CELLS, ratio_str, rational_pair, read_int
from .io import read_literal


def scalar_pair(value) -> tuple[int, int]:
    """(num, den), den > 0, of an int, a Fraction or a rational string."""
    if isinstance(value, str):
        return rational_pair(value)
    try:
        return value.numerator, value.denominator
    except AttributeError:
        raise TypeError(f"cannot interpret {value!r} as an exact rational") from None


def lowest_terms(den: int, rows) -> tuple[int, list]:
    """The integer series rows over den > 0 with their common content
    divided out: the canonical (den, rows), gcd(den, every numerator) = 1.
    With den any common denominator of the values, the new den is the lcm
    of their reduced denominators."""
    common = gcd(den, *chain.from_iterable(rows)) if den > 1 else 1
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


def div_nums(a, b, cap: int) -> list[int]:
    """b0^(cap+1) times a / b up to t^cap, for integer series a known up to
    t^cap and b with b0 = b[0] != 0: one fraction-free division.

    The quotient c has c_k = q_k / b0^(k+1), where the integers
    q_k = a_k b0^k - sum_{i=1..k} b_i b0^(i-1) q_(k-i); the result is
    q_k * b0^(cap-k).
    """
    powers = list(accumulate(repeat(b[0], cap), mul, initial=1))  # b0^0 .. b0^cap
    weights = [(i, x * powers[i - 1]) for i, x in enumerate(b[: cap + 1]) if i and x]
    q = []
    for k, x in enumerate(a[: cap + 1]):
        acc = x * powers[k] if x else 0
        for i, w in weights:
            if i > k:
                break
            acc -= w * q[k - i]
        q.append(acc)
    return [qk * powers[cap - k] for k, qk in enumerate(q)]


def canonical(den: int, nums) -> tuple[int, tuple[int, ...]]:
    """The integer series nums / den, den > 0, in lowest terms: the one-row
    case of `lowest_terms`."""
    den, (nums,) = lowest_terms(den, [nums])
    return den, tuple(nums)


def running_products(coefficients, cap: int) -> list[tuple[int, list[int]]]:
    """b1, b1*b2, .., b1...bh of the integer series (den, nums) b1 .. bh,
    each cut to t^cap and over the product of the dens so far, not in
    lowest terms.  Every bi must be known up to t^cap."""
    den, nums, out = 1, [1] + [0] * cap, []
    for cden, cnums in coefficients:
        den, nums = den * cden, mul_nums(nums, cnums, cap)
        out.append((den, nums))
    return out


def combination(terms, dim: int, cap: int) -> tuple[int, list[list[int]]]:
    """The sum of c * vec / vden over (c, vden, vec) in terms, with c an
    integer series (den, nums) and vec dim ints: (den, rows), rows[i] the
    integers of t^0 .. t^cap of coordinate i over the lcm of the c den *
    vden, not in lowest terms."""
    den = lcm(1, *(cden * vden for (cden, _), vden, _ in terms))
    rows = [[0] * (cap + 1) for _ in range(dim)]
    for (cden, nums), vden, vec in terms:
        scale = den // (cden * vden)
        nums = [(p, scale * x) for p, x in enumerate(nums[: cap + 1]) if x]
        for i, v in enumerate(vec):
            if v:
                row = rows[i]
                for p, x in nums:
                    row[p] += v * x
    return den, rows


# -- series, vector and endomorphism files -------------------------------


def read_cap(value) -> int:
    """The cap field of a series-holding file, in 0..MAX_CAP."""
    cap = read_int(value, "cap")
    if cap < 0:
        raise FormatError(f"cap must be non-negative, got {cap}")
    if cap > MAX_CAP:
        raise FormatError(f"cap {cap} exceeds the largest supported cap {MAX_CAP}")
    return cap


def require_series_cells(rows: int, cap: int, what: str) -> None:
    """Raise TooLarge, before anything is allocated, when rows series of
    cap + 1 coefficients exceed MAX_SERIES_CELLS entries."""
    cells = rows * (cap + 1)
    if cells > MAX_SERIES_CELLS:
        raise TooLarge(
            f"{rows} {what} of {cap + 1} coefficients = {cells} entries exceed "
            f"the largest supported {MAX_SERIES_CELLS}"
        )


def over_lcm(rows) -> int:
    """The lcm of the denominators of `io.read_literal` values, with every
    row of them put over it in place as integers."""
    den = lcm(1, *(v[1] for row in rows for v in row if type(v) is tuple))
    if den > 1:
        for row in rows:
            row[:] = [v * den if type(v) is int else v[0] * (den // v[1]) for v in row]
    return den


def _read_series(literals, cap: int, seen: dict) -> tuple[int, list[list[int]]]:
    """The canonical (den, rows) of series literals, each zero padded to
    cap, their coefficients read in order (`io.read_literal`) and put over
    the lcm of the denominators, row by row in place."""
    require_series_cells(len(literals), cap, "series")
    rows = []
    for items in literals:
        if not isinstance(items, list):
            raise FormatError(f"series literal must be an array, got {items!r}")
        if len(items) > cap + 1:
            raise FormatError(
                f"series literal has {len(items)} coefficients, cap {cap} allows "
                f"{cap + 1}"
            )
        rows.append(
            [read_literal(c, seen) for c in items] + [0] * (cap + 1 - len(items))
        )
    return lowest_terms(over_lcm(rows), rows)


def parse_series_literal(items, cap: int, seen=None) -> tuple[int, tuple[int, ...]]:
    """The integer series (den, nums) of a literal in lowest terms, padded
    with zeros to cap; seen is the literal dict of its document
    (`io.read_literal`)."""
    den, (nums,) = _read_series([items], cap, {} if seen is None else seen)
    return den, tuple(nums)


def series_literal(s) -> list[str]:
    """The coefficients of an integer series (den, nums) as rational
    strings, each in lowest terms."""
    den, nums = s
    return [ratio_str(x, den) for x in nums]


def parse_vector(doc, default_cap: int) -> tuple[int, list[list[int]]]:
    """The canonical (den, rows) of a vector file: component i is rows[i] / den."""
    if not isinstance(doc, dict) or "components" not in doc:
        raise FormatError("vector file needs a 'components' array")
    cap = read_cap(doc.get("cap", default_cap))
    comps = doc["components"]
    if not isinstance(comps, list) or not comps:
        raise FormatError("'components' must be a non-empty array")
    return _read_series(comps, cap, {})


def parse_endomorphism(doc, dim: int, default_cap: int):
    """The canonical (den, rows) of an endomorphism file: entry (r, c) is
    rows[r][c] / den, its literals read row-major."""
    if not isinstance(doc, dict) or "matrix" not in doc:
        raise FormatError("endomorphism file needs a 'matrix' array")
    cap = read_cap(doc.get("cap", default_cap))
    matrix = doc["matrix"]
    if (
        not isinstance(matrix, list)
        or len(matrix) != dim
        or any(not isinstance(row, list) or len(row) != dim for row in matrix)
    ):
        raise FormatError(f"endomorphism matrix must be {dim}x{dim}")
    den, entries = _read_series([entry for row in matrix for entry in row], cap, {})
    return den, [entries[r * dim : (r + 1) * dim] for r in range(dim)]


class TruncSeries(namedtuple("TruncSeries", "den nums")):
    """Element of Q[[t]] known modulo t^(cap+1); coefficient i is nums[i] / den."""

    __slots__ = ()

    def __new__(cls, den: int, nums) -> TruncSeries:
        """nums / den in canonical form: den > 0, gcd(den, *nums) = 1."""
        if not nums:
            raise ValueError("a series needs at least the t^0 coefficient")
        if den <= 0:
            raise ValueError(f"denominator must be positive, got {den}")
        return super().__new__(cls, *canonical(den, nums))

    # -- construction ------------------------------------------------

    @classmethod
    def zero(cls, cap: int) -> TruncSeries:
        return cls(1, (0,) * (cap + 1))

    @classmethod
    def one(cls, cap: int) -> TruncSeries:
        return cls(1, (1,) + (0,) * cap)

    @classmethod
    def monomial(cls, power: int, cap: int, coeff=1) -> TruncSeries:
        """coeff * t^power at the given cap (coeff as in `scalar_pair`)."""
        if not 0 <= power <= cap:
            raise ValueError(f"monomial power {power} outside 0..{cap}")
        num, den = scalar_pair(coeff)
        nums = [0] * (cap + 1)
        nums[power] = num
        return cls(den, nums)

    # -- predicates ---------------------------------------------------

    @property
    def cap(self) -> int:
        return len(self.nums) - 1

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
        """scalar * self, scalar as in `scalar_pair`."""
        num, den = scalar_pair(scalar)
        return TruncSeries(self.den * den, [num * x for x in self.nums])

    def invert(self) -> TruncSeries:
        """Multiplicative inverse up to t^cap; the constant term must be a unit.

        The inverse of nums / den is den * div_nums(1, nums) / a0^(cap+1).
        """
        if not self.is_unit():
            raise NotAUnit("series with zero constant term has no inverse")
        scale = self.nums[0] ** (self.cap + 1)
        sign = 1 if scale > 0 else -1
        nums = div_nums((1,) + (0,) * self.cap, self.nums, self.cap)
        return TruncSeries(sign * scale, [sign * self.den * c for c in nums])

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
