"""Truncated series arithmetic and the capped precision model."""

import random
import re

from fractions import Fraction
from math import gcd, prod

import pytest

from valdef.errors import (
    FormatError,
    NotAUnit,
    NotDivisible,
    PrecisionExhausted,
    ZeroDivisor,
)
from valdef.io import ratio_str, rational_pair
from valdef.series import TruncSeries, parse_series_literal, series_literal

from gens import (
    constant_series,
    integer_series,
    parse_rational,
    random_series_in_m,
    rational_cochain,
    rational_lie,
    rational_str,
    series_coeffs,
    series_of,
)


def ts(coeffs, cap):
    return series_of(coeffs, cap=cap)


def test_parse_rational_forms():
    assert parse_rational("3") == Fraction(3)
    assert parse_rational("-7/2") == Fraction(-7, 2)
    assert ratio_str(-7, 2) == "-7/2"
    assert ratio_str(4, 2) == "2"


def test_parse_rational_rejects_bad_literals():
    for bad in ("1/0", "1/-2", "x", "1/2/3", "", "+", "/2", "3/", "--1", "1e3", "\u00b2"):
        with pytest.raises(FormatError):
            parse_rational(bad)
    # int() reads each of these; the grammar is [+-]?[0-9]+(/[0-9]+)? in ASCII
    for bad in ("1_0", "\u0663", "\uff11\uff12", "1/ 2", "1 /2", "1/+2", "1/\u0662"):
        with pytest.raises(FormatError, match="bad rational literal"):
            parse_rational(bad)
        with pytest.raises(FormatError, match="bad rational literal"):
            parse_series_literal(["0", bad], 3)


def test_parse_rational_accepts_exactly_the_ascii_grammar():
    """After strip(), a literal parses iff it matches [+-]?[0-9]+(/[0-9]+)?
    with a nonzero q, to Fraction(p, q); the integer pair and the series
    parser agree with it."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    grammar = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")

    @hypothesis.settings(max_examples=400, deadline=None, database=None)
    @hypothesis.given(st.text(alphabet="0123456789+-/ _\t\u0663\uff11\u00b2e", max_size=8))
    def check(text):
        match = grammar.fullmatch(text.strip())
        if match is None or int(match.group(2) or 1) == 0:
            with pytest.raises(FormatError):
                rational_pair(text)
            with pytest.raises(FormatError):
                parse_series_literal([text], 0)
            return
        p, q = int(match.group(1)), int(match.group(2) or 1)
        assert rational_pair(text) == (p, q)
        assert parse_rational(text) == Fraction(p, q)
        assert series_coeffs(TruncSeries(*parse_series_literal([text], 0))) == (
            Fraction(p, q),
        )

    check()


def test_series_literal_parser_matches_fraction_parse():
    """series.parse_series_literal reads integer pairs over one lcm; it gives the
    TruncSeries that the Fraction parse gives, and the same error text."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def literal(draw):
        """(text, value): unreduced, signed, zero-padded "p" and "p/q"."""
        sign = draw(st.sampled_from(("", "+", "-")))
        p = draw(st.one_of(st.integers(0, 12), st.integers(0, 10**40)))
        zeros = "0" * draw(st.integers(0, 3))
        if draw(st.booleans()):
            return f"{sign}{zeros}{p}", Fraction(-p if sign == "-" else p)
        q = draw(st.integers(1, 36)) * draw(st.sampled_from((1, 2, 6, 10**20)))
        qzeros = "0" * draw(st.integers(0, 2))
        value = Fraction(-p if sign == "-" else p, q)
        return f"{sign}{zeros}{p}/{qzeros}{q}", value

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(st.integers(0, 24), st.data())
    def check(cap, data):
        items = data.draw(st.lists(literal(), max_size=cap + 1))
        texts = [t for t, _ in items]
        got = TruncSeries(*parse_series_literal(texts, cap))
        assert got == series_of([parse_rational(t) for t in texts], cap)
        assert series_coeffs(got) == tuple(v for _, v in items) + (Fraction(0),) * (
            cap + 1 - len(items)
        )
        # one malformed literal among good ones: the error is the literal's
        bad = data.draw(
            st.sampled_from(("1_0", "x", "1/0", "1/-2", "", " 1 /2", "\u0663", 3, None))
        )
        at = data.draw(st.integers(0, min(len(texts), cap)))
        texts = texts[:at] + [bad] + texts[at:cap]
        with pytest.raises(FormatError) as want:
            parse_rational(bad)
        with pytest.raises(FormatError) as err:
            parse_series_literal(texts, cap)
        assert str(err.value) == str(want.value)

    check()
    texts = ["2/4", "-0/5", "007", "-003/010", "+6/4"]
    assert parse_series_literal(texts, 6) == integer_series(
        TruncSeries(10, [5, 0, 70, -3, 15, 0, 0])
    )
    with pytest.raises(FormatError) as err:
        parse_series_literal(["0", "1", "2"], 1)
    assert str(err.value) == "series literal has 3 coefficients, cap 1 allows 2"
    with pytest.raises(FormatError) as err:
        parse_series_literal("0", 1)
    assert str(err.value) == "series literal must be an array, got '0'"


def test_series_literal_printer_matches_rational_str():
    """series.series_literal prints nums / den entry by entry, in lowest terms,
    as rational_str(Fraction(x, den)) does: zero and negative entries, and
    entries sharing factors with den."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    dens = st.lists(st.sampled_from((2, 3, 5, 7, 10**9 + 7)), max_size=5).map(prod)

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(
        dens,
        st.lists(
            st.tuples(st.integers(-(10**12), 10**12), st.sampled_from((1, 2, 3, 5, 6))),
            min_size=1,
            max_size=10,
        ),
    )
    def check(den, entries):
        # each entry a multiple of a small factor, which den may share
        s = TruncSeries(den, [x * f for x, f in entries])
        want = [rational_str(Fraction(x, s.den)) for x in s.nums]
        assert series_literal(integer_series(s)) == want
        assert parse_series_literal(series_literal(integer_series(s)), s.cap) == (
            integer_series(s)
        )

    check()


def test_add_examples():
    a = ts([1, 1], 3)
    b = ts([0, 1], 3)
    assert series_coeffs(a + b) == (Fraction(1), Fraction(2), Fraction(0), Fraction(0))
    s = ts([0, 5, -2], 4)
    assert (s + TruncSeries.zero(4)) == s
    # cancellation with cap contraction
    c = (TruncSeries.monomial(2, 4) + TruncSeries.monomial(2, 2, -1))
    assert c.cap == 2 and c.is_zero()


def test_mul_examples():
    prod = ts([1, 1], 3) * ts([1, -1], 3)
    assert series_coeffs(prod) == (Fraction(1), Fraction(0), Fraction(-1), Fraction(0))
    assert series_coeffs(TruncSeries.monomial(1, 4) * TruncSeries.monomial(1, 4))[2] == 1
    z = ts([0, 2, 1], 4) * TruncSeries.zero(4)
    assert z.is_zero()


def test_invert_examples():
    inv = ts([1, 1], 3).invert()
    assert series_coeffs(inv) == (Fraction(1), Fraction(-1), Fraction(1), Fraction(-1))
    assert series_coeffs(constant_series(2, 2).invert())[0] == Fraction(1, 2)
    with pytest.raises(NotAUnit):
        TruncSeries.monomial(1, 3).invert()


def test_div_exact_examples():
    q = ts([0, 2, 1], 4).div_exact(TruncSeries.monomial(1, 4))
    assert q.cap == 3
    assert series_coeffs(q) == (Fraction(2), Fraction(1), Fraction(0), Fraction(0))
    q2 = TruncSeries.monomial(2, 5).div_exact(TruncSeries.monomial(2, 5))
    assert q2.cap == 3 and series_coeffs(q2)[0] == 1
    with pytest.raises(NotDivisible):
        TruncSeries.monomial(1, 4).div_exact(TruncSeries.monomial(2, 4))
    with pytest.raises(ZeroDivisor):
        ts([1], 3).div_exact(TruncSeries.zero(3))


def test_div_exhausts_precision():
    # dividing a cap-1 series by t^2 would leave cap -1
    with pytest.raises(PrecisionExhausted):
        TruncSeries.monomial(1, 1).div_exact(TruncSeries.monomial(2, 2))
    # cap 2 over valuation 2 leaves cap 0: still representable
    q = TruncSeries.monomial(2, 2).div_exact(TruncSeries.monomial(2, 2))
    assert q.cap == 0 and series_coeffs(q)[0] == 1


def test_valuation_examples():
    assert ts([0, 0, 1, 2], 3).valuation() == 2
    assert ts([1, 1], 3).valuation() == 0
    assert TruncSeries.zero(4).valuation() is None


def test_maximal_ideal_and_units():
    assert TruncSeries.monomial(1, 3).in_maximal_ideal()
    assert not TruncSeries.monomial(1, 3).is_unit()
    assert ts([2, 5], 3).is_unit()


def test_valuation_multiplicative():
    rng = random.Random(101)
    for _ in range(100):
        cap = rng.randint(2, 10)
        a = random_series_in_m(rng, cap, max_num=9, max_den=5)
        b = random_series_in_m(rng, cap, max_num=9, max_den=5)
        va, vb = a.valuation(), b.valuation()
        if va is None or vb is None or va + vb > cap:
            continue
        assert (a * b).valuation() == va + vb


def test_mul_invert_roundtrip():
    rng = random.Random(102)
    for _ in range(100):
        cap = rng.randint(1, 9)
        coeffs = [Fraction(rng.randint(1, 9), rng.randint(1, 5))] + [
            Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(cap)
        ]
        a = ts(coeffs, cap)
        assert (a * a.invert()) == TruncSeries.one(cap)


def test_div_mul_roundtrip():
    rng = random.Random(103)
    checked = 0
    while checked < 100:
        cap = rng.randint(3, 10)
        a = random_series_in_m(rng, cap, max_num=9, max_den=5)
        b = random_series_in_m(rng, cap, max_num=9, max_den=5)
        vb = b.valuation()
        if vb is None or vb > 2:
            continue
        q = (a * b).div_exact(b)
        assert q == a.truncate(q.cap)
        checked += 1


def test_ring_axioms_random():
    rng = random.Random(104)
    for _ in range(60):
        cap = rng.randint(1, 8)
        a = random_series_in_m(rng, cap, max_num=7, max_den=4)
        b = random_series_in_m(rng, cap, max_num=7, max_den=4)
        c = random_series_in_m(rng, cap, max_num=7, max_den=4)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a


def test_literal_cap_mismatch_rejected():
    with pytest.raises(ValueError):
        series_of([1, 2, 3], cap=1)


# -- Fraction reference ------------------------------------------------
# Coefficient lists of Fractions, worked the textbook way, so the integer
# arithmetic of TruncSeries is checked against an independent one.


def ref_mul(a, b):
    n = min(len(a), len(b))
    return [sum((a[i] * b[k - i] for i in range(k + 1)), Fraction(0)) for k in range(n)]


def ref_invert(a):
    out = [1 / a[0]]
    for k in range(1, len(a)):
        acc = sum((a[i] * out[k - i] for i in range(1, k + 1)), Fraction(0))
        out.append(-acc / a[0])
    return out


def ref_div_exact(a, b):
    v = next(i for i, x in enumerate(b) if x)
    n = min(len(a), len(b)) - v
    return ref_mul(a[v : v + n], ref_invert(b[v : v + n]))


def random_coeffs(rng, cap, zeros=0):
    """cap + 1 rationals over denominators built from 3, 5 and 7, signed,
    the first `zeros` of them zero."""

    def one():
        if rng.random() < 0.25:
            return Fraction(0)
        den = rng.choice((3, 5, 7)) ** rng.randint(0, 2) * rng.choice((1, 3, 5, 7))
        return Fraction(rng.randint(-30, 30), den)

    return [Fraction(0)] * zeros + [one() for _ in range(cap + 1 - zeros)]


def random_nonzero(rng):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 30), rng.choice((1, 3, 5, 7, 21)))


def test_integer_arithmetic_matches_fraction_reference():
    rng = random.Random(105)
    units = 0
    for _ in range(300):
        a = random_coeffs(rng, rng.randint(0, 10))
        b = random_coeffs(rng, rng.randint(0, 10))
        sa, sb = ts(a, None), ts(b, None)
        assert series_coeffs(sa) == tuple(a)
        assert series_coeffs(sa + sb) == tuple(x + y for x, y in zip(a, b))
        assert series_coeffs(sa - sb) == tuple(x - y for x, y in zip(a, b))
        assert series_coeffs(-sa) == tuple(-x for x in a)
        assert series_coeffs(sa * sb) == tuple(ref_mul(a, b))
        c = rng.choice((Fraction(0), random_nonzero(rng)))
        assert series_coeffs(sa.scale(c)) == tuple(c * x for x in a)
        assert series_coeffs(sa * c) == series_coeffs(c * sa) == series_coeffs(sa.scale(c))
        cut = rng.randint(0, len(a) - 1)
        assert series_coeffs(sa.truncate(cut)) == tuple(a[: cut + 1])
        assert sa.valuation() == next((i for i, x in enumerate(a) if x), None)
        if a[0]:
            units += 1
            assert series_coeffs(sa.invert()) == tuple(ref_invert(a))
        else:
            with pytest.raises(NotAUnit):
                sa.invert()
    assert units > 150


def test_div_exact_matches_fraction_reference():
    rng = random.Random(106)
    seen = {"quotient": 0, "zero": 0, "not_divisible": 0}
    for _ in range(300):
        v = rng.randint(0, 3)
        cap = rng.randint(v, 10)
        b = random_coeffs(rng, cap, zeros=v)
        b[v] = random_nonzero(rng)
        kind = rng.choice(list(seen))
        cap_a = rng.randint(v, 10)
        if kind == "zero":
            a = [Fraction(0)] * (cap_a + 1)
        elif kind == "not_divisible" and v:
            w = rng.randint(0, v - 1)
            a = random_coeffs(rng, cap_a, zeros=w)
            a[w] = random_nonzero(rng)
        else:
            kind = "quotient"
            a = random_coeffs(rng, cap_a, zeros=rng.randint(v, cap_a))
        seen[kind] += 1
        sa, sb = ts(a, None), ts(b, None)
        if kind == "not_divisible":
            with pytest.raises(NotDivisible):
                sa.div_exact(sb)
            continue
        q = sa.div_exact(sb)
        assert q.cap == min(cap_a, cap) - v
        assert series_coeffs(q) == tuple(ref_div_exact(a, b))
    assert min(seen.values()) > 40


def test_canonical_form_equality_and_hash():
    rng = random.Random(107)
    for _ in range(100):
        a = random_coeffs(rng, rng.randint(0, 8))
        s = ts(a, None)
        scaled = [s + s, s - s, s * s, s.scale(Fraction(-3, 5)), s.truncate(0)]
        for r in [s] + scaled:
            assert r.den > 0 and gcd(r.den, *r.nums) == 1
        # the same value from non-reduced input is the same series
        k = rng.randint(2, 60)
        again = TruncSeries(s.den * k, [x * k for x in s.nums])
        assert (again.den, again.nums) == (s.den, s.nums)
        assert again == s and hash(again) == hash(s)
        assert s - s == TruncSeries.zero(s.cap) and (s - s).den == 1
    half = ts([Fraction(1, 2), 1], 2)
    assert (half.den, half.nums) == (2, (1, 2, 0))
    assert len({half, ts([Fraction(3, 6), Fraction(4, 4)], 2), ts(["1/2", "1"], 2)}) == 1
    assert TruncSeries.zero(2) != TruncSeries.zero(3)
    assert ts([1], 2) != ts([1], 1)
    for den, nums in ((0, (1,)), (-2, (1,)), (1, ())):
        with pytest.raises(ValueError):
            TruncSeries(den, nums)


def test_value_types_are_immutable():
    from valdef.algebra import AlgebraStructure, Cochain

    s = ts([0, 1], 2)
    g = rational_lie(2, {(0, 1): {1: 1}})
    phi = rational_cochain(2, 2, "adjoint", {(0, 1): (1, 0)})
    assert g.scaled_table is g.scaled_table  # cached once per instance
    values = [
        (s, "den"),
        (g, "dim"),
        (phi, "values"),
    ]
    for value, field in values:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
        with pytest.raises(AttributeError):
            value.extra = 1
