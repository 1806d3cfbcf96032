"""Structure constants, bracket evaluation, cochains, Jacobi checking."""

import random

from fractions import Fraction
from itertools import combinations

import pytest

from valdef.algebra import (
    COEFFS,
    AlgebraStructure,
    Cochain,
    associator,
    is_lie,
    jacobiator,
)
from valdef.errors import DimensionMismatch
from valdef.io import cochain_doc, parse_cochain
from valdef.series import rational_str

from gens import (
    H3,
    R2,
    SL2,
    change_basis,
    cochain_from_flat,
    frac,
    mu_cochain,
    random_invertible,
    random_lie,
)


def e(n, i):
    return tuple(Fraction(1) if k == i else Fraction(0) for k in range(n))


def test_bracket_table_lookup():
    assert H3.bilinear(e(3, 0), e(3, 1)) == e(3, 2)
    x = (Fraction(1), Fraction(2), Fraction(-1))
    assert H3.bilinear(x, x) == (Fraction(0),) * 3
    # sign flip under swapped arguments
    assert R2.bilinear(e(2, 1), e(2, 0)) == (Fraction(0), Fraction(-1))


def test_bracket_bilinear():
    rng = random.Random(41)
    for _ in range(30):
        g = random_lie(rng, 3)
        x = tuple(frac(rng) for _ in range(3))
        y = tuple(frac(rng) for _ in range(3))
        z = tuple(frac(rng) for _ in range(3))
        a, b = frac(rng), frac(rng)
        combo = tuple(a * xi + b * zi for xi, zi in zip(x, z))
        left = g.bilinear(combo, y)
        want = tuple(
            a * p + b * q
            for p, q in zip(g.bilinear(x, y), g.bilinear(z, y))
        )
        assert left == want


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        H3.bilinear((1, 0), (0, 1, 0))


def test_lie_table_rejects_bad_keys():
    with pytest.raises(ValueError):
        AlgebraStructure.lie(2, {(1, 0): {0: 1}})
    with pytest.raises(ValueError):
        AlgebraStructure.lie(2, {(0, 0): {0: 1}})
    with pytest.raises(ValueError):
        AlgebraStructure.lie(2, {(0, 3): {0: 1}})


def test_jacobiator_zero_cases():
    assert jacobiator(H3).is_zero()
    assert jacobiator(AlgebraStructure.abelian(4)).is_zero()


def test_jacobiator_nonzero_hand_expansion():
    # [e1,e2] = e1, [e1,e3] = e2, [e2,e3] = 0
    bad = AlgebraStructure.lie(3, {(0, 1): {0: 1}, (0, 2): {1: 1}})
    # oracle: [[e1,e2],e3] + [[e2,e3],e1] + [[e3,e1],e2]
    t1 = bad.bilinear(bad.bilinear(e(3, 0), e(3, 1)), e(3, 2))
    t2 = bad.bilinear(bad.bilinear(e(3, 1), e(3, 2)), e(3, 0))
    t3 = bad.bilinear(bad.bilinear(e(3, 2), e(3, 0)), e(3, 1))
    total = tuple(a + b + c for a, b, c in zip(t1, t2, t3))
    assert total == (Fraction(0), Fraction(1), Fraction(0))
    assert jacobiator(bad).value((0, 1, 2)) == total
    ok, witness = is_lie(bad)
    assert not ok and witness == (0, 1, 2)


def test_sl2_jacobi_direct():
    h, ee, f = e(3, 0), e(3, 1), e(3, 2)
    total = tuple(
        a + b + c
        for a, b, c in zip(
            SL2.bilinear(SL2.bilinear(h, ee), f),
            SL2.bilinear(SL2.bilinear(ee, f), h),
            SL2.bilinear(SL2.bilinear(f, h), ee),
        )
    )
    assert total == (Fraction(0),) * 3
    assert is_lie(SL2) == (True, None)


def test_associator_cases():
    upper = AlgebraStructure.assoc(
        3, {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 2): {1: 1}, (2, 2): {2: 1}}
    )
    for i in range(3):
        for j in range(3):
            for k in range(3):
                assert associator(upper, e(3, i), e(3, j), e(3, k)) == (
                    Fraction(0),
                ) * 3
    unital = AlgebraStructure.assoc(1, {(0, 0): {0: 1}})
    assert associator(unital, e(1, 0), e(1, 0), e(1, 0)) == (Fraction(0),)
    # non-associative: left and right parenthesisations computed separately
    na = AlgebraStructure.assoc(2, {(0, 0): {1: 1}, (1, 0): {0: 1}})
    left = na.bilinear(na.bilinear(e(2, 0), e(2, 0)), e(2, 0))
    right = na.bilinear(e(2, 0), na.bilinear(e(2, 0), e(2, 0)))
    assert left != right
    got = associator(na, e(2, 0), e(2, 0), e(2, 0))
    assert got == tuple(a - b for a, b in zip(left, right))
    assert any(got)


def test_cochain_alternation():
    c = Cochain.build(2, 3, "adjoint", {(0, 1): (1, 2, 3)})
    den, rows = c.scaled_table
    assert den == 1
    assert rows[0][1] == ((0, 1), (1, 2), (2, 3))
    assert rows[1][0] == ((0, -1), (1, -2), (2, -3))
    assert rows[1][1] == rows[0][2] == ()
    half = Cochain.build(2, 3, "adjoint", {(0, 2): (0, Fraction(1, 2), 0)})
    rows = (((), (), ((1, 1),)), ((), (), ()), (((1, -1),), (), ()))
    assert half.scaled_table == (2, rows)


def test_cochain_flatten_roundtrip():
    rng = random.Random(42)
    from gens import random_cochain

    for target in ("adjoint", "trivial"):
        for _ in range(10):
            c = random_cochain(rng, 4, 2, target)
            again = cochain_from_flat(2, 4, target, c.flatten())
            assert again == c


def test_cochain_printer_matches_rational_str():
    """io.cochain_doc prints every entry of a cochain built from rationals
    in lowest terms, as rational_str of its Fraction value does, and
    io.parse_cochain reads the document back to an equal cochain; the same
    values at another scale compare and hash equal."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    rationals = st.one_of(
        st.just(Fraction(0)),
        st.builds(
            Fraction,
            st.integers(-(10**12), 10**12),
            st.sampled_from((1, 2, 3, 6, 7, 10**9 + 7)),
        ),
    )

    @st.composite
    def cochains(draw):
        dim = draw(st.integers(1, 4))
        degree = draw(st.integers(0, min(3, dim)))
        target = draw(st.sampled_from(COEFFS))
        keys = draw(st.lists(st.sampled_from(list(combinations(range(dim), degree)))))
        width = dim if target == "adjoint" else None
        values = {}
        for key in keys:
            if width is None:
                values[key] = draw(rationals)
            else:
                values[key] = draw(st.lists(rationals, min_size=width, max_size=width))
        return degree, dim, target, values

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(cochains(), st.integers(2, 10**6))
    def check(spec, scale):
        degree, dim, target, values = spec
        c = Cochain.build(degree, dim, target, values)
        rows = []
        for key in sorted(values):
            if target == "trivial":
                if values[key]:
                    rows.append({"args": list(key), "c": rational_str(values[key])})
                continue
            out = [{"k": k, "c": rational_str(v)} for k, v in enumerate(values[key]) if v]
            if out:
                rows.append({"args": list(key), "out": out})
        doc = cochain_doc(c)
        assert doc == {"degree": degree, "target": target, "values": rows}
        again = parse_cochain(doc, dim)
        assert again == c and hash(again) == hash(c)
        # the same values over scale times the denominator
        wide = {key: [scale * x for x in vec] for key, vec in c.values.items()}
        other = Cochain.scaled(degree, dim, target, scale * c.den, wide)
        assert other == c and hash(other) == hash(c)
        assert c.scale(scale).scale(Fraction(1, scale)) == c
        assert (c + c) - c == c and (c - c).is_zero()

    check()


def test_mu_cochain_matches_table():
    mu = mu_cochain(SL2)
    assert mu.value((0, 1)) == (Fraction(0), Fraction(2), Fraction(0))
    # the cochain of a bracket gets the bracket's integer table, from the same code
    rng = random.Random(44)
    for g in (SL2, H3, R2, *(random_lie(rng, rng.randint(2, 5)) for _ in range(10))):
        assert mu_cochain(g).scaled_table == g.scaled_table


def test_change_basis_preserves_jacobi():
    rng = random.Random(43)
    for _ in range(20):
        g = random_lie(rng, rng.randint(2, 4))
        h = change_basis(g, random_invertible(rng, g.dim))
        assert is_lie(h)[0]
