"""Flag decomposition: spec'd cases, round trips, flag uniqueness."""

import random

from fractions import Fraction

import pytest

from valdef import linalg
from valdef.decompose import Flag, decompose, flag_of, flags_equal, recompose
from valdef.errors import NotInMaximalIdeal, ZeroVector
from valdef.series import SeriesVector, TruncSeries

from gens import random_vector_in_m, sympy_row_space


def sv(literals, cap):
    return SeriesVector(
        tuple(TruncSeries.from_coeffs(c, cap=cap) for c in literals)
    )


def roundtrips(w):
    d = decompose(w)
    r = recompose(d)
    return all(
        (a - b.truncate(r.cap)).is_zero()
        for a, b in zip(r.components, w.components)
    )


def test_t_t2_example():
    w = sv([[0, 1], [0, 0, 1]], 4)
    d = decompose(w)
    assert d.length == 2
    assert [s.vector for s in d.steps] == [
        (Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(1)),
    ]
    # recomposition oracle: expand b1*V1 + b1*b2*V2 with raw series products
    b1, b2 = d.steps[0].coefficient, d.steps[1].coefficient
    cap = b2.cap
    first = b1.truncate(cap)
    second = b1.truncate(cap) * b2
    expanded = (first, second)  # V1 = e1, V2 = e2
    for got, want in zip(expanded, w.components):
        assert got == want.truncate(cap)


def test_proportional_components_length_one():
    w = sv([[0, 1, 0], [0, 2, 0]], 3)
    d = decompose(w)
    assert d.length == 1
    assert d.steps[0].vector == (Fraction(1), Fraction(2))
    assert roundtrips(w)


def test_case_i_flag():
    # leading coefficients (2, 1): the flag starts at span{(2, 1)}
    w = sv([[0, 2, 1], [0, 1]], 4)
    d = decompose(w)
    assert d.length == 2
    flag = flag_of(d)
    assert flag.chain[0] == ((Fraction(1), Fraction(1, 2)),)
    assert roundtrips(w)
    # identical chain when the pivot tie-break is reversed
    d2 = decompose(w, pivot_order="last")
    assert flags_equal(flag, flag_of(d2))
    assert d.length == d2.length


def test_recompose_empty_and_single():
    from valdef.decompose import FlagDecomposition, FlagStep

    empty = FlagDecomposition(steps=(), ambient_dim=2, cap=3)
    assert recompose(empty).is_zero()
    single = FlagDecomposition(
        steps=(
            FlagStep(
                coefficient=TruncSeries.monomial(1, 3),
                vector=(Fraction(1), Fraction(2)),
            ),
        ),
        ambient_dim=2,
        cap=3,
    )
    r = recompose(single)
    assert r.components[0] == TruncSeries.monomial(1, 3)
    assert r.components[1] == TruncSeries.monomial(1, 3, 2)


def test_errors():
    with pytest.raises(NotInMaximalIdeal):
        decompose(sv([[1, 1], [0, 1]], 3))
    with pytest.raises(ZeroVector):
        decompose(SeriesVector.zero(3, 4))


def test_flags_equal_ignores_basis_choice():
    f1 = Flag(chain=(((Fraction(1), Fraction(0)),),))
    rows = linalg.row_space([[Fraction(2), Fraction(0)]])
    f2 = Flag(chain=(tuple(rows),))
    assert flags_equal(f1, f2)
    f3 = Flag(chain=(((Fraction(1), Fraction(1)),),))
    assert not flags_equal(f1, f3)
    assert not flags_equal(f1, Flag(chain=()))


def test_random_roundtrip_and_bounds():
    rng = random.Random(31)
    for _ in range(120):
        k = rng.randint(1, 6)
        cap = rng.randint(2, 12)
        w = random_vector_in_m(rng, k, cap)
        d = decompose(w)
        assert d.length <= k
        assert roundtrips(w)
        vectors = [list(s.vector) for s in d.steps]
        assert linalg.rank(vectors) == d.length
        # first coefficient's valuation is the minimum over components
        vals = [s.valuation() for s in w.components if s.valuation() is not None]
        assert d.steps[0].coefficient.valuation() == min(vals)


def test_flag_invariant_under_coordinate_reordering():
    rng = random.Random(32)
    for _ in range(40):
        k = rng.randint(2, 5)
        cap = rng.randint(3, 9)
        w = random_vector_in_m(rng, k, cap)
        perm = list(range(k))
        rng.shuffle(perm)
        wp = SeriesVector(tuple(w.components[perm[i]] for i in range(k)))
        flag_direct = flag_of(decompose(w))
        # map the permuted flag back through the inverse coordinate map
        chain = []
        for level in flag_of(decompose(wp)).chain:
            rows = []
            for vec in level:
                back = [Fraction(0)] * k
                for i, c in enumerate(vec):
                    back[perm[i]] = c
                rows.append(back)
            chain.append(tuple(linalg.row_space(rows)))
        assert flags_equal(flag_direct, Flag(chain=tuple(chain)))


def test_flag_matches_per_prefix_row_space():
    from valdef.decompose import FlagDecomposition, FlagStep

    def per_prefix(d):
        return tuple(
            tuple(linalg.row_space([list(s.vector) for s in d.steps[:i]]))
            for i in range(1, d.length + 1)
        )

    def sympy_per_prefix(d):
        # flag_of is built on row_space, so check against an RREF outside valdef too
        return tuple(
            sympy_row_space([list(s.vector) for s in d.steps[:i]])
            for i in range(1, d.length + 1)
        )

    rng = random.Random(33)
    for _ in range(60):
        w = random_vector_in_m(rng, rng.randint(1, 8), rng.randint(2, 10))
        for order in ("first", "last"):
            d = decompose(w, pivot_order=order)
            assert flag_of(d).chain == per_prefix(d) == sympy_per_prefix(d)
    # arbitrary directions: dependent steps repeat the level, ints are allowed
    one = TruncSeries.monomial(1, 3)
    for _ in range(40):
        k = rng.randint(1, 5)
        vectors = [
            tuple(rng.choice((0, 0, 1, -2, Fraction(3, 7))) for _ in range(k))
            for _ in range(rng.randint(1, 6))
        ]
        if rng.random() < 0.5:
            vectors.append(tuple(2 * x for x in vectors[0]))
        vectors = [v for v in vectors if any(v)] or [(1,) * k]
        d = FlagDecomposition(
            steps=tuple(FlagStep(coefficient=one, vector=v) for v in vectors),
            ambient_dim=k,
            cap=3,
        )
        assert flag_of(d).chain == per_prefix(d) == sympy_per_prefix(d)
