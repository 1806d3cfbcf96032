"""Fraction-free elimination: rank, RREF and the helpers on them."""

import random

from fractions import Fraction
from math import gcd

import pytest

from valdef import linalg

from gens import (
    domain_matrix,
    frac,
    fraction_rows,
    in_span,
    matrix_inverse,
    nullspace,
    sympy_row_space,
)


def random_matrix(rng, rows, cols, density=0.7):
    return [
        [frac(rng, 9, 5) if rng.random() < density else Fraction(0) for _ in range(cols)]
        for _ in range(rows)
    ]


def test_rref_known():
    m = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    reduced, pivots = linalg.rref(m)
    assert pivots == [0]
    assert reduced[0] == [Fraction(1), Fraction(2)]
    assert reduced[1] == [Fraction(0), Fraction(0)]


def test_rank_nullspace_roundtrip():
    rng = random.Random(21)
    for _ in range(40):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = random_matrix(rng, rows, cols)
        rank = linalg.rank(m)
        null = nullspace(m)
        assert rank + len(null) == cols
        for vec in null:
            for row in m:
                assert sum(a * b for a, b in zip(row, vec)) == 0


def test_solve_combination():
    v1 = (Fraction(1), Fraction(0), Fraction(2))
    v2 = (Fraction(0), Fraction(1), Fraction(-1))
    target = [Fraction(3), Fraction(-2), Fraction(8)]
    coeffs = linalg.solve_combination([v1, v2], target)
    assert coeffs == [Fraction(3), Fraction(-2)]
    assert linalg.solve_combination([v1, v2], [0, 0, 1]) is None
    assert linalg.solve_combination([], [0, 0]) == []
    assert linalg.solve_combination([], [1]) is None


def test_matrix_inverse():
    rng = random.Random(22)
    from gens import random_invertible

    for n in (1, 2, 3, 4):
        m = random_invertible(rng, n)
        inv = matrix_inverse(m)
        assert inv is not None
        for i in range(n):
            for j in range(n):
                s = sum(m[i][k] * inv[k][j] for k in range(n))
                assert s == (1 if i == j else 0)
    assert matrix_inverse([[Fraction(0)]]) is None


def test_row_space_canonical():
    rows1 = [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(3)]]
    rows2 = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(-1)]]
    assert linalg.row_space(rows1) == linalg.row_space(rows2)


def low_rank_matrix(rng, rows, cols, inner):
    """rows x cols product of random rows x inner and inner x cols factors."""
    left = random_matrix(rng, rows, inner)
    right = random_matrix(rng, inner, cols)
    return [
        [sum((left[i][k] * right[k][j] for k in range(inner)), Fraction(0))
         for j in range(cols)]
        for i in range(rows)
    ]


def oracle_cases(rng, count=60):
    """Matrices for the sympy oracles: the 1x1 and zero cases, random and
    rank-deficient matrices with planted zero rows and columns, 1xk, kx1."""
    cases = [[[Fraction(0)]], [[Fraction(3, 7)]], [[Fraction(0)] * 4] * 3]
    for _ in range(count):
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        if rng.random() < 0.5:
            m = low_rank_matrix(rng, rows, cols, rng.randint(1, 4))
        else:
            m = random_matrix(rng, rows, cols, density=rng.choice((0.2, 0.5, 0.9)))
        if rng.random() < 0.3:
            zero_col = rng.randrange(cols)
            m = [[0 if c == zero_col else x for c, x in enumerate(row)] for row in m]
        if rng.random() < 0.3:
            m[rng.randrange(rows)] = [Fraction(0)] * cols
        cases.append(m)
    cases += [random_matrix(rng, 1, 7), random_matrix(rng, 7, 1)]
    return cases


def assert_matches_sympy(m):
    """rref, nullspace and (for square m) matrix_inverse against sympy over QQ."""
    from sympy.polys.matrices.exceptions import DMNonInvertibleMatrixError

    before = [list(row) for row in m]
    dm = domain_matrix(m)
    want_reduced, want_pivots = dm.rref()
    reduced, pivots = linalg.rref(m)
    assert m == before
    assert pivots == list(want_pivots)
    assert reduced == fraction_rows(want_reduced)
    assert all(type(x) is Fraction for row in reduced for x in row)
    want_null = [tuple(row) for row in fraction_rows(dm.nullspace())]
    assert nullspace(m) == want_null
    if len(m) == len(m[0]):
        try:
            want_inverse = [tuple(row) for row in fraction_rows(dm.inv())]
        except DMNonInvertibleMatrixError:
            want_inverse = None
        assert matrix_inverse(m) == want_inverse


def test_rank_matches_sympy():
    for m in oracle_cases(random.Random(23)):
        expected = domain_matrix(m).rank()
        assert linalg.rank(m) == expected
        assert linalg.rank([linalg.integer_row(row)[1] for row in m]) == expected
        assert linalg.rank(list(reversed(m))) == expected


def test_echelon_and_remainder_match_sympy():
    """echelon keys one primitive integer row by its leading column and
    spans the input rows; remainder is empty exactly on that span."""
    rng = random.Random(24)
    for m in oracle_cases(rng):
        ncols = len(m[0])
        want = sympy_row_space(m)
        pivots = linalg.echelon(m)
        assert len(pivots) == len(want) == linalg.rank(m)
        for lead, row in pivots.items():
            assert min(row) == lead and all(type(v) is int and v for v in row.values())
            assert gcd(*row.values()) == 1
        rows = [[Fraction(row.get(c, 0)) for c in range(ncols)] for row in pivots.values()]
        assert (sympy_row_space(rows) if rows else ()) == want
        before = {lead: dict(row) for lead, row in pivots.items()}
        coeffs = [rng.choice((-2, 1, 3)) for _ in m]
        inside = [sum(a * x for a, x in zip(coeffs, col)) for col in zip(*m)]
        for target in m + [inside, random_matrix(rng, 1, ncols)[0]]:
            vec = linalg.integer_row(target)[1]
            copy = dict(vec)
            left = linalg.remainder(pivots, vec)
            assert (not left) == (sympy_row_space(m + [target]) == want)
            assert vec == copy and pivots == before
        assert not linalg.remainder(pivots, linalg.integer_row(inside)[1])


def test_echelon_drops_zero_values_of_dict_rows():
    """A {col: int} row may hold explicit zeros (a coboundary column whose
    terms cancel): they never lead a pivot, and the input rows are left as
    they were."""
    rows = [{0: 0, 2: 4, 3: -6}, {0: 0}, {1: 0, 2: 2, 3: -3}, {1: 5, 2: 0}]
    copies = [dict(row) for row in rows]
    pivots = linalg.echelon(rows)
    assert pivots == {1: {1: 1}, 2: {2: 2, 3: -3}}
    assert rows == copies
    assert linalg.rank(rows) == 2


def test_rref_nullspace_inverse_match_sympy():
    pytest.importorskip("sympy")
    assert linalg.rref([]) == ([], [])
    rng = random.Random(25)
    cases = oracle_cases(rng)
    # square cases, singular (low rank, a zero row) and invertible
    for n in range(1, 6):
        cases.append(low_rank_matrix(rng, n, n, max(1, n - 1)))
        cases.append(random_matrix(rng, n, n, density=1.0))
        cases.append(random_matrix(rng, n - 1, n) + [[Fraction(0)] * n])
    for m in cases:
        assert_matches_sympy(m)


def test_rref_matches_sympy_on_generated_matrices():
    pytest.importorskip("sympy")
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    entries = st.one_of(
        st.just(Fraction(0)),
        st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12)),
    )
    matrices = st.integers(1, 7).flatmap(
        lambda cols: st.lists(
            st.lists(entries, min_size=cols, max_size=cols), min_size=1, max_size=7
        )
    )

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(matrices, st.data())
    def check(m, data):
        # repeat a combination of rows now and then, so rank deficiency is common
        if len(m) > 1 and data.draw(st.booleans()):
            a, b = data.draw(st.integers(-3, 3)), data.draw(entries)
            m = m + [[a * x + b * y for x, y in zip(m[0], m[-1])]]
        assert_matches_sympy(m)

    check()


def test_in_span_and_solve_combination_match_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    rng = random.Random(24)
    outcomes = set()
    for _ in range(80):
        k, ncoords = rng.randint(1, 6), rng.randint(1, 7)
        if rng.random() < 0.5:
            vectors = low_rank_matrix(rng, k, ncoords, rng.randint(1, 3))
        else:
            vectors = random_matrix(rng, k, ncoords, density=rng.choice((0.3, 0.8)))
        if rng.random() < 0.5:
            weights = [frac(rng, 5, 3) for _ in range(k)]
            target = [
                sum((w * v[i] for w, v in zip(weights, vectors)), Fraction(0))
                for i in range(ncoords)
            ]
        else:
            target = random_matrix(rng, 1, ncoords)[0]
        columns = vectors + [target]
        aug = DomainMatrix(
            [[sympy.QQ(c[i].numerator, c[i].denominator) for c in columns]
             for i in range(ncoords)],
            (ncoords, k + 1),
            sympy.QQ,
        )
        reduced, pivots = aug.rref()
        expected = k not in pivots
        outcomes.add(expected)
        assert in_span(vectors, target) == expected
        coeffs = linalg.solve_combination(vectors, target)
        if not expected:
            assert coeffs is None
            continue
        # sympy's RREF read with the free coordinates at zero
        rows = reduced.to_list()
        want = [Fraction(0)] * k
        for r, col in enumerate(pivots):
            want[col] = Fraction(int(rows[r][k].numerator), int(rows[r][k].denominator))
        assert coeffs == want
    assert outcomes == {True, False}


def test_integer_row_clears_denominators():
    row = [Fraction(1, 2), 0, Fraction(-2, 3), 4]
    assert linalg.integer_row(row) == (6, {0: 3, 2: -4, 3: 24})
    assert linalg.integer_row([0, Fraction(0)]) == (1, {})
