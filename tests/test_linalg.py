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
    integer_rows,
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
        rank = linalg.rank(integer_rows(m))
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
        rows = integer_rows(m)
        assert linalg.rank(rows) == expected
        assert linalg.rank(list(reversed(rows))) == expected


def test_echelon_and_solve_match_sympy():
    """echelon keys one primitive integer row by its leading column and
    spans the input rows; `solve` on those rows finds a target exactly on
    that span and changes neither argument."""
    rng = random.Random(24)
    for m in oracle_cases(rng):
        ncols = len(m[0])
        want = sympy_row_space(m)
        pivots = linalg.echelon(integer_rows(m))
        assert len(pivots) == len(want) == linalg.rank(integer_rows(m))
        for lead, row in pivots.items():
            assert min(row) == lead and all(type(v) is int and v for v in row.values())
            assert gcd(*row.values()) == 1
        rows = [[Fraction(row.get(c, 0)) for c in range(ncols)] for row in pivots.values()]
        assert (sympy_row_space(rows) if rows else ()) == want
        before = {lead: dict(row) for lead, row in pivots.items()}
        spanning = list(pivots.values())
        coeffs = [rng.choice((-2, 1, 3)) for _ in m]
        inside = [sum(a * x for a, x in zip(coeffs, col)) for col in zip(*m)]
        for target in m + [inside, random_matrix(rng, 1, ncols)[0]]:
            (vec,) = integer_rows([target])
            copy = dict(vec)
            (solution,) = linalg.solve(spanning, [vec])
            assert (solution is not None) == (sympy_row_space(m + [target]) == want)
            assert vec == copy and pivots == before
        assert linalg.solve(spanning, integer_rows([inside])) != [None]


def test_solve_matches_sympy():
    """`solve` on random integer systems A x = b, rank-deficient and
    inconsistent ones, with zero or repeated columns, explicit zero
    entries and several targets: each solution (d, x) has d > 0 and d * b
    = A x exactly, x is supported on sympy's pivot columns of A, a target
    reads None exactly when the rank of [A | b] is larger than A's, and
    no argument is changed."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    pytest.importorskip("sympy")

    entries = st.integers(-4, 4)

    @st.composite
    def systems(draw):
        nrows = draw(st.integers(1, 6))
        fresh = st.lists(entries, min_size=nrows, max_size=nrows)
        columns = []
        for _ in range(draw(st.integers(0, 6))):
            kind = draw(st.sampled_from(("fresh", "fresh", "combination", "repeat", "zero")))
            if kind == "zero":
                columns.append([0] * nrows)
            elif kind == "repeat" and columns:
                columns.append(draw(st.sampled_from(columns)))
            elif kind == "combination" and columns:
                a, b = draw(entries), draw(entries)
                x, y = draw(st.sampled_from(columns)), draw(st.sampled_from(columns))
                columns.append([a * p + b * q for p, q in zip(x, y)])
            else:
                columns.append(draw(fresh))
        targets = []
        for _ in range(draw(st.integers(1, 4))):
            kind = draw(st.sampled_from(("inside", "inside", "outside", "zero", "repeat")))
            if kind == "zero":
                targets.append([0] * nrows)
            elif kind == "repeat" and targets:
                targets.append(draw(st.sampled_from(targets)))
            elif kind == "inside" and columns:
                y = draw(st.lists(entries, min_size=len(columns), max_size=len(columns)))
                targets.append([sum(a * b for a, b in zip(row, y)) for row in zip(*columns)])
            else:
                targets.append(draw(fresh))
        return columns, targets, draw(st.booleans())

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(systems())
    def check(system):
        columns, targets, keep_zeros = system
        nrows = len(targets[0])
        cols, tgts = (
            [{r: v for r, v in enumerate(vec) if v or keep_zeros} for vec in vecs]
            for vecs in (columns, targets)
        )
        before = [dict(vec) for vec in cols + tgts]
        solutions = linalg.solve(cols, tgts)
        assert cols + tgts == before and len(solutions) == len(targets)
        a = [[col[r] for col in columns] for r in range(nrows)]
        pivots = set(domain_matrix(a).rref()[1]) if columns else set()
        for target, solution in zip(targets, solutions):
            aug = [row + [b] for row, b in zip(a, target)]
            assert (solution is None) == (domain_matrix(aug).rank() > len(pivots))
            if solution is None:
                continue
            d, x = solution
            assert type(d) is int and d > 0 and set(x) <= pivots
            assert all(type(v) is int and v for v in x.values())
            assert [d * b for b in target] == [
                sum(v * a[r][p] for p, v in x.items()) for r in range(nrows)
            ]

    check()


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


def integer_matrix(rng, rows, cols):
    """A random integer matrix, of rank below min(rows, cols) half the time."""
    if rng.random() < 0.5:
        inner = rng.randint(1, max(1, min(rows, cols) - 1))
        left = [[rng.randint(-3, 3) for _ in range(inner)] for _ in range(rows)]
        right = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(inner)]
        return [[sum(a * b for a, b in zip(r, c)) for c in zip(*right)] for r in left]
    return [[rng.randint(-5, 5) if rng.random() < 0.6 else 0 for _ in range(cols)]
            for _ in range(rows)]


def reduced_form(m) -> dict:
    """The back-substituted echelon of an integer matrix given by its rows."""
    rows = [{c: v for c, v in enumerate(row) if v} for row in m]
    return linalg.back_substitute(linalg.echelon(rows))


def test_column_reads_kernel_inverse_and_span_against_sympy():
    """`linalg.column` on random integer matrices, rank-deficient ones
    included: each column is the combination it reads, the kernel vectors
    read from the free columns span sympy's nullspace, the inverse read
    from [P | I] is sympy's, and a target column is read as outside the
    span of the columns before it exactly when sympy's rank grows."""
    pytest.importorskip("sympy")
    rng = random.Random(26)
    kinds = set()
    for _ in range(80):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        m = integer_matrix(rng, rows, cols)
        pivots = reduced_form(m)
        kernel = []
        for col in range(cols):
            d, x = linalg.column(pivots, col)
            assert d > 0 and all(p <= col for p in x)
            assert all(d * row[col] == sum(v * row[p] for p, v in x.items()) for row in m)
            if col not in pivots:
                vec = [0] * cols
                vec[col] = d
                for p, v in x.items():
                    vec[p] = -v
                kernel.append(vec)
        want = [tuple(row) for row in fraction_rows(domain_matrix(m).nullspace())]
        assert len(kernel) == len(want)
        if want:
            assert sympy_row_space(kernel) == sympy_row_space(want)
        # a target column after the matrix's: A y (inside) or random
        if rng.random() < 0.5:
            y = [rng.randint(-2, 2) for _ in range(cols)]
            target = [sum(a * b for a, b in zip(row, y)) for row in m]
        else:
            target = [rng.randint(-4, 4) for _ in m]
        aug = [row + [t] for row, t in zip(m, target)]
        inside = domain_matrix(aug).rank() == domain_matrix(m).rank()
        kinds.add(inside)
        d, x = linalg.column(reduced_form(aug), cols)
        assert all(p < cols for p in x) == inside
        # the inverse of a square matrix, read column by column from [P | I]
        n = rows
        p = integer_matrix(rng, n, n)
        dm = domain_matrix(p)
        if dm.rank() < n:
            continue
        aug = [row + [int(r == c) for c in range(n)] for r, row in enumerate(p)]
        pivots = reduced_form(aug)
        inverse = [[Fraction(0)] * n for _ in range(n)]
        for r in range(n):
            d, x = linalg.column(pivots, n + r)
            assert all(c < n for c in x)
            for c, v in x.items():
                inverse[c][r] = Fraction(v, d)
        assert inverse == fraction_rows(dm.inv())
        kinds.add("inverse")
    assert kinds == {True, False, "inverse"}


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


def prefix_level(pivots, ncols) -> tuple:
    """The back-substituted echelon's rows in lead order, each first checked
    to be a primitive integer row with a positive lead once its sign is
    fixed, then divided by that lead: the RREF view `sympy_row_space` gives."""
    level = []
    for lead, row in sorted(pivots.items()):
        dense = [(1 if row[lead] > 0 else -1) * row.get(c, 0) for c in range(ncols)]
        assert min(row) == lead and dense[lead] > 0 and gcd(*dense) == 1
        level.append(tuple(Fraction(x, dense[lead]) for x in dense))
    return tuple(level)


def test_insert_grows_each_prefix_to_sympy_rref():
    """`insert` one row at a time, then `back_substitute`: every prefix is
    sympy's RREF of those rows.  The planted rows reach the swap branch (a
    row sparser than the pivot it meets takes its place, once with a new
    pivot and once with a dependent row) and a dependent row that adds no
    pivot; the random ones reach the swap branch too."""
    pytest.importorskip("sympy")
    pivots = {}
    linalg.insert(pivots, {0: 1, 1: 1, 2: 1, 3: 1})
    linalg.insert(pivots, {0: 2, 1: 1})
    # (2, 1, 0, 0) took lead 0, and 2 (1, 1, 1, 1) - (2, 1, 0, 0) is the new row
    assert pivots == {0: {0: 2, 1: 1}, 1: {1: 1, 2: 2, 3: 2}}
    linalg.back_substitute(pivots)
    assert pivots == {0: {0: 1, 2: -1, 3: -1}, 1: {1: 1, 2: 2, 3: 2}}
    linalg.insert(pivots, {0: 2, 1: 1})
    # the same row again: it swaps in, and the old pivot row reduces to zero
    assert pivots == {0: {0: 2, 1: 1}, 1: {1: 1, 2: 2, 3: 2}}

    rng = random.Random(27)
    swaps = 0
    cases = [[[1, 1, 1, 1], [2, 1, 0, 0], [2, 1, 0, 0], [3, 2, 1, 1], [0, 0, 2, 4]]]
    cases += [integer_matrix(rng, rng.randint(1, 7), rng.randint(1, 7)) for _ in range(80)]
    for m in cases:
        ncols = len(m[0])
        pivots = {}
        for i, row in enumerate(m):
            vec = {c: v for c, v in enumerate(row) if v}
            size = len(pivots)
            if vec and min(vec) in pivots and len(vec) < len(pivots[min(vec)]):
                swaps += 1
            linalg.insert(pivots, vec)
            linalg.back_substitute(pivots)
            prefix = [[Fraction(x) for x in r] for r in m[: i + 1]]
            assert len(pivots) == domain_matrix(prefix).rank()
            if m is cases[0]:
                assert len(pivots) - size == (1, 1, 0, 0, 1)[i]
            assert prefix_level(pivots, ncols) == sympy_row_space(prefix)
    assert swaps > 2
