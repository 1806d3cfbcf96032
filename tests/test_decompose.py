"""Flag decomposition: spec'd cases, round trips, flag uniqueness."""

import random

from fractions import Fraction
from itertools import chain
from math import gcd

import pytest

from valdef import linalg
from valdef.decompose import Flag, FlagDecomposition, decompose, flag_of, recompose
from valdef.errors import NotInMaximalIdeal, ValdefError, ZeroVector
from valdef.series import TruncSeries

from gens import (
    abelian_lie,
    cochain_flat,
    components,
    constant_series,
    direction,
    flag_step,
    integer_series,
    flags_equal,
    fraction_chain,
    integer_flag,
    integer_rows,
    random_series_in_m,
    random_vector_in_m,
    reference_decompose,
    reference_recompose,
    series_of,
    series_vector,
    sympy_row_space,
    truncated,
)


def sv(literals, cap):
    return series_vector([series_of(c, cap=cap) for c in literals])


def roundtrips(w):
    d = decompose(*w)
    r = recompose(d)
    return all(
        (a - b.truncate(a.cap)).is_zero()
        for a, b in zip(components(r), components(w))
    )


def test_t_t2_example():
    w = sv([[0, 1], [0, 0, 1]], 4)
    d = decompose(*w)
    assert d.length == 2
    assert [direction(s) for s in d.steps] == [
        (Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(1)),
    ]
    # recomposition oracle: expand b1*V1 + b1*b2*V2 with raw series products
    b1, b2 = (TruncSeries(*s.coefficient) for s in d.steps)
    cap = b2.cap
    first = b1.truncate(cap)
    second = b1.truncate(cap) * b2
    expanded = (first, second)  # V1 = e1, V2 = e2
    for got, want in zip(expanded, components(w)):
        assert got == want.truncate(cap)


def test_proportional_components_length_one():
    w = sv([[0, 1, 0], [0, 2, 0]], 3)
    d = decompose(*w)
    assert d.length == 1
    assert direction(d.steps[0]) == (Fraction(1), Fraction(2))
    assert roundtrips(w)


def test_case_i_flag():
    # leading coefficients (2, 1): the flag starts at span{(2, 1)}
    w = sv([[0, 2, 1], [0, 1]], 4)
    d = decompose(*w)
    assert d.length == 2
    flag = flag_of(d)
    assert fraction_chain(flag)[0] == ((Fraction(1), Fraction(1, 2)),)
    assert roundtrips(w)
    # identical chain when the pivot tie-break is reversed
    d2 = decompose(*w, pivot_order="last")
    assert flags_equal(flag, flag_of(d2))
    assert d.length == d2.length


def test_recompose_empty_and_single():
    from valdef.decompose import FlagDecomposition

    empty = FlagDecomposition(steps=(), ambient_dim=2, cap=3)
    assert recompose(empty) == (1, [[0] * 4, [0] * 4])
    single = FlagDecomposition(
        steps=(
            flag_step(
                integer_series(TruncSeries.monomial(1, 3)), (Fraction(1), Fraction(2))
            ),
        ),
        ambient_dim=2,
        cap=3,
    )
    r = recompose(single)
    assert r == (1, [[0, 1, 0, 0], [0, 2, 0, 0]])
    assert components(r) == (TruncSeries.monomial(1, 3), TruncSeries.monomial(1, 3, 2))


def test_errors():
    with pytest.raises(NotInMaximalIdeal):
        decompose(*sv([[1, 1], [0, 1]], 3))
    with pytest.raises(ZeroVector):
        decompose(*sv([[0], [0], [0]], 4))


def test_flags_equal_ignores_basis_choice():
    f1 = integer_flag((((Fraction(1), Fraction(0)),),))
    rows = linalg.row_space([[Fraction(2), Fraction(0)]])
    f2 = integer_flag((tuple(rows),))
    assert flags_equal(f1, f2)
    f3 = integer_flag((((Fraction(1), Fraction(1)),),))
    assert not flags_equal(f1, f3)
    assert not flags_equal(f1, Flag(chain=()))


def test_random_roundtrip_and_bounds():
    rng = random.Random(31)
    for _ in range(120):
        k = rng.randint(1, 6)
        cap = rng.randint(2, 12)
        w = random_vector_in_m(rng, k, cap)
        d = decompose(*w)
        assert d.length <= k
        assert roundtrips(w)
        vectors = [list(direction(s)) for s in d.steps]
        assert linalg.rank(integer_rows(vectors)) == d.length
        # first coefficient's valuation is the minimum over components
        vals = [s.valuation() for s in components(w) if s.valuation() is not None]
        assert TruncSeries(*d.steps[0].coefficient).valuation() == min(vals)


def test_flag_invariant_under_coordinate_reordering():
    rng = random.Random(32)
    for _ in range(40):
        k = rng.randint(2, 5)
        cap = rng.randint(3, 9)
        w = random_vector_in_m(rng, k, cap)
        perm = list(range(k))
        rng.shuffle(perm)
        wp = series_vector([components(w)[perm[i]] for i in range(k)])
        flag_direct = flag_of(decompose(*w))
        # map the permuted flag back through the inverse coordinate map
        chain = []
        for level in fraction_chain(flag_of(decompose(*wp))):
            rows = []
            for vec in level:
                back = [Fraction(0)] * k
                for i, c in enumerate(vec):
                    back[perm[i]] = c
                rows.append(back)
            chain.append(tuple(linalg.row_space(rows)))
        assert flags_equal(flag_direct, integer_flag(chain))


def test_flag_matches_per_prefix_row_space():
    from valdef.decompose import FlagDecomposition

    def per_prefix(d):
        return tuple(
            tuple(linalg.row_space([list(direction(s)) for s in d.steps[:i]]))
            for i in range(1, d.length + 1)
        )

    def sympy_per_prefix(d):
        # flag_of is built on row_space, so check against an RREF outside valdef too
        return tuple(
            sympy_row_space([list(direction(s)) for s in d.steps[:i]])
            for i in range(1, d.length + 1)
        )

    rng = random.Random(33)
    for _ in range(60):
        w = random_vector_in_m(rng, rng.randint(1, 8), rng.randint(2, 10))
        for order in ("first", "last"):
            d = decompose(*w, pivot_order=order)
            assert fraction_chain(flag_of(d)) == per_prefix(d) == sympy_per_prefix(d)
    # corpus sizes: ambient dims up to 16 and caps up to 24, with sparse
    # components, zero ones and combinations of earlier ones, so some steps
    # leave earlier rows as they were
    for _ in range(24):
        dim, cap = rng.randint(9, 16), rng.randint(6, 24)
        comps = []
        for _ in range(dim):
            kind = rng.random()
            if comps and kind < 0.25:
                a, b = rng.choice(comps), rng.choice(comps)
                x, y = rng.randint(-3, 3), Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                comps.append(x * a + b * constant_series(y, cap))
            elif kind < 0.3:
                comps.append(TruncSeries.zero(cap))
            else:
                density = rng.choice((0.15, 0.5, 0.9))
                comps.append(
                    random_series_in_m(rng, cap, max_num=9, max_den=7, density=density)
                )
        if all(s.is_zero() for s in comps):
            continue
        w = series_vector(comps)
        for order in ("first", "last"):
            d = decompose(*w, pivot_order=order)
            assert fraction_chain(flag_of(d)) == per_prefix(d) == sympy_per_prefix(d)
    # arbitrary directions: dependent steps repeat the level, ints are allowed
    one = integer_series(TruncSeries.monomial(1, 3))
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
            steps=tuple(flag_step(one, v) for v in vectors),
            ambient_dim=k,
            cap=3,
        )
        assert fraction_chain(flag_of(d)) == per_prefix(d) == sympy_per_prefix(d)


def test_flag_levels_where_later_steps_clear_earlier_rows():
    """At corpus sizes, 16 components at cap 24 under both pivot orders,
    every `flag_of` level is the per-prefix RREF of linalg and of sympy, on
    vectors whose later steps clear columns of earlier flag rows, the rows
    `flag_of` writes again.  Every component has valuation 1, so V1 holds
    every coordinate; t and t + t^2 as the first two make the t and t^2
    coefficient vectors independent, so there are at least two steps and
    step 2 clears a column of row V1.  Combinations of earlier components
    make later steps leave some rows as they were."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    cap = 24
    numerators = st.one_of(st.integers(-9, 9), st.integers(-(10**9), 10**9))
    coefficients = st.builds(Fraction, numerators, st.integers(1, 12))
    nonzero = coefficients.filter(bool)

    @st.composite
    def vectors(draw):
        tail = st.lists(coefficients, min_size=cap - 2, max_size=cap - 2)
        comps = [[0, 1, 0] + draw(tail), [0, 1, 1] + draw(tail)]
        while len(comps) < 16:
            if draw(st.booleans()):
                x, y = draw(st.sampled_from(comps)), draw(st.sampled_from(comps))
                a, b = draw(nonzero), draw(nonzero)
                comp = [a * p + b * q for p, q in zip(x, y)]
                if comp[1]:
                    comps.append(comp)
                continue
            density = draw(st.sampled_from((0.2, 1)))
            comp = [0, draw(nonzero)] + [
                c if draw(st.floats(0, 1)) < density else 0 for c in draw(tail)
            ] + [0]
            comps.append(comp)
        return series_vector([series_of(c, cap=cap) for c in comps])

    @hypothesis.settings(max_examples=20, deadline=None, database=None)
    @hypothesis.given(vectors(), st.sampled_from(("first", "last")))
    def check(w, order):
        d = decompose(*w, pivot_order=order)
        flag = flag_of(d)
        prefixes = [[direction(s) for s in d.steps[:i]] for i in range(1, d.length + 1)]
        assert fraction_chain(flag) == tuple(tuple(linalg.row_space(p)) for p in prefixes)
        assert fraction_chain(flag) == tuple(sympy_row_space(p) for p in prefixes)
        # step 2 clears a column of V1: level 1's row changes
        assert d.length >= 2 and len(set(flag.chain[0]) & set(flag.chain[1])) == 0
        assert all(flag.chain[0][0])

    check()


class CountedRow(dict):
    """A pivot row that counts each test of a column against it."""

    tests = 0

    def __contains__(self, col):
        CountedRow.tests += 1
        return dict.__contains__(self, col)


def test_flag_of_tests_each_pivot_row_once_per_new_lead(monkeypatch):
    """`flag_of` grows its echelon with `linalg.insert_reduced`, which tests
    each earlier pivot row once for the new lead column: h(h - 1)/2 row
    tests over a flag of h steps.  `insert` followed by `back_substitute`,
    the way the flag grew before, tests every pair of pivot rows at every
    step, (h^3 - h)/6 tests.  The planted flag has h = 8 steps, V_k = e_k +
    (k + 1) * (e_(k+1) + .. + e_7), so every step clears its column from
    every earlier row: 28 cancels either way, and the same levels."""
    n = 8
    vectors = [tuple([0] * k + [1] + [k + 1] * (n - k - 1)) for k in range(n)]
    steps = tuple(flag_step((1, (0, 1)), v) for v in vectors)
    primitive, cancel = linalg._primitive, linalg._cancel
    cancels = []
    monkeypatch.setattr(linalg, "_primitive", lambda vec: CountedRow(primitive(vec)))
    monkeypatch.setattr(
        linalg, "_cancel", lambda *args: cancels.append(1) or cancel(*args)
    )
    CountedRow.tests = 0
    flag = flag_of(FlagDecomposition(steps, n, 1))
    assert (CountedRow.tests, len(cancels)) == (n * (n - 1) // 2, 28)

    CountedRow.tests, cancels[:] = 0, []
    pivots, levels = {}, []
    for v in vectors:
        linalg.insert(pivots, {c: x for c, x in enumerate(v) if x})
        linalg.back_substitute(pivots)
        levels.append(tuple(
            tuple(row.get(c, 0) * (1 if row[lead] > 0 else -1) for c in range(n))
            for lead, row in sorted(pivots.items())
        ))
    assert (CountedRow.tests, len(cancels)) == ((n**3 - n) // 6, 28)
    assert flag.chain == tuple(levels)


def test_integer_steps_and_rows_match_the_oracles():
    """A step's direction is its integers over a positive den in lowest
    terms, den at the pivot, and equals the reference's Fraction direction;
    a flag row is a primitive integer tuple with a positive lead, and over
    that lead it is the RREF row of `linalg.row_space`."""
    # the pivot lead is -2: its sign goes into the integers
    w = sv([[0, -2, 1], [0, 1], [0, 3, 0, 5]], 3)
    d = decompose(*w)
    assert (d.steps[0].den, d.steps[0].vector) == (2, (2, -1, -3))
    rng = random.Random(34)
    vectors = [w] + [
        random_vector_in_m(rng, rng.randint(1, 6), rng.randint(1, 10)) for _ in range(80)
    ]
    for w in vectors:
        for order in ("first", "last"):
            d = decompose(*w, order)
            want = reference_decompose(components(w), order)
            assert len(d.steps) == len(want.steps)
            for step, ref in zip(d.steps, want.steps):
                assert step.den > 0 and gcd(step.den, *step.vector) == 1
                assert direction(step) == direction(ref)
                assert step.coefficient == ref.coefficient
            flag = flag_of(d)
            for level in flag.chain:
                for row in level:
                    assert next(filter(None, row)) > 0 and gcd(*row) == 1
            assert fraction_chain(flag) == tuple(
                tuple(linalg.row_space([direction(s) for s in d.steps[:i]]))
                for i in range(1, d.length + 1)
            )


def test_matches_per_component_reference():
    """decompose and recompose on one integer matrix equal the per-component
    TruncSeries/Fraction reference of tests/gens.py, step for step."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    numerators = st.one_of(st.integers(-9, 9), st.integers(-(10**30), 10**30))
    coefficients = st.one_of(
        st.just(0), st.builds(Fraction, numerators, st.integers(1, 12))
    )

    @st.composite
    def vectors(draw):
        cap = draw(st.integers(1, 12))
        comps = []
        for _ in range(draw(st.integers(1, 6))):
            kind = draw(st.sampled_from(("zero", "series", "series", "combination")))
            if kind == "zero":
                comps.append([0] * (cap + 1))
            elif kind == "combination" and comps:
                # a combination of earlier components: its residual can vanish
                a, b = draw(coefficients), draw(coefficients)
                x, y = draw(st.sampled_from(comps)), draw(st.sampled_from(comps))
                comps.append([a * p + b * q for p, q in zip(x, y)])
            else:
                val = draw(st.integers(1, cap))
                comps.append(
                    [0] * val + [draw(coefficients) for _ in range(cap + 1 - val)]
                )
        return series_vector([series_of(c, cap=cap) for c in comps])

    @hypothesis.settings(max_examples=400, deadline=None, database=None)
    @hypothesis.given(vectors(), st.sampled_from(("first", "last")))
    @hypothesis.example(sv([[0, 1]], 1), "first")
    @hypothesis.example(sv([[0], [0, 0, 0, 5]], 3), "last")
    @hypothesis.example(sv([[0, 0, 1], [0, 0, -7, 2], [0]], 3), "first")
    def check(w, order):
        try:
            want = reference_decompose(components(w), order)
        except ValdefError as exc:
            with pytest.raises(type(exc)):
                decompose(*w, order)
            return
        got = decompose(*w, order)
        assert got == want
        # the same vector over a denominator with a common factor, as a
        # deformation's perturbation may hand it in
        den, rows = w
        assert decompose(6 * den, [[6 * x for x in row] for row in rows], order) == want
        assert [TruncSeries(*s.coefficient).cap for s in got.steps] == [
            TruncSeries(*s.coefficient).cap for s in want.steps
        ]
        rden, rrows = recompose(got)
        assert rden > 0 and gcd(rden, *chain.from_iterable(rrows)) == 1
        for cap in range(got.cap + 1):
            assert components(truncated((rden, rrows), cap)) == reference_recompose(got, cap)
        assert (rden, rrows) == truncated(w, got.cap)

    check()


def test_one_series_division_per_step(monkeypatch):
    """decompose divides no residual row: the only series divisions are
    those of the step coefficients, at most one per step after the first,
    however many rows the vector has."""
    from valdef import decompose as module

    calls = []
    real = module.div_nums
    monkeypatch.setattr(module, "div_nums", lambda *args: calls.append(1) or real(*args))
    w = random_vector_in_m(random.Random(35), 16, 24)
    for order in ("first", "last"):
        calls.clear()
        d = decompose(*w, order)
        assert d.length >= 8
        assert 0 < len(calls) <= d.length - 1
        assert d == reference_decompose(components(w), order)


def test_matches_reference_at_corpus_sizes():
    """The undivided loop equals the per-row-division oracle of
    tests/gens.py at the corpus's sizes: caps up to 24 and 8-16 components,
    lead orders 2-5 apart so that a step peels more than one order, and
    combinations of earlier components, whose rows vanish after several
    steps, under both pivot orders."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    numerators = st.one_of(st.integers(-9, 9), st.integers(-(10**12), 10**12))
    coefficients = st.builds(Fraction, numerators, st.integers(1, 12))

    @st.composite
    def vectors(draw):
        cap, gap = draw(st.integers(8, 24)), draw(st.integers(2, 5))
        comps = []
        for _ in range(draw(st.integers(8, 16))):
            kind = draw(st.sampled_from(("zero", "gapped", "gapped", "dense", "combination")))
            if kind == "zero":
                comps.append([0] * (cap + 1))
            elif kind == "combination" and comps:
                a, b = draw(coefficients), draw(coefficients)
                x, y = draw(st.sampled_from(comps)), draw(st.sampled_from(comps))
                comps.append([a * p + b * q for p, q in zip(x, y)])
            else:
                # gapped: nonzero only at multiples of gap, from a lead order
                # that is one too
                step = 1 if kind == "dense" else gap
                val = step * draw(st.integers(1, cap // step))
                comp = [0] * (cap + 1)
                for k in range(val, cap + 1, step):
                    comp[k] = draw(coefficients) if k > val else draw(coefficients) or 1
                comps.append(comp)
        if not any(map(any, comps)):
            comps[0][cap] = 1
        return series_vector([series_of(c, cap=cap) for c in comps])

    @hypothesis.settings(max_examples=40, deadline=None, database=None)
    @hypothesis.given(vectors())
    def check(w):
        for order in ("first", "last"):
            # equal coefficients have equal caps: nums holds t^0 .. t^cap
            got = decompose(*w, order)
            assert got == reference_decompose(components(w), order)
            assert recompose(got) == truncated(w, got.cap)

    check()


def test_decompose_deformation_matches_reference_at_dimension_5():
    """A dimension-5 perturbation is 50 rows; its flag and the term
    coefficients b1...bi of `decompose_deformation` equal the oracle's."""
    from valdef.algebra import AlgebraStructure
    from valdef.deformation import Deformation, decompose_deformation

    from gens import random_cochain

    rng = random.Random(36)
    base = abelian_lie(5)
    for cap, gap in ((12, 1), (24, 2), (24, 3)):
        terms = []
        for _ in range(rng.randint(4, 7)):
            coeff = [0] * (cap + 1)
            for k in range(gap * rng.randint(1, 3), cap + 1, gap):
                coeff[k] = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
            if any(coeff):
                coeff = integer_series(series_of(coeff, cap=cap))
                terms.append((coeff, random_cochain(rng, 5, 2, "adjoint")))
        d = Deformation.build(base, cap, terms)
        den, rows = d.perturbation()
        assert len(rows) == 50
        want = reference_decompose(components((den, rows)))
        assert want.length >= 3
        assert decompose(den, rows) == want
        # a product b1...bi that vanishes at the cap leaves no term
        terms = []
        running = TruncSeries.one(TruncSeries(*want.steps[0].coefficient).cap)
        for step in want.steps:
            running = running * TruncSeries(*step.coefficient)
            if not running.truncate(want.cap).is_zero():
                terms.append(
                    (integer_series(running.truncate(want.cap)), direction(step))
                )
        got = decompose_deformation(d)
        assert got.cap == want.cap
        assert [(c, cochain_flat(phi)) for c, phi in got.terms] == terms
