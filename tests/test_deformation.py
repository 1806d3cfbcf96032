"""Deformation construction, residuals, decomposed form, gauge transport."""

import random

from fractions import Fraction
from itertools import chain, combinations
from math import gcd
from operator import mul

import pytest

from valdef.cohomology import circle, coboundary, super_bracket
from valdef.deformation import (
    Deformation,
    decompose_deformation,
    graded_system,
    jacobi_residual,
    polynomial_form_check,
    series_matrix_inverse,
    series_matrix_mul,
    transport,
)
from valdef.errors import (
    InvalidDeformation,
    NotInMaximalIdeal,
    PrecisionExhausted,
    UnsupportedDegree,
)
from valdef.series import TruncSeries, lowest_terms

from gens import (
    PHI1,
    PHI2,
    R2,
    R2K,
    SL2,
    abelian_lie,
    change_basis,
    cochain_flat,
    cochain_from_flat,
    cochain_value,
    components,
    constant_series,
    decomposed,
    endomorphism,
    eval_vectors,
    first_term_is_cocycle,
    frac,
    fraction_coefficients,
    fraction_table,
    identity_plus,
    integer_rows,
    integer_series,
    max_rank_check,
    mu_cochain,
    perturbation_series,
    perturbations_equal,
    random_cochain,
    random_direction,
    random_invertible,
    random_lie,
    random_series_in_m,
    random_valid_deformation,
    rational_cochain,
    rational_lie,
    rational_pairs,
    scale_cochain,
    series_coeffs,
    series_matrix,
    series_of,
    shuffle_circle,
    two_term_instance,
)

AB3 = abelian_lie(3)
PHI_E12_E3 = rational_cochain(2, 3, "adjoint", {(0, 1): (0, 0, 1)})


def e(n, i):
    return tuple(Fraction(1) if k == i else Fraction(0) for k in range(n))


def test_two_term_instance_hand_checks():
    # oracle for [phi1, phi1] on (X, Y, Z): expand phi1(phi1(.,.),.) terms
    def phi1_eval(a, b):
        return eval_vectors(PHI1, a, b)

    x, y, z = e(3, 0), e(3, 1), e(3, 2)
    comp = lambda a, b, c: phi1_eval(phi1_eval(a, b), c)
    val = tuple(
        p - q + r
        for p, q, r in zip(comp(x, y, z), comp(x, z, y), comp(y, z, x))
    )
    assert val == (Fraction(0), Fraction(1), Fraction(0))
    sb = super_bracket(PHI1, PHI1)
    assert cochain_value(sb, (0, 1, 2)) == tuple(2 * c for c in val)
    assert coboundary(R2K, PHI2) == scale_cochain(sb, -1)
    assert coboundary(R2K, PHI1).is_zero()
    assert super_bracket(PHI1, PHI2).is_zero()
    assert super_bracket(PHI2, PHI2).is_zero()


def deformed_bracket(d, x, y):
    """[x, y] of the base at t^0 plus sum c_i * phi_i(x, y), from the
    perturbation that `Deformation.perturbation` gives on basis pairs."""
    comps = [constant_series(c, d.cap) for c in d.base.bilinear(x, y)]
    for (i, j), vec in perturbation_series(d).items():
        factor = x[i] * y[j] - x[j] * y[i]
        if factor:
            comps = [a + s.scale(factor) for a, s in zip(comps, vec)]
    return tuple(comps)


def test_deformed_bracket_cases():
    d0 = Deformation.build(R2K, 3, [])
    v = deformed_bracket(d0, e(3, 0), e(3, 1))
    assert v[1] == TruncSeries.one(3)
    assert v[0].is_zero() and v[2].is_zero()

    d1 = Deformation.build(AB3, 4, [(integer_series(TruncSeries.monomial(1, 4)), PHI_E12_E3)])
    v1 = deformed_bracket(d1, e(3, 0), e(3, 1))
    assert v1[2] == TruncSeries.monomial(1, 4)
    assert deformed_bracket(d1, e(3, 1), e(3, 0))[2] == TruncSeries.monomial(1, 4, -1)

    phi_x = rational_cochain(2, 2, "adjoint", {(0, 1): (1, 0)})
    d2 = Deformation.build(R2, 3, [(integer_series(TruncSeries.monomial(1, 3)), phi_x)])
    v2 = deformed_bracket(d2, e(2, 0), e(2, 1))
    assert v2 == (TruncSeries.monomial(1, 3), TruncSeries.one(3))


def test_residual_cases():
    assert jacobi_residual(Deformation.build(R2K, 4, [])) == {}
    d1 = Deformation.build(AB3, 4, [(integer_series(TruncSeries.monomial(1, 4)), PHI_E12_E3)])
    # oracle: the only candidate order is t^2 carrying phi o phi
    assert circle(PHI_E12_E3, PHI_E12_E3).is_zero()
    assert jacobi_residual(d1) == {}

    phi_bad = rational_cochain(2, 3, "adjoint", {(0, 1): (1, 0, 0), (0, 2): (0, 0, 1)})
    assert not circle(phi_bad, phi_bad).is_zero()
    d2 = Deformation.build(AB3, 4, [(integer_series(TruncSeries.monomial(1, 4)), phi_bad)])
    res = jacobi_residual(d2)
    assert sorted(res) == [2]
    assert res[2] == circle(phi_bad, phi_bad)


def test_two_term_instance_validity_and_graded():
    d = two_term_instance()
    assert not jacobi_residual(d)
    assert first_term_is_cocycle(d)
    system = graded_system(d)
    assert system.satisfied
    verdict = system.delta_memberships[2]
    assert verdict.holds
    assert fraction_coefficients(verdict) == {(1, 1): Fraction(-1)}
    assert system.bracket_memberships[(1, 2)].holds
    assert max_rank_check(d) == (1, True)


def test_graded_broken_input():
    cap = 6
    # break phi2 off the solution space: delta(phi') no longer in the span
    phi2_bad = rational_cochain(2, 3, "adjoint", {(1, 2): (0, 0, 1)})
    d = Deformation.build(
        R2K,
        cap,
        [
            (integer_series(TruncSeries.monomial(1, cap)), PHI1),
            (integer_series(TruncSeries.monomial(2, cap, Fraction(1, 2))), PHI2 + phi2_bad),
        ],
    )
    res = jacobi_residual(d)
    if res:
        with pytest.raises(InvalidDeformation):
            graded_system(d)
    else:
        assert not graded_system(d).satisfied


def test_graded_system_computes_each_bracket_once(monkeypatch):
    import valdef.deformation as deformation

    # central terms over an abelian base: every circle product vanishes
    pairs = [(0, 1), (0, 2), (1, 2), (0, 1), (0, 2)]
    terms = [
        (
            integer_series(TruncSeries.monomial(p, 6)),
            rational_cochain(2, 4, "adjoint", {pair: (0, 0, 0, p)}),
        )
        for p, pair in enumerate(pairs, start=1)
    ]
    d = Deformation.build(abelian_lie(4), 6, terms)
    seen = []

    def counting(f, g):
        seen.append((f, g))
        return super_bracket(f, g)

    monkeypatch.setattr(deformation, "super_bracket", counting)
    assert graded_system(d).satisfied
    # [phi_i, phi_j] for i <= j <= 5 except [phi_5, phi_5], not 30 calls
    assert len(seen) == 14


def test_membership_per_order_matches_per_target_solve():
    """The one reduced form per order gives each target what
    `linalg.solve_combination` gives it alone: the verdict and, with the
    free coordinates zero, the coefficients over a positive denominator.
    Spans hold repeated, zero and dependent cochains; targets are in the
    span, out of it, zero or repeated."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    from valdef import linalg
    from valdef.deformation import _membership

    small = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))

    @st.composite
    def systems(draw):
        dim = draw(st.integers(3, 4))  # degree-2 trivial: 3 or 6 coordinates
        width = dim * (dim - 1) // 2
        fresh = st.lists(small, min_size=width, max_size=width)
        span = []
        for _ in range(draw(st.integers(1, 5))):
            kinds = ("fresh", "fresh", "combination", "repeat", "zero")
            kind = draw(st.sampled_from(kinds))
            if kind == "zero":
                span.append([0] * width)
            elif kind == "repeat" and span:
                span.append(draw(st.sampled_from(span)))
            elif kind == "combination" and span:
                a, b = draw(small), draw(small)
                x, y = draw(st.sampled_from(span)), draw(st.sampled_from(span))
                span.append([a * p + b * q for p, q in zip(x, y)])
            else:
                span.append(draw(fresh))
        targets = []
        for _ in range(draw(st.integers(1, 5))):
            kinds = ("inside", "inside", "outside", "zero", "repeat")
            kind = draw(st.sampled_from(kinds))
            if kind == "zero":
                targets.append([0] * width)
            elif kind == "repeat" and targets:
                targets.append(draw(st.sampled_from(targets)))
            elif kind == "inside":
                coeffs = [draw(small) for _ in span]
                targets.append([sum(map(mul, coeffs, col)) for col in zip(*span)])
            else:
                targets.append(draw(fresh))
        return dim, span, targets

    seen = set()

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(systems())
    # a dependent span with a zero cochain; targets in, out of it and zero
    @hypothesis.example(
        (3, [[1, 2, 0], [2, 4, 0], [0] * 3], [[3, 6, 0], [0, 0, 1], [0] * 3])
    )
    def check(system):
        dim, span, targets = system
        def cochain(flat):
            return cochain_from_flat(2, dim, "trivial", flat)

        span = [((p, p), cochain(v)) for p, v in enumerate(span)]
        targets = [cochain(v) for v in targets]
        vectors = [cochain_flat(sb) for _, sb in span]
        verdicts = _membership(span, targets)
        assert len(verdicts) == len(targets)
        for verdict, target in zip(verdicts, targets):
            want = linalg.solve_combination(vectors, cochain_flat(target))
            assert verdict.holds == (want is not None)
            seen.add(verdict.holds)
            if want is None:
                assert verdict.coefficients is None
                continue
            assert all(den > 0 for _, den in verdict.coefficients.values())
            assert fraction_coefficients(verdict) == {
                pair: y for (pair, _), y in zip(span, want) if y
            }

    check()
    assert seen == {True, False}


def test_max_rank_degenerate_cases():
    d1 = Deformation.build(AB3, 4, [(integer_series(TruncSeries.monomial(1, 4)), PHI_E12_E3)])
    assert max_rank_check(d1) == (0, True)
    d2 = Deformation.build(
        AB3,
        4,
        [
            (integer_series(TruncSeries.monomial(1, 4)), PHI_E12_E3),
            (
                integer_series(TruncSeries.monomial(2, 4)),
                rational_cochain(2, 3, "adjoint", {(0, 2): (0, 0, 1)}),
            ),
        ],
    )
    dim, is_max = max_rank_check(d2)
    assert dim == 0 and not is_max


def test_decompose_deformation_cases():
    # perturbation t * e3 on (0, 1) and t^2 * e3 on (0, 2)
    phi_e13_e3 = rational_cochain(2, 3, "adjoint", {(0, 2): (0, 0, 1)})
    pert = Deformation.build(
        AB3,
        5,
        [
            (integer_series(TruncSeries.monomial(1, 5)), PHI_E12_E3),
            (integer_series(TruncSeries.monomial(2, 5)), phi_e13_e3),
        ],
    )
    dd = decompose_deformation(pert)
    assert len(dd.terms) == 2
    assert dd.terms[0][0] == integer_series(TruncSeries.monomial(1, dd.cap))
    assert dd.terms[0][1] == PHI_E12_E3
    assert dd.terms[1][0] == integer_series(TruncSeries.monomial(2, dd.cap))
    assert dd.terms[1][1] == rational_cochain(2, 3, "adjoint", {(0, 2): (0, 0, 1)})

    # single-cochain perturbation: one term, pivot-normalized
    psi = rational_cochain(2, 3, "adjoint", {(0, 1): (0, 2, 0), (1, 2): (1, 0, 0)})
    raw = Deformation.build(AB3, 5, [(integer_series(TruncSeries.monomial(1, 5)), psi)])
    dd2 = decompose_deformation(raw)
    assert len(dd2.terms) == 1
    assert cochain_value(dd2.terms[0][1], (0, 1)) == (0, 1, 0)  # scaled so pivot = 1
    assert perturbations_equal(dd2, raw)

    assert decompose_deformation(Deformation.build(AB3, 4, [])).terms == ()
    # terms that cancel leave a zero perturbation: the trivial deformation
    t = TruncSeries.monomial(1, 4)
    cancel = Deformation.build(
        AB3, 4, [(integer_series(t), PHI_E12_E3), (integer_series(-t), PHI_E12_E3)]
    )
    assert decompose_deformation(cancel) == Deformation.build(AB3, 4, [])


def test_decompose_deformation_rejects_constant_terms():
    """A perturbation with a constant term in a slot never reaches the
    decomposition: `Deformation.build` refuses the coefficient."""
    with pytest.raises(NotInMaximalIdeal):
        Deformation.build(AB3, 3, [(integer_series(TruncSeries.one(3)), PHI_E12_E3)])
    with pytest.raises(NotInMaximalIdeal):
        Deformation.build(
            AB3, 3, [(integer_series(series_of([Fraction(1, 2), 1], cap=3)), PHI_E12_E3)]
        )


def test_roundtrip_random_decomposition():
    rng = random.Random(61)
    for _ in range(25):
        d = random_valid_deformation(rng, rng.randint(2, 4), rng.randint(3, 6))
        dd = decomposed(d)
        assert perturbations_equal(dd, d)
        # independence of the cochains
        from valdef import linalg

        vectors = [list(cochain_flat(phi)) for _, phi in dd.terms]
        assert linalg.rank(integer_rows(vectors)) == len(vectors)


def test_step_factors_recover_cumulative_products():
    from gens import step_factors

    rng = random.Random(65)
    for _ in range(10):
        d = random_valid_deformation(rng, rng.randint(2, 4), rng.randint(3, 6))
        dd = decomposed(d)
        factors = step_factors(dd)
        assert all(f.in_maximal_ideal() for f in factors)
        running = None
        for f, (coeff, _) in zip(factors, dd.terms):
            running = f if running is None else running * f
            assert running == TruncSeries(*coeff).truncate(running.cap)


def test_first_term_requires_validity():
    phi_bad = rational_cochain(2, 3, "adjoint", {(0, 1): (1, 0, 0), (0, 2): (0, 0, 1)})
    d = Deformation.build(AB3, 4, [(integer_series(TruncSeries.monomial(1, 4)), phi_bad)])
    with pytest.raises(InvalidDeformation):
        first_term_is_cocycle(d)


def test_transport_identity_and_roundtrip():
    rng = random.Random(62)
    for _ in range(15):
        d = random_valid_deformation(rng, rng.randint(2, 4), rng.randint(3, 5))
        n, cap = d.base.dim, d.cap
        assert perturbations_equal(transport(d, identity_plus(n, cap)), d)
        f = identity_plus(n, cap, random_direction(rng, n))
        td = transport(d, f)
        assert not jacobi_residual(td)
        back = transport(td, series_matrix_inverse(f, cap))
        assert perturbations_equal(back, d)


def test_transport_direct_expansion_oracle():
    # abelian base, single term (t, phi), f = Id + t*N: the transported
    # bracket is f^-1(mu_t(f x, f y)) computed here with plain polynomial
    # arithmetic (truncated lists), independently of the series classes
    n, cap = 3, 3
    d = Deformation.build(AB3, cap, [(integer_series(TruncSeries.monomial(1, cap)), PHI_E12_E3)])
    N = [[Fraction(0), Fraction(1), Fraction(0)],
         [Fraction(0), Fraction(0), Fraction(2)],
         [Fraction(1), Fraction(0), Fraction(0)]]
    f = identity_plus(n, cap, N)
    td = transport(d, f)

    def pmul(a, b):
        out = [Fraction(0)] * (cap + 1)
        for i in range(cap + 1):
            for j in range(cap + 1 - i):
                out[i + j] += a[i] * b[j]
        return out

    npow = [[[Fraction(1 if r == c else 0) for c in range(n)] for r in range(n)]]
    for _ in range(cap):
        last = npow[-1]
        npow.append(
            [
                [
                    sum(last[r][k] * N[k][c] for k in range(n))
                    for c in range(n)
                ]
                for r in range(n)
            ]
        )

    def oracle(i, j):
        fi = [[Fraction(1 if r == i else 0), N[r][i]] + [Fraction(0)] * (cap - 1) for r in range(n)]
        fj = [[Fraction(1 if r == j else 0), N[r][j]] + [Fraction(0)] * (cap - 1) for r in range(n)]
        factor = [
            p - q for p, q in zip(pmul(fi[0], fj[1]), pmul(fi[1], fj[0]))
        ]
        w = [[Fraction(0)] * (cap + 1) for _ in range(n)]
        w[2] = pmul(factor, [Fraction(0), Fraction(1)] + [Fraction(0)] * (cap - 1))
        out = [[Fraction(0)] * (cap + 1) for _ in range(n)]
        for p in range(cap + 1):
            sgn = (-1) ** p
            for r in range(n):
                for c in range(n):
                    coeff = sgn * npow[p][r][c]
                    if coeff:
                        for q in range(cap + 1 - p):
                            out[r][p + q] += coeff * w[c][q]
        return out

    pert = perturbation_series(td)
    for (i, j) in ((0, 1), (0, 2), (1, 2)):
        want = oracle(i, j)
        got = [list(series_coeffs(s)) for s in pert[(i, j)]]
        assert got == want


def _pmul(a, b, cap):
    """Product of two Fraction coefficient lists, up to t^cap."""
    out = [Fraction(0)] * (cap + 1)
    for i, x in enumerate(a[: cap + 1]):
        if x:
            for j, y in enumerate(b[: cap + 1 - i]):
                out[i + j] += x * y
    return out


def expanded_bracket(d, cap):
    """(i, j) -> the n Fraction coefficient lists of mu_t(e_i, e_j), i < j,
    read from the base table and each term's coefficients and cochain
    values, without `Deformation.perturbation`."""
    n = d.base.dim
    out = {}
    for pair in combinations(range(n), 2):
        vec = [[Fraction(0)] * (cap + 1) for _ in range(n)]
        for k, c in fraction_table(d.base).get(pair, ()):
            vec[k][0] += c
        for coeff, phi in d.terms:
            for k, c in enumerate(cochain_value(phi, pair)):
                for p in range(cap + 1):
                    vec[k][p] += c * series_coeffs(TruncSeries(*coeff))[p]
        out[pair] = vec
    return out


def transport_oracle(bracket, f, f_inv, n, cap):
    """f_inv(mu_t(f e_i, f e_j)) for every i < j, multiplied out on Fraction
    lists; f and f_inv are n x n matrices of coefficient lists and bracket
    is an `expanded_bracket`."""

    def mu_t(x, y):
        out = [[Fraction(0)] * (cap + 1) for _ in range(n)]
        for (a, b), vec in bracket.items():
            factor = [
                p - q for p, q in zip(_pmul(x[a], y[b], cap), _pmul(x[b], y[a], cap))
            ]
            for k in range(n):
                out[k] = [u + v for u, v in zip(out[k], _pmul(factor, vec[k], cap))]
        return out

    out = {}
    for i, j in bracket:
        w = mu_t([row[i] for row in f], [row[j] for row in f])
        res = [[Fraction(0)] * (cap + 1) for _ in range(n)]
        for r in range(n):
            for k in range(n):
                res[r] = [u + v for u, v in zip(res[r], _pmul(f_inv[r][k], w[k], cap))]
        out[(i, j)] = res
    return out


def test_transport_matches_fraction_expansion():
    """transport, by f and by its inverse (the CLI's --inverse, which passes
    f back in as the inverse of the inverse), equals f^-1(mu_t(f x, f y))
    multiplied out on Fraction lists, for random Lie bases, random (not
    necessarily valid) terms and f = Id + t^p N; the round trip gives the
    input bracket back at the common cap."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=60, deadline=None, database=None)
    @hypothesis.given(
        st.randoms(use_true_random=False),
        st.integers(2, 5),
        st.integers(1, 8),
        st.integers(1, 8),
        st.integers(0, 3),
    )
    def check(rng, n, dcap, fcap, count):
        terms = [
            (
                integer_series(random_series_in_m(rng, dcap, max_num=9, max_den=7)),
                random_cochain(rng, n, 2, "adjoint"),
            )
            for _ in range(count)
        ]
        d = Deformation.build(random_lie(rng, n), dcap, terms)
        power = rng.randint(1, fcap)
        f = identity_plus(n, fcap, random_direction(rng, n), power)
        cap = min(dcap, fcap)
        g = series_matrix_inverse(f, cap)
        f_series = series_matrix(f)
        f_lists = [[list(series_coeffs(e)[: cap + 1]) for e in row] for row in f_series]
        g_lists = neumann_inverse(f_series, cap)
        bracket = expanded_bracket(d, cap)
        td = transport(d, f)
        assert td.cap == cap
        assert expanded_bracket(td, cap) == transport_oracle(
            bracket, f_lists, g_lists, n, cap
        )
        tg = transport(d, g)
        assert expanded_bracket(tg, cap) == transport_oracle(
            bracket, g_lists, f_lists, n, cap
        )
        # the CLI's --inverse hands f in as the inverse of g: the same result
        # without inverting g again
        assert transport(d, g, f) == tg
        assert expanded_bracket(transport(td, g), cap) == bracket

    check()


def test_perturbation_matrix_matches_fraction_sum():
    """Row s * n + k of `Deformation.perturbation` over its denominator is
    the sum of coeff * cochain_flat(phi)[s * n + k] over the terms, in Fractions."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=100, deadline=None, database=None)
    @hypothesis.given(
        st.randoms(use_true_random=False),
        st.integers(2, 5),
        st.integers(1, 8),
        st.integers(0, 4),
    )
    def check(rng, n, cap, count):
        terms = [
            (
                integer_series(
                    random_series_in_m(rng, cap + rng.randint(0, 2), max_num=9, max_den=7)
                ),
                random_cochain(rng, n, 2, "adjoint", allow_zero=True),
            )
            for _ in range(count)
        ]
        d = Deformation.build(random_lie(rng, n), cap, terms)
        den, rows = d.perturbation()
        flats = [
            (series_coeffs(TruncSeries(*coeff)), cochain_flat(phi)) for coeff, phi in terms
        ]
        want = [
            [sum((c[p] * v[slot] for c, v in flats), Fraction(0)) for p in range(cap + 1)]
            for slot in range(n * n * (n - 1) // 2)
        ]
        assert den > 0
        assert [[Fraction(x, den) for x in row] for row in rows] == want

    check()


def test_transport_rejects_non_unipotent():
    d = Deformation.build(AB3, 3, [(integer_series(TruncSeries.monomial(1, 3)), PHI_E12_E3)])
    f = series_matrix(identity_plus(3, 3))
    two = constant_series(2, 3)
    broken = endomorphism(
        [[two if (r, c) == (0, 0) else f[r][c] for c in range(3)] for r in range(3)]
    )
    with pytest.raises(NotInMaximalIdeal):
        transport(d, broken)


def test_transport_refuses_a_wrong_inverse():
    """An inverse that does not invert F fails the t^0 self-check of
    `transport`: with F = Id + t E01 and 2F passed as its inverse, the
    transported [e0, e1] at t^0 is 2 e1 instead of e1."""
    d = Deformation.build(R2K, 4, [])
    f = identity_plus(3, 4, [[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    den, rows = f
    doubled = den, [[[2 * x for x in e] for e in row] for row in rows]
    assert transport(d, f) == transport(d, f, series_matrix_inverse(f, 4))
    with pytest.raises(InvalidDeformation) as caught:
        transport(d, f, doubled)
    assert str(caught.value) == "transport did not preserve the base bracket at t^0"


def test_polynomial_form_check_cases():
    d = Deformation.build(AB3, 4, [(integer_series(TruncSeries.monomial(1, 4)), PHI_E12_E3)])
    assert polynomial_form_check(d, rational_pairs([1]), 1)
    c = TruncSeries.monomial(1, 4).div_exact(series_of([1, 1], cap=4))
    d2 = Deformation.build(AB3, 4, [(integer_series(c), PHI_E12_E3)])
    assert polynomial_form_check(d2, rational_pairs([1, 1]), 1)
    assert not polynomial_form_check(d2, rational_pairs([1]), 1)
    with pytest.raises(ValueError):
        polynomial_form_check(d2, rational_pairs([2]), 1)
    with pytest.raises(ValueError):
        polynomial_form_check(d2, rational_pairs([1, 1, 1]), 1)
    with pytest.raises(PrecisionExhausted):
        polynomial_form_check(d2, rational_pairs([1]), 4)
    # mu_t = mu / P over a base with fractional constants: P * mu_t = mu
    diag = (Fraction(1, 3), Fraction(2, 5), Fraction(1))
    base = change_basis(
        SL2, [[diag[i] if i == j else Fraction(0) for j in range(3)] for i in range(3)]
    )
    assert base.scaled_table[0] % 3 == 0
    q = series_of([1, Fraction(1, 2)], cap=4).invert()
    mu = mu_cochain(base)
    terms = [
        (integer_series(TruncSeries.monomial(p, 4, c)), mu)
        for p, c in enumerate(series_coeffs(q))
        if p
    ]
    d3 = Deformation.build(base, 4, terms)
    assert polynomial_form_check(d3, rational_pairs([1, Fraction(1, 2)]), 1)
    assert not polynomial_form_check(d3, rational_pairs([1, Fraction(3, 2)]), 1)


def find_polynomial_form(d, k):
    """Solve for P (deg <= k, P(0) = 1) killing all orders above t^k.

    Independent of polynomial_form_check: the constraints are assembled
    directly from the perturbation coefficients and solved exactly.
    """
    from valdef import linalg

    den, rows = d.perturbation()
    cap = d.cap
    slots = [[Fraction(x, den) for x in row] for row in rows]
    columns = []
    for q in range(1, k + 1):
        col = []
        for s in slots:
            for p in range(k + 1, cap + 1):
                col.append(s[p - q])
        columns.append(tuple(col))
    target = []
    for s in slots:
        for p in range(k + 1, cap + 1):
            target.append(-s[p])
    sol = linalg.solve_combination(columns, target)
    if sol is None:
        return None
    return [Fraction(1)] + list(sol)


def test_maximal_rank_deformations_admit_polynomial_form():
    # scale a polynomial maximal-rank deformation by 1/P0 and recover a P
    rng = random.Random(64)
    for _ in range(10):
        cap = 6
        k = 2
        base_d = two_term_instance(cap)
        coeffs = [Fraction(1)] + [
            Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(k)
        ]
        p0 = series_of(coeffs, cap=cap)
        q = p0.invert()
        pert = perturbation_series(base_d)
        mu = mu_cochain(R2K)
        terms = []
        q_minus_1 = q - TruncSeries.one(cap)
        by_power = {}
        from itertools import combinations as combs

        for pair in combs(range(3), 2):
            base_vec = cochain_value(mu, pair)
            for coord in range(3):
                s = q_minus_1.scale(base_vec[coord]) + q * pert[pair][coord]
                for p in range(1, cap + 1):
                    if series_coeffs(s)[p]:
                        by_power.setdefault(p, {}).setdefault(pair, [Fraction(0)] * 3)[
                            coord
                        ] = series_coeffs(s)[p]
        for p in sorted(by_power):
            phi = rational_cochain(
                2, 3, "adjoint", {pr: tuple(v) for pr, v in by_power[p].items()}
            )
            terms.append((integer_series(TruncSeries.monomial(p, cap)), phi))
        d = Deformation.build(R2K, cap, terms)
        assert not jacobi_residual(d)
        assert max_rank_check(decomposed(d))[1]
        found = find_polynomial_form(d, k)
        assert found is not None
        assert polynomial_form_check(d, rational_pairs(found), k)


def test_validity_gauge_invariance_includes_invalid():
    # transporting an invalid deformation stays invalid
    phi_bad = rational_cochain(2, 3, "adjoint", {(0, 1): (1, 0, 0), (0, 2): (0, 0, 1)})
    d = Deformation.build(AB3, 4, [(integer_series(TruncSeries.monomial(1, 4)), phi_bad)])
    rng = random.Random(63)
    f = identity_plus(3, 4, random_direction(rng, 3))
    assert jacobi_residual(d)
    assert jacobi_residual(transport(d, f))


def circle_residual(d):
    """Reference for jacobi_residual: mu_t o mu_t from Fraction shuffle
    compositions only, mu_t = 1 * mu + sum c_i * phi_i, expanded over every
    ordered pair."""
    terms = [(TruncSeries.one(d.cap), mu_cochain(d.base))] + [
        (TruncSeries(*c), phi) for c, phi in d.terms
    ]
    out = {}
    for ci, phi_i in terms:
        for cj, phi_j in terms:
            comp = shuffle_circle(phi_i, phi_j)
            for p, c in enumerate(series_coeffs(ci * cj)):
                if c:
                    out[p] = scale_cochain(comp, c) + out.get(p, scale_cochain(comp, 0))
    return {p: c for p, c in out.items() if not c.is_zero()}


def test_jacobi_residual_matches_circle_reference():
    rng = random.Random(63)
    nonzero = 0
    for trial in range(30):
        cap = rng.randint(2, 6)
        if trial % 3 == 0:
            d = random_valid_deformation(rng, rng.randint(2, 4), cap)
        else:
            n = rng.randint(2, 4)
            terms = [
                (integer_series(random_series_in_m(rng, cap, max_num=9, max_den=7)),
                 random_cochain(rng, n, 2, "adjoint"))
                for _ in range(rng.randint(1, 3))
            ]
            d = Deformation.build(random_lie(rng, n), cap, terms)
        want = circle_residual(d)
        assert jacobi_residual(d) == want
        nonzero += bool(want)
    assert nonzero >= 10


ODD_DENS = (1, 3, 5, 7)


def odd_cochain(rng, n):
    """Random degree-2 adjoint cochain with denominators from 1, 3, 5, 7."""
    return rational_cochain(
        2,
        n,
        "adjoint",
        {
            (i, j): [
                Fraction(rng.randint(-9, 9), rng.choice(ODD_DENS))
                if rng.random() < 0.5
                else 0
                for _ in range(n)
            ]
            for i in range(n)
            for j in range(i + 1, n)
        },
    )


def conjugated_cochain(rng, phi):
    """phi read as a bracket table, in a random rational basis."""
    table = {pair: dict(enumerate(cochain_value(phi, pair))) for pair in phi.values}
    law = rational_lie(phi.dim, table)
    return mu_cochain(change_basis(law, random_invertible(rng, phi.dim)))


def test_kernel_circle_matches_shuffle_reference():
    rng = random.Random(66)
    dens = set()
    nonzero = 0
    for trial in range(60):
        n = 2 + trial % 5
        f, g = odd_cochain(rng, n), odd_cochain(rng, n)
        if trial % 3 == 0:
            f = conjugated_cochain(rng, f)
        if trial % 4 == 0:
            g = conjugated_cochain(rng, g)
        dens |= {f.scaled_table[0], g.scaled_table[0]}
        want = shuffle_circle(f, g)
        assert circle(f, g) == want
        assert super_bracket(f, g) == want + shuffle_circle(g, f)
        nonzero += not want.is_zero()
        cap = rng.randint(2, 5)
        terms = [
            (integer_series(random_series_in_m(rng, cap, max_num=9, max_den=7)), phi)
            for phi in (f, g)[: rng.randint(1, 2)]
        ]
        d = Deformation.build(random_lie(rng, n), cap, terms)
        assert jacobi_residual(d) == circle_residual(d)
    assert nonzero >= 40
    assert all(any(d % p == 0 for d in dens) for p in (3, 5, 7))
    # only degree-2 adjoint cochains are bracket tables
    with pytest.raises(UnsupportedDegree):
        circle(random_cochain(rng, f.dim, 3, "adjoint"), f)
    with pytest.raises(ValueError):
        circle(f, random_cochain(rng, f.dim, 2, "trivial"))


def neumann_inverse(f, cap):
    """Reference inverse of Id + H, an n x n matrix of TruncSeries: sum of
    (-H)^i for i <= cap, on lists of Fraction coefficients multiplied out
    directly."""
    n = len(f)

    def mat_mul(a, b):
        def entry(r, c, p):
            terms = (a[r][m][i] * b[m][c][p - i] for m in range(n) for i in range(p + 1))
            return sum(terms, Fraction(0))

        return [
            [[entry(r, c, p) for p in range(cap + 1)] for c in range(n)]
            for r in range(n)
        ]

    ident = [
        [[Fraction(int(r == c))] + [Fraction(0)] * cap for c in range(n)] for r in range(n)
    ]
    neg_h = [
        [[-x for x in series_coeffs(f[r][c])[: cap + 1]] for c in range(n)] for r in range(n)
    ]
    for r in range(n):
        neg_h[r][r][0] += 1
    total, power = ident, ident
    for _ in range(cap):
        power = mat_mul(power, neg_h)
        total = [
            [[x + y for x, y in zip(total[r][c], power[r][c])] for c in range(n)]
            for r in range(n)
        ]
    return total


def random_unipotent(rng, n, cap):
    """Id + H with H into m: dense, sparse, or one power of t only."""
    shape = rng.choice(("dense", "sparse", "monomial"))
    power = rng.randint(1, cap) if cap else 0
    rows = []
    for r in range(n):
        row = []
        for c in range(n):
            coeffs = [Fraction(int(r == c))]
            for p in range(1, cap + 1):
                keep = {"dense": True, "sparse": rng.random() < 0.3, "monomial": p == power}
                coeffs.append(frac(rng, 9, 7) if keep[shape] else Fraction(0))
            row.append(series_of(coeffs, cap=cap))
        rows.append(tuple(row))
    return endomorphism(rows)


def test_series_matrix_inverse_matches_neumann_reference():
    rng = random.Random(64)
    for _ in range(40):
        n, cap = rng.randint(1, 4), rng.randint(0, 6)
        f = random_unipotent(rng, n, cap + rng.randint(0, 2))
        inv = series_matrix(series_matrix_inverse(f, cap))
        want = neumann_inverse(series_matrix(f), cap)
        assert [[list(series_coeffs(e)) for e in row] for row in inv] == want
        ident = series_matrix(identity_plus(n, cap))
        assert series_matrix_mul(series_matrix(f), inv, cap) == ident
        assert series_matrix_mul(inv, series_matrix(f), cap) == ident
    with pytest.raises(PrecisionExhausted, match="cap-3 series to cap 4"):
        series_matrix_inverse(identity_plus(2, 3), 4)


@pytest.mark.parametrize("cap", [3, 4])
def test_series_matrix_inverse_rejects_non_unipotent(cap):
    f = series_matrix(identity_plus(2, cap))
    for (r, c), bad in (((0, 0), 2), ((1, 1), 0), ((0, 1), Fraction(1, 3))):
        broken = endomorphism(
            [
                [
                    constant_series(bad, cap) if (i, j) == (r, c) else f[i][j]
                    for j in range(2)
                ]
                for i in range(2)
            ]
        )
        with pytest.raises(NotInMaximalIdeal, match=rf"\({r},{c}\) has constant term"):
            series_matrix_inverse(broken, cap)


def test_canonical_parse_and_inverse():
    """`series.parse_vector` and `series.parse_endomorphism` read a file
    into one canonical (den, rows), gcd(den, every numerator) = 1, with the
    values of `series.parse_series_literal` literal by literal, and refuse a
    file with the error of its first bad literal, row-major.  `series_matrix_inverse`,
    also at a cap below the endomorphism's, returns a canonical (den, rows)
    that is the inverse of f under `series_matrix_mul`; its recursion runs
    over D, the lowest terms of f cut to that cap, so the scale it divides
    the content out of at the end is D^cap (seen through `lowest_terms`)."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    from valdef import deformation
    from valdef.errors import FormatError
    from valdef.series import parse_endomorphism, parse_series_literal, parse_vector

    literals = st.one_of(
        st.builds(str, st.integers(-9, 9)),
        st.builds("{}/{}".format, st.integers(-30, 30), st.integers(1, 12)),
        st.sampled_from(("2/4", "-0/5", "-6/3", "+9/6", "007", "-003/010")),
    )
    ones = st.sampled_from(("1", "2/2", "+3/3", "01"))
    zeros = st.sampled_from(("0", "-0/4", "0/7"))

    def series(cap, head=None):
        """Series literals of at most cap + 1 coefficients; the constant
        term drawn from head when given."""
        if head is None:
            return st.lists(literals, max_size=cap + 1)
        return st.builds(lambda h, t: [h, *t], head, st.lists(literals, max_size=cap))

    def canonical(den, nums, cap):
        nums = list(nums)
        return den > 0 and gcd(den, *chain.from_iterable(nums)) == 1 and all(
            len(x) == cap + 1 for x in nums
        )

    def first_error(data, entries, cap, read):
        """read's FormatError on entries with two bad ones planted, and the
        error of the first of them on its own."""
        bad = [["0", "1_0"], "0", ["0"] * (cap + 2), [3], ["1/0"]]
        first, second = data.draw(st.permutations(bad))[:2]
        at = data.draw(st.integers(0, len(entries) - 1))
        later = data.draw(st.integers(at, len(entries) - 1))
        entries = list(entries)
        entries[at] = first
        entries[later] = second if later > at else first
        with pytest.raises(FormatError) as want:
            parse_series_literal(first, cap)
        with pytest.raises(FormatError) as got:
            read(entries)
        return str(got.value), str(want.value)

    @hypothesis.settings(max_examples=200, deadline=None, database=None)
    @hypothesis.given(st.data(), st.integers(1, 4), st.integers(0, 6))
    def check(data, n, fcap):
        comps = data.draw(st.lists(series(fcap), min_size=1, max_size=5))
        den, rows = vec = parse_vector({"cap": fcap, "components": comps}, 8)
        assert canonical(den, rows, fcap)
        assert components(vec) == tuple(
            TruncSeries(*parse_series_literal(c, fcap)) for c in comps
        )
        def read_vector(comps):
            return parse_vector({"cap": fcap, "components": comps}, 8)

        got, want = first_error(data, comps, fcap, read_vector)
        assert got == want

        matrix = [
            [data.draw(series(fcap, ones if r == c else zeros)) for c in range(n)]
            for r in range(n)
        ]
        f = parse_endomorphism({"cap": fcap, "matrix": matrix}, n, 8)
        assert canonical(f[0], chain.from_iterable(f[1]), fcap)
        assert series_matrix(f) == tuple(
            tuple(TruncSeries(*parse_series_literal(e, fcap)) for e in row)
            for row in matrix
        )

        def read_matrix(flat):
            rows = [flat[r * n : (r + 1) * n] for r in range(n)]
            return parse_endomorphism({"cap": fcap, "matrix": rows}, n, 8)

        flat = [e for row in matrix for e in row]
        got, want = first_error(data, flat, fcap, read_matrix)
        assert got == want

        cap = data.draw(st.integers(0, fcap))
        assert inverse_scale(f, cap) == endomorphism(
            [[e.truncate(cap) for e in row] for row in series_matrix(f)]
        )[0] ** cap

    def inverse_scale(f, cap):
        """Check series_matrix_inverse(f, cap); the den of its last
        `lowest_terms` call."""
        seen = []

        def spy(den, rows):
            seen.append(den)
            return lowest_terms(den, rows)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(deformation, "lowest_terms", spy)
            g = series_matrix_inverse(f, cap)
        assert canonical(g[0], chain.from_iterable(g[1]), cap)
        fs, gs = series_matrix(f), series_matrix(g)
        ident = series_matrix(identity_plus(len(fs), cap))
        assert series_matrix_mul(fs, gs, cap) == ident == series_matrix_mul(gs, fs, cap)
        return seen[-1]

    check()
    # the cut drops the only 7 of the denominator, and the inverse's content
    # is 2^(cap - 1) over 2^cap
    f = parse_endomorphism({"matrix": [[["1", "1/2", "0", "1/7"]]]}, 1, 3)
    assert f == (14, [[[14, 7, 0, 2]]])
    assert inverse_scale(f, 2) == 2**2
    assert series_matrix_inverse(f, 2) == (4, [[[4, -2, 1]]])


def test_parse_vector_peak_memory():
    """`series.parse_vector` builds the padded integer rows in place: reading
    200 components at cap 499, literals -40..40 over 1..9, peaks at no more
    than twice the matrix it returns (tracemalloc)."""
    import random
    import tracemalloc

    from valdef.series import parse_vector

    rng = random.Random(5)
    comps = [
        [f"{rng.randint(-40, 40)}/{rng.randint(1, 9)}" for _ in range(500)]
        for _ in range(200)
    ]
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        den, rows = parse_vector({"cap": 499, "components": comps}, 8)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert den == 2520 and len(rows) == 200 and {len(row) for row in rows} == {500}
    assert peak - start <= 2 * (kept - start)


def test_readme_worked_example_runs(capsys):
    """README's "A worked example" Python block runs as printed: the
    deformation is valid up to t^6 and decomposes into one term."""
    import re
    from pathlib import Path

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"A worked example:\n\n```python\n(.*?)```", readme, re.S)
    assert block is not None
    namespace = {}
    exec(block.group(1), namespace)
    assert capsys.readouterr().out == "{}\n1 6\n"
    d, dd = namespace["d"], namespace["dd"]
    assert dd.terms == d.terms
    # row 0 is the e_0 coordinate of mu_t(e_0, e_1) - mu(e_0, e_1): t
    assert namespace["den"] == 1 and namespace["rows"][0] == [0, 1, 0, 0, 0, 0, 0]
