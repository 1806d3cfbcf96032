"""Circle product, super-bracket, coboundary, cohomology dimensions."""

import random

from fractions import Fraction
from itertools import islice
from math import comb

import pytest

from valdef import linalg
from valdef.algebra import COEFFS, Cochain, jacobiator
from valdef.cohomology import (
    GRADING_MIN_CELLS,
    circle,
    coboundary,
    coboundary_matrix,
    cohomology_dim,
    is_coboundary,
    super_bracket,
)
from valdef.errors import NotLie, UnsupportedDegree
from valdef.grading import find_grading

from gens import (
    FILIFORM4,
    H3,
    R2,
    R2K,
    ROOTS123,
    SL2,
    abelian_lie,
    change_basis,
    coboundary_rows,
    cochain_flat,
    cochain_from_flat,
    cochain_value,
    domain_matrix,
    frac,
    fraction_table,
    in_span,
    mu_cochain,
    nullspace,
    random_cochain,
    random_invertible,
    random_lie,
    rational_cochain,
    rational_lie,
    scale_cochain,
    shuffle_circle,
    unit,
)

ODD_DENS = (1, 3, 5, 7)


def odd_lie(rng, n):
    """random_lie with basis vectors rescaled by 1, 3, 5 or 7.

    In the basis d_i e_i the constants pick up the denominators d_k, so
    the integer table has a nontrivial common denominator.
    """
    g = random_lie(rng, n)
    scale = [
        [Fraction(rng.choice(ODD_DENS)) if i == j else Fraction(0) for j in range(n)]
        for i in range(n)
    ]
    return change_basis(g, scale)


def dense(rows, ncols):
    """Sparse {col: int} rows as a list of Fraction lists."""
    return [[Fraction(row.get(c, 0)) for c in range(ncols)] for row in rows]


# -- Fraction reference: delta built from shuffle compositions ------------


def ref_coboundary(g, f):
    """mu o f + (-1)^p f o mu (adjoint), f o mu (trivial), by shuffles."""
    mu = mu_cochain(g)
    if f.target == "trivial":
        return shuffle_circle(f, mu)
    if f.degree % 2 == 0:
        return shuffle_circle(mu, f) + shuffle_circle(f, mu)
    return shuffle_circle(mu, f) + scale_cochain(shuffle_circle(f, mu), -1)


def ref_coboundary_matrix(g, degree, coeff):
    """delta: C^degree -> C^(degree+1) over Q, one basis cochain at a time."""
    n = g.dim
    width = n if coeff == "adjoint" else 1
    dom = comb(n, degree) * width
    codom = comb(n, degree + 1) * width
    cols = []
    for c in range(dom):
        if degree == 0:
            # delta v (x) = -[x, v]: the image of e_c is x -> [e_c, x]
            img = rational_cochain(
                1,
                n,
                coeff,
                {(j,): g.bilinear(unit(n, c), unit(n, j)) if coeff == "adjoint"
                 else 0 for j in range(n)},
            )
        else:
            flat = [Fraction(0)] * dom
            flat[c] = Fraction(1)
            img = ref_coboundary(g, cochain_from_flat(degree, n, coeff, flat))
        cols.append(cochain_flat(img))
    return [[cols[c][r] for c in range(dom)] for r in range(codom)], dom


def mat_mul(left, right):
    """Product of two sparse {col: int} matrices given by their rows."""
    out = []
    for row in left:
        acc = {}
        for k, a in row.items():
            for c, b in right[k].items():
                acc[c] = acc.get(c, 0) + a * b
        out.append({c: v for c, v in acc.items() if v})
    return out


def test_mu_circle_mu_is_jacobiator():
    rng = random.Random(51)
    for _ in range(10):
        g = random_lie(rng, rng.randint(2, 4))
        assert circle(mu_cochain(g), mu_cochain(g)) == jacobiator(g)
    bad = rational_lie(3, {(0, 1): {0: 1}, (0, 2): {1: 1}})
    got = circle(mu_cochain(bad), mu_cochain(bad))
    assert got == jacobiator(bad)
    assert not got.is_zero()


def test_circle_with_zero_table():
    ab = abelian_lie(3)
    rng = random.Random(52)
    phi = random_cochain(rng, 3, 2, "adjoint")
    assert circle(phi, mu_cochain(ab)).is_zero()
    assert circle(mu_cochain(ab), phi).is_zero()


def test_super_bracket_symmetry_and_doubling():
    rng = random.Random(53)
    for _ in range(10):
        n = rng.randint(2, 4)
        f = random_cochain(rng, n, 2, "adjoint")
        g = random_cochain(rng, n, 2, "adjoint")
        assert super_bracket(f, g) == super_bracket(g, f)
        assert super_bracket(f, f) == scale_cochain(circle(f, f), 2)


def test_bracket_with_cocycle_vanishes():
    # [mu, phi] = 0 for phi in the exact kernel of the degree-2 coboundary
    for g in (SL2, R2, random_lie(random.Random(54), 4)):
        rows, dom = coboundary_rows(g, 2, "adjoint")
        matrix = dense(rows, dom)
        kernel = (
            nullspace(matrix)
            if matrix
            else [
                tuple(
                    Fraction(1) if i == j else Fraction(0) for j in range(dom)
                )
                for i in range(dom)
            ]
        )
        mu = mu_cochain(g)
        for vec in kernel[:4]:
            phi = cochain_from_flat(2, g.dim, "adjoint", vec)
            assert super_bracket(mu, phi).is_zero()


def test_coboundary_abelian_zero():
    ab = abelian_lie(3)
    rng = random.Random(55)
    for target in ("adjoint", "trivial"):
        f = random_cochain(rng, 3, 1, target)
        assert coboundary(ab, f).is_zero()
        f2 = random_cochain(rng, 3, 2, target)
        assert coboundary(ab, f2).is_zero()


def test_r2_trivial_coboundary_unit_magnitude():
    omega1 = rational_cochain(1, 2, "trivial", {(1,): 1})
    d = coboundary(R2, omega1)
    val = cochain_value(d, (0, 1))
    assert val in (Fraction(1), Fraction(-1))
    omega0 = rational_cochain(1, 2, "trivial", {(0,): 1})
    assert coboundary(R2, omega0).is_zero()


def test_delta_delta_zero_random():
    rng = random.Random(56)
    for _ in range(40):
        g = random_lie(rng, rng.randint(2, 5))
        for target in ("adjoint", "trivial"):
            f = random_cochain(rng, g.dim, 1, target)
            assert coboundary(g, coboundary(g, f)).is_zero()


def test_unsupported_degree():
    rng = random.Random(57)
    g = random_lie(rng, 5)
    f = random_cochain(rng, 5, 4, "adjoint")
    with pytest.raises(UnsupportedDegree):
        coboundary(g, f)
    with pytest.raises(UnsupportedDegree):
        cohomology_dim(g, 4, "adjoint")
    with pytest.raises(UnsupportedDegree):
        coboundary_matrix(g, 4, "trivial")


def test_known_dimensions():
    assert cohomology_dim(abelian_lie(2), 2, "adjoint").dim_H == 2
    assert cohomology_dim(SL2, 2, "adjoint").dim_H == 0
    assert cohomology_dim(R2, 2, "trivial").dim_H == 0
    # degree-1 adjoint of sl2: derivations are inner (Whitehead)
    rep = cohomology_dim(SL2, 1, "adjoint")
    assert rep.dim_H == 0 and rep.dim_coboundaries == 3


def test_report_invariant():
    rng = random.Random(58)
    for _ in range(10):
        g = random_lie(rng, rng.randint(2, 4))
        for deg in (1, 2):
            for coeff in ("adjoint", "trivial"):
                rep = cohomology_dim(g, deg, coeff)
                assert rep.dim_H == rep.dim_cocycles - rep.dim_coboundaries
                assert rep.dim_H >= 0


def test_basis_independence():
    rng = random.Random(59)
    for _ in range(8):
        g = random_lie(rng, rng.randint(2, 4))
        h = change_basis(g, random_invertible(rng, g.dim))
        for deg in (1, 2):
            for coeff in ("adjoint", "trivial"):
                assert cohomology_dim(g, deg, coeff) == cohomology_dim(
                    h, deg, coeff
                )


def test_is_coboundary():
    rng = random.Random(60)
    g = random_lie(rng, 3)
    f = random_cochain(rng, 3, 1, "adjoint")
    img = coboundary(g, f)
    assert is_coboundary(g, img)
    # something outside the image for r2 trivial degree 2 with zero root
    gz = rational_lie(3, {(0, 1): {1: 1}})
    theta = rational_cochain(2, 3, "trivial", {(0, 2): 1})
    assert coboundary(gz, theta).is_zero()
    assert not is_coboundary(gz, theta)


def test_matrix_and_coboundary_match_circle_reference():
    rng = random.Random(61)
    dens = set()
    for trial in range(24):
        g = odd_lie(rng, rng.randint(2, 4))
        if trial % 2:
            g = change_basis(g, random_invertible(rng, g.dim))
        den = g.scaled_table[0]
        dens.add(den)
        cochains = []
        for degree in (0, 1, 2, 3):
            for coeff in ("adjoint", "trivial"):
                rows, dom = coboundary_rows(g, degree, coeff)
                ref, ref_dom = ref_coboundary_matrix(g, degree, coeff)
                assert dom == ref_dom
                assert dense(rows, dom) == [[den * x for x in row] for row in ref]
                if 0 < degree <= g.dim:
                    f = random_cochain(rng, g.dim, degree, coeff, allow_zero=True)
                    assert coboundary(g, f) == ref_coboundary(g, f)
                    cochains += [f, scale_cochain(f, Fraction(-2, 3))]
        # cochains of mixed shapes in a random order
        rng.shuffle(cochains)
        assert [coboundary(g, f) for f in cochains] == [
            ref_coboundary(g, f) for f in cochains
        ]
    assert all(any(d % p == 0 for d in dens) for p in (3, 5, 7))


def test_delta_squared_is_zero_on_integer_matrices():
    rng = random.Random(63)
    nonzero_factors = 0
    for _ in range(10):
        g = odd_lie(rng, rng.randint(3, 5))
        for coeff in ("adjoint", "trivial"):
            d1, _ = coboundary_rows(g, 1, coeff)
            d2, _ = coboundary_rows(g, 2, coeff)
            d3, _ = coboundary_rows(g, 3, coeff)
            assert not any(mat_mul(d2, d1))
            assert not any(mat_mul(d3, d2))
            nonzero_factors += all(map(any, (d1, d2, d3)))
    assert nonzero_factors >= 5


def test_degree_three_basis_independence():
    rng = random.Random(64)
    for _ in range(6):
        g = random_lie(rng, rng.randint(3, 5))
        h = change_basis(g, random_invertible(rng, g.dim))
        for coeff in ("adjoint", "trivial"):
            assert cohomology_dim(g, 3, coeff) == cohomology_dim(h, 3, coeff)


def test_degree_three_abelian():
    for n in range(2, 7):
        ab = abelian_lie(n)
        assert cohomology_dim(ab, 3, "adjoint").dim_H == comb(n, 3) * n
        assert cohomology_dim(ab, 3, "trivial").dim_H == comb(n, 3)


def test_degree_three_known():
    # sl2 is semisimple: H^3(g, g) = 0 and H^3(g, K) = K (the Cartan 3-cocycle)
    assert cohomology_dim(SL2, 3, "adjoint").dim_H == 0
    assert cohomology_dim(SL2, 3, "trivial").dim_H == 1
    # r2 has no 3-cochains at all
    rep = cohomology_dim(R2, 3, "adjoint")
    assert (rep.dim_cocycles, rep.dim_coboundaries, rep.dim_H) == (0, 0, 0)


def test_is_coboundary_matches_span_of_reference_columns():
    rng = random.Random(65)
    for _ in range(12):
        g = odd_lie(rng, rng.randint(2, 4))
        for coeff in ("adjoint", "trivial"):
            ref, dom = ref_coboundary_matrix(g, 1, coeff)
            columns = [tuple(row[c] for row in ref) for c in range(dom)]
            f = random_cochain(rng, g.dim, 2, coeff)
            exact = coboundary(g, random_cochain(rng, g.dim, 1, coeff, True))
            for target in (f, exact, exact + f):
                assert is_coboundary(g, target) == in_span(
                    columns, cochain_flat(target)
                )
            assert is_coboundary(g, exact)


# -- cohomology_dim and is_coboundary against independent ranks ----------


def family_algebras(rng, max_dim):
    """The gens Lie families, each padded with an abelian summand to a
    random dimension up to max_dim, as given and in a changed basis, plus
    random Lie algebras of dimension up to max_dim."""
    out = []
    for g in (R2, H3, SL2, R2K, FILIFORM4, ROOTS123):
        padded = rational_lie(rng.randint(g.dim, max_dim), fraction_table(g))
        out += [g, padded, change_basis(padded, random_invertible(rng, padded.dim))]
    out += [random_lie(rng, n) for n in range(2, max_dim + 1)]
    return out


def sympy_rank(rows, ncols):
    """Rank over QQ of sparse integer rows by sympy, 0 for an empty matrix."""
    if not rows or not ncols:
        return 0
    return domain_matrix(dense(rows, ncols)).rank()


def test_cohomology_dim_matches_sympy_ranks(monkeypatch):
    """dim Z^p = dom - rank delta_p and dim B^p = rank delta_(p-1), with
    both ranks of the full matrices taken by sympy; and only the dom - dim
    B^p non-leading columns of delta_p are handed to `linalg.rank`, of the
    weight-0 block when `cohomology_dim` grades g (dom and B^p of that
    block, its rank by sympy too)."""
    ranked = []
    rank = linalg.rank
    monkeypatch.setattr(linalg, "rank", lambda rows: ranked.append(len(rows)) or rank(rows))
    rng = random.Random(66)
    nonzero_h = graded = 0
    for g in family_algebras(rng, 6):
        for degree in (1, 2, 3):
            for coeff in COEFFS:
                ranked.clear()
                rep = cohomology_dim(g, degree, coeff)
                out_rows, dom = coboundary_rows(g, degree, coeff)
                in_rows, in_dom = coboundary_rows(g, degree - 1, coeff)
                assert rep.dim_cocycles == dom - sympy_rank(out_rows, dom)
                assert rep.dim_coboundaries == sympy_rank(in_rows, in_dom)
                assert rep.dim_H == rep.dim_cocycles - rep.dim_coboundaries
                found = find_grading(g) if dom * len(out_rows) >= GRADING_MIN_CELLS else None
                if found is None:
                    assert ranked == [dom - rep.dim_coboundaries]
                else:
                    h, weights = found
                    block_rows, block_dom = coboundary_rows(h, degree, coeff, weights)
                    in_rows, in_dom = coboundary_rows(h, degree - 1, coeff, weights)
                    assert block_dom < dom
                    assert ranked == [block_dom - sympy_rank(in_rows, in_dom)]
                    graded += 1
                nonzero_h += rep.dim_H > 0 and rep.dim_coboundaries > 0
    assert nonzero_h >= 20
    assert graded >= 15


def nonzero(col):
    """A column of `coboundary_matrix` without its cancelled (zero) values."""
    return {r: v for r, v in col.items() if v}


def test_delta_p_is_built_only_off_the_leading_columns(monkeypatch):
    """A spy on the builder: `cohomology_dim` builds delta_(p-1) whole and
    hands delta_p the leading columns of the echelon of im delta_(p-1) as
    skip, so none of them is built; the columns it does build are the other
    columns of the whole delta_p, in order, and the dims match sympy.
    delta_0 on trivial coefficients is 0 and is not built at all."""
    import valdef.cohomology as cohomology

    real = cohomology.coboundary_matrix
    calls = []

    def spy(g, degree, coeff, weights=None, skip=()):
        out = real(g, degree, coeff, weights, skip)
        calls.append((g, degree, weights, skip, out))
        return out

    monkeypatch.setattr(cohomology, "coboundary_matrix", spy)
    rng = random.Random(68)
    skipped = graded = 0
    for g in family_algebras(rng, 5):
        for degree in (1, 2, 3):
            for coeff in COEFFS:
                calls.clear()
                rep = cohomology_dim(g, degree, coeff)
                *before, after = calls
                if (degree, coeff) == (1, "trivial"):
                    assert not before
                    h, image_cols, weights = after[0], [], after[2]
                else:
                    ((h, p, weights, skip, (image_cols, _)),) = before
                    assert p == degree - 1 and not skip
                assert after[:3] == (h, degree, weights)
                leading = set(linalg.echelon(image_cols))
                assert set(after[3]) == leading
                built = after[4][0]
                whole, _ = real(h, degree, coeff, weights)
                kept = [nonzero(col) for c, col in enumerate(whole) if c not in leading]
                assert [nonzero(col) for col in built] == kept
                skipped += len(leading)
                graded += weights is not None
                out_rows, dom = coboundary_rows(g, degree, coeff)
                in_rows, in_dom = coboundary_rows(g, degree - 1, coeff)
                assert rep.dim_cocycles == dom - sympy_rank(out_rows, dom)
                assert rep.dim_coboundaries == sympy_rank(in_rows, in_dom)
    assert skipped >= 300 and graded >= 5


def test_trivial_delta_0_is_never_built(monkeypatch):
    """delta_0 on trivial coefficients is 0 (K has no action), so neither
    cohomology_dim in degree 1 nor is_coboundary on a degree-1 cochain
    builds it; dim B^1 is 0 and every 1-cochain that is not 0 is no
    coboundary."""
    import valdef.cohomology as cohomology

    real = cohomology.coboundary_matrix
    built = []

    def spy(g, degree, coeff, weights=None, skip=()):
        built.append((degree, coeff))
        return real(g, degree, coeff, weights, skip)

    monkeypatch.setattr(cohomology, "coboundary_matrix", spy)
    rng = random.Random(74)
    for g in family_algebras(rng, 5):
        rep = cohomology_dim(g, 1, "trivial")
        assert rep.dim_coboundaries == 0
        rows, dom = coboundary_rows(g, 1, "trivial")
        assert rep.dim_cocycles == dom - sympy_rank(rows, dom)
        f = rational_cochain(1, g.dim, "trivial", {(0,): 1})
        assert not is_coboundary(g, f)
        assert is_coboundary(g, rational_cochain(1, g.dim, "trivial", {}))
    assert built and (0, "trivial") not in built


def exact_cochain(rng, g, degree, coeff):
    """delta of a random (degree-1)-cochain, from the columns of den * delta
    (degree 1 included, where the coboundaries are the inner derivations)."""
    rows, dom = coboundary_rows(g, degree - 1, coeff)
    x = [frac(rng) for _ in range(dom)]
    flat = [sum(v * x[c] for c, v in row.items()) for row in rows]
    return cochain_from_flat(degree, g.dim, coeff, flat)


def test_is_coboundary_exact_and_shifted_by_non_exact_cocycles():
    """delta f is a coboundary; delta f plus a cocycle outside im delta is
    not, in degrees 1-3 with both coefficients."""
    rng = random.Random(67)
    shifted = set()
    for g in family_algebras(rng, 5):
        for degree in (1, 2, 3):
            for coeff in COEFFS:
                if degree > g.dim:
                    continue
                exact = exact_cochain(rng, g, degree, coeff)
                assert is_coboundary(g, exact)
                if degree > 1:
                    f = random_cochain(rng, g.dim, degree - 1, coeff)
                    assert is_coboundary(g, coboundary(g, f))
                # cocycles outside the span of den * delta's columns, found
                # by rref-based nullspace and span tests
                out_rows, dom = coboundary_rows(g, degree, coeff)
                in_rows, in_dom = coboundary_rows(g, degree - 1, coeff)
                columns = list(zip(*dense(in_rows, in_dom)))
                kernel = nullspace(dense(out_rows, dom)) if out_rows else []
                non_exact = (z for z in kernel if not in_span(columns, z))
                for z in islice(non_exact, 3):
                    cocycle = cochain_from_flat(degree, g.dim, coeff, z)
                    assert not is_coboundary(g, cocycle)
                    assert not is_coboundary(g, exact + cocycle)
                    assert not is_coboundary(g, exact + scale_cochain(cocycle, Fraction(-2, 3)))
                    shifted.add((degree, coeff))
    assert shifted == {(d, c) for d in (1, 2, 3) for c in COEFFS}


# fails Jacobi: [[e0,e1],e2] + [[e1,e2],e0] + [[e2,e0],e1] = e0 - e0 - e0 = -e0
NOT_LIE = rational_lie(3, {(0, 1): {0: 1}, (0, 2): {0: 1}, (1, 2): {1: 1}})


@pytest.mark.parametrize("coeff", COEFFS)
@pytest.mark.parametrize("degree", [1, 2, 3])
def test_non_lie_table_is_refused(degree, coeff):
    # the complement step needs delta o delta = 0, which only Jacobi gives
    with pytest.raises(NotLie, match=r"Jacobi identity at triple \[0, 1, 2\]"):
        cohomology_dim(NOT_LIE, degree, coeff)
    f = rational_cochain(degree, 3, coeff, {})
    with pytest.raises(NotLie, match=r"\[0, 1, 2\]"):
        is_coboundary(NOT_LIE, f)


def test_jacobi_is_checked_before_any_matrix_or_search(monkeypatch):
    """NotLie comes before delta_(p-1) is built and before the grading
    search, which is only correct on a Lie table."""
    import valdef.cohomology as cohomology
    import valdef.grading as grading

    calls = []
    monkeypatch.setattr(cohomology, "coboundary_matrix", lambda *a: calls.append(a))
    monkeypatch.setattr(grading, "find_grading", lambda g: calls.append(g))
    g = rational_lie(6, fraction_table(NOT_LIE))  # delta_1 adjoint: 90 x 36
    for degree in (1, 2, 3):
        for coeff in COEFFS:
            with pytest.raises(NotLie, match=r"\[0, 1, 2\]"):
                cohomology_dim(g, degree, coeff)
            with pytest.raises(NotLie, match=r"\[0, 1, 2\]"):
                is_coboundary(g, rational_cochain(degree, 6, coeff, {}))
    assert calls == []


def test_jacobi_verdict_computed_once(monkeypatch, capsys):
    import valdef.algebra as algebra
    from valdef import catalog
    from valdef.cli import main

    calls = []
    real = algebra.jacobi_sums

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(algebra, "jacobi_sums", counting)
    g = rational_lie(3, dict(fraction_table(SL2)))
    assert algebra.is_lie(g) == (True, None)
    cohomology_dim(g, 2, "adjoint")
    is_coboundary(g, Cochain.scaled(2, 3, "adjoint", 1, {}))
    assert len(calls) == 1
    assert algebra.is_lie(NOT_LIE) == (False, (0, 1, 2))
    # the CLI's own check and the library's share one verdict per call
    calls.clear()
    assert main(["cohomology", catalog.path("r2"), "--deg", "2", "--coeff", "adjoint"]) == 0
    assert len(calls) == 1
    capsys.readouterr()
