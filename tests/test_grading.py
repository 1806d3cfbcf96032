"""Inner gradings: exact helpers against sympy, weight-graded cohomology
against the whole complex, invariance under change of basis."""

import json
import random
from fractions import Fraction
from math import comb

import pytest

import valdef.cohomology as cohomology
import valdef.grading as grading
from valdef import linalg
from valdef.algebra import COEFFS
from valdef.cli import main
from valdef.cohomology import cohomology_dim
from valdef.grading import charpoly, find_grading, integer_roots, require_homogeneous

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
    domain_matrix,
    fraction_table,
    random_invertible,
    rational_lie,
)

FAMILIES = {
    "abelian": abelian_lie(1),
    "r2": R2,
    "h3": H3,
    "sl2": SL2,
    "r2k": R2K,
    "filiform4": FILIFORM4,
    "roots123": ROOTS123,
}
# sl2 in the basis -h-e-f, -h-e+2f, -h+2e-f (coordinates over h, e, f):
# ad x has eigenvalues 0 and +-2 sqrt(a^2 + bc) for x = ah + be + cf, and
# a^2 + bc is 2, -1, -1, 2, 2, 5 on the basis vectors and their pairwise
# sums, never a square
IRRATIONAL_SL2 = change_basis(
    SL2, [[Fraction(x) for x in row] for row in ((-1, -1, -1), (-1, -1, 2), (-1, 2, -1))]
)


def padded(g, n):
    """g plus an abelian summand, of dimension n."""
    return rational_lie(n, fraction_table(g))


def dims(g, degree, coeff, monkeypatch, graded):
    """(dim Z, dim B, dim H) by the graded path (the search forced on) or
    by the whole complex (the search switched off)."""
    monkeypatch.setattr(cohomology, "GRADING_MIN_CELLS", 0 if graded else float("inf"))
    return tuple(cohomology_dim(g, degree, coeff))[2:]


def sympy_dims(g, degree, coeff):
    """(dim Z, dim B, dim H) from sympy ranks of the full matrices."""
    ranks = []
    for p in (degree, degree - 1):
        rows, dom = coboundary_rows(g, p, coeff)
        dense = [[row.get(c, 0) for c in range(dom)] for row in rows]
        ranks.append(domain_matrix(dense).rank() if rows and dom else 0)
    dom = comb(g.dim, degree) * (g.dim if coeff == "adjoint" else 1)
    return dom - ranks[0], ranks[1], dom - ranks[0] - ranks[1]


# -- exact helpers against sympy ---------------------------------------------


def sympy_charpoly(m):
    sympy = pytest.importorskip("sympy")
    poly = sympy.Matrix(m).charpoly(sympy.Symbol("t"))
    return [int(c) for c in reversed(poly.all_coeffs())]


def conjugate(rng, diagonal, blocks=()):
    """An integer matrix similar to diag(diagonal) with Jordan blocks: the
    1s above the diagonal at the given positions, conjugated by a
    unimodular matrix (unit lower times unit upper triangular)."""
    n = len(diagonal)
    square = [(i, k) for i in range(n) for k in range(n)]
    j = [[0] * n for _ in range(n)]
    lower = [[int(i == k) for k in range(n)] for i in range(n)]
    upper = [[int(i == k) for k in range(n)] for i in range(n)]
    for i, k in square:
        if i == k:
            j[i][i] = diagonal[i]
        elif k == i + 1 and i in blocks:
            j[i][k] = 1
        if k < i:
            lower[i][k] = rng.randint(-2, 2)
            upper[k][i] = rng.randint(-2, 2)
    p = grading._matmul(lower, upper)
    d, q = grading._inverse(p)
    assert d == 1  # unimodular, so p^-1 is integer
    return grading._matmul(grading._matmul(p, j), q)


def test_charpoly_and_integer_roots_match_sympy():
    rng = random.Random(71)
    cases = [
        ([3, -1, 2], ()),
        ([0, 0, 5, 5, -2], ()),  # repeated and zero roots
        ([2, 2, 2, 0], (0, 1)),  # one 3x3 Jordan block
        ([0, 0, 0, 0], (0, 2)),  # nilpotent, not zero
        ([7, -7, 1, 0, 0, 0], (3, 4)),
        ([1], ()),
    ]
    for diagonal, blocks in cases:
        m = conjugate(rng, diagonal, blocks)
        poly = charpoly(m)
        assert poly == sympy_charpoly(m)
        expected = {r: diagonal.count(r) for r in set(diagonal)}
        bound = max(abs(r) for r in diagonal)
        assert integer_roots(poly, bound) == expected
    for _ in range(30):
        n = rng.randint(1, 6)
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert charpoly(m) == sympy_charpoly(m)


def test_integer_roots_of_non_split_polynomials():
    # t^2 - 2, t (t^2 + 1), (t - 3)(t^2 - 3) and (t - 5)^2 with too small a bound
    assert integer_roots([-2, 0, 1], 10) is None
    assert integer_roots([0, 1, 0, 1], 10) is None
    assert integer_roots([9, -3, -3, 1], 10) is None
    assert integer_roots([25, -10, 1], 4) is None
    assert integer_roots([25, -10, 1], 5) == {5: 2}
    assert integer_roots([0, 0, 1], 0) == {0: 2}


def test_spectrum_past_max_root_is_not_searched(monkeypatch):
    """[e0, e1] = c e1 (+ e2 central) in the basis e0, e0 + e1, e2, where no
    ad is diagonal: found for c = 100, skipped past grading.MAX_ROOT."""
    basis = [[Fraction(x) for x in row] for row in ((1, 1, 0), (0, 1, 0), (0, 0, 1))]
    for c, found in ((100, True), (grading.MAX_ROOT + 1, False)):
        g = rational_lie(3, {(0, 1): {1: c}})
        h = change_basis(g, basis)
        assert (find_grading(h) is not None) == found
        for degree in (1, 2):
            graded = dims(padded(h, 5), degree, "adjoint", monkeypatch, graded=True)
            assert graded == dims(padded(g, 5), degree, "adjoint", monkeypatch, graded=False)


def test_irrational_spectrum_falls_back_to_the_whole_complex(monkeypatch):
    """No candidate of sl2 in IRRATIONAL_SL2's basis (nor of so(3), whose
    Killing form is negative) has a split spectrum: no grading, and
    cohomology_dim ranks the complement in the whole complex."""
    spectra = []
    real = grading.charpoly
    monkeypatch.setattr(grading, "charpoly", lambda a: spectra.append(a) or real(a))
    so3 = rational_lie(3, {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}})
    assert find_grading(IRRATIONAL_SL2) is None
    assert len(spectra) == 4  # the basis vectors and sums with a^2 + bc = 2 or 5
    spectra.clear()
    assert find_grading(so3) is None and not spectra
    ranked = []
    rank = linalg.rank
    monkeypatch.setattr(linalg, "rank", lambda rows: ranked.append(len(rows)) or rank(rows))
    for g in (padded(IRRATIONAL_SL2, 5), padded(so3, 5)):
        for degree in (1, 2, 3):
            for coeff in COEFFS:
                ranked.clear()
                got = dims(g, degree, coeff, monkeypatch, graded=True)
                assert got == dims(padded(SL2, 5), degree, coeff, monkeypatch, graded=False)
                dom = comb(5, degree) * (5 if coeff == "adjoint" else 1)
                assert ranked[0] == dom - got[1]


def test_nilpotent_algebra_skips_the_search(monkeypatch):
    def refuse(a):
        raise AssertionError("charpoly on a nilpotent algebra")

    monkeypatch.setattr(grading, "charpoly", refuse)
    rng = random.Random(72)
    for g in (H3, FILIFORM4, padded(H3, 6), abelian_lie(4)):
        assert find_grading(g) is None
        h = change_basis(padded(g, 6), random_invertible(rng, 6))
        assert find_grading(h) is None
        assert cohomology_dim(h, 1, "adjoint") == cohomology_dim(padded(g, 6), 1, "adjoint")


def test_adapted_basis_is_only_reordered():
    # ROOTS123 (+ abelian): ad e0 is diagonal with roots 1, 2, 3
    g = padded(ROOTS123, 6)
    h = find_grading(g)
    assert h.weights == (0, 0, 0, 1, 2, 3)
    assert h.scaled_table[0] == g.scaled_table[0]
    assert sorted(map(len, (out for row in h.scaled_table[1] for out in row))) == sorted(
        map(len, (out for row in g.scaled_table[1] for out in row))
    )


def test_planted_inhomogeneous_table_fails_the_self_check(tmp_path, capsys, monkeypatch):
    # [e, f] = h + e is not of weight w(e) + w(f) = 0 for the weights 0, 2, -2
    bad = rational_lie(3, {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1, 1: 1}})
    message = r"not weight-homogeneous: \[e1, e2\] has a component on e1"
    with pytest.raises(RuntimeError, match=message):
        require_homogeneous(bad.scaled_table[1], (0, 2, -2))
    require_homogeneous(SL2.scaled_table[1], (0, 2, -2))
    # the same self-check behind the CLI: a wrong grading is a bug, exit 4
    doc = {
        "dim": 6,
        "kind": "lie",
        "table": [
            {"i": 0, "j": 1, "out": [{"k": 1, "c": "2"}]},
            {"i": 0, "j": 2, "out": [{"k": 2, "c": "-2"}]},
            {"i": 1, "j": 2, "out": [{"k": 0, "c": "1"}]},
        ],
    }
    path = tmp_path / "sl2k3.json"
    path.write_text(json.dumps(doc))
    argv = ["cohomology", str(path), "--deg", "1", "--coeff", "adjoint"]
    assert main(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(grading, "_diagonal", lambda row: [0, 1, 2, 3, 4, 5])
    assert main(argv) == 4
    out = capsys.readouterr()
    assert out.out == ""
    assert "RuntimeError: graded table is not weight-homogeneous" in out.err


def test_graded_dims_are_invariant_under_change_of_basis(monkeypatch):
    """Conjugated copies of every gens family, padded up to dim 7: the
    graded path gives the dims of the whole complex on the family's own
    basis, in degrees 1-3 and both coefficients; sympy ranks of the full
    matrices confirm them on the small cases."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    seen = set()

    @st.composite
    def cases(draw):
        name = draw(st.sampled_from(sorted(FAMILIES)))
        family = FAMILIES[name]
        degree = draw(st.integers(1, 3))
        coeff = draw(st.sampled_from(COEFFS))
        n = draw(st.integers(max(family.dim, degree), 7))
        return name, n, degree, coeff, draw(st.integers(0, 2**32))

    @hypothesis.settings(max_examples=80, deadline=None, database=None)
    @hypothesis.given(cases())
    @hypothesis.example(("r2", 5, 2, "adjoint", 1))
    @hypothesis.example(("r2k", 6, 1, "adjoint", 2))
    @hypothesis.example(("roots123", 7, 2, "trivial", 3))
    @hypothesis.example(("roots123", 6, 3, "adjoint", 4))
    @hypothesis.example(("sl2", 6, 1, "adjoint", 5))
    @hypothesis.example(("h3", 7, 2, "adjoint", 6))
    @hypothesis.example(("filiform4", 7, 3, "adjoint", 1))
    @hypothesis.example(("abelian", 4, 3, "trivial", 8))
    def check(case):
        name, n, degree, coeff, seed = case
        g = padded(FAMILIES[name], n)
        h = change_basis(g, random_invertible(random.Random(seed), n))
        expected = dims(g, degree, coeff, monkeypatch, graded=False)
        assert dims(g, degree, coeff, monkeypatch, graded=True) == expected
        assert dims(h, degree, coeff, monkeypatch, graded=True) == expected
        width = n if coeff == "adjoint" else 1
        if comb(n, degree) * comb(n, degree + 1) * width * width <= 2500:
            assert dims(h, degree, coeff, monkeypatch, graded=False) == expected
            assert sympy_dims(h, degree, coeff) == expected
        seen.add((name, find_grading(h) is not None))

    check()
    graded = {name for name, found in seen if found}
    # a solvable family with a torus always has a basis vector with a
    # torus component; whether sl2 finds one depends on the basis
    assert {"r2", "r2k", "roots123"} <= graded
    assert not graded & {"abelian", "h3", "filiform4"}
