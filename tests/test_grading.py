"""Inner gradings: exact helpers against sympy, weight-graded cohomology
against the whole complex, invariance under change of basis."""

import json
import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

import valdef.cohomology as cohomology
import valdef.grading as grading
from valdef import linalg
from valdef.algebra import COEFFS
from valdef.cli import main
from valdef.commands import _table_doc
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
    matrix_inverse,
    random_invertible,
    rational_lie,
    unit,
)

FAMILIES = {
    "abelian": abelian_lie(1),
    "r2": R2,
    "h3": H3,
    "sl2": SL2,
    "r2k": R2K,
    "filiform4": FILIFORM4,
    "roots123": ROOTS123,
    # ad e0 acts on e1, e2 as a Jordan block of eigenvalue 1: the grading
    # element is not semisimple, and G_1 = span(e1, e2) is not ker(ad e0 - 1)
    "jordan": rational_lie(3, {(0, 1): {1: 1}, (0, 2): {1: 1, 2: 1}}),
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
    q = matrix_inverse([[Fraction(x) for x in row] for row in p])
    assert all(x.denominator == 1 for row in q for x in row)  # p is unimodular
    return grading._matmul(grading._matmul(p, j), [[int(x) for x in row] for row in q])


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
        n = rng.randint(1, 9)
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


def ad_candidates(g) -> list:
    """(flat, tr(a^2)) for a = den * ad x read off the table, x = e_i, then
    e_i + e_j where tr(a^2) > 0: what `grading._candidates` yields."""
    n = g.dim
    _, table = g.scaled_table
    ads = [
        [dict(table[i][j]).get(k, 0) for k in range(n) for j in range(n)] for i in range(n)
    ]
    pairs = [[x + y for x, y in zip(ads[i], ads[j])] for i, j in combinations(range(n), 2)]

    def trace_sq(flat):
        return sum(flat[i * n + k] * flat[k * n + i] for i in range(n) for k in range(n))

    singles = [(flat, trace_sq(flat)) for flat in ads]
    return singles + [(flat, trace_sq(flat)) for flat in pairs if trace_sq(flat) > 0]


def test_grading_found_only_at_a_pair(monkeypatch):
    """sl2 in the basis h+e+f, e-f, h+2e+f: tr((ad x)^2) = 8(a^2 + bc) for
    x = ah + be + cf is 16, -8 and 24 on the basis vectors, none a split
    spectrum, and 8 on f1 + f2 = h + 2e, whose spectrum 0, +-2 splits.  The
    pair grades g, and the graded path gives the dims of the whole complex
    and of sympy in degrees 1-3, both coefficients.  On it and on algebras
    without a split candidate, the candidates are those read off the
    table, each pair kept only when its trace is positive."""
    pytest.importorskip("sympy")
    columns = ((1, 1, 1), (0, 1, -1), (1, 2, 1))
    g = change_basis(SL2, [[Fraction(c[r]) for c in columns] for r in range(3)])
    assert g.scaled_table[0] == 1
    spectra = []
    real = grading.charpoly
    monkeypatch.setattr(grading, "charpoly", lambda a: spectra.append(a) or real(a))
    _, weights = find_grading(g)
    assert weights == (-2, 0, 2)
    # f1 and f3 reach charpoly and do not split; the first pair does
    candidates = list(grading._candidates(g.scaled_table[1]))
    assert [trace for _, trace in candidates[:4]] == [16, -8, 24, 8]
    assert [sum(a, []) for a in spectra] == [candidates[k][0] for k in (0, 2, 3)]
    so3 = rational_lie(3, {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}})
    rng = random.Random(31)
    for h in (g, IRRATIONAL_SL2, change_basis(padded(so3, 4), random_invertible(rng, 4))):
        assert list(grading._candidates(h.scaled_table[1])) == ad_candidates(h)
    for degree in (1, 2, 3):
        for coeff in COEFFS:
            spectra.clear()
            graded = dims(g, degree, coeff, monkeypatch, graded=True)
            assert len(spectra) == 3  # graded by the pair
            assert graded == dims(g, degree, coeff, monkeypatch, graded=False)
            assert graded == sympy_dims(g, degree, coeff)


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


def spy_transport(monkeypatch) -> list:
    """The bases handed to the one change-of-basis helper, recorded."""
    bases = []
    real = grading._transport

    def spy(den, table, basis, d, read):
        bases.append(basis)
        return real(den, table, basis, d, read)

    monkeypatch.setattr(grading, "_transport", spy)
    return bases


def count_echelons(monkeypatch) -> list:
    """One entry per `linalg.echelon` call, recorded."""
    echelons = []
    echelon = linalg.echelon
    monkeypatch.setattr(linalg, "echelon", lambda rows: echelons.append(1) or echelon(rows))
    return echelons


def test_monomial_table_is_never_moved(monkeypatch):
    """Each [e_i, e_j] of adapted H3 and FILIFORM4 (padded or not) has at
    most one coordinate, so no basis is sparser: no change of basis is made,
    with the search forced on, in degrees 1-3.  A conjugated copy is moved."""
    bases = spy_transport(monkeypatch)
    for g in (H3, FILIFORM4, padded(H3, 6), padded(FILIFORM4, 7)):
        assert grading.central_series_basis(g) is None
        for degree in (1, 2, 3):
            for coeff in COEFFS:
                assert dims(g, degree, coeff, monkeypatch, graded=True) == dims(
                    g, degree, coeff, monkeypatch, graded=False
                )
    assert not bases
    h = change_basis(FILIFORM4, random_invertible(random.Random(73), 4))
    assert dims(h, 2, "adjoint", monkeypatch, graded=True) == dims(
        FILIFORM4, 2, "adjoint", monkeypatch, graded=False
    )
    assert len(bases) == 1


def test_non_nilpotent_algebra_keeps_its_basis(monkeypatch):
    """IRRATIONAL_SL2 and so(3) have no split inner element.  so(3) in its
    standard basis is monomial and never computes the series; otherwise the
    series stops at the first term that does not shrink, C^1 = g or, with
    an abelian summand, C^2 = C^1.  Each keeps its given basis."""
    bases = spy_transport(monkeypatch)
    echelons = count_echelons(monkeypatch)
    so3 = rational_lie(3, {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}})
    conjugated = change_basis(so3, random_invertible(random.Random(75), 3))
    cases = [(so3, 0), (padded(so3, 5), 0), (IRRATIONAL_SL2, 1), (conjugated, 1)]
    cases += [(padded(IRRATIONAL_SL2, 5), 2), (padded(conjugated, 5), 2)]
    for g, terms in cases:
        assert find_grading(g) is None
        echelons.clear()
        assert grading.central_series_basis(g) is None
        assert len(echelons) == terms
        for degree in (1, 2, 3):
            for coeff in COEFFS:
                dims(g, degree, coeff, monkeypatch, graded=True)
    assert not bases


def test_central_series_stops_at_its_budget(monkeypatch):
    """Filiform of dim 24 in a conjugated basis: its lower central series
    has 22 nonzero terms, and grading.SEARCH_BUDGET stops it after a few,
    so cohomology_dim ranks the given basis.  With the budget lifted the
    same series is found."""
    n = 24
    rng = random.Random(5)
    matrix = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(3):
        matrix[i] = [int(i == j) for j in range(i + 1)]
        matrix[i] += [rng.choice((0, 1, -1, 2)) for _ in range(n - i - 1)]
    g = rational_lie(n, {(0, i): {i + 1: 1} for i in range(1, n - 1)})
    h = change_basis(g, matrix)
    echelons = count_echelons(monkeypatch)
    bases = spy_transport(monkeypatch)
    assert grading.central_series_basis(h) is None
    assert 0 < len(echelons) < n - 2
    assert tuple(cohomology_dim(h, 1, "trivial"))[2:] == (2, 0, 2)
    assert not bases
    echelons.clear()
    monkeypatch.setattr(grading, "SEARCH_BUDGET", 10**12)
    assert grading.central_series_basis(h) is not None
    # C^1 .. C^(n-1) = 0, and the inverse of the new basis
    assert len(echelons) == n and len(bases) == 1


def test_central_series_basis_keeps_its_candidate_vectors(monkeypatch):
    """The basis of conjugated nilpotent algebras is the pivot rows of the
    series' echelons, deepest level first, then the unit vectors, each kept
    when sympy's rank of the vectors kept so far grows: the candidates
    themselves, not what is left of them after a reduction."""
    pytest.importorskip("sympy")
    levels = []
    echelon = linalg.echelon

    def spy(rows):
        pivots = echelon(rows)
        levels.append([[row.get(c, 0) for c in range(n)] for _, row in sorted(pivots.items())])
        return pivots

    monkeypatch.setattr(linalg, "echelon", spy)
    bases = spy_transport(monkeypatch)
    rng = random.Random(28)
    filiform6 = rational_lie(6, {(0, i): {i + 1: 1} for i in range(1, 5)})
    moved = 0
    for g in (H3, FILIFORM4, filiform6, padded(H3, 5), padded(FILIFORM4, 6)):
        for _ in range(3):
            n = g.dim
            levels.clear()
            bases.clear()
            if grading.central_series_basis(change_basis(g, random_invertible(rng, n))) is None:
                continue
            moved += 1
            # the last echelon is not of the series but linalg.solve's one
            # echelon of [candidates | unit vectors]
            candidates = [row for level in reversed(levels[:-1]) for row in level]
            candidates += [[int(i == j) for j in range(n)] for i in range(n)]
            want = []
            for vec in candidates:
                if domain_matrix(want + [vec]).rank() > len(want):
                    want.append(vec)
            assert bases == [want]
    assert moved >= 12


def test_central_series_change_of_basis_is_exact(monkeypatch):
    """The moved table is g's bracket in the recorded basis f_s = sum_i
    basis[s][i] e_i: for conjugated h3, filiform4 and filiform6, padded or
    not, sum_k [e_s, e_t]_h[k] f_k = [f_s, f_t]_g for every s < t, in
    Fractions.  A wrong inverse of the change of basis, such as twice the
    right one, can leave the moved table isomorphic to g, so the dims alone
    would not see it."""
    bases = spy_transport(monkeypatch)
    rng = random.Random(29)
    filiform6 = rational_lie(6, {(0, i): {i + 1: 1} for i in range(1, 5)})
    moved = 0
    for g in (H3, FILIFORM4, filiform6, padded(H3, 5), padded(FILIFORM4, 6), padded(filiform6, 7)):
        for _ in range(2):
            n = g.dim
            conj = change_basis(g, random_invertible(rng, n))
            bases.clear()
            h = grading.central_series_basis(conj)
            if h is None:
                continue
            moved += 1
            (basis,) = bases
            for s, t in combinations(range(n), 2):
                coords = h.bilinear(unit(n, s), unit(n, t))
                image = [sum(c * f[i] for c, f in zip(coords, basis)) for i in range(n)]
                assert image == list(conj.bilinear(basis[s], basis[t]))
    assert moved >= 10


def test_adapted_basis_is_only_reordered():
    # ROOTS123 (+ abelian): ad e0 is diagonal with roots 1, 2, 3
    g = padded(ROOTS123, 6)
    h, weights = find_grading(g)
    assert weights == (0, 0, 0, 1, 2, 3)
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


def test_planted_wrong_coordinates_fail_the_self_check(tmp_path, capsys, monkeypatch):
    """Coordinates read one off at the pivot columns no longer rebuild the
    brackets they were read from: RuntimeError from find_grading, and the
    same self-check behind the CLI exits 4 with nothing on stdout."""
    g = change_basis(padded(ROOTS123, 5), random_invertible(random.Random(76), 5))
    assert find_grading(g) is not None
    doc = {"dim": 5, "kind": "lie", "table": _table_doc(g)}
    path = tmp_path / "roots123.json"
    path.write_text(json.dumps(doc))
    argv = ["cohomology", str(path), "--deg", "2", "--coeff", "adjoint"]
    assert main(argv) == 0
    capsys.readouterr()
    real = grading._read_pivots
    monkeypatch.setattr(
        grading, "_read_pivots", lambda *args: [(k, c + 1) for k, c in real(*args)]
    )
    with pytest.raises(RuntimeError, match=r"coordinates do not rebuild \[f\d, f\d\]"):
        find_grading(g)
    assert main(argv) == 4
    out = capsys.readouterr()
    assert out.out == ""
    assert "RuntimeError: graded coordinates do not rebuild" in out.err


def test_jordan_block_stays_in_its_weight_block():
    """The generalized eigenspace of a Jordan block is graded as one weight:
    ad f0 keeps a 2x2 Jordan block there, which no basis makes diagonal."""
    h, weights = find_grading(FAMILIES["jordan"])
    assert weights == (0, 1, 1)
    assert sorted(len(out) for out in h.scaled_table[1][0]) == [0, 1, 2]


def weight_zero(n, q, weights, coeff):
    """The flat numbers of the weight-0 coordinates (key, m) of C^q, whose
    weight is w_m (adjoint) or 0 (trivial) minus the sum of w over key."""
    levels = weights if coeff == "adjoint" else (0,)
    flat = (
        sum(weights[i] for i in key) == level
        for key in combinations(range(n), q)
        for level in levels
    )
    return [c for c, zero in enumerate(flat) if zero]


def test_weight_block_is_the_restricted_whole_matrix():
    """For every graded table find_grading returns on the families, as
    given and conjugated, dims up to 7: coboundary_matrix with the weights
    equals the whole-complex matrix of the same table restricted to its
    weight-0 rows and columns, in degrees 0-3 and both coefficients."""
    rng = random.Random(70)
    graded = conjugated = 0
    for name, family in sorted(FAMILIES.items()):
        for n in range(max(family.dim, 2), 8):
            g = padded(family, n)
            for table in (g, change_basis(g, random_invertible(rng, n))):
                found = find_grading(table)
                if found is None:
                    continue
                h, weights = found
                graded += 1
                conjugated += table is not g
                for p in range(4):
                    for coeff in COEFFS:
                        whole, _ = cohomology.coboundary_matrix(h, p, coeff)
                        block, cod = cohomology.coboundary_matrix(h, p, coeff, weights)
                        cols = weight_zero(n, p, weights, coeff)
                        rows = weight_zero(n, p + 1, weights, coeff)
                        number = {r: i for i, r in enumerate(rows)}
                        assert cod == len(rows) and len(block) == len(cols)
                        for c, col in zip(cols, block):
                            want = {number[r]: v for r, v in whole[c].items() if v}
                            assert {r: v for r, v in col.items() if v} == want
                        # delta preserves weight: no weight-0 column reaches
                        # another row, and no other column a weight-0 row
                        outside = set(range(len(whole))) - set(cols)
                        assert not any(
                            v and r in number for c in outside for r, v in whole[c].items()
                        )
    assert graded >= 30 and conjugated >= 10


def test_graded_dims_are_invariant_under_change_of_basis(monkeypatch):
    """Conjugated copies of every gens family, padded up to dim 7: the
    graded path gives the dims of the whole complex on the family's own
    basis, in degrees 1-3 and both coefficients; sympy ranks of the full
    matrices confirm them on the small cases.  The conjugated nilpotent
    families, and only they, go through the basis adapted to their lower
    central series."""
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
    @hypothesis.example(("h3", 3, 1, "adjoint", 9))
    @hypothesis.example(("h3", 5, 3, "trivial", 10))
    @hypothesis.example(("filiform4", 4, 2, "adjoint", 11))
    @hypothesis.example(("filiform4", 6, 2, "trivial", 12))
    @hypothesis.example(("jordan", 5, 2, "adjoint", 13))
    def check(case):
        name, n, degree, coeff, seed = case
        g = padded(FAMILIES[name], n)
        h = change_basis(g, random_invertible(random.Random(seed), n))
        expected = dims(g, degree, coeff, monkeypatch, graded=False)
        assert dims(g, degree, coeff, monkeypatch, graded=True) == expected
        moved.clear()
        assert dims(h, degree, coeff, monkeypatch, graded=True) == expected
        ran = any(moved)
        width = n if coeff == "adjoint" else 1
        if comb(n, degree) * comb(n, degree + 1) * width * width <= 2500:
            assert dims(h, degree, coeff, monkeypatch, graded=False) == expected
            assert sympy_dims(h, degree, coeff) == expected
        seen.add((name, find_grading(h) is not None, ran))

    moved = []
    real = grading.central_series_basis

    def spy(g):
        out = real(g)
        moved.append(out is not None)
        return out

    monkeypatch.setattr(grading, "central_series_basis", spy)
    check()
    graded = {name for name, found, _ in seen if found}
    # a solvable family with a torus always has a basis vector with a
    # torus component; whether sl2 finds one depends on the basis
    assert {"r2", "r2k", "roots123", "jordan"} <= graded
    assert not graded & {"abelian", "h3", "filiform4"}
    adapted = {name for name, _, ran in seen if ran}
    assert adapted == {"h3", "filiform4"}
