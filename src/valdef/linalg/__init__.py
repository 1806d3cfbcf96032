"""Exact linear algebra over Q: one integer rank kernel and a Fraction RREF.

`rank` is sparse fraction-free forward elimination on integer rows
{col: int}: each incoming row is reduced against the pivot row of its
leading column, cross-multiplied so no division happens, and its gcd
content is divided out after every step.  It computes an echelon form
only, no back-substitution, and the arithmetic is exact, so the rank
needs no certificate.  Rows of rationals have their denominators cleared
once on the way in (`integer_row`).  Cohomology builds its coboundary
matrices as integer rows and ranks them here.

`reference.rref` computes the (unique) reduced row echelon form with
exact Fraction arithmetic; row spaces, kernels, linear solving and
inverses, which need the reduced form itself, use it.
"""

from fractions import Fraction
from math import gcd, lcm

from .reference import rref


def integer_row(values) -> tuple[int, dict]:
    """(den, row) with den the lcm of the denominators and row = den * values.

    values is a sequence of rationals (int or Fraction); row is a
    {col: int} dict without zero values.
    """
    nonzero = [(c, x) for c, x in enumerate(values) if x]
    den = lcm(1, *(x.denominator for _, x in nonzero))
    return den, {c: x.numerator * (den // x.denominator) for c, x in nonzero}


def _primitive(vec: dict) -> dict:
    """vec divided by the gcd of its entries."""
    content = gcd(*vec.values())
    if content == 1:
        return vec
    return {c: v // content for c, v in vec.items()}


def rank(rows) -> int:
    """Exact rank of a matrix given by its rows.

    Each row is a {col: int} dict (absent columns are zero) or a sequence
    of rationals (int or Fraction), which has its denominators cleared
    once.  To limit fill-in, rows are taken sparsest first, and a pivot
    row gives its place to an incoming row with fewer nonzeros; the old
    pivot row is then reduced in its stead.
    """
    vecs = [
        {c: v for c, v in row.items() if v}
        if isinstance(row, dict)
        else integer_row(row)[1]
        for row in rows
    ]
    pivots: dict[int, dict] = {}
    for vec in sorted(vecs, key=len):
        while vec:
            lead = min(vec)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = _primitive(vec)
                break
            if len(vec) < len(pivot):
                pivots[lead] = _primitive(vec)
                vec, pivot = pivot, pivots[lead]
            a, b = pivot[lead], vec[lead]
            common = gcd(a, b)
            a, b = a // common, b // common
            # a * vec - b * pivot cancels the leading column
            if a != 1:
                vec = {c: a * v for c, v in vec.items()}
            for c, v in pivot.items():
                w = vec.get(c, 0) - b * v
                if w:
                    vec[c] = w
                else:
                    vec.pop(c, None)
            if vec:
                vec = _primitive(vec)
    return len(pivots)


def row_space(rows):
    """Canonical (RREF) basis of the span of the given row vectors."""
    if not rows:
        return []
    reduced, pivots = rref(rows)
    return [tuple(reduced[i]) for i in range(len(pivots))]


def nullspace(rows):
    """Basis of {x : M x = 0} for the matrix with the given rows."""
    if not rows:
        return []
    ncols = len(rows[0])
    reduced, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -reduced[r][fc]
        basis.append(tuple(vec))
    return basis


def solve_combination(vectors, target):
    """Coefficients x with sum(x_i * vectors[i]) == target, or None.

    Free coordinates are set to zero, so the answer is deterministic.
    """
    vectors = list(vectors)
    if not vectors:
        return [] if all(t == 0 for t in target) else None
    ncoords = len(target)
    aug = [
        [vectors[j][i] for j in range(len(vectors))] + [target[i]]
        for i in range(ncoords)
    ]
    reduced, pivots = rref(aug)
    if len(vectors) in pivots:
        return None
    coeffs = [Fraction(0)] * len(vectors)
    for r, pc in enumerate(pivots):
        coeffs[pc] = reduced[r][len(vectors)]
    return coeffs


def in_span(vectors, target) -> bool:
    return solve_combination(vectors, target) is not None


def matrix_inverse(rows):
    """Inverse of a square rational matrix, or None if singular."""
    n = len(rows)
    aug = [
        list(rows[i]) + [Fraction(1 if j == i else 0) for j in range(n)]
        for i in range(n)
    ]
    reduced, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        return None
    return [tuple(reduced[i][n:]) for i in range(n)]
