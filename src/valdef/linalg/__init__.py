"""Exact linear algebra over Q on one fraction-free elimination step.

Rows are sparse integer dicts {col: int}; rows of rationals have their
denominators cleared once on the way in (`integer_row`).  The one
elimination step, `_cancel`, removes a column from a row by
cross-multiplying it with a pivot row, so no division happens, and then
divides out the gcd content of the result.  `_insert` reduces a row
against an echelon of pivot rows keyed by their leading column with
that step, and keeps what is left as a new pivot row.  The arithmetic
is exact, so no answer needs a certificate.

`rank` counts the pivot rows of the echelon; cohomology builds its
coboundary matrices as integer rows and ranks them here.  `rref`
back-substitutes with the same step and divides each row by its leading
entry only when it writes out the reduced row echelon form; row spaces,
kernels, linear solving and inverses read that form.
"""

from fractions import Fraction
from math import gcd, lcm

ZERO = Fraction(0)


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


def _cancel(vec: dict, pivot: dict, col: int) -> dict:
    """a * vec - b * pivot with a, b chosen so column col cancels, made
    primitive.  vec may be changed in place."""
    a, b = pivot[col], vec[col]
    common = gcd(a, b)
    a, b = a // common, b // common
    if a != 1:
        vec = {c: a * v for c, v in vec.items()}
    for c, v in pivot.items():
        w = vec.get(c, 0) - b * v
        if w:
            vec[c] = w
        else:
            vec.pop(c, None)
    return _primitive(vec) if vec else vec


def _insert(pivots: dict, vec: dict) -> None:
    """Reduce vec against pivots (leading column -> primitive row) and
    keep what is left as a new pivot row.

    To limit fill-in, a pivot row gives its place to an incoming row with
    fewer nonzeros; the old pivot row is then reduced in its stead.
    """
    while vec:
        lead = min(vec)
        pivot = pivots.get(lead)
        if pivot is None:
            pivots[lead] = _primitive(vec)
            return
        if len(vec) < len(pivot):
            pivots[lead] = _primitive(vec)
            vec, pivot = pivot, pivots[lead]
        vec = _cancel(vec, pivot, lead)


def rank(rows) -> int:
    """Exact rank of a matrix given by its rows.

    Each row is a {col: int} dict (absent columns are zero) or a sequence
    of rationals (int or Fraction), which has its denominators cleared
    once.  To limit fill-in, rows are taken sparsest first.
    """
    vecs = [
        {c: v for c, v in row.items() if v}
        if isinstance(row, dict)
        else integer_row(row)[1]
        for row in rows
    ]
    pivots: dict[int, dict] = {}
    for vec in sorted(vecs, key=len):
        _insert(pivots, vec)
    return len(pivots)


def rref(rows):
    """Reduced row echelon form of a matrix of rationals given by its rows.

    Returns (reduced, pivots): reduced holds one list of Fractions per
    input row, the nonzero rows first, and pivots lists the pivot column
    of each nonzero row.  The input is not modified.
    """
    ncols = len(rows[0]) if rows else 0
    pivots: dict[int, dict] = {}
    for row in rows:
        _insert(pivots, integer_row(row)[1])
    leads = sorted(pivots)
    # clear each pivot column from the rows above it, rightmost first, so
    # a cleared column is never filled in again
    for i, lead in reversed(list(enumerate(leads))):
        for above in leads[:i]:
            if lead in pivots[above]:
                pivots[above] = _cancel(pivots[above], pivots[lead], lead)
    reduced = []
    for lead in leads:
        row, scale = [ZERO] * ncols, pivots[lead][lead]
        for c, v in pivots[lead].items():
            row[c] = Fraction(v, scale)
        reduced.append(row)
    reduced += [[ZERO] * ncols for _ in range(len(rows) - len(leads))]
    return reduced, leads


def row_space(rows):
    """Canonical (RREF) basis of the span of the given row vectors."""
    reduced, pivots = rref(rows)
    return [tuple(row) for row in reduced[: len(pivots)]]


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
