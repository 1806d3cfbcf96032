"""Exact linear algebra over Q on one fraction-free elimination step.

Rows are sparse integer dicts {col: int}, which every caller builds on
integers.  The one elimination step, `_cancel`, removes a column from a
row by cross-multiplying it with a pivot row, so no division happens, and
then divides out the gcd content of the result.  `insert` reduces a row
against an echelon of pivot rows keyed by their leading column with that
step, and keeps what is left as a new pivot row.  `insert_reduced` does
the same for a back-substituted echelon and keeps it back-substituted.
These are the only ways any module grows an echelon, so only this module
reduces and stores a row; a caller sees a new pivot row by the echelon's
size.  `grading` inserts the columns spanning a generalized eigenspace
until it has as many pivot rows as the multiplicity.
The arithmetic is exact, so no answer needs a certificate.

`echelon` inserts rows sparsest first and returns that pivots dict, and
`rank` is its size; cohomology eliminates its coboundary columns here.
`back_substitute` clears each pivot column from the other pivot rows with
the same step, and `column` reads a column of the matrix off that integer
reduced form as a combination of its pivot columns.  `solve` is the one
exact solve: it lays out [columns | targets] by rows and reads each
target column that way, so no other module lays out a system or reads a
solution off an echelon.  It decides the graded system's memberships,
`grading`'s central-series basis with the inverse of that change of
basis, and `cohomology.is_coboundary`.  `decompose.flag_of` grows its
flag with `insert_reduced`, one step vector at a time, and writes each
level straight from that reduced form: each step clears one column, not
every pivot column again.
`rref` writes the reduced form out as Fractions for `row_space` and `solve_combination`,
from rows of rationals cleared by `integer_row`; no other module calls
these four: they are oracles, kept here only while the benchmark's tracer
wraps them by name, and the only code here that reads or builds a
Fraction.
"""

from math import gcd, lcm


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


def insert(pivots: dict, vec: dict) -> None:
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


def echelon(rows) -> dict:
    """An echelon form of a matrix given by its rows, as the pivots dict.

    Returns {leading column: primitive integer row}: one row per pivot,
    each with a leading column no other row has, together spanning the
    rows over Q.  Each row is a {col: int} dict: absent columns are zero,
    and zero values are dropped from the copy taken here.  To limit
    fill-in, rows are taken sparsest first.
    """
    vecs = [{c: v for c, v in row.items() if v} for row in rows]
    pivots: dict[int, dict] = {}
    for vec in sorted(vecs, key=len):
        insert(pivots, vec)
    return pivots


def rank(rows) -> int:
    """Exact rank of a matrix given by its rows: the size of its `echelon`."""
    return len(echelon(rows))


def back_substitute(pivots: dict) -> dict:
    """Clear each pivot column of an echelon from every other pivot row,
    in place, and return the pivots: the integer reduced row echelon form,
    each row still primitive and scaled by its own leading entry."""
    leads = sorted(pivots)
    # rightmost first, so a cleared column is never filled in again
    for i, lead in reversed(list(enumerate(leads))):
        for above in leads[:i]:
            if lead in pivots[above]:
                pivots[above] = _cancel(pivots[above], pivots[lead], lead)
    return pivots


def insert_reduced(pivots: dict, vec: dict):
    """Insert vec into a back-substituted echelon and keep it so: the lead
    column of the pivot row added, None when vec lies in the span.

    vec is cancelled at each pivot column it holds by that column's row,
    which holds no other pivot column, so what is left holds none.  It
    becomes the pivot row at its lead, and that one column is cleared from
    the rows that hold it: a row with no other pivot column adds none.  So
    each pivot row is tested once for the new column, where `insert` and
    `back_substitute` test every pair of pivot rows.  vec may be changed.
    """
    for col in [c for c in vec if c in pivots]:
        vec = _cancel(vec, pivots[col], col)
    if not vec:
        return None
    lead = min(vec)
    new = pivots[lead] = _primitive(vec)
    for other, row in pivots.items():
        if other != lead and lead in row:
            pivots[other] = _cancel(row, new, lead)
    return lead


def column(pivots: dict, col: int) -> tuple[int, dict]:
    """(d, x), d > 0, with d * column col = sum of x[p] * column p over the
    pivot columns p, read off pivots, the back-substituted echelon of the
    matrix's rows: those rows have the column relations of the matrix, and
    row p is zero at every other pivot column.  A pivot column reads as
    itself, so column col lies in the span of the columns before m exactly
    when every key of x is below m."""
    entries = [(p, row[col], row[p]) for p, row in pivots.items() if col in row]
    d = lcm(1, *(lead for _, _, lead in entries))
    return d, {p: x * (d // lead) for p, x, lead in entries}


def solve(columns, targets) -> list:
    """For each {row: int} target, (d, x) with d > 0 and d * target = sum
    of x[p] * columns[p], or None outside the span of the {row: int}
    columns.  `column` reads each target off the back-substituted echelon
    of [columns | targets], unique up to row signs, so x is too: it is
    zero at the free coordinates, the columns in the span of those before
    them.  No argument is changed."""
    m = len(columns)
    rows: dict[int, dict] = {}
    for c, vec in enumerate((*columns, *targets)):
        for r, v in vec.items():
            rows.setdefault(r, {})[c] = v
    reduced = back_substitute(echelon(rows[r] for r in sorted(rows)))
    solutions = [column(reduced, col) for col in range(m, m + len(targets))]
    return [None if any(p >= m for p in x) else (d, x) for d, x in solutions]


def rref(rows):
    """Reduced row echelon form of a matrix of rationals given by its rows.

    Returns (reduced, pivots): reduced holds one list of Fractions per
    input row, the nonzero rows first, and pivots lists the pivot column
    of each nonzero row.  The input is not modified.
    """
    # no package caller: kept for perfbench/tracer.py, which wraps it by
    # name, and moved to tests/gens.py once the tracer's LAYERS drop it
    from fractions import Fraction

    zero = Fraction(0)
    ncols = len(rows[0]) if rows else 0
    pivots: dict[int, dict] = {}
    for row in rows:
        insert(pivots, integer_row(row)[1])
    back_substitute(pivots)
    leads = sorted(pivots)
    reduced = []
    for lead in leads:
        row, scale = [zero] * ncols, pivots[lead][lead]
        for c, v in pivots[lead].items():
            row[c] = Fraction(v, scale)
        reduced.append(row)
    reduced += [[zero] * ncols for _ in range(len(rows) - len(leads))]
    return reduced, leads


def row_space(rows):
    """Canonical (RREF) basis of the span of the given row vectors."""
    reduced, pivots = rref(rows)
    return [tuple(row) for row in reduced[: len(pivots)]]


def solve_combination(vectors, target):
    """Coefficients x with sum(x_i * vectors[i]) == target, or None.

    Free coordinates are set to (int) zero, so the answer is deterministic.
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
    coeffs = [0] * len(vectors)
    for r, pc in enumerate(pivots):
        coeffs[pc] = reduced[r][len(vectors)]
    return coeffs
