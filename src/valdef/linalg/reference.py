"""Reduced row echelon form over exact rationals."""

from fractions import Fraction


def rref(rows):
    """Gauss-Jordan elimination with exact Fraction arithmetic.

    Returns (reduced, pivots) where reduced is a new list of lists in
    reduced row echelon form and pivots lists the pivot column of each
    nonzero row.  The input is not modified.
    """
    m = [[Fraction(x) for x in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        sel = None
        for i in range(r, nrows):
            if m[i][c]:
                sel = i
                break
        if sel is None:
            continue
        if sel != r:
            m[r], m[sel] = m[sel], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i == r:
                continue
            f = m[i][c]
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots
