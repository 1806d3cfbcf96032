"""Exact rational linear algebra on top of one RREF kernel.

Row reduction is the hot loop under every rank, kernel and membership
computation in this package; `reference.rref` computes the (unique)
reduced row echelon form with exact Fraction arithmetic.
"""

from fractions import Fraction

from .reference import rref


def rank(rows) -> int:
    if not rows:
        return 0
    return len(rref(rows)[1])


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
