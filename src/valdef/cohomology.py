"""Chevalley-Eilenberg cohomology on integers, circle product, super-bracket.

The coboundary delta: C^p -> C^(p+1) is built straight from the integer
form of the bracket table (`AlgebraStructure.scaled_table`, common
denominator den) by the Chevalley-Eilenberg formula

    delta f(x_0..x_p) = sum_r (-1)^r [x_r, f(..^x_r..)]
                        + sum_{i<j} (-1)^(i+j) f([x_i, x_j], ..^x_i..^x_j..)

(the first sum only for adjoint coefficients), as den * delta in sparse
integer columns, one per domain coordinate, applied to the integer
coordinates of a cochain (`Cochain.flat_nums`).  One global sign per degree
and coefficient type matches the shuffle-composition convention delta f
= mu o f + (-1)^p f o mu (adjoint) and f o mu (trivial), so on degree-2
adjoint cochains delta phi = mu o phi + phi o mu agrees with the circle
product below.  All reported cohomology dimensions are independent of
the global signs.

`cohomology_dim` ranks delta_p only on a complement of the previous
image.  `linalg.echelon` of the images delta(e_c) of the basis
(p-1)-cochains (the columns of `coboundary_matrix(p - 1)`) has dim B^p
rows with distinct leading columns L, so C^p = im delta_(p-1) + span{e_j
: j not in L}, a direct sum.  The Jacobi identity gives delta o delta =
0, so delta_p vanishes on the image and rank delta_p is the rank of its
columns j not in L, which are eliminated as rows: only about dim H^p of
them reduce to zero, where the full matrix had dim C^(p+1) - rank delta_p
zero rows.  It is the same exact integer elimination, so the dimensions
need no certificate.  `is_coboundary` reduces f once against the same
echelon.

When delta_p has at least GRADING_MIN_CELLS entries, `cohomology_dim`
first looks for an inner grading (`grading.find_grading`): x in g with a
split rational spectrum of ad x, tried in this order: a basis vector e_i
whose den * ad e_i is already diagonal, else e_i, then e_i + e_j, each
candidate with tr((den * ad x)^2) <= 0 skipped.  In a basis of
generalized eigenvectors of ad x the coordinate (key, m) has weight w_m -
sum of w over key (adjoint) or - sum of w over key (trivial), and delta
preserves weight.  By Cartan's formula theta(x) = iota(x) delta + delta
iota(x), every subcomplex of weight lambda != 0 is acyclic (Hochschild &
Serre), so only the weight-0 block is ranked, complement step included,
and each weight lambda != 0 adds dim Z^p_lambda = dim B^p_lambda =
sum_{q<p} (-1)^(p-1-q) dim C^q_lambda to dim Z and dim B by counting.
With no grading every weight is zero and the block is the whole complex.

The circle product is taken on degree-2 adjoint cochains, the only ones
Gerstenhaber's deformation equation delta phi_k = -sum_{i+j=k} phi_i o
phi_j needs here.  phi o psi is the mixed Jacobi sum

    (phi o psi)(x, y, z) = phi(psi(x, y), z) + phi(psi(y, z), x)
                           + phi(psi(z, x), y),

computed on the integer tables of both cochains by
`algebra.jacobi_sums`, the contraction behind every identity check; mu o
mu is the Jacobiator of mu.  It serves the graded system: delta phi = mu o
phi + phi o mu there, and the super-bracket.
"""

from __future__ import annotations

from bisect import bisect, bisect_left
from collections import namedtuple
from itertools import combinations
from math import comb

from . import linalg
from .algebra import COEFFS, MAX_DEGREE, AlgebraStructure, Cochain, jacobi_sums
from .errors import DimensionMismatch, NotLie, TooLarge, UnsupportedDegree
from .io import MAX_COHOMOLOGY_CELLS

# the size of delta_p (dim C^p * dim C^(p+1) entries) from which
# `cohomology_dim` looks for a grading; below it the search costs more
# than it saves (timing table in README)
GRADING_MIN_CELLS = 350


def circle(outer: Cochain, inner: Cochain) -> Cochain:
    """outer o inner, the mixed Jacobi sum, as a degree-3 adjoint cochain.

    Each argument is a degree-2 adjoint cochain or a Lie bracket (an
    `AlgebraStructure`), both read through their `scaled_table`; a cochain
    of any other degree or target raises.
    """
    den, sums = jacobi_sums(outer, inner)
    return Cochain.scaled(3, outer.dim, "adjoint", den, dict(sums))


def super_bracket(f: Cochain, g: Cochain) -> Cochain:
    """Gerstenhaber bracket f o g + g o f on degree-2 adjoint cochains; as
    in `circle`, any other degree or target raises."""
    return circle(f, g) + circle(g, f)


CohomologyReport = namedtuple(
    "CohomologyReport", "degree coeff dim_cocycles dim_coboundaries dim_H"
)


def coboundary_matrix(g: AlgebraStructure, degree: int, coeff: str, weights=None):
    """(cols, cod): den * delta: C^degree -> C^(degree+1) over the flat bases.

    cols holds one {row: int} dict per domain coordinate (no zero values),
    the image of that basis cochain, and the rows number the cod codomain
    coordinates in the order of `Cochain.flat_nums`; den =
    g.scaled_table[0].  Degree 0 is included so degree-1 reports can
    subtract inner coboundaries.

    weights, the increasing `grading.Graded.weights` of g's basis,
    restricts delta to its weight-0 block: the columns number the domain
    coordinates of weight 0 in flat order, and the rows the codomain
    coordinates of weight 0 in the same order.  delta preserves weight, so
    on a weight-homogeneous table no other row is reached.  The default,
    every weight zero, gives the whole complex.
    """
    if g.kind != "lie":
        raise ValueError("cohomology needs a lie-kind algebra")
    if coeff not in COEFFS:
        raise ValueError(f"unknown coefficient type {coeff!r}")
    if not 0 <= degree <= MAX_DEGREE:
        raise UnsupportedDegree(f"degree {degree} not implemented")
    n = g.dim
    _, table = g.scaled_table
    adjoint = coeff == "adjoint"
    if weights is None:
        weights = (0,) * n
    spans = _spans(weights, adjoint)
    weight = weights.__getitem__
    # the one sign per (degree, coeff) that makes delta equal the circle
    # forms mu o f + (-1)^p f o mu (adjoint) and f o mu (trivial)
    sign = -1 if coeff == "trivial" or degree % 2 == 0 else 1
    # the weight-0 domain coordinates (key, m), lo <= m < hi, are the
    # columns base + m for (base, lo, hi) = dom_cols[key]
    dom_cols, dom = {}, 0
    for key in combinations(range(n), degree):
        lo, hi = spans.get(sum(map(weight, key)), (0, 0))
        if lo < hi:
            dom_cols[key] = (dom - lo, lo, hi)
            dom += hi - lo
    cols = [{} for _ in range(dom)]
    cod = 0  # the row of the codomain coordinate (key, lo)
    for key in combinations(range(n), degree + 1):
        lo, hi = spans.get(sum(map(weight, key)), (0, 0))
        if lo == hi:
            continue
        first, cod = cod - lo, cod + hi - lo  # (key, m) is row first + m
        if adjoint:
            # sum_r (-1)^r [x_r, f(..^x_r..)]
            for r, x in enumerate(key):
                dom_key = dom_cols.get(key[:r] + key[r + 1 :])
                if dom_key is None:
                    continue
                base, a, b = dom_key
                s = sign if r % 2 == 0 else -sign
                for m, out in enumerate(table[x][a:b], a):
                    col = cols[base + m]
                    for k, c in out:
                        col[first + k] = col.get(first + k, 0) + s * c
        # sum_{i<j} (-1)^(i+j) f([x_i, x_j], ..^x_i..^x_j..)
        for i, j in combinations(range(degree + 1), 2):
            rest = key[:i] + key[i + 1 : j] + key[j + 1 :]
            for k, c in table[key[i]][key[j]]:
                if k in rest:
                    continue
                pos = bisect(rest, k)
                base = dom_cols[rest[:pos] + (k,) + rest[pos:]][0]
                s = sign if (i + j + pos) % 2 == 0 else -sign
                for m in range(lo, hi):
                    col = cols[base + m]
                    col[first + m] = col.get(first + m, 0) + s * c
    return [{r: v for r, v in col.items() if v} for col in cols], cod


def _spans(weights, adjoint: bool) -> dict:
    """{weight sum s of a key: (lo, hi)}, the output indices lo <= m < hi
    of the weight-0 coordinates (key, m): the basis vectors of weight s
    (adjoint), or the one scalar coordinate when s = 0 (trivial).  A sum
    missing from it has no weight-0 coordinate."""
    if not adjoint:
        return {0: (0, 1)}
    return {w: (bisect_left(weights, w), bisect(weights, w)) for w in set(weights)}


def _block_dims(degree: int, coeff: str, weights) -> list[int]:
    """dim C^q of the weight-0 block for q = 0 .. degree, by counting."""
    spans = _spans(weights, coeff == "adjoint")
    dims = []
    for q in range(degree + 1):
        sums = (sum(key) for key in combinations(weights, q))
        dims.append(sum(hi - lo for lo, hi in (spans.get(s, (0, 0)) for s in sums)))
    return dims


def coboundary(g: AlgebraStructure, f: Cochain) -> Cochain:
    """Chevalley-Eilenberg coboundary of a cochain of degree 1 to MAX_DEGREE.

    It is `coboundary_matrix` applied to the integer coordinates of f
    (`Cochain.flat_nums`), over den times the denominator of f, so it
    equals mu o f + (-1)^p f o mu for adjoint and f o mu for trivial
    coefficients.
    """
    if f.dim != g.dim:
        raise DimensionMismatch("cochain dim does not match the algebra")
    if not 1 <= f.degree <= MAX_DEGREE:
        raise UnsupportedDegree(f"degree {f.degree} coboundary not implemented")
    cols, cod = coboundary_matrix(g, f.degree, f.target)
    flat = [0] * cod
    for x, col in zip(f.flat_nums, cols):
        if x:
            for r, v in col.items():
                flat[r] += v * x
    width = f.width
    keys = combinations(range(g.dim), f.degree + 1)
    values = {key: flat[r * width : (r + 1) * width] for r, key in enumerate(keys)}
    den = f.den * g.scaled_table[0]
    return Cochain.scaled(f.degree + 1, g.dim, f.target, den, values)


def _require_lie(g: AlgebraStructure) -> None:
    """Raise NotLie naming the first failing triple unless g satisfies
    Jacobi, which delta o delta = 0 needs."""
    witness = g.jacobi_witness
    if witness is not None:
        raise NotLie(f"bracket fails the Jacobi identity at triple {list(witness)}")


def cohomology_dim(g: AlgebraStructure, degree: int, coeff: str) -> CohomologyReport:
    """Exact dimensions of Z, B and H in degree 1 to MAX_DEGREE.

    g must satisfy the Jacobi identity, so that delta o delta = 0: rank
    delta_degree is read off the coordinates that are not leading columns
    of the echelon of im delta_(degree-1) (see the module docstring).
    A table that fails it raises NotLie naming the first failing triple.

    When delta_degree has at least GRADING_MIN_CELLS entries and g has an
    inner grading, only its weight-0 block is ranked and the acyclic rest
    is counted (see the module docstring).  A weight-0 block of
    delta_degree with more than MAX_COHOMOLOGY_CELLS entries raises
    TooLarge before any elimination.
    """
    if coeff not in COEFFS:
        raise ValueError(f"unknown coefficient type {coeff!r}")
    if not 1 <= degree <= MAX_DEGREE:
        raise UnsupportedDegree(f"degree {degree} not implemented")
    _require_lie(g)
    n = g.dim
    width = n if coeff == "adjoint" else 1
    full = [comb(n, q) * width for q in range(degree + 2)]
    weights, block = None, full
    if full[degree] * full[degree + 1] >= GRADING_MIN_CELLS:
        from .grading import find_grading

        graded = find_grading(g)
        if graded is not None:
            g, weights = graded, graded.weights
            block = _block_dims(degree + 1, coeff, weights)
    cells = block[degree] * block[degree + 1]
    if cells > MAX_COHOMOLOGY_CELLS:
        raise TooLarge(
            f"degree-{degree} {coeff} coboundary block of {block[degree + 1]} x "
            f"{block[degree]} = {cells} entries exceeds the largest supported "
            f"{MAX_COHOMOLOGY_CELLS}"
        )
    # the echelon of im delta_(degree-1): its columns, the images delta(e_c)
    image = linalg.echelon(coboundary_matrix(g, degree - 1, coeff, weights)[0])
    cols, _ = coboundary_matrix(g, degree, coeff, weights)
    free = [col for c, col in enumerate(cols) if c not in image]
    dim_cocycles = len(cols) - linalg.rank(free)
    # Z = B in each acyclic nonzero-weight part, counted from the dims
    acyclic = sum(
        (-1) ** (degree - 1 - q) * (full[q] - block[q]) for q in range(degree)
    )
    return CohomologyReport(
        degree=degree,
        coeff=coeff,
        dim_cocycles=dim_cocycles + acyclic,
        dim_coboundaries=len(image) + acyclic,
        dim_H=dim_cocycles - len(image),
    )


def is_coboundary(g: AlgebraStructure, f: Cochain) -> bool:
    """Exact membership of f in the image of the previous coboundary.

    f lies in im delta exactly when its integer coordinates reduce to
    zero against the echelon of that image.  A table that fails the
    Jacobi identity raises NotLie.
    """
    if f.dim != g.dim:
        raise DimensionMismatch("cochain dim does not match the algebra")
    _require_lie(g)
    image = linalg.echelon(coboundary_matrix(g, f.degree - 1, f.target)[0])
    target = {c: x for c, x in enumerate(f.flat_nums) if x}
    return not linalg.remainder(image, target)
