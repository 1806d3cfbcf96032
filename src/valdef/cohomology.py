"""Chevalley-Eilenberg cohomology on integers, circle product, super-bracket.

The coboundary delta: C^p -> C^(p+1) with coefficients in a g-module M
(action rho) is built straight from the integer form of the bracket
table (`AlgebraStructure.scaled_table`, common denominator den) by the
Chevalley-Eilenberg formula

    delta f(x_0..x_p) = sum_r (-1)^r rho(x_r) f(..^x_r..)
                        + sum_{i<j} (-1)^(i+j) f([x_i, x_j], ..^x_i..^x_j..)

as den * delta in sparse integer columns, one per domain coordinate,
applied to the integer coordinates of a cochain (`Cochain.flat_nums`).
`coboundary_matrix` is one builder over the module given by the nonzero
entries of each den * rho(e_x) (`_action`) and the weights of its
coordinates (`_levels`): adjoint coefficients are g with rho = ad, and
trivial ones are K, width 1 with no action, so the first sum is empty
there.  One loop over the codomain keys takes the faces of each key from
`itertools.combinations`; the first sum visits only the nonzero entries
of the action and the second only the nonzero brackets, so a zero
bracket or a basis vector that acts by zero costs one lookup.  One
global sign per degree and coefficient type matches the
shuffle-composition convention delta f = mu o f + (-1)^p f o mu
(adjoint) and f o mu (trivial), so on degree-2 adjoint cochains delta phi
= mu o phi + phi o mu agrees with the circle product below.  All reported
cohomology dimensions are independent of the global signs.

`cohomology_dim` ranks delta_p only on a complement of the previous
image.  `linalg.echelon` of the images delta(e_c) of the basis
(p-1)-cochains (the columns of `coboundary_matrix(p - 1)`) has dim B^p
rows with distinct leading columns L, so C^p = im delta_(p-1) + span{e_j
: j not in L}, a direct sum.  The Jacobi identity gives delta o delta =
0, so delta_p vanishes on the image and rank delta_p is the rank of its
columns j not in L.  `coboundary_matrix` is handed L and builds only
those columns, which are eliminated as rows: only about dim H^p of them
reduce to zero, where the full matrix had dim C^(p+1) - rank delta_p zero
rows.  It is the same exact integer elimination, so the dimensions
need no certificate.  `is_coboundary` asks `linalg.solve` whether f is a
combination of the same columns.

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
When the search finds none and g is nilpotent with a table that is not
monomial (some [e_i, e_j] has two nonzero coordinates), g moves to a
basis adapted to its lower central series (`grading.central_series_basis`)
in the same branch, before the size guard: the table is nearly triangular
and elimination fills in far less, so conjugated `filiform7` H^3 adjoint
goes from about 0.8 s to 2 ms (README).  That change of basis is exact
and keeps every weight 0, so the guard reads the same block dims and the
dimensions are those of the given basis.  delta_0 on trivial
coefficients is 0 and is never built.

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
from itertools import combinations, compress
from math import comb

from . import linalg
from .algebra import COEFFS, MAX_DEGREE, AlgebraStructure, Cochain, jacobi_sums
from .errors import DimensionMismatch, NotLie, TooLarge, UnsupportedDegree
from .io import MAX_COHOMOLOGY_CELLS

# the size of delta_p (dim C^p * dim C^(p+1) entries) from which
# `cohomology_dim` looks for a grading, or else for a basis adapted to the
# lower central series; below it the search costs more than it saves
# (timing table in README)
GRADING_MIN_CELLS = 300

# _PAIRS[p] lists the places (i, j, (i + j) % 2), i < j, of a (p+1)-key
_PAIRS = [
    [(i, j, (i + j) % 2) for i, j in combinations(range(p + 1), 2)]
    for p in range(MAX_DEGREE + 1)
]


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


def coboundary_matrix(
    g: AlgebraStructure, degree: int, coeff: str, weights=None, skip=()
):
    """(cols, cod): den * delta: C^degree -> C^(degree+1) over the flat bases.

    cols holds one {row: int} dict per domain coordinate, the image of that
    basis cochain; a value is 0 where two terms cancel, and `linalg.echelon`
    drops it.  The rows number the cod codomain coordinates in the order of
    `Cochain.flat_nums`; den = g.scaled_table[0].  Degree 0 is included so
    degree-1 reports can subtract inner coboundaries.

    One loop over the codomain keys builds both sums of the formula over
    the coefficient module (`_action`, `_levels`), taking the faces of each
    key from `itertools.combinations`: the first sum visits only the
    nonzero entries of the module's action, none for trivial coefficients,
    and the second only the nonzero brackets.

    weights, the increasing weights of g's basis (`grading.find_grading`),
    restricts delta to its weight-0 block: the columns number the domain
    coordinates of weight 0 in flat order, and the rows the codomain
    coordinates of weight 0 in the same order.  delta preserves weight, so
    on a weight-homogeneous table no other row is reached.  The default,
    every weight zero, gives the whole complex.

    skip holds column numbers to leave out: no entry of theirs is built,
    and cols lists only the other columns, in order.
    """
    if g.kind != "lie":
        raise ValueError("cohomology needs a lie-kind algebra")
    if coeff not in COEFFS:
        raise ValueError(f"unknown coefficient type {coeff!r}")
    if not 0 <= degree <= MAX_DEGREE:
        raise UnsupportedDegree(f"degree {degree} not implemented")
    n = g.dim
    _, table = g.scaled_table
    if weights is None:
        weights = (0,) * n
    action = _action(table, coeff)
    spans = _spans(_levels(coeff, weights))
    # the one sign per (degree, coeff) that makes delta equal the circle
    # forms mu o f + (-1)^p f o mu (adjoint) and f o mu (trivial)
    sign = -1 if coeff == "trivial" or degree % 2 == 0 else 1
    # the weight-0 domain coordinates (face, m), lo <= m < hi, are the
    # columns base + m for (base, lo, hi) = faces[face]
    faces, dom = {}, 0
    for face, s in zip(
        combinations(range(n), degree), map(sum, combinations(weights, degree))
    ):
        lo, hi = spans.get(s, (0, 0))
        if lo < hi:
            faces[face] = (dom - lo, lo, hi)
            dom += hi - lo
    # a skipped column is None
    cols = [None if c in skip else {} for c in range(dom)]
    # combinations(key, degree) leaves out x_r for r = degree, .., 1, 0,
    # with the sign (-1)^r sign
    last = -sign if degree % 2 else sign
    face_signs = (last, -last) * (degree // 2 + 1)
    cod = 0  # the row of the codomain coordinate (key, lo)
    for key, s in zip(
        combinations(range(n), degree + 1),
        map(sum, combinations(weights, degree + 1)),
    ):
        lo, hi = spans.get(s, (0, 0))
        if lo == hi:
            continue
        first, cod = cod - lo, cod + hi - lo  # (key, m) is row first + m
        # sum_r (-1)^r rho(x_r) f(..^x_r..)
        if action:
            for x, face, sr in zip(reversed(key), combinations(key, degree), face_signs):
                entries = action.get(x)
                span = faces.get(face) if entries else None
                if span is None:
                    continue
                base, a, b = span
                for m, out in entries:
                    col = cols[base + m] if a <= m < b else None
                    if col is not None:
                        for k, c in out:
                            col[first + k] = col.get(first + k, 0) + sr * c
        # sum_{i<j} (-1)^(i+j) f([x_i, x_j], ..^x_i..^x_j..)
        for i, j, odd in _PAIRS[degree]:
            out = table[key[i]][key[j]]
            if not out:
                continue
            rest = key[:i] + key[i + 1 : j] + key[j + 1 :]
            for k, c in out:
                if k in rest:
                    continue
                pos = bisect(rest, k)
                base = faces[rest[:pos] + (k,) + rest[pos:]][0]
                v = -sign * c if (odd + pos) % 2 else sign * c
                for m in range(lo, hi):
                    col = cols[base + m]
                    if col is not None:
                        col[first + m] = col.get(first + m, 0) + v
    if skip:
        cols = [col for col in cols if col is not None]
    return cols, cod


def _action(table, coeff: str) -> dict:
    """The action rho of the coefficient module of delta: each x with
    rho(e_x) != 0 maps to the pairs (m, out) of its nonzero columns, den *
    rho(e_x) e_m the sum of c * e_k over (k, c) in out.  Adjoint is g
    itself, rho = ad; trivial is K, with no action."""
    if coeff != "adjoint":
        return {}
    rows = (tuple(compress(enumerate(row), row)) for row in table)
    return {x: entries for x, entries in enumerate(rows) if entries}


def _levels(coeff: str, weights) -> tuple:
    """The weights of the module coordinates, increasing: g's own for
    adjoint, the one weight 0 of K for trivial."""
    return weights if coeff == "adjoint" else (0,)


def _spans(levels) -> dict:
    """{weight sum s of a key: (lo, hi)}, the module coordinates lo <= m <
    hi of weight s, so that (key, m) has weight 0.  A sum missing from it
    has no weight-0 coordinate."""
    return {w: (bisect_left(levels, w), bisect(levels, w)) for w in set(levels)}


def _block_dims(degree: int, weights, levels) -> list[int]:
    """dim C^q of the weight-0 block for q = 0 .. degree, by counting."""
    spans = _spans(levels)
    dims = []
    for q in range(degree + 1):
        sums = map(sum, combinations(weights, q))
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
    den = f.den * g.scaled_table[0]
    return Cochain.from_flat(f.degree + 1, g.dim, f.target, den, flat)


def _require_lie(g: AlgebraStructure) -> None:
    """Raise NotLie naming the first failing triple unless g satisfies
    Jacobi, which delta o delta = 0 needs."""
    witness = g.jacobi_witness
    if witness is not None:
        raise NotLie(f"bracket fails the Jacobi identity at triple {list(witness)}")


def _image(g, degree: int, coeff: str, weights=None) -> list:
    """The columns of delta_(degree-1), the images delta(e_c) of the basis
    cochains, which span im delta_(degree-1).  delta_0 is 0 on trivial
    coefficients, which have no action, so it is not built there."""
    if degree == 1 and coeff == "trivial":
        return []
    return coboundary_matrix(g, degree - 1, coeff, weights)[0]


def cohomology_dim(g: AlgebraStructure, degree: int, coeff: str) -> CohomologyReport:
    """Exact dimensions of Z, B and H in degree 1 to MAX_DEGREE.

    g must satisfy the Jacobi identity, so that delta o delta = 0: rank
    delta_degree is read off the coordinates that are not leading columns
    of the echelon of im delta_(degree-1) (see the module docstring).
    A table that fails it raises NotLie naming the first failing triple.

    When delta_degree has at least GRADING_MIN_CELLS entries and g has an
    inner grading, only its weight-0 block is ranked and the acyclic rest
    is counted; without one, a nilpotent g is ranked in a basis adapted to
    its lower central series (see the module docstring).  Then a weight-0
    block of delta_degree with more than MAX_COHOMOLOGY_CELLS entries raises
    TooLarge before any coboundary is built.
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
        from .grading import central_series_basis, find_grading

        graded = find_grading(g)
        if graded is not None:
            g, weights = graded
            block = _block_dims(degree + 1, weights, _levels(coeff, weights))
        else:  # no inner grading: a nilpotent g moves to a sparser basis
            g = central_series_basis(g) or g
    cells = block[degree] * block[degree + 1]
    if cells > MAX_COHOMOLOGY_CELLS:
        raise TooLarge(
            f"degree-{degree} {coeff} coboundary block of {block[degree + 1]} x "
            f"{block[degree]} = {cells} entries exceeds the largest supported "
            f"{MAX_COHOMOLOGY_CELLS}"
        )
    image = linalg.echelon(_image(g, degree, coeff, weights))
    # delta_p vanishes on im delta_(p-1): only the other columns are built
    free, _ = coboundary_matrix(g, degree, coeff, weights, skip=image)
    dim_cocycles = block[degree] - linalg.rank(free)
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

    f lies in im delta exactly when `linalg.solve` writes its integer
    coordinates as a combination of the columns of the previous
    coboundary.  A table that fails the Jacobi identity raises NotLie.
    """
    if f.dim != g.dim:
        raise DimensionMismatch("cochain dim does not match the algebra")
    _require_lie(g)
    target = {c: x for c, x in enumerate(f.flat_nums) if x}
    return linalg.solve(_image(g, f.degree, f.target), [target])[0] is not None
