"""Inner gradings of a Lie algebra, for weight-graded cohomology.

For x in g the Lie derivative theta(x) on C^*(g, M) satisfies Cartan's
formula theta(x) = iota(x) delta + delta iota(x), and it commutes with
delta and with iota(x).  On the generalized eigenspace C_lambda of
theta(x) for an eigenvalue lambda != 0 it is invertible, so a cocycle f
there is f = delta(theta(x)^-1 iota(x) f): every subcomplex of nonzero
weight is acyclic (Hochschild & Serre 1953).  When ad x has a split
rational spectrum, a basis of generalized eigenvectors of ad x grades g,
[g_a, g_b] in g_(a+b) because ad x is a derivation, and the cochain
coordinate (e_j1 ^ .. ^ e_jp)* (x) e_m has weight w_m - w_j1 - .. - w_jp
(adjoint) or -w_j1 - .. - w_jp (trivial).  `cohomology.cohomology_dim`
then ranks only the weight-0 block and counts the rest.

`find_grading` looks for x in this order:
- a basis vector e_i whose den * ad e_i is already diagonal, read off the
  table in O(nnz) (adapted bases), so the new basis only reorders the old;
- otherwise e_i, then e_i + e_j.
Candidates with tr((den * ad x)^2) <= 0 are skipped: a split spectrum is
real with sum of squares tr(A^2), so 0 means nilpotent (every candidate
of a nilpotent algebra) and a negative value means non-real eigenvalues.
That trace is read off the Killing form k(i, j) = tr(den * ad e_i den *
ad e_j): the e_i need only its diagonal, and each cross term k(i, j)
is computed where the pair e_i + e_j is tried.  The eigenvalues are the
integer roots of the monic integer characteristic polynomial chi of A =
den * ad x (`charpoly`, from the power traces tr(A^k) by Newton's
identities; `integer_roots`); each is at most sqrt(tr(A^2)) in absolute
value, and candidates where that exceeds MAX_ROOT are skipped too.  The
Killing form and each characteristic polynomial are charged against
SEARCH_BUDGET multiplies, and the search gives up once it is spent, so a
large non-split algebra reaches the size guard of `cohomology_dim`
quickly.

The generalized eigenspace G_mu of a root mu of multiplicity m is then
read off chi alone: it is the column span of q(A), q = chi / (t - mu)^m.
By Cayley-Hamilton (A - mu)^m q(A) = chi(A) = 0, so the span lies in
G_mu = ker (A - mu)^m, and q(A) is invertible on G_mu, where q(mu) != 0.
Its columns come by Horner's rule on vectors and go into
`linalg.insert` until m pivot rows are found; `linalg.back_substitute`
then clears each pivot column from the other rows, and those rows are
the new basis vectors of weight mu.  A vector v of G_mu is therefore the
sum of v[p] / r[p] times r over the rows r, with p the pivot column of
r: the table is moved to the new basis on integers (`_transport`) by
reading each bracket [f_s, f_t] at the pivot columns of the weight w_s +
w_t, with no inverse of the basis.  The read coordinates must rebuild
the bracket exactly and the table must be weight-homogeneous
(`require_homogeneous`); since ad x is a derivation, either failure is a
bug and raises RuntimeError.
Weights are the integer eigenvalues of A, that is den times those of ad x.

A nilpotent g has no such x.  `central_series_basis` moves it instead to
a basis adapted to its lower central series g > C^1 > C^2 > .. > 0, with
every weight 0: C^1 is the `linalg.echelon` of the table's outputs and
C^(k+1) the echelon of [e_i, b] over the pivot rows b of C^k.  One
`linalg.solve` writes each unit vector e_r in the pivot rows, deepest
level first, then the unit vectors; the basis is the candidates outside
the span of those before them, which carry the solutions.  There [C^i,
C^j] lies in C^(i+j+1), the span of the first basis vectors, so the
table is nearly triangular and its coboundaries fill in far less under
elimination.  A table in which each [e_i, e_j] has at most one nonzero
coordinate (monomial) is as sparse as a change of basis could make it
and is left alone; so is a g whose series stops shrinking before 0 (not
nilpotent).  The series is charged against SEARCH_BUDGET multiplies of
its own (r * n^2 for an echelon of r rows) and abandoned once they are
spent.  The change of basis is exact, so every cohomology dimension is
the same in either basis.  Both new bases go through one change of basis
on integers (`_transport`); this one reads coordinates through d * P^-1,
P the matrix of the basis columns, whose column r is the solution for
e_r over d, the lcm of their denominators.
"""

from __future__ import annotations

from itertools import chain
from math import isqrt, lcm
from operator import mul

from . import linalg
from .algebra import AlgebraStructure


# the largest root `integer_roots` scans for: a candidate whose spectrum may
# reach past it is skipped, so a scan costs at most a few ms (the corpora
# reach 226)
MAX_ROOT = 1 << 14
# the integer multiplies `find_grading` may spend on the Killing form and
# the characteristic polynomials (n^4 each) before it gives up and the
# whole complex is ranked: about 0.1-0.2 s at any dim (README).  Algebras
# of dim 7 or less spend at most 70,000.  `central_series_basis` gets the
# same allowance for the series, and dim 7 spends at most 6,174 there.
SEARCH_BUDGET = 2_000_000


def find_grading(g) -> tuple[AlgebraStructure, tuple[int, ...]] | None:
    """(h, weights): g in the eigenbasis of the first x found (see the
    module docstring), weights[i] the eigenvalue of den * ad x on basis
    vector i, in increasing order, so every weight class is a contiguous
    range.  None when no candidate has a split rational spectrum or the
    search would spend more than SEARCH_BUDGET multiplies."""
    den, table = g.scaled_table
    n = g.dim
    for row in table:
        weights = _diagonal(row)
        if weights is not None and any(weights):
            return _relabel(den, table, weights)
    cost = _killing_cost(table)
    budget = SEARCH_BUDGET - cost
    if cost == 0 or budget < 0:
        return None  # with no product to take, the Killing form is zero
    for flat, trace_sq in _candidates(table):
        bound = isqrt(trace_sq) if trace_sq > 0 else 0
        if not 0 < bound <= MAX_ROOT:
            continue
        budget -= n**4
        if budget < 0:
            return None
        a = [flat[k : k + n] for k in range(0, n * n, n)]
        poly = charpoly(a)
        roots = integer_roots(poly, bound)
        if roots is not None:
            return _eigengrading(den, table, a, poly, roots)
    return None


def central_series_basis(g) -> AlgebraStructure | None:
    """g in a basis adapted to its lower central series, or None when the
    table is monomial, the series stops shrinking before 0 (g is not
    nilpotent) or computing it would spend more than SEARCH_BUDGET
    multiplies (see the module docstring)."""
    den, table = g.scaled_table
    n = g.dim
    if all(len(out) <= 1 for row in table for out in row):
        return None
    # C^1 = [g, g], then C^(k+1) = [g, C^k] from the pivot rows of C^k;
    # an echelon of r rows of width n costs at most r * n^2 multiplies
    rows = [dict(out) for i, row in enumerate(table) for out in row[i + 1 :] if out]
    budget, levels, size = SEARCH_BUDGET, [], n
    while rows:
        budget -= len(rows) * n * n
        if budget < 0:
            return None
        term = linalg.echelon(rows)
        if len(term) == size:
            return None  # C^(k+1) = C^k != 0: g is not nilpotent
        levels.append(term)
        size = len(term)
        rows = [_bracket(row, b) for row in table for b in term.values()]
    # deepest level first, then the unit vectors; the solutions for the
    # unit vectors are supported on the candidates outside the span of
    # those before them, the new basis
    candidates = [row for level in reversed(levels) for _, row in sorted(level.items())]
    candidates += ({i: 1} for i in range(n))
    units = linalg.solve(candidates, candidates[-n:])
    kept = sorted(set().union(*(x for _, x in units)))
    basis = [[candidates[p].get(i, 0) for i in range(n)] for p in kept]
    d = lcm(*(dr for dr, _ in units))
    q = [[x.get(p, 0) * (d // dr) for dr, x in units] for p in kept]

    def read(s, t, vec):
        return [(k, c) for k, c in enumerate(sum(map(mul, r, vec)) for r in q) if c]

    return _transport(den, table, basis, d, read)


def _bracket(row, vec: dict) -> dict:
    """den * [e_i, vec] from row i of the table, vec an {index: int} dict."""
    out: dict = {}
    for j, v in vec.items():
        for k, c in row[j]:
            out[k] = out.get(k, 0) + v * c
    return out


def _killing_cost(table) -> int:
    """The multiplies charged for the Killing form k(i, j) = tr(den * ad
    e_i den * ad e_j) before any candidate: with C(i, a, b) the e_b
    coordinate of den * [e_i, e_a], k(i, j) is the sum over (a, b) of
    C(i, a, b) * C(j, b, a), so over the nonzero constants it takes the sum
    of count(a, b) * count(b, a) products, count(a, b) the number of i with
    C(i, a, b) != 0.  By antisymmetry that is the number of outputs of row
    a of the table with an e_b coordinate.  0 means the form is zero."""
    n = len(table)
    counts = [0] * (n * n)  # count(a, b) at a * n + b
    for base, row in zip(range(0, n * n, n), table):
        for b, _ in chain.from_iterable(row):
            counts[base + b] += 1
    return sum(sum(map(mul, counts[a * n : a * n + n], counts[a::n])) for a in range(n))


def _candidates(table):
    """(flat, tr(a^2)) for a = den * ad x, x = e_i, then e_i + e_j if
    tr(a^2) > 0, flat the entries of a by rows: [k][j] is the e_k
    coordinate of den * [x, e_j].  tr(a^2) sums the Killing form k(i, j) =
    tr(den * ad e_i den * ad e_j), the entrywise products of den * ad e_i
    and the transpose of den * ad e_j, over the pairs of x.  The e_i need
    only the diagonal, each cross term is computed where its pair is
    tried, and a zero form, as of every nilpotent g, yields no pair."""
    n = len(table)
    flats, flats_t, squares = [], [], []
    for row in table:
        flat, flat_t = [0] * (n * n), [0] * (n * n)
        for j, out in enumerate(row):
            for k, c in out:
                flat[k * n + j] = c
                flat_t[j * n + k] = c
        flats.append(flat)
        flats_t.append(flat_t)
        squares.append(sum(map(mul, flat, flat_t)))
        yield flat, squares[-1]
    for i in range(n):
        for j in range(i + 1, n):
            trace_sq = squares[i] + 2 * sum(map(mul, flats[j], flats_t[i])) + squares[j]
            if trace_sq > 0:
                yield [x + y for x, y in zip(flats[i], flats[j])], trace_sq


def _diagonal(row) -> list | None:
    """The diagonal of den * ad e_i from its table row, None if not diagonal."""
    weights = []
    for j, out in enumerate(row):
        if not out:
            weights.append(0)
        elif len(out) == 1 and out[0][0] == j:
            weights.append(out[0][1])
        else:
            return None
    return weights


def _matmul(a, b) -> list:
    cols = list(zip(*b))
    return [[sum(map(mul, r, c)) for c in cols] for r in a]


def charpoly(a) -> list[int]:
    """[c_0, .., c_n], c_n = 1, the coefficients of det(t I - a) for a
    square integer matrix, from the power traces p_k = tr(a^k) by Newton's
    identities: k c_(n-k) = -(c_(n-k+1) p_1 + .. + c_n p_k), every
    division exact.  tr(a^(h+j)) is the sum of the entrywise products of
    a^h and the transpose of a^j, so the powers a, .., a^h, h = ceil(n/2),
    give every p_k, k <= n, in h - 1 matrix products."""
    n = len(a)
    powers = [a]
    for _ in range((n + 1) // 2 - 1):
        powers.append(_matmul(powers[-1], a))
    top = powers[-1]
    traces = [sum(p[i][i] for i in range(n)) for p in powers]
    for p in powers[: n - len(powers)]:
        traces.append(sum(sum(map(mul, r, c)) for r, c in zip(top, zip(*p))))
    coeffs = [0] * n + [1]
    for k in range(1, n + 1):
        coeffs[n - k] = -sum(map(mul, coeffs[n - k + 1 :], traces)) // k
    return coeffs


def integer_roots(poly, bound: int) -> dict | None:
    """{root: multiplicity} of a monic integer polynomial [c_0, .., c_n]
    that splits into linear factors over Z with every root at most bound in
    absolute value, else None.

    A monic integer polynomial that splits over Q splits over Z, and each
    nonzero root divides the lowest nonzero coefficient.
    """
    zeros = next(i for i, c in enumerate(poly) if c)
    roots = {0: zeros} if zeros else {}
    rest = list(poly[zeros:])
    for r in range(1, bound + 1):
        if len(rest) < 3:
            break
        for root in (r, -r):
            while len(rest) > 1 and rest[0] % root == 0:
                quotient, remainder = _divide(rest, root)
                if remainder:
                    break
                rest = quotient
                roots[root] = roots.get(root, 0) + 1
    if len(rest) == 2 and abs(rest[0]) <= bound:  # t + c, its root is -c
        roots[-rest[0]] = roots.get(-rest[0], 0) + 1
        rest = rest[1:]
    return roots if len(rest) == 1 else None


def _divide(poly, root: int):
    """(quotient, remainder) of poly by (t - root), by Horner's scheme."""
    acc, out = 0, []
    for c in reversed(poly):
        acc = acc * root + c
        out.append(acc)
    remainder = out.pop()
    return out[::-1], remainder


def _eigenspace(a, q, m: int) -> dict:
    """The back-substituted echelon of the column span of q(a), for a
    square integer matrix a and a monic integer polynomial q = [c_0, ..,
    1], from its columns in turn until m pivot rows are found (fewer only
    when the span is smaller): column j is q(a) e_j by Horner's rule."""
    n = len(a)
    pivots: dict = {}
    for j in range(n):
        vec = [0] * n
        vec[j] = 1
        for c in q[-2::-1]:
            vec = [sum(map(mul, row, vec)) for row in a]
            vec[j] += c
        linalg.insert(pivots, {i: x for i, x in enumerate(vec) if x})
        if len(pivots) == m:
            break
    return linalg.back_substitute(pivots)


def _eigengrading(den: int, table, a, poly, roots: dict) -> tuple:
    """The table in a basis of generalized eigenvectors of a = den * ad x,
    poly its characteristic polynomial, grouped by increasing eigenvalue:
    the rows of each `_eigenspace`, read at their pivot columns."""
    n = len(a)
    weights, basis, cols = [], [], []
    for mu in sorted(roots):
        q = poly
        for _ in range(roots[mu]):
            q, _ = _divide(q, mu)
        space = _eigenspace(a, q, roots[mu])
        if len(space) != roots[mu]:
            raise RuntimeError(
                f"generalized eigenspace of {mu} has dim {len(space)}, "
                f"multiplicity {roots[mu]}"
            )
        for p, row in sorted(space.items()):
            weights.append(mu)
            cols.append(p)
            basis.append([row.get(i, 0) for i in range(n)])
    d = lcm(*(f[p] for f, p in zip(basis, cols)))
    scales = [d // f[p] for f, p in zip(basis, cols)]
    blocks: dict = {}
    for k, w in enumerate(weights):
        blocks.setdefault(w, []).append(k)

    def read(s, t, vec):
        block = blocks.get(weights[s] + weights[t], ())
        coords = _read_pivots(vec, block, cols, scales)
        _require_rebuilt(s, t, vec, d, coords, basis)
        return coords

    graded = _transport(den, table, basis, d, read)
    require_homogeneous(graded.scaled_table[1], weights)
    return graded, tuple(weights)


def _read_pivots(vec, block, cols, scales) -> list:
    """The nonzero (k, c), k in block, with c = vec[cols[k]] * scales[k]:
    the f_k-coordinates of d * vec when vec lies in the span of the block's
    back-substituted rows f_k, scales[k] = d / f_k[cols[k]]."""
    return [(k, vec[cols[k]] * scales[k]) for k in block if vec[cols[k]]]


def _require_rebuilt(s: int, t: int, vec, d: int, coords, basis) -> None:
    """Raise RuntimeError unless the sum of c * f_k over coords is d * vec,
    vec = den * [f_s, f_t]: a failure is a bug, since [f_s, f_t] lies in
    the weight w_s + w_t when ad x is a derivation."""
    rest = [d * x for x in vec]
    for k, c in coords:
        rest = [r - c * f for r, f in zip(rest, basis[k])]
    if any(rest):
        raise RuntimeError(
            f"graded coordinates do not rebuild [f{s}, f{t}] from its weight block"
        )


def _transport(den: int, table, basis, d: int, read) -> AlgebraStructure:
    """The lie algebra of the integer table (den, table) in the basis f_s =
    sum_i basis[s][i] e_i of integer vectors, one change of basis on
    integers: read(s, t, vec), s < t, lists the nonzero (k, c) with c the
    f_k-coordinate of d * vec, vec = den * [f_s, f_t] in e-coordinates, and
    `AlgebraStructure.scaled` makes den * d * [f_s, f_t] the new table."""
    n = len(basis)
    moved = {}
    for s in range(n):
        # by_k[k][l] = the e_k coordinate of den * [f_s, e_l]
        by_k = [[0] * n for _ in range(n)]
        for j, pjs in enumerate(basis[s]):
            if pjs:
                for l, out in enumerate(table[j]):
                    for k, c in out:
                        by_k[k][l] += pjs * c
        for t in range(s + 1, n):
            vec = [sum(map(mul, basis[t], row)) for row in by_k]
            moved[(s, t)] = dict(read(s, t, vec))
    return AlgebraStructure.scaled(n, "lie", den * d, moved)


def _relabel(den: int, table, weights) -> tuple:
    """The table with its basis reordered by increasing weight."""
    n = len(weights)
    order = sorted(range(n), key=weights.__getitem__)
    sorted_weights = tuple(weights[i] for i in order)
    if order == list(range(n)):
        rows = table
    else:
        pos = [0] * n
        for new, old in enumerate(order):
            pos[old] = new
        rows = tuple(
            tuple(
                tuple(sorted([(pos[k], c) for k, c in out])) if out else ()
                for out in map(table[i].__getitem__, order)
            )
            for i in order
        )
    require_homogeneous(rows, sorted_weights)
    return AlgebraStructure(n, "lie", (den, rows)), sorted_weights


def require_homogeneous(rows, weights) -> None:
    """Raise RuntimeError unless every [e_a, e_b] of the integer table rows
    lies in weight weights[a] + weights[b]: a failure is a bug, since ad x
    is a derivation."""
    for a, row in enumerate(rows):
        for b, out in enumerate(row):
            for k, _ in out:
                if weights[k] != weights[a] + weights[b]:
                    raise RuntimeError(
                        f"graded table is not weight-homogeneous: [e{a}, e{b}] "
                        f"has a component on e{k}"
                    )
