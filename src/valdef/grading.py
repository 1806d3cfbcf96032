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
The eigenvalues are the integer roots of the monic integer
characteristic polynomial of A = den * ad x (`charpoly`,
`integer_roots`); each is at most sqrt(tr(A^2)) in absolute value, and
candidates where that exceeds MAX_ROOT are skipped too.  The Killing
form and each characteristic polynomial are charged against
SEARCH_BUDGET multiplies, and the search gives up once it is spent, so a
large non-split algebra reaches the size guard of `cohomology_dim`
quickly.  The generalized eigenspaces ker (A - mu)^m come from
`linalg.echelon`, the table is moved to that basis on integers and
checked exactly to be weight-homogeneous (`require_homogeneous`, a
RuntimeError otherwise).
Weights are the integer eigenvalues of A, that is den times those of ad x.

A nilpotent g has no such x.  `central_series_basis` moves it instead to
a basis adapted to its lower central series g > C^1 > C^2 > .. > 0, with
every weight 0: C^1 is the `linalg.echelon` of the table's outputs and
C^(k+1) the echelon of [e_i, b] over the pivot rows b of C^k.  The pivot
rows, deepest level first, are kept when they do not reduce to zero
(`linalg.remainder`) against the rows kept so far, and unit vectors
complete them to a basis.  There [C^i, C^j] lies in C^(i+j+1), the span
of the first basis vectors, so the table is nearly triangular and its
coboundaries fill in far less under elimination.  A table in which each
[e_i, e_j] has at most one nonzero coordinate (monomial) is as sparse as
a change of basis could make it and is left alone; so is a g whose
series stops shrinking before 0 (not nilpotent).  The series is charged
against SEARCH_BUDGET multiplies of its own (r * n^2 for an echelon of r
rows) and abandoned once they are spent.  The change of basis is exact,
so every cohomology dimension is the same in either basis.  Both new
bases go through one change of basis on integers (`_transport`).
"""

from __future__ import annotations

from math import isqrt, lcm
from operator import mul

from . import linalg
from .algebra import AlgebraStructure, canonical_table


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
    # killing[i][j] = tr(den * ad e_i den * ad e_j), so tr((den * ad x)^2)
    # of x = sum of the e_i, i in a candidate, is the sum over its pairs
    killing, budget = _killing(table, SEARCH_BUDGET)
    if killing is None or not any(map(any, killing)):
        return None  # every candidate would be skipped, as for nilpotent g
    candidates = [(i,) for i in range(n)]
    candidates += [(i, j) for i in range(n) for j in range(i + 1, n)]
    for x in candidates:
        trace_sq = sum(killing[i][j] for i in x for j in x)
        bound = isqrt(trace_sq) if trace_sq > 0 else 0
        if not 0 < bound <= MAX_ROOT:
            continue
        budget -= n**4
        if budget < 0:
            return None
        a = _ad_matrix(table[x[0]], n)
        if len(x) == 2:
            a = _add(a, _ad_matrix(table[x[1]], n))
        roots = integer_roots(charpoly(a), bound)
        if roots is not None:
            return _eigengrading(den, table, a, roots)
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
    # deepest level first, each pivot row kept when it is independent of
    # the rows kept so far, then unit vectors
    candidates = [row for level in reversed(levels) for _, row in sorted(level.items())]
    candidates += ({i: 1} for i in range(n))
    kept: dict = {}
    basis = []
    for vec in candidates:
        rest = linalg.remainder(kept, vec)
        if rest:
            kept[min(rest)] = rest
            basis.append([vec.get(i, 0) for i in range(n)])
    return AlgebraStructure(n, "lie", _transport(den, table, basis))


def _bracket(row, vec: dict) -> dict:
    """den * [e_i, vec] from row i of the table, vec an {index: int} dict."""
    out: dict = {}
    for j, v in vec.items():
        for k, c in row[j]:
            out[k] = out.get(k, 0) + v * c
    return out


def _killing(table, budget: int) -> tuple:
    """(killing, budget left): tr(den * ad e_i den * ad e_j) for all i, j,
    over the nonzero constants only, or (None, 0) if that takes more than
    budget multiplies.  With C(i, a, b) the e_b coordinate of
    den * [e_i, e_a], it is the sum over (a, b) of C(i, a, b) * C(j, b, a)."""
    n = len(table)
    by_pair: dict = {}  # (a, b) -> [(i, C(i, a, b)), ..]
    for i, row in enumerate(table):
        for a, out in enumerate(row):
            for b, c in out:
                by_pair.setdefault((a, b), []).append((i, c))
    for (a, b), left in by_pair.items():
        budget -= len(left) * len(by_pair.get((b, a), ()))
    if budget < 0:
        return None, 0
    killing = [[0] * n for _ in range(n)]
    for (a, b), left in by_pair.items():
        right = by_pair.get((b, a))
        if right:
            for i, c in left:
                row = killing[i]
                for j, d in right:
                    row[j] += c * d
    return killing, budget


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


def _ad_matrix(row, n: int) -> list:
    """den * ad e_i as a dense matrix acting on columns: entry [k][j] is the
    e_k coordinate of den * [e_i, e_j]."""
    a = [[0] * n for _ in range(n)]
    for j, out in enumerate(row):
        for k, c in out:
            a[k][j] = c
    return a


def _add(a, b) -> list:
    return [[x + y for x, y in zip(r, s)] for r, s in zip(a, b)]


def _matmul(a, b) -> list:
    cols = list(zip(*b))
    return [[sum(map(mul, r, c)) for c in cols] for r in a]


def charpoly(a) -> list[int]:
    """[c_0, .., c_n], c_n = 1, the coefficients of det(t I - a) for a
    square integer matrix, by Faddeev-LeVerrier: M_1 = I, c_(n-k) =
    -tr(a M_k) / k and M_(k+1) = a M_k + c_(n-k) I, every division exact."""
    n = len(a)
    coeffs = [0] * n + [1]
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        am = _matmul(a, m)
        c = -sum(am[i][i] for i in range(n)) // k
        coeffs[n - k] = c
        if k < n:
            m = am
            for i in range(n):
                m[i][i] += c
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


def _kernel(b) -> list[dict]:
    """A basis of {v : b v = 0} as {index: int} dicts, one per free column
    of the back-substituted echelon of b's rows: row p reads s_p v_p +
    sum over free f of row_p[f] v_f = 0."""
    rows = [{j: v for j, v in enumerate(r) if v} for r in b]
    pivots = linalg.back_substitute(linalg.echelon(rows))
    vecs = []
    for f in range(len(b)):
        if f in pivots:
            continue
        d = lcm(1, *(row[p] for p, row in pivots.items() if f in row))
        vec = {f: d}
        for p, row in pivots.items():
            if f in row:
                vec[p] = -row[f] * (d // row[p])
        vecs.append(vec)
    return vecs


def _inverse(p) -> tuple[int, list]:
    """(d, q) with q = d * p^-1 integer, for an invertible integer matrix p,
    from the back-substituted echelon of [p | I]."""
    n = len(p)
    rows = []
    for r, prow in enumerate(p):
        row = {c: v for c, v in enumerate(prow) if v}
        row[n + r] = 1
        rows.append(row)
    pivots = linalg.back_substitute(linalg.echelon(rows))
    d = lcm(*(pivots[c][c] for c in range(n)))
    q = []
    for c in range(n):
        row, scale = pivots[c], d // pivots[c][c]
        q.append([row.get(n + r, 0) * scale for r in range(n)])
    return d, q


def _eigengrading(den: int, table, a, roots: dict) -> tuple:
    """The table in a basis of generalized eigenvectors of a = den * ad x,
    grouped by increasing eigenvalue."""
    n = len(a)
    weights, basis = [], []
    for mu in sorted(roots):
        b = [[x - mu * (i == j) for j, x in enumerate(r)] for i, r in enumerate(a)]
        # ker b^k grows with k until it is the generalized eigenspace,
        # often at k = 1
        power, vecs = b, _kernel(b)
        for _ in range(roots[mu] - 1):
            if len(vecs) == roots[mu]:
                break
            power = _matmul(power, b)
            vecs = _kernel(power)
        if len(vecs) != roots[mu]:
            raise RuntimeError(
                f"generalized eigenspace of {mu} has dim {len(vecs)}, "
                f"multiplicity {roots[mu]}"
            )
        weights += [mu] * len(vecs)
        basis += [[v.get(i, 0) for i in range(n)] for v in vecs]
    new_den, rows = _transport(den, table, basis)
    require_homogeneous(rows, weights)
    return AlgebraStructure(n, "lie", (new_den, rows)), tuple(weights)


def _transport(den: int, table, basis) -> tuple:
    """The canonical (den, rows) of the integer table (den, table) in the
    basis f_s = sum_i basis[s][i] e_i of integer vectors, one change of
    basis on integers: den * d * [f_s, f_t] in f-coordinates, where q = d *
    P^-1 for the matrix P of the basis columns."""
    n = len(basis)
    d, q = _inverse([list(r) for r in zip(*basis)])
    entries = []
    for s in range(n):
        # by_l[l] = den * [f_s, e_l] in e-coordinates
        by_l = [[0] * n for _ in range(n)]
        for j, pjs in enumerate(basis[s]):
            if pjs:
                for l, out in enumerate(table[j]):
                    acc = by_l[l]
                    for k, c in out:
                        acc[k] += pjs * c
        for t in range(s + 1, n):
            vec = [0] * n
            for l, plt in enumerate(basis[t]):
                if plt:
                    vec = [x + plt * y for x, y in zip(vec, by_l[l])]
            coords = [sum(map(mul, qrow, vec)) for qrow in q]
            entries.append(((s, t), [(k, c) for k, c in enumerate(coords) if c]))
    return canonical_table(n, den * d, entries, antisymmetric=True)


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
