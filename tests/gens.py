"""Random instance generators shared by the module and acceptance tests.

Everything is seeded through the caller's random.Random so failures
reproduce.  Valid deformations are built from families that are valid by
construction (dimension-2 bases, single Lie-law terms over an abelian
base, gauge transports of those), then optionally rewritten in
decomposed form.
"""

from fractions import Fraction
import random

import pytest

from valdef.algebra import AlgebraStructure, Cochain, change_basis
from valdef.deformation import (
    Deformation,
    decompose_deformation,
    identity_plus,
    transport,
)
from valdef.series import SeriesVector, TruncSeries


def frac(rng: random.Random, num=6, den=4) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def unit(n, i) -> tuple:
    """The i-th basis vector of Q^n."""
    return tuple(Fraction(int(k == i)) for k in range(n))


def nonzero_frac(rng, num=6, den=4) -> Fraction:
    while True:
        f = frac(rng, num, den)
        if f:
            return f


def random_series_in_m(rng, cap, max_num=100, max_den=100, density=0.6) -> TruncSeries:
    coeffs = [Fraction(0)]
    for _ in range(cap):
        if rng.random() < density:
            coeffs.append(
                Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))
            )
        else:
            coeffs.append(Fraction(0))
    return TruncSeries.from_coeffs(coeffs, cap=cap)


def random_vector_in_m(rng, dim, cap, **kw) -> SeriesVector:
    while True:
        vec = SeriesVector(
            tuple(random_series_in_m(rng, cap, **kw) for _ in range(dim))
        )
        if not vec.is_zero():
            return vec


def random_invertible(rng, n):
    """Invertible rational matrix: L * U with unit diagonals, columns permuted."""
    lower = [[Fraction(0)] * n for _ in range(n)]
    upper = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        lower[i][i] = Fraction(rng.choice((1, -1, 2)))
        upper[i][i] = Fraction(1)
        for j in range(i):
            if rng.random() < 0.6:
                lower[i][j] = frac(rng, 3, 2)
            if rng.random() < 0.6:
                upper[j][i] = frac(rng, 3, 2)
    perm = list(range(n))
    rng.shuffle(perm)
    prod = [
        [
            sum(lower[i][k] * upper[k][j] for k in range(n))
            for j in range(n)
        ]
        for i in range(n)
    ]
    return [[prod[i][perm[j]] for j in range(n)] for i in range(n)]


# -- sympy oracle for row reduction -------------------------------------


def domain_matrix(m):
    """m (rows of rationals) as a sympy DomainMatrix over QQ; skips the
    calling test when sympy is missing."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    return DomainMatrix(
        [[sympy.QQ(Fraction(x).numerator, Fraction(x).denominator) for x in row] for row in m],
        (len(m), len(m[0]) if m else 0),
        sympy.QQ,
    )


def fraction_rows(dm) -> list:
    """The rows of a DomainMatrix over QQ as lists of Fractions."""
    return [[Fraction(int(x.numerator), int(x.denominator)) for x in row] for row in dm.to_list()]


def sympy_row_space(m) -> tuple:
    """The nonzero rows of sympy's RREF of m, as tuples of Fractions."""
    reduced, pivots = domain_matrix(m).rref()
    return tuple(tuple(row) for row in fraction_rows(reduced)[: len(pivots)])


# -- Lie algebra families ----------------------------------------------

SL2 = AlgebraStructure.lie(3, {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}})
H3 = AlgebraStructure.lie(3, {(0, 1): {2: 1}})
R2 = AlgebraStructure.lie(2, {(0, 1): {1: 1}})
R2K = AlgebraStructure.lie(3, {(0, 1): {1: 1}})
FILIFORM4 = AlgebraStructure.lie(4, {(0, 1): {2: 1}, (0, 2): {3: 1}})
ROOTS123 = AlgebraStructure.lie(
    4, {(0, 1): {1: 1}, (0, 2): {2: 2}, (0, 3): {3: 3}, (1, 2): {3: 1}}
)


def _pad_abelian(g: AlgebraStructure, n: int) -> AlgebraStructure:
    if g.dim == n:
        return g
    table = {pair: dict(entry) for pair, entry in g.table.items()}
    return AlgebraStructure.lie(n, table)


def random_lie(rng, n) -> AlgebraStructure:
    """Random Lie algebra of exact dimension n, via a random basis change."""
    pool = [AlgebraStructure.abelian(n)]
    for g in (R2, H3, SL2, R2K, FILIFORM4, ROOTS123):
        if g.dim <= n:
            pool.append(_pad_abelian(g, n))
    g = rng.choice(pool)
    if rng.random() < 0.8:
        g = change_basis(g, random_invertible(rng, n))
    return g


def mu_cochain(g: AlgebraStructure) -> Cochain:
    """The bracket of a Lie table as a degree-2 adjoint cochain."""
    vals = {}
    for pair, entry in g.table.items():
        vec = [Fraction(0)] * g.dim
        for k, c in entry:
            vec[k] = c
        vals[pair] = vec
    return Cochain.build(2, g.dim, "adjoint", vals)


# -- Fraction reference for circle products ------------------------------
#
# The general-degree shuffle composition on Fraction values, kept apart
# from valdef's integer kernel (which only takes degree-2 tables) as the
# oracle for circle products, coboundaries and Jacobi residuals.


def _sign_and_sorted(indices):
    """Sort an index tuple, returning (sign, sorted) or (0, None) on repeats."""
    idx = list(indices)
    sign = 1
    for i in range(len(idx)):
        for j in range(len(idx) - 1 - i):
            if idx[j] > idx[j + 1]:
                idx[j], idx[j + 1] = idx[j + 1], idx[j]
                sign = -sign
            elif idx[j] == idx[j + 1]:
                return 0, None
    return sign, tuple(idx)


def eval_indices(c: Cochain, indices):
    """Value of c on an arbitrary index tuple, by alternation."""
    sign, key = _sign_and_sorted(indices)
    if sign == 0:
        return (Fraction(0),) * c.dim if c.target == "adjoint" else Fraction(0)
    val = c.value(key)
    if c.target == "adjoint":
        return tuple(sign * x for x in val)
    return sign * val


def eval_vectors(c: Cochain, x, y):
    """A degree-2 adjoint cochain applied to two coefficient vectors."""
    out = [Fraction(0)] * c.dim
    for (i, j), val in c.values.items():
        coeff = x[i] * y[j] - x[j] * y[i]
        for k, v in enumerate(val):
            out[k] += coeff * v
    return tuple(out)


def shuffle_circle(outer: Cochain, inner: Cochain) -> Cochain:
    """outer(inner(...), ...) of degree p+q-1 over (p, q-1) shuffles.

    p and q are the degrees of inner and outer; inner is adjoint-valued
    and the result takes the target of outer.
    """
    from itertools import combinations

    dim = outer.dim
    p, q = inner.degree, outer.degree
    deg = p + q - 1
    adjoint = outer.target == "adjoint"
    vals = {}
    positions = list(range(deg))
    for key in combinations(range(dim), deg):
        acc = [Fraction(0)] * dim if adjoint else Fraction(0)
        for s_pos in combinations(positions, p):
            rest_pos = [i for i in positions if i not in s_pos]
            sign, _ = _sign_and_sorted(list(s_pos) + rest_pos)
            inner_val = inner.value(tuple(key[i] for i in s_pos))
            rest = tuple(key[i] for i in rest_pos)
            for k, c in enumerate(inner_val):
                if not c:
                    continue
                outer_val = eval_indices(outer, (k,) + rest)
                if adjoint:
                    for m, o in enumerate(outer_val):
                        acc[m] += sign * c * o
                else:
                    acc += sign * c * outer_val
        vals[key] = acc
    return Cochain.build(deg, dim, outer.target, vals)


def random_cochain(rng, n, degree, target, allow_zero=False) -> Cochain:
    from itertools import combinations

    while True:
        vals = {}
        for key in combinations(range(n), degree):
            if rng.random() < 0.5:
                continue
            if target == "adjoint":
                vals[key] = tuple(frac(rng, 4, 3) for _ in range(n))
            else:
                vals[key] = frac(rng, 4, 3)
        c = Cochain.build(degree, n, target, vals)
        if allow_zero or not c.is_zero():
            return c


# -- valid deformations -------------------------------------------------

# Frozen two-term instance over [X, Y] = Y plus a central Z:
#   phi1: (X,Y) -> X, (X,Z) -> Y   is a cocycle with [phi1, phi1] != 0,
#   phi2: (X,Z) -> 2X              solves delta(phi2) = -[phi1, phi1],
# and [phi1, phi2] = [phi2, phi2] = 0, so mu + t*phi1 + (t^2/2)*phi2 has
# zero residual at every order.
PHI1 = Cochain.build(2, 3, "adjoint", {(0, 1): (1, 0, 0), (0, 2): (0, 1, 0)})
PHI2 = Cochain.build(2, 3, "adjoint", {(0, 2): (2, 0, 0)})


def two_term_instance(cap=6) -> Deformation:
    return Deformation.build(
        R2K,
        cap,
        [
            (TruncSeries.monomial(1, cap), PHI1),
            (TruncSeries.monomial(2, cap, Fraction(1, 2)), PHI2),
        ],
    )


def random_valid_deformation(rng, n, cap) -> Deformation:
    """Deformation with zero Jacobi residual at the cap, by construction.

    Families: any terms over a 2-dimensional base (no triples, so the
    residual lives in a zero space); a single Lie-law term over an
    abelian base (law o law = 0); the frozen two-term instance over a
    nonabelian base; and gauge transports of any of those by Id + t*N,
    which preserve validity.
    """
    kind = rng.randrange(4)
    if kind == 3 and cap >= 2:
        d = two_term_instance(cap)
        direction = random_direction(rng, d.base.dim)
        return transport(d, identity_plus(d.base.dim, cap, direction))
    if kind == 0 or n == 2:
        base = random_lie(rng, 2)
        terms = []
        for _ in range(rng.randint(1, 2)):
            coeff = random_series_in_m(rng, cap, max_num=6, max_den=4)
            if coeff.is_zero():
                coeff = TruncSeries.monomial(1, cap)
            terms.append((coeff, random_cochain(rng, 2, 2, "adjoint")))
        d = Deformation.build(base, cap, terms)
    else:
        base = AlgebraStructure.abelian(n)
        law = random_lie(rng, n)
        if rng.random() < 0.5:
            law = change_basis(law, random_invertible(rng, n))
        phi = mu_cochain(law)
        if phi.is_zero():
            phi = mu_cochain(_pad_abelian(R2, n))
        coeff = random_series_in_m(rng, cap, max_num=6, max_den=4)
        if coeff.is_zero():
            coeff = TruncSeries.monomial(1, cap)
        d = Deformation.build(base, cap, [(coeff, phi)])
    if kind == 2:
        direction = random_direction(rng, d.base.dim)
        d = transport(d, identity_plus(d.base.dim, cap, direction))
    return d


def random_direction(rng, n):
    return [
        [frac(rng, 2, 2) if rng.random() < 0.7 else Fraction(0) for _ in range(n)]
        for _ in range(n)
    ]


def decomposed(d: Deformation) -> Deformation:
    return decompose_deformation(d.base, d.perturbation(), d.cap)


# -- associative / G-associative pools -----------------------------------

KX2 = AlgebraStructure.assoc(2, {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}})
KXK = AlgebraStructure.assoc(2, {(0, 0): {0: 1}, (1, 1): {1: 1}})
KX3 = AlgebraStructure.assoc(
    3,
    {
        (0, 0): {0: 1},
        (0, 1): {1: 1},
        (1, 0): {1: 1},
        (0, 2): {2: 1},
        (2, 0): {2: 1},
        (1, 1): {2: 1},
    },
)
UPPER2 = AlgebraStructure.assoc(
    3, {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 2): {1: 1}, (2, 2): {2: 1}}
)
# noncommutative with all triple products zero: xy = z, everything else 0
ZTRIPLE = AlgebraStructure.assoc(3, {(0, 1): {2: 1}})

ASSOCIATIVE_POOL = [KX2, KXK, KX3, UPPER2, ZTRIPLE]
COMMUTATIVE_POOL = [KX2, KXK, KX3]


def lie_as_product(g: AlgebraStructure) -> AlgebraStructure:
    """A Lie bracket viewed as a (non-associative) bilinear product."""
    table = {}
    for (i, j), entry in g.table.items():
        table[(i, j)] = {k: c for k, c in entry}
        table[(j, i)] = {k: -c for k, c in entry}
    return AlgebraStructure.assoc(g.dim, table)


def search_tables(dim, predicate, coeffs=(-1, 1), max_entries=3, limit=20):
    """Exhaustive scan of sparse single-coefficient tables, smallest first."""
    from itertools import combinations, product as iproduct

    slots = [(i, j, k) for i in range(dim) for j in range(dim) for k in range(dim)]
    found = []
    for count in range(1, max_entries + 1):
        for chosen in combinations(slots, count):
            pairs = [(i, j) for i, j, _ in chosen]
            if len(set(pairs)) != len(pairs):
                continue
            for cs in iproduct(coeffs, repeat=count):
                table = {
                    (i, j): {k: Fraction(c)}
                    for (i, j, k), c in zip(chosen, cs)
                }
                alg = AlgebraStructure.assoc(dim, table)
                if predicate(alg):
                    found.append(alg)
                    if len(found) >= limit:
                        return found
        if found:
            break
    return found


def conjugated(rng, alg: AlgebraStructure) -> AlgebraStructure:
    return change_basis(alg, random_invertible(rng, alg.dim))
