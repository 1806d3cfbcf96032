"""Random instance generators shared by the module and acceptance tests.

Everything is seeded through the caller's random.Random so failures
reproduce.  Valid deformations are built from families that are valid by
construction (dimension-2 bases, single Lie-law terms over an abelian
base, gauge transports of those), then optionally rewritten in
decomposed form.
"""

from fractions import Fraction
from itertools import product as iter_product
from math import gcd, lcm
import random

import pytest

from valdef import linalg
from valdef.algebra import AlgebraStructure, Cochain, jacobi_sums
from valdef.cohomology import coboundary, coboundary_matrix, super_bracket
from valdef.decompose import Flag, FlagDecomposition, FlagStep
from valdef.deformation import (
    Deformation,
    decompose_deformation,
    jacobi_residual,
    transport,
)
from valdef.errors import (
    FormatError,
    InvalidDeformation,
    NotInMaximalIdeal,
    PrecisionExhausted,
    ZeroVector,
)
from valdef.nonassoc import PATTERNS, SubgroupTag
from valdef.io import _int
from valdef.series import TruncSeries, parse_rational


def fraction_table(g) -> dict:
    """The Fraction view of an algebra's table: {(i, j): ((k, c), ...)} for
    every nonzero product e_i e_j, i < j only for a Lie table, each row by
    increasing k."""
    den, rows = g.scaled_table
    lie = g.kind == "lie"
    return {
        (i, j): tuple((k, Fraction(c, den)) for k, c in row)
        for i, r in enumerate(rows)
        for j, row in enumerate(r)
        if row and not (lie and j <= i)
    }


def rational_str(value: Fraction) -> str:
    """A Fraction as a rational literal, read off its own lowest terms: the
    oracle of the package's printer `series.ratio_str`."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


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


def random_vector_in_m(rng, dim, cap, **kw) -> tuple:
    """The canonical (den, rows) of a nonzero vector with components in m."""
    while True:
        comps = [random_series_in_m(rng, cap, **kw) for _ in range(dim)]
        if not all(s.is_zero() for s in comps):
            return series_vector(comps)


# -- (den, rows) views of series vectors and matrices ----------------------


def series_vector(comps) -> tuple:
    """The canonical (den, rows) of a vector of TruncSeries of one cap:
    rows[i] holds component i's numerators over den.  Each series is in
    lowest terms, so the lcm of their dens is the canonical den."""
    den = lcm(*(s.den for s in comps))
    return den, [[x * (den // s.den) for x in s.nums] for s in comps]


def components(vec) -> tuple:
    """The TruncSeries components of a (den, rows) vector."""
    den, rows = vec
    return tuple(TruncSeries(den, row) for row in rows)


def truncated(vec, cap: int) -> tuple:
    """A (den, rows) vector cut to t^cap, in lowest terms again."""
    return series_vector([s.truncate(cap) for s in components(vec)])


def endomorphism(matrix) -> tuple:
    """The canonical (den, rows) of an n x n matrix of TruncSeries:
    rows[r][c] holds entry (r, c)'s numerators over den."""
    n = len(matrix)
    den, flat = series_vector([e for row in matrix for e in row])
    return den, [flat[r * n : (r + 1) * n] for r in range(n)]


def series_matrix(f) -> tuple:
    """The n x n TruncSeries view of a (den, rows) endomorphism."""
    den, rows = f
    return tuple(tuple(TruncSeries(den, e) for e in row) for row in rows)


def rational_pairs(values) -> list:
    """The (num, den) pairs of rationals (ints or Fractions), in lowest terms."""
    return [(Fraction(x).numerator, Fraction(x).denominator) for x in values]


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


# -- linear algebra only the tests need, on linalg.rref ------------------


def nullspace(rows):
    """Basis of {x : M x = 0} for the matrix with the given rows."""
    if not rows:
        return []
    ncols = len(rows[0])
    reduced, pivots = linalg.rref(rows)
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


def coboundary_rows(g, degree, coeff, weights=None):
    """(rows, dom) of den * delta: the columns of `coboundary_matrix`
    transposed into sparse {col: int} rows, one per codomain coordinate."""
    cols, cod = coboundary_matrix(g, degree, coeff, weights)
    rows = [{} for _ in range(cod)]
    for c, col in enumerate(cols):
        for r, v in col.items():
            rows[r][c] = v
    return rows, len(cols)


def in_span(vectors, target) -> bool:
    """Whether target is a rational combination of the vectors."""
    return linalg.solve_combination(vectors, target) is not None


def matrix_inverse(rows):
    """Inverse of a square rational matrix, or None if singular."""
    n = len(rows)
    aug = [
        list(rows[i]) + [Fraction(1 if j == i else 0) for j in range(n)]
        for i in range(n)
    ]
    reduced, pivots = linalg.rref(aug)
    if pivots[:n] != list(range(n)):
        return None
    return [tuple(reduced[i][n:]) for i in range(n)]


def change_basis(g: AlgebraStructure, matrix) -> AlgebraStructure:
    """Structure constants in the basis f_i = sum_j matrix[j][i] e_j.

    matrix must be invertible over Q; used by tests to randomize algebras
    without touching their isomorphism class.
    """
    inv = matrix_inverse([list(row) for row in matrix])
    if inv is None:
        raise ValueError("change of basis matrix is singular")
    n = g.dim
    cols = [tuple(matrix[r][c] for r in range(n)) for c in range(n)]

    def new_entry(i, j):
        prod = g.bilinear(cols[i], cols[j])
        coords = [sum(inv[r][k] * prod[k] for k in range(n)) for r in range(n)]
        return {k: c for k, c in enumerate(coords) if c}

    table = {}
    if g.kind == "lie":
        for i in range(n):
            for j in range(i + 1, n):
                entry = new_entry(i, j)
                if entry:
                    table[(i, j)] = entry
        return AlgebraStructure.lie(n, table)
    for i in range(n):
        for j in range(n):
            entry = new_entry(i, j)
            if entry:
                table[(i, j)] = entry
    return AlgebraStructure.assoc(n, table)


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
    table = {pair: dict(entry) for pair, entry in fraction_table(g).items()}
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
    for pair, entry in fraction_table(g).items():
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
    for i, j in c.values:
        val = c.value((i, j))
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
    return decompose_deformation(d)


def perturbation_series(d: Deformation) -> dict:
    """(i, j) -> the n TruncSeries coordinates of mu_t(e_i, e_j) - mu(e_i, e_j),
    read off the integer matrix of `Deformation.perturbation`."""
    from itertools import combinations

    n = d.base.dim
    den, rows = d.perturbation()
    return {
        pair: tuple(TruncSeries(den, rows[s * n + k]) for k in range(n))
        for s, pair in enumerate(combinations(range(n), 2))
    }


# -- deformation helpers the tests share ----------------------------------


def cochain_from_flat(degree, dim, target, flat) -> Cochain:
    """The cochain with the given coordinates, in the order of
    `Cochain.flatten`."""
    from itertools import combinations

    width = dim if target == "adjoint" else 1
    flat = list(flat)
    values = {}
    for idx, key in enumerate(combinations(range(dim), degree)):
        chunk = flat[idx * width : (idx + 1) * width]
        values[key] = chunk if target == "adjoint" else chunk[0]
    return Cochain.build(degree, dim, target, values)


def identity_plus(n: int, cap: int, nilpotent=None, power: int = 1):
    """Series endomorphism Id + t^power * N as a (den, rows) endomorphism."""
    rows = []
    for r in range(n):
        row = []
        for c in range(n):
            coeffs = [Fraction(int(r == c))]
            if nilpotent is not None and nilpotent[r][c]:
                coeffs += [Fraction(0)] * (power - 1) + [Fraction(nilpotent[r][c])]
            row.append(TruncSeries.from_coeffs(coeffs, cap=cap))
        rows.append(tuple(row))
    return endomorphism(rows)


def perturbations_equal(d1: Deformation, d2: Deformation) -> bool:
    """Exact equality of the two raw perturbations at the common cap."""
    if d1.base.dim != d2.base.dim:
        return False
    cap = min(d1.cap, d2.cap)
    (den1, rows1), (den2, rows2) = d1.perturbation(), d2.perturbation()
    return all(
        x * den2 == y * den1
        for r1, r2 in zip(rows1, rows2)
        for x, y in zip(r1[: cap + 1], r2[: cap + 1])
    )


def step_factors(d: Deformation):
    """Individual factors b_i of the cumulative coefficients c_i = b_1...b_i.

    Exact division, so each factor's cap drops by the valuation of the
    previous cumulative coefficient.
    """
    out = []
    prev = None
    for coeff, _ in d.terms:
        out.append(coeff if prev is None else coeff.div_exact(prev))
        prev = coeff
    return out


def first_term_is_cocycle(d: Deformation) -> bool:
    """delta(phi_1) == 0; requires a valid deformation."""
    bad = jacobi_residual(d)
    if bad:
        raise InvalidDeformation(f"nonzero Jacobi residual at order t^{min(bad)}")
    if not d.terms:
        return True
    return coboundary(d.base, d.terms[0][1]).is_zero()


def max_rank_check(d: Deformation):
    """(dim V, is_maximal) for V = span{[phi_i,phi_j], [mu,phi_i] : i,j <= k-1}."""
    phis = [phi for _, phi in d.terms]
    k = len(phis)
    vectors = []
    for i in range(k - 1):
        for j in range(i, k - 1):
            vectors.append(list(super_bracket(phis[i], phis[j]).flatten()))
    for phi in phis[: k - 1]:
        vectors.append(list(coboundary(d.base, phi).flatten()))
    dim = linalg.rank(vectors) if vectors else 0
    return dim, dim == k * (k - 1) // 2


def flags_equal(f1: Flag, f2: Flag) -> bool:
    """Same length and same subspace at every level (RREF comparison)."""
    return f1.chain == f2.chain


# -- Fraction views of the integer flag and graded-system results ----------


def direction(step: FlagStep) -> tuple:
    """The Fraction view of a flag step's direction, vector / den."""
    return tuple(Fraction(x, step.den) for x in step.vector)


def flag_step(coefficient: TruncSeries, values) -> FlagStep:
    """The FlagStep of a direction given by rationals (ints or Fractions):
    their integers over the lcm of the denominators, in lowest terms."""
    values = [Fraction(x) for x in values]
    den = lcm(1, *(x.denominator for x in values))
    vector = tuple(x.numerator * (den // x.denominator) for x in values)
    return FlagStep(coefficient=coefficient, den=den, vector=vector)


def fraction_chain(flag: Flag) -> tuple:
    """The Fraction view of a flag: each level's RREF rows, every integer
    row divided by its lead entry."""
    return tuple(
        tuple(tuple(Fraction(x, next(filter(None, row))) for x in row) for row in level)
        for level in flag.chain
    )


def integer_flag(chain) -> Flag:
    """The Flag whose levels are the given RREF rows of rationals, each
    scaled to the primitive integer row with a positive lead."""
    levels = []
    for level in chain:
        rows = []
        for row in level:
            row = [Fraction(x) for x in row]
            den = lcm(1, *(x.denominator for x in row))
            ints = [x.numerator * (den // x.denominator) for x in row]
            content = gcd(*ints)
            rows.append(tuple(x // content for x in ints))
        levels.append(tuple(rows))
    return Flag(chain=tuple(levels))


def fraction_coefficients(verdict) -> dict | None:
    """The Fraction view of a MembershipVerdict's (num, den) coefficients."""
    if verdict.coefficients is None:
        return None
    return {pair: Fraction(*c) for pair, c in verdict.coefficients.items()}


# -- per-component flag decomposition, the oracle of `valdef.decompose` ----


def reference_decompose(w: tuple, pivot_order: str = "first"):
    """The flag decomposition of the TruncSeries components w, one
    component at a time.

    The per-row-division oracle: each step scales the pivot component by
    every Fraction direction entry, subtracts, and divides each residual
    component by the step coefficient with `TruncSeries.div_exact`.
    `valdef.decompose.decompose` never divides a residual row (it keeps
    them undivided over the previous pivot row) and must return an equal
    FlagDecomposition, step coefficients and their caps included.
    """
    if pivot_order not in ("first", "last"):
        raise ValueError(f"unknown pivot order {pivot_order!r}")
    for idx, s in enumerate(w):
        if not s.in_maximal_ideal():
            raise NotInMaximalIdeal(
                f"component {idx} has constant term {s.coeffs[0]}"
            )
    if all(s.is_zero() for s in w):
        raise ZeroVector("cannot decompose a vector that is zero at its cap")

    current = list(w)
    cap = w[0].cap
    steps = []
    while True:
        vals = [s.valuation() for s in current]
        defined = [v for v in vals if v is not None]
        if not defined:
            break
        v = min(defined)
        lead = [
            Fraction(s.nums[v], s.den) if val == v else Fraction(0)
            for s, val in zip(current, vals)
        ]
        candidates = [i for i, c in enumerate(lead) if c]
        pivot = candidates[0] if pivot_order == "first" else candidates[-1]
        scale = lead[pivot]
        direction = tuple(c / scale for c in lead)
        b = current[pivot]
        steps.append(flag_step(b, direction))
        residual = [
            s - b.scale(direction[i]) for i, s in enumerate(current)
        ]
        if all(s.is_zero() for s in residual):
            break
        if cap - v < 1:
            raise PrecisionExhausted(
                f"dividing by a valuation-{v} coefficient leaves cap {cap - v}"
            )
        current = [s.div_exact(b) for s in residual]
        cap -= v
    return FlagDecomposition(
        steps=tuple(steps), ambient_dim=len(w), cap=steps[-1].coefficient.cap
    )


def reference_recompose(d: FlagDecomposition, cap=None) -> tuple:
    """sum of (b1...bi) * Vi through TruncSeries products and sums: the
    TruncSeries components."""
    if cap is None:
        cap = d.cap
    if d.steps and cap > min(s.coefficient.cap for s in d.steps):
        raise PrecisionExhausted(
            f"cap {cap} exceeds the precision of the decomposition"
        )
    total = (TruncSeries.zero(cap),) * d.ambient_dim
    running = TruncSeries.one(cap)
    for step in d.steps:
        running = running * step.coefficient.truncate(cap)
        total = tuple(s + running.scale(c) for s, c in zip(total, direction(step)))
    return total


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
    for (i, j), entry in fraction_table(g).items():
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


# -- the dict contraction: reference for the packed nested products -------
#
# Each nested product is a {k: int} dict holding no zero value, so two
# vectors are equal exactly when their dicts are and zero exactly when
# empty; the verdicts below scan triples in itertools.product order.


def _combine(terms, rows) -> dict:
    """The sum of c * rows[m] over (m, c) in terms, as {k: int} without zeros."""
    acc: dict[int, int] = {}
    for m, c in terms:
        for k, d in rows[m]:
            acc[k] = acc.get(k, 0) + c * d
    return {k: v for k, v in acc.items() if v}


def triple_products(outer, inner):
    """(den, left, right): for the flat triple t = (i * n + j) * n + k,
    left[t] = den * (e_i o_inner e_j) o_outer e_k and right[t] = den * e_i
    o_outer (e_j o_inner e_k) as dicts, den = den_outer * den_inner."""
    n = outer.dim
    den_out, out_rows = outer.scaled_table
    den_in, in_rows = inner.scaled_table
    out_cols = [[out_rows[m][k] for m in range(n)] for k in range(n)]
    left, right = [], []
    for i, j, k in iter_product(range(n), repeat=3):
        left.append(_combine(in_rows[i][j], out_cols[k]))
        right.append(_combine(in_rows[j][k], out_rows[i]))
    return den_out * den_in, left, right


def add_scaled(acc: dict, vec: dict, sign: int = 1) -> None:
    """acc += sign * vec, for {k: int} vectors; acc may keep zero values."""
    for k, v in vec.items():
        acc[k] = acc.get(k, 0) + sign * v


def _flat(n, t):
    return (t[0] * n + t[1]) * n + t[2]


def dict_g_check(a: AlgebraStructure, tag, signed: bool = True):
    """`nonassoc.g_associative_check` on dict associators."""
    n = a.dim
    _, left, right = triple_products(a, a)
    assoc = []
    for lt, rt in zip(left, right):
        acc = dict(lt)
        add_scaled(acc, rt, -1)
        assoc.append(acc)
    for t in iter_product(range(n), repeat=3):
        acc: dict[int, int] = {}
        for pattern in PATTERNS[SubgroupTag(tag)]:
            inversions = sum(pattern[x] > pattern[y] for x, y in ((0, 1), (0, 2), (1, 2)))
            sign = (-1) ** inversions if signed else 1
            add_scaled(acc, assoc[_flat(n, [t[p] for p in pattern])], sign)
        if any(acc.values()):
            return False, t
    return True, None


def dict_dual(b: AlgebraStructure, tag):
    """`nonassoc.dual_identity_check` on dict triple products."""
    n = b.dim
    _, left, right = triple_products(b, b)
    triples = list(iter_product(range(n), repeat=3))
    for t, lt, rt in zip(triples, left, right):
        if lt != rt:
            return False, t
    for t, want in zip(triples, left):
        for pattern in PATTERNS[SubgroupTag(tag)][1:]:
            if left[_flat(n, [t[p] for p in pattern])] != want:
                return False, t
    return True, None


def dict_poisson(p):
    """`nonassoc.poisson_verify` on dict nested products."""
    n = p.dim
    _, prod = p.product.scaled_table
    for i in range(n):
        for j in range(i, n):
            if prod[i][j] != prod[j][i]:
                return False, ("product not commutative", (i, j))
    _, left, right = triple_products(p.product, p.product)
    for t, lt, rt in zip(iter_product(range(n), repeat=3), left, right):
        if lt != rt:
            return False, ("product not associative", t)
    _, br = p.bracket.scaled_table
    for i in range(n):
        for j in range(i, n):
            if br[i][j] != tuple((k, -c) for k, c in br[j][i]):
                return False, ("bracket not antisymmetric", (i, j))
    _, failures = jacobi_sums(p.bracket)
    if failures:
        return False, ("bracket fails Jacobi", failures[0][0])
    # [a, bc] - b[a, c] - [a, b]c, each term scaled by den_bracket * den_product
    _, _, br_of_prod = triple_products(p.bracket, p.product)
    _, prod_of_br_left, prod_of_br_right = triple_products(p.product, p.bracket)
    for a, b, c in iter_product(range(n), repeat=3):
        acc = dict(br_of_prod[_flat(n, (a, b, c))])
        add_scaled(acc, prod_of_br_right[_flat(n, (b, a, c))], -1)
        add_scaled(acc, prod_of_br_left[_flat(n, (a, b, c))], -1)
        if any(acc.values()):
            return False, ("Leibniz rule fails", (a, b, c))
    return True, None


# -- Fraction reference for reading, printing and building tables ---------
#
# The table reader as it was before tables were read into integers: every
# literal a Fraction (`parse_rational`), each product cleaned to sorted
# nonzero (k, c) pairs, and the integer form put over the lcm of the reduced
# denominators afterwards.  Tables here are Fraction tables: {(i, j): ((k,
# c), ...)} as `fraction_table` gives them.


def reference_parse_table(rows, what: str) -> dict:
    """{(i, j): {k: Fraction}} of a table document, or its FormatError."""
    if not isinstance(rows, list):
        raise FormatError(f"{what} must be an array of entries")
    table = {}
    for row in rows:
        try:
            i, j = _int(row["i"], f"{what} i"), _int(row["j"], f"{what} j")
            out = {}
            for cell in row["out"]:
                k = _int(cell["k"], f"{what} out index")
                if k in out:
                    raise FormatError(f"{what} entry ({i},{j}) repeats out index {k}")
                out[k] = parse_rational(cell["c"])
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"bad {what} entry {row!r}") from exc
        if (i, j) in table:
            raise FormatError(f"duplicate {what} entry for ({i},{j})")
        table[(i, j)] = out
    return table


def _reference_clean_out(dim: int, out) -> tuple:
    acc: dict[int, Fraction] = {}
    items = out.items() if isinstance(out, dict) else out
    for k, c in items:
        if not 0 <= k < dim:
            raise ValueError(f"basis index {k} outside 0..{dim - 1}")
        if c:
            acc[k] = acc.get(k, 0) + Fraction(c)
    return tuple((k, acc[k]) for k in sorted(acc) if acc[k])


def reference_clean(dim: int, kind: str, table) -> dict:
    """The Fraction table of {(i, j): {k: c}}, checked entry by entry:
    pair range, lie i < j, out index range (ValueError)."""
    clean = {}
    for (i, j), out in table.items():
        if not (0 <= i < dim and 0 <= j < dim):
            raise ValueError(f"pair ({i},{j}) outside 0..{dim - 1}")
        if kind == "lie" and i >= j:
            raise ValueError(
                f"lie table key ({i},{j}) must satisfy i < j; "
                "the bracket is extended antisymmetrically"
            )
        entry = _reference_clean_out(dim, out)
        if entry:
            clean[(i, j)] = entry
    return clean


def reference_read(doc) -> list:
    """The Fraction tables of a lie, assoc or poisson document (one, or the
    product and the bracket), or the FormatError the reader raised."""
    dim, kind = doc["dim"], doc["kind"]
    if kind == "poisson":
        names, kind = ("assoc_table", "bracket_table"), "assoc"
    else:
        names = ("table",)
    parsed = [reference_parse_table(doc[name], name) for name in names]
    try:
        return [reference_clean(dim, kind, table) for table in parsed]
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def reference_scaled(dim: int, kind: str, table) -> tuple:
    """The `scaled_table` of a Fraction table: the lcm of its reduced
    denominators, every ordered pair, lie tables expanded by sign."""
    den = lcm(1, *(c.denominator for out in table.values() for _, c in out))
    rows = [[()] * dim for _ in range(dim)]
    for (i, j), out in table.items():
        rows[i][j] = tuple((k, c.numerator * (den // c.denominator)) for k, c in out)
        if kind == "lie":
            rows[j][i] = tuple((k, -c) for k, c in rows[i][j])
    return den, tuple(map(tuple, rows))


def reference_table_doc(table) -> list:
    """The file entries of a Fraction table, printed by `rational_str`."""
    return [
        {"i": i, "j": j, "out": [{"k": k, "c": rational_str(c)} for k, c in out]}
        for (i, j), out in sorted(table.items())
    ]


def full_fraction_table(g) -> dict:
    """{(i, j): {k: Fraction}} over every ordered pair with a nonzero
    product, lie tables expanded by sign."""
    full = {}
    for (i, j), out in fraction_table(g).items():
        full[(i, j)] = dict(out)
        if g.kind == "lie":
            full[(j, i)] = {k: -c for k, c in out}
    return full


def _kron(left: dict, right: dict, width: int, acc: dict) -> None:
    for p, cp in left.items():
        for q, cq in right.items():
            acc[p * width + q] = acc.get(p * width + q, 0) + cp * cq


def reference_tensor(a, b) -> tuple:
    """The `scaled_table` of the componentwise product on e_i (x) f_j,
    built on Fractions."""
    n = b.dim
    table = {}
    for (i1, i2), left in full_fraction_table(a).items():
        for (j1, j2), right in full_fraction_table(b).items():
            _kron(left, right, n, table.setdefault((i1 * n + j1, i2 * n + j2), {}))
    return reference_scaled(a.dim * n, "assoc", reference_clean(a.dim * n, "assoc", table))


def reference_poisson_tensor(p, q) -> tuple:
    """The `scaled_table`s of the product and the bracket [a1,b1] x a2.b2 +
    a1.b1 x [a2,b2] of the tensor Poisson structure, built on Fractions."""
    n, dim = q.dim, p.dim * q.dim
    br_p, pr_p = full_fraction_table(p.bracket), full_fraction_table(p.product)
    br_q, pr_q = full_fraction_table(q.bracket), full_fraction_table(q.product)
    table = {}
    for i1, i2, j1, j2 in iter_product(range(p.dim), range(p.dim), range(n), range(n)):
        acc = table.setdefault((i1 * n + j1, i2 * n + j2), {})
        _kron(br_p.get((i1, i2), {}), pr_q.get((j1, j2), {}), n, acc)
        _kron(pr_p.get((i1, i2), {}), br_q.get((j1, j2), {}), n, acc)
    bracket = reference_scaled(dim, "assoc", reference_clean(dim, "assoc", table))
    return reference_tensor(p.product, q.product), bracket


def reference_opposite(p) -> tuple:
    """The `scaled_table`s of the opposite product and the negated bracket,
    built on Fractions."""
    product = {(j, i): out for (i, j), out in full_fraction_table(p.product).items()}
    bracket = {
        pair: {k: -c for k, c in out.items()}
        for pair, out in full_fraction_table(p.bracket).items()
    }
    return tuple(
        reference_scaled(p.dim, "assoc", reference_clean(p.dim, "assoc", table))
        for table in (product, bracket)
    )
