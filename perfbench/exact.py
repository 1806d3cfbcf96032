"""Exact algebra written for the benchmark, apart from valdef.

The corpus generator, the output checks and the reference answers use
only this module, so a fault in valdef cannot hide behind the same fault
in the code that judges it.  Tables are dicts {(i, j): {k: Fraction}}:
Lie tables hold i < j only and extend antisymmetrically, every other
kind holds all ordered pairs.  Series are lists of Fractions from t^0.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product

ZERO = Fraction(0)

# argument patterns of the six subgroups of S3 and their signatures, in
# the same reading as the paper: sum over sigma in G of sign * (x_s0, x_s1, x_s2)
PATTERNS = {
    "Id": ((0, 1, 2),),
    "T12": ((0, 1, 2), (1, 0, 2)),
    "T23": ((0, 1, 2), (0, 2, 1)),
    "T13": ((0, 1, 2), (2, 1, 0)),
    "A3": ((0, 1, 2), (2, 0, 1), (1, 2, 0)),
    "S3": ((0, 1, 2), (1, 0, 2), (0, 2, 1), (2, 1, 0), (2, 0, 1), (1, 2, 0)),
}
TAGS = tuple(PATTERNS)


def perm_sign(seq) -> int:
    """Sign of the permutation sorting seq (entries distinct)."""
    sign = 1
    seq = list(seq)
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


# -- rationals and documents --------------------------------------------


def qstr(value: Fraction) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def table_doc(table) -> list:
    return [
        {
            "i": i,
            "j": j,
            "out": [{"k": k, "c": qstr(c)} for k, c in sorted(table[(i, j)].items())],
        }
        for (i, j) in sorted(table)
        if table[(i, j)]
    ]


def table_from_doc(rows) -> dict:
    return {
        (row["i"], row["j"]): {cell["k"]: Fraction(cell["c"]) for cell in row["out"]}
        for row in rows
    }


# -- bilinear maps --------------------------------------------------------


def full_lie(table) -> dict:
    """All ordered pairs of an i < j Lie table."""
    out = {}
    for (i, j), entry in table.items():
        out[(i, j)] = dict(entry)
        out[(j, i)] = {k: -c for k, c in entry.items()}
    return out


def upper_lie(full) -> dict:
    return {pair: e for pair, e in full.items() if pair[0] < pair[1] and e}


def mult(full, x: dict, y: dict) -> dict:
    """Bilinear product of sparse vectors {index: coeff} under a full table."""
    out: dict = {}
    for i, a in x.items():
        for j, b in y.items():
            entry = full.get((i, j))
            if not entry:
                continue
            ab = a * b
            for k, c in entry.items():
                out[k] = out.get(k, ZERO) + ab * c
    return {k: c for k, c in out.items() if c}


def add(*vectors, signs=None) -> dict:
    out: dict = {}
    for n, vec in enumerate(vectors):
        s = 1 if signs is None else signs[n]
        for k, c in vec.items():
            out[k] = out.get(k, ZERO) + s * c
    return {k: c for k, c in out.items() if c}


def basis(i) -> dict:
    return {i: Fraction(1)}


def change_basis(full, dim, matrix, inverse) -> dict:
    """Full table in the basis f_c = sum_r matrix[r][c] e_r."""
    cols = [{r: matrix[r][c] for r in range(dim) if matrix[r][c]} for c in range(dim)]
    out = {}
    for i in range(dim):
        for j in range(dim):
            prod = mult(full, cols[i], cols[j])
            coords = {}
            for r in range(dim):
                v = sum((inverse[r][k] * c for k, c in prod.items()), ZERO)
                if v:
                    coords[r] = v
            if coords:
                out[(i, j)] = coords
    return out


def matmul(a, b):
    n, m, p = len(a), len(b), len(b[0])
    return [
        [sum((a[i][k] * b[k][j] for k in range(m)), ZERO) for j in range(p)]
        for i in range(n)
    ]


def unitriangular_pair(rng, n, entries=(-2, -1, 1, 2), den=(1, 2), density=0.6):
    """Seeded (P, P^-1) with P = L * U, both unit triangular.

    L and U each get the same number of off-diagonal entries for every seed,
    so the coefficient growth a change of basis causes, and with it the cost
    of eliminating in the new basis, depends little on the seed.
    """
    lower = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    upper = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    slots = [(i, j) for i in range(n) for j in range(i)]
    count = round(density * len(slots))
    for i, j in rng.sample(slots, count):
        lower[i][j] = Fraction(rng.choice(entries), rng.choice(den))
    for i, j in rng.sample(slots, count):
        upper[j][i] = Fraction(rng.choice(entries), rng.choice(den))
    return matmul(lower, upper), matmul(_unitri_inverse(upper), _unitri_inverse(lower))


def _unitri_inverse(m):
    """Inverse of a unit triangular matrix by back substitution."""
    n = len(m)
    lower = all(m[i][j] == 0 for i in range(n) for j in range(i + 1, n))
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    order = range(n) if lower else range(n - 1, -1, -1)
    for col in range(n):
        for i in order:
            if i == col:
                continue
            ks = range(i) if lower else range(i + 1, n)
            inv[i][col] = -sum((m[i][k] * inv[k][col] for k in ks), ZERO)
    return inv


# -- Lie algebras ---------------------------------------------------------


def jacobi_triple(full, a, b, c) -> dict:
    """[[a,b],c] + [[b,c],a] + [[c,a],b] on basis indices."""
    terms = []
    for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
        terms.append(mult(full, full.get((x, y), {}), basis(z)))
    return add(*terms)


def is_lie(table, dim) -> bool:
    full = full_lie(table)
    return all(not jacobi_triple(full, *t) for t in combinations(range(dim), 3))


def ce_matrix(table, dim, degree, coeff):
    """Chevalley-Eilenberg delta: C^degree -> C^(degree+1) as {row: {col: c}}.

    Coordinates of C^p are (increasing p-tuple, output index) for adjoint
    coefficients and the increasing p-tuple alone for trivial ones;
    (df)(x_0..x_p) = sum_i (-1)^i x_i.f(..^x_i..)
                   + sum_{i<j} (-1)^(i+j) f([x_i, x_j], ..^x_i..^x_j..).
    Returns (matrix, nrows, ncols).
    """
    full = full_lie(table)
    adjoint = coeff == "adjoint"
    outs = range(dim) if adjoint else (None,)
    dom = {key: n for n, key in enumerate(
        (t, m) for t in combinations(range(dim), degree) for m in outs
    )}
    rows_keys = [(t, m) for t in combinations(range(dim), degree + 1) for m in outs]
    matrix: dict = {}

    def put(r, c, v):
        row = matrix.setdefault(r, {})
        row[c] = row.get(c, ZERO) + v

    for r, (big, out) in enumerate(rows_keys):
        if adjoint:
            for i, xi in enumerate(big):
                rest = big[:i] + big[i + 1:]
                for m in outs:
                    c = full.get((xi, m), {}).get(out)
                    if c:
                        put(r, dom[(rest, m)], (-1) ** i * c)
        for a, b in combinations(range(len(big)), 2):
            rest = tuple(x for n, x in enumerate(big) if n not in (a, b))
            for k, c in full.get((big[a], big[b]), {}).items():
                if k in rest:
                    continue
                key = tuple(sorted((k,) + rest))
                sign = perm_sign((k,) + rest)
                put(r, dom[(key, out)], (-1) ** (a + b) * sign * c)
    matrix = {r: {c: v for c, v in row.items() if v} for r, row in matrix.items()}
    return {r: row for r, row in matrix.items() if row}, len(rows_keys), len(dom)


def cochain_dim(dim, degree, coeff) -> int:
    from math import comb

    return comb(dim, degree) * (dim if coeff == "adjoint" else 1)


# -- G-associativity and Poisson ------------------------------------------


def associator(full, a, b, c) -> dict:
    ab_c = mult(full, full.get((a, b), {}), basis(c))
    a_bc = mult(full, basis(a), full.get((b, c), {}))
    return add(ab_c, a_bc, signs=(1, -1))


def g_sum(full, tag, signed, t) -> dict:
    terms, signs = [], []
    for pattern in PATTERNS[tag]:
        terms.append(associator(full, t[pattern[0]], t[pattern[1]], t[pattern[2]]))
        signs.append(perm_sign(pattern) if signed else 1)
    return add(*terms, signs=signs)


def g_associative(full, dim, tag, signed) -> bool:
    return all(
        not g_sum(full, tag, signed, t) for t in product(range(dim), repeat=3)
    )


def dual_fails_at(full, tag, t) -> bool:
    """Associativity or G-invariance of triple products fails at t."""
    if associator(full, *t):
        return True
    want = mult(full, full.get((t[0], t[1]), {}), basis(t[2]))
    for pattern in PATTERNS[tag][1:]:
        s = (t[pattern[0]], t[pattern[1]], t[pattern[2]])
        if mult(full, full.get((s[0], s[1]), {}), basis(s[2])) != want:
            return True
    return False


def dual_identity(full, dim, tag) -> bool:
    triples = list(product(range(dim), repeat=3))
    return not any(associator(full, *t) for t in triples) and not any(
        dual_fails_at(full, tag, t) for t in triples
    )


def kronecker(fa, da, fb, db) -> dict:
    """Componentwise product on e_i (x) f_j, index i * db + j."""
    out = {}
    for (i1, i2), left in fa.items():
        for (j1, j2), right in fb.items():
            entry = {}
            for p, cp in left.items():
                for r, cr in right.items():
                    key = p * db + r
                    entry[key] = entry.get(key, ZERO) + cp * cr
            entry = {k: c for k, c in entry.items() if c}
            if entry:
                out[(i1 * db + j1, i2 * db + j2)] = entry
    return out


def poisson_tensor(pa, ba, da, pb, bb, db):
    """Tensor of two Poisson structures: products multiply componentwise and
    [(a1 x a2),(b1 x b2)] = [a1,b1] x a2.b2 + a1.b1 x [a2,b2]."""
    return kronecker(pa, da, pb, db), add_tables(
        kronecker(ba, da, pb, db), kronecker(pa, da, bb, db)
    )


def add_tables(*tables) -> dict:
    out = {}
    for t in tables:
        for pair, entry in t.items():
            out[pair] = add(out.get(pair, {}), entry)
    return {pair: e for pair, e in out.items() if e}


def poisson_failure(prod, br, dim, axiom, args) -> bool:
    """Whether the named Poisson axiom fails at the given basis tuple."""
    e = basis
    if axiom == "product not commutative":
        i, j = args
        return prod.get((i, j), {}) != prod.get((j, i), {})
    if axiom == "product not associative":
        return bool(associator(prod, *args))
    if axiom == "bracket not antisymmetric":
        i, j = args
        return bool(add(br.get((i, j), {}), br.get((j, i), {})))
    if axiom == "bracket fails Jacobi":
        return bool(jacobi_triple(br, *args))
    if axiom == "Leibniz rule fails":
        a, b, c = args
        left = mult(br, e(a), prod.get((b, c), {}))
        r1 = mult(prod, e(b), br.get((a, c), {}))
        r2 = mult(prod, br.get((a, b), {}), e(c))
        return bool(add(left, r1, r2, signs=(1, -1, -1)))
    raise ValueError(f"unknown Poisson axiom {axiom!r}")


def is_poisson(prod, br, dim) -> bool:
    pairs = [(i, j) for i in range(dim) for j in range(i, dim)]
    for axiom, tuples in (
        ("product not commutative", pairs),
        ("bracket not antisymmetric", pairs),
        ("product not associative", product(range(dim), repeat=3)),
        ("bracket fails Jacobi", combinations(range(dim), 3)),
        ("Leibniz rule fails", product(range(dim), repeat=3)),
    ):
        if any(poisson_failure(prod, br, dim, axiom, t) for t in tuples):
            return False
    return True


# -- truncated series -------------------------------------------------------


def smul(a, b, cap) -> list:
    out = [ZERO] * (cap + 1)
    for i, x in enumerate(a[: cap + 1]):
        if not x:
            continue
        for j, y in enumerate(b[: cap + 1 - i]):
            if y:
                out[i + j] += x * y
    return out


def sadd(a, b, cap) -> list:
    a = list(a) + [ZERO] * (cap + 1 - len(a))
    b = list(b) + [ZERO] * (cap + 1 - len(b))
    return [a[i] + b[i] for i in range(cap + 1)]


def sinv(a, cap) -> list:
    """Inverse of a unit series up to t^cap."""
    a = list(a) + [ZERO] * (cap + 1 - len(a))
    out = [1 / a[0]] + [ZERO] * cap
    for k in range(1, cap + 1):
        acc = sum((a[i] * out[k - i] for i in range(1, k + 1) if a[i]), ZERO)
        out[k] = -acc / a[0]
    return out


def series_doc(s) -> list:
    s = list(s)
    while len(s) > 1 and not s[-1]:
        s.pop()
    return [qstr(c) for c in s]


def perturbation(terms, dim, cap) -> dict:
    """Raw bracket perturbation sum_i coeff_i * phi_i as {(i, j): {k: series}}.

    terms are (series, {(i, j): {k: c}}) with i < j keys.
    """
    out: dict = {}
    for coeff, phi in terms:
        for pair, entry in phi.items():
            slot = out.setdefault(pair, {})
            for k, c in entry.items():
                scaled = [c * x for x in coeff[: cap + 1]]
                slot[k] = sadd(slot.get(k, []), scaled, cap)
    return _drop_zero(out)


def _drop_zero(pert) -> dict:
    out = {}
    for pair, entry in pert.items():
        entry = {k: s for k, s in entry.items() if any(s)}
        if entry:
            out[pair] = entry
    return out


def truncate_pert(pert, cap) -> dict:
    return _drop_zero(
        {
            pair: {k: list(s[: cap + 1]) + [ZERO] * (cap + 1 - len(s[: cap + 1]))
                   for k, s in entry.items()}
            for pair, entry in pert.items()
        }
    )


def terms_from_doc(doc) -> list:
    """(series, cochain table) pairs of a deformation document."""
    out = []
    for term in doc["terms"]:
        coch = term["cochain"]
        values = coch["values"] if isinstance(coch, dict) else coch
        phi = {}
        for row in values:
            a, b = row["args"]
            phi[(a, b)] = {cell["k"]: Fraction(cell["c"]) for cell in row["out"]}
        out.append(([Fraction(c) for c in term["coeff"]], phi))
    return out


def jacobi_orders(base_table, terms, dim, cap) -> list:
    """t-orders p <= cap at which the Jacobiator of mu + perturbation is nonzero."""
    law: dict = {}
    for pair, entry in base_table.items():
        law[pair] = {k: [c] + [ZERO] * cap for k, c in entry.items()}
    for pair, entry in perturbation(terms, dim, cap).items():
        slot = law.setdefault(pair, {})
        for k, s in entry.items():
            slot[k] = sadd(slot.get(k, []), s, cap)
    full = {}
    for (i, j), entry in law.items():
        full[(i, j)] = entry
        full[(j, i)] = {k: [-c for c in s] for k, s in entry.items()}

    def bracket(x, y):
        out: dict = {}
        for i, si in x.items():
            for j, sj in y.items():
                entry = full.get((i, j))
                if not entry:
                    continue
                sij = smul(si, sj, cap)
                if not any(sij):
                    continue
                for k, s in entry.items():
                    out[k] = sadd(out.get(k, []), smul(sij, s, cap), cap)
        return out

    one = [Fraction(1)] + [ZERO] * cap
    orders = set()
    for a, b, c in combinations(range(dim), 3):
        total: dict = {}
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            for k, s in bracket(bracket({x: one}, {y: one}), {z: one}).items():
                total[k] = sadd(total.get(k, []), s, cap)
        for s in total.values():
            orders.update(p for p, v in enumerate(s) if v)
    return sorted(orders)


def polynomial_form(base_table, terms, dim, cap, poly, k) -> bool:
    """Whether (P - 1) * mu + P * perturbation has no terms above t^k at the cap."""
    p_minus_1 = [c - (1 if i == 0 else 0) for i, c in enumerate(poly)]
    pert = perturbation(terms, dim, cap)
    for pair in combinations(range(dim), 2):
        const = base_table.get(pair, {})
        entry = pert.get(pair, {})
        for idx in set(const) | set(entry):
            s = sadd([const.get(idx, ZERO) * c for c in p_minus_1],
                     smul(poly, entry.get(idx, [ZERO]), cap), cap)
            if any(s[k + 1:]):
                return False
    return True
