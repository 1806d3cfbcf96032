"""G-associative identities, dual identities, tensor closure, Poisson checks.

For a subgroup G of the permutations of three letters, an algebra is
G-associative when the signature-weighted sum of permuted associators
vanishes; G = {Id} is plain associativity, the transposition subgroups
give pre-Lie/Vinberg type identities, and the full group gives
Lie-admissibility.  `PATTERNS` lists each sigma with its signature, the
weighting that reproduces those classical identities; an unsigned
variant is kept as a switch for comparison.

The dual identity paired with each G is the one making the triple
product of an associative algebra invariant under G, which is exactly
what the tensor closure argument factors through.  For the two-element
subgroups this matches the usual pre-Lie/Vinberg duals; "3-commutative"
(the full-group dual) is implemented as invariance of triple products
under all argument permutations.  Tensor tables are one Kronecker sum
(`_kronecker`): of one pair of tables for `tensor_product`, of two for
the Poisson tensor bracket.

Every check here is an exact int zero or equality test on the packed
nested products of all basis triples (`algebra.nested_products`), in
`itertools.product` order, so the first failing triple is the witness: a
G-sum adds whole permuted lists of associators, 2|G| nested products.
`tensor_g_associative` decides a tensor product's G-associativity on its
two factors instead: each nesting of A (x) B is the Kronecker product of
one nesting in A and one in B, so the G-sum vanishes on every product
triple exactly when the columns of A's 2|G| terms are orthogonal to those
of B's, an `echelon` of at most 2|G| rows and dot products.  The witness
of a failing product still comes from `g_associative_check` on its table.

`poisson_tensor` checks the structure it builds without visiting its
triples either: both built tables are read entry by entry against the
Kronecker formula on the verified factors (`_kronecker_mismatch`), and the
tensor product of two Poisson algebras is a Poisson algebra.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from itertools import chain, compress, count, product as iter_product
from math import lcm
from operator import add, mul, ne, or_, sub

from .algebra import (
    SUBGROUPS,
    AlgebraStructure,
    jacobi_sums,
    nested_products,
    pack,
    permuted_triples,
    slot_width,
    unpack,
)
from .errors import InvalidPoisson
from .linalg import echelon

# members ID = "Id", T12 = "T12", ..., S3 = "S3"
SubgroupTag = Enum(
    "SubgroupTag",
    [(name.upper(), name) for name in SUBGROUPS],
    type=str,
    module=__name__,
)


# (argument pattern, signature) of each sigma in each subgroup: the pattern
# is sigma^-1 applied to the slots
PATTERNS = {
    SubgroupTag.ID: (((0, 1, 2), 1),),
    SubgroupTag.T12: (((0, 1, 2), 1), ((1, 0, 2), -1)),
    SubgroupTag.T23: (((0, 1, 2), 1), ((0, 2, 1), -1)),
    SubgroupTag.T13: (((0, 1, 2), 1), ((2, 1, 0), -1)),
    SubgroupTag.A3: (((0, 1, 2), 1), ((2, 0, 1), 1), ((1, 2, 0), 1)),
    SubgroupTag.S3: (
        ((0, 1, 2), 1),
        ((1, 0, 2), -1),
        ((0, 2, 1), -1),
        ((2, 1, 0), -1),
        ((2, 0, 1), 1),
        ((1, 2, 0), 1),
    ),
}

DUAL_IDENTITY = {
    SubgroupTag.ID: "none",
    SubgroupTag.T12: "abc = bac",
    SubgroupTag.T23: "abc = acb",
    SubgroupTag.T13: "abc = cba",
    SubgroupTag.A3: "abc = bca = cab",
    SubgroupTag.S3: "abc invariant under all argument permutations",
}


def _witness(n: int, flags):
    """(True, None), or (False, the first triple whose flag is true)."""
    t = next(compress(count(), flags), None)
    return (True, None) if t is None else (False, (t // n // n, t // n % n, t % n))


def _associativity(b: AlgebraStructure):
    """(left nestings of b, associativity verdict), on one-product slots."""
    packed = pack(b, slot_width(1, (b, b)))
    left = nested_products(packed, b, True)
    return left, _witness(b.dim, map(ne, left, nested_products(packed, b, False)))


def g_associative_check(a: AlgebraStructure, tag: SubgroupTag, signed: bool = True):
    """(True, None) or (False, first failing basis triple).

    Checks sum over sigma in G of sign(sigma) * associator on permuted
    arguments, on every basis triple; signed=False drops the signature
    weights (the plain-sum reading, kept for comparison).
    """
    tag = SubgroupTag(tag)
    n = a.dim
    packed = pack(a, slot_width(2 * len(PATTERNS[tag]), (a, a)))
    nestings = (nested_products(packed, a, left) for left in (True, False))
    assoc = list(map(sub, *nestings))
    total = assoc
    for pattern, sign in PATTERNS[tag][1:]:
        op = sub if signed and sign < 0 else add
        permuted = map(assoc.__getitem__, permuted_triples(n, pattern))
        total = list(map(op, total, permuted))
    return _witness(n, total)


def dual_identity_check(b: AlgebraStructure, tag: SubgroupTag):
    """Associativity plus G-invariance of triple products.

    Returns (True, None) or (False, first failing basis triple): the
    witness is an associator failure when associativity breaks, else a
    triple where some permuted product differs.
    """
    tag = SubgroupTag(tag)
    n = b.dim
    left, verdict = _associativity(b)
    if not verdict[0]:
        return verdict
    differs = [False] * len(left)
    for pattern, _ in PATTERNS[tag][1:]:
        permuted = map(left.__getitem__, permuted_triples(n, pattern))
        differs = list(map(or_, differs, map(ne, permuted, left)))
    return _witness(n, differs)


def _kronecker(dim: int, pairs) -> AlgebraStructure:
    """The sum over (a, b) in pairs of the componentwise products on the
    Kronecker basis e_i (x) f_j, an assoc-kind table of dim a.dim * b.dim,
    over the lcm of the pairs' dens."""
    tables = [(a.scaled_table, b.scaled_table, b.dim) for a, b in pairs]
    den = lcm(*(den_a * den_b for (den_a, _), (den_b, _), _ in tables))
    table = {}
    for (den_a, rows_a), (den_b, rows_b), m in tables:
        scale = den // (den_a * den_b)
        for i1, row_a in enumerate(rows_a):
            for i2, left in enumerate(row_a):
                if not left:
                    continue
                for j1, row_b in enumerate(rows_b):
                    for j2, right in enumerate(row_b):
                        if right:
                            out = table.setdefault((i1 * m + j1, i2 * m + j2), {})
                            for p, cp in left:
                                for q, cq in right:
                                    k = p * m + q
                                    out[k] = out.get(k, 0) + scale * cp * cq
    return AlgebraStructure.scaled(dim, "assoc", den, table)


def tensor_product(a: AlgebraStructure, b: AlgebraStructure) -> AlgebraStructure:
    """Componentwise product on the Kronecker basis e_i (x) f_j."""
    return _kronecker(a.dim * b.dim, [(a, b)])


def _term_columns(x: AlgebraStructure, patterns) -> set:
    """The distinct nonzero columns of one factor's G-sum terms: for each
    basis triple t and output coordinate q, the tuple over the terms (each
    sigma, left then right nesting) of that nesting's coordinate q at the
    sigma-permuted t, unsigned."""
    width = slot_width(1, (x, x))
    packed = pack(x, width)
    nestings = [nested_products(packed, x, left) for left in (True, False)]
    terms = [
        map(nesting.__getitem__, permuted_triples(x.dim, pattern))
        for pattern, _ in patterns
        for nesting in nestings
    ]
    coords = {v: unpack(v, x.dim, width) for v in set(chain(*nestings))}
    # the distinct triples first, then their coordinates
    triples = set(zip(*terms))
    columns = set(chain.from_iterable(zip(*map(coords.get, t)) for t in triples))
    columns.discard((0,) * len(terms))
    return columns


def tensor_g_associative(
    a: AlgebraStructure, b: AlgebraStructure, tag: SubgroupTag, signed: bool = True
) -> bool:
    """Whether tensor_product(a, b) is G-associative, decided on a and b.

    Every nesting of A (x) B is the Kronecker product of one nesting in A
    and the same nesting in B, so the G-sum at every product triple is
    sum_k alpha_k (x) beta_k over the K = 2|G| terms: alpha_k is A's
    nesting at the permuted A-triple, beta_k B's at the permuted B-triple
    times the term's sign.  It vanishes on every triple exactly when each
    column of A's terms is orthogonal in Q^K to each column of B's.  The
    side with fewer distinct columns is put through `echelon`, at most K
    rows, the signs go on those rows, and the other side's columns are
    dotted against them.  Each factor's nestings are packed once, so the
    product's (dim(A) * dim(B))^3 triples are never visited.
    """
    patterns = PATTERNS[SubgroupTag(tag)]
    signs = [s * (sign if signed else 1) for _, sign in patterns for s in (1, -1)]
    columns = (_term_columns(a, patterns), _term_columns(b, patterns))
    small, large = sorted(columns, key=len)
    rows = [
        [row.get(k, 0) * sign for k, sign in enumerate(signs)]
        for row in echelon(dict(enumerate(col)) for col in small).values()
    ]
    return not any(sum(map(mul, row, col)) for col in large for row in rows)


# -- Poisson structures -----------------------------------------------


class PoissonStructure(namedtuple("PoissonStructure", "dim product bracket")):
    """Commutative associative product plus a bracket, both as full tables
    (assoc-kind AlgebraStructures)."""

    __slots__ = ()


def poisson_verify(p: PoissonStructure):
    """(True, None) or (False, (axiom, witness)) over all basis tuples."""
    n = p.dim
    _, prod = p.product.scaled_table
    for i in range(n):
        for j in range(i, n):
            if prod[i][j] != prod[j][i]:
                return False, ("product not commutative", (i, j))
    _, (ok, t) = _associativity(p.product)
    if not ok:
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
    width = slot_width(3, (p.bracket, p.product), (p.product, p.bracket))
    br_of_prod = nested_products(pack(p.bracket, width), p.product, False)
    product = pack(p.product, width)
    prod_of_br_left = nested_products(product, p.bracket, True)
    prod_of_br_right = nested_products(product, p.bracket, False)
    b_ac = map(prod_of_br_right.__getitem__, permuted_triples(n, (1, 0, 2)))
    ok, t = _witness(n, map(sub, map(sub, br_of_prod, b_ac), prod_of_br_left))
    if not ok:
        return False, ("Leibniz rule fails", t)
    return True, None


def _require_poisson(p: PoissonStructure, label: str, error=InvalidPoisson):
    """Raise error unless p satisfies the axioms.  An input failing them is
    malformed (InvalidPoisson); a construction's own output failing them is
    a bug here (RuntimeError), which the CLI reports with exit 4."""
    ok, witness = poisson_verify(p)
    if not ok:
        raise error(f"{label}: {witness[0]} at {witness[1]}")


def _kronecker_block(lefts, tables, m: int, big: int, g: int) -> list[tuple]:
    """For each row j1 of the b's, the m entries that the a's entries
    `lefts` (one per pair of `tables`, the pairs' scaled tables) make with
    it in the Kronecker sum, over big / g for big the lcm of the pairs'
    dens; an entry whose sum is not over big / g is None."""
    terms = [
        (left, rows_b, big // (da * db))
        for left, ((da, _), (db, rows_b)) in zip(lefts, tables)
        if left
    ]
    if len(terms) == 1 and terms[0][2] % g == 0:
        # one summand: each entry comes sorted, without zeros
        left, rows_b, scale = terms[0]
        f = scale // g
        return [
            tuple(
                tuple([(q * m + s, f * cq * cs) for q, cq in left for s, cs in right])
                for right in row_b
            )
            for row_b in rows_b
        ]

    def entry(j1, j2):
        acc = {}
        for left, rows_b, scale in terms:
            for q, cq in left:
                for s, cs in rows_b[j1][j2]:
                    acc[q * m + s] = acc.get(q * m + s, 0) + scale * cq * cs
        if any(w % g for w in acc.values()):
            return None
        return tuple(sorted((k, w // g) for k, w in acc.items() if w))

    return [tuple(entry(j1, j2) for j2 in range(m)) for j1 in range(m)]


def _kronecker_mismatch(table: AlgebraStructure, pairs):
    """Where table is not the sum over (a, b) in pairs of the products on
    the Kronecker basis, in words, or None.

    Written apart from `_kronecker`, from the product's side.  The den of
    any such sum in canonical form divides the lcm L of the pairs' dens, so
    a den that does not is named first.  Then the entries (x, y) with x =
    (i1, j1) and y = (i2, j2) for fixed i1 and i2, one slice of each of m
    rows of table, are read against the entries that the a's at (i1, i2)
    make with the b's over den (`_kronecker_block`, built once for each
    distinct tuple of a-entries), and the first pair that differs is named.
    """
    den, rows = table.scaled_table
    p, m = pairs[0][0].dim, pairs[0][1].dim
    tables = [(a.scaled_table, b.scaled_table) for a, b in pairs]
    big = lcm(*(da * db for (da, _), (db, _) in tables))
    if big % den:
        return f"den {den} does not divide {big}, the lcm of the pairs' dens"
    blocks = {}
    for i1, i2 in iter_product(range(p), repeat=2):
        lefts = tuple([rows_a[i1][i2] for (_, rows_a), _ in tables])
        if lefts not in blocks:
            blocks[lefts] = _kronecker_block(lefts, tables, m, big, big // den)
        got = [row[i2 * m : i2 * m + m] for row in rows[i1 * m : i1 * m + m]]
        if got != blocks[lefts]:
            j1, j2 = next(
                (j1, j2)
                for j1, j2 in iter_product(range(m), repeat=2)
                if got[j1][j2] != blocks[lefts][j1][j2]
            )
            return f"differs from the Kronecker formula at {(i1 * m + j1, i2 * m + j2)}"
    return None


def poisson_tensor(p: PoissonStructure, q: PoissonStructure) -> PoissonStructure:
    """Tensor Poisson structure: products multiply componentwise and
    [(a1 x a2),(b1 x b2)] = [a1,b1] x a2.b2 + a1.b1 x [a2,b2].

    The factors are verified; the result is checked table by table against
    that formula (`_kronecker_mismatch`), a mismatch being a bug here
    (RuntimeError).  A result that is the formula needs no axiom scan: the
    tensor product of two Poisson algebras is a Poisson algebra
    (Laurent-Gengoux, Pichereau & Vanhaecke, Poisson Structures, ch. 1)."""
    _require_poisson(p, "left factor")
    _require_poisson(q, "right factor")
    dim = p.dim * q.dim
    bracket_pairs = [(p.bracket, q.product), (p.product, q.bracket)]
    out = PoissonStructure(
        dim=dim,
        product=tensor_product(p.product, q.product),
        bracket=_kronecker(dim, bracket_pairs),
    )
    formula = (
        ("product", out.product, [(p.product, q.product)]),
        ("bracket", out.bracket, bracket_pairs),
    )
    for name, table, pairs in formula:
        fault = _kronecker_mismatch(table, pairs)
        if fault:
            raise RuntimeError(f"tensor: {name} {fault}")
    return out


def opposite_poisson(p: PoissonStructure) -> PoissonStructure:
    """Opposite product a.b -> ba with negated bracket; Poisson again.

    Transposing a table and negating one keep its canonical form, so both
    are built from the input's rows as they stand."""
    _require_poisson(p, "input")
    den_p, prod = p.product.scaled_table
    den_b, br = p.bracket.scaled_table
    negated = tuple(tuple(tuple((k, -c) for k, c in row) for row in r) for r in br)
    out = PoissonStructure(
        dim=p.dim,
        product=AlgebraStructure(p.dim, "assoc", (den_p, tuple(zip(*prod)))),
        bracket=AlgebraStructure(p.dim, "assoc", (den_b, negated)),
    )
    _require_poisson(out, "opposite", RuntimeError)
    return out
