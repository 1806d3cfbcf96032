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
nested products of all basis triples (`nested_products`), in
`itertools.product` order, so the first failing triple is the witness: a
G-sum adds whole permuted lists of associators, 2|G| nested products.
`nested_products` contracts two tables into one nesting of every basis
triple, each vector packed into one int by Kronecker substitution: `pack`
makes outer row den * e_a e_b into P[a][b] = sum of c_q * 2^(B q), once
per table and width, and (e_i e_j) e_k = sum of c_m * P[m][k], e_i (e_j
e_k) = sum of c_m * P[i][m] over the inner row.  A sum of at most T
nested products has every coordinate bounded by M = T * r * c_in * c_out
(r the longest inner row, c the largest absolute constants, both read
from `AlgebraStructure.extent`), so for B = bit_length(M) + 1
(`slot_width`) two such sums pack equal only if equal: the lowest nonzero
slot of their difference would be a multiple of 2^B inside (-2^B, 2^B).
`unpack` reads the coordinates of one such sum back.
`tensor_g_associative` decides a tensor product's G-associativity on its
two factors instead: each nesting of A (x) B is the Kronecker product of
one nesting in A and one in B, so the G-sum vanishes on every product
triple exactly when the columns of A's 2|G| terms are orthogonal to those
of B's, an `echelon` of at most 2|G| rows and dot products.  The witness
of a failing product still comes from `g_associative_check` on its table.

`poisson_tensor` checks the structure it builds without visiting its
triples either: each block of a built table at a pair of A-indices is
packed into one int and compared with the Kronecker formula on the
verified factors, one shifted product of a packed B table per A-constant
(`_kronecker_mismatch`), and a tensor product of Poisson algebras is Poisson.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from functools import lru_cache
from itertools import chain, compress, count, product as iter_product
from math import lcm
from operator import add, mul, ne, or_, sub

from .algebra import SUBGROUPS, AlgebraStructure, jacobi_sums
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


def slot_width(terms: int, *pairs) -> int:
    """The slot width B = bit_length(M) + 1 that makes sums of at most `terms`
    nested products of the (outer, inner) pairs, over one den, pack exactly."""
    bound = 0
    for outer, inner in pairs:
        longest, largest = inner.extent
        bound = max(bound, longest * largest * outer.extent[1])
    return (terms * bound).bit_length() + 1


def pack(outer, width: int) -> list[list[int]]:
    """The rows of a table's `scaled_table`, each packed into one int of
    `width`-bit slots: entry [a][b] is the sum of c << width * q over the
    (q, c) of den * e_a e_b."""
    return [
        [sum([c << width * q for q, c in row]) if row else 0 for row in r]
        for r in outer.scaled_table[1]
    ]


def unpack(packed: int, n: int, width: int) -> list[int]:
    """The n signed coordinates of an int packed in `width`-bit slots, each
    inside (-2^(width-1), 2^(width-1)) as `slot_width` makes them."""
    half, mask, out = 1 << (width - 1), (1 << width) - 1, []
    for _ in range(n):
        slot = ((packed & mask) ^ half) - half
        out.append(slot)
        packed = (packed - slot) >> width
    return out


def nested_products(packed, inner, left: bool) -> list[int]:
    """den * one nesting of every basis triple, from the outer table packed
    by `pack`: entry (i * n + j) * n + k (itertools.product order) is
    (e_i e_j) e_k if left, else e_i (e_j e_k), with den = den_outer *
    den_inner."""
    n = len(packed)
    _, in_rows = inner.scaled_table
    # inner row (a, b) gives the sums of c * vecs[m][x] over all x: the left
    # nesting at (a, b, x) for vecs = P, the right one at (x, a, b) for P^T;
    # the first product starts the sum, so a one-product row zips nothing
    vecs = packed if left else list(zip(*packed))
    zeros, out = [0] * n, []
    for rows in in_rows:
        for row in rows:
            if not row:
                out += zeros
                continue
            m, c = row[0]
            acc = vecs[m] if c == 1 else [c * x for x in vecs[m]]
            for m, c in row[1:]:
                acc = [y + c * x for y, x in zip(acc, vecs[m])]
            out += acc
    if left:
        return out
    return list(map(out.__getitem__, permuted_triples(n, (1, 2, 0))))


@lru_cache(maxsize=128)  # every pattern of dims 1-18; an entry holds n^3 ints
def permuted_triples(n: int, pattern) -> tuple[int, ...]:
    """The flat number of (t[p0], t[p1], t[p2]) for each flat triple t."""
    p0, p1, p2 = pattern
    triples = iter_product(range(n), repeat=3)
    return tuple((t[p0] * n + t[p1]) * n + t[p2] for t in triples)


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


def _kronecker_mismatch(table: AlgebraStructure, pairs):
    """Where table is not the sum over (a, b) in pairs of the products on
    the Kronecker basis, in words, or None.

    Written apart from `_kronecker`, from the product's side.  The den of
    any such sum in canonical form divides the lcm L of the pairs' dens, so
    a den that does not is named first.  The m x m block of table at (i1,
    i2), entries (x, y) with x = (i1, j1) and y = (i2, j2), is read as one
    int: its `pack`ed entries joined by Horner, coordinate k of entry (j1,
    j2) in slot (j1 m + j2) n + k, n = p m.  Each b is packed so once, as
    PB, and (c PB) << W m r puts c b at coordinate r m + q, that of e_r (x)
    f_q: summed over the pairs, times scale = L / (den_a den_b), and over
    the (r, c) of a's entry (i1, i2), that is L times the formula's block,
    to equal g = L / den times the table's.  One product per pair reaches a
    slot, so every slot of either side is at most M = max(sum of scale
    max|a| max|b|, g max|T|) in size (`extent`).  For W = bit_length(M) + 1
    the two are equal only if every slot is: the lowest nonzero slot of the
    difference would lie in (-2^W, 2^W) and be a multiple of 2^W.  `unpack`
    reads the first differing (j1, j2) in the first (i1, i2) block to differ.
    """
    den, p, m = table.scaled_table[0], pairs[0][0].dim, pairs[0][1].dim
    dens = [a.scaled_table[0] * b.scaled_table[0] for a, b in pairs]
    big, n = lcm(*dens), p * m
    if big % den:
        return f"den {den} does not divide {big}, the lcm of the pairs' dens"
    g, scales = big // den, [big // d for d in dens]
    bound = sum(s * a.extent[1] * b.extent[1] for s, (a, b) in zip(scales, pairs))
    width = max(bound, g * table.extent[1]).bit_length() + 1

    def block(packed, i1, i2):
        acc = 0
        for row in reversed(packed[i1 * m : i1 * m + m]):
            for entry in reversed(row[i2 * m : i2 * m + m]):
                acc = (acc << width * n) + entry
        return acc

    terms = [
        (s, a.scaled_table[1], block(pack(b, width), 0, 0))
        for s, (a, b) in zip(scales, pairs)
    ]
    packed, size = pack(table, width), m * m * n
    for i1, i2 in iter_product(range(p), repeat=2):
        want = sum(
            [(s * c * pb) << width * m * r for s, rows, pb in terms for r, c in rows[i1][i2]]
        )
        got = g * block(packed, i1, i2)
        if got != want:
            slots = map(ne, unpack(got, size, width), unpack(want, size, width))
            j1, j2 = divmod(next(compress(count(), slots)) // n, m)
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
