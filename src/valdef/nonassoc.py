"""G-associative identities, dual identities, tensor closure, Poisson checks.

For a subgroup G of the permutations of three letters, an algebra is
G-associative when the signature-weighted sum of permuted associators
vanishes; G = {Id} is plain associativity, the transposition subgroups
give pre-Lie/Vinberg type identities, and the full group gives
Lie-admissibility.  The signature weighting is the convention that
reproduces those classical identities; an unsigned variant is kept as a
switch for comparison.

The dual identity paired with each G is the one making the triple
product of an associative algebra invariant under G, which is exactly
what the tensor closure argument factors through.  For the two-element
subgroups this matches the usual pre-Lie/Vinberg duals; "3-commutative"
(the full-group dual) is implemented as invariance of triple products
under all argument permutations.

Every check here is an exact int zero or equality test on the packed
nested products of all basis triples (`algebra.nested_products`), in
`itertools.product` order, so the first failing triple is the witness: a
G-sum adds whole permuted lists of associators, 2|G| nested products.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from itertools import compress, count
from math import lcm
from operator import add, ne, or_, sub

from .algebra import (
    SUBGROUPS,
    AlgebraStructure,
    jacobi_sums,
    nested_products,
    pack,
    permuted_triples,
    slot_width,
)
from .errors import InvalidPoisson

# members ID = "Id", T12 = "T12", ..., S3 = "S3"
SubgroupTag = Enum(
    "SubgroupTag",
    [(name.upper(), name) for name in SUBGROUPS],
    type=str,
    module=__name__,
)


def _pattern_sign(pattern) -> int:
    sign = 1
    p = list(pattern)
    for i in range(3):
        for j in range(i + 1, 3):
            if p[i] > p[j]:
                sign = -sign
    return sign


# argument patterns (sigma^-1 applied to the slots) for each subgroup
PATTERNS = {
    SubgroupTag.ID: ((0, 1, 2),),
    SubgroupTag.T12: ((0, 1, 2), (1, 0, 2)),
    SubgroupTag.T23: ((0, 1, 2), (0, 2, 1)),
    SubgroupTag.T13: ((0, 1, 2), (2, 1, 0)),
    SubgroupTag.A3: ((0, 1, 2), (2, 0, 1), (1, 2, 0)),
    SubgroupTag.S3: (
        (0, 1, 2),
        (1, 0, 2),
        (0, 2, 1),
        (2, 1, 0),
        (2, 0, 1),
        (1, 2, 0),
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
    for pattern in PATTERNS[tag][1:]:
        op = sub if signed and _pattern_sign(pattern) < 0 else add
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
    for pattern in PATTERNS[tag][1:]:
        permuted = map(left.__getitem__, permuted_triples(n, pattern))
        differs = list(map(or_, differs, map(ne, permuted, left)))
    return _witness(n, differs)


def _add_kron(out: dict, left, right, width: int, weight: int = 1) -> None:
    """out[p * width + q] += weight * cp * cq for (p, cp) in left, (q, cq) in right."""
    for p, cp in left:
        for q, cq in right:
            key = p * width + q
            out[key] = out.get(key, 0) + weight * cp * cq


def tensor_product(a: AlgebraStructure, b: AlgebraStructure) -> AlgebraStructure:
    """Componentwise product on the Kronecker basis e_i (x) f_j."""
    den_a, rows_a = a.scaled_table
    den_b, rows_b = b.scaled_table
    table = {}
    for i1 in range(a.dim):
        for i2 in range(a.dim):
            left = rows_a[i1][i2]
            if not left:
                continue
            for j1 in range(b.dim):
                for j2 in range(b.dim):
                    right = rows_b[j1][j2]
                    if right:
                        out = table[(i1 * b.dim + j1, i2 * b.dim + j2)] = {}
                        _add_kron(out, left, right, b.dim)
    return AlgebraStructure.scaled(a.dim * b.dim, "assoc", den_a * den_b, table)


# -- Poisson structures -----------------------------------------------


class PoissonStructure(namedtuple("PoissonStructure", "dim product bracket")):
    """Commutative associative product plus a bracket, both as full tables
    (assoc-kind AlgebraStructures)."""

    __slots__ = ()

    @classmethod
    def build(cls, dim, product_table, bracket_table) -> PoissonStructure:
        """From two tables of rationals, as `AlgebraStructure.assoc` reads them."""
        return cls(
            dim=dim,
            product=AlgebraStructure.assoc(dim, product_table),
            bracket=AlgebraStructure.assoc(dim, bracket_table),
        )


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


def poisson_tensor(p: PoissonStructure, q: PoissonStructure) -> PoissonStructure:
    """Tensor Poisson structure: products multiply componentwise and
    [(a1 x a2),(b1 x b2)] = [a1,b1] x a2.b2 + a1.b1 x [a2,b2]; the result
    is verified."""
    _require_poisson(p, "left factor")
    _require_poisson(q, "right factor")
    product = tensor_product(p.product, q.product)
    dim = p.dim * q.dim
    den_pb, br_p = p.bracket.scaled_table
    den_pp, pr_p = p.product.scaled_table
    den_qp, pr_q = q.product.scaled_table
    den_qb, br_q = q.bracket.scaled_table
    # [a1,b1] x a2.b2 has denominator den_pb * den_qp, a1.b1 x [a2,b2] the other
    den = lcm(den_pb * den_qp, den_pp * den_qb)
    w_left, w_right = den // (den_pb * den_qp), den // (den_pp * den_qb)
    table = {}
    for i1 in range(p.dim):
        for i2 in range(p.dim):
            br_left, pr_left = br_p[i1][i2], pr_p[i1][i2]
            if not br_left and not pr_left:
                continue
            for j1 in range(q.dim):
                for j2 in range(q.dim):
                    out = {}
                    _add_kron(out, br_left, pr_q[j1][j2], q.dim, w_left)
                    _add_kron(out, pr_left, br_q[j1][j2], q.dim, w_right)
                    if out:
                        table[(i1 * q.dim + j1, i2 * q.dim + j2)] = out
    out = PoissonStructure(
        dim=dim,
        product=product,
        bracket=AlgebraStructure.scaled(dim, "assoc", den, table),
    )
    _require_poisson(out, "tensor", RuntimeError)
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
        product=AlgebraStructure(p.dim, "assoc", (den_p, tuple(zip(*prod))), None),
        bracket=AlgebraStructure(p.dim, "assoc", (den_b, negated), None),
    )
    _require_poisson(out, "opposite", RuntimeError)
    return out
