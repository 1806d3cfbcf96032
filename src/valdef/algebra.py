"""Finite-dimensional algebras by structure constants, and alternating cochains.

An AlgebraStructure stores the products of basis elements as sparse
integer-indexed tables over Q.  Lie tables keep only i < j entries and the
bracket is extended antisymmetrically; associative tables keep all pairs.
That Fraction table is what files are read into and printed from.

Everything else reads the integer form of a table, `scaled_table`: one
common denominator and integer constants over all ordered pairs, Lie
tables expanded antisymmetrically.  A degree-2 adjoint Cochain is a
bracket table too and has the same `scaled_table`, built by the same
code.  `triple_products` contracts two such tables into both nestings of
every basis triple, and the associator, G-associativity, dual-identity
and Poisson product checks are integer zero and equality tests on its
output.

For two tables the mixed Jacobi sum (`jacobi_sums`, which contracts only
the three cyclic left nestings of each increasing triple)

    (outer o inner)(x, y, z) = outer(inner(x, y), z) + outer(inner(y, z), x)
                               + outer(inner(z, x), y)

is the Jacobiator when outer = inner is a bracket, and for degree-2
cochains it is the circle product of Gerstenhaber's deformation equation
(`cohomology.circle`).

Cochains are alternating multilinear maps stored densely over strictly
increasing index tuples, the representation used by the cohomology and
deformation modules.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import lcm

from .errors import DimensionMismatch, UnsupportedDegree
from .series import Frozen

ZERO = Fraction(0)

# The vocabulary of the CLI's choices lives here, in a module every command
# loads, so that building the parser imports no subcommand's module.
COEFFS = ("adjoint", "trivial")  # cochain targets: cohomology coefficients
MAX_DEGREE = 3  # highest cohomology degree reported
# subgroups of the permutations of three letters naming the G-associative
# identities (`nonassoc.SubgroupTag`)
SUBGROUPS = ("Id", "T12", "T23", "T13", "A3", "S3")


def _clean_out(dim: int, out) -> tuple[tuple[int, Fraction], ...]:
    """Normalize a product value to a sorted ((k, coeff), ...) tuple."""
    acc: dict[int, Fraction] = {}
    items = out.items() if isinstance(out, dict) else out
    for k, c in items:
        if not 0 <= k < dim:
            raise ValueError(f"basis index {k} outside 0..{dim - 1}")
        if not isinstance(c, Fraction):
            c = Fraction(c)
        if c:
            acc[k] = acc[k] + c if k in acc else c
    return tuple((k, acc[k]) for k in sorted(acc) if acc[k])


class AlgebraStructure(Frozen):
    """Algebra over Q given by its structure constants.

    kind is "lie" or "assoc"; basis optionally names the basis vectors.
    """

    __slots__ = ("dim", "kind", "table", "basis", "__dict__")

    def __init__(self, dim: int, kind: str, table: dict, basis=None) -> None:
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "basis", basis)

    @classmethod
    def lie(cls, dim: int, table, basis=None) -> AlgebraStructure:
        """Lie table: keys (i, j) with i < j only."""
        clean = {}
        for (i, j), out in table.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise ValueError(f"pair ({i},{j}) outside 0..{dim - 1}")
            if i >= j:
                raise ValueError(
                    f"lie table key ({i},{j}) must satisfy i < j; "
                    "the bracket is extended antisymmetrically"
                )
            entry = _clean_out(dim, out)
            if entry:
                clean[(i, j)] = entry
        return cls(dim, "lie", clean, tuple(basis) if basis else None)

    @classmethod
    def assoc(cls, dim: int, table, basis=None) -> AlgebraStructure:
        clean = {}
        for (i, j), out in table.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise ValueError(f"pair ({i},{j}) outside 0..{dim - 1}")
            entry = _clean_out(dim, out)
            if entry:
                clean[(i, j)] = entry
        return cls(dim, "assoc", clean, tuple(basis) if basis else None)

    @classmethod
    def abelian(cls, dim: int) -> AlgebraStructure:
        return cls.lie(dim, {})

    # -- evaluation ---------------------------------------------------

    def bilinear(self, x, y) -> tuple[Fraction, ...]:
        """Bilinear extension of the table to coefficient vectors."""
        if len(x) != self.dim or len(y) != self.dim:
            raise DimensionMismatch(
                f"vectors of length {len(x)},{len(y)} in a dim-{self.dim} algebra"
            )
        den, rows = self.scaled_table
        out = [ZERO] * self.dim
        for i, xi in enumerate(x):
            if not xi:
                continue
            row = rows[i]
            for j, yj in enumerate(y):
                if not yj:
                    continue
                xy = xi * yj
                for k, c in row[j]:
                    out[k] += xy * c
        return tuple(v / den for v in out)

    @cached_property
    def scaled_table(self) -> tuple[int, tuple]:
        """The table as integers over one common denominator, built once.

        Returns (den, rows): den * e_i e_j is the sum of c * e_k over
        (k, c) in rows[i][j], for every ordered pair (i, j).  Each row is
        sorted by k and holds no zero c, so equal products have equal
        rows.  Lie tables are expanded antisymmetrically here.
        """
        return _scaled_rows(self.dim, self.table.items(), self.kind == "lie")

    @cached_property
    def jacobi_witness(self) -> tuple[int, int, int] | None:
        """The first basis triple whose Jacobi sum is nonzero, None if the
        Jacobi identity holds; found once (lie kind only)."""
        if self.kind != "lie":
            raise ValueError("is_lie needs a lie-kind algebra")
        _, failures = jacobi_sums(self)
        return failures[0][0] if failures else None


def _scaled_rows(dim: int, entries, antisymmetric: bool) -> tuple[int, tuple]:
    """(den, rows) of `AlgebraStructure.scaled_table` from ((i, j), out) pairs.

    Each out lists the nonzero (k, c) of e_i e_j by increasing k; with
    antisymmetric set, e_j e_i is taken as its negative.
    """
    entries = list(entries)
    den = lcm(1, *(c.denominator for _, out in entries for _, c in out))
    rows = [[()] * dim for _ in range(dim)]
    for (i, j), out in entries:
        row = tuple((k, c.numerator * (den // c.denominator)) for k, c in out)
        rows[i][j] = row
        if antisymmetric:
            rows[j][i] = tuple((k, -c) for k, c in row)
    return den, tuple(map(tuple, rows))


def _combine(terms, rows) -> dict:
    """The sum of c * rows[m] over (m, c) in terms, as {k: int} without zeros."""
    acc: dict[int, int] = {}
    for m, c in terms:
        for k, d in rows[m]:
            acc[k] = acc.get(k, 0) + c * d
    if all(acc.values()):
        return acc
    return {k: v for k, v in acc.items() if v}


def triple_products(outer, inner):
    """Both nestings of every basis triple, scaled to integers.

    outer and inner are tables: AlgebraStructures or degree-2 adjoint
    Cochains, read through their `scaled_table`.  Returns (den, left,
    right) with den = den_outer * den_inner and, for the flat triple
    number t = (i * n + j) * n + k (the order in which itertools.product
    scans triples):

        left[t]  = den * (e_i o_inner e_j) o_outer e_k
        right[t] = den * e_i o_outer (e_j o_inner e_k)

    each a {m: int} dict holding no zero value, so that two vectors are
    equal exactly when their dicts are, and zero exactly when empty.
    """
    if outer.dim != inner.dim:
        raise DimensionMismatch(
            f"tables of dims {outer.dim} and {inner.dim} cannot be nested"
        )
    n = outer.dim
    den_out, out_rows = outer.scaled_table
    den_in, in_rows = inner.scaled_table
    out_cols = [[out_rows[m][k] for m in range(n)] for k in range(n)]
    left, right = [], []
    for i in range(n):
        out_i = out_rows[i]
        for j in range(n):
            ij = in_rows[i][j]
            in_j = in_rows[j]
            for k in range(n):
                left.append(_combine(ij, out_cols[k]) if ij else {})
                jk = in_j[k]
                right.append(_combine(jk, out_i) if jk else {})
    return den_out * den_in, left, right


def add_scaled(acc: dict, vec: dict, sign: int = 1) -> None:
    """acc += sign * vec, for {k: int} vectors; acc may keep zero values."""
    for k, v in vec.items():
        acc[k] = acc.get(k, 0) + sign * v


def associator(a: AlgebraStructure, x, y, z) -> tuple[Fraction, ...]:
    """(xy)z - x(yz) for an assoc-kind table."""
    if a.kind != "assoc":
        raise ValueError("associator needs an assoc-kind table")
    left = a.bilinear(a.bilinear(x, y), z)
    right = a.bilinear(x, a.bilinear(y, z))
    return tuple(p - q for p, q in zip(left, right))


class Cochain(Frozen):
    """Alternating p-linear map g^p -> g (adjoint) or -> K (trivial).

    target is one of COEFFS; values maps strictly increasing index tuples
    to a value vector (adjoint) or a scalar (trivial), without zeros.
    """

    __slots__ = ("degree", "dim", "target", "values", "__dict__")

    def __init__(self, degree: int, dim: int, target: str, values=None) -> None:
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "values", {} if values is None else values)

    @classmethod
    def build(cls, degree, dim, target, values) -> Cochain:
        """Normalize a {increasing tuple: value} mapping, dropping zeros."""
        clean = {}
        for key, val in values.items():
            key = tuple(key)
            if len(key) != degree:
                raise ValueError(f"key {key} has wrong arity for degree {degree}")
            if any(not 0 <= i < dim for i in key):
                raise ValueError(f"key {key} outside 0..{dim - 1}")
            if list(key) != sorted(set(key)):
                raise ValueError(f"key {key} is not strictly increasing")
            if target == "adjoint":
                vec = tuple(Fraction(c) for c in val)
                if len(vec) != dim:
                    raise ValueError(f"value for {key} has length {len(vec)}")
                if any(vec):
                    clean[key] = vec
            else:
                c = Fraction(val)
                if c:
                    clean[key] = c
        return cls(degree, dim, target, clean)

    @classmethod
    def zero(cls, degree, dim, target="adjoint") -> Cochain:
        return cls(degree, dim, target, {})

    def is_zero(self) -> bool:
        return not self.values

    def value(self, key):
        """Value on a strictly increasing tuple."""
        if self.target == "adjoint":
            return self.values.get(tuple(key), (ZERO,) * self.dim)
        return self.values.get(tuple(key), ZERO)

    @cached_property
    def scaled_table(self) -> tuple[int, tuple]:
        """A degree-2 adjoint cochain as a bracket table, built once.

        The same (den, rows) as `AlgebraStructure.scaled_table`: den *
        phi(e_i, e_j) for every ordered pair, expanded antisymmetrically.
        """
        if self.degree != 2:
            raise UnsupportedDegree(
                f"a degree-{self.degree} cochain is not a bracket table"
            )
        if self.target != "adjoint":
            raise ValueError("a bracket table needs an adjoint-valued cochain")
        entries = (
            (key, [(k, c) for k, c in enumerate(vec) if c])
            for key, vec in self.values.items()
        )
        return _scaled_rows(self.dim, entries, antisymmetric=True)

    # -- linear structure ----------------------------------------------

    def _binary(self, other, op) -> Cochain:
        if (self.degree, self.dim, self.target) != (
            other.degree,
            other.dim,
            other.target,
        ):
            raise DimensionMismatch("cochain shapes differ")
        keys = set(self.values) | set(other.values)
        vals = {}
        for key in keys:
            a, b = self.value(key), other.value(key)
            if self.target == "adjoint":
                v = tuple(op(x, y) for x, y in zip(a, b))
                if any(v):
                    vals[key] = v
            else:
                v = op(a, b)
                if v:
                    vals[key] = v
        return Cochain(self.degree, self.dim, self.target, vals)

    def __add__(self, other: Cochain) -> Cochain:
        return self._binary(other, lambda a, b: a + b)

    def __sub__(self, other: Cochain) -> Cochain:
        return self._binary(other, lambda a, b: a - b)

    def scale(self, scalar) -> Cochain:
        s = Fraction(scalar)
        if not s:
            return Cochain.zero(self.degree, self.dim, self.target)
        if self.target == "adjoint":
            vals = {k: tuple(s * c for c in v) for k, v in self.values.items()}
        else:
            vals = {k: s * v for k, v in self.values.items()}
        return Cochain(self.degree, self.dim, self.target, vals)

    # -- flat coordinates ------------------------------------------------

    def keys_order(self):
        return list(combinations(range(self.dim), self.degree))

    def flatten(self) -> tuple[Fraction, ...]:
        """Coordinates over (increasing tuple, output index) in lex order."""
        out = []
        for key in self.keys_order():
            val = self.value(key)
            if self.target == "adjoint":
                out.extend(val)
            else:
                out.append(val)
        return tuple(out)

    @classmethod
    def from_flat(cls, degree, dim, target, flat) -> Cochain:
        keys = list(combinations(range(dim), degree))
        vals = {}
        flat = list(flat)
        if target == "adjoint":
            assert len(flat) == len(keys) * dim
            for idx, key in enumerate(keys):
                vec = tuple(Fraction(c) for c in flat[idx * dim : (idx + 1) * dim])
                if any(vec):
                    vals[key] = vec
        else:
            assert len(flat) == len(keys)
            for idx, key in enumerate(keys):
                c = Fraction(flat[idx])
                if c:
                    vals[key] = c
        return cls(degree, dim, target, vals)

    @classmethod
    def from_scaled(cls, degree, dim, den, items) -> Cochain:
        """Adjoint cochain with value vec / den on each (key, {m: int} vec)."""
        vals = {
            key: tuple(Fraction(vec.get(m, 0), den) for m in range(dim))
            for key, vec in items
            if any(vec.values())
        }
        return cls(degree, dim, "adjoint", vals)


def jacobi_sums(outer, inner=None):
    """(den, failures): the mixed Jacobi sums of two tables that do not vanish.

    outer and inner are tables as in `triple_products`; inner defaults to
    outer.  failures lists (key, vec) for every strictly increasing basis
    triple key = (i, j, k), in lex order, whose den * (outer(inner(e_i,
    e_j), e_k) + outer(inner(e_j, e_k), e_i) + outer(inner(e_k, e_i), e_j))
    is the nonzero {m: int} vec, with den = den_outer * den_inner.  For one
    bracket these are its Jacobi sums [[e_i,e_j],e_k] + [[e_j,e_k],e_i] +
    [[e_k,e_i],e_j].  Only these three left nestings of each increasing
    triple are contracted.
    """
    if inner is None:
        inner = outer
    if outer.dim != inner.dim:
        raise DimensionMismatch(
            f"tables of dims {outer.dim} and {inner.dim} cannot be nested"
        )
    den_out, out_rows = outer.scaled_table
    den_in, in_rows = inner.scaled_table
    failures = []
    for key in combinations(range(outer.dim), 3):
        i, j, k = key
        acc: dict[int, int] = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for m, x in in_rows[a][b]:
                for q, y in out_rows[m][c]:
                    acc[q] = acc.get(q, 0) + x * y
        if any(acc.values()):
            failures.append((key, acc))
    return den_out * den_in, failures


def jacobiator(g: AlgebraStructure) -> Cochain:
    """[[x,y],z] + [[y,z],x] + [[z,x],y] as a degree-3 adjoint cochain."""
    if g.kind != "lie":
        raise ValueError("jacobiator needs a lie-kind algebra")
    den, failures = jacobi_sums(g)
    return Cochain.from_scaled(3, g.dim, den, failures)


def is_lie(g: AlgebraStructure):
    """(True, None) if the Jacobi identity holds, else (False, first triple).

    The verdict is `AlgebraStructure.jacobi_witness`, computed once per
    structure.
    """
    witness = g.jacobi_witness
    return witness is None, witness
