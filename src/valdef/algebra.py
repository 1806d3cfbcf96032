"""Finite-dimensional algebras by structure constants, and alternating cochains.

An AlgebraStructure stores the products of basis elements as one integer
table, `scaled_table`: one common denominator and integer constants over
all ordered pairs, in canonical form (gcd(den, every constant) = 1), Lie
tables expanded antisymmetrically from their i < j entries.  Files are read
straight into it (`io`) and printed from it (`commands`).
`AlgebraStructure.scaled` makes the canonical form from integer
constants, and `extent` bounds its entries for the packed contractions of
`nonassoc`.  A degree-2 adjoint Cochain is a bracket table too: its
`scaled_table` is read straight off its canonical values.

For two tables the mixed Jacobi sum (`jacobi_sums`, which contracts only
the three cyclic left nestings of each increasing triple)

    (outer o inner)(x, y, z) = outer(inner(x, y), z) + outer(inner(y, z), x)
                               + outer(inner(z, x), y)

is the Jacobiator when outer = inner is a bracket, and for degree-2
cochains it is the circle product of Gerstenhaber's deformation equation
(`cohomology.circle`).  It is not packed: its callers read the sums by
coordinate, so packed sums would only be unpacked again, and a packed
Jacobi on `nonassoc.nested_products` measured 1.3-1.4x slower (146-162 against 114
us per call over 92 tables of dim 3-8, shared 2-vCPU VM).

Cochains are alternating multilinear maps stored densely over strictly
increasing index tuples, as integers over one denominator: the package's
one cochain format, built from integer sums by `Cochain.scaled` (from
flat coordinates by `Cochain.from_flat`) and added with `+`, the one
arithmetic a command needs on cochains.  No rational view of a table or
a cochain is kept here: the Fraction views that tests compare against
live with the test oracles.  Both types are namedtuples with an instance
dict for their cached properties; the `Sealed` mixin refuses assignment.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from itertools import chain, combinations
from math import gcd

from .errors import DimensionMismatch, UnsupportedDegree

# The vocabulary of the CLI's choices lives here, in a module every command
# loads, so that building the parser imports no subcommand's module.
COEFFS = ("adjoint", "trivial")  # cochain targets: cohomology coefficients
MAX_DEGREE = 3  # highest cohomology degree reported
# subgroups of the permutations of three letters naming the G-associative
# identities (`nonassoc.SubgroupTag`)
SUBGROUPS = ("Id", "T12", "T23", "T13", "A3", "S3")


class Sealed:
    """Refuses every assignment and deletion; `cached_property` writes the
    instance dict directly, so it still caches."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}")


class AlgebraStructure(Sealed, namedtuple("AlgebraStructure", "dim kind scaled_table")):
    """Algebra over Q given by its structure constants.

    kind is "lie" or "assoc".  scaled_table is (den, rows): den * e_i e_j
    is the sum of c * e_k over (k, c) in rows[i][j], for every ordered
    pair (i, j).  Each row is sorted by k and holds no zero c, and
    gcd(den, every c) = 1, so equal algebras compare and hash equal.  The
    constructor stores its arguments as given: `scaled` makes the
    canonical form.
    """

    @classmethod
    def scaled(cls, dim: int, kind: str, den: int, table) -> AlgebraStructure:
        """table / den in canonical form, for a positive integer den: the
        one builder of an algebra's `scaled_table`, in one pass over table.

        table maps pairs (i, j) to {k: c}, the integer constants of den *
        e_i e_j; a lie table holds only i < j and is expanded
        antisymmetrically.  Raises ValueError at the first entry, in table
        order, whose pair is outside 0..dim-1, whose lie pair has i >= j, or
        whose out index is outside 0..dim-1.  Each entry becomes its row as
        it is checked: sorted by k, zeros dropped, divided by the content of
        den and the constants, which is taken only when den > 1.
        """
        lie, rows = kind == "lie", [[()] * dim for _ in range(dim)]
        values = (c for out in table.values() for c in out.values())
        common = gcd(den, *values) if den > 1 else 1
        for (i, j), out in table.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise ValueError(f"pair ({i},{j}) outside 0..{dim - 1}")
            if lie and i >= j:
                raise ValueError(
                    f"lie table key ({i},{j}) must satisfy i < j; "
                    "the bracket is extended antisymmetrically"
                )
            items = sorted(out.items())
            if items and not (0 <= items[0][0] and items[-1][0] < dim):
                k = next(k for k in out if not 0 <= k < dim)
                raise ValueError(f"basis index {k} outside 0..{dim - 1}")
            rows[i][j] = row = tuple([(k, c // common) for k, c in items if c])
            if lie:
                rows[j][i] = tuple([(k, -c) for k, c in row])
        return cls(dim, kind, (den // common, tuple(map(tuple, rows))))

    # -- evaluation ---------------------------------------------------

    def bilinear(self, x, y) -> tuple:
        """Bilinear extension of the table to coefficient vectors, as Fractions."""
        # no package caller: kept for perfbench/tracer.py, which wraps it by
        # name, and moved to tests/gens.py once the tracer's LAYERS drop it
        from fractions import Fraction

        if len(x) != self.dim or len(y) != self.dim:
            raise DimensionMismatch(
                f"vectors of length {len(x)},{len(y)} in a dim-{self.dim} algebra"
            )
        den, rows = self.scaled_table
        out = [Fraction(0)] * self.dim
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
    def extent(self) -> tuple[int, int]:
        """(longest row, largest |c|) of `scaled_table`, found once."""
        rows = [row for r in self.scaled_table[1] for row in r if row]
        return max(map(len, rows), default=0), max(
            (abs(c) for row in rows for _, c in row), default=0
        )

    @cached_property
    def jacobi_witness(self) -> tuple[int, int, int] | None:
        """The first basis triple whose Jacobi sum is nonzero, None if the
        Jacobi identity holds; found once (lie kind only)."""
        if self.kind != "lie":
            raise ValueError("is_lie needs a lie-kind algebra")
        _, failures = jacobi_sums(self)
        return failures[0][0] if failures else None


def associator(a: AlgebraStructure, x, y, z) -> tuple:
    """(xy)z - x(yz) for an assoc-kind table."""
    if a.kind != "assoc":
        raise ValueError("associator needs an assoc-kind table")
    left = a.bilinear(a.bilinear(x, y), z)
    right = a.bilinear(x, a.bilinear(y, z))
    return tuple(p - q for p, q in zip(left, right))


class Cochain(Sealed, namedtuple("Cochain", "degree dim target den values")):
    """Alternating p-linear map g^p -> g (adjoint) or -> K (trivial).

    target is one of COEFFS.  The values are integers over one positive
    den in canonical form, gcd(den, every integer) = 1 as in
    `series.canonical`, so equal cochains compare and hash equal.
    values maps strictly increasing index tuples to the nonzero vectors
    of `width` ints (K is K^1), each over den.  The constructor stores its
    arguments as given: `scaled` makes the canonical form.
    """

    def __hash__(self) -> int:
        values = frozenset(self.values.items())
        return hash((self.degree, self.dim, self.target, self.den, values))

    @classmethod
    def scaled(cls, degree, dim, target, den, values) -> Cochain:
        """values / den in canonical form, for a positive integer den: values
        maps keys (not checked) to sequences of `width` ints, zero vectors
        are dropped and the common content is divided out."""
        vals = {key: tuple(vec) for key, vec in values.items() if any(vec)}
        common = gcd(den, *chain.from_iterable(vals.values()))
        if common != 1:
            den //= common
            vals = {key: tuple(x // common for x in v) for key, v in vals.items()}
        return cls(degree, dim, target, den, vals)

    @classmethod
    def from_flat(cls, degree, dim, target, den, flat) -> Cochain:
        """flat / den in canonical form, for a positive integer den and den
        times the coordinates in the order of `flat_nums`: its inverse."""
        width = dim if target == "adjoint" else 1
        keys = combinations(range(dim), degree)
        values = {key: flat[r * width : (r + 1) * width] for r, key in enumerate(keys)}
        return cls.scaled(degree, dim, target, den, values)

    @property
    def width(self) -> int:
        """Length of a value vector: dim (adjoint) or 1 (trivial)."""
        return self.dim if self.target == "adjoint" else 1

    def is_zero(self) -> bool:
        return not self.values

    @cached_property
    def scaled_table(self) -> tuple[int, tuple]:
        """A degree-2 adjoint cochain as a bracket table, built once.

        The (den, rows) that `AlgebraStructure.scaled` makes of it, read
        straight off the canonical values with keys i < j: den * phi(e_i,
        e_j) for every ordered pair, expanded antisymmetrically.
        """
        if self.degree != 2:
            raise UnsupportedDegree(
                f"a degree-{self.degree} cochain is not a bracket table"
            )
        if self.target != "adjoint":
            raise ValueError("a bracket table needs an adjoint-valued cochain")
        rows = [[()] * self.dim for _ in range(self.dim)]
        for (i, j), vec in self.values.items():
            rows[i][j] = row = tuple([(k, c) for k, c in enumerate(vec) if c])
            rows[j][i] = tuple([(k, -c) for k, c in row])
        return self.den, tuple(map(tuple, rows))

    def __add__(self, other: Cochain) -> Cochain:
        """self + other over the lcm of the two denominators."""
        shape = (self.degree, self.dim, self.target)
        if shape != (other.degree, other.dim, other.target):
            raise DimensionMismatch("cochain shapes differ")
        a, b = self.den, other.den
        common = gcd(a, b)
        fa, fb = b // common, a // common
        mine, theirs, zero = self.values, other.values, (0,) * self.width
        vals = {}
        for key in mine.keys() | theirs.keys():
            pairs = zip(mine.get(key, zero), theirs.get(key, zero))
            vals[key] = [x * fa + y * fb for x, y in pairs]
        return Cochain.scaled(*shape, a * fa, vals)

    # -- flat coordinates ------------------------------------------------

    @cached_property
    def flat_nums(self) -> tuple[int, ...]:
        """den times the coordinates over (increasing tuple, output index)
        in lex order, as integers; built once."""
        zero = (0,) * self.width
        keys = combinations(range(self.dim), self.degree)
        vecs = (self.values.get(key, zero) for key in keys)
        return tuple(chain.from_iterable(vecs))


def check_key(key: tuple, degree: int, dim: int) -> None:
    """Raise ValueError unless key holds degree increasing indices in 0..dim-1."""
    if len(key) != degree:
        raise ValueError(f"key {key} has wrong arity for degree {degree}")
    if any(not 0 <= i < dim for i in key):
        raise ValueError(f"key {key} outside 0..{dim - 1}")
    if list(key) != sorted(set(key)):
        raise ValueError(f"key {key} is not strictly increasing")


def jacobi_sums(outer, inner=None):
    """(den, failures): the mixed Jacobi sums of two tables that do not vanish.

    outer and inner are tables with a `scaled_table`; inner defaults to
    outer.  failures lists (key, vec) for every strictly increasing basis
    triple key = (i, j, k), in lex order, whose den * (outer(inner(e_i,
    e_j), e_k) + outer(inner(e_j, e_k), e_i) + outer(inner(e_k, e_i), e_j))
    is vec, a nonzero list of dim ints, with den = den_outer * den_inner,
    so that failures is the {key: vec} data of `Cochain.scaled`.  For one
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
        acc = [0] * outer.dim
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for m, x in in_rows[a][b]:
                for q, y in out_rows[m][c]:
                    acc[q] += x * y
        if any(acc):
            failures.append((key, acc))
    return den_out * den_in, failures


def jacobiator(g: AlgebraStructure) -> Cochain:
    """[[x,y],z] + [[y,z],x] + [[z,x],y] as a degree-3 adjoint cochain."""
    if g.kind != "lie":
        raise ValueError("jacobiator needs a lie-kind algebra")
    den, failures = jacobi_sums(g)
    return Cochain.scaled(3, g.dim, "adjoint", den, dict(failures))


def is_lie(g: AlgebraStructure):
    """(True, None) if the Jacobi identity holds, else (False, first triple).

    The verdict is `AlgebraStructure.jacobi_witness`, computed once per
    structure.
    """
    witness = g.jacobi_witness
    return witness is None, witness
