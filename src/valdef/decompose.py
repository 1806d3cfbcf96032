"""Finite flag decomposition of vectors over the maximal ideal.

A vector w in m^k is rewritten as b1*V1 + b1*b2*V2 + ... + b1...bh*Vh
with each b in m and the V's independent over Q.  Each step reads the
lowest t-order of the remaining vector, peels off the corresponding
direction, and divides the residual by the step coefficient (in value;
the integer rows below are never divided).  The pivot coordinate of the
residual vanishes exactly, so the recursion depth is bounded by the
ambient dimension.  The subspace chain spanned by the V prefixes does
not depend on the pivot rule: `flag_of` writes each of its levels as a
canonical basis, so equal flags have equal chains.

The vector is the `(den, rows)` of a vector file or of a deformation's
perturbation: row i over den is component i, and the rows hold t^0 ..
t^cap.  The residual is kept undivided, as in fraction-free elimination
(Bareiss 1968): it is num*U/(den*D), with U the integer rows and D the
unit part of the previous pivot row, both shifted down by the valuations
peeled so far and cut to the residual's cap.  D is a unit, so a step
reads the lowest order v and the lead integers l_i off U.  With lp the
pivot row's lead and b = num*U_p/(den*D), subtracting b times the
direction and dividing by b leaves (lp*U_i - l_i*U_p)/(lp*U_p): num,
den and D cancel.  So each row costs O(cap), U_p shifted by t^v is the
next D, and the contents of the new U and D go into num and den.  The
only series division is b itself: one `series.inverse_nums` of D and one
`series.mul_nums` per step, none while D is 1 as at the first step.  The
residual after step k is U^(k) over U^(k-1)_(p_k), up to a rational
scale and a power of t, so b1...bk telescopes to U^(k-1)_(p_k) alike.
The pivot row and every row that vanishes are dropped: a zero row stays
zero for good.  Each direction is the integers l_i over lp in lowest
terms, the sign folded into the l_i.  `recompose` reads only the steps:
it keeps the running product b1...bi as integers (`series.mul_nums`) and
returns the sum as a canonical (den, rows).

`flag_of` builds the chain one step at a time on one reduced integer
echelon, with `linalg`'s fraction-free elimination step: each step vector
is reduced against the rows so far, and a new lead column is cleared from
the earlier rows, so no level is row-reduced from scratch.  Only the rows
a step changed are written out again.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain
from math import gcd, lcm

from . import linalg
from .errors import NotInMaximalIdeal, PrecisionExhausted, ZeroVector
from .series import TruncSeries, inverse_nums, lowest_terms, mul_nums, ratio_str

# coefficient: a TruncSeries in m, nonzero at its cap; vector / den: the
# pivot-normalized direction in K^k, ints over den > 0 in lowest terms
FlagStep = namedtuple("FlagStep", "coefficient den vector")


class FlagDecomposition(
    namedtuple("FlagDecomposition", "steps ambient_dim cap")
):
    """FlagSteps over K^ambient_dim; cap is that of the last (shortest)
    coefficient."""

    __slots__ = ()

    @property
    def length(self) -> int:
        return len(self.steps)


class Flag(namedtuple("Flag", "chain")):
    """Increasing chain of subspaces, each as a canonical basis: its RREF
    rows, each times its lead entry, a primitive integer tuple."""

    __slots__ = ()

    @property
    def length(self) -> int:
        return len(self.chain)


def decompose(den: int, rows, pivot_order: str = "first") -> FlagDecomposition:
    """Flag decomposition of the vector whose component i is rows[i] / den,
    each row the integers of t^0 .. t^cap, every component in m.

    pivot_order picks which coordinate with nonzero leading coefficient
    anchors each step: "first" (lowest index, the default) or "last".
    The resulting subspace flag is the same either way.
    """
    if pivot_order not in ("first", "last"):
        raise ValueError(f"unknown pivot order {pivot_order!r}")
    for idx, row in enumerate(rows):
        if row[0]:
            raise NotInMaximalIdeal(
                f"component {idx} has constant term {ratio_str(row[0], den)}"
            )
    if not any(map(any, rows)):
        raise ZeroVector("cannot decompose a vector that is zero at its cap")
    dim, cap = len(rows), len(rows[0]) - 1
    # the residual is num * U / (den * D): U the undivided integer rows and
    # D the unit part of the previous pivot row, primitive with a positive
    # lead, both cut to the residual's cap.  A row that is zero at the cap
    # stays zero for good, so only the nonzero rows of U are kept, by index.
    rows = {i: row for i, row in enumerate(rows) if any(row)}
    unit, num = [1] + [0] * cap, 1
    steps = []
    while True:
        # D is a unit, so U's lowest order and lead integers are the
        # residual's, over a scale that cancels from the direction
        lead = {}
        v = cap + 1
        for i, row in rows.items():
            val = next(k for k, x in enumerate(row) if x)
            if val < v:
                v, lead = val, {i: row[val]}
            elif val == v:
                lead[i] = row[val]
        pivot = min(lead) if pivot_order == "first" else max(lead)
        lp = lead[pivot]
        # the direction lead / lp in lowest terms over a positive denominator
        common = gcd(*lead.values()) if lp > 0 else -gcd(*lead.values())
        vector = tuple(lead[i] // common if i in lead else 0 for i in range(dim))
        head = rows.pop(pivot)
        # the step coefficient b = num * head / (den * D) is the one series
        # division of the step: D's inverse is inverse_nums(D) / D0^(cap+1)
        if any(unit[1:]):
            head_nums = mul_nums(head, inverse_nums(unit), cap)
            scale = den * unit[0] ** (cap + 1)
        else:  # a constant D is 1, as before the first step
            head_nums, scale = head, den
        coefficient = TruncSeries(scale, [num * x for x in head_nums])
        steps.append(FlagStep(coefficient, lp // common, vector))
        # fraction-free residual lp*U_i - l_i*head from t^v on (every row
        # vanishes below t^v).  The residual divided by b is these rows over
        # lp*head: num, den and D cancel, and head becomes the next D
        head = head[v:]
        residual = {}
        for i, row in rows.items():
            li = lead.get(i)
            if li is None:
                residual[i] = [lp * x for x in row[v:]]
                continue
            r = [lp * x - li * y for x, y in zip(row[v:], head)]
            if any(r):
                residual[i] = r
        if not residual:
            break
        if cap - v < 1:
            # unreachable with b taken from the vector itself (the residual
            # would be zero at cap first), kept as a guard on the contract
            raise PrecisionExhausted(
                f"dividing by a valuation-{v} coefficient leaves cap {cap - v}"
            )
        cap -= v
        # U's content goes into num and head's into den: the residual is
        # num * U / (den * D) again, every entry of U and D an integer
        num = gcd(*chain.from_iterable(residual.values()))
        content = gcd(*head) if lp > 0 else -gcd(*head)
        den = lp * content
        rows = {i: [x // num for x in r] for i, r in residual.items()}
        unit = [x // content for x in head]
    return FlagDecomposition(
        steps=tuple(steps), ambient_dim=dim, cap=steps[-1].coefficient.cap
    )


def recompose(d: FlagDecomposition, cap: int | None = None):
    """Evaluate sum of (b1...bi) * Vi exactly at the given cap, as the
    canonical (den, rows) of a vector.

    The running products b1...bi are integer series, each over its own
    denominator, and the sum is one integer matrix over their common
    denominator.
    """
    if cap is None:
        cap = d.cap
    if d.steps and cap > min(s.coefficient.cap for s in d.steps):
        raise PrecisionExhausted(
            f"cap {cap} exceeds the precision of the decomposition"
        )
    running, rden = [1] + [0] * cap, 1
    products, scales = [], []
    for step in d.steps:
        running = mul_nums(running, step.coefficient.nums, cap)
        rden *= step.coefficient.den
        products.append(running)
        scales.append(rden * step.den)
    # one common denominator for every term x * running / (rden * step.den)
    den = lcm(*scales)
    rows = []
    for i in range(d.ambient_dim):
        row = [0] * (cap + 1)
        for r, step, running in zip(scales, d.steps, products):
            x = step.vector[i]
            if x:
                m = x * (den // r)
                row = [u + m * y for u, y in zip(row, running)]
        rows.append(row)
    return lowest_terms(den, rows)


def flag_of(d: FlagDecomposition) -> Flag:
    """Chain of row-reduced bases of span(V1..Vi) for i = 1..h.

    One reduced integer echelon is kept from level to level: a primitive
    row per lead column, and no lead column in any other row.  Each step's
    integer vector is reduced against it with `linalg._cancel`.  What is
    left, if anything, becomes the row of a new lead column, and that
    column is cleared from the earlier rows.  A level is its rows in lead
    order, each a dense tuple with a positive lead: the canonical RREF
    basis of its prefix, as `linalg.row_space` writes it, times the leads.
    A row that did not change keeps its tuple from the level before, and a
    step that adds nothing repeats the level.
    """
    ncols = d.ambient_dim
    pivots: dict[int, dict] = {}  # lead column -> primitive integer row
    written: dict[int, tuple] = {}  # lead column -> dense row, lead > 0
    chain = []
    level = ()
    for step in d.steps:
        vec = {c: x for c, x in enumerate(step.vector) if x}
        # the other pivot rows are zero at a pivot's lead column, so each
        # cancellation leaves the remaining lead columns of vec in place
        for lead in [c for c in vec if c in pivots]:
            vec = linalg._cancel(vec, pivots[lead], lead)
        if vec:
            new = min(vec)
            vec = linalg._primitive(vec)
            for lead, row in pivots.items():
                if new in row:
                    pivots[lead] = linalg._cancel(row, vec, new)
                    del written[lead]
            pivots[new] = vec
            for lead in pivots.keys() - written.keys():
                row = pivots[lead]
                sign = 1 if row[lead] > 0 else -1
                written[lead] = tuple(sign * row.get(c, 0) for c in range(ncols))
            level = tuple(written[lead] for lead in sorted(written))
        chain.append(level)
    return Flag(chain=tuple(chain))
