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
next D, and the contents of the new U and D go into num and den (rows
are divided by num only when it is not 1).  Only the rows of the lead
set are combined with U_p; every other row is lp times itself shifted
down by t^v, so its valuation drops by v and is carried, not rescanned,
and its content is read before the shift.  The only series division is
b itself: one fraction-free `series.div_nums` of U_p by D per step, none
while D is 1 as at the first step.  The residual after step k is U^(k)
over U^(k-1)_(p_k), up to a rational scale and a power of t, so
b1...bk telescopes to U^(k-1)_(p_k) alike.
The pivot row and every row that vanishes are dropped: a zero row stays
zero for good.  Each direction is the integers l_i over lp in lowest
terms, the sign folded into the l_i, and each b an integer series
`(den, nums)` in lowest terms (`series.canonical`).  `recompose` reads
only the steps: it keeps the running products b1...bi
(`series.running_products`) and returns the sum of b1...bi * Vi
(`series.combination`) as a canonical (den, rows).

`flag_of` grows one back-substituted echelon through `linalg`'s public
API alone: each step vector goes in with `linalg.insert_reduced`, which
clears only the new lead column, so no level is row-reduced from scratch
and only `linalg` decides how a row is reduced and stored.  A level
writes again only the rows its step changes.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain
from math import gcd

from . import linalg
from .errors import NotInMaximalIdeal, PrecisionExhausted, ZeroVector
from .series import canonical, combination, div_nums, lowest_terms
from .series import ratio_str, running_products

# coefficient: an integer series (den, nums) in m, canonical and nonzero at
# its cap; vector / den: the pivot-normalized direction in K^k, den > 0, reduced
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


def decompose(
    den: int, rows, pivot_order: str = "first", each_step=None
) -> FlagDecomposition:
    """Flag decomposition of the vector whose component i is rows[i] / den,
    each row the integers of t^0 .. t^cap, every component in m.

    pivot_order picks which coordinate with nonzero leading coefficient
    anchors each step: "first" (lowest index, the default) or "last".
    The resulting subspace flag is the same either way.  each_step, when
    given, is called with each FlagStep as soon as it is found, so a caller
    can refuse a step before the later ones are computed.
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
    # stays zero for good, so only the nonzero rows of U are kept, by index,
    # each with its valuation
    rows = {i: row for i, row in enumerate(rows) if any(row)}
    # the first nonzero entry's value, then its index: two scans in C
    vals = {i: row.index(next(filter(None, row))) for i, row in rows.items()}
    unit, num = [1] + [0] * cap, 1
    steps = []
    while True:
        # D is a unit, so U's lowest order and lead integers are the
        # residual's, over a scale that cancels from the direction
        v = min(vals.values())
        lead = {i: rows[i][v] for i, val in vals.items() if val == v}
        pivot = min(lead) if pivot_order == "first" else max(lead)
        lp = lead[pivot]
        # the direction lead / lp in lowest terms over a positive denominator
        common = gcd(*lead.values()) if lp > 0 else -gcd(*lead.values())
        vector = [0] * dim
        for i, li in lead.items():
            vector[i] = li // common
        head = rows.pop(pivot)
        del vals[pivot]
        # the step coefficient b = num * head / (den * D) is the one series
        # division of the step: div_nums(head, D) over D0^(cap+1)
        if any(unit[1:]):
            head_nums = div_nums(head, unit, cap)
            scale = den * unit[0] ** (cap + 1)
        else:  # a constant D is 1, as before the first step
            head_nums, scale = head, den
        if num != 1:
            head_nums = [num * x for x in head_nums]
        coefficient = canonical(scale, head_nums)
        step = FlagStep(coefficient, lp // common, tuple(vector))
        steps.append(step)
        if each_step is not None:
            each_step(step)
        # fraction-free residual lp*U_i - l_i*head from t^v on (every row
        # vanishes below t^v).  The residual divided by b is these rows over
        # lp*head: num, den and D cancel, and head becomes the next D.  Only
        # the rows of the lead set are combined with head and scanned for
        # their new valuation
        head = head[v:]
        combined = {}
        for i, li in lead.items():
            if i != pivot:
                r = [lp * x - li * y for x, y in zip(rows.pop(i)[v:], head)]
                first = next(filter(None, r), 0)
                if first:
                    combined[i], vals[i] = r, r.index(first)
                else:
                    del vals[i]
        if not (rows or combined):
            break
        if cap - v < 1:
            # unreachable with b taken from the vector itself (the residual
            # would be zero at cap first), kept as a guard on the contract
            raise PrecisionExhausted(
                f"dividing by a valuation-{v} coefficient leaves cap {cap - v}"
            )
        cap -= v
        # U's content goes into num and head's into den: the residual is
        # num * U / (den * D) again, every entry of U and D an integer.  A
        # row outside the lead set is lp times itself moved down v orders:
        # its content is read before the shift, and it is multiplied and
        # divided in one pass, its valuation down by v
        outside = gcd(*chain.from_iterable(rows.values()))
        num = gcd(lp * outside, *chain.from_iterable(combined.values()))
        content = gcd(*head) if lp > 0 else -gcd(*head)
        den = lp * content
        for i, row in rows.items():
            rows[i] = [lp * x // num for x in row[v:]]
            vals[i] -= v
        if num == 1:
            rows.update(combined)
        else:
            rows.update((i, [x // num for x in r]) for i, r in combined.items())
        unit = [x // content for x in head]
    return FlagDecomposition(steps=tuple(steps), ambient_dim=dim, cap=cap)


def recompose(d: FlagDecomposition):
    """Evaluate sum of (b1...bi) * Vi exactly at the decomposition's cap,
    as the canonical (den, rows) of a vector: `series.running_products`
    and `series.combination` over one common denominator.
    """
    products = running_products((s.coefficient for s in d.steps), d.cap)
    terms = [(b, s.den, s.vector) for b, s in zip(products, d.steps)]
    return lowest_terms(*combination(terms, d.ambient_dim, d.cap))


def flag_of(d: FlagDecomposition) -> Flag:
    """Chain of row-reduced bases of span(V1..Vi) for i = 1..h.

    Each step's integer vector goes into one back-substituted echelon with
    `linalg.insert_reduced`.  When that adds a pivot row the level is
    written out: its rows in lead order, each a dense tuple with a positive
    lead, the canonical RREF basis of its prefix, as `linalg.row_space`
    writes it, times the leads.  A step that adds nothing repeats the level.

    Only the rows a step changes are written again.  With p the new lead,
    the RREF row of an old lead in the larger span is the old row minus
    its entry at p times the new row, so it changes exactly when the old
    row holds column p; every other row keeps its tuple, the same object
    from level to level.  The level's rows, not the echelon's, say which
    old rows hold p.  Under the "first" pivot order V_k vanishes at every
    earlier pivot and starts at p_k, so it goes in as it stands and only
    column p_k is cleared from the rows that hold it.
    """
    ncols = d.ambient_dim
    pivots: dict[int, dict] = {}  # lead column -> primitive integer row
    dense: dict[int, tuple] = {}  # lead column -> the level's row
    chain = []
    level = ()
    for step in d.steps:
        vec = {c: x for c, x in enumerate(step.vector) if x}
        new = linalg.insert_reduced(pivots, vec)
        if new is not None:
            changed = [lead for lead, row in dense.items() if row[new]]
            for lead in changed + [new]:
                row, out = pivots[lead], [0] * ncols
                sign = 1 if row[lead] > 0 else -1
                for c, x in row.items():
                    out[c] = sign * x
                dense[lead] = tuple(out)
            level = tuple(dense[lead] for lead in sorted(dense))
        chain.append(level)
    return Flag(chain=tuple(chain))
