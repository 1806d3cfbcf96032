"""Valued deformations of Lie algebras over capped Q[[t]].

A Deformation holds a base Lie algebra and an ordered list of
(series coefficient in m, degree-2 cochain) terms; the deformed bracket
is mu + sum coeff_i * phi_i.  Each coefficient is an integer series
`(den, nums)` in lowest terms (`series.canonical`).  Coefficients of a
decomposed deformation are the running products b1...bi of the flag
decomposition's step coefficients (`series.running_products`), so the
individual factors are recoverable by exact division.  Validity always
means "zero Jacobi residual up to the cap": higher orders are unknown,
and every report carries the cap.

The perturbation mu_t - mu is one integer matrix over one denominator,
`(den, rows)` from `Deformation.perturbation`, the sum of coeff_i * phi_i
(`series.combination`).  With n the dimension of the base and s the
index of the pair (i, j), i < j, in lex order, row s * n + k holds the
numerators of the t^0 .. t^cap coefficients of the e_k coordinate of
mu_t(e_i, e_j) - mu(e_i, e_j) over den: the slot order of
`Cochain.flat_nums`, so the matrix is the flattened perturbation that
the flag decomposition reads, and every row vanishes at t^0.  The
decomposition reads this matrix with one series product per flag step,
not per row; the gauge transport and the polynomial-form check multiply
its rows as integer series with `series.mul_nums`.  A gauge endomorphism
is a `(den, rows)` too, rows[r][c] the numerators of entry (r, c), so
`transport` reads its columns off the rows.  Residuals, flag directions
and transported terms are integer cochains over one denominator.  The
graded system takes delta(phi_k) = mu o phi_k + phi_k o mu and the
brackets from the circle product, and decides every membership of one
order with one `linalg.solve` on the cochains' integer coordinates; each
coefficient is an integer pair over a positive denominator.

Deformation files are read and printed here, the module of the `deform`
command: `parse_deformation` reads the base (inline or by path, through
`io`), the cap and each term, a series literal (`series`) with a
degree-2 adjoint cochain (`parse_cochain`), every literal of the file
parsed once; `deformation_doc` and `cochain_doc` print them back, each
entry in lowest terms.
"""

from __future__ import annotations

import os
from collections import namedtuple
from functools import cache
from itertools import combinations
from math import lcm

from . import linalg
from .algebra import Cochain, check_key, jacobi_sums
from .cohomology import circle, super_bracket
from .decompose import decompose
from .errors import (
    DimensionMismatch,
    FormatError,
    InvalidDeformation,
    NotInMaximalIdeal,
    PrecisionExhausted,
)
from .io import load_algebra, parse_algebra, read_int, read_literal
from .series import canonical, combination, lowest_terms, mul_nums, over_lcm
from .series import parse_series_literal, ratio_str, read_cap, require_series_cells
from .series import running_products, series_literal


class Deformation(namedtuple("Deformation", "base cap terms")):
    """A Lie base, a cap and the (integer series in m, degree-2 Cochain) terms."""

    __slots__ = ()

    @classmethod
    def build(cls, base, cap, terms) -> Deformation:
        """Validate and normalize: coefficients in m, truncated to cap."""
        if base.kind != "lie":
            raise ValueError("deformations are built over a lie-kind base")
        if cap < 1:
            raise PrecisionExhausted(f"cap {cap} leaves no room for m")
        norm = []
        for (den, nums), phi in terms:
            if len(nums) <= cap:
                raise PrecisionExhausted(
                    f"coefficient cap {len(nums) - 1} below deformation cap {cap}"
                )
            if nums[0]:
                raise NotInMaximalIdeal(
                    "term coefficient has a nonzero constant term"
                )
            if phi.degree != 2 or phi.target != "adjoint" or phi.dim != base.dim:
                raise DimensionMismatch(
                    "terms need degree-2 adjoint cochains over the base"
                )
            if any(nums[: cap + 1]) and not phi.is_zero():
                norm.append((canonical(den, nums[: cap + 1]), phi))
        return cls(base=base, cap=cap, terms=tuple(norm))

    def perturbation(self) -> tuple[int, list[list[int]]]:
        """mu_t - mu as the integer matrix (den, rows) of the module
        docstring, from each cochain's `flat_nums`, in the matrix's row order."""
        n = self.base.dim
        rows = n * n * (n - 1) // 2
        require_series_cells(rows, self.cap, "perturbation rows")
        terms = [(coeff, phi.den, phi.flat_nums) for coeff, phi in self.terms]
        return combination(terms, rows, self.cap)


def jacobi_residual(d: Deformation) -> dict:
    """Expansion of mu_t o mu_t by t-order; {} means valid up to the cap.

    With mu_t = 1 * mu + sum c_i * phi_i, the t^p part is the sum over
    ordered pairs of terms of the t^p coefficient of c_i * c_j times the
    mixed Jacobi sum phi_i o phi_j (`algebra.jacobi_sums`); mu o mu is the
    Jacobiator of the base and mu o phi + phi o mu the coboundary of phi.
    Everything is summed on integers over one common denominator.
    """
    terms = [((1, (1,) + (0,) * d.cap), d.base), *d.terms]
    parts = []
    for (di, ci), outer in terms:
        for (dj, cj), inner in terms:
            den, sums = jacobi_sums(outer, inner)
            if sums:
                parts.append((mul_nums(ci, cj, d.cap), di * dj * den, sums))
    common = lcm(1, *(den for _, den, _ in parts))
    by_order: dict[int, dict] = {}  # t-power -> {triple: dim ints}
    zero = (0,) * d.base.dim
    for nums, den, sums in parts:
        scale = common // den
        for p, x in enumerate(nums):
            if not x:
                continue
            acc, w = by_order.setdefault(p, {}), x * scale
            for key, vec in sums:
                prev = acc.get(key, zero)
                acc[key] = [u + w * v for u, v in zip(prev, vec)]
    residuals = {}
    for p, acc in by_order.items():
        c = Cochain.scaled(3, d.base.dim, "adjoint", common, acc)
        if not c.is_zero():
            residuals[p] = c
    return residuals


def decompose_deformation(d: Deformation) -> Deformation:
    """Rewrite d's perturbation in decomposed (flag) form.

    The perturbation matrix is decomposed over m, each flag vector (its
    integers over its den) is reinterpreted as a 2-cochain, and the
    cumulative products b1...bi become the term coefficients.  The cochains
    are independent and the term count is bounded by n^2(n-1)/2.
    """
    den, rows = d.perturbation()
    if not any(map(any, rows)):
        return Deformation(d.base, d.cap, ())
    fd = decompose(den, rows)
    n = d.base.dim
    products = running_products((step.coefficient for step in fd.steps), fd.cap)
    terms = []
    for running, step in zip(products, fd.steps):
        terms.append((running, Cochain.from_flat(2, n, "adjoint", step.den, step.vector)))
    return Deformation.build(d.base, fd.cap, terms)


# coefficients maps (i, j) to a rational (num, den), den > 0, when holds
MembershipVerdict = namedtuple("MembershipVerdict", "holds coefficients")


class GradedSystem(
    namedtuple("GradedSystem", "delta_memberships bracket_memberships")
):
    """Order-by-order verdicts of a valid deformation: delta_memberships
    maps k to the MembershipVerdict for delta(phi_k), and
    bracket_memberships maps (i, k) to the one for [phi_i, phi_k]."""

    __slots__ = ()

    @property
    def satisfied(self) -> bool:
        return all(v.holds for v in self.delta_memberships.values()) and all(
            v.holds for v in self.bracket_memberships.values()
        )


def _membership(span, targets) -> list[MembershipVerdict]:
    """The MembershipVerdict of each target cochain in the span's, from
    one `linalg.solve` on their `flat_nums`: d * T = sum of x[p] * N_p,
    with the free coordinates zero, as in `linalg.solve_combination`.
    Span cochain p, N_p / den_p, then has the coefficient x[p] * den_p /
    (d * den) for a target T / den.
    """
    cochains = [sb for _, sb in span] + targets
    columns = [{c: x for c, x in enumerate(f.flat_nums) if x} for f in cochains]
    m = len(span)
    verdicts = []
    for target, solution in zip(targets, linalg.solve(columns[:m], columns[m:])):
        if solution is None:
            verdicts.append(MembershipVerdict(False, None))
            continue
        d, x = solution
        coefficients = {
            span[p][0]: (v * span[p][1].den, d * target.den) for p, v in x.items()
        }
        verdicts.append(MembershipVerdict(True, coefficients))
    return verdicts


def graded_system(d: Deformation) -> GradedSystem:
    """Per-index membership verdicts for the order-by-order equations.

    For each k >= 2 it reports whether delta(phi_k) and each [phi_i, phi_k]
    lie in span{[phi_i, phi_j] : 1 <= i <= j <= k-1}, with the recovered
    combination coefficients.  Indices are 1-based to match the term order.
    delta(phi_k) is mu o phi_k + phi_k o mu, and each order is one solve.
    """
    bad = jacobi_residual(d)
    if bad:
        raise InvalidDeformation(
            f"nonzero Jacobi residual at order t^{min(bad)} (cap {d.cap})"
        )
    phis = [phi for _, phi in d.terms]

    @cache
    def bracket(i, j):
        """[phi_i, phi_j] for 0-based i <= j, computed once per call."""
        return super_bracket(phis[i], phis[j])

    delta_memberships = {}
    bracket_memberships = {}
    for k in range(2, len(phis) + 1):
        span = [
            ((i + 1, j + 1), bracket(i, j))
            for i in range(k - 1)
            for j in range(i, k - 1)
        ]
        phi = phis[k - 1]
        delta = circle(d.base, phi) + circle(phi, d.base)
        targets = [delta] + [bracket(i, k - 1) for i in range(k - 1)]
        delta_memberships[k], *verdicts = _membership(span, targets)
        bracket_memberships.update(((i, k), v) for i, v in enumerate(verdicts, 1))
    return GradedSystem(
        delta_memberships=delta_memberships,
        bracket_memberships=bracket_memberships,
    )


# -- gauge transport --------------------------------------------------


def _check_unipotent(f):
    den, rows = f
    for r, row in enumerate(rows):
        for c, entry in enumerate(row):
            if entry[0] != (den if r == c else 0):
                raise NotInMaximalIdeal(
                    f"endomorphism entry ({r},{c}) has constant term "
                    f"{ratio_str(entry[0], den)}; expected Id + h with h into m"
                )


def series_matrix_mul(a, b, cap):
    # no package caller: kept for perfbench/tracer.py, which wraps it by
    # name, and moved to tests/gens.py once the tracer's LAYERS drop it
    from .series import TruncSeries

    n = len(a)
    out = []
    for r in range(n):
        row = []
        for c in range(n):
            acc = TruncSeries.zero(cap)
            for k in range(n):
                acc = acc + a[r][k].truncate(cap) * b[k][c].truncate(cap)
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def series_matrix_inverse(f, cap):
    """Inverse of Id + H with H into m, exact up to t^cap, as a canonical
    (den, rows) endomorphism.

    With H_i the t^i coefficient matrix of H, the inverse G = sum G_k t^k
    satisfies G_0 = Id and G_k = -sum_{i=1..k} H_i G_(k-i): the same
    truncated series as the Neumann sum of (-H)^i, at O(cap^2 n^3) cost.
    f is first cut to t^cap and put in lowest terms again over D, and the
    recursion runs on the integer matrices D * H_i and D^k * G_k.  Raises
    NotInMaximalIdeal unless f is Id + H with H into m, and
    PrecisionExhausted when cap exceeds f's.
    """
    _check_unipotent(f)
    den, rows = f
    n, fcap = len(rows), len(rows[0][0]) - 1
    if cap > fcap:
        raise PrecisionExhausted(f"cannot extend a cap-{fcap} series to cap {cap}")
    # entry s = r * n + m of the cut matrix is f[r][m]
    den, entries = lowest_terms(den, [e[: cap + 1] for row in rows for e in row])
    # (i, D^i * H_i) as sparse (r, m, value) triples, for each nonzero H_i
    weighted = []
    for i in range(1, cap + 1):
        h = [
            (*divmod(s, n), entry[i] * den ** (i - 1))
            for s, entry in enumerate(entries)
            if entry[i]
        ]
        if h:
            weighted.append((i, h))
    scaled = [[[int(r == c) for c in range(n)] for r in range(n)]]
    for k in range(1, cap + 1):
        acc = [[0] * n for _ in range(n)]
        for i, h in weighted:
            if i > k:
                break
            prev = scaled[k - i]
            for r, m, x in h:
                out, src = acc[r], prev[m]
                for c in range(n):
                    out[c] -= x * src[c]
        scaled.append(acc)
    den, entries = lowest_terms(
        den**cap,
        [
            [scaled[k][r][c] * den ** (cap - k) for k in range(cap + 1)]
            for r in range(n)
            for c in range(n)
        ],
    )
    return den, [entries[r * n : (r + 1) * n] for r in range(n)]


def _columns(rows, cap):
    """cols[c] lists (r, nums) for each nonzero entry rows[r][c] of a series
    matrix, with nums its integers of t^0 .. t^cap."""
    return [
        [(r, row[c][: cap + 1]) for r, row in enumerate(rows) if any(row[c])]
        for c in range(len(rows))
    ]


def _contract(pairs, cap):
    """Sum of x * vec over (x, vec) in pairs, each vec a [(k, series)] list
    of integer series up to t^cap; the nonzero (k, series), by k."""
    acc: dict[int, list[int]] = {}
    for x, vec in pairs:
        for k, y in vec:
            prod, prev = mul_nums(x, y, cap), acc.get(k)
            acc[k] = prod if prev is None else [u + v for u, v in zip(prev, prod)]
    return [(k, acc[k]) for k in sorted(acc) if any(acc[k])]


def transport(d: Deformation, f, f_inverse=None) -> Deformation:
    """Re-express (x, y) -> f^-1(mu_t(f(x), f(y))) over the same base.

    f and f_inverse are (den, rows) endomorphisms, rows[r][c] the integers
    of t^0 .. t^cap of entry (r, c); the cap is that of the shorter of d
    and f.  f_inverse, when given, is f^-1 at least up to that cap, as
    `series_matrix_inverse` returns it, and is not computed again: the
    transport by the inverse of F passes F^-1 and F.

    mu_t is the base table plus the perturbation matrix, as integer
    series mu[a][b][k] over one denominator.  With F = f and G = f^-1,
    coordinate r of the transported bracket of (e_i, e_j) is the sum of
    G[r][k] F[b][j] F[a][i] mu[a][b][k], contracted one index at a time
    with `series.mul_nums`: O(n^4) series products.  The result is in
    t-power form: one term per order with a monomial coefficient.  Valid
    iff the input is valid.
    """
    n = d.base.dim
    fden, frows = f
    if len(frows) != n or any(len(row) != n for row in frows):
        raise DimensionMismatch("endomorphism must be n x n over the base")
    cap = min(d.cap, len(frows[0][0]) - 1)
    if cap < 1:
        raise PrecisionExhausted("no precision left below t^1")
    if f_inverse is None:
        f_inverse = series_matrix_inverse(f, cap)
    gden, grows = f_inverse
    f_cols, g_cols = _columns(frows, cap), _columns(grows, cap)

    # mu[a][b] lists the nonzero (k, den * mu_t(e_a, e_b)_k) for all a, b
    bden, table = d.base.scaled_table
    pden, prows = d.perturbation()
    den = lcm(bden, pden)
    pairs = list(combinations(range(n), 2))
    mu = [[[] for _ in range(n)] for _ in range(n)]
    for s, (a, b) in enumerate(pairs):
        const = dict(table[a][b])
        for k in range(n):
            series = [x * (den // pden) for x in prows[s * n + k][: cap + 1]]
            series[0] += const.get(k, 0) * (den // bden)
            if any(series):
                mu[a][b].append((k, series))
                mu[b][a].append((k, [-x for x in series]))
    # first slot: den * fden * mu_t(f e_i, e_b), for each i < n - 1 and b
    first = [
        [_contract(((x, mu[a][b]) for a, x in f_cols[i]), cap) for b in range(n)]
        for i in range(n - 1)
    ]
    out_den = den * fden * fden * gden
    # by_power[p]: the flat coordinates of the t^p cochain, over out_den
    by_power: dict[int, list] = {}
    for s, (i, j) in enumerate(pairs):
        both = _contract(((x, first[i][b]) for b, x in f_cols[j]), cap)
        out = dict(_contract(((y, g_cols[k]) for k, y in both), cap))
        const = dict(table[i][j])
        for k in range(n):
            series = out.get(k, [0])
            if series[0] * bden != const.get(k, 0) * out_den:
                raise InvalidDeformation(
                    "transport did not preserve the base bracket at t^0"
                )
            for p, x in enumerate(series[1:], 1):
                if x:
                    by_power.setdefault(p, [0] * (len(pairs) * n))[s * n + k] = x
    terms = []
    for p in sorted(by_power):
        phi = Cochain.from_flat(2, n, "adjoint", out_den, by_power[p])
        terms.append(((1, [int(q == p) for q in range(cap + 1)]), phi))
    return Deformation.build(d.base, cap, terms)


def polynomial_form_check(d: Deformation, poly, k: int) -> bool:
    """Whether Id * P(t) transports d onto a pure degree-<=k polynomial form.

    poly lists the coefficients of P from degree 0 as integer pairs
    (num, den), den > 0; P(0) must be 1 and deg P <= k.  Multiplying the
    deformed bracket by P is exactly the transport by the scalar
    endomorphism Id * P, so the check is that (P - 1) * mu + P *
    perturbation has no terms above t^k at the cap.  deg (P - 1) <= k, so
    only P * perturbation can have such terms: each row of the
    perturbation matrix is multiplied by P's numerators.
    """
    if not poly or poly[0][0] != poly[0][1]:
        raise ValueError("P(0) must equal 1")
    if len(poly) - 1 > k:
        raise ValueError(f"deg P = {len(poly) - 1} exceeds k = {k}")
    if d.cap <= k:
        raise PrecisionExhausted(
            f"cap {d.cap} cannot see any order above t^{k}"
        )
    den = lcm(*(q for _, q in poly))
    p_nums = [p * (den // q) for p, q in poly]
    _, rows = d.perturbation()
    return not any(
        any(mul_nums(p_nums, row, d.cap)[k + 1 :]) for row in rows if any(row)
    )


# -- deformation files ------------------------------------------------


def parse_cochain(doc, dim: int, seen=None) -> Cochain:
    """The degree-2 adjoint cochain of a deformation term, from a cochain
    object, whose degree and target must be 2 and "adjoint" when given, or
    a bare values array.

    Each entry is read by `io.read_literal` (seen: the document's literal
    dict), and all are put over the lcm of their denominators
    (`series.over_lcm`); no Fraction is built.
    """
    seen = {} if seen is None else seen
    values = doc
    if isinstance(doc, dict):
        degree = read_int(doc.get("degree", 2), "cochain degree")
        if degree != 2 or doc.get("target", "adjoint") != "adjoint":
            raise DimensionMismatch(
                "terms need degree-2 adjoint cochains over the base"
            )
        values = doc.get("values", [])
    elif not isinstance(doc, list):
        raise FormatError(f"bad cochain {doc!r}")
    vals = {}
    for row in values:
        try:
            key = tuple(read_int(i, "cochain args index") for i in row["args"])
            if key in vals:
                raise FormatError(f"duplicate cochain entry for args {list(key)}")
            cells = {}
            for cell in row["out"]:
                k = read_int(cell["k"], "cochain out index")
                if not 0 <= k < dim:
                    raise FormatError(f"cochain out index {k} outside 0..{dim - 1}")
                if k in cells:
                    raise FormatError(
                        f"cochain entry for args {list(key)} repeats out index {k}"
                    )
                cells[k] = read_literal(cell["c"], seen)
            vals[key] = cells
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"bad cochain entry {row!r}") from exc
    try:
        for key in vals:
            check_key(key, 2, dim)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
    nums = {key: [cells.get(k, 0) for k in range(dim)] for key, cells in vals.items()}
    return Cochain.scaled(2, dim, "adjoint", over_lcm(nums.values()), nums)


def cochain_doc(c: Cochain) -> dict:
    """The cochain file object of an adjoint c, each entry in lowest terms."""
    rows = []
    for key, vec in sorted(c.values.items()):
        out = [{"k": k, "c": ratio_str(x, c.den)} for k, x in enumerate(vec) if x]
        rows.append({"args": list(key), "out": out})
    return {"degree": c.degree, "target": c.target, "values": rows}


def parse_deformation(doc, base_dir: str, default_cap: int) -> Deformation:
    """The Deformation of a deformation file; a base given as a path is
    read relative to base_dir."""
    if not isinstance(doc, dict):
        raise FormatError("deformation file must be a JSON object")
    base_spec = doc.get("base")
    if isinstance(base_spec, str):
        path = base_spec
        if not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        base_file = load_algebra(path)
    elif isinstance(base_spec, dict):
        base_file = parse_algebra(base_spec)
    else:
        raise FormatError("deformation file needs 'base': object or path")
    if base_file.kind != "lie":
        raise FormatError("deformation base must be a lie-kind algebra")
    base = base_file.algebra
    cap = read_cap(doc.get("cap", default_cap))
    rows = doc.get("terms", [])
    if not isinstance(rows, list):
        raise FormatError(f"deformation 'terms' must be an array, got {rows!r}")
    require_series_cells(len(rows), cap, "deformation terms")
    seen, terms = {}, []
    for row in rows:
        try:
            coeff = parse_series_literal(row["coeff"], cap, seen)
            cochain = parse_cochain(row["cochain"], base.dim, seen)
        except (KeyError, TypeError) as exc:
            raise FormatError(f"bad deformation term {row!r}") from exc
        terms.append((coeff, cochain))
    try:
        return Deformation.build(base, cap, terms)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def deformation_doc(d: Deformation) -> dict:
    """The deformation file object of d: its cap and its terms."""
    return {
        "cap": d.cap,
        "terms": [
            {"coeff": series_literal(c), "cochain": cochain_doc(phi)}
            for c, phi in d.terms
        ],
    }
