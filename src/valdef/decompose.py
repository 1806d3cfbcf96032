"""Finite flag decomposition of vectors over the maximal ideal.

A vector w in m^k is rewritten as b1*V1 + b1*b2*V2 + ... + b1...bh*Vh
with each b in m and the V's independent over Q.  Each step reads the
lowest t-order of the remaining vector, peels off the corresponding
direction, and divides the residual by the step coefficient; the pivot
coordinate of the residual vanishes exactly, so the recursion depth is
bounded by the ambient dimension.  The subspace chain spanned by the V
prefixes does not depend on the pivot rule, and that is what
flags_equal compares.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .errors import NotInMaximalIdeal, PrecisionExhausted, ZeroVector
from .series import SeriesVector, TruncSeries

ZERO = Fraction(0)


@dataclass(frozen=True)
class FlagStep:
    coefficient: TruncSeries  # in m, nonzero at its cap
    vector: tuple[Fraction, ...]  # pivot-normalized direction in K^k


@dataclass(frozen=True)
class FlagDecomposition:
    steps: tuple[FlagStep, ...]
    ambient_dim: int
    cap: int  # cap of the last (shortest) coefficient

    @property
    def length(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class Flag:
    """Increasing chain of subspaces, each as a canonical RREF basis."""

    chain: tuple[tuple[tuple[Fraction, ...], ...], ...]

    @property
    def length(self) -> int:
        return len(self.chain)


def decompose(w: SeriesVector, pivot_order: str = "first") -> FlagDecomposition:
    """Flag decomposition of a vector with all components in m.

    pivot_order picks which coordinate with nonzero leading coefficient
    anchors each step: "first" (lowest index, the default) or "last".
    The resulting subspace flag is the same either way.
    """
    if pivot_order not in ("first", "last"):
        raise ValueError(f"unknown pivot order {pivot_order!r}")
    for idx, s in enumerate(w.components):
        if not s.in_maximal_ideal():
            raise NotInMaximalIdeal(
                f"component {idx} has constant term {s.coeffs[0]}"
            )
    if w.is_zero():
        raise ZeroVector("cannot decompose a vector that is zero at its cap")

    current = list(w.components)
    cap = w.cap
    steps = []
    while True:
        vals = [s.valuation() for s in current]
        defined = [v for v in vals if v is not None]
        if not defined:
            break
        v = min(defined)
        lead = [
            Fraction(s.nums[v], s.den) if val == v else ZERO
            for s, val in zip(current, vals)
        ]
        candidates = [i for i, c in enumerate(lead) if c]
        pivot = candidates[0] if pivot_order == "first" else candidates[-1]
        scale = lead[pivot]
        direction = tuple(c / scale for c in lead)
        b = current[pivot]
        steps.append(FlagStep(coefficient=b, vector=direction))
        residual = [
            s - b.scale(direction[i]) for i, s in enumerate(current)
        ]
        if all(s.is_zero() for s in residual):
            break
        if cap - v < 1:
            # unreachable with b taken from the vector itself (the residual
            # would be zero at cap first), kept as a guard on the contract
            raise PrecisionExhausted(
                f"dividing by a valuation-{v} coefficient leaves cap {cap - v}"
            )
        # b = t^v * u: invert u once and divide every residual by b with it
        inverse = TruncSeries(b.den, b.nums[v:]).invert()
        current = [s.div_shifted(v, inverse) for s in residual]
        cap -= v
    return FlagDecomposition(
        steps=tuple(steps), ambient_dim=w.dim, cap=steps[-1].coefficient.cap
    )


def recompose(d: FlagDecomposition, cap: int | None = None) -> SeriesVector:
    """Evaluate sum of (b1...bi) * Vi exactly at the given cap."""
    if cap is None:
        cap = d.cap
    if d.steps and cap > min(s.coefficient.cap for s in d.steps):
        raise PrecisionExhausted(
            f"cap {cap} exceeds the precision of the decomposition"
        )
    total = SeriesVector.zero(d.ambient_dim, cap)
    running = TruncSeries.one(cap)
    for step in d.steps:
        running = running * step.coefficient.truncate(cap)
        term = SeriesVector(
            tuple(running.scale(c) for c in step.vector)
        )
        total = total + term
    return total


def flag_of(d: FlagDecomposition) -> Flag:
    """Chain of row-reduced bases of span(V1..Vi) for i = 1..h.

    Each level is `linalg.row_space` of the level before it and the next
    step vector, so every level is the RREF basis of its prefix.
    """
    chain = []
    level = ()
    for step in d.steps:
        level = tuple(linalg.row_space([*level, step.vector]))
        chain.append(level)
    return Flag(chain=tuple(chain))


def flags_equal(f1: Flag, f2: Flag) -> bool:
    """Same length and same subspace at every level (RREF comparison)."""
    return f1.chain == f2.chain
