"""Root extraction, the zero-root criterion, enveloping-algebra reports."""

from fractions import Fraction

import pytest

import valdef.catalog as catalog
from valdef.errors import NotAdapted, NotRankOne
from valdef.rigidity import (
    TorusData,
    enveloping_rigidity_report,
    roots,
)

from gens import R2, ROOTS123, catalog_algebra, fraction_table, rational_lie

ZR = rational_lie(3, {(0, 1): {1: 1}})


def torus_of(g, idx=(0,)):
    return TorusData.from_torus(g.dim, idx)


def pairs(*values) -> tuple:
    """Rationals as the (num, den) pairs in lowest terms that `roots` returns."""
    return tuple((Fraction(v).numerator, Fraction(v).denominator) for v in values)


def test_roots_examples():
    assert roots(R2, torus_of(R2)) == pairs(1)
    assert roots(ZR, torus_of(ZR)) == pairs(1, 0)
    assert roots(ROOTS123, torus_of(ROOTS123)) == pairs(1, 2, 3)


def test_roots_scaling():
    for c in (Fraction(2), Fraction(-1, 3)):
        scaled = rational_lie(
            4,
            {
                (0, 1): {1: c},
                (0, 2): {2: 2 * c},
                (0, 3): {3: 3 * c},
                (1, 2): {3: 1},
            },
        )
        assert roots(scaled, torus_of(scaled)) == pairs(c, 2 * c, 3 * c)


def test_roots_errors():
    with pytest.raises(NotRankOne):
        roots(R2, TorusData.from_torus(2, [0, 1]))
    non_adapted = rational_lie(3, {(0, 1): {2: 1}})
    with pytest.raises(NotAdapted):
        roots(non_adapted, torus_of(non_adapted))


def test_zero_root_criterion_catalog():
    crit = enveloping_rigidity_report(R2, torus_of(R2), asserted_rigid=False).zero_root
    assert (crit.dim_H2_trivial, crit.zero_is_root, crit.consistent) == (
        0,
        False,
        True,
    )
    crit = enveloping_rigidity_report(
        ROOTS123, torus_of(ROOTS123), asserted_rigid=False
    ).zero_root
    assert (crit.dim_H2_trivial, crit.zero_is_root, crit.consistent) == (
        0,
        False,
        True,
    )
    crit = enveloping_rigidity_report(ZR, torus_of(ZR), asserted_rigid=False).zero_root
    assert crit.zero_is_root and crit.dim_H2_trivial >= 1 and crit.consistent
    assert crit.certificate_closed and crit.certificate_nontrivial


def test_reports():
    rep = enveloping_rigidity_report(R2, torus_of(R2), asserted_rigid=False)
    assert rep.verdict == "U(g) not rigid"
    assert "inherited" in rep.theorem

    two_torus = rational_lie(
        4, {(0, 2): {2: 1}, (1, 3): {3: 1}}
    )
    rep = enveloping_rigidity_report(
        two_torus, TorusData.from_torus(4, [0, 1]), asserted_rigid=True
    )
    assert rep.verdict == "U(g) not rigid" and rep.rank == 2

    rep = enveloping_rigidity_report(R2, torus_of(R2), asserted_rigid=True)
    assert rep.verdict == "no obstruction from H2(g, K)"
    assert rep.dim_H2_trivial == 0

    rep = enveloping_rigidity_report(ZR, torus_of(ZR), asserted_rigid=True)
    assert rep.verdict == "U(g) not rigid"
    assert rep.note is not None


def test_catalog_files_load_and_match():
    r2_file = catalog_algebra("r2")
    assert fraction_table(r2_file.algebra) == fraction_table(R2)
    assert r2_file.torus == (0,)
    dim4 = catalog_algebra("roots123")
    assert fraction_table(dim4.algebra) == fraction_table(ROOTS123)
    zero = catalog_algebra("zero_root")
    assert fraction_table(zero.algebra) == fraction_table(ZR)
    for name in catalog.NAMES:
        loaded = catalog_algebra(name)
        torus = TorusData.from_torus(loaded.algebra.dim, loaded.torus)
        crit = enveloping_rigidity_report(
            loaded.algebra, torus, asserted_rigid=False
        ).zero_root
        assert crit.consistent
