"""Acceptance suite: one test per criterion, one printed line each.

Every check is exact (rational arithmetic, zero tolerance); the stated
runtime budgets are asserted with wall-clock measurements.  Run with
``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
"""

import random
import time

from fractions import Fraction

from valdef import linalg
from valdef.cohomology import coboundary, cohomology_dim, super_bracket
from valdef.decompose import decompose, flag_of, recompose
from valdef.deformation import (
    jacobi_residual,
    series_matrix_inverse,
    transport,
)
from valdef.nonassoc import (
    PoissonStructure,
    SubgroupTag,
    dual_identity_check,
    g_associative_check,
    poisson_tensor,
    poisson_verify,
    tensor_product,
)
from valdef.rigidity import TorusData, enveloping_rigidity_report
import valdef.catalog as catalog

from gens import (
    ASSOCIATIVE_POOL,
    COMMUTATIVE_POOL,
    SL2,
    ZTRIPLE,
    abelian_lie,
    cochain_flat,
    components,
    conjugated,
    decomposed,
    flags_equal,
    fraction_table,
    identity_plus,
    in_span,
    lie_as_product,
    max_rank_check,
    perturbations_equal,
    random_cochain,
    random_direction,
    random_lie,
    random_valid_deformation,
    random_vector_in_m,
    rational_poisson,
    search_tables,
)


def report(number, ok, text):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {number} failed: {text}"


def test_criterion_1_decompose_roundtrip():
    rng = random.Random(1001)
    start = time.perf_counter()
    for _ in range(500):
        k = rng.randint(1, 6)
        cap = rng.randint(2, 12)
        w = random_vector_in_m(rng, k, cap, max_num=100, max_den=100)
        d = decompose(*w)
        assert d.length <= k
        r = recompose(d)
        assert all(
            (a - b.truncate(a.cap)).is_zero()
            for a, b in zip(components(r), components(w))
        )
    elapsed = time.perf_counter() - start
    report(
        1,
        elapsed < 10.0,
        f"500 exact decomposition round trips, h <= k, in {elapsed:.2f}s (< 10s)",
    )


def test_criterion_2_flag_uniqueness():
    rng = random.Random(1002)
    for _ in range(200):
        k = rng.randint(2, 6)
        cap = rng.randint(2, 10)
        w = random_vector_in_m(rng, k, cap)
        d1 = decompose(*w, pivot_order="first")
        d2 = decompose(*w, pivot_order="last")
        assert d1.length == d2.length
        assert flags_equal(flag_of(d1), flag_of(d2))
    report(2, True, "200 vectors: reversed pivot order gives the same flag and h")


def test_criterion_3_delta_squared_zero():
    rng = random.Random(1003)
    for i in range(200):
        g = random_lie(rng, rng.randint(2, 5))
        target = "adjoint" if i % 2 == 0 else "trivial"
        f = random_cochain(rng, g.dim, 1, target)
        assert coboundary(g, coboundary(g, f)).is_zero()
    report(3, True, "200 random (algebra, cochain) pairs: delta(delta(f)) = 0 exactly")


def test_criterion_4_first_term_is_cocycle():
    rng = random.Random(1004)
    checked = 0
    for _ in range(120):
        d = random_valid_deformation(rng, rng.randint(2, 4), rng.randint(3, 6))
        dd = decomposed(d)
        assert not jacobi_residual(dd)
        if dd.terms:
            assert coboundary(dd.base, dd.terms[0][1]).is_zero()
            checked += 1
    report(
        4,
        checked >= 100,
        f"{checked} valid decomposed deformations: delta(phi_1) = 0 exactly",
    )


def test_criterion_5_span_bound_and_membership():
    rng = random.Random(1005)
    checked = 0
    while checked < 100:
        d = random_valid_deformation(rng, rng.randint(2, 4), rng.randint(3, 6))
        dd = decomposed(d)
        k = len(dd.terms)
        if not 1 <= k <= 4:
            continue
        phis = [phi for _, phi in dd.terms]
        pair_brackets = [
            cochain_flat(super_bracket(phis[i], phis[j]))
            for i in range(k - 1)
            for j in range(i, k - 1)
        ]
        span = [list(v) for v in pair_brackets]
        for i in range(k - 1):
            span.append(list(cochain_flat(coboundary(dd.base, phis[i]))))
        dim = linalg.rank(span) if span else 0
        assert dim <= k * (k - 1) // 2
        assert max_rank_check(dd)[0] == dim
        for i in range(k - 1):
            target = list(cochain_flat(coboundary(dd.base, phis[i])))
            assert in_span(pair_brackets, target) if pair_brackets else all(
                c == 0 for c in target
            )
        checked += 1
    report(
        5,
        True,
        "100 valid decomposed deformations (k <= 4): dim V <= k(k-1)/2 and "
        "[mu, phi_i] in span{[phi_i, phi_j]} exactly",
    )


def test_criterion_6_zero_root_catalog():
    start = time.perf_counter()
    expectations = {"r2": 0, "roots123": 0, "zero_root": None}
    for name, want in expectations.items():
        loaded = catalog.load(name)
        torus = TorusData.from_torus(loaded.structure.dim, loaded.torus)
        crit = enveloping_rigidity_report(
            loaded.structure, torus, asserted_rigid=False
        ).zero_root
        assert crit.consistent
        if want is None:
            assert crit.dim_H2_trivial >= 1
            assert crit.certificate_closed and crit.certificate_nontrivial
        else:
            assert crit.dim_H2_trivial == want
    elapsed = time.perf_counter() - start
    report(
        6,
        elapsed < 1.0,
        f"catalog zero-root criterion consistent (dims 0, 0, >=1 certified) "
        f"in {elapsed:.3f}s (< 1s)",
    )


def test_criterion_7_fixed_cohomology_values():
    start = time.perf_counter()
    assert cohomology_dim(abelian_lie(2), 2, "adjoint").dim_H == 2
    assert cohomology_dim(SL2, 2, "adjoint").dim_H == 0
    elapsed = time.perf_counter() - start
    report(
        7,
        elapsed < 1.0,
        f"abelian n=2 adjoint H2 = 2 and sl2 adjoint H2 = 0 in {elapsed:.3f}s (< 1s)",
    )


def test_criterion_8_tensor_closure():
    rng = random.Random(1008)
    start = time.perf_counter()
    gpools = {}
    dualpools = {}
    for tag in SubgroupTag:
        gpool = search_tables(
            2,
            lambda alg, t=tag: g_associative_check(alg, t)[0],
            max_entries=2,
            limit=5,
        )
        gpool.extend(ASSOCIATIVE_POOL)
        if tag in (SubgroupTag.A3, SubgroupTag.S3):
            gpool.append(lie_as_product(random_lie(rng, 3)))
        gpools[tag] = gpool
        dual = search_tables(
            2,
            lambda alg, t=tag: dual_identity_check(alg, t)[0],
            max_entries=2,
            limit=5,
        )
        dual.extend(COMMUTATIVE_POOL)
        dual.append(ZTRIPLE)
        dualpools[tag] = dual
    for tag in SubgroupTag:
        for _ in range(50):
            a = conjugated(rng, rng.choice(gpools[tag]))
            b = conjugated(rng, rng.choice(dualpools[tag]))
            assert g_associative_check(a, tag)[0]
            assert dual_identity_check(b, tag)[0]
            ok, witness = g_associative_check(tensor_product(a, b), tag)
            assert ok, (tag, witness)
    elapsed = time.perf_counter() - start
    report(
        8,
        elapsed < 30.0,
        f"6 subgroups x 50 matched pairs: tensor products pass the G-check "
        f"in {elapsed:.2f}s (< 30s)",
    )


def random_poisson(rng) -> PoissonStructure:
    kind = rng.randrange(3)
    if kind == 0:
        prod = conjugated(rng, rng.choice(COMMUTATIVE_POOL))
        den, rows = prod.scaled_table
        full = {
            (i, j): {k: Fraction(c, den) for k, c in rows[i][j]}
            for i in range(prod.dim)
            for j in range(prod.dim)
            if rows[i][j]
        }
        return rational_poisson(prod.dim, full, {})
    if kind == 1:
        law = lie_as_product(random_lie(rng, rng.randint(2, 3)))
        table = {pair: dict(entry) for pair, entry in fraction_table(law).items()}
        return rational_poisson(law.dim, {}, table)
    return rational_poisson(
        3,
        {
            (0, 0): {0: 1},
            (0, 1): {1: 1},
            (1, 0): {1: 1},
            (0, 2): {2: 1},
            (2, 0): {2: 1},
        },
        {(1, 2): {1: 1}, (2, 1): {1: -1}},
    )


def test_criterion_9_poisson_closure():
    rng = random.Random(1009)
    for _ in range(100):
        p = random_poisson(rng)
        q = random_poisson(rng)
        assert poisson_verify(p) == (True, None)
        assert poisson_verify(q) == (True, None)
        t = poisson_tensor(p, q)
        assert poisson_verify(t) == (True, None)
    report(9, True, "100 random Poisson pairs: tensor output verifies exactly")


def test_criterion_10_gauge_invariance():
    rng = random.Random(1010)
    for _ in range(100):
        d = random_valid_deformation(rng, rng.randint(2, 4), rng.randint(3, 6))
        n, cap = d.base.dim, d.cap
        f = identity_plus(n, cap, random_direction(rng, n))
        td = transport(d, f)
        assert not jacobi_residual(td)
        back = transport(td, series_matrix_inverse(f, cap))
        assert perturbations_equal(back, d)
    report(
        10,
        True,
        "100 (deformation, Id + tN) pairs: residual stays zero and the "
        "transport round trip is exact at cap",
    )
