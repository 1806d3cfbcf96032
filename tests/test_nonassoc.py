"""G-associativity, dual identities, tensor closure, Poisson axioms."""

import json
import math
import random

from fractions import Fraction
from itertools import combinations, product as iter_product

import pytest

import valdef.nonassoc as nonassoc

from valdef.algebra import AlgebraStructure, associator, is_lie, jacobiator
from valdef.cli import main
from valdef.commands import _table_doc
from valdef.errors import InvalidPoisson
from valdef.nonassoc import (
    PATTERNS,
    PoissonStructure,
    SubgroupTag,
    dual_identity_check,
    g_associative_check,
    nested_products,
    opposite_poisson,
    pack,
    poisson_tensor,
    poisson_verify,
    slot_width,
    tensor_g_associative,
    tensor_product,
)

from gens import (
    ASSOCIATIVE_POOL,
    COMMUTATIVE_POOL,
    KX2,
    KX3,
    KXK,
    UPPER2,
    ZTRIPLE,
    change_basis,
    conjugated,
    dict_dual,
    dict_g_check,
    dict_poisson,
    fraction_table,
    full_fraction_table,
    lie_as_product,
    random_invertible,
    random_lie,
    rational_assoc,
    rational_cochain,
    rational_lie,
    rational_poisson,
    reference_opposite,
    reference_poisson_tensor,
    reference_tensor,
    search_tables,
    triple_products,
    unit,
)


def test_subgroup_sizes():
    sizes = {tag: len(PATTERNS[tag]) for tag in SubgroupTag}
    assert sizes == {
        SubgroupTag.ID: 1,
        SubgroupTag.T12: 2,
        SubgroupTag.T23: 2,
        SubgroupTag.T13: 2,
        SubgroupTag.A3: 3,
        SubgroupTag.S3: 6,
    }


def test_associative_pass_every_group():
    for alg in ASSOCIATIVE_POOL:
        for tag in SubgroupTag:
            ok, _ = g_associative_check(alg, tag)
            assert ok, (tag, fraction_table(alg))


def vinberg_search():
    def pred(alg):
        return (
            g_associative_check(alg, SubgroupTag.T12)[0]
            and not g_associative_check(alg, SubgroupTag.ID)[0]
        )

    return search_tables(2, pred, coeffs=(-1, 1), max_entries=2, limit=4)


def test_vinberg_instance_from_search():
    found = vinberg_search()
    assert found, "exhaustive search produced no Vinberg instance"
    for alg in found:
        # oracle: re-evaluate both identities from the raw associator
        from valdef.algebra import associator

        basis = [unit(alg.dim, i) for i in range(alg.dim)]
        plain_assoc = all(
            not any(associator(alg, basis[i], basis[j], basis[k]))
            for i in range(2)
            for j in range(2)
            for k in range(2)
        )
        left_sym = all(
            associator(alg, basis[i], basis[j], basis[k])
            == associator(alg, basis[j], basis[i], basis[k])
            for i in range(2)
            for j in range(2)
            for k in range(2)
        )
        assert left_sym and not plain_assoc
        # every G-associative algebra is Lie-admissible
        assert g_associative_check(alg, SubgroupTag.S3)[0]


def test_lie_bracket_is_lie_admissible_and_a3():
    rng = random.Random(71)
    for _ in range(10):
        prod = lie_as_product(random_lie(rng, rng.randint(2, 4)))
        assert g_associative_check(prod, SubgroupTag.S3)[0]
        assert g_associative_check(prod, SubgroupTag.A3)[0]


def test_g_implies_lie_admissible_random():
    rng = random.Random(72)
    pools = {tag: [] for tag in SubgroupTag}
    for tag in SubgroupTag:
        pred = lambda alg, t=tag: g_associative_check(alg, t)[0]
        pools[tag] = search_tables(2, pred, coeffs=(-1, 1), max_entries=2, limit=6)
    for tag, found in pools.items():
        for alg in found:
            assert g_associative_check(alg, SubgroupTag.S3)[0], tag


def test_unsigned_switch_differs():
    # for the trivial subgroup both conventions agree
    for alg in ASSOCIATIVE_POOL:
        assert g_associative_check(alg, SubgroupTag.ID, signed=False)[0]
    # on a Vinberg instance the unsigned T12 sum is twice the associator,
    # so it vanishes only for the signed reading
    alg = vinberg_search()[0]
    assert g_associative_check(alg, SubgroupTag.T12, signed=True)[0]
    assert not g_associative_check(alg, SubgroupTag.T12, signed=False)[0]


def test_dual_identity_cases():
    for tag in SubgroupTag:
        for alg in COMMUTATIVE_POOL:
            assert dual_identity_check(alg, tag)[0]
        # all triple products vanish: every invariance holds
        assert dual_identity_check(ZTRIPLE, tag)[0]
    ok, witness = dual_identity_check(UPPER2, SubgroupTag.ID)
    assert ok
    ok, witness = dual_identity_check(UPPER2, SubgroupTag.T12)
    assert not ok and witness is not None
    # non-associative input fails every dual check
    non_assoc = rational_assoc(2, {(0, 0): {1: 1}, (1, 0): {0: 1}})
    for tag in SubgroupTag:
        assert not dual_identity_check(non_assoc, tag)[0]


def test_tensor_product_construction():
    t = tensor_product(KX2, UPPER2)
    assert t.dim == 6
    # unit of KX2 x unit of UPPER2: e0 x (e0 + e2) = slot 0 + slot 2
    unit = [Fraction(0)] * 6
    unit[0] = Fraction(1)
    unit[2] = Fraction(1)
    for v in ([Fraction(1) if i == j else Fraction(0) for i in range(6)] for j in range(6)):
        assert t.bilinear(unit, v) == tuple(v)
        assert t.bilinear(v, unit) == tuple(v)


def test_tensor_closure_all_groups():
    rng = random.Random(73)
    duals = {
        tag: search_tables(
            2, lambda alg, t=tag: dual_identity_check(alg, t)[0], max_entries=2, limit=4
        )
        for tag in SubgroupTag
    }
    gpools = {
        tag: search_tables(
            2,
            lambda alg, t=tag: g_associative_check(alg, t)[0],
            max_entries=2,
            limit=4,
        )
        for tag in SubgroupTag
    }
    for tag in SubgroupTag:
        gpools[tag].extend(ASSOCIATIVE_POOL[:2])
        duals[tag].extend(COMMUTATIVE_POOL[:2] + [ZTRIPLE])
        for _ in range(6):
            a = conjugated(rng, rng.choice(gpools[tag]))
            b = conjugated(rng, rng.choice(duals[tag]))
            ok, witness = g_associative_check(tensor_product(a, b), tag)
            assert ok, (tag, witness)


def test_tensor_verdict_from_the_factors_matches_the_product_scan():
    """`tensor_g_associative` decides on the two factors what
    `g_associative_check` finds on their built tensor product, for every
    subgroup, signed and unsigned: on random factors of dims 1-3 over dens
    1-2, zero tables, and the G-associative and dual pools of the closure
    test above.  A sizeable share of the products drawn fail, by
    construction: half the pairs put a table that fails the identity drawn
    next to a unital one, and A (x) B then holds A (x) 1, a copy of A."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    pool = [rational_assoc(dim, {}) for dim in (1, 2, 3)]
    pool += ASSOCIATIVE_POOL[:2] + COMMUTATIVE_POOL[:2] + [ZTRIPLE]
    for tag in SubgroupTag:
        for predicate in (g_associative_check, dual_identity_check):
            pool += search_tables(
                2, lambda alg, t=tag, f=predicate: f(alg, t)[0], max_entries=2, limit=4
            )
    failing = {
        (tag, signed): search_tables(
            3, lambda alg, i=(tag, signed): not g_associative_check(alg, *i)[0],
            max_entries=2, limit=4,
        )
        for tag in SubgroupTag
        for signed in (True, False)
    }
    assert all(len(tables) == 4 for tables in failing.values())
    unital = [rational_assoc(1, {(0, 0): {0: 1}}), KX2, KXK, UPPER2]

    @st.composite
    def factors(draw):
        if draw(st.booleans()):
            return draw(st.sampled_from(pool))
        dim = draw(st.integers(1, 3))
        slot = st.tuples(*[st.integers(0, dim - 1)] * 3)
        entries = draw(st.lists(st.tuples(slot, st.sampled_from((-2, -1, 1, 2)))))
        den = draw(st.integers(1, 2))
        table = {}
        for (i, j, k), c in entries:
            table.setdefault((i, j), {})[k] = Fraction(c, den)
        return rational_assoc(dim, table)

    @st.composite
    def cases(draw):
        tag, signed = draw(st.sampled_from(list(SubgroupTag))), draw(st.booleans())
        if draw(st.booleans()):
            a = draw(st.sampled_from(failing[tag, signed]))
            b = draw(st.sampled_from(unital))
            a, b = (a, b) if draw(st.booleans()) else (b, a)
            return a, b, tag, signed, True
        return draw(factors()), draw(factors()), tag, signed, False

    verdicts = []

    @hypothesis.settings(max_examples=400, deadline=None, database=None)
    @hypothesis.given(cases())
    def check(case):
        a, b, tag, signed, known_failing = case
        want, _ = g_associative_check(tensor_product(a, b), tag, signed)
        assert tensor_g_associative(a, b, tag, signed) == want
        assert not (want and known_failing)
        verdicts.append(want)

    check()
    assert verdicts.count(False) >= len(verdicts) // 5, verdicts.count(False)


POISSON3 = rational_poisson(
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

# the unital algebra <1, x, y, xy> with x^2 = y^2 = 0 and {x, y} = xy
UNIT_XY = rational_poisson(
    4,
    {
        **{(0, k): {k: 1} for k in range(4)},
        **{(k, 0): {k: 1} for k in range(1, 4)},
        (1, 2): {3: 1},
        (2, 1): {3: 1},
    },
    {(1, 2): {3: 1}, (2, 1): {3: -1}},
)


def test_poisson_verify_cases():
    zero_bracket = rational_poisson(
        2, {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}}, {}
    )
    assert poisson_verify(zero_bracket) == (True, None)
    assert poisson_verify(POISSON3) == (True, None)
    assert poisson_verify(UNIT_XY) == (True, None)
    bad = rational_poisson(
        3,
        {
            (0, 0): {0: 1},
            (0, 1): {1: 1},
            (1, 0): {1: 1},
            (0, 2): {2: 1},
            (2, 0): {2: 1},
        },
        {(1, 2): {0: 1}, (2, 1): {0: -1}},
    )
    ok, witness = poisson_verify(bad)
    assert not ok and witness[0] == "Leibniz rule fails"


def test_poisson_axiom_witnesses():
    noncomm = rational_poisson(2, {(0, 1): {1: 1}}, {})
    ok, witness = poisson_verify(noncomm)
    assert not ok and witness[0] == "product not commutative"
    nonanti = rational_poisson(2, {}, {(0, 1): {1: 1}})
    ok, witness = poisson_verify(nonanti)
    assert not ok and witness[0] == "bracket not antisymmetric"


def test_poisson_tensor_cases():
    zb = rational_poisson(
        2, {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}}, {}
    )
    t = poisson_tensor(POISSON3, zb)
    assert t.dim == 6 and poisson_verify(t) == (True, None)
    t2 = poisson_tensor(zb, zb)
    assert all(not entry for entry in fraction_table(t2.bracket).values()) or not fraction_table(t2.bracket)
    t3 = poisson_tensor(POISSON3, POISSON3)
    assert t3.dim == 9 and poisson_verify(t3) == (True, None)
    with pytest.raises(InvalidPoisson):
        poisson_tensor(
            rational_poisson(2, {(0, 1): {1: 1}}, {}), zb
        )


def test_opposite_poisson():
    zb = rational_poisson(
        2, {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}}, {}
    )
    assert fraction_table(opposite_poisson(zb).product) == fraction_table(zb.product)
    op = opposite_poisson(POISSON3)
    assert fraction_table(op.bracket)[(1, 2)] == ((1, Fraction(-1)),)
    opop = opposite_poisson(op)
    assert fraction_table(opop.bracket) == fraction_table(POISSON3.bracket)
    assert fraction_table(opop.product) == fraction_table(POISSON3.product)


def test_kronecker_mismatch_names_the_planted_entry():
    """`poisson_tensor`'s check of a built table against the Kronecker
    formula (`nonassoc._kronecker_mismatch`, written apart from
    `_kronecker`): the Fraction-built tables of `gens.reference_poisson_tensor`
    pass, on Poisson structures and on tables that are none; a copy with
    one entry doubled or one product put in an empty entry is named at that
    basis pair, and a copy over a den that does not divide the lcm of the
    pairs' dens is named by its den."""
    rng = random.Random(37)
    zb = rational_poisson(2, {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}}, {})
    lie3 = PoissonStructure(3, rational_assoc(3, {}), lie_as_product(random_lie(rng, 3)))
    # the check reads tables only: a pair of tables that is no Poisson
    # structure puts both bracket summands on one basis vector, where they
    # add or cancel ({e0 (x) e1, e1 (x) e0} loses its e0 (x) e1 here)
    rough = PoissonStructure(
        2,
        rational_assoc(2, {(0, 1): {0: Fraction(1, 2), 1: 1}, (1, 0): {1: 1}, (1, 1): {0: 3}}),
        rational_assoc(2, {(0, 1): {0: 1}, (1, 0): {1: -2}, (1, 1): {0: Fraction(-3, 2)}}),
    )
    # a dense pair of dim 4: every table over a den > 1 with negative constants
    dense_rng = random.Random(42)
    dense = [_conjugate_poisson(dense_rng, UNIT_XY) for _ in range(2)]
    for t in (x for d in dense for x in (d.product, d.bracket)):
        den, rows = t.scaled_table
        assert den > 1 and min(c for r in rows for e in r for _, c in e) < 0
    pool = [zb, POISSON3, lie3, _scaled_poisson(rng, POISSON3), _conjugate_poisson(rng, zb), rough, *dense]
    planted = 0
    for p, q in iter_product(pool, repeat=2):
        dim = p.dim * q.dim
        tables = zip(
            reference_poisson_tensor(p, q),
            ([(p.product, q.product)], [(p.bracket, q.product), (p.product, q.bracket)]),
        )
        for (den, rows), pairs in tables:
            assert nonassoc._kronecker_mismatch(AlgebraStructure(dim, "assoc", (den, rows)), pairs) is None
            cells = [(x, y) for x in range(dim) for y in range(dim)]
            full = [cell for cell in cells if rows[cell[0]][cell[1]]]
            for x, y in rng.sample(full, min(2, len(full))) + rng.sample(cells, 2):
                entry = tuple((k, 2 * c) for k, c in rows[x][y]) or ((0, 1),)
                row = rows[x][:y] + (entry,) + rows[x][y + 1 :]
                bad = AlgebraStructure(dim, "assoc", (den, rows[:x] + (row,) + rows[x + 1 :]))
                want = f"differs from the Kronecker formula at {(x, y)}"
                assert nonassoc._kronecker_mismatch(bad, pairs) == want
                planted += 1
            big = math.lcm(*(a.scaled_table[0] * b.scaled_table[0] for a, b in pairs))
            f = big + 1  # den * f exceeds big, so it divides it not
            scaled = tuple(tuple(tuple((k, f * c) for k, c in e) for e in r) for r in rows)
            bad = AlgebraStructure(dim, "assoc", (den * f, scaled))
            want = f"den {den * f} does not divide {big}, the lcm of the pairs' dens"
            assert nonassoc._kronecker_mismatch(bad, pairs) == want
    assert planted >= 2 * 36 * 2


def test_kronecker_mismatch_sees_a_carry_alias():
    """A = <e0, e1> with e0 e0 = 5 e0, tensored with k: the planted entry
    -3 e0 + e1 packs to the same int as 5 e0 in 3-bit slots (-3 + 2^3 = 5),
    one bit narrower than the width bit_length(5) + 1 that
    `_kronecker_mismatch` takes, and it is named at (0, 0)."""
    a = rational_assoc(2, {(0, 0): {0: 5}})
    k = rational_assoc(1, {(0, 0): {0: 1}})
    good = tensor_product(a, k)
    den, rows = good.scaled_table
    assert (den, rows[0][0]) == (1, ((0, 5),))
    row = (((0, -3), (1, 1)),) + rows[0][1:]
    bad = AlgebraStructure(2, "assoc", (den, (row,) + rows[1:]))
    assert pack(bad, 3)[0][0] == pack(good, 3)[0][0]
    assert nonassoc._kronecker_mismatch(good, [(a, k)]) is None
    want = "differs from the Kronecker formula at (0, 0)"
    assert nonassoc._kronecker_mismatch(bad, [(a, k)]) == want


def test_kronecker_mismatch_names_the_first_pair_in_block_order():
    """With both factors of dim m >= 2, cells (1, 0) and (0, m) lie in the
    blocks of factor pairs (0, 0) and (0, 1): planted together, the check
    names (1, 0), first in (i1, i2, j1, j2) order, though (0, m) comes
    first in (x, y) order."""
    zb = rational_poisson(2, {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}}, {})
    for p, q in [(zb, zb), (POISSON3, zb), (zb, POISSON3), (UNIT_XY, POISSON3)]:
        m = q.dim
        for table, pairs in (
            (tensor_product(p.product, q.product), [(p.product, q.product)]),
            (poisson_tensor(p, q).bracket, [(p.bracket, q.product), (p.product, q.bracket)]),
        ):
            den, rows = table.scaled_table
            rows = [list(r) for r in rows]
            for x, y in ((1, 0), (0, m)):
                rows[x][y] = tuple((k, 2 * c) for k, c in rows[x][y]) or ((0, 1),)
            bad = AlgebraStructure(table.dim, "assoc", (den, tuple(map(tuple, rows))))
            want = "differs from the Kronecker formula at (1, 0)"
            assert nonassoc._kronecker_mismatch(bad, pairs) == want


def test_nested_products_on_rows_of_every_length():
    """The kernel starts each sum at the first product of the inner row: rows
    holding no product, one with c = 1, one with c != 1 and several decode
    to the dict nested products, both nestings, for one table and for two."""
    a = rational_assoc(
        3,
        {
            (0, 1): {2: 1},
            (1, 0): {0: -3},
            (1, 1): {0: 2, 1: 1, 2: -1},
            (2, 0): {2: 1},
            (2, 2): {1: 5, 2: 1},
        },
    )
    b = rational_assoc(3, {(0, 0): {0: 1}, (0, 2): {1: -1, 2: 4}, (2, 1): {0: 7}})
    rows = [row for r in a.scaled_table[1] for row in r]
    singles = {row[0][1] for row in rows if len(row) == 1}
    assert {len(row) for row in rows} == {0, 1, 2, 3} and 1 in singles and -3 in singles
    for outer, inner in ((a, a), (b, a), (a, b), (b, b)):
        _assert_unpacks(outer, inner, slot_width(1, (outer, inner)))


# -- parity of the integer kernel with a plain Fraction reference ---------
#
# The references below evaluate every identity with the public vector-level
# `associator` and `bilinear`, scanning triples in the same order as the
# checks, so verdicts and first witnesses must agree exactly.


def _ref_sign(pattern):
    inversions = sum(
        1 for x in range(3) for y in range(x + 1, 3) if pattern[x] > pattern[y]
    )
    return -1 if inversions % 2 else 1


def _ref_g_check(a, tag, signed):
    e = [unit(a.dim, i) for i in range(a.dim)]
    for t in iter_product(range(a.dim), repeat=3):
        acc = [Fraction(0)] * a.dim
        for pattern, _ in PATTERNS[tag]:
            sign = _ref_sign(pattern) if signed else 1
            vec = associator(a, *(e[t[p]] for p in pattern))
            acc = [x + sign * y for x, y in zip(acc, vec)]
        if any(acc):
            return False, t
    return True, None


def _ref_dual(b, tag):
    e = [unit(b.dim, i) for i in range(b.dim)]
    triples = list(iter_product(range(b.dim), repeat=3))
    for t in triples:
        if any(associator(b, e[t[0]], e[t[1]], e[t[2]])):
            return False, t

    def prod3(t):
        return b.bilinear(b.bilinear(e[t[0]], e[t[1]]), e[t[2]])

    for t in triples:
        for pattern, _ in PATTERNS[tag][1:]:
            if prod3(tuple(t[p] for p in pattern)) != prod3(t):
                return False, t
    return True, None


def _ref_jacobi_terms(b, key):
    e = [unit(b.dim, i) for i in range(b.dim)]
    x, y, z = (e[i] for i in key)
    total = [Fraction(0)] * b.dim
    for u, v, w in ((x, y, z), (y, z, x), (z, x, y)):
        total = [s + c for s, c in zip(total, b.bilinear(b.bilinear(u, v), w))]
    return tuple(total)


def _ref_jacobiator(g):
    vals = {}
    for key in combinations(range(g.dim), 3):
        total = _ref_jacobi_terms(g, key)
        if any(total):
            vals[key] = total
    return rational_cochain(3, g.dim, "adjoint", vals)


def _ref_is_lie(b):
    for key in combinations(range(b.dim), 3):
        if any(_ref_jacobi_terms(b, key)):
            return False, key
    return True, None


def _ref_poisson(p):
    n, pr, br = p.dim, p.product, p.bracket
    e = [unit(pr.dim, i) for i in range(n)]
    for i in range(n):
        for j in range(i, n):
            if pr.bilinear(e[i], e[j]) != pr.bilinear(e[j], e[i]):
                return False, ("product not commutative", (i, j))
    for t in iter_product(range(n), repeat=3):
        if any(associator(pr, e[t[0]], e[t[1]], e[t[2]])):
            return False, ("product not associative", t)
    for i in range(n):
        for j in range(i, n):
            plus, minus = br.bilinear(e[i], e[j]), br.bilinear(e[j], e[i])
            if any(x + y for x, y in zip(plus, minus)):
                return False, ("bracket not antisymmetric", (i, j))
    ok, key = _ref_is_lie(br)
    if not ok:
        return False, ("bracket fails Jacobi", key)
    for a, b, c in iter_product(range(n), repeat=3):
        left = br.bilinear(e[a], pr.bilinear(e[b], e[c]))
        r1 = pr.bilinear(e[b], br.bilinear(e[a], e[c]))
        r2 = pr.bilinear(br.bilinear(e[a], e[b]), e[c])
        if any(x - y - z for x, y, z in zip(left, r1, r2)):
            return False, ("Leibniz rule fails", (a, b, c))
    return True, None


ODD_DENS = (1, 3, 5, 7)


def _odd_frac(rng):
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice(ODD_DENS))


def _random_table(rng, n, entries, symmetric=False, antisymmetric=False):
    table = {}
    for _ in range(entries):
        i, j, k = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        if antisymmetric and i == j:
            continue
        c = _odd_frac(rng)
        table.setdefault((i, j), {})[k] = c
        if symmetric:
            table.setdefault((j, i), {})[k] = c
        if antisymmetric:
            table.setdefault((j, i), {})[k] = -c
    return table


def _conjugate_poisson(rng, p):
    m = random_invertible(rng, p.dim)
    return PoissonStructure(p.dim, change_basis(p.product, m), change_basis(p.bracket, m))


def _assoc_cases(rng):
    cases = []
    for _ in range(12):
        n = rng.randint(2, 4)
        cases.append(rational_assoc(n, _random_table(rng, n, rng.randint(1, 5))))
    for alg in ASSOCIATIVE_POOL:
        cases.append(conjugated(rng, alg))
    for _ in range(4):
        cases.append(lie_as_product(random_lie(rng, rng.randint(3, 4))))
    cases.append(tensor_product(conjugated(rng, KX2), conjugated(rng, UPPER2)))
    cases.append(conjugated(rng, vinberg_search()[0]))
    return cases


def _poisson_cases(rng):
    zb = rational_poisson(
        2, {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}}, {}
    )
    cases = [
        _conjugate_poisson(rng, POISSON3),
        _conjugate_poisson(rng, poisson_tensor(POISSON3, zb)),
    ]
    for _ in range(14):
        # commutative associative products (a zero product leaves Jacobi as
        # the only bracket condition) reach the bracket axioms; random
        # tables fail on the product first
        base = rng.choice(
            [
                conjugated(rng, KX2),
                conjugated(rng, KX3),
                conjugated(rng, KXK),
                rational_assoc(rng.randint(3, 4), {}),
                rational_assoc(
                    3, _random_table(rng, 3, 3, symmetric=rng.random() < 0.5)
                ),
            ]
        )
        bracket = _random_table(
            rng, base.dim, rng.randint(1, 4), antisymmetric=rng.random() < 0.85
        )
        cases.append(PoissonStructure(base.dim, base, rational_assoc(base.dim, bracket)))
    return cases


def _lie_cases(rng):
    cases = [random_lie(rng, rng.randint(3, 5)) for _ in range(6)]
    for _ in range(6):
        n = rng.randint(3, 4)
        table = {}
        for (i, j, k) in {(rng.randrange(n), rng.randrange(n), rng.randrange(n)) for _ in range(4)}:
            if i != j:
                table.setdefault((min(i, j), max(i, j)), {})[k] = _odd_frac(rng)
        cases.append(rational_lie(n, table))
    return cases


@pytest.mark.parametrize("seed", [81, 82])
def test_kernel_matches_fraction_reference(seed, tmp_path, capsys):
    rng = random.Random(seed)
    dens = []
    for alg in _assoc_cases(rng):
        dens.append(alg.scaled_table[0])
        for tag in SubgroupTag:
            for signed in (True, False):
                assert g_associative_check(alg, tag, signed) == _ref_g_check(
                    alg, tag, signed
                ), (tag, signed, fraction_table(alg))
            assert dual_identity_check(alg, tag) == _ref_dual(alg, tag), (tag, fraction_table(alg))
        want_ok, want_t = _ref_g_check(alg, SubgroupTag.ID, True)
        code, doc = _cli_check(tmp_path, capsys, {"dim": alg.dim, "kind": "assoc", "table": _table_doc(alg)})
        assert code == (0 if want_ok else 1)
        assert doc["detail"].get("witness", {}).get("triple") == (None if want_ok else list(want_t))
    for p in _poisson_cases(rng):
        dens.append(p.product.scaled_table[0] * p.bracket.scaled_table[0])
        want = _ref_poisson(p)
        assert poisson_verify(p) == want, (fraction_table(p.product), fraction_table(p.bracket))
        code, doc = _cli_check(
            tmp_path,
            capsys,
            {
                "dim": p.dim,
                "kind": "poisson",
                "assoc_table": _table_doc(p.product),
                "bracket_table": _table_doc(p.bracket),
            },
        )
        assert code == (0 if want[0] else 1)
        if not want[0]:
            assert doc["detail"]["witness"] == {"axiom": want[1][0], "args": list(want[1][1])}
    for g in _lie_cases(rng):
        dens.append(g.scaled_table[0])
        assert jacobiator(g) == _ref_jacobiator(g), fraction_table(g)
        want_ok, want_t = _ref_is_lie(g)
        assert is_lie(g) == (want_ok, want_t)
        code, doc = _cli_check(tmp_path, capsys, {"dim": g.dim, "kind": "lie", "table": _table_doc(g)})
        assert code == (0 if want_ok else 1)
        assert doc["detail"].get("witness", {}).get("triple") == (None if want_ok else list(want_t))
    assert any(d % 3 == 0 for d in dens) and any(d % 5 == 0 for d in dens)
    assert any(d % 7 == 0 for d in dens)


def _ref_kron(left, right, width):
    out = {}
    for p, cp in left.items():
        for q, cq in right.items():
            out[p * width + q] = out.get(p * width + q, 0) + cp * cq
    return out


def test_tensor_tables_match_fraction_reference():
    rng = random.Random(83)
    zb = rational_poisson(
        2, {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}}, {}
    )
    dens = set()
    for _ in range(8):
        a, b = (
            rng.choice(
                [
                    conjugated(rng, rng.choice(ASSOCIATIVE_POOL)),
                    rational_assoc(3, _random_table(rng, 3, 4)),
                    random_lie(rng, 3),
                ]
            )
            for _ in range(2)
        )
        dens |= {a.scaled_table[0], b.scaled_table[0]}
        want = {}
        for (i1, i2), left in full_fraction_table(a).items():
            for (j1, j2), right in full_fraction_table(b).items():
                key = (i1 * b.dim + j1, i2 * b.dim + j2)
                want[key] = _ref_kron(left, right, b.dim)
        assert full_fraction_table(tensor_product(a, b)) == want
        p, q = (_conjugate_poisson(rng, rng.choice((POISSON3, zb))) for _ in range(2))
        br_p, pr_p = full_fraction_table(p.bracket), full_fraction_table(p.product)
        br_q, pr_q = full_fraction_table(q.bracket), full_fraction_table(q.product)
        want = {}
        for i1, i2, j1, j2 in iter_product(range(p.dim), range(p.dim), range(q.dim), range(q.dim)):
            out = _ref_kron(br_p.get((i1, i2), {}), pr_q.get((j1, j2), {}), q.dim)
            for k, c in _ref_kron(pr_p.get((i1, i2), {}), br_q.get((j1, j2), {}), q.dim).items():
                out[k] = out.get(k, 0) + c
            out = {k: c for k, c in out.items() if c}
            if out:
                want[(i1 * q.dim + j1, i2 * q.dim + j2)] = out
        t = poisson_tensor(p, q)
        assert full_fraction_table(t.bracket) == want
        assert full_fraction_table(t.product) == full_fraction_table(tensor_product(p.product, q.product))
        dens |= {p.bracket.scaled_table[0], q.product.scaled_table[0]}
    assert all(any(d % m == 0 for d in dens) for m in (2, 3))


def _scaled_poisson(rng, p):
    """p with its product and bracket each scaled by a random nonzero
    rational: both sides of every axiom scale alike, so it stays Poisson."""
    a, b = (Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.choice((1, 2, 3, 4, 6))) for _ in "ab")

    def times(alg, x):
        return rational_assoc(
            p.dim, {pair: {k: x * c for k, c in out.items()} for pair, out in full_fraction_table(alg).items()}
        )

    return PoissonStructure(p.dim, times(p.product, a), times(p.bracket, b))


def test_constructions_match_fraction_reference():
    """`tensor_product`, `poisson_tensor` and `opposite_poisson` build their
    integer tables with the `scaled_table` of a Fraction-built reference
    (`gens.reference_tensor`, ...), zero factors included; the opposite of
    the opposite is the input."""
    rng = random.Random(89)
    zb = rational_poisson(2, {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}}, {})
    zero = rational_poisson(2, {}, {})
    dens = set()
    for _ in range(12):
        a, b = (
            rng.choice(
                [
                    rational_assoc(n, _random_table(rng, n, rng.randint(0, 5)))
                    for n in (2, 3)
                ]
                + [random_lie(rng, 3), conjugated(rng, rng.choice(ASSOCIATIVE_POOL))]
            )
            for _ in "ab"
        )
        assert tensor_product(a, b).scaled_table == reference_tensor(a, b)
        p, q = (
            _scaled_poisson(rng, _conjugate_poisson(rng, rng.choice((POISSON3, zb, zero))))
            for _ in "pq"
        )
        t = poisson_tensor(p, q)
        assert (t.product.scaled_table, t.bracket.scaled_table) == reference_poisson_tensor(p, q)
        op = opposite_poisson(p)
        assert (op.product.scaled_table, op.bracket.scaled_table) == reference_opposite(p)
        assert opposite_poisson(op) == p
        dens |= {a.scaled_table[0], b.scaled_table[0], t.bracket.scaled_table[0]}
    assert all(any(d % m == 0 for d in dens) for m in (2, 3, 5))
    # a zero factor leaves a zero table, over den 1 whatever the other's den
    half = rational_assoc(1, {(0, 0): {0: Fraction(1, 2)}})
    assert tensor_product(half, rational_assoc(2, {})).scaled_table == reference_tensor(
        half, rational_assoc(2, {})
    )


def _cli_check(tmp_path, capsys, doc):
    path = tmp_path / "alg.json"
    # a new file: truncating one in place can take ~50 ms on some file systems
    path.unlink(missing_ok=True)
    path.write_text(json.dumps(doc))
    code = main(["check", str(path)])
    return code, json.loads(capsys.readouterr().out)


# -- packed nested products against the dict contraction ------------------


def _unpack(x, width, n):
    """The nonzero signed slots {q: c} of a vector packed in `width`-bit slots."""
    half, out = 1 << (width - 1), {}
    for q in range(n):
        low = ((x + half) & ((1 << width) - 1)) - half
        if low:
            out[q] = low
        x = (x - low) >> width
    assert x == 0
    return out


def _assert_unpacks(outer, inner, width):
    """Both packed nestings decode to the dict nested products, triple by triple."""
    _, left, right = triple_products(outer, inner)
    for side, want in ((True, left), (False, right)):
        got = nested_products(pack(outer, width), inner, side)
        assert [_unpack(x, width, outer.dim) for x in got] == want


def _rescaled(alg, factors):
    """alg in the basis f_i = factors[i] * e_i, whose constants are
    c * d_i * d_j / d_k; every identity checked here survives it."""
    table = {}
    for (i, j), out in fraction_table(alg).items():
        d = factors[i] * factors[j]
        table[(i, j)] = {k: c * d / factors[k] for k, c in out}
    return rational_assoc(alg.dim, table)



def test_packed_verdicts_match_dict_contraction():
    """Every packed verdict (associator, each G-sum signed and unsigned, dual
    identity, Poisson product and Leibniz) equals the dict contraction's,
    on dense random tables and on rescaled structured ones with one
    perturbed constant, all with mixed-sign constants up to 2^40."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    big = st.integers(-(2**40), 2**40)
    pool = ASSOCIATIVE_POOL + [vinberg_search()[0]]
    pool += [lie_as_product(random_lie(random.Random(s), 3)) for s in range(3)]
    factors = st.integers(1, 2**13).flatmap(lambda d: st.sampled_from((d, -d)))

    @st.composite
    def dense(draw):
        n = draw(st.integers(1, 4))
        rows = st.lists(st.one_of(st.just(0), big), min_size=n, max_size=n)
        table = {
            (i, j): dict(enumerate(draw(rows))) for i, j in iter_product(range(n), repeat=2)
        }
        return rational_assoc(n, table)

    def perturbed(draw, alg, antisymmetric=False):
        n = alg.dim
        if not draw(st.booleans()):
            return alg
        i, j, k = (draw(st.integers(0, n - 1)) for _ in range(3))
        c = draw(big.filter(bool))
        table = {pair: dict(out) for pair, out in fraction_table(alg).items()}
        table.setdefault((i, j), {})
        table[(i, j)][k] = table[(i, j)].get(k, 0) + c
        if antisymmetric and i != j:
            table.setdefault((j, i), {})
            table[(j, i)][k] = table[(j, i)].get(k, 0) - c
        return rational_assoc(n, table)

    @st.composite
    def structured(draw):
        alg = draw(st.sampled_from(pool))
        scale = draw(st.lists(factors, min_size=alg.dim, max_size=alg.dim))
        return perturbed(draw, _rescaled(alg, scale))

    @st.composite
    def poisson(draw):
        rng = draw(st.randoms(use_true_random=False))
        p = draw(
            st.sampled_from(
                [POISSON3]
                + [PoissonStructure(a.dim, a, lie_as_product(random_lie(rng, a.dim)))
                   for a in COMMUTATIVE_POOL + [rational_assoc(3, {})]]
            )
        )
        scale = draw(st.lists(factors, min_size=p.dim, max_size=p.dim))
        product = _rescaled(p.product, scale)
        bracket = perturbed(draw, _rescaled(p.bracket, scale), antisymmetric=True)
        return PoissonStructure(p.dim, product, bracket)

    @hypothesis.settings(max_examples=150, deadline=None, database=None)
    @hypothesis.given(st.one_of(dense(), structured()))
    def check_algebra(alg):
        _assert_unpacks(alg, alg, slot_width(1, (alg, alg)))
        for tag in SubgroupTag:
            for signed in (True, False):
                assert g_associative_check(alg, tag, signed) == dict_g_check(alg, tag, signed)
            assert dual_identity_check(alg, tag) == dict_dual(alg, tag)

    @hypothesis.settings(max_examples=100, deadline=None, database=None)
    @hypothesis.given(poisson())
    def check_poisson(p):
        width = slot_width(3, (p.bracket, p.product), (p.product, p.bracket))
        _assert_unpacks(p.bracket, p.product, width)
        _assert_unpacks(p.product, p.bracket, width)
        assert poisson_verify(p) == dict_poisson(p)

    check_algebra()
    check_poisson()


def test_slot_width_is_tight():
    """At (0, 0, 0) the two nestings of this table are 2e0 - e1 and -2e0:
    r = 2 and c = 1 give the bound M = 2 and slots of B = 3 bits, and their
    difference (4, -1) packs to zero in slots one bit narrower, where the
    first failing triple would move to (0, 0, 1)."""
    b = rational_assoc(
        3,
        {
            (0, 0): {1: 1, 2: 1},
            (1, 0): {0: 1},
            (2, 0): {0: 1, 1: -1},
            (0, 1): {0: -1},
            (0, 2): {0: -1},
        },
    )
    _, left, right = triple_products(b, b)
    assert (left[0], right[0]) == ({0: 2, 1: -1}, {0: -2})
    width = slot_width(1, (b, b))
    assert width == 3
    packed = pack(b, width - 1)
    narrow = (nested_products(packed, b, side)[0] for side in (True, False))
    assert len(set(narrow)) == 1
    assert dual_identity_check(b, SubgroupTag.ID) == (False, (0, 0, 0))
    assert dual_identity_check(b, SubgroupTag.ID) == dict_dual(b, SubgroupTag.ID)
    assert g_associative_check(b, SubgroupTag.ID) == (False, (0, 0, 0))
