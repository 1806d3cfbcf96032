"""Structure constants, bracket evaluation, cochains, Jacobi checking."""

import random

from fractions import Fraction
from itertools import combinations

import pytest

from valdef.algebra import (
    COEFFS,
    AlgebraStructure,
    Cochain,
    associator,
    is_lie,
    jacobiator,
)
from valdef.errors import DimensionMismatch
from valdef.deformation import cochain_doc, parse_cochain
from valdef.nonassoc import unpack

from gens import (
    H3,
    R2,
    SL2,
    abelian_lie,
    change_basis,
    cochain_flat,
    cochain_from_flat,
    cochain_value,
    frac,
    mu_cochain,
    random_invertible,
    random_lie,
    rational_assoc,
    rational_cochain,
    rational_lie,
    rational_str,
    scale_cochain,
)


def e(n, i):
    return tuple(Fraction(1) if k == i else Fraction(0) for k in range(n))


def test_bracket_table_lookup():
    assert H3.bilinear(e(3, 0), e(3, 1)) == e(3, 2)
    x = (Fraction(1), Fraction(2), Fraction(-1))
    assert H3.bilinear(x, x) == (Fraction(0),) * 3
    # sign flip under swapped arguments
    assert R2.bilinear(e(2, 1), e(2, 0)) == (Fraction(0), Fraction(-1))


def test_bracket_bilinear():
    rng = random.Random(41)
    for _ in range(30):
        g = random_lie(rng, 3)
        x = tuple(frac(rng) for _ in range(3))
        y = tuple(frac(rng) for _ in range(3))
        z = tuple(frac(rng) for _ in range(3))
        a, b = frac(rng), frac(rng)
        combo = tuple(a * xi + b * zi for xi, zi in zip(x, z))
        left = g.bilinear(combo, y)
        want = tuple(
            a * p + b * q
            for p, q in zip(g.bilinear(x, y), g.bilinear(z, y))
        )
        assert left == want


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        H3.bilinear((1, 0), (0, 1, 0))


def test_lie_table_rejects_bad_keys():
    with pytest.raises(ValueError):
        rational_lie(2, {(1, 0): {0: 1}})
    with pytest.raises(ValueError):
        rational_lie(2, {(0, 0): {0: 1}})
    with pytest.raises(ValueError):
        rational_lie(2, {(0, 3): {0: 1}})


def test_jacobiator_zero_cases():
    assert jacobiator(H3).is_zero()
    assert jacobiator(abelian_lie(4)).is_zero()


def test_jacobiator_nonzero_hand_expansion():
    # [e1,e2] = e1, [e1,e3] = e2, [e2,e3] = 0
    bad = rational_lie(3, {(0, 1): {0: 1}, (0, 2): {1: 1}})
    # oracle: [[e1,e2],e3] + [[e2,e3],e1] + [[e3,e1],e2]
    t1 = bad.bilinear(bad.bilinear(e(3, 0), e(3, 1)), e(3, 2))
    t2 = bad.bilinear(bad.bilinear(e(3, 1), e(3, 2)), e(3, 0))
    t3 = bad.bilinear(bad.bilinear(e(3, 2), e(3, 0)), e(3, 1))
    total = tuple(a + b + c for a, b, c in zip(t1, t2, t3))
    assert total == (Fraction(0), Fraction(1), Fraction(0))
    assert cochain_value(jacobiator(bad), (0, 1, 2)) == total
    ok, witness = is_lie(bad)
    assert not ok and witness == (0, 1, 2)


def test_sl2_jacobi_direct():
    h, ee, f = e(3, 0), e(3, 1), e(3, 2)
    total = tuple(
        a + b + c
        for a, b, c in zip(
            SL2.bilinear(SL2.bilinear(h, ee), f),
            SL2.bilinear(SL2.bilinear(ee, f), h),
            SL2.bilinear(SL2.bilinear(f, h), ee),
        )
    )
    assert total == (Fraction(0),) * 3
    assert is_lie(SL2) == (True, None)


def test_associator_cases():
    upper = rational_assoc(
        3, {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 2): {1: 1}, (2, 2): {2: 1}}
    )
    for i in range(3):
        for j in range(3):
            for k in range(3):
                assert associator(upper, e(3, i), e(3, j), e(3, k)) == (
                    Fraction(0),
                ) * 3
    unital = rational_assoc(1, {(0, 0): {0: 1}})
    assert associator(unital, e(1, 0), e(1, 0), e(1, 0)) == (Fraction(0),)
    # non-associative: left and right parenthesisations computed separately
    na = rational_assoc(2, {(0, 0): {1: 1}, (1, 0): {0: 1}})
    left = na.bilinear(na.bilinear(e(2, 0), e(2, 0)), e(2, 0))
    right = na.bilinear(e(2, 0), na.bilinear(e(2, 0), e(2, 0)))
    assert left != right
    got = associator(na, e(2, 0), e(2, 0), e(2, 0))
    assert got == tuple(a - b for a, b in zip(left, right))
    assert any(got)


def test_cochain_alternation():
    c = rational_cochain(2, 3, "adjoint", {(0, 1): (1, 2, 3)})
    den, rows = c.scaled_table
    assert den == 1
    assert rows[0][1] == ((0, 1), (1, 2), (2, 3))
    assert rows[1][0] == ((0, -1), (1, -2), (2, -3))
    assert rows[1][1] == rows[0][2] == ()
    half = rational_cochain(2, 3, "adjoint", {(0, 2): (0, Fraction(1, 2), 0)})
    rows = (((), (), ((1, 1),)), ((), (), ()), (((1, -1),), (), ()))
    assert half.scaled_table == (2, rows)


def test_cochain_flatten_roundtrip():
    rng = random.Random(42)
    from gens import random_cochain

    for target in ("adjoint", "trivial"):
        for _ in range(10):
            c = random_cochain(rng, 4, 2, target)
            again = cochain_from_flat(2, 4, target, cochain_flat(c))
            assert again == c


def test_from_flat_inverts_flat_nums():
    """`Cochain.from_flat` reads every cochain of degree 1-3, either target,
    back from its den and `flat_nums`; the same flat over a den scaled up by
    a common factor comes back canonical, and an arbitrary integer flat
    gives the cochain of its rationals."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def flats(draw):
        degree = draw(st.integers(1, 3))
        dim = draw(st.integers(degree, 5))
        target = draw(st.sampled_from(COEFFS))
        size = len(list(combinations(range(dim), degree))) * (
            dim if target == "adjoint" else 1
        )
        entries = st.one_of(st.just(0), st.integers(-(10**12), 10**12))
        flat = draw(st.lists(entries, min_size=size, max_size=size))
        return degree, dim, target, draw(st.integers(1, 10**9)), flat

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(flats(), st.integers(2, 10**6))
    def check(spec, scale):
        degree, dim, target, den, flat = spec
        c = Cochain.from_flat(degree, dim, target, den, flat)
        rationals = [Fraction(x, den) for x in flat]
        assert c == cochain_from_flat(degree, dim, target, rationals)
        shape = (c.degree, c.dim, c.target)
        assert Cochain.from_flat(*shape, c.den, c.flat_nums) == c
        wide = [scale * x for x in c.flat_nums]
        again = Cochain.from_flat(*shape, scale * c.den, wide)
        assert again == c and hash(again) == hash(c)

    check()


def test_cochain_table_matches_the_algebra_builder():
    """A degree-2 adjoint cochain's `scaled_table`, read off its canonical
    values, is the table `AlgebraStructure.scaled` builds from the same
    values, on random cochains whose values include zero vectors and whose
    den shares factors with them before `Cochain.scaled` divides them out."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def raw_values(draw):
        dim = draw(st.integers(1, 6))
        entries = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-(10**15), 10**15))
        values = {
            key: draw(st.lists(entries, min_size=dim, max_size=dim))
            for key in combinations(range(dim), 2)
            if draw(st.booleans())
        }
        if values and draw(st.booleans()):
            values[next(iter(values))] = [0] * dim
        return dim, draw(st.integers(1, 720)), values

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(raw_values())
    @hypothesis.example((3, 4, {(0, 2): [0, 0, 0]}))
    @hypothesis.example((3, 6, {(0, 1): [2, 0, -4], (1, 2): [0, 0, 0]}))
    def check(raw):
        dim, den, values = raw
        c = Cochain.scaled(2, dim, "adjoint", den, values)
        table = {key: dict(enumerate(vec)) for key, vec in values.items()}
        assert c.scaled_table == AlgebraStructure.scaled(dim, "lie", den, table).scaled_table

    check()


def test_cached_properties_are_computed_once_per_instance(monkeypatch):
    """The Jacobi verdict, the cochain table, the flat coordinates and the
    table extent are each computed on the first read and then kept, and a
    filled cache changes neither equality nor hash."""
    import valdef.algebra as algebra
    from valdef.cohomology import cohomology_dim

    calls = []
    real = algebra.jacobi_sums

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(algebra, "jacobi_sums", spy)
    g = rational_lie(3, {(0, 1): {2: 1}})
    assert is_lie(g) == is_lie(g) == (True, None)
    cohomology_dim(g, 2, "adjoint")
    assert len(calls) == 1
    assert g.extent is g.extent
    values = {(0, 1): (1, 0, Fraction(2, 3)), (1, 2): (0, 3, 0)}
    phi, fresh = (rational_cochain(2, 3, "adjoint", values) for _ in range(2))
    assert phi.scaled_table is phi.scaled_table
    assert phi.flat_nums is phi.flat_nums
    assert phi == fresh and hash(phi) == hash(fresh)


def test_cochain_printer_matches_rational_str():
    """deformation.cochain_doc prints every entry of an adjoint cochain built from
    rationals in lowest terms, as rational_str of its Fraction value does,
    and deformation.parse_cochain reads a degree-2 document, the shape of a
    deformation term, back to an equal cochain; the same values at another
    scale compare and hash equal, for either target."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    rationals = st.one_of(
        st.just(Fraction(0)),
        st.builds(
            Fraction,
            st.integers(-(10**12), 10**12),
            st.sampled_from((1, 2, 3, 6, 7, 10**9 + 7)),
        ),
    )

    @st.composite
    def cochains(draw):
        dim = draw(st.integers(1, 4))
        degree = draw(st.integers(0, min(3, dim)))
        target = draw(st.sampled_from(COEFFS))
        keys = draw(st.lists(st.sampled_from(list(combinations(range(dim), degree)))))
        width = dim if target == "adjoint" else None
        values = {}
        for key in keys:
            if width is None:
                values[key] = draw(rationals)
            else:
                values[key] = draw(st.lists(rationals, min_size=width, max_size=width))
        return degree, dim, target, values

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(cochains(), st.integers(2, 10**6))
    def check(spec, scale):
        degree, dim, target, values = spec
        c = rational_cochain(degree, dim, target, values)
        if target == "adjoint":
            rows = []
            for key in sorted(values):
                out = [{"k": k, "c": rational_str(v)} for k, v in enumerate(values[key]) if v]
                if out:
                    rows.append({"args": list(key), "out": out})
            doc = cochain_doc(c)
            assert doc == {"degree": degree, "target": target, "values": rows}
            if degree == 2:
                again = parse_cochain(doc, dim)
                assert again == c and hash(again) == hash(c)
        # the same values over scale times the denominator
        wide = {key: [scale * x for x in vec] for key, vec in c.values.items()}
        other = Cochain.scaled(degree, dim, target, scale * c.den, wide)
        assert other == c and hash(other) == hash(c)
        assert scale_cochain(scale_cochain(c, scale), Fraction(1, scale)) == c
        negated = scale_cochain(c, -1)
        assert (c + c) + negated == c and (c + negated).is_zero()

    check()


def test_mu_cochain_matches_table():
    mu = mu_cochain(SL2)
    assert cochain_value(mu, (0, 1)) == (Fraction(0), Fraction(2), Fraction(0))
    # the cochain of a bracket gets the bracket's integer table, from the same code
    rng = random.Random(44)
    for g in (SL2, H3, R2, *(random_lie(rng, rng.randint(2, 5)) for _ in range(10))):
        assert mu_cochain(g).scaled_table == g.scaled_table


def test_change_basis_preserves_jacobi():
    rng = random.Random(43)
    for _ in range(20):
        g = random_lie(rng, rng.randint(2, 4))
        h = change_basis(g, random_invertible(rng, g.dim))
        assert is_lie(h)[0]


# -- tables read straight into integers, against the Fraction reader -----


def _table_documents(st):
    """(valid, mangled): strategies for lie, assoc and poisson documents of
    dims 1-4 whose constants are unreduced, signed and zero-padded literals
    over a few shared denominators; mangled ones carry one or two faults."""
    fixed = st.sampled_from(("2/4", "-0/5", "+3", "06/010", "0", "-0", "+0/7", "-6/4"))

    @st.composite
    def literals(draw):
        q = draw(st.sampled_from((1, 2, 3, 4, 6, 10)))
        scale = draw(st.integers(1, 3))  # unreduced: p * scale / q * scale
        p = draw(st.integers(-12, 12)) * scale
        sign = "-" if p < 0 else draw(st.sampled_from(("", "+", "-")))
        text = "0" * draw(st.integers(0, 2)) + str(abs(p))
        if q * scale == 1 and draw(st.booleans()):
            return sign + text
        return f"{sign}{text}/{'0' * draw(st.integers(0, 1))}{q * scale}"

    constants = st.one_of(literals(), fixed)

    @st.composite
    def tables(draw, dim, lie):
        pairs = (
            list(combinations(range(dim), 2))
            if lie
            else [(i, j) for i in range(dim) for j in range(dim)]
        )
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=6)) if pairs else []
        return [
            {
                "i": i,
                "j": j,
                "out": [
                    {"k": k, "c": draw(constants)}
                    for k in draw(st.lists(st.integers(0, dim - 1), unique=True, max_size=3))
                ],
            }
            for i, j in chosen
        ]

    @st.composite
    def documents(draw):
        dim = draw(st.integers(1, 4))
        kind = draw(st.sampled_from(("lie", "assoc", "poisson")))
        if kind == "poisson":
            return {
                "dim": dim,
                "kind": kind,
                "assoc_table": draw(tables(dim, False)),
                "bracket_table": draw(tables(dim, False)),
            }
        return {"dim": dim, "kind": kind, "table": draw(tables(dim, kind == "lie"))}

    bad_literals = st.sampled_from(("1/0", "-3/0", "x", "", "1.5", "1/-2", "1 /2", 5, None))

    @st.composite
    def faults(draw, doc):
        names = [name for name in ("table", "assoc_table", "bracket_table") if name in doc]
        name = draw(st.sampled_from(names))
        rows = doc[name]
        dim = doc["dim"]
        fault = draw(
            st.sampled_from(("literal", "k", "pair", "reverse", "repeat", "duplicate"))
        )
        if not rows or fault == "pair":
            rows.insert(draw(st.integers(0, len(rows))), {
                "i": draw(st.sampled_from((-1, 0, dim))),
                "j": dim,
                "out": [{"k": 0, "c": "1"}],
            })
        elif fault == "duplicate":
            rows.append(dict(rows[draw(st.integers(0, len(rows) - 1))]))
        else:
            row = rows[draw(st.integers(0, len(rows) - 1))]
            if fault == "reverse":
                row["i"], row["j"] = row["j"], row["i"]
            elif fault == "k":
                row["out"] = row["out"] + [{"k": draw(st.sampled_from((-1, dim))), "c": "1"}]
            elif fault == "repeat" and row["out"]:
                row["out"] = row["out"] + row["out"][:1]
            else:
                row["out"] = row["out"] + [{"k": dim - 1, "c": draw(bad_literals)}]
        return doc

    def mangled(draw_doc):
        return draw_doc.flatmap(lambda doc: faults(doc).flatmap(
            lambda once: st.one_of(st.just(once), faults(once))
        ))

    return documents(), mangled(documents())


def _structures(loaded):
    if loaded.kind == "poisson":
        return [loaded.algebra.product, loaded.algebra.bracket]
    return [loaded.algebra]


def test_integer_reader_matches_fraction_reader():
    """`io.parse_algebra` reads every literal straight into integers over one
    denominator.  On lie, assoc and poisson documents with unreduced, signed
    and zero-padded literals, zero constants and shared denominators it gives
    the `scaled_table` and the printed table of the Fraction reader
    (`gens.reference_read`), in canonical form; on documents with one or two
    faults it refuses them with the Fraction reader's text."""
    import copy
    from math import gcd

    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    from valdef.commands import _table_doc
    from valdef.errors import FormatError
    from valdef.io import parse_algebra

    from gens import reference_read, reference_scaled, reference_table_doc

    valid, mangled = _table_documents(st)

    def outcome(read, doc):
        try:
            return read(copy.deepcopy(doc)), None
        except FormatError as exc:
            return None, str(exc)

    def same_tables(doc, loaded, tables):
        kind = "lie" if doc["kind"] == "lie" else "assoc"
        for structure, table in zip(_structures(loaded), tables, strict=True):
            den, rows = structure.scaled_table
            assert (den, rows) == reference_scaled(doc["dim"], kind, table)
            assert gcd(den, *(c for r in rows for row in r for _, c in row)) == 1
            assert _table_doc(structure) == reference_table_doc(table)

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(valid)
    def check_valid(doc):
        same_tables(doc, parse_algebra(doc), reference_read(doc))

    refused = []

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(mangled)
    def check_mangled(doc):
        got, error = outcome(parse_algebra, doc)
        want, want_error = outcome(reference_read, doc)
        assert error == want_error
        refused.append(error is not None)
        if got is not None:
            same_tables(doc, got, want)

    check_valid()
    check_mangled()
    assert sum(refused) > 0.8 * len(refused)


def test_basis_names_are_read_but_not_kept():
    """Two files that differ only in "basis" parse to equal, hashable
    structures; a "basis" that is not an array is still refused."""
    from valdef.errors import FormatError
    from valdef.io import parse_algebra

    doc = {"dim": 2, "kind": "lie", "table": [{"i": 0, "j": 1, "out": [{"k": 1, "c": "1"}]}]}
    plain = parse_algebra(doc).algebra
    for names in (["X", "Y"], [["X"], {"Y": 1}], []):
        named = parse_algebra(dict(doc, basis=names)).algebra
        assert named == plain
        assert hash(named) == hash(plain)
    with pytest.raises(FormatError, match="basis must be an array"):
        parse_algebra(dict(doc, basis="XY"))


def test_each_literal_of_a_document_read_once():
    """Tables, cochains and series literals read each distinct literal of a
    document once (`io.read_literal`), with the values and refusals of reading
    every literal on its own: a non-string "c" is refused with the text of
    `rational_pair`, a bad literal used in two entries is refused at the
    first one, and "1/2", "2/4", "+1/2" and " 1/2" in one document read to
    the same constants.  Tables are compared with `gens.reference_read`,
    cochains with `gens.rational_cochain`, series with each literal read
    alone, as `test_canonical_parse_and_inverse` reads them."""
    from valdef.errors import FormatError
    from valdef.deformation import parse_deformation
    from valdef.io import parse_algebra, rational_pair
    from valdef.series import parse_series_literal, parse_vector

    from gens import (
        integer_series,
        rational_cochain,
        reference_read,
        reference_scaled,
        series_of,
    )

    def error(read, *args):
        with pytest.raises(FormatError) as exc:
            read(*args)
        return str(exc.value)

    halves = ["1/2", "2/4", "+1/2", " 1/2"]
    half = Fraction(1, 2)
    cells = [[{"k": 0, "c": c}, {"k": 1, "c": "1/2"}] for c in halves]

    def entries(outs, kind):
        pairs = combinations(range(4), 2) if kind == "lie" else [(0, j) for j in range(4)]
        return [{"i": i, "j": j, "out": out} for (i, j), out in zip(pairs, outs)]

    def docs(outs):
        for kind in ("lie", "assoc"):
            yield {"dim": 4, "kind": kind, "table": entries(outs, kind)}
        rows = entries(outs, "assoc")
        yield {"dim": 4, "kind": "poisson", "assoc_table": rows, "bracket_table": rows}

    for doc in docs(cells):
        loaded = parse_algebra(doc).algebra
        structures = [loaded.product, loaded.bracket] if doc["kind"] == "poisson" else [loaded]
        kind = "lie" if doc["kind"] == "lie" else "assoc"
        for structure, table in zip(structures, reference_read(doc), strict=True):
            assert structure.scaled_table == reference_scaled(4, kind, table)
            assert {c for out in table.values() for _, c in out} == {half}
    # "5" is read before 5, 1_0 twice around an entry with another fault
    later = [{"k": "x", "c": "1"}]
    for bad in (5, None, [1], {"p": 1}, "1_0"):
        outs = [[{"k": 0, "c": "5"}], [{"k": 1, "c": bad}], later, [{"k": 2, "c": bad}]]
        for doc in docs(outs):
            want = error(reference_read, doc)
            assert error(parse_algebra, doc) == want == error(rational_pair, bad)

    values = [
        {"args": [0, 1], "out": [{"k": 0, "c": "1/2"}, {"k": 1, "c": "2/4"}]},
        {"args": [0, 2], "out": [{"k": 2, "c": "+1/2"}]},
        {"args": [1, 2], "out": [{"k": 0, "c": " 1/2"}, {"k": 2, "c": "5"}]},
    ]
    want = rational_cochain(
        2, 3, "adjoint", {(0, 1): [half, half, 0], (0, 2): [0, 0, half], (1, 2): [half, 0, 5]}
    )
    assert parse_cochain(values, 3) == want
    for bad in (5, None, [1], {"p": 1}, "1_0"):
        rows = [
            {"args": [0, 1], "out": [{"k": 0, "c": "5"}, {"k": 1, "c": bad}]},
            {"args": [0, 2], "out": [{"k": "x", "c": "1"}]},
            {"args": [1, 2], "out": [{"k": 0, "c": bad}]},
        ]
        assert error(parse_cochain, rows, 3) == error(rational_pair, bad)

    series = halves + ["5", "0", "1/2"]
    assert parse_series_literal(series, 7) == integer_series(series_of(series, 7))
    assert parse_series_literal(series, 7) == (2, (1, 1, 1, 1, 10, 0, 1, 0))
    assert parse_vector({"cap": 7, "components": [series, halves]}, 8) == (
        2,
        [[1, 1, 1, 1, 10, 0, 1, 0], [1, 1, 1, 1, 0, 0, 0, 0]],
    )
    for bad in (5, None, [1], {"p": 1}, "1_0"):
        comps = [["5", "1/2"], ["0", bad], "0", [bad]]
        want = error(parse_series_literal, ["0", bad], 3)
        assert error(parse_vector, {"cap": 3, "components": comps}, 8) == want
        assert want == error(rational_pair, bad)

    # one literal dict for a deformation's coefficients and cochains
    base = {"dim": 3, "kind": "lie", "table": []}
    terms = [
        {"coeff": ["0", c, "2/4"], "cochain": values[:2]} for c in ("1/2", " 1/2")
    ]
    d = parse_deformation({"base": base, "cap": 3, "terms": terms}, ".", 8)
    assert d.terms == tuple(
        (parse_series_literal(t["coeff"], 3), parse_cochain(t["cochain"], 3))
        for t in terms
    )
    assert d.terms[0] == d.terms[1] and d.terms[0][0] == (2, (0, 1, 1, 0))


def test_unpack_reads_each_slot_back():
    """`unpack` returns the signed coordinates packed into `width`-bit slots,
    each strictly inside (-2^(width-1), 2^(width-1)), the extremes included."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    def coordinates(width):
        bound = 2 ** (width - 1) - 1
        slot = st.one_of(st.sampled_from((0, bound, -bound)), st.integers(-bound, bound))
        return st.tuples(st.just(width), st.lists(slot, min_size=1, max_size=8))

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(st.integers(2, 70).flatmap(coordinates))
    def check(spec):
        width, coords = spec
        packed = sum(c << width * q for q, c in enumerate(coords))
        assert unpack(packed, len(coords), width) == coords

    check()
