"""Seeded corpora for the four workloads, built without valdef.

Every workload has a fixed list of case shapes (command, family,
dimension, cap); the seed only picks the constants inside them: roots,
structure constants, changes of basis, series coefficients.  So the cost
profile of a pass is nearly the same for every seed while the inputs are
not.  Each case records the exit code it must produce (or None where the
verdict is only constrained by the output itself) and what its check needs.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

import exact as ex

WORKLOADS = ("lie_adapted", "lie_conjugated", "nonassoc", "deform")


@dataclass
class Case:
    id: str
    argv: list
    expect: int | None  # required exit code; None: 0 or 1 as the output says
    check: dict = field(default_factory=dict)


class Writer:
    """Writes input files into one directory, numbered in creation order."""

    def __init__(self, root):
        self.root = root
        self.count = 0

    def put(self, stem, doc) -> str:
        self.count += 1
        path = os.path.join(self.root, f"{self.count:04d}-{stem}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True)
        return path


def build(workload, seed, root) -> list:
    rng = random.Random(f"{workload}:{seed}")
    w = Writer(root)
    if workload in ("lie_adapted", "lie_conjugated"):
        # both Lie workloads draw the same isomorphism classes from the seed
        classes = lie_classes(random.Random(f"lie:{seed}"))
        if workload == "lie_adapted":
            return lie_adapted(classes, w)
        return lie_conjugated(classes, rng, w)
    return {"nonassoc": nonassoc, "deform": deform}[workload](rng, w)


# -- Lie isomorphism classes ------------------------------------------------


@dataclass
class LieClass:
    name: str
    dim: int
    table: dict  # i < j
    roots: tuple | None = None  # rank 1 with torus [0]

    @property
    def key(self) -> str:
        """Canonical text of the adapted table, the reference cache key."""
        return json.dumps([self.dim, ex.table_doc(self.table)], sort_keys=True)

    def doc(self, table=None) -> dict:
        doc = {"dim": self.dim, "kind": "lie", "table": ex.table_doc(table or self.table)}
        if table is None and self.roots is not None:
            doc["torus"] = [0]
        return doc


def _nz(rng, pool=(-2, -1, 1, 2, 3)):
    return Fraction(rng.choice(pool))


def rank_one(name, roots, nil=None) -> LieClass:
    """[X, Y_i] = roots[i] Y_i (X = e0, Y_i = e_{i+1}) plus a nilradical table."""
    table = {(0, i + 1): {i + 1: Fraction(r)} for i, r in enumerate(roots) if r}
    for (a, b), entry in (nil or {}).items():
        table[(a + 1, b + 1)] = {k + 1: c for k, c in entry.items()}
    return LieClass(name, len(roots) + 1, table, tuple(Fraction(r) for r in roots))


def heisenberg_table(k, consts) -> dict:
    """[x_i, y_i] = c_i z on x_0..x_{k-1}, y_0..y_{k-1}, z."""
    return {(i, i + k): {2 * k: consts[i]} for i in range(k)}


def filiform_table(n, consts) -> dict:
    """[e0, e_i] = c_i e_{i+1} for 1 <= i <= n-2."""
    return {(0, i): {i + 1: consts[i - 1]} for i in range(1, n - 1)}


SL2 = {(0, 1): {1: Fraction(2)}, (0, 2): {2: Fraction(-2)}, (1, 2): {0: Fraction(1)}}


def _signs(rng, magnitudes):
    return [Fraction(rng.choice((-1, 1)) * m) for m in magnitudes]


def lie_classes(rng) -> list:
    """The fixed list of classes behind both Lie workloads, dims 2-7.

    The seed shuffles fixed multisets of roots and picks the signs of
    structure constants of fixed size, so the cost of a class (above all
    after a change of basis, where constant size drives elimination cost)
    changes little from seed to seed while its inputs do.  Roots are
    positive: H^2(g, K) = 0 then, and the zero-root criterion is consistent
    on every rank-1 class, as it must be for a rigid algebra.
    """
    out = [
        rank_one("r2", [1]),
        rank_one("zero_root", [1, 0]),
        rank_one("roots123", [1, 2, 3], {(0, 1): {2: Fraction(1)}}),
    ]
    for n in (3, 4, 5, 6, 7):
        roots = [1, 2, 3, 4, 1, 2][: n - 1]
        rng.shuffle(roots)
        out.append(rank_one(f"rank1_abelian{n}", roots))
    for k in (1, 2):
        s = 3 if k == 1 else 4
        lam = [1, 2][:k] if k == 2 else [rng.choice((1, 2))]
        rng.shuffle(lam)
        roots = lam + [s - a for a in lam] + [s]
        nil = heisenberg_table(k, _signs(rng, [1] * k))
        out.append(rank_one(f"rank1_heisenberg{2 * k + 2}", roots, nil))
    for n in (5, 6):
        m = n - 1
        roots = [1] + [2 + (i - 2) for i in range(2, m + 1)]
        eps = _signs(rng, [1] * (m - 2))
        nil = {(0, i - 1): {i: eps[i - 2]} for i in range(2, m)}
        out.append(rank_one(f"rank1_filiform{n}", roots, nil))
    for k in (1, 2, 3):
        consts = _signs(rng, [i + 1 for i in range(k)])
        out.append(LieClass(f"heisenberg{2 * k + 1}", 2 * k + 1, heisenberg_table(k, consts)))
    for n in (4, 5, 6, 7):
        consts = _signs(rng, [1 + i % 2 for i in range(n - 2)])
        out.append(LieClass(f"filiform{n}", n, filiform_table(n, consts)))
    for n in (3, 4, 5, 6, 7):
        out.append(LieClass(f"sl2_abelian{n}", n, dict(SL2)))
    return out


COHOMOLOGY = [(1, "adjoint"), (1, "trivial"), (2, "adjoint"), (2, "trivial")]


def _lie_cases(w, cls, table, tag, rigidity) -> list:
    path = w.put(f"{cls.name}{tag}", cls.doc(table))
    cases = []
    for deg, coeff in COHOMOLOGY:
        cases.append(Case(
            f"cohomology-{cls.name}{tag}-d{deg}-{coeff}",
            ["cohomology", path, "--deg", str(deg), "--coeff", coeff],
            0,
            {"kind": "cohomology", "key": cls.key, "dim": cls.dim,
             "deg": deg, "coeff": coeff, "group": f"{cls.name}{tag}"},
        ))
    cases.append(Case(f"check-{cls.name}{tag}", ["check", path], 0,
                      {"kind": "check_lie", "dim": cls.dim}))
    if rigidity and cls.roots is not None:
        cases.append(Case(
            f"rigidity-{cls.name}{tag}", ["rigidity", path, "--asserted-rigid"], 0,
            {"kind": "rigidity", "key": cls.key, "dim": cls.dim,
             "roots": [ex.qstr(r) for r in cls.roots]},
        ))
    return cases


def lie_adapted(classes, w) -> list:
    cases = []
    for cls in classes:
        cases += _lie_cases(w, cls, None, "", rigidity=True)
    return cases


# classes conjugated once or twice.  Dimension 7 is left out: one degree-2
# adjoint call there takes ~12 s after a change of basis.  Two dimension-6
# classes come without their degree-2 adjoint call, which takes 2-4 s there
# and would set the pass time, and so ops_per_s, by itself.
CONJUGATES = {
    "zero_root": 2, "roots123": 2, "rank1_abelian3": 2, "rank1_abelian4": 2,
    "rank1_abelian5": 1, "rank1_heisenberg4": 2, "rank1_heisenberg6": 1,
    "rank1_filiform5": 1, "heisenberg3": 2, "heisenberg5": 1, "filiform4": 2,
    "filiform5": 1, "sl2_abelian3": 2, "sl2_abelian4": 2, "sl2_abelian5": 1,
    "sl2_abelian6": 1,
}


def lie_conjugated(classes, rng, w) -> list:
    """Each class in the basis P * Pi * D.  P = L * U (rational, unit
    triangular) and the permutation Pi are fixed per dimension and copy; the
    seed picks the signs D (and, through lie_classes, the constants).  A
    freely seeded P, or a seeded Pi, moves single calls by 10-20% and the
    90th percentile by as much."""
    cases = []
    for cls in classes:
        for copy in range(CONJUGATES.get(cls.name, 0)):
            basis_rng = random.Random(f"basis:{cls.dim}:{copy}")
            p, p_inv = ex.unitriangular_pair(basis_rng, cls.dim)
            perm = list(range(cls.dim))
            basis_rng.shuffle(perm)
            sign = [rng.choice((-1, 1)) for _ in range(cls.dim)]
            p = [[row[c] * sign[n] for n, c in enumerate(perm)] for row in p]
            p_inv = [[x * sign[n] for x in p_inv[r]] for n, r in enumerate(perm)]
            full = ex.change_basis(ex.full_lie(cls.table), cls.dim, p, p_inv)
            cases += [c for c in _lie_cases(w, cls, ex.upper_lie(full), f"-conj{copy}",
                                            rigidity=False)
                      if cls.dim < 6 or c.argv[-3:] != ["2", "--coeff", "adjoint"]]
    return cases


# -- associative, G-associative and Poisson algebras ------------------------


def kx(m):
    """K[x]/(x^m) on 1, x, .., x^(m-1)."""
    return {(i, j): {i + j: Fraction(1)} for i in range(m) for j in range(m) if i + j < m}


def group_algebra(m):
    return {(i, j): {(i + j) % m: Fraction(1)} for i in range(m) for j in range(m)}


def diagonal(m):
    return {(i, i): {i: Fraction(1)} for i in range(m)}


def matrix_algebra(m, upper=False):
    """Matrix units E_ab (a <= b if upper) with E_ab E_bd = E_ad."""
    units = [(a, b) for a in range(m) for b in range(m) if a <= b or not upper]
    index = {u: n for n, u in enumerate(units)}
    return {
        (index[(a, b)], index[(c, d)]): {index[(a, d)]: Fraction(1)}
        for (a, b) in units for (c, d) in units if b == c
    }


ZTRIPLE = {(0, 1): {2: Fraction(1)}}  # xy = z: noncommutative, triple products 0


def vinberg(m):
    """Left-symmetric x^(a+1) d/dx . x^(b+1) d/dx = (b+1) x^(a+b+1) d/dx, truncated."""
    return {(a, b): {a + b: Fraction(b + 1)} for a in range(m) for b in range(m) if a + b < m}


def opposite(full):
    return {(j, i): dict(e) for (i, j), e in full.items()}


def scale_factors(rng, dim):
    """Seeded signs on fixed magnitudes: the copy's constants keep their size."""
    return _signs(rng, [1 + i % 2 for i in range(dim)])


def scaled(rng, full, dim):
    """Rescale the basis by seeded factors (an isomorphic copy)."""
    s = scale_factors(rng, dim)
    return {
        (i, j): {k: c * s[i] * s[j] / s[k] for k, c in e.items()}
        for (i, j), e in full.items()
    }


def conj(rng, full, dim):
    p, p_inv = ex.unitriangular_pair(rng, dim, entries=(-1, 1), den=(1, 2))
    return ex.change_basis(full, dim, p, p_inv)


def random_table(rng, dim, entries, commutative=False):
    table = {}
    pairs = [(i, j) for i in range(dim) for j in range(dim) if not commutative or i <= j]
    for i, j in rng.sample(pairs, entries):
        entry = {rng.randrange(dim): _nz(rng)}
        table[(i, j)] = entry
        if commutative:
            table[(j, i)] = dict(entry)
    return table


def assoc_doc(full, dim):
    return {"dim": dim, "kind": "assoc", "table": ex.table_doc(full)}


def poisson_doc(prod, br, dim):
    return {"dim": dim, "kind": "poisson", "assoc_table": ex.table_doc(prod),
            "bracket_table": ex.table_doc(br)}


def log_canonical(rng, nvars, degree):
    """Monomials of degree 1..degree with {x^a, x^b} = (a^T Q b) x^(a+b), truncated."""
    monos = [m for d in range(1, degree + 1) for m in _monomials(nvars, d)]
    index = {m: n for n, m in enumerate(monos)}
    qm = [[Fraction(0)] * nvars for _ in range(nvars)]
    for i, j in combinations(range(nvars), 2):
        qm[i][j] = Fraction(rng.choice((-1, 1)) * (1 + (i + j) % 2))
        qm[j][i] = -qm[i][j]
    prod, br = {}, {}
    for a in monos:
        for b in monos:
            s = tuple(x + y for x, y in zip(a, b))
            if s not in index:
                continue
            prod[(index[a], index[b])] = {index[s]: Fraction(1)}
            w = sum(a[i] * qm[i][j] * b[j] for i in range(nvars) for j in range(nvars))
            if w:
                br[(index[a], index[b])] = {index[s]: w}
    return prod, br, len(monos)


def _monomials(nvars, degree):
    if nvars == 1:
        return [(degree,)]
    return [(a,) + rest for a in range(degree, -1, -1)
            for rest in _monomials(nvars - 1, degree - a)]


def _gass_expect(full, dim, tag, signed):
    return 0 if ex.g_associative(full, dim, tag, signed) else 1


def nonassoc(rng, w) -> list:
    cases = []
    lie = {
        "sl2": (ex.full_lie(SL2), 3),
        "heisenberg3": (ex.full_lie(heisenberg_table(1, [Fraction(1)])), 3),
        "r2": (ex.full_lie({(0, 1): {1: Fraction(1)}}), 2),
        "filiform4": (ex.full_lie(filiform_table(4, [Fraction(1), Fraction(1)])), 4),
    }
    algebras = {
        "kx3": (kx(3), 3), "kx4": (kx(4), 4), "group3": (group_algebra(3), 3),
        "group2": (group_algebra(2), 2), "diag2": (diagonal(2), 2),
        "upper2": (matrix_algebra(2, upper=True), 3), "upper3": (matrix_algebra(3, upper=True), 6),
        "m2": (matrix_algebra(2), 4), "ztriple": (ZTRIPLE, 3),
        "vinberg3": (vinberg(3), 3), "vinberg4": (vinberg(4), 4),
        "opvinberg3": (opposite(vinberg(3)), 3), "opvinberg4": (opposite(vinberg(4)), 4),
        **lie,
    }
    files = {}

    def algebra(name, variant):
        """File of a named algebra as is, rescaled, or in a changed basis."""
        if (name, variant) not in files:
            if name.startswith("random"):
                dim = 3
                full = random_table(rng, dim, 4, commutative=name == "random_comm")
            else:
                full, dim = algebras[name]
                if variant == "scaled":
                    full = scaled(rng, full, dim)
                elif variant == "conj":
                    full = conj(rng, full, dim)
            files[(name, variant)] = (w.put(f"{name}-{variant}", assoc_doc(full, dim)), full, dim)
        return files[(name, variant)]

    check_sets = {
        "Id": [("kx3", "conj"), ("upper2", "scaled"), ("random", "a"), ("vinberg3", "plain")],
        "T12": [("vinberg3", "plain"), ("vinberg4", "conj"), ("ztriple", "scaled"), ("random", "b")],
        "T23": [("opvinberg3", "scaled"), ("opvinberg4", "conj"), ("m2", "plain"), ("random", "c")],
        "T13": [("random_comm", "a"), ("kx4", "scaled"), ("group3", "conj"), ("vinberg3", "scaled")],
        "A3": [("sl2", "conj"), ("heisenberg3", "scaled"), ("filiform4", "plain"), ("random", "d")],
        "S3": [("sl2", "scaled"), ("r2", "plain"), ("upper2", "conj"), ("random_comm", "b")],
    }
    for tag, members in check_sets.items():
        for name, variant in members:
            path, full, dim = algebra(name, variant)
            for signed in (True, False):
                flag = [] if signed else ["--unsigned"]
                cases.append(Case(
                    f"gass-check-{tag}-{name}-{variant}-{'signed' if signed else 'unsigned'}",
                    ["gass", "check", path, "--group", tag] + flag,
                    _gass_expect(full, dim, tag, signed),
                    {"kind": "gass_check", "tag": tag, "signed": signed, "table": full},
                ))
    dual_sets = {
        "Id": [("m2", "conj"), ("upper2", "plain"), ("random", "e")],
        "T12": [("kx3", "scaled"), ("ztriple", "plain"), ("m2", "plain")],
        "T23": [("group3", "scaled"), ("ztriple", "conj"), ("upper2", "plain")],
        "T13": [("kx4", "conj"), ("diag2", "plain"), ("random_comm", "c")],
        "A3": [("kx3", "plain"), ("group2", "conj"), ("upper2", "scaled")],
        "S3": [("group3", "plain"), ("ztriple", "scaled"), ("vinberg3", "plain")],
    }
    for tag, members in dual_sets.items():
        for name, variant in members:
            path, full, dim = algebra(name, variant)
            expect = 0 if ex.dual_identity(full, dim, tag) else 1
            cases.append(Case(
                f"gass-dual-{tag}-{name}-{variant}", ["gass", "dual", path, "--group", tag],
                expect, {"kind": "gass_dual", "tag": tag, "table": full},
            ))
    # G-associative (x) dual-G pairs: closed under tensor by construction
    tensor_sets = [  # rescaled, never conjugated: a dense factor's cost swings with the seed
        ("Id", True, ("upper2", "scaled"), ("m2", "scaled")),
        ("Id", True, ("kx3", "plain"), ("upper2", "scaled")),
        ("T12", True, ("vinberg3", "plain"), ("kx4", "scaled")),
        ("T12", True, ("vinberg4", "scaled"), ("ztriple", "plain")),
        ("T23", True, ("opvinberg3", "scaled"), ("group3", "scaled")),
        ("T23", True, ("opvinberg4", "plain"), ("ztriple", "scaled")),
        ("T13", True, ("m2", "plain"), ("kx3", "scaled")),
        ("T13", True, ("upper2", "scaled"), ("group2", "plain")),
        ("A3", True, ("sl2", "scaled"), ("kx4", "plain")),
        ("A3", True, ("filiform4", "plain"), ("group3", "plain")),
        ("S3", True, ("heisenberg3", "scaled"), ("kx3", "scaled")),
        ("S3", True, ("r2", "plain"), ("diag2", "plain")),
        ("Id", False, ("m2", "scaled"), ("kx3", "plain")),
        ("T13", False, ("random_comm", "t"), ("group3", "scaled")),
        ("S3", False, ("upper2", "plain"), ("kx3", "plain")),
    ]
    for tag, signed, left, right in tensor_sets:
        lpath, lfull, ldim = algebra(*left)
        rpath, rfull, rdim = algebra(*right)
        flag = [] if signed else ["--unsigned"]
        cases.append(Case(
            f"gass-tensor-{tag}-{'-'.join(left)}-{'-'.join(right)}-{'signed' if signed else 'unsigned'}",
            ["gass", "tensor", lpath, rpath, "--group", tag] + flag,
            0,
            {"kind": "gass_tensor", "tag": tag, "signed": signed,
             "table": ex.kronecker(lfull, ldim, rfull, rdim), "dim": ldim * rdim},
        ))
    cases += _poisson_cases(rng, w, algebra)
    return cases


def _poisson_cases(rng, w, algebra) -> list:
    structures = {}

    def poisson(name, variant):
        if (name, variant) in structures:
            return structures[(name, variant)]
        if name.startswith("logcan"):
            nvars, degree = {"logcan5": (2, 2), "logcan9": (2, 3), "logcan9b": (3, 2)}[name]
            prod, br, dim = log_canonical(rng, nvars, degree)
        elif name in ("sl2", "heisenberg3", "r2"):
            full, dim = {"sl2": (SL2, 3), "heisenberg3": (heisenberg_table(1, [Fraction(1)]), 3),
                         "r2": ({(0, 1): {1: Fraction(1)}}, 2)}[name]
            prod, br = {}, ex.full_lie(full)
        else:
            _, prod, dim = algebra(name, "plain")
            br = {}
        if variant in ("conj", "scaled"):
            if variant == "conj":
                p, p_inv = ex.unitriangular_pair(rng, dim, entries=(-1, 1), den=(1, 2))
            else:
                diag = scale_factors(rng, dim)
                p = [[diag[r] if r == c else Fraction(0) for c in range(dim)] for r in range(dim)]
                p_inv = [[1 / diag[r] if r == c else Fraction(0) for c in range(dim)]
                         for r in range(dim)]
            prod = ex.change_basis(prod, dim, p, p_inv)
            br = ex.change_basis(br, dim, p, p_inv)
        elif variant == "planted":
            pairs = sorted(br) or [(0, 1)]
            i, j = pairs[rng.randrange(len(pairs))]
            br = {k: dict(v) for k, v in br.items()}
            k = rng.randrange(dim)
            br[(i, j)] = ex.add(br.get((i, j), {}), {k: _nz(rng)})
            br = {pair: e for pair, e in br.items() if e}
        path = w.put(f"poisson-{name}-{variant}", poisson_doc(prod, br, dim))
        structures[(name, variant)] = (path, prod, br, dim)
        return structures[(name, variant)]

    cases = []
    # changes of basis stay at dimension <= 5: a conjugated dimension-9
    # structure is dense, and one verify on it costs as much as the whole pass
    verify_set = [("logcan5", "conj"), ("logcan9", "plain"), ("logcan9b", "scaled"),
                  ("sl2", "plain"), ("heisenberg3", "conj"), ("kx3", "plain"),
                  ("r2", "plain"), ("logcan5", "planted"), ("sl2", "planted"),
                  ("logcan9", "planted")]
    for name, variant in verify_set:
        path, prod, br, dim = poisson(name, variant)
        expect = 0 if ex.is_poisson(prod, br, dim) else 1
        meta = {"prod": prod, "br": br, "dim": dim}
        cases.append(Case(f"poisson-verify-{name}-{variant}", ["poisson", "verify", path],
                          expect, {"kind": "poisson_verify", **meta}))
        cases.append(Case(f"check-poisson-{name}-{variant}", ["check", path],
                          expect, {"kind": "check_poisson", **meta}))
    for left, right in [(("r2", "plain"), ("logcan5", "plain")),
                        (("sl2", "plain"), ("kx3", "plain")),
                        (("heisenberg3", "conj"), ("r2", "plain")),
                        (("logcan5", "plain"), ("diag2", "plain")),
                        (("kx3", "plain"), ("heisenberg3", "conj"))]:
        lp, lprod, lbr, ldim = poisson(*left)
        rp, rprod, rbr, rdim = poisson(*right)
        prod, br = ex.poisson_tensor(lprod, lbr, ldim, rprod, rbr, rdim)
        cases.append(Case(
            f"poisson-tensor-{'-'.join(left)}-{'-'.join(right)}", ["poisson", "tensor", lp, rp], 0,
            {"kind": "poisson_build", "prod": prod, "br": br, "dim": ldim * rdim},
        ))
    for name, variant in [("logcan5", "plain"), ("logcan9b", "scaled"), ("sl2", "plain"),
                          ("kx3", "plain"), ("heisenberg3", "conj")]:
        path, prod, br, dim = poisson(name, variant)
        cases.append(Case(
            f"poisson-opposite-{name}-{variant}", ["poisson", "opposite", path], 0,
            {"kind": "poisson_build", "prod": opposite(prod),
             "br": {pair: {k: -c for k, c in e.items()} for pair, e in br.items()},
             "dim": dim},
        ))
    for name, variant in [("upper3", "conj"), ("m2", "scaled"), ("vinberg4", "plain"),
                          ("random", "f"), ("kx4", "plain")]:
        path, full, dim = algebra(name, variant)
        expect = _gass_expect(full, dim, "Id", True)
        cases.append(Case(f"check-assoc-{name}-{variant}", ["check", path], expect,
                          {"kind": "check_assoc", "table": full}))
    return cases


# -- deformations ----------------------------------------------------------------


def series_in_m(rng, cap, valuation=1, every=2, num=5, den=3):
    """Series of the given valuation, nonzero at every `every`-th order above it.

    The support is fixed and only the values are seeded, so the bit growth
    of exact series arithmetic on it varies little from seed to seed.
    """
    s = [Fraction(0)] * (cap + 1)
    for p in range(valuation, cap + 1, every):
        s[p] = Fraction(rng.choice((-1, 1)) * rng.randint(1, num), rng.randint(1, den))
    return s


def law_table(rng, kind, n) -> dict:
    """A Lie law on K^n (i < j table) of the given family."""
    if kind == "diag":
        return {(0, i): {i: _nz(rng)} for i in range(1, n)}
    if kind == "heisenberg":
        k = (n - 1) // 2
        return heisenberg_table(k, [_nz(rng, (1, 2, -1)) for _ in range(k)])
    if kind == "filiform":
        return filiform_table(n, [_nz(rng, (1, 2, -1)) for _ in range(n - 2)])
    raise ValueError(kind)


def central_laws(rng, n, count) -> list:
    """Laws sending pairs of the first n-1 indices onto e_(n-1), which no law
    takes as input; all their circle products vanish, so any sum is Lie."""
    pairs = list(combinations(range(n - 1), 2))
    laws = []
    for _ in range(count):
        chosen = rng.sample(pairs, min(len(pairs), 2))
        laws.append({pair: {n - 1: _nz(rng)} for pair in chosen})
    return laws


def non_lie(rng, n) -> dict:
    """A seeded antisymmetric table failing Jacobi."""
    while True:
        table = {}
        for pair in rng.sample(list(combinations(range(n), 2)), min(3, n * (n - 1) // 2)):
            table[pair] = {rng.randrange(n): _nz(rng)}
        if not ex.is_lie(table, n):
            return table


def deformation_doc(base, dim, cap, terms):
    return {
        "base": {"dim": dim, "kind": "lie", "table": ex.table_doc(base)},
        "cap": cap,
        "terms": [
            {"coeff": ex.series_doc(s),
             "cochain": [{"args": [i, j], "out": [{"k": k, "c": ex.qstr(c)}
                                                  for k, c in sorted(e.items())]}
                         for (i, j), e in sorted(phi.items())]}
            for s, phi in terms
        ],
    }


def _valid_deformation(rng, shape, n, cap, conjugate=False):
    """(base table, terms, built to satisfy the graded system) by family."""
    if shape == "single":
        kind = {4: "heisenberg", 5: "filiform"}.get(n, "diag")
        law = law_table(rng, kind, n)
        if n >= 3 and conjugate:
            p, p_inv = ex.unitriangular_pair(rng, n, entries=(-1, 1), den=(1, 2))
            law = ex.upper_lie(ex.change_basis(ex.full_lie(law), n, p, p_inv))
        return {}, [(series_in_m(rng, cap, 1 + cap % 2), law)], True
    if shape == "central":
        laws = central_laws(rng, n, 3)
        return {}, [(series_in_m(rng, cap, v + 1), law) for v, law in enumerate(laws)], True
    if shape == "rank1":
        base = {(0, i): {i: _nz(rng)} for i in range(1, n)}
        terms = [(series_in_m(rng, cap, v + 1), law_table(rng, "diag", n)) for v in range(3)]
        return base, terms, True
    if shape == "two_term":
        # [X, Y] = Y with Z central; phi1 = (X,Y)->X, (X,Z)->Y and
        # phi2 = (X,Z)->2X give mu + a t phi1 + (a t)^2/2 phi2, Lie at every order
        a = _nz(rng)
        base = {(0, 1): {1: Fraction(1)}}
        phi1 = {(0, 1): {0: Fraction(1)}, (0, 2): {1: Fraction(1)}}
        phi2 = {(0, 2): {0: Fraction(2)}}
        s1 = [Fraction(0), a] + [Fraction(0)] * (cap - 1)
        s2 = [Fraction(0), Fraction(0), a * a / 2] + [Fraction(0)] * (cap - 2)
        return base, [(s1, phi1), (s2, phi2)], False
    raise ValueError(shape)


def _planted(rng, n, cap):
    """Abelian base with one non-Lie term of valuation v: residual first at 2v."""
    v = 1 + n % 2
    return {}, [(series_in_m(rng, cap, v), non_lie(rng, n))]


def _endo(rng, n, cap):
    """Id + h with h into m, on a fixed support with seeded values."""
    rows = []
    for r in range(n):
        row = []
        for c in range(n):
            if r == c:
                s = [Fraction(1)] + ([Fraction(0)] * cap)
                s[1] = _nz(rng)
            elif (r + 2 * c) % 3 == 0:
                s = series_in_m(rng, cap, 1 + (r + c) % 2, every=3, num=2, den=2)
            else:
                s = [Fraction(0)]
            row.append(ex.series_doc(s))
        rows.append(row)
    return {"cap": cap, "matrix": rows}


def deform(rng, w) -> list:
    cases = []
    shapes = ("single", "central", "rank1", "two_term")

    def valid(shape, n, cap):
        n = 3 if shape == "two_term" else n
        base, terms, graded_ok = _valid_deformation(rng, shape, n, cap, conjugate=cap % 4 == 0)
        return base, terms, graded_ok, n

    # verify: valid by construction, and planted invalid ones
    for idx in range(20):
        shape = shapes[idx % 4]
        n, cap = 2 + idx // 4 % 4, (6, 10, 16, 24)[idx // 5 % 4]
        base, terms, _, n = valid(shape, n if shape != "central" else max(n, 3), cap)
        path = w.put(f"verify-{shape}", deformation_doc(base, n, cap, terms))
        cases.append(Case(f"deform-verify-{idx:02d}-{shape}-n{n}-cap{cap}",
                          ["deform", "verify", path], 0,
                          {"kind": "deform_verify", "orders": []}))
    for idx in range(10):
        n, cap = 3 + idx % 3, (6, 10, 16, 24)[idx % 4]
        base, terms = _planted(rng, n, cap)
        orders = ex.jacobi_orders(base, terms, n, cap)
        path = w.put("verify-planted", deformation_doc(base, n, cap, terms))
        cases.append(Case(f"deform-verify-planted-{idx:02d}-n{n}-cap{cap}",
                          ["deform", "verify", path], 1 if orders else 0,
                          {"kind": "deform_verify", "orders": orders}))
    # decompose and graded
    for idx in range(15):
        shape = shapes[idx % 4]
        n, cap = (3, 4, 5)[idx % 3], (6, 8, 12, 16, 24)[idx % 5]
        base, terms, graded_ok, n = valid(shape, n, cap)
        doc = deformation_doc(base, n, cap, terms)
        path = w.put(f"decompose-{shape}", doc)
        cases.append(Case(f"deform-decompose-{idx:02d}-{shape}-n{n}-cap{cap}",
                          ["deform", "decompose", path], 0,
                          {"kind": "deform_decompose", "terms": terms, "dim": n}))
        cases.append(Case(f"deform-graded-{idx:02d}-{shape}-n{n}-cap{cap}",
                          ["deform", "graded", path], 0 if graded_ok else None,
                          {"kind": "deform_graded"}))
    # transport by Id + h, and by its inverse
    for idx in range(15):
        shape = shapes[idx % 4]
        n, cap = (2, 3, 4)[idx % 3], (6, 8, 10)[idx % 3]
        base, terms, _, n = valid(shape, n if shape != "central" else max(n, 3), cap)
        path = w.put(f"transport-{shape}", deformation_doc(base, n, cap, terms))
        endo = w.put("endo", _endo(rng, n, cap))
        inverse = idx % 2 == 1
        cases.append(Case(
            f"deform-transport-{idx:02d}-{shape}-n{n}-cap{cap}{'-inverse' if inverse else ''}",
            ["deform", "transport", path, "--endo", endo] + (["--inverse"] if inverse else []),
            0, {"kind": "deform_transport", "terms": terms, "dim": n, "cap": cap,
                "endo": endo, "inverse": inverse},
        ))
    # polycheck: P^-1 times a law polynomial in t, checked against P or a wrong P
    for idx in range(15):
        n, cap, k = (2, 3, 4, 5)[idx % 4], (6, 10, 14)[idx % 3], 1 + idx % 3
        base, terms, poly = _polycheck(rng, n, cap, k, wrong=idx % 3 == 1)
        path = w.put("polycheck", deformation_doc(base, n, cap, terms))
        ok = ex.polynomial_form(base, terms, n, cap, poly, k)
        cases.append(Case(
            f"deform-polycheck-{idx:02d}-n{n}-cap{cap}-k{k}",
            ["deform", "polycheck", path, "--poly", json.dumps([ex.qstr(c) for c in poly]),
             "--k", str(k)],
            0 if ok else 1, {"kind": "deform_polycheck"},
        ))
    # vector decompose
    for idx in range(20):
        length, cap = (4, 6, 8, 12, 16)[idx % 5], (6, 12, 18, 24)[idx % 4]
        comps = [series_in_m(rng, cap, 1 + i % 3) for i in range(length)]
        path = w.put("vector", {"cap": cap, "components": [ex.series_doc(c) for c in comps]})
        cases.append(Case(f"decompose-{idx:02d}-len{length}-cap{cap}", ["decompose", path], 0,
                          {"kind": "vector_decompose", "components": comps, "cap": cap}))
    return cases


def _polycheck(rng, n, cap, k, wrong):
    """Rank-1 law with roots polynomial in t of degree <= k, divided by P(t)."""
    lam0 = [_nz(rng) for _ in range(1, n)]
    lam = [[l0] + [Fraction(rng.randint(-2, 2)) for _ in range(k)] for l0 in lam0]
    poly = [Fraction(1)] + [Fraction(rng.randint(-2, 2)) for _ in range(k)]
    if not any(poly[1:]):
        poly[1] = Fraction(1)
    inv = ex.sinv(poly, cap)
    base = {(0, i): {i: lam0[i - 1]} for i in range(1, n)}
    terms = []
    for i in range(1, n):
        s = ex.smul(inv, lam[i - 1], cap)
        s[0] -= lam0[i - 1]
        if any(s):
            terms.append((s, {(0, i): {i: Fraction(1)}}))
    if wrong:
        poly = list(poly)
        poly[1] += 1
    return base, terms, poly
