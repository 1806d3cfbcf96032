"""Fast tests of the benchmark's own judges (a few seconds):

    python3 perfbench/selftest.py

The reference must reproduce closed forms, the corpus constructions must
be what they claim, and every check must accept valdef's real answer and
reject a planted wrong one: a dimension off by one, a corrupted
decomposition coefficient, a flipped verdict.
"""

from __future__ import annotations

import copy
import json
import os
import sys
import tempfile
import unittest
from fractions import Fraction
from math import comb

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import corpus  # noqa: E402
import exact as ex  # noqa: E402
import reference  # noqa: E402
from valdef import cli  # noqa: E402
from worker import call  # noqa: E402

SEED = 3


def answer(case):
    code, _, out, _ = call(cli.main, case.argv)
    return code, json.loads(out)


class Corpora:
    """Each workload's corpus for one seed, built once for all tests."""

    os.makedirs(os.path.join(os.path.dirname(HERE), ".perfbench"), exist_ok=True)
    tmp = tempfile.TemporaryDirectory(dir=os.path.join(os.path.dirname(HERE), ".perfbench"))
    loads = {}
    for name in corpus.WORKLOADS:
        os.makedirs(os.path.join(tmp.name, name))
        loads[name] = corpus.build(name, SEED, os.path.join(tmp.name, name))

    @classmethod
    def first(cls, workload, kind, expect="any"):
        for case in cls.loads[workload]:
            if case.check["kind"] == kind and expect in ("any", case.expect):
                return case
        raise LookupError(kind)


def context(cases=()):
    keys = {c.check["key"] for c in cases if "key" in c.check}
    ref = {}
    for key in keys:
        dim, rows = json.loads(key)
        ref[key] = reference.answers(dim, ex.table_from_doc(rows))
    return checks.Context(ref, Corpora.tmp.name, cli.main)


class ReferenceTests(unittest.TestCase):
    def test_abelian_closed_forms(self):
        for n in range(2, 6):
            got = reference.answers(n, {})
            self.assertEqual(got["2-adjoint"]["H"], n * comb(n, 2))
            self.assertEqual(got["2-trivial"]["H"], comb(n, 2))
            self.assertEqual(got["1-adjoint"]["H"], n * n)

    def test_sl2_is_rigid(self):
        got = reference.answers(3, corpus.SL2)
        self.assertEqual(got["1-adjoint"]["H"], 0)
        self.assertEqual(got["2-adjoint"]["H"], 0)

    def test_basis_invariance(self):
        classes = corpus.lie_classes(__import__("random").Random(0))
        cls = next(c for c in classes if c.name == "filiform5")
        p, p_inv = ex.unitriangular_pair(__import__("random").Random(1), cls.dim)
        conj = ex.upper_lie(ex.change_basis(ex.full_lie(cls.table), cls.dim, p, p_inv))
        a, b = reference.answers(cls.dim, cls.table), reference.answers(cls.dim, conj)
        for key in ("1-adjoint", "2-adjoint", "1-trivial", "2-trivial"):
            self.assertEqual(a[key], b[key])


class ConstructionTests(unittest.TestCase):
    def test_valid_deformations_have_no_residual(self):
        import random

        rng = random.Random(5)
        for shape in ("single", "central", "rank1", "two_term"):
            for n, cap in ((3, 6), (4, 10), (5, 8)):
                n = 3 if shape == "two_term" else n
                base, terms, _ = corpus._valid_deformation(rng, shape, n, cap)
                self.assertEqual(ex.jacobi_orders(base, terms, n, cap), [], shape)

    def test_planted_residual_starts_at_twice_the_valuation(self):
        import random

        rng = random.Random(6)
        for n, cap in ((3, 8), (4, 10), (5, 12)):
            base, terms = corpus._planted(rng, n, cap)
            v = next(p for p, c in enumerate(terms[0][0]) if c)
            self.assertEqual(ex.jacobi_orders(base, terms, n, cap)[0], 2 * v)

    def test_closure_pairs_are_g_associative(self):
        for case in Corpora.loads["nonassoc"]:
            c = case.check
            if c["kind"] == "gass_tensor" and c["dim"] <= 9:
                self.assertTrue(ex.g_associative(c["table"], c["dim"], c["tag"], c["signed"]),
                                case.id)


class CheckTests(unittest.TestCase):
    def assertAccepts(self, case, code, doc, ctx):
        self.assertIsNone(checks.check(case, code, doc, ctx), case.id)

    def assertRejects(self, case, code, doc, ctx):
        self.assertIsNotNone(checks.check(case, code, doc, ctx), case.id)

    def test_cohomology_dimension_off_by_one(self):
        case = Corpora.first("lie_adapted", "cohomology")
        ctx = context([case])
        code, doc = answer(case)
        self.assertAccepts(case, code, doc, ctx)
        for field in ("dim_H", "dim_cocycles", "dim_coboundaries"):
            bad = copy.deepcopy(doc)
            bad["detail"][field] += 1
            self.assertRejects(case, code, bad, ctx)

    def test_coboundary_cross_check(self):
        cases = [c for c in Corpora.loads["lie_conjugated"] if c.check["kind"] == "cohomology"][:4]
        docs = [answer(c)[1] for c in cases]
        self.assertEqual(checks.cross_check(cases, docs), {})
        docs[2]["detail"]["dim_coboundaries"] += 1  # degree 2, adjoint
        self.assertEqual(list(checks.cross_check(cases, docs)), [2])

    def test_rigidity(self):
        case = Corpora.first("lie_adapted", "rigidity")
        ctx = context([case])
        code, doc = answer(case)
        self.assertAccepts(case, code, doc, ctx)
        for key, wrong in (("roots", doc["detail"]["roots"] + ["5"]),
                           ("dim_H2_trivial", doc["detail"]["dim_H2_trivial"] + 1),
                           ("zero_root", {**doc["detail"]["zero_root"], "consistent": False})):
            bad = copy.deepcopy(doc)
            bad["detail"][key] = wrong
            self.assertRejects(case, code, bad, ctx)

    def test_flipped_verdicts(self):
        ctx = context()
        for workload, kind in (("nonassoc", "gass_check"), ("nonassoc", "gass_dual"),
                               ("nonassoc", "poisson_verify"), ("nonassoc", "check_assoc"),
                               ("deform", "deform_verify"), ("deform", "deform_polycheck")):
            for expect in (0, 1):
                case = Corpora.first(workload, kind, expect)
                code, doc = answer(case)
                self.assertAccepts(case, code, doc, ctx)
                self.assertRejects(case, 1 - code, doc, ctx)

    def test_graded_verdict_must_match_exit_code(self):
        case = Corpora.first("deform", "deform_graded", 0)
        code, doc = answer(case)
        self.assertAccepts(case, code, doc, context())
        bad = copy.deepcopy(doc)
        bad["detail"]["satisfied"] = False
        self.assertRejects(case, code, bad, context())

    def test_false_witnesses(self):
        ctx = context()
        case = Corpora.first("nonassoc", "gass_check", 1)
        code, doc = answer(case)
        table, tag, signed = case.check["table"], case.check["tag"], case.check["signed"]
        quiet = [list(t) for t in __import__("itertools").product(range(3), repeat=3)
                 if not ex.g_sum(table, tag, signed, t)]
        if quiet:
            bad = copy.deepcopy(doc)
            bad["detail"]["witness"]["triple"] = quiet[0]
            self.assertRejects(case, code, bad, ctx)
        case = Corpora.first("deform", "deform_verify", 1)
        code, doc = answer(case)
        bad = copy.deepcopy(doc)
        bad["detail"]["witness"]["residual_orders"][0] += 1
        self.assertRejects(case, code, bad, ctx)

    def test_corrupted_decomposition_coefficient(self):
        ctx = context()
        case = Corpora.first("deform", "vector_decompose")
        code, doc = answer(case)
        self.assertAccepts(case, code, doc, ctx)
        bad = copy.deepcopy(doc)
        coeff = bad["detail"]["steps"][0]["coefficient"]
        coeff[-1] = str(Fraction(coeff[-1]) + 1)
        self.assertRejects(case, code, bad, ctx)

        case = Corpora.first("deform", "deform_decompose")
        code, doc = answer(case)
        self.assertAccepts(case, code, doc, ctx)
        bad = copy.deepcopy(doc)
        coeff = bad["detail"]["terms"][0]["coeff"]
        coeff[1] = str(Fraction(coeff[1]) + 1)
        self.assertRejects(case, code, bad, ctx)

    def test_tensor_tables(self):
        ctx = context()
        for kind in ("gass_tensor", "poisson_build"):
            case = Corpora.first("nonassoc", kind)
            code, doc = answer(case)
            self.assertAccepts(case, code, doc, ctx)
            bad = copy.deepcopy(doc)
            key = "table" if kind == "gass_tensor" else "bracket_table"
            cell = bad["detail"][key][0]["out"][0]
            cell["c"] = str(Fraction(cell["c"]) * 2)
            self.assertRejects(case, code, bad, ctx)

    def test_transport_round_trip(self):
        ctx = context()
        case = Corpora.first("deform", "deform_transport")
        code, doc = answer(case)
        self.assertAccepts(case, code, doc, ctx)
        bad = copy.deepcopy(doc)
        term = bad["detail"]["terms"][-1]
        term["coeff"][-1] = str(Fraction(term["coeff"][-1]) + 1)
        self.assertRejects(case, code, bad, ctx)


if __name__ == "__main__":
    unittest.main()
