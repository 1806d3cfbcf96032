"""Checks of valdef's answers, one per command.

Each check gets the case, the exit code and the parsed stdout, and
returns None when the answer holds or a one-line reason when it does
not.  The judge is the benchmark's own exact code (exact.py), the
sympy reference for cohomology dimensions, or a property the method must
have.  Only the transport checks call valdef again, to apply the inverse
and to verify the transported deformation; those calls are not timed.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

import exact as ex
from worker import call


class Context:
    """What checks share: reference answers, a scratch directory, valdef's main."""

    def __init__(self, reference=None, scratch=None, cli_main=None):
        self.reference = reference or {}
        self.scratch = scratch
        self.cli_main = cli_main
        self.count = 0

    def run_cli(self, argv):
        code, _, out, _ = call(self.cli_main, argv)
        return code, json.loads(out)

    def put(self, doc) -> str:
        self.count += 1
        path = os.path.join(self.scratch, f"check-{self.count}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path


def check(case, code, doc, ctx) -> str | None:
    if case.expect is not None and code != case.expect:
        return f"exit {code}, expected {case.expect}"
    if case.expect is None and code not in (0, 1):
        return f"exit {code}, expected 0 or 1"
    if doc is None:
        return "stdout is not one JSON document"
    return CHECKS[case.check["kind"]](case, code, doc, ctx)


def _cohomology(case, code, doc, ctx):
    c = case.check
    want = ctx.reference[c["key"]][f"{c['deg']}-{c['coeff']}"]
    d = doc["detail"]
    got = {"Z": d["dim_cocycles"], "B": d["dim_coboundaries"], "H": d["dim_H"]}
    if got != want:
        return f"dimensions {got}, reference {want}"
    if (d["degree"], d["coeff"]) != (c["deg"], c["coeff"]):
        return f"answered degree {d['degree']} {d['coeff']}"
    return None


def cross_check(cases, docs) -> dict:
    """dim B^2 = dim C^1 - dim Z^1 within each algebra file and coefficient.

    Returns {case index: reason} for the degree-2 cases that break it.
    """
    by_group = {}
    for n, case in enumerate(cases):
        c = case.check
        if c.get("kind") == "cohomology" and docs[n] is not None:
            by_group[(c["group"], c["coeff"], c["deg"])] = n
    failures = {}
    for (group, coeff, deg), n in by_group.items():
        first = by_group.get((group, coeff, 1))
        if deg != 2 or first is None:
            continue
        c1 = ex.cochain_dim(cases[n].check["dim"], 1, coeff)
        z1 = docs[first]["detail"]["dim_cocycles"]
        b2 = docs[n]["detail"]["dim_coboundaries"]
        if b2 != c1 - z1:
            failures[n] = f"dim B2 = {b2} but dim C1 - dim Z1 = {c1 - z1}"
    return failures


def _check_lie(case, code, doc, ctx):
    if doc["ok"] is not True or doc["detail"]["dim"] != case.check["dim"]:
        return f"check says {doc['ok']} on dim {doc['detail'].get('dim')}"
    return None


def _rigidity(case, code, doc, ctx):
    c = case.check
    d = doc["detail"]
    want_h2 = ctx.reference[c["key"]]["2-trivial"]["H"]
    if [str(Fraction(r)) for r in d["roots"]] != [str(Fraction(r)) for r in c["roots"]]:
        return f"roots {d['roots']}, built from {c['roots']}"
    if d["dim_H2_trivial"] != want_h2 or d["zero_root"]["dim_H2_trivial"] != want_h2:
        return f"dim H2(g, K) {d['dim_H2_trivial']}, reference {want_h2}"
    if d["zero_root"]["consistent"] is not True:
        return "zero-root criterion reported inconsistent"
    return None


def _witness_triple(doc):
    return tuple(doc["detail"]["witness"]["triple"])


def _gass_check(case, code, doc, ctx):
    c = case.check
    d = doc["detail"]
    if (d["group"], d["signed"]) != (c["tag"], c["signed"]):
        return f"answered group {d['group']} signed={d['signed']}"
    if code == 1 and not ex.g_sum(c["table"], c["tag"], c["signed"], _witness_triple(doc)):
        return f"G-sum vanishes at the witness {_witness_triple(doc)}"
    return None


def _gass_dual(case, code, doc, ctx):
    c = case.check
    if code == 1 and not ex.dual_fails_at(c["table"], c["tag"], _witness_triple(doc)):
        return f"dual identity holds at the witness {_witness_triple(doc)}"
    return None


def _gass_tensor(case, code, doc, ctx):
    c = case.check
    d = doc["detail"]
    if d["dim"] != c["dim"] or ex.table_from_doc(d["table"]) != c["table"]:
        return "tensor table differs from the Kronecker product"
    if not (d["left_g_associative"] and d["right_dual_identity"]):
        return "a factor of a closure pair was rejected"
    return None


def _poisson_witness(case, code, doc, ctx):
    c = case.check
    if code == 1:
        w = doc["detail"]["witness"]
        if not ex.poisson_failure(c["prod"], c["br"], c["dim"], w["axiom"], tuple(w["args"])):
            return f"axiom {w['axiom']!r} holds at the witness {w['args']}"
    return None


def _poisson_build(case, code, doc, ctx):
    c = case.check
    d = doc["detail"]
    prod = ex.table_from_doc(d["assoc_table"])
    br = ex.table_from_doc(d["bracket_table"])
    if (prod, br) != (c["prod"], c["br"]) or d["dim"] != c["dim"]:
        return "tables differ from the benchmark's own construction"
    if d["verified"] is not True or not ex.is_poisson(prod, br, d["dim"]):
        return "the constructed structure is not Poisson"
    return None


def _check_assoc(case, code, doc, ctx):
    if code == 1:
        w = doc["detail"]["witness"]
        if not ex.associator(case.check["table"], *w["triple"]):
            return f"associative at the witness {w['triple']}"
    return None


def _deform_verify(case, code, doc, ctx):
    want = case.check["orders"]
    got = doc["detail"]["witness"]["residual_orders"] if code == 1 else []
    if got != want:
        return f"residual orders {got}, predicted {want}"
    return None


def _same_perturbation(terms_a, terms_b, dim, cap) -> bool:
    a = ex.truncate_pert(ex.perturbation(terms_a, dim, cap), cap)
    b = ex.truncate_pert(ex.perturbation(terms_b, dim, cap), cap)
    return a == b


def _deform_decompose(case, code, doc, ctx):
    c = case.check
    cap = doc["cap_used"]
    if doc["detail"]["cap"] != cap:
        return "cap_used differs from the document cap"
    if not _same_perturbation(ex.terms_from_doc(doc["detail"]), c["terms"], c["dim"], cap):
        return f"sum of (b1..bi) V_i differs from the input at cap {cap}"
    return None


def _deform_graded(case, code, doc, ctx):
    satisfied = doc["detail"]["satisfied"]
    if (code == 0) != satisfied:
        return f"exit {code} with satisfied={satisfied}"
    return None


def _deform_transport(case, code, doc, ctx):
    c = case.check
    out = doc["detail"]
    with open(case.argv[2], encoding="utf-8") as fh:
        base = json.load(fh)["base"]
    path = ctx.put({"base": base, "cap": out["cap"], "terms": out["terms"]})
    vcode, vdoc = ctx.run_cli(["deform", "verify", path])
    if vcode != 0:
        return f"transported deformation fails verify (exit {vcode})"
    back = ["deform", "transport", path, "--endo", c["endo"]]
    if not c["inverse"]:
        back.append("--inverse")
    bcode, bdoc = ctx.run_cli(back)
    if bcode != 0:
        return f"transport back exits {bcode}"
    cap = min(c["cap"], bdoc["cap_used"])
    if not _same_perturbation(ex.terms_from_doc(bdoc["detail"]), c["terms"], c["dim"], cap):
        return f"transport back does not return the input at cap {cap}"
    return None


def _verdict_only(case, code, doc, ctx):
    return None


def _vector_decompose(case, code, doc, ctx):
    c = case.check
    cap = doc["cap_used"]
    comps = c["components"]
    total = [[Fraction(0)] * (cap + 1) for _ in comps]
    running = [Fraction(1)] + [Fraction(0)] * cap
    for step in doc["detail"]["steps"]:
        running = ex.smul(running, [Fraction(x) for x in step["coefficient"]], cap)
        for n, v in enumerate(step["vector"]):
            v = Fraction(v)
            if v:
                total[n] = [a + v * b for a, b in zip(total[n], running)]
    want = [ex.sadd(s[: cap + 1], [], cap) for s in comps]
    if total != want:
        return f"sum of (b1..bi) V_i differs from the input at cap {cap}"
    if doc["detail"]["recomposition_check"] is not True:
        return "valdef's own recomposition check failed"
    return None


CHECKS = {
    "cohomology": _cohomology,
    "check_lie": _check_lie,
    "rigidity": _rigidity,
    "gass_check": _gass_check,
    "gass_dual": _gass_dual,
    "gass_tensor": _gass_tensor,
    "poisson_verify": _poisson_witness,
    "check_poisson": _poisson_witness,
    "poisson_build": _poisson_build,
    "check_assoc": _check_assoc,
    "deform_verify": _deform_verify,
    "deform_decompose": _deform_decompose,
    "deform_graded": _deform_graded,
    "deform_transport": _deform_transport,
    "deform_polycheck": _verdict_only,
    "vector_decompose": _vector_decompose,
}
