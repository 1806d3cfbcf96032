"""Single command-line entry point over the JSON file formats.

Every command prints one JSON document on stdout (sorted keys, so equal
inputs give byte-identical output); diagnostics go to stderr.  Exit
codes: 0 the property holds / computation succeeded, 1 property violated
(witness in the JSON), 2 malformed input or flags, 3 insufficient
precision, 4 internal error (a bug: the traceback goes to stderr and
nothing to stdout, so it is never read as a verdict).

Start-up is most of a one-shot call, so importing this module loads only
what every command needs: `io`, `errors`, `series` and `algebra`.  Each
cmd_* function imports the modules of its own subcommand in its body, and
the parser's choices come from `algebra`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache

from . import io
from .algebra import COEFFS, MAX_DEGREE, SUBGROUPS, is_lie
from .errors import (
    FormatError,
    InvalidDeformation,
    PrecisionExhausted,
    ValdefError,
)
from .series import rational_str

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_BAD_INPUT = 2
EXIT_PRECISION = 3
EXIT_INTERNAL = 4


def _table_doc(structure) -> list:
    rows = []
    for (i, j) in sorted(structure.table):
        rows.append(
            {
                "i": i,
                "j": j,
                "out": [
                    {"k": k, "c": rational_str(c)} for k, c in structure.table[(i, j)]
                ],
            }
        )
    return rows


def _fracs(values) -> list[str]:
    return [rational_str(v) for v in values]


# -- commands ----------------------------------------------------------


def cmd_check(args):
    loaded = io.load_algebra(args.algebra)
    detail: dict = {"kind": loaded.kind}
    if loaded.kind == "lie":
        detail["dim"] = loaded.structure.dim
        ok, witness = is_lie(loaded.structure)
        if not ok:
            detail["witness"] = {"axiom": "Jacobi identity", "triple": list(witness)}
    elif loaded.kind == "assoc":
        from .nonassoc import SubgroupTag, g_associative_check

        detail["dim"] = loaded.structure.dim
        ok, witness = g_associative_check(loaded.structure, SubgroupTag.ID)
        if witness:
            detail["witness"] = {"axiom": "associativity", "triple": list(witness)}
    else:
        from .nonassoc import poisson_verify

        detail["dim"] = loaded.poisson.dim
        ok, witness = poisson_verify(loaded.poisson)
        if not ok:
            detail["witness"] = {"axiom": witness[0], "args": list(witness[1])}
    return (EXIT_OK if ok else EXIT_VIOLATED), {"ok": ok, "detail": detail}


def _load_lie(path, wrong_kind: str):
    """The AlgebraFile at path, which must hold a Lie algebra.

    A lie-kind table that fails the Jacobi identity is malformed input
    here: its cohomology and roots would be numbers with no meaning.
    """
    loaded = io.load_algebra(path)
    if loaded.kind != "lie":
        raise FormatError(wrong_kind)
    ok, witness = is_lie(loaded.structure)
    if not ok:
        raise FormatError(
            f"{path}: bracket fails the Jacobi identity at triple {list(witness)}"
        )
    return loaded


def cmd_cohomology(args):
    from .cohomology import cohomology_dim

    loaded = _load_lie(args.algebra, "cohomology needs a lie-kind algebra file")
    report = cohomology_dim(loaded.structure, args.deg, args.coeff)
    detail = {
        "degree": report.degree,
        "coeff": report.coeff,
        "dim_cocycles": report.dim_cocycles,
        "dim_coboundaries": report.dim_coboundaries,
        "dim_H": report.dim_H,
    }
    return EXIT_OK, {"ok": True, "detail": detail}


def cmd_decompose(args):
    from .decompose import decompose, flag_of, recompose

    vec = io.parse_vector(io.load_json(args.vector), args.cap)
    fd = decompose(vec)
    rec = recompose(fd)
    if rec != vec.truncate(rec.cap):
        # both sides are exact, so a mismatch is a bug: exit 4, traceback
        raise RuntimeError("the flag decomposition does not recompose to its input")
    flag = flag_of(fd)
    # a row that did not change from one level to the next is one tuple
    # object, so it is printed once
    printed = {}

    def row_doc(row):
        doc = printed.get(id(row))
        if doc is None:
            doc = printed[id(row)] = _fracs(row)
        return doc

    detail = {
        "length": fd.length,
        "ambient_dim": fd.ambient_dim,
        "cap_out": fd.cap,
        "steps": [
            {
                "coefficient": io.series_literal(s.coefficient),
                "vector": _fracs(s.vector),
            }
            for s in fd.steps
        ],
        "flag": [[row_doc(row) for row in level] for level in flag.chain],
        "recomposition_check": True,
    }
    return EXIT_OK, {"ok": True, "cap_used": vec.cap, "detail": detail}


def _verdict_doc(v) -> dict:
    """A graded-system MembershipVerdict, its pairs written "i,j"."""
    coeffs = v.coefficients or {}
    return {
        "holds": v.holds,
        "coefficients": {f"{i},{j}": rational_str(c) for (i, j), c in coeffs.items()},
    }


def _load_deformation(args):
    doc = io.load_json(args.deformation)
    base_dir = os.path.dirname(os.path.abspath(args.deformation))
    return io.parse_deformation(doc, base_dir, args.cap)


def cmd_deform(args):
    from .deformation import (
        decompose_deformation,
        graded_system,
        jacobi_residual,
        polynomial_form_check,
        series_matrix_inverse,
        transport,
    )

    d = _load_deformation(args)
    if args.action == "verify":
        residual = jacobi_residual(d)
        ok = not residual
        detail: dict = {"base_dim": d.base.dim, "n_terms": len(d.terms)}
        if not ok:
            detail["witness"] = {
                "residual_orders": sorted(residual),
                "first_residual": io.cochain_doc(residual[min(residual)]),
            }
        return (EXIT_OK if ok else EXIT_VIOLATED), {
            "ok": ok,
            "cap_used": d.cap,
            "detail": detail,
        }
    if args.action == "decompose":
        dd = decompose_deformation(d)
        return EXIT_OK, {
            "ok": True,
            "cap_used": dd.cap,
            "detail": io.deformation_doc(dd),
        }
    if args.action == "graded":
        dd = decompose_deformation(d)
        system = graded_system(dd)
        delta, bracket = system.delta_memberships, system.bracket_memberships
        detail = {
            "n_terms": len(dd.terms),
            "delta_memberships": {str(k): _verdict_doc(v) for k, v in delta.items()},
            "bracket_memberships": {
                f"{i},{k}": _verdict_doc(v) for (i, k), v in bracket.items()
            },
            "satisfied": system.satisfied,
        }
        code = EXIT_OK if system.satisfied else EXIT_VIOLATED
        return code, {"ok": system.satisfied, "cap_used": dd.cap, "detail": detail}
    if args.action == "transport":
        if not args.endo:
            raise FormatError("transport needs --endo ENDOMORPHISM_FILE")
        f = io.parse_endomorphism(io.load_json(args.endo), d.base.dim, d.cap)
        if args.inverse:
            # transport by F^-1, whose inverse is F itself
            g = series_matrix_inverse(f, min(d.cap, min(e.cap for r in f for e in r)))
            out = transport(d, g, f)
        else:
            out = transport(d, f)
        return EXIT_OK, {
            "ok": True,
            "cap_used": out.cap,
            "detail": io.deformation_doc(out),
        }
    if args.action == "polycheck":
        if args.poly is None or args.k is None:
            raise FormatError("polycheck needs --poly and --k")
        try:
            items = json.loads(args.poly)
        except ValueError as exc:
            raise FormatError(f"--poly must be a JSON array of rationals: {exc}")
        if not isinstance(items, list):
            raise FormatError(
                f"--poly must be a JSON array of rationals, got {args.poly}"
            )
        poly = [io.parse_rational(c) for c in items]
        try:
            ok = polynomial_form_check(d, poly, args.k)
        except ValueError as exc:
            raise FormatError(str(exc))
        detail = {"poly": [rational_str(c) for c in poly], "k": args.k}
        return (EXIT_OK if ok else EXIT_VIOLATED), {
            "ok": ok,
            "cap_used": d.cap,
            "detail": detail,
        }
    raise FormatError(f"unknown deform action {args.action!r}")


def cmd_rigidity(args):
    from .rigidity import TorusData, enveloping_rigidity_report, zero_root_criterion

    loaded = _load_lie(args.algebra, "rigidity analysis needs a lie-kind algebra")
    if loaded.torus is None:
        raise FormatError("algebra file must carry a 'torus' index list")
    torus = TorusData.from_torus(loaded.structure.dim, loaded.torus)
    report = enveloping_rigidity_report(loaded.structure, torus, args.asserted_rigid)
    detail = {
        "verdict": report.verdict,
        "theorem": report.theorem,
        "rank": report.rank,
        "roots": _fracs(report.roots) if report.roots is not None else None,
        "dim_H2_trivial": report.dim_H2_trivial,
    }
    if report.note:
        detail["note"] = report.note
    if torus.rank == 1:
        crit = zero_root_criterion(
            loaded.structure, torus, report.roots, report.dim_H2_trivial
        )
        detail["zero_root"] = {
            "zero_is_root": crit.zero_is_root,
            "dim_H2_trivial": crit.dim_H2_trivial,
            "consistent": crit.consistent,
            "certificate_closed": crit.certificate_closed,
            "certificate_nontrivial": crit.certificate_nontrivial,
        }
    return EXIT_OK, {"ok": True, "detail": detail}


def _files(args, what: str) -> list:
    """The action's file paths: two for tensor, one for every other action."""
    want = 2 if args.action == "tensor" else 1
    if len(args.files) != want:
        need = f"two {what}s" if want == 2 else f"one {what}"
        raise FormatError(
            f"{args.command} {args.action} needs {need}, got {len(args.files)}"
        )
    return args.files


def _tensor_dim(left: int, right: int) -> None:
    """Refuse a tensor product above io.MAX_DIM before it is built: its
    checks scan every basis triple, dim^3 of them."""
    if left * right > io.MAX_DIM:
        raise FormatError(
            f"tensor product dim {left}*{right} = {left * right} exceeds the "
            f"largest supported dim {io.MAX_DIM}"
        )


def _load_assoc(path):
    loaded = io.load_algebra(path)
    if loaded.kind != "assoc":
        raise FormatError(f"{path}: G-associativity commands need kind 'assoc'")
    return loaded.structure


def cmd_gass(args):
    from .nonassoc import (
        DUAL_IDENTITY,
        SubgroupTag,
        dual_identity_check,
        g_associative_check,
        tensor_product,
    )

    tag = SubgroupTag(args.group)
    signed = not args.unsigned
    files = _files(args, "algebra file")
    if args.action == "check":
        a = _load_assoc(files[0])
        ok, witness = g_associative_check(a, tag, signed=signed)
        detail = {"group": tag.value, "signed": signed, "dim": a.dim}
        if witness:
            detail["witness"] = {"triple": list(witness)}
        return (EXIT_OK if ok else EXIT_VIOLATED), {"ok": ok, "detail": detail}
    if args.action == "dual":
        b = _load_assoc(files[0])
        ok, witness = dual_identity_check(b, tag)
        detail = {
            "group": tag.value,
            "identity": DUAL_IDENTITY[tag],
            "dim": b.dim,
        }
        if witness:
            detail["witness"] = {"triple": list(witness)}
        return (EXIT_OK if ok else EXIT_VIOLATED), {"ok": ok, "detail": detail}
    if args.action == "tensor":
        a, b = _load_assoc(files[0]), _load_assoc(files[1])
        _tensor_dim(a.dim, b.dim)
        prod = tensor_product(a, b)
        ok, witness = g_associative_check(prod, tag, signed=signed)
        detail = {
            "group": tag.value,
            "signed": signed,
            "dim": prod.dim,
            "left_g_associative": g_associative_check(a, tag, signed=signed)[0],
            "right_dual_identity": dual_identity_check(b, tag)[0],
            "table": _table_doc(prod),
        }
        if witness:
            detail["witness"] = {"triple": list(witness)}
        return (EXIT_OK if ok else EXIT_VIOLATED), {"ok": ok, "detail": detail}
    raise FormatError(f"unknown gass action {args.action!r}")


def _load_poisson(path):
    loaded = io.load_algebra(path)
    if loaded.kind != "poisson":
        raise FormatError(f"{path}: poisson commands need kind 'poisson'")
    return loaded.poisson


def cmd_poisson(args):
    from .nonassoc import opposite_poisson, poisson_tensor, poisson_verify

    files = _files(args, "poisson file")
    if args.action == "verify":
        p = _load_poisson(files[0])
        ok, witness = poisson_verify(p)
        detail: dict = {"dim": p.dim}
        if witness:
            detail["witness"] = {"axiom": witness[0], "args": list(witness[1])}
        return (EXIT_OK if ok else EXIT_VIOLATED), {"ok": ok, "detail": detail}
    if args.action == "tensor":
        p, q = _load_poisson(files[0]), _load_poisson(files[1])
        _tensor_dim(p.dim, q.dim)
        out = poisson_tensor(p, q)
    elif args.action == "opposite":
        out = opposite_poisson(_load_poisson(files[0]))
    else:
        raise FormatError(f"unknown poisson action {args.action!r}")
    # both constructions verify their output: a failure there exits 4
    detail = {
        "dim": out.dim,
        "kind": "poisson",
        "assoc_table": _table_doc(out.product),
        "bracket_table": _table_doc(out.bracket),
        "verified": True,
    }
    return EXIT_OK, {"ok": True, "detail": detail}


# -- wiring ------------------------------------------------------------


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="valdef",
        description="exact workbench for valued deformations of algebras",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--cap", type=int, default=8, help="default precision cap (default 8)"
    )
    common.add_argument(
        "--pretty", action="store_true", help="indent the JSON output"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add_parser("check", help="axiom check by algebra kind")
    p.add_argument("algebra")
    p.set_defaults(func=cmd_check)

    p = add_parser("cohomology", help="exact cohomology dimensions")
    p.add_argument("algebra")
    p.add_argument(
        "--deg", type=int, choices=range(1, MAX_DEGREE + 1), required=True
    )
    p.add_argument("--coeff", choices=COEFFS, required=True)
    p.set_defaults(func=cmd_cohomology)

    p = add_parser("decompose", help="flag decomposition of a vector over m")
    p.add_argument("vector")
    p.set_defaults(func=cmd_decompose)

    p = add_parser("deform", help="valued deformation operations")
    p.add_argument(
        "action",
        choices=("verify", "decompose", "graded", "transport", "polycheck"),
    )
    p.add_argument("deformation")
    p.add_argument("--endo", help="endomorphism file for transport")
    p.add_argument(
        "--inverse", action="store_true", help="transport by the inverse of --endo"
    )
    p.add_argument("--poly", help="JSON array of rational strings, P from degree 0")
    p.add_argument("--k", type=int, help="polynomial form degree bound")
    p.set_defaults(func=cmd_deform)

    p = add_parser("rigidity", help="roots and enveloping-algebra report")
    p.add_argument("algebra")
    p.add_argument("--asserted-rigid", action="store_true")
    p.set_defaults(func=cmd_rigidity)

    p = add_parser("gass", help="G-associativity and tensor closure")
    p.add_argument("action", choices=("check", "dual", "tensor"))
    p.add_argument("files", nargs="+")
    p.add_argument(
        "--group",
        required=True,
        choices=SUBGROUPS,
    )
    p.add_argument(
        "--unsigned",
        action="store_true",
        help="drop the signature weights in the G-sum",
    )
    p.set_defaults(func=cmd_gass)

    p = add_parser("poisson", help="Poisson verification and constructions")
    p.add_argument("action", choices=("verify", "tensor", "opposite"))
    p.add_argument("files", nargs="+")
    p.set_defaults(func=cmd_poisson)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, doc = args.func(args)
    except PrecisionExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        _emit({"ok": False, "error": str(exc)}, args.pretty)
        return EXIT_PRECISION
    except InvalidDeformation as exc:
        print(f"error: {exc}", file=sys.stderr)
        _emit({"ok": False, "error": str(exc)}, args.pretty)
        return EXIT_VIOLATED
    except ValdefError as exc:
        print(f"error: {exc}", file=sys.stderr)
        _emit({"ok": False, "error": str(exc)}, args.pretty)
        return EXIT_BAD_INPUT
    except Exception:
        # imported here: it costs every start-up a few ms and only a bug needs it
        import traceback

        traceback.print_exc(file=sys.stderr)
        return EXIT_INTERNAL
    _emit(doc, args.pretty)
    return code


def _emit(doc, pretty: bool):
    if pretty:
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        print(json.dumps(doc, sort_keys=True, separators=(",", ":")))


if __name__ == "__main__":
    sys.exit(main())
